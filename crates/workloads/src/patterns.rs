//! Access-pattern primitives and the trace generator.

use sim_types::rng::SplitMix64;
use sim_types::{AccessKind, TraceOp, TraceSource, VAddr};

/// The family of synthetic access patterns used to stand in for the paper's
/// benchmarks (PAPER.md, "What the reproduction covers").
///
/// Real applications mix *spatial* locality (streams, runs) with *temporal*
/// locality (hot working sets, re-walked tiles); these primitives expose
/// both as explicit knobs. All footprint-relative parameters are expressed
/// in basis points (1 bp = 0.01%) so specs stay valid under scaling.
///
/// Leaf variants carry only scalars; the composite variants own their
/// phase/part lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatternSpec {
    /// Dense sequential walk with a small element stride and **no reuse** —
    /// the paper singles out dc.B's "streaming nature ... little potential
    /// for data reuse".
    Stream {
        /// Byte stride between consecutive references.
        stride: u32,
    },
    /// Sequential walk organized in *tiles* that are re-walked `repeats`
    /// times before moving on — the timestep/subdomain reuse of stencil and
    /// grid codes (lbm, sp.D, bt.D, fotonik3d). This is what lets caches
    /// and migration cut FM traffic on streaming codes (Figure 16).
    TiledStream {
        /// Byte stride between consecutive references.
        stride: u32,
        /// Tile size as basis points of the footprint.
        tile_bp: u32,
        /// Number of times each tile is walked (>= 1).
        repeats: u8,
    },
    /// Uniform random 8-byte references over the whole footprint — no
    /// spatial *or* temporal locality at all. Reserved for deepsjeng
    /// ("wide memory footprint and very limited spatial locality"; the
    /// paper notes *no* scheme beats the baseline on it).
    Random,
    /// Random 64-byte-granule jumps concentrated on a hot subset — pointer
    /// chasing over node-sized objects with a warm core (mcf, omnetpp,
    /// ua.D). Poor spatial locality (large cache lines over-fetch), decent
    /// temporal locality (NM capacity pays off).
    PointerChase {
        /// Hot-region size as basis points of the footprint.
        hot_bp: u32,
        /// Percentage of references that go to the hot region.
        hot_pct: u8,
    },
    /// A hot subset absorbs most references; cold references walk short
    /// sequential runs (page-level locality) — the low-MPKI SPEC group.
    Hotspot {
        /// Hot-region size as basis points of the footprint.
        hot_bp: u32,
        /// Percentage of references that go to the hot region.
        hot_pct: u8,
    },
    /// Like [`PatternSpec::Hotspot`] but the hot region relocates every
    /// `period` memory references — working-set shifts (gcc, xz), the case
    /// caches adapt to faster than migration schemes.
    PhasedHotspot {
        /// Memory references between hot-region moves.
        period: u64,
        /// Hot-region size as basis points of the footprint.
        hot_bp: u32,
        /// Percentage of references that go to the hot region.
        hot_pct: u8,
    },
    /// A probabilistic blend: `stream_pct`% sequential walk, the rest
    /// hot-set random gathers — sparse algebra and mixed codes (cg.D,
    /// cactus, cam4, x264).
    StreamMix {
        /// Percentage of references that continue the sequential walk.
        stream_pct: u8,
        /// Byte stride of the sequential component.
        stride: u32,
        /// Hot-region size (basis points) for the gather component.
        hot_bp: u32,
        /// Percentage of gathers that stay in the hot region.
        hot_pct: u8,
    },
    /// Concatenation of sub-patterns with exact per-phase op budgets —
    /// program *phase changes* (hot-set drift, compute/IO alternation)
    /// that single-phase loops never exercise. The phase list cycles
    /// indefinitely: after the last phase's budget is spent the stream
    /// re-enters phase 0 (trace sources are unbounded by contract).
    Phased {
        /// The phases, in execution order. Must be non-empty, each with a
        /// non-zero op budget and a leaf or [`PatternSpec::Mix`] pattern
        /// (a mix phase models tenants entering/leaving at op budgets).
        phases: Vec<Phase>,
    },
    /// Deterministic weighted interleave of 2–4 co-running programs, each
    /// confined to its own disjoint slice of the footprint — multi-program
    /// co-run interference (a bandwidth hog next to a latency-sensitive
    /// hot-set walker). The interleave schedule is a smooth weighted
    /// round-robin fixed at construction, so the op stream is a pure
    /// function of the spec and seed.
    Mix {
        /// The co-running programs. Must be 2–4 parts, each with a leaf
        /// pattern, a non-zero weight, and slices that fit the region.
        parts: Vec<MixPart>,
    },
}

/// One phase of a [`PatternSpec::Phased`] stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Pattern driving this phase: a leaf, or a [`PatternSpec::Mix`]
    /// (tenant churn — the set of co-running programs changes when the
    /// phase does).
    pub pattern: PatternSpec,
    /// Memory references generated before the next phase begins. The
    /// boundary is exact: op `sum(budgets so far)` is the last op of the
    /// phase and the very next op comes from the following phase.
    pub ops: u64,
}

/// One co-running program of a [`PatternSpec::Mix`] stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixPart {
    /// Leaf pattern of this program.
    pub pattern: PatternSpec,
    /// Mean instructions per memory reference for this program.
    pub mem_every: u32,
    /// Store share of this program's references, in percent.
    pub write_pct: u8,
    /// This program's slice of the footprint, in basis points (the slices
    /// are laid out back-to-back from the region base; each is at least
    /// 4 KB, and together they must fit the region).
    pub span_bp: u32,
    /// Relative share of the interleave: ops per schedule round.
    pub weight: u8,
}

impl PatternSpec {
    /// True for the composite scenario patterns ([`PatternSpec::Phased`],
    /// [`PatternSpec::Mix`]); leaf patterns generate addresses directly.
    pub fn is_composite(&self) -> bool {
        matches!(self, PatternSpec::Phased { .. } | PatternSpec::Mix { .. })
    }

    /// The largest `mem_every` any op of this pattern can be generated
    /// with: `default` for leaf patterns, the max over parts for a mix
    /// (each part has its own), and the recursive max over phases for a
    /// phased pattern (a phase may itself be a mix). Bounds the per-op gap
    /// for instruction-accounting invariants.
    pub fn max_mem_every(&self, default: u32) -> u32 {
        match self {
            PatternSpec::Mix { parts } => parts.iter().map(|p| p.mem_every).fold(default, u32::max),
            PatternSpec::Phased { phases } => phases
                .iter()
                .map(|ph| ph.pattern.max_mem_every(default))
                .fold(default, u32::max),
            _ => default,
        }
    }
}

/// The smooth weighted-round-robin interleave order for `weights`: a cycle
/// of `sum(weights)` part indices in which each part appears `weight` times,
/// spread as evenly as possible (classic smooth-WRR: add each weight every
/// step, emit the largest accumulator, subtract the total). Deterministic,
/// ties broken by lowest index.
fn wrr_order(weights: &[u8]) -> Vec<u8> {
    let total: i64 = weights.iter().map(|&w| i64::from(w)).sum();
    let mut current = vec![0i64; weights.len()];
    let mut order = Vec::with_capacity(total as usize);
    for _ in 0..total {
        for (c, &w) in current.iter_mut().zip(weights) {
            *c += i64::from(w);
        }
        let best = (0..current.len())
            .max_by_key(|&i| (current[i], std::cmp::Reverse(i)))
            .expect("mix has at least one part");
        current[best] -= total;
        order.push(best as u8);
    }
    order
}

/// A deterministic, unbounded trace generator for one hardware thread.
///
/// Produced by [`Workload::build`](crate::Workload::build); implements
/// [`TraceSource`] for the core model.
#[derive(Clone, Debug)]
pub struct TraceGen {
    pattern: PatternSpec,
    mem_every: u32,
    write_pct: u8,
    /// First byte of this thread's own region.
    base: u64,
    /// Size of this thread's own region in bytes.
    size: u64,
    /// Bytes of the shared region at the bottom of the address space
    /// (0 for private/MP address spaces).
    shared_bytes: u64,
    rng: SplitMix64,
    cursor: u64,
    cold_cursor: u64,
    tile_start: u64,
    tile_walked: u64,
    tile_rep: u8,
    ops: u64,
    hot_base: u64,
    /// Sub-generators of a composite pattern (empty for leaf patterns).
    kids: Vec<TraceGen>,
    /// Which kid produces the next op (leaf patterns generate directly).
    sched: Sched,
}

/// Delegation state of a composite [`TraceGen`].
#[derive(Clone, Debug)]
enum Sched {
    /// Leaf pattern: no delegation.
    Leaf,
    /// Phased: kid `idx` produces the next `left` ops, then the next phase
    /// (cyclically) takes over with a fresh budget from `budgets`.
    Phased {
        idx: usize,
        left: u64,
        budgets: Vec<u64>,
    },
    /// Mix: `order[pos]` names the kid producing the next op.
    Mix { order: Vec<u8>, pos: usize },
}

impl TraceGen {
    /// Creates a generator over `[base, base + size)` with an optional
    /// shared region `[0, shared_bytes)` receiving ~1/8 of references.
    ///
    /// # Panics
    ///
    /// Panics if `size` is smaller than 4 KB (degenerate regions make the
    /// pattern arithmetic meaningless), or if a composite pattern is
    /// structurally invalid: empty/zero-budget phases, phases nesting
    /// another `Phased`, fewer than 2
    /// or more than 4 mix parts, mix parts that are not leaves, zero mix
    /// weights, or mix slices that do not fit the region.
    pub fn new(
        pattern: PatternSpec,
        mem_every: u32,
        write_pct: u8,
        base: u64,
        size: u64,
        shared_bytes: u64,
        mut rng: SplitMix64,
    ) -> Self {
        assert!(
            size >= 4096,
            "trace region must be at least 4 KB, got {size}"
        );
        let (kids, sched) = match &pattern {
            PatternSpec::Phased { phases } => {
                assert!(!phases.is_empty(), "Phased needs at least one phase");
                let kids = phases
                    .iter()
                    .map(|ph| {
                        assert!(
                            !matches!(ph.pattern, PatternSpec::Phased { .. }),
                            "phases must not nest phased patterns"
                        );
                        assert!(ph.ops > 0, "phase op budgets must be non-zero");
                        let fork = rng.fork();
                        TraceGen::new(
                            ph.pattern.clone(),
                            mem_every,
                            write_pct,
                            base,
                            size,
                            shared_bytes,
                            fork,
                        )
                    })
                    .collect();
                (
                    kids,
                    Sched::Phased {
                        idx: 0,
                        left: phases[0].ops,
                        budgets: phases.iter().map(|ph| ph.ops).collect(),
                    },
                )
            }
            PatternSpec::Mix { parts } => {
                assert!(
                    (2..=4).contains(&parts.len()),
                    "Mix needs 2-4 parts, got {}",
                    parts.len()
                );
                // Mix models *private* co-running programs: parts never
                // reference a shared region, so a shared (MT) address
                // space would silently lose its documented ~1/8 shared
                // traffic. Reject it instead of dropping it.
                assert!(
                    shared_bytes == 0,
                    "Mix parts are private programs; use an MP (private \
                     address space) workload kind, got shared_bytes={shared_bytes}"
                );
                let mut offset = 0u64;
                let kids: Vec<TraceGen> = parts
                    .iter()
                    .map(|p| {
                        assert!(!p.pattern.is_composite(), "mix parts must be leaf patterns");
                        assert!(p.weight > 0, "mix part weights must be non-zero");
                        let span = (size * u64::from(p.span_bp) / 10_000).max(4096);
                        let fork = rng.fork();
                        let kid = TraceGen::new(
                            p.pattern.clone(),
                            p.mem_every,
                            p.write_pct,
                            base + offset,
                            span,
                            0,
                            fork,
                        );
                        offset += span;
                        kid
                    })
                    .collect();
                assert!(
                    offset <= size,
                    "mix slices overflow the region: {offset} > {size}"
                );
                let weights: Vec<u8> = parts.iter().map(|p| p.weight).collect();
                (
                    kids,
                    Sched::Mix {
                        order: wrr_order(&weights),
                        pos: 0,
                    },
                )
            }
            _ => (Vec::new(), Sched::Leaf),
        };
        TraceGen {
            pattern,
            mem_every: mem_every.max(1),
            write_pct,
            base,
            size,
            shared_bytes,
            rng,
            cursor: 0,
            cold_cursor: 0,
            tile_start: 0,
            tile_walked: 0,
            tile_rep: 0,
            ops: 0,
            hot_base: 0,
            kids,
            sched,
        }
    }

    /// The pattern this generator follows.
    pub fn pattern(&self) -> &PatternSpec {
        &self.pattern
    }

    /// For a [`PatternSpec::Phased`] generator: the index of the phase the
    /// *next* op will come from. `None` for every other pattern.
    pub fn phase_index(&self) -> Option<usize> {
        match &self.sched {
            Sched::Phased { idx, left, .. } => {
                // A spent budget means the next op re-enters the following
                // phase (cyclically) even though `idx` has not advanced yet.
                if *left == 0 {
                    Some((*idx + 1) % self.kids.len())
                } else {
                    Some(*idx)
                }
            }
            _ => None,
        }
    }

    /// Exactly `x % m`, but the per-op common case (`x` already below `m`
    /// or barely past it) never executes a 64-bit divide — address
    /// wrap-around runs once per generated op, and `div` is the single
    /// most expensive ALU instruction on that path.
    #[inline]
    fn wrap(x: u64, m: u64) -> u64 {
        if x < m {
            x
        } else if x < 2 * m {
            x - m
        } else {
            x % m
        }
    }

    fn region_of_bp(&self, bp: u32) -> u64 {
        (self.size * u64::from(bp) / 10_000).max(4096)
    }

    /// A 64 B-granular reference to the first `hot_lines` lines with
    /// probability `hot_pct`%, uniform over the footprint otherwise.
    #[inline(always)]
    fn hot_jump(&mut self, hot_lines: u64, hot_pct: u64) -> u64 {
        if self.rng.chance(hot_pct, 100) {
            Self::wrap(self.rng.gen_range(hot_lines) * 64, self.size)
        } else {
            self.rng.gen_range(self.size / 64) * 64
        }
    }

    /// A cold reference with page-level locality: short sequential runs of
    /// 64 B lines with occasional random restarts (mean run ~8 lines).
    #[inline(always)]
    fn cold_run(&mut self) -> u64 {
        if self.rng.chance(1, 8) {
            self.cold_cursor = self.rng.gen_range(self.size / 64) * 64;
        } else {
            self.cold_cursor = Self::wrap(self.cold_cursor + 64, self.size);
        }
        self.cold_cursor
    }

    /// Fills `out` with the next `out.len()` ops of the stream: exactly
    /// the ops as many [`TraceSource::next_op`] calls would return, which
    /// is one `fill` of a single op each.
    ///
    /// A leaf pattern is matched once per call, and the op loop runs with
    /// the pattern's parameters hoisted out of it. A phased pattern fills
    /// whole runs from the current phase, up to its remaining budget. A
    /// mix fills one op at a time from the part its interleave schedules.
    /// Only the producing sub-generator's state advances, so phase and
    /// part streams are independent of the interleave around them.
    pub fn fill(&mut self, out: &mut [TraceOp]) {
        match &mut self.sched {
            Sched::Leaf => {}
            Sched::Phased { idx, left, budgets } => {
                let mut done = 0;
                while done < out.len() {
                    if *left == 0 {
                        *idx = (*idx + 1) % budgets.len();
                        *left = budgets[*idx];
                    }
                    let run = ((out.len() - done) as u64).min(*left);
                    *left -= run;
                    let end = done + run as usize;
                    self.kids[*idx].fill(&mut out[done..end]);
                    done = end;
                }
                return;
            }
            Sched::Mix { order, pos } => {
                for slot in out {
                    let k = order[*pos] as usize;
                    *pos = (*pos + 1) % order.len();
                    self.kids[k].fill(std::slice::from_mut(slot));
                }
                return;
            }
        }
        let size = self.size;
        match self.pattern {
            PatternSpec::Stream { stride } => {
                let stride = u64::from(stride);
                self.fill_leaf(out, |g| {
                    g.cursor = Self::wrap(g.cursor + stride, size);
                    g.cursor
                });
            }
            PatternSpec::TiledStream {
                stride,
                tile_bp,
                repeats,
            } => {
                let tile = self.region_of_bp(tile_bp);
                let stride = u64::from(stride);
                let repeats = repeats.max(1);
                self.fill_leaf(out, |g| {
                    g.tile_walked += stride;
                    if g.tile_walked >= tile {
                        g.tile_walked = 0;
                        g.tile_rep += 1;
                        if g.tile_rep >= repeats {
                            g.tile_rep = 0;
                            g.tile_start = (g.tile_start + tile) % size;
                        }
                    }
                    Self::wrap(g.tile_start + g.tile_walked, size)
                });
            }
            PatternSpec::Random => {
                let words = size / 8;
                self.fill_leaf(out, |g| g.rng.gen_range(words) * 8);
            }
            PatternSpec::PointerChase { hot_bp, hot_pct } => {
                let hot_lines = self.region_of_bp(hot_bp) / 64;
                let hot_pct = u64::from(hot_pct);
                self.fill_leaf(out, |g| g.hot_jump(hot_lines, hot_pct));
            }
            PatternSpec::Hotspot { hot_bp, hot_pct } => {
                let hot_words = self.region_of_bp(hot_bp) / 8;
                let hot_pct = u64::from(hot_pct);
                self.fill_leaf(out, |g| {
                    if g.rng.chance(hot_pct, 100) {
                        g.rng.gen_range(hot_words) * 8
                    } else {
                        g.cold_run()
                    }
                });
            }
            PatternSpec::PhasedHotspot {
                period,
                hot_bp,
                hot_pct,
            } => {
                let hot = self.region_of_bp(hot_bp);
                let hot_pct = u64::from(hot_pct);
                self.fill_leaf(out, |g| {
                    if g.ops > 0 && g.ops.is_multiple_of(period) {
                        // Relocate the hot region to fresh addresses.
                        g.hot_base = (g.hot_base + hot) % size.saturating_sub(hot).max(1);
                    }
                    if g.rng.chance(hot_pct, 100) {
                        (g.hot_base + g.rng.gen_range(hot / 8) * 8) % size
                    } else {
                        g.cold_run()
                    }
                });
            }
            PatternSpec::StreamMix {
                stream_pct,
                stride,
                hot_bp,
                hot_pct,
            } => {
                let stream_pct = u64::from(stream_pct);
                let stride = u64::from(stride);
                let hot_lines = self.region_of_bp(hot_bp) / 64;
                let hot_pct = u64::from(hot_pct);
                self.fill_leaf(out, |g| {
                    if g.rng.chance(stream_pct, 100) {
                        g.cursor = Self::wrap(g.cursor + stride, size);
                        g.cursor
                    } else {
                        g.hot_jump(hot_lines, hot_pct)
                    }
                });
            }
            PatternSpec::Phased { .. } | PatternSpec::Mix { .. } => {
                unreachable!("composite patterns delegate to sub-generators")
            }
        }
    }

    /// The op loop of a leaf pattern; `own_addr` yields the next offset in
    /// the thread's own region. Per op the draws come in a fixed order:
    /// the gap, the shared-region draw (MT workloads only), the address,
    /// then the store draw.
    #[inline(always)]
    fn fill_leaf(&mut self, out: &mut [TraceOp], mut own_addr: impl FnMut(&mut Self) -> u64) {
        // Uniform around the mean: mean gap = mem_every - 1.
        let gap_span = u64::from(2 * (self.mem_every - 1) + 1);
        let write_pct = u64::from(self.write_pct);
        let shared = self.shared_bytes >= 4096;
        let shared_lines = (self.shared_bytes / 8).max(4096) / 64;
        for slot in out {
            self.ops += 1;
            let gap = if gap_span == 1 {
                0
            } else {
                self.rng.gen_range(gap_span) as u32
            };
            // Shared-region reference (MT workloads only): 1 in 8. Shared
            // OpenMP structures (reduction variables, lookup tables,
            // boundary planes) are compact and hot, so shared traffic
            // concentrates on a core an eighth the size of the shared
            // region.
            let addr = if shared && self.rng.chance(1, 8) {
                self.rng.gen_range(shared_lines) * 64
            } else {
                self.base + own_addr(self)
            };
            let kind = if self.rng.chance(write_pct, 100) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            *slot = TraceOp {
                gap,
                addr: VAddr::new(addr),
                kind,
            };
        }
    }
}

impl TraceSource for TraceGen {
    /// A [`TraceGen::fill`] of one op.
    fn next_op(&mut self) -> Option<TraceOp> {
        let mut op = [TraceOp::load(0, VAddr::new(0))];
        self.fill(&mut op);
        Some(op[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(pattern: PatternSpec, size: u64) -> TraceGen {
        TraceGen::new(pattern, 10, 20, 0, size, 0, SplitMix64::new(7))
    }

    fn collect(g: &mut TraceGen, n: usize) -> Vec<TraceOp> {
        (0..n).map(|_| g.next_op().unwrap()).collect()
    }

    #[test]
    fn stream_is_sequential_with_wraparound() {
        let mut g = gen(PatternSpec::Stream { stride: 8 }, 4096);
        let ops = collect(&mut g, 1024);
        for w in ops.windows(2) {
            let a = w[0].addr.raw();
            let b = w[1].addr.raw();
            assert!(
                b == a + 8 || b == 0,
                "stream must advance by stride or wrap"
            );
        }
    }

    #[test]
    fn addresses_stay_in_region() {
        for p in [
            PatternSpec::Stream { stride: 8 },
            PatternSpec::TiledStream {
                stride: 8,
                tile_bp: 500,
                repeats: 2,
            },
            PatternSpec::Random,
            PatternSpec::PointerChase {
                hot_bp: 2000,
                hot_pct: 85,
            },
            PatternSpec::Hotspot {
                hot_bp: 100,
                hot_pct: 90,
            },
            PatternSpec::PhasedHotspot {
                period: 100,
                hot_bp: 100,
                hot_pct: 90,
            },
            PatternSpec::StreamMix {
                stream_pct: 70,
                stride: 8,
                hot_bp: 1000,
                hot_pct: 80,
            },
        ] {
            let size = 1 << 20;
            let mut g = TraceGen::new(p.clone(), 5, 10, 1 << 30, size, 0, SplitMix64::new(3));
            for _ in 0..5000 {
                let op = g.next_op().unwrap();
                let a = op.addr.raw();
                assert!(
                    a >= (1 << 30) && a < (1 << 30) + size,
                    "pattern {p:?} escaped its region: {a:#x}"
                );
            }
        }
    }

    #[test]
    fn tiled_stream_revisits_lines() {
        let size = 1u64 << 20;
        let mut g = gen(
            PatternSpec::TiledStream {
                stride: 64,
                tile_bp: 100, // ~10 KB tiles
                repeats: 3,
            },
            size,
        );
        let ops = collect(&mut g, 3000);
        let mut counts = std::collections::HashMap::new();
        for o in &ops {
            *counts.entry(o.addr.raw() / 64).or_insert(0u32) += 1;
        }
        let revisited = counts.values().filter(|&&c| c >= 3).count();
        assert!(
            revisited > counts.len() / 2,
            "tiles must be re-walked: {revisited}/{}",
            counts.len()
        );
    }

    #[test]
    fn pure_stream_never_revisits_within_footprint() {
        let size = 1u64 << 20;
        let mut g = gen(PatternSpec::Stream { stride: 64 }, size);
        let ops = collect(&mut g, 10_000); // < size/64 ops: no wrap yet
        let mut seen = std::collections::HashSet::new();
        for o in &ops {
            assert!(seen.insert(o.addr.raw()), "stream revisited before wrap");
        }
    }

    #[test]
    fn pointer_chase_is_line_aligned_and_hot_biased() {
        let size = 1u64 << 22;
        let mut g = gen(
            PatternSpec::PointerChase {
                hot_bp: 1000, // 10%
                hot_pct: 85,
            },
            size,
        );
        let ops = collect(&mut g, 20_000);
        let hot_limit = size / 10;
        let mut hot = 0;
        for op in &ops {
            assert_eq!(op.addr.raw() % 64, 0);
            if op.addr.raw() < hot_limit {
                hot += 1;
            }
        }
        let frac = hot as f64 / ops.len() as f64;
        assert!(frac > 0.8, "hot fraction was {frac}");
    }

    #[test]
    fn hotspot_concentrates_references() {
        let size = 1u64 << 22; // 4 MB
        let mut g = gen(
            PatternSpec::Hotspot {
                hot_bp: 100, // 1% of footprint
                hot_pct: 90,
            },
            size,
        );
        let hot_limit = size / 100;
        let ops = collect(&mut g, 20_000);
        let hot = ops.iter().filter(|o| o.addr.raw() < hot_limit).count();
        let frac = hot as f64 / ops.len() as f64;
        assert!(frac > 0.85, "hot fraction was {frac}");
    }

    #[test]
    fn cold_references_form_sequential_runs() {
        let size = 1u64 << 22;
        let mut g = gen(
            PatternSpec::Hotspot {
                hot_bp: 100,
                hot_pct: 0, // everything cold
            },
            size,
        );
        let ops = collect(&mut g, 10_000);
        let sequential = ops
            .windows(2)
            .filter(|w| w[1].addr.raw() == (w[0].addr.raw() + 64) % size)
            .count();
        let frac = sequential as f64 / ops.len() as f64;
        assert!(
            frac > 0.7,
            "cold walker should mostly advance sequentially, got {frac}"
        );
    }

    #[test]
    fn phased_hotspot_moves_its_hot_set() {
        let size = 1u64 << 22;
        let mut g = gen(
            PatternSpec::PhasedHotspot {
                period: 5_000,
                hot_bp: 100,
                hot_pct: 95,
            },
            size,
        );
        let first: Vec<u64> = collect(&mut g, 4_000)
            .iter()
            .map(|o| o.addr.raw())
            .collect();
        let _skip = collect(&mut g, 2_000);
        let second: Vec<u64> = collect(&mut g, 4_000)
            .iter()
            .map(|o| o.addr.raw())
            .collect();
        let median = |mut v: Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert_ne!(
            median(first) / 4096,
            median(second) / 4096,
            "hot set should have relocated between phases"
        );
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut g = TraceGen::new(
            PatternSpec::Random,
            5,
            30,
            0,
            1 << 20,
            0,
            SplitMix64::new(11),
        );
        let ops = collect(&mut g, 20_000);
        let writes = ops.iter().filter(|o| o.kind.is_write()).count();
        let frac = writes as f64 / ops.len() as f64;
        assert!((frac - 0.30).abs() < 0.02, "write fraction was {frac}");
    }

    #[test]
    fn gap_mean_tracks_mem_every() {
        let mut g = TraceGen::new(
            PatternSpec::Random,
            40,
            0,
            0,
            1 << 20,
            0,
            SplitMix64::new(13),
        );
        let ops = collect(&mut g, 50_000);
        let mean_gap: f64 = ops.iter().map(|o| f64::from(o.gap)).sum::<f64>() / ops.len() as f64;
        assert!((mean_gap - 39.0).abs() < 1.5, "mean gap was {mean_gap}");
    }

    #[test]
    fn shared_region_gets_a_slice_of_references() {
        let mut g = TraceGen::new(
            PatternSpec::Random,
            5,
            0,
            1 << 20,   // own region above 1 MB
            1 << 20,   // 1 MB own
            64 * 1024, // 64 KB shared at the bottom
            SplitMix64::new(17),
        );
        let ops = collect(&mut g, 20_000);
        let shared = ops.iter().filter(|o| o.addr.raw() < 64 * 1024).count();
        let frac = shared as f64 / ops.len() as f64;
        assert!((frac - 0.125).abs() < 0.02, "shared fraction was {frac}");
    }

    #[test]
    #[should_panic(expected = "at least 4 KB")]
    fn tiny_region_rejected() {
        let _ = TraceGen::new(PatternSpec::Random, 5, 0, 0, 1024, 0, SplitMix64::new(1));
    }

    #[test]
    fn mem_every_one_means_zero_gaps() {
        let mut g = TraceGen::new(PatternSpec::Random, 1, 0, 0, 1 << 20, 0, SplitMix64::new(1));
        for op in collect(&mut g, 100) {
            assert_eq!(op.gap, 0);
        }
    }

    #[test]
    fn wrr_order_is_smooth_and_exact() {
        assert_eq!(wrr_order(&[2, 1]), vec![0, 1, 0]);
        assert_eq!(wrr_order(&[1, 1]), vec![0, 1]);
        let order = wrr_order(&[3, 1, 2]);
        assert_eq!(order.len(), 6);
        for part in 0..3u8 {
            let n = order.iter().filter(|&&p| p == part).count();
            assert_eq!(n, [3, 1, 2][part as usize], "part {part} share");
        }
        // Smooth: the heaviest part never runs 3 times back-to-back.
        for w in order.windows(3) {
            assert!(!(w[0] == w[1] && w[1] == w[2]), "clumped: {order:?}");
        }
    }

    #[test]
    fn phased_switches_exactly_on_budgets_and_cycles() {
        let phases = vec![
            Phase {
                pattern: PatternSpec::Stream { stride: 64 },
                ops: 100,
            },
            Phase {
                pattern: PatternSpec::Random,
                ops: 40,
            },
        ];
        let mut g = gen(PatternSpec::Phased { phases }, 1 << 20);
        // Two full cycles: ops 0..100 from phase 0, 100..140 from phase 1,
        // 140..240 from phase 0 again, …
        for n in 0..280u64 {
            let expect = if n % 140 < 100 { 0 } else { 1 };
            assert_eq!(
                g.phase_index(),
                Some(expect),
                "op {n} attributed to the wrong phase"
            );
            let _ = g.next_op().unwrap();
        }
    }

    #[test]
    fn phased_stream_phase_is_really_sequential() {
        let phases = vec![
            Phase {
                pattern: PatternSpec::Stream { stride: 8 },
                ops: 50,
            },
            Phase {
                pattern: PatternSpec::Random,
                ops: 50,
            },
        ];
        let mut g = gen(PatternSpec::Phased { phases }, 1 << 20);
        let ops = collect(&mut g, 50);
        for w in ops.windows(2) {
            let (a, b) = (w[0].addr.raw(), w[1].addr.raw());
            assert!(b == a + 8 || b == 0, "phase-0 stream must be sequential");
        }
    }

    #[test]
    fn mix_parts_stay_in_their_slices() {
        let parts = vec![
            MixPart {
                pattern: PatternSpec::Stream { stride: 8 },
                mem_every: 5,
                write_pct: 30,
                span_bp: 5000,
                weight: 2,
            },
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 50,
                write_pct: 10,
                span_bp: 4000,
                weight: 1,
            },
        ];
        let size = 1u64 << 20;
        let mut g = gen(PatternSpec::Mix { parts }, size);
        let span0 = size * 5000 / 10_000;
        let span1 = size * 4000 / 10_000;
        let order = wrr_order(&[2, 1]);
        for n in 0..3000usize {
            let op = g.next_op().unwrap();
            let a = op.addr.raw();
            match order[n % order.len()] {
                0 => assert!(a < span0, "part 0 escaped its slice: {a:#x}"),
                _ => assert!(
                    (span0..span0 + span1).contains(&a),
                    "part 1 escaped its slice: {a:#x}"
                ),
            }
        }
    }

    #[test]
    #[should_panic(expected = "private programs")]
    fn mix_rejects_shared_address_space() {
        let parts = vec![
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 5,
                write_pct: 0,
                span_bp: 4000,
                weight: 1,
            },
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 5,
                write_pct: 0,
                span_bp: 4000,
                weight: 1,
            },
        ];
        let _ = TraceGen::new(
            PatternSpec::Mix { parts },
            5,
            0,
            0,
            1 << 20,
            8192,
            SplitMix64::new(1),
        );
    }

    #[test]
    #[should_panic(expected = "overflow the region")]
    fn oversized_mix_slices_rejected() {
        let parts = vec![
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 5,
                write_pct: 0,
                span_bp: 9000,
                weight: 1,
            },
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 5,
                write_pct: 0,
                span_bp: 9000,
                weight: 1,
            },
        ];
        let _ = gen(PatternSpec::Mix { parts }, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "must not nest phased")]
    fn nested_phased_rejected() {
        let inner = vec![Phase {
            pattern: PatternSpec::Random,
            ops: 10,
        }];
        let outer = vec![Phase {
            pattern: PatternSpec::Phased { phases: inner },
            ops: 10,
        }];
        let _ = gen(PatternSpec::Phased { phases: outer }, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "leaf patterns")]
    fn mix_inside_mix_rejected() {
        let inner = vec![
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 5,
                write_pct: 0,
                span_bp: 2000,
                weight: 1,
            },
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 5,
                write_pct: 0,
                span_bp: 2000,
                weight: 1,
            },
        ];
        let parts = vec![
            MixPart {
                pattern: PatternSpec::Mix { parts: inner },
                mem_every: 5,
                write_pct: 0,
                span_bp: 4000,
                weight: 1,
            },
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 5,
                write_pct: 0,
                span_bp: 4000,
                weight: 1,
            },
        ];
        let _ = gen(PatternSpec::Mix { parts }, 1 << 20);
    }

    /// Tenant churn: a phase may be a whole `Mix`, so the set of
    /// co-running programs changes at exact op budgets.
    #[test]
    fn mix_phase_inside_phased_is_allowed_and_confined() {
        let tenants = vec![
            MixPart {
                pattern: PatternSpec::Stream { stride: 8 },
                mem_every: 5,
                write_pct: 30,
                span_bp: 5000,
                weight: 2,
            },
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 50,
                write_pct: 10,
                span_bp: 4000,
                weight: 1,
            },
        ];
        let phases = vec![
            Phase {
                pattern: PatternSpec::Stream { stride: 64 },
                ops: 100,
            },
            Phase {
                pattern: PatternSpec::Mix { parts: tenants },
                ops: 200,
            },
        ];
        let size = 1u64 << 20;
        let mut g = gen(PatternSpec::Phased { phases }, size);
        for n in 0..600u64 {
            let expect = if n % 300 < 100 { 0 } else { 1 };
            assert_eq!(g.phase_index(), Some(expect), "op {n}");
            let a = g.next_op().unwrap().addr.raw();
            assert!(a < size, "churn op escaped: {a:#x}");
        }
    }

    #[test]
    fn max_mem_every_covers_mix_parts() {
        let parts = vec![
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 500,
                write_pct: 0,
                span_bp: 4000,
                weight: 1,
            },
            MixPart {
                pattern: PatternSpec::Random,
                mem_every: 5,
                write_pct: 0,
                span_bp: 4000,
                weight: 1,
            },
        ];
        assert_eq!(
            PatternSpec::Mix {
                parts: parts.clone()
            }
            .max_mem_every(10),
            500
        );
        assert_eq!(PatternSpec::Random.max_mem_every(10), 10);
        let phases = vec![Phase {
            pattern: PatternSpec::Random,
            ops: 10,
        }];
        assert_eq!(PatternSpec::Phased { phases }.max_mem_every(7), 7);
        // Recursive: a mix phase whose parts run hotter than the default
        // raises the bound.
        let phases = vec![
            Phase {
                pattern: PatternSpec::Random,
                ops: 10,
            },
            Phase {
                pattern: PatternSpec::Mix { parts },
                ops: 10,
            },
        ];
        assert_eq!(PatternSpec::Phased { phases }.max_mem_every(7), 500);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_pattern() -> impl Strategy<Value = PatternSpec> {
        prop_oneof![
            (3u32..10).prop_map(|p| PatternSpec::Stream { stride: 1 << p }),
            ((3u32..10), (50u32..2000), (1u8..4)).prop_map(|(p, t, r)| {
                PatternSpec::TiledStream {
                    stride: 1 << p,
                    tile_bp: t,
                    repeats: r,
                }
            }),
            Just(PatternSpec::Random),
            ((50u32..5000), (0u8..=100)).prop_map(|(h, p)| PatternSpec::PointerChase {
                hot_bp: h,
                hot_pct: p,
            }),
            ((50u32..5000), (0u8..=100)).prop_map(|(h, p)| PatternSpec::Hotspot {
                hot_bp: h,
                hot_pct: p,
            }),
        ]
    }

    proptest! {
        /// Every pattern stays inside its region for any parameters.
        #[test]
        fn any_pattern_stays_in_bounds(
            pattern in arb_pattern(),
            base in (0u64..1u64<<30).prop_map(|b| b & !4095),
            size_kb in 4u64..4096,
            seed in any::<u64>(),
        ) {
            let size = size_kb * 1024;
            let mut g = TraceGen::new(pattern.clone(), 5, 20, base, size, 0, SplitMix64::new(seed));
            for _ in 0..500 {
                let op = g.next_op().unwrap();
                prop_assert!(op.addr.raw() >= base && op.addr.raw() < base + size,
                    "{pattern:?} escaped: {:#x}", op.addr.raw());
            }
        }

        /// Generators are deterministic functions of their seed.
        #[test]
        fn generator_determinism(pattern in arb_pattern(), seed in any::<u64>()) {
            let mk = || TraceGen::new(pattern.clone(), 7, 25, 0, 1 << 20, 0, SplitMix64::new(seed));
            let (mut a, mut b) = (mk(), mk());
            for _ in 0..200 {
                prop_assert_eq!(a.next_op(), b.next_op());
            }
        }

        /// Phased streams stay inside the declared region and attribute
        /// every op to the phase its budget dictates — boundaries land
        /// exactly on the per-phase op counts, cycle after cycle.
        #[test]
        fn phased_stays_in_bounds_with_exact_boundaries(
            raw in proptest::collection::vec((arb_pattern(), 1u64..600), 1..4),
            base in (0u64..1u64<<30).prop_map(|b| b & !4095),
            seed in any::<u64>(),
        ) {
            let phases: Vec<Phase> = raw
                .iter()
                .map(|(pattern, ops)| Phase {
                    pattern: pattern.clone(),
                    ops: *ops,
                })
                .collect();
            let size = 1u64 << 20;
            let mut g = TraceGen::new(
                PatternSpec::Phased { phases: phases.clone() },
                5, 20, base, size, 0, SplitMix64::new(seed),
            );
            for cycle in 0..2 {
                for (i, ph) in phases.iter().enumerate() {
                    for k in 0..ph.ops {
                        prop_assert_eq!(
                            g.phase_index(), Some(i),
                            "cycle {} phase {} op {} misattributed", cycle, i, k
                        );
                        let a = g.next_op().unwrap().addr.raw();
                        prop_assert!(a >= base && a < base + size,
                            "phased escaped: {:#x}", a);
                    }
                }
            }
        }

        /// Every mix op stays inside the slice of the exact part the
        /// deterministic interleave schedules for it.
        #[test]
        fn mix_ops_confined_to_scheduled_part(
            raw in proptest::collection::vec(
                (arb_pattern(), 1u32..300, 0u8..=100, 500u32..2400, 1u8..6), 2..5),
            seed in any::<u64>(),
        ) {
            let parts: Vec<MixPart> = raw
                .iter()
                .map(|(pattern, mem_every, write_pct, span_bp, weight)| MixPart {
                    pattern: pattern.clone(),
                    mem_every: *mem_every,
                    write_pct: *write_pct,
                    span_bp: *span_bp,
                    weight: *weight,
                })
                .collect();
            let size = 1u64 << 20;
            let mut g = TraceGen::new(
                PatternSpec::Mix { parts: parts.clone() },
                5, 20, 0, size, 0, SplitMix64::new(seed),
            );
            // Recompute the slices and schedule the way the constructor
            // does; the generator must agree op for op.
            let mut slices = Vec::new();
            let mut offset = 0u64;
            for p in &parts {
                let span = (size * u64::from(p.span_bp) / 10_000).max(4096);
                slices.push(offset..offset + span);
                offset += span;
            }
            let weights: Vec<u8> = parts.iter().map(|p| p.weight).collect();
            let order = wrr_order(&weights);
            for n in 0..1000usize {
                let a = g.next_op().unwrap().addr.raw();
                let part = order[n % order.len()] as usize;
                prop_assert!(slices[part].contains(&a),
                    "op {} from part {} escaped {:?}: {:#x}", n, part, slices[part], a);
            }
        }

        /// `fill` over any split of the stream into blocks yields exactly
        /// the ops of one-op fills: block sizes around the machine's 64,
        /// leaf, phased and mix patterns, blocks that straddle phase
        /// budgets and mix rounds, private and shared address spaces.
        #[test]
        fn fill_over_any_split_equals_fill_of_one(
            leaf in arb_pattern(),
            raw in proptest::collection::vec((arb_pattern(), 1u64..130), 1..4),
            spans in proptest::collection::vec((arb_pattern(), 1u32..100, 1u8..6), 2..5),
            which in 0usize..3,
            shared in any::<bool>(),
            splits in proptest::collection::vec(
                prop_oneof![Just(1usize), Just(63usize), Just(64usize), Just(65usize), 1usize..200],
                1..12),
            seed in any::<u64>(),
        ) {
            let spec = match which {
                0 => leaf,
                1 => PatternSpec::Phased {
                    phases: raw
                        .iter()
                        .map(|(pattern, ops)| Phase { pattern: pattern.clone(), ops: *ops })
                        .collect(),
                },
                _ => PatternSpec::Mix {
                    parts: spans
                        .iter()
                        .map(|(pattern, mem_every, weight)| MixPart {
                            pattern: pattern.clone(),
                            mem_every: *mem_every,
                            write_pct: 25,
                            span_bp: 2000,
                            weight: *weight,
                        })
                        .collect(),
                },
            };
            // Mix parts are private programs, so only the others may share.
            let shared_bytes = if shared && which != 2 { 1 << 18 } else { 0 };
            let mk = || TraceGen::new(
                spec.clone(), 7, 25, 1 << 20, 1 << 20, shared_bytes, SplitMix64::new(seed),
            );
            let total: usize = splits.iter().sum();
            let mut one = mk();
            let want: Vec<TraceOp> = (0..total).map(|_| one.next_op().unwrap()).collect();
            let mut blocks = mk();
            let mut got = vec![TraceOp::load(0, VAddr::new(0)); total];
            let mut at = 0;
            for n in &splits {
                blocks.fill(&mut got[at..at + n]);
                at += n;
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(blocks.phase_index(), one.phase_index());
        }

        /// Composite generators are deterministic functions of their seed.
        #[test]
        fn composite_determinism(
            raw in proptest::collection::vec((arb_pattern(), 1u64..200), 1..4),
            spans in proptest::collection::vec((arb_pattern(), 1u32..100, 1u8..6), 2..5),
            seed in any::<u64>(),
        ) {
            let phases: Vec<Phase> = raw
                .iter()
                .map(|(pattern, ops)| Phase {
                    pattern: pattern.clone(),
                    ops: *ops,
                })
                .collect();
            let parts: Vec<MixPart> = spans
                .iter()
                .map(|(pattern, mem_every, weight)| MixPart {
                    pattern: pattern.clone(),
                    mem_every: *mem_every,
                    write_pct: 25,
                    span_bp: 2000,
                    weight: *weight,
                })
                .collect();
            for spec in [PatternSpec::Phased { phases }, PatternSpec::Mix { parts }] {
                let mk = || TraceGen::new(spec.clone(), 7, 25, 0, 1 << 20, 0, SplitMix64::new(seed));
                let (mut a, mut b) = (mk(), mk());
                for _ in 0..300 {
                    prop_assert_eq!(a.next_op(), b.next_op());
                }
            }
        }
    }
}
