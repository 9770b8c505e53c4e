//! The three-level on-chip cache hierarchy of Table 1.
//!
//! Private L1 (64 KB, 4-way, 1 cycle) and L2 (256 KB, 8-way, 9 cycles) per
//! core plus one shared, non-inclusive 8 MB 16-way LLC (14 cycles). The
//! hierarchy filters the raw trace into the LLC-miss/writeback stream that
//! the memory schemes see.

use sim_types::{AccessKind, PAddr};

use crate::set_assoc::{CacheConfig, CacheStats, Evicted, SetAssocCache};

/// Latency and shape configuration for the hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// Number of cores (private L1/L2 instances).
    pub cores: usize,
    /// Per-core L1 configuration.
    pub l1: CacheConfig,
    /// Per-core L2 configuration.
    pub l2: CacheConfig,
    /// Shared LLC configuration.
    pub llc: CacheConfig,
    /// L1 hit latency in cycles (Table 1: 1).
    pub l1_latency: u64,
    /// L2 hit latency in cycles (Table 1: 9).
    pub l2_latency: u64,
    /// LLC hit latency in cycles (Table 1: 14).
    pub llc_latency: u64,
}

impl HierarchyConfig {
    /// The paper's Table 1 hierarchy for `cores` cores.
    pub fn paper_default(cores: usize) -> Self {
        HierarchyConfig {
            cores,
            l1: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            llc: CacheConfig::llc(),
            l1_latency: 1,
            l2_latency: 9,
            llc_latency: 14,
        }
    }

    /// A proportionally scaled hierarchy for reduced-scale experiments:
    /// capacities multiplied by `num/den` (minimum one set per cache).
    ///
    /// # Panics
    ///
    /// Panics if a scaled configuration is structurally invalid. That
    /// cannot happen: every cache keeps at least one set and rounds its
    /// set count down to a power of two, so any `num/den` whose scaled
    /// capacities fit in a `u64` gives a valid shape, the CLI's whole
    /// `--scale` range of 1 to 2048 included.
    pub fn scaled(cores: usize, num: u64, den: u64) -> Self {
        let scale = |cap: u64, assoc: u32, line: u64| {
            let scaled = (cap * num / den).max(u64::from(assoc) * line);
            // Round down to the nearest valid power-of-two set count.
            let set_bytes = u64::from(assoc) * line;
            let sets = (scaled / set_bytes).max(1);
            let sets = if sets.is_power_of_two() {
                sets
            } else {
                sets.next_power_of_two() / 2
            };
            CacheConfig::new(sets * set_bytes, assoc, line).expect("scaled cache config")
        };
        HierarchyConfig {
            cores,
            l1: scale(64 * 1024, 4, 64),
            l2: scale(256 * 1024, 8, 64),
            llc: scale(8 * 1024 * 1024, 16, 64),
            l1_latency: 1,
            l2_latency: 9,
            llc_latency: 14,
        }
    }
}

/// What happened below the core for one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// On-chip latency component in cycles (hit level latency; for LLC
    /// misses this is the LLC lookup latency — memory latency is added by
    /// the memory scheme).
    pub latency: u64,
    /// `Some(line address)` if the access missed the LLC and must go to
    /// memory.
    pub llc_miss: Option<PAddr>,
    /// A dirty LLC victim that must be written back to memory.
    pub writeback: Option<PAddr>,
}

/// Per-level aggregate statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups at this level.
    pub accesses: u64,
    /// Hits at this level.
    pub hits: u64,
}

/// Aggregate hierarchy statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 totals across cores.
    pub l1: LevelStats,
    /// L2 totals across cores.
    pub l2: LevelStats,
    /// Shared LLC totals.
    pub llc: LevelStats,
    /// Dirty LLC evictions sent to memory.
    pub writebacks: u64,
}

impl HierarchyStats {
    /// LLC misses (demand stream to memory).
    pub fn llc_misses(&self) -> u64 {
        self.llc.accesses - self.llc.hits
    }

    /// Misses per kilo-instruction given a retired-instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.llc_misses() as f64 * 1000.0 / instructions as f64
        }
    }
}

/// A line index that names no slot: a line-slot hint with no guess.
const NO_HINT: u32 = u32::MAX;

/// The private-L1/L2 + shared-LLC filter.
///
/// The hierarchy remembers where it put each line one level down, so the
/// two writes it makes of lines it placed itself do not scan a set: the
/// dirty L1 victim's insert into L2 and the dirty L2 victims' spills into
/// the LLC. `hints` holds, per core, the L2 line index of each L1 slot's
/// line, then, per core, the LLC line index of each L2 slot's line, in one
/// flat table. A hint is only ever a guess that
/// [`SetAssocCache::access_hinted`] confirms with a tag compare: a line
/// that has since left that slot is found by the plain set scan, so no
/// result depends on a hint being current.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    stats: HierarchyStats,
    hints: Vec<u32>,
    /// Line slots of one L1 and of one L2.
    l1_lines: usize,
    l2_lines: usize,
}

impl Hierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(cfg.cores > 0, "hierarchy needs at least one core");
        let lines = |c: &CacheConfig| (c.sets() * u64::from(c.associativity())) as usize;
        let (l1_lines, l2_lines) = (lines(&cfg.l1), lines(&cfg.l2));
        Hierarchy {
            l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            llc: SetAssocCache::new(cfg.llc),
            stats: HierarchyStats::default(),
            hints: vec![NO_HINT; cfg.cores * (l1_lines + l2_lines)],
            l1_lines,
            l2_lines,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// LLC line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.cfg.llc.line_size()
    }

    /// The private-hit fast path of the epoch-batched machine loop: if
    /// `addr`'s line is resident in `core`'s L1, performs the access with
    /// mutations identical to [`Hierarchy::access`]'s L1-hit path (L1 LRU
    /// order, dirty bit, per-cache and aggregate counters) and returns
    /// `true`. Otherwise changes nothing observable and returns `false`;
    /// the caller must replay the op through [`Hierarchy::access`] once it
    /// is globally ordered, and that replay counts the access exactly
    /// once.
    ///
    /// Only L1 hits qualify as core-local: an L1 miss can displace a dirty
    /// L1 victim into L2 and from there spill into the shared LLC, so
    /// everything below L1 belongs to the globally ordered path.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn l1_access_fast(&mut self, core: usize, addr: PAddr, kind: AccessKind) -> bool {
        assert!(core < self.cfg.cores, "core {core} out of range");
        if self.l1[core].access_if_hit(addr.raw(), kind.is_write()) {
            self.stats.l1.accesses += 1;
            self.stats.l1.hits += 1;
            true
        } else {
            false
        }
    }

    /// Runs one access from `core` through the hierarchy: one tag scan
    /// per level, and none where a line-slot hint lands (see
    /// [`Hierarchy`]).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: PAddr, kind: AccessKind) -> Outcome {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let Hierarchy {
            cfg,
            l1,
            l2,
            llc,
            stats,
            hints,
            l1_lines,
            l2_lines,
        } = self;
        let (l1, l2) = (&mut l1[core], &mut l2[core]);
        let (l2_of_l1, llc_of_l2) = hints.split_at_mut(cfg.cores * *l1_lines);
        let l2_of_l1 = &mut l2_of_l1[core * *l1_lines..][..*l1_lines];
        let llc_of_l2 = &mut llc_of_l2[core * *l2_lines..][..*l2_lines];
        let a = addr.raw();
        let write = kind.is_write();

        // L1.
        stats.l1.accesses += 1;
        let l1_out = l1.access(a, write);
        if l1_out.hit {
            stats.l1.hits += 1;
            return Outcome {
                latency: cfg.l1_latency,
                llc_miss: None,
                writeback: None,
            };
        }
        // The L1 slot just filled; its old line, the L1 victim, sat in L2
        // at `l2_of_l1[l1_slot]`.
        let l1_slot = l1.last_line();

        // L2. Inserting a dirty L1 victim (absorbed by L2, allocate on
        // write) may itself displace a dirty L2 line, which must continue
        // down to the LLC. Each dirty L2 victim carries its LLC hint.
        stats.l2.accesses += 1;
        let mut spilled_by_l1_victim = None;
        if let Some(v) = l1_out.evicted.filter(|v| v.dirty) {
            let out = l2.access_hinted(v.line_addr, true, l2_of_l1[l1_slot]);
            if !out.hit {
                let slot = l2.last_line();
                spilled_by_l1_victim = dirty_victim(out.evicted, llc_of_l2[slot]);
                llc_of_l2[slot] = NO_HINT;
            }
        }
        let l2_out = l2.access(a, false);
        let l2_slot = l2.last_line();
        l2_of_l1[l1_slot] = l2_slot as u32;
        let l2_victim = dirty_victim(l2_out.evicted, llc_of_l2[l2_slot]);
        if l2_out.hit {
            stats.l2.hits += 1;
            // Even on an L2 hit, displaced L2 victims may spill to the LLC.
            // Known model defect (see the LLC path below): the `or_else`
            // drops the demand-path L2 victim when the first spill returns a
            // writeback.
            let wb = spill_to_llc(llc, stats, spilled_by_l1_victim)
                .or_else(|| spill_to_llc(llc, stats, l2_victim));
            return Outcome {
                latency: cfg.l2_latency,
                llc_miss: None,
                writeback: wb,
            };
        }

        // LLC (shared). Known model defect, kept because fixing it moves
        // every result: when the L1-victim spill displaces a dirty LLC line,
        // the `or_else` never runs the second spill, so a dirty demand-path
        // L2 victim is inserted into neither the LLC nor memory.
        stats.llc.accesses += 1;
        let spill = spill_to_llc(llc, stats, spilled_by_l1_victim)
            .or_else(|| spill_to_llc(llc, stats, l2_victim));
        let llc_out = llc.access(a, false);
        llc_of_l2[l2_slot] = llc.last_line() as u32;
        let mut writeback = spill;
        if let Some(v) = llc_out.evicted {
            if v.dirty {
                stats.writebacks += 1;
                // `Outcome` carries one writeback: a dirty demand-path LLC
                // victim replaces the spill's, so that spill victim is
                // counted in `stats.writebacks` but never reaches memory.
                writeback = Some(PAddr::new(v.line_addr));
            }
        }
        if llc_out.hit {
            stats.llc.hits += 1;
            return Outcome {
                latency: cfg.llc_latency,
                llc_miss: None,
                writeback,
            };
        }

        Outcome {
            latency: cfg.llc_latency,
            llc_miss: Some(PAddr::new(llc.line_base(a))),
            writeback,
        }
    }

    /// Per-level raw cache statistics (L1s, L2s, LLC) for diagnostics.
    pub fn level_stats(&self) -> (Vec<CacheStats>, Vec<CacheStats>, CacheStats) {
        (
            self.l1.iter().map(|c| *c.stats()).collect(),
            self.l2.iter().map(|c| *c.stats()).collect(),
            *self.llc.stats(),
        )
    }
}

/// A dirty victim's line address with its line-slot hint one level down;
/// `None` for no victim or a clean one, which needs no write.
#[inline]
fn dirty_victim(victim: Option<Evicted>, hint: u32) -> Option<(u64, u32)> {
    victim.filter(|v| v.dirty).map(|v| (v.line_addr, hint))
}

/// Writes a dirty L2 victim into the LLC at its hinted line index if it is
/// still there; returns a dirty LLC victim displaced by the spill, if any.
fn spill_to_llc(
    llc: &mut SetAssocCache,
    stats: &mut HierarchyStats,
    victim: Option<(u64, u32)>,
) -> Option<PAddr> {
    let (line_addr, hint) = victim?;
    let ev = llc.access_hinted(line_addr, true, hint).evicted?;
    if ev.dirty {
        stats.writebacks += 1;
        Some(PAddr::new(ev.line_addr))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        // Small hierarchy: L1 256 B/2-way, L2 512 B/2-way, LLC 2 KB/4-way.
        Hierarchy::new(HierarchyConfig {
            cores: 2,
            l1: CacheConfig::new(256, 2, 64).unwrap(),
            l2: CacheConfig::new(512, 2, 64).unwrap(),
            llc: CacheConfig::new(2048, 4, 64).unwrap(),
            l1_latency: 1,
            l2_latency: 9,
            llc_latency: 14,
        })
    }

    #[test]
    fn repeat_access_hits_l1() {
        let mut h = tiny();
        let a = PAddr::new(0x1000);
        let first = h.access(0, a, AccessKind::Read);
        assert!(first.llc_miss.is_some());
        let second = h.access(0, a, AccessKind::Read);
        assert!(second.llc_miss.is_none());
        assert_eq!(second.latency, 1);
        assert_eq!(h.stats().l1.hits, 1);
    }

    #[test]
    fn private_l1s_do_not_share() {
        let mut h = tiny();
        let a = PAddr::new(0x1000);
        h.access(0, a, AccessKind::Read);
        // Core 1 misses its own L1/L2 but hits the shared LLC.
        let out = h.access(1, a, AccessKind::Read);
        assert!(out.llc_miss.is_none());
        assert_eq!(out.latency, 14);
        assert_eq!(h.stats().llc.hits, 1);
    }

    #[test]
    fn paper_default_shapes() {
        let h = Hierarchy::new(HierarchyConfig::paper_default(8));
        assert_eq!(h.line_size(), 64);
        assert_eq!(h.config().llc.capacity(), 8 * 1024 * 1024);
    }

    #[test]
    fn llc_miss_reports_line_address() {
        let mut h = tiny();
        let out = h.access(0, PAddr::new(0x1234), AccessKind::Read);
        assert_eq!(out.llc_miss, Some(PAddr::new(0x1200)));
    }

    #[test]
    fn mpki_accounting() {
        let mut h = tiny();
        for i in 0..10u64 {
            h.access(0, PAddr::new(i * 0x10000), AccessKind::Read);
        }
        assert_eq!(h.stats().llc_misses(), 10);
        assert!((h.stats().mpki(1000) - 10.0).abs() < 1e-12);
        assert_eq!(h.stats().mpki(0), 0.0);
    }

    #[test]
    fn dirty_data_eventually_writes_back() {
        let mut h = tiny();
        // Write lines mapping to the same LLC set until a dirty victim
        // reaches memory. LLC: 2048/4-way/64B -> 8 sets; stride 8*64=512.
        let mut saw_writeback = false;
        for i in 0..64u64 {
            let out = h.access(0, PAddr::new(i * 512), AccessKind::Write);
            saw_writeback |= out.writeback.is_some();
        }
        assert!(saw_writeback, "dirty lines must eventually write back");
        assert!(h.stats().writebacks > 0);
    }

    #[test]
    fn scaled_config_preserves_shape() {
        let c = HierarchyConfig::scaled(4, 1, 64);
        assert_eq!(c.l1.line_size(), 64);
        assert!(c.llc.capacity() >= c.l2.capacity());
        assert!(c.llc.capacity() <= 8 * 1024 * 1024);
        let _ = Hierarchy::new(c);
        // The smallest CLI scale still keeps one whole set per cache.
        let c = HierarchyConfig::scaled(4, 1, 2048);
        assert_eq!(c.l1.sets(), 1);
        let _ = Hierarchy::new(c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        let mut h = tiny();
        h.access(7, PAddr::new(0), AccessKind::Read);
    }

    /// Interleaving `l1_access_fast` (replaying its misses through the full
    /// path) with a reference hierarchy driven only by `access` must leave
    /// byte-identical state and statistics.
    #[test]
    fn l1_fast_path_is_equivalent_to_full_access() {
        let mut fast = tiny();
        let mut reference = tiny();
        let ops: [(usize, u64, AccessKind); 8] = [
            (0, 0x1000, AccessKind::Read),
            (0, 0x1000, AccessKind::Write), // L1 hit
            (1, 0x1000, AccessKind::Read),  // other core: own L1 miss
            (0, 0x1008, AccessKind::Read),  // L1 hit, same line
            (0, 0x2000, AccessKind::Write),
            (0, 0x2010, AccessKind::Read), // L1 hit
            (1, 0x1030, AccessKind::Read), // L1 hit on core 1
            (0, 0x1000, AccessKind::Read), // still an L1 hit
        ];
        for (core, addr, kind) in ops {
            let a = PAddr::new(addr);
            if !fast.l1_access_fast(core, a, kind) {
                fast.access(core, a, kind);
            }
            reference.access(core, a, kind);
        }
        assert_eq!(fast.stats().l1.accesses, reference.stats().l1.accesses);
        assert_eq!(fast.stats().l1.hits, reference.stats().l1.hits);
        assert_eq!(fast.stats().l2.accesses, reference.stats().l2.accesses);
        assert_eq!(fast.stats().llc.accesses, reference.stats().llc.accesses);
        let (l1a, l2a, llca) = fast.level_stats();
        let (l1b, l2b, llcb) = reference.level_stats();
        assert_eq!(l1a, l1b);
        assert_eq!(l2a, l2b);
        assert_eq!(llca, llcb);
    }

    #[test]
    fn l1_fast_path_miss_changes_nothing() {
        let mut h = tiny();
        h.access(0, PAddr::new(0x1000), AccessKind::Read);
        let before = h.stats().clone();
        assert!(!h.l1_access_fast(1, PAddr::new(0x1000), AccessKind::Read));
        assert!(!h.l1_access_fast(0, PAddr::new(0x9000), AccessKind::Write));
        assert_eq!(h.stats().l1.accesses, before.l1.accesses);
        assert_eq!(h.stats().llc.accesses, before.llc.accesses);
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut h = tiny();
        let mut misses = 0;
        for i in 0..100u64 {
            if h.access(0, PAddr::new(i * 64), AccessKind::Read)
                .llc_miss
                .is_some()
            {
                misses += 1;
            }
        }
        assert_eq!(misses, 100, "cold streaming never hits");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The hierarchy walk before line-slot hints and the negative L1 memo,
    /// kept as the reference: every level found by a plain set scan.
    struct Reference {
        cfg: HierarchyConfig,
        l1: Vec<SetAssocCache>,
        l2: Vec<SetAssocCache>,
        llc: SetAssocCache,
        stats: HierarchyStats,
    }

    impl Reference {
        fn new(cfg: HierarchyConfig) -> Self {
            Reference {
                l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
                l2: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
                llc: SetAssocCache::new(cfg.llc),
                stats: HierarchyStats::default(),
                cfg,
            }
        }

        fn spill(
            llc: &mut SetAssocCache,
            stats: &mut HierarchyStats,
            victim: Option<Evicted>,
        ) -> Option<PAddr> {
            let v = victim?;
            if !v.dirty {
                return None;
            }
            let ev = llc.access(v.line_addr, true).evicted?;
            if ev.dirty {
                stats.writebacks += 1;
                Some(PAddr::new(ev.line_addr))
            } else {
                None
            }
        }

        fn access(&mut self, core: usize, addr: PAddr, kind: AccessKind) -> Outcome {
            let Reference {
                cfg,
                l1,
                l2,
                llc,
                stats,
            } = self;
            let (l1, l2) = (&mut l1[core], &mut l2[core]);
            let a = addr.raw();
            stats.l1.accesses += 1;
            let l1_out = l1.access(a, kind.is_write());
            if l1_out.hit {
                stats.l1.hits += 1;
                return Outcome {
                    latency: cfg.l1_latency,
                    llc_miss: None,
                    writeback: None,
                };
            }
            stats.l2.accesses += 1;
            let mut spilled_by_l1_victim = None;
            if let Some(v) = l1_out.evicted {
                if v.dirty {
                    spilled_by_l1_victim = l2.access(v.line_addr, true).evicted;
                }
            }
            let l2_out = l2.access(a, false);
            if l2_out.hit {
                stats.l2.hits += 1;
                let wb = Self::spill(llc, stats, spilled_by_l1_victim)
                    .or_else(|| Self::spill(llc, stats, l2_out.evicted));
                return Outcome {
                    latency: cfg.l2_latency,
                    llc_miss: None,
                    writeback: wb,
                };
            }
            stats.llc.accesses += 1;
            let spill = Self::spill(llc, stats, spilled_by_l1_victim)
                .or_else(|| Self::spill(llc, stats, l2_out.evicted));
            let llc_out = llc.access(a, false);
            let mut writeback = spill;
            if let Some(v) = llc_out.evicted {
                if v.dirty {
                    stats.writebacks += 1;
                    writeback = Some(PAddr::new(v.line_addr));
                }
            }
            stats.llc.hits += u64::from(llc_out.hit);
            Outcome {
                latency: cfg.llc_latency,
                llc_miss: (!llc_out.hit).then(|| PAddr::new(llc.line_base(a))),
                writeback,
            }
        }
    }

    fn resident(c: &SetAssocCache) -> Vec<u64> {
        let mut lines: Vec<u64> = c.resident_lines().collect();
        lines.sort_unstable();
        lines
    }

    /// Drives the hinted hierarchy and the reference through `ops`,
    /// `(core, line, write, machine)`: a `machine` op takes the machine
    /// loop's path (the L1 fast probe, then on a miss the walk), any other
    /// op the plain `access`. Every outcome, every counter and every
    /// cache's resident lines must agree.
    fn check(cfg: HierarchyConfig, ops: &[(usize, u64, bool, bool)]) {
        let line = cfg.llc.line_size();
        let mut hinted = Hierarchy::new(cfg.clone());
        let mut reference = Reference::new(cfg);
        for &(core, l, write, machine) in ops {
            let addr = PAddr::new(l * line + l % line);
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let want = reference.access(core, addr, kind);
            let got = if !machine {
                hinted.access(core, addr, kind)
            } else if hinted.l1_access_fast(core, addr, kind) {
                Outcome {
                    latency: hinted.cfg.l1_latency,
                    llc_miss: None,
                    writeback: None,
                }
            } else {
                hinted.access(core, addr, kind)
            };
            assert_eq!(got, want);
        }
        assert_eq!(hinted.stats, reference.stats);
        for (a, b) in hinted.l1.iter().zip(&reference.l1) {
            assert_eq!((a.stats(), resident(a)), (b.stats(), resident(b)));
        }
        for (a, b) in hinted.l2.iter().zip(&reference.l2) {
            assert_eq!((a.stats(), resident(a)), (b.stats(), resident(b)));
        }
        assert_eq!(
            (hinted.llc.stats(), resident(&hinted.llc)),
            (reference.llc.stats(), resident(&reference.llc))
        );
    }

    /// Up to 600 ops of `cores` cores over line numbers from `lines`.
    fn stream(
        cores: usize,
        lines: impl Strategy<Value = u64>,
    ) -> impl Strategy<Value = Vec<(usize, u64, bool, bool)>> {
        proptest::collection::vec((0..cores, lines, any::<bool>(), any::<bool>()), 1..600)
    }

    proptest! {
        /// The paper's Table 1 shape (256-set L1, 512-set L2, 8192-set
        /// LLC), 4 cores. Lines fall in 4 of the L1's sets and 8 of the
        /// L2's, so both keep evicting dirty lines; half of them are shared
        /// between cores.
        #[test]
        fn hinted_walk_matches_reference_paper_shape(
            ops in stream(4, (0u64..4, 0u64..48).prop_map(|(set, tag)| tag * 256 + set))
        ) {
            check(HierarchyConfig::paper_default(4), &ops);
        }

        /// The 1/64 shape (4-set L1, 8-set L2, 128-set LLC) over twice the
        /// LLC's lines, so the LLC evicts too.
        #[test]
        fn hinted_walk_matches_reference_scale_64(ops in stream(3, 0u64..4096)) {
            check(HierarchyConfig::scaled(3, 1, 64), &ops);
        }

        /// A toy shape: 2-set L1 and L2, a 4-set LLC.
        #[test]
        fn hinted_walk_matches_reference_two_sets(ops in stream(2, 0u64..64)) {
            check(
                HierarchyConfig {
                    cores: 2,
                    l1: CacheConfig::new(256, 2, 64).unwrap(),
                    l2: CacheConfig::new(512, 4, 64).unwrap(),
                    llc: CacheConfig::new(1024, 4, 64).unwrap(),
                    l1_latency: 1,
                    l2_latency: 9,
                    llc_latency: 14,
                },
                &ops,
            );
        }
    }
}
