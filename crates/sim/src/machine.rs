//! The full-system event loop.

use cpu::{Core, CoreConfig};
use dram::{DramSystem, SchemeStats};
use mem_cache::Hierarchy;
use sim_types::{Cycle, MemReq, MemSide, TraceOp, TraceSource, TrafficClass};
use workloads::Workload;

use crate::any_scheme::AnyScheme;
use crate::page_alloc::{PageAllocator, PageMemo};

/// Default ops-per-pick cap of the epoch-batched [`Machine::run`] loop.
///
/// The cap is a serviceability knob, not a semantic one: any batch size
/// produces byte-identical results (`--batch 1` degenerates to the per-op
/// reference schedule), and run-ahead epochs end early at the first shared
/// interaction anyway, so a generous cap simply lets long private-hit
/// bursts amortize the scheduler re-pick.
pub const DEFAULT_BATCH: usize = 4096;

/// Packs one core's scheduler pick key: `now << idx_bits | index`, with
/// `u64::MAX` reserved as the "finished" sentinel.
///
/// Two silent-corruption hazards guard loudly here (the same discipline
/// `Dcmc::on_tick` applies to tick monotonicity). A clock within `idx_bits`
/// of the top bit would shift high bits out and wrap the pick order, so the
/// shift headroom is asserted. Subtler: a clock that *fits* can still pack
/// to the all-ones word — `now = 2^61 - 1` with `idx_bits = 3` and index 7
/// passes the headroom check yet collides with the finished sentinel, which
/// would silently drop a live core from the schedule — so the sentinel
/// collision is asserted too.
///
/// # Panics
///
/// Panics if `now` has fewer than `idx_bits` bits of headroom, or if the
/// packed key equals the finished sentinel.
#[inline]
fn scheduler_key(now: u64, index: usize, idx_bits: u32) -> u64 {
    assert!(
        now >> (64 - idx_bits) == 0,
        "simulated time overflows the packed scheduler key"
    );
    let key = (now << idx_bits) | index as u64;
    assert!(
        key != u64::MAX,
        "scheduler key collides with the finished sentinel"
    );
    key
}

/// Everything measured by one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Scheme name as used in the paper's figures.
    pub scheme: &'static str,
    /// Workload name.
    pub workload: String,
    /// Total simulated cycles (slowest core, after drain).
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Memory operations replayed from the traces (L1 accesses) — the
    /// per-op inner loop's iteration count, used to express simulator
    /// throughput as mem-ops/sec.
    pub mem_ops: u64,
    /// Measured LLC misses per kilo-instruction.
    pub mpki: f64,
    /// Fraction of processor memory requests served from NM, in [0, 1].
    pub nm_served: f64,
    /// Bytes moved on the FM interface (all traffic classes).
    pub fm_traffic: u64,
    /// Bytes moved on the NM interface (all traffic classes).
    pub nm_traffic: u64,
    /// Dynamic memory energy in millijoules.
    pub energy_mj: f64,
    /// Measured footprint in bytes (distinct pages touched).
    pub footprint: u64,
    /// Always 0.0: there is no controller queue. This and the next three
    /// fields stay only until `benchmark/` stops using them.
    pub nm_queue_mean: f64,
    /// Always 0.
    pub nm_queue_max: u64,
    /// Always 0.0.
    pub fm_queue_mean: f64,
    /// Always 0.
    pub fm_queue_max: u64,
    /// The scheme's own counters.
    pub stats: SchemeStats,
}

impl RunResult {
    /// Instructions per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// A complete simulated system: 8 interval cores + cache hierarchy +
/// memory scheme + DRAM devices + page allocator + workload.
pub struct Machine {
    cores: Vec<Core>,
    shared: Shared,
    workload: Workload,
}

/// The parts every core shares, and the one place a memory op's semantics
/// are written: both event loops call [`Shared::tick_to`] and
/// [`Shared::step`] and differ only in which core they pick when.
struct Shared {
    hierarchy: Hierarchy,
    scheme: AnyScheme,
    dram: DramSystem,
    pages: PageAllocator,
    next_tick: u64,
    os_hints: bool,
}

impl Shared {
    /// Fires every interval tick (migration-scheme housekeeping) due at or
    /// before `now`.
    fn tick_to(&mut self, now: u64) {
        while now >= self.next_tick {
            self.scheme
                .on_tick(Cycle::new(self.next_tick), &mut self.dram);
            self.next_tick += self.scheme.tick_period().unwrap_or(u64::MAX);
        }
    }

    /// Executes core `i`'s next memory op under full semantics: retire the
    /// instructions before it, translate through the core's page memo
    /// (hinting a first-touched page *used* under §3.8 OS hints), then
    /// probe the private L1. Only an L1 miss walks the hierarchy and sends
    /// the dirty LLC victim and the LLC miss to the scheme; an L1 hit has
    /// neither, so it needs nothing below the private L1.
    ///
    /// The memo is exact because the page table is append-only and a
    /// core's address space is fixed for the run.
    #[inline]
    fn step(&mut self, i: usize, core: &mut Core, memo: &mut PageMemo, space: u8, op: TraceOp) {
        core.advance_instructions(op.instructions());
        let (paddr, fresh_page) = memo.translate_tracking(&mut self.pages, space, op.addr);
        if self.os_hints && fresh_page {
            let page_base = sim_types::PAddr::new(paddr.raw() & !4095);
            self.scheme.os_hint_used(page_base, 4096);
        }
        if self.hierarchy.l1_access_fast(i, paddr, op.kind) {
            return;
        }
        let out = self.hierarchy.access(i, paddr, op.kind);
        if let Some(wb) = out.writeback {
            // Dirty LLC victim: buffered write to memory.
            let req = MemReq::write(wb, 64, core.now()).on_core(i as u8);
            self.scheme.access(&req, &mut self.dram);
        }
        if let Some(miss) = out.llc_miss {
            let req = MemReq {
                addr: miss,
                kind: op.kind,
                bytes: 64,
                at: core.now() + out.latency,
                core: i as u8,
            };
            let served = self.scheme.access(&req, &mut self.dram);
            if op.kind.is_write() {
                core.note_store();
            } else {
                core.issue_llc_miss_load(served.done);
            }
        }
    }
}

/// Core `i`'s next trace op.
fn next_op(workload: &mut Workload, i: usize) -> TraceOp {
    workload
        .source_mut(i)
        .next_op()
        .expect("trace generators are unbounded")
}

/// A core's scheduler pick key: its packed clock while it has
/// instructions left to retire, else the finished sentinel.
#[inline]
fn pick_key(core: &Core, i: usize, idx_bits: u32, instrs_per_core: u64) -> u64 {
    if core.retired() < instrs_per_core {
        scheduler_key(core.now().raw(), i, idx_bits)
    } else {
        u64::MAX
    }
}

impl Machine {
    /// Assembles a machine. The scheme arrives as an [`AnyScheme`]
    /// (anything concrete converts with `.into()`), so the two
    /// `scheme.access` calls per memory op dispatch statically. The page
    /// allocator covers the scheme's flat capacity.
    pub fn new(
        cores: usize,
        hierarchy: Hierarchy,
        scheme: AnyScheme,
        dram: DramSystem,
        workload: Workload,
        seed: u64,
    ) -> Self {
        let pages = PageAllocator::new(scheme.flat_capacity_bytes(), seed ^ 0x9E37);
        let next_tick = scheme.tick_period().unwrap_or(u64::MAX);
        Machine {
            cores: (0..cores)
                .map(|i| Core::new(i as u8, CoreConfig::paper_default()))
                .collect(),
            shared: Shared {
                hierarchy,
                scheme,
                dram,
                pages,
                next_tick,
                os_hints: false,
            },
            workload,
        }
    }

    /// Enables §3.8-style OS free-space hints: the whole flat space starts
    /// hinted *unused*, and each first-touched page is hinted *used* as the
    /// allocator hands it out (the information ISA-Alloc/ISA-Free would
    /// carry in Chameleon's design).
    #[must_use]
    pub fn with_os_hints(mut self) -> Self {
        self.shared.os_hints = true;
        let cap = self.shared.scheme.flat_capacity_bytes();
        self.shared
            .scheme
            .os_hint_unused(sim_types::PAddr::new(0), cap);
        self
    }

    /// Runs until every core has retired `instrs_per_core` instructions,
    /// then drains outstanding misses and reports. Equivalent to
    /// [`Machine::run_batched`] at [`DEFAULT_BATCH`]; results are
    /// byte-identical to [`Machine::run_reference`] for every batch size.
    pub fn run(&mut self, instrs_per_core: u64) -> RunResult {
        self.run_batched(instrs_per_core, DEFAULT_BATCH)
    }

    /// The epoch-batched event loop.
    ///
    /// The per-op reference schedule ([`Machine::run_reference`]) re-picks
    /// the globally earliest core (packed `now << bits | index` key,
    /// deterministic index tie-break) before *every* memory op. This loop
    /// picks once per *epoch*: the chosen core first executes ops under
    /// full semantics while it remains globally earliest (its packed key
    /// no larger than the frozen second-smallest key — other cores' keys
    /// cannot change while it runs), then *runs ahead* through ops that
    /// are provably core-local: an already-mapped page (reads of the page
    /// table commute with other cores' first touches) whose line hits the
    /// private L1 (no L2/LLC/scheme/DRAM interaction). The epoch ends at
    /// the first op that would touch a shared structure — a first-touch
    /// allocation, anything reaching L2 or beyond — which is stashed and
    /// replayed once the core is globally earliest again, or after `batch`
    /// ops.
    ///
    /// Shared interactions therefore execute in exactly the reference
    /// order: a core arrives at its next shared op with the same clock the
    /// reference would show (run-ahead ops advance nothing but its own
    /// state), and the pick compares the same packed keys. Interval ticks
    /// fire only while a core is globally earliest, plus a trailing
    /// catch-up to the highest clock any run-ahead op observed — the same
    /// `on_tick` sequence, in the same position relative to every shared
    /// access, as the reference (L1 hits commute with ticks: neither reads
    /// the other's state).
    ///
    /// Both loops execute a globally earliest op through the same
    /// `Shared::step`, so `tests/batched_differential.rs`, which holds this
    /// loop to the reference at float-bit granularity, pins the *schedule*:
    /// the epoch pick, run-ahead and the trailing ticks. The op semantics
    /// themselves are pinned by the golden digests
    /// (`tests/determinism_golden.rs` and the `goldens/` scenario grids).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn run_batched(&mut self, instrs_per_core: u64, batch: usize) -> RunResult {
        assert!(batch > 0, "batch must be at least 1 (1 = per-op reference)");
        let shared_space = self.workload.shared_address_space();
        let ncores = self.cores.len();
        let idx_bits = ncores.next_power_of_two().trailing_zeros().max(1);
        let key = |c: &Core, i: usize| pick_key(c, i, idx_bits, instrs_per_core);
        let mut keys: Vec<u64> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| key(c, i))
            .collect();
        // Per-core op decoded during run-ahead but found to need a shared
        // structure: it executes when the core is next globally earliest.
        let mut pending: Vec<Option<TraceOp>> = vec![None; ncores];
        // Per-core last translation, consulted before the page table: a
        // streaming core touches one page for dozens of ops in a row.
        let mut memo = vec![PageMemo::EMPTY; ncores];
        // Highest clock-before-op any run-ahead op observed — the
        // reference fires ticks up to exactly this horizon, so the
        // trailing catch-up below uses it. Phase 1 ticks to its own
        // clocks as it goes.
        let mut tick_horizon: u64 = 0;
        let Machine {
            cores,
            shared,
            workload,
        } = &mut *self;

        'epoch: loop {
            // One min-reduction per epoch: the earliest key wins the pick;
            // the runner-up is the global-ordering horizon the winner must
            // not cross with shared work. `other` stays valid for the
            // whole epoch because only keys[i] can move.
            let mut best = u64::MAX;
            let mut other = u64::MAX;
            for &k in &keys {
                if k < best {
                    other = best;
                    best = k;
                } else if k < other {
                    other = k;
                }
            }
            if best == u64::MAX {
                break;
            }
            let i = (best & ((1 << idx_bits) - 1)) as usize;
            let space = if shared_space { 0 } else { i as u8 };
            let mut left = batch;

            // Phase 1 — globally earliest: full semantics (interval ticks,
            // first touches, hierarchy, scheme, DRAM).
            while key(&cores[i], i) <= other {
                shared.tick_to(cores[i].now().raw());
                let op = pending[i].take().unwrap_or_else(|| next_op(workload, i));
                shared.step(i, &mut cores[i], &mut memo[i], space, op);
                left -= 1;
                if cores[i].retired() >= instrs_per_core || left == 0 {
                    keys[i] = key(&cores[i], i);
                    continue 'epoch;
                }
            }

            // Phase 2 — run-ahead: past the horizon, so only provably
            // core-local ops may execute (mapped page + private L1 hit).
            // No tick housekeeping here: a run-ahead core firing a tick
            // would reorder it against other cores' pending shared ops;
            // L1 hits commute with ticks, so deferring them to the next
            // phase-1 pick is exact.
            debug_assert!(pending[i].is_none(), "pending op survived phase 1");
            loop {
                let op = next_op(workload, i);
                let local = memo[i]
                    .lookup(&shared.pages, space, op.addr)
                    .is_some_and(|paddr| shared.hierarchy.l1_access_fast(i, paddr, op.kind));
                if !local {
                    // Would touch a shared structure: stash it for the next
                    // pick. The key stays the clock *before* the op — its
                    // arrival key in the reference schedule.
                    pending[i] = Some(op);
                    keys[i] = key(&cores[i], i);
                    continue 'epoch;
                }
                tick_horizon = tick_horizon.max(cores[i].now().raw());
                cores[i].advance_instructions(op.instructions());
                left -= 1;
                if cores[i].retired() >= instrs_per_core || left == 0 {
                    keys[i] = key(&cores[i], i);
                    continue 'epoch;
                }
            }
        }

        // Trailing tick catch-up: the reference runs tick housekeeping at
        // every per-op pick, so it fires every tick up to the highest
        // clock-before-op seen; run-ahead skipped some of those picks. All
        // shared accesses are done, and every remaining tick is later than
        // each of them was, so firing the stragglers here preserves the
        // reference interleaving.
        shared.tick_to(tick_horizon);
        self.finish()
    }

    /// The per-op reference event loop: the schedule oracle for
    /// [`Machine::run_batched`]. Every op re-picks the earliest unfinished
    /// core and executes through the same `Shared::step`;
    /// `tests/batched_differential.rs` holds the batched loop to this,
    /// field by field, at float-bit granularity.
    pub fn run_reference(&mut self, instrs_per_core: u64) -> RunResult {
        // Earliest unfinished core first (deterministic tie-break by
        // index). This orders *picks*, not DRAM arrivals: the key is the
        // clock before `advance_instructions`, which can jump it by a
        // memory latency on a ROB-reach stall, and schemes issue fills,
        // metadata and migrations at derived future cycles. Arrivals are
        // therefore often out of time order (the benchmark's
        // `machine.req_out_of_order_frac` reads about 0.68 on
        // `lbm-stream`); making them causal is an open ROADMAP item
        // ("Make DRAM arrival order causal"). Core clocks are
        // mirrored into a compact array of `now << shift | index` keys
        // (u64::MAX = finished), so the per-op earliest-core pick is a
        // branchless min-reduction over a few contiguous words — the
        // winning index rides along in the low bits — instead of a
        // pointer-chasing scan through the Core structs (a binary heap
        // loses here too: at 8 cores its sift branches cost more than
        // the whole scan). Min over these keys picks the lowest index
        // among time ties, exactly like the scan it replaces.
        let shared_space = self.workload.shared_address_space();
        let ncores = self.cores.len();
        let idx_bits = ncores.next_power_of_two().trailing_zeros().max(1);
        let key = |c: &Core, i: usize| pick_key(c, i, idx_bits, instrs_per_core);
        let mut keys: Vec<u64> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| key(c, i))
            .collect();
        let mut memo = vec![PageMemo::EMPTY; ncores];
        loop {
            let best = keys.iter().copied().fold(u64::MAX, u64::min);
            if best == u64::MAX {
                break;
            }
            let i = (best & ((1 << idx_bits) - 1)) as usize;
            let core = &mut self.cores[i];
            self.shared.tick_to(core.now().raw());
            let op = next_op(&mut self.workload, i);
            let space = if shared_space { 0 } else { i as u8 };
            self.shared.step(i, core, &mut memo[i], space, op);
            keys[i] = key(core, i);
        }
        self.finish()
    }

    /// Drains outstanding misses, closes the scheme's books and reports.
    fn finish(&mut self) -> RunResult {
        for c in &mut self.cores {
            c.drain();
        }
        self.shared.scheme.on_finish();
        let Shared {
            hierarchy,
            scheme,
            dram,
            pages,
            ..
        } = &self.shared;
        let cycles = self.cores.iter().map(|c| c.now().raw()).max().unwrap_or(0);
        let instructions: u64 = self.cores.iter().map(|c| c.retired()).sum();
        let hstats = hierarchy.stats();
        RunResult {
            scheme: scheme.name(),
            workload: self.workload.spec().name.clone(),
            cycles,
            instructions,
            mem_ops: hstats.l1.accesses,
            mpki: hstats.mpki(instructions),
            nm_served: scheme.stats().nm_served_fraction(),
            fm_traffic: dram.traffic_bytes(MemSide::Fm),
            nm_traffic: dram.traffic_bytes(MemSide::Nm),
            energy_mj: dram.total_energy().total_mj(),
            footprint: pages.footprint_bytes(),
            nm_queue_mean: dram.device(MemSide::Nm).stats().mean_queue_occupancy(),
            nm_queue_max: dram.device(MemSide::Nm).stats().queue_peak_occupancy,
            fm_queue_mean: dram.device(MemSide::Fm).stats().mean_queue_occupancy(),
            fm_queue_max: dram.device(MemSide::Fm).stats().queue_peak_occupancy,
            stats: scheme.stats().clone(),
        }
    }

    /// Digest of the full first-touch page mapping (see
    /// [`PageAllocator::table_digest`]): equal digests across batch sizes
    /// certify that epoch batching preserved allocation order exactly.
    pub fn page_table_digest(&self) -> u64 {
        self.shared.pages.table_digest()
    }

    /// NM traffic attributable to metadata, for the §5.2.1 claim (4.1% of
    /// NM traffic).
    pub fn nm_metadata_fraction(&self) -> f64 {
        let dram = &self.shared.dram;
        let total = dram.traffic_bytes(MemSide::Nm);
        if total == 0 {
            return 0.0;
        }
        let meta = dram
            .device(MemSide::Nm)
            .stats()
            .bytes(TrafficClass::Metadata);
        meta as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::FmOnly;
    use mem_cache::HierarchyConfig;
    use workloads::catalog;

    fn machine(seed: u64) -> Machine {
        let spec = catalog::by_name("lbm").unwrap();
        let wl = Workload::build(spec, 2, 1024, seed);
        Machine::new(
            2,
            Hierarchy::new(HierarchyConfig::scaled(2, 1, 64)),
            FmOnly::new(1 << 28).into(),
            DramSystem::paper_default(),
            wl,
            seed,
        )
    }

    #[test]
    fn runs_to_instruction_target() {
        let mut m = machine(1);
        let r = m.run(20_000);
        assert!(r.instructions >= 40_000);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0 && r.ipc() <= 8.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let r1 = machine(7).run(10_000);
        let r2 = machine(7).run(10_000);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.fm_traffic, r2.fm_traffic);
        assert_eq!(r1.instructions, r2.instructions);
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = machine(1).run(10_000);
        let r2 = machine(2).run(10_000);
        assert_ne!(r1.cycles, r2.cycles);
    }

    #[test]
    fn batch_one_equals_reference_loop() {
        let r1 = machine(5).run_reference(10_000);
        let r2 = machine(5).run_batched(10_000, 1);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.instructions, r2.instructions);
        assert_eq!(r1.mem_ops, r2.mem_ops);
        assert_eq!(r1.fm_traffic, r2.fm_traffic);
        assert_eq!(r1.mpki.to_bits(), r2.mpki.to_bits());
        assert_eq!(r1.energy_mj.to_bits(), r2.energy_mj.to_bits());
    }

    #[test]
    fn batched_default_matches_reference() {
        let r1 = machine(9).run_reference(15_000);
        let mut m2 = machine(9);
        let r2 = m2.run_batched(15_000, DEFAULT_BATCH);
        let mut m3 = machine(9);
        let r3 = m3.run_batched(15_000, 3);
        for r in [&r2, &r3] {
            assert_eq!(r1.cycles, r.cycles);
            assert_eq!(r1.instructions, r.instructions);
            assert_eq!(r1.mem_ops, r.mem_ops);
            assert_eq!(r1.fm_traffic, r.fm_traffic);
            assert_eq!(r1.footprint, r.footprint);
        }
        // First-touch allocation order preserved exactly, not just counts.
        assert_eq!(m2.page_table_digest(), m3.page_table_digest());
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        machine(1).run_batched(1_000, 0);
    }

    #[test]
    fn scheduler_key_orders_near_overflow_clocks() {
        // 2^61 - 2 is the largest clock with 3 bits of headroom that
        // cannot collide with the sentinel at any index.
        let near = (1u64 << 61) - 2;
        let k1 = scheduler_key(near - 1, 7, 3);
        let k2 = scheduler_key(near, 0, 3);
        let k3 = scheduler_key(near, 7, 3);
        assert!(k1 < k2 && k2 < k3);
        assert_ne!(k3, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "overflows the packed scheduler key")]
    fn scheduler_key_overflow_is_loud() {
        let _ = scheduler_key(1u64 << 61, 0, 3);
    }

    #[test]
    #[should_panic(expected = "collides with the finished sentinel")]
    fn scheduler_key_sentinel_collision_is_loud() {
        // Passes the shift-headroom check — the clock fits in 61 bits —
        // yet packs to the all-ones word the scheduler reads as
        // "finished", which would silently drop a live core.
        let _ = scheduler_key((1u64 << 61) - 1, 7, 3);
    }

    #[test]
    fn streaming_workload_reaches_memory() {
        let mut m = machine(3);
        let r = m.run(20_000);
        assert!(r.mpki > 1.0, "lbm is a high-MPKI stream, got {}", r.mpki);
        assert!(r.fm_traffic > 0);
        assert_eq!(r.nm_traffic, 0, "FM-only system never touches NM");
        assert!(r.energy_mj > 0.0);
        assert!(r.footprint > 0);
    }
}
