//! Trace-driven interval core model.
//!
//! The paper simulates its 8-core out-of-order processor with the
//! interval-simulation methodology (Genbrugge, Eyerman & Eeckhout, HPCA
//! 2010): cores retire instructions at their full issue width until a
//! long-latency event (an LLC miss) exposes memory latency, and overlapping
//! misses within the reorder-buffer reach hide each other (memory-level
//! parallelism). This crate reproduces that model:
//!
//! * [`Core`] advances a per-core clock: `ceil(instructions / width)` cycles
//!   for compute, plus stalls when outstanding LLC-miss loads exceed the
//!   MSHR count or fall out of the ROB reach.
//! * Stores and writebacks are buffered and never stall the core (they still
//!   consume memory bandwidth, which the DRAM model charges).
//!
//! The event-loop that interleaves cores lives in the `sim` crate; this
//! crate is purely the per-core timing automaton, so it can be unit-tested
//! exhaustively on synthetic miss patterns.
//!
//! # Example
//!
//! ```
//! use cpu::{Core, CoreConfig};
//! use sim_types::Cycle;
//!
//! let mut core = Core::new(0, CoreConfig::paper_default());
//! core.advance_instructions(400); // 400 instrs at width 4 = 100 cycles
//! assert_eq!(core.now(), Cycle::new(100));
//!
//! // An isolated miss overlaps with later compute: no immediate stall.
//! core.issue_llc_miss_load(Cycle::new(200));
//! assert_eq!(core.now(), Cycle::new(100));
//! core.drain();
//! assert_eq!(core.now(), Cycle::new(200));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use sim_types::Cycle;

/// Microarchitectural parameters of one core (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Issue/commit width in instructions per cycle (Table 1: 4).
    pub issue_width: u32,
    /// Reorder-buffer reach in instructions: a miss older than this many
    /// retired instructions blocks retirement (typical OoO: 256).
    pub rob_instructions: u64,
    /// Maximum outstanding LLC-miss loads (MSHRs; typical: 16).
    pub mshrs: usize,
}

impl CoreConfig {
    /// The paper's core: 4-wide out-of-order at 3.2 GHz with a 256-entry ROB
    /// and 16 MSHRs (ROB/MSHR values are conventional; Table 1 specifies
    /// only the width and frequency).
    pub fn paper_default() -> Self {
        CoreConfig {
            issue_width: 4,
            rob_instructions: 256,
            mshrs: 16,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn assert_valid(&self) {
        assert!(self.issue_width > 0, "issue width must be non-zero");
        assert!(self.rob_instructions > 0, "ROB must be non-zero");
        assert!(self.mshrs > 0, "MSHR count must be non-zero");
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Timing statistics for one core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// LLC-miss loads issued to memory.
    pub miss_loads: u64,
    /// Stores/writebacks issued (buffered, not stalled on).
    pub stores: u64,
    /// Cycles spent stalled waiting for memory.
    pub stall_cycles: u64,
}

impl CoreStats {
    /// Instructions per cycle given the core's final time.
    pub fn ipc(&self, now: Cycle) -> f64 {
        if now.raw() == 0 {
            0.0
        } else {
            self.instructions as f64 / now.raw() as f64
        }
    }
}

/// One interval-model core.
///
/// The caller feeds it alternating compute intervals
/// ([`Core::advance_instructions`]) and memory events
/// ([`Core::issue_llc_miss_load`], [`Core::note_store`]); the core tracks
/// its own clock.
#[derive(Clone, Debug)]
pub struct Core {
    id: u8,
    cfg: CoreConfig,
    cycle: Cycle,
    stats: CoreStats,
    /// `log2(issue_width)` when the width is a power of two, so the
    /// per-op `ceil(instructions / width)` is a shift instead of a 64-bit
    /// divide (this runs once per memory operation of the whole
    /// simulation; the paper's width of 4 always takes the shift path).
    width_shift: Option<u32>,
    /// Outstanding LLC-miss loads: (completion cycle, instruction count at
    /// issue), oldest first.
    outstanding: VecDeque<(Cycle, u64)>,
    /// When the oldest outstanding miss next needs settling: its
    /// completion cycle and the retired count at which it falls out of
    /// the ROB reach (both maximal when none is outstanding). Until the
    /// clock or the retired count reaches one of them, the settle loop
    /// would change nothing.
    deadline: (Cycle, u64),
}

/// The deadline of an empty miss window: never.
const NO_DEADLINE: (Cycle, u64) = (Cycle::new(u64::MAX), u64::MAX);

impl Core {
    /// Creates a core with the given id and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(id: u8, cfg: CoreConfig) -> Self {
        cfg.assert_valid();
        Core {
            id,
            cfg,
            cycle: Cycle::ZERO,
            stats: CoreStats::default(),
            width_shift: cfg
                .issue_width
                .is_power_of_two()
                .then(|| cfg.issue_width.trailing_zeros()),
            outstanding: VecDeque::with_capacity(cfg.mshrs + 1),
            deadline: NO_DEADLINE,
        }
    }

    /// This core's id.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// The core's current clock.
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.instructions
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Retires `n` instructions at full width, then applies ROB-reach
    /// stalls for outstanding misses that retirement has caught up with.
    ///
    /// Inlined, and it returns after two compares against the cached
    /// deadline unless the oldest miss can retire or stall: the machine
    /// loop calls this once per memory op, and most ops settle nothing.
    #[inline]
    pub fn advance_instructions(&mut self, n: u64) {
        if n > 0 {
            self.stats.instructions += n;
            let width = u64::from(self.cfg.issue_width);
            self.cycle += match self.width_shift {
                Some(s) => (n + width - 1) >> s,
                None => n.div_ceil(width),
            };
        }
        if self.cycle < self.deadline.0 && self.stats.instructions < self.deadline.1 {
            return; // the oldest miss neither completed nor left the ROB
        }
        self.settle_window();
    }

    /// Issues a demand load that missed the LLC and completes at `done`.
    ///
    /// If all MSHRs are busy the core stalls until the oldest miss returns.
    pub fn issue_llc_miss_load(&mut self, done: Cycle) {
        self.stats.miss_loads += 1;
        self.retire_completed();
        while self.outstanding.len() >= self.cfg.mshrs {
            let (oldest_done, _) = self.outstanding.pop_front().expect("len checked non-zero");
            self.stall_until(oldest_done);
        }
        self.outstanding.push_back((done, self.stats.instructions));
        self.refresh_deadline();
    }

    /// Notes a store/writeback; buffered, never stalls.
    pub fn note_store(&mut self) {
        self.stats.stores += 1;
    }

    /// Waits for every outstanding miss to complete (end of simulation).
    pub fn drain(&mut self) {
        while let Some((done, _)) = self.outstanding.pop_front() {
            self.stall_until(done);
        }
        self.deadline = NO_DEADLINE;
    }

    /// Drops misses that completed in the past; no time advances.
    fn retire_completed(&mut self) {
        while let Some(&(done, _)) = self.outstanding.front() {
            if done <= self.cycle {
                self.outstanding.pop_front();
            } else {
                break;
            }
        }
    }

    /// Applies ROB-reach stalls: an incomplete miss more than
    /// `rob_instructions` behind the retirement point blocks the core.
    fn settle_window(&mut self) {
        loop {
            self.retire_completed();
            match self.outstanding.front() {
                Some(&(done, at_instr))
                    if self.stats.instructions - at_instr >= self.cfg.rob_instructions =>
                {
                    self.outstanding.pop_front();
                    self.stall_until(done);
                }
                _ => break,
            }
        }
        self.refresh_deadline();
    }

    /// Recomputes [`Core::deadline`] from the oldest outstanding miss.
    fn refresh_deadline(&mut self) {
        self.deadline = self.outstanding.front().map_or(NO_DEADLINE, |&(done, at)| {
            (done, at.saturating_add(self.cfg.rob_instructions))
        });
    }

    fn stall_until(&mut self, t: Cycle) {
        if t > self.cycle {
            self.stats.stall_cycles += t - self.cycle;
            self.cycle = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Core {
        Core::new(0, CoreConfig::paper_default())
    }

    #[test]
    fn compute_only_runs_at_full_width() {
        let mut c = core();
        c.advance_instructions(400);
        assert_eq!(c.now(), Cycle::new(100));
        assert_eq!(c.retired(), 400);
        assert_eq!(c.stats().stall_cycles, 0);
        assert!((c.stats().ipc(c.now()) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn width_rounds_up() {
        let mut c = core();
        c.advance_instructions(5); // ceil(5/4) = 2 cycles
        assert_eq!(c.now(), Cycle::new(2));
    }

    #[test]
    fn isolated_miss_overlaps_with_compute() {
        let mut c = core();
        c.advance_instructions(40); // t = 10
        c.issue_llc_miss_load(Cycle::new(50));
        // Plenty of independent work: ROB reach not exceeded within 200 instrs.
        c.advance_instructions(200); // t = 60 > 50: miss fully hidden
        assert_eq!(c.now(), Cycle::new(60));
        assert_eq!(c.stats().stall_cycles, 0);
    }

    #[test]
    fn rob_reach_exposes_long_miss() {
        let mut c = core();
        c.issue_llc_miss_load(Cycle::new(1_000));
        // 256 instructions later the ROB is full behind the miss.
        c.advance_instructions(256);
        assert_eq!(c.now(), Cycle::new(1_000));
        assert!(c.stats().stall_cycles > 0);
    }

    #[test]
    fn below_rob_reach_no_stall() {
        let mut c = core();
        c.issue_llc_miss_load(Cycle::new(1_000));
        c.advance_instructions(255);
        assert_eq!(c.now(), Cycle::new(64)); // ceil(255/4)
        assert_eq!(c.stats().stall_cycles, 0);
    }

    #[test]
    fn mshr_pressure_stalls() {
        let mut c = Core::new(
            0,
            CoreConfig {
                issue_width: 4,
                rob_instructions: 1_000_000,
                mshrs: 2,
            },
        );
        c.issue_llc_miss_load(Cycle::new(100));
        c.issue_llc_miss_load(Cycle::new(200));
        // Third miss with both MSHRs busy: stall until the oldest (100).
        c.issue_llc_miss_load(Cycle::new(300));
        assert_eq!(c.now(), Cycle::new(100));
    }

    #[test]
    fn completed_misses_free_mshrs_without_stall() {
        let mut c = Core::new(
            0,
            CoreConfig {
                issue_width: 4,
                rob_instructions: 1_000_000,
                mshrs: 2,
            },
        );
        c.issue_llc_miss_load(Cycle::new(5));
        c.advance_instructions(400); // t = 100; the miss completed long ago
        c.issue_llc_miss_load(Cycle::new(150));
        c.issue_llc_miss_load(Cycle::new(160));
        assert_eq!(c.stats().stall_cycles, 0);
    }

    #[test]
    fn drain_waits_for_all_outstanding() {
        let mut c = core();
        c.issue_llc_miss_load(Cycle::new(80));
        c.issue_llc_miss_load(Cycle::new(120));
        c.drain();
        assert_eq!(c.now(), Cycle::new(120));
    }

    #[test]
    fn drain_on_idle_core_is_noop() {
        let mut c = core();
        c.drain();
        assert_eq!(c.now(), Cycle::ZERO);
    }

    #[test]
    fn stores_never_stall() {
        let mut c = core();
        for _ in 0..1000 {
            c.note_store();
        }
        assert_eq!(c.now(), Cycle::ZERO);
        assert_eq!(c.stats().stores, 1000);
    }

    #[test]
    fn mlp_hides_parallel_misses() {
        // Two cores: one sees serialized misses (each completes before the
        // next issues), the other sees overlapped misses. Same miss count,
        // overlapped finishes earlier.
        let mk = || {
            Core::new(
                0,
                CoreConfig {
                    issue_width: 4,
                    rob_instructions: 256,
                    mshrs: 16,
                },
            )
        };
        let mut serial = mk();
        let mut t = 0u64;
        for _ in 0..8 {
            t += 100;
            serial.issue_llc_miss_load(Cycle::new(t));
            serial.advance_instructions(256); // forces wait each time
        }
        let serial_time = serial.now();

        let mut overlapped = mk();
        for i in 0..8u64 {
            overlapped.issue_llc_miss_load(Cycle::new(100 + i)); // all in flight
            overlapped.advance_instructions(16);
        }
        overlapped.drain();
        assert!(
            overlapped.now() < serial_time,
            "overlapped {} should beat serialized {}",
            overlapped.now(),
            serial_time
        );
    }

    #[test]
    fn stats_count_miss_loads() {
        let mut c = core();
        c.issue_llc_miss_load(Cycle::new(10));
        c.issue_llc_miss_load(Cycle::new(20));
        assert_eq!(c.stats().miss_loads, 2);
    }

    #[test]
    #[should_panic(expected = "issue width")]
    fn zero_width_rejected() {
        let _ = Core::new(
            0,
            CoreConfig {
                issue_width: 0,
                rob_instructions: 1,
                mshrs: 1,
            },
        );
    }

    #[test]
    fn ipc_zero_when_idle() {
        let c = core();
        assert_eq!(c.stats().ipc(c.now()), 0.0);
    }

    #[test]
    fn time_is_monotonic_under_any_event_mix() {
        let mut c = core();
        let mut last = c.now();
        let events: [(u64, Option<u64>); 6] = [
            (10, Some(500)),
            (300, None),
            (5, Some(400)),
            (0, Some(410)),
            (256, None),
            (1, None),
        ];
        for (gap, miss) in events {
            c.advance_instructions(gap);
            assert!(c.now() >= last);
            last = c.now();
            if let Some(done) = miss {
                c.issue_llc_miss_load(Cycle::new(done));
                assert!(c.now() >= last);
                last = c.now();
            }
        }
        c.drain();
        assert!(c.now() >= last);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Core time is monotone and instruction accounting exact under any
        /// interleaving of compute, misses and stores.
        #[test]
        fn time_monotone_accounting_exact(
            events in proptest::collection::vec((0u64..500, proptest::option::of(0u64..5_000), any::<bool>()), 1..200)
        ) {
            let mut core = Core::new(0, CoreConfig::paper_default());
            let mut last = Cycle::ZERO;
            let mut instrs = 0u64;
            for (gap, miss, store) in events {
                core.advance_instructions(gap);
                instrs += gap;
                prop_assert!(core.now() >= last);
                last = core.now();
                if let Some(extra) = miss {
                    core.issue_llc_miss_load(core.now() + extra);
                    prop_assert!(core.now() >= last);
                    last = core.now();
                }
                if store {
                    core.note_store();
                }
            }
            core.drain();
            prop_assert!(core.now() >= last);
            prop_assert_eq!(core.retired(), instrs);
        }

        /// The core is never faster than its issue width allows and never
        /// slower than full serialization of compute + all miss latencies.
        #[test]
        fn time_bounded_by_width_and_serialization(
            events in proptest::collection::vec((1u64..200, 0u64..2_000), 1..100)
        ) {
            let mut core = Core::new(0, CoreConfig::paper_default());
            let mut total_instr = 0u64;
            let mut total_latency = 0u64;
            for (gap, latency) in events {
                core.advance_instructions(gap);
                total_instr += gap;
                core.issue_llc_miss_load(core.now() + latency);
                total_latency += latency;
            }
            core.drain();
            let min_cycles = total_instr / 4; // 4-wide upper bound on speed
            let max_cycles = total_instr + total_latency + events_len_bound();
            prop_assert!(core.now().raw() >= min_cycles);
            prop_assert!(core.now().raw() <= max_cycles + total_instr);
        }
    }

    /// The core before it cached its settle deadline, kept as the
    /// reference: every advance runs the settle loop.
    struct Settling {
        cfg: CoreConfig,
        cycle: Cycle,
        stats: CoreStats,
        outstanding: VecDeque<(Cycle, u64)>,
    }

    impl Settling {
        fn new(cfg: CoreConfig) -> Self {
            Settling {
                cfg,
                cycle: Cycle::ZERO,
                stats: CoreStats::default(),
                outstanding: VecDeque::new(),
            }
        }

        fn advance_instructions(&mut self, n: u64) {
            self.stats.instructions += n;
            self.cycle += n.div_ceil(u64::from(self.cfg.issue_width));
            loop {
                self.retire_completed();
                match self.outstanding.front() {
                    Some(&(done, at_instr))
                        if self.stats.instructions - at_instr >= self.cfg.rob_instructions =>
                    {
                        self.outstanding.pop_front();
                        self.stall_until(done);
                    }
                    _ => break,
                }
            }
        }

        fn issue_llc_miss_load(&mut self, done: Cycle) {
            self.stats.miss_loads += 1;
            self.retire_completed();
            while self.outstanding.len() >= self.cfg.mshrs {
                let (oldest_done, _) = self.outstanding.pop_front().unwrap();
                self.stall_until(oldest_done);
            }
            self.outstanding.push_back((done, self.stats.instructions));
        }

        fn drain(&mut self) {
            while let Some((done, _)) = self.outstanding.pop_front() {
                self.stall_until(done);
            }
        }

        fn retire_completed(&mut self) {
            while self
                .outstanding
                .front()
                .is_some_and(|&(done, _)| done <= self.cycle)
            {
                self.outstanding.pop_front();
            }
        }

        fn stall_until(&mut self, t: Cycle) {
            if t > self.cycle {
                self.stats.stall_cycles += t - self.cycle;
                self.cycle = t;
            }
        }
    }

    proptest! {
        /// The cached settle deadline changes nothing: under any mix of
        /// compute gaps, misses (short and long) and drains, at two ROB
        /// and MSHR shapes and a width that is not a power of two, the
        /// core's clock and statistics equal the reference's after every
        /// event.
        #[test]
        fn cached_deadline_matches_settle_loop(
            shape in 0usize..3,
            events in proptest::collection::vec(
                (0u64..300, prop_oneof![Just(None), (0u64..3_000).prop_map(Some)], 0u8..40),
                1..300,
            )
        ) {
            let cfg = [
                CoreConfig::paper_default(),
                CoreConfig { issue_width: 4, rob_instructions: 16, mshrs: 2 },
                CoreConfig { issue_width: 3, rob_instructions: 64, mshrs: 4 },
            ][shape];
            let mut core = Core::new(0, cfg);
            let mut reference = Settling::new(cfg);
            for (gap, miss, drain) in events {
                core.advance_instructions(gap);
                reference.advance_instructions(gap);
                if let Some(latency) = miss {
                    core.issue_llc_miss_load(core.now() + latency);
                    reference.issue_llc_miss_load(reference.cycle + latency);
                }
                if drain == 0 {
                    core.drain();
                    reference.drain();
                }
                prop_assert_eq!(core.now(), reference.cycle);
                prop_assert_eq!(*core.stats(), reference.stats);
            }
        }
    }

    fn events_len_bound() -> u64 {
        200 * 4 // slack for ceil rounding per event
    }
}
