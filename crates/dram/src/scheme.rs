//! The interface every hybrid-memory management scheme implements.
//!
//! Hybrid2 (`hybrid2-core`) and all five comparison schemes (`baselines`)
//! implement [`MemoryScheme`]; the system runner in `sim` drives whichever
//! scheme it is given against the same [`DramSystem`](crate::DramSystem), so
//! performance, traffic and energy are always accounted identically.

use core::fmt;

use sim_types::{Cycle, MemReq, PAddr};

use crate::system::DramSystem;

/// The outcome of one processor request handed to a scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Served {
    /// Cycle at which the critical data is available. For writes this is the
    /// cycle the write is accepted; writes are buffered, so the core never
    /// waits on it and the machine ignores it for stores.
    pub done: Cycle,
    /// Whether the *demand* access was served from near memory.
    pub from_nm: bool,
}

impl Served {
    /// Convenience constructor.
    pub fn new(done: Cycle, from_nm: bool) -> Self {
        Served { done, from_nm }
    }
}

/// Counters common to every scheme, reported by the harness.
///
/// Not every field is meaningful for every scheme (a cache has no
/// migrations; the FM-only baseline has neither); unused fields stay zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Processor requests handled (reads + writes).
    pub requests: u64,
    /// Processor read requests.
    pub reads: u64,
    /// Processor write requests.
    pub writes: u64,
    /// Demand requests whose data came from NM (Figure 15).
    pub served_from_nm: u64,
    /// Hits in the scheme's primary lookup structure (XTA / tag array /
    /// page table / remap cache, as applicable).
    pub lookup_hits: u64,
    /// Misses in the scheme's primary lookup structure.
    pub lookup_misses: u64,
    /// Sectors/blocks/pages migrated or filled into NM.
    pub moved_into_nm: u64,
    /// Sectors/blocks/pages moved out of NM to FM (swaps, evictions).
    pub moved_out_of_nm: u64,
    /// Evictions that wrote dirty data back to FM.
    pub dirty_writebacks: u64,
    /// Reads of remap/tag metadata that had to go to DRAM.
    pub metadata_reads: u64,
    /// Writes of remap/tag metadata that had to go to DRAM.
    pub metadata_writes: u64,
    /// Bytes fetched into NM by fills (cache schemes; Figure 1 numerator).
    pub fetched_bytes: u64,
    /// Of the fetched bytes, bytes actually touched before eviction
    /// (Figure 1; maintained by schemes that track usage).
    pub used_bytes: u64,
}

impl SchemeStats {
    /// Counts one processor request in `requests` and in `reads` or
    /// `writes`; returns whether it is a write.
    #[inline]
    pub fn count(&mut self, req: &MemReq) -> bool {
        self.requests += 1;
        let write = req.kind.is_write();
        if write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        write
    }

    /// Fraction of demand requests served from NM, in [0, 1].
    pub fn nm_served_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.served_from_nm as f64 / self.requests as f64
        }
    }

    /// Hit rate of the primary lookup structure, in [0, 1].
    pub fn lookup_hit_rate(&self) -> f64 {
        let total = self.lookup_hits + self.lookup_misses;
        if total == 0 {
            0.0
        } else {
            self.lookup_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for SchemeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests {} (NM-served {:.1}%), lookup hit {:.1}%, in/out NM {}/{}",
            self.requests,
            100.0 * self.nm_served_fraction(),
            100.0 * self.lookup_hit_rate(),
            self.moved_into_nm,
            self.moved_out_of_nm,
        )
    }
}

/// A hybrid-memory management scheme: the Hybrid2 DCMC or a baseline.
///
/// Implementations receive each LLC miss / writeback in global arrival order
/// and are responsible for all data placement, movement and metadata
/// accounting through the provided [`DramSystem`].
pub trait MemoryScheme {
    /// Short scheme name as used in the paper's figures (e.g. `"HYBRID2"`).
    fn name(&self) -> &'static str;

    /// Serves one processor request, returning when it completes and where
    /// the demand data lived.
    fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served;

    /// Periodic housekeeping (interval-based migration decisions). Called by
    /// the runner every [`MemoryScheme::tick_period`] cycles of simulated
    /// time; default is never.
    fn on_tick(&mut self, _now: Cycle, _dram: &mut DramSystem) {}

    /// End-of-run hook: fold any residual state into [`MemoryScheme::stats`]
    /// (e.g. usage of lines still resident in a cache). Default: nothing.
    fn on_finish(&mut self) {}

    /// OS hint: the byte range `[addr, addr + bytes)` holds no live data
    /// (freed or never-allocated memory). Schemes that exploit free space —
    /// Hybrid2's §3.8 extension, Chameleon's motivation — may skip copying
    /// such data during swaps. Default: ignored.
    fn os_hint_unused(&mut self, _addr: PAddr, _bytes: u64) {}

    /// OS hint: the byte range `[addr, addr + bytes)` is (again) live.
    /// Default: ignored.
    fn os_hint_used(&mut self, _addr: PAddr, _bytes: u64) {}

    /// Interval between [`MemoryScheme::on_tick`] calls in CPU cycles;
    /// `None` disables ticking.
    fn tick_period(&self) -> Option<u64> {
        None
    }

    /// Bytes of main memory visible to software under this scheme. Caches
    /// deny the NM capacity to the system; migration schemes do not.
    fn flat_capacity_bytes(&self) -> u64;

    /// Scheme-level statistics.
    fn stats(&self) -> &SchemeStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_tallies_reads_and_writes() {
        use sim_types::PAddr;
        let mut s = SchemeStats::default();
        let read = MemReq::read(PAddr::new(0), 64, Cycle::ZERO);
        let write = MemReq::write(PAddr::new(64), 64, Cycle::ZERO);
        assert!(!s.count(&read));
        assert!(s.count(&write));
        assert!(s.count(&write));
        let counted = SchemeStats {
            requests: 3,
            reads: 1,
            writes: 2,
            ..SchemeStats::default()
        };
        assert_eq!(s, counted);
    }

    #[test]
    fn nm_served_fraction_handles_zero() {
        let s = SchemeStats::default();
        assert_eq!(s.nm_served_fraction(), 0.0);
        assert_eq!(s.lookup_hit_rate(), 0.0);
    }

    #[test]
    fn fractions_compute() {
        let s = SchemeStats {
            requests: 10,
            served_from_nm: 4,
            lookup_hits: 3,
            lookup_misses: 1,
            ..SchemeStats::default()
        };
        assert!((s.nm_served_fraction() - 0.4).abs() < 1e-12);
        assert!((s.lookup_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let s = SchemeStats::default();
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn served_constructor() {
        let s = Served::new(Cycle::new(5), true);
        assert_eq!(s.done, Cycle::new(5));
        assert!(s.from_nm);
    }
}
