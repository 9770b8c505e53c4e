//! The normalization baseline: a system with no 3D-stacked DRAM at all.
//!
//! Every figure in the paper's evaluation is normalized to this system
//! ("All our results are normalized to a Baseline system without 3D-stacked
//! DRAM"). All requests go straight to the DDR4 far memory.

use dram::{DramAccess, DramSystem, MemoryScheme, SchemeStats, Served};
use sim_types::{MemReq, MemSide};

/// The no-NM baseline.
#[derive(Clone, Debug, Default)]
pub struct FmOnly {
    fm_bytes: u64,
    stats: SchemeStats,
}

impl FmOnly {
    /// Creates the baseline over `fm_bytes` of far memory.
    pub fn new(fm_bytes: u64) -> Self {
        FmOnly {
            fm_bytes,
            stats: SchemeStats::default(),
        }
    }
}

impl MemoryScheme for FmOnly {
    fn name(&self) -> &'static str {
        "BASELINE"
    }

    fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served {
        self.stats.count(req);
        let addr = req.addr.raw() % self.fm_bytes.max(1);
        let done = dram
            .device_mut(MemSide::Fm)
            .serve(DramAccess::demand(req, addr, req.at));
        Served::new(done, false)
    }

    fn flat_capacity_bytes(&self) -> u64 {
        self.fm_bytes
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::{Cycle, PAddr};

    #[test]
    fn everything_goes_to_fm() {
        let mut s = FmOnly::new(1 << 30);
        let mut dram = DramSystem::paper_default();
        let served = s.access(
            &MemReq::read(PAddr::new(0x1000), 64, Cycle::ZERO),
            &mut dram,
        );
        assert!(!served.from_nm);
        assert!(served.done > Cycle::ZERO);
        s.access(
            &MemReq::write(PAddr::new(0x2000), 64, served.done),
            &mut dram,
        );
        assert_eq!(dram.device(MemSide::Fm).stats().accesses, 2);
        assert_eq!(dram.device(MemSide::Nm).stats().accesses, 0);
        assert_eq!(s.stats().requests, 2);
        assert_eq!(s.stats().served_from_nm, 0);
    }

    #[test]
    fn capacity_is_fm_only() {
        let s = FmOnly::new(16 << 30);
        assert_eq!(s.flat_capacity_bytes(), 16 << 30);
        assert_eq!(s.name(), "BASELINE");
    }
}
