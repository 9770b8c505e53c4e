//! Workload specifications: the static description of one benchmark.

use core::fmt;

use crate::patterns::PatternSpec;

/// Multi-programmed (8 SPEC instances) or multi-threaded (8 NAS threads).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Eight identical instances, private address spaces (SPEC CPU 2017).
    MultiProgrammed,
    /// Eight threads of one program, shared address space (NAS OpenMP).
    MultiThreaded,
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WorkloadKind::MultiProgrammed => "MP",
            WorkloadKind::MultiThreaded => "MT",
        })
    }
}

/// The paper's grouping of benchmarks by LLC misses per kilo-instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MpkiClass {
    /// MPKI ≥ 15 (Table 2 top group).
    High,
    /// 2 ≤ MPKI < 15.
    Medium,
    /// MPKI < 2.
    Low,
}

impl MpkiClass {
    /// All classes in the paper's reporting order.
    pub const ALL: [MpkiClass; 3] = [MpkiClass::High, MpkiClass::Medium, MpkiClass::Low];

    /// Classifies a measured MPKI value using the paper's thresholds.
    pub fn of_mpki(mpki: f64) -> MpkiClass {
        if mpki >= 15.0 {
            MpkiClass::High
        } else if mpki >= 2.0 {
            MpkiClass::Medium
        } else {
            MpkiClass::Low
        }
    }
}

impl fmt::Display for MpkiClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MpkiClass::High => "High",
            MpkiClass::Medium => "Medium",
            MpkiClass::Low => "Low",
        })
    }
}

/// The published characterization of one benchmark (Table 2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// LLC misses per kilo-instruction.
    pub mpki: f64,
    /// Memory footprint of the simulated slice, in gigabytes.
    pub footprint_gb: f64,
    /// Total memory traffic of the simulated slice, in gigabytes.
    pub traffic_gb: f64,
}

impl PaperRow {
    /// Footprint in bytes (paper scale).
    pub fn footprint_bytes(&self) -> u64 {
        (self.footprint_gb * 1024.0 * 1024.0 * 1024.0) as u64
    }
}

/// Everything needed to instantiate one benchmark's synthetic stand-in.
///
/// Owns its name and pattern tree; a workload's identity is its `name`,
/// not its address.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name as printed in the paper's figures (e.g. `"cg.D"`).
    pub name: String,
    /// MP (SPEC) or MT (NAS).
    pub kind: WorkloadKind,
    /// The paper's MPKI class for this benchmark.
    pub class: MpkiClass,
    /// The paper's Table 2 row.
    pub paper: PaperRow,
    /// Access-pattern generator parameters.
    pub pattern: PatternSpec,
    /// Mean instructions per memory reference (gap + 1); calibrated so the
    /// measured MPKI lands in `class`.
    pub mem_every: u32,
    /// Store fraction of memory references, in percent.
    pub write_pct: u8,
}

impl WorkloadSpec {
    /// True when the scaled footprint exceeds `llc_bytes` (the paper only
    /// keeps benchmarks whose footprint exceeds the 8 MB LLC).
    pub fn exceeds_llc(&self, scale_den: u64, llc_bytes: u64) -> bool {
        self.paper.footprint_bytes() / scale_den > llc_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_thresholds_match_paper_grouping() {
        assert_eq!(MpkiClass::of_mpki(90.6), MpkiClass::High);
        assert_eq!(MpkiClass::of_mpki(15.5), MpkiClass::High);
        assert_eq!(MpkiClass::of_mpki(14.2), MpkiClass::Medium);
        assert_eq!(MpkiClass::of_mpki(2.2), MpkiClass::Medium);
        assert_eq!(MpkiClass::of_mpki(1.4), MpkiClass::Low);
        assert_eq!(MpkiClass::of_mpki(0.13), MpkiClass::Low);
    }

    #[test]
    fn footprint_conversion() {
        let row = PaperRow {
            mpki: 1.0,
            footprint_gb: 2.0,
            traffic_gb: 1.0,
        };
        assert_eq!(row.footprint_bytes(), 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn displays() {
        assert_eq!(WorkloadKind::MultiProgrammed.to_string(), "MP");
        assert_eq!(WorkloadKind::MultiThreaded.to_string(), "MT");
        assert_eq!(MpkiClass::High.to_string(), "High");
    }
}
