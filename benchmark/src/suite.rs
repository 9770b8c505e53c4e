//! The benchmark's workloads and the simulated configuration they share.

use sim::{EvalConfig, NmRatio, SchemeKind};
use workloads::{catalog, scenarios, WorkloadSpec};

/// Capacity divisor of every workload (1/1024 of the paper's system).
pub const SCALE_DEN: u64 = 1024;

/// NM:FM ratio of every workload: 1 GB against 16 GB, the paper's stress
/// point.
pub const RATIO: NmRatio = NmRatio::OneGb;

/// Simulated cores per machine (the paper's 8-core system).
pub const CORES: usize = 8;

/// The seven schemes of every trace, in cell order: the no-NM baseline,
/// then the six head-to-head schemes.
pub fn kinds() -> [SchemeKind; 7] {
    let m = SchemeKind::MAIN;
    [SchemeKind::Baseline, m[0], m[1], m[2], m[3], m[4], m[5]]
}

/// How a workload drives the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One catalog trace, its seven cells run one after another on one
    /// thread through `sim::run_one`.
    Trace(&'static str),
    /// The eight built-in scenarios times seven schemes, through
    /// `sim::scenario::run_grid_timed` on `nproc` threads.
    Grid,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Suite {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// What it drives.
    pub shape: Shape,
    /// Instructions each simulated core retires per cell.
    pub instrs_per_core: u64,
}

/// The workloads.
pub const SUITES: [Suite; 2] = [
    Suite {
        name: "lbm-stream",
        shape: Shape::Trace("lbm"),
        instrs_per_core: 250_000,
    },
    Suite {
        name: "scenario-grid",
        shape: Shape::Grid,
        instrs_per_core: 250_000,
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Suite> {
    SUITES.iter().copied().find(|s| s.name == name)
}

/// Host threads available to the process (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Suite {
    /// The simulator configuration of this workload at `seed`, with
    /// `instrs_per_core` instructions per core.
    pub fn config(&self, seed: u64, instrs_per_core: u64) -> EvalConfig {
        EvalConfig {
            scale_den: SCALE_DEN,
            instrs_per_core,
            seed,
            threads: match self.shape {
                Shape::Trace(_) => 1,
                Shape::Grid => nproc(),
            },
            ..EvalConfig::smoke()
        }
    }

    /// Loads the workload's specs from their catalog: one trace, or every
    /// built-in scenario in catalog order.
    pub fn specs(&self) -> Vec<&'static WorkloadSpec> {
        match self.shape {
            Shape::Trace(name) => vec![catalog::by_name(name).expect("trace is in the catalog")],
            Shape::Grid => scenarios::builtin().iter().map(|s| &s.workload).collect(),
        }
    }

    /// Every cell as `(scheme, spec index)` in the grid's slot order: the
    /// baseline row first, then each MAIN scheme's row.
    pub fn cells(&self, nspecs: usize) -> Vec<(SchemeKind, usize)> {
        kinds()
            .into_iter()
            .flat_map(|k| (0..nspecs).map(move |w| (k, w)))
            .collect()
    }
}
