//! One experiment per table/figure of the paper's evaluation (§5), plus
//! extra ablations (`ablations.rs`).
//!
//! Every experiment is a pure function of an [`EvalConfig`] and a workload
//! set, returning printable [`Report`]s; the `reproduce` binary
//! (`--exp <id>`) is a thin wrapper. The paper's own numbers are in
//! `PAPER.md`; no measured-vs-paper ledger exists yet.

mod ablations;
mod fig01;
mod fig02;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15_18;
mod table2;

pub use ablations::{ablation_budget_period, ablation_free_hints, ablation_stack_window};
pub use fig01::fig01_wasted_data;
pub use fig02::fig02_motivation;
pub use fig11::{design_points as fig11_design_points, fig11_design_space};
pub use fig12::fig12_speedup_by_ratio;
pub use fig13::fig13_per_benchmark;
pub use fig14::fig14_breakdown;
pub use fig15_18::{fig15_nm_served, fig16_fm_traffic, fig17_nm_traffic, fig18_energy};
pub use table2::table2_characterization;

use crate::report::Report;
use crate::runner::EvalConfig;
use crate::{Matrix, NmRatio, SchemeKind};
use workloads::{catalog, WorkloadSpec};

/// The workload set an experiment runs on.
pub fn workload_set(smoke: bool) -> Vec<WorkloadSpec> {
    if smoke {
        catalog::smoke_set().map(Clone::clone).to_vec()
    } else {
        catalog::all().to_vec()
    }
}

/// Runs the main six-scheme matrix at one ratio (shared by Figures 12, 13,
/// 15, 16, 17 and 18).
pub fn main_matrix(ratio: NmRatio, cfg: &EvalConfig, smoke: bool) -> Matrix {
    main_matrix_timed(ratio, cfg, smoke).0
}

/// [`main_matrix`] plus per-cell wall-clock seconds in slot order — the
/// telemetry the `--runlog` run records carry.
pub fn main_matrix_timed(ratio: NmRatio, cfg: &EvalConfig, smoke: bool) -> (Matrix, Vec<f64>) {
    Matrix::run_timed(&SchemeKind::MAIN, &workload_set(smoke), ratio, cfg)
}

/// The `evalsuite` report set (Figures 13 and 15–18) derived from one
/// already-computed matrix. Shared by [`run_by_id`] and the `--runlog`
/// path of `reproduce`, so both render byte-identically.
pub fn evalsuite_reports(m: &Matrix) -> Vec<Report> {
    vec![
        fig13_per_benchmark(m),
        fig15_nm_served(m),
        fig16_fm_traffic(m),
        fig17_nm_traffic(m),
        fig18_energy(m),
    ]
}

/// Experiment identifiers accepted by the `reproduce` binary.
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "fig01",
    "fig02",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "table2",
    "abl-budget",
    "abl-stack",
    "abl-free",
    "all",
    "evalsuite",
];

/// Dispatches an experiment by id. `evalsuite` runs the shared 1:16 matrix
/// once and derives Figures 13 and 15–18 from it (the cheap way to get the
/// whole single-ratio story).
///
/// # Panics
///
/// Panics on an unknown id (the CLI validates first).
pub fn run_by_id(id: &str, cfg: &EvalConfig, smoke: bool) -> Vec<Report> {
    match id {
        "fig01" => fig01_wasted_data(cfg, smoke),
        "fig02" => fig02_motivation(cfg, smoke),
        "fig11" => fig11_design_space(cfg, smoke),
        "fig12" => fig12_speedup_by_ratio(cfg, smoke),
        "fig13" => {
            let m = main_matrix(NmRatio::OneGb, cfg, smoke);
            vec![fig13_per_benchmark(&m)]
        }
        "fig14" => fig14_breakdown(cfg, smoke),
        "fig15" => {
            let m = main_matrix(NmRatio::OneGb, cfg, smoke);
            vec![fig15_nm_served(&m)]
        }
        "fig16" => {
            let m = main_matrix(NmRatio::OneGb, cfg, smoke);
            vec![fig16_fm_traffic(&m)]
        }
        "fig17" => {
            let m = main_matrix(NmRatio::OneGb, cfg, smoke);
            vec![fig17_nm_traffic(&m)]
        }
        "fig18" => {
            let m = main_matrix(NmRatio::OneGb, cfg, smoke);
            vec![fig18_energy(&m)]
        }
        "table2" => table2_characterization(cfg, smoke),
        "abl-budget" => ablation_budget_period(cfg, smoke),
        "abl-stack" => ablation_stack_window(cfg, smoke),
        "abl-free" => ablation_free_hints(cfg, smoke),
        "evalsuite" => evalsuite_reports(&main_matrix(NmRatio::OneGb, cfg, smoke)),
        "all" => {
            let mut out = Vec::new();
            for id in [
                "table2",
                "fig01",
                "fig02",
                "fig11",
                "fig12",
                "fig14",
                "evalsuite",
                "abl-budget",
                "abl-stack",
                "abl-free",
            ] {
                out.extend(run_by_id(id, cfg, smoke));
            }
            out
        }
        other => panic!("unknown experiment id {other:?}; known: {ALL_EXPERIMENTS:?}"),
    }
}
