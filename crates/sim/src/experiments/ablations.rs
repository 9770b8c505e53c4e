//! Ablation studies beyond the paper's figures.
//!
//! * **Budget reset period** — §3.7.3 fixes the FM-access budget reset at
//!   100 K cycles; this sweep shows the sensitivity (too short starves
//!   migration, too long lets bursts overshoot).
//! * **Free-stack on-chip window** — §3.3 keeps the top of the
//!   Free-FM-Stack on-chip; this sweep measures the metadata traffic a
//!   purely in-NM stack would add.
//! * **§3.8 free-space hints** — the paper's extension sketch: with
//!   Chameleon-style OS hints, swap-outs of dead data skip their copies.

use hybrid2_core::{Dcmc, Hybrid2Config, Variant};
use workloads::WorkloadSpec;

use crate::machine::RunResult;
use crate::report::{f2, Report};
use crate::runner::{build_scheme, hybrid2_config, run_one, run_scheme, EvalConfig, SchemeKind};
use crate::scale::{NmRatio, ScaledSystem};

use super::workload_set;

/// The 1 GB machine every ablation runs on.
fn system(cfg: &EvalConfig) -> ScaledSystem {
    ScaledSystem::new(NmRatio::OneGb, cfg.scale_den)
}

/// The paper-best Hybrid2 configuration, the one [`SchemeKind::Hybrid2`]
/// builds, for a sweep to edit.
fn base_config(cfg: &EvalConfig) -> Hybrid2Config {
    let sys = system(cfg);
    hybrid2_config(&sys, sys.cache_bytes, 2048, 256, Variant::Full)
}

fn run_custom(cfg: &EvalConfig, h2: Hybrid2Config, spec: &WorkloadSpec) -> RunResult {
    let dcmc = Dcmc::new(h2).expect("ablation config is valid");
    run_scheme(dcmc.into(), &system(cfg), spec, cfg, false)
}

/// Paper-best Hybrid2 with the §3.8 OS free-space hints on.
fn run_hinted(cfg: &EvalConfig, spec: &WorkloadSpec) -> RunResult {
    let sys = system(cfg);
    run_scheme(
        build_scheme(SchemeKind::Hybrid2, &sys),
        &sys,
        spec,
        cfg,
        true,
    )
}

/// Sweeps the §3.7.3 budget reset period.
pub fn ablation_budget_period(cfg: &EvalConfig, smoke: bool) -> Vec<Report> {
    let specs = workload_set(smoke);
    let mut report = Report::new(
        "Ablation — FM-access budget reset period (§3.7.3; paper: 100 K cycles)",
        vec![
            "reset period (cycles)",
            "avg migrations/run",
            "avg cycles (norm to 100K)",
        ],
    );
    let mut results: Vec<(u64, f64, f64)> = Vec::new();
    for period in [10_000u64, 100_000, 1_000_000] {
        let mut h2 = base_config(cfg);
        h2.budget_reset_period = period;
        let mut migs = 0.0;
        let mut cycles = 0.0;
        for spec in &specs {
            let r = run_custom(cfg, h2, spec);
            migs += r.stats.moved_into_nm as f64;
            cycles += r.cycles as f64;
        }
        results.push((
            period,
            migs / specs.len() as f64,
            cycles / specs.len() as f64,
        ));
    }
    let ref_cycles = results
        .iter()
        .find(|r| r.0 == 100_000)
        .map(|r| r.2)
        .unwrap_or(1.0);
    for (period, migs, cycles) in results {
        report.push_row(vec![period.to_string(), f2(migs), f2(cycles / ref_cycles)]);
    }
    report.push_note("longer periods admit more migration bandwidth per phase");
    vec![report]
}

/// Sweeps the §3.3 on-chip window of the Free-FM-Stack.
pub fn ablation_stack_window(cfg: &EvalConfig, smoke: bool) -> Vec<Report> {
    let specs = workload_set(smoke);
    let mut report = Report::new(
        "Ablation — Free-FM-Stack on-chip window (§3.3; paper keeps the top entries on-chip)",
        vec![
            "on-chip entries",
            "metadata writes/run",
            "NM metadata bytes/run",
        ],
    );
    for window in [0usize, 64, 4096] {
        let mut h2 = base_config(cfg);
        h2.free_stack_onchip = window;
        let mut meta_writes = 0u64;
        let mut meta_bytes = 0u64;
        for spec in &specs {
            let sys_run = run_custom(cfg, h2, spec);
            meta_writes += sys_run.stats.metadata_writes;
            meta_bytes += sys_run.nm_traffic / specs.len().max(1) as u64;
        }
        report.push_row(vec![
            window.to_string(),
            (meta_writes / specs.len() as u64).to_string(),
            (meta_bytes / specs.len() as u64).to_string(),
        ]);
    }
    report.push_note("window 0 spills every push/pop to NM; 64 suffices in practice");
    vec![report]
}

/// §3.8: Hybrid2 with and without OS free-space hints. With hints, the
/// untouched portion of the flat space is known-dead, so Figure-8 swap-outs
/// skip their copies — exactly the saving the paper sketches (and the one
/// Chameleon demonstrated).
pub fn ablation_free_hints(cfg: &EvalConfig, smoke: bool) -> Vec<Report> {
    let specs = workload_set(smoke);
    let mut report = Report::new(
        "Ablation — §3.8 OS free-space hints (Hybrid2 extension)",
        vec![
            "benchmark",
            "speedup w/o hints",
            "speedup w/ hints",
            "FM migration bytes w/o",
            "FM migration bytes w/",
        ],
    );
    for spec in &specs {
        let plain = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, cfg);
        let hinted = run_hinted(cfg, spec);
        let base = run_one(SchemeKind::Baseline, spec, NmRatio::OneGb, cfg);
        report.push_row(vec![
            spec.name.to_owned(),
            f2(base.cycles as f64 / plain.cycles as f64),
            f2(base.cycles as f64 / hinted.cycles as f64),
            plain.stats.moved_out_of_nm.to_string(),
            hinted.stats.moved_out_of_nm.to_string(),
        ]);
    }
    report.push_note("hints never hurt; swap-out volume is logical (copies are skipped)");
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sweep_runs_and_orders_migrations() {
        let cfg = EvalConfig {
            scale_den: 256,
            instrs_per_core: 15_000,
            seed: 41,
            threads: 2,
            ..EvalConfig::smoke()
        };
        let reports = ablation_budget_period(&cfg, true);
        assert_eq!(reports[0].rows.len(), 3);
    }

    #[test]
    fn free_hints_never_slow_things_down() {
        let cfg = EvalConfig {
            scale_den: 1024,
            instrs_per_core: 50_000,
            seed: 47,
            threads: 2,
            ..EvalConfig::smoke()
        };
        let spec = workloads::catalog::by_name("lbm").unwrap();
        let plain = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &cfg);
        let hinted = run_hinted(&cfg, spec);
        assert!(
            hinted.cycles as f64 <= plain.cycles as f64 * 1.05,
            "hints must not hurt: {} vs {}",
            hinted.cycles,
            plain.cycles
        );
    }

    #[test]
    fn stack_window_zero_increases_metadata_writes() {
        let cfg = EvalConfig {
            scale_den: 256,
            instrs_per_core: 15_000,
            seed: 43,
            threads: 2,
            ..EvalConfig::smoke()
        };
        let reports = ablation_stack_window(&cfg, true);
        let rows = &reports[0].rows;
        let w0: u64 = rows[0][1].parse().unwrap();
        let w64: u64 = rows[1][1].parse().unwrap();
        assert!(
            w0 >= w64,
            "a zero-entry window cannot produce fewer metadata writes"
        );
    }
}
