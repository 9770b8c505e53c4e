//! The scheme × workload evaluation grid, run in parallel.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use sim_types::stats::geomean;
use workloads::{MpkiClass, WorkloadSpec};

use crate::machine::RunResult;
use crate::runner::{run_one, scheme_label, EvalConfig, SchemeKind};
use crate::scale::NmRatio;

/// Results of one scheme across all workloads of a matrix.
#[derive(Clone, Debug)]
pub struct SchemeRow {
    /// The scheme simulated.
    pub kind: SchemeKind,
    /// Legend label.
    pub label: String,
    /// One result per workload, in workload order.
    pub runs: Vec<RunResult>,
}

/// Per-MPKI-class geometric means for one scheme (the shape of Figures
/// 12/15/16/17/18).
#[derive(Clone, Debug)]
pub struct ClassSummary {
    /// Legend label.
    pub label: String,
    /// Geomean over the high-MPKI group.
    pub high: f64,
    /// Geomean over the medium-MPKI group.
    pub medium: f64,
    /// Geomean over the low-MPKI group.
    pub low: f64,
    /// Geomean over all workloads.
    pub all: f64,
}

/// The full evaluation grid for one NM:FM ratio: every scheme and the
/// baseline over every workload, plus derived metrics.
#[derive(Clone, Debug)]
pub struct Matrix {
    /// The NM:FM ratio simulated.
    pub ratio: NmRatio,
    /// Workloads, in catalog order.
    pub workloads: Vec<WorkloadSpec>,
    /// Baseline (no-NM) results per workload.
    pub baseline: Vec<RunResult>,
    /// Per-scheme results.
    pub schemes: Vec<SchemeRow>,
}

/// Relative cost weight of one (scheme, workload-class) grid cell, used to
/// order jobs longest-processing-time-first. The absolute scale is
/// irrelevant — only the ordering matters — and the weights are heuristic:
/// high-MPKI workloads drive more ops through the scheme, and migration
/// schemes pay remap lookups plus interval ticks on top of the shared
/// pipeline. Mis-estimation costs only tail latency, never correctness
/// (every cell is a pure function of its inputs).
fn job_cost(kind: SchemeKind, spec: &WorkloadSpec) -> u64 {
    let scheme = match kind {
        SchemeKind::Baseline => 2,
        SchemeKind::Tagless | SchemeKind::IdealLine(_) => 3,
        SchemeKind::Dfc | SchemeKind::DfcLine(_) => 3,
        SchemeKind::MemPod | SchemeKind::Lgm => 4,
        SchemeKind::Chameleon => 5,
        SchemeKind::Hybrid2 | SchemeKind::Hybrid2Variant(_) | SchemeKind::Hybrid2Config { .. } => 4,
    };
    let class = match spec.class {
        MpkiClass::High => 3,
        MpkiClass::Medium => 2,
        MpkiClass::Low => 1,
    };
    scheme * class
}

/// One grid cell: `slot` is its position in the result layout (baseline
/// rows first, then each scheme in `kinds` order).
#[derive(Clone, Copy, Debug)]
struct Job {
    slot: usize,
    w: usize,
    kind: SchemeKind,
}

/// The grid's job list in slot order: baseline rows first, then each
/// scheme in `kinds` order — the layout [`Matrix::assemble`] expects.
fn slot_jobs(kinds: &[SchemeKind], specs: &[WorkloadSpec]) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for (w, _) in specs.iter().enumerate() {
        jobs.push(Job {
            slot: w,
            w,
            kind: SchemeKind::Baseline,
        });
    }
    for (s, &kind) in kinds.iter().enumerate() {
        for (w, _) in specs.iter().enumerate() {
            jobs.push(Job {
                slot: (s + 1) * specs.len() + w,
                w,
                kind,
            });
        }
    }
    jobs
}

/// The LPT (longest-processing-time-first) dispatch ordering of
/// [`run_jobs`]: descending cost, slot order breaking ties, so scheduling
/// stays deterministic.
fn lpt_order(a: &Job, b: &Job, specs: &[WorkloadSpec]) -> std::cmp::Ordering {
    job_cost(b.kind, &specs[b.w])
        .cmp(&job_cost(a.kind, &specs[a.w]))
        .then(a.slot.cmp(&b.slot))
}

/// Runs `jobs` on `cfg.threads` workers; `out[i]` is `jobs[i]`'s result.
/// The workers claim jobs in LPT order (descending cost, slot tiebreak)
/// from one shared cursor, so the heavy cells start first and the light
/// ones fill the tail. Every cell is a pure function of (scheme, workload,
/// ratio, cfg) and lands in its own [`OnceLock`] slot, so claim order and
/// thread interleaving affect wall-clock only.
fn run_jobs(
    jobs: &[Job],
    specs: &[WorkloadSpec],
    ratio: NmRatio,
    cfg: &EvalConfig,
) -> Vec<(RunResult, f64)> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| lpt_order(&jobs[a], &jobs[b], specs));
    let results: Vec<OnceLock<(RunResult, f64)>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let workers = cfg.threads.max(1).min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(&ji) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let Job { w, kind, .. } = jobs[ji];
                    // Per-cell wall clock is run-record telemetry; it never
                    // influences results or scheduling.
                    let started = std::time::Instant::now();
                    let r = run_one(kind, &specs[w], ratio, cfg);
                    let secs = started.elapsed().as_secs_f64();
                    results[ji]
                        .set((r, secs))
                        .unwrap_or_else(|_| panic!("job {ji} written twice"));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|cell| cell.into_inner().expect("every job ran"))
        .collect()
}

impl Matrix {
    /// Runs the grid on `cfg.threads` workers. Deterministic output: every
    /// cell is a pure function of (scheme, workload, ratio, cfg) and lands
    /// in its own [`OnceLock`] slot, so claim order and thread interleaving
    /// affect wall-clock only — the assembled `Matrix` is byte-identical to
    /// [`Matrix::run_sequential`].
    pub fn run(
        kinds: &[SchemeKind],
        specs: &[WorkloadSpec],
        ratio: NmRatio,
        cfg: &EvalConfig,
    ) -> Matrix {
        Matrix::run_timed(kinds, specs, ratio, cfg).0
    }

    /// [`Matrix::run`] plus per-cell wall-clock seconds in slot order
    /// (baseline rows first, then each scheme row) — the telemetry the
    /// `sim::runlog` run records carry. The matrix itself is identical to
    /// [`Matrix::run`]'s; only the timings vary run to run.
    pub fn run_timed(
        kinds: &[SchemeKind],
        specs: &[WorkloadSpec],
        ratio: NmRatio,
        cfg: &EvalConfig,
    ) -> (Matrix, Vec<f64>) {
        let jobs = slot_jobs(kinds, specs);
        let timed = run_jobs(&jobs, specs, ratio, cfg);
        let (flat, secs): (Vec<RunResult>, Vec<f64>) = timed.into_iter().unzip();
        (Matrix::assemble(kinds, specs, ratio, flat), secs)
    }

    /// Single-threaded reference scheduler: runs the same job list in slot
    /// order on the calling thread. Exists so differential tests can pin
    /// the parallel scheduler's output against an implementation with
    /// no scheduling freedom at all.
    pub fn run_sequential(
        kinds: &[SchemeKind],
        specs: &[WorkloadSpec],
        ratio: NmRatio,
        cfg: &EvalConfig,
    ) -> Matrix {
        let flat: Vec<RunResult> = slot_jobs(kinds, specs)
            .iter()
            .map(|j| run_one(j.kind, &specs[j.w], ratio, cfg))
            .collect();
        Matrix::assemble(kinds, specs, ratio, flat)
    }

    /// Splits the flat slot-ordered result vector into baseline + scheme
    /// rows.
    fn assemble(
        kinds: &[SchemeKind],
        specs: &[WorkloadSpec],
        ratio: NmRatio,
        mut flat: Vec<RunResult>,
    ) -> Matrix {
        let baseline: Vec<RunResult> = flat.drain(..specs.len()).collect();
        let mut schemes = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            let runs: Vec<RunResult> = flat.drain(..specs.len()).collect();
            schemes.push(SchemeRow {
                kind,
                label: scheme_label(kind),
                runs,
            });
        }
        Matrix {
            ratio,
            workloads: specs.to_vec(),
            baseline,
            schemes,
        }
    }

    /// Speedup of scheme `s` on workload `w` over the baseline.
    pub fn speedup(&self, s: usize, w: usize) -> f64 {
        self.baseline[w].cycles as f64 / self.schemes[s].runs[w].cycles.max(1) as f64
    }

    /// FM traffic normalized to the baseline's total traffic (Figure 16).
    pub fn fm_traffic_norm(&self, s: usize, w: usize) -> f64 {
        self.schemes[s].runs[w].fm_traffic as f64 / self.baseline[w].fm_traffic.max(1) as f64
    }

    /// NM traffic normalized to the baseline's total (FM) traffic
    /// (Figure 17).
    pub fn nm_traffic_norm(&self, s: usize, w: usize) -> f64 {
        self.schemes[s].runs[w].nm_traffic as f64 / self.baseline[w].fm_traffic.max(1) as f64
    }

    /// Dynamic memory energy normalized to the baseline (Figure 18).
    pub fn energy_norm(&self, s: usize, w: usize) -> f64 {
        self.schemes[s].runs[w].energy_mj / self.baseline[w].energy_mj.max(1e-12)
    }

    /// Fraction of requests served from NM (Figure 15).
    pub fn nm_served(&self, s: usize, w: usize) -> f64 {
        self.schemes[s].runs[w].nm_served
    }

    /// Geomean of `metric(s, w)` over the workloads of `class`
    /// (`None` = all 30).
    pub fn class_geomean<F>(&self, s: usize, class: Option<MpkiClass>, metric: F) -> f64
    where
        F: Fn(&Matrix, usize, usize) -> f64,
    {
        let vals = self
            .workloads
            .iter()
            .enumerate()
            .filter(|(_, spec)| class.is_none_or(|c| spec.class == c))
            .map(|(w, _)| metric(self, s, w).max(1e-9));
        geomean(vals).unwrap_or(0.0)
    }

    /// The Figure-12-shaped summary (High/Medium/Low/All geomeans) of a
    /// metric for every scheme.
    pub fn class_summaries<F>(&self, metric: F) -> Vec<ClassSummary>
    where
        F: Fn(&Matrix, usize, usize) -> f64 + Copy,
    {
        (0..self.schemes.len())
            .map(|s| ClassSummary {
                label: self.schemes[s].label.clone(),
                high: self.class_geomean(s, Some(MpkiClass::High), metric),
                medium: self.class_geomean(s, Some(MpkiClass::Medium), metric),
                low: self.class_geomean(s, Some(MpkiClass::Low), metric),
                all: self.class_geomean(s, None, metric),
            })
            .collect()
    }

    /// Index of the scheme labelled `label`, if present.
    pub fn scheme_index(&self, label: &str) -> Option<usize> {
        self.schemes.iter().position(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::catalog;

    #[test]
    fn matrix_smoke_two_schemes_two_workloads() {
        let cfg = EvalConfig {
            scale_den: 256,
            instrs_per_core: 15_000,
            seed: 3,
            threads: 4,
            ..EvalConfig::smoke()
        };
        let specs = [
            catalog::by_name("lbm").unwrap().clone(),
            catalog::by_name("xalanc").unwrap().clone(),
        ];
        let m = Matrix::run(
            &[SchemeKind::Hybrid2, SchemeKind::Tagless],
            &specs,
            NmRatio::OneGb,
            &cfg,
        );
        assert_eq!(m.baseline.len(), 2);
        assert_eq!(m.schemes.len(), 2);
        for s in 0..2 {
            for w in 0..2 {
                let sp = m.speedup(s, w);
                assert!(sp > 0.1 && sp < 20.0, "speedup {sp}");
            }
        }
        // Streaming lbm should speed up clearly on the high-bandwidth NM.
        let h2 = m.scheme_index("HYBRID2").unwrap();
        assert!(m.speedup(h2, 0) > 1.0);
        // Metrics are well-defined.
        assert!(m.nm_served(h2, 0) > 0.0);
        assert!(m.energy_norm(h2, 0) > 0.0);
    }

    #[test]
    fn zero_op_baseline_cells_never_produce_nan() {
        // A corrupt or degenerate baseline (zero cycles/traffic/energy)
        // must yield finite normalized metrics — NaN/inf in a speedup or
        // norm would poison golden digests and floor comparisons.
        let zero = RunResult {
            scheme: "BASELINE",
            workload: "lbm".into(),
            cycles: 0,
            instructions: 0,
            mem_ops: 0,
            mpki: 0.0,
            nm_served: 0.0,
            fm_traffic: 0,
            nm_traffic: 0,
            energy_mj: 0.0,
            footprint: 0,
            nm_queue_mean: 0.0,
            nm_queue_max: 0,
            fm_queue_mean: 0.0,
            fm_queue_max: 0,
            stats: Default::default(),
        };
        let specs = [catalog::by_name("lbm").unwrap().clone()];
        let m = Matrix::assemble(
            &[SchemeKind::Hybrid2],
            &specs,
            NmRatio::OneGb,
            vec![zero.clone(), zero],
        );
        for v in [
            m.speedup(0, 0),
            m.fm_traffic_norm(0, 0),
            m.nm_traffic_norm(0, 0),
            m.energy_norm(0, 0),
            m.class_geomean(0, None, Matrix::speedup),
        ] {
            assert!(v.is_finite(), "normalized metric must stay finite: {v}");
        }
    }

    #[test]
    fn run_timed_returns_one_sample_per_slot() {
        let cfg = EvalConfig {
            scale_den: 1024,
            instrs_per_core: 5_000,
            seed: 5,
            threads: 2,
            ..EvalConfig::smoke()
        };
        let specs = [catalog::by_name("lbm").unwrap().clone()];
        let (m, secs) = Matrix::run_timed(&[SchemeKind::Tagless], &specs, NmRatio::OneGb, &cfg);
        assert_eq!(secs.len(), (m.schemes.len() + 1) * m.workloads.len());
        assert!(secs.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn empty_and_oversubscribed_grids_fill_every_slot() {
        let cfg = EvalConfig {
            scale_den: 1024,
            instrs_per_core: 5_000,
            seed: 5,
            threads: 8,
            ..EvalConfig::smoke()
        };
        let (m, secs) = Matrix::run_timed(&[], &[], NmRatio::OneGb, &cfg);
        assert!(m.baseline.is_empty() && m.schemes.is_empty() && secs.is_empty());
        // One cell, eight workers: every slot still gets its result.
        let specs = [catalog::by_name("lbm").unwrap().clone()];
        let (m, secs) = Matrix::run_timed(&[], &specs, NmRatio::OneGb, &cfg);
        let want = Matrix::run_sequential(&[], &specs, NmRatio::OneGb, &cfg);
        assert_eq!(secs.len(), 1);
        assert_eq!(m.baseline.len(), 1);
        assert_eq!(m.baseline[0].cycles, want.baseline[0].cycles);
        assert!(m.baseline[0].mem_ops > 0);
    }

    #[test]
    fn matrix_is_deterministic_despite_threads() {
        let cfg = EvalConfig {
            scale_den: 256,
            instrs_per_core: 8_000,
            seed: 5,
            threads: 3,
            ..EvalConfig::smoke()
        };
        let specs = [catalog::by_name("mcf").unwrap().clone()];
        let a = Matrix::run(&[SchemeKind::Lgm], &specs, NmRatio::OneGb, &cfg);
        let b = Matrix::run(&[SchemeKind::Lgm], &specs, NmRatio::OneGb, &cfg);
        assert_eq!(a.schemes[0].runs[0].cycles, b.schemes[0].runs[0].cycles);
        assert_eq!(a.baseline[0].cycles, b.baseline[0].cycles);
    }
}
