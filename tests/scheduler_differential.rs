//! Differential check on the experiment-matrix scheduler: the parallel
//! scheduler of `Matrix::run` must produce *exactly* the results of the
//! single-threaded reference `Matrix::run_sequential`, field for field,
//! float bits included.
//!
//! Claim order is nondeterministic at the thread level; this test is the
//! tier-1 tripwire that the per-slot `OnceLock` layout really isolates
//! that nondeterminism from every observable output.

use hybrid2::prelude::*;
use hybrid2::RunResult;
use workloads::scenarios;

/// Every field of a `RunResult`, floats as bits, so equality is exact.
fn digest(r: &RunResult) -> impl PartialEq + std::fmt::Debug {
    (
        (
            r.scheme,
            r.workload.clone(),
            r.cycles,
            r.instructions,
            r.mem_ops,
            r.mpki.to_bits(),
        ),
        (
            r.nm_served.to_bits(),
            r.fm_traffic,
            r.nm_traffic,
            r.energy_mj.to_bits(),
            r.footprint,
            r.stats.clone(),
        ),
    )
}

fn assert_matrices_identical(a: &Matrix, b: &Matrix) {
    assert_eq!(a.baseline.len(), b.baseline.len());
    for (x, y) in a.baseline.iter().zip(&b.baseline) {
        assert_eq!(digest(x), digest(y), "baseline row diverged");
    }
    assert_eq!(a.schemes.len(), b.schemes.len());
    for (ra, rb) in a.schemes.iter().zip(&b.schemes) {
        assert_eq!(ra.label, rb.label);
        for (x, y) in ra.runs.iter().zip(&rb.runs) {
            assert_eq!(
                digest(x),
                digest(y),
                "{} on {} diverged between schedulers",
                ra.label,
                x.workload
            );
        }
    }
}

#[test]
fn parallel_scheduler_matches_sequential_reference() {
    let cfg = EvalConfig {
        scale_den: 1024,
        instrs_per_core: 20_000,
        seed: 31,
        threads: 4,
        ..EvalConfig::smoke()
    };
    let specs = [
        catalog::by_name("lbm").unwrap().clone(),
        catalog::by_name("omnetpp").unwrap().clone(),
        scenarios::workload_of("stream-chase").unwrap().clone(),
    ];
    let kinds = [SchemeKind::Hybrid2, SchemeKind::Tagless];
    let parallel = Matrix::run(&kinds, &specs, NmRatio::OneGb, &cfg);
    let sequential = Matrix::run_sequential(&kinds, &specs, NmRatio::OneGb, &cfg);
    assert_matrices_identical(&parallel, &sequential);
}

#[test]
fn parallel_scheduler_deterministic_across_thread_counts() {
    let base = EvalConfig {
        scale_den: 1024,
        instrs_per_core: 15_000,
        seed: 8,
        threads: 1,
        ..EvalConfig::smoke()
    };
    let specs = [
        catalog::by_name("mcf").unwrap().clone(),
        scenarios::workload_of("quad-mix").unwrap().clone(),
    ];
    let kinds = [SchemeKind::Hybrid2];
    let one = Matrix::run(&kinds, &specs, NmRatio::OneGb, &base);
    for threads in [2, 3, 8] {
        let cfg = EvalConfig { threads, ..base };
        let m = Matrix::run(&kinds, &specs, NmRatio::OneGb, &cfg);
        assert_matrices_identical(&one, &m);
    }
}
