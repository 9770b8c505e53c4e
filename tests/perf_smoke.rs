//! Order-of-magnitude performance floor (CI `perf-smoke` job).
//!
//! Runs one pinned tiny configuration (HYBRID2, `lbm`, scale 1/1024,
//! 200 k instructions per core, seed 2020, 8 cores) and compares
//! simulator throughput (mem-ops/sec, best of 3) against
//! [`FLOOR_MEM_OPS_PER_SEC`]. The floor is deliberately set far below any
//! healthy machine and the comparison adds a further [`NOISE_MARGIN`], so
//! this gate only trips on *order-of-magnitude* regressions — an
//! accidental debug-path, a quadratic structure on the per-op path —
//! never on runner-to-runner hardware variance. Trend-level speed is
//! measured by `benchmark/`; byte-identity is the separate
//! `batched-verify` gate.
//!
//! Provenance: a 1-vCPU dev box with drifting load measured 14.4e6
//! mem-ops/sec on the pinned configuration after epoch batching (best of
//! 3); the floor is about a fifth of that, so slower CI runners clear it
//! with headroom while a 10× regression cannot.
//!
//! Tier-2: `#[ignore]`d so the wall-clock-sensitive measurement never
//! runs in the tier-1 suite. The floor only *gates* when `PERF_SMOKE=1`
//! is set — the dedicated CI perf-smoke job sets it; the full-sim
//! `--ignored` sweep (and local runs) measure and print without gating,
//! so one controlled job owns the blocking wall-clock check. Debug
//! builds never gate (debug throughput is not what the floor describes).
//! The gate decision itself, [`below_floor`], is tier-1 tested.
//!
//! Set `PERF_SMOKE_JSON=<path>` to append the full capture as one JSON
//! line (uploaded as a non-blocking CI artifact).

use hybrid2::harness::runlog;
use hybrid2::prelude::*;

/// Committed throughput floor for the pinned configuration (mem-ops/sec).
/// Changing the configuration or the floor requires remeasuring it and
/// updating the provenance above in the same PR.
const FLOOR_MEM_OPS_PER_SEC: f64 = 2_500_000.0;

/// The measured best is multiplied by this before it is compared with
/// the floor, so the gate trips only on order-of-magnitude regressions.
const NOISE_MARGIN: f64 = 2.0;

/// The pinned measurement configuration.
fn pinned_cfg() -> EvalConfig {
    EvalConfig {
        scale_den: 1024,
        instrs_per_core: 200_000,
        seed: 2020,
        threads: 1,
        ..EvalConfig::smoke()
    }
}

/// The gate decision: `true` iff `best * margin < floor`. Panics on a
/// non-finite throughput — a `+inf` would sail over any floor and a
/// `NaN` would compare false both ways, so neither may gate.
fn below_floor(best_ops_per_sec: f64, floor: f64, margin: f64) -> bool {
    assert!(
        best_ops_per_sec.is_finite(),
        "throughput must be a finite number before it can gate (got {best_ops_per_sec})"
    );
    best_ops_per_sec * margin < floor
}

#[test]
fn gate_trips_only_below_the_floor() {
    // Checked when the test compiles: the committed constants are sane.
    const { assert!(FLOOR_MEM_OPS_PER_SEC > 0.0 && NOISE_MARGIN >= 1.0) };
    let at_boundary = FLOOR_MEM_OPS_PER_SEC / NOISE_MARGIN;
    assert!(!below_floor(
        at_boundary,
        FLOOR_MEM_OPS_PER_SEC,
        NOISE_MARGIN
    ));
    assert!(below_floor(
        at_boundary.next_down(),
        FLOOR_MEM_OPS_PER_SEC,
        NOISE_MARGIN
    ));
    for bad in [f64::NAN, f64::INFINITY] {
        let rejected =
            std::panic::catch_unwind(|| below_floor(bad, FLOOR_MEM_OPS_PER_SEC, NOISE_MARGIN));
        assert!(rejected.is_err(), "{bad} must not reach the comparison");
    }
}

#[test]
#[ignore = "wall-clock perf floor; CI perf-smoke runs it in release"]
fn mem_ops_per_sec_above_committed_floor() {
    let (floor, margin) = (FLOOR_MEM_OPS_PER_SEC, NOISE_MARGIN);
    let cfg = pinned_cfg();
    let spec = catalog::by_name("lbm").unwrap();
    // Best of three: robust to one scheduling hiccup, cheap enough that
    // the job stays in seconds.
    let mut best_ops_per_sec = 0.0f64;
    let mut mem_ops = 0;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        let r = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &cfg);
        let secs = started.elapsed().as_secs_f64();
        mem_ops = r.mem_ops;
        // `ops_per_sec` clamps a zero-rounding elapsed time instead of
        // dividing by it: a raw `mem_ops / 0.0` is +inf, which would sail
        // over any floor and turn this gate into a silent pass.
        best_ops_per_sec = best_ops_per_sec.max(runlog::ops_per_sec(r.mem_ops, secs));
    }
    let below = below_floor(best_ops_per_sec, floor, margin);
    println!(
        "perf-smoke: {best_ops_per_sec:.0} mem-ops/sec over {mem_ops} ops \
         (floor {floor:.0}, margin {margin}x)"
    );

    if let Ok(path) = std::env::var("PERF_SMOKE_JSON") {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("capture file opens");
        writeln!(
            f,
            "{{\"bench\":\"perf_smoke\",\"mem_ops\":{mem_ops},\
             \"best_mem_ops_per_sec\":{best_ops_per_sec:.1},\
             \"floor_mem_ops_per_sec\":{floor:.1},\"noise_margin\":{margin}}}"
        )
        .expect("capture write");
    }

    if cfg!(debug_assertions) || std::env::var("PERF_SMOKE").as_deref() != Ok("1") {
        eprintln!(
            "perf-smoke: measured but not gated (set PERF_SMOKE=1 in a release build to gate)"
        );
        return;
    }
    assert!(
        !below,
        "order-of-magnitude throughput regression: {best_ops_per_sec:.0} \
         mem-ops/sec * margin {margin} is below the committed floor \
         {floor:.0} (see FLOOR_MEM_OPS_PER_SEC; if the slowdown is \
         intentional, remeasure the floor in this PR and justify it)"
    );
}
