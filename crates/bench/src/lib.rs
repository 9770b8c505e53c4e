//! Shared plumbing for the criterion benchmark harness.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! paper at a reduced scale — it *prints* the paper-style series once, then
//! times a representative kernel so `cargo bench` also tracks simulator
//! performance regressions. The paper's own numbers are in `PAPER.md`; no
//! measured-vs-paper ledger exists yet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sim::report::Report;
use sim::runlog::RunLog;
use sim::EvalConfig;

/// The benchmark-scale evaluation configuration: 1/1024 capacities with a
/// proportional ~1 M-instruction window, small enough that every figure
/// regenerates in seconds.
pub fn bench_cfg() -> EvalConfig {
    EvalConfig {
        scale_den: 1024,
        instrs_per_core: 150_000,
        seed: 2020,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        ..EvalConfig::smoke()
    }
}

/// A minimal configuration for the timed kernel inside each bench.
pub fn kernel_cfg() -> EvalConfig {
    EvalConfig {
        scale_den: 1024,
        instrs_per_core: 30_000,
        seed: 9,
        threads: 1,
        ..EvalConfig::smoke()
    }
}

/// Prints the regenerated series for the humans reading the bench log.
pub fn print_reports(reports: &[Report]) {
    for r in reports {
        println!("{}", r.render());
    }
}

/// Opens a run-record log in the directory named by `RUNLOG_DIR`, if set —
/// the benches' opt-in telemetry hook (CI's e2e job sets it so bench runs
/// land in the same queryable store as `reproduce` runs). A bench must
/// never fail because telemetry could not be written, so errors are
/// reported to stderr and swallowed into `None`.
pub fn runlog_from_env(context: &str) -> Option<RunLog> {
    let dir = std::env::var_os("RUNLOG_DIR")?;
    match RunLog::create(std::path::Path::new(&dir), context) {
        Ok(log) => Some(log),
        Err(e) => {
            eprintln!("bench: cannot open run log: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_sane() {
        assert!(bench_cfg().scale_den >= 256);
        assert!(kernel_cfg().instrs_per_core <= bench_cfg().instrs_per_core);
    }
}
