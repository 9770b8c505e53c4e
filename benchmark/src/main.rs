//! The Hybrid2 simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <lbm-stream|scenario-grid> --seed <n> \
//!     --seconds <s> --trace <0|1> [--instrs <per-core>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced replica and reports the per-layer metrics.
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--instrs` overrides the
//! workload's instructions per core (the self-test runs tiny sizes with
//! it). See `README.md` beside this file for the metrics and workloads.

mod checks;
mod e2e;
mod pass;
mod profile;
mod replica;
mod report;
mod suite;

use std::process::ExitCode;

struct Args {
    workload: suite::Suite,
    seed: u64,
    seconds: f64,
    trace: bool,
    instrs: Option<u64>,
}

const USAGE: &str = "usage: hybrid2-benchmark --workload <lbm-stream|scenario-grid> \
                     --seed <n> --seconds <s> --trace <0|1> [--instrs <per-core>]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut instrs) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    suite::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--instrs" => instrs = Some(value.parse::<u64>().map_err(|_| bad())?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2020),
        seconds: seconds.unwrap_or(50.0),
        trace: trace.unwrap_or(false),
        instrs,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let suite = args.workload;
    let instrs = args.instrs.unwrap_or(suite.instrs_per_core);
    println!(
        "# workload {} seed {} nproc {} trace {} instrs_per_core {instrs} scale 1/{} nm {:?} service unbounded",
        suite.name,
        args.seed,
        suite::nproc(),
        u8::from(args.trace),
        suite::SCALE_DEN,
        suite::RATIO,
    );
    let out = if args.trace {
        println!("# model.* metrics come from an unvalidated model; paper_mpki is Table 2 (ZSim), not hardware");
        profile::run(&suite, args.seed, args.seconds, instrs)
    } else {
        e2e::run(&suite, args.seed, args.seconds, instrs)
    };
    for p in &out.problems {
        eprintln!("FAILED: {p}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "fail_rate = {} fraction ({} of {} cells)",
        report::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    println!("{}", out.json_line());
    ExitCode::SUCCESS
}
