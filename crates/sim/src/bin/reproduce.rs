//! Command-line entry point for reproducing the paper's evaluation.
//!
//! ```text
//! cargo run -p sim --release --bin reproduce -- --exp fig12 [options]
//! cargo run -p sim --release --bin reproduce -- scenario <name|all> [options]
//! cargo run -p sim --release --bin reproduce -- query <dir|file>... [filters]
//!
//! options:
//!   --exp <id>        experiment id (fig01..fig18, table2, abl-budget,
//!                     abl-stack, evalsuite, all)          [default: evalsuite]
//!   --scale <den>     capacity divisor vs the paper's system, a power of
//!                     two in [1, 2048]                   [default: 64]
//!   --instrs <n>      instructions per core per run       [default: 300000]
//!   --smoke           run the 3-benchmark smoke set instead of all 30
//!   --seed <n>        RNG seed                            [default: 2020]
//!   --threads <n>     worker threads                      [default: #cpus]
//!   --batch <n>       ops-per-pick cap of the epoch-batched machine loop;
//!                     1 = per-op reference scheduling. Results are
//!                     byte-identical for every value (CI `cmp`s batched
//!                     vs `--batch 1` output)          [default: 4096]
//!   --runlog <dir>    append one structured run record per simulated grid
//!                     cell to <dir> (evalsuite / scenario grids only);
//!                     query the accumulated records with `reproduce query`
//!   --out <file>      write output to <file> instead of stdout; a run
//!                     creates or empties <file> before it simulates
//!   --list            list experiment ids and exit
//!   -h, --help        print the usage summary on stdout and exit
//!
//! scenario subcommand (phased / multi-program workloads):
//!   scenario <name|all>   run one named scenario or the whole catalog
//!   --ratio <1gb|2gb|4gb> NM:FM ratio                     [default: 1gb]
//!   --list                list the scenario catalog and exit
//!   (--scale/--instrs/--seed/--threads/--batch/--runlog/--out
//!   apply as above)
//!
//! query subcommand (aggregate accumulated run records):
//!   query <dir|file>...   read run-record files (or whole run directories)
//!   --scheme <tok>        keep one scheme (baseline, hybrid2, mempod, …)
//!   --workload <name>     keep one workload/scenario by name
//!   --ratio <1gb|2gb|4gb> keep one NM:FM ratio
//!   --since-record <n>    keep records with global id >= n
//!   (--out applies as above)
//!
//! ```
//!
//! Exit status: 0 on success (`-h`/`--help` included), 1 on runtime
//! failure (I/O, an unwritable `--out` before any simulation, corrupt run
//! records), 2 on a usage error (unknown flag/subcommand/id, malformed
//! filter value, a `--scale` outside the powers of two in [1, 2048], a
//! zero `--instrs`, `--threads` or `--batch`). Argument handling never
//! panics.

use sim::experiments::{evalsuite_reports, main_matrix_timed, run_by_id, ALL_EXPERIMENTS};
use sim::{runlog, scenario, EvalConfig, NmRatio, ScaledSystem};
use workloads::scenarios;

/// One-screen usage summary printed alongside every usage error.
const USAGE: &str = "\
usage: reproduce [--exp <id>] [--scale N] [--instrs N] [--seed N] [--threads N]
                 [--batch N] [--smoke] [--runlog DIR] [--out FILE] [--list]
       reproduce scenario <name|all> [--ratio 1gb|2gb|4gb] [--scale N]
                 [--instrs N] [--seed N] [--threads N] [--batch N]
                 [--runlog DIR] [--out FILE] [--list]
       reproduce query <dir|file>... [--scheme TOK] [--workload NAME]
                 [--ratio 1gb|2gb|4gb] [--since-record N] [--out FILE]
       reproduce -h | --help

run `reproduce --list` for experiment ids, `reproduce scenario --list`
for the scenario catalog; see the module docs for flag semantics.
N for --scale is a power of two in [1, 2048].";

/// A fully parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    /// `-h` or `--help` anywhere on the line: print [`USAGE`].
    Help,
    /// The default experiment path (`--exp …`).
    Eval {
        exp: String,
        cfg: EvalConfig,
        smoke: bool,
        runlog: Option<String>,
        out: Option<String>,
        list: bool,
    },
    /// `scenario <name|all> …`.
    Scenario {
        selector: Option<String>,
        ratio: NmRatio,
        cfg: EvalConfig,
        runlog: Option<String>,
        out: Option<String>,
        list: bool,
    },
    /// `query <dir|file>… [filters] [--out FILE]`.
    Query {
        inputs: Vec<String>,
        query: runlog::Query,
        out: Option<String>,
    },
}

/// The value of flag `args[i]`, parsed, or a usage error naming the flag.
fn flag_value<T: std::str::FromStr>(args: &[String], i: usize, name: &str) -> Result<T, String> {
    args.get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?
        .parse()
        .map_err(|_| format!("{name} needs an integer value, got {:?}", args[i + 1]))
}

/// [`flag_value`] for a count that must be at least 1.
fn count_value<T>(args: &[String], i: usize, name: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
{
    let v = flag_value(args, i, name)?;
    if v == T::default() {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(v)
}

/// Consumes one of the sizing flags shared by every run subcommand
/// (`--scale/--instrs/--seed/--threads/--batch`) at `args[i]`,
/// returning the next index, or `None` if `args[i]` is some other
/// argument.
fn parse_sizing_flag(
    cfg: &mut EvalConfig,
    args: &[String],
    i: usize,
) -> Result<Option<usize>, String> {
    match args[i].as_str() {
        "--scale" => {
            cfg.scale_den = flag_value(args, i, "--scale")?;
            ScaledSystem::check_scale_den(cfg.scale_den).map_err(|e| format!("--scale: {e}"))?;
        }
        "--instrs" => cfg.instrs_per_core = count_value(args, i, "--instrs")?,
        "--seed" => cfg.seed = flag_value(args, i, "--seed")?,
        "--threads" => cfg.threads = count_value(args, i, "--threads")?,
        "--batch" => cfg.batch = count_value(args, i, "--batch")?,
        _ => return Ok(None),
    }
    Ok(Some(i + 2))
}

/// Consumes a `--runlog DIR` or `--out FILE` flag at `args[i]`, shared by
/// the two run subcommands.
fn parse_output_flag(
    runlog_dir: &mut Option<String>,
    out: &mut Option<String>,
    args: &[String],
    i: usize,
) -> Result<Option<usize>, String> {
    match args[i].as_str() {
        "--runlog" => {
            let v = args.get(i + 1).ok_or("--runlog needs a directory path")?;
            *runlog_dir = Some(v.clone());
        }
        "--out" => {
            let v = args.get(i + 1).ok_or("--out needs a file path")?;
            *out = Some(v.clone());
        }
        _ => return Ok(None),
    }
    Ok(Some(i + 2))
}

/// Parses `reproduce scenario …`; `args` excludes the leading token.
fn parse_scenario(args: &[String]) -> Result<Command, String> {
    let mut cfg = EvalConfig::default_eval();
    let mut ratio = NmRatio::OneGb;
    let mut selector: Option<String> = None;
    let mut rl = None;
    let mut out = None;
    let mut list = false;

    let mut i = 0;
    while i < args.len() {
        if let Some(next) = parse_sizing_flag(&mut cfg, args, i)? {
            i = next;
            continue;
        }
        if let Some(next) = parse_output_flag(&mut rl, &mut out, args, i)? {
            i = next;
            continue;
        }
        match args[i].as_str() {
            "--ratio" => {
                let v = args.get(i + 1).ok_or("--ratio needs a value")?;
                ratio = runlog::parse_ratio_token(v)?;
                i += 2;
            }
            "--list" => {
                list = true;
                i += 1;
            }
            name if !name.starts_with('-') && selector.is_none() => {
                selector = Some(name.to_owned());
                i += 1;
            }
            other => return Err(format!("unknown scenario argument {other:?}")),
        }
    }
    if selector.is_none() && !list {
        return Err("scenario needs a selector (<name|all>) or --list".to_owned());
    }
    // Unknown names are usage errors (exit 2), same as unknown experiment
    // ids — the run path never sees a bad selector.
    let cat = scenarios::builtin();
    if let Some(sel) = &selector {
        if scenario::select(cat, sel).is_none() {
            let hint = cat
                .nearest(sel)
                .map(|near| format!(" (did you mean {near:?}?)"))
                .unwrap_or_default();
            return Err(format!(
                "unknown scenario {sel:?}{hint}; run `reproduce scenario --list` for the catalog"
            ));
        }
    }
    Ok(Command::Scenario {
        selector,
        ratio,
        cfg,
        runlog: rl,
        out,
        list,
    })
}

/// Parses `reproduce query …`; `args` excludes the leading token.
fn parse_query(args: &[String]) -> Result<Command, String> {
    let mut inputs = Vec::new();
    let mut query = runlog::Query::default();
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scheme" => {
                let v = args.get(i + 1).ok_or("--scheme needs a scheme token")?;
                query.scheme = Some(runlog::parse_kind_token(v)?);
                i += 2;
            }
            "--workload" => {
                let v = args.get(i + 1).ok_or("--workload needs a name")?;
                query.workload = Some(v.clone());
                i += 2;
            }
            "--ratio" => {
                let v = args.get(i + 1).ok_or("--ratio needs a value")?;
                query.ratio = Some(runlog::parse_ratio_token(v)?);
                i += 2;
            }
            "--since-record" => {
                query.since_record = Some(flag_value(args, i, "--since-record")?);
                i += 2;
            }
            "--out" => {
                let v = args.get(i + 1).ok_or("--out needs a file path")?;
                out = Some(v.clone());
                i += 2;
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown query argument {flag:?}"));
            }
            input => {
                inputs.push(input.to_owned());
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        return Err("query needs at least one run directory or record file".to_owned());
    }
    Ok(Command::Query { inputs, query, out })
}

/// Parses the default experiment path (no subcommand).
fn parse_eval(args: &[String]) -> Result<Command, String> {
    let mut exp = "evalsuite".to_owned();
    let mut cfg = EvalConfig::default_eval();
    let mut smoke = false;
    let mut rl = None;
    let mut out = None;
    let mut list = false;

    let mut i = 0;
    while i < args.len() {
        if let Some(next) = parse_sizing_flag(&mut cfg, args, i)? {
            i = next;
            continue;
        }
        if let Some(next) = parse_output_flag(&mut rl, &mut out, args, i)? {
            i = next;
            continue;
        }
        match args[i].as_str() {
            "--exp" => {
                exp = args.get(i + 1).ok_or("--exp needs a value")?.clone();
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--list" => {
                list = true;
                i += 1;
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (subcommands: scenario, query)"
                ))
            }
        }
    }
    if !list && !ALL_EXPERIMENTS.contains(&exp.as_str()) {
        return Err(format!(
            "unknown experiment {exp:?}; run `reproduce --list` for ids"
        ));
    }
    if rl.is_some() && exp != "evalsuite" {
        return Err(format!(
            "--runlog only applies to the evalsuite matrix (or the scenario grid), not {exp:?}"
        ));
    }
    Ok(Command::Eval {
        exp,
        cfg,
        smoke,
        runlog: rl,
        out,
        list,
    })
}

/// Parses a complete command line (without the program name).
fn parse_command(args: &[String]) -> Result<Command, String> {
    if args.iter().any(|a| a == "-h" || a == "--help") {
        return Ok(Command::Help);
    }
    match args.first().map(String::as_str) {
        Some("scenario") => parse_scenario(&args[1..]),
        Some("query") => parse_query(&args[1..]),
        _ => parse_eval(args),
    }
}

/// Latched once stdout's reader has gone away (EPIPE). Subsequent stdout
/// writes become silent no-ops instead of repeating the error — and,
/// crucially, instead of exiting on the spot: a subcommand that still has
/// durable side effects queued after its stdout emit (`--runlog` record
/// appends follow the report emit in every run subcommand) must complete
/// them before the process exits 0. The old `process::exit(0)` here
/// skipped those appends whenever `reproduce … --runlog d | head` closed
/// the pipe early, silently losing the run's records.
static STDOUT_PIPE_CLOSED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Writes `text` to `--out` (or stdout), mapping I/O failures to an error
/// string — except a broken pipe on stdout, which is a reader's choice,
/// not a failure (`reproduce query … | head` must never panic like a bare
/// `print!` would): it latches [`STDOUT_PIPE_CLOSED`] and reports success,
/// so the command finishes its remaining work and exits 0 normally.
fn emit(out: &Option<String>, text: &str) -> Result<(), String> {
    use std::io::Write;
    use std::sync::atomic::Ordering;
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}")),
        None => {
            if STDOUT_PIPE_CLOSED.load(Ordering::Relaxed) {
                return Ok(());
            }
            let mut stdout = std::io::stdout().lock();
            let r = stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush());
            match r {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                    STDOUT_PIPE_CLOSED.store(true, Ordering::Relaxed);
                    Ok(())
                }
                Err(e) => Err(format!("cannot write to stdout: {e}")),
            }
        }
    }
}

/// Appends one run record per matrix slot to `--runlog DIR`, if requested.
fn record_matrix_to(
    runlog_dir: &Option<String>,
    source: &str,
    m: &sim::Matrix,
    secs: &[f64],
    cfg: &EvalConfig,
) -> Result<(), String> {
    let Some(dir) = runlog_dir else {
        return Ok(());
    };
    let mut log = runlog::RunLog::create(std::path::Path::new(dir), source)?;
    runlog::record_matrix(&mut log, source, m, secs, cfg)?;
    eprintln!(
        "recorded {} run record(s) to {}",
        secs.len(),
        log.path().display()
    );
    Ok(())
}

/// Runs `reproduce query <inputs…>`: reads run-record files (or whole run
/// directories), filters and renders the aggregate reports.
fn run_query_cmd(
    inputs: &[String],
    query: &runlog::Query,
    out: &Option<String>,
) -> Result<(), String> {
    let mut files: Vec<(String, String)> = Vec::new();
    for input in inputs {
        let meta = std::fs::metadata(input).map_err(|e| format!("cannot read {input:?}: {e}"))?;
        if meta.is_dir() {
            files.extend(runlog::dir_inputs(std::path::Path::new(input))?);
        } else {
            let contents = std::fs::read_to_string(input)
                .map_err(|e| format!("cannot read {input:?}: {e}"))?;
            files.push((input.clone(), contents));
        }
    }
    let store = runlog::read_store(&files)?;
    let mut text = String::new();
    for report in runlog::run_query(&store, query) {
        text.push_str(&report.render());
        text.push('\n');
    }
    emit(out, &text)
}

/// The `source` of the run records a scenario grid writes.
fn scenario_source(selector: &str) -> String {
    format!("scenario:{selector}")
}

/// The `source` of the run records an evalsuite matrix writes.
fn eval_source(smoke: bool) -> &'static str {
    if smoke {
        "eval:smoke"
    } else {
        "eval:full"
    }
}

/// Runs `reproduce scenario …` after parsing.
fn run_scenario(
    selector: &Option<String>,
    ratio: NmRatio,
    cfg: &EvalConfig,
    runlog_dir: &Option<String>,
    out: &Option<String>,
    list: bool,
) -> Result<(), String> {
    let cat = scenarios::builtin();
    if list {
        return emit(
            out,
            &format!("{}\n", scenario::catalog_report(cat).render()),
        );
    }
    // An unwritable --out fails here, not after the run.
    emit(out, "")?;
    let selector = selector.as_deref().expect("parse guarantees a selector");
    let scens = scenario::select(cat, selector).expect("parse validated the selector");
    eprintln!(
        "running {} scenario(s) at 1/{} scale, {} instrs/core, NM {}, {} threads",
        scens.len(),
        cfg.scale_den,
        cfg.instrs_per_core,
        ratio.label(),
        cfg.threads
    );
    let started = std::time::Instant::now();
    let (m, secs) = scenario::run_grid_timed(&scens, ratio, cfg);
    let mut text = String::new();
    for report in scenario::grid_reports(&m) {
        text.push_str(&report.render());
        text.push('\n');
    }
    emit(out, &text)?;
    record_matrix_to(runlog_dir, &scenario_source(selector), &m, &secs, cfg)?;
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(())
}

/// Runs the default experiment path after parsing.
fn run_eval(
    exp: &str,
    cfg: &EvalConfig,
    smoke: bool,
    runlog_dir: &Option<String>,
    out: &Option<String>,
    list: bool,
) -> Result<(), String> {
    if list {
        let mut text = String::new();
        for id in ALL_EXPERIMENTS {
            text.push_str(id);
            text.push('\n');
        }
        return emit(out, &text);
    }
    // An unwritable --out fails here, not after the run.
    emit(out, "")?;
    eprintln!(
        "running {exp} at 1/{} scale, {} instrs/core, {} workloads, {} threads",
        cfg.scale_den,
        cfg.instrs_per_core,
        if smoke { 3 } else { 30 },
        cfg.threads
    );
    let started = std::time::Instant::now();
    let mut text = String::new();
    // `--runlog` implies the timed evalsuite matrix path (parse rejects it
    // for any other experiment); the reports are identical to run_by_id's
    // — both call evalsuite_reports on the same deterministic matrix.
    if runlog_dir.is_some() {
        let (m, secs) = main_matrix_timed(NmRatio::OneGb, cfg, smoke);
        for report in evalsuite_reports(&m) {
            text.push_str(&report.render());
            text.push('\n');
        }
        emit(out, &text)?;
        record_matrix_to(runlog_dir, eval_source(smoke), &m, &secs, cfg)?;
    } else {
        for report in run_by_id(exp, cfg, smoke) {
            text.push_str(&report.render());
            text.push('\n');
        }
        emit(out, &text)?;
    }
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_command(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match &cmd {
        Command::Help => emit(&None, &format!("{USAGE}\n")),
        Command::Eval {
            exp,
            cfg,
            smoke,
            runlog,
            out,
            list,
        } => run_eval(exp, cfg, *smoke, runlog, out, *list),
        Command::Scenario {
            selector,
            ratio,
            cfg,
            runlog,
            out,
            list,
        } => run_scenario(selector, *ratio, cfg, runlog, out, *list),
        Command::Query { inputs, query, out } => run_query_cmd(inputs, query, out),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_command(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn default_is_evalsuite() {
        match parse(&[]).unwrap() {
            Command::Eval { exp, runlog, .. } => {
                assert_eq!(exp, "evalsuite");
                assert!(runlog.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn help_flags_ask_for_the_usage() {
        for args in [
            &["-h"][..],
            &["--help"][..],
            &["--exp", "fig12", "--help"][..],
            &["scenario", "-h"][..],
            &["query", "rundir", "-h"][..],
        ] {
            assert_eq!(parse(args), Ok(Command::Help), "{args:?}");
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors_not_panics() {
        for args in [
            &["--bogus"][..],
            &["--exp", "fig12", "--frobnicate"][..],
            &["scenario", "all", "--bogus"][..],
            &["query", "rundir", "--bogus"][..],
        ] {
            let e = parse(args).unwrap_err();
            assert!(e.contains("unknown"), "{args:?} -> {e}");
        }
    }

    #[test]
    fn missing_and_malformed_flag_values_are_errors() {
        assert!(parse(&["--scale"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--instrs", "many"])
            .unwrap_err()
            .contains("--instrs"));
        assert!(parse(&["scenario", "all", "--ratio"])
            .unwrap_err()
            .contains("--ratio"));
        assert!(parse(&["scenario", "all", "--ratio", "8gb"])
            .unwrap_err()
            .contains("8gb"));
        assert!(parse(&["--out"]).unwrap_err().contains("--out"));
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(parse(&["--exp", "fig99"]).unwrap_err().contains("fig99"));
    }

    #[test]
    fn runlog_parses_on_grid_paths_and_rejects_elsewhere() {
        match parse(&["--exp", "evalsuite", "--runlog", "rundir"]).unwrap() {
            Command::Eval { runlog, .. } => assert_eq!(runlog.as_deref(), Some("rundir")),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["scenario", "all", "--runlog", "rundir"]).unwrap() {
            Command::Scenario { runlog, .. } => assert_eq!(runlog.as_deref(), Some("rundir")),
            other => panic!("unexpected {other:?}"),
        }
        // Usage errors (exit 2): non-grid experiment, missing value.
        let e = parse(&["--exp", "fig12", "--runlog", "rundir"]).unwrap_err();
        assert!(e.contains("evalsuite"), "{e}");
        assert!(parse(&["--runlog"]).unwrap_err().contains("--runlog"));
    }

    #[test]
    fn query_flags_parse_and_bad_values_are_usage_errors() {
        match parse(&[
            "query",
            "rundir",
            "extra.runlog.tsv",
            "--scheme",
            "hybrid2",
            "--workload",
            "stream-chase",
            "--ratio",
            "2gb",
            "--since-record",
            "56",
            "--out",
            "q.txt",
        ])
        .unwrap()
        {
            Command::Query { inputs, query, out } => {
                assert_eq!(inputs, vec!["rundir", "extra.runlog.tsv"]);
                assert_eq!(query.scheme, Some(sim::SchemeKind::Hybrid2));
                assert_eq!(query.workload.as_deref(), Some("stream-chase"));
                assert_eq!(query.ratio, Some(NmRatio::TwoGb));
                assert_eq!(query.since_record, Some(56));
                assert_eq!(out.as_deref(), Some("q.txt"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Bad values are usage errors (exit 2), never panics.
        assert!(parse(&["query"]).unwrap_err().contains("at least one"));
        let e = parse(&["query", "rundir", "--scheme", "quantum-cache"]).unwrap_err();
        assert!(e.contains("quantum-cache"), "{e}");
        let e = parse(&["query", "rundir", "--ratio", "8gb"]).unwrap_err();
        assert!(e.contains("8gb"), "{e}");
        let e = parse(&["query", "rundir", "--since-record", "many"]).unwrap_err();
        assert!(e.contains("--since-record"), "{e}");
        assert!(parse(&["query", "rundir", "--scheme"])
            .unwrap_err()
            .contains("--scheme"));
    }

    #[test]
    fn emit_surfaces_io_errors_with_the_path() {
        let out = Some("/nonexistent-dir-for-sure/x.txt".to_owned());
        let e = emit(&out, "text").unwrap_err();
        assert!(e.contains("/nonexistent-dir-for-sure/x.txt"), "{e}");
    }

    #[test]
    fn scenario_needs_selector_unless_listing() {
        assert!(parse(&["scenario"]).is_err());
        assert!(parse(&["scenario", "--list"]).is_ok());
        // Unknown names are usage errors (exit 2), like unknown --exp ids.
        let e = parse(&["scenario", "not-a-scenario"]).unwrap_err();
        assert!(e.contains("unknown scenario"), "{e}");
        match parse(&["scenario", "quad-mix", "--ratio", "4gb", "--out", "x.txt"]).unwrap() {
            Command::Scenario {
                selector,
                ratio,
                out,
                ..
            } => {
                assert_eq!(selector.as_deref(), Some("quad-mix"));
                assert_eq!(ratio, NmRatio::FourGb);
                assert_eq!(out.as_deref(), Some("x.txt"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The flags of the retired text-spec compiler, scenario generator,
    /// process shards and memory-service model, and the retired `merge`
    /// subcommand, are usage errors (exit 2 with the usage text), never a
    /// run.
    #[test]
    fn retired_harness_arguments_are_usage_errors() {
        for (flag, value) in [
            ("spec", "x"),
            ("generate", "3"),
            ("shard", "1/2"),
            ("service", "queued:8"),
        ] {
            let flag = format!("--{flag}");
            for args in [
                &["scenario", "all", &flag, value][..],
                &["--exp", "evalsuite", &flag, value][..],
            ] {
                let e = parse(args).unwrap_err();
                assert!(e.contains("unknown"), "{args:?} -> {e}");
            }
        }
        let e = parse(&["merge", "a.tsv", "b.tsv"]).unwrap_err();
        assert!(e.contains("unknown argument \"merge\""), "{e}");
        let e = parse(&["query", "rundir", "--service", "unbounded"]).unwrap_err();
        assert!(e.contains("unknown query argument \"--service\""), "{e}");
    }

    /// The `source` column of every record the CLI writes. Run
    /// directories already on disk hold these strings, so they stay put.
    #[test]
    fn record_sources_are_pinned() {
        assert_eq!(scenario_source("all"), "scenario:all");
        assert_eq!(eval_source(true), "eval:smoke");
        assert_eq!(eval_source(false), "eval:full");
    }

    #[test]
    fn batch_flag_parses_and_validates() {
        match parse(&["--batch", "64"]).unwrap() {
            Command::Eval { cfg, .. } => assert_eq!(cfg.batch, 64),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["scenario", "all", "--batch", "1"]).unwrap() {
            Command::Scenario { cfg, .. } => assert_eq!(cfg.batch, 1),
            other => panic!("unexpected {other:?}"),
        }
        // Default when the flag is absent.
        match parse(&[]).unwrap() {
            Command::Eval { cfg, .. } => assert_eq!(cfg.batch, sim::DEFAULT_BATCH),
            other => panic!("unexpected {other:?}"),
        }
        // Bad values are usage errors (exit 2), never panics.
        assert!(parse(&["--batch"]).unwrap_err().contains("--batch"));
        assert!(parse(&["--batch", "many"]).unwrap_err().contains("--batch"));
        assert!(parse(&["--batch", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["scenario", "all", "--batch", "0"])
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn zero_threads_and_zero_instrs_are_usage_errors() {
        for flag in ["--threads", "--instrs"] {
            assert!(parse(&[flag, "0"]).unwrap_err().contains("at least 1"));
            assert!(parse(&["scenario", "all", flag, "0"])
                .unwrap_err()
                .contains(&format!("{flag} must be at least 1")));
        }
        match parse(&["--threads", "3", "--instrs", "1"]).unwrap() {
            Command::Eval { cfg, .. } => {
                assert_eq!(cfg.threads, 3);
                assert_eq!(cfg.instrs_per_core, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scale_flag_accepts_only_powers_of_two_in_range() {
        for den in ["1", "2048"] {
            match parse(&["--scale", den]).unwrap() {
                Command::Eval { cfg, .. } => assert_eq!(cfg.scale_den.to_string(), den),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Values the simulator cannot size are usage errors (exit 2)
        // naming the valid range, never panics inside a worker.
        for den in ["0", "3", "96", "1536", "4096"] {
            let err = parse(&["--scale", den]).unwrap_err();
            assert!(err.contains("[1, 2048]"), "--scale {den}: {err}");
            let err = parse(&["scenario", "all", "--scale", den]).unwrap_err();
            assert!(err.contains("--scale"), "scenario --scale {den}: {err}");
        }
    }

    #[test]
    fn sizing_flags_apply_everywhere() {
        match parse(&[
            "--scale",
            "512",
            "--instrs",
            "1000",
            "--seed",
            "9",
            "--threads",
            "2",
        ])
        .unwrap()
        {
            Command::Eval { cfg, .. } => {
                assert_eq!(cfg.scale_den, 512);
                assert_eq!(cfg.instrs_per_core, 1000);
                assert_eq!(cfg.seed, 9);
                assert_eq!(cfg.threads, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
