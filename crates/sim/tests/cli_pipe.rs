//! `reproduce … | head` must exit cleanly: a reader closing the pipe
//! early is its prerogative, not a failure. Before the fix, the bare
//! `print!` in `emit` panicked on EPIPE ("failed printing to stdout");
//! now a broken pipe on stdout maps to exit 0 while every other stdout
//! failure stays a normal exit-1 error.
//!
//! The tests close the read end of the child's stdout immediately after
//! spawn. Whether the child's write then hits EPIPE or sneaks into the
//! pipe buffer first is a race, but both outcomes must exit 0 — the old
//! code exited 101 with a panic message whenever the race was lost.

use std::process::{Command, Stdio};

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

/// Spawns `reproduce <args>` with a piped stdout, drops the read end
/// right away, and returns (exit-code, stderr).
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let mut child = reproduce()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn reproduce");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for reproduce");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn scenario_list_into_closed_pipe_exits_zero() {
    let (code, stderr) = run_with_closed_stdout(&["scenario", "--list"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

#[test]
fn experiment_list_into_closed_pipe_exits_zero() {
    let (code, stderr) = run_with_closed_stdout(&["--list"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

#[test]
fn query_into_closed_pipe_exits_zero() {
    // Build a small run directory to query, then pipe the query's stdout
    // into a closed pipe.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-tmp")
        .join(format!("cli-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let rundir = dir.join("runs");
    let status = reproduce()
        .args(["scenario", "stream-chase"])
        .args(["--scale", "1024", "--instrs", "2000", "--threads", "1"])
        .arg("--runlog")
        .arg(&rundir)
        .arg("--out")
        .arg(dir.join("out.txt"))
        .stderr(Stdio::null())
        .status()
        .expect("seed a run directory");
    assert!(status.success(), "seeding run failed: {status}");

    let rundir_str = rundir.to_str().expect("utf-8 path");
    let (code, stderr) = run_with_closed_stdout(&["query", rundir_str]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scratch directory under `target/` (works in sandboxes without /tmp).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-tmp")
        .join(format!("cli-pipe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Cheap sizing shared by the report-producing runs below.
const SIZING: [&str; 6] = ["--scale", "1024", "--instrs", "2000", "--threads", "1"];

#[test]
fn experiment_report_into_closed_pipe_exits_zero() {
    let mut args = vec!["--exp", "fig12"];
    args.extend_from_slice(&SIZING);
    let (code, stderr) = run_with_closed_stdout(&args);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

/// Regression: an early-exiting reader must not cost run records. The
/// old `emit` called `process::exit(0)` on EPIPE, so `--runlog` appends
/// scheduled after the report never happened — records silently vanished
/// exactly when output was piped through `head`. Now the broken pipe is
/// latched, later stdout writes are skipped, and every record still
/// lands on disk.
#[test]
fn runlog_records_survive_closed_stdout() {
    let dir = temp_dir("runlog");
    let rundir = dir.join("runs");
    let rundir_str = rundir.to_str().expect("utf-8 path");
    let mut args = vec!["scenario", "stream-chase"];
    args.extend_from_slice(&SIZING);
    args.extend_from_slice(&["--runlog", rundir_str]);
    let (code, stderr) = run_with_closed_stdout(&args);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");

    let mut record_files = 0usize;
    for entry in std::fs::read_dir(&rundir).expect("run dir exists despite closed stdout") {
        let path = entry.expect("dir entry").path();
        if path.to_string_lossy().ends_with(".runlog.tsv") {
            let contents = std::fs::read_to_string(&path).expect("record file reads");
            assert!(
                contents.lines().count() > 1,
                "record file {} holds no records",
                path.display()
            );
            record_files += 1;
        }
    }
    assert!(record_files > 0, "no run-record files were written");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The counterpart guarantee: a *real* stdout failure (not EPIPE) still
/// exits 1 via the normal error path. `--out` into a nonexistent
/// directory exercises the same `emit` plumbing.
#[test]
fn non_pipe_io_errors_still_exit_one() {
    let out = reproduce()
        .args([
            "scenario",
            "--list",
            "--out",
            "/nonexistent-dir-for-sure/x.txt",
        ])
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

/// An unwritable `--out` fails every simulating command up front: exit 1,
/// the write error named, and no "running" banner, so no simulation time
/// is spent (and no `--runlog` record goes unreported) before the error.
#[test]
fn unwritable_out_fails_before_simulating() {
    let out = "/nonexistent-dir-for-sure/x.txt";
    let dir = temp_dir("unwritable-out");
    let rundir = dir.join("runs");
    let rundir = rundir.to_str().expect("utf-8 path");
    let runs: [&[&str]; 3] = [
        &["scenario", "stream-chase"],
        &["--exp", "evalsuite", "--smoke", "--runlog", rundir],
        &["--exp", "fig12"],
    ];
    for args in runs {
        let run = reproduce()
            .args(args)
            .args(SIZING)
            .args(["--out", out])
            .output()
            .expect("run reproduce");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?} stderr:\n{stderr}");
        assert!(
            stderr.contains("cannot write"),
            "{args:?} stderr:\n{stderr}"
        );
        assert!(!stderr.contains("running"), "{args:?} stderr:\n{stderr}");
    }
    assert!(
        !std::path::Path::new(rundir).exists(),
        "no run record may be written before the --out check"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flags of the retired text-spec compiler, scenario generator and
/// process shards, and the retired `merge` subcommand, exit 2 with the
/// usage text, like any unknown argument.
#[test]
fn retired_harness_arguments_exit_two_with_usage() {
    let mut runs: Vec<Vec<String>> = [("spec", "x"), ("generate", "3"), ("shard", "1/2")]
        .iter()
        .map(|(flag, value)| {
            ["scenario", "all", &format!("--{flag}"), value]
                .map(str::to_owned)
                .to_vec()
        })
        .collect();
    runs.push(vec!["merge".to_owned(), "a.tsv".to_owned()]);
    for args in runs {
        let run = reproduce().args(&args).output().expect("run reproduce");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?} stderr:\n{stderr}");
        assert!(
            stderr.contains("usage: reproduce"),
            "{args:?} stderr:\n{stderr}"
        );
    }
}

/// `-h`/`--help` prints the usage on stdout and exits 0.
#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["-h", "--help"] {
        let run = reproduce().arg(flag).output().expect("run reproduce");
        assert_eq!(run.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(stdout.starts_with("usage: reproduce"), "{flag}: {stdout}");
    }
}
