//! `reproduce --exp fig11` at the largest accepted scale must run to
//! completion. At `--scale 2048` the 64 MB / 4 KB-sector design points
//! scale below one XTA set; they are skipped and named in the report
//! instead of panicking a worker (which used to exit 101).

use std::process::Command;

#[test]
fn fig11_at_max_scale_exits_zero_and_names_skipped_points() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--exp", "fig11", "--scale", "2048", "--instrs", "2000"])
        .args(["--smoke", "--threads", "1"])
        .output()
        .expect("spawn reproduce");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(
        stdout.contains("skipped at 1/2048 scale") && stdout.contains("64MB/4K/256B"),
        "stdout:\n{stdout}"
    );
}
