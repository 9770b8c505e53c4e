//! Differential + determinism checks on the run-record store.
//!
//! The acceptance contract of `--runlog`: a query over a freshly written
//! scenario-grid run directory must see exactly one record per grid cell,
//! and every recorded measurement must round-trip float-**bit**-identical
//! to the in-process `Matrix` the same configuration produces. On top of
//! that, `reproduce query` output may depend only on the store contents —
//! feeding the same record files in any order must render byte-identical
//! reports.

use std::path::PathBuf;

use hybrid2::harness::runlog::{self, RunLog, RunRecord};
use hybrid2::harness::scenario;
use hybrid2::prelude::*;
use hybrid2::RunResult;

fn tiny_cfg() -> EvalConfig {
    EvalConfig {
        scale_den: 1024,
        instrs_per_core: 8_000,
        seed: 17,
        threads: 2,
        ..EvalConfig::smoke()
    }
}

/// A fresh per-test run directory under the cargo-managed tmp dir.
/// Wiped on entry: the tmp dir survives across `cargo test` runs, and
/// stale record files would inflate the store.
fn run_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale run dir clears");
    }
    std::fs::create_dir_all(&dir).expect("run dir creates");
    dir
}

/// Asserts one record matches one matrix cell, floats compared as bits.
fn assert_record_matches(rec: &RunRecord, r: &RunResult, secs: f64, source: &str) {
    let cell = format!("{} on {}", r.scheme, r.workload);
    assert_eq!(rec.source, source, "{cell}: source");
    assert_eq!(rec.workload, r.workload, "{cell}: workload");
    assert_eq!(rec.scheme, r.scheme, "{cell}: scheme");
    assert_eq!(rec.cycles, r.cycles, "{cell}: cycles");
    assert_eq!(rec.instructions, r.instructions, "{cell}: instructions");
    assert_eq!(rec.mem_ops, r.mem_ops, "{cell}: mem_ops");
    assert_eq!(rec.mpki.to_bits(), r.mpki.to_bits(), "{cell}: mpki bits");
    assert_eq!(
        rec.nm_served.to_bits(),
        r.nm_served.to_bits(),
        "{cell}: nm_served bits"
    );
    assert_eq!(rec.fm_traffic, r.fm_traffic, "{cell}: fm_traffic");
    assert_eq!(rec.nm_traffic, r.nm_traffic, "{cell}: nm_traffic");
    assert_eq!(
        rec.energy_mj.to_bits(),
        r.energy_mj.to_bits(),
        "{cell}: energy_mj bits"
    );
    assert_eq!(rec.footprint, r.footprint, "{cell}: footprint");
    assert_eq!(rec.stats, r.stats, "{cell}: scheme stats");
    assert_eq!(
        rec.wall_secs.to_bits(),
        secs.to_bits(),
        "{cell}: wall_secs bits"
    );
    assert_eq!(
        rec.mem_ops_per_sec.to_bits(),
        runlog::ops_per_sec(r.mem_ops, secs).to_bits(),
        "{cell}: mem_ops_per_sec bits"
    );
}

#[test]
fn scenario_grid_records_round_trip_bit_for_bit() {
    let cfg = tiny_cfg();
    let ratio = NmRatio::TwoGb;
    let selector = "stream-chase";
    let source = format!("scenario:{selector}");
    let scens = scenario::select(workloads::scenarios::builtin(), selector).unwrap();

    // The recorded run and an independent in-process reference run: the
    // matrices must agree (determinism), so either serves as the truth
    // the store is compared against.
    let (m, secs) = scenario::run_grid_timed(&scens, ratio, &cfg);
    let reference = scenario::run_grid_timed(&scens, ratio, &cfg).0;

    let dir = run_dir("runlog-differential");
    let mut log = RunLog::create(&dir, "test-differential").expect("log opens");
    runlog::record_matrix(&mut log, &source, &m, &secs, &cfg).expect("records append");

    let inputs = runlog::dir_inputs(&dir).expect("run dir lists");
    let store = runlog::read_store(&inputs).expect("store reads");

    // Exactly one record per grid cell: baseline row + one row per scheme.
    let n = m.workloads.len();
    let cells = (m.schemes.len() + 1) * n;
    assert_eq!(store.records.len(), cells, "one record per grid cell");
    assert_eq!(store.files, 1);

    // Slot order: baseline first, then each scheme row. Compare against
    // the *independent* matrix so the test also proves the recorded run
    // didn't drift from a second, unrecorded run.
    for (w, r) in reference.baseline.iter().enumerate() {
        assert_record_matches(&store.records[w], r, secs[w], &source);
        assert_eq!(store.records[w].kind, SchemeKind::Baseline);
    }
    for (s, row) in reference.schemes.iter().enumerate() {
        for (w, r) in row.runs.iter().enumerate() {
            let id = (s + 1) * n + w;
            assert_record_matches(&store.records[id], r, secs[id], &source);
            assert_eq!(store.records[id].kind, row.kind);
        }
    }

    // Provenance columns carry the exact configuration.
    for rec in &store.records {
        assert_eq!(rec.ratio, ratio);
        assert_eq!(rec.scale_den, cfg.scale_den);
        assert_eq!(rec.instrs_per_core, cfg.instrs_per_core);
        assert_eq!(rec.seed, cfg.seed);
        assert_eq!(rec.config_digest, runlog::config_digest(ratio, &cfg));
        assert!(rec.mem_ops_per_sec.is_finite());
    }
}

#[test]
fn query_reports_are_identical_for_any_file_order() {
    let cfg = tiny_cfg();
    let ratio = NmRatio::OneGb;
    let scens = scenario::select(workloads::scenarios::builtin(), "quiet-burst").unwrap();
    let (m, secs) = scenario::run_grid_timed(&scens, ratio, &cfg);

    // Two writers into one run directory, as two CLI runs leave it.
    let dir = run_dir("runlog-query-order");
    let mut a = RunLog::create(&dir, "writer-a").expect("log a opens");
    runlog::record_matrix(&mut a, "scenario:quiet-burst", &m, &secs, &cfg).expect("a appends");
    let mut b = RunLog::create(&dir, "writer-b").expect("log b opens");
    runlog::record_matrix(&mut b, "scenario:quiet-burst", &m, &secs, &cfg).expect("b appends");

    let inputs = runlog::dir_inputs(&dir).expect("run dir lists");
    assert_eq!(inputs.len(), 2, "two record files in the run dir");
    let mut reversed = inputs.clone();
    reversed.reverse();

    let render = |inputs: &[(String, String)]| {
        let store = runlog::read_store(inputs).expect("store reads");
        runlog::run_query(&store, &runlog::Query::default())
            .iter()
            .map(|r| r.render())
            .collect::<Vec<String>>()
            .join("\n")
    };
    let forward = render(&inputs);
    let backward = render(&reversed);
    assert_eq!(forward, backward, "query output depends on file order");
    assert!(forward.contains(&format!(
        "records: {count} of {count} from 2 file(s)",
        count = 2 * (m.schemes.len() + 1) * m.workloads.len()
    )));
}

/// Regression: a store mixing rate-carrying records with zero-rate rows
/// (`mem_ops_per_sec = 0.0`, a cell with no usable wall reading) must
/// *count* the zero rows in `records` while *excluding* them from the
/// geomean/min/max, and say so via the `samples` column. Before the column existed, a geomean over 3 samples
/// silently passed itself off as a geomean over 10 records.
#[test]
fn zero_rate_records_are_counted_but_not_aggregated() {
    let cfg = tiny_cfg();
    let ratio = NmRatio::OneGb;
    let scens = scenario::select(workloads::scenarios::builtin(), "quiet-burst").unwrap();
    let (m, secs) = scenario::run_grid_timed(&scens, ratio, &cfg);

    let dir = run_dir("runlog-zero-rate");
    let mut log = RunLog::create(&dir, "mixed-writer").expect("log opens");
    runlog::record_matrix(&mut log, "scenario:quiet-burst", &m, &secs, &cfg).expect("appends");

    // Query over the clean store first: its aggregates are the truth the
    // mixed store must reproduce.
    let inputs = runlog::dir_inputs(&dir).expect("run dir lists");
    let clean = runlog::read_store(&inputs).expect("store reads");
    let clean_thr = runlog::run_query(&clean, &runlog::Query::default())
        .into_iter()
        .next()
        .expect("throughput report");

    // Append a zero-rate twin of every record.
    for rec in &clean.records {
        let mut zero = rec.clone();
        zero.wall_secs = 0.0;
        zero.mem_ops_per_sec = 0.0;
        log.append(&zero).expect("zero-rate twin appends");
    }

    let inputs = runlog::dir_inputs(&dir).expect("run dir lists");
    let mixed = runlog::read_store(&inputs).expect("store reads");
    assert_eq!(mixed.records.len(), 2 * clean.records.len());
    let mixed_thr = runlog::run_query(&mixed, &runlog::Query::default())
        .into_iter()
        .next()
        .expect("throughput report");

    assert_eq!(
        mixed_thr.header,
        [
            "scheme",
            "records",
            "samples",
            "geomean ops/s",
            "min ops/s",
            "max ops/s"
        ],
        "samples column sits between records and the aggregates"
    );
    assert_eq!(mixed_thr.rows.len(), clean_thr.rows.len(), "same schemes");
    for (mixed_row, clean_row) in mixed_thr.rows.iter().zip(&clean_thr.rows) {
        let scheme = &mixed_row[0];
        assert_eq!(scheme, &clean_row[0]);
        let counted: usize = mixed_row[1].parse().expect("records column is a count");
        let sampled: usize = mixed_row[2].parse().expect("samples column is a count");
        assert_eq!(
            counted,
            2 * sampled,
            "{scheme}: zero rows counted, not sampled"
        );
        assert_eq!(
            mixed_row[3..],
            clean_row[3..],
            "{scheme}: zero-rate rows must not move geomean/min/max"
        );
    }

    // The CI-grepped note keeps its exact shape.
    assert!(mixed_thr.render().contains(&format!(
        "records: {count} of {count} from 1 file(s)",
        count = mixed.records.len()
    )));
}
