//! Differential check on the process-level shard runner: running a grid
//! as `--shard K/N` slices, encoding each slice as a run-record file and
//! merging the files back must reproduce the monolithic matrix
//! *exactly* — every field of every cell, float bits included — and the
//! rendered reports must be byte-identical strings.
//!
//! This is the same tripwire `scheduler_differential.rs` holds over the
//! in-process work-stealing scheduler, extended across the process
//! boundary: the encode → decode → merge round trip may not perturb a
//! single bit.

use hybrid2::harness::shard::{self, GridId, ShardSpec};
use hybrid2::harness::{runlog, scenario};
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
    assert_eq!(a.ratio, b.ratio);
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
                "{} on {} diverged through the shard round trip",
                ra.label,
                x.workload
            );
        }
    }
}

#[test]
fn merge_of_shards_equals_monolithic_run_bit_for_bit() {
    let cfg = EvalConfig {
        scale_den: 1024,
        instrs_per_core: 12_000,
        seed: 17,
        threads: 2,
        ..EvalConfig::smoke()
    };
    let selector = "stream-chase";
    let ratio = NmRatio::TwoGb;

    // Monolithic reference: the ordinary in-process grid run.
    let scens = scenario::select(workloads::scenarios::builtin(), selector).unwrap();
    let mono = scenario::run_grid(&scens, ratio, &cfg);

    // Sharded run: three processes' worth of slices through the public
    // CLI path (run → encode), then merge the files.
    let grid = GridId::Scenario {
        selector: selector.to_owned(),
    };
    let count = 3;
    let files: Vec<(String, String)> = (1..=count)
        .map(|index| {
            let spec = ShardSpec { index, count };
            let records = shard::run_shard(&grid, ratio, &cfg, spec).unwrap();
            (
                format!("shard-{index}.tsv"),
                runlog::encode_slice(&grid, spec, &records),
            )
        })
        .collect();
    let merged = shard::merge(&files).unwrap();

    assert_eq!(merged.grid, grid);
    assert_eq!(merged.ratio, ratio);
    assert_eq!(merged.scale_den, cfg.scale_den);
    assert_eq!(merged.instrs_per_core, cfg.instrs_per_core);
    assert_eq!(merged.seed, cfg.seed);
    assert_matrices_identical(&mono, &merged.matrix);

    // The rendered reports — what `cmp` gates in CI — are byte-identical.
    let mono_text: String = scenario::grid_reports(&mono)
        .iter()
        .map(|r| r.render())
        .collect();
    let merged_text: String = shard::reports(&merged.grid, &merged.matrix)
        .iter()
        .map(|r| r.render())
        .collect();
    assert_eq!(mono_text, merged_text);
    assert!(mono_text.contains(selector));
}

#[test]
fn shard_files_cannot_mix_grids_or_sizing() {
    let cfg = EvalConfig {
        scale_den: 1024,
        instrs_per_core: 2_000,
        seed: 4,
        threads: 2,
        ..EvalConfig::smoke()
    };
    let grid = GridId::Scenario {
        selector: "quad-mix".to_owned(),
    };
    assert!(scenarios::by_name("quad-mix").is_some());
    let slice = |ratio, index| {
        let spec = ShardSpec { index, count: 2 };
        let records = shard::run_shard(&grid, ratio, &cfg, spec).unwrap();
        runlog::encode_slice(&grid, spec, &records)
    };
    // Same shard position, different ratio: the merge must refuse rather
    // than silently combine runs of different systems.
    let err = shard::merge(&[
        ("a.tsv".to_owned(), slice(NmRatio::OneGb, 1)),
        ("b.tsv".to_owned(), slice(NmRatio::FourGb, 2)),
    ])
    .unwrap_err();
    assert!(err.contains("disagrees"), "{err}");
}
