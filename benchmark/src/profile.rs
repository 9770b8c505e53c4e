//! The traced run: per-layer metrics.
//!
//! An untraced pass through the simulator's own entry points gives each
//! cell's `RunResult` and wall time. Then every cell runs again through
//! the replica (see [`crate::replica`]), whose `RunResult` must equal the
//! untraced one field for field and whose replayed layers must reproduce
//! the replica's end state. Layer shares are replayed self time over the
//! untraced wall time of the same cells. Each metric is the median over
//! the run's traced passes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sim::{scheme_label, EvalConfig, RunResult};
use workloads::WorkloadSpec;

use crate::checks;
use crate::pass;
use crate::replica::{trace_cell, CellTrace, LAYERS};
use crate::report::{median, metric, ratio, Metric, Outcome};
use crate::suite::{kinds, Suite};

/// The seven scheme labels, in cell order.
fn labels() -> Vec<String> {
    kinds().into_iter().map(scheme_label).collect()
}

/// Runs `suite` at `seed` traced, pass after pass until `seconds` would
/// be exceeded (at least one), and returns each per-layer metric's median
/// over the passes.
pub fn run(suite: &Suite, seed: u64, seconds: f64, instrs_per_core: u64) -> Outcome {
    let started = Instant::now();
    let mut passes: Vec<Outcome> = Vec::new();
    loop {
        passes.push(traced_pass(suite, seed, instrs_per_core));
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / passes.len() as f64 > seconds {
            break;
        }
    }
    eprintln!("traced passes {}", passes.len());
    let metrics = (0..passes[0].metrics.len())
        .map(|i| {
            let values: Vec<f64> = passes.iter().map(|p| p.metrics[i].value).collect();
            Metric {
                value: median(&values),
                ..passes[0].metrics[i].clone()
            }
        })
        .collect();
    Outcome {
        metrics,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        problems: passes.into_iter().flat_map(|p| p.problems).collect(),
    }
}

/// One traced pass over every cell of `suite`.
fn traced_pass(suite: &Suite, seed: u64, instrs_per_core: u64) -> Outcome {
    let cfg = suite.config(seed, instrs_per_core);
    let specs = suite.specs();
    let cells = suite.cells(specs.len());
    let n = specs.len();

    let untraced = pass::run(suite, &specs, &cfg);
    let (mut failed, mut problems) = pass::check(&untraced, n, instrs_per_core);

    let mut traces: Vec<CellTrace> = Vec::with_capacity(cells.len());
    for (slot, &(kind, w)) in cells.iter().enumerate() {
        let t =
            catch_unwind(AssertUnwindSafe(|| trace_cell(kind, specs[w], &cfg))).unwrap_or_default();
        let who = format!("cell {slot} ({}/{})", scheme_label(kind), specs[w].name);
        match (&t.result, &untraced.results[slot]) {
            (Some(replica), Some(real)) => {
                let d = checks::diff(replica, real);
                if !d.is_empty() {
                    failed[slot] = true;
                    problems.push(format!("{who}: the replica diverged from run_one on {d:?}"));
                }
            }
            (None, _) => {
                failed[slot] = true;
                problems.push(format!("{who}: the traced replica panicked"));
            }
            (Some(_), None) => {}
        }
        if !t.mismatches.is_empty() {
            failed[slot] = true;
            problems.push(format!("{who}: {}", t.mismatches.join("; ")));
        }
        traces.push(t);
    }

    let metrics = layer_metrics(&specs, &cfg, &untraced, &traces);
    Outcome {
        metrics,
        attempted: cells.len() as u64,
        failed: failed.iter().filter(|&&f| f).count() as u64,
        problems,
    }
}

/// Sums `f` over the traced cells whose slot satisfies `keep`.
fn sum(traces: &[CellTrace], keep: impl Fn(usize) -> bool, f: impl Fn(&CellTrace) -> u64) -> f64 {
    traces
        .iter()
        .enumerate()
        .filter(|(slot, _)| keep(*slot))
        .map(|(_, t)| f(t) as f64)
        .sum()
}

fn layer_metrics(
    specs: &[&WorkloadSpec],
    cfg: &EvalConfig,
    untraced: &pass::Pass,
    traces: &[CellTrace],
) -> Vec<Metric> {
    let n = specs.len();
    let all = |_: usize| true;
    let wall_ns = |keep: &dyn Fn(usize) -> bool| -> f64 {
        untraced
            .secs
            .iter()
            .enumerate()
            .filter(|(slot, _)| keep(*slot))
            .map(|(_, s)| s * 1e9)
            .sum()
    };
    let total_ns = wall_ns(&all);
    let mem_ops = sum(traces, all, |t| t.result.as_ref().map_or(0, |r| r.mem_ops));
    let mut m = Vec::new();

    let mut layer_share_sum = 0.0;
    for (l, name) in LAYERS.iter().enumerate() {
        let calls = sum(traces, all, |t| t.layers.calls[l]);
        let ns = sum(traces, all, |t| t.layers.self_ns[l]);
        layer_share_sum += ratio(ns, total_ns);
        m.push(metric(format!("{name}.calls"), calls, "count"));
        m.push(metric(format!("{name}.self_ms"), ns / 1e6, "ms"));
        m.push(metric(
            format!("{name}.share"),
            ratio(ns, total_ns),
            "fraction",
        ));
        m.push(metric(
            format!("{name}.ns_per_call"),
            ratio(ns, calls),
            "ns",
        ));
        match *name {
            "page_alloc" => m.push(metric(
                "page_alloc.first_touches",
                sum(traces, all, |t| t.first_touches),
                "count",
            )),
            "mem_cache" => {
                m.push(metric(
                    "mem_cache.full_walks",
                    sum(traces, all, |t| t.full_walks),
                    "count",
                ));
                m.push(metric(
                    "mem_cache.l1_fast_probes",
                    sum(traces, all, |t| t.l1_fast_probes),
                    "count",
                ));
                m.push(metric(
                    "mem_cache.l1_hit_rate",
                    ratio(
                        sum(traces, all, |t| t.l1_hits),
                        sum(traces, all, |t| t.l1_accesses),
                    ),
                    "fraction",
                ));
                m.push(metric(
                    "mem_cache.llc_miss_per_op",
                    ratio(sum(traces, all, |t| t.llc_misses), mem_ops),
                    "1/op",
                ));
            }
            "cpu" => m.push(metric(
                "cpu.stall_frac",
                ratio(
                    sum(traces, all, |t| t.stall_cycles),
                    sum(traces, all, |t| t.core_cycles),
                ),
                "fraction",
            )),
            "scheme" => {
                m.push(metric(
                    "scheme.tick_calls",
                    sum(traces, all, |t| t.layers.tick_calls),
                    "count",
                ));
                m.push(metric(
                    "scheme.tick_ms",
                    sum(traces, all, |t| t.layers.tick_ns) / 1e6,
                    "ms",
                ));
                for (k, label) in labels().iter().enumerate() {
                    let mine = |slot: usize| slot / n == k;
                    let ns = sum(traces, mine, |t| t.layers.self_ns[l]);
                    let calls = sum(traces, mine, |t| t.layers.calls[l]);
                    m.push(metric(
                        format!("scheme.share.{label}"),
                        ratio(ns, wall_ns(&mine)),
                        "fraction",
                    ));
                    m.push(metric(
                        format!("scheme.ns_per_call.{label}"),
                        ratio(ns, calls),
                        "ns",
                    ));
                }
            }
            _ => {}
        }
    }

    let side = |k: usize| {
        (
            sum(traces, all, |t| t.dram_accesses[k]),
            sum(traces, all, |t| t.dram_row_hits[k]),
        )
    };
    let (nm, nm_hits) = side(0);
    let (fm, fm_hits) = side(1);
    m.push(metric("dram.nm_accesses", nm, "count"));
    m.push(metric("dram.fm_accesses", fm, "count"));
    m.push(metric(
        "dram.nm_row_hit_rate",
        ratio(nm_hits, nm),
        "fraction",
    ));
    m.push(metric(
        "dram.fm_row_hit_rate",
        ratio(fm_hits, fm),
        "fraction",
    ));
    m.push(metric(
        "dram.metadata_bytes",
        sum(traces, all, |t| t.metadata_bytes),
        "B",
    ));

    m.push(metric(
        "machine.epochs",
        sum(traces, all, |t| t.epochs),
        "count",
    ));
    m.push(metric(
        "machine.runahead_frac",
        ratio(sum(traces, all, |t| t.runahead_ops), mem_ops),
        "fraction",
    ));
    m.push(metric(
        "machine.remainder_share",
        1.0 - layer_share_sum,
        "fraction",
    ));
    m.push(metric(
        "machine.req_out_of_order_frac",
        ratio(
            sum(traces, all, |t| t.out_of_order),
            sum(traces, all, |t| t.scheme_reqs),
        ),
        "fraction",
    ));

    m.push(metric("matrix.cells", traces.len() as f64, "count"));
    m.push(metric(
        "matrix.parallel_eff",
        ratio(total_ns / 1e9, cfg.threads as f64 * untraced.wall),
        "fraction",
    ));

    let results = &untraced.results;
    for (k, label) in labels().iter().enumerate() {
        let mine = |slot: usize| slot / n == k;
        let ops: f64 = (0..n)
            .filter_map(|w| results[k * n + w].as_ref())
            .map(|r| r.mem_ops as f64)
            .sum();
        m.push(metric(
            format!("cell.mem_ops_per_s.{label}"),
            ratio(ops, wall_ns(&mine) / 1e9),
            "ops/s",
        ));
    }

    // Simulated results: geomean speedup and mean NM-served over the
    // workload's traces, per MAIN scheme.
    let pairs = |k: usize| -> Vec<(&RunResult, &RunResult)> {
        (0..n)
            .filter_map(|w| Some((results[w].as_ref()?, results[k * n + w].as_ref()?)))
            .collect()
    };
    for (k, label) in labels().iter().enumerate().skip(1) {
        let p = pairs(k);
        let logs: f64 = p
            .iter()
            .map(|(b, r)| (b.cycles as f64 / r.cycles as f64).ln())
            .sum();
        m.push(metric(
            format!("model.speedup.{label}"),
            ratio(logs, p.len() as f64).exp(),
            "x",
        ));
        let served: f64 = p.iter().map(|(_, r)| r.nm_served).sum();
        m.push(metric(
            format!("model.nm_served.{label}"),
            ratio(served, p.len() as f64),
            "fraction",
        ));
    }
    let base: Vec<&RunResult> = results[..n].iter().flatten().collect();
    m.push(metric(
        "model.mpki",
        ratio(base.iter().map(|r| r.mpki).sum(), base.len() as f64),
        "misses/kinstr",
    ));
    m.push(metric(
        "model.paper_mpki",
        ratio(specs.iter().map(|s| s.paper.mpki).sum(), n as f64),
        "misses/kinstr",
    ));

    let replica_ns = sum(traces, all, |t| t.replica_ns);
    m.push(metric(
        "traced_run.overhead_frac",
        ratio(replica_ns - total_ns, total_ns),
        "fraction",
    ));
    m
}
