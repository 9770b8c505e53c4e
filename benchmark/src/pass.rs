//! One untraced pass over a workload's cells through the simulator's own
//! entry points, and the output checks applied to it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sim::{run_one, scenario, EvalConfig, RunResult};
use workloads::{scenarios, WorkloadSpec};

use crate::checks;
use crate::suite::{Shape, Suite, RATIO};

/// The cells of one pass, in slot order (see [`Suite::cells`]).
pub struct Pass {
    /// One result per cell; `None` if the cell panicked.
    pub results: Vec<Option<RunResult>>,
    /// Wall seconds of each cell (as the grid's workers timed them).
    pub secs: Vec<f64>,
    /// Wall seconds of the whole pass.
    pub wall: f64,
}

impl Pass {
    /// Simulated memory ops over every cell that completed.
    pub fn mem_ops(&self) -> u64 {
        self.results.iter().flatten().map(|r| r.mem_ops).sum()
    }
}

/// Runs every cell of `suite` once: a trace workload through
/// [`sim::run_one`], cell after cell on this thread; the grid through
/// [`scenario::run_grid_timed`]. A panicking cell is recorded as `None`
/// and does not abort the pass; a panic inside the grid fails all its
/// cells, since the grid returns nothing.
pub fn run(suite: &Suite, specs: &[&WorkloadSpec], cfg: &EvalConfig) -> Pass {
    let cells = suite.cells(specs.len());
    let started = Instant::now();
    match suite.shape {
        Shape::Trace(_) => {
            let mut results = Vec::with_capacity(cells.len());
            let mut secs = Vec::with_capacity(cells.len());
            for (kind, w) in cells {
                let t = Instant::now();
                results.push(catch_unwind(|| run_one(kind, specs[w], RATIO, cfg)).ok());
                secs.push(t.elapsed().as_secs_f64());
            }
            Pass {
                results,
                secs,
                wall: started.elapsed().as_secs_f64(),
            }
        }
        Shape::Grid => {
            let scens: Vec<_> = scenarios::builtin().iter().collect();
            let grid = catch_unwind(AssertUnwindSafe(|| {
                scenario::run_grid_timed(&scens, RATIO, cfg)
            }));
            let wall = started.elapsed().as_secs_f64();
            match grid {
                Ok((m, secs)) => {
                    let results = m
                        .baseline
                        .into_iter()
                        .chain(m.schemes.into_iter().flat_map(|row| row.runs))
                        .map(Some)
                        .collect();
                    Pass {
                        results,
                        secs,
                        wall,
                    }
                }
                Err(_) => Pass {
                    results: vec![None; cells.len()],
                    secs: vec![0.0; cells.len()],
                    wall,
                },
            }
        }
    }
}

/// Applies the output checks to a pass of `nspecs` traces at
/// `instrs_per_core`: returns one flag per cell (true = failed) and the
/// reasons.
pub fn check(pass: &Pass, nspecs: usize, instrs_per_core: u64) -> (Vec<bool>, Vec<String>) {
    let mut failed = vec![false; pass.results.len()];
    let mut why = Vec::new();
    let rows = pass.results.len() / nspecs;
    for w in 0..nspecs {
        let slots: Vec<usize> = (0..rows).map(|k| k * nspecs + w).collect();
        for &s in &slots {
            if pass.results[s].is_none() {
                failed[s] = true;
                why.push(format!("cell {s} panicked"));
            }
        }
        let Some(base) = &pass.results[slots[0]] else {
            continue;
        };
        let present: Vec<(usize, &RunResult)> = slots[1..]
            .iter()
            .filter_map(|&s| pass.results[s].as_ref().map(|r| (s, r)))
            .collect();
        let others: Vec<&RunResult> = present.iter().map(|(_, r)| *r).collect();
        let target = crate::suite::CORES as u64 * instrs_per_core;
        for (idx, reason) in checks::check_trace(base, &others, target) {
            let slot = if idx == 0 {
                slots[0]
            } else {
                present[idx - 1].0
            };
            failed[slot] = true;
            why.push(reason);
        }
    }
    (failed, why)
}
