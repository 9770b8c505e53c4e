//! The scenario grid: runs the named phased/mix workloads of
//! [`workloads::scenarios`] through the six MAIN schemes and renders the
//! per-scenario speedup, NM-service and traffic tables.
//!
//! Scenarios are ordinary [`workloads::WorkloadSpec`]s wrapping composite
//! patterns, so the grid is just [`Matrix::run`] over a different workload
//! set — the same parallel scheduler, the same determinism contract (two
//! runs, or a `--threads 1` run, are byte-identical).

use workloads::Scenario;

use crate::report::{f3, pct, Report};
use crate::runner::{EvalConfig, SchemeKind};
use crate::scale::NmRatio;
use crate::Matrix;

/// Resolves a CLI selector against `scens`: `"all"` for every scenario,
/// otherwise a single scenario by name. `None` if the name is unknown.
pub fn select<'c>(scens: &'c [Scenario], selector: &str) -> Option<Vec<&'c Scenario>> {
    if selector == "all" {
        Some(scens.iter().collect())
    } else {
        scens.iter().find(|s| s.name() == selector).map(|s| vec![s])
    }
}

/// Runs the MAIN six schemes (plus the baseline) over `scens` at `ratio`,
/// returning the grid plus per-cell wall-clock seconds in slot order — the
/// telemetry `--runlog` run records carry. Only the timings vary run to
/// run.
pub fn run_grid_timed(scens: &[&Scenario], ratio: NmRatio, cfg: &EvalConfig) -> (Matrix, Vec<f64>) {
    let specs: Vec<_> = scens.iter().map(|s| s.workload.clone()).collect();
    Matrix::run_timed(&SchemeKind::MAIN, &specs, ratio, cfg)
}

/// One scenario × scheme table: a row per workload, a column per scheme,
/// each cell rendered by `cell(scheme_idx, workload_idx)`.
fn metric_report(m: &Matrix, title: String, cell: impl Fn(usize, usize) -> String) -> Report {
    let mut header = vec!["scenario"];
    header.extend(m.schemes.iter().map(|s| s.label.as_str()));
    let mut r = Report::new(title, header);
    for (w, spec) in m.workloads.iter().enumerate() {
        let mut row = vec![spec.name.to_owned()];
        for s in 0..m.schemes.len() {
            row.push(cell(s, w));
        }
        r.push_row(row);
    }
    r
}

/// Per-scenario speedup over the no-NM baseline, one column per scheme —
/// the scenario analogue of Figure 13.
pub fn speedup_report(m: &Matrix) -> Report {
    let mut r = metric_report(
        m,
        format!("Scenarios — speedup over baseline, NM {}", m.ratio.label()),
        |s, w| f3(m.speedup(s, w)),
    );
    r.push_note("phased/mix composite workloads; see `reproduce scenario --list`");
    r
}

/// Per-scenario fraction of requests served from NM (Figure 15 analogue).
pub fn nm_served_report(m: &Matrix) -> Report {
    metric_report(
        m,
        format!("Scenarios — requests served from NM, {}", m.ratio.label()),
        |s, w| pct(m.nm_served(s, w)),
    )
}

/// Per-scenario FM traffic normalized to the baseline (Figure 16
/// analogue): below 1.0 means the scheme shields far memory.
pub fn fm_traffic_report(m: &Matrix) -> Report {
    metric_report(
        m,
        format!("Scenarios — FM traffic vs baseline, {}", m.ratio.label()),
        |s, w| f3(m.fm_traffic_norm(s, w)),
    )
}

/// The full scenario report set for one grid.
pub fn grid_reports(m: &Matrix) -> Vec<Report> {
    vec![speedup_report(m), nm_served_report(m), fm_traffic_report(m)]
}

/// A scenario list as a table (`reproduce scenario --list`).
pub fn catalog_report(scens: &[Scenario]) -> Report {
    let mut r = Report::new(
        "Scenario catalog",
        vec!["name", "family", "class", "summary"],
    );
    for s in scens {
        let family = if matches!(s.workload.pattern, workloads::PatternSpec::Phased { .. }) {
            "phased"
        } else {
            "mix"
        };
        r.push_row(vec![
            s.name().to_owned(),
            family.to_owned(),
            s.class().to_string(),
            s.summary.to_owned(),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::scenarios;

    fn tiny_cfg() -> EvalConfig {
        EvalConfig {
            scale_den: 1024,
            instrs_per_core: 10_000,
            seed: 9,
            threads: 4,
            ..EvalConfig::smoke()
        }
    }

    #[test]
    fn select_resolves_names_and_all() {
        let cat = scenarios::builtin();
        assert_eq!(select(cat, "all").unwrap().len(), cat.len());
        assert_eq!(select(cat, "quad-mix").unwrap().len(), 1);
        assert!(select(cat, "not-a-scenario").is_none());
    }

    #[test]
    fn grid_runs_and_reports_render() {
        let scens = select(scenarios::builtin(), "stream-chase").unwrap();
        let (m, _) = run_grid_timed(&scens, NmRatio::OneGb, &tiny_cfg());
        assert_eq!(m.workloads.len(), 1);
        assert_eq!(m.schemes.len(), SchemeKind::MAIN.len());
        for rep in grid_reports(&m) {
            let text = rep.render();
            assert!(text.contains("stream-chase"), "{text}");
        }
    }

    #[test]
    fn catalog_report_lists_every_scenario() {
        let text = catalog_report(scenarios::builtin()).render();
        for s in scenarios::builtin() {
            assert!(text.contains(s.name()), "missing {}", s.name());
        }
    }
}
