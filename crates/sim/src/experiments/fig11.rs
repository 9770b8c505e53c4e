//! Figure 11 — Hybrid2 design-space exploration.
//!
//! Cache size {64, 128 MB} × sector {2, 4 KB} × line {64–512 B}, all
//! 16-way, keeping only configurations whose XTA fits the 512 KB on-chip
//! budget (§5.1). Paper outcome: 64 MB / 2 KB sectors / 256 B lines wins
//! (geomean 1.54 at 1 GB NM). At large scale divisors the scaled cache of
//! some points holds less than one 16-way XTA set; those points are
//! skipped and named in the report.

use hybrid2_core::Hybrid2Config;
use sim_types::Geometry;

use crate::report::{f2, Report};
use crate::runner::{design_point_config, EvalConfig};
use crate::{scheme_label, Matrix, NmRatio, ScaledSystem, SchemeKind};

use super::workload_set;

/// Enumerates the design points that fit the 512 KB XTA budget at paper
/// scale, as (cache bytes at paper scale, sector, line).
pub fn design_points() -> Vec<(u64, u64, u64)> {
    let mut points = Vec::new();
    for cache_mb in [64u64, 128] {
        for sector in [2048u64, 4096] {
            for line in [64u64, 128, 256, 512] {
                let mut cfg = Hybrid2Config::paper_default();
                cfg.cache_bytes = cache_mb << 20;
                cfg.geometry = match Geometry::new(line, sector) {
                    Ok(g) => g,
                    Err(_) => continue,
                };
                if cfg.validate().is_err() {
                    continue;
                }
                if cfg.xta_size_bytes() <= 512 * 1024 {
                    points.push((cache_mb << 20, sector, line));
                }
            }
        }
    }
    points
}

/// Runs the exploration at 1 GB NM over the design points that are valid
/// at `cfg.scale_den`.
pub fn fig11_design_space(cfg: &EvalConfig, smoke: bool) -> Vec<Report> {
    let sys = ScaledSystem::new(NmRatio::OneGb, cfg.scale_den);
    let (points, skipped): (Vec<_>, Vec<_>) =
        design_points()
            .into_iter()
            .partition(|&(cache_bytes_paper, sector, line)| {
                design_point_config(&sys, cache_bytes_paper, sector, line)
                    .validate()
                    .is_ok()
            });
    let kind = |(cache_bytes_paper, sector, line)| SchemeKind::Hybrid2Config {
        cache_bytes_paper,
        sector,
        line,
    };
    let kinds: Vec<SchemeKind> = points.into_iter().map(kind).collect();
    let specs = workload_set(smoke);
    let m = Matrix::run(&kinds, &specs, NmRatio::OneGb, cfg);

    let mut report = Report::new(
        "Figure 11 — Hybrid2 design space (geomean speedup, 1 GB NM, XTA <= 512 KB)",
        vec!["cache/sector/line", "geomean speedup"],
    );
    let mut best = (String::new(), 0.0f64);
    for s in 0..m.schemes.len() {
        let g = m.class_geomean(s, None, Matrix::speedup);
        if g > best.1 {
            best = (m.schemes[s].label.clone(), g);
        }
        report.push_row(vec![m.schemes[s].label.clone(), f2(g)]);
    }
    report.push_note(format!("best configuration: {} ({:.2})", best.0, best.1));
    report.push_note("paper best: 64MB/2K/256B at 1.54");
    if !skipped.is_empty() {
        let labels: Vec<String> = skipped.into_iter().map(|p| scheme_label(kind(p))).collect();
        report.push_note(format!(
            "skipped at 1/{} scale (scaled cache below one XTA set): {}",
            cfg.scale_den,
            labels.join(", ")
        ));
    }
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_best_point_is_in_the_design_space() {
        let points = design_points();
        assert!(
            points.contains(&(64 << 20, 2048, 256)),
            "64MB/2K/256B must fit the XTA budget; points: {points:?}"
        );
        // The sweep is non-trivial but the budget excludes some points.
        assert!(points.len() >= 6);
        assert!(points.len() < 16, "the 512 KB budget must bite");
    }

    #[test]
    fn finer_lines_inflate_the_xta_out_of_budget() {
        // 128 MB cache with 64 B lines in 2 KB sectors cannot fit 512 KB.
        let points = design_points();
        assert!(!points.contains(&(128 << 20, 2048, 64)));
    }

    #[test]
    fn undersized_points_are_skipped_and_named_at_max_scale() {
        // At 1/2048 a 64 MB cache of 4 KB sectors holds 8 sectors, below
        // one 16-way XTA set; those points used to panic a worker.
        let cfg = EvalConfig {
            scale_den: ScaledSystem::MAX_SCALE_DEN,
            instrs_per_core: 2_000,
            threads: 1,
            ..EvalConfig::smoke()
        };
        let reports = fig11_design_space(&cfg, true);
        let report = &reports[0];
        let skipped = report
            .notes
            .iter()
            .find(|n| n.starts_with("skipped at 1/2048 scale"))
            .expect("a note names the skipped points");
        assert!(skipped.contains("64MB/4K/256B"), "{skipped}");
        assert_eq!(
            report.rows.len() + skipped.matches(", ").count() + 1,
            design_points().len()
        );
        assert!(!report.rows.is_empty());

        // At the default smoke scale every point fits: no skip note.
        let cfg = EvalConfig {
            instrs_per_core: 2_000,
            threads: 1,
            ..EvalConfig::smoke()
        };
        let report = &fig11_design_space(&cfg, true)[0];
        assert_eq!(report.rows.len(), design_points().len());
        assert!(report.notes.iter().all(|n| !n.starts_with("skipped")));
    }
}
