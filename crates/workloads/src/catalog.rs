//! The 30-benchmark catalog mirroring Table 2 of the paper.
//!
//! Each entry records the paper's published characterization (MPKI,
//! footprint, traffic) and the synthetic-generator parameters chosen to
//! reproduce its *class* of behaviour: memory intensity (via `mem_every`),
//! footprint (scaled from Table 2), spatial locality (pattern choice) and
//! store share. The pattern assignments follow the paper's own commentary
//! where it exists — e.g. dc.B "streaming nature ... little potential for
//! data reuse", deepsjeng "low memory intensity with a wide memory footprint
//! and very limited spatial locality", omnetpp punished by large cache
//! lines.

use std::sync::LazyLock;

use crate::patterns::PatternSpec;
use crate::spec::{MpkiClass, PaperRow, WorkloadKind, WorkloadSpec};

use MpkiClass::{High, Low, Medium};
use PatternSpec as P;
use WorkloadKind::{MultiProgrammed as MP, MultiThreaded as MT};

const fn row(mpki: f64, footprint_gb: f64, traffic_gb: f64) -> PaperRow {
    PaperRow {
        mpki,
        footprint_gb,
        traffic_gb,
    }
}

/// All 30 workloads of the evaluation (Table 2), in the paper's order:
/// high-MPKI, then medium, then low. Built once on first use — the specs
/// own their names and pattern trees, so they can no longer live in a
/// `static` array.
static ALL: LazyLock<Vec<WorkloadSpec>> = LazyLock::new(build_all);

fn build_all() -> Vec<WorkloadSpec> {
    vec![
        // ---- High MPKI -----------------------------------------------------
        WorkloadSpec {
            name: "cg.D".into(),
            kind: MT,
            class: High,
            paper: row(90.6, 7.8, 43.3),
            pattern: P::StreamMix {
                stream_pct: 50,
                stride: 8,
                hot_bp: 60,
                hot_pct: 95,
            },
            mem_every: 6,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "sp.D".into(),
            kind: MT,
            class: High,
            paper: row(30.1, 11.2, 21.6),
            pattern: P::TiledStream {
                stride: 32,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 17,
            write_pct: 30,
        },
        WorkloadSpec {
            name: "bt.D".into(),
            kind: MT,
            class: High,
            paper: row(30.1, 10.7, 21.3),
            pattern: P::TiledStream {
                stride: 32,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 17,
            write_pct: 30,
        },
        WorkloadSpec {
            name: "fotonik3d".into(),
            kind: MP,
            class: High,
            paper: row(28.1, 6.4, 19.9),
            pattern: P::TiledStream {
                stride: 16,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 9,
            write_pct: 30,
        },
        WorkloadSpec {
            name: "lbm".into(),
            kind: MP,
            class: High,
            paper: row(27.4, 3.1, 21.7),
            pattern: P::TiledStream {
                stride: 8,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 5,
            write_pct: 40,
        },
        WorkloadSpec {
            name: "bwaves".into(),
            kind: MP,
            class: High,
            paper: row(26.8, 3.3, 13.8),
            pattern: P::TiledStream {
                stride: 16,
                tile_bp: 500,
                repeats: 3,
            },
            mem_every: 9,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "lu.D".into(),
            kind: MT,
            class: High,
            paper: row(25.8, 2.9, 19.1),
            pattern: P::TiledStream {
                stride: 64,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 39,
            write_pct: 30,
        },
        WorkloadSpec {
            name: "mcf".into(),
            kind: MP,
            class: High,
            paper: row(25.8, 0.1, 12.6),
            pattern: P::PointerChase {
                hot_bp: 2000,
                hot_pct: 85,
            },
            mem_every: 39,
            write_pct: 15,
        },
        WorkloadSpec {
            name: "gcc".into(),
            kind: MP,
            class: High,
            paper: row(21.2, 1.6, 13.0),
            pattern: P::PhasedHotspot {
                period: 200_000,
                hot_bp: 200,
                hot_pct: 70,
            },
            mem_every: 14,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "roms".into(),
            kind: MP,
            class: High,
            paper: row(15.5, 2.3, 9.7),
            pattern: P::TiledStream {
                stride: 16,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 16,
            write_pct: 25,
        },
        // ---- Medium MPKI ---------------------------------------------------
        WorkloadSpec {
            name: "mg.C".into(),
            kind: MT,
            class: Medium,
            paper: row(14.2, 2.8, 8.9),
            pattern: P::TiledStream {
                stride: 64,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 70,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "omnetpp".into(),
            kind: MP,
            class: Medium,
            paper: row(9.8, 1.5, 6.9),
            pattern: P::PointerChase {
                hot_bp: 3000,
                hot_pct: 85,
            },
            mem_every: 102,
            write_pct: 20,
        },
        WorkloadSpec {
            name: "is.C".into(),
            kind: MT,
            class: Medium,
            paper: row(9.0, 1.0, 5.4),
            pattern: P::Hotspot {
                hot_bp: 1500,
                hot_pct: 75,
            },
            mem_every: 111,
            write_pct: 30,
        },
        WorkloadSpec {
            name: "dc.B".into(),
            kind: MT,
            class: Medium,
            paper: row(8.4, 4.0, 8.0),
            pattern: P::Stream { stride: 8 },
            mem_every: 15,
            write_pct: 30,
        },
        WorkloadSpec {
            name: "ua.D".into(),
            kind: MT,
            class: Medium,
            paper: row(7.8, 3.1, 4.9),
            pattern: P::Hotspot {
                hot_bp: 1200,
                hot_pct: 80,
            },
            mem_every: 128,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "xz".into(),
            kind: MP,
            class: Medium,
            paper: row(5.6, 0.7, 4.3),
            pattern: P::PhasedHotspot {
                period: 300_000,
                hot_bp: 200,
                hot_pct: 60,
            },
            mem_every: 71,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "parest".into(),
            kind: MP,
            class: Medium,
            paper: row(4.3, 0.2, 2.2),
            pattern: P::Hotspot {
                hot_bp: 200,
                hot_pct: 80,
            },
            mem_every: 47,
            write_pct: 20,
        },
        WorkloadSpec {
            name: "cactus".into(),
            kind: MP,
            class: Medium,
            paper: row(3.4, 0.8, 2.0),
            pattern: P::StreamMix {
                stream_pct: 70,
                stride: 16,
                hot_bp: 1000,
                hot_pct: 80,
            },
            mem_every: 140,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "ft.C".into(),
            kind: MT,
            class: Medium,
            paper: row(3.1, 0.9, 2.6),
            pattern: P::TiledStream {
                stride: 128,
                tile_bp: 600,
                repeats: 2,
            },
            mem_every: 323,
            write_pct: 30,
        },
        WorkloadSpec {
            name: "cam4".into(),
            kind: MP,
            class: Medium,
            paper: row(2.2, 0.3, 1.6),
            pattern: P::StreamMix {
                stream_pct: 60,
                stride: 8,
                hot_bp: 1000,
                hot_pct: 80,
            },
            mem_every: 216,
            write_pct: 25,
        },
        // ---- Low MPKI --------------------------------------------------------
        WorkloadSpec {
            name: "wrf".into(),
            kind: MP,
            class: Low,
            paper: row(1.4, 0.4, 1.1),
            pattern: P::Hotspot {
                hot_bp: 150,
                hot_pct: 95,
            },
            mem_every: 36,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "xalanc".into(),
            kind: MP,
            class: Low,
            paper: row(1.1, 0.1, 1.0),
            pattern: P::Hotspot {
                hot_bp: 150,
                hot_pct: 97,
            },
            mem_every: 27,
            write_pct: 20,
        },
        WorkloadSpec {
            name: "imagick".into(),
            kind: MP,
            class: Low,
            paper: row(1.1, 0.4, 0.9),
            pattern: P::Stream { stride: 8 },
            mem_every: 114,
            write_pct: 30,
        },
        WorkloadSpec {
            name: "x264".into(),
            kind: MP,
            class: Low,
            paper: row(0.9, 0.3, 0.6),
            pattern: P::StreamMix {
                stream_pct: 80,
                stride: 8,
                hot_bp: 1000,
                hot_pct: 85,
            },
            mem_every: 333,
            write_pct: 30,
        },
        WorkloadSpec {
            name: "perlbench".into(),
            kind: MP,
            class: Low,
            paper: row(0.7, 0.2, 0.4),
            pattern: P::Hotspot {
                hot_bp: 150,
                hot_pct: 96,
            },
            mem_every: 57,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "blender".into(),
            kind: MP,
            class: Low,
            paper: row(0.7, 0.2, 0.3),
            pattern: P::Hotspot {
                hot_bp: 150,
                hot_pct: 95,
            },
            mem_every: 71,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "deepsjeng".into(),
            kind: MP,
            class: Low,
            paper: row(0.3, 3.4, 0.2),
            pattern: P::Random,
            mem_every: 3333,
            write_pct: 15,
        },
        WorkloadSpec {
            name: "nab".into(),
            kind: MP,
            class: Low,
            paper: row(0.2, 0.2, 0.1),
            pattern: P::Hotspot {
                hot_bp: 150,
                hot_pct: 97,
            },
            mem_every: 150,
            write_pct: 25,
        },
        WorkloadSpec {
            name: "leela".into(),
            kind: MP,
            class: Low,
            paper: row(0.1, 0.1, 0.1),
            pattern: P::Hotspot {
                hot_bp: 150,
                hot_pct: 98,
            },
            mem_every: 200,
            write_pct: 20,
        },
        WorkloadSpec {
            name: "namd".into(),
            kind: MP,
            class: Low,
            paper: row(0.13, 0.1, 0.1),
            pattern: P::Hotspot {
                hot_bp: 150,
                hot_pct: 97,
            },
            mem_every: 230,
            write_pct: 25,
        },
    ]
}

/// All workloads in Table 2 order.
pub fn all() -> &'static [WorkloadSpec] {
    &ALL
}

/// Looks a workload up by its paper name (e.g. `"cg.D"`, `"lbm"`).
pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    ALL.iter().find(|s| s.name == name)
}

/// The ten workloads of one MPKI class, in catalog order.
pub fn by_class(class: MpkiClass) -> impl Iterator<Item = &'static WorkloadSpec> {
    ALL.iter().filter(move |s| s.class == class)
}

/// A small representative subset (one per class) for fast tests/examples.
pub fn smoke_set() -> [&'static WorkloadSpec; 3] {
    [
        by_name("lbm").expect("catalog contains lbm"),
        by_name("omnetpp").expect("catalog contains omnetpp"),
        by_name("xalanc").expect("catalog contains xalanc"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_workloads_ten_per_class() {
        assert_eq!(ALL.len(), 30);
        for class in MpkiClass::ALL {
            assert_eq!(by_class(class).count(), 10, "class {class}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn catalog_matches_paper_class_thresholds() {
        for s in all() {
            assert_eq!(
                MpkiClass::of_mpki(s.paper.mpki),
                s.class,
                "{} is grouped inconsistently with its paper MPKI",
                s.name
            );
        }
    }

    #[test]
    fn kind_counts_match_paper() {
        // 21 SPEC (MP) + 9 NAS (MT).
        let mt = ALL
            .iter()
            .filter(|s| s.kind == WorkloadKind::MultiThreaded)
            .count();
        let mp = ALL
            .iter()
            .filter(|s| s.kind == WorkloadKind::MultiProgrammed)
            .count();
        assert_eq!(mt, 9);
        assert_eq!(mp, 21);
    }

    #[test]
    fn lookups_work() {
        assert!(by_name("cg.D").is_some());
        assert!(by_name("namd").is_some());
        assert!(by_name("does-not-exist").is_none());
    }

    #[test]
    fn footprints_are_positive_and_ordered_sanely() {
        for s in all() {
            assert!(s.paper.footprint_gb > 0.0, "{}", s.name);
            assert!(s.paper.traffic_gb > 0.0, "{}", s.name);
            assert!(s.mem_every >= 1, "{}", s.name);
            assert!(s.write_pct <= 60, "{}", s.name);
        }
    }

    #[test]
    fn high_class_is_more_intense_than_low() {
        // Memory intensity proxy: pattern miss share / mem_every. Rather than
        // re-deriving the model here, check the grouped paper MPKIs.
        let min_high = by_class(MpkiClass::High)
            .map(|s| s.paper.mpki)
            .fold(f64::INFINITY, f64::min);
        let max_low = by_class(MpkiClass::Low)
            .map(|s| s.paper.mpki)
            .fold(0.0, f64::max);
        assert!(min_high > max_low);
    }

    #[test]
    fn smoke_set_covers_all_classes() {
        let set = smoke_set();
        let classes: Vec<_> = set.iter().map(|s| s.class).collect();
        assert!(classes.contains(&MpkiClass::High));
        assert!(classes.contains(&MpkiClass::Medium));
        assert!(classes.contains(&MpkiClass::Low));
    }

    #[test]
    fn exceeds_llc_filter_matches_paper_claim() {
        // At paper scale every catalog entry exceeds the 8 MB LLC.
        for s in all() {
            assert!(
                s.exceeds_llc(1, 8 * 1024 * 1024),
                "{} should exceed the LLC at paper scale",
                s.name
            );
        }
    }
}
