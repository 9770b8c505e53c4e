//! The built-in scenario catalog: named phased and multi-program workloads.
//!
//! The 30-entry benchmark catalog ([`crate::catalog`]) is single-phase and
//! single-program — every core replays one stationary pattern forever. Real
//! SPEC/NAS mixes are not: programs change phase (gcc's pass structure,
//! xz's compress/decompress alternation) and co-scheduled programs
//! interfere (a streaming bandwidth hog beside a latency-bound pointer
//! chaser). Eviction-time migration's headline claim is exactly that it
//! *adapts* to such dynamics, so the reproduction needs workloads that
//! exercise them.
//!
//! Each [`Scenario`] wraps an ordinary [`WorkloadSpec`] whose pattern
//! is one of the two composite generators:
//!
//! * [`PatternSpec::Phased`] — sub-patterns concatenated with exact
//!   per-phase op budgets, cycling indefinitely (hot-set drift);
//! * [`PatternSpec::Mix`] — a deterministic weighted interleave of 2–4
//!   leaf programs confined to disjoint slices of the footprint
//!   (co-run interference).
//!
//! Because a scenario *is* a `WorkloadSpec`, the whole experiment
//! machinery — `Workload::build`, `run_one`, `Matrix` — runs scenarios
//! unchanged; `sim::scenario` wires them to the CLI and report tables.
//!
//! The 8 built-ins form one slice ([`builtin`]), which `sim::scenario`
//! selects from by name.

use std::sync::LazyLock;

use crate::patterns::{MixPart, PatternSpec, Phase};
use crate::spec::{MpkiClass, PaperRow, WorkloadKind, WorkloadSpec};

use MpkiClass::{High, Low, Medium};
use PatternSpec as P;
use WorkloadKind::{MultiProgrammed as MP, MultiThreaded as MT};

/// One named scenario: a composite workload plus its one-line summary.
///
/// For `Mix` scenarios the wrapped spec's `mem_every`/`write_pct` are
/// *headline* values only (reports, accounting bounds): generation is
/// driven entirely by each part's own `MixPart::mem_every`/`write_pct`.
/// Tune a mix's intensity in its part list, not in the spec.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// One-line description printed by `reproduce scenario --list`.
    pub summary: String,
    /// The workload the simulator runs (its `name`/`class` are the
    /// scenario's name and expected MPKI class).
    pub workload: WorkloadSpec,
}

impl Scenario {
    /// The scenario's name (shared with the wrapped workload).
    pub fn name(&self) -> &str {
        &self.workload.name
    }

    /// The scenario's expected MPKI class.
    pub fn class(&self) -> MpkiClass {
        self.workload.class
    }
}

const fn row(mpki: f64, footprint_gb: f64, traffic_gb: f64) -> PaperRow {
    PaperRow {
        mpki,
        footprint_gb,
        traffic_gb,
    }
}

fn phase(pattern: PatternSpec, ops: u64) -> Phase {
    Phase { pattern, ops }
}

// ---- Phase lists ---------------------------------------------------------
//
// Budgets are in *memory ops*, and a core retires ~`mem_every`
// instructions per op, so a phase's instruction cost is roughly
// `ops * mem_every`. Each list is sized so one full cycle costs
// ~45–160k instructions: every shipped run size — the 200k-instrs/core
// golden digests and CI grid, and the 4M-instrs/core `default_eval` —
// crosses every phase boundary at least once (most several times). A
// budget that exceeds the run's op count would silently degenerate the
// scenario to its first leaf pattern.

/// Stencil tiles → pointer chase → finer tiles: a grid code alternating
/// compute kernels with an irregular graph pass.
fn tile_chase_drift() -> Vec<Phase> {
    vec![
        phase(
            P::TiledStream {
                stride: 32,
                tile_bp: 400,
                repeats: 2,
            },
            5_000,
        ),
        phase(
            P::PointerChase {
                hot_bp: 2000,
                hot_pct: 85,
            },
            5_000,
        ),
        phase(
            P::TiledStream {
                stride: 16,
                tile_bp: 400,
                repeats: 2,
            },
            5_000,
        ),
    ]
}

/// A warm hot set that abruptly gives way to a cold sequential sweep —
/// the regime where caches adapt faster than migration (gcc, xz).
fn hot_stream_drift() -> Vec<Phase> {
    vec![
        phase(
            P::Hotspot {
                hot_bp: 1200,
                hot_pct: 85,
            },
            1_200,
        ),
        phase(P::Stream { stride: 8 }, 1_200),
    ]
}

/// The working set shrinks mid-run: broad tiles, then small re-walked
/// tiles, then a tight hot set (iterative solvers converging).
fn tile_shrink() -> Vec<Phase> {
    vec![
        phase(
            P::TiledStream {
                stride: 64,
                tile_bp: 800,
                repeats: 2,
            },
            600,
        ),
        phase(
            P::TiledStream {
                stride: 64,
                tile_bp: 100,
                repeats: 4,
            },
            600,
        ),
        phase(
            P::Hotspot {
                hot_bp: 200,
                hot_pct: 90,
            },
            600,
        ),
    ]
}

/// A mostly-quiet resident set with periodic streaming bursts — a
/// low-MPKI service with batch episodes.
fn quiet_burst() -> Vec<Phase> {
    vec![
        phase(
            P::Hotspot {
                hot_bp: 150,
                hot_pct: 97,
            },
            700,
        ),
        phase(
            P::StreamMix {
                stream_pct: 60,
                stride: 8,
                hot_bp: 1000,
                hot_pct: 80,
            },
            200,
        ),
    ]
}

// ---- Mix part lists ------------------------------------------------------

/// A dense streamer co-running with a pointer chaser (lbm ∥ mcf).
fn stream_chase() -> Vec<MixPart> {
    vec![
        MixPart {
            pattern: P::Stream { stride: 8 },
            mem_every: 6,
            write_pct: 30,
            span_bp: 5000,
            weight: 3,
        },
        MixPart {
            pattern: P::PointerChase {
                hot_bp: 2000,
                hot_pct: 85,
            },
            mem_every: 40,
            write_pct: 15,
            span_bp: 4800,
            weight: 1,
        },
    ]
}

/// A latency-sensitive hot-set walker squeezed by a bandwidth hog — the
/// canonical co-run interference victim study.
fn bandwidth_victim() -> Vec<MixPart> {
    vec![
        MixPart {
            pattern: P::Hotspot {
                hot_bp: 300,
                hot_pct: 95,
            },
            mem_every: 80,
            write_pct: 20,
            span_bp: 2000,
            weight: 1,
        },
        MixPart {
            pattern: P::TiledStream {
                stride: 16,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 12,
            write_pct: 30,
            span_bp: 7800,
            weight: 2,
        },
    ]
}

/// Four dissimilar programs sharing the machine: stream, hot set, uniform
/// random, and stencil tiles.
fn quad_mix() -> Vec<MixPart> {
    vec![
        MixPart {
            pattern: P::Stream { stride: 8 },
            mem_every: 15,
            write_pct: 30,
            span_bp: 3000,
            weight: 2,
        },
        MixPart {
            pattern: P::Hotspot {
                hot_bp: 1500,
                hot_pct: 75,
            },
            mem_every: 111,
            write_pct: 30,
            span_bp: 2500,
            weight: 1,
        },
        MixPart {
            pattern: P::Random,
            mem_every: 500,
            write_pct: 15,
            span_bp: 2400,
            weight: 1,
        },
        MixPart {
            pattern: P::TiledStream {
                stride: 32,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 17,
            write_pct: 30,
            span_bp: 2000,
            weight: 2,
        },
    ]
}

/// Two programs that are *both* dynamic: a drifting hot set next to a
/// tiled streamer — the hardest case for eviction-time history.
fn drift_duo() -> Vec<MixPart> {
    vec![
        MixPart {
            pattern: P::PhasedHotspot {
                period: 150_000,
                hot_bp: 200,
                hot_pct: 70,
            },
            mem_every: 14,
            write_pct: 25,
            span_bp: 5000,
            weight: 1,
        },
        MixPart {
            pattern: P::TiledStream {
                stride: 8,
                tile_bp: 400,
                repeats: 2,
            },
            mem_every: 5,
            write_pct: 40,
            span_bp: 4900,
            weight: 1,
        },
    ]
}

// ---- The catalog ---------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn scenario(
    name: &str,
    summary: &str,
    kind: WorkloadKind,
    class: MpkiClass,
    paper: PaperRow,
    pattern: PatternSpec,
    mem_every: u32,
    write_pct: u8,
) -> Scenario {
    Scenario {
        summary: summary.to_owned(),
        workload: WorkloadSpec {
            name: name.to_owned(),
            kind,
            class,
            paper,
            pattern,
            mem_every,
            write_pct,
        },
    }
}

/// Builds the 8 built-in scenarios, phased first, then mixes, high MPKI
/// before low (mirroring the benchmark catalog's ordering convention).
fn build_builtin() -> Vec<Scenario> {
    vec![
        scenario(
            "tile-chase-drift",
            "stencil tiles -> pointer chase -> finer tiles (phase drift)",
            MT,
            High,
            row(25.0, 4.0, 18.0),
            P::Phased {
                phases: tile_chase_drift(),
            },
            9,
            30,
        ),
        scenario(
            "hot-stream-drift",
            "warm hot set abruptly replaced by a cold sweep",
            MP,
            Medium,
            row(8.0, 2.0, 6.0),
            P::Phased {
                phases: hot_stream_drift(),
            },
            60,
            25,
        ),
        scenario(
            "tile-shrink",
            "working set shrinks: broad tiles -> small tiles -> hot set",
            MP,
            Medium,
            row(5.0, 1.5, 4.0),
            P::Phased {
                phases: tile_shrink(),
            },
            90,
            25,
        ),
        scenario(
            "quiet-burst",
            "quiet resident set with periodic streaming bursts",
            MP,
            Low,
            row(0.9, 0.4, 0.8),
            P::Phased {
                phases: quiet_burst(),
            },
            150,
            25,
        ),
        scenario(
            "stream-chase",
            "dense streamer co-running with a pointer chaser",
            MP,
            High,
            row(20.0, 3.0, 14.0),
            P::Mix {
                parts: stream_chase(),
            },
            6,
            30,
        ),
        scenario(
            "bandwidth-victim",
            "latency-sensitive hot set beside a bandwidth hog",
            MP,
            Medium,
            row(10.0, 2.5, 7.0),
            P::Mix {
                parts: bandwidth_victim(),
            },
            12,
            30,
        ),
        scenario(
            "quad-mix",
            "four dissimilar programs: stream, hot set, random, tiles",
            MP,
            Medium,
            row(6.0, 4.0, 5.0),
            P::Mix { parts: quad_mix() },
            15,
            30,
        ),
        scenario(
            "drift-duo",
            "drifting hot set co-running with a tiled streamer",
            MP,
            High,
            row(22.0, 2.0, 12.0),
            P::Mix { parts: drift_duo() },
            14,
            30,
        ),
    ]
}

static BUILTIN: LazyLock<Vec<Scenario>> = LazyLock::new(build_builtin);

/// The 8 built-in scenarios, phased first, then mixes.
pub fn builtin() -> &'static [Scenario] {
    &BUILTIN
}

/// Looks a built-in scenario up by name (e.g. `"stream-chase"`).
pub fn by_name(name: &str) -> Option<&'static Scenario> {
    builtin().iter().find(|s| s.name() == name)
}

/// The workload of built-in scenario `name`.
pub fn workload_of(name: &str) -> Option<&'static WorkloadSpec> {
    by_name(name).map(|s| &s.workload)
}

/// The closest built-in name within Levenshtein distance 2 of `name` —
/// the "did you mean" suggestion for CLI typos. Ties break to the
/// earlier scenario.
pub fn nearest(name: &str) -> Option<&'static str> {
    builtin()
        .iter()
        .filter_map(|s| {
            let d = edit_distance(name, s.name());
            (d <= 2).then_some((d, s.name()))
        })
        .min_by_key(|&(d, _)| d)
        .map(|(_, n)| n)
}

/// Plain Levenshtein distance (the names involved are tens of bytes, so
/// the O(nm) table is irrelevant).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use sim_types::TraceSource;

    #[test]
    fn eight_scenarios_named_uniquely() {
        assert_eq!(builtin().len(), 8);
        let mut names: Vec<_> = builtin().iter().map(|s| s.name().to_owned()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn lookups_work() {
        assert!(by_name("tile-chase-drift").is_some());
        assert!(by_name("quad-mix").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(workload_of("drift-duo").unwrap().name, "drift-duo");
    }

    #[test]
    fn nearest_suggests_typo_fixes() {
        assert_eq!(nearest("steam-chase"), Some("stream-chase"));
        assert_eq!(nearest("quad-mx"), Some("quad-mix"));
        assert_eq!(nearest("drift-duo"), Some("drift-duo"));
        assert_eq!(nearest("completely-unrelated"), None);
    }

    #[test]
    fn scenario_names_do_not_collide_with_benchmarks() {
        for s in builtin() {
            assert!(
                crate::catalog::by_name(s.name()).is_none(),
                "{} shadows a benchmark",
                s.name()
            );
        }
    }

    #[test]
    fn classes_are_consistent_with_stated_mpki() {
        for s in builtin() {
            assert_eq!(
                MpkiClass::of_mpki(s.workload.paper.mpki),
                s.class(),
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn mix_scenarios_are_multi_programmed() {
        // Mix parts are private co-running programs; the generator rejects
        // shared (MT) address spaces, so the catalog must not declare one.
        for s in builtin() {
            if matches!(s.workload.pattern, P::Mix { .. }) {
                assert_eq!(
                    s.workload.kind,
                    crate::WorkloadKind::MultiProgrammed,
                    "{}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn every_pattern_is_composite() {
        for s in builtin() {
            assert!(s.workload.pattern.is_composite(), "{}", s.name());
        }
    }

    #[test]
    fn both_generator_families_are_represented() {
        let phased = builtin()
            .iter()
            .filter(|s| matches!(s.workload.pattern, P::Phased { .. }))
            .count();
        let mixed = builtin()
            .iter()
            .filter(|s| matches!(s.workload.pattern, P::Mix { .. }))
            .count();
        assert!(phased >= 2, "need phased scenarios, have {phased}");
        assert!(mixed >= 2, "need mix scenarios, have {mixed}");
        assert_eq!(phased + mixed, builtin().len());
    }

    #[test]
    fn scenarios_build_and_generate_in_bounds() {
        for s in builtin() {
            let mut wl = Workload::build(&s.workload, 8, 1024, 11);
            let bound = wl.core_space_bytes(0);
            let total = wl.footprint_bytes();
            for core in 0..8 {
                for _ in 0..2000 {
                    let op = wl.source_mut(core).next_op().unwrap();
                    let limit = if wl.shared_address_space() {
                        total
                    } else {
                        bound
                    };
                    assert!(
                        op.addr.raw() < limit,
                        "{} escaped its region: {:#x}",
                        s.name(),
                        op.addr.raw()
                    );
                }
            }
        }
    }

    #[test]
    fn mix_spans_fit_their_region_at_extreme_scale() {
        // The tightest region a scenario sees in tests: 1/1024 scale, MP,
        // 8 cores. Building is enough — the constructor asserts fit.
        for s in builtin() {
            let _ = Workload::build(&s.workload, 8, 1024, 1);
        }
    }
}
