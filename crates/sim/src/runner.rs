//! Scheme construction and single-run orchestration.

use baselines::{
    Chameleon, ChameleonConfig, Dfc, DfcConfig, FmOnly, IdealCache, IdealCacheConfig, Lgm,
    LgmConfig, MemPod, MemPodConfig, Tagless, TaglessConfig,
};
use dram::{DramSystem, ServiceModel};
use hybrid2_core::{Dcmc, Hybrid2Config, Variant};
use mem_cache::Hierarchy;
use sim_types::Geometry;
use workloads::{Workload, WorkloadSpec};

use crate::any_scheme::AnyScheme;
use crate::machine::{Machine, RunResult, DEFAULT_BATCH};
use crate::scale::{NmRatio, ScaledSystem};

/// Which memory-management scheme to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No NM at all (the normalization baseline).
    Baseline,
    /// MemPod.
    MemPod,
    /// Chameleon.
    Chameleon,
    /// LGM.
    Lgm,
    /// Tagless DRAM cache.
    Tagless,
    /// Decoupled Fused Cache at its best line size (1 KB).
    Dfc,
    /// DFC with an explicit line size (Figure 2 sweep).
    DfcLine(u64),
    /// Ideal (zero-overhead) cache with an explicit line size.
    IdealLine(u64),
    /// Hybrid2, full design, paper-best configuration.
    Hybrid2,
    /// Hybrid2 with an explicit ablation variant (Figure 14).
    Hybrid2Variant(Variant),
    /// Hybrid2 with an explicit (cache bytes at paper scale, sector, line)
    /// configuration (Figure 11 design space).
    Hybrid2Config {
        /// DRAM-cache capacity at paper scale in bytes.
        cache_bytes_paper: u64,
        /// Sector size in bytes.
        sector: u64,
        /// Cache-line size in bytes.
        line: u64,
    },
}

impl SchemeKind {
    /// The six head-to-head schemes of Figures 12–18.
    pub const MAIN: [SchemeKind; 6] = [
        SchemeKind::MemPod,
        SchemeKind::Chameleon,
        SchemeKind::Lgm,
        SchemeKind::Tagless,
        SchemeKind::Dfc,
        SchemeKind::Hybrid2,
    ];
}

/// Simulation-size knobs shared by all experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalConfig {
    /// Capacity divisor (1 = paper scale). Default 64.
    pub scale_den: u64,
    /// Instructions retired per core per run.
    pub instrs_per_core: u64,
    /// Base RNG seed (workloads and placement derive from it).
    pub seed: u64,
    /// Worker threads for matrix runs.
    pub threads: usize,
    /// Ops-per-pick cap of the epoch-batched machine loop (`--batch`);
    /// 1 degenerates to the per-op reference schedule. Any value yields
    /// byte-identical results (pinned by `tests/batched_differential.rs`)
    /// — this is a scheduling knob, never a semantic one, so it is excluded
    /// from the run-record config digest. Default [`DEFAULT_BATCH`].
    pub batch: usize,
    /// Always [`ServiceModel::Unbounded`], its one value; no run reads it.
    /// Stays only until `benchmark/` stops using it.
    pub service: ServiceModel,
}

impl EvalConfig {
    /// The default evaluation size: 1/256 capacities with the instruction
    /// window scaled alike (the paper simulates 1 B instructions per core;
    /// 1e9/256 ≈ 4 M keeps window:footprint proportional, which reuse-driven
    /// results depend on).
    pub fn default_eval() -> Self {
        EvalConfig {
            scale_den: 256,
            instrs_per_core: 4_000_000,
            seed: 2020,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            batch: DEFAULT_BATCH,
            service: ServiceModel::Unbounded,
        }
    }

    /// A fast configuration for tests and the benchmark: 1/1024 capacities
    /// with a proportional ~1 M-instruction window.
    pub fn smoke() -> Self {
        EvalConfig {
            scale_den: 1024,
            instrs_per_core: 1_000_000,
            seed: 7,
            threads: 4,
            batch: DEFAULT_BATCH,
            service: ServiceModel::Unbounded,
        }
    }
}

/// Builds a scheme instance for `kind` on a `sys`-sized machine. The
/// returned [`AnyScheme`] dispatches statically on the per-op path (it
/// still implements [`dram::MemoryScheme`] for trait-generic callers).
///
/// # Panics
///
/// Panics if a scheme configuration is structurally invalid at this scale —
/// that is a harness bug, not an input error.
pub fn build_scheme(kind: SchemeKind, sys: &ScaledSystem) -> AnyScheme {
    match kind {
        SchemeKind::Baseline => FmOnly::new(sys.fm_bytes).into(),
        SchemeKind::MemPod => MemPod::new(MemPodConfig::paper_default(
            sys.nm_bytes,
            sys.fm_bytes,
            sys.remap_cache_bytes,
        ))
        .into(),
        SchemeKind::Chameleon => Chameleon::new(ChameleonConfig::paper_default(
            sys.nm_bytes,
            sys.fm_bytes,
            sys.cache_bytes,
            sys.remap_cache_bytes,
        ))
        .into(),
        SchemeKind::Lgm => Lgm::new(LgmConfig::paper_default(
            sys.nm_bytes,
            sys.fm_bytes,
            sys.remap_cache_bytes,
        ))
        .into(),
        SchemeKind::Tagless => Tagless::new(TaglessConfig::new(sys.nm_bytes, sys.fm_bytes)).into(),
        SchemeKind::Dfc => Dfc::new(DfcConfig::paper_best(
            sys.nm_bytes,
            sys.fm_bytes,
            sys.llc_bytes,
        ))
        .into(),
        SchemeKind::DfcLine(line) => {
            let mut cfg = DfcConfig::paper_best(sys.nm_bytes, sys.fm_bytes, sys.llc_bytes);
            cfg.line_bytes = line;
            Dfc::new(cfg).into()
        }
        SchemeKind::IdealLine(line) => IdealCache::new(IdealCacheConfig {
            nm_bytes: sys.nm_bytes,
            fm_bytes: sys.fm_bytes,
            line_bytes: line,
            assoc: 16,
        })
        .into(),
        SchemeKind::Hybrid2 => Dcmc::new(hybrid2_config(
            sys,
            sys.cache_bytes,
            2048,
            256,
            Variant::Full,
        ))
        .expect("paper-best Hybrid2 config is valid")
        .into(),
        SchemeKind::Hybrid2Variant(variant) => {
            Dcmc::new(hybrid2_config(sys, sys.cache_bytes, 2048, 256, variant))
                .expect("variant config is valid")
                .into()
        }
        SchemeKind::Hybrid2Config {
            cache_bytes_paper,
            sector,
            line,
        } => Dcmc::new(design_point_config(sys, cache_bytes_paper, sector, line))
            .expect("design-space config is valid")
            .into(),
    }
}

/// The Hybrid2 configuration of a Figure 11 design point (cache size at
/// paper scale, sector, line) on a `sys`-sized machine. At large scale
/// divisors the scaled cache of some points holds less than one XTA set;
/// [`Hybrid2Config::validate`] rejects those.
pub(crate) fn design_point_config(
    sys: &ScaledSystem,
    cache_bytes_paper: u64,
    sector: u64,
    line: u64,
) -> Hybrid2Config {
    hybrid2_config(
        sys,
        cache_bytes_paper / sys.scale_den,
        sector,
        line,
        Variant::Full,
    )
}

fn hybrid2_config(
    sys: &ScaledSystem,
    cache_bytes: u64,
    sector: u64,
    line: u64,
    variant: Variant,
) -> Hybrid2Config {
    let mut cfg = Hybrid2Config::paper_default();
    cfg.geometry = Geometry::new(line, sector).expect("valid geometry");
    cfg.cache_bytes = cache_bytes;
    cfg.nm_bytes = sys.nm_bytes;
    cfg.fm_bytes = sys.fm_bytes;
    cfg.variant = variant;
    cfg
}

/// Human-readable label for a scheme kind (figure legends).
pub fn scheme_label(kind: SchemeKind) -> String {
    match kind {
        SchemeKind::Baseline => "BASELINE".into(),
        SchemeKind::MemPod => "MPOD".into(),
        SchemeKind::Chameleon => "CHA".into(),
        SchemeKind::Lgm => "LGM".into(),
        SchemeKind::Tagless => "TAGLESS".into(),
        SchemeKind::Dfc => "DFC".into(),
        SchemeKind::DfcLine(l) => format!("DFC-{l}"),
        SchemeKind::IdealLine(l) => format!("IDEAL-{l}"),
        SchemeKind::Hybrid2 => "HYBRID2".into(),
        SchemeKind::Hybrid2Variant(v) => v.label().into(),
        SchemeKind::Hybrid2Config {
            cache_bytes_paper,
            sector,
            line,
        } => format!("{}MB/{}K/{}B", cache_bytes_paper >> 20, sector >> 10, line),
    }
}

/// Simulates one (scheme, workload) pair and returns its measurements.
pub fn run_one(
    kind: SchemeKind,
    spec: &WorkloadSpec,
    ratio: NmRatio,
    cfg: &EvalConfig,
) -> RunResult {
    let sys = ScaledSystem::new(ratio, cfg.scale_den);
    let scheme = build_scheme(kind, &sys);
    let workload = Workload::build(spec, 8, cfg.scale_den, cfg.seed);
    let hierarchy = Hierarchy::new(sys.hierarchy());
    let mut machine = Machine::new(
        8,
        hierarchy,
        scheme,
        DramSystem::paper_default(),
        workload,
        cfg.seed,
    );
    machine.run_batched(cfg.instrs_per_core, cfg.batch)
}

/// [`run_one`] plus the wall-clock seconds the run took — the timing the
/// `sim::runlog` run records and the perf-smoke floor consume. The result
/// itself is deterministic; only the seconds vary run to run.
pub fn run_one_timed(
    kind: SchemeKind,
    spec: &WorkloadSpec,
    ratio: NmRatio,
    cfg: &EvalConfig,
) -> (RunResult, f64) {
    let started = std::time::Instant::now();
    let r = run_one(kind, spec, ratio, cfg);
    (r, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::catalog;

    #[test]
    fn all_main_schemes_build_at_default_scale() {
        let sys = ScaledSystem::new(NmRatio::OneGb, 64);
        for kind in SchemeKind::MAIN {
            let s = build_scheme(kind, &sys);
            assert!(!s.name().is_empty());
        }
        let b = build_scheme(SchemeKind::Baseline, &sys);
        assert_eq!(b.flat_capacity_bytes(), sys.fm_bytes);
    }

    #[test]
    fn all_schemes_build_at_the_largest_scale() {
        for ratio in NmRatio::ALL {
            let sys = ScaledSystem::new(ratio, ScaledSystem::MAX_SCALE_DEN);
            for kind in SchemeKind::MAIN.into_iter().chain([SchemeKind::Baseline]) {
                let _ = build_scheme(kind, &sys);
            }
        }
    }

    #[test]
    fn migration_schemes_offer_more_capacity_than_caches() {
        let sys = ScaledSystem::new(NmRatio::OneGb, 64);
        let cache = build_scheme(SchemeKind::Tagless, &sys).flat_capacity_bytes();
        for kind in [SchemeKind::MemPod, SchemeKind::Lgm, SchemeKind::Hybrid2] {
            let cap = build_scheme(kind, &sys).flat_capacity_bytes();
            assert!(
                cap > cache,
                "{kind:?} must expose more memory than a pure cache"
            );
        }
    }

    #[test]
    fn labels_are_paper_names() {
        assert_eq!(scheme_label(SchemeKind::Hybrid2), "HYBRID2");
        assert_eq!(scheme_label(SchemeKind::MemPod), "MPOD");
        assert_eq!(scheme_label(SchemeKind::IdealLine(256)), "IDEAL-256");
        assert_eq!(
            scheme_label(SchemeKind::Hybrid2Config {
                cache_bytes_paper: 64 << 20,
                sector: 2048,
                line: 256
            }),
            "64MB/2K/256B"
        );
    }

    #[test]
    fn smoke_run_produces_sane_results() {
        let cfg = EvalConfig::smoke();
        let spec = catalog::by_name("lbm").unwrap();
        let base = run_one(SchemeKind::Baseline, spec, NmRatio::OneGb, &cfg);
        let h2 = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &cfg);
        assert_eq!(base.instructions, h2.instructions);
        assert!(base.cycles > 0 && h2.cycles > 0);
        // A streaming workload must benefit from NM bandwidth.
        let speedup = base.cycles as f64 / h2.cycles as f64;
        assert!(speedup > 1.0, "Hybrid2 speedup on lbm was {speedup:.2}");
    }
}
