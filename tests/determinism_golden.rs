//! Golden determinism regression: pins the exact simulation outcome of one
//! (scheme, workload, seed) tuple.
//!
//! The whole reproduction is built on the promise that a run is a pure
//! function of its configuration — the paper's figures, the experiment
//! matrix's caching, and every future performance optimisation rely on it.
//! This test freezes one `Hybrid2` run; if an intentional semantic change
//! moves these numbers, update the constants in the same PR and say why in
//! the commit message. An *unintentional* change here means a perf PR
//! silently altered simulation semantics.

use hybrid2::prelude::*;
use hybrid2::SchemeStats;

const GOLDEN_WORKLOAD: &str = "lbm";
const GOLDEN_SEED: u64 = 2020;

/// Pinned digest of the run (instructions, cycles, NM-served ‱).
const GOLDEN_INSTRUCTIONS: u64 = 1_600_012;
const GOLDEN_CYCLES: u64 = 680_909;
/// `nm_served` in basis points, rounded: exact in fixed point so the pin
/// is byte-stable without comparing floats.
const GOLDEN_NM_SERVED_BP: u64 = 8_806;

fn golden_cfg() -> EvalConfig {
    EvalConfig {
        scale_den: 1024,
        instrs_per_core: 200_000,
        seed: GOLDEN_SEED,
        threads: 1,
        ..EvalConfig::smoke()
    }
}

fn digest(r: &hybrid2::RunResult) -> (u64, u64, u64) {
    (
        r.instructions,
        r.cycles,
        (r.nm_served * 10_000.0).round() as u64,
    )
}

/// FNV-1a over the little-endian bytes of all 13 [`SchemeStats`] counters,
/// in declaration order: one column that pins every scheme counter.
fn stats_digest(s: &SchemeStats) -> u64 {
    let counters = [
        s.requests,
        s.reads,
        s.writes,
        s.served_from_nm,
        s.lookup_hits,
        s.lookup_misses,
        s.moved_into_nm,
        s.moved_out_of_nm,
        s.dirty_writebacks,
        s.metadata_reads,
        s.metadata_writes,
        s.fetched_bytes,
        s.used_bytes,
    ];
    counters
        .iter()
        .flat_map(|c| c.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One pinned run: `(kind, instructions, cycles, nm_served ‱, fm_traffic,
/// nm_traffic, energy_mj bits, stats digest)`.
type GoldenRow = (SchemeKind, u64, u64, u64, u64, u64, u64, u64);

/// A [`GoldenRow`] run at capacity divisor `scale_den`: `(scale_den, kind,
/// instructions, cycles, nm_served ‱, fm_traffic, nm_traffic, energy_mj
/// bits, stats digest)`.
type ShapeRow = (u64, SchemeKind, u64, u64, u64, u64, u64, u64, u64);

/// Pinned digests for every MAIN scheme on the golden (workload, seed):
/// `(kind, instructions, cycles, nm_served ‱, fm_traffic, nm_traffic,
/// energy_mj bits, stats digest)`. Captured before the hot-path overhaul
/// (PR 2) so every devirtualization or translation change is
/// semantics-checked against the original code; the energy column (the
/// IEEE-754 bits of `energy_mj`) was added before the DRAM service kernel
/// was rewritten, and the [`stats_digest`] column before the schemes'
/// request charging moved into shared helpers. The MemPod, Chameleon and
/// LGM stats digests were re-pinned when their `metadata_reads` and
/// `metadata_writes` began counting every remap-table read and write
/// (the other columns did not move).
const GOLDEN_MATRIX: [GoldenRow; 6] = [
    (
        SchemeKind::MemPod,
        1_600_012,
        2_032_561,
        4_184,
        5_314_432,
        5_105_280,
        0x3fff_fbed_11cc_ed3f,
        0x26ad_480f_c6dc_8d0d,
    ),
    (
        SchemeKind::Chameleon,
        1_600_012,
        1_516_939,
        8_606,
        3_592_576,
        8_076_800,
        0x3ffc_848e_405b_4b10,
        0x6931_cb8c_36d6_3092,
    ),
    (
        SchemeKind::Lgm,
        1_600_012,
        1_635_075,
        3_180,
        4_621_376,
        3_562_304,
        0x3ffa_7b43_0998_6ec7,
        0x8a10_a3da_dc5c_249d,
    ),
    (
        SchemeKind::Tagless,
        1_600_012,
        697_736,
        9_957,
        1_593_344,
        6_269_056,
        0x3fe8_a2d8_3367_9e65,
        0xfe74_74b6_686b_4c4e,
    ),
    (
        SchemeKind::Dfc,
        1_600_012,
        996_933,
        9_830,
        1_664_512,
        8_786_496,
        0x3ff6_13d8_1a38_038a,
        0x8ced_aae5_a38d_6463,
    ),
    (
        SchemeKind::Hybrid2,
        1_600_012,
        680_909,
        8_806,
        4_495_872,
        8_946_240,
        0x3ffe_6f12_f717_67ea,
        0x97f6_896f_c439_e8fa,
    ),
];

#[test]
fn per_scheme_digest_matrix_is_stable() {
    let spec = catalog::by_name(GOLDEN_WORKLOAD).unwrap();
    for (kind, instructions, cycles, nm_served_bp, fm_traffic, nm_traffic, energy_bits, stats) in
        GOLDEN_MATRIX
    {
        let r = run_one(kind, spec, NmRatio::OneGb, &golden_cfg());
        let got = (
            r.instructions,
            r.cycles,
            (r.nm_served * 10_000.0).round() as u64,
            r.fm_traffic,
            r.nm_traffic,
            r.energy_mj.to_bits(),
            stats_digest(&r.stats),
        );
        assert_eq!(
            got,
            (
                instructions,
                cycles,
                nm_served_bp,
                fm_traffic,
                nm_traffic,
                energy_bits,
                stats
            ),
            "golden digest moved for {kind:?}: got {got:?} — if this change \
             is intentional, update GOLDEN_MATRIX and explain the semantic \
             change in the commit message"
        );
    }
}

#[test]
fn hybrid2_lbm_digest_is_stable() {
    let spec = catalog::by_name(GOLDEN_WORKLOAD).unwrap();
    let r = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &golden_cfg());
    let (instructions, cycles, nm_served_bp) = digest(&r);
    assert_eq!(
        (instructions, cycles, nm_served_bp),
        (GOLDEN_INSTRUCTIONS, GOLDEN_CYCLES, GOLDEN_NM_SERVED_BP),
        "golden digest moved: instructions={instructions} cycles={cycles} \
         nm_served_bp={nm_served_bp} — if this change is intentional, \
         update the GOLDEN_* constants and explain the semantic change"
    );
}

/// Pinned digests for one Phased and one Mix scenario under Hybrid2,
/// captured when the scenario engine was introduced (same golden seed and
/// sizing as the benchmark digests): `(scenario, instructions, cycles,
/// nm_served ‱, fm_traffic, nm_traffic, energy_mj bits)`. The byte-identical rule covers
/// composite workloads too: claim-order changes in the matrix scheduler or
/// refactors of the composite generators must not move these numbers.
const GOLDEN_SCENARIOS: [(&str, u64, u64, u64, u64, u64, u64); 2] = [
    (
        "tile-chase-drift",
        1_600_054,
        3_693_056,
        8_183,
        16_464_640,
        32_717_760,
        0x4021_3895_539f_f666,
    ),
    (
        "stream-chase",
        1_600_147,
        1_431_151,
        7_907,
        6_198_272,
        12_081_024,
        0x4009_96a5_2d33_8562,
    ),
];

#[test]
fn scenario_digests_are_stable() {
    for (name, instructions, cycles, nm_served_bp, fm_traffic, nm_traffic, energy_bits) in
        GOLDEN_SCENARIOS
    {
        let spec = workloads::scenarios::workload_of(name).expect("scenario exists");
        let r = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &golden_cfg());
        let got = (
            r.instructions,
            r.cycles,
            (r.nm_served * 10_000.0).round() as u64,
            r.fm_traffic,
            r.nm_traffic,
            r.energy_mj.to_bits(),
        );
        assert_eq!(
            got,
            (
                instructions,
                cycles,
                nm_served_bp,
                fm_traffic,
                nm_traffic,
                energy_bits
            ),
            "golden scenario digest moved for {name}: got {got:?} — if this \
             change is intentional, update GOLDEN_SCENARIOS and explain the \
             semantic change in the commit message"
        );
    }
}

#[test]
fn back_to_back_runs_are_identical() {
    let spec = catalog::by_name(GOLDEN_WORKLOAD).unwrap();
    let a = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &golden_cfg());
    let b = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &golden_cfg());
    assert_eq!(digest(&a), digest(&b));
    assert_eq!(a.fm_traffic, b.fm_traffic);
    assert_eq!(a.nm_traffic, b.nm_traffic);
    assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits());
}

/// Pinned digest of the golden HYBRID2 run with §3.8 OS free-space hints
/// (`Machine::with_os_hints`): `(instructions, cycles, nm_served ‱,
/// fm_traffic, nm_traffic, energy_mj bits)`. No other golden enables the
/// hints, so this is the one pin on the hinted first-touch path.
const GOLDEN_OS_HINTED: (u64, u64, u64, u64, u64, u64) = (
    1_600_012,
    626_606,
    8_817,
    4_084_736,
    8_530_752,
    0x3ffc_89cf_22f2_b128,
);

#[test]
fn os_hinted_hybrid2_digest_is_stable() {
    use hybrid2::caches::Hierarchy;
    use hybrid2::harness::build_scheme;
    use hybrid2::ScaledSystem;

    let cfg = golden_cfg();
    let spec = catalog::by_name(GOLDEN_WORKLOAD).unwrap();
    let sys = ScaledSystem::new(NmRatio::OneGb, cfg.scale_den);
    let mut machine = Machine::new(
        8,
        Hierarchy::new(sys.hierarchy()),
        build_scheme(SchemeKind::Hybrid2, &sys),
        DramSystem::paper_default(),
        Workload::build(spec, 8, cfg.scale_den, cfg.seed),
        cfg.seed,
    )
    .with_os_hints();
    let r = machine.run_batched(cfg.instrs_per_core, cfg.batch);
    let got = (
        r.instructions,
        r.cycles,
        (r.nm_served * 10_000.0).round() as u64,
        r.fm_traffic,
        r.nm_traffic,
        r.energy_mj.to_bits(),
    );
    assert_eq!(
        got, GOLDEN_OS_HINTED,
        "OS-hinted golden digest moved: got {got:?} — if this change is \
         intentional, update GOLDEN_OS_HINTED and explain the semantic change"
    );
    // The hints must steer the run: an unhinted HYBRID2 run of the same
    // configuration is pinned in GOLDEN_MATRIX and must differ.
    assert_ne!(r.cycles, GOLDEN_CYCLES, "OS hints changed nothing");
}

/// Pinned digests of the golden (workload, seed) under the scheme shapes
/// the MAIN matrix does not reach: the IDEAL cache at both ends of the
/// Figure 1/2 line sweep, one Figure 11 design point whose sector and
/// line both differ from the paper-best 2 KB / 256 B (a two-set XTA at
/// this scale), one Figure 14 variant, and DFC at both ends of Figure 2's
/// line sweep. Same columns as [`GOLDEN_MATRIX`]. Captured before the XTA
/// and the IDEAL cache moved onto the shared set-associative kernel; the
/// DFC rows and the stats column before the schemes' request charging
/// moved into shared helpers. Every row but the last runs at the golden
/// scale (1/1024), where the private L1 and L2 have one set each; the last
/// runs HYBRID2 at 1/64, where they have 4 and 8 sets, and was captured
/// before the cache hierarchy began carrying line-slot hints.
const GOLDEN_SHAPES: [ShapeRow; 7] = [
    (
        1024,
        SchemeKind::IdealLine(64),
        1_600_012,
        1_508_152,
        7_271,
        2_879_808,
        5_044_224,
        0x3ff7_a409_fb0c_986d,
        0x275a_c1ef_c982_c7d2,
    ),
    (
        1024,
        SchemeKind::IdealLine(4096),
        1_600_012,
        727_167,
        9_956,
        1_617_920,
        6_276_608,
        0x3ff1_1b0b_f794_7d79,
        0x6779_30da_2326_5cb7,
    ),
    (
        1024,
        SchemeKind::Hybrid2Config {
            cache_bytes_paper: 128 << 20,
            sector: 4096,
            line: 512,
        },
        1_600_012,
        794_392,
        9_470,
        3_949_568,
        8_590_784,
        0x3ffa_caa5_58a9_344d,
        0x0385_0385_dcb1_e829,
    ),
    (
        1024,
        SchemeKind::Hybrid2Variant(Variant::MigrateAll),
        1_600_012,
        448_228,
        9_338,
        2_535_424,
        7_185_152,
        0x3ff2_d308_6ff8_fcd0,
        0x94bd_def8_a6c6_3b14,
    ),
    (
        1024,
        SchemeKind::DfcLine(128),
        1_600_012,
        1_568_482,
        8_643,
        2_228_480,
        10_053_632,
        0x3ff8_1f30_91ab_2932,
        0x76d1_7938_1a09_9246,
    ),
    (
        1024,
        SchemeKind::DfcLine(4096),
        1_600_012,
        920_362,
        9_957,
        1_617_920,
        7_987_648,
        0x3ff3_96aa_4036_d016,
        0x8212_4985_e246_0422,
    ),
    (
        64,
        SchemeKind::Hybrid2,
        1_600_012,
        612_175,
        8_839,
        3_553_536,
        8_169_664,
        0x3ffd_eb6b_3894_385f,
        0x3548_dd29_5194_cf48,
    ),
];

#[test]
fn scheme_shape_digests_are_stable() {
    let spec = catalog::by_name(GOLDEN_WORKLOAD).unwrap();
    assert!(
        hybrid2::harness::experiments::fig11_design_points().contains(&(128 << 20, 4096, 512)),
        "the pinned design point left the Figure 11 space"
    );
    for (
        scale_den,
        kind,
        instructions,
        cycles,
        nm_served_bp,
        fm_traffic,
        nm_traffic,
        energy_bits,
        stats,
    ) in GOLDEN_SHAPES
    {
        let cfg = EvalConfig {
            scale_den,
            ..golden_cfg()
        };
        let r = run_one(kind, spec, NmRatio::OneGb, &cfg);
        let got = (
            r.instructions,
            r.cycles,
            (r.nm_served * 10_000.0).round() as u64,
            r.fm_traffic,
            r.nm_traffic,
            r.energy_mj.to_bits(),
            stats_digest(&r.stats),
        );
        assert_eq!(
            got,
            (
                instructions,
                cycles,
                nm_served_bp,
                fm_traffic,
                nm_traffic,
                energy_bits,
                stats
            ),
            "golden digest moved for {kind:?}: got {got:?} — if this change \
             is intentional, update GOLDEN_SHAPES and explain the semantic \
             change in the commit message"
        );
    }
}
