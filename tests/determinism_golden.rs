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

/// Pinned digests for every MAIN scheme on the golden (workload, seed):
/// `(kind, instructions, cycles, nm_served ‱, fm_traffic, nm_traffic,
/// energy_mj bits)`. Captured before the hot-path overhaul (PR 2) so every
/// devirtualization or translation change is semantics-checked against the
/// original code; the energy column (the IEEE-754 bits of `energy_mj`) was
/// added before the DRAM service kernel was rewritten.
const GOLDEN_MATRIX: [(SchemeKind, u64, u64, u64, u64, u64, u64); 6] = [
    (
        SchemeKind::MemPod,
        1_600_012,
        2_032_561,
        4_184,
        5_314_432,
        5_105_280,
        0x3fff_fbed_11cc_ed3f,
    ),
    (
        SchemeKind::Chameleon,
        1_600_012,
        1_516_939,
        8_606,
        3_592_576,
        8_076_800,
        0x3ffc_848e_405b_4b10,
    ),
    (
        SchemeKind::Lgm,
        1_600_012,
        1_635_075,
        3_180,
        4_621_376,
        3_562_304,
        0x3ffa_7b43_0998_6ec7,
    ),
    (
        SchemeKind::Tagless,
        1_600_012,
        697_736,
        9_957,
        1_593_344,
        6_269_056,
        0x3fe8_a2d8_3367_9e65,
    ),
    (
        SchemeKind::Dfc,
        1_600_012,
        996_933,
        9_830,
        1_664_512,
        8_786_496,
        0x3ff6_13d8_1a38_038a,
    ),
    (
        SchemeKind::Hybrid2,
        1_600_012,
        680_909,
        8_806,
        4_495_872,
        8_946_240,
        0x3ffe_6f12_f717_67ea,
    ),
];

#[test]
fn per_scheme_digest_matrix_is_stable() {
    let spec = catalog::by_name(GOLDEN_WORKLOAD).unwrap();
    for (kind, instructions, cycles, nm_served_bp, fm_traffic, nm_traffic, energy_bits) in
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
/// composite workloads too: steal-order changes in the matrix scheduler or
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
/// this scale), and one Figure 14 variant. Same columns as
/// [`GOLDEN_MATRIX`]. Captured before the XTA and the IDEAL cache moved
/// onto the shared set-associative kernel.
const GOLDEN_SHAPES: [(SchemeKind, u64, u64, u64, u64, u64, u64); 4] = [
    (
        SchemeKind::IdealLine(64),
        1_600_012,
        1_508_152,
        7_271,
        2_879_808,
        5_044_224,
        0x3ff7_a409_fb0c_986d,
    ),
    (
        SchemeKind::IdealLine(4096),
        1_600_012,
        727_167,
        9_956,
        1_617_920,
        6_276_608,
        0x3ff1_1b0b_f794_7d79,
    ),
    (
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
    ),
    (
        SchemeKind::Hybrid2Variant(Variant::MigrateAll),
        1_600_012,
        448_228,
        9_338,
        2_535_424,
        7_185_152,
        0x3ff2_d308_6ff8_fcd0,
    ),
];

#[test]
fn scheme_shape_digests_are_stable() {
    let spec = catalog::by_name(GOLDEN_WORKLOAD).unwrap();
    assert!(
        hybrid2::harness::experiments::fig11_design_points().contains(&(128 << 20, 4096, 512)),
        "the pinned design point left the Figure 11 space"
    );
    for (kind, instructions, cycles, nm_served_bp, fm_traffic, nm_traffic, energy_bits) in
        GOLDEN_SHAPES
    {
        let r = run_one(kind, spec, NmRatio::OneGb, &golden_cfg());
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
            "golden digest moved for {kind:?}: got {got:?} — if this change \
             is intentional, update GOLDEN_SHAPES and explain the semantic \
             change in the commit message"
        );
    }
}
