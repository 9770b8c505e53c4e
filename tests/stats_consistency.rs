//! Cross-cutting accounting checks: the statistics every figure is built
//! from must be internally consistent for every scheme.

use hybrid2::harness::run_one;
use hybrid2::prelude::*;

fn cfg() -> EvalConfig {
    EvalConfig {
        scale_den: 1024,
        instrs_per_core: 80_000,
        seed: 55,
        threads: 2,
        ..EvalConfig::smoke()
    }
}

/// requests = reads + writes, and NM-served never exceeds requests.
#[test]
fn scheme_counters_balance() {
    let c = cfg();
    let spec = catalog::by_name("omnetpp").unwrap();
    for kind in SchemeKind::MAIN {
        let r = run_one(kind, spec, NmRatio::OneGb, &c);
        assert_eq!(
            r.stats.requests,
            r.stats.reads + r.stats.writes,
            "{kind:?}: request split broken"
        );
        assert!(
            r.stats.served_from_nm <= r.stats.requests,
            "{kind:?}: NM-served exceeds requests"
        );
        assert_eq!(
            r.stats.lookup_hits + r.stats.lookup_misses,
            r.stats.requests,
            "{kind:?}: lookup accounting must cover every request"
        );
    }
}

/// Demand traffic can never exceed total traffic, and a scheme that serves
/// from NM must actually move NM bytes.
#[test]
fn traffic_is_conserved() {
    let c = cfg();
    let spec = catalog::by_name("lbm").unwrap();
    for kind in SchemeKind::MAIN {
        let r = run_one(kind, spec, NmRatio::OneGb, &c);
        assert!(
            r.fm_traffic + r.nm_traffic > 0,
            "{kind:?}: no traffic at all"
        );
        if r.nm_served > 0.05 {
            assert!(r.nm_traffic > 0, "{kind:?}: NM-served without NM bytes");
        }
        // Each LLC miss moves at least its 64 demand bytes somewhere.
        let demand_floor = r.stats.reads * 64;
        assert!(
            r.fm_traffic + r.nm_traffic >= demand_floor,
            "{kind:?}: {} + {} < {}",
            r.fm_traffic,
            r.nm_traffic,
            demand_floor
        );
    }
}

/// Energy scales with traffic: strictly positive whenever traffic moved,
/// and more traffic (Tagless page fills) means more energy than the lean
/// baseline on the same workload.
#[test]
fn energy_tracks_traffic() {
    let c = cfg();
    let spec = catalog::by_name("deepsjeng").unwrap();
    let base = run_one(SchemeKind::Baseline, spec, NmRatio::OneGb, &c);
    let tagless = run_one(SchemeKind::Tagless, spec, NmRatio::OneGb, &c);
    assert!(base.energy_mj > 0.0);
    assert!(
        tagless.fm_traffic + tagless.nm_traffic > base.fm_traffic,
        "page-granular fills must amplify traffic on random accesses"
    );
    assert!(
        tagless.energy_mj > base.energy_mj,
        "more data moved must cost more dynamic energy"
    );
}

/// The instruction target is hit exactly (8 cores x instrs_per_core, within
/// one trace-op of slack per core).
#[test]
fn instruction_accounting() {
    let c = cfg();
    let spec = catalog::by_name("xalanc").unwrap();
    let r = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &c);
    let target = 8 * c.instrs_per_core;
    assert!(r.instructions >= target);
    // Each core can overshoot by at most one op's gap (< 2 * mem_every).
    assert!(
        r.instructions < target + 8 * 2 * u64::from(spec.mem_every) + 8,
        "overshoot: {} vs {}",
        r.instructions,
        target
    );
}

/// An instruction window big enough that a phased scenario crosses its
/// first phase boundary (a core generates ~instrs/mem_every memory ops):
/// below it the composite degenerates to its first leaf pattern and a
/// transition-accounting bug would pass these tests unexercised. Mixes
/// interleave from op 0, so a small window suffices.
fn scenario_window(spec: &workloads::WorkloadSpec) -> u64 {
    match &spec.pattern {
        workloads::PatternSpec::Phased { phases } => {
            let ops = phases[0].ops + phases[1 % phases.len()].ops / 4 + 1;
            ops * u64::from(spec.mem_every)
        }
        _ => 30_000,
    }
}

/// The figure-level invariants hold for composite (phased / multi-program)
/// streams too: every scenario's traffic is conserved under every scheme
/// family and the request split stays balanced.
#[test]
fn scenario_traffic_is_conserved() {
    for sc in workloads::scenarios::builtin() {
        let c = EvalConfig {
            instrs_per_core: scenario_window(&sc.workload),
            ..cfg()
        };
        for kind in [SchemeKind::Hybrid2, SchemeKind::Tagless] {
            let r = run_one(kind, &sc.workload, NmRatio::OneGb, &c);
            assert_eq!(
                r.stats.requests,
                r.stats.reads + r.stats.writes,
                "{kind:?}/{}: request split broken",
                sc.name()
            );
            assert!(
                r.fm_traffic + r.nm_traffic > 0,
                "{kind:?}/{}: no traffic at all",
                sc.name()
            );
            if r.nm_served > 0.05 {
                assert!(
                    r.nm_traffic > 0,
                    "{kind:?}/{}: NM-served without NM bytes",
                    sc.name()
                );
            }
            // Each LLC miss moves at least its 64 demand bytes somewhere.
            let demand_floor = r.stats.reads * 64;
            assert!(
                r.fm_traffic + r.nm_traffic >= demand_floor,
                "{kind:?}/{}: {} + {} < {}",
                sc.name(),
                r.fm_traffic,
                r.nm_traffic,
                demand_floor
            );
        }
    }
}

/// The instruction target is hit exactly for scenarios as well; a mix's
/// overshoot bound must account for its most gap-happy co-running part
/// (`PatternSpec::max_mem_every`), not just the spec's headline intensity.
#[test]
fn scenario_instruction_accounting() {
    for sc in workloads::scenarios::builtin() {
        let spec = &sc.workload;
        let c = EvalConfig {
            instrs_per_core: scenario_window(spec),
            ..cfg()
        };
        let target = 8 * c.instrs_per_core;
        let r = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &c);
        assert!(r.instructions >= target, "{}: undershoot", sc.name());
        let worst_gap = u64::from(spec.pattern.max_mem_every(spec.mem_every));
        assert!(
            r.instructions < target + 8 * 2 * worst_gap + 8,
            "{}: overshoot {} vs {}",
            sc.name(),
            r.instructions,
            target
        );
    }
}

/// Migration schemes move data both ways; caches never report sector swaps
/// out of NM.
#[test]
fn movement_direction_semantics() {
    let c = cfg();
    let spec = catalog::by_name("gcc").unwrap();
    for kind in [SchemeKind::Tagless, SchemeKind::Dfc] {
        let r = run_one(kind, spec, NmRatio::OneGb, &c);
        assert_eq!(
            r.stats.moved_out_of_nm, 0,
            "{kind:?}: caches copy, they never swap sectors out"
        );
    }
    for kind in [SchemeKind::MemPod, SchemeKind::Lgm] {
        let r = run_one(kind, spec, NmRatio::OneGb, &c);
        assert_eq!(
            r.stats.moved_into_nm, r.stats.moved_out_of_nm,
            "{kind:?}: every swap moves one block each way"
        );
    }
}
