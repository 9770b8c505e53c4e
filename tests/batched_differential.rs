//! Differential wall for the epoch-batched machine loop.
//!
//! [`Machine::run_batched`] must be *byte-identical* to the per-op
//! reference schedule ([`Machine::run_reference`]) for every batch size —
//! same cycles, same traffic, same float bits, same first-touch page
//! placement. These tests hold it to that across schemes, workload
//! classes (streaming, pointer-chase, shared-space NAS), phased/mix
//! composite scenarios crossing phase boundaries, OS-hinted runs, and —
//! via proptest — randomized (workload, seed, batch, window) tuples.
//!
//! Nothing here asserts absolute numbers: a legitimate semantic change
//! moves `tests/determinism_golden.rs`, not this file. This file only
//! ever fails when batching reorders something observable.

use hybrid2::caches::Hierarchy;
use hybrid2::harness::build_scheme;
use hybrid2::prelude::*;
use hybrid2::traffic::WorkloadSpec;
use hybrid2::{ScaledSystem, DEFAULT_BATCH};

mod common;
use common::assert_bitwise_eq;

/// Builds the same machine `run_one` would, but leaves the run call (and
/// the OS-hints toggle) to the caller so reference and batched loops can
/// be compared on identical state.
fn machine(kind: SchemeKind, spec: &'static WorkloadSpec, seed: u64, os_hints: bool) -> Machine {
    let scale_den = 1024;
    let sys = ScaledSystem::new(NmRatio::OneGb, scale_den);
    let workload = Workload::build(spec, 8, scale_den, seed);
    let m = Machine::new(
        8,
        Hierarchy::new(sys.hierarchy()),
        build_scheme(kind, &sys),
        DramSystem::paper_default(),
        workload,
        seed,
    );
    if os_hints {
        m.with_os_hints()
    } else {
        m
    }
}

/// Reference vs batched at several batch sizes, with page-placement
/// digest equality on top of the full result comparison.
fn differential(
    kind: SchemeKind,
    spec: &'static WorkloadSpec,
    seed: u64,
    instrs: u64,
    os_hints: bool,
    batches: &[usize],
) {
    let mut reference = machine(kind, spec, seed, os_hints);
    let want = reference.run_reference(instrs);
    for &batch in batches {
        let mut m = machine(kind, spec, seed, os_hints);
        let got = m.run_batched(instrs, batch);
        let ctx = format!("{kind:?}/{}/seed {seed}/batch {batch}", spec.name);
        assert_bitwise_eq(&want, &got, &ctx);
        assert_eq!(
            reference.page_table_digest(),
            m.page_table_digest(),
            "{ctx}: first-touch allocation order diverged"
        );
    }
}

/// Batch size 1 degenerates to the per-op reference schedule on every
/// MAIN scheme (epoch batching entirely disabled).
#[test]
fn batch_of_one_is_the_reference_schedule() {
    let spec = catalog::by_name("lbm").unwrap();
    for kind in SchemeKind::MAIN {
        differential(kind, spec, 2020, 20_000, false, &[1]);
    }
}

/// The default batch matches the reference on every MAIN scheme plus the
/// baseline, on a high-MPKI streaming workload (frequent shared
/// interactions: short run-ahead epochs).
#[test]
fn default_batch_matches_reference_all_schemes() {
    let spec = catalog::by_name("lbm").unwrap();
    for kind in SchemeKind::MAIN {
        differential(kind, spec, 2020, 20_000, false, &[DEFAULT_BATCH]);
    }
    differential(
        SchemeKind::Baseline,
        spec,
        2020,
        20_000,
        false,
        &[DEFAULT_BATCH],
    );
}

/// Low-MPKI and pointer-chase workloads: long L1-hit bursts give the
/// longest run-ahead epochs, the opposite stress of `lbm`.
#[test]
fn workload_classes_match_across_batch_sizes() {
    for name in ["mcf", "xalanc"] {
        let spec = catalog::by_name(name).unwrap();
        differential(
            SchemeKind::Hybrid2,
            spec,
            7,
            20_000,
            false,
            &[2, 64, DEFAULT_BATCH],
        );
    }
}

/// A shared-address-space (multi-threaded NAS) workload: all cores
/// first-touch pages in one space, the tightest allocation-order race.
#[test]
fn shared_space_workload_matches() {
    let spec = catalog::all()
        .iter()
        .find(|s| s.kind == hybrid2::traffic::WorkloadKind::MultiThreaded)
        .expect("catalog has NAS workloads");
    for kind in [SchemeKind::Hybrid2, SchemeKind::Chameleon] {
        differential(kind, spec, 11, 20_000, false, &[3, DEFAULT_BATCH]);
    }
}

/// §3.8 OS hints: first touches emit `os_hint_used` into the scheme, so
/// hint delivery order rides on allocation order.
#[test]
fn os_hinted_runs_match() {
    let spec = catalog::by_name("lbm").unwrap();
    differential(
        SchemeKind::Hybrid2,
        spec,
        2020,
        20_000,
        true,
        &[1, DEFAULT_BATCH],
    );
}

/// Phased composite scenarios: the instruction window is sized to cross
/// phase boundaries mid-run, so run-ahead epochs straddle a change in the
/// generated access pattern.
#[test]
fn phased_scenarios_cross_boundaries_identically() {
    for name in ["tile-chase-drift", "stream-chase"] {
        let spec = &scenarios::by_name(name).unwrap().workload;
        differential(
            SchemeKind::Hybrid2,
            spec,
            2020,
            30_000,
            false,
            &[5, DEFAULT_BATCH],
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const WORKLOADS: [&str; 4] = ["lbm", "mcf", "xalanc", "gcc"];

    proptest! {
        /// First-touch allocation order — and with it every result field —
        /// is invariant under the batch size, for random (workload, seed,
        /// batch, window) tuples: the batched loop matches the reference
        /// at float-bit granularity.
        #[test]
        fn first_touch_order_invariant_under_batch(
            wl in 0usize..WORKLOADS.len(),
            seed in 0u64..1_000,
            batch in 1usize..=96,
            instrs in 1_000u64..4_000,
        ) {
            let spec = catalog::by_name(WORKLOADS[wl]).unwrap();
            let mut reference = machine(SchemeKind::Hybrid2, spec, seed, false);
            let want = reference.run_reference(instrs);
            let mut batched = machine(SchemeKind::Hybrid2, spec, seed, false);
            let got = batched.run_batched(instrs, batch);
            prop_assert_eq!(
                reference.page_table_digest(),
                batched.page_table_digest(),
                "allocation order diverged: {} seed {} batch {}",
                spec.name, seed, batch
            );
            let ctx = format!("{} seed {seed} batch {batch} instrs {instrs}", spec.name);
            assert_bitwise_eq(&want, &got, &ctx);
        }
    }
}
