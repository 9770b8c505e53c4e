//! Paper-scale construction of every scheme's per-cell tables.
//!
//! The remap, inverted-remap and page tables store 31- or 32-bit indices.
//! `--scale 1` with the 4 GB NM ratio gives the largest tables the CLI can
//! build. This test builds the baseline and every MAIN scheme, each with its
//! page allocator, at that scale for all three ratios. It then touches the
//! first and the last byte of each flat space, so the top index of every
//! table is used once.
//!
//! Tier-2: it allocates a few hundred MB one scheme at a time and runs in
//! the CI `full-sim` job
//! (`FULL_SIM_TESTS=1 cargo test --release -- --ignored`).

use hybrid2::harness::{build_scheme, PageAllocator, ScaledSystem};
use hybrid2::prelude::*;
use hybrid2::types::VAddr;

#[test]
#[ignore = "tier-2 full-sim test: run via FULL_SIM_TESTS=1 cargo test --release -- --ignored (CI runs this tier on every PR)"]
fn paper_scale_tables_fit_packed_indices() {
    assert!(
        std::env::var_os("FULL_SIM_TESTS").is_some_and(|v| v == "1"),
        "tier-2 full-sim test: run as FULL_SIM_TESTS=1 cargo test --release -- --ignored"
    );
    for ratio in NmRatio::ALL {
        let sys = ScaledSystem::new(ratio, 1);
        for kind in [SchemeKind::Baseline].into_iter().chain(SchemeKind::MAIN) {
            let mut scheme = build_scheme(kind, &sys);
            let flat = scheme.flat_capacity_bytes();
            let mut pages = PageAllocator::new(flat, 7);
            assert_eq!(pages.capacity_pages(), flat / 4096, "{kind:?} at {ratio:?}");
            let frame = pages.translate(0, VAddr::new(0));
            assert!(frame.raw() < flat, "{kind:?} at {ratio:?}: frame {frame:?}");

            let mut dram = DramSystem::paper_default();
            for addr in [0, flat - 64] {
                let req = MemReq::read(PAddr::new(addr), 64, Cycle::ZERO);
                let served = scheme.access(&req, &mut dram);
                assert!(
                    served.done > Cycle::ZERO,
                    "{kind:?} at {ratio:?}: access to {addr:#x}"
                );
            }
        }
    }
}
