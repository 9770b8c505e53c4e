//! Differential check of the counted-burst service path: a `submit` with
//! `count > 1` must leave a device exactly as `count` single `serve` calls
//! at stride `bytes` would — same result, same statistics and energy, and
//! the same bank and bus state.

use dram::{DeviceConfig, DramAccess, DramSystem, ServiceRequest};
use proptest::prelude::*;
use sim_types::{AccessKind, Cycle, MemSide, TrafficClass};

/// Both Table 1 presets, plus a shape whose rows are smaller than its
/// interleave granule (so one granule spans several rows).
fn shape(i: usize) -> DeviceConfig {
    match i {
        0 => DeviceConfig::hbm2_near_memory(),
        1 => DeviceConfig::ddr4_far_memory(),
        _ => DeviceConfig {
            row_bytes: 128,
            interleave_bytes: 512,
            ..DeviceConfig::ddr4_far_memory()
        },
    }
}

fn access(addr: u64, bytes: u32, write: bool, at: u64) -> DramAccess {
    DramAccess {
        addr,
        bytes,
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        class: TrafficClass::Migration,
        at: Cycle::new(at),
    }
}

proptest! {
    #[test]
    fn counted_submit_matches_single_serves(
        shape_idx in 0usize..3,
        warm in proptest::collection::vec((0u64..1 << 20, 1u32..1024, any::<bool>(), 0u64..4_000), 0..40),
        bytes in prop_oneof![Just(64u32), Just(128u32), Just(256u32), Just(512u32)],
        addr in 0u64..1 << 20,
        aligned in any::<bool>(),
        count in 0u32..80,
        at in 0u64..40_000,
        write in any::<bool>(),
        probe in (0u64..1 << 20, 0u64..80_000),
    ) {
        let cfg = shape(shape_idx);
        let mut sys = DramSystem::new(cfg.clone(), cfg);
        let mut t = 0;
        for (a, b, w, gap) in warm {
            t += gap;
            sys.device_mut(MemSide::Nm).serve(access(a, b, w, t));
        }
        let addr = if aligned { addr & !(u64::from(bytes) - 1) } else { addr };
        let first = access(addr, bytes, write, at);

        let mut reference = sys.clone();
        let mut want = first.at;
        for i in 0..count {
            want = reference.device_mut(MemSide::Nm).serve(DramAccess {
                addr: addr + u64::from(i) * u64::from(bytes),
                ..first
            });
        }
        let got = sys.submit(ServiceRequest::new(MemSide::Nm, first).with_count(count));

        prop_assert_eq!(got, want);
        let (dev, ref_dev) = (sys.device(MemSide::Nm), reference.device(MemSide::Nm));
        prop_assert_eq!(dev.stats(), ref_dev.stats());
        prop_assert_eq!(dev.energy(), ref_dev.energy());
        prop_assert_eq!(dev, ref_dev, "bank or bus state diverged");

        let p = access(probe.0, 64, false, probe.1);
        prop_assert_eq!(
            sys.device_mut(MemSide::Nm).serve(p),
            reference.device_mut(MemSide::Nm).serve(p)
        );
    }
}

#[test]
fn long_bursts_cover_many_granules_and_rows() {
    for shape_idx in 0..3 {
        let cfg = shape(shape_idx);
        let mut sys = DramSystem::new(cfg.clone(), cfg);
        let mut reference = sys.clone();
        let first = access(192, 64, false, 7);
        let got = sys.submit(ServiceRequest::new(MemSide::Fm, first).with_count(300));
        let mut ready = first.at;
        for i in 0..300 {
            ready = reference.device_mut(MemSide::Fm).serve(DramAccess {
                addr: first.addr + i * 64,
                ..first
            });
        }
        assert_eq!(got, ready);
        assert_eq!(sys, reference);
        assert_eq!(sys.total_energy(), reference.total_energy());
    }
}
