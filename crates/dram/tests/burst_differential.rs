//! Differential check of the device's two entry points: a
//! `DramDevice::serve_burst` of `count` accesses must leave a device
//! exactly as `count` single `serve` calls at stride `bytes` would, for
//! every count including 1 — same result, same statistics and energy, and
//! the same bank and bus state. `DramSystem::copy_lines` relies on this
//! when it sends a one-line run to `serve` and a longer one to
//! `serve_burst`.

use dram::{DeviceConfig, DramAccess, DramSystem};
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
    fn serve_burst_matches_single_serves(
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
        let got = sys.device_mut(MemSide::Nm).serve_burst(first, count);

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

proptest! {
    /// Bursts of one access, the common case, interleaved with longer
    /// bursts on both sides: every completion and the whole two-device
    /// state match `serve` calls on a clone.
    #[test]
    fn bursts_of_one_interleaved_with_longer_bursts_match_serves(
        shape_idx in 0usize..3,
        reqs in proptest::collection::vec(
            (
                (any::<bool>(), 0u64..1 << 20, prop_oneof![Just(64u32), Just(128u32), 1u32..1024]),
                (any::<bool>(), 0u64..3_000, prop_oneof![Just(1u32), Just(1u32), Just(1u32), 0u32..40]),
            ),
            1..120,
        ),
    ) {
        let cfg = shape(shape_idx);
        let mut sys = DramSystem::new(cfg.clone(), cfg);
        let mut reference = sys.clone();
        let mut t = 0;
        for ((nm, addr, bytes), (write, gap, count)) in reqs {
            t += gap;
            let side = if nm { MemSide::Nm } else { MemSide::Fm };
            let first = access(addr, bytes, write, t);
            let mut want = first.at;
            for i in 0..count {
                want = reference.device_mut(side).serve(DramAccess {
                    addr: addr + u64::from(i) * u64::from(bytes),
                    ..first
                });
            }
            let got = sys.device_mut(side).serve_burst(first, count);
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(sys.total_energy(), reference.total_energy());
        for side in [MemSide::Nm, MemSide::Fm] {
            prop_assert_eq!(sys.device(side).stats(), reference.device(side).stats());
            prop_assert_eq!(sys.device(side).energy(), reference.device(side).energy());
        }
        prop_assert_eq!(sys, reference, "bank or bus state diverged");
    }
}

#[test]
fn long_bursts_cover_many_granules_and_rows() {
    for shape_idx in 0..3 {
        let cfg = shape(shape_idx);
        let mut sys = DramSystem::new(cfg.clone(), cfg);
        let mut reference = sys.clone();
        let first = access(192, 64, false, 7);
        let got = sys.device_mut(MemSide::Fm).serve_burst(first, 300);
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
