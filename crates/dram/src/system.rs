//! The two-device memory system: near memory + far memory.

use sim_types::{AccessKind, Cycle, MemSide, TrafficClass};

use crate::config::DeviceConfig;
use crate::device::{DramAccess, DramDevice};
use crate::energy::EnergyCounter;
use crate::service::{ServiceModel, ServiceRequest};

/// Near memory and far memory bundled together, as handed to schemes.
#[derive(Clone, Debug, PartialEq)]
pub struct DramSystem {
    nm: DramDevice,
    fm: DramDevice,
}

impl DramSystem {
    /// Builds a system from two device configurations.
    pub fn new(nm: DeviceConfig, fm: DeviceConfig) -> Self {
        DramSystem {
            nm: DramDevice::new(nm),
            fm: DramDevice::new(fm),
        }
    }

    /// The paper's Table 1 system: HBM2 near memory, DDR4-3200 far memory.
    pub fn paper_default() -> Self {
        Self::new(
            DeviceConfig::hbm2_near_memory(),
            DeviceConfig::ddr4_far_memory(),
        )
    }

    /// Returns `self`: [`ServiceModel`] has one value. Stays only until
    /// `benchmark/` stops calling it.
    #[must_use]
    pub fn with_service(self, _model: ServiceModel) -> Self {
        self
    }

    /// Submits one request and returns its completion cycle.
    ///
    /// A request with `count > 1` is served as `count` back-to-back accesses
    /// at stride `access.bytes`, all arriving at `access.at` (sector moves,
    /// page fills), and completes when the last access does. See
    /// [`DramDevice::serve_burst`]. A single access, the common case, is
    /// one [`DramDevice::serve`] and skips the burst loop.
    #[inline]
    pub fn submit(&mut self, req: ServiceRequest) -> Cycle {
        let device = self.device_mut(req.side);
        if req.count == 1 {
            device.serve(req.access)
        } else {
            device.serve_burst(req.access, req.count)
        }
    }

    /// Copies the `line_bytes`-sized lines set in `mask` from the sector at
    /// device address `src` to the one at `dst`, as controller-issued
    /// `class` traffic arriving at `at`: per run of consecutive lines, one
    /// counted read on the source side, then one counted write on the
    /// destination side.
    ///
    /// The two sides must differ. Each device then sees the same accesses
    /// in the same order as a copy that alternates read and write line by
    /// line, and the devices share no state, so the timing is identical.
    pub fn copy_lines(
        &mut self,
        mask: u64,
        src: (MemSide, u64),
        dst: (MemSide, u64),
        line_bytes: u32,
        class: TrafficClass,
        at: Cycle,
    ) {
        debug_assert_ne!(src.0, dst.0, "a same-side copy would reorder accesses");
        for (first, run) in line_runs(mask) {
            let off = u64::from(first) * u64::from(line_bytes);
            for ((side, base), kind) in [(src, AccessKind::Read), (dst, AccessKind::Write)] {
                let access = DramAccess {
                    addr: base + off,
                    bytes: line_bytes,
                    kind,
                    class,
                    at,
                };
                self.submit(ServiceRequest::new(side, access).with_count(run));
            }
        }
    }

    /// The device on `side`.
    pub fn device(&self, side: MemSide) -> &DramDevice {
        match side {
            MemSide::Nm => &self.nm,
            MemSide::Fm => &self.fm,
        }
    }

    /// Mutable access to the device on `side`.
    pub fn device_mut(&mut self, side: MemSide) -> &mut DramDevice {
        match side {
            MemSide::Nm => &mut self.nm,
            MemSide::Fm => &mut self.fm,
        }
    }

    /// Combined NM+FM dynamic energy.
    pub fn total_energy(&self) -> EnergyCounter {
        let mut e = EnergyCounter::new();
        e.merge(&self.nm.energy());
        e.merge(&self.fm.energy());
        e
    }

    /// Total bytes moved on `side`.
    pub fn traffic_bytes(&self, side: MemSide) -> u64 {
        self.device(side).stats().total_bytes()
    }
}

/// The runs of consecutive set bits in `mask`, as `(first bit, length)`
/// pairs from the lowest bit up.
fn line_runs(mut mask: u64) -> impl Iterator<Item = (u32, u32)> {
    core::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let first = mask.trailing_zeros();
        let len = (mask >> first).trailing_ones();
        mask &= !((u64::MAX >> (64 - len)) << first);
        Some((first, len))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_runs_cover_exactly_the_set_bits() {
        assert_eq!(line_runs(0).count(), 0);
        assert_eq!(line_runs(u64::MAX).collect::<Vec<_>>(), [(0, 64)]);
        assert_eq!(
            line_runs(0b1011_0110 | 1 << 63).collect::<Vec<_>>(),
            [(1, 2), (4, 2), (7, 1), (63, 1)]
        );
        let mut rng = sim_types::rng::SplitMix64::new(3);
        for _ in 0..1000 {
            let mask = rng.next_u64() & rng.next_u64();
            let rebuilt = line_runs(mask).fold(0u64, |acc, (first, len)| {
                acc | (u64::MAX >> (64 - len)) << first
            });
            assert_eq!(rebuilt, mask);
        }
    }

    fn req(side: MemSide, addr: u64, kind: AccessKind, class: TrafficClass) -> ServiceRequest {
        ServiceRequest::new(
            side,
            DramAccess {
                addr,
                bytes: 64,
                kind,
                class,
                at: Cycle::ZERO,
            },
        )
    }

    #[test]
    fn sides_route_to_distinct_devices() {
        let mut sys = DramSystem::paper_default();
        sys.submit(req(MemSide::Nm, 0, AccessKind::Read, TrafficClass::Demand));
        assert_eq!(sys.device(MemSide::Nm).stats().accesses, 1);
        assert_eq!(sys.device(MemSide::Fm).stats().accesses, 0);
        sys.submit(req(
            MemSide::Fm,
            0,
            AccessKind::Write,
            TrafficClass::Writeback,
        ));
        assert_eq!(sys.device(MemSide::Fm).stats().writes, 1);
    }

    #[test]
    fn counted_submit_moves_all_lines() {
        let mut sys = DramSystem::paper_default();
        let r = sys.submit(
            ServiceRequest::new(
                MemSide::Fm,
                DramAccess {
                    addr: 0,
                    bytes: 256,
                    kind: AccessKind::Read,
                    class: TrafficClass::Migration,
                    at: Cycle::ZERO,
                },
            )
            .with_count(8),
        );
        assert_eq!(sys.traffic_bytes(MemSide::Fm), 2048);
        assert_eq!(sys.traffic_bytes(MemSide::Nm), 0);
        assert_eq!(sys.device(MemSide::Fm).stats().accesses, 8);
        assert!(r > Cycle::ZERO);
    }

    #[test]
    fn total_energy_merges_both_sides() {
        let mut sys = DramSystem::paper_default();
        sys.submit(req(MemSide::Nm, 0, AccessKind::Read, TrafficClass::Demand));
        sys.submit(req(MemSide::Fm, 0, AccessKind::Read, TrafficClass::Demand));
        let total = sys.total_energy();
        assert!(total.total_mj() > sys.device(MemSide::Nm).energy().total_mj());
        assert_eq!(total.activations(), 2);
    }

    #[test]
    fn copy_lines_matches_an_alternating_line_by_line_copy() {
        let mut rng = sim_types::rng::SplitMix64::new(7);
        let mut sys = DramSystem::paper_default();
        let mut reference = sys.clone();
        for step in 0..200u64 {
            let line_bytes = 64 << rng.gen_range(4);
            let lines = 4096 / line_bytes;
            let mask = rng.next_u64() & rng.next_u64() & (u64::MAX >> (64 - lines));
            let (src, dst) = if step % 2 == 0 {
                (
                    (MemSide::Fm, 4096 * rng.gen_range(64)),
                    (MemSide::Nm, 4096 * rng.gen_range(64)),
                )
            } else {
                (
                    (MemSide::Nm, 4096 * rng.gen_range(64)),
                    (MemSide::Fm, 4096 * rng.gen_range(64)),
                )
            };
            let at = Cycle::new(step * 500);
            for i in (0..lines).filter(|i| mask & (1 << i) != 0) {
                for ((side, base), kind) in [(src, AccessKind::Read), (dst, AccessKind::Write)] {
                    reference.submit(ServiceRequest::new(
                        side,
                        DramAccess {
                            addr: base + i * line_bytes,
                            bytes: line_bytes as u32,
                            kind,
                            class: TrafficClass::Migration,
                            at,
                        },
                    ));
                }
            }
            sys.copy_lines(
                mask,
                src,
                dst,
                line_bytes as u32,
                TrafficClass::Migration,
                at,
            );
            assert_eq!(sys, reference, "step {step}");
        }
    }
}
