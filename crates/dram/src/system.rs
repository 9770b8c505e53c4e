//! The two-device memory system: near memory + far memory.

use sim_types::{AccessKind, Cycle, MemSide, TrafficClass};

use crate::config::DeviceConfig;
use crate::device::{DramAccess, DramDevice};
use crate::energy::EnergyCounter;

/// The memory-service model. It has one value, [`ServiceModel::Unbounded`],
/// and stays only until `benchmark/` stops using it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ServiceModel {
    /// Infinite queue depth: the closed-form timing calculator.
    #[default]
    Unbounded,
}

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

    /// Copies the `line_bytes`-sized lines set in `mask` from the sector at
    /// device address `src` to the one at `dst`, as controller-issued
    /// `class` traffic arriving at `at`: per run of consecutive lines, one
    /// counted read on the source side, then one counted write on the
    /// destination side. A one-line run is a single [`DramDevice::serve`];
    /// a longer one is a [`DramDevice::serve_burst`].
    ///
    /// This is the one multi-access request: sector swaps, page and line
    /// fills and writebacks all pass the full mask
    /// `u64::MAX >> (64 - lines)`, so a sector holds at most 64 lines. A
    /// single access goes straight to the device through
    /// [`DramSystem::device_mut`].
    ///
    /// The two sides must differ. Each device then sees the same accesses
    /// in the same order as a copy that alternates read and write line by
    /// line, and the devices share no state, so the timing is identical.
    ///
    /// # Example
    ///
    /// ```
    /// use dram::{DramAccess, DramSystem};
    /// use sim_types::{AccessKind, Cycle, MemSide, TrafficClass};
    ///
    /// let mut dram = DramSystem::paper_default();
    /// let now = Cycle::new(100);
    /// // One demand read: the device answers with the cycle the data is ready.
    /// let ready = dram.device_mut(MemSide::Nm).serve(DramAccess {
    ///     addr: 0x4000,
    ///     bytes: 64,
    ///     kind: AccessKind::Read,
    ///     class: TrafficClass::Demand,
    ///     at: now,
    /// });
    /// assert!(ready > now);
    ///
    /// // Fill a whole 2 KB sector (32 lines of 64 B) from FM into NM.
    /// let lines = 32;
    /// dram.copy_lines(
    ///     u64::MAX >> (64 - lines),
    ///     (MemSide::Fm, 0x8000),
    ///     (MemSide::Nm, 0x10_0000),
    ///     64,
    ///     TrafficClass::Migration,
    ///     ready,
    /// );
    /// assert_eq!(dram.traffic_bytes(MemSide::Fm), 2048);
    /// assert_eq!(dram.traffic_bytes(MemSide::Nm), 64 + 2048);
    /// ```
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
                let device = self.device_mut(side);
                if run == 1 {
                    device.serve(access);
                } else {
                    device.serve_burst(access, run);
                }
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

    /// Mutable access to the device on `side`: [`DramDevice::serve`]
    /// charges one access on it.
    #[inline]
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

    fn acc(addr: u64, kind: AccessKind, class: TrafficClass) -> DramAccess {
        DramAccess {
            addr,
            bytes: 64,
            kind,
            class,
            at: Cycle::ZERO,
        }
    }

    #[test]
    fn sides_route_to_distinct_devices() {
        let mut sys = DramSystem::paper_default();
        sys.device_mut(MemSide::Nm)
            .serve(acc(0, AccessKind::Read, TrafficClass::Demand));
        assert_eq!(sys.device(MemSide::Nm).stats().accesses, 1);
        assert_eq!(sys.device(MemSide::Fm).stats().accesses, 0);
        sys.device_mut(MemSide::Fm)
            .serve(acc(0, AccessKind::Write, TrafficClass::Writeback));
        assert_eq!(sys.device(MemSide::Fm).stats().writes, 1);
    }

    #[test]
    fn total_energy_merges_both_sides() {
        let mut sys = DramSystem::paper_default();
        for side in [MemSide::Nm, MemSide::Fm] {
            sys.device_mut(side)
                .serve(acc(0, AccessKind::Read, TrafficClass::Demand));
        }
        let total = sys.total_energy();
        assert!(total.total_mj() > sys.device(MemSide::Nm).energy().total_mj());
        assert_eq!(total.activations(), 2);
    }

    #[test]
    fn copy_lines_matches_an_alternating_line_by_line_copy() {
        let mut rng = sim_types::rng::SplitMix64::new(7);
        let mut sys = DramSystem::paper_default();
        let mut reference = sys.clone();
        let full = |lines: u64| u64::MAX >> (64 - lines);
        // Every 25 steps, the two longest whole-sector copies schemes issue
        // (a 4 KB page of 64 B lines, a 2 KB sector of 256 B lines), which
        // a random mask almost never sets; random shapes and masks between.
        let whole = [(64, full(64)), (256, full(8))];
        for step in 0..200u64 {
            let (line_bytes, mask) = match whole.get(step as usize % 25) {
                Some(&shape) => shape,
                None => {
                    let line_bytes = 64 << rng.gen_range(4);
                    let mask = rng.next_u64() & rng.next_u64() & full(4096 / line_bytes);
                    (line_bytes, mask)
                }
            };
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
            for i in (0..64).filter(|i| mask & (1 << i) != 0) {
                for ((side, base), kind) in [(src, AccessKind::Read), (dst, AccessKind::Write)] {
                    reference.device_mut(side).serve(DramAccess {
                        addr: base + i * line_bytes,
                        bytes: line_bytes as u32,
                        kind,
                        class: TrafficClass::Migration,
                        at,
                    });
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
