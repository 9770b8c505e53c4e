//! One DRAM device: channels, banks, row buffers, data buses.

use sim_types::{AccessKind, Cycle, MemReq, TrafficClass};

use crate::config::DeviceConfig;
use crate::energy::EnergyCounter;

/// One access presented to a [`DramDevice`].
///
/// `addr` is a *device byte address*: schemes translate sector locations
/// (`NmLoc`/`FmLoc`) and metadata offsets into this space before calling the
/// device, so that interleaving and row locality behave like hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramAccess {
    /// Device byte address of the first byte touched.
    pub addr: u64,
    /// Burst length in bytes.
    pub bytes: u32,
    /// Read or write (both occupy the bus; energy is charged identically per
    /// Table 1's combined RD/WR+I/O figure).
    pub kind: AccessKind,
    /// Accounting class (demand/fill/writeback/migration/metadata).
    pub class: TrafficClass,
    /// Cycle the access arrives at the device controller.
    pub at: Cycle,
}

impl DramAccess {
    /// `req` served at device address `addr`, where its data lives: size
    /// and kind come from the request, and the class is
    /// [`TrafficClass::Demand`] for a read and [`TrafficClass::Writeback`]
    /// for a write (an LLC writeback).
    #[inline]
    pub fn demand(req: &MemReq, addr: u64, at: Cycle) -> Self {
        DramAccess {
            addr,
            bytes: req.bytes,
            kind: req.kind,
            class: if req.kind.is_write() {
                TrafficClass::Writeback
            } else {
                TrafficClass::Demand
            },
            at,
        }
    }

    /// A [`TrafficClass::Metadata`] access to the 64 B line that holds
    /// device address `addr` (a remap, inverted-remap or tag entry).
    #[inline]
    pub fn metadata(kind: AccessKind, addr: u64, at: Cycle) -> Self {
        DramAccess {
            addr: addr & !63,
            bytes: 64,
            kind,
            class: TrafficClass::Metadata,
            at,
        }
    }
}

/// Per-bank state: which row is open and when the bank is next available.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Bank {
    open_row: Option<u64>,
    ready: Cycle,
}

/// Traffic statistics kept by a device, broken down by [`TrafficClass`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Total accesses served.
    pub accesses: u64,
    /// Accesses that hit the open row buffer.
    pub row_hits: u64,
    /// Row activations performed.
    pub activations: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Bytes moved per traffic class, indexed by [`TrafficClass::index`].
    pub bytes_by_class: [u64; 5],
    /// Always 0: there is no controller queue. Stays only until
    /// `benchmark/` stops reading it.
    pub queue_peak_occupancy: u64,
}

impl DeviceStats {
    /// Total bytes moved across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_class.iter().sum()
    }

    /// Bytes moved for one class.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes_by_class[class.index()]
    }

    /// Always 0.0: there is no controller queue. Stays only until
    /// `benchmark/` stops calling it.
    pub fn mean_queue_occupancy(&self) -> f64 {
        0.0
    }

    /// Counts `n` accesses of `a`'s kind, class and size.
    #[inline]
    fn count(&mut self, a: &DramAccess, n: u64) {
        self.accesses += n;
        match a.kind {
            AccessKind::Read => self.reads += n,
            AccessKind::Write => self.writes += n,
        }
        self.bytes_by_class[a.class.index()] += n * u64::from(a.bytes);
    }
}

/// A DRAM device (the NM HBM2 stack or the FM DDR4 DIMMs).
///
/// The device is a timing *calculator*: [`DramDevice::serve`] returns the
/// CPU cycle at which the burst completes, advancing bank and bus state.
/// There is no controller queue. Nor is there a per-bank queue: every
/// entry one would hold completes by `bank.ready`, which the start time
/// already waits for.
/// Bank and bus state serialize accesses in *presentation* order, which
/// is exact only when arrivals come in time order. The surrounding
/// simulator does not guarantee that: it picks cores smallest-cycle-first,
/// but an access can issue later than its pick clock, and schemes issue
/// chained traffic at future cycles. An access stamped earlier than one
/// already presented can thus wait behind it (the benchmark's
/// `machine.req_out_of_order_frac` reads about 0.68 on `lbm-stream`). The
/// ROADMAP item "One causal event loop" tracks the fix.
///
/// Every geometry parameter is a power of two ([`DeviceConfig::validate`]),
/// so the address map is precomputed as shifts and masks.
#[derive(Clone, Debug, PartialEq)]
pub struct DramDevice {
    cfg: DeviceConfig,
    banks: Vec<Bank>,
    bus_free: Vec<Cycle>,
    stats: DeviceStats,
    chan_mask: u64,
    chan_shift: u32,
    /// Shift that drops the granule offset and the channel bits.
    high_shift: u32,
    row_shift: u32,
    bank_mask: u64,
    bank_shift: u32,
    /// Offset mask of the largest aligned block that maps to one bank and
    /// one row: the smaller of a row and an interleave granule.
    run_mask: u64,
    t_cas_cpu: u64,
    t_rcd_cpu: u64,
    t_rp_cpu: u64,
    /// CPU cycles the bus is busy for a 64-byte burst.
    transfer_64_cpu: u64,
}

impl DramDevice {
    /// Builds a device from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; validate configs at the edge
    /// with [`DeviceConfig::validate`] for a recoverable error.
    pub fn new(cfg: DeviceConfig) -> Self {
        cfg.validate().expect("invalid DRAM device configuration");
        let n_banks = (cfg.channels * cfg.banks_per_channel) as usize;
        let chan_shift = cfg.interleave_bytes.trailing_zeros();
        DramDevice {
            banks: vec![Bank::default(); n_banks],
            bus_free: vec![Cycle::ZERO; cfg.channels as usize],
            stats: DeviceStats::default(),
            chan_mask: u64::from(cfg.channels) - 1,
            chan_shift,
            high_shift: chan_shift + cfg.channels.trailing_zeros(),
            row_shift: cfg.row_bytes.trailing_zeros(),
            bank_mask: u64::from(cfg.banks_per_channel) - 1,
            bank_shift: cfg.banks_per_channel.trailing_zeros(),
            run_mask: cfg.row_bytes.min(cfg.interleave_bytes) - 1,
            t_cas_cpu: cfg.clock.to_cpu(cfg.t_cas),
            t_rcd_cpu: cfg.clock.to_cpu(cfg.t_rcd),
            t_rp_cpu: cfg.clock.to_cpu(cfg.t_rp),
            transfer_64_cpu: cfg.clock.to_cpu(cfg.transfer_cycles(64)),
            cfg,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Dynamic energy of the traffic served so far, derived from the byte
    /// and activation counters.
    pub fn energy(&self) -> EnergyCounter {
        EnergyCounter::from_counts(
            self.stats.total_bytes(),
            self.cfg.rw_fj_per_bit,
            self.stats.activations,
            self.cfg.act_pre_pj,
        )
    }

    /// Decomposes a device byte address into (channel, bank-index, row).
    #[inline]
    fn map(&self, addr: u64) -> (usize, usize, u64) {
        let channel = (addr >> self.chan_shift) & self.chan_mask;
        // Remove the channel bits so consecutive granules within a channel
        // are contiguous in bank/row space.
        let low = addr & ((1 << self.chan_shift) - 1);
        let chan_addr = ((addr >> self.high_shift) << self.chan_shift) | low;
        let row_global = chan_addr >> self.row_shift;
        let bank = (channel << self.bank_shift) | (row_global & self.bank_mask);
        (
            channel as usize,
            bank as usize,
            row_global >> self.bank_shift,
        )
    }

    /// CPU cycles the data bus is busy transferring `bytes`.
    #[inline]
    fn transfer_cpu(&self, bytes: u32) -> u64 {
        if bytes == 64 {
            self.transfer_64_cpu
        } else {
            self.cfg.clock.to_cpu(self.cfg.transfer_cycles(bytes))
        }
    }

    /// Serves one access and returns its completion cycle.
    ///
    /// Timing: the access starts at its arrival or when the bank is free,
    /// whichever is later; a row hit pays tCAS, a row conflict pays
    /// tRP+tRCD+tCAS, an empty bank pays tRCD+tCAS; data transfer then waits
    /// for the channel data bus and occupies it for the burst duration.
    #[inline]
    pub fn serve(&mut self, a: DramAccess) -> Cycle {
        self.serve_mapped(a).0
    }

    /// Serves `count` back-to-back accesses of `a.bytes` at stride
    /// `a.bytes`, all arriving at `a.at`, with exactly the outcome of
    /// `count` [`DramDevice::serve`] calls. Returns the completion of the
    /// last access (`a.at` when `count` is 0).
    ///
    /// The accesses after the first one in an aligned block that maps to a
    /// single bank and row (the smaller of a row and an interleave granule)
    /// are charged in one step: each finds its row open and its bank and
    /// bus released by its predecessor, so it completes exactly tCAS plus
    /// one transfer later.
    pub fn serve_burst(&mut self, a: DramAccess, count: u32) -> Cycle {
        let stride = u64::from(a.bytes);
        let count = u64::from(count);
        let mut ready = a.at;
        let mut i = 0;
        while i < count {
            let addr = a.addr + i * stride;
            let (done, channel, bank) = self.serve_mapped(DramAccess { addr, ..a });
            ready = done;
            i += 1;
            if i == count {
                continue;
            }
            let hits = ((addr | self.run_mask) - addr)
                .checked_div(stride)
                .map_or(count - i, |h| h.min(count - i));
            ready += hits * (self.t_cas_cpu + self.transfer_cpu(a.bytes));
            self.banks[bank].ready = ready;
            self.bus_free[channel] = ready;
            self.stats.row_hits += hits;
            self.stats.count(&a, hits);
            i += hits;
        }
        ready
    }

    /// [`DramDevice::serve`], also returning the channel and bank used.
    #[inline]
    fn serve_mapped(&mut self, a: DramAccess) -> (Cycle, usize, usize) {
        debug_assert!(a.bytes > 0, "zero-length DRAM access");
        let (channel, bank_idx, row) = self.map(a.addr);
        let transfer = self.transfer_cpu(a.bytes);
        let bank = &mut self.banks[bank_idx];
        let start = a.at.max(bank.ready);
        let (array_latency, activated) = match bank.open_row {
            Some(open) if open == row => (self.t_cas_cpu, false),
            Some(_) => (self.t_rp_cpu + self.t_rcd_cpu + self.t_cas_cpu, true),
            None => (self.t_rcd_cpu + self.t_cas_cpu, true),
        };
        let data_ready = start + array_latency;
        let bus_start = data_ready.max(self.bus_free[channel]);
        let done = bus_start + transfer;

        bank.open_row = Some(row);
        bank.ready = done;
        self.bus_free[channel] = done;

        if activated {
            self.stats.activations += 1;
        } else {
            self.stats.row_hits += 1;
        }
        self.stats.count(&a, 1);

        (done, channel, bank_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_at(dev: &mut DramDevice, addr: u64, at: Cycle) -> Cycle {
        dev.serve(DramAccess {
            addr,
            bytes: 64,
            kind: AccessKind::Read,
            class: TrafficClass::Demand,
            at,
        })
    }

    #[test]
    fn demand_classes_reads_as_demand_and_writes_as_writeback() {
        use sim_types::PAddr;
        let at = Cycle::new(9);
        let read = MemReq::read(PAddr::new(0x1040), 32, Cycle::ZERO);
        assert_eq!(
            DramAccess::demand(&read, 0x40, at),
            DramAccess {
                addr: 0x40,
                bytes: 32,
                kind: AccessKind::Read,
                class: TrafficClass::Demand,
                at,
            }
        );
        let write = MemReq::write(PAddr::new(0x1040), 64, Cycle::ZERO);
        assert_eq!(
            DramAccess::demand(&write, 0x7f, at),
            DramAccess {
                addr: 0x7f,
                bytes: 64,
                kind: AccessKind::Write,
                class: TrafficClass::Writeback,
                at,
            }
        );
    }

    #[test]
    fn metadata_is_the_aligned_64_byte_line() {
        let at = Cycle::new(3);
        for (addr, line) in [(0, 0), (63, 0), (64, 64), (0x1238, 0x1200)] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                assert_eq!(
                    DramAccess::metadata(kind, addr, at),
                    DramAccess {
                        addr: line,
                        bytes: 64,
                        kind,
                        class: TrafficClass::Metadata,
                        at,
                    }
                );
            }
        }
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut dev = DramDevice::new(DeviceConfig::ddr4_far_memory());
        let t1 = read_at(&mut dev, 0, Cycle::ZERO);
        let t2 = read_at(&mut dev, 64, t1); // same row -> hit
        let miss_latency = t1 - Cycle::ZERO;
        let hit_latency = t2 - t1;
        assert!(
            hit_latency < miss_latency,
            "{hit_latency} !< {miss_latency}"
        );
        assert_eq!(dev.stats().row_hits, 1);
        assert_eq!(dev.stats().activations, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let cfg = DeviceConfig::ddr4_far_memory();
        let row_stride = cfg.row_bytes * u64::from(cfg.banks_per_channel) * u64::from(cfg.channels);
        let mut dev = DramDevice::new(cfg);
        let t1 = read_at(&mut dev, 0, Cycle::ZERO);
        // Same channel & bank, different row: conflict.
        let t2 = read_at(&mut dev, row_stride, t1);
        let first = t1 - Cycle::ZERO; // empty bank: tRCD+tCAS+transfer
        let conflict = t2 - t1; // tRP+tRCD+tCAS+transfer
        assert!(conflict > first);
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let cfg = DeviceConfig::hbm2_near_memory();
        let interleave = cfg.interleave_bytes;
        let mut dev = DramDevice::new(cfg);
        let a = read_at(&mut dev, 0, Cycle::ZERO);
        // Next interleave granule lands on channel 1; issued at time zero it
        // must not queue behind channel 0's access.
        let b = read_at(&mut dev, interleave, Cycle::ZERO);
        assert_eq!(a - Cycle::ZERO, b - Cycle::ZERO);
    }

    #[test]
    fn same_bank_back_to_back_serializes() {
        let mut dev = DramDevice::new(DeviceConfig::ddr4_far_memory());
        let t1 = read_at(&mut dev, 0, Cycle::ZERO);
        // Arrives at cycle 0 but the bank is busy until t1.
        let t2 = read_at(&mut dev, 64, Cycle::ZERO);
        assert!(t2 > t1);
    }

    #[test]
    fn completion_never_precedes_arrival() {
        let mut dev = DramDevice::new(DeviceConfig::hbm2_near_memory());
        let done = read_at(&mut dev, 4096, Cycle::new(1000));
        assert!(done > Cycle::new(1000));
    }

    #[test]
    fn nm_read_faster_than_fm_read_when_idle() {
        let mut nm = DramDevice::new(DeviceConfig::hbm2_near_memory());
        let mut fm = DramDevice::new(DeviceConfig::ddr4_far_memory());
        let n = read_at(&mut nm, 0, Cycle::ZERO) - Cycle::ZERO;
        let f = read_at(&mut fm, 0, Cycle::ZERO) - Cycle::ZERO;
        assert!(n < f);
    }

    #[test]
    fn bandwidth_saturation_fm_slower_than_nm() {
        // Stream 512 KiB through each device; FM (2 narrow channels) must
        // take substantially longer than NM (8 wide channels).
        let mut nm = DramDevice::new(DeviceConfig::hbm2_near_memory());
        let mut fm = DramDevice::new(DeviceConfig::ddr4_far_memory());
        let mut nm_done = Cycle::ZERO;
        let mut fm_done = Cycle::ZERO;
        for i in 0..8192u64 {
            nm_done = read_at(&mut nm, i * 64, Cycle::ZERO).max(nm_done);
            fm_done = read_at(&mut fm, i * 64, Cycle::ZERO).max(fm_done);
        }
        let ratio = (fm_done.raw()) as f64 / (nm_done.raw()) as f64;
        assert!(ratio > 3.0, "FM/NM streaming-time ratio was {ratio}");
    }

    #[test]
    fn stats_track_bytes_by_class() {
        let mut dev = DramDevice::new(DeviceConfig::hbm2_near_memory());
        dev.serve(DramAccess {
            addr: 0,
            bytes: 64,
            kind: AccessKind::Read,
            class: TrafficClass::Demand,
            at: Cycle::ZERO,
        });
        dev.serve(DramAccess {
            addr: 64,
            bytes: 128,
            kind: AccessKind::Write,
            class: TrafficClass::Migration,
            at: Cycle::ZERO,
        });
        assert_eq!(dev.stats().bytes(TrafficClass::Demand), 64);
        assert_eq!(dev.stats().bytes(TrafficClass::Migration), 128);
        assert_eq!(dev.stats().total_bytes(), 192);
        assert_eq!(dev.stats().reads, 1);
        assert_eq!(dev.stats().writes, 1);
    }

    #[test]
    fn energy_charged_per_burst_and_activation() {
        let mut dev = DramDevice::new(DeviceConfig::hbm2_near_memory());
        read_at(&mut dev, 0, Cycle::ZERO); // activation + 64B
        read_at(&mut dev, 64, Cycle::ZERO); // row hit + 64B
        assert_eq!(dev.energy().activations(), 1);
        // Two 64-byte bursts at 6.4 pJ/bit.
        let expected_rw = 2.0 * 64.0 * 8.0 * 6.4e-9; // mJ
        assert!((dev.energy().rw_mj() - expected_rw).abs() < 1e-12);
    }

    #[test]
    fn unbounded_serve_admits_at_arrival() {
        // On an idle device the latency does not depend on the arrival
        // cycle.
        let cfg = DeviceConfig::hbm2_near_memory;
        let idle = read_at(&mut DramDevice::new(cfg()), 0, Cycle::ZERO);
        let mut dev = DramDevice::new(cfg());
        let r = read_at(&mut dev, 0, Cycle::new(42));
        assert_eq!(r - Cycle::new(42), idle - Cycle::ZERO);
    }

    #[test]
    fn idle_device_rates_are_zero() {
        let dev = DramDevice::new(DeviceConfig::hbm2_near_memory());
        let s = dev.stats();
        assert_eq!(s.row_hits, 0);
        assert_eq!(s.mean_queue_occupancy(), 0.0);
        assert_eq!(s.queue_peak_occupancy, 0);
    }

    #[test]
    fn row_hit_rate_reporting() {
        let mut dev = DramDevice::new(DeviceConfig::ddr4_far_memory());
        read_at(&mut dev, 0, Cycle::ZERO);
        read_at(&mut dev, 64, Cycle::ZERO);
        read_at(&mut dev, 128, Cycle::ZERO);
        // One row opened, then two hits in it.
        assert_eq!((dev.stats().row_hits, dev.stats().accesses), (2, 3));
    }

    #[test]
    #[should_panic(expected = "invalid DRAM device configuration")]
    fn invalid_config_panics_on_construction() {
        let mut cfg = DeviceConfig::hbm2_near_memory();
        cfg.channels = 3;
        let _ = DramDevice::new(cfg);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Completion never precedes arrival, for any access sequence on
        /// either device.
        #[test]
        fn completion_follows_arrival(
            ops in proptest::collection::vec((0u64..1u64<<22, 1u32..4096, any::<bool>(), 0u64..10_000), 1..200),
            nm in any::<bool>(),
        ) {
            let cfg = if nm {
                DeviceConfig::hbm2_near_memory()
            } else {
                DeviceConfig::ddr4_far_memory()
            };
            let mut dev = DramDevice::new(cfg);
            let mut t = Cycle::ZERO;
            for (addr, bytes, write, gap) in ops {
                t += gap;
                let done = dev.serve(DramAccess {
                    addr,
                    bytes,
                    kind: if write { AccessKind::Write } else { AccessKind::Read },
                    class: TrafficClass::Demand,
                    at: t,
                });
                prop_assert!(done > t, "completion {done:?} must follow arrival {t:?}");
            }
        }

        /// Byte accounting is exact: total bytes equals the sum of burst
        /// lengths, and reads + writes equals accesses.
        #[test]
        fn stats_accounting_is_exact(
            ops in proptest::collection::vec((0u64..1u64<<20, 1u32..512, any::<bool>()), 1..100)
        ) {
            let mut dev = DramDevice::new(DeviceConfig::ddr4_far_memory());
            let mut expect_bytes = 0u64;
            for (addr, bytes, write) in &ops {
                expect_bytes += u64::from(*bytes);
                dev.serve(DramAccess {
                    addr: *addr,
                    bytes: *bytes,
                    kind: if *write { AccessKind::Write } else { AccessKind::Read },
                    class: TrafficClass::Migration,
                    at: Cycle::ZERO,
                });
            }
            prop_assert_eq!(dev.stats().total_bytes(), expect_bytes);
            prop_assert_eq!(dev.stats().reads + dev.stats().writes, ops.len() as u64);
            prop_assert_eq!(dev.stats().row_hits + dev.stats().activations, ops.len() as u64);
        }

        /// Replaying any access sequence through an independent closed-form
        /// oracle (bank-ready / open-row / bus-free recurrence) matches
        /// `serve` exactly.
        #[test]
        fn unbounded_serve_matches_closed_form_oracle(
            ops in proptest::collection::vec((0u64..1u64<<22, 1u32..4096, any::<bool>(), 0u64..10_000), 1..200),
            nm in any::<bool>(),
        ) {
            let cfg = if nm {
                DeviceConfig::hbm2_near_memory()
            } else {
                DeviceConfig::ddr4_far_memory()
            };
            let mut dev = DramDevice::new(cfg.clone());
            // Independent oracle state.
            let n_banks = (cfg.channels * cfg.banks_per_channel) as usize;
            let mut open_row: Vec<Option<u64>> = vec![None; n_banks];
            let mut bank_ready = vec![Cycle::ZERO; n_banks];
            let mut bus_free = vec![Cycle::ZERO; cfg.channels as usize];
            let t_cas = cfg.clock.to_cpu(cfg.t_cas);
            let t_rcd = cfg.clock.to_cpu(cfg.t_rcd);
            let t_rp = cfg.clock.to_cpu(cfg.t_rp);
            let chan_shift = cfg.interleave_bytes.trailing_zeros();
            let chan_mask = u64::from(cfg.channels) - 1;

            let mut t = Cycle::ZERO;
            for (addr, bytes, write, gap) in ops {
                t += gap;
                let a = DramAccess {
                    addr,
                    bytes,
                    kind: if write { AccessKind::Write } else { AccessKind::Read },
                    class: TrafficClass::Demand,
                    at: t,
                };
                // Oracle: same decomposition and recurrence as the
                // calculator.
                let channel = ((addr >> chan_shift) & chan_mask) as usize;
                let high = addr >> (chan_shift + chan_mask.count_ones());
                let low = addr & ((1 << chan_shift) - 1);
                let chan_addr = (high << chan_shift) | low;
                let row_global = chan_addr / cfg.row_bytes;
                let bank = channel * cfg.banks_per_channel as usize
                    + (row_global % u64::from(cfg.banks_per_channel)) as usize;
                let row = row_global / u64::from(cfg.banks_per_channel);
                let start = t.max(bank_ready[bank]);
                let lat = match open_row[bank] {
                    Some(open) if open == row => t_cas,
                    Some(_) => t_rp + t_rcd + t_cas,
                    None => t_rcd + t_cas,
                };
                let transfer = cfg.clock.to_cpu(cfg.transfer_cycles(bytes));
                let expect = (start + lat).max(bus_free[channel]) + transfer;
                open_row[bank] = Some(row);
                bank_ready[bank] = expect;
                bus_free[channel] = expect;

                let got = dev.serve(a);
                prop_assert_eq!(got, expect);
            }
        }

        /// Row-buffer hits are never slower than the conflict path would be:
        /// a second access to the same row from the same arrival time
        /// completes no later than one to a conflicting row.
        #[test]
        fn row_hit_no_slower_than_conflict(addr in (0u64..1u64<<20).prop_map(|a| a & !63)) {
            let cfg = DeviceConfig::ddr4_far_memory();
            let row_stride = cfg.row_bytes * u64::from(cfg.banks_per_channel) * u64::from(cfg.channels);
            let mk = |conflict: bool| {
                let mut dev = DramDevice::new(DeviceConfig::ddr4_far_memory());
                let t1 = dev.serve(DramAccess {
                    addr, bytes: 64, kind: AccessKind::Read,
                    class: TrafficClass::Demand, at: Cycle::ZERO,
                });
                let second = if conflict { addr + row_stride } else { addr ^ 64 };
                dev.serve(DramAccess {
                    addr: second, bytes: 64, kind: AccessKind::Read,
                    class: TrafficClass::Demand, at: t1,
                })
            };
            prop_assert!(mk(false) <= mk(true));
        }
    }
}
