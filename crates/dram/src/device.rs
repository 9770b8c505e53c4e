//! One DRAM device: channels, banks, row buffers, data buses.

use sim_types::{AccessKind, Cycle, TrafficClass};

use crate::config::DeviceConfig;
use crate::energy::EnergyCounter;
use crate::service::{BoundedQueue, ServiceModel, ServiceResult};

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

/// Per-bank state: which row is open and when the bank is next available.
#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    ready: Cycle,
}

/// Traffic statistics kept by a device, broken down by [`TrafficClass`].
#[derive(Clone, Debug, Default)]
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
    /// Admissions that found a service queue full (bounded model only; each
    /// queue level that pushes back counts once).
    pub queue_stalls: u64,
    /// Total cycles requests spent waiting for queue admission.
    pub queue_stall_cycles: u64,
    /// Sum over accesses of the post-issue occupancy of the channel and
    /// bank queues the access flowed through (bounded model only).
    pub queue_occupancy_sum: u64,
    /// Largest single-queue occupancy ever observed.
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

    /// Row-buffer hit rate in [0, 1]; 0 when idle.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Mean combined (channel + bank) queue occupancy seen per access;
    /// 0 when idle, and identically 0 under [`ServiceModel::Unbounded`].
    pub fn mean_queue_occupancy(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.queue_occupancy_sum as f64 / self.accesses as f64
        }
    }

    /// Fraction of accesses that suffered at least one queue-admission
    /// stall, in [0, 1]; 0 when idle.
    pub fn stall_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.queue_stalls as f64 / self.accesses as f64
        }
    }

    /// Mean queue-admission delay in cycles per access; 0 when idle.
    pub fn mean_stall_cycles(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.queue_stall_cycles as f64 / self.accesses as f64
        }
    }
}

/// A DRAM device (the NM HBM2 stack or the FM DDR4 DIMMs).
///
/// The device is a timing *calculator*: [`DramDevice::serve`] returns the
/// CPU cycle at which the burst completes, advancing bank and bus state.
/// Under [`ServiceModel::Queued`] a bounded FIFO per channel and per bank
/// front-ends the calculator and charges explicit backpressure delay.
/// Bank and bus state serialize accesses in *presentation* order, and the
/// queues retire entries at each arrival's cycle; both are exact only when
/// arrivals come in time order. The surrounding simulator does not
/// guarantee that: it picks cores smallest-cycle-first, but an access can
/// issue later than its pick clock, and schemes issue chained traffic at
/// future cycles. An access stamped earlier than one already presented
/// can thus wait behind it (the benchmark's
/// `machine.req_out_of_order_frac` reads about 0.68 on `lbm-stream`). The
/// ROADMAP item "Make DRAM arrival order causal" tracks the fix.
#[derive(Clone, Debug)]
pub struct DramDevice {
    cfg: DeviceConfig,
    banks: Vec<Bank>,
    bus_free: Vec<Cycle>,
    stats: DeviceStats,
    energy: EnergyCounter,
    model: ServiceModel,
    chan_queues: Vec<BoundedQueue>,
    bank_queues: Vec<BoundedQueue>,
    chan_mask: u64,
    chan_shift: u32,
    t_cas_cpu: u64,
    t_rcd_cpu: u64,
    t_rp_cpu: u64,
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
        let banks = vec![Bank::default(); n_banks];
        let bus_free = vec![Cycle::ZERO; cfg.channels as usize];
        let t_cas_cpu = cfg.clock.to_cpu(cfg.t_cas);
        let t_rcd_cpu = cfg.clock.to_cpu(cfg.t_rcd);
        let t_rp_cpu = cfg.clock.to_cpu(cfg.t_rp);
        DramDevice {
            chan_mask: u64::from(cfg.channels) - 1,
            chan_shift: cfg.interleave_bytes.trailing_zeros(),
            banks,
            bus_free,
            stats: DeviceStats::default(),
            energy: EnergyCounter::new(),
            model: ServiceModel::Unbounded,
            chan_queues: vec![BoundedQueue::new(); cfg.channels as usize],
            bank_queues: vec![BoundedQueue::new(); n_banks],
            t_cas_cpu,
            t_rcd_cpu,
            t_rp_cpu,
            cfg,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The active service model.
    pub fn service_model(&self) -> ServiceModel {
        self.model
    }

    /// Selects the service model. Call before issuing traffic: switching
    /// models mid-run would mix queued and unqueued admission state.
    pub fn set_service_model(&mut self, model: ServiceModel) {
        debug_assert_eq!(
            self.stats.accesses, 0,
            "service model must be chosen before traffic flows"
        );
        self.model = model;
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Accumulated dynamic energy.
    pub fn energy(&self) -> &EnergyCounter {
        &self.energy
    }

    /// Decomposes a device byte address into (channel, bank-index, row).
    fn map(&self, addr: u64) -> (usize, usize, u64) {
        let channel = ((addr >> self.chan_shift) & self.chan_mask) as usize;
        // Remove the channel bits so consecutive granules within a channel
        // are contiguous in bank/row space.
        let high = addr >> (self.chan_shift + self.chan_mask.count_ones());
        let low = addr & ((1 << self.chan_shift) - 1);
        let chan_addr = (high << self.chan_shift) | low;
        let row_global = chan_addr / self.cfg.row_bytes;
        let bank_in_chan = (row_global % u64::from(self.cfg.banks_per_channel)) as usize;
        let row = row_global / u64::from(self.cfg.banks_per_channel);
        let bank = channel * self.cfg.banks_per_channel as usize + bank_in_chan;
        (channel, bank, row)
    }

    /// Serves one access and returns its completion cycle; shorthand for
    /// [`DramDevice::serve`]`.ready`.
    pub fn access(&mut self, a: DramAccess) -> Cycle {
        self.serve(a).ready
    }

    /// Serves one access and returns its completion and admission cycles.
    ///
    /// Under [`ServiceModel::Queued`] the access is first admitted through
    /// the bounded channel queue, then the bounded bank queue; a full queue
    /// delays admission until its oldest in-flight entry drains
    /// (backpressure), and the delay is charged ahead of the array timing.
    /// Under [`ServiceModel::Unbounded`] admission is immediate and the
    /// path below is exactly the pre-service-layer closed form.
    ///
    /// Timing: the access starts when the bank is free and the request has
    /// been admitted; a row hit pays tCAS, a row conflict pays tRP+tRCD+tCAS,
    /// an empty bank pays tRCD+tCAS; data transfer then waits for the channel
    /// data bus and occupies it for the burst duration.
    pub fn serve(&mut self, a: DramAccess) -> ServiceResult {
        debug_assert!(a.bytes > 0, "zero-length DRAM access");
        let (channel, bank_idx, row) = self.map(a.addr);

        let queued = match self.model {
            ServiceModel::Unbounded => a.at,
            ServiceModel::Queued { depth } => {
                let mut t = a.at;
                for q in [
                    &mut self.chan_queues[channel],
                    &mut self.bank_queues[bank_idx],
                ] {
                    match q.admit(t, depth) {
                        Ok(admitted) => t = admitted,
                        Err(bp) => {
                            self.stats.queue_stalls += 1;
                            self.stats.queue_stall_cycles += bp.until - t;
                            t = bp.until;
                        }
                    }
                }
                t
            }
        };

        let bank = &mut self.banks[bank_idx];
        let start = queued.max(bank.ready);
        let (array_latency, activated) = match bank.open_row {
            Some(open) if open == row => (self.t_cas_cpu, false),
            Some(_) => (self.t_rp_cpu + self.t_rcd_cpu + self.t_cas_cpu, true),
            None => (self.t_rcd_cpu + self.t_cas_cpu, true),
        };
        let data_ready = start + array_latency;
        let transfer = self.cfg.clock.to_cpu(self.cfg.transfer_cycles(a.bytes));
        let bus_start = data_ready.max(self.bus_free[channel]);
        let done = bus_start + transfer;

        bank.open_row = Some(row);
        bank.ready = done;
        self.bus_free[channel] = done;

        if let ServiceModel::Queued { .. } = self.model {
            self.chan_queues[channel].push(done);
            self.bank_queues[bank_idx].push(done);
            let chan_occ = self.chan_queues[channel].occupancy() as u64;
            let bank_occ = self.bank_queues[bank_idx].occupancy() as u64;
            self.stats.queue_occupancy_sum += chan_occ + bank_occ;
            self.stats.queue_peak_occupancy =
                self.stats.queue_peak_occupancy.max(chan_occ.max(bank_occ));
        }

        self.stats.accesses += 1;
        if activated {
            self.stats.activations += 1;
            self.energy.add_activation(self.cfg.act_pre_pj);
        } else {
            self.stats.row_hits += 1;
        }
        match a.kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        self.stats.bytes_by_class[a.class.index()] += u64::from(a.bytes);
        self.energy
            .add_burst(u64::from(a.bytes), self.cfg.rw_fj_per_bit);

        ServiceResult {
            ready: done,
            queued,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_at(dev: &mut DramDevice, addr: u64, at: Cycle) -> Cycle {
        dev.access(DramAccess {
            addr,
            bytes: 64,
            kind: AccessKind::Read,
            class: TrafficClass::Demand,
            at,
        })
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
        dev.access(DramAccess {
            addr: 0,
            bytes: 64,
            kind: AccessKind::Read,
            class: TrafficClass::Demand,
            at: Cycle::ZERO,
        });
        dev.access(DramAccess {
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
        let mut dev = DramDevice::new(DeviceConfig::hbm2_near_memory());
        let r = dev.serve(DramAccess {
            addr: 0,
            bytes: 64,
            kind: AccessKind::Read,
            class: TrafficClass::Demand,
            at: Cycle::new(42),
        });
        assert_eq!(r.queued, Cycle::new(42));
        assert!(r.ready > r.queued);
        assert_eq!(r.queue_delay(Cycle::new(42)), 0);
    }

    #[test]
    fn queued_depth_one_backpressures_bank_conflicts() {
        let mut dev = DramDevice::new(DeviceConfig::ddr4_far_memory());
        dev.set_service_model(ServiceModel::Queued { depth: 1 });
        let first = dev.serve(DramAccess {
            addr: 0,
            bytes: 64,
            kind: AccessKind::Read,
            class: TrafficClass::Demand,
            at: Cycle::ZERO,
        });
        // Same channel, arrives while the first is still in flight: the
        // depth-1 channel queue pushes back to the first one's drain.
        let second = dev.serve(DramAccess {
            addr: 64,
            bytes: 64,
            kind: AccessKind::Read,
            class: TrafficClass::Demand,
            at: Cycle::ZERO,
        });
        assert_eq!(second.queued, first.ready);
        assert!(dev.stats().queue_stalls >= 1);
        assert_eq!(
            dev.stats().queue_stall_cycles,
            dev.stats().queue_stalls * (first.ready - Cycle::ZERO)
        );
        assert!(dev.stats().stall_rate() > 0.0);
    }

    #[test]
    fn queued_never_beats_unbounded() {
        for depth in [1, 2, 8] {
            let mut free = DramDevice::new(DeviceConfig::ddr4_far_memory());
            let mut queued = DramDevice::new(DeviceConfig::ddr4_far_memory());
            queued.set_service_model(ServiceModel::Queued { depth });
            for i in 0..64u64 {
                let a = DramAccess {
                    addr: (i * 64) % 4096,
                    bytes: 64,
                    kind: AccessKind::Read,
                    class: TrafficClass::Demand,
                    at: Cycle::new(i),
                };
                assert!(queued.serve(a).ready >= free.serve(a).ready);
            }
        }
    }

    #[test]
    fn idle_device_rates_are_zero() {
        let dev = DramDevice::new(DeviceConfig::hbm2_near_memory());
        let s = dev.stats();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.mean_queue_occupancy(), 0.0);
        assert_eq!(s.stall_rate(), 0.0);
        assert_eq!(s.mean_stall_cycles(), 0.0);
        assert_eq!(s.queue_peak_occupancy, 0);
    }

    #[test]
    fn unbounded_device_keeps_queue_telemetry_zero() {
        let mut dev = DramDevice::new(DeviceConfig::hbm2_near_memory());
        for i in 0..32u64 {
            read_at(&mut dev, i * 64, Cycle::ZERO);
        }
        let s = dev.stats();
        assert_eq!(s.queue_stalls, 0);
        assert_eq!(s.queue_stall_cycles, 0);
        assert_eq!(s.queue_occupancy_sum, 0);
        assert_eq!(s.queue_peak_occupancy, 0);
        assert_eq!(s.mean_queue_occupancy(), 0.0);
        assert_eq!(s.stall_rate(), 0.0);
    }

    #[test]
    fn row_hit_rate_reporting() {
        let mut dev = DramDevice::new(DeviceConfig::ddr4_far_memory());
        assert_eq!(dev.stats().row_hit_rate(), 0.0);
        read_at(&mut dev, 0, Cycle::ZERO);
        read_at(&mut dev, 64, Cycle::ZERO);
        read_at(&mut dev, 128, Cycle::ZERO);
        let r = dev.stats().row_hit_rate();
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
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
                let done = dev.access(DramAccess {
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
                dev.access(DramAccess {
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

        /// The service layer under `Unbounded` is a pure refactor: replaying
        /// any access sequence through an independent closed-form oracle
        /// (bank-ready / open-row / bus-free recurrence) matches `serve`
        /// exactly, admission included.
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
                // pre-service-layer calculator.
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
                prop_assert_eq!(got.ready, expect);
                prop_assert_eq!(got.queued, t, "unbounded admission must be immediate");
            }
            prop_assert_eq!(dev.stats().queue_stalls, 0);
            prop_assert_eq!(dev.stats().queue_occupancy_sum, 0);
        }

        /// Shrinking the service-queue depth never makes any access finish
        /// earlier: for the same access sequence, every completion under
        /// depth `d2 <= d1` is >= the completion under `d1` (and unbounded
        /// lower-bounds both).
        #[test]
        fn smaller_depth_never_finishes_earlier(
            ops in proptest::collection::vec((0u64..1u64<<20, 1u32..1024, any::<bool>(), 0u64..2_000), 1..150),
            depths in (1u32..64, 1u32..64),
            nm in any::<bool>(),
        ) {
            let cfg = if nm {
                DeviceConfig::hbm2_near_memory()
            } else {
                DeviceConfig::ddr4_far_memory()
            };
            let (a, b) = depths;
            let (small, large) = (a.min(b), a.max(b));
            let mut dev_small = DramDevice::new(cfg.clone());
            dev_small.set_service_model(ServiceModel::Queued { depth: small });
            let mut dev_large = DramDevice::new(cfg.clone());
            dev_large.set_service_model(ServiceModel::Queued { depth: large });
            let mut dev_free = DramDevice::new(cfg);

            let mut t = Cycle::ZERO;
            for (addr, bytes, write, gap) in ops {
                t += gap;
                let acc = DramAccess {
                    addr,
                    bytes,
                    kind: if write { AccessKind::Write } else { AccessKind::Read },
                    class: TrafficClass::Demand,
                    at: t,
                };
                let r_small = dev_small.serve(acc);
                let r_large = dev_large.serve(acc);
                let r_free = dev_free.serve(acc);
                prop_assert!(
                    r_small.ready >= r_large.ready,
                    "depth {} finished {:?} before depth {} at {:?}",
                    small, r_small.ready, large, r_large.ready
                );
                prop_assert!(r_large.ready >= r_free.ready);
                prop_assert!(r_small.queued >= r_large.queued);
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
                let t1 = dev.access(DramAccess {
                    addr, bytes: 64, kind: AccessKind::Read,
                    class: TrafficClass::Demand, at: Cycle::ZERO,
                });
                let second = if conflict { addr + row_stride } else { addr ^ 64 };
                dev.access(DramAccess {
                    addr: second, bytes: 64, kind: AccessKind::Read,
                    class: TrafficClass::Demand, at: t1,
                })
            };
            prop_assert!(mk(false) <= mk(true));
        }
    }
}
