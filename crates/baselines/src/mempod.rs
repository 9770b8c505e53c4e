//! MemPod (Prodromou et al., HPCA 2017).
//!
//! MemPod clusters NM and FM into *pods* for scalability and, inside each
//! pod, uses the Majority Element Algorithm to identify the hottest 2 KB
//! blocks of each 50 µs interval; at the interval boundary those blocks are
//! swapped into the pod's NM slice, with victims chosen round-robin (FIFO).
//! The paper's design-space exploration settled on 64 MEA counters per pod.

use dram::{DramAccess, DramSystem, MemoryScheme, SchemeStats, Served};
use sim_types::{Cycle, MemReq};

use crate::flat::FlatRemap;
use crate::mea::MeaCounters;
use crate::INTERVAL_CYCLES;

/// Configuration of MemPod.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemPodConfig {
    /// NM capacity in bytes.
    pub nm_bytes: u64,
    /// FM capacity in bytes.
    pub fm_bytes: u64,
    /// Migration block size (2 KB in the paper).
    pub block_bytes: u64,
    /// Number of pods (one per NM channel: 8).
    pub pods: u32,
    /// MEA counters per pod (paper's best: 64).
    pub mea_counters: usize,
    /// Interval length in CPU cycles (50 µs).
    pub interval_cycles: u64,
    /// On-chip remap-cache size in bytes (matched to the XTA for fairness).
    pub remap_cache_bytes: u64,
}

impl MemPodConfig {
    /// The paper's configuration over the given capacities.
    pub fn paper_default(nm_bytes: u64, fm_bytes: u64, remap_cache_bytes: u64) -> Self {
        MemPodConfig {
            nm_bytes,
            fm_bytes,
            block_bytes: 2048,
            pods: 8,
            mea_counters: 64,
            interval_cycles: INTERVAL_CYCLES,
            remap_cache_bytes,
        }
    }
}

#[derive(Clone, Debug)]
struct Pod {
    mea: MeaCounters,
    fifo: u64,
}

/// The MemPod migration controller.
#[derive(Clone, Debug)]
pub struct MemPod {
    cfg: MemPodConfig,
    flat: FlatRemap,
    pods: Vec<Pod>,
    slots_per_pod: u64,
    stats: SchemeStats,
}

impl MemPod {
    /// Builds the controller.
    ///
    /// # Panics
    ///
    /// Panics if NM cannot be split evenly across the pods.
    pub fn new(cfg: MemPodConfig) -> Self {
        let nm_blocks = cfg.nm_bytes / cfg.block_bytes;
        let fm_blocks = cfg.fm_bytes / cfg.block_bytes;
        assert!(
            nm_blocks.is_multiple_of(u64::from(cfg.pods)),
            "NM blocks must divide evenly across pods"
        );
        let flat = FlatRemap::new(cfg.block_bytes, nm_blocks, fm_blocks, cfg.remap_cache_bytes);
        MemPod {
            slots_per_pod: nm_blocks / u64::from(cfg.pods),
            pods: (0..cfg.pods)
                .map(|_| Pod {
                    mea: MeaCounters::new(cfg.mea_counters),
                    fifo: 0,
                })
                .collect(),
            flat,
            stats: SchemeStats::default(),
            cfg,
        }
    }

    /// Pod owning flat block `b` (block-interleaved).
    fn pod_of(&self, block: u64) -> usize {
        (block % u64::from(self.cfg.pods)) as usize
    }

    /// Shared remapping substrate (inspection/testing).
    pub fn flat(&self) -> &FlatRemap {
        &self.flat
    }
}

impl MemoryScheme for MemPod {
    fn name(&self) -> &'static str {
        "MPOD"
    }

    fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served {
        self.stats.count(req);
        let block = self.flat.block_of(req.addr);
        let offset = req.addr.raw() % self.cfg.block_bytes;
        let (loc, ready) = self.flat.locate(block, req.at, dram);
        self.flat.book_metadata(&mut self.stats);
        if loc.is_nm() {
            self.stats.lookup_hits += 1;
            self.stats.served_from_nm += 1;
        } else {
            self.stats.lookup_misses += 1;
            let pod = self.pod_of(block);
            self.pods[pod].mea.observe(block);
        }
        let (side, addr) = self.flat.device_addr(loc, offset);
        let done = dram
            .device_mut(side)
            .serve(DramAccess::demand(req, addr, ready));
        Served::new(done, loc.is_nm())
    }

    fn on_tick(&mut self, now: Cycle, dram: &mut DramSystem) {
        let pods = u64::from(self.cfg.pods);
        // Hardware spreads migration traffic across the interval rather
        // than firing every swap in one cycle; stagger arrivals so demand
        // requests are not buried behind the whole migration batch.
        let mut at = now;
        let spread = 4 * self.cfg.block_bytes / 16; // ~2 block transfers
        for p in 0..self.pods.len() {
            let candidates = self.pods[p].mea.candidates();
            // Streaming floods the MEA with count-1 survivors; migrating
            // them is pure churn (they will not be touched again). Keep the
            // blocks the algorithm actually certifies as frequent.
            let migrating: Vec<u64> = candidates
                .iter()
                .filter(|&&(_, count)| count >= 2)
                .map(|&(b, _)| b)
                .filter(|&b| !self.flat.peek(b).is_nm())
                .collect();
            for &block in &migrating {
                // Round-robin victim slot inside this pod, skipping slots
                // holding blocks that are migrating this interval.
                let mut slot = None;
                for _ in 0..self.slots_per_pod {
                    let s = p as u64 + pods * (self.pods[p].fifo % self.slots_per_pod);
                    self.pods[p].fifo += 1;
                    if !migrating.contains(&self.flat.block_at(s)) {
                        slot = Some(s);
                        break;
                    }
                }
                let Some(slot) = slot else { break };
                self.flat.swap_into_nm(block, slot, 0, at, dram);
                at += spread;
                self.stats.moved_into_nm += 1;
                self.stats.moved_out_of_nm += 1;
            }
            self.pods[p].mea.reset();
        }
        self.flat.book_metadata(&mut self.stats);
    }

    fn tick_period(&self) -> Option<u64> {
        Some(self.cfg.interval_cycles)
    }

    fn flat_capacity_bytes(&self) -> u64 {
        self.flat.flat_capacity_bytes()
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::{PAddr, TrafficClass};

    fn mempod() -> (MemPod, DramSystem) {
        let cfg = MemPodConfig {
            nm_bytes: 64 * 1024,
            fm_bytes: 1024 * 1024,
            block_bytes: 2048,
            pods: 4,
            mea_counters: 8,
            interval_cycles: 1000,
            remap_cache_bytes: 4096,
        };
        (MemPod::new(cfg), DramSystem::paper_default())
    }

    #[test]
    fn nm_blocks_serve_from_nm() {
        let (mut m, mut dram) = mempod();
        let s = m.access(&MemReq::read(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        assert!(s.from_nm, "block 0 boots in NM");
        let far = PAddr::new(512 * 1024);
        let s = m.access(&MemReq::read(far, 64, Cycle::ZERO), &mut dram);
        assert!(!s.from_nm);
    }

    #[test]
    fn hot_fm_block_migrates_at_interval() {
        let (mut m, mut dram) = mempod();
        let hot = PAddr::new(512 * 1024); // an FM-resident block
        let block = m.flat().block_of(hot);
        for i in 0..50 {
            m.access(&MemReq::read(hot, 64, Cycle::new(i * 10)), &mut dram);
        }
        m.on_tick(Cycle::new(1000), &mut dram);
        assert!(m.flat().peek(block).is_nm(), "hot block must migrate");
        assert!(m.stats().moved_into_nm >= 1);
        m.flat().check_invariants().unwrap();
        // Subsequent accesses come from NM.
        let s = m.access(&MemReq::read(hot, 64, Cycle::new(2000)), &mut dram);
        assert!(s.from_nm);
    }

    #[test]
    fn swaps_charge_migration_traffic() {
        let (mut m, mut dram) = mempod();
        let hot = PAddr::new(512 * 1024);
        for i in 0..50 {
            m.access(&MemReq::read(hot, 64, Cycle::new(i * 10)), &mut dram);
        }
        m.on_tick(Cycle::new(1000), &mut dram);
        let mig = dram
            .device(sim_types::MemSide::Fm)
            .stats()
            .bytes(TrafficClass::Migration);
        assert!(mig >= 2 * 2048, "swap moves a block each way");
    }

    #[test]
    fn mea_resets_each_interval() {
        let (mut m, mut dram) = mempod();
        let warm = PAddr::new(512 * 1024);
        m.access(&MemReq::read(warm, 64, Cycle::ZERO), &mut dram);
        m.on_tick(Cycle::new(1000), &mut dram);
        for p in &m.pods {
            assert!(p.mea.is_empty());
        }
    }

    #[test]
    fn pods_partition_blocks() {
        let (m, _) = mempod();
        assert_eq!(m.pod_of(0), 0);
        assert_eq!(m.pod_of(5), 1);
        assert_eq!(m.pod_of(7), 3);
    }

    #[test]
    fn capacity_includes_nm() {
        let (m, _) = mempod();
        assert_eq!(m.flat_capacity_bytes(), 64 * 1024 + 1024 * 1024);
        assert_eq!(m.name(), "MPOD");
    }

    /// Remap-table reads after the last tick and the two table writes of
    /// every swap reach `SchemeStats`: 20 000 reads, one tick every 2 500,
    /// the last at read 17 500.
    #[test]
    fn metadata_counters_match_the_remap_table_traffic() {
        let (mut m, mut dram) = mempod();
        let mut rng = sim_types::rng::SplitMix64::new(11);
        let cap = m.flat_capacity_bytes();
        for op in 1..=20_000u64 {
            let a = PAddr::new(rng.gen_range(cap / 64) * 64);
            m.access(&MemReq::read(a, 64, Cycle::new(op * 5)), &mut dram);
            if op % 2_500 == 0 && op <= 17_500 {
                m.on_tick(Cycle::new(op * 5), &mut dram);
            }
        }
        m.on_finish();
        let s = m.stats();
        assert!(m.flat().swaps > 0, "the probe must migrate");
        assert_eq!(s.metadata_reads, m.flat().table_reads);
        assert_eq!(s.metadata_writes, 2 * m.flat().swaps);
        let nm_metadata_lines = dram
            .device(sim_types::MemSide::Nm)
            .stats()
            .bytes(TrafficClass::Metadata)
            / 64;
        assert_eq!(s.metadata_reads + s.metadata_writes, nm_metadata_lines);
    }

    #[test]
    fn many_intervals_keep_bijection() {
        let (mut m, mut dram) = mempod();
        let mut rng = sim_types::rng::SplitMix64::new(3);
        let cap = m.flat_capacity_bytes();
        let mut t = Cycle::ZERO;
        for interval in 0..20 {
            for _ in 0..200 {
                let a = PAddr::new(rng.gen_range(cap / 64) * 64);
                m.access(&MemReq::read(a, 64, t), &mut dram);
                t += 5;
            }
            m.on_tick(Cycle::new((interval + 1) * 1000), &mut dram);
            m.flat().check_invariants().unwrap();
        }
    }
}
