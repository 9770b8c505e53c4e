//! LLC-Guided data Migration (Vasilakis et al., IPDPS 2019).
//!
//! LGM watches the last-level cache to learn which 2 KB segments exhibit
//! spatial locality worth migrating, and *economizes migration bandwidth*
//! two ways: it only migrates segments whose observed line coverage is
//! dense, and it skips transferring lines that are present in the LLC —
//! those are simply marked dirty there and written back to the segment's
//! new home on natural LLC eviction. Migration volume per 50 µs interval is
//! bounded by a high watermark (the paper's exploration: 256 segments).
//!
//! Our model feeds LGM the LLC-miss stream (every miss is an LLC fill, so
//! per-interval per-segment fill masks are exactly the "lines now in the
//! LLC" information the hardware observes).

use std::collections::HashMap;

use dram::{DramAccess, DramSystem, MemoryScheme, SchemeStats, Served};
use sim_types::{Cycle, MemReq};

use crate::flat::FlatRemap;
use crate::INTERVAL_CYCLES;

/// Configuration of LGM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LgmConfig {
    /// NM capacity in bytes.
    pub nm_bytes: u64,
    /// FM capacity in bytes.
    pub fm_bytes: u64,
    /// Segment (migration block) size in bytes (2 KB).
    pub block_bytes: u64,
    /// Maximum segments migrated per interval (paper's best: 256).
    pub watermark: u32,
    /// Minimum distinct 64 B lines observed in a segment before it is a
    /// migration candidate (spatial-locality filter).
    pub min_lines: u32,
    /// Interval length in CPU cycles (50 µs).
    pub interval_cycles: u64,
    /// On-chip remap-cache size in bytes (matched to the XTA).
    pub remap_cache_bytes: u64,
}

impl LgmConfig {
    /// The paper's configuration over the given capacities.
    pub fn paper_default(nm_bytes: u64, fm_bytes: u64, remap_cache_bytes: u64) -> Self {
        LgmConfig {
            nm_bytes,
            fm_bytes,
            block_bytes: 2048,
            watermark: 256,
            min_lines: 8,
            interval_cycles: INTERVAL_CYCLES,
            remap_cache_bytes,
        }
    }
}

/// The LGM migration controller.
#[derive(Clone, Debug)]
pub struct Lgm {
    cfg: LgmConfig,
    flat: FlatRemap,
    /// Per-interval activity: segment -> (miss count, 64 B line mask).
    activity: HashMap<u64, (u32, u64)>,
    fifo: u64,
    stats: SchemeStats,
    /// Lines skipped thanks to LLC presence (bandwidth saved), for reports.
    pub lines_skipped: u64,
}

impl Lgm {
    /// Builds the controller.
    pub fn new(cfg: LgmConfig) -> Self {
        let nm_blocks = cfg.nm_bytes / cfg.block_bytes;
        let fm_blocks = cfg.fm_bytes / cfg.block_bytes;
        Lgm {
            flat: FlatRemap::new(cfg.block_bytes, nm_blocks, fm_blocks, cfg.remap_cache_bytes),
            activity: HashMap::new(),
            fifo: 0,
            stats: SchemeStats::default(),
            lines_skipped: 0,
            cfg,
        }
    }

    /// Shared remapping substrate (inspection/testing).
    pub fn flat(&self) -> &FlatRemap {
        &self.flat
    }
}

impl MemoryScheme for Lgm {
    fn name(&self) -> &'static str {
        "LGM"
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
            // Observe the LLC fill: which line of the segment was brought
            // on-chip.
            let line = (offset / 64).min(63);
            let e = self.activity.entry(block).or_insert((0, 0));
            e.0 += 1;
            e.1 |= 1u64 << line;
        }
        let (side, addr) = self.flat.device_addr(loc, offset);
        let done = dram
            .device_mut(side)
            .serve(DramAccess::demand(req, addr, ready));
        Served::new(done, loc.is_nm())
    }

    fn on_tick(&mut self, now: Cycle, dram: &mut DramSystem) {
        // Rank candidates by observed spatial density, then miss count.
        let mut candidates: Vec<(u64, u32, u64)> = self
            .activity
            .iter()
            .filter(|(_, (_, mask))| mask.count_ones() >= self.cfg.min_lines)
            .map(|(&b, &(count, mask))| (b, count, mask))
            .collect();
        candidates.sort_by(|a, b| (b.2.count_ones(), b.1, a.0).cmp(&(a.2.count_ones(), a.1, b.0)));
        candidates.truncate(self.cfg.watermark as usize);
        // Spread migration traffic across the interval (see MemPod).
        let mut at = now;
        let spread = 4 * self.cfg.block_bytes / 16;
        let migrating: Vec<u64> = candidates
            .iter()
            .map(|c| c.0)
            .filter(|&b| !self.flat.peek(b).is_nm())
            .collect();
        for &(block, _, mask) in &candidates {
            if !migrating.contains(&block) {
                continue;
            }
            // FIFO victim selection over NM slots (§3.5 of Hybrid2 credits
            // this policy to LGM and MemPod), skipping same-interval blocks.
            let nm_blocks = self.flat.nm_blocks();
            let mut slot = None;
            for _ in 0..nm_blocks {
                let s = self.fifo % nm_blocks;
                self.fifo += 1;
                if !migrating.contains(&self.flat.block_at(s)) {
                    slot = Some(s);
                    break;
                }
            }
            let Some(slot) = slot else { break };
            // Lines observed in the LLC this interval are *not* moved: the
            // LLC marks them dirty and writes them back to the new home.
            self.lines_skipped += u64::from(mask.count_ones());
            self.flat.swap_into_nm(block, slot, mask, at, dram);
            at += spread;
            self.stats.moved_into_nm += 1;
            self.stats.moved_out_of_nm += 1;
        }
        self.activity.clear();
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
    use sim_types::PAddr;

    fn lgm() -> (Lgm, DramSystem) {
        let cfg = LgmConfig {
            nm_bytes: 64 * 1024,
            fm_bytes: 1024 * 1024,
            block_bytes: 2048,
            watermark: 4,
            min_lines: 4,
            interval_cycles: 1000,
            remap_cache_bytes: 4096,
        };
        (Lgm::new(cfg), DramSystem::paper_default())
    }

    /// Touch `n` distinct 64 B lines of the segment at `base`.
    fn touch_lines(l: &mut Lgm, dram: &mut DramSystem, base: u64, n: u64) {
        for i in 0..n {
            l.access(
                &MemReq::read(PAddr::new(base + i * 64), 64, Cycle::ZERO),
                dram,
            );
        }
    }

    #[test]
    fn dense_segment_migrates_sparse_does_not() {
        let (mut l, mut dram) = lgm();
        let dense = 512 * 1024u64;
        let sparse = 768 * 1024u64;
        touch_lines(&mut l, &mut dram, dense, 16); // 16 lines: dense
        touch_lines(&mut l, &mut dram, sparse, 2); // 2 lines: sparse
        l.on_tick(Cycle::new(1000), &mut dram);
        assert!(
            l.flat().peek(dense / 2048).is_nm(),
            "dense segment migrates"
        );
        assert!(
            !l.flat().peek(sparse / 2048).is_nm(),
            "sparse segment stays in FM"
        );
        l.flat().check_invariants().unwrap();
    }

    #[test]
    fn llc_present_lines_are_skipped() {
        let (mut l, mut dram) = lgm();
        let seg = 512 * 1024u64;
        touch_lines(&mut l, &mut dram, seg, 16);
        let before = dram.device(sim_types::MemSide::Fm).stats().reads;
        l.on_tick(Cycle::new(1000), &mut dram);
        let mig_reads = dram.device(sim_types::MemSide::Fm).stats().reads - before;
        // 32 lines per 2 KB segment, 16 observed in the LLC -> only 16 read.
        assert_eq!(mig_reads, 16);
        assert_eq!(l.lines_skipped, 16);
    }

    #[test]
    fn watermark_caps_migrations_per_interval() {
        let (mut l, mut dram) = lgm();
        // Make 10 dense FM segments; watermark is 4.
        for s in 0..10u64 {
            touch_lines(&mut l, &mut dram, 512 * 1024 + s * 2048, 8);
        }
        l.on_tick(Cycle::new(1000), &mut dram);
        assert!(l.stats().moved_into_nm <= 4);
        assert!(l.stats().moved_into_nm >= 1);
        // Each swap writes both blocks' remap-table entries.
        assert_eq!(l.stats().metadata_writes, 2 * l.stats().moved_into_nm);
    }

    #[test]
    fn activity_clears_between_intervals() {
        let (mut l, mut dram) = lgm();
        touch_lines(&mut l, &mut dram, 512 * 1024, 3); // below min_lines
        l.on_tick(Cycle::new(1000), &mut dram);
        assert!(l.activity.is_empty());
        assert_eq!(l.stats().moved_into_nm, 0);
    }

    #[test]
    fn nm_segments_serve_from_nm() {
        let (mut l, mut dram) = lgm();
        let s = l.access(&MemReq::read(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        assert!(s.from_nm);
        assert_eq!(l.stats().served_from_nm, 1);
    }

    #[test]
    fn capacity_and_name() {
        let (l, _) = lgm();
        assert_eq!(l.flat_capacity_bytes(), 64 * 1024 + 1024 * 1024);
        assert_eq!(l.name(), "LGM");
    }

    #[test]
    fn repeated_intervals_keep_bijection() {
        let (mut l, mut dram) = lgm();
        let mut rng = sim_types::rng::SplitMix64::new(4);
        let cap = l.flat_capacity_bytes();
        for i in 0..15 {
            for _ in 0..300 {
                let a = PAddr::new(rng.gen_range(cap / 64) * 64);
                l.access(&MemReq::read(a, 64, Cycle::new(i * 1000)), &mut dram);
            }
            l.on_tick(Cycle::new((i + 1) * 1000), &mut dram);
            l.flat().check_invariants().unwrap();
        }
    }
}
