//! The Tagless DRAM cache (Lee et al., ISCA 2015).
//!
//! The Tagless design tracks DRAM-cache contents through the page tables
//! and TLBs, so a lookup costs nothing — but the cache must operate at OS
//! page granularity (4 KB): every miss fetches a whole page, the over-fetch
//! behaviour that Figure 13 shows demolishing omnetpp and deepsjeng. Per
//! the paper's methodology we "optimistically do not model any operating
//! system overheads"; replacement is a clock (second-chance) approximation
//! of LRU over a fully associative frame pool.

use std::collections::HashMap;

use dram::{DramSystem, MemoryScheme, SchemeStats, Served};
use sim_types::MemReq;

use crate::line_cache::{self, Fill};

/// Configuration of the Tagless cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaglessConfig {
    /// NM capacity in bytes (all of it becomes page frames).
    pub nm_bytes: u64,
    /// FM (main memory) capacity in bytes.
    pub fm_bytes: u64,
    /// Page size in bytes (4 KB in the paper, and at most 4 KB, so a page's
    /// 64 B lines fit one copy mask).
    pub page_bytes: u64,
}

impl TaglessConfig {
    /// The paper's configuration over the given capacities.
    pub fn new(nm_bytes: u64, fm_bytes: u64) -> Self {
        TaglessConfig {
            nm_bytes,
            fm_bytes,
            page_bytes: 4096,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Frame {
    page: u64,
    valid: bool,
    dirty: bool,
    referenced: bool,
}

/// The page-granular, tag-free DRAM cache.
#[derive(Clone, Debug)]
pub struct Tagless {
    cfg: TaglessConfig,
    frames: Vec<Frame>,
    map: HashMap<u64, u32>,
    hand: usize,
    stats: SchemeStats,
}

impl Tagless {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the page size is not a power of two from 64 B to 4 KB or
    /// NM holds no full page.
    pub fn new(cfg: TaglessConfig) -> Self {
        assert!(cfg.page_bytes.is_power_of_two() && cfg.page_bytes >= 64);
        assert!(cfg.page_bytes <= 4096, "at most 64 lines of 64 B per page");
        let frames = cfg.nm_bytes / cfg.page_bytes;
        assert!(frames > 0, "NM must hold at least one page");
        Tagless {
            frames: vec![Frame::default(); frames as usize],
            map: HashMap::new(),
            hand: 0,
            stats: SchemeStats::default(),
            cfg,
        }
    }

    /// Clock (second-chance) victim selection.
    fn pick_frame(&mut self) -> usize {
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let f = &mut self.frames[idx];
            if !f.valid {
                return idx;
            }
            if f.referenced {
                f.referenced = false;
            } else {
                return idx;
            }
        }
    }
}

impl MemoryScheme for Tagless {
    fn name(&self) -> &'static str {
        "TAGLESS"
    }

    fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served {
        let write = self.stats.count(req);
        let page_bytes = self.cfg.page_bytes;
        let page = req.addr.raw() / page_bytes;

        if let Some(&frame) = self.map.get(&page) {
            // Page-table hit: zero lookup cost, direct NM access.
            let f = &mut self.frames[frame as usize];
            f.referenced = true;
            f.dirty |= write;
            let addr = u64::from(frame) * page_bytes + req.addr.raw() % page_bytes;
            return line_cache::hit(req, addr, req.at, dram, &mut self.stats);
        }

        // Miss: move a whole page — the over-fetch that hurts sparse
        // access patterns.
        let frame = self.pick_frame();
        let old = self.frames[frame];
        if old.valid {
            self.map.remove(&old.page);
        }
        self.frames[frame] = Frame {
            page,
            valid: true,
            dirty: write,
            referenced: true,
        };
        self.map.insert(page, frame as u32);
        let fill = Fill {
            line: page * page_bytes,
            dirty_victim: (old.valid && old.dirty).then_some(old.page * page_bytes),
            frame: frame as u64 * page_bytes,
            chunks: u64::MAX >> (64 - page_bytes / 64),
        };
        line_cache::miss(req, req.at, self.cfg.fm_bytes, fill, dram, &mut self.stats)
    }

    fn flat_capacity_bytes(&self) -> u64 {
        self.cfg.fm_bytes
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::{Cycle, MemSide, PAddr, TrafficClass};

    fn tagless() -> (Tagless, DramSystem) {
        (
            Tagless::new(TaglessConfig::new(64 * 1024, 1024 * 1024)),
            DramSystem::paper_default(),
        )
    }

    #[test]
    #[should_panic(expected = "at most 64 lines")]
    fn rejects_pages_over_4kb() {
        let _ = Tagless::new(TaglessConfig {
            page_bytes: 8192,
            ..TaglessConfig::new(1 << 20, 1 << 24)
        });
    }

    #[test]
    fn page_hit_after_miss() {
        let (mut t, mut dram) = tagless();
        let a = PAddr::new(0x1234);
        let s1 = t.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        assert!(!s1.from_nm);
        // Anywhere in the same 4 KB page now hits.
        let s2 = t.access(&MemReq::read(PAddr::new(0x1fc0), 64, s1.done), &mut dram);
        assert!(s2.from_nm);
    }

    #[test]
    fn miss_fetches_whole_page() {
        let (mut t, mut dram) = tagless();
        t.access(&MemReq::read(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        let fill = dram.device(MemSide::Fm).stats().bytes(TrafficClass::Fill);
        assert_eq!(fill, 4096, "whole page over-fetched");
    }

    #[test]
    fn clock_replacement_recycles_frames() {
        let (mut t, mut dram) = tagless();
        // 16 frames; touch 40 distinct pages.
        for i in 0..40u64 {
            t.access(
                &MemReq::read(PAddr::new(i * 4096), 64, Cycle::ZERO),
                &mut dram,
            );
        }
        assert_eq!(t.stats().lookup_misses, 40);
        assert!(t.map.len() <= 16);
    }

    #[test]
    fn recently_used_page_survives_clock() {
        let (mut t, mut dram) = tagless();
        // Fill all 16 frames (pages 0..15); every frame referenced, hand=0.
        for i in 0..16u64 {
            t.access(
                &MemReq::read(PAddr::new(i * 4096), 64, Cycle::ZERO),
                &mut dram,
            );
        }
        // Page 16 sweeps once (clearing every ref bit), evicts frame 0 and
        // lands there with its ref bit set; the hand now points at frame 1.
        t.access(
            &MemReq::read(PAddr::new(16 * 4096), 64, Cycle::ZERO),
            &mut dram,
        );
        // Re-reference page 1 (frame 1): second chance armed.
        t.access(&MemReq::read(PAddr::new(4096), 64, Cycle::ZERO), &mut dram);
        // Page 17: the hand skips frame 1 (referenced) and evicts frame 2.
        t.access(
            &MemReq::read(PAddr::new(17 * 4096), 64, Cycle::ZERO),
            &mut dram,
        );
        let s1 = t.access(&MemReq::read(PAddr::new(4096), 64, Cycle::ZERO), &mut dram);
        assert!(s1.from_nm, "referenced page got its second chance");
        let s2 = t.access(
            &MemReq::read(PAddr::new(2 * 4096), 64, Cycle::ZERO),
            &mut dram,
        );
        assert!(
            !s2.from_nm,
            "the unreferenced neighbour was evicted instead"
        );
    }

    #[test]
    fn dirty_pages_write_back_in_full() {
        let (mut t, mut dram) = tagless();
        t.access(&MemReq::write(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        for i in 1..=16u64 {
            t.access(
                &MemReq::read(PAddr::new(i * 4096), 64, Cycle::ZERO),
                &mut dram,
            );
        }
        assert_eq!(t.stats().dirty_writebacks, 1);
        let wb = dram
            .device(MemSide::Fm)
            .stats()
            .bytes(TrafficClass::Writeback);
        assert_eq!(wb, 4096);
    }

    #[test]
    fn lookup_is_free_hits_have_nm_latency_only() {
        let (mut t, mut dram) = tagless();
        let a = PAddr::new(0);
        let s1 = t.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        // Let the asynchronous page fill drain before timing the hit.
        let t1 = s1.done + 5_000;
        let s2 = t.access(&MemReq::read(a, 64, t1), &mut dram);
        // A hit is a single NM access; at 3.2 GHz that is well under 40
        // cycles uncontended.
        assert!(s2.done - t1 < 40, "hit took {}", s2.done - t1);
    }

    #[test]
    fn capacity_excludes_nm() {
        let (t, _) = tagless();
        assert_eq!(t.flat_capacity_bytes(), 1024 * 1024);
        assert_eq!(t.name(), "TAGLESS");
    }
}
