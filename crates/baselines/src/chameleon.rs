//! Chameleon (Kotra et al., MICRO 2018).
//!
//! Chameleon organizes NM and FM into congruence groups (one NM block slot
//! plus the FM blocks congruent to it) with PoM-style *competing counters*:
//! an FM-resident block that out-accesses the group's NM resident by the
//! threshold `K` (the paper's exploration: 14 for this memory system) swaps
//! in immediately. Chameleon's distinguishing feature is a reconfigurable
//! *cache mode* for NM space not needed as memory; per the Hybrid2
//! methodology ("we allow the same NM capacity our design uses as a DRAM
//! cache to be used in Chameleon's cache mode") we reserve the same 64 MB
//! slice Hybrid2 uses and run it as a sub-blocked (64 B granular,
//! over-fetch free) cache of FM blocks.
//!
//! Simplifications: the OS/ISA free-page machinery
//! (ISA-Alloc/ISA-Free) is not modelled — the cache-mode slice is fixed
//! rather than tracking free pages, which matches how the Hybrid2 paper
//! itself provisions the comparison. The slice is managed write-through
//! (reads install, writes go to the block's FM home and invalidate the
//! cached copy), so conflict evictions never generate FM write bursts.

use dram::{DramAccess, DramSystem, MemoryScheme, SchemeStats, Served};
use sim_types::{AccessKind, MemReq, MemSide, TrafficClass};

use crate::flat::FlatRemap;

/// Configuration of Chameleon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChameleonConfig {
    /// NM capacity in bytes.
    pub nm_bytes: u64,
    /// FM capacity in bytes.
    pub fm_bytes: u64,
    /// Block size in bytes (2 KB).
    pub block_bytes: u64,
    /// Competing-counter threshold (paper: K = 14).
    pub k: u16,
    /// NM bytes run in cache mode (matched to Hybrid2's DRAM cache).
    pub cache_bytes: u64,
    /// On-chip remap-cache size in bytes (matched to the XTA).
    pub remap_cache_bytes: u64,
}

impl ChameleonConfig {
    /// The paper's configuration over the given capacities.
    pub fn paper_default(
        nm_bytes: u64,
        fm_bytes: u64,
        cache_bytes: u64,
        remap_cache_bytes: u64,
    ) -> Self {
        ChameleonConfig {
            nm_bytes,
            fm_bytes,
            block_bytes: 2048,
            k: 14,
            cache_bytes,
            remap_cache_bytes,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct CacheEntry {
    block: u64,
    in_use: bool,
    valid_mask: u64,
}

/// The Chameleon controller: congruence-group swaps + cache-mode slice.
#[derive(Clone, Debug)]
pub struct Chameleon {
    cfg: ChameleonConfig,
    flat: FlatRemap,
    /// Per-block competing counters (reset group-wide on a swap).
    counters: Vec<u16>,
    groups: u64,
    cache_entries: Vec<CacheEntry>,
    cache_base: u64,
    stats: SchemeStats,
    /// Cache-mode hits (inspection/testing).
    pub cache_hits: u64,
}

impl Chameleon {
    /// Builds the controller.
    ///
    /// # Panics
    ///
    /// Panics if the cache-mode slice leaves no NM for the flat space.
    pub fn new(cfg: ChameleonConfig) -> Self {
        let nm_blocks_total = cfg.nm_bytes / cfg.block_bytes;
        let cache_blocks = cfg.cache_bytes / cfg.block_bytes;
        assert!(
            cache_blocks < nm_blocks_total,
            "cache-mode slice must leave NM blocks for the flat space"
        );
        let nm_flat = nm_blocks_total - cache_blocks;
        let fm_blocks = cfg.fm_bytes / cfg.block_bytes;
        let flat = FlatRemap::new(cfg.block_bytes, nm_flat, fm_blocks, cfg.remap_cache_bytes);
        let cache_base = flat.meta_end();
        let total = nm_flat + fm_blocks;
        Chameleon {
            counters: vec![0; total as usize],
            groups: nm_flat,
            cache_entries: vec![CacheEntry::default(); cache_blocks as usize],
            cache_base,
            flat,
            stats: SchemeStats::default(),
            cache_hits: 0,
            cfg,
        }
    }

    /// Shared remapping substrate (inspection/testing).
    pub fn flat(&self) -> &FlatRemap {
        &self.flat
    }

    fn group_of(&self, block: u64) -> u64 {
        block % self.groups
    }

    fn cache_index(&self, block: u64) -> usize {
        (block % self.cache_entries.len() as u64) as usize
    }

    /// Drops any cache-mode copy of `block` (called before the block
    /// migrates into NM so the flat copy stays authoritative). Copies are
    /// clean by construction (write-through), so nothing is written back.
    fn flush_cache_entry(&mut self, block: u64) {
        let idx = self.cache_index(block);
        let e = self.cache_entries[idx];
        if e.in_use && e.block == block {
            self.cache_entries[idx] = CacheEntry::default();
        }
    }
}

impl MemoryScheme for Chameleon {
    fn name(&self) -> &'static str {
        "CHA"
    }

    fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served {
        let write = self.stats.count(req);
        let block = self.flat.block_of(req.addr);
        let offset = req.addr.raw() % self.cfg.block_bytes;
        let line = (offset / 64).min(63);
        let (loc, ready) = self.flat.locate(block, req.at, dram);

        if loc.is_nm() {
            self.stats.lookup_hits += 1;
            self.stats.served_from_nm += 1;
            let (side, addr) = self.flat.device_addr(loc, offset);
            let done = dram
                .device_mut(side)
                .serve(DramAccess::demand(req, addr, ready));
            return Served::new(done, true);
        }

        // FM-resident: competing counters (PoM) first.
        self.stats.lookup_misses += 1;
        let group = self.group_of(block);
        let resident = self.flat.block_at(group);
        self.counters[block as usize] = self.counters[block as usize].saturating_add(1);
        let should_swap = self.counters[block as usize]
            >= self.counters[resident as usize].saturating_add(self.cfg.k);

        // Cache-mode probe (sub-blocked: only previously fetched 64 B lines
        // hit; no over-fetch). The slice is write-through: writes always go
        // to the FM home and invalidate any cached copy of the line.
        let idx = self.cache_index(block);
        let entry = self.cache_entries[idx];
        let cache_hit =
            !write && entry.in_use && entry.block == block && entry.valid_mask & (1 << line) != 0;

        let cache_addr = self.cache_base + idx as u64 * self.cfg.block_bytes + offset;
        let served = if cache_hit {
            self.cache_hits += 1;
            self.stats.served_from_nm += 1;
            let done = dram
                .device_mut(MemSide::Nm)
                .serve(DramAccess::demand(req, cache_addr, ready));
            Served::new(done, true)
        } else {
            // Serve from the FM home: a write goes through and drops a
            // stale cached line, a read miss installs the clean line.
            let (side, addr) = self.flat.device_addr(loc, offset);
            let done = dram
                .device_mut(side)
                .serve(DramAccess::demand(req, addr, ready));
            let e = &mut self.cache_entries[idx];
            if write {
                if e.in_use && e.block == block {
                    e.valid_mask &= !(1 << line);
                }
            } else {
                if e.in_use && e.block != block {
                    *e = CacheEntry::default();
                }
                e.block = block;
                e.in_use = true;
                e.valid_mask |= 1 << line;
                dram.device_mut(MemSide::Nm).serve(DramAccess {
                    addr: cache_addr,
                    bytes: req.bytes,
                    kind: AccessKind::Write,
                    class: TrafficClass::Fill,
                    at: done,
                });
            }
            Served::new(done, false)
        };

        if should_swap {
            // Drop any cache copy so the migrated data is authoritative.
            self.flush_cache_entry(block);
            self.flat.swap_into_nm(block, group, 0, served.done, dram);
            self.stats.moved_into_nm += 1;
            self.stats.moved_out_of_nm += 1;
            // Reset the whole group's counters (PoM).
            let mut b = group;
            let total = self.counters.len() as u64;
            while b < total {
                self.counters[b as usize] = 0;
                b += self.groups;
            }
        }
        self.flat.book_metadata(&mut self.stats);
        served
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
    use sim_types::{Cycle, PAddr};

    fn chameleon() -> (Chameleon, DramSystem) {
        let cfg = ChameleonConfig {
            nm_bytes: 64 * 1024,
            fm_bytes: 1024 * 1024,
            block_bytes: 2048,
            k: 4,
            cache_bytes: 16 * 1024,
            remap_cache_bytes: 4096,
        };
        (Chameleon::new(cfg), DramSystem::paper_default())
    }

    #[test]
    fn nm_resident_blocks_serve_from_nm() {
        let (mut c, mut dram) = chameleon();
        let s = c.access(&MemReq::read(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        assert!(s.from_nm);
    }

    #[test]
    fn competing_counters_trigger_group_swap() {
        let (mut c, mut dram) = chameleon();
        let fm = PAddr::new(512 * 1024);
        let block = c.flat().block_of(fm);
        // K=4: the 4th access (counter 4 >= 0 + 4) swaps.
        let mut t = Cycle::ZERO;
        for _ in 0..4 {
            let s = c.access(&MemReq::read(fm, 64, t), &mut dram);
            t = s.done;
        }
        assert!(c.flat().peek(block).is_nm(), "block must swap in after K");
        assert_eq!(c.stats().moved_into_nm, 1);
        assert_eq!(c.stats().metadata_writes, 2, "one remap write per block");
        c.flat().check_invariants().unwrap();
        let s = c.access(&MemReq::read(fm, 64, t), &mut dram);
        assert!(s.from_nm);
    }

    #[test]
    fn counters_reset_after_swap() {
        let (mut c, mut dram) = chameleon();
        let fm = PAddr::new(512 * 1024);
        let block = c.flat().block_of(fm);
        for i in 0..4 {
            c.access(&MemReq::read(fm, 64, Cycle::new(i * 100)), &mut dram);
        }
        assert_eq!(c.counters[block as usize], 0, "group counters reset");
    }

    #[test]
    fn cache_mode_hits_after_install() {
        let (mut c, mut dram) = chameleon();
        let fm = PAddr::new(512 * 1024);
        let s1 = c.access(&MemReq::read(fm, 64, Cycle::ZERO), &mut dram);
        assert!(!s1.from_nm, "first access installs");
        let s2 = c.access(&MemReq::read(fm, 64, s1.done), &mut dram);
        assert!(s2.from_nm, "second access hits the cache slice");
        assert_eq!(c.cache_hits, 1);
    }

    #[test]
    fn cache_mode_is_subblocked_no_overfetch() {
        let (mut c, mut dram) = chameleon();
        let fm = PAddr::new(512 * 1024);
        c.access(&MemReq::read(fm, 64, Cycle::ZERO), &mut dram);
        // Different 64 B line of the same block: still a cache miss.
        let s = c.access(
            &MemReq::read(PAddr::new(512 * 1024 + 128), 64, Cycle::ZERO),
            &mut dram,
        );
        assert!(!s.from_nm);
        // Only 64 B fills went into NM (no 2 KB over-fetch).
        let fill = dram.device(MemSide::Nm).stats().bytes(TrafficClass::Fill);
        assert_eq!(fill, 128);
    }

    #[test]
    fn writes_go_through_and_invalidate_the_cached_line() {
        let (mut c, mut dram) = chameleon();
        let a = PAddr::new(512 * 1024);
        // Install the line, then write it: the write must reach FM and the
        // cached copy must be dropped (no stale read hit).
        c.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        let fm_writes_before = dram.device(MemSide::Fm).stats().writes;
        let s = c.access(&MemReq::write(a, 64, Cycle::new(100)), &mut dram);
        assert!(!s.from_nm, "writes go through to FM");
        assert_eq!(
            dram.device(MemSide::Fm).stats().writes,
            fm_writes_before + 1
        );
        let s = c.access(&MemReq::read(a, 64, Cycle::new(200)), &mut dram);
        assert!(!s.from_nm, "the stale cached line was invalidated");
        // And no dirty writebacks ever originate from the slice.
        assert_eq!(c.stats().dirty_writebacks, 0);
    }

    #[test]
    fn capacity_excludes_cache_slice() {
        let (c, _) = chameleon();
        // 64 KB NM - 16 KB cache slice = 48 KB flat NM + 1 MB FM.
        assert_eq!(c.flat_capacity_bytes(), 48 * 1024 + 1024 * 1024);
        assert_eq!(c.name(), "CHA");
    }

    #[test]
    fn random_workout_keeps_bijection() {
        let (mut c, mut dram) = chameleon();
        let cap = c.flat_capacity_bytes();
        let mut rng = sim_types::rng::SplitMix64::new(8);
        let mut t = Cycle::ZERO;
        for _ in 0..3000 {
            let a = PAddr::new(rng.gen_range(cap / 64) * 64);
            let req = if rng.chance(1, 4) {
                MemReq::write(a, 64, t)
            } else {
                MemReq::read(a, 64, t)
            };
            let s = c.access(&req, &mut dram);
            t = s.done.max(t) + 3;
        }
        c.flat().check_invariants().unwrap();
    }
}
