//! All-to-all block remapping shared by the migration baselines.
//!
//! MemPod, Chameleon and LGM all move 2 KB blocks between NM and FM and all
//! need the same two pieces of machinery:
//!
//! * a **remap table** (block → current location) and **inverted table**
//!   (NM slot → block), stored in NM, with an on-chip **remap cache** whose
//!   capacity the paper fixes to the XTA's size for fairness, and
//! * a **swap** primitive that exchanges an FM-resident block with an
//!   NM-resident victim, charging both directions as migration traffic.
//!
//! Hybrid2's own remapping is different enough (free-FM stack, cache pool)
//! that it lives in `hybrid2-core`; this module serves only the baselines.

use dram::{DramAccess, DramSystem, SchemeStats};
use mem_cache::{CacheConfig, SetAssocCache};
use sim_types::{AccessKind, Cycle, MemSide, PAddr, TrafficClass};

/// Where a flat block currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockLoc {
    /// NM block slot index.
    Nm(u64),
    /// FM block slot index.
    Fm(u64),
}

impl BlockLoc {
    /// True when the block is in near memory.
    pub fn is_nm(self) -> bool {
        matches!(self, BlockLoc::Nm(_))
    }

    /// The table entry for this location: bit 31 set for FM, the slot in
    /// the low 31 bits. [`FlatRemap::new`] bounds every slot below 2^31;
    /// a larger slot panics rather than being truncated.
    #[inline]
    fn pack(self) -> u32 {
        let (side, slot) = match self {
            BlockLoc::Nm(slot) => (0, slot),
            BlockLoc::Fm(slot) => (FM_BIT, slot),
        };
        assert!(
            slot < MAX_BLOCKS,
            "block slot {slot} overflows a packed entry"
        );
        side | slot as u32
    }

    /// Inverse of [`BlockLoc::pack`].
    #[inline]
    fn unpack(entry: u32) -> Self {
        let slot = u64::from(entry & !FM_BIT);
        if entry & FM_BIT == 0 {
            BlockLoc::Nm(slot)
        } else {
            BlockLoc::Fm(slot)
        }
    }
}

/// Side bit of a packed remap entry: set when the block lives in FM.
const FM_BIT: u32 = 1 << 31;

/// Bound on the flat space's block count: below it, every block index and
/// every slot fits a packed `u32` entry.
const MAX_BLOCKS: u64 = 1 << 31;

/// Shared remapping substrate for block-migration schemes.
#[derive(Clone, Debug)]
pub struct FlatRemap {
    block_bytes: u64,
    nm_blocks: u64,
    fm_blocks: u64,
    /// Block → location, one [`BlockLoc::pack`]ed entry per block.
    remap: Vec<u32>,
    /// NM slot → block.
    inverted: Vec<u32>,
    remap_cache: SetAssocCache,
    /// On-chip remap-cache hit latency in cycles.
    cache_latency: u64,
    /// Device byte address where the in-NM remap table begins (after the
    /// data blocks, so block aligned).
    meta_base: u64,
    /// Swaps performed (each = one block in + one block out).
    pub swaps: u64,
    /// Remap lookups that had to read the in-NM table.
    pub table_reads: u64,
    /// 64 B remap-table entry writes (two per swap).
    pub table_writes: u64,
}

impl FlatRemap {
    /// Builds an identity-mapped flat space of `nm_blocks + fm_blocks`
    /// blocks of `block_bytes` each, with an on-chip remap cache of
    /// `remap_cache_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, the flat space holds 2^31 blocks or
    /// more, a block is not a power of two between 64 B and 4 KB (one
    /// `skip_lines` bit per 64-byte line), or the remap cache shape is
    /// invalid.
    pub fn new(block_bytes: u64, nm_blocks: u64, fm_blocks: u64, remap_cache_bytes: u64) -> Self {
        assert!(block_bytes.is_power_of_two() && (64..=4096).contains(&block_bytes));
        assert!(nm_blocks > 0 && fm_blocks > 0);
        let total = nm_blocks + fm_blocks;
        assert!(
            total < MAX_BLOCKS,
            "flat space of {total} blocks exceeds the packed remap range (< 2^31)"
        );
        // Identity boot map, filled by range: blocks `0..nm_blocks` in the
        // NM slots of the same index, the rest in FM slots in order.
        let mut remap = Vec::with_capacity(total as usize);
        remap.extend(0..nm_blocks as u32);
        remap.extend((0..fm_blocks as u32).map(|f| FM_BIT | f));
        let inverted = (0..nm_blocks as u32).collect();
        // Remap-cache entries are 8 B; model it as a 4-way cache of 64 B
        // lines over the table's address space (8 entries per line).
        let cache_bytes = remap_cache_bytes.max(4 * 64);
        let sets = (cache_bytes / (4 * 64)).next_power_of_two() / 2;
        let cfg = CacheConfig::new(sets.max(1) * 4 * 64, 4, 64)
            .expect("remap cache shape is valid by construction");
        FlatRemap {
            block_bytes,
            nm_blocks,
            fm_blocks,
            remap,
            inverted,
            remap_cache: SetAssocCache::new(cfg),
            cache_latency: 2,
            meta_base: nm_blocks * block_bytes,
            swaps: 0,
            table_reads: 0,
            table_writes: 0,
        }
    }

    /// Total flat capacity in bytes (NM + FM — migration keeps NM visible).
    pub fn flat_capacity_bytes(&self) -> u64 {
        (self.nm_blocks + self.fm_blocks) * self.block_bytes
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Number of NM block slots.
    pub fn nm_blocks(&self) -> u64 {
        self.nm_blocks
    }

    /// The flat block index containing `addr`.
    pub fn block_of(&self, addr: PAddr) -> u64 {
        addr.raw() / self.block_bytes
    }

    /// First NM device byte address past the in-NM remap table, block
    /// aligned — where a scheme may place additional NM structures
    /// (Chameleon's cache-mode region).
    pub fn meta_end(&self) -> u64 {
        let end = self.meta_base + (self.nm_blocks + self.fm_blocks) * 8;
        end.next_multiple_of(self.block_bytes)
    }

    /// Current location of `block` *without* modelling lookup cost
    /// (policy bookkeeping).
    pub fn peek(&self, block: u64) -> BlockLoc {
        BlockLoc::unpack(self.remap[block as usize])
    }

    /// The flat block stored in NM slot `slot`.
    pub fn block_at(&self, slot: u64) -> u64 {
        u64::from(self.inverted[slot as usize])
    }

    /// Looks up `block`'s location, charging the remap-cache latency on a
    /// hit or an NM table read on a miss. Returns the location and the
    /// cycle at which it is known.
    pub fn locate(&mut self, block: u64, at: Cycle, dram: &mut DramSystem) -> (BlockLoc, Cycle) {
        let entry_addr = block * 8;
        let hit = self.remap_cache.access(entry_addr, false).hit;
        let ready = if hit {
            at + self.cache_latency
        } else {
            self.table_reads += 1;
            dram.device_mut(MemSide::Nm).serve(DramAccess::metadata(
                AccessKind::Read,
                self.meta_base + entry_addr,
                at + self.cache_latency,
            ))
        };
        (self.peek(block), ready)
    }

    /// Device byte address of a block location plus `offset`.
    pub fn device_addr(&self, loc: BlockLoc, offset: u64) -> (MemSide, u64) {
        debug_assert!(offset < self.block_bytes);
        match loc {
            BlockLoc::Nm(slot) => (MemSide::Nm, slot * self.block_bytes + offset),
            BlockLoc::Fm(slot) => (MemSide::Fm, slot * self.block_bytes + offset),
        }
    }

    /// Swaps FM-resident `fm_block` with the block occupying NM slot
    /// `victim_slot`, charging 2 × block reads + 2 × block writes of
    /// migration traffic plus a remap-table update, unless `skip_lines`
    /// marks 64-byte lines of `fm_block` that need not be transferred
    /// (LGM's LLC-present optimization).
    ///
    /// # Panics
    ///
    /// Panics if `fm_block` is not FM-resident.
    pub fn swap_into_nm(
        &mut self,
        fm_block: u64,
        victim_slot: u64,
        skip_lines: u64,
        at: Cycle,
        dram: &mut DramSystem,
    ) {
        let BlockLoc::Fm(fm_slot) = self.peek(fm_block) else {
            panic!("swap_into_nm called on an NM-resident block");
        };
        let victim_block = self.block_at(victim_slot);
        let all_lines = u64::MAX >> (64 - self.block_bytes / 64);
        let fm_sector = (MemSide::Fm, fm_slot * self.block_bytes);
        let nm_sector = (MemSide::Nm, victim_slot * self.block_bytes);
        let class = TrafficClass::Migration;

        // Inbound: FM -> NM, only the lines not skipped.
        dram.copy_lines(!skip_lines & all_lines, fm_sector, nm_sector, 64, class, at);
        // Outbound: NM victim -> the vacated FM slot (full block; swaps move
        // whole blocks out, the paper's "double the overheads of copying").
        dram.copy_lines(all_lines, nm_sector, fm_sector, 64, class, at);

        self.remap[fm_block as usize] = BlockLoc::Nm(victim_slot).pack();
        self.remap[victim_block as usize] = BlockLoc::Fm(fm_slot).pack();
        self.inverted[victim_slot as usize] = fm_block as u32;
        self.swaps += 1;

        // Remap-table updates for both blocks.
        for block in [fm_block, victim_block] {
            let entry = self.meta_base + block * 8;
            dram.device_mut(MemSide::Nm)
                .serve(DramAccess::metadata(AccessKind::Write, entry, at));
            self.table_writes += 1;
        }
    }

    /// Copies the remap-table reads and writes charged so far into a
    /// scheme's `metadata_reads` and `metadata_writes`. A scheme calls it
    /// after every step that can charge either (a lookup or a swap), so
    /// its counters are exact at any point of a run.
    #[inline]
    pub fn book_metadata(&self, stats: &mut SchemeStats) {
        stats.metadata_reads = self.table_reads;
        stats.metadata_writes = self.table_writes;
    }

    /// Remap bijection check for tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut nm_seen = vec![false; self.nm_blocks as usize];
        let mut fm_seen = vec![false; self.fm_blocks as usize];
        for (b, &entry) in self.remap.iter().enumerate() {
            match BlockLoc::unpack(entry) {
                BlockLoc::Nm(s) => {
                    if nm_seen[s as usize] {
                        return Err(format!("NM slot {s} doubly mapped"));
                    }
                    nm_seen[s as usize] = true;
                    if self.block_at(s) != b as u64 {
                        return Err(format!("inverted[{s}] != {b}"));
                    }
                }
                BlockLoc::Fm(s) => {
                    if fm_seen[s as usize] {
                        return Err(format!("FM slot {s} doubly mapped"));
                    }
                    fm_seen[s as usize] = true;
                }
            }
        }
        if !nm_seen.iter().all(|&s| s) {
            return Err("an NM slot holds no block".into());
        }
        if !fm_seen.iter().all(|&s| s) {
            return Err("an FM slot holds no block".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn remap() -> (FlatRemap, DramSystem) {
        (
            FlatRemap::new(2048, 8, 64, 4096),
            DramSystem::paper_default(),
        )
    }

    #[test]
    fn identity_boot_state() {
        let (r, _) = remap();
        assert_eq!(r.peek(0), BlockLoc::Nm(0));
        assert_eq!(r.peek(8), BlockLoc::Fm(0));
        assert_eq!(r.flat_capacity_bytes(), (8 + 64) * 2048);
        r.check_invariants().unwrap();
    }

    /// Checks a freshly built `r` against the per-block construction the
    /// range fill in `new` replaced: one `BlockLoc::pack` per block.
    fn assert_boot_tables_exact(r: &FlatRemap) {
        r.check_invariants().unwrap();
        let (nm, fm) = (r.nm_blocks, r.fm_blocks);
        let remap: Vec<u32> = (0..nm + fm)
            .map(|b| {
                if b < nm {
                    BlockLoc::Nm(b)
                } else {
                    BlockLoc::Fm(b - nm)
                }
                .pack()
            })
            .collect();
        assert_eq!(r.remap, remap, "remap of {nm} NM + {fm} FM blocks");
        let inverted: Vec<u32> = (0..nm).map(|s| s as u32).collect();
        assert_eq!(r.inverted, inverted, "inverted of {nm} NM blocks");
    }

    /// The harness's capacities (`ScaledSystem::new` in the `sim` crate)
    /// for the 1, 2 and 4 GB NM ratios at 1/1024 and 1/2048 of paper scale:
    /// (NM, FM, DRAM-cache, remap-cache) bytes.
    fn harness_shapes() -> Vec<(u64, u64, u64, u64)> {
        let mut shapes = Vec::new();
        for den in [1024u64, 2048] {
            for nm_gb in [1u64, 2, 4] {
                let remap_cache = ((512u64 << 10) / den).max(4 * 64 * 4);
                shapes.push((
                    (nm_gb << 30) / den,
                    (16 << 30) / den,
                    (64 << 20) / den,
                    remap_cache,
                ));
            }
        }
        shapes
    }

    #[test]
    fn bulk_boot_matches_per_block_construction() {
        use crate::{Chameleon, ChameleonConfig, Lgm, LgmConfig, MemPod, MemPodConfig};
        for (nm, fm, cache, remap_cache) in harness_shapes() {
            assert_boot_tables_exact(
                MemPod::new(MemPodConfig::paper_default(nm, fm, remap_cache)).flat(),
            );
            assert_boot_tables_exact(
                Chameleon::new(ChameleonConfig::paper_default(nm, fm, cache, remap_cache)).flat(),
            );
            assert_boot_tables_exact(
                Lgm::new(LgmConfig::paper_default(nm, fm, remap_cache)).flat(),
            );
        }
        // One NM and one FM block, at both ends of the block-size range.
        for block in [64, 4096] {
            assert_boot_tables_exact(&FlatRemap::new(block, 1, 1, 0));
        }
        assert_boot_tables_exact(&remap().0);
    }

    #[test]
    fn swap_exchanges_homes() {
        let (mut r, mut dram) = remap();
        r.swap_into_nm(10, 3, 0, Cycle::ZERO, &mut dram);
        assert_eq!(r.peek(10), BlockLoc::Nm(3));
        assert_eq!(r.peek(3), BlockLoc::Fm(2)); // block 3 went to FM slot of block 10
        assert_eq!(r.block_at(3), 10);
        assert_eq!(r.swaps, 1);
        r.check_invariants().unwrap();
    }

    #[test]
    fn swap_charges_both_directions() {
        let (mut r, mut dram) = remap();
        r.swap_into_nm(10, 0, 0, Cycle::ZERO, &mut dram);
        let nm = dram
            .device(MemSide::Nm)
            .stats()
            .bytes(TrafficClass::Migration);
        let fm = dram
            .device(MemSide::Fm)
            .stats()
            .bytes(TrafficClass::Migration);
        assert_eq!(nm, 2 * 2048, "block written into NM and victim read out");
        assert_eq!(fm, 2 * 2048, "block read from FM and victim written back");
    }

    #[test]
    fn skip_lines_reduce_inbound_traffic() {
        let (mut r, mut dram) = remap();
        // Skip 16 of the 32 inbound lines.
        r.swap_into_nm(10, 0, 0x0000_FFFF, Cycle::ZERO, &mut dram);
        let fm_reads = dram.device(MemSide::Fm).stats().reads;
        assert_eq!(fm_reads, 16, "only unskipped lines read from FM");
    }

    /// The line-by-line copy `swap_into_nm` once issued: per unskipped
    /// line, one FM read then one NM write; then the counted outbound block
    /// and the two remap-table writes.
    fn per_line_swap(
        r: &FlatRemap,
        fm_block: u64,
        victim_slot: u64,
        skip: u64,
        at: Cycle,
        dram: &mut DramSystem,
    ) {
        let BlockLoc::Fm(fm_slot) = r.peek(fm_block) else {
            unreachable!("reference swap of an NM-resident block")
        };
        let victim_block = r.block_at(victim_slot);
        let (fm_base, nm_base) = (fm_slot * 2048, victim_slot * 2048);
        let copy = |dram: &mut DramSystem, side, addr, kind, count| {
            let access = DramAccess {
                addr,
                bytes: 64,
                kind,
                class: TrafficClass::Migration,
                at,
            };
            dram.device_mut(side).serve_burst(access, count);
        };
        for i in (0..32).filter(|i| skip & (1 << i) == 0) {
            copy(dram, MemSide::Fm, fm_base + i * 64, AccessKind::Read, 1);
            copy(dram, MemSide::Nm, nm_base + i * 64, AccessKind::Write, 1);
        }
        copy(dram, MemSide::Nm, nm_base, AccessKind::Read, 32);
        copy(dram, MemSide::Fm, fm_base, AccessKind::Write, 32);
        for block in [fm_block, victim_block] {
            dram.device_mut(MemSide::Nm).serve(DramAccess {
                addr: r.meta_base + ((block * 8) & !63),
                bytes: 64,
                kind: AccessKind::Write,
                class: TrafficClass::Metadata,
                at,
            });
        }
    }

    #[test]
    fn coalesced_swap_matches_per_line_copy() {
        let mut rng = sim_types::rng::SplitMix64::new(11);
        let mut r = FlatRemap::new(2048, 8, 64, 4096);
        let mut dram = DramSystem::paper_default();
        let mut reference = dram.clone();
        let mut at = Cycle::ZERO;
        for _ in 0..300 {
            let block = loop {
                let b = rng.gen_range(72);
                if !r.peek(b).is_nm() {
                    break b;
                }
            };
            let slot = rng.gen_range(8);
            // Mix sparse, dense, empty and full skip masks.
            let skip = match rng.gen_range(4) {
                0 => 0,
                1 => u64::MAX,
                2 => rng.next_u64() & rng.next_u64(),
                _ => rng.next_u64(),
            };
            at += rng.gen_range(2_000);
            per_line_swap(&r, block, slot, skip, at, &mut reference);
            r.swap_into_nm(block, slot, skip, at, &mut dram);
            assert_eq!(dram, reference, "swap traffic diverged");
        }
        assert_eq!(dram.total_energy(), reference.total_energy());
    }

    #[test]
    fn locate_uses_remap_cache() {
        let (mut r, mut dram) = remap();
        let (loc1, t1) = r.locate(5, Cycle::ZERO, &mut dram);
        assert_eq!(loc1, BlockLoc::Nm(5));
        assert_eq!(r.table_reads, 1, "cold lookup reads the in-NM table");
        let (_, t2) = r.locate(5, Cycle::ZERO, &mut dram);
        assert_eq!(r.table_reads, 1, "second lookup hits the remap cache");
        assert!(t2 - Cycle::ZERO < t1 - Cycle::ZERO);
    }

    #[test]
    fn device_addresses_scale_by_block() {
        let (r, _) = remap();
        assert_eq!(
            r.device_addr(BlockLoc::Nm(2), 100),
            (MemSide::Nm, 2 * 2048 + 100)
        );
        assert_eq!(r.device_addr(BlockLoc::Fm(3), 0), (MemSide::Fm, 3 * 2048));
    }

    #[test]
    fn many_swaps_keep_bijection() {
        let (mut r, mut dram) = remap();
        let mut rng = sim_types::rng::SplitMix64::new(5);
        for _ in 0..200 {
            // Pick any FM-resident block and any NM slot.
            let block = loop {
                let b = rng.gen_range(72);
                if !r.peek(b).is_nm() {
                    break b;
                }
            };
            let slot = rng.gen_range(8);
            r.swap_into_nm(block, slot, 0, Cycle::ZERO, &mut dram);
        }
        r.check_invariants().unwrap();
        assert_eq!(r.swaps, 200);
    }

    #[test]
    #[should_panic(expected = "NM-resident")]
    fn swapping_nm_block_panics() {
        let (mut r, mut dram) = remap();
        r.swap_into_nm(0, 0, 0, Cycle::ZERO, &mut dram);
    }

    #[test]
    fn packed_entries_round_trip_the_largest_index() {
        for slot in [0, 1, MAX_BLOCKS - 1] {
            for loc in [BlockLoc::Nm(slot), BlockLoc::Fm(slot)] {
                assert_eq!(BlockLoc::unpack(loc.pack()), loc);
            }
        }
        assert_eq!(BlockLoc::Fm(MAX_BLOCKS - 1).pack(), u32::MAX);
        assert_eq!(BlockLoc::Nm(MAX_BLOCKS - 1).pack(), u32::MAX >> 1);
    }

    #[test]
    #[should_panic(expected = "overflows a packed entry")]
    fn packing_a_slot_of_2_pow_31_panics() {
        BlockLoc::Fm(MAX_BLOCKS).pack();
    }

    #[test]
    #[should_panic(expected = "packed remap range")]
    fn rejects_a_table_of_2_pow_31_blocks() {
        FlatRemap::new(64, 1, MAX_BLOCKS - 1, 4096);
    }

    #[test]
    fn table_entries_are_four_bytes() {
        let (r, _) = remap();
        assert_eq!(std::mem::size_of_val(&r.remap[0]), 4);
        assert_eq!(std::mem::size_of_val(&r.inverted[0]), 4);
    }
}

/// The packed tables against the enum-vector tables they replaced.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The remap state as it was stored before packing: one `BlockLoc` per
    /// block and one `u64` per NM slot, updated the way `swap_into_nm` did.
    struct Reference {
        remap: Vec<BlockLoc>,
        inverted: Vec<u64>,
    }

    impl Reference {
        fn new(nm_blocks: u64, fm_blocks: u64) -> Self {
            let remap = (0..nm_blocks)
                .map(BlockLoc::Nm)
                .chain((0..fm_blocks).map(BlockLoc::Fm))
                .collect();
            Reference {
                remap,
                inverted: (0..nm_blocks).collect(),
            }
        }

        fn swap_into_nm(&mut self, fm_block: u64, victim_slot: u64) {
            let BlockLoc::Fm(fm_slot) = self.remap[fm_block as usize] else {
                unreachable!("reference swap of an NM-resident block")
            };
            let victim_block = self.inverted[victim_slot as usize];
            self.remap[fm_block as usize] = BlockLoc::Nm(victim_slot);
            self.remap[victim_block as usize] = BlockLoc::Fm(fm_slot);
            self.inverted[victim_slot as usize] = fm_block;
        }
    }

    proptest! {
        /// Random swap sequences over random shapes: every lookup answers
        /// what the reference answers, and the bijection holds after every
        /// step.
        #[test]
        fn packed_tables_match_reference(
            nm in 1u64..12,
            fm in 1u64..40,
            steps in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..80),
        ) {
            let mut r = FlatRemap::new(64, nm, fm, 4096);
            let mut reference = Reference::new(nm, fm);
            let mut dram = DramSystem::paper_default();
            let total = nm + fm;
            for (i, (pick, slot, locate)) in steps.into_iter().enumerate() {
                let block = pick % total;
                let at = Cycle::ZERO + 100 * i as u64;
                if locate {
                    prop_assert_eq!(r.locate(block, at, &mut dram).0, reference.remap[block as usize]);
                } else if !r.peek(block).is_nm() {
                    let slot = slot % nm;
                    r.swap_into_nm(block, slot, 0, at, &mut dram);
                    reference.swap_into_nm(block, slot);
                }
                r.check_invariants().unwrap();
                for b in 0..total {
                    prop_assert_eq!(r.peek(b), reference.remap[b as usize]);
                }
                for s in 0..nm {
                    prop_assert_eq!(r.block_at(s), reference.inverted[s as usize]);
                }
            }
        }
    }
}
