//! The DRAM Cache Migration Controller: §3.4–§3.7 wired together.

use dram::{DramAccess, DramSystem, MemoryScheme, SchemeStats, Served, ServiceRequest};
use sim_types::{AccessKind, Cycle, MemReq, MemSide, NmLoc, TrafficClass};

use crate::config::{ConfigError, Hybrid2Config, Layout, Variant};
use crate::free_stack::FreeFmStack;
use crate::migrate::{decide, CostInputs, Decision};
use crate::remap::{Loc, RemapTables, SlotState};
use crate::xta::{Xta, XtaEntry};

/// The Hybrid2 memory controller (Figure 3's shaded box).
///
/// All processor requests flow through [`Dcmc::access`], which implements
/// the four-outcome path of Figure 7; evictions follow Figure 9, NM
/// allocation Figure 8, and the migration decision Figure 10.
#[derive(Clone, Debug)]
pub struct Dcmc {
    cfg: Hybrid2Config,
    layout: Layout,
    xta: Xta,
    tables: RemapTables,
    stack: FreeFmStack,
    /// Unassigned cache-pool slots (boot region first, then recycled ones).
    free_pool: Vec<NmLoc>,
    /// §3.5 FIFO wrap-around counter over NM slots.
    fifo_ptr: u64,
    /// §3.7.3 FM-access budget.
    fm_budget: u64,
    last_budget_reset: Cycle,
    /// Time of the most recent `on_tick` delivery, guarding the machine
    /// loop's interval contract (see `on_tick`).
    last_tick: Cycle,
    stats: SchemeStats,
    /// §3.8 extension: OS-hinted dead sectors, one bit per flat sector id.
    unused: Vec<u64>,
    /// Count of set bits in `unused`. Every demand access must revive its
    /// sector, but without hints there is nothing to revive — the counter
    /// lets the per-request hot path skip the random access into the
    /// `unused` bitmap entirely.
    unused_live: u64,
    /// §3.8: Figure-8 swap copies skipped thanks to hints.
    swaps_avoided: u64,
    /// §3.8: eviction writebacks skipped thanks to hints.
    writebacks_avoided: u64,
}

impl Dcmc {
    /// Builds a controller from a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is structurally
    /// invalid.
    pub fn new(cfg: Hybrid2Config) -> Result<Self, ConfigError> {
        let layout = cfg.validate()?;
        let xta = Xta::new(
            layout.cache_sectors,
            cfg.xta_assoc,
            cfg.geometry.lines_per_sector(),
            cfg.counter_bits,
        );
        let tables = RemapTables::new(layout);
        // Boot pool: slots [0, cache_sectors), popped from the back so slot 0
        // is handed out first (the §3.5 boot counter).
        let free_pool: Vec<NmLoc> = (0..layout.cache_sectors).rev().map(NmLoc::new).collect();
        Ok(Dcmc {
            stack: FreeFmStack::new(layout.cache_sectors, cfg.free_stack_onchip),
            xta,
            tables,
            free_pool,
            fifo_ptr: 0,
            fm_budget: 0,
            last_budget_reset: Cycle::ZERO,
            last_tick: Cycle::ZERO,
            stats: SchemeStats::default(),
            unused: vec![0; layout.flat_sectors.div_ceil(64) as usize],
            unused_live: 0,
            swaps_avoided: 0,
            writebacks_avoided: 0,
            layout,
            cfg,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &Hybrid2Config {
        &self.cfg
    }

    /// The derived memory layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The on-chip tag array (inspection/testing).
    pub fn xta(&self) -> &Xta {
        &self.xta
    }

    /// The remap tables (inspection/testing).
    pub fn tables(&self) -> &RemapTables {
        &self.tables
    }

    /// The free-FM stack (inspection/testing).
    pub fn free_stack(&self) -> &FreeFmStack {
        &self.stack
    }

    /// Current §3.7.3 budget value (inspection/testing).
    pub fn fm_budget(&self) -> u64 {
        self.fm_budget
    }

    /// Unassigned cache-pool slots (inspection/testing).
    pub fn free_pool_len(&self) -> usize {
        self.free_pool.len()
    }

    /// §3.8: Figure-8 swap copies avoided thanks to OS free-space hints.
    pub fn swaps_avoided(&self) -> u64 {
        self.swaps_avoided
    }

    /// §3.8: dirty-writeback bursts avoided thanks to OS free-space hints.
    pub fn writebacks_avoided(&self) -> u64 {
        self.writebacks_avoided
    }

    /// §3.8: sectors currently hinted unused.
    pub fn unused_sector_count(&self) -> u64 {
        self.unused.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// True if flat sector `sector` is hinted dead.
    fn is_unused(&self, sector: u64) -> bool {
        self.unused[(sector / 64) as usize] & (1 << (sector % 64)) != 0
    }

    /// Marks flat sector `sector` dead or live, keeping `unused_live`.
    fn set_unused(&mut self, sector: u64, dead: bool) {
        let (word, bit) = (&mut self.unused[(sector / 64) as usize], 1 << (sector % 64));
        if (*word & bit != 0) != dead {
            *word ^= bit;
            if dead {
                self.unused_live += 1;
            } else {
                self.unused_live -= 1;
            }
        }
    }

    fn remap_is_free(&self) -> bool {
        matches!(self.cfg.variant, Variant::NoRemap | Variant::CacheOnly)
    }

    fn meta_read(&mut self, addr: u64, at: Cycle, dram: &mut DramSystem) -> Cycle {
        if self.remap_is_free() {
            return at;
        }
        self.stats.metadata_reads += 1;
        dram.submit(ServiceRequest::new(
            MemSide::Nm,
            DramAccess {
                addr: addr & !63,
                bytes: 64,
                kind: AccessKind::Read,
                class: TrafficClass::Metadata,
                at,
            },
        ))
    }

    fn meta_write(&mut self, addr: u64, at: Cycle, dram: &mut DramSystem) {
        if self.remap_is_free() {
            return;
        }
        self.stats.metadata_writes += 1;
        dram.submit(ServiceRequest::new(
            MemSide::Nm,
            DramAccess {
                addr: addr & !63,
                bytes: 64,
                kind: AccessKind::Write,
                class: TrafficClass::Metadata,
                at,
            },
        ));
    }

    /// Figure 9 + Figure 10: dispose of an XTA victim. Must be called after
    /// the victim has been removed from the XTA (so the §3.7.1 peer
    /// comparison sees only the remaining sectors).
    fn process_eviction(&mut self, victim: XtaEntry, at: Cycle, dram: &mut DramSystem) {
        let Some(fm) = victim.fm_loc else {
            // Case 1: already-migrated sector — no data movement, the remap
            // tables are already correct (§3.6).
            return;
        };
        let g = self.layout.geometry;
        let lines = g.lines_per_sector();
        let all_lines = u64::MAX >> (64 - lines);
        let line_bytes = g.line_size() as u32;
        // §3.8: a sector the OS declared dead needs neither migration nor
        // writebacks — drop it and recycle the slot.
        if self.unused_live > 0 && self.is_unused(victim.sector.raw()) {
            if victim.dirty != 0 {
                self.writebacks_avoided += 1;
            }
            self.tables.set_sector_at(victim.nm_slot, None);
            let inv_addr = self.layout.inverted_entry_addr(victim.nm_slot);
            self.meta_write(inv_addr, at, dram);
            self.free_pool.push(victim.nm_slot);
            return;
        }
        let strongest_peer = self.xta.strongest_peer(victim.sector);
        let cost = CostInputs {
            nall: lines,
            nvalid: victim.valid_count(),
            ndirty: victim.dirty_count(),
        };
        match decide(
            victim.counter,
            strongest_peer,
            cost,
            self.fm_budget,
            self.cfg.variant,
        ) {
            Decision::Evict => {
                // Write dirty lines back to FM; no remap structures change.
                let dirty = victim.dirty & all_lines;
                dram.copy_lines(
                    dirty,
                    (MemSide::Nm, self.layout.nm_slot_addr(victim.nm_slot)),
                    (MemSide::Fm, self.layout.fm_loc_addr(fm)),
                    line_bytes,
                    TrafficClass::Writeback,
                    at,
                );
                self.stats.dirty_writebacks += u64::from(dirty.count_ones());
                // The slot returns to the cache pool's free list.
                self.tables.set_sector_at(victim.nm_slot, None);
                let inv_addr = self.layout.inverted_entry_addr(victim.nm_slot);
                self.meta_write(inv_addr, at, dram);
                self.free_pool.push(victim.nm_slot);
            }
            Decision::Migrate { net_cost } => {
                if matches!(self.cfg.variant, Variant::Full | Variant::NoRemap) {
                    self.fm_budget = self.fm_budget.saturating_sub(net_cost);
                }
                // Fetch the lines not yet in NM (§3.6 case 2, migrate arm).
                dram.copy_lines(
                    !victim.valid & all_lines,
                    (MemSide::Fm, self.layout.fm_loc_addr(fm)),
                    (MemSide::Nm, self.layout.nm_slot_addr(victim.nm_slot)),
                    line_bytes,
                    TrafficClass::Migration,
                    at,
                );
                // The vacated FM location becomes reusable.
                let eff = self.stack.push(fm);
                if eff.touches_nm {
                    let addr = self.layout.stack_entry_addr(eff.depth);
                    self.meta_write(addr, at, dram);
                }
                // Remap: the sector's home is now its (former cache) slot.
                self.tables
                    .set_location(victim.sector, Loc::Nm(victim.nm_slot));
                let remap_addr = self.layout.remap_entry_addr(victim.sector);
                self.meta_write(remap_addr, at, dram);
                // The slot permanently leaves the cache pool (§3.5 will
                // replenish it by swapping some flat sector out).
                self.tables.set_slot_state(victim.nm_slot, SlotState::Flat);
                self.stats.moved_into_nm += 1;
            }
        }
    }

    /// Figure 8: obtain an NM slot for a newly cached FM sector.
    fn alloc_cache_slot(&mut self, at: Cycle, dram: &mut DramSystem) -> NmLoc {
        if let Some(slot) = self.free_pool.pop() {
            return slot;
        }
        let g = self.layout.geometry;
        let lines = g.lines_per_sector();
        let line_bytes = g.line_size() as u32;
        let mut probes = 0u64;
        loop {
            probes += 1;
            assert!(
                probes <= 2 * self.layout.slots,
                "FIFO allocator scanned every slot twice without a victim — \
                 the flat region is too small (validated impossible)"
            );
            let cand = NmLoc::new(self.fifo_ptr % self.layout.slots);
            self.fifo_ptr += 1;
            // Cache-pool slots are skipped outright (they are not part of
            // the flat space; no metadata access needed — ownership is
            // implicit in the DCMC's own slot bookkeeping).
            if self.tables.slot_state(cand) == SlotState::CachePool {
                continue;
            }
            // Inverted-remap lookup to learn which sector lives here.
            let inv_addr = self.layout.inverted_entry_addr(cand);
            self.meta_read(inv_addr, at, dram);
            let sec = self
                .tables
                .sector_at(cand)
                .expect("flat slot must hold a sector");
            // §3.5: a sector that is in the DRAM cache must not be swapped
            // out; this doubles as a replacement filter.
            if self.xta.contains(sec) {
                continue;
            }
            // Swap the victim flat sector out to a free FM location.
            let (f, eff) = self
                .stack
                .pop()
                .expect("free-FM stack cannot be empty when the boot pool is exhausted");
            if eff.touches_nm {
                let addr = self.layout.stack_entry_addr(eff.depth);
                self.meta_read(addr, at, dram);
            }
            // §3.8: dead data need not be copied — only the remap changes.
            if self.unused_live > 0 && self.is_unused(sec.raw()) {
                self.swaps_avoided += 1;
            } else {
                dram.submit(
                    ServiceRequest::new(
                        MemSide::Nm,
                        DramAccess {
                            addr: self.layout.nm_slot_addr(cand),
                            bytes: line_bytes,
                            kind: AccessKind::Read,
                            class: TrafficClass::Migration,
                            at,
                        },
                    )
                    .with_count(lines),
                );
                dram.submit(
                    ServiceRequest::new(
                        MemSide::Fm,
                        DramAccess {
                            addr: self.layout.fm_loc_addr(f),
                            bytes: line_bytes,
                            kind: AccessKind::Write,
                            class: TrafficClass::Migration,
                            at,
                        },
                    )
                    .with_count(lines),
                );
            }
            self.tables.set_location(sec, Loc::Fm(f));
            let remap_addr = self.layout.remap_entry_addr(sec);
            self.meta_write(remap_addr, at, dram);
            self.tables.set_sector_at(cand, None);
            self.tables.set_slot_state(cand, SlotState::CachePool);
            self.stats.moved_out_of_nm += 1;
            return cand;
        }
    }

    fn maybe_reset_budget(&mut self, now: Cycle) {
        if now.saturating_since(self.last_budget_reset) >= self.cfg.budget_reset_period {
            self.fm_budget = 0;
            self.last_budget_reset = now;
        }
    }

    /// Full-structure consistency check for tests: remap bijection, pool
    /// conservation, stack/remap agreement, XTA/pool slot disjointness.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tables.check_invariants()?;
        // Pool conservation: owned slots never exceed the cache capacity,
        // and free + XTA-assigned = owned.
        let owned = self.tables.cache_pool_size();
        if owned > self.layout.cache_sectors {
            return Err(format!(
                "cache pool owns {owned} slots > capacity {}",
                self.layout.cache_sectors
            ));
        }
        let assigned = self.xta.iter().filter(|e| !e.is_nm_resident()).count() as u64;
        if assigned + self.free_pool.len() as u64 != owned {
            return Err(format!(
                "pool accounting broken: {assigned} assigned + {} free != {owned} owned",
                self.free_pool.len()
            ));
        }
        // Stack contents are exactly the unmapped FM locations.
        let mut expected = self.tables.free_fm_locations();
        let mut actual: Vec<_> = self.stack.as_slice().to_vec();
        expected.sort_unstable();
        actual.sort_unstable();
        if expected != actual {
            return Err(format!(
                "free-FM stack ({} entries) disagrees with remap table ({} free)",
                actual.len(),
                expected.len()
            ));
        }
        // dirty ⊆ valid in every XTA entry.
        for e in self.xta.iter() {
            if e.dirty & !e.valid != 0 {
                return Err(format!("entry {:?} has dirty lines not valid", e.sector));
            }
            if e.is_nm_resident() && e.valid != self.xta.full_mask() {
                return Err(format!(
                    "NM-resident entry {:?} must have all lines valid",
                    e.sector
                ));
            }
        }
        Ok(())
    }
}

impl MemoryScheme for Dcmc {
    fn name(&self) -> &'static str {
        self.cfg.variant.label()
    }

    fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served {
        self.maybe_reset_budget(req.at);
        let g = self.layout.geometry;
        let sector = g.sector_of(req.addr);
        assert!(
            sector.raw() < self.layout.flat_sectors,
            "physical address {} outside the flat space",
            req.addr
        );
        let line = g.line_within_sector(req.addr);
        let bit = 1u64 << line;
        let in_sector_off = req.addr.raw() & (g.sector_size() - 1);
        let write = req.kind.is_write();

        self.stats.requests += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        // §3.8: any touch revives a hinted-dead sector (implicit realloc).
        if self.unused_live > 0 {
            self.set_unused(sector.raw(), false);
        }

        // Every request pays the on-chip XTA lookup (§3.2).
        let t0 = req.at + self.cfg.xta_latency;
        let counter_max = self.xta.counter_max();

        if let Some(entry) = self.xta.lookup_mut(sector) {
            self.stats.lookup_hits += 1;
            if !entry.is_nm_resident() {
                Xta::bump_counter(entry, counter_max);
            }
            let nm_slot = entry.nm_slot;
            if entry.valid & bit != 0 {
                // 1a: XTA hit / line hit — serve from NM.
                if write {
                    entry.dirty |= bit;
                }
                let addr = self.layout.nm_slot_addr(nm_slot) + in_sector_off;
                let (kind, class) = if write {
                    (AccessKind::Write, TrafficClass::Writeback)
                } else {
                    (AccessKind::Read, TrafficClass::Demand)
                };
                let done = dram.submit(ServiceRequest::new(
                    MemSide::Nm,
                    DramAccess {
                        addr,
                        bytes: req.bytes,
                        kind,
                        class,
                        at: t0,
                    },
                ));
                self.stats.served_from_nm += 1;
                Served::new(done, true)
            } else {
                // 1b: XTA hit / line miss — fetch the whole DCMC line from
                // FM via the FM pointer, fill it into NM via the NM pointer.
                let fm = entry
                    .fm_loc
                    .expect("NM-resident entries have all lines valid");
                entry.valid |= bit;
                if write {
                    entry.dirty |= bit;
                }
                let line_off = u64::from(line) * g.line_size();
                let fm_addr = self.layout.fm_loc_addr(fm) + line_off;
                let nm_addr = self.layout.nm_slot_addr(nm_slot) + line_off;
                let class = if write {
                    TrafficClass::Fill
                } else {
                    TrafficClass::Demand
                };
                let fetched = dram.submit(ServiceRequest::new(
                    MemSide::Fm,
                    DramAccess {
                        addr: fm_addr,
                        bytes: g.line_size() as u32,
                        kind: AccessKind::Read,
                        class,
                        at: t0,
                    },
                ));
                dram.submit(ServiceRequest::new(
                    MemSide::Nm,
                    DramAccess {
                        addr: nm_addr,
                        bytes: g.line_size() as u32,
                        kind: AccessKind::Write,
                        class: TrafficClass::Fill,
                        at: fetched,
                    },
                ));
                self.fm_budget += 1;
                Served::new(if write { t0 } else { fetched }, false)
            }
        } else {
            // 2: XTA miss — consult the remap table (in NM) and allocate.
            self.stats.lookup_misses += 1;
            let remap_addr = self.layout.remap_entry_addr(sector);
            let t1 = self.meta_read(remap_addr, t0, dram);
            let loc = self.tables.location(sector);

            // Make room in the set (Figure 9).
            if let Some(victim) = self.xta.evict_lru_if_full(sector) {
                self.process_eviction(victim, t1, dram);
            }

            match loc {
                Loc::Nm(slot) => {
                    // 2a: sector already in NM — link it, all lines valid.
                    let entry = self.xta.entry_for_nm_sector(sector, slot);
                    self.xta.insert(entry);
                    let addr = self.layout.nm_slot_addr(slot) + in_sector_off;
                    let (kind, class) = if write {
                        (AccessKind::Write, TrafficClass::Writeback)
                    } else {
                        (AccessKind::Read, TrafficClass::Demand)
                    };
                    let done = dram.submit(ServiceRequest::new(
                        MemSide::Nm,
                        DramAccess {
                            addr,
                            bytes: req.bytes,
                            kind,
                            class,
                            at: t1,
                        },
                    ));
                    self.stats.served_from_nm += 1;
                    Served::new(done, true)
                }
                Loc::Fm(fm) => {
                    // 2b: sector in FM — allocate NM space, fetch the line.
                    let slot = self.alloc_cache_slot(t1, dram);
                    // Eager inverted-remap update (§3.4, correctness of the
                    // FIFO allocator).
                    self.tables.set_sector_at(slot, Some(sector));
                    let inv_addr = self.layout.inverted_entry_addr(slot);
                    self.meta_write(inv_addr, t1, dram);

                    let line_off = u64::from(line) * g.line_size();
                    let fm_addr = self.layout.fm_loc_addr(fm) + line_off;
                    let nm_addr = self.layout.nm_slot_addr(slot) + line_off;
                    let class = if write {
                        TrafficClass::Fill
                    } else {
                        TrafficClass::Demand
                    };
                    let fetched = dram.submit(ServiceRequest::new(
                        MemSide::Fm,
                        DramAccess {
                            addr: fm_addr,
                            bytes: g.line_size() as u32,
                            kind: AccessKind::Read,
                            class,
                            at: t1,
                        },
                    ));
                    dram.submit(ServiceRequest::new(
                        MemSide::Nm,
                        DramAccess {
                            addr: nm_addr,
                            bytes: g.line_size() as u32,
                            kind: AccessKind::Write,
                            class: TrafficClass::Fill,
                            at: fetched,
                        },
                    ));
                    self.fm_budget += 1;
                    let entry = Xta::entry_for_fm_fetch(sector, slot, fm, line, write);
                    self.xta.insert(entry);
                    Served::new(if write { t1 } else { fetched }, false)
                }
            }
        }
    }

    fn on_tick(&mut self, now: Cycle, _dram: &mut DramSystem) {
        // Machine-loop contract, relied on by the §3.7.3 budget interval
        // (and by any future tick-driven migration state): the event loop —
        // per-op reference and epoch-batched alike — delivers ticks in
        // nondecreasing time order, interleaved with `access` calls exactly
        // as the per-op reference schedule would. A run-ahead core must
        // never fire a tick early.
        debug_assert!(
            now >= self.last_tick,
            "on_tick went backwards: {now:?} after {:?}",
            self.last_tick
        );
        self.last_tick = now;
        self.maybe_reset_budget(now);
    }

    fn os_hint_unused(&mut self, addr: sim_types::PAddr, bytes: u64) {
        // Only sectors fully inside the hinted range become skippable.
        let sector_bytes = self.layout.geometry.sector_size();
        let first = addr.raw().div_ceil(sector_bytes);
        let last = (addr.raw() + bytes) / sector_bytes;
        for sec in first..last.min(self.layout.flat_sectors) {
            self.set_unused(sec, true);
        }
    }

    fn os_hint_used(&mut self, addr: sim_types::PAddr, bytes: u64) {
        let sector_bytes = self.layout.geometry.sector_size();
        let first = addr.raw() / sector_bytes;
        let last = (addr.raw() + bytes).div_ceil(sector_bytes);
        for sec in first..last.min(self.layout.flat_sectors) {
            self.set_unused(sec, false);
        }
    }

    fn tick_period(&self) -> Option<u64> {
        Some(self.cfg.budget_reset_period)
    }

    fn flat_capacity_bytes(&self) -> u64 {
        self.layout.flat_capacity_bytes()
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::{PAddr, SectorId};

    fn small_dcmc(variant: Variant) -> (Dcmc, DramSystem) {
        // 1/1024 scale: NM 1 MB, FM 16 MB, cache 64 KB (32 sectors, 2 sets
        // of 16 ways).
        let cfg = Hybrid2Config::scaled_down(1024)
            .unwrap()
            .with_variant(variant);
        (Dcmc::new(cfg).unwrap(), DramSystem::paper_default())
    }

    fn fm_addr(dcmc: &Dcmc, n: u64) -> PAddr {
        // An address whose sector boots in FM.
        let l = dcmc.layout();
        PAddr::new((l.nm_flat_sectors + n) * l.geometry.sector_size())
    }

    fn nm_addr(_dcmc: &Dcmc, n: u64) -> PAddr {
        PAddr::new(n * 2048)
    }

    #[test]
    fn read_of_nm_born_sector_is_2a_then_1a() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let a = nm_addr(&d, 0);
        let s1 = d.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        assert!(s1.from_nm);
        assert_eq!(d.stats().lookup_misses, 1);
        let s2 = d.access(&MemReq::read(a, 64, s1.done), &mut dram);
        assert!(s2.from_nm);
        assert_eq!(d.stats().lookup_hits, 1);
        d.check_invariants().unwrap();
    }

    #[test]
    fn read_of_fm_sector_is_2b_then_line_hit() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let a = fm_addr(&d, 0);
        let s1 = d.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        assert!(!s1.from_nm, "first touch comes from FM");
        // Same 256 B line: now cached in NM.
        let s2 = d.access(&MemReq::read(a.offset(64), 64, s1.done), &mut dram);
        assert!(s2.from_nm);
        // Different line of the same sector: 1b (XTA hit, line miss).
        let s3 = d.access(&MemReq::read(a.offset(512), 64, s2.done), &mut dram);
        assert!(!s3.from_nm);
        assert_eq!(d.stats().lookup_hits, 2);
        d.check_invariants().unwrap();
    }

    #[test]
    fn fm_fetch_consumes_boot_pool() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let before = d.free_pool_len();
        d.access(&MemReq::read(fm_addr(&d, 0), 64, Cycle::ZERO), &mut dram);
        assert_eq!(d.free_pool_len(), before - 1);
        d.check_invariants().unwrap();
    }

    #[test]
    fn writes_mark_lines_dirty_and_do_not_wait_for_fm() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let a = fm_addr(&d, 1);
        let t = Cycle::new(100);
        let s = d.access(&MemReq::write(a, 64, t), &mut dram);
        assert!(!s.from_nm);
        // Writes are buffered: done is the post-lookup time, well before an
        // FM round trip.
        assert!(s.done - t < 50, "write stalled: {}", s.done - t);
        let e = d
            .xta()
            .iter()
            .find(|e| e.sector == d.layout().geometry.sector_of(a))
            .unwrap();
        assert_eq!(e.dirty.count_ones(), 1);
        d.check_invariants().unwrap();
    }

    /// Touch every line of `sector_addr` so Nvalid = Nall (cheap migration).
    fn touch_all_lines(d: &mut Dcmc, dram: &mut DramSystem, base: PAddr, write: bool) {
        let g = d.layout().geometry;
        for l in 0..g.lines_per_sector() {
            let a = base.offset(u64::from(l) * g.line_size());
            let req = if write {
                MemReq::write(a, 64, Cycle::ZERO)
            } else {
                MemReq::read(a, 64, Cycle::ZERO)
            };
            d.access(&req, dram);
        }
    }

    /// Force sector `addr`'s XTA entry out by filling its set with other
    /// FM sectors. Returns how many allocations were made.
    fn force_eviction(d: &mut Dcmc, dram: &mut DramSystem, addr: PAddr) {
        let sets = d.xta().sets();
        let g = d.layout().geometry;
        let target = g.sector_of(addr);
        let l = *d.layout();
        let assoc = d.config().xta_assoc as u64;
        let mut filled = 0;
        let mut n = 0u64;
        while filled < assoc + 1 {
            let sec = l.nm_flat_sectors + n;
            n += 1;
            if sec >= l.flat_sectors {
                panic!("ran out of FM sectors");
            }
            let sid = SectorId::new(sec);
            if sid == target || (sid.raw() & (sets - 1)) != (target.raw() & (sets - 1)) {
                continue;
            }
            d.access(
                &MemReq::read(PAddr::new(sec * g.sector_size()), 64, Cycle::ZERO),
                dram,
            );
            filled += 1;
        }
    }

    #[test]
    fn migrate_all_variant_migrates_on_eviction() {
        let (mut d, mut dram) = small_dcmc(Variant::MigrateAll);
        let a = fm_addr(&d, 0);
        touch_all_lines(&mut d, &mut dram, a, false);
        force_eviction(&mut d, &mut dram, a);
        assert!(
            d.stats().moved_into_nm >= 1,
            "MigrateAll must migrate the evicted sector"
        );
        // The sector's home is now NM.
        let sec = d.layout().geometry.sector_of(a);
        assert!(d.tables().location(sec).is_nm());
        // Its old FM location is on the free stack (possibly already
        // consumed by a subsequent swap; at least it passed through).
        d.check_invariants().unwrap();
    }

    #[test]
    fn migrate_none_variant_never_migrates() {
        let (mut d, mut dram) = small_dcmc(Variant::MigrateNone);
        let a = fm_addr(&d, 0);
        touch_all_lines(&mut d, &mut dram, a, true);
        force_eviction(&mut d, &mut dram, a);
        assert_eq!(d.stats().moved_into_nm, 0);
        assert!(d.stats().dirty_writebacks > 0, "dirty lines written back");
        let sec = d.layout().geometry.sector_of(a);
        assert!(!d.tables().location(sec).is_nm());
        d.check_invariants().unwrap();
    }

    #[test]
    fn full_policy_migrates_hot_sector_with_budget() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let a = fm_addr(&d, 0);
        // Build budget with demand FM fetches and make the sector hot and
        // fully valid+dirty (net cost 1).
        touch_all_lines(&mut d, &mut dram, a, true);
        for _ in 0..4 {
            touch_all_lines(&mut d, &mut dram, a, false);
        }
        assert!(d.fm_budget() > 1);
        force_eviction(&mut d, &mut dram, a);
        assert!(d.stats().moved_into_nm >= 1, "hot sector should migrate");
        d.check_invariants().unwrap();
    }

    #[test]
    fn cold_sector_with_zero_budget_is_evicted() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let a = fm_addr(&d, 0);
        d.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        // Zero the budget via a reset far in the future.
        d.on_tick(Cycle::new(10_000_000), &mut dram);
        assert_eq!(d.fm_budget(), 0);
        force_eviction(&mut d, &mut dram, a);
        // force_eviction's own fetches rebuild some budget, but the victim
        // selection compares counters: our victim (1 access) competes with
        // fresh sectors (1 access each) — equal is allowed, so the budget
        // gate decides. Either way the invariants hold and nothing leaked.
        d.check_invariants().unwrap();
    }

    #[test]
    fn boot_pool_exhaustion_triggers_fig8_swap() {
        let (mut d, mut dram) = small_dcmc(Variant::MigrateAll);
        let l = *d.layout();
        let g = l.geometry;
        // Touch far more FM sectors than the cache holds; MigrateAll makes
        // every eviction migrate, draining the pool and forcing Figure-8
        // swaps (moved_out_of_nm).
        let n = l.cache_sectors * 3;
        for i in 0..n {
            let sec = l.nm_flat_sectors + i;
            d.access(
                &MemReq::read(PAddr::new(sec * g.sector_size()), 64, Cycle::ZERO),
                &mut dram,
            );
        }
        assert!(d.stats().moved_out_of_nm > 0, "Figure-8 swaps must occur");
        assert!(d.stats().moved_into_nm > 0);
        d.check_invariants().unwrap();
    }

    #[test]
    fn budget_resets_on_period() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        d.access(&MemReq::read(fm_addr(&d, 0), 64, Cycle::ZERO), &mut dram);
        assert!(d.fm_budget() > 0);
        let period = d.config().budget_reset_period;
        d.on_tick(Cycle::new(period), &mut dram);
        assert_eq!(d.fm_budget(), 0);
    }

    #[test]
    fn noremap_variant_produces_no_metadata_traffic() {
        let (mut d, mut dram) = small_dcmc(Variant::NoRemap);
        for i in 0..50 {
            d.access(&MemReq::read(fm_addr(&d, i), 64, Cycle::ZERO), &mut dram);
        }
        assert_eq!(d.stats().metadata_reads, 0);
        assert_eq!(d.stats().metadata_writes, 0);
        assert_eq!(
            dram.device(MemSide::Nm)
                .stats()
                .bytes(TrafficClass::Metadata),
            0
        );
    }

    #[test]
    fn full_variant_charges_metadata_traffic() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        for i in 0..50 {
            d.access(&MemReq::read(fm_addr(&d, i), 64, Cycle::ZERO), &mut dram);
        }
        assert!(d.stats().metadata_reads > 0);
        assert!(
            dram.device(MemSide::Nm)
                .stats()
                .bytes(TrafficClass::Metadata)
                > 0
        );
    }

    #[test]
    fn xta_miss_pays_remap_latency() {
        let (mut d_full, mut dram_full) = small_dcmc(Variant::Full);
        let (mut d_free, mut dram_free) = small_dcmc(Variant::NoRemap);
        let a_full = fm_addr(&d_full, 0);
        let s_full = d_full.access(&MemReq::read(a_full, 64, Cycle::ZERO), &mut dram_full);
        let s_free = d_free.access(&MemReq::read(a_full, 64, Cycle::ZERO), &mut dram_free);
        assert!(
            s_full.done > s_free.done,
            "remap lookup must lengthen the critical path"
        );
    }

    #[test]
    fn served_from_nm_counts_demand_hits() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let a = nm_addr(&d, 0);
        d.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        d.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        let b = fm_addr(&d, 0);
        d.access(&MemReq::read(b, 64, Cycle::ZERO), &mut dram);
        assert_eq!(d.stats().requests, 3);
        assert_eq!(d.stats().served_from_nm, 2);
    }

    #[test]
    fn flat_capacity_includes_nm_share() {
        let (d, _) = small_dcmc(Variant::Full);
        assert!(d.flat_capacity_bytes() > d.config().fm_bytes);
        assert_eq!(d.name(), "HYBRID2");
    }

    #[test]
    #[should_panic(expected = "outside the flat space")]
    fn out_of_range_address_panics() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let beyond = d.flat_capacity_bytes();
        d.access(
            &MemReq::read(PAddr::new(beyond), 64, Cycle::ZERO),
            &mut dram,
        );
    }

    #[test]
    fn os_hints_mark_only_fully_covered_sectors() {
        let (mut d, _) = small_dcmc(Variant::Full);
        let sector = d.layout().geometry.sector_size();
        // A range covering 1.5 sectors marks only the fully covered one.
        d.os_hint_unused(PAddr::new(sector), sector + sector / 2);
        assert_eq!(d.unused_sector_count(), 1);
        // Revive half of it: the whole sector becomes live again.
        d.os_hint_used(PAddr::new(sector), 64);
        assert_eq!(d.unused_sector_count(), 0);
    }

    #[test]
    fn os_hints_cross_bitmap_words() {
        let (mut d, _) = small_dcmc(Variant::Full);
        let sector = d.layout().geometry.sector_size();
        assert_eq!(
            d.unused.len() as u64,
            d.layout().flat_sectors.div_ceil(64),
            "one bit per flat sector"
        );
        d.os_hint_unused(PAddr::new(60 * sector), 10 * sector);
        assert_eq!(d.unused_sector_count(), 10);
        assert!(!d.is_unused(59) && d.is_unused(60) && d.is_unused(69) && !d.is_unused(70));
        d.os_hint_unused(PAddr::new(62 * sector), 2 * sector); // already dead
        d.os_hint_used(PAddr::new(64 * sector), 2 * sector);
        assert_eq!(d.unused_sector_count(), 8);
        assert_eq!(d.unused_live, 8, "live count tracks the bitmap");
        assert!(d.is_unused(63) && !d.is_unused(64) && !d.is_unused(65) && d.is_unused(66));
    }

    #[test]
    fn unused_victims_skip_writebacks() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let a = fm_addr(&d, 0);
        touch_all_lines(&mut d, &mut dram, a, true); // all dirty
        let sector_bytes = d.layout().geometry.sector_size();
        d.os_hint_unused(a, sector_bytes);
        let wb_before = dram
            .device(MemSide::Fm)
            .stats()
            .bytes(TrafficClass::Writeback);
        force_eviction(&mut d, &mut dram, a);
        let wb_after = dram
            .device(MemSide::Fm)
            .stats()
            .bytes(TrafficClass::Writeback);
        assert_eq!(wb_before, wb_after, "dead data must not be written back");
        assert_eq!(d.writebacks_avoided(), 1);
        // The dead sector itself must not have migrated (fillers may).
        let sec = d.layout().geometry.sector_of(a);
        assert!(
            !d.tables().location(sec).is_nm(),
            "dead data must not migrate"
        );
        d.check_invariants().unwrap();
    }

    #[test]
    fn unused_flat_sectors_skip_fig8_copies() {
        let (mut d, mut dram) = small_dcmc(Variant::MigrateAll);
        // Hint the whole NM-born flat region dead: every Figure-8 swap can
        // skip its copy.
        let l = *d.layout();
        let g = l.geometry;
        d.os_hint_unused(PAddr::new(0), l.nm_flat_sectors * g.sector_size());
        let n = l.cache_sectors * 3;
        for i in 0..n {
            let sec = l.nm_flat_sectors + i;
            d.access(
                &MemReq::read(PAddr::new(sec * g.sector_size()), 64, Cycle::ZERO),
                &mut dram,
            );
        }
        assert!(
            d.stats().moved_out_of_nm > 0,
            "swaps still happen logically"
        );
        // Every NM-born (still dead) victim skips its copy; sectors that were
        // touched and later migrated in are live again, so they still copy.
        assert!(d.swaps_avoided() > 0, "dead swap-outs must skip copies");
        assert!(d.swaps_avoided() <= d.stats().moved_out_of_nm);
        d.check_invariants().unwrap();
    }

    #[test]
    fn touching_a_dead_sector_revives_it() {
        let (mut d, mut dram) = small_dcmc(Variant::Full);
        let a = fm_addr(&d, 0);
        d.os_hint_unused(a, d.layout().geometry.sector_size());
        assert_eq!(d.unused_sector_count(), 1);
        d.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        assert_eq!(d.unused_sector_count(), 0, "implicit realloc on touch");
    }

    #[test]
    fn random_workout_preserves_invariants() {
        use sim_types::rng::SplitMix64;
        for variant in Variant::ALL {
            let (mut d, mut dram) = small_dcmc(variant);
            let flat = d.flat_capacity_bytes();
            let mut rng = SplitMix64::new(0xD00D ^ variant as u64);
            let mut t = Cycle::ZERO;
            for i in 0..4000 {
                let addr = PAddr::new(rng.gen_range(flat / 64) * 64);
                let req = if rng.chance(3, 10) {
                    MemReq::write(addr, 64, t)
                } else {
                    MemReq::read(addr, 64, t)
                };
                let served = d.access(&req, &mut dram);
                t = served.done.max(t) + rng.gen_range(100);
                if i % 500 == 0 {
                    d.check_invariants()
                        .unwrap_or_else(|e| panic!("{variant}: {e}"));
                }
            }
            d.check_invariants()
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
        }
    }
}
