//! The remap table, inverted remap table and slot ownership (§3.3).
//!
//! The remap table maps every *flat* (processor physical) sector to its
//! current home: an NM data slot or an FM sector location. The inverted
//! remap table answers the reverse question for NM slots, which the FIFO
//! allocator (§3.5) needs to avoid swapping out sectors that are currently
//! in the DRAM cache. Both tables live in the reserved NM metadata region;
//! the DCMC charges NM traffic for touching them (unless the `NoRemap`
//! ablation is active). This module is the *state*; traffic accounting
//! happens in [`crate::Dcmc`].

use sim_types::{FmLoc, NmLoc, SectorId};

use crate::config::Layout;

/// Where a flat sector currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Loc {
    /// An NM data slot.
    Nm(NmLoc),
    /// An FM sector location.
    Fm(FmLoc),
}

impl Loc {
    /// True if the sector lives in near memory.
    pub fn is_nm(self) -> bool {
        matches!(self, Loc::Nm(_))
    }

    /// The remap-table entry for this location: bit 31 set for FM, the
    /// slot or FM location in the low 31 bits. [`RemapTables::new`] bounds
    /// every index below 2^31; a larger index panics rather than being
    /// truncated.
    #[inline]
    fn pack(self) -> u32 {
        let (side, index) = match self {
            Loc::Nm(slot) => (0, slot.raw()),
            Loc::Fm(f) => (FM_BIT, f.raw()),
        };
        assert!(
            index < MAX_ENTRIES,
            "location {index} overflows a packed entry"
        );
        side | index as u32
    }

    /// Inverse of [`Loc::pack`].
    #[inline]
    fn unpack(entry: u32) -> Self {
        let index = u64::from(entry & !FM_BIT);
        if entry & FM_BIT == 0 {
            Loc::Nm(NmLoc::new(index))
        } else {
            Loc::Fm(FmLoc::new(index))
        }
    }
}

/// Side bit of a packed remap entry: set when the sector lives in FM.
const FM_BIT: u32 = 1 << 31;

/// Inverted-table entry of a slot that registers no sector.
const EMPTY: u32 = u32::MAX;

/// Both tables hold fewer than 2^31 entries, so that every sector id, slot
/// and FM location fits the low 31 bits of a `u32` (and no sector id
/// equals [`EMPTY`]). [`Hybrid2Config::validate`](crate::Hybrid2Config::validate)
/// rejects larger layouts with an error.
pub(crate) const MAX_ENTRIES: u64 = 1 << 31;

/// Ownership of one NM data slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// The slot is a home of a flat-space sector.
    Flat,
    /// The slot belongs to the DRAM cache pool (holding cached lines of an
    /// FM-resident sector, or awaiting assignment).
    CachePool,
}

/// The two remap tables plus slot ownership, with invariant checkers.
#[derive(Clone, Debug)]
pub struct RemapTables {
    /// Flat sector → home, one [`Loc::pack`]ed entry per sector.
    remap: Vec<u32>,
    /// NM slot → registered sector id, or [`EMPTY`].
    inverted: Vec<u32>,
    slot_state: Vec<SlotState>,
    layout: Layout,
}

impl RemapTables {
    /// Builds boot-state tables for `layout`: identity mapping (flat NM
    /// sectors in slots after the cache pool, FM sectors in order), boot
    /// cache pool unassigned.
    ///
    /// # Panics
    ///
    /// Panics if the flat space or the NM slots number 2^31 or more.
    pub fn new(layout: Layout) -> Self {
        assert!(
            layout.flat_sectors < MAX_ENTRIES && layout.slots < MAX_ENTRIES,
            "layout of {} sectors and {} slots exceeds the packed remap range (< 2^31)",
            layout.flat_sectors,
            layout.slots
        );
        // `Layout::initial_location`, filled by range: flat NM sectors in
        // the slots after the cache pool, then the FM sectors in order.
        let (pool, nm_flat) = (layout.cache_sectors as u32, layout.nm_flat_sectors as u32);
        let mut remap = Vec::with_capacity(layout.flat_sectors as usize);
        remap.extend(pool..pool + nm_flat);
        remap.extend((0..layout.fm_sectors as u32).map(|f| FM_BIT | f));
        let flat_slots = pool as usize..(pool + nm_flat) as usize;
        let mut inverted = vec![EMPTY; layout.slots as usize];
        for (entry, s) in inverted[flat_slots.clone()].iter_mut().zip(0..) {
            *entry = s;
        }
        let mut slot_state = vec![SlotState::CachePool; layout.slots as usize];
        slot_state[flat_slots].fill(SlotState::Flat);
        RemapTables {
            remap,
            inverted,
            slot_state,
            layout,
        }
    }

    /// The layout these tables were built for.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Current location of `sector`.
    ///
    /// # Panics
    ///
    /// Panics if `sector` is outside the flat space.
    pub fn location(&self, sector: SectorId) -> Loc {
        Loc::unpack(self.remap[sector.index()])
    }

    /// Points `sector` at a new home.
    pub fn set_location(&mut self, sector: SectorId, loc: Loc) {
        self.remap[sector.index()] = loc.pack();
        if let Loc::Nm(slot) = loc {
            self.set_sector_at(slot, Some(sector));
        }
    }

    /// The flat sector registered at NM `slot`, if any.
    pub fn sector_at(&self, slot: NmLoc) -> Option<SectorId> {
        let entry = self.inverted[slot.index()];
        (entry != EMPTY).then(|| SectorId::new(u64::from(entry)))
    }

    /// Registers `sector` in the inverted table for `slot` (done on 2b
    /// fetches *before* any migration so the FIFO allocator sees it, §3.4).
    pub fn set_sector_at(&mut self, slot: NmLoc, sector: Option<SectorId>) {
        self.inverted[slot.index()] = sector.map_or(EMPTY, |s| {
            assert!(
                s.raw() < MAX_ENTRIES,
                "sector {s:?} overflows a packed entry"
            );
            s.raw() as u32
        });
    }

    /// Ownership of `slot`.
    pub fn slot_state(&self, slot: NmLoc) -> SlotState {
        self.slot_state[slot.index()]
    }

    /// Transfers `slot` between the cache pool and the flat space.
    pub fn set_slot_state(&mut self, slot: NmLoc, state: SlotState) {
        self.slot_state[slot.index()] = state;
    }

    /// Number of slots currently owned by the cache pool.
    pub fn cache_pool_size(&self) -> u64 {
        self.slot_state
            .iter()
            .filter(|s| **s == SlotState::CachePool)
            .count() as u64
    }

    /// Checks the §4 invariants; returns a description of the first
    /// violation. Used by tests and debug assertions — O(flat space).
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1. Remap is injective: no two sectors share a home.
        let mut nm_seen = vec![false; self.layout.slots as usize];
        let mut fm_seen = vec![false; self.layout.fm_sectors as usize];
        for (s, &entry) in self.remap.iter().enumerate() {
            match Loc::unpack(entry) {
                Loc::Nm(slot) => {
                    if nm_seen[slot.index()] {
                        return Err(format!("NM slot {slot:?} mapped by two sectors"));
                    }
                    nm_seen[slot.index()] = true;
                    // 2. Inverted table agrees.
                    if self.sector_at(slot) != Some(SectorId::new(s as u64)) {
                        return Err(format!(
                            "inverted[{slot:?}] = {:?} but remap says sector {s}",
                            self.sector_at(slot)
                        ));
                    }
                    // 3. A sector's NM home is a Flat slot.
                    if self.slot_state[slot.index()] != SlotState::Flat {
                        return Err(format!("sector {s} homed in cache-pool slot {slot:?}"));
                    }
                }
                Loc::Fm(f) => {
                    if fm_seen[f.index()] {
                        return Err(format!("FM loc {f:?} mapped by two sectors"));
                    }
                    fm_seen[f.index()] = true;
                }
            }
        }
        // 4. The number of Flat slots equals the number of NM-homed sectors;
        //    pool size is therefore slots - nm_homed.
        let nm_homed = nm_seen.iter().filter(|b| **b).count() as u64;
        let flat_slots = self
            .slot_state
            .iter()
            .filter(|s| **s == SlotState::Flat)
            .count() as u64;
        if nm_homed != flat_slots {
            return Err(format!(
                "{nm_homed} sectors homed in NM but {flat_slots} slots marked Flat"
            ));
        }
        Ok(())
    }

    /// FM locations not used by any sector (the free-stack's rightful
    /// contents); O(flat space), for invariant tests.
    pub fn free_fm_locations(&self) -> Vec<FmLoc> {
        let mut used = vec![false; self.layout.fm_sectors as usize];
        for &entry in &self.remap {
            if let Loc::Fm(f) = Loc::unpack(entry) {
                used[f.index()] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter(|(_, u)| !**u)
            .map(|(i, _)| FmLoc::new(i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Hybrid2Config;

    fn tables() -> RemapTables {
        let layout = Hybrid2Config::scaled_down(256).unwrap().validate().unwrap();
        RemapTables::new(layout)
    }

    #[test]
    fn boot_state_is_identity_and_valid() {
        let t = tables();
        t.check_invariants().unwrap();
        let l = *t.layout();
        assert_eq!(t.cache_pool_size(), l.cache_sectors);
        // First flat sector homed at the first slot after the boot pool.
        match t.location(SectorId::new(0)) {
            Loc::Nm(slot) => assert_eq!(slot.raw(), l.cache_sectors),
            Loc::Fm(_) => panic!("sector 0 should boot in NM"),
        }
        assert!(!t.location(SectorId::new(l.nm_flat_sectors)).is_nm());
    }

    /// Checks freshly built tables against the per-sector construction the
    /// range fills in `new` replaced: one `Layout::initial_location` and
    /// `Loc::pack` per flat sector.
    fn assert_boot_tables_exact(t: &RemapTables) {
        t.check_invariants().unwrap();
        let layout = t.layout;
        let mut remap = Vec::new();
        let mut inverted = vec![EMPTY; layout.slots as usize];
        let mut slot_state = vec![SlotState::CachePool; layout.slots as usize];
        for s in 0..layout.flat_sectors {
            let loc = layout.initial_location(SectorId::new(s));
            if let Loc::Nm(slot) = loc {
                inverted[slot.index()] = s as u32;
                slot_state[slot.index()] = SlotState::Flat;
            }
            remap.push(loc.pack());
        }
        assert_eq!(t.remap, remap, "remap of {layout:?}");
        assert_eq!(t.inverted, inverted, "inverted of {layout:?}");
        assert_eq!(t.slot_state, slot_state, "slot state of {layout:?}");
    }

    #[test]
    fn bulk_boot_matches_per_sector_construction() {
        use crate::config::Variant;
        use crate::Dcmc;
        let scaled = Hybrid2Config::scaled_down(64).unwrap();
        for variant in Variant::ALL {
            let dcmc = Dcmc::new(scaled.with_variant(variant)).unwrap();
            assert_boot_tables_exact(dcmc.tables());
        }
        // The harness's 1, 2 and 4 GB NM ratios at 1/1024 and 1/2048.
        for den in [1024u64, 2048] {
            for nm_gb in [1u64, 2, 4] {
                let mut cfg = Hybrid2Config::scaled_down(den).unwrap();
                cfg.nm_bytes = (nm_gb << 30) / den;
                assert_boot_tables_exact(&RemapTables::new(cfg.validate().unwrap()));
            }
        }
        // One flat NM sector and one FM sector, with and without a
        // one-slot cache pool in front.
        for pool in [0, 1] {
            let mut layout = *tables().layout();
            layout.cache_sectors = pool;
            layout.slots = pool + 1;
            layout.nm_flat_sectors = 1;
            layout.fm_sectors = 1;
            layout.flat_sectors = 2;
            assert_boot_tables_exact(&RemapTables::new(layout));
        }
    }

    #[test]
    fn boot_free_fm_is_empty() {
        let t = tables();
        assert!(t.free_fm_locations().is_empty());
    }

    #[test]
    fn swap_maintains_invariants() {
        let mut t = tables();
        let l = *t.layout();
        // Move sector 5 from its NM slot to FM... requires a free FM loc, so
        // first move an FM sector into a pool slot (simulating a migration).
        let fm_sector = SectorId::new(l.nm_flat_sectors + 3);
        let Loc::Fm(freed) = t.location(fm_sector) else {
            panic!("expected FM sector")
        };
        let pool_slot = NmLoc::new(0);
        assert_eq!(t.slot_state(pool_slot), SlotState::CachePool);
        t.set_location(fm_sector, Loc::Nm(pool_slot));
        t.set_slot_state(pool_slot, SlotState::Flat);
        // Now swap sector 5 out to the freed FM location.
        let s5 = SectorId::new(5);
        let Loc::Nm(old_slot) = t.location(s5) else {
            panic!("sector 5 boots in NM")
        };
        t.set_location(s5, Loc::Fm(freed));
        t.set_sector_at(old_slot, None);
        t.set_slot_state(old_slot, SlotState::CachePool);
        t.check_invariants().unwrap();
        assert_eq!(t.cache_pool_size(), l.cache_sectors); // conserved
    }

    #[test]
    fn invariant_checker_catches_double_mapping() {
        let mut t = tables();
        let l = *t.layout();
        let a = SectorId::new(l.nm_flat_sectors); // an FM sector
        let b = SectorId::new(l.nm_flat_sectors + 1);
        let Loc::Fm(fa) = t.location(a) else { panic!() };
        t.set_location(b, Loc::Fm(fa));
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn invariant_checker_catches_inverted_mismatch() {
        let mut t = tables();
        let s = SectorId::new(0);
        let Loc::Nm(slot) = t.location(s) else {
            panic!()
        };
        t.set_sector_at(slot, Some(SectorId::new(1)));
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn free_fm_tracks_vacated_locations() {
        let mut t = tables();
        let l = *t.layout();
        let fm_sector = SectorId::new(l.nm_flat_sectors + 7);
        let Loc::Fm(freed) = t.location(fm_sector) else {
            panic!()
        };
        t.set_location(fm_sector, Loc::Nm(NmLoc::new(1)));
        t.set_slot_state(NmLoc::new(1), SlotState::Flat);
        assert_eq!(t.free_fm_locations(), vec![freed]);
    }

    #[test]
    fn packed_entries_round_trip_the_largest_index() {
        let top = MAX_ENTRIES - 1;
        for i in [0, 1, top] {
            for loc in [Loc::Nm(NmLoc::new(i)), Loc::Fm(FmLoc::new(i))] {
                assert_eq!(Loc::unpack(loc.pack()), loc);
            }
        }
        assert_eq!(Loc::Fm(FmLoc::new(top)).pack(), u32::MAX);
        let mut t = tables();
        let slot = NmLoc::new(0);
        t.set_sector_at(slot, Some(SectorId::new(top)));
        assert_eq!(t.sector_at(slot), Some(SectorId::new(top)));
        t.set_sector_at(slot, None);
        assert_eq!(t.sector_at(slot), None);
    }

    #[test]
    #[should_panic(expected = "overflows a packed entry")]
    fn storing_a_location_of_2_pow_31_panics() {
        tables().set_location(SectorId::new(0), Loc::Fm(FmLoc::new(MAX_ENTRIES)));
    }

    #[test]
    #[should_panic(expected = "packed remap range")]
    fn rejects_a_table_of_2_pow_31_sectors() {
        let mut layout = *tables().layout();
        layout.fm_sectors = MAX_ENTRIES - layout.nm_flat_sectors;
        layout.flat_sectors = MAX_ENTRIES;
        RemapTables::new(layout);
    }

    #[test]
    fn table_entries_are_four_bytes() {
        let t = tables();
        assert_eq!(std::mem::size_of_val(&t.remap[0]), 4);
        assert_eq!(std::mem::size_of_val(&t.inverted[0]), 4);
    }
}

/// The packed tables against the enum-vector tables they replaced.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::Hybrid2Config;
    use proptest::prelude::*;

    /// The remap state as it was stored before packing: one `Loc` per
    /// sector and one `Option<SectorId>` per slot.
    struct Reference {
        remap: Vec<Loc>,
        inverted: Vec<Option<SectorId>>,
    }

    impl Reference {
        fn new(layout: &Layout) -> Self {
            let mut inverted = vec![None; layout.slots as usize];
            let remap = (0..layout.flat_sectors)
                .map(|s| {
                    let loc = layout.initial_location(SectorId::new(s));
                    if let Loc::Nm(slot) = loc {
                        inverted[slot.index()] = Some(SectorId::new(s));
                    }
                    loc
                })
                .collect();
            Reference { remap, inverted }
        }

        fn set_location(&mut self, sector: SectorId, loc: Loc) {
            self.remap[sector.index()] = loc;
            if let Loc::Nm(slot) = loc {
                self.inverted[slot.index()] = Some(sector);
            }
        }
    }

    /// A 16-sector cache in 63 NM slots over 64 FM sectors: 111 flat
    /// sectors, small enough to compare whole tables after every step.
    fn small_layout() -> Layout {
        let mut cfg = Hybrid2Config::paper_default();
        let sector = cfg.geometry.sector_size();
        cfg.cache_bytes = 16 * sector;
        cfg.nm_bytes = 64 * sector;
        cfg.fm_bytes = 64 * sector;
        cfg.validate().unwrap()
    }

    proptest! {
        /// Random migrations (FM sector into a pool slot), evictions (NM
        /// sector out to a free FM location, slot back to the pool) and
        /// inverted-table registrations: every lookup answers what the
        /// reference answers, and the §4 invariants hold after every step.
        #[test]
        fn packed_tables_match_reference(
            steps in proptest::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 1..60),
        ) {
            let layout = small_layout();
            let mut t = RemapTables::new(layout);
            let mut reference = Reference::new(&layout);
            let mut free_fm: Vec<FmLoc> = Vec::new();
            for (op, a, b) in steps {
                let sector = SectorId::new(a % layout.flat_sectors);
                let slot = NmLoc::new(b % layout.slots);
                match (op, t.location(sector)) {
                    // Migrate an FM sector into a pool slot.
                    (0, Loc::Fm(f)) if t.slot_state(slot) == SlotState::CachePool => {
                        t.set_location(sector, Loc::Nm(slot));
                        t.set_slot_state(slot, SlotState::Flat);
                        reference.set_location(sector, Loc::Nm(slot));
                        free_fm.push(f);
                    }
                    // Evict an NM sector to a vacated FM location.
                    (1, Loc::Nm(home)) if !free_fm.is_empty() => {
                        let f = free_fm.swap_remove((b % free_fm.len() as u64) as usize);
                        t.set_location(sector, Loc::Fm(f));
                        t.set_sector_at(home, None);
                        t.set_slot_state(home, SlotState::CachePool);
                        reference.set_location(sector, Loc::Fm(f));
                        reference.inverted[home.index()] = None;
                    }
                    // Register (or clear) a pool slot's fetched sector.
                    (2, loc) if t.slot_state(slot) == SlotState::CachePool => {
                        let entry = (!loc.is_nm()).then_some(sector);
                        t.set_sector_at(slot, entry);
                        reference.inverted[slot.index()] = entry;
                    }
                    _ => {}
                }
                t.check_invariants().unwrap();
                for s in 0..layout.flat_sectors {
                    let s = SectorId::new(s);
                    prop_assert_eq!(t.location(s), reference.remap[s.index()]);
                }
                for i in 0..layout.slots {
                    let slot = NmLoc::new(i);
                    prop_assert_eq!(t.sector_at(slot), reference.inverted[slot.index()]);
                }
                let mut free = free_fm.clone();
                free.sort();
                prop_assert_eq!(t.free_fm_locations(), free);
            }
        }
    }
}
