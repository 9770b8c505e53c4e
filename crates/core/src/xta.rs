//! The eXtended Tag Array (§3.2, Figures 4 and 5).
//!
//! A set-associative, on-chip tag array with one entry per cached sector.
//! Each entry holds the conventional sectored-cache state — tag, per-line
//! valid and dirty bit-vectors, LRU — *extended* with the fields that let
//! the same structure serve the migration machinery:
//!
//! * an **NM pointer** decoupling the set/way from the physical NM location
//!   (the indirection that makes migration-on-eviction free of NM-to-NM
//!   copies),
//! * an **FM pointer** caching the remap-table entry for FM-resident
//!   sectors (skipping remap lookups on hits), and
//! * a **9-bit access counter** driving the §3.7 migration decision.

use sim_types::{FmLoc, NmLoc, SectorId};

/// One XTA entry (Figure 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XtaEntry {
    /// The cached sector's flat (processor physical) id; hardware would
    /// store only the tag bits, the full id is equivalent here.
    pub sector: SectorId,
    /// NM data slot holding this sector's cached lines (or its permanent
    /// home, for NM-resident sectors).
    pub nm_slot: NmLoc,
    /// FM home of the sector; `None` means the sector is NM-resident
    /// (migrated or NM-born), in which case all lines are valid by
    /// convention (Figure 5, bottom entry).
    pub fm_loc: Option<FmLoc>,
    /// Per-line valid bits.
    pub valid: u64,
    /// Per-line dirty bits (always a subset of `valid`).
    pub dirty: u64,
    /// Saturating access counter (§3.7.1); only advances for FM-resident
    /// sectors.
    pub counter: u16,
    /// LRU timestamp (larger = more recent).
    stamp: u64,
}

impl XtaEntry {
    /// Number of valid lines (`Nvalid` in the §3.7.2 cost function).
    pub fn valid_count(&self) -> u32 {
        self.valid.count_ones()
    }

    /// Number of dirty lines (`Ndirty`).
    pub fn dirty_count(&self) -> u32 {
        self.dirty.count_ones()
    }

    /// True for sectors whose home is NM (migrated or NM-born).
    pub fn is_nm_resident(&self) -> bool {
        self.fm_loc.is_none()
    }
}

/// The set-associative eXtended Tag Array.
#[derive(Clone, Debug)]
pub struct Xta {
    entries: Vec<Option<XtaEntry>>,
    sets: u64,
    assoc: usize,
    clock: u64,
    counter_max: u16,
    all_lines_mask: u64,
}

impl Xta {
    /// Builds an XTA with `sectors` total entries, `assoc` ways,
    /// `lines_per_sector` valid/dirty bits and a counter saturating at
    /// `2^counter_bits - 1`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is invalid (use
    /// [`Hybrid2Config::validate`](crate::Hybrid2Config::validate) first).
    pub fn new(sectors: u64, assoc: u32, lines_per_sector: u32, counter_bits: u32) -> Self {
        assert!(assoc > 0 && sectors.is_multiple_of(u64::from(assoc)));
        let sets = sectors / u64::from(assoc);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!((1..=64).contains(&lines_per_sector));
        assert!((1..=16).contains(&counter_bits));
        Xta {
            entries: vec![None; sectors as usize],
            sets,
            assoc: assoc as usize,
            clock: 0,
            counter_max: ((1u32 << counter_bits) - 1) as u16,
            all_lines_mask: if lines_per_sector == 64 {
                u64::MAX
            } else {
                (1u64 << lines_per_sector) - 1
            },
        }
    }

    /// The all-lines-valid mask for this geometry.
    pub fn full_mask(&self) -> u64 {
        self.all_lines_mask
    }

    /// The saturation value of the access counters.
    pub fn counter_max(&self) -> u16 {
        self.counter_max
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    #[inline]
    fn set_of(&self, sector: SectorId) -> usize {
        (sector.raw() & (self.sets - 1)) as usize
    }

    fn range_of(&self, sector: SectorId) -> core::ops::Range<usize> {
        let start = self.set_of(sector) * self.assoc;
        start..start + self.assoc
    }

    /// Looks up `sector`, updating LRU on hit. The §3.7.1 counter rule is
    /// applied by the caller via [`XtaEntry::counter`] (it depends on the
    /// access, not the lookup).
    pub fn lookup_mut(&mut self, sector: SectorId) -> Option<&mut XtaEntry> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.range_of(sector);
        let entry = self.entries[range]
            .iter_mut()
            .flatten()
            .find(|e| e.sector == sector)?;
        entry.stamp = clock;
        Some(entry)
    }

    /// Residency probe without LRU update (used by the §3.5 FIFO allocator).
    pub fn contains(&self, sector: SectorId) -> bool {
        let range = self.range_of(sector);
        self.entries[range]
            .iter()
            .flatten()
            .any(|e| e.sector == sector)
    }

    /// True if inserting `sector` requires evicting a victim first.
    pub fn set_is_full(&self, sector: SectorId) -> bool {
        let range = self.range_of(sector);
        self.entries[range].iter().all(Option::is_some)
    }

    /// Removes and returns the LRU entry of `sector`'s set (§3.6: "uses a
    /// standard LRU algorithm").
    pub fn evict_lru(&mut self, sector: SectorId) -> Option<XtaEntry> {
        let range = self.range_of(sector);
        let mut lru_idx = None;
        let mut lru_stamp = u64::MAX;
        for i in range {
            if let Some(e) = &self.entries[i] {
                if e.stamp < lru_stamp {
                    lru_stamp = e.stamp;
                    lru_idx = Some(i);
                }
            }
        }
        lru_idx.and_then(|i| self.entries[i].take())
    }

    /// Inserts a new entry (MRU position).
    ///
    /// # Panics
    ///
    /// Panics if the set is full or the sector is already present — callers
    /// must evict first; double insertion is a controller bug.
    pub fn insert(&mut self, mut entry: XtaEntry) {
        assert!(
            !self.contains(entry.sector),
            "sector {:?} inserted twice",
            entry.sector
        );
        self.clock += 1;
        entry.stamp = self.clock;
        let range = self.range_of(entry.sector);
        for i in range {
            if self.entries[i].is_none() {
                self.entries[i] = Some(entry);
                return;
            }
        }
        panic!("XTA set full on insert; evict first");
    }

    /// The largest access counter among the *other* FM-resident,
    /// non-saturated sectors in `sector`'s set — the §3.7.1 comparison
    /// population (NM-resident sectors never advance their counters,
    /// saturated ones are ignored to prevent starvation) — or 0 when the
    /// population is empty. No counter is below 0, so an empty population
    /// never beats a victim.
    pub fn strongest_peer(&self, sector: SectorId) -> u16 {
        let range = self.range_of(sector);
        self.entries[range]
            .iter()
            .flatten()
            .filter(|e| e.sector != sector && !e.is_nm_resident() && e.counter < self.counter_max)
            .map(|e| e.counter)
            .max()
            .unwrap_or(0)
    }

    /// Bumps an entry's counter with saturation; call only for FM-resident
    /// sectors (§3.7.1).
    pub fn bump_counter(entry: &mut XtaEntry, max: u16) {
        if entry.counter < max {
            entry.counter += 1;
        }
    }

    /// Number of occupied entries.
    pub fn occupancy(&self) -> u64 {
        self.entries.iter().flatten().count() as u64
    }

    /// Iterates over all resident entries.
    pub fn iter(&self) -> impl Iterator<Item = &XtaEntry> {
        self.entries.iter().flatten()
    }

    /// Constructs a fresh entry for an FM-resident sector fetched via the
    /// 2b path: one line valid, dirty iff the access was a write, counter
    /// starts at 1 (the allocation access counts).
    pub fn entry_for_fm_fetch(
        sector: SectorId,
        nm_slot: NmLoc,
        fm_loc: FmLoc,
        line: u32,
        write: bool,
    ) -> XtaEntry {
        let bit = 1u64 << line;
        XtaEntry {
            sector,
            nm_slot,
            fm_loc: Some(fm_loc),
            valid: bit,
            dirty: if write { bit } else { 0 },
            counter: 1,
            stamp: 0,
        }
    }

    /// Constructs a fresh entry for an NM-resident sector linked via the 2a
    /// path: all lines valid and dirty by convention (Figure 5), counter
    /// pinned to zero (§3.7.1).
    pub fn entry_for_nm_sector(&self, sector: SectorId, nm_slot: NmLoc) -> XtaEntry {
        XtaEntry {
            sector,
            nm_slot,
            fm_loc: None,
            valid: self.all_lines_mask,
            dirty: self.all_lines_mask,
            counter: 0,
            stamp: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xta() -> Xta {
        // 8 entries, 2-way, 8 lines/sector, 9-bit counters -> 4 sets.
        Xta::new(8, 2, 8, 9)
    }

    fn fm_entry(sector: u64, slot: u64) -> XtaEntry {
        Xta::entry_for_fm_fetch(
            SectorId::new(sector),
            NmLoc::new(slot),
            FmLoc::new(100 + sector),
            0,
            false,
        )
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut x = xta();
        x.insert(fm_entry(4, 0)); // set 0
        assert!(x.contains(SectorId::new(4)));
        let e = x.lookup_mut(SectorId::new(4)).unwrap();
        assert_eq!(e.nm_slot, NmLoc::new(0));
        assert!(!x.contains(SectorId::new(8)));
    }

    #[test]
    fn lru_eviction_order() {
        let mut x = xta();
        x.insert(fm_entry(0, 0)); // set 0
        x.insert(fm_entry(4, 1)); // set 0
                                  // Touch 0 -> 4 becomes LRU.
        x.lookup_mut(SectorId::new(0)).unwrap();
        let victim = x.evict_lru(SectorId::new(8)).unwrap(); // set 0
        assert_eq!(victim.sector, SectorId::new(4));
    }

    #[test]
    fn set_is_full_tracks_ways() {
        let mut x = xta();
        assert!(!x.set_is_full(SectorId::new(0)));
        x.insert(fm_entry(0, 0));
        assert!(!x.set_is_full(SectorId::new(0)));
        x.insert(fm_entry(4, 1));
        assert!(x.set_is_full(SectorId::new(0)));
        assert!(!x.set_is_full(SectorId::new(1)), "other sets unaffected");
    }

    #[test]
    #[should_panic(expected = "evict first")]
    fn insert_into_full_set_panics() {
        let mut x = xta();
        x.insert(fm_entry(0, 0));
        x.insert(fm_entry(4, 1));
        x.insert(fm_entry(8, 2));
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut x = xta();
        x.insert(fm_entry(0, 0));
        x.insert(fm_entry(0, 1));
    }

    #[test]
    fn competing_counters_exclude_nm_saturated_and_self() {
        let mut x = Xta::new(8, 4, 8, 3); // counter max 7, sets = 2
        let mut a = fm_entry(0, 0);
        a.counter = 3;
        x.insert(a);
        let mut b = fm_entry(2, 1); // set 0 (sector % 2)
        b.counter = 7; // saturated -> ignored
        x.insert(b);
        let nm = x.entry_for_nm_sector(SectorId::new(4), NmLoc::new(2)); // set 0
        x.insert(nm);
        let mut c = fm_entry(8, 2); // set 0, a weaker FM peer
        c.counter = 1;
        x.insert(c);
        assert_eq!(
            x.strongest_peer(SectorId::new(6)), // set 0, not present
            3,
            "the strongest unsaturated FM peer counts"
        );
        assert_eq!(x.strongest_peer(SectorId::new(0)), 1, "self is excluded");
        assert_eq!(x.strongest_peer(SectorId::new(1)), 0, "set 1 is empty");
    }

    #[test]
    fn counter_saturates() {
        let mut e = fm_entry(0, 0);
        for _ in 0..1000 {
            Xta::bump_counter(&mut e, 511);
        }
        assert_eq!(e.counter, 511);
    }

    #[test]
    fn fm_fetch_entry_shape() {
        let e = Xta::entry_for_fm_fetch(SectorId::new(9), NmLoc::new(3), FmLoc::new(7), 5, true);
        assert_eq!(e.valid, 1 << 5);
        assert_eq!(e.dirty, 1 << 5);
        assert_eq!(e.counter, 1);
        assert_eq!(e.valid_count(), 1);
        assert_eq!(e.dirty_count(), 1);
        assert!(!e.is_nm_resident());
    }

    #[test]
    fn nm_entry_is_fully_valid_dirty_with_zero_counter() {
        let x = xta();
        let e = x.entry_for_nm_sector(SectorId::new(1), NmLoc::new(9));
        assert_eq!(e.valid, x.full_mask());
        assert_eq!(e.dirty, x.full_mask());
        assert_eq!(e.counter, 0);
        assert!(e.is_nm_resident());
        assert_eq!(e.valid_count(), 8);
    }

    #[test]
    fn full_mask_for_64_lines() {
        let x = Xta::new(4, 2, 64, 9);
        assert_eq!(x.full_mask(), u64::MAX);
    }

    #[test]
    fn occupancy_and_iter() {
        let mut x = xta();
        x.insert(fm_entry(0, 0));
        x.insert(fm_entry(1, 1));
        assert_eq!(x.occupancy(), 2);
        assert_eq!(x.iter().count(), 2);
        x.evict_lru(SectorId::new(0));
        assert_eq!(x.occupancy(), 1);
    }

    #[test]
    fn evict_from_empty_set_is_none() {
        let mut x = xta();
        assert!(x.evict_lru(SectorId::new(0)).is_none());
    }
}
