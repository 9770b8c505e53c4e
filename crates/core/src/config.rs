//! Hybrid2 configuration and near/far memory layout (§3.3, Figure 6).

use core::fmt;

use sim_types::{FmLoc, Geometry, GeometryError, NmLoc, PAddr, SectorId};

/// Figure 14's ablation variants plus the full design.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The complete Hybrid2 design.
    Full,
    /// Only the 64 MB sectored DRAM cache; no migration, and NM's flat
    /// share is still used as plain memory (Figure 14 "Cache-Only":
    /// no migration and no address-translation overheads).
    CacheOnly,
    /// Migrate every FM sector evicted from the DRAM cache (Figure 14
    /// "Migr-All"): the §3.7 selection policy is bypassed.
    MigrateAll,
    /// Never migrate (Figure 14 "Migr-None").
    MigrateNone,
    /// Full policy but all remap-table / inverted-remap / free-stack
    /// accesses complete instantly and cost no traffic (Figure 14
    /// "No-Remap"): isolates the metadata overhead.
    NoRemap,
}

impl Variant {
    /// All variants in Figure 14 reporting order.
    pub const ALL: [Variant; 5] = [
        Variant::CacheOnly,
        Variant::MigrateAll,
        Variant::MigrateNone,
        Variant::NoRemap,
        Variant::Full,
    ];

    /// The label used in Figure 14.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "HYBRID2",
            Variant::CacheOnly => "Cache-Only",
            Variant::MigrateAll => "Migr-All",
            Variant::MigrateNone => "Migr-None",
            Variant::NoRemap => "No-Remap",
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors from [`Hybrid2Config::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Invalid line/sector geometry.
    Geometry(GeometryError),
    /// The DRAM cache does not fit in NM together with the metadata.
    CacheTooLarge {
        /// Requested cache bytes.
        cache: u64,
        /// Available NM bytes.
        nm: u64,
    },
    /// Cache capacity in sectors must be a multiple of the associativity
    /// with a power-of-two set count.
    BadCacheShape {
        /// Cache capacity in sectors.
        sectors: u64,
        /// Requested associativity.
        assoc: u32,
    },
    /// NM flat region too small relative to the cache (the FIFO allocator
    /// needs headroom).
    FlatRegionTooSmall {
        /// Flat NM sectors remaining.
        flat: u64,
        /// Cache sectors.
        cache: u64,
    },
    /// Memory sizes must be non-zero multiples of the sector size.
    UnalignedCapacity {
        /// Which capacity ("nm", "fm" or "cache").
        which: &'static str,
        /// The offending byte count.
        bytes: u64,
    },
    /// The remap tables hold 31-bit indices: the flat space and the NM
    /// slots must each number fewer than 2^31 sectors.
    TooManySectors {
        /// Flat-space sectors.
        flat: u64,
        /// NM data slots.
        slots: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::Geometry(e) => write!(f, "geometry: {e}"),
            ConfigError::CacheTooLarge { cache, nm } => {
                write!(f, "cache of {cache} bytes does not fit in NM of {nm} bytes")
            }
            ConfigError::BadCacheShape { sectors, assoc } => write!(
                f,
                "cache of {sectors} sectors cannot form power-of-two sets at associativity {assoc}"
            ),
            ConfigError::FlatRegionTooSmall { flat, cache } => write!(
                f,
                "flat NM region of {flat} sectors is too small for a {cache}-sector cache (need > 2x)"
            ),
            ConfigError::UnalignedCapacity { which, bytes } => {
                write!(f, "{which} capacity {bytes} is not a non-zero multiple of the sector size")
            }
            ConfigError::TooManySectors { flat, slots } => write!(
                f,
                "{flat} flat sectors and {slots} NM slots exceed the remap tables' \
                 31-bit index range"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<GeometryError> for ConfigError {
    fn from(e: GeometryError) -> Self {
        ConfigError::Geometry(e)
    }
}

/// Full configuration of the DCMC.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hybrid2Config {
    /// Cache-line / sector geometry (paper best: 256 B / 2 KB).
    pub geometry: Geometry,
    /// DRAM cache capacity in bytes (paper best: 64 MB).
    pub cache_bytes: u64,
    /// XTA associativity (paper: 16).
    pub xta_assoc: u32,
    /// Near memory capacity in bytes.
    pub nm_bytes: u64,
    /// Far memory capacity in bytes.
    pub fm_bytes: u64,
    /// On-chip XTA lookup latency in CPU cycles.
    pub xta_latency: u64,
    /// Access-counter width in bits (paper: 9).
    pub counter_bits: u32,
    /// FM-access budget reset period in CPU cycles (paper: 100 K).
    pub budget_reset_period: u64,
    /// Entries of the Free-FM-Stack kept on-chip (§3.3).
    pub free_stack_onchip: usize,
    /// Which design variant to run.
    pub variant: Variant,
}

impl Hybrid2Config {
    /// The paper's chosen configuration at full scale: 64 MB cache, 2 KB
    /// sectors, 256 B lines, 16-way XTA, 1 GB NM, 16 GB FM.
    pub fn paper_default() -> Self {
        Hybrid2Config {
            geometry: Geometry::paper_default(),
            cache_bytes: 64 * 1024 * 1024,
            xta_assoc: 16,
            nm_bytes: 1024 * 1024 * 1024,
            fm_bytes: 16 * 1024 * 1024 * 1024,
            xta_latency: 2,
            counter_bits: 9,
            budget_reset_period: 100_000,
            free_stack_onchip: 64,
            variant: Variant::Full,
        }
    }

    /// The paper configuration with all capacities divided by `scale_den`
    /// (the NM:FM ratio and cache:NM fraction are preserved exactly).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the scaled shape becomes invalid
    /// (extreme denominators).
    pub fn scaled_down(scale_den: u64) -> Result<Self, ConfigError> {
        let mut cfg = Self::paper_default();
        cfg.cache_bytes /= scale_den;
        cfg.nm_bytes /= scale_den;
        cfg.fm_bytes /= scale_den;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Returns this configuration with a different [`Variant`].
    #[must_use]
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Validates the configuration and computes the memory layout.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`].
    pub fn validate(&self) -> Result<Layout, ConfigError> {
        let g = self.geometry;
        let sector = g.sector_size();
        for (which, bytes) in [
            ("nm", self.nm_bytes),
            ("fm", self.fm_bytes),
            ("cache", self.cache_bytes),
        ] {
            if bytes == 0 || bytes % sector != 0 {
                return Err(ConfigError::UnalignedCapacity { which, bytes });
            }
        }
        let nm_sectors_total = self.nm_bytes / sector;
        let fm_sectors = self.fm_bytes / sector;
        let cache_sectors = self.cache_bytes / sector;

        // XTA shape: one entry per cache sector, set-associative.
        if !cache_sectors.is_multiple_of(u64::from(self.xta_assoc))
            || !(cache_sectors / u64::from(self.xta_assoc)).is_power_of_two()
        {
            return Err(ConfigError::BadCacheShape {
                sectors: cache_sectors,
                assoc: self.xta_assoc,
            });
        }

        // Metadata sizing (§3.3: "3.5% of the NM capacity"). Upper bounds:
        // remap entries for every possible flat sector (NM data + FM), an
        // inverted entry per NM slot, a stack entry per cache sector; 8 B
        // each.
        let remap_entries = nm_sectors_total + fm_sectors;
        let inverted_entries = nm_sectors_total;
        let stack_entries = cache_sectors;
        let meta_bytes_raw = 8 * (remap_entries + inverted_entries + stack_entries);
        let meta_sectors = meta_bytes_raw.div_ceil(sector);

        let slots = nm_sectors_total
            .checked_sub(meta_sectors)
            .and_then(|s| s.checked_sub(0))
            .unwrap_or(0);
        if slots <= cache_sectors {
            return Err(ConfigError::CacheTooLarge {
                cache: self.cache_bytes,
                nm: self.nm_bytes,
            });
        }
        let nm_flat_sectors = slots - cache_sectors;
        if nm_flat_sectors < 2 * cache_sectors {
            return Err(ConfigError::FlatRegionTooSmall {
                flat: nm_flat_sectors,
                cache: cache_sectors,
            });
        }

        let flat_sectors = nm_flat_sectors + fm_sectors;
        if flat_sectors >= crate::remap::MAX_ENTRIES || slots >= crate::remap::MAX_ENTRIES {
            return Err(ConfigError::TooManySectors {
                flat: flat_sectors,
                slots,
            });
        }

        Ok(Layout {
            geometry: g,
            nm_sectors_total,
            meta_sectors,
            meta_bytes: meta_sectors * sector,
            slots,
            cache_sectors,
            nm_flat_sectors,
            fm_sectors,
            flat_sectors,
            remap_entries,
            inverted_entries,
        })
    }

    /// XTA storage estimate in bytes (for the 512 KB design constraint of
    /// §5.1): per entry tag + valid/dirty vectors + counter + two pointers
    /// + LRU + state.
    pub fn xta_size_bytes(&self) -> u64 {
        let layout = match self.validate() {
            Ok(l) => l,
            Err(_) => return u64::MAX,
        };
        let lines = u64::from(self.geometry.lines_per_sector());
        let sets = layout.cache_sectors / u64::from(self.xta_assoc);
        // Tag bits cover the flat sector space divided by sets.
        let tag_bits = 64 - (layout.flat_sectors / sets.max(1)).leading_zeros() as u64;
        let nm_ptr_bits = 64 - layout.slots.leading_zeros() as u64;
        let fm_ptr_bits = 64 - layout.fm_sectors.leading_zeros() as u64;
        let entry_bits = tag_bits
            + 2 * lines                      // valid + dirty vectors
            + u64::from(self.counter_bits)   // access counter
            + nm_ptr_bits
            + fm_ptr_bits
            + 4                              // LRU
            + 2; // entry valid + resident-side state
        (entry_bits * layout.cache_sectors).div_ceil(8)
    }
}

/// Derived memory layout (Figure 6): where metadata, cache slots and the
/// flat space live, and how large each region is (all in sectors unless
/// noted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Line/sector geometry.
    pub geometry: Geometry,
    /// Total NM capacity in sectors.
    pub nm_sectors_total: u64,
    /// Sectors reserved in NM for remap / inverted-remap / free-stack.
    pub meta_sectors: u64,
    /// The same reservation in bytes.
    pub meta_bytes: u64,
    /// NM data slots (total minus metadata): slot ids `0..slots`.
    pub slots: u64,
    /// Slots owned by the DRAM cache pool (constant after boot, §3.5).
    pub cache_sectors: u64,
    /// NM sectors contributed to the flat address space.
    pub nm_flat_sectors: u64,
    /// FM capacity in sectors.
    pub fm_sectors: u64,
    /// Total flat (processor physical) space in sectors.
    pub flat_sectors: u64,
    /// Remap-table entries.
    pub remap_entries: u64,
    /// Inverted-remap entries.
    pub inverted_entries: u64,
}

impl Layout {
    /// Bytes of flat memory visible to software.
    pub fn flat_capacity_bytes(&self) -> u64 {
        self.flat_sectors * self.geometry.sector_size()
    }

    /// The initial (boot) location of a flat sector: the first
    /// `nm_flat_sectors` live in NM slots after the boot cache pool, the
    /// rest in FM (identity mapping; the *page allocator* randomizes which
    /// virtual pages land where, per §4 of the paper).
    pub fn initial_location(&self, sector: SectorId) -> crate::remap::Loc {
        let s = sector.raw();
        debug_assert!(s < self.flat_sectors, "sector outside flat space");
        if s < self.nm_flat_sectors {
            crate::remap::Loc::Nm(NmLoc::new(self.cache_sectors + s))
        } else {
            crate::remap::Loc::Fm(FmLoc::new(s - self.nm_flat_sectors))
        }
    }

    /// NM device byte address of data slot `slot`.
    pub fn nm_slot_addr(&self, slot: NmLoc) -> u64 {
        debug_assert!(slot.raw() < self.slots, "slot out of range");
        self.meta_bytes + slot.raw() * self.geometry.sector_size()
    }

    /// FM device byte address of sector location `loc`.
    pub fn fm_loc_addr(&self, loc: FmLoc) -> u64 {
        debug_assert!(loc.raw() < self.fm_sectors, "FM location out of range");
        loc.raw() * self.geometry.sector_size()
    }

    /// NM device byte address of the remap-table entry for `sector`.
    pub fn remap_entry_addr(&self, sector: SectorId) -> u64 {
        sector.raw() * 8
    }

    /// NM device byte address of the inverted-remap entry for `slot`.
    pub fn inverted_entry_addr(&self, slot: NmLoc) -> u64 {
        self.remap_entries * 8 + slot.raw() * 8
    }

    /// NM device byte address of free-stack entry `depth`.
    pub fn stack_entry_addr(&self, depth: u64) -> u64 {
        (self.remap_entries + self.inverted_entries) * 8 + depth * 8
    }

    /// The sector id containing physical address `addr`.
    pub fn sector_of(&self, addr: PAddr) -> SectorId {
        self.geometry.sector_of(addr)
    }

    /// Metadata reservation as a fraction of NM capacity (paper: 3.5%).
    pub fn metadata_fraction(&self) -> f64 {
        self.meta_sectors as f64 / self.nm_sectors_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        let cfg = Hybrid2Config::paper_default();
        let l = cfg.validate().unwrap();
        assert_eq!(l.cache_sectors, 64 * 1024 * 1024 / 2048); // 32 Ki sectors
        assert_eq!(l.fm_sectors, 16 * 1024 * 1024 * 1024 / 2048);
        assert!(l.nm_flat_sectors > 0);
        assert_eq!(l.flat_sectors, l.nm_flat_sectors + l.fm_sectors);
    }

    #[test]
    fn metadata_fraction_close_to_paper() {
        let l = Hybrid2Config::paper_default().validate().unwrap();
        // Paper reports 3.5% of NM; our sizing lands in the same ballpark.
        let f = l.metadata_fraction();
        assert!(f > 0.01 && f < 0.08, "metadata fraction was {f}");
    }

    #[test]
    fn xta_fits_the_512kb_budget_at_paper_scale() {
        let cfg = Hybrid2Config::paper_default();
        let bytes = cfg.xta_size_bytes();
        assert!(
            bytes <= 512 * 1024,
            "64MB/2KB/256B/16-way XTA must fit 512 KB, got {bytes}"
        );
    }

    #[test]
    fn bigger_cache_or_smaller_lines_grow_the_xta() {
        let base = Hybrid2Config::paper_default();
        let mut big = base;
        big.cache_bytes *= 2;
        assert!(big.xta_size_bytes() > base.xta_size_bytes());
        let mut fine = base;
        fine.geometry = Geometry::new(64, 2048).unwrap();
        assert!(fine.xta_size_bytes() > base.xta_size_bytes());
    }

    #[test]
    fn scaled_down_preserves_ratios() {
        let cfg = Hybrid2Config::scaled_down(64).unwrap();
        assert_eq!(cfg.nm_bytes * 16, cfg.fm_bytes);
        assert_eq!(cfg.cache_bytes * 16, cfg.nm_bytes);
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_unaligned_capacities() {
        let mut cfg = Hybrid2Config::paper_default();
        cfg.nm_bytes += 1;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::UnalignedCapacity { which: "nm", .. })
        ));
    }

    #[test]
    fn rejects_cache_larger_than_nm() {
        let mut cfg = Hybrid2Config::paper_default();
        cfg.cache_bytes = cfg.nm_bytes;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::CacheTooLarge { .. }) | Err(ConfigError::FlatRegionTooSmall { .. })
        ));
    }

    #[test]
    fn rejects_sector_counts_beyond_the_packed_range() {
        // 64 GB of NM holds the metadata of a 2^31-sector flat space.
        let mut cfg = Hybrid2Config::paper_default();
        let sector = cfg.geometry.sector_size();
        cfg.nm_bytes = 64 << 30;
        let with_fm = |fm_sectors: u64| Hybrid2Config {
            fm_bytes: fm_sectors * sector,
            ..cfg
        };
        // Each FM sector grows the flat space by at most one sector, so the
        // largest accepted FM size yields exactly 2^31 - 1 flat sectors.
        let (mut ok, mut err) = (1u64, 1u64 << 31);
        while err - ok > 1 {
            let mid = ok + (err - ok) / 2;
            if with_fm(mid).validate().is_ok() {
                ok = mid;
            } else {
                err = mid;
            }
        }
        assert_eq!(with_fm(ok).validate().unwrap().flat_sectors, (1 << 31) - 1);
        assert!(matches!(
            with_fm(err).validate(),
            Err(ConfigError::TooManySectors { flat, .. }) if flat == 1 << 31
        ));
        // 2^32 NM sectors overflow the slot index as well.
        cfg.nm_bytes = (1 << 32) * sector;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TooManySectors { slots, .. }) if slots >= 1 << 31
        ));
    }

    #[test]
    fn rejects_bad_cache_shape() {
        let mut cfg = Hybrid2Config::paper_default();
        cfg.xta_assoc = 7;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadCacheShape { .. })
        ));
    }

    #[test]
    fn initial_locations_partition_the_flat_space() {
        let l = Hybrid2Config::scaled_down(64).unwrap().validate().unwrap();
        match l.initial_location(SectorId::new(0)) {
            crate::remap::Loc::Nm(slot) => assert_eq!(slot.raw(), l.cache_sectors),
            crate::remap::Loc::Fm(_) => panic!("sector 0 must start in NM"),
        }
        match l.initial_location(SectorId::new(l.nm_flat_sectors)) {
            crate::remap::Loc::Fm(f) => assert_eq!(f.raw(), 0),
            crate::remap::Loc::Nm(_) => panic!("first FM sector wrong"),
        }
    }

    #[test]
    fn device_addresses_do_not_collide() {
        let l = Hybrid2Config::scaled_down(64).unwrap().validate().unwrap();
        // Metadata region ends before the first slot.
        let last_meta = l.stack_entry_addr(l.cache_sectors - 1) + 8;
        assert!(
            last_meta <= l.meta_bytes,
            "metadata overflows its reservation"
        );
        assert_eq!(l.nm_slot_addr(NmLoc::new(0)), l.meta_bytes);
    }

    #[test]
    fn variant_labels_match_figure_14() {
        assert_eq!(Variant::Full.label(), "HYBRID2");
        assert_eq!(Variant::CacheOnly.label(), "Cache-Only");
        assert_eq!(Variant::ALL.len(), 5);
    }

    #[test]
    fn flat_capacity_exceeds_fm_alone() {
        // The headline claim: migration keeps NM capacity in the system.
        let l = Hybrid2Config::paper_default().validate().unwrap();
        assert!(l.flat_capacity_bytes() > 16 * 1024 * 1024 * 1024);
    }
}
