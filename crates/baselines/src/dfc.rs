//! The Decoupled Fused Cache (Vasilakis et al., TACO 2019).
//!
//! DFC keeps DRAM-cache tags in DRAM but *fuses* presence/way information
//! into the on-chip LLC tag array, so most lookups need no DRAM tag probe.
//! We model the fused information as an on-chip fused-tag cache keyed by
//! DRAM-cache line address: a fused hit answers the lookup instantly, a
//! fused miss pays a 64 B tag read in NM before the data access and then
//! installs the entry (the paper found DFC's best configuration at 1 KB
//! cache lines, which is what [`DfcConfig::paper_best`] uses).

use dram::{DramAccess, DramSystem, MemoryScheme, SchemeStats, Served};
use mem_cache::{CacheConfig, SetAssocCache};
use sim_types::{AccessKind, MemReq, MemSide};

use crate::line_cache::{self, Fill};

/// Configuration of the DFC model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DfcConfig {
    /// NM capacity in bytes (cache data).
    pub nm_bytes: u64,
    /// FM capacity in bytes (main memory).
    pub fm_bytes: u64,
    /// DRAM-cache line size in bytes (paper best: 1 KB; at most 4 KB, so
    /// a line's 64 B chunks fit one copy mask).
    pub line_bytes: u64,
    /// Associativity of the DRAM cache.
    pub assoc: u32,
    /// On-chip fused-tag capacity in bytes (scales with the LLC tag array).
    pub fused_bytes: u64,
}

impl DfcConfig {
    /// The paper's best configuration (1 KB lines) over the given
    /// capacities, with the fused store scaled as `llc_bytes / 32`.
    pub fn paper_best(nm_bytes: u64, fm_bytes: u64, llc_bytes: u64) -> Self {
        DfcConfig {
            nm_bytes,
            fm_bytes,
            line_bytes: 1024,
            assoc: 16,
            fused_bytes: (llc_bytes / 32).max(4 * 64),
        }
    }
}

/// The fused-tag DRAM cache.
#[derive(Clone, Debug)]
pub struct Dfc {
    cfg: DfcConfig,
    /// The DRAM cache's tags: `line_bytes` lines in `assoc` ways, LRU
    /// with the first invalid way filled first. Way `w` of set `s` holds
    /// NM line `s * assoc + w`.
    dc: SetAssocCache,
    fused: SetAssocCache,
    /// DRAM tag probes that the fused information saved.
    pub fused_hits: u64,
    /// DRAM tag probes actually paid.
    pub tag_probes: u64,
    stats: SchemeStats,
}

impl Dfc {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics on structurally invalid configurations, including lines
    /// over 4 KB.
    pub fn new(cfg: DfcConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 64);
        assert!(cfg.line_bytes <= 4096, "at most 64 chunks of 64 B per line");
        let dc = SetAssocCache::new(
            CacheConfig::new(cfg.nm_bytes, cfg.assoc, cfg.line_bytes)
                .expect("DRAM cache shape valid"),
        );
        let fused_sets = (cfg.fused_bytes / (4 * 64)).next_power_of_two().max(1);
        let fused = SetAssocCache::new(
            CacheConfig::new(fused_sets * 4 * 64, 4, 64).expect("fused shape valid"),
        );
        Dfc {
            dc,
            fused,
            fused_hits: 0,
            tag_probes: 0,
            stats: SchemeStats::default(),
            cfg,
        }
    }

    /// NM device address of way `way` of set `set`.
    fn nm_addr(&self, set: u64, way: u32) -> u64 {
        (set * u64::from(self.cfg.assoc) + u64::from(way)) * self.cfg.line_bytes
    }

    /// Device address of the in-DRAM tag block of `set` (tags are stored
    /// alongside the data rows, past the data region in this model).
    fn tag_addr(&self, set: u64) -> u64 {
        self.cfg.nm_bytes + set * 64
    }
}

impl MemoryScheme for Dfc {
    fn name(&self) -> &'static str {
        "DFC"
    }

    fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served {
        let write = self.stats.count(req);
        let line_base = req.addr.raw() & !(self.cfg.line_bytes - 1);
        let set = (line_base / self.cfg.line_bytes) & (self.dc.config().sets() - 1);

        // Fused-tag lookup: on-chip, free; miss pays a DRAM tag probe.
        let fused_key = line_base / self.cfg.line_bytes * 64;
        let lookup_done = if self.fused.access(fused_key, false).hit {
            self.fused_hits += 1;
            req.at
        } else {
            self.tag_probes += 1;
            self.stats.metadata_reads += 1;
            dram.device_mut(MemSide::Nm).serve(DramAccess::metadata(
                AccessKind::Read,
                self.tag_addr(set),
                req.at,
            ))
        };

        let lookup = self.dc.access(line_base, write);
        let frame = self.nm_addr(set, lookup.way);
        if lookup.hit {
            let addr = frame + (req.addr.raw() - line_base);
            return line_cache::hit(req, addr, lookup_done, dram, &mut self.stats);
        }

        // Miss: line fill, writing back a dirty victim, whose fused entry
        // goes with it.
        let mut dirty_victim = None;
        if let Some(old) = lookup.evicted {
            self.fused
                .invalidate(old.line_addr / self.cfg.line_bytes * 64);
            dirty_victim = old.dirty.then_some(old.line_addr);
        }
        let fill = Fill {
            line: line_base,
            dirty_victim,
            frame,
            chunks: u64::MAX >> (64 - self.cfg.line_bytes / 64),
        };
        let served = line_cache::miss(
            req,
            lookup_done,
            self.cfg.fm_bytes,
            fill,
            dram,
            &mut self.stats,
        );
        // The in-DRAM tag row is updated with the new mapping.
        self.stats.metadata_writes += 1;
        dram.device_mut(MemSide::Nm).serve(DramAccess::metadata(
            AccessKind::Write,
            self.tag_addr(set),
            req.at,
        ));
        served
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
    use sim_types::{Cycle, PAddr, TrafficClass};

    fn dfc() -> (Dfc, DramSystem) {
        (
            Dfc::new(DfcConfig {
                nm_bytes: 64 * 1024,
                fm_bytes: 1024 * 1024,
                line_bytes: 1024,
                assoc: 4,
                fused_bytes: 2048,
            }),
            DramSystem::paper_default(),
        )
    }

    #[test]
    #[should_panic(expected = "at most 64 chunks")]
    fn rejects_lines_over_4kb() {
        let _ = Dfc::new(DfcConfig {
            line_bytes: 8192,
            ..DfcConfig::paper_best(1 << 20, 1 << 24, 1 << 16)
        });
    }

    #[test]
    fn miss_then_hit_with_fused_info() {
        let (mut d, mut dram) = dfc();
        let a = PAddr::new(0x800);
        let s1 = d.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        assert!(!s1.from_nm);
        let s2 = d.access(&MemReq::read(a, 64, s1.done), &mut dram);
        assert!(s2.from_nm);
        assert!(d.fused_hits >= 1, "second access should reuse fused info");
    }

    #[test]
    fn fused_miss_pays_tag_probe_latency() {
        let (mut d, mut dram) = dfc();
        // Fill, then thrash the fused store with many distinct lines so the
        // original fused entry is evicted while the DC line stays resident.
        let a = PAddr::new(0);
        d.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        for i in 1..200u64 {
            d.access(
                &MemReq::read(PAddr::new(i * 1024), 64, Cycle::ZERO),
                &mut dram,
            );
        }
        let before = d.tag_probes;
        d.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        assert!(d.tag_probes > before, "lost fused info forces a tag probe");
    }

    #[test]
    fn one_kb_line_fills_charge_fill_traffic() {
        let (mut d, mut dram) = dfc();
        d.access(&MemReq::read(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        assert_eq!(
            dram.device(MemSide::Fm).stats().bytes(TrafficClass::Fill),
            1024
        );
        assert_eq!(
            dram.device(MemSide::Nm).stats().bytes(TrafficClass::Fill),
            1024
        );
    }

    #[test]
    fn tag_metadata_written_on_fill() {
        let (mut d, mut dram) = dfc();
        d.access(&MemReq::read(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        assert!(d.stats().metadata_writes >= 1);
        assert!(
            dram.device(MemSide::Nm)
                .stats()
                .bytes(TrafficClass::Metadata)
                > 0
        );
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut d, mut dram) = dfc();
        // 64KB/1KB/4-way = 16 sets; same-set stride = 16 KiB.
        d.access(&MemReq::write(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        for i in 1..=4u64 {
            d.access(
                &MemReq::read(PAddr::new(i * 16 * 1024), 64, Cycle::ZERO),
                &mut dram,
            );
        }
        assert_eq!(d.stats().dirty_writebacks, 1);
    }

    #[test]
    fn capacity_and_name() {
        let (d, _) = dfc();
        assert_eq!(d.flat_capacity_bytes(), 1024 * 1024);
        assert_eq!(d.name(), "DFC");
    }
}

/// The hand-rolled DRAM-cache array `Dfc` used before it moved onto
/// `SetAssocCache`, kept as a reference model: one `Line` per way, the
/// first invalid way filled first, else the least recent stamp.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sim_types::{Cycle, PAddr, TrafficClass};

    #[derive(Clone, Copy, Debug, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        stamp: u64,
    }

    struct ArrayDfc {
        cfg: DfcConfig,
        lines: Vec<Line>,
        sets: u64,
        assoc: usize,
        clock: u64,
        fused: SetAssocCache,
        fused_hits: u64,
        tag_probes: u64,
        stats: SchemeStats,
    }

    impl ArrayDfc {
        fn new(cfg: DfcConfig) -> Self {
            assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 64);
            let total = cfg.nm_bytes / cfg.line_bytes;
            assert!(total.is_multiple_of(u64::from(cfg.assoc)));
            let sets = total / u64::from(cfg.assoc);
            assert!(sets.is_power_of_two());
            let fused_sets = (cfg.fused_bytes / (4 * 64)).next_power_of_two().max(1);
            let fused = SetAssocCache::new(
                CacheConfig::new(fused_sets * 4 * 64, 4, 64).expect("fused shape valid"),
            );
            ArrayDfc {
                lines: vec![Line::default(); total as usize],
                sets,
                assoc: cfg.assoc as usize,
                clock: 0,
                fused,
                fused_hits: 0,
                tag_probes: 0,
                stats: SchemeStats::default(),
                cfg,
            }
        }

        fn set_of(&self, line_addr: u64) -> u64 {
            (line_addr / self.cfg.line_bytes) & (self.sets - 1)
        }

        fn tag_of(&self, line_addr: u64) -> u64 {
            (line_addr / self.cfg.line_bytes) >> self.sets.trailing_zeros()
        }

        fn nm_addr(&self, set: u64, way: usize, offset: u64) -> u64 {
            (set * self.assoc as u64 + way as u64) * self.cfg.line_bytes + offset
        }

        fn tag_addr(&self, set: u64) -> u64 {
            self.cfg.nm_bytes + set * 64
        }

        fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served {
            self.clock += 1;
            self.stats.requests += 1;
            let write = req.kind.is_write();
            if write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            let line_base = req.addr.raw() & !(self.cfg.line_bytes - 1);
            let in_line = req.addr.raw() - line_base;
            let set = self.set_of(line_base);
            let tag = self.tag_of(line_base);

            // Fused-tag lookup: on-chip, free; miss pays a DRAM tag probe.
            let fused_key = line_base / self.cfg.line_bytes * 64;
            let lookup_done = if self.fused.access(fused_key, false).hit {
                self.fused_hits += 1;
                req.at
            } else {
                self.tag_probes += 1;
                self.stats.metadata_reads += 1;
                dram.device_mut(MemSide::Nm).serve(DramAccess {
                    addr: self.tag_addr(set),
                    bytes: 64,
                    kind: AccessKind::Read,
                    class: TrafficClass::Metadata,
                    at: req.at,
                })
            };

            let range =
                (set * self.assoc as u64) as usize..((set + 1) * self.assoc as u64) as usize;
            for w in 0..self.assoc {
                let idx = range.start + w;
                let l = &mut self.lines[idx];
                if l.valid && l.tag == tag {
                    l.stamp = self.clock;
                    l.dirty |= write;
                    self.stats.lookup_hits += 1;
                    self.stats.served_from_nm += 1;
                    let (kind, class) = if write {
                        (AccessKind::Write, TrafficClass::Writeback)
                    } else {
                        (AccessKind::Read, TrafficClass::Demand)
                    };
                    let done = dram.device_mut(MemSide::Nm).serve(DramAccess {
                        addr: self.nm_addr(set, w, in_line),
                        bytes: req.bytes,
                        kind,
                        class,
                        at: lookup_done,
                    });
                    return Served::new(done, true);
                }
            }

            // Miss: critical access from FM, then line fill + possible eviction.
            self.stats.lookup_misses += 1;
            let class = if write {
                TrafficClass::Fill
            } else {
                TrafficClass::Demand
            };
            let critical = dram.device_mut(MemSide::Fm).serve(DramAccess {
                addr: req.addr.raw() % self.cfg.fm_bytes,
                bytes: req.bytes,
                kind: req.kind,
                class,
                at: lookup_done,
            });

            let mut victim = range.start;
            let mut lru = u64::MAX;
            for idx in range.clone() {
                if !self.lines[idx].valid {
                    victim = idx;
                    break;
                }
                if self.lines[idx].stamp < lru {
                    lru = self.lines[idx].stamp;
                    victim = idx;
                }
            }
            let way = victim - range.start;
            let all_chunks = u64::MAX >> (64 - self.cfg.line_bytes / 64);
            let old = self.lines[victim];
            if old.valid {
                // Invalidate the old fused entry and write back if dirty.
                let old_base =
                    ((old.tag << self.sets.trailing_zeros()) | set) * self.cfg.line_bytes;
                self.fused.invalidate(old_base / self.cfg.line_bytes * 64);
                if old.dirty {
                    dram.copy_lines(
                        all_chunks,
                        (MemSide::Nm, self.nm_addr(set, way, 0)),
                        (MemSide::Fm, old_base % self.cfg.fm_bytes),
                        64,
                        TrafficClass::Writeback,
                        req.at,
                    );
                    self.stats.dirty_writebacks += 1;
                }
            }

            dram.copy_lines(
                all_chunks,
                (MemSide::Fm, line_base % self.cfg.fm_bytes),
                (MemSide::Nm, self.nm_addr(set, way, 0)),
                64,
                TrafficClass::Fill,
                critical,
            );
            // The in-DRAM tag row is updated with the new mapping.
            self.stats.metadata_writes += 1;
            dram.device_mut(MemSide::Nm).serve(DramAccess {
                addr: self.tag_addr(set),
                bytes: 64,
                kind: AccessKind::Write,
                class: TrafficClass::Metadata,
                at: req.at,
            });
            self.stats.moved_into_nm += 1;
            self.lines[victim] = Line {
                tag,
                valid: true,
                dirty: write,
                stamp: self.clock,
            };
            Served::new(if write { req.at } else { critical }, false)
        }
    }

    proptest! {
        /// Random reads and writes over twice the NM capacity, for both the
        /// paper's 1 KB, 16-way shape and a small 4-way one: every op is
        /// served alike, and the scheme statistics and both DRAM devices
        /// agree after each op.
        #[test]
        fn dfc_matches_array_reference(
            wide in any::<bool>(),
            ops in proptest::collection::vec((0u64..1 << 17, any::<bool>(), 0u64..64), 1..300),
        ) {
            let cfg = DfcConfig {
                nm_bytes: 64 * 1024,
                fm_bytes: 1024 * 1024,
                line_bytes: if wide { 1024 } else { 256 },
                assoc: if wide { 16 } else { 4 },
                fused_bytes: 1024,
            };
            let (mut dfc, mut reference) = (Dfc::new(cfg), ArrayDfc::new(cfg));
            let (mut dram, mut ref_dram) = (DramSystem::paper_default(), DramSystem::paper_default());
            let mut at = Cycle::ZERO;
            for (addr, write, gap) in ops {
                let req = if write {
                    MemReq::write(PAddr::new(addr), 64, at)
                } else {
                    MemReq::read(PAddr::new(addr), 64, at)
                };
                prop_assert_eq!(dfc.access(&req, &mut dram), reference.access(&req, &mut ref_dram));
                prop_assert_eq!(dfc.stats(), &reference.stats);
                prop_assert_eq!((dfc.fused_hits, dfc.tag_probes), (reference.fused_hits, reference.tag_probes));
                prop_assert_eq!(&dram, &ref_dram);
                at += gap;
            }
        }
    }
}
