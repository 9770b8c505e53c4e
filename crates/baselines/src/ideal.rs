//! The IDEAL DRAM cache of the paper's motivation study (§2.3, Figures 1
//! and 2).
//!
//! A set-associative, write-back DRAM cache over the whole NM with **zero**
//! tag-lookup cost — an upper bound that isolates the effect of cache-line
//! size. It also tracks, per resident line, which 64-byte chunks were ever
//! touched, which is exactly the measurement behind Figure 1 ("percentage
//! of data brought in DRAM cache, but remained unused").
//!
//! Tags and LRU order are the shared [`SetAssocCache`] kernel; the
//! touched-chunk masks sit beside it, one per NM line.

use dram::{DramSystem, MemoryScheme, SchemeStats, Served};
use mem_cache::{CacheConfig, SetAssocCache, MAX_ASSOC};
use sim_types::MemReq;

use crate::line_cache::{self, Fill};

/// Configuration of the ideal cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdealCacheConfig {
    /// NM capacity used as cache data, in bytes.
    pub nm_bytes: u64,
    /// FM (main memory) capacity in bytes.
    pub fm_bytes: u64,
    /// Cache-line size in bytes (the Figure 1/2 sweep: 64 B – 4 KB).
    pub line_bytes: u64,
    /// Associativity (16 in the motivation study's realistic points).
    pub assoc: u32,
}

impl IdealCacheConfig {
    /// Validates shape constraints.
    ///
    /// # Panics
    ///
    /// Panics on a structurally impossible configuration.
    pub fn assert_valid(&self) {
        assert!(self.line_bytes.is_power_of_two() && self.line_bytes >= 64);
        assert!(self.line_bytes <= 4096, "paper sweeps at most 4 KB lines");
        assert!(
            (1..=MAX_ASSOC).contains(&self.assoc),
            "associativity {} is outside 1..={MAX_ASSOC}",
            self.assoc
        );
        assert!(self
            .nm_bytes
            .is_multiple_of(self.line_bytes * u64::from(self.assoc)));
        assert!(self.fm_bytes > self.nm_bytes);
    }
}

/// The zero-overhead DRAM cache.
#[derive(Clone, Debug)]
pub struct IdealCache {
    cfg: IdealCacheConfig,
    /// The cache's tags: `line_bytes` lines in `assoc` ways, LRU with the
    /// first invalid way filled first. Way `w` of set `s` holds NM line
    /// `s * assoc + w`.
    lines: SetAssocCache,
    /// The 64 B chunks of each NM line touched since its fill, one bit per
    /// chunk; 0 while the line is invalid.
    touched: Vec<u64>,
    chunks_per_line: u32,
    stats: SchemeStats,
}

impl IdealCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: IdealCacheConfig) -> Self {
        cfg.assert_valid();
        let lines = SetAssocCache::new(
            CacheConfig::new(cfg.nm_bytes, cfg.assoc, cfg.line_bytes)
                .expect("IDEAL cache shape is valid"),
        );
        IdealCache {
            lines,
            touched: vec![0; (cfg.nm_bytes / cfg.line_bytes) as usize],
            chunks_per_line: (cfg.line_bytes / 64) as u32,
            stats: SchemeStats::default(),
            cfg,
        }
    }

    /// Bytes touched in the lines still resident.
    fn resident_used_bytes(&self) -> u64 {
        self.touched
            .iter()
            .map(|t| u64::from(t.count_ones()) * 64)
            .sum()
    }

    /// NM device address of NM line `line`.
    fn nm_addr(&self, line: usize, offset: u64) -> u64 {
        line as u64 * self.cfg.line_bytes + offset
    }
}

impl MemoryScheme for IdealCache {
    fn name(&self) -> &'static str {
        "IDEAL"
    }

    fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served {
        let write = self.stats.count(req);
        let line_base = req.addr.raw() & !(self.cfg.line_bytes - 1);
        let in_line = req.addr.raw() - line_base;
        let chunk_bit = 1u64 << (in_line / 64).min(63);
        let lookup = self.lines.access(line_base, write);
        let set = (line_base / self.cfg.line_bytes) & (self.lines.config().sets() - 1);
        let line = (set * u64::from(self.cfg.assoc) + u64::from(lookup.way)) as usize;

        // Hit path: zero tag cost, direct NM access.
        if lookup.hit {
            self.touched[line] |= chunk_bit;
            let addr = self.nm_addr(line, in_line);
            return line_cache::hit(req, addr, req.at, dram, &mut self.stats);
        }

        // Miss: fetch the full line (the line-size over-fetch), evicting.
        let mut dirty_victim = None;
        if let Some(old) = lookup.evicted {
            // Figure 1 bookkeeping: the old line's fetched bytes are final.
            self.stats.used_bytes += u64::from(self.touched[line].count_ones()) * 64;
            dirty_victim = old.dirty.then_some(old.line_addr);
        }
        self.stats.fetched_bytes += self.cfg.line_bytes;
        self.touched[line] = chunk_bit;
        let fill = Fill {
            line: line_base,
            dirty_victim,
            frame: self.nm_addr(line, 0),
            chunks: u64::MAX >> (64 - self.chunks_per_line),
        };
        line_cache::miss(req, req.at, self.cfg.fm_bytes, fill, dram, &mut self.stats)
    }

    fn on_finish(&mut self) {
        // Fold lines still resident into the Figure-1 counters: their
        // touched chunks count as used, their untouched ones as wasted.
        self.stats.used_bytes += self.resident_used_bytes();
    }

    fn flat_capacity_bytes(&self) -> u64 {
        // A cache denies NM capacity to the system: only FM is memory.
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

    fn cache(line: u64) -> (IdealCache, DramSystem) {
        let cfg = IdealCacheConfig {
            nm_bytes: 64 * 1024,
            fm_bytes: 1024 * 1024,
            line_bytes: line,
            assoc: 4,
        };
        (IdealCache::new(cfg), DramSystem::paper_default())
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut dram) = cache(256);
        let a = PAddr::new(0x1000);
        let s1 = c.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
        assert!(!s1.from_nm);
        let s2 = c.access(&MemReq::read(a, 64, s1.done), &mut dram);
        assert!(s2.from_nm);
        assert_eq!(c.stats().lookup_hits, 1);
    }

    #[test]
    fn spatial_neighbor_hits_within_line() {
        let (mut c, mut dram) = cache(1024);
        c.access(&MemReq::read(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        let s = c.access(&MemReq::read(PAddr::new(512), 64, Cycle::ZERO), &mut dram);
        assert!(s.from_nm, "same 1 KB line must hit");
    }

    #[test]
    fn waste_tracks_untouched_chunks() {
        let (mut c, mut dram) = cache(1024);
        // Touch one 64 B chunk of a 1 KB line: 15/16 wasted.
        c.access(&MemReq::read(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        c.on_finish();
        assert_eq!((c.stats().fetched_bytes, c.stats().used_bytes), (1024, 64));
    }

    #[test]
    fn fully_streamed_line_wastes_nothing() {
        let (mut c, mut dram) = cache(256);
        for i in 0..4u64 {
            c.access(
                &MemReq::read(PAddr::new(i * 64), 64, Cycle::ZERO),
                &mut dram,
            );
        }
        c.on_finish();
        assert_eq!((c.stats().fetched_bytes, c.stats().used_bytes), (256, 256));
    }

    #[test]
    fn bigger_lines_waste_more_on_random_access() {
        use sim_types::rng::SplitMix64;
        let mut results = Vec::new();
        for line in [256u64, 1024, 4096] {
            let (mut c, mut dram) = cache(line);
            let mut rng = SplitMix64::new(1);
            for _ in 0..4000 {
                let a = PAddr::new(rng.gen_range(512 * 1024 / 64) * 64);
                c.access(&MemReq::read(a, 64, Cycle::ZERO), &mut dram);
            }
            c.on_finish();
            let s = c.stats();
            results.push(1.0 - s.used_bytes as f64 / s.fetched_bytes as f64);
        }
        assert!(
            results[0] < results[1] && results[1] < results[2],
            "waste must grow with line size: {results:?}"
        );
    }

    #[test]
    fn dirty_victims_write_back_whole_line() {
        let (mut c, mut dram) = cache(256);
        // 64 KiB / 256 B / 4-way = 64 sets; same-set stride = 64*256.
        let stride = 64 * 256u64;
        c.access(&MemReq::write(PAddr::new(0), 64, Cycle::ZERO), &mut dram);
        for i in 1..=4u64 {
            c.access(
                &MemReq::read(PAddr::new(i * stride), 64, Cycle::ZERO),
                &mut dram,
            );
        }
        assert_eq!(c.stats().dirty_writebacks, 1);
        let wb = dram
            .device(MemSide::Fm)
            .stats()
            .bytes(TrafficClass::Writeback);
        assert_eq!(wb, 256);
    }

    #[test]
    fn hit_latency_beats_miss_latency() {
        let (mut c, mut dram) = cache(256);
        let a = PAddr::new(0x40000);
        let t0 = Cycle::new(10_000);
        let s1 = c.access(&MemReq::read(a, 64, t0), &mut dram);
        // Let the asynchronous line fill drain before timing the hit.
        let t1 = s1.done + 2_000;
        let s2 = c.access(&MemReq::read(a, 64, t1), &mut dram);
        assert!(s2.done - t1 < s1.done - t0);
    }

    #[test]
    fn capacity_is_fm_only() {
        let (c, _) = cache(256);
        assert_eq!(c.flat_capacity_bytes(), 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "outside 1..=64")]
    fn rejects_sets_wider_than_the_tag_array() {
        let cfg = IdealCacheConfig {
            nm_bytes: 1 << 20,
            fm_bytes: 1 << 24,
            line_bytes: 64,
            assoc: 2 * MAX_ASSOC,
        };
        let _ = IdealCache::new(cfg);
    }

    #[test]
    #[should_panic]
    fn rejects_lines_over_4kb() {
        let cfg = IdealCacheConfig {
            nm_bytes: 1 << 20,
            fm_bytes: 1 << 24,
            line_bytes: 8192,
            assoc: 4,
        };
        let _ = IdealCache::new(cfg);
    }
}

/// The hand-rolled line array `IdealCache` used before it moved onto
/// `SetAssocCache`, kept as a reference model: one `Line` per way with a
/// private LRU stamp, the first invalid way filled first, else the least
/// recent stamp.
#[cfg(test)]
mod proptests {
    use super::*;
    use dram::DramAccess;
    use proptest::prelude::*;
    use sim_types::{AccessKind, Cycle, MemSide, PAddr, TrafficClass};

    #[derive(Clone, Copy, Debug, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        touched: u64,
        stamp: u64,
    }

    struct ArrayIdeal {
        cfg: IdealCacheConfig,
        lines: Vec<Line>,
        sets: u64,
        assoc: usize,
        clock: u64,
        chunks_per_line: u32,
        stats: SchemeStats,
    }

    impl ArrayIdeal {
        fn new(cfg: IdealCacheConfig) -> Self {
            cfg.assert_valid();
            let total_lines = cfg.nm_bytes / cfg.line_bytes;
            let sets = total_lines / u64::from(cfg.assoc);
            assert!(sets.is_power_of_two(), "set count must be a power of two");
            ArrayIdeal {
                lines: vec![Line::default(); total_lines as usize],
                sets,
                assoc: cfg.assoc as usize,
                clock: 0,
                chunks_per_line: (cfg.line_bytes / 64) as u32,
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
            let chunk_bit = 1u64 << (in_line / 64).min(63);
            let set = self.set_of(line_base);
            let tag = self.tag_of(line_base);
            let range =
                (set * self.assoc as u64) as usize..((set + 1) * self.assoc as u64) as usize;

            // Hit path: zero tag cost, direct NM access.
            for w in 0..self.assoc {
                let idx = range.start + w;
                let l = &mut self.lines[idx];
                if l.valid && l.tag == tag {
                    l.stamp = self.clock;
                    l.dirty |= write;
                    l.touched |= chunk_bit;
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
                        at: req.at,
                    });
                    return Served::new(done, true);
                }
            }

            // Miss: serve the critical 64 B from FM, fetch the full line, evict.
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
                at: req.at,
            });

            // Victim selection: invalid way first, else LRU.
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
            let old = self.lines[victim];
            if old.valid {
                // Figure 1 bookkeeping: the old line's fetched bytes are final.
                self.stats.used_bytes += u64::from(old.touched.count_ones()) * 64;
                if old.dirty {
                    // Write the whole line back to FM.
                    let old_base =
                        ((old.tag << self.sets.trailing_zeros()) | set) * self.cfg.line_bytes;
                    dram.copy_lines(
                        u64::MAX >> (64 - self.chunks_per_line),
                        (MemSide::Nm, self.nm_addr(set, way, 0)),
                        (MemSide::Fm, old_base % self.cfg.fm_bytes),
                        64,
                        TrafficClass::Writeback,
                        req.at,
                    );
                    self.stats.dirty_writebacks += 1;
                }
            }

            // Fetch the full new line FM -> NM (the line-size over-fetch).
            dram.copy_lines(
                u64::MAX >> (64 - self.chunks_per_line),
                (MemSide::Fm, line_base % self.cfg.fm_bytes),
                (MemSide::Nm, self.nm_addr(set, way, 0)),
                64,
                TrafficClass::Fill,
                critical,
            );
            self.stats.fetched_bytes += self.cfg.line_bytes;
            self.stats.moved_into_nm += 1;
            self.lines[victim] = Line {
                tag,
                valid: true,
                dirty: write,
                touched: chunk_bit,
                stamp: self.clock,
            };
            Served::new(if write { req.at } else { critical }, false)
        }

        fn on_finish(&mut self) {
            // Fold lines still resident into the Figure-1 counters.
            for l in &self.lines {
                if l.valid {
                    self.stats.used_bytes += u64::from(l.touched.count_ones()) * 64;
                }
            }
        }
    }

    proptest! {
        /// Random reads and writes over twice the NM capacity, for the
        /// Figure 1/2 sweep's two ends (64 B and 4 KB lines, 16 ways) and a
        /// 256 B, 4-way shape: every op is served alike, and the scheme
        /// statistics, the resident lines in way order and both DRAM
        /// devices agree after each op and the statistics at the end.
        #[test]
        fn ideal_matches_array_reference(
            shape in 0usize..3,
            ops in proptest::collection::vec((0u64..1 << 17, any::<bool>(), 0u64..64), 1..300),
        ) {
            let (line_bytes, assoc) = [(64, 16), (256, 4), (4096, 16)][shape];
            let cfg = IdealCacheConfig {
                nm_bytes: 64 * 1024,
                fm_bytes: 1024 * 1024,
                line_bytes,
                assoc,
            };
            let (mut ideal, mut reference) = (IdealCache::new(cfg), ArrayIdeal::new(cfg));
            let (mut dram, mut ref_dram) = (DramSystem::paper_default(), DramSystem::paper_default());
            let mut at = Cycle::ZERO;
            for (addr, write, gap) in ops {
                let req = if write {
                    MemReq::write(PAddr::new(addr), 64, at)
                } else {
                    MemReq::read(PAddr::new(addr), 64, at)
                };
                prop_assert_eq!(ideal.access(&req, &mut dram), reference.access(&req, &mut ref_dram));
                prop_assert_eq!(ideal.stats(), &reference.stats);
                let resident: Vec<u64> = reference
                    .lines
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.valid)
                    .map(|(i, l)| {
                        let set = i as u64 / u64::from(assoc);
                        ((l.tag << reference.sets.trailing_zeros()) | set) * line_bytes
                    })
                    .collect();
                prop_assert_eq!(ideal.lines.resident_lines().collect::<Vec<_>>(), resident);
                prop_assert_eq!(&dram, &ref_dram);
                at += gap;
            }
            ideal.on_finish();
            reference.on_finish();
            prop_assert_eq!(ideal.stats(), &reference.stats);
        }
    }
}
