//! A generic set-associative, write-back, LRU cache.

use core::fmt;

/// The most ways a set may have: a set's tag matches form one 64-bit mask,
/// and the victim scan packs the way index into `WAY_BITS` bits.
pub const MAX_ASSOC: u32 = 64;

/// Bits of a packed victim key holding the way index.
const WAY_BITS: u32 = MAX_ASSOC.trailing_zeros();

/// Errors returned when constructing an invalid [`CacheConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Capacity must be non-zero and divisible into sets.
    BadCapacity {
        /// Offending capacity in bytes.
        capacity: u64,
        /// Bytes per set (`assoc * line`).
        set_bytes: u64,
    },
    /// Associativity must be non-zero.
    ZeroAssociativity,
    /// Associativity must not exceed [`MAX_ASSOC`].
    TooManyWays(u32),
    /// Line size must be a power of two of at least 2 bytes (a 1-byte line
    /// could yield a tag equal to the invalid-way sentinel).
    BadLineSize(u64),
    /// The derived set count must be a power of two (index bits).
    SetsNotPowerOfTwo(u64),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CacheConfigError::BadCapacity {
                capacity,
                set_bytes,
            } => write!(
                f,
                "capacity {capacity} is not a non-zero multiple of the set size {set_bytes}"
            ),
            CacheConfigError::ZeroAssociativity => f.write_str("associativity must be non-zero"),
            CacheConfigError::TooManyWays(a) => {
                write!(
                    f,
                    "associativity {a} exceeds the maximum of {MAX_ASSOC} ways"
                )
            }
            CacheConfigError::BadLineSize(l) => {
                write!(f, "line size {l} is not a power of two of at least 2 bytes")
            }
            CacheConfigError::SetsNotPowerOfTwo(s) => {
                write!(f, "derived set count {s} is not a power of two")
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Size/shape of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    capacity: u64,
    assoc: u32,
    line: u64,
    sets: u64,
}

impl CacheConfig {
    /// Creates a configuration of `capacity` bytes, `assoc` ways and `line`
    /// bytes per line.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheConfigError`] unless capacity divides evenly into a
    /// power-of-two number of sets of 1 to [`MAX_ASSOC`] lines, each line
    /// at least 2 bytes.
    pub fn new(capacity: u64, assoc: u32, line: u64) -> Result<Self, CacheConfigError> {
        if assoc == 0 {
            return Err(CacheConfigError::ZeroAssociativity);
        }
        if assoc > MAX_ASSOC {
            return Err(CacheConfigError::TooManyWays(assoc));
        }
        if line < 2 || !line.is_power_of_two() {
            return Err(CacheConfigError::BadLineSize(line));
        }
        let set_bytes = u64::from(assoc) * line;
        if capacity == 0 || !capacity.is_multiple_of(set_bytes) {
            return Err(CacheConfigError::BadCapacity {
                capacity,
                set_bytes,
            });
        }
        let sets = capacity / set_bytes;
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo(sets));
        }
        Ok(CacheConfig {
            capacity,
            assoc,
            line,
            sets,
        })
    }

    /// Table 1 L1: 64 KB, 4-way, 64 B lines.
    pub fn l1() -> Self {
        Self::new(64 * 1024, 4, 64).expect("L1 constants are valid")
    }

    /// Table 1 L2: 256 KB, 8-way, 64 B lines.
    pub fn l2() -> Self {
        Self::new(256 * 1024, 8, 64).expect("L2 constants are valid")
    }

    /// Table 1 shared LLC: 8 MB, 16-way, 64 B lines.
    pub fn llc() -> Self {
        Self::new(8 * 1024 * 1024, 16, 64).expect("LLC constants are valid")
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Ways per set.
    pub fn associativity(&self) -> u32 {
        self.assoc
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }
}

/// Tag of an invalid way. No resident line carries it: lines are at least
/// 2 bytes ([`CacheConfig::new`] rejects 1-byte lines), so a real tag has
/// at most 63 significant bits.
const NO_TAG: u64 = u64::MAX;

/// A line evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// First byte address of the evicted line.
    pub line_addr: u64,
    /// Whether the line was dirty (requires a writeback).
    pub dirty: bool,
}

/// Result of one [`SetAssocCache::access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Whether the line was already resident.
    pub hit: bool,
    /// The way, within its set, that hit or was filled.
    pub way: u32,
    /// A victim displaced by the allocation, if any.
    pub evicted: Option<Evicted>,
}

/// Hit/miss counters for one cache instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that found the line resident.
    pub hits: u64,
    /// Dirty victims produced.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// A write-back, allocate-on-miss, true-LRU set-associative cache.
///
/// Addresses are byte addresses; the cache works at [`CacheConfig::line_size`]
/// granularity. This structure is used for the L1/L2/LLC SRAM levels, for
/// scheme metadata caches (where "addresses" are table-entry indices scaled
/// by an entry size), and as the tag array of the DFC and IDEAL DRAM caches
/// and Hybrid2's XTA, which keep per-line state beside it at the line index
/// `set * associativity + way`.
///
/// Ways live in two parallel arrays, so the scans of
/// [`SetAssocCache::access`] are tight loops over plain words with no
/// data-dependent branch: `tags` holds each way's tag (`NO_TAG` when
/// invalid) and `meta` holds `stamp << 1 | dirty` (0 when invalid). The
/// LRU stamp is a per-cache access counter starting at 1, so a valid way's
/// meta word is at least 2.
///
/// [`SetAssocCache::access`] and [`SetAssocCache::access_hinted`] (a
/// caller's guess at the line index, confirmed by one tag compare) share
/// one hit path and one fill path, so they differ only in how they find
/// the way.
///
/// A last-line memo remembers the line number (`addr >> line_shift`) and
/// physical way of the most recent access (hit or fill) or successful
/// [`SetAssocCache::hit_line`], so a lookup of that line again skips the
/// set scan. Invariants: **the memoised line is resident at the memoised
/// way, and carries the newest LRU stamp.** Tags change in only two
/// places: the shared fill path, which overwrites the memo with the line
/// it installs, and `clear`, which clears the memo when it empties the
/// memoised way. Every stamp is taken by a memo update.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    tags: Vec<u64>,
    meta: Vec<u64>,
    stats: CacheStats,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    clock: u64,
    /// Line number of the memoised line, [`NO_TAG`] when there is none (a
    /// line number has at most 63 significant bits).
    memo_line: u64,
    /// Index into `tags`/`meta` of the memoised line's way.
    memo_way: usize,
}

/// Bit `w` is set iff way `w` of the set holds `tag`. Every way is
/// compared, so the scan has no early exit to mispredict.
#[inline]
fn match_mask(tags: &[u64], tag: u64) -> u64 {
    by_width(tags, |tags| {
        tags.iter()
            .enumerate()
            .fold(0, |mask, (w, &t)| mask | (u64::from(t == tag) << w))
    })
}

/// The way to fill on a miss: the first way holding the minimum meta word.
/// Invalid ways hold 0 and valid stamps are unique, so this is the first
/// invalid way if any, else the least recently used one.
///
/// Each way becomes the key `meta << WAY_BITS | way`, so a plain integer
/// minimum breaks ties toward the lower way. Four independent running
/// minima, one per way index modulo 4, keep the dependent chain short.
/// Forced inline: with two callers the compiler would otherwise call it
/// out of line from `access`, which slowed every cache access.
#[inline(always)]
fn victim_way(meta: &[u64]) -> usize {
    let lanes = by_width(meta, |meta| {
        let mut lanes = [u64::MAX; 4];
        for (w, &m) in meta.iter().enumerate() {
            lanes[w % 4] = lanes[w % 4].min((m << WAY_BITS) | w as u64);
        }
        lanes
    });
    let min = lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]));
    (min & (u64::from(MAX_ASSOC) - 1)) as usize
}

/// Runs the set scan `scan` over `ways`. The widths the simulator builds
/// (4, 8 and 16 ways) are handed over as fixed-size arrays, so each
/// compiles to straight-line code; any other width runs the loop over a
/// run-time length.
#[inline(always)]
fn by_width<T>(ways: &[u64], scan: impl Fn(&[u64]) -> T) -> T {
    match ways.len() {
        4 => scan(fixed::<4>(ways)),
        8 => scan(fixed::<8>(ways)),
        16 => scan(fixed::<16>(ways)),
        _ => scan(ways),
    }
}

#[inline(always)]
fn fixed<const W: usize>(ways: &[u64]) -> &[u64; W] {
    ways.try_into().expect("the caller matched the set's width")
}

impl SetAssocCache {
    /// Builds a cache from a validated configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let ways = (cfg.sets * u64::from(cfg.assoc)) as usize;
        SetAssocCache {
            tags: vec![NO_TAG; ways],
            meta: vec![0; ways],
            stats: CacheStats::default(),
            assoc: cfg.assoc as usize,
            line_shift: cfg.line.trailing_zeros(),
            set_mask: cfg.sets - 1,
            set_shift: cfg.sets.trailing_zeros(),
            clock: 0,
            memo_line: NO_TAG,
            memo_way: 0,
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, addr: u64) -> (u64, u64) {
        let line = addr >> self.line_shift;
        (line & self.set_mask, line >> self.set_shift)
    }

    #[inline]
    fn set_range(&self, set: u64) -> core::ops::Range<usize> {
        let start = set as usize * self.assoc;
        start..start + self.assoc
    }

    /// Index of `addr`'s way if its line is resident. The memoised line
    /// answers without a scan.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        if addr >> self.line_shift == self.memo_line {
            return Some(self.memo_way);
        }
        self.scan(addr)
    }

    /// [`SetAssocCache::find`] without the memo. Unlike
    /// [`SetAssocCache::access`], the scan stops at the first match: its
    /// main caller is the L1 fast path, which hits the same way op after
    /// op, so the early exit predicts well.
    #[inline]
    fn scan(&self, addr: u64) -> Option<usize> {
        let (set, tag) = self.set_of(addr);
        let range = self.set_range(set);
        let start = range.start;
        self.tags[range]
            .iter()
            .position(|&t| t == tag)
            .map(|w| start + w)
    }

    /// Looks up `addr`, allocating it on miss (possibly evicting a victim).
    /// `write` marks the line dirty.
    ///
    /// # Panics
    ///
    /// Panics once the cache has served 2^57 accesses, where the LRU stamp
    /// would overflow the packed victim key.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        let (set, tag) = self.set_of(addr);
        let range = self.set_range(set);
        let start = range.start;
        let mask = match_mask(&self.tags[range], tag);
        if mask != 0 {
            return self.hit_at(start, start + mask.trailing_zeros() as usize, addr, write);
        }
        self.fill_at(set, tag, addr, write)
    }

    /// [`SetAssocCache::access`] that first tries line index `hint`
    /// (`set * associativity + way`): if that index lies in `addr`'s set
    /// and holds its tag, the hit is taken there without a set scan.
    /// Any other hint (another set, a line since evicted, an index out of
    /// range, `u32::MAX`) falls back to the plain access, so the result
    /// and every later behaviour equal [`SetAssocCache::access`]'s for
    /// every hint: a hint is only ever a guess that the tag check confirms.
    ///
    /// # Panics
    ///
    /// As [`SetAssocCache::access`].
    #[inline]
    pub fn access_hinted(&mut self, addr: u64, write: bool, hint: u32) -> Access {
        let (set, tag) = self.set_of(addr);
        let start = self.set_range(set).start;
        let h = hint as usize;
        if h.wrapping_sub(start) < self.assoc && self.tags[h] == tag {
            return self.hit_at(start, h, addr, write);
        }
        self.access(addr, write)
    }

    /// Line index (`set * associativity + way`) of the line the most
    /// recent access or successful `hit_line` hit or filled.
    #[inline]
    pub(crate) fn last_line(&self) -> usize {
        self.memo_way
    }

    /// Advances the LRU clock and counts one access: the part every
    /// access, hit or fill, shares.
    #[inline(always)]
    fn tick(&mut self) {
        self.clock += 1;
        assert!(
            self.clock >> (63 - WAY_BITS) == 0,
            "LRU clock overflows the packed victim key"
        );
        self.stats.accesses += 1;
    }

    /// The hit path of every access: line index `i`, in the set starting
    /// at `start`, holds `addr`'s line.
    #[inline(always)]
    fn hit_at(&mut self, start: usize, i: usize, addr: u64, write: bool) -> Access {
        self.tick();
        self.meta[i] = (self.clock << 1) | (self.meta[i] & 1) | u64::from(write);
        self.stats.hits += 1;
        self.memo_line = addr >> self.line_shift;
        self.memo_way = i;
        Access {
            hit: true,
            way: (i - start) as u32,
            evicted: None,
        }
    }

    /// The miss path of every access: installs `tag` in `set`'s first
    /// invalid way, else its least recently used one.
    #[inline(always)]
    fn fill_at(&mut self, set: u64, tag: u64, addr: u64, write: bool) -> Access {
        self.tick();
        let range = self.set_range(set);
        let start = range.start;
        let tags = &mut self.tags[range.clone()];
        let meta = &mut self.meta[range];
        let w = victim_way(meta);
        let old = meta[w];
        let evicted = if old == 0 {
            None
        } else {
            let dirty = old & 1 != 0;
            self.stats.dirty_evictions += u64::from(dirty);
            Some(Evicted {
                line_addr: ((tags[w] << self.set_shift) | set) << self.line_shift,
                dirty,
            })
        };
        tags[w] = tag;
        meta[w] = (self.clock << 1) | u64::from(write);
        self.memo_line = addr >> self.line_shift;
        self.memo_way = start + w;
        Access {
            hit: false,
            way: w as u32,
            evicted,
        }
    }

    /// Performs the access only if `addr`'s line is resident, mutating
    /// what the hit path of [`SetAssocCache::access`] would mutate (LRU
    /// order, dirty bit, hit/access counters, memo) and returning `true`.
    /// On a miss nothing observable changes — not the LRU clock, not the
    /// access counter — so replaying the same op through
    /// [`SetAssocCache::access`] later observes the state a plain call
    /// would have, with the same LRU order and statistics.
    ///
    /// This is the private-cache fast path of the epoch-batched machine
    /// loop: a run-ahead core may consume L1 hits eagerly, but a miss must
    /// wait for global ordering and be replayed in full.
    #[inline]
    pub fn access_if_hit(&mut self, addr: u64, write: bool) -> bool {
        self.hit_line(addr, write).is_some()
    }

    /// [`SetAssocCache::access_if_hit`] that returns the hit line's index,
    /// `set * associativity + way`, by which a caller keys its per-line
    /// payload.
    ///
    /// A hit on the memoised line sets only its dirty bit and the
    /// counters: that line already carries the newest stamp, so stamping
    /// it again would leave the LRU order of every set unchanged.
    #[inline]
    pub fn hit_line(&mut self, addr: u64, write: bool) -> Option<usize> {
        let w = if addr >> self.line_shift == self.memo_line {
            self.meta[self.memo_way] |= u64::from(write);
            self.memo_way
        } else {
            let w = self.scan(addr)?;
            self.clock += 1;
            self.meta[w] = (self.clock << 1) | (self.meta[w] & 1) | u64::from(write);
            self.memo_line = addr >> self.line_shift;
            self.memo_way = w;
            w
        };
        self.stats.accesses += 1;
        self.stats.hits += 1;
        Some(w)
    }

    /// If every way of `addr`'s set is valid, invalidates the least
    /// recently used one and returns its line index; otherwise changes
    /// nothing. The next miss in the set then fills the emptied way, as
    /// [`SetAssocCache::access`] fills the first invalid way.
    pub fn evict_lru_if_full(&mut self, addr: u64) -> Option<usize> {
        let range = self.set_range(self.set_of(addr).0);
        let w = range.start + victim_way(&self.meta[range]);
        if self.meta[w] == 0 {
            return None;
        }
        let dirty = self.clear(w);
        self.stats.dirty_evictions += u64::from(dirty);
        Some(w)
    }

    /// Non-allocating residency probe.
    pub fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Removes a line; returns `Some(dirty)` if it was resident.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let w = self.find(addr)?;
        Some(self.clear(w))
    }

    /// Empties way index `w`, forgetting it in the memo; returns whether it
    /// was dirty.
    fn clear(&mut self, w: usize) -> bool {
        let dirty = self.meta[w] & 1 != 0;
        self.tags[w] = NO_TAG;
        self.meta[w] = 0;
        if w == self.memo_way {
            self.memo_line = NO_TAG;
        }
        dirty
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != NO_TAG).count() as u64
    }

    /// Iterates over the addresses of all resident lines (diagnostics/tests).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|&(_, &tag)| tag != NO_TAG)
            .map(move |(i, &tag)| {
                ((tag << self.set_shift) | (i / self.assoc) as u64) << self.line_shift
            })
    }

    /// Aligns an arbitrary byte address down to its line base.
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B = 512 B.
        SetAssocCache::new(CacheConfig::new(512, 2, 64).unwrap())
    }

    #[test]
    fn config_presets_match_table_1() {
        assert_eq!(CacheConfig::l1().capacity(), 64 * 1024);
        assert_eq!(CacheConfig::l1().associativity(), 4);
        assert_eq!(CacheConfig::l2().capacity(), 256 * 1024);
        assert_eq!(CacheConfig::llc().capacity(), 8 * 1024 * 1024);
        assert_eq!(CacheConfig::llc().associativity(), 16);
    }

    #[test]
    fn config_rejects_bad_shapes() {
        assert!(matches!(
            CacheConfig::new(0, 4, 64),
            Err(CacheConfigError::BadCapacity { .. })
        ));
        assert_eq!(
            CacheConfig::new(1024, 0, 64),
            Err(CacheConfigError::ZeroAssociativity)
        );
        assert_eq!(
            CacheConfig::new(1024, 4, 60),
            Err(CacheConfigError::BadLineSize(60))
        );
        // 3 sets.
        assert!(matches!(
            CacheConfig::new(3 * 2 * 64, 2, 64),
            Err(CacheConfigError::SetsNotPowerOfTwo(3))
        ));
    }

    #[test]
    fn config_rejects_one_byte_lines() {
        // A 1-byte line in a 1-set cache would make the tag the whole
        // address, so u64::MAX would collide with the invalid-way sentinel.
        assert_eq!(
            CacheConfig::new(4, 4, 1),
            Err(CacheConfigError::BadLineSize(1))
        );
        assert_eq!(
            CacheConfig::new(1024, 2, 1),
            Err(CacheConfigError::BadLineSize(1))
        );
        assert!(CacheConfig::new(8, 4, 2).is_ok(), "2-byte lines stay legal");
    }

    #[test]
    fn config_caps_associativity() {
        assert!(CacheConfig::new(64 * 64, MAX_ASSOC, 64).is_ok());
        assert_eq!(
            CacheConfig::new(128 * 64, 128, 64),
            Err(CacheConfigError::TooManyWays(128))
        );
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit, "same line, different byte");
        assert!(!c.access(64, false).hit, "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines whose (line index % 4) == 0: 0, 256, 512...
        c.access(0, false);
        c.access(256, false);
        // Touch line 0 so 256 becomes LRU.
        c.access(0, false);
        let out = c.access(512, false);
        assert!(!out.hit);
        assert_eq!(out.evicted.unwrap().line_addr, 256);
        assert!(c.probe(0));
        assert!(!c.probe(256));
    }

    #[test]
    fn dirty_victims_are_flagged() {
        let mut c = small();
        c.access(0, true); // dirty
        c.access(256, false);
        let out = c.access(512, false); // evicts 0 (LRU)
        let ev = out.evicted.unwrap();
        assert_eq!(ev.line_addr, 0);
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // hit, now dirty
        c.access(256, false);
        let ev = c.access(512, false).evicted.unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn eviction_reconstructs_full_address() {
        let mut c = small();
        let addr = 0x1_2340; // line base 0x12340, set = (0x12340>>6)&3
        c.access(addr, false);
        // Fill the same set with two more lines to force eviction.
        let set_stride = 4 * 64; // sets * line
        c.access(addr + set_stride, false);
        let ev = c.access(addr + 2 * set_stride, false).evicted.unwrap();
        assert_eq!(ev.line_addr, c.line_base(addr));
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = small();
        c.access(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.invalidate(0), None);
        assert!(!c.probe(0));
    }

    #[test]
    fn occupancy_and_resident_iteration() {
        let mut c = small();
        c.access(0, false);
        c.access(64, false);
        assert_eq!(c.occupancy(), 2);
        let mut lines: Vec<u64> = c.resident_lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 64]);
    }

    #[test]
    fn associativity_capacity_exact() {
        let mut c = small(); // 2-way
        c.access(0, false);
        c.access(256, false);
        // Both fit; neither evicted.
        assert!(c.probe(0) && c.probe(256));
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn access_if_hit_miss_mutates_nothing() {
        let mut c = small();
        c.access(0, false);
        let stats_before = *c.stats();
        assert!(!c.access_if_hit(256, false), "cold line cannot fast-hit");
        assert_eq!(*c.stats(), stats_before, "miss path must not count");
        assert!(!c.probe(256), "miss path must not allocate");
        // The replayed full access behaves exactly like a first touch.
        assert!(!c.access(256, false).hit);
        assert!(c.probe(256));
    }

    /// Driving one cache through `access_if_hit`-then-replay and another
    /// through plain `access` leaves byte-identical state: same stats, same
    /// resident lines, same LRU victim choice afterwards.
    #[test]
    fn access_if_hit_is_equivalent_to_access_hit_path() {
        let mut fast = small();
        let mut reference = small();
        // Mixed hits/misses within one set (stride 256 maps to set 0).
        let ops: [(u64, bool); 9] = [
            (0, false),
            (0, true),
            (256, false),
            (0, false),
            (256, true),
            (512, false), // evicts; exercises post-divergence-risk state
            (0, false),
            (512, false),
            (256, false),
        ];
        for (addr, write) in ops {
            if !fast.access_if_hit(addr, write) {
                fast.access(addr, write);
            }
            reference.access(addr, write);
        }
        assert_eq!(*fast.stats(), *reference.stats());
        let mut a: Vec<u64> = fast.resident_lines().collect();
        let mut b: Vec<u64> = reference.resident_lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Same next victim: LRU stamps must agree, not just residency.
        assert_eq!(fast.access(768, false), reference.access(768, false));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The array-of-structs kernel this cache replaced, kept verbatim as a
    /// reference model: one 16-byte way per slot, `meta` packing
    /// `stamp << 2 | dirty << 1 | valid`, and a fused hit/victim scan that
    /// picks the first invalid way, else the LRU way.
    #[derive(Clone, Copy, Default)]
    struct Way {
        tag: u64,
        meta: u64,
    }

    impl Way {
        const VALID: u64 = 1;
        const DIRTY: u64 = 2;

        fn valid(self) -> bool {
            self.meta & Way::VALID != 0
        }

        fn dirty(self) -> bool {
            self.meta & Way::DIRTY != 0
        }

        fn stamp(self) -> u64 {
            self.meta >> 2
        }
    }

    struct AosCache {
        cfg: CacheConfig,
        ways: Vec<Way>,
        stats: CacheStats,
        clock: u64,
    }

    impl AosCache {
        fn new(cfg: CacheConfig) -> Self {
            AosCache {
                ways: vec![Way::default(); (cfg.sets * u64::from(cfg.assoc)) as usize],
                stats: CacheStats::default(),
                clock: 0,
                cfg,
            }
        }

        fn set_of(&self, addr: u64) -> (u64, u64) {
            let line = addr >> self.cfg.line.trailing_zeros();
            (
                line & (self.cfg.sets - 1),
                line >> self.cfg.sets.trailing_zeros(),
            )
        }

        fn set_range(&self, set: u64) -> core::ops::Range<usize> {
            let start = (set * u64::from(self.cfg.assoc)) as usize;
            start..start + self.cfg.assoc as usize
        }

        fn reconstruct(&self, set: u64, tag: u64) -> u64 {
            ((tag << self.cfg.sets.trailing_zeros()) | set) << self.cfg.line.trailing_zeros()
        }

        fn access(&mut self, addr: u64, write: bool) -> Access {
            self.clock += 1;
            let clock = self.clock;
            let (set, tag) = self.set_of(addr);
            let start = self.set_range(set).start;
            self.stats.accesses += 1;
            let mut lru = 0usize;
            let mut lru_stamp = u64::MAX;
            let mut invalid: Option<usize> = None;
            let range = self.set_range(set);
            for (i, w) in self.ways[range].iter_mut().enumerate() {
                if w.valid() {
                    if w.tag == tag {
                        w.meta = (clock << 2) | (w.meta & 3) | (u64::from(write) << 1);
                        self.stats.hits += 1;
                        return Access {
                            hit: true,
                            way: i as u32,
                            evicted: None,
                        };
                    }
                    if w.stamp() < lru_stamp {
                        lru_stamp = w.stamp();
                        lru = i;
                    }
                } else if invalid.is_none() {
                    invalid = Some(i);
                }
            }
            let way = invalid.unwrap_or(lru);
            let victim_idx = start + way;
            let evicted = if invalid.is_some() {
                None
            } else {
                let w = self.ways[victim_idx];
                if w.dirty() {
                    self.stats.dirty_evictions += 1;
                }
                Some(Evicted {
                    line_addr: self.reconstruct(set, w.tag),
                    dirty: w.dirty(),
                })
            };
            self.ways[victim_idx] = Way {
                tag,
                meta: (clock << 2) | (u64::from(write) << 1) | Way::VALID,
            };
            Access {
                hit: false,
                way: way as u32,
                evicted,
            }
        }

        fn find(&mut self, addr: u64) -> Option<&mut Way> {
            let (set, tag) = self.set_of(addr);
            let range = self.set_range(set);
            self.ways[range]
                .iter_mut()
                .find(|w| w.valid() && w.tag == tag)
        }

        fn access_if_hit(&mut self, addr: u64, write: bool) -> bool {
            let clock = self.clock + 1;
            let Some(w) = self.find(addr) else {
                return false;
            };
            w.meta = (clock << 2) | (w.meta & 3) | (u64::from(write) << 1);
            self.clock = clock;
            self.stats.accesses += 1;
            self.stats.hits += 1;
            true
        }

        fn hit_line(&mut self, addr: u64, write: bool) -> Option<usize> {
            let (set, tag) = self.set_of(addr);
            let range = self.set_range(set);
            let start = range.start;
            let way = self.ways[range]
                .iter()
                .position(|w| w.valid() && w.tag == tag)?;
            self.access_if_hit(addr, write);
            Some(start + way)
        }

        fn evict_lru_if_full(&mut self, addr: u64) -> Option<usize> {
            let range = self.set_range(self.set_of(addr).0);
            if !self.ways[range.clone()].iter().all(|w| w.valid()) {
                return None;
            }
            let i = range.min_by_key(|&i| self.ways[i].stamp())?;
            let w = &mut self.ways[i];
            self.stats.dirty_evictions += u64::from(w.dirty());
            w.meta &= !(Way::VALID | Way::DIRTY);
            Some(i)
        }

        fn probe(&mut self, addr: u64) -> bool {
            self.find(addr).is_some()
        }

        fn invalidate(&mut self, addr: u64) -> Option<bool> {
            let w = self.find(addr)?;
            let dirty = w.dirty();
            w.meta &= !(Way::VALID | Way::DIRTY);
            Some(dirty)
        }

        fn resident_lines(&self) -> Vec<u64> {
            let assoc = u64::from(self.cfg.assoc);
            self.ways
                .iter()
                .enumerate()
                .filter(|(_, w)| w.valid())
                .map(|(i, w)| self.reconstruct(i as u64 / assoc, w.tag))
                .collect()
        }
    }

    /// Drives the kernel and the reference model through the same op
    /// sequence, asserting every return value (the way of each access
    /// included), the statistics and the physical way order after each
    /// op. `ops` are `(op, line, write)` with lines drawn from three times
    /// the cache's capacity, so sets see cold fills, hits, conflict
    /// evictions and refills of invalidated ways. Op 6 invalidates the
    /// line and then probes it, op 7 invalidates it and then accesses it:
    /// the memo's clearing path, on the line it most likely holds. Op 8 is
    /// a hit that reports its line index, and op 9 evicts the line's set's
    /// LRU way if the set is full (the memo's other clearing path), then
    /// accesses the line, which refills the emptied way. Op 10 is a hinted
    /// access with the line's own index (or `u32::MAX` when absent), op 11
    /// one with a scrambled hint, and op 12 a fast probe followed, on a
    /// miss, by the access.
    fn check_against_model(sets: u64, assoc: u32, line_bytes: u64, ops: &[(u8, u64, bool)]) {
        let cfg =
            CacheConfig::new(sets * u64::from(assoc) * line_bytes, assoc, line_bytes).unwrap();
        let mut fast = SetAssocCache::new(cfg);
        let mut model = AosCache::new(cfg);
        let lines = sets * u64::from(assoc);
        for &(op, line, write) in ops {
            // A byte offset inside the line exercises the line masking.
            let addr = line * line_bytes + (line % line_bytes);
            match op {
                0 | 1 => assert_eq!(fast.access(addr, write), model.access(addr, write)),
                2 | 4 => assert_eq!(
                    fast.access_if_hit(addr, write),
                    model.access_if_hit(addr, write)
                ),
                3 => assert_eq!(fast.probe(addr), model.probe(addr)),
                5 => assert_eq!(fast.invalidate(addr), model.invalidate(addr)),
                6 => {
                    assert_eq!(fast.invalidate(addr), model.invalidate(addr));
                    assert_eq!(fast.probe(addr), model.probe(addr));
                }
                7 => {
                    assert_eq!(fast.invalidate(addr), model.invalidate(addr));
                    assert_eq!(fast.access(addr, write), model.access(addr, write));
                }
                8 => assert_eq!(fast.hit_line(addr, write), model.hit_line(addr, write)),
                9 => {
                    assert_eq!(fast.evict_lru_if_full(addr), model.evict_lru_if_full(addr));
                    assert_eq!(fast.access(addr, write), model.access(addr, write));
                }
                10 => {
                    // The line's own index when resident, else no hint.
                    let hint = fast.scan(addr).map_or(u32::MAX, |i| i as u32);
                    let got = fast.access_hinted(addr, write, hint);
                    assert_eq!(got, model.access(addr, write));
                }
                11 => {
                    // A scrambled hint: mostly another set or out of range.
                    let hint = (line.wrapping_mul(0x9E37_79B9) % (2 * lines)) as u32;
                    let got = fast.access_hinted(addr, write, hint);
                    assert_eq!(got, model.access(addr, write));
                }
                _ => {
                    // A missed fast probe, then the access.
                    let hit = fast.access_if_hit(addr, write);
                    assert_eq!(hit, model.access_if_hit(addr, write));
                    if !hit {
                        assert_eq!(fast.access(addr, write), model.access(addr, write));
                    }
                }
            }
            assert_eq!(*fast.stats(), model.stats);
            assert_eq!(
                fast.resident_lines().collect::<Vec<_>>(),
                model.resident_lines()
            );
        }
        assert_eq!(fast.occupancy(), model.resident_lines().len() as u64);
    }

    fn ops(lines: u64) -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
        proptest::collection::vec((0u8..13, 0..lines, any::<bool>()), 1..400)
    }

    /// Ops that mostly touch a line and then invalidate it: an access or
    /// fast hit followed by op 5, 6 or 7 on the same line.
    fn touch_then_invalidate(lines: u64) -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
        proptest::collection::vec((0u8..3, 5u8..8, 0..lines, any::<bool>()), 1..200).prop_map(
            |pairs| {
                pairs
                    .into_iter()
                    .flat_map(|(touch, inv, line, write)| {
                        [(touch, line, write), (inv, line, write)]
                    })
                    .collect()
            },
        )
    }

    proptest! {
        /// One 4-way set: the scaled L1 of the 1/1024 runs.
        #[test]
        fn kernel_matches_model_1x4(ops in ops(12)) {
            check_against_model(1, 4, 64, &ops);
        }

        /// One 8-way set: the scaled L2.
        #[test]
        fn kernel_matches_model_1x8(ops in ops(24)) {
            check_against_model(1, 8, 64, &ops);
        }

        /// 8 sets of 16 ways: the scaled LLC.
        #[test]
        fn kernel_matches_model_8x16(ops in ops(384)) {
            check_against_model(8, 16, 64, &ops);
        }

        /// 64 sets of 4 ways: the flat schemes' remap cache and Dfc's
        /// fused store.
        #[test]
        fn kernel_matches_model_64x4(ops in ops(768)) {
            check_against_model(64, 4, 64, &ops);
        }

        /// 4 sets of 16 ways with 1 KB lines: Dfc's DRAM cache.
        #[test]
        fn kernel_matches_model_4x16_1kb(ops in ops(192)) {
            check_against_model(4, 16, 1024, &ops);
        }

        /// Touch a line, then invalidate it and probe, access or fast-hit
        /// it: the memo must forget an invalidated line.
        #[test]
        fn kernel_matches_model_invalidate_touched(ops in touch_then_invalidate(16)) {
            check_against_model(2, 4, 64, &ops);
        }

        /// 4 sets of 2 ways: frequent conflicts.
        #[test]
        fn kernel_matches_model_4x2(ops in ops(24)) {
            check_against_model(4, 2, 64, &ops);
        }

        /// One set of the widest legal associativity.
        #[test]
        fn kernel_matches_model_1x64(ops in ops(192)) {
            check_against_model(1, 64, 64, &ops);
        }

        /// A hinted access equals a plain one for any hint: the line's own
        /// index, another set's, a stale or out-of-range index, or
        /// `u32::MAX`. The two caches stay equal op by op, and
        /// `last_line` names the way each access reports.
        #[test]
        fn access_hinted_matches_access(
            ops in proptest::collection::vec(
                (0u64..96, any::<bool>(), prop_oneof![
                    Just(None),
                    (0u32..40).prop_map(Some),
                    Just(Some(u32::MAX)),
                    any::<u32>().prop_map(Some),
                ]),
                1..300,
            )
        ) {
            // 4 sets x 4 ways, lines drawn from six times the capacity.
            let cfg = CacheConfig::new(1024, 4, 64).unwrap();
            let mut hinted = SetAssocCache::new(cfg);
            let mut plain = SetAssocCache::new(cfg);
            for (line, write, hint) in ops {
                let addr = line * 64 + line % 64;
                // `None` hints the line's true index when it is resident.
                let hint = hint
                    .unwrap_or_else(|| hinted.scan(addr).map_or(u32::MAX, |i| i as u32));
                let got = hinted.access_hinted(addr, write, hint);
                let want = plain.access(addr, write);
                prop_assert_eq!(got, want);
                let set = (line % 4) as usize;
                prop_assert_eq!(hinted.last_line(), set * 4 + got.way as usize);
                prop_assert_eq!(*hinted.stats(), *plain.stats());
            }
            prop_assert_eq!(&hinted.tags, &plain.tags);
            prop_assert_eq!(&hinted.meta, &plain.meta);
        }

        /// A probe that misses, then other ops, then the access of the
        /// probed line equals the reference model's access. `gap` ops of
        /// other lines (`access`, `invalidate` or another probe) run
        /// between the probe and the access.
        #[test]
        fn missed_probe_then_access_matches_access(
            ops in proptest::collection::vec(
                (0u64..64, any::<bool>(), proptest::collection::vec((0u8..3, 0u64..64), 0..4)),
                1..150,
            )
        ) {
            // 2 sets x 8 ways, lines drawn from four times the capacity.
            let cfg = CacheConfig::new(1024, 8, 64).unwrap();
            let mut probed = SetAssocCache::new(cfg);
            let mut model = AosCache::new(cfg);
            for (line, write, gap) in ops {
                let addr = line * 64;
                let hit = probed.access_if_hit(addr, write);
                prop_assert_eq!(hit, model.access_if_hit(addr, write));
                for (op, other) in gap {
                    let other = other * 64;
                    match op {
                        0 => prop_assert_eq!(probed.access(other, false), model.access(other, false)),
                        1 => prop_assert_eq!(probed.invalidate(other), model.invalidate(other)),
                        _ => prop_assert_eq!(
                            probed.access_if_hit(other, false),
                            model.access_if_hit(other, false)
                        ),
                    }
                }
                if !hit {
                    prop_assert_eq!(probed.access(addr, write), model.access(addr, write));
                }
                prop_assert_eq!(*probed.stats(), model.stats);
            }
            prop_assert_eq!(probed.resident_lines().collect::<Vec<_>>(), model.resident_lines());
        }

        /// The most recently touched line of a set is never the next victim.
        #[test]
        fn mru_line_survives_next_miss(addrs in proptest::collection::vec(0u64..4096, 1..200)) {
            let mut c = SetAssocCache::new(CacheConfig::new(512, 2, 64).unwrap());
            let mut last: Option<u64> = None;
            for a in addrs {
                let out = c.access(a, false);
                if let (Some(prev), Some(ev)) = (last, out.evicted) {
                    prop_assert_ne!(c.line_base(prev), ev.line_addr,
                        "evicted the most recently used line");
                }
                last = Some(a);
            }
        }

        /// Occupancy never exceeds total way count and probes agree with
        /// the resident-line iterator.
        #[test]
        fn occupancy_bounded_and_consistent(addrs in proptest::collection::vec(0u64..65536, 1..300)) {
            let mut c = SetAssocCache::new(CacheConfig::new(1024, 4, 64).unwrap());
            for a in addrs {
                c.access(a, a % 3 == 0);
            }
            prop_assert!(c.occupancy() <= 16); // 4 sets x 4 ways
            for line in c.resident_lines() {
                prop_assert!(c.probe(line));
            }
        }

        /// A line is resident immediately after being accessed.
        #[test]
        fn accessed_line_is_resident(addrs in proptest::collection::vec(0u64..1u64<<20, 1..300)) {
            let mut c = SetAssocCache::new(CacheConfig::new(2048, 2, 64).unwrap());
            for a in addrs {
                c.access(a, false);
                prop_assert!(c.probe(a));
            }
        }

        /// hits + misses == accesses.
        #[test]
        fn stats_balance(addrs in proptest::collection::vec(0u64..8192, 1..200)) {
            let mut c = SetAssocCache::new(CacheConfig::new(512, 2, 64).unwrap());
            for a in addrs.iter() {
                c.access(*a, false);
            }
            prop_assert_eq!(c.stats().hits + c.stats().misses(), addrs.len() as u64);
        }
    }
}
