//! Random, capacity-proportional page allocation (§4 of the paper).
//!
//! "Through all of our experiments the memory pages are allocated randomly
//! in the HBM or DDR4 proportionally to their capacity." We realize this by
//! allocating each first-touched virtual page a uniformly random free
//! physical page of the scheme's flat space — since the flat space is the
//! concatenation of NM-backed and FM-backed sectors, uniform sampling is
//! exactly capacity-proportional placement. Multi-programmed workloads get
//! one address space per core; multi-threaded workloads share space 0.
//!
//! The `(space, vpage) → frame` map is consulted once per memory op on
//! [`Machine::run`](crate::Machine::run)'s hot path, so it is an
//! open-addressing table with a multiply-xor hash rather than a SipHash
//! `HashMap` — same mapping (frame choice comes from [`SplitMix64`], never
//! from table order), a fraction of the lookup cost.
//!
//! The free list is the identity vector `0..frames` with `swap_remove`
//! draws, but only materialised where a draw has moved a frame: an
//! allocator costs the same to build at any capacity, and its state grows
//! with the pages a run touches, never with the flat space.

use sim_types::rng::SplitMix64;
use sim_types::{PAddr, VAddr};

const PAGE: u64 = 4096;

/// Slot sentinel: no key. A real packed key never equals this (it would
/// need space 0xFF *and* an all-ones 56-bit virtual page number).
const EMPTY: u64 = u64::MAX;

/// Finalizer-style multiply-xor hash: one multiplication by an odd
/// constant (the golden-ratio multiplier) to smear low-entropy vpage bits
/// across the word, one xor-shift to fold the well-mixed high half down
/// into the index bits.
#[inline]
fn hash(key: u64) -> u64 {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// Open-addressed, linear-probing `u64 → u32` table: `(space, vpage) →
/// frame` for the page map, free-list position → frame for the free-list
/// overlay.
///
/// Page keys are packed as `space << 56 | vpage`; positions are below
/// `u32::MAX`. Capacity is a power of two, starting at 64 slots and grown
/// at ~70% load. Deletion is never needed (pages are not freed, and stale
/// overlay positions are never read), so probing needs no tombstones.
///
/// Frames are stored as `u32`: [`PageAllocator::new`] bounds the frame
/// count by `u32::MAX`.
#[derive(Clone, Debug)]
struct FrameTable {
    keys: Vec<u64>,
    frames: Vec<u32>,
    len: usize,
    mask: u64,
}

impl FrameTable {
    fn new() -> Self {
        const INITIAL_SLOTS: usize = 64;
        FrameTable {
            keys: vec![EMPTY; INITIAL_SLOTS],
            frames: vec![0; INITIAL_SLOTS],
            len: 0,
            mask: INITIAL_SLOTS as u64 - 1,
        }
    }

    #[inline]
    fn pack(space: u8, vpage: u64) -> u64 {
        debug_assert!(vpage < 1 << 56, "virtual page number overflows packing");
        (u64::from(space) << 56) | vpage
    }

    /// Finds `key`'s slot: `Ok` where it is, `Err` where it belongs.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mut i = hash(key) & self.mask;
        loop {
            let k = self.keys[i as usize];
            if k == key {
                return Ok(i as usize);
            }
            if k == EMPTY {
                return Err(i as usize);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks `key` up; on absence returns the slot index where it belongs.
    #[inline]
    fn probe(&self, key: u64) -> Result<u64, usize> {
        self.find(key).map(|slot| u64::from(self.frames[slot]))
    }

    /// Maps `key` to `frame`, overwriting any earlier frame.
    fn set(&mut self, key: u64, frame: u32) {
        match self.find(key) {
            Ok(slot) => self.frames[slot] = frame,
            Err(slot) => self.insert_at(slot, key, frame),
        }
    }

    /// Inserts a key known to be absent, at the slot `probe` reported.
    fn insert_at(&mut self, slot: usize, key: u64, frame: u32) {
        self.keys[slot] = key;
        self.frames[slot] = frame;
        self.len += 1;
        // Grow at 70% load so probe chains stay short.
        if self.len as u64 * 10 >= (self.mask + 1) * 7 {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_frames = std::mem::replace(&mut self.frames, vec![0; new_slots]);
        self.mask = new_slots as u64 - 1;
        for (k, f) in old_keys.into_iter().zip(old_frames) {
            if k == EMPTY {
                continue;
            }
            let mut i = hash(k) & self.mask;
            while self.keys[i as usize] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.keys[i as usize] = k;
            self.frames[i as usize] = f;
        }
    }

    #[cfg(test)]
    fn iter_frames(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys
            .iter()
            .zip(&self.frames)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(_, &f)| u64::from(f))
    }
}

/// Lazy random page table over a fixed physical capacity.
///
/// The free list is implicit: position `i < free_len` holds frame
/// `moved[i]` if `moved` has `i`, and frame `i` otherwise. The frames at
/// positions `0..free_len` are exactly the frames not yet handed out.
/// A draw is `swap_remove` on that list, so `moved` gains at most one
/// position per first touch; positions at or above `free_len` are never
/// read again and are left in place.
#[derive(Clone, Debug)]
pub struct PageAllocator {
    map: FrameTable,
    /// Free-list positions whose frame is not their own index.
    moved: FrameTable,
    /// Length of the free list: frames not yet handed out.
    free_len: u32,
    rng: SplitMix64,
    capacity_pages: u64,
}

impl PageAllocator {
    /// Creates an allocator over `capacity_bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no full page, or more than `u32::MAX`
    /// pages (16 TB).
    pub fn new(capacity_bytes: u64, seed: u64) -> Self {
        let capacity_pages = capacity_bytes / PAGE;
        assert!(capacity_pages > 0, "capacity below one page");
        let Ok(free_len) = u32::try_from(capacity_pages) else {
            panic!("capacity of {capacity_pages} pages exceeds the u32 frame range");
        };
        PageAllocator {
            map: FrameTable::new(),
            moved: FrameTable::new(),
            free_len,
            rng: SplitMix64::new(seed),
            capacity_pages,
        }
    }

    /// Translates `(space, vaddr)` to a physical address, allocating a
    /// random free page on first touch.
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted — the harness sizes
    /// footprints to fit (the paper does not model page faults either).
    pub fn translate(&mut self, space: u8, vaddr: VAddr) -> PAddr {
        self.translate_tracking(space, vaddr).0
    }

    /// Like [`PageAllocator::translate`], also reporting whether this touch
    /// allocated a fresh page (drives §3.8 OS allocation hints).
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted.
    #[inline]
    pub fn translate_tracking(&mut self, space: u8, vaddr: VAddr) -> (PAddr, bool) {
        let vpage = vaddr.raw() / PAGE;
        let offset = vaddr.raw() % PAGE;
        let key = FrameTable::pack(space, vpage);
        let (ppage, fresh) = match self.map.probe(key) {
            Ok(p) => (p, false),
            Err(slot) => {
                assert!(
                    self.free_len > 0,
                    "physical memory exhausted: footprint exceeds the flat space \
                     (the paper's workloads always fit; check scaling)"
                );
                let p = self.draw_free();
                self.map.insert_at(slot, key, p);
                (u64::from(p), true)
            }
        };
        (PAddr::new(ppage * PAGE + offset), fresh)
    }

    /// Frame at free-list position `pos`.
    #[inline]
    fn free_at(&self, pos: u32) -> u32 {
        self.moved
            .find(u64::from(pos))
            .map_or(pos, |slot| self.moved.frames[slot])
    }

    /// Removes a uniformly random frame from a non-empty free list:
    /// `swap_remove` at a drawn position, the last frame filling the hole.
    fn draw_free(&mut self) -> u32 {
        let idx = self.rng.gen_range(u64::from(self.free_len)) as u32;
        let last = self.free_len - 1;
        let frame = self.free_at(idx);
        self.moved.set(u64::from(idx), self.free_at(last));
        self.free_len = last;
        frame
    }

    /// Read-only translation: `Some(paddr)` iff `(space, vaddr)`'s page is
    /// already mapped; never allocates. The epoch-batched machine loop uses
    /// this to let a run-ahead core translate through existing mappings
    /// (reads of the table commute with other cores' insertions) while
    /// first touches — which consume the shared RNG stream and must keep
    /// their global order — wait until the core is globally earliest.
    #[inline]
    pub fn lookup(&self, space: u8, vaddr: VAddr) -> Option<PAddr> {
        let vpage = vaddr.raw() / PAGE;
        let offset = vaddr.raw() % PAGE;
        let key = FrameTable::pack(space, vpage);
        self.map
            .probe(key)
            .ok()
            .map(|ppage| PAddr::new(ppage * PAGE + offset))
    }

    /// Order-independent digest (FNV-1a over the sorted entries) of the
    /// complete `(space, vpage) → frame` mapping. Frames are drawn from one
    /// shared RNG stream, so any change in first-touch order permutes the
    /// mapping and changes this digest — it is the observable form of the
    /// allocation-order invariant the batched machine loop must preserve.
    pub fn table_digest(&self) -> u64 {
        let mut entries: Vec<(u64, u64)> = self
            .map
            .keys
            .iter()
            .zip(&self.map.frames)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &f)| (k, u64::from(f)))
            .collect();
        entries.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, f) in entries {
            for word in [k, f] {
                for byte in word.to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        h
    }

    /// Pages allocated so far.
    pub fn allocated_pages(&self) -> u64 {
        self.map.len as u64
    }

    /// Bytes of distinct memory touched (the measured footprint).
    pub fn footprint_bytes(&self) -> u64 {
        self.allocated_pages() * PAGE
    }

    /// Total physical pages managed.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }
}

/// One core's most recent translation: a one-entry `(vpage, frame)` memo
/// in front of [`PageAllocator`], consulted by the epoch-batched machine
/// loop before the hashed table.
///
/// The memo is exact, never a cache that can go stale: the page table is
/// append-only (a mapping, once made, is never changed or removed) and a
/// core's address space is fixed for the whole run, so a remembered
/// mapping is the one the table would return. A memo miss makes exactly
/// the table call the caller asked for, so first-touch order, the frame
/// RNG stream and the first-touch flag are unchanged. A memo serves one
/// address space; debug builds check every hit against the table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PageMemo {
    vpage: u64,
    frame_base: u64,
}

impl PageMemo {
    /// Remembers nothing: no virtual page number reaches `u64::MAX`.
    pub(crate) const EMPTY: PageMemo = PageMemo {
        vpage: u64::MAX,
        frame_base: 0,
    };

    #[inline]
    fn hit(&self, vaddr: VAddr) -> Option<PAddr> {
        (vaddr.raw() / PAGE == self.vpage)
            .then(|| PAddr::new(self.frame_base | (vaddr.raw() % PAGE)))
    }

    #[inline]
    fn remember(&mut self, vaddr: VAddr, paddr: PAddr) {
        self.vpage = vaddr.raw() / PAGE;
        self.frame_base = paddr.raw() & !(PAGE - 1);
    }

    /// [`PageAllocator::translate_tracking`] through the memo. A memo hit
    /// is a page mapped earlier, so it never reports a first touch.
    #[inline]
    pub(crate) fn translate_tracking(
        &mut self,
        pages: &mut PageAllocator,
        space: u8,
        vaddr: VAddr,
    ) -> (PAddr, bool) {
        if let Some(paddr) = self.hit(vaddr) {
            debug_assert_eq!(pages.lookup(space, vaddr), Some(paddr), "stale page memo");
            return (paddr, false);
        }
        let (paddr, fresh) = pages.translate_tracking(space, vaddr);
        self.remember(vaddr, paddr);
        (paddr, fresh)
    }

    /// [`PageAllocator::lookup`] through the memo.
    #[inline]
    pub(crate) fn lookup(
        &mut self,
        pages: &PageAllocator,
        space: u8,
        vaddr: VAddr,
    ) -> Option<PAddr> {
        if let Some(paddr) = self.hit(vaddr) {
            debug_assert_eq!(pages.lookup(space, vaddr), Some(paddr), "stale page memo");
            return Some(paddr);
        }
        let paddr = pages.lookup(space, vaddr)?;
        self.remember(vaddr, paddr);
        Some(paddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_is_stable() {
        let mut a = PageAllocator::new(1 << 20, 1);
        let p1 = a.translate(0, VAddr::new(0x1234));
        let p2 = a.translate(0, VAddr::new(0x1234));
        assert_eq!(p1, p2);
        assert_eq!(p1.raw() % PAGE, 0x234);
    }

    #[test]
    fn same_page_same_frame_different_offset() {
        let mut a = PageAllocator::new(1 << 20, 1);
        let p1 = a.translate(0, VAddr::new(0x1000));
        let p2 = a.translate(0, VAddr::new(0x1fff));
        assert_eq!(p1.raw() / PAGE, p2.raw() / PAGE);
    }

    #[test]
    fn spaces_are_isolated() {
        let mut a = PageAllocator::new(1 << 20, 1);
        let p0 = a.translate(0, VAddr::new(0));
        let p1 = a.translate(1, VAddr::new(0));
        assert_ne!(p0.raw() / PAGE, p1.raw() / PAGE);
        assert_eq!(a.allocated_pages(), 2);
    }

    #[test]
    fn placement_is_roughly_uniform() {
        // With NM-backed pages being the first 1/17 of the flat space,
        // uniform placement puts ~1/17 of pages there.
        let mut a = PageAllocator::new(17 << 20, 7);
        for v in 0..1000u64 {
            a.translate(0, VAddr::new(v * PAGE));
        }
        let nm_limit = (1u64 << 20) / PAGE; // first 1/17 of frames
        let in_nm = a.map.iter_frames().filter(|&p| p < nm_limit).count() as f64;
        let frac = in_nm / 1000.0;
        assert!((frac - 1.0 / 17.0).abs() < 0.03, "NM fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = PageAllocator::new(1 << 20, 42);
        let mut b = PageAllocator::new(1 << 20, 42);
        for v in 0..100u64 {
            assert_eq!(
                a.translate(0, VAddr::new(v * PAGE)),
                b.translate(0, VAddr::new(v * PAGE))
            );
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = PageAllocator::new(8 * PAGE, 1);
        for v in 0..9u64 {
            a.translate(0, VAddr::new(v * PAGE));
        }
    }

    #[test]
    #[should_panic(expected = "u32 frame range")]
    fn rejects_capacity_beyond_u32_frames() {
        PageAllocator::new((u64::from(u32::MAX) + 1) * PAGE, 1);
    }

    #[test]
    fn frame_entries_are_four_bytes() {
        let mut a = PageAllocator::new(1 << 20, 1);
        a.translate(0, VAddr::new(0));
        assert_eq!(std::mem::size_of_val(&a.map.frames[0]), 4);
    }

    /// The largest capacity `new` accepts, where an eager free list would
    /// take 16 GB: the allocator builds and hands out distinct frames.
    #[test]
    fn builds_at_the_u32_frame_limit() {
        let frames = u64::from(u32::MAX);
        let mut a = PageAllocator::new(frames * PAGE, 11);
        assert_eq!(a.capacity_pages(), frames);
        let mut seen = std::collections::BTreeSet::new();
        for space in 0..4u8 {
            for v in 0..100u64 {
                let p = a.translate(space, VAddr::new(v * PAGE)).raw() / PAGE;
                assert!(p < frames, "frame {p} beyond capacity");
                assert!(seen.insert(p), "frame {p} handed out twice");
            }
        }
        assert_eq!(a.allocated_pages(), 400);
    }

    #[test]
    fn translate_tracking_reports_first_touch() {
        let mut a = PageAllocator::new(1 << 20, 1);
        let (p1, fresh1) = a.translate_tracking(0, VAddr::new(0x1000));
        assert!(fresh1);
        let (p2, fresh2) = a.translate_tracking(0, VAddr::new(0x1008));
        assert!(!fresh2);
        assert_eq!(p1.raw() / PAGE, p2.raw() / PAGE);
    }

    #[test]
    fn footprint_tracks_distinct_pages() {
        let mut a = PageAllocator::new(1 << 20, 1);
        a.translate(0, VAddr::new(0));
        a.translate(0, VAddr::new(100));
        a.translate(0, VAddr::new(PAGE));
        assert_eq!(a.footprint_bytes(), 2 * PAGE);
    }

    /// The open-addressing table must keep every mapping stable across its
    /// growth thresholds (the old HashMap made this free; here rehashing
    /// moves slots, so pin it).
    #[test]
    fn mappings_survive_table_growth() {
        let mut a = PageAllocator::new(1 << 28, 9);
        let n = 5000u64; // crosses several grow() calls from 64 slots
        let first: Vec<PAddr> = (0..n)
            .map(|v| a.translate(0, VAddr::new(v * PAGE)))
            .collect();
        for v in 0..n {
            assert_eq!(a.translate(0, VAddr::new(v * PAGE)), first[v as usize]);
        }
        assert_eq!(a.allocated_pages(), n);
    }

    /// Frame assignment order must match what any map implementation gives:
    /// it is a pure function of the RNG and the touch sequence.
    #[test]
    fn frame_sequence_is_rng_driven_only() {
        let mut a = PageAllocator::new(1 << 20, 3);
        let mut reference = {
            let mut free: Vec<u64> = (0..(1u64 << 20) / PAGE).collect();
            let mut rng = SplitMix64::new(3);
            move || {
                let idx = rng.gen_range(free.len() as u64) as usize;
                free.swap_remove(idx)
            }
        };
        for v in 0..64u64 {
            let expect = reference();
            assert_eq!(a.translate(2, VAddr::new(v * PAGE)).raw() / PAGE, expect);
        }
    }

    /// The eager free list the allocator replaced: every frame
    /// materialised up front, `swap_remove` at a drawn position.
    struct EagerFrames {
        free: Vec<u32>,
        rng: SplitMix64,
    }

    impl EagerFrames {
        fn new(frames: u32, seed: u64) -> Self {
            EagerFrames {
                free: (0..frames).collect(),
                rng: SplitMix64::new(seed),
            }
        }

        fn draw(&mut self) -> u32 {
            assert!(!self.free.is_empty(), "physical memory exhausted");
            let idx = self.rng.gen_range(self.free.len() as u64) as usize;
            self.free.swap_remove(idx)
        }
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("string panic payload")
    }

    proptest::proptest! {
        /// The implicit free list hands out the eager list's frames, in
        /// its order, at every capacity up to 600 pages (the frame table
        /// and the overlay grow from 64 slots several times): random
        /// touches with repeats across four spaces, then fresh pages to
        /// exhaustion, and then both panic on the next first touch.
        #[test]
        fn lazy_free_list_matches_the_eager_list(
            frames in 1u32..601,
            seed in proptest::any::<u64>(),
            touches in proptest::collection::vec((0u8..4, 0u64..400), 0..1500),
        ) {
            let mut lazy = PageAllocator::new(u64::from(frames) * PAGE, seed);
            let mut eager = EagerFrames::new(frames, seed);
            let mut mapped = std::collections::HashMap::new();
            let fresh_pages = (0..).map(|v| (0u8, 400 + v));
            for (space, vpage) in touches.into_iter().chain(fresh_pages) {
                if mapped.len() == frames as usize {
                    break;
                }
                let (paddr, fresh) = lazy.translate_tracking(space, VAddr::new(vpage * PAGE));
                let expect = *mapped.entry((space, vpage)).or_insert_with(|| {
                    proptest::prop_assert!(fresh, "repeat touch reported fresh");
                    eager.draw()
                });
                proptest::prop_assert_eq!(paddr.raw() / PAGE, u64::from(expect));
            }
            proptest::prop_assert_eq!(lazy.allocated_pages(), u64::from(frames));
            for (&(space, vpage), &frame) in &mapped {
                let paddr = lazy.lookup(space, VAddr::new(vpage * PAGE));
                proptest::prop_assert_eq!(paddr, Some(PAddr::new(u64::from(frame) * PAGE)));
            }
            let lazy_panic = panic_message(|| {
                lazy.translate(3, VAddr::new(1 << 40));
            });
            proptest::prop_assert!(lazy_panic.contains("physical memory exhausted"), "{}", lazy_panic);
            let eager_panic = panic_message(|| {
                eager.draw();
            });
            proptest::prop_assert!(eager_panic.contains("physical memory exhausted"));
        }
    }

    #[test]
    fn lookup_never_allocates_and_agrees_with_translate() {
        let mut a = PageAllocator::new(1 << 20, 1);
        assert_eq!(a.lookup(0, VAddr::new(0x1234)), None);
        assert_eq!(a.allocated_pages(), 0, "lookup must not allocate");
        let p = a.translate(0, VAddr::new(0x1234));
        assert_eq!(a.lookup(0, VAddr::new(0x1234)), Some(p));
        // Same page, different offset: lookup carries the offset through.
        let q = a.lookup(0, VAddr::new(0x1fff)).unwrap();
        assert_eq!(q.raw() / PAGE, p.raw() / PAGE);
        assert_eq!(q.raw() % PAGE, 0xfff);
        assert_eq!(a.lookup(1, VAddr::new(0x1234)), None, "spaces isolated");
    }

    /// The memo answers exactly what the table answers, and its misses
    /// make the table call they stand for: a first touch through the memo
    /// draws the same frame and reports it fresh.
    #[test]
    fn page_memo_agrees_with_the_table() {
        let mut a = PageAllocator::new(1 << 20, 4);
        let mut b = PageAllocator::new(1 << 20, 4);
        let mut memo = PageMemo::EMPTY;
        assert_eq!(memo.lookup(&a, 0, VAddr::new(0x1234)), None);
        for v in [0x1234u64, 0x1fff, 0x1000, 0x5008, 0x1010, 0x5ff8, 0x9000] {
            let va = VAddr::new(v);
            assert_eq!(
                memo.translate_tracking(&mut a, 0, va),
                b.translate_tracking(0, va),
                "vaddr {v:#x}"
            );
            assert_eq!(memo.lookup(&a, 0, va), b.lookup(0, va));
        }
        assert_eq!(a.table_digest(), b.table_digest());
        assert_eq!(memo.lookup(&a, 0, VAddr::new(0xa000)), None);
        // A lookup miss leaves the memo on the last mapped page.
        assert_eq!(
            memo.lookup(&a, 0, VAddr::new(0x9abc)),
            b.lookup(0, VAddr::new(0x9abc))
        );
    }

    #[test]
    fn table_digest_tracks_allocation_order() {
        let order_a = [0u64, 1, 2, 3];
        let order_b = [3u64, 2, 1, 0];
        let digest_of = |order: &[u64]| {
            let mut a = PageAllocator::new(1 << 20, 5);
            for &v in order {
                a.translate(0, VAddr::new(v * PAGE));
            }
            a.table_digest()
        };
        // Same touch order → same digest; permuted first touches hand the
        // RNG-drawn frames to different pages → different digest.
        assert_eq!(digest_of(&order_a), digest_of(&order_a));
        assert_ne!(digest_of(&order_a), digest_of(&order_b));
    }

    /// Keys that collide into the same slot chain stay distinguishable.
    #[test]
    fn colliding_spaces_and_pages_disambiguate() {
        let mut a = PageAllocator::new(1 << 24, 5);
        let mut seen = std::collections::BTreeSet::new();
        for space in 0..8u8 {
            for v in 0..256u64 {
                let p = a.translate(space, VAddr::new(v * PAGE));
                assert!(seen.insert(p.raw() / PAGE), "frame handed out twice");
            }
        }
        assert_eq!(a.allocated_pages(), 8 * 256);
    }
}
