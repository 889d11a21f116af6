//! The memory hierarchy: device (global) memory, set-associative caches,
//! per-CTA shared memory with bank conflicts, coalescing and MSHR
//! tracking.
//!
//! Functional state and timing state are deliberately separate: stores
//! update functional memory immediately at issue (GPUs have no store
//! buffer — the premise of the paper's recovery design), while the timing
//! model charges latencies via cache lookups and MSHR occupancy.

use crate::regfile::Value;
use crate::warp::WARP_SIZE;
use std::fmt;
use std::sync::Arc;

/// Width of a memory word in bytes (all accesses are word-granular).
pub const WORD_BYTES: u64 = 8;
/// Cache line size in bytes (also the coalescing segment size).
pub const LINE_BYTES: u64 = 128;
/// Number of shared-memory banks.
pub const SHARED_BANKS: u64 = 32;

/// `(addr / WORD_BYTES) % len`, taking the hardware divide only when the
/// word index is out of range.
#[inline]
fn wrap_word(addr: u64, len: usize) -> usize {
    let word = addr / WORD_BYTES;
    let len = len as u64;
    (if word < len { word } else { word % len }) as usize
}

/// Words per device-memory page (32 KiB of payload per page).
const PAGE_WORDS: usize = 4096;

/// The contents of every never-written page.
static ZERO_PAGE: [Value; PAGE_WORDS] = [0; PAGE_WORDS];

/// One page of a [`GlobalMemory`] page table.
#[derive(Clone)]
enum Page {
    /// Never written: reads as [`ZERO_PAGE`].
    Zero,
    /// Held by this image alone: written in place.
    Owned(Box<[Value; PAGE_WORDS]>),
    /// Held by a snapshot and possibly other images: copied on write.
    Shared(Arc<[Value; PAGE_WORDS]>),
}

impl Page {
    #[inline]
    fn words(&self) -> &[Value; PAGE_WORDS] {
        match self {
            Page::Zero => &ZERO_PAGE,
            Page::Owned(words) => words,
            Page::Shared(words) => words,
        }
    }
}

/// Byte-addressed device memory backed by 8-byte words, stored as a
/// table of 32 KiB copy-on-write pages.
///
/// Addresses wrap modulo the memory size: the simulator models a bounded
/// physical address space, so wild addresses produced by corrupted values
/// land somewhere in memory rather than aborting the simulation.
///
/// A page is allocated on its first write. Sharing an image (what a
/// [`crate::gpu::Snapshot`] holds) costs one page table: both copies
/// then hold every written page by `Arc`, and the next write to such a
/// page copies that page alone. Owned pages are plain `Box`es, so a write
/// to a page this image already owns performs no atomic operation.
#[derive(Clone)]
pub struct GlobalMemory {
    pages: Vec<Page>,
    /// Size in words.
    len: usize,
}

impl GlobalMemory {
    /// Allocates `bytes` of zeroed device memory (rounded up to a word).
    pub fn new(bytes: u64) -> GlobalMemory {
        let len = (bytes.div_ceil(WORD_BYTES)).max(1) as usize;
        GlobalMemory {
            pages: vec![Page::Zero; len.div_ceil(PAGE_WORDS)],
            len,
        }
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len as u64 * WORD_BYTES
    }

    #[inline]
    fn index(&self, addr: u64) -> usize {
        wrap_word(addr, self.len)
    }

    /// Reads the word containing byte address `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> Value {
        let i = self.index(addr);
        self.pages[i / PAGE_WORDS].words()[i % PAGE_WORDS]
    }

    /// Writes the word containing byte address `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, v: Value) {
        let i = self.index(addr);
        if let Page::Owned(words) = &mut self.pages[i / PAGE_WORDS] {
            words[i % PAGE_WORDS] = v;
        } else {
            self.write_unowned(i, v);
        }
    }

    /// The first write to a zero or shared page: copies the page into a
    /// fresh allocation this image owns, then writes. Out of line so the
    /// in-place store above stays small enough to inline everywhere.
    #[cold]
    #[inline(never)]
    fn write_unowned(&mut self, i: usize, v: Value) {
        let page = &mut self.pages[i / PAGE_WORDS];
        let mut words: Box<[Value; PAGE_WORDS]> = Box::<[Value]>::from(&page.words()[..])
            .try_into()
            .expect("a page holds PAGE_WORDS words");
        words[i % PAGE_WORDS] = v;
        *page = Page::Owned(words);
    }

    /// Reads an `f32` stored by the workloads' convention (bit pattern in
    /// the low half of the word).
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read(addr) as u32)
    }

    /// Writes an `f32` by the same convention.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write(addr, u64::from(v.to_bits()));
    }

    /// Copies the words in `[addr, addr + 8 * values.len())` out of memory.
    pub fn read_block(&self, addr: u64, n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| self.read(addr + i as u64 * WORD_BYTES))
            .collect()
    }

    /// Writes consecutive words starting at `addr`.
    pub fn write_block(&mut self, addr: u64, values: &[Value]) {
        for (i, &v) in values.iter().enumerate() {
            self.write(addr + i as u64 * WORD_BYTES, v);
        }
    }

    /// Returns a copy of this image that shares every written page with
    /// it. Costs the page table: each page this image owns becomes
    /// shared (one 32 KiB copy into an `Arc`, once), and later writes on
    /// either side copy only the page they touch. A snapshot holds such
    /// a copy, so restoring one is an assignment.
    pub(crate) fn share(&mut self) -> GlobalMemory {
        for page in &mut self.pages {
            *page = match std::mem::replace(page, Page::Zero) {
                Page::Owned(words) => Page::Shared(Arc::from(words)),
                other => other,
            };
        }
        self.clone()
    }

    /// Number of pages (32 KiB each) this image does not share with
    /// `base`: when one was shared from the other, the pages written
    /// since. Pages that are zero on both sides count as shared.
    ///
    /// # Panics
    ///
    /// Panics if the two images have different sizes.
    pub(crate) fn unshared_pages(&self, base: &GlobalMemory) -> usize {
        assert_eq!(
            self.len, base.len,
            "page count between differently-sized images"
        );
        self.pages
            .iter()
            .zip(&base.pages)
            .filter(|(a, b)| !std::ptr::eq(a.words(), b.words()))
            .count()
    }

    /// Index of the lowest word whose value differs between the two
    /// images, or `None` when they are equal. Pages shared by both
    /// images, or zero on both sides, are skipped without reading them.
    /// Images of different sizes differ at the end of the shorter one.
    pub fn first_difference(&self, other: &GlobalMemory) -> Option<usize> {
        if self.len != other.len {
            return Some(self.len.min(other.len));
        }
        self.pages
            .iter()
            .zip(&other.pages)
            .enumerate()
            .find_map(|(p, (a, b))| {
                let (a, b) = (a.words(), b.words());
                if std::ptr::eq(a, b) || a == b {
                    return None;
                }
                let o = a.iter().zip(b).position(|(x, y)| x != y)?;
                Some(p * PAGE_WORDS + o)
            })
    }
}

/// Compares contents: an untouched page equals a page written with
/// zeros.
impl PartialEq for GlobalMemory {
    fn eq(&self, other: &GlobalMemory) -> bool {
        self.first_difference(other).is_none()
    }
}

impl fmt::Debug for GlobalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let count = |want: fn(&Page) -> bool| self.pages.iter().filter(|p| want(p)).count();
        f.debug_struct("GlobalMemory")
            .field("bytes", &self.len_bytes())
            .field("owned_pages", &count(|p| matches!(p, Page::Owned(_))))
            .field("shared_pages", &count(|p| matches!(p, Page::Shared(_))))
            .finish_non_exhaustive()
    }
}

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent (and has been filled for loads).
    Miss,
}

/// A set-associative cache tag array with LRU replacement.
///
/// Only tags are modelled — data always comes from functional memory.
/// Each set keeps its tags most recent first, invalid ways last, so the
/// last way is always the victim: a hit moves its tag to the front, a
/// filling miss shifts the set down one way (dropping the last) and
/// writes the new tag at the front, and a non-allocating miss changes
/// nothing. A probe reads one set and writes no timestamp.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    /// `tags[set * ways + rank]`, most recently used first; `u64::MAX` =
    /// invalid.
    tags: Vec<u64>,
}

impl Cache {
    /// Creates a cache of `bytes` capacity with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one set.
    pub fn new(bytes: u64, ways: usize) -> Cache {
        let lines = (bytes / LINE_BYTES) as usize;
        assert!(
            lines >= ways && ways > 0,
            "cache too small: {bytes}B/{ways}w"
        );
        let sets = lines / ways;
        Cache {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
        }
    }

    /// Probes (and on a load miss, fills) the line containing `addr`.
    pub fn access(&mut self, addr: u64, allocate_on_miss: bool) -> CacheOutcome {
        let line = addr / LINE_BYTES;
        let base = (line as usize % self.sets) * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        // The rank whose tag leaves the set: the hit's own, or the last.
        let (outcome, out) = match set.iter().position(|&t| t == line) {
            Some(rank) => (CacheOutcome::Hit, rank),
            None if allocate_on_miss => (CacheOutcome::Miss, set.len() - 1),
            None => return CacheOutcome::Miss,
        };
        // Each more recent tag moves down one rank. A loop, not
        // `rotate_right`, which calls `memmove` for a few words.
        let mut carry = line;
        for tag in &mut set[..=out] {
            carry = std::mem::replace(tag, carry);
        }
        outcome
    }
}

/// Per-CTA scratchpad memory.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    words: Vec<Value>,
}

impl SharedMemory {
    /// Allocates `bytes` of zeroed shared memory.
    pub fn new(bytes: u32) -> SharedMemory {
        SharedMemory {
            words: vec![0; (u64::from(bytes).div_ceil(WORD_BYTES)).max(1) as usize],
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> usize {
        wrap_word(addr, self.words.len())
    }

    /// Reads the word at byte address `addr` (wrapping).
    #[inline]
    pub fn read(&self, addr: u64) -> Value {
        self.words[self.index(addr)]
    }

    /// Writes the word at byte address `addr` (wrapping).
    #[inline]
    pub fn write(&mut self, addr: u64, v: Value) {
        let i = self.index(addr);
        self.words[i] = v;
    }

    /// Zeroes the scratchpad (CTA slot reuse).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The raw word array, for whole-image comparison against an oracle
    /// shared-memory image.
    pub fn words(&self) -> &[Value] {
        &self.words
    }
}

/// Computes the shared-memory bank-conflict degree of a set of lane
/// addresses: the maximum number of *distinct* addresses mapping to one
/// bank (accesses to the same address broadcast and do not conflict).
/// A degree of `d` serializes the access into `d` passes.
///
/// Runs on every shared access, so it sorts a stack copy instead of
/// allocating: keyed bank-major, each bank's distinct words form one run.
///
/// # Panics
///
/// Panics if given more than [`WARP_SIZE`] addresses (one per lane).
pub fn bank_conflict_degree(addrs: &[u64]) -> u64 {
    let mut keys = [0u64; WARP_SIZE];
    let keys = &mut keys[..addrs.len()];
    for (k, &a) in keys.iter_mut().zip(addrs) {
        let word = a / WORD_BYTES;
        // Bank in the top bits, the word's other bits below: equal keys
        // are equal words, and a bank's keys sort next to each other.
        *k = ((word % SHARED_BANKS) << 58) | (word / SHARED_BANKS);
    }
    keys.sort_unstable();
    let (mut degree, mut run) = (1, 0);
    let mut prev: Option<u64> = None;
    for &k in keys.iter() {
        match prev {
            Some(p) if p == k => continue,
            Some(p) if p >> 58 == k >> 58 => run += 1,
            _ => run = 1,
        }
        degree = degree.max(run);
        prev = Some(k);
    }
    degree
}

/// Coalesces the active lanes' global addresses into 128-byte segments,
/// writing the distinct segment base addresses into `out` (each becomes
/// one memory transaction). `out` is cleared first, so a caller can keep
/// one buffer alive across cycles and never reallocate on the hot path.
/// Lanes usually address ascending memory, so the sort is skipped when
/// the segments already are in order.
pub fn coalesce_into(addrs: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(addrs.iter().map(|a| (a / LINE_BYTES) * LINE_BYTES));
    if !out.is_sorted() {
        out.sort_unstable();
    }
    out.dedup();
}

/// Collects the byte addresses of the active lanes for a memory
/// instruction (`base[lane] + offset`) into `out`, clearing it first.
pub fn lane_addresses_into(
    out: &mut Vec<u64>,
    mask: u32,
    base: impl Fn(usize) -> u64,
    offset: i64,
) {
    out.clear();
    out.extend(
        (0..WARP_SIZE)
            .filter(|&l| mask & (1 << l) != 0)
            .map(|l| base(l).wrapping_add(offset as u64)),
    );
}

/// MSHR-style tracker of in-flight memory transactions for one SM.
///
/// Caches the earliest finish cycle, so the per-cycle [`MemPort::tick`]
/// returns at once while nothing completes and
/// [`MemPort::next_completion`] reads one word.
#[derive(Debug, Clone)]
pub struct MemPort {
    capacity: usize,
    /// Finish cycles, in reservation order.
    inflight: Vec<u64>,
    /// The minimum of `inflight`, `u64::MAX` when it is empty.
    next: u64,
}

impl MemPort {
    /// Creates a port with `capacity` MSHRs.
    pub fn new(capacity: usize) -> MemPort {
        MemPort {
            capacity,
            inflight: Vec::with_capacity(capacity),
            next: u64::MAX,
        }
    }

    /// Retires transactions that completed by `now`.
    pub fn tick(&mut self, now: u64) {
        if self.next > now {
            return;
        }
        let mut next = u64::MAX;
        self.inflight.retain(|&f| {
            if f > now {
                next = next.min(f);
            }
            f > now
        });
        self.next = next;
    }

    /// Debug builds: the cached `next` is the minimum it stands for.
    #[inline]
    fn check_next(&self) {
        debug_assert_eq!(
            self.inflight.iter().copied().min().unwrap_or(u64::MAX),
            self.next,
            "cached earliest finish cycle"
        );
    }

    /// Free MSHR slots.
    pub fn free(&self) -> usize {
        self.capacity - self.inflight.len()
    }

    /// Reserves a slot until `finish`.
    ///
    /// # Panics
    ///
    /// Panics if no slot is free; check [`MemPort::free`] first.
    pub fn reserve(&mut self, finish: u64) {
        assert!(self.inflight.len() < self.capacity, "MSHRs exhausted");
        self.inflight.push(finish);
        self.next = self.next.min(finish);
        self.check_next();
    }

    /// Reserves a slot with its finish cycle not yet known (marked
    /// `u64::MAX`), returning its index for a later [`MemPort::patch`].
    /// Used by the deferred global-memory path: the tick phase reserves
    /// MSHRs before cache outcomes (and thus latencies) are known, and the
    /// apply phase patches in the real finish cycle the same cycle —
    /// placeholders never survive into [`MemPort::next_completion`].
    ///
    /// # Panics
    ///
    /// Panics if no slot is free; check [`MemPort::free`] first.
    pub fn reserve_placeholder(&mut self) -> usize {
        assert!(self.inflight.len() < self.capacity, "MSHRs exhausted");
        self.inflight.push(u64::MAX);
        self.inflight.len() - 1
    }

    /// Sets the finish cycle of the placeholder at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn patch(&mut self, idx: usize, finish: u64) {
        self.inflight[idx] = finish;
        self.next = self.next.min(finish);
        self.check_next();
    }

    /// Earliest finish cycle among in-flight transactions, or `None` when
    /// the port is idle. An event source for the event-driven clock: an
    /// MSHR slot frees (and a warp blocked on `mshr_full` may become
    /// eligible) no earlier than this cycle.
    pub fn next_completion(&self) -> Option<u64> {
        self.check_next();
        (!self.inflight.is_empty()).then_some(self.next)
    }

    /// Drops all in-flight transactions (error-recovery pipeline flush).
    pub fn flush(&mut self) {
        self.inflight.clear();
        self.next = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::rng::Rng64;

    #[test]
    fn global_memory_roundtrip_and_wrap() {
        let mut m = GlobalMemory::new(1024);
        m.write(8, 42);
        assert_eq!(m.read(8), 42);
        // Wraps modulo size.
        assert_eq!(m.read(8 + 1024), 42);
        m.write_f32(16, 1.5);
        assert_eq!(m.read_f32(16), 1.5);
        m.write_block(0, &[1, 2, 3]);
        assert_eq!(m.read_block(0, 3), vec![1, 2, 3]);
        // Out-of-range addresses land where the `%` formula puts them.
        let len = m.len_bytes() / WORD_BYTES;
        for (k, addr) in [1024, 1024 + 8, u64::MAX - 7, u64::MAX, u64::MAX - 1024]
            .into_iter()
            .enumerate()
        {
            let canonical = (addr / WORD_BYTES) % len * WORD_BYTES;
            m.write(addr, 100 + k as u64);
            assert_eq!(m.read(canonical), 100 + k as u64, "addr {addr:#x}");
            assert_eq!(m.read(addr), m.read(canonical), "addr {addr:#x}");
        }
    }

    #[test]
    fn shared_memory_wraps_like_the_modulo_formula() {
        let mut m = SharedMemory::new(48);
        for (k, addr) in [0, 40, 48, 56, u64::MAX - 7, u64::MAX]
            .into_iter()
            .enumerate()
        {
            let canonical = (addr / WORD_BYTES) % 6 * WORD_BYTES;
            m.write(addr, 7 + k as u64);
            assert_eq!(m.read(canonical), 7 + k as u64, "addr {addr:#x}");
        }
    }

    const PAGE_BYTES: u64 = PAGE_WORDS as u64 * WORD_BYTES;

    /// A four-page image with one written word per page.
    fn four_pages() -> GlobalMemory {
        let mut m = GlobalMemory::new(4 * PAGE_BYTES);
        for p in 0..4 {
            m.write(p * PAGE_BYTES + 8, p + 1);
        }
        m
    }

    #[test]
    fn shared_copy_shares_every_page() {
        let mut m = four_pages();
        let copy = m.share();
        assert_eq!(copy.unshared_pages(&m), 0);
        assert_eq!(m.unshared_pages(&copy), 0);
        assert_eq!(m.first_difference(&copy), None);
        // Two untouched images share their zero pages too.
        let zero = GlobalMemory::new(4 * PAGE_BYTES);
        assert_eq!(zero.unshared_pages(&GlobalMemory::new(4 * PAGE_BYTES)), 0);
        assert_eq!(m.unshared_pages(&zero), 4);
    }

    #[test]
    fn write_after_share_changes_only_the_writer() {
        let mut m = four_pages();
        let mut copy = m.share();
        m.write(PAGE_BYTES + 16, 0xAB);
        copy.write(3 * PAGE_BYTES, 0xCD);
        assert_eq!(
            (m.read(PAGE_BYTES + 16), copy.read(PAGE_BYTES + 16)),
            (0xAB, 0)
        );
        assert_eq!(
            (m.read(3 * PAGE_BYTES), copy.read(3 * PAGE_BYTES)),
            (0, 0xCD)
        );
        // Each side copied the one page it wrote; the rest stay shared.
        assert_eq!(m.unshared_pages(&copy), 2);
        // Pre-share contents survive on both sides.
        for p in 0..4 {
            assert_eq!(m.read(p * PAGE_BYTES + 8), p + 1);
            assert_eq!(copy.read(p * PAGE_BYTES + 8), p + 1);
        }
        // A snapshot of a snapshot holder still sees its own contents.
        let again = m.share();
        m.write(PAGE_BYTES + 16, 0xEF);
        assert_eq!(again.read(PAGE_BYTES + 16), 0xAB);
    }

    #[test]
    fn untouched_page_equals_zero_written_page() {
        let mut written = GlobalMemory::new(4 * PAGE_BYTES);
        for w in 0..PAGE_WORDS as u64 {
            written.write(2 * PAGE_BYTES + w * WORD_BYTES, 0);
        }
        let untouched = GlobalMemory::new(4 * PAGE_BYTES);
        assert_eq!(written.unshared_pages(&untouched), 1);
        assert!(written == untouched);
        assert_eq!(untouched.first_difference(&written), None);
        assert!(GlobalMemory::new(4 * PAGE_BYTES) != GlobalMemory::new(5 * PAGE_BYTES));
    }

    #[test]
    fn first_difference_finds_lowest_word_across_page_kinds() {
        let mut a = GlobalMemory::new(4 * PAGE_BYTES);
        a.write(2 * PAGE_BYTES, 5);
        let mut b = a.share();
        // Page 3: owned by `a`, zero in `b`.
        a.write(3 * PAGE_BYTES + 9 * WORD_BYTES, 1);
        assert_eq!(a.first_difference(&b), Some(3 * PAGE_WORDS + 9));
        // Page 2: a copy owned by `b` against the page `a` still shares.
        b.write(2 * PAGE_BYTES + 3 * WORD_BYTES, 2);
        assert_eq!(a.first_difference(&b), Some(2 * PAGE_WORDS + 3));
        // Page 0: zero in `a`, owned by `b`.
        b.write(7 * WORD_BYTES, 3);
        assert_eq!(a.first_difference(&b), Some(7));
        assert_eq!(b.first_difference(&a), Some(7));
        // Both own page 0 now: the lower of its two differences wins.
        a.write(4 * WORD_BYTES, 4);
        assert_eq!(a.first_difference(&b), Some(4));
        assert!(a != b);
    }

    #[test]
    fn ragged_size_reads_writes_and_wraps() {
        // Two full pages plus a 100-word tail page.
        let words = 2 * PAGE_WORDS as u64 + 100;
        let mut m = GlobalMemory::new(words * WORD_BYTES);
        assert_eq!(m.len_bytes(), words * WORD_BYTES);
        let last = (words - 1) * WORD_BYTES;
        m.write(last, 0xEF01);
        assert_eq!(m.read(last), 0xEF01);
        // One word past the end wraps to word 0, not into the tail page.
        m.write(words * WORD_BYTES, 0x11);
        assert_eq!(m.read(0), 0x11);
        assert_eq!(m.read(last + 2 * WORD_BYTES), m.read(WORD_BYTES));
        let copy = m.share();
        m.write(last, 0xEF02);
        assert_eq!(copy.read(last), 0xEF01);
        assert_eq!(m.first_difference(&copy), Some(words as usize - 1));
    }

    #[test]
    fn cache_hit_after_fill() {
        let mut c = Cache::new(1024, 2);
        assert_eq!(c.access(0, true), CacheOutcome::Miss);
        assert_eq!(c.access(64, true), CacheOutcome::Hit); // same 128B line
        assert_eq!(c.access(128, true), CacheOutcome::Miss);
    }

    #[test]
    fn cache_lru_evicts_oldest() {
        // 2 ways, 256B => 1 set of 2 ways... use 4 lines = 2 sets.
        let mut c = Cache::new(512, 2);
        // Lines 0 and 2 map to set 0; line 4 also maps to set 0.
        assert_eq!(c.access(0, true), CacheOutcome::Miss);
        assert_eq!(c.access(2 * 128, true), CacheOutcome::Miss);
        assert_eq!(c.access(0, true), CacheOutcome::Hit);
        // Fill line 4: evicts line 2 (LRU), not line 0.
        assert_eq!(c.access(4 * 128, true), CacheOutcome::Miss);
        assert_eq!(c.access(0, true), CacheOutcome::Hit);
        assert_eq!(c.access(2 * 128, true), CacheOutcome::Miss);
    }

    #[test]
    fn cache_no_allocate_leaves_state() {
        let mut c = Cache::new(512, 2);
        assert_eq!(c.access(0, false), CacheOutcome::Miss);
        assert_eq!(c.access(0, false), CacheOutcome::Miss);
        let mut c = Cache::new(512, 2);
        assert_eq!(c.access(0, true), CacheOutcome::Miss);
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
    }

    /// The timestamp-LRU tag array that the recency-ordered sets
    /// replaced: every probe stamps a counter, a hit or a fill writes the
    /// stamp into its way, and a fill evicts the way with the smallest
    /// stamp (invalid ways hold 0, the lowest-numbered one first). Kept as
    /// the reference the differential test holds [`Cache::access`] to.
    struct Reference {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        lru: Vec<u64>,
        tick: u64,
    }

    impl Reference {
        fn new(bytes: u64, ways: usize) -> Reference {
            let sets = (bytes / LINE_BYTES) as usize / ways;
            Reference {
                sets,
                ways,
                tags: vec![u64::MAX; sets * ways],
                lru: vec![0; sets * ways],
                tick: 0,
            }
        }

        fn access(&mut self, addr: u64, allocate_on_miss: bool) -> CacheOutcome {
            self.tick += 1;
            let line = addr / LINE_BYTES;
            let base = (line as usize % self.sets) * self.ways;
            for w in 0..self.ways {
                if self.tags[base + w] == line {
                    self.lru[base + w] = self.tick;
                    return CacheOutcome::Hit;
                }
            }
            if allocate_on_miss {
                let victim = (0..self.ways)
                    .min_by_key(|&w| self.lru[base + w])
                    .expect("ways > 0");
                self.tags[base + victim] = line;
                self.lru[base + victim] = self.tick;
            }
            CacheOutcome::Miss
        }

        /// Set `set`'s valid tags, most recently used first, then one
        /// `u64::MAX` per invalid way: the layout [`Cache`] keeps.
        fn by_recency(&self, set: usize) -> Vec<u64> {
            let ways = set * self.ways..(set + 1) * self.ways;
            let mut valid: Vec<(u64, u64)> = ways
                .filter(|&i| self.tags[i] != u64::MAX)
                .map(|i| (self.lru[i], self.tags[i]))
                .collect();
            valid.sort_unstable_by(|a, b| b.cmp(a));
            let mut order: Vec<u64> = valid.into_iter().map(|(_, tag)| tag).collect();
            order.resize(self.ways, u64::MAX);
            order
        }
    }

    /// Every L1 and L2 geometry the shipped GPUs use, as (bytes, ways).
    fn shipped_geometries() -> Vec<(u64, usize)> {
        let mut geometries: Vec<(u64, usize)> = GpuConfig::paper_architectures()
            .iter()
            .flat_map(|g| [(g.l1_bytes, g.l1_ways), (g.l2_bytes, g.l2_ways)])
            .collect();
        geometries.sort_unstable();
        geometries.dedup();
        geometries
    }

    /// The recency-ordered sets against the timestamp reference on every
    /// shipped geometry: thousands of random probes each, mixing fills,
    /// hits and non-allocating probes, mostly into a few hot sets with
    /// more candidate lines than ways, so that sets fill and evict. Every
    /// probe must have the same outcome, and every set the same tags in
    /// the same recency order, checked now and then and at the end.
    #[test]
    fn recency_order_matches_the_timestamp_reference() {
        let geometries = shipped_geometries();
        let mut shapes: Vec<(usize, usize)> = geometries
            .iter()
            .map(|&(bytes, ways)| ((bytes / LINE_BYTES) as usize / ways, ways))
            .collect();
        shapes.sort_unstable();
        // (sets, ways): the four L1s, the 48-set one not a power of two,
        // then the three L2s.
        let want = [
            (32, 4),
            (48, 4),
            (64, 8),
            (128, 8),
            (768, 8),
            (1536, 16),
            (3072, 16),
        ];
        assert_eq!(shapes, want);
        let mut rng = Rng64::new(0xcac4e_u64);
        for (bytes, ways) in geometries {
            let mut cache = Cache::new(bytes, ways);
            let mut reference = Reference::new(bytes, ways);
            let sets = reference.sets as u64;
            let hot: Vec<u64> = (0..4).map(|_| rng.below(sets)).collect();
            let check_sets = |cache: &Cache, reference: &Reference, when: &str| {
                for set in 0..reference.sets {
                    assert_eq!(
                        cache.tags[set * ways..(set + 1) * ways],
                        reference.by_recency(set),
                        "{bytes}B/{ways}w set {set} {when}"
                    );
                }
            };
            // Probes by (allocating, hit): each kind must occur often.
            let mut kinds = [[0u32; 2]; 2];
            for probe in 0..20_000 {
                let line = if rng.chance(0.9) {
                    // A hot set, and one of twice as many lines as it has ways.
                    hot[rng.below(4) as usize] + sets * rng.below(2 * ways as u64)
                } else {
                    rng.below(1 << 40)
                };
                let addr = line * LINE_BYTES + rng.below(LINE_BYTES);
                let allocate = rng.chance(0.75);
                let outcome = cache.access(addr, allocate);
                assert_eq!(
                    outcome,
                    reference.access(addr, allocate),
                    "{bytes}B/{ways}w probe {probe}: line {line:#x}, allocate {allocate}"
                );
                kinds[usize::from(allocate)][usize::from(outcome == CacheOutcome::Hit)] += 1;
                if probe % 5_000 == 4_999 {
                    check_sets(&cache, &reference, &format!("after probe {probe}"));
                }
            }
            check_sets(&cache, &reference, "at the end");
            assert!(
                kinds.iter().flatten().all(|&n| n >= 1_000),
                "{bytes}B/{ways}w: probes by (allocating, hit) {kinds:?}"
            );
        }
    }

    /// The cached earliest finish cycle against a plain list: random
    /// reservations, placeholder reservations patched in the same step,
    /// ticks and flushes, with `next_completion` and `free` compared
    /// after every step.
    #[test]
    fn mem_port_matches_a_plain_list() {
        let mut rng = Rng64::new(0x4d5e_u64);
        for capacity in [1, 2, 8, 32, 64] {
            let mut port = MemPort::new(capacity);
            let mut list: Vec<u64> = Vec::new();
            let mut now = 0;
            for step in 0..5_000 {
                match rng.below(10) {
                    0..=2 if list.len() < capacity => {
                        let finish = now + rng.range(1, 400);
                        port.reserve(finish);
                        list.push(finish);
                    }
                    3..=5 if list.len() < capacity => {
                        let n = rng.range(1, (capacity - list.len()) as u64 + 1) as usize;
                        let first = port.reserve_placeholder();
                        for i in 1..n {
                            assert_eq!(port.reserve_placeholder(), first + i);
                        }
                        // Unpatched placeholders read as `u64::MAX`.
                        let pending = list.iter().copied().min().unwrap_or(u64::MAX);
                        assert_eq!(port.next_completion(), Some(pending), "step {step}");
                        let finish = now + rng.range(1, 400);
                        for i in 0..n {
                            port.patch(first + i, finish);
                            list.push(finish);
                        }
                    }
                    6..=8 => {
                        now += rng.below(60);
                        port.tick(now);
                        list.retain(|&f| f > now);
                    }
                    9 if rng.chance(0.1) => {
                        port.flush();
                        list.clear();
                    }
                    _ => {}
                }
                assert_eq!(
                    port.next_completion(),
                    list.iter().copied().min(),
                    "capacity {capacity} step {step}"
                );
                assert_eq!(
                    port.free(),
                    capacity - list.len(),
                    "capacity {capacity} step {step}"
                );
            }
        }
    }

    #[test]
    fn bank_conflicts_counted_on_distinct_addresses() {
        // All lanes hit different banks: degree 1.
        let stride8: Vec<u64> = (0..32u64).map(|i| i * 8).collect();
        assert_eq!(bank_conflict_degree(&stride8), 1);
        // Stride of 32 words: all in bank 0 -> degree 32.
        let stride256: Vec<u64> = (0..32u64).map(|i| i * 256).collect();
        assert_eq!(bank_conflict_degree(&stride256), 32);
        // Same address broadcast: degree 1.
        let bcast = vec![64u64; 32];
        assert_eq!(bank_conflict_degree(&bcast), 1);
        assert_eq!(bank_conflict_degree(&[]), 1);
        // A repeated word inside a conflicting bank counts once.
        assert_eq!(bank_conflict_degree(&[0, 256, 0, 256]), 2);
        // Bytes of one word are one address; descending lanes and a
        // second conflicting bank leave the maximum alone.
        assert_eq!(bank_conflict_degree(&[7, 0, 3]), 1);
        assert_eq!(bank_conflict_degree(&[8 + 512, 8 + 256, 8, 512, 256]), 3);
        // Words far apart in memory still share bank 0.
        assert_eq!(bank_conflict_degree(&[0, 1 << 40, 1 << 62]), 3);
    }

    #[test]
    fn coalescing_merges_within_segment() {
        let mut segs = Vec::new();
        // 32 consecutive words = 256 bytes = 2 segments.
        let unit: Vec<u64> = (0..32u64).map(|i| i * 8).collect();
        coalesce_into(&unit, &mut segs);
        assert_eq!(segs, vec![0, 128]);
        // Strided by 128: every lane its own segment.
        let strided: Vec<u64> = (0..32u64).map(|i| i * 128).collect();
        coalesce_into(&strided, &mut segs);
        assert_eq!(segs.len(), 32);
        // Same address: one segment.
        coalesce_into(&[8, 8, 8], &mut segs);
        assert_eq!(segs, vec![0]);
        // Unsorted lanes take the sorting path.
        coalesce_into(&[300, 8, 8], &mut segs);
        assert_eq!(segs, vec![0, 256]);
        // Descending lanes: ascending, distinct segments out.
        let descending: Vec<u64> = (0..32u64).rev().map(|i| i * 64).collect();
        coalesce_into(&descending, &mut segs);
        assert_eq!(segs, (0..16u64).map(|i| i * 128).collect::<Vec<_>>());
    }

    #[test]
    fn lane_addresses_respect_mask_and_offset() {
        let mut addrs = Vec::new();
        lane_addresses_into(&mut addrs, 0b101, |l| l as u64 * 100, 8);
        assert_eq!(addrs, vec![8, 208]);
        lane_addresses_into(&mut addrs, 0, |l| l as u64, 0);
        assert!(addrs.is_empty());
    }

    #[test]
    fn into_variants_clear_reused_buffers() {
        let mut buf = vec![99; 8];
        coalesce_into(&[8, 8, 300], &mut buf);
        assert_eq!(buf, vec![0, 256]);
        lane_addresses_into(&mut buf, 0b11, |l| l as u64 * 8, 0);
        assert_eq!(buf, vec![0, 8]);
    }

    #[test]
    fn mem_port_tracks_capacity() {
        let mut p = MemPort::new(2);
        assert_eq!(p.free(), 2);
        assert_eq!(p.next_completion(), None);
        p.reserve(10);
        p.reserve(20);
        assert_eq!(p.free(), 0);
        assert_eq!(p.next_completion(), Some(10));
        p.tick(10);
        assert_eq!(p.free(), 1);
        assert_eq!(p.next_completion(), Some(20));
        let idx = p.reserve_placeholder();
        assert_eq!(p.free(), 0);
        p.patch(idx, 15);
        assert_eq!(p.next_completion(), Some(15));
        p.flush();
        assert_eq!(p.free(), 2);
        assert_eq!(p.next_completion(), None);
    }

    #[test]
    #[should_panic(expected = "MSHRs exhausted")]
    fn mem_port_overflow_panics() {
        let mut p = MemPort::new(1);
        p.reserve(10);
        p.reserve(20);
    }
}
