//! The sparse paged 64-byte line store and line/address types.

use crate::LINE_BYTES;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A 64-byte memory line — the granularity of every access in the model
/// (user data, counter blocks, SIT nodes, bitmap lines are all one line).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Line([u8; LINE_BYTES]);

impl Line {
    /// A line of all zero bytes (the initial content of NVM in the model).
    pub const ZERO: Line = Line([0; LINE_BYTES]);

    /// Creates a line with every byte set to `byte`.
    pub fn filled(byte: u8) -> Self {
        Line([byte; LINE_BYTES])
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; LINE_BYTES] {
        &self.0
    }

    /// Mutably borrows the raw bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8; LINE_BYTES] {
        &mut self.0
    }

    /// True if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

impl Default for Line {
    fn default() -> Self {
        Line::ZERO
    }
}

impl From<[u8; LINE_BYTES]> for Line {
    fn from(bytes: [u8; LINE_BYTES]) -> Self {
        Line(bytes)
    }
}

impl From<Line> for [u8; LINE_BYTES] {
    fn from(line: Line) -> Self {
        line.0
    }
}

impl AsRef<[u8]> for Line {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for Line {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_zero() {
            write!(f, "Line(ZERO)")
        } else {
            write!(
                f,
                "Line({:02x}{:02x}{:02x}{:02x}..)",
                self.0[0], self.0[1], self.0[2], self.0[3]
            )
        }
    }
}

/// The index of a 64-byte line in the simulated physical address space.
///
/// Multiplying by [`LINE_BYTES`] gives the byte address. A newtype keeps
/// line indices from being confused with byte addresses or node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Wraps a raw line index.
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// The raw line index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The byte address of the first byte of the line.
    pub const fn byte_addr(self) -> u64 {
        self.0 * LINE_BYTES as u64
    }

    /// The line containing byte address `byte`.
    pub const fn containing(byte: u64) -> Self {
        LineAddr(byte / LINE_BYTES as u64)
    }
}

impl core::fmt::LowerHex for LineAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for LineAddr {
    fn from(index: u64) -> Self {
        LineAddr(index)
    }
}

/// Lines per page: the store maps `addr >> PAGE_SHIFT` to a fixed 64-line
/// frame and indexes the low bits directly, so the hot read/write path
/// pays one hash probe per *page* touch instead of one per line.
pub(crate) const PAGE_SHIFT: u32 = 6;

/// Number of lines in one page frame.
pub(crate) const PAGE_LINES: usize = 1 << PAGE_SHIFT;

/// Mask extracting the in-page slot from a line index.
const SLOT_MASK: u64 = PAGE_LINES as u64 - 1;

/// Splits a line address into its page index and in-page slot.
#[inline]
pub(crate) fn split(addr: LineAddr) -> (u64, usize) {
    (
        addr.index() >> PAGE_SHIFT,
        (addr.index() & SLOT_MASK) as usize,
    )
}

/// A fixed frame of [`PAGE_LINES`] lines plus a residency bitmap.
///
/// Bit `s` of `resident` says whether slot `s` holds a written line, so
/// footprint and iteration count exactly the lines that were given —
/// an explicit zero write sets its bit like any other write.
#[derive(Clone)]
struct Page {
    resident: u64,
    lines: [Line; PAGE_LINES],
}

impl Page {
    fn new() -> Self {
        Page {
            resident: 0,
            lines: [Line::ZERO; PAGE_LINES],
        }
    }

    /// The line in `slot`. An unwritten slot reads zero from the
    /// bitmap alone, without touching the line's own cache line.
    #[inline]
    fn get(&self, slot: usize) -> Line {
        if self.resident >> slot & 1 == 1 {
            self.lines[slot]
        } else {
            Line::ZERO
        }
    }

    #[inline]
    fn set(&mut self, slot: usize, line: Line) {
        self.resident |= 1 << slot;
        self.lines[slot] = line;
    }

    fn resident_lines(&self) -> usize {
        self.resident.count_ones() as usize
    }
}

impl core::fmt::Debug for Page {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Page({} resident)", self.resident_lines())
    }
}

/// Deterministic multiply–xor hasher for page indices.
///
/// Page indices are small and dense, so the default `RandomState`
/// (SipHash with per-process random keys) is both slower than needed on
/// the hot path and non-reproducible across runs, which would let map
/// iteration order leak into reports. One odd-constant multiply with a
/// high-bit fold is plenty for `u64` keys and makes iteration order a
/// pure function of the insert sequence.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // Multiplication pushes entropy toward the high bits; fold them
        // down for the table's low-bit bucket index.
        self.0 ^ (self.0 >> 31)
    }
}

/// A flat copy-on-write map from page index to reference-counted page.
///
/// `Clone` copies one pointer per page and shares every page with the
/// original; [`PageMap::page_mut`] copies a page only while it is still
/// shared, so after a clone each side pays one page copy per page it
/// writes. Lookups are one probe whatever the clone history.
#[derive(Debug, Clone)]
pub(crate) struct PageMap<P>(HashMap<u64, Arc<P>, BuildHasherDefault<PageHasher>>);

impl<P> Default for PageMap<P> {
    fn default() -> Self {
        PageMap(HashMap::default())
    }
}

impl<P: Clone> PageMap<P> {
    /// The page at `idx`, if one was ever created.
    #[inline]
    pub(crate) fn get(&self, idx: u64) -> Option<&P> {
        self.0.get(&idx).map(|page| &**page)
    }

    /// The private page at `idx`: created by `new` if absent, copied
    /// first if it is still shared with a clone.
    #[inline]
    pub(crate) fn page_mut(&mut self, idx: u64, new: impl FnOnce() -> P) -> &mut P {
        Arc::make_mut(self.0.entry(idx).or_insert_with(|| Arc::new(new())))
    }

    /// Every page with its index, in map order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &P)> {
        self.0.iter().map(|(&idx, page)| (idx, &**page))
    }

    /// Pages of `self` that are the very same allocation as `other`'s
    /// page at the same index.
    pub(crate) fn shared_with<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = &'a P> {
        self.0.iter().filter_map(|(idx, page)| {
            other
                .0
                .get(idx)
                .filter(|o| Arc::ptr_eq(page, o))
                .map(|_| &**page)
        })
    }
}

/// A sparse, copy-on-write store of 64-byte lines.
///
/// NVM starts zeroed; only written pages consume host memory, which lets
/// the model keep the full 16 GB geometry of the paper's system.
///
/// The store is one `PageMap` from page index (`addr >> PAGE_SHIFT`)
/// to a reference-counted 64-line frame with a residency bitmap. A read
/// is one probe; a write copies its frame only while a clone still
/// shares it. `Clone` copies one pointer per resident page and no
/// lines, so whole-engine forks stay cheap enough to take at every
/// persist point during crash-schedule exploration.
#[derive(Debug, Default, Clone)]
pub struct LineStore {
    pages: PageMap<Page>,
}

impl LineStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the line at `addr` (zero if never written).
    #[inline]
    pub fn read(&self, addr: LineAddr) -> Line {
        let (idx, slot) = split(addr);
        self.pages
            .get(idx)
            .map_or(Line::ZERO, |page| page.get(slot))
    }

    /// Writes `line` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: LineAddr, line: Line) {
        let (idx, slot) = split(addr);
        self.pages.page_mut(idx, Page::new).set(slot, line);
    }

    /// Number of distinct lines that have ever been written.
    pub fn footprint_lines(&self) -> usize {
        self.pages.iter().map(|(_, p)| p.resident_lines()).sum()
    }

    /// Iterates over all written lines.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, Line)> + '_ {
        self.pages.iter().flat_map(|(idx, page)| {
            let mut bits = page.resident;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let slot = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                Some((
                    LineAddr::new((idx << PAGE_SHIFT) | slot),
                    page.lines[slot as usize],
                ))
            })
        })
    }

    /// Number of written lines held in pages that are the same
    /// reference-counted allocation in `other`. A fresh fork shares its
    /// whole footprint; each page either side writes afterwards drops
    /// out of the count.
    pub fn shared_lines_with(&self, other: &Self) -> usize {
        self.pages
            .shared_with(&other.pages)
            .map(Page::resident_lines)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_lines_read_zero() {
        let store = LineStore::new();
        assert_eq!(store.read(LineAddr::new(123)), Line::ZERO);
        assert_eq!(store.footprint_lines(), 0);
    }

    #[test]
    fn write_then_read() {
        let mut store = LineStore::new();
        store.write(LineAddr::new(5), Line::filled(0xab));
        assert_eq!(store.read(LineAddr::new(5)), Line::filled(0xab));
        assert_eq!(store.read(LineAddr::new(6)), Line::ZERO);
        assert_eq!(store.footprint_lines(), 1);
    }

    #[test]
    fn overwriting_with_zero_is_remembered() {
        let mut store = LineStore::new();
        store.write(LineAddr::new(1), Line::filled(1));
        store.write(LineAddr::new(1), Line::ZERO);
        assert_eq!(store.read(LineAddr::new(1)), Line::ZERO);
        assert_eq!(store.footprint_lines(), 1);
    }

    #[test]
    fn zero_write_after_clone_overrides_shared_content() {
        // The write copies the shared page, so the clone's zero line
        // replaces the original's content on that side only.
        let mut store = LineStore::new();
        store.write(LineAddr::new(9), Line::filled(9));
        let mut fork = store.clone();
        fork.write(LineAddr::new(9), Line::ZERO);
        assert_eq!(fork.read(LineAddr::new(9)), Line::ZERO);
        assert_eq!(store.read(LineAddr::new(9)), Line::filled(9));
        assert_eq!(fork.footprint_lines(), 1);
    }

    #[test]
    fn line_addr_byte_conversions() {
        let a = LineAddr::containing(130);
        assert_eq!(a.index(), 2);
        assert_eq!(a.byte_addr(), 128);
    }

    #[test]
    fn line_debug_is_never_empty() {
        assert!(!format!("{:?}", Line::ZERO).is_empty());
        assert!(!format!("{:?}", Line::filled(3)).is_empty());
    }

    #[test]
    fn clone_shares_every_page_and_diverges_per_page_on_write() {
        let mut store = LineStore::new();
        for i in 0..1000 {
            store.write(LineAddr::new(i), Line::filled((i % 251) as u8));
        }
        let mut fork = store.clone();
        // The whole footprint is shared by reference, not copied.
        assert_eq!(fork.shared_lines_with(&store), 1000);
        assert_eq!(store.shared_lines_with(&fork), 1000);
        // Writes after the fork are private to each side, and each
        // unshares exactly the page it lands in.
        fork.write(LineAddr::new(3), Line::filled(0xee));
        assert_eq!(fork.shared_lines_with(&store), 1000 - PAGE_LINES);
        store.write(LineAddr::new(4), Line::filled(0xdd));
        assert_eq!(fork.shared_lines_with(&store), 1000 - PAGE_LINES);
        store.write(LineAddr::new(900), Line::filled(0xcc));
        assert_eq!(fork.shared_lines_with(&store), 1000 - 2 * PAGE_LINES);
        assert_eq!(fork.read(LineAddr::new(3)), Line::filled(0xee));
        assert_eq!(store.read(LineAddr::new(3)), Line::filled(3));
        assert_eq!(store.read(LineAddr::new(4)), Line::filled(0xdd));
        assert_eq!(fork.read(LineAddr::new(4)), Line::filled(4));
        assert_eq!(store.footprint_lines(), 1000);
        assert_eq!(fork.footprint_lines(), 1000);
    }

    #[test]
    fn many_clones_keep_newest_value_and_old_snapshots() {
        // Each generation clones the last and rewrites one line; the
        // newest value wins and nothing stacks up behind it.
        let mut store = LineStore::new();
        let mut parents = Vec::new();
        for round in 0..100u64 {
            store.write(LineAddr::new(round % 10), Line::filled((round + 1) as u8));
            parents.push(store.clone());
        }
        assert_eq!(store.footprint_lines(), 10);
        // Line 3 was last written on round 93 with fill 94.
        assert_eq!(store.read(LineAddr::new(3)), Line::filled(94));
        assert_eq!(parents[13].read(LineAddr::new(3)), Line::filled(14));
        let collected: Vec<_> = store.iter().filter(|(a, _)| a.index() == 7).collect();
        assert_eq!(collected, vec![(LineAddr::new(7), Line::filled(98))]);
    }

    #[test]
    fn far_apart_addresses_stay_sparse() {
        // The 16 GB geometry maps to line indices up to 2^28; pages must
        // not allocate anything between two distant touches.
        let mut store = LineStore::new();
        store.write(LineAddr::new(0), Line::filled(1));
        store.write(
            LineAddr::new((16 << 30) / LINE_BYTES as u64 - 1),
            Line::filled(2),
        );
        assert_eq!(store.pages.iter().count(), 2);
        assert_eq!(store.footprint_lines(), 2);
        assert_eq!(store.read(LineAddr::new(0)), Line::filled(1));
        assert_eq!(
            store.read(LineAddr::new((16 << 30) / LINE_BYTES as u64 - 1)),
            Line::filled(2)
        );
    }

    #[test]
    fn writes_within_one_page_share_a_frame() {
        let mut store = LineStore::new();
        for slot in 0..PAGE_LINES as u64 {
            store.write(LineAddr::new(slot), Line::filled(slot as u8));
        }
        assert_eq!(
            store.pages.iter().count(),
            1,
            "one frame holds all 64 lines"
        );
        assert_eq!(store.footprint_lines(), PAGE_LINES);
    }
}
