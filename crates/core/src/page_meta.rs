//! Packed per-page metadata for the two-level schemes.
//!
//! The simulator's physical page numbers are dense by construction: data
//! pages are identity-mapped from 0, and page-table pages are allocated
//! sequentially from the table-region base (`PageTable::table_region_base`,
//! 2^26 by default). [`PageMetaStore`] keys per-page state by a compact
//! [`PageId`] handle derived *arithmetically* from the PPN — one
//! comparison and one subtraction — so the steady-state access path
//! indexes dense arrays instead of hashing on every page touch.
//!
//! A boxed per-page struct (stored CTE + placement enum + flags) would
//! take ~40 B with the `Option` discriminant, which dominates host memory
//! at datacenter-scale footprints, so the store packs the same state into
//! one 64-bit word per page plus a 32-bit dirty epoch:
//!
//! ```text
//! bit  0      level (0 = ML1, 1 = ML2)
//! bit  1      pinned (page-table pages never migrate)
//! bit  2      incompressible (sticky across migrations, §IV-B)
//! bits 3..16  ML2: compressed bytes (≤ 4096)
//! bits 16..20 ML2: size-class index
//! bits 20..27 ML2: slot within the super-chunk (< 128)
//! bit  27     materialized (the word, not the plan, holds the state)
//! bits 32..64 ML1: frame number / ML2: super-chunk id
//! ```
//!
//! The stored CTE is gone entirely: a page's CTE is *derivable* from its
//! placement (`Cte::new(frame, level)` plus the incompressible flag —
//! the schemes never populate the pair vector), so the scheme
//! reconstructs it on demand instead of keeping an 8-byte mirror in sync.
//!
//! # Pristine pages and the overlay
//!
//! The layout has two dense regions (data pages keyed by PPN, table pages
//! keyed by PPN − `table_base`). A store built from a placement plan
//! (`PageMetaStore::planned`) holds every page the plan placed without
//! storing any: a *pristine* page reads as its closed-form initial state
//! (see the `placement` module). The words live in a copy-on-write overlay —
//! a directory of 64-page leaves allocated on first write — and the first
//! time a setter changes a page, its whole leaf is copied into the overlay
//! from the plan, each word with the materialized bit set. Reads check the
//! overlay word and fall back to the plan, so the access path indexes
//! arrays and never hashes, and the host cost is the plan plus the leaves
//! of pages that diverged. Every fallback — a lookup, a leaf copy, a walk
//! over an unallocated leaf — asks `InitialPages::data_page`, which
//! computes a pristine page's state in O(1).

use crate::free_list::SubChunk;
use crate::paged::Paged;
use crate::placement::InitialPages;

/// Compact handle of a page's slot in a [`PageMetaStore`]: a region bit
/// (data vs. table) plus the index within the region. Derived once per
/// request and reused for every lookup the request needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageId(u32);

/// Region bit: set for table-region pages.
const TABLE_BIT: u32 = 1 << 31;

impl PageId {
    /// The region-local index.
    #[inline]
    fn index(self) -> usize {
        (self.0 & !TABLE_BIT) as usize
    }

    /// Whether the handle points into the table region.
    #[inline]
    fn is_table(self) -> bool {
        self.0 & TABLE_BIT != 0
    }
}

/// Where a page's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Uncompressed, in a 4 KiB ML1 frame.
    Ml1 {
        /// The backing frame number.
        frame: u32,
    },
    /// Deflate-compressed, in an ML2 sub-chunk.
    Ml2 {
        /// The backing sub-chunk.
        sub: SubChunk,
        /// Compressed size actually stored, bytes.
        comp_bytes: u32,
    },
}

/// Decoded per-page state, returned by value — the packed word is the
/// single source of truth; mutate through the store's setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageInfo {
    /// Where the page's bytes live.
    pub place: Placement,
    /// Content epoch, bumped when a writeback re-draws compressibility.
    pub dirty_epoch: u32,
    /// Page-table pages are pinned in ML1 and never migrate.
    pub pinned: bool,
    /// Flagged when an eviction found the page unfit for any ML2 class;
    /// sticky even across later migrations.
    pub incompressible: bool,
}

const LEVEL_BIT: u64 = 1 << 0;
const PINNED_BIT: u64 = 1 << 1;
const INCOMPRESSIBLE_BIT: u64 = 1 << 2;
const COMP_SHIFT: u32 = 3;
const COMP_MASK: u64 = (1 << 13) - 1;
const CLASS_SHIFT: u32 = 16;
const CLASS_MASK: u64 = (1 << 4) - 1;
const SLOT_SHIFT: u32 = 20;
const SLOT_MASK: u64 = (1 << 7) - 1;
const HI_SHIFT: u32 = 32;
/// Set in every overlay word: the page's state lives in the overlay, not
/// the plan (bits 27..32 are otherwise unused).
const MATERIALIZED_BIT: u64 = 1 << 27;

/// Packs `info`'s placement and flags into the per-page word (the dirty
/// epoch lives in its own sidecar array).
fn encode(info: &PageInfo) -> u64 {
    let mut w = 0u64;
    if info.pinned {
        w |= PINNED_BIT;
    }
    if info.incompressible {
        w |= INCOMPRESSIBLE_BIT;
    }
    match info.place {
        Placement::Ml1 { frame } => w |= (frame as u64) << HI_SHIFT,
        Placement::Ml2 { sub, comp_bytes } => {
            debug_assert!(comp_bytes as u64 <= COMP_MASK, "comp_bytes {comp_bytes} overflows");
            debug_assert!(sub.class as u64 <= CLASS_MASK, "class {} overflows", sub.class);
            debug_assert!(sub.slot as u64 <= SLOT_MASK, "slot {} overflows", sub.slot);
            w |= LEVEL_BIT
                | ((comp_bytes as u64 & COMP_MASK) << COMP_SHIFT)
                | ((sub.class as u64 & CLASS_MASK) << CLASS_SHIFT)
                | ((sub.slot as u64 & SLOT_MASK) << SLOT_SHIFT)
                | ((sub.super_id as u64) << HI_SHIFT);
        }
    }
    w
}

/// Inverse of [`encode`].
fn decode(w: u64, dirty_epoch: u32) -> PageInfo {
    let place = if w & LEVEL_BIT == 0 {
        Placement::Ml1 { frame: (w >> HI_SHIFT) as u32 }
    } else {
        Placement::Ml2 {
            sub: SubChunk {
                class: (w >> CLASS_SHIFT & CLASS_MASK) as usize,
                super_id: (w >> HI_SHIFT) as u32,
                slot: (w >> SLOT_SHIFT & SLOT_MASK) as u8,
            },
            comp_bytes: (w >> COMP_SHIFT & COMP_MASK) as u32,
        }
    };
    PageInfo {
        place,
        dirty_epoch,
        pinned: w & PINNED_BIT != 0,
        incompressible: w & INCOMPRESSIBLE_BIT != 0,
    }
}

/// Pages per overlay leaf.
const LEAF: usize = 64;

/// One dense region: the pages the plan places (`0..initial`) plus a
/// copy-on-write overlay of packed words and dirty epochs. A page reads
/// from the overlay once its word carries [`MATERIALIZED_BIT`], which
/// every initial page of an allocated leaf does; epochs are only written
/// when non-zero.
#[derive(Debug, Clone)]
struct Region {
    initial: usize,
    words: Paged<u64, LEAF>,
    epochs: Paged<u32, LEAF>,
}

impl Region {
    fn new(initial: usize) -> Self {
        Self { initial, words: Paged::new(), epochs: Paged::new() }
    }

    /// The page's overlay word, if it has been materialized.
    #[inline]
    fn word(&self, idx: usize) -> Option<u64> {
        self.words.get(idx).copied().filter(|w| w & MATERIALIZED_BIT != 0)
    }

    #[inline]
    fn epoch(&self, idx: usize) -> u32 {
        self.epochs.get(idx).copied().unwrap_or(0)
    }

    fn present(&self, idx: usize) -> bool {
        idx < self.initial || self.word(idx).is_some()
    }

    fn write(&mut self, idx: usize, info: &PageInfo) {
        *self.words.entry(idx) = encode(info) | MATERIALIZED_BIT;
        if info.dirty_epoch != 0 || self.epochs.get(idx).is_some() {
            *self.epochs.entry(idx) = info.dirty_epoch;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.words.heap_bytes() + self.epochs.heap_bytes()
    }
}

/// Packed per-page state keyed by dense PPN, split into the two dense
/// regions of the simulator's physical layout (see the module docs).
///
/// # Examples
///
/// ```
/// use tmcc::page_meta::{PageInfo, PageMetaStore, Placement};
///
/// let mut pages = PageMetaStore::new(1 << 26);
/// pages.insert(
///     7,
///     PageInfo {
///         place: Placement::Ml1 { frame: 42 },
///         dirty_epoch: 0,
///         pinned: false,
///         incompressible: false,
///     },
/// );
/// let id = pages.id_of(7).unwrap();
/// assert_eq!(pages.get_id(id).unwrap().place, Placement::Ml1 { frame: 42 });
/// ```
#[derive(Debug, Clone)]
pub struct PageMetaStore {
    /// Data-page region: index = PPN (PPNs below `table_base`).
    data: Region,
    /// Table-page region: index = PPN − `table_base`.
    table: Region,
    /// First PPN of the table region.
    table_base: u64,
    /// Where unmaterialized pages of the initial regions live.
    plan: Option<InitialPages>,
    len: usize,
}

impl PageMetaStore {
    /// Creates an empty store for a physical layout whose table pages
    /// start at `table_base`.
    pub fn new(table_base: u64) -> Self {
        Self { data: Region::new(0), table: Region::new(0), table_base, plan: None, len: 0 }
    }

    /// A store holding every page the plan placed — data pages
    /// `0..data_pages` and table pages from `table_base` — in their
    /// initial state, without storing any of them.
    pub(crate) fn planned(table_base: u64, plan: InitialPages) -> Self {
        let (data, table) = (plan.data_pages() as usize, plan.table_pages() as usize);
        Self {
            data: Region::new(data),
            table: Region::new(table),
            table_base,
            plan: Some(plan),
            len: data + table,
        }
    }

    /// Derives the compact handle for `ppn` — pure arithmetic, no
    /// hashing. `None` when the PPN cannot be an index (outside both
    /// dense regions' representable range).
    #[inline]
    pub fn id_of(&self, ppn: u64) -> Option<PageId> {
        if ppn < self.table_base {
            (ppn < TABLE_BIT as u64).then_some(PageId(ppn as u32))
        } else {
            let off = ppn - self.table_base;
            (off < TABLE_BIT as u64).then_some(PageId(off as u32 | TABLE_BIT))
        }
    }

    #[inline]
    fn region(&self, id: PageId) -> &Region {
        if id.is_table() {
            &self.table
        } else {
            &self.data
        }
    }

    #[inline]
    fn region_mut(&mut self, id: PageId) -> &mut Region {
        if id.is_table() {
            &mut self.table
        } else {
            &mut self.data
        }
    }

    /// Number of pages with state.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The plan's state for an initial page that was never materialized.
    fn initial(&self, id: PageId) -> PageInfo {
        let idx = id.index() as u64;
        if id.is_table() {
            InitialPages::table_page(idx)
        } else {
            self.plan.as_ref().expect("initial data pages come from a plan").data_page(idx)
        }
    }

    /// The decoded state of the page behind a handle.
    #[inline]
    pub fn get_id(&self, id: PageId) -> Option<PageInfo> {
        let region = self.region(id);
        let idx = id.index();
        match region.word(idx) {
            Some(w) => Some(decode(w, region.epoch(idx))),
            None => (idx < region.initial).then(|| self.initial(id)),
        }
    }

    /// The decoded state of page `ppn`.
    #[inline]
    pub fn get(&self, ppn: u64) -> Option<PageInfo> {
        self.get_id(self.id_of(ppn)?)
    }

    /// Inserts (or replaces) state for page `ppn`, allocating its slot on
    /// first touch. Returns `true` when the page was previously absent.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` lies outside both dense regions.
    pub fn insert(&mut self, ppn: u64, info: PageInfo) -> bool {
        let id = self
            .id_of(ppn)
            .unwrap_or_else(|| panic!("page {ppn:#x} outside the store's dense regions"));
        let was_absent = !self.region(id).present(id.index());
        self.write(id, &info);
        if was_absent {
            self.len += 1;
        }
        was_absent
    }

    /// Applies `f` to the page's state, materializing it into the overlay
    /// first. Returns `false` when no such page has state.
    #[inline]
    fn update(&mut self, id: PageId, f: impl FnOnce(&mut PageInfo)) -> bool {
        let Some(mut info) = self.get_id(id) else {
            return false;
        };
        f(&mut info);
        self.write(id, &info);
        true
    }

    /// Stores `info` in the overlay. The first write into a leaf holding
    /// initial pages copies all of them from the plan, so an allocated
    /// leaf never defers to the plan.
    fn write(&mut self, id: PageId, info: &PageInfo) {
        let (idx, lo) = (id.index(), id.index() / LEAF * LEAF);
        let region = self.region(id);
        if lo < region.initial && region.words.leaf(idx / LEAF).is_none() {
            let mut words = [0u64; LEAF];
            let pages = (lo..(lo + LEAF).min(region.initial)).zip(&mut words);
            if id.is_table() {
                pages.for_each(|(t, w)| *w = encode(&InitialPages::table_page(t as u64)));
            } else {
                let plan = self.plan.as_ref().expect("initial data pages come from a plan");
                pages.for_each(|(p, w)| *w = encode(&plan.data_page(p as u64)));
            }
            let region = self.region_mut(id);
            for (p, w) in (lo..region.initial).zip(words) {
                *region.words.entry(p) = w | MATERIALIZED_BIT;
            }
        }
        self.region_mut(id).write(idx, info);
    }

    /// Re-homes the page behind `id`, preserving its flags and epoch.
    /// Returns `false` when no such page has state.
    #[inline]
    pub fn set_place(&mut self, id: PageId, place: Placement) -> bool {
        self.update(id, |info| info.place = place)
    }

    /// Sets or clears the sticky incompressible flag. Returns `false`
    /// when no such page has state.
    #[inline]
    pub fn set_incompressible(&mut self, id: PageId, flag: bool) -> bool {
        self.update(id, |info| info.incompressible = flag)
    }

    /// Advances the page's dirty epoch by one. Returns `false` when no
    /// such page has state.
    #[inline]
    pub fn bump_dirty_epoch(&mut self, id: PageId) -> bool {
        self.update(id, |info| info.dirty_epoch += 1)
    }

    /// Iterates `(ppn, state)` pairs: the data region in PPN order, then
    /// the table region. Allocated overlay leaves decode like a dense
    /// array; the plan computes the pristine pages of the others.
    pub fn iter(&self) -> impl Iterator<Item = (u64, PageInfo)> + '_ {
        let plan = self.plan.as_ref();
        let data = Walk::new(&self.data, 0, move |idx| Some(plan?.data_page(idx)));
        let table = Walk::new(&self.table, self.table_base, |t| Some(InitialPages::table_page(t)));
        data.chain(table)
    }

    /// Host heap bytes owned by the store (capacity, not length): the
    /// plan's per-sample and per-window tables plus the overlays — the
    /// footprint experiments report this per simulated GB.
    pub fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
            + self.table.heap_bytes()
            + self.plan.as_ref().map_or(0, InitialPages::heap_bytes)
    }
}

/// [`PageMetaStore::iter`] over one region, in index order, one overlay
/// leaf at a time: an allocated leaf's materialized words, or else the
/// `planned` state of each initial page in the leaf.
struct Walk<'a, F> {
    region: &'a Region,
    base: u64,
    idx: usize,
    end: usize,
    words: Option<&'a [u64; LEAF]>,
    epochs: Option<&'a [u32; LEAF]>,
    planned: F,
}

impl<'a, F: Fn(u64) -> Option<PageInfo>> Walk<'a, F> {
    fn new(region: &'a Region, base: u64, planned: F) -> Self {
        let end = region.initial.max(region.words.bound());
        Self { region, base, idx: 0, end, words: None, epochs: None, planned }
    }
}

impl<F: Fn(u64) -> Option<PageInfo>> Iterator for Walk<'_, F> {
    type Item = (u64, PageInfo);

    #[inline]
    fn next(&mut self) -> Option<(u64, PageInfo)> {
        while self.idx < self.end {
            let idx = self.idx;
            self.idx += 1;
            if idx.is_multiple_of(LEAF) {
                self.words = self.region.words.leaf(idx / LEAF);
                self.epochs = self.region.epochs.leaf(idx / LEAF);
            }
            let info = match self.words {
                Some(words) => {
                    let word = words[idx % LEAF];
                    (word & MATERIALIZED_BIT != 0)
                        .then(|| decode(word, self.epochs.map_or(0, |leaf| leaf[idx % LEAF])))
                }
                None if idx < self.region.initial => (self.planned)(idx as u64),
                None => None,
            };
            if let Some(info) = info {
                return Some((self.base + idx as u64, info));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 1 << 26;

    fn ml1(frame: u32) -> PageInfo {
        PageInfo {
            place: Placement::Ml1 { frame },
            dirty_epoch: 0,
            pinned: false,
            incompressible: false,
        }
    }

    #[test]
    fn insert_get_both_regions() {
        let mut s = PageMetaStore::new(BASE);
        assert!(s.insert(5, ml1(50)));
        assert!(s.insert(BASE + 3, PageInfo { pinned: true, ..ml1(33) }));
        assert_eq!(s.get(5).unwrap().place, Placement::Ml1 { frame: 50 });
        assert!(s.get(BASE + 3).unwrap().pinned);
        assert!(s.get(6).is_none());
        assert!(s.get(BASE + 4).is_none());
        assert_eq!(s.len(), 2);
        assert!(!s.insert(5, ml1(51)), "replace counts once");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(5).unwrap().place, Placement::Ml1 { frame: 51 });
    }

    #[test]
    fn packed_word_roundtrips_extremes() {
        let mut s = PageMetaStore::new(BASE);
        let info = PageInfo {
            place: Placement::Ml2 {
                sub: SubChunk { class: 10, super_id: u32::MAX, slot: 127 },
                comp_bytes: 4096,
            },
            dirty_epoch: 77,
            pinned: true,
            incompressible: true,
        };
        s.insert(0, info);
        assert_eq!(s.get(0).unwrap(), info);
        let ml1_max = PageInfo {
            place: Placement::Ml1 { frame: u32::MAX },
            dirty_epoch: u32::MAX,
            pinned: false,
            incompressible: true,
        };
        s.insert(1, ml1_max);
        assert_eq!(s.get(1).unwrap(), ml1_max);
    }

    #[test]
    fn incompressible_is_sticky_across_set_place() {
        let mut s = PageMetaStore::new(BASE);
        s.insert(9, ml1(4));
        let id = s.id_of(9).unwrap();
        assert!(s.set_incompressible(id, true));
        // Migrate down and back up; the flag must survive both hops.
        let sub = SubChunk { class: 3, super_id: 17, slot: 5 };
        assert!(s.set_place(id, Placement::Ml2 { sub, comp_bytes: 900 }));
        assert!(s.get_id(id).unwrap().incompressible);
        assert!(s.set_place(id, Placement::Ml1 { frame: 8 }));
        let info = s.get_id(id).unwrap();
        assert!(info.incompressible);
        assert_eq!(info.place, Placement::Ml1 { frame: 8 });
    }

    #[test]
    fn dirty_epoch_survives_set_place() {
        let mut s = PageMetaStore::new(BASE);
        s.insert(2, ml1(1));
        let id = s.id_of(2).unwrap();
        assert!(s.bump_dirty_epoch(id));
        assert!(s.bump_dirty_epoch(id));
        assert!(s.set_place(id, Placement::Ml1 { frame: 3 }));
        assert_eq!(s.get_id(id).unwrap().dirty_epoch, 2);
    }

    #[test]
    fn setters_on_absent_pages_report_failure() {
        let mut s = PageMetaStore::new(BASE);
        s.insert(0, ml1(0));
        let absent = s.id_of(40).unwrap();
        assert!(!s.set_place(absent, Placement::Ml1 { frame: 1 }));
        assert!(!s.set_incompressible(absent, true));
        assert!(!s.bump_dirty_epoch(absent));
    }

    #[test]
    fn iter_is_dense_ppn_order() {
        let mut s = PageMetaStore::new(BASE);
        s.insert(BASE + 1, ml1(4));
        s.insert(2, ml1(2));
        s.insert(0, ml1(1));
        s.insert(BASE, ml1(3));
        let ppns: Vec<u64> = s.iter().map(|(p, _)| p).collect();
        assert_eq!(ppns, vec![0, 2, BASE, BASE + 1]);
    }

    /// A write into a leaf that holds initial pages copies them from the
    /// plan first, even when the written page lies past them, so the walk
    /// still streams every initial page.
    #[test]
    fn first_write_into_a_leaf_copies_its_initial_pages() {
        use crate::free_list::Ml2FreeLists;
        use crate::placement::{PlacementPlan, SampleTable};
        use crate::size_model::{PageSizes, SizeModel};

        let ml2 = Ml2FreeLists::paper_classes();
        let sizes = [300, 1300, 2600, 900, 4000, 1800, 250, 3100]
            .map(|d| PageSizes { deflate_bytes: d, block_bytes: 4096 });
        let samples = SampleTable::new(&SizeModel::from_samples(sizes.to_vec()), &ml2);
        let plan = PlacementPlan::search(samples, &ml2, 5, 100, 90, 4).expect("fits");
        assert!(plan.split > 0 && plan.split < 100, "split {}", plan.split);
        let mut s = PageMetaStore::planned(BASE, plan.pages);
        let before: Vec<(u64, PageInfo)> = s.iter().collect();
        assert_eq!(before.len(), 100 + 5);
        assert!(s.insert(100, ml1(7)), "page 100 is past the plan");
        let id = s.id_of(3).unwrap();
        assert!(s.bump_dirty_epoch(id));
        let mut expected = before;
        expected[3].1.dirty_epoch = 1;
        expected.insert(100, (100, ml1(7)));
        assert_eq!(s.iter().collect::<Vec<_>>(), expected);
        for &(ppn, info) in &expected {
            assert_eq!(s.get(ppn), Some(info), "page {ppn:#x}");
        }
        assert_eq!(s.len(), 106);
    }

    #[test]
    fn out_of_range_ppn_has_no_id() {
        let s = PageMetaStore::new(BASE);
        assert!(s.id_of(BASE - 1).is_some());
        assert!(s.id_of(BASE + (1 << 31)).is_none());
    }

    #[test]
    fn heap_cost_is_near_twelve_bytes_per_page() {
        let mut s = PageMetaStore::new(BASE);
        for i in 0..10_000u64 {
            s.insert(i, ml1(i as u32));
        }
        // Word + epoch + residency bit is ~12.2 B/page; capacity-doubling
        // growth can at most double that.
        assert!(s.heap_bytes() < 10_000 * 13 * 2, "heap {} too large", s.heap_bytes());
    }
}
