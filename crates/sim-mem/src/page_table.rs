//! A software-built 4-level x86-64-style page table living in simulated
//! physical memory.
//!
//! The table is laid out the way an OS would build it: each level is a
//! 4 KiB page of 512 PTEs (64 PTBs), table pages are allocated from a
//! dedicated physical range, and a walk for a VPN touches one PTB per level
//! (paper §II: "each step in a page walk fetches a 64 B block of eight
//! PTEs"). The PTB *blocks* this module hands out are exactly what TMCC
//! compresses and embeds CTEs into.
//!
//! # Closed-form identity prefix
//!
//! A simulated system maps its footprint identity (VPN *i* → PPN *i*, or
//! whole 2 MiB regions with huge pages), so its pristine table is a pure
//! function of the footprint. [`PageTable`] stores only the length of that
//! identity prefix plus a copy-on-write overlay of the table pages that
//! diverged from it: reads check the overlay, then synthesize the PTEs;
//! writes copy the touched table page into the overlay first. Prefix table
//! pages get the PPNs a sequential `map` loop allocates them (depth-first,
//! in first-touch order), and `map` of the next identity page extends the
//! prefix in O(1) while the overlay is empty — so a `new()` + `map` loop
//! and [`PageTable::identity`] build the same table without any table
//! memory.

use std::ops::Range;
use tmcc_types::addr::{BlockAddr, Ppn, Vpn};
use tmcc_types::fxhash::FxHashMap;
use tmcc_types::pte::{PageTableBlock, Pte, PteFlags, PTES_PER_PTB};

/// Entries per 4 KiB table page.
const ENTRIES_PER_TABLE: u64 = 512;
/// Index bits each table level resolves.
const FANOUT_BITS: u32 = 9;

/// Configuration of the simulated page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTableConfig {
    /// First PPN of the region table pages are allocated from (the
    /// simulator keeps page-table pages disjoint from data pages).
    pub table_region_base: u64,
    /// Map 2 MiB huge pages at level 2 instead of 4 KiB pages at level 1
    /// (the paper's §VIII huge-page sensitivity study).
    pub huge_pages: bool,
}

impl Default for PageTableConfig {
    fn default() -> Self {
        Self {
            // Table pages live high in the physical space by default.
            table_region_base: 1 << 26, // PPN 2^26 = 256 GiB mark
            huge_pages: false,
        }
    }
}

impl PageTableConfig {
    /// The configuration for an identity table over `pages` 4 KiB data
    /// pages: the table region starts at the default base, or right above
    /// the data PPNs once they reach it, so no table page ever shares a
    /// PPN with a data page.
    pub fn above_data(pages: u64, huge_pages: bool) -> Self {
        let data_end =
            if huge_pages { pages.div_ceil(ENTRIES_PER_TABLE) * ENTRIES_PER_TABLE } else { pages };
        let base = Self::default().table_region_base.max(data_end);
        Self { table_region_base: base, huge_pages }
    }
}

/// One step of a page walk: the PTB the walker fetches and what the chosen
/// PTE points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// Walk level: 4 (root) down to 1 (leaf), or down to 2 for huge pages.
    pub level: u8,
    /// Physical block address of the 64 B PTB fetched at this step.
    pub ptb_block: BlockAddr,
    /// Slot (0..8) of the relevant PTE within the PTB.
    pub slot: usize,
    /// PPN the PTE points at: the next level's table page, or the data
    /// page at the leaf.
    pub next_ppn: Ppn,
}

/// The simulated page table.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::{PageTable, PageTableConfig};
/// use tmcc_types::addr::{Ppn, Vpn};
///
/// let mut pt = PageTable::new(PageTableConfig::default());
/// pt.map(Vpn::new(0x1234), Ppn::new(77));
/// assert_eq!(pt.translate(Vpn::new(0x1234)), Some(Ppn::new(77)));
/// let path = pt.walk_path(Vpn::new(0x1234)).expect("mapped");
/// assert_eq!(path.len(), 4); // four PTB fetches
///
/// // The identity table a simulated system uses is closed-form: a million
/// // pages cost no table memory.
/// let id = PageTable::identity(PageTableConfig::default(), 1 << 20);
/// assert_eq!(id.translate(Vpn::new(12_345)), Some(Ppn::new(12_345)));
/// assert_eq!(id.table_page_count() as u64, PageTable::identity_table_pages(1 << 20, false));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    cfg: PageTableConfig,
    /// Leaf entries of the pristine identity prefix: leaf unit `u` (a
    /// 4 KiB page, or a 2 MiB region with huge pages) maps to PPN
    /// `u << unit_shift`.
    identity: u64,
    /// Table pages the prefix occupies: `[base, base + pristine_tables)`.
    pristine_tables: u64,
    /// Copy-on-write overlay: every table page that diverged from the
    /// prefix, and every table allocated after it, by PPN. Keyed with the
    /// cheap vendored Fx hasher; nothing iterates the map (so the hasher
    /// cannot perturb observable ordering).
    tables: FxHashMap<u64, Vec<Pte>>,
    next_table_ppn: u64,
    mapped_pages: u64,
    /// Raw status bits of a pristine leaf PTE and of a pristine pointer to
    /// a table, so synthesizing a PTE is one shift and one OR.
    leaf_bits: u64,
    table_bits: u64,
}

/// A resolved table page.
#[derive(Clone, Copy)]
enum Table<'a> {
    /// Stored entries (the overlay).
    Overlay(&'a [Pte]),
    /// A table of the pristine prefix: its depth above the leaf level
    /// (0 = leaf table) and its index among that depth's tables — table
    /// `(d, t)` covers leaf units `[t << 9(d+1), (t + 1) << 9(d+1))`.
    Pristine { depth: u32, index: u64 },
}

impl PageTable {
    /// Creates an empty table (root allocated immediately).
    pub fn new(cfg: PageTableConfig) -> Self {
        Self::identity(cfg, 0)
    }

    /// The identity table over `pages` 4 KiB pages — VPN `i` → PPN `i`,
    /// or, with huge pages, each covering 2 MiB region `r` → PPN
    /// `r * 512` — in O(1): the same table a `new()` + `map` loop builds,
    /// table-page PPNs included.
    pub fn identity(cfg: PageTableConfig, pages: u64) -> Self {
        let units = if cfg.huge_pages { pages.div_ceil(ENTRIES_PER_TABLE) } else { pages };
        let pristine_tables = Self::prefix_tables(units, Self::root_depth_of(cfg));
        let top_ppn =
            (units << Self::unit_shift_of(cfg)).max(cfg.table_region_base + pristine_tables);
        assert!(top_ppn <= 1 << 40, "PPN exceeds 40 bits");
        let rw = PteFlags::present_rw();
        Self {
            cfg,
            identity: units,
            pristine_tables,
            tables: FxHashMap::default(),
            next_table_ppn: cfg.table_region_base + pristine_tables,
            mapped_pages: units,
            leaf_bits: Self::leaf_flags(cfg, rw).to_raw(),
            table_bits: rw.to_raw(),
        }
    }

    /// Table pages [`PageTable::identity`] over `pages` 4 KiB pages
    /// occupies — its [`table_page_count`](Self::table_page_count),
    /// without building a table.
    pub fn identity_table_pages(pages: u64, huge_pages: bool) -> u64 {
        let cfg = PageTableConfig { huge_pages, ..Default::default() };
        Self::identity(cfg, pages).table_page_count() as u64
    }

    /// Levels from the leaf tables up to the root (3, or 2 for huge pages).
    fn root_depth_of(cfg: PageTableConfig) -> u32 {
        if cfg.huge_pages {
            2
        } else {
            3
        }
    }

    fn root_depth(&self) -> u32 {
        Self::root_depth_of(self.cfg)
    }

    /// VPN bits below the leaf unit (0, or 9 for huge pages).
    fn unit_shift_of(cfg: PageTableConfig) -> u32 {
        if cfg.huge_pages {
            FANOUT_BITS
        } else {
            0
        }
    }

    fn unit_shift(&self) -> u32 {
        Self::unit_shift_of(self.cfg)
    }

    /// Table pages of an identity prefix of `units` leaf entries: the
    /// root plus, per depth, one table per started span.
    fn prefix_tables(units: u64, root_depth: u32) -> u64 {
        1 + (1..=root_depth).map(|d| div_ceil_shift(units, FANOUT_BITS * d)).sum::<u64>()
    }

    /// Offset from the region base of the first table page a sequential
    /// map loop allocates on reaching leaf table `j`: the root plus, per
    /// depth below it, every table starting before it.
    fn group_offset(&self, j: u64) -> u64 {
        let upper = if self.cfg.huge_pages { 0 } else { div_ceil_shift(j, 2 * FANOUT_BITS) };
        1 + j + div_ceil_shift(j, FANOUT_BITS) + upper
    }

    /// Table pages born on reaching leaf table `j`: one per depth below
    /// the root whose span starts there, allocated top-down.
    fn born_at(&self, j: u64) -> u64 {
        let mid = j.is_multiple_of(ENTRIES_PER_TABLE);
        let upper = !self.cfg.huge_pages && j.is_multiple_of(ENTRIES_PER_TABLE * ENTRIES_PER_TABLE);
        1 + u64::from(mid) + u64::from(upper)
    }

    /// Offset of pristine table `(depth, index)`, if the prefix holds it.
    ///
    /// The table is born on reaching leaf table `j = index << 9·depth`, at
    /// `group_offset(j) + born_at(j) - 1 - depth`. Per depth `e` below the
    /// root, `⌈j / 512^e⌉ + [512^e divides j] = ⌊j / 512^e⌋ + 1`, so that
    /// sum is `root_depth - depth + Σ_e ⌊j / 512^e⌋` — branch-free, which
    /// matters because every synthesized upper-level PTE evaluates it.
    #[inline]
    fn pristine_offset(&self, depth: u32, index: u64) -> Option<u64> {
        let root = self.root_depth();
        let off = if depth < root {
            let j = index << (FANOUT_BITS * depth);
            let upper = if self.cfg.huge_pages { 0 } else { j >> (2 * FANOUT_BITS) };
            u64::from(root - depth) + j + (j >> FANOUT_BITS) + upper
        } else if depth == root && index == 0 {
            0
        } else {
            return None;
        };
        (off < self.pristine_tables).then_some(off)
    }

    /// Inverse of [`pristine_offset`](Self::pristine_offset).
    fn pristine_at(&self, off: u64) -> Option<(u32, u64)> {
        if off == 0 {
            return Some((self.root_depth(), 0));
        }
        if off >= self.pristine_tables {
            return None;
        }
        // Largest leaf table j whose allocation starts at or before `off`:
        // group_offset(lo) <= off < group_offset(hi) throughout.
        let (mut lo, mut hi) = (0, self.identity.div_ceil(ENTRIES_PER_TABLE));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.group_offset(mid) <= off {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let depth = (self.born_at(lo) - 1 - (off - self.group_offset(lo))) as u32;
        Some((depth, lo >> (FANOUT_BITS * depth)))
    }

    /// Resolves table page `ppn`: the overlay first, then the prefix —
    /// trying `hint` (the `(depth, index)` a walk from the root expects)
    /// before inverting the allocation order.
    #[inline]
    fn resolve(&self, ppn: u64, hint: Option<(u32, u64)>) -> Option<Table<'_>> {
        if !self.tables.is_empty() {
            if let Some(entries) = self.tables.get(&ppn) {
                return Some(Table::Overlay(entries));
            }
        }
        let off = ppn.checked_sub(self.cfg.table_region_base)?;
        let (depth, index) = match hint {
            Some((d, t)) if self.pristine_offset(d, t) == Some(off) => (d, t),
            _ => self.pristine_at(off)?,
        };
        Some(Table::Pristine { depth, index })
    }

    /// Entry `idx` of a resolved table.
    fn entry(&self, table: Table<'_>, idx: usize) -> Pte {
        match table {
            Table::Overlay(entries) => entries[idx],
            Table::Pristine { depth, index } => {
                // `identity` checked that every prefix PPN fits the PTE's
                // 40 bits, so the raw layout is exact.
                let child = (index << FANOUT_BITS) | idx as u64;
                if depth == 0 {
                    if child < self.identity {
                        Pte::from_raw((child << self.unit_shift() << 12) | self.leaf_bits)
                    } else {
                        Pte::NOT_PRESENT
                    }
                } else {
                    match self.pristine_offset(depth - 1, child) {
                        Some(off) => Pte::from_raw(
                            ((self.cfg.table_region_base + off) << 12) | self.table_bits,
                        ),
                        None => Pte::NOT_PRESENT,
                    }
                }
            }
        }
    }

    /// PTB `ptb_idx` (0..64) of a resolved table.
    fn ptb(&self, table: Table<'_>, ptb_idx: usize) -> PageTableBlock {
        let base = ptb_idx * PTES_PER_PTB;
        PageTableBlock::new(std::array::from_fn(|i| self.entry(table, base + i)))
    }

    /// Table page `ppn`'s entries for writing, copied into the overlay on
    /// first write. `None` if `ppn` is not a table page.
    fn table_mut(&mut self, ppn: u64) -> Option<&mut Vec<Pte>> {
        if !self.tables.contains_key(&ppn) {
            let (depth, index) = self.pristine_at(ppn.checked_sub(self.cfg.table_region_base)?)?;
            let table = Table::Pristine { depth, index };
            let entries = (0..ENTRIES_PER_TABLE as usize).map(|i| self.entry(table, i)).collect();
            self.tables.insert(ppn, entries);
        }
        self.tables.get_mut(&ppn)
    }

    fn alloc_table(&mut self) -> u64 {
        let ppn = self.next_table_ppn;
        self.next_table_ppn += 1;
        self.tables.insert(ppn, vec![Pte::NOT_PRESENT; ENTRIES_PER_TABLE as usize]);
        ppn
    }

    /// The leaf level for this configuration (1, or 2 for huge pages).
    pub fn leaf_level(&self) -> u8 {
        if self.cfg.huge_pages {
            2
        } else {
            1
        }
    }

    /// Leaf PTE flags for requested `flags` (the page-size bit added for
    /// huge pages).
    fn leaf_flags(cfg: PageTableConfig, flags: PteFlags) -> PteFlags {
        if cfg.huge_pages {
            PteFlags::new(flags.low() | PteFlags::HUGE, flags.high())
        } else {
            flags
        }
    }

    /// Index of `vpn` within the table at `level`.
    fn index(vpn: Vpn, level: u8) -> usize {
        ((vpn.raw() >> (9 * (level as u64 - 1))) & (ENTRIES_PER_TABLE - 1)) as usize
    }

    /// Maps `vpn` → `ppn` with default (present, writable, accessed) flags.
    #[inline]
    pub fn map(&mut self, vpn: Vpn, ppn: Ppn) {
        if !self.extend_identity(vpn, ppn) {
            self.map_diverged(vpn, ppn, PteFlags::present_rw());
        }
    }

    /// Maps `vpn` → `ppn` with explicit leaf flags. With huge pages, `vpn`
    /// is interpreted as a 4 KiB VPN whose covering 2 MiB region is mapped
    /// (offset bits pass through).
    #[inline]
    pub fn map_with_flags(&mut self, vpn: Vpn, ppn: Ppn, flags: PteFlags) {
        if flags != PteFlags::present_rw() || !self.extend_identity(vpn, ppn) {
            self.map_diverged(vpn, ppn, flags);
        }
    }

    /// Maps the next identity page in O(1) by extending the closed-form
    /// prefix, if `vpn` → `ppn` is that page and no table has diverged.
    #[inline]
    fn extend_identity(&mut self, vpn: Vpn, ppn: Ppn) -> bool {
        let unit = vpn.raw() >> self.unit_shift();
        if unit != self.identity || ppn.raw() != unit << self.unit_shift() {
            return false;
        }
        if !self.tables.is_empty() {
            return false;
        }
        if unit.is_multiple_of(ENTRIES_PER_TABLE) {
            self.pristine_tables += self.born_at(unit >> FANOUT_BITS);
            self.next_table_ppn = self.cfg.table_region_base + self.pristine_tables;
        }
        self.identity += 1;
        self.mapped_pages += 1;
        true
    }

    /// The general `map`: walks from the root, allocating missing tables
    /// and copying every written table into the overlay.
    #[inline(never)]
    fn map_diverged(&mut self, vpn: Vpn, ppn: Ppn, flags: PteFlags) {
        let leaf = self.leaf_level();
        let unit = vpn.raw() >> self.unit_shift();
        let mut table = self.root().raw();
        for level in (leaf + 1..=4).rev() {
            let idx = Self::index(vpn, level);
            let depth = u32::from(level - leaf);
            let hint = (depth, unit >> (FANOUT_BITS * (depth + 1)));
            let entry = self.entry(self.resolve(table, Some(hint)).expect("table exists"), idx);
            table = if entry.is_present() {
                entry.ppn().raw()
            } else {
                let t = self.alloc_table();
                self.table_mut(table).expect("table exists")[idx] =
                    Pte::new(Ppn::new(t), PteFlags::present_rw());
                t
            };
        }
        let idx = Self::index(vpn, leaf);
        let leaf_flags = Self::leaf_flags(self.cfg, flags);
        let slot = &mut self.table_mut(table).expect("table exists")[idx];
        let newly_mapped = !slot.is_present();
        *slot = Pte::new(ppn, leaf_flags);
        if newly_mapped {
            self.mapped_pages += 1;
        }
    }

    /// Translates a VPN, if mapped. For huge pages the returned PPN is the
    /// base of the 2 MiB frame plus the VPN's low 9 bits.
    pub fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        let path = self.walk_path(vpn)?;
        let last = path.last().expect("non-empty path");
        if self.cfg.huge_pages {
            Some(Ppn::new(last.next_ppn.raw() + (vpn.raw() & 0x1ff)))
        } else {
            Some(last.next_ppn)
        }
    }

    /// The full walk path for `vpn`: one [`WalkStep`] per level from the
    /// root down to the leaf. `None` if `vpn` is unmapped.
    pub fn walk_path(&self, vpn: Vpn) -> Option<Vec<WalkStep>> {
        let mut buf = Vec::with_capacity(4);
        if self.walk_path_into(vpn, &mut buf) {
            Some(buf.into_iter().map(|(step, _)| step).collect())
        } else {
            None
        }
    }

    /// Allocation-free walk path: clears `out` and fills it with one
    /// `(step, ptb)` pair per level, root to leaf. Returns `false` (with
    /// `out` empty) if `vpn` is unmapped.
    ///
    /// Capturing the PTB while the walk already holds the table page saves
    /// the per-step [`ptb_at`](Self::ptb_at) table lookup the system model
    /// would otherwise do for every fetched step — together with the
    /// reused buffer, this takes the page-walk path out of the simulator's
    /// per-access allocation profile entirely.
    pub fn walk_path_into(&self, vpn: Vpn, out: &mut Vec<(WalkStep, PageTableBlock)>) -> bool {
        out.clear();
        let leaf = self.leaf_level();
        let unit = vpn.raw() >> self.unit_shift();
        let mut table = self.root().raw();
        for level in (leaf..=4).rev() {
            let idx = Self::index(vpn, level);
            let depth = u32::from(level - leaf);
            let hint = (depth, unit >> (FANOUT_BITS * (depth + 1)));
            let Some(resolved) = self.resolve(table, Some(hint)) else {
                out.clear();
                return false;
            };
            let entry = self.entry(resolved, idx);
            if !entry.is_present() {
                out.clear();
                return false;
            }
            out.push((
                WalkStep {
                    level,
                    ptb_block: Ppn::new(table).block(idx / PTES_PER_PTB),
                    slot: idx % PTES_PER_PTB,
                    next_ppn: entry.ppn(),
                },
                self.ptb(resolved, idx / PTES_PER_PTB),
            ));
            table = entry.ppn().raw();
        }
        true
    }

    /// The 64 B PTB at a physical block address, if it belongs to a table
    /// page — what the cache hierarchy returns to the walker and what TMCC
    /// compresses.
    pub fn ptb_at(&self, block: BlockAddr) -> Option<PageTableBlock> {
        let table = self.resolve(block.ppn().raw(), None)?;
        Some(self.ptb(table, block.index_in_page()))
    }

    /// Writes a whole PTB back (OS edits through the cache hierarchy).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not within a table page.
    pub fn write_ptb(&mut self, block: BlockAddr, ptb: &PageTableBlock) {
        let table = self.table_mut(block.ppn().raw()).expect("block belongs to a table page");
        let base = block.index_in_page() * PTES_PER_PTB;
        table[base..base + PTES_PER_PTB].copy_from_slice(ptb.entries());
    }

    /// Iterates over every PTB of every table page at `level` (4 = root) —
    /// the corpus for the paper's Fig. 6 status-bit survey.
    pub fn ptbs_at_level(&self, level: u8) -> Vec<(BlockAddr, PageTableBlock)> {
        let mut out = Vec::new();
        self.collect_ptbs(self.root().raw(), 4, 0, level, &mut out);
        out
    }

    /// Depth-first PTB collection below table `table` at level `cur`,
    /// whose position on the path from the root is `index`.
    fn collect_ptbs(
        &self,
        table: u64,
        cur: u8,
        index: u64,
        want: u8,
        out: &mut Vec<(BlockAddr, PageTableBlock)>,
    ) {
        let leaf = self.leaf_level();
        let Some(resolved) = self.resolve(table, Some((u32::from(cur - leaf), index))) else {
            return;
        };
        if cur == want {
            for ptb_idx in 0..(ENTRIES_PER_TABLE as usize / PTES_PER_PTB) {
                let ptb = self.ptb(resolved, ptb_idx);
                if ptb.entries().iter().any(|e| e.is_present()) {
                    out.push((Ppn::new(table).block(ptb_idx), ptb));
                }
            }
            return;
        }
        if cur > leaf {
            for idx in 0..ENTRIES_PER_TABLE as usize {
                let e = self.entry(resolved, idx);
                if e.is_present() {
                    let child = (index << FANOUT_BITS) | idx as u64;
                    self.collect_ptbs(e.ppn().raw(), cur - 1, child, want, out);
                }
            }
        }
    }

    /// Whether a physical page is a page-table page.
    pub fn is_table_page(&self, ppn: Ppn) -> bool {
        self.table_ppns().contains(&ppn.raw())
    }

    /// Number of 4 KiB table pages allocated.
    pub fn table_page_count(&self) -> usize {
        (self.next_table_ppn - self.cfg.table_region_base) as usize
    }

    /// The table pages' PPNs. Table pages are allocated sequentially from
    /// [`table_region_base`](Self::table_region_base), so they form this
    /// dense range — the property the core scheme's page slab indexes by.
    pub fn table_ppns(&self) -> Range<u64> {
        self.cfg.table_region_base..self.next_table_ppn
    }

    /// Number of leaf mappings installed.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// The root table's PPN (CR3).
    pub fn root(&self) -> Ppn {
        Ppn::new(self.cfg.table_region_base)
    }

    /// First PPN of the table-page region.
    pub fn table_region_base(&self) -> u64 {
        self.cfg.table_region_base
    }
}

/// `x / 2^shift`, rounded up.
fn div_ceil_shift(x: u64, shift: u32) -> u64 {
    (x >> shift) + u64::from(x & ((1 << shift) - 1) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_round_trip() {
        let mut pt = PageTable::new(PageTableConfig::default());
        for i in 0..100u64 {
            pt.map(Vpn::new(i * 7919), Ppn::new(i + 1));
        }
        for i in 0..100u64 {
            assert_eq!(pt.translate(Vpn::new(i * 7919)), Some(Ppn::new(i + 1)));
        }
        assert_eq!(pt.translate(Vpn::new(999_999_999)), None);
        assert_eq!(pt.mapped_pages(), 100);
    }

    #[test]
    fn walk_path_has_four_levels() {
        let mut pt = PageTable::new(PageTableConfig::default());
        pt.map(Vpn::new(0xABCDE), Ppn::new(5));
        let path = pt.walk_path(Vpn::new(0xABCDE)).unwrap();
        assert_eq!(path.iter().map(|s| s.level).collect::<Vec<_>>(), [4, 3, 2, 1]);
        assert_eq!(path.last().unwrap().next_ppn, Ppn::new(5));
        // Every step's PTB lives in a table page.
        for s in &path {
            assert!(pt.is_table_page(s.ptb_block.ppn()));
        }
    }

    #[test]
    fn adjacent_pages_share_leaf_ptb() {
        let mut pt = PageTable::new(PageTableConfig::default());
        pt.map(Vpn::new(64), Ppn::new(1));
        pt.map(Vpn::new(65), Ppn::new(2));
        pt.map(Vpn::new(72), Ppn::new(3)); // next PTB
        let a = pt.walk_path(Vpn::new(64)).unwrap().pop().unwrap();
        let b = pt.walk_path(Vpn::new(65)).unwrap().pop().unwrap();
        let c = pt.walk_path(Vpn::new(72)).unwrap().pop().unwrap();
        assert_eq!(a.ptb_block, b.ptb_block);
        assert_ne!(a.ptb_block, c.ptb_block);
        assert_eq!(a.slot, 0);
        assert_eq!(b.slot, 1);
    }

    #[test]
    fn huge_pages_walk_three_levels() {
        let mut pt = PageTable::new(PageTableConfig { huge_pages: true, ..Default::default() });
        // Map the 2 MiB region containing VPN 0x12345.
        pt.map(Vpn::new(0x12345), Ppn::new(0x4000));
        let path = pt.walk_path(Vpn::new(0x12345)).unwrap();
        assert_eq!(path.iter().map(|s| s.level).collect::<Vec<_>>(), [4, 3, 2]);
        // Translation adds the low 9 VPN bits onto the 2 MiB frame.
        assert_eq!(pt.translate(Vpn::new(0x12345)), Some(Ppn::new(0x4000 + (0x12345 & 0x1ff))));
        // The leaf PTE carries the page-size bit.
        let leaf = path.last().unwrap();
        let ptb = pt.ptb_at(leaf.ptb_block).unwrap();
        assert!(ptb.entry(leaf.slot).flags().is_huge());
    }

    #[test]
    fn ptb_fetch_matches_walk() {
        let mut pt = PageTable::new(PageTableConfig::default());
        pt.map(Vpn::new(1000), Ppn::new(11));
        let leaf = *pt.walk_path(Vpn::new(1000)).unwrap().last().unwrap();
        let ptb = pt.ptb_at(leaf.ptb_block).unwrap();
        assert_eq!(ptb.entry(leaf.slot).ppn(), Ppn::new(11));
    }

    #[test]
    fn write_ptb_round_trips() {
        let mut pt = PageTable::new(PageTableConfig::default());
        pt.map(Vpn::new(8), Ppn::new(1));
        let leaf = *pt.walk_path(Vpn::new(8)).unwrap().last().unwrap();
        let mut ptb = pt.ptb_at(leaf.ptb_block).unwrap();
        ptb.set_entry(3, Pte::new(Ppn::new(42), PteFlags::present_rw()));
        pt.write_ptb(leaf.ptb_block, &ptb);
        assert_eq!(pt.ptb_at(leaf.ptb_block).unwrap(), ptb);
        // VPN 11 (slot 3 of the same PTB) now translates.
        assert_eq!(pt.translate(Vpn::new(11)), Some(Ppn::new(42)));
    }

    #[test]
    fn fig6_corpus_uniform_by_default() {
        let mut pt = PageTable::new(PageTableConfig::default());
        for i in 0..4096u64 {
            pt.map(Vpn::new(i), Ppn::new(i * 3 + 7));
        }
        let l1 = pt.ptbs_at_level(1);
        assert!(!l1.is_empty());
        assert!(l1.iter().all(|(_, ptb)| ptb.uniform_status()));
        let l2 = pt.ptbs_at_level(2);
        assert!(!l2.is_empty());
    }

    #[test]
    fn table_region_clears_large_footprints() {
        let default = PageTableConfig::default().table_region_base;
        assert_eq!(PageTableConfig::above_data(1 << 20, false).table_region_base, default);
        assert_eq!(PageTableConfig::above_data(default, false).table_region_base, default);
        assert_eq!(PageTableConfig::above_data(1 << 28, false).table_region_base, 1 << 28);
        let huge = PageTableConfig::above_data(default + 1, true);
        assert_eq!(huge.table_region_base, default + 512);
        assert!(huge.huge_pages);
    }

    /// The eager page table the closed form replaces: every table page
    /// materialized in a map, allocated by a sequential `map` loop.
    mod eager {
        use super::*;

        pub struct EagerPageTable {
            huge_pages: bool,
            root: Ppn,
            tables: FxHashMap<u64, Vec<Pte>>,
            next_table_ppn: u64,
            mapped_pages: u64,
        }

        impl EagerPageTable {
            pub fn new(cfg: PageTableConfig) -> Self {
                let mut pt = Self {
                    huge_pages: cfg.huge_pages,
                    root: Ppn::new(cfg.table_region_base),
                    tables: FxHashMap::default(),
                    next_table_ppn: cfg.table_region_base,
                    mapped_pages: 0,
                };
                pt.root = pt.alloc_table();
                pt
            }

            /// What `System` construction used to do.
            pub fn identity(cfg: PageTableConfig, pages: u64) -> Self {
                let mut pt = Self::new(cfg);
                if cfg.huge_pages {
                    for region in 0..pages.div_ceil(512) {
                        pt.map(
                            Vpn::new(region * 512),
                            Ppn::new(region * 512),
                            PteFlags::present_rw(),
                        );
                    }
                } else {
                    for i in 0..pages {
                        pt.map(Vpn::new(i), Ppn::new(i), PteFlags::present_rw());
                    }
                }
                pt
            }

            fn alloc_table(&mut self) -> Ppn {
                let ppn = self.next_table_ppn;
                self.next_table_ppn += 1;
                self.tables.insert(ppn, vec![Pte::NOT_PRESENT; ENTRIES_PER_TABLE as usize]);
                Ppn::new(ppn)
            }

            fn leaf_level(&self) -> u8 {
                if self.huge_pages {
                    2
                } else {
                    1
                }
            }

            pub fn map(&mut self, vpn: Vpn, ppn: Ppn, flags: PteFlags) {
                let leaf = self.leaf_level();
                let mut table = self.root;
                for level in (leaf + 1..=4).rev() {
                    let idx = PageTable::index(vpn, level);
                    let entry = self.tables[&table.raw()][idx];
                    table = if entry.is_present() {
                        entry.ppn()
                    } else {
                        let t = self.alloc_table();
                        self.tables.get_mut(&table.raw()).unwrap()[idx] =
                            Pte::new(t, PteFlags::present_rw());
                        t
                    };
                }
                let idx = PageTable::index(vpn, leaf);
                let leaf_flags = if leaf == 2 {
                    PteFlags::new(flags.low() | PteFlags::HUGE, flags.high())
                } else {
                    flags
                };
                let slot = &mut self.tables.get_mut(&table.raw()).unwrap()[idx];
                if !slot.is_present() {
                    self.mapped_pages += 1;
                }
                *slot = Pte::new(ppn, leaf_flags);
            }

            pub fn walk_path(&self, vpn: Vpn) -> Option<Vec<WalkStep>> {
                let mut out = Vec::new();
                let mut table = self.root;
                for level in (self.leaf_level()..=4).rev() {
                    let idx = PageTable::index(vpn, level);
                    let entry = self.tables.get(&table.raw())?[idx];
                    if !entry.is_present() {
                        return None;
                    }
                    out.push(WalkStep {
                        level,
                        ptb_block: table.block(idx / PTES_PER_PTB),
                        slot: idx % PTES_PER_PTB,
                        next_ppn: entry.ppn(),
                    });
                    table = entry.ppn();
                }
                Some(out)
            }

            pub fn ptb_at(&self, block: BlockAddr) -> Option<PageTableBlock> {
                let table = self.tables.get(&block.ppn().raw())?;
                let base = block.index_in_page() * PTES_PER_PTB;
                Some(PageTableBlock::new(table[base..base + PTES_PER_PTB].try_into().unwrap()))
            }

            pub fn write_ptb(&mut self, block: BlockAddr, ptb: &PageTableBlock) {
                let table = self.tables.get_mut(&block.ppn().raw()).unwrap();
                let base = block.index_in_page() * PTES_PER_PTB;
                table[base..base + PTES_PER_PTB].copy_from_slice(ptb.entries());
            }

            pub fn ptbs_at_level(&self, level: u8) -> Vec<(BlockAddr, PageTableBlock)> {
                let mut out = Vec::new();
                self.collect(self.root, 4, level, &mut out);
                out
            }

            fn collect(
                &self,
                table: Ppn,
                cur: u8,
                want: u8,
                out: &mut Vec<(BlockAddr, PageTableBlock)>,
            ) {
                let Some(entries) = self.tables.get(&table.raw()) else {
                    return;
                };
                if cur == want {
                    for ptb_idx in 0..(ENTRIES_PER_TABLE as usize / PTES_PER_PTB) {
                        let ptb = self.ptb_at(table.block(ptb_idx)).unwrap();
                        if ptb.entries().iter().any(|e| e.is_present()) {
                            out.push((table.block(ptb_idx), ptb));
                        }
                    }
                    return;
                }
                if cur > self.leaf_level() {
                    for e in entries.iter().filter(|e| e.is_present()) {
                        self.collect(e.ppn(), cur - 1, want, out);
                    }
                }
            }

            pub fn is_table_page(&self, ppn: Ppn) -> bool {
                self.tables.contains_key(&ppn.raw())
            }

            pub fn table_page_count(&self) -> usize {
                self.tables.len()
            }

            pub fn mapped_pages(&self) -> u64 {
                self.mapped_pages
            }
        }
    }

    use eager::EagerPageTable;

    const DIFF_PAGES: [u64; 9] = [0, 1, 7, 8, 511, 512, 513, 512 * 512, 512 * 512 + 1];

    /// VPNs worth walking in a table over `pages`: all of a small one,
    /// else every span boundary plus a stride, and a few past the end.
    fn probe_vpns(pages: u64) -> Vec<u64> {
        let mut v: Vec<u64> = if pages <= 4096 {
            (0..pages + 600).collect()
        } else {
            (0..pages + 1100).step_by(97).collect()
        };
        for k in [511u64, 512, 513, 512 * 512 - 1, 512 * 512, 512 * 512 + 1] {
            v.extend([k, pages.saturating_sub(1), pages, pages + k]);
        }
        v.extend([1 << 27, (1 << 27) + 5, (1 << 36) - 1]);
        v
    }

    /// Every read of `pt` agrees with the eager model.
    fn assert_same(pt: &PageTable, eager: &EagerPageTable, pages: u64, what: &str) {
        assert_eq!(pt.table_page_count(), eager.table_page_count(), "{what}: table pages");
        assert_eq!(pt.mapped_pages(), eager.mapped_pages(), "{what}: mapped pages");
        for level in 1..=5u8 {
            assert_eq!(
                pt.ptbs_at_level(level),
                eager.ptbs_at_level(level),
                "{what}: level {level}"
            );
        }
        let base = pt.table_region_base();
        let end = base + pt.table_page_count() as u64;
        for ppn in [0, 1, base - 1, base, base + 1, end - 1, end, end + 1, 1 << 40] {
            assert_eq!(pt.is_table_page(Ppn::new(ppn)), eager.is_table_page(Ppn::new(ppn)));
            for b in [0, 1, 7, 63] {
                let block = Ppn::new(ppn).block(b);
                assert_eq!(pt.ptb_at(block), eager.ptb_at(block), "{what}: ptb {ppn:#x}/{b}");
            }
        }
        let mut buf = Vec::new();
        for vpn in probe_vpns(pages) {
            let vpn = Vpn::new(vpn);
            let want = eager.walk_path(vpn);
            assert_eq!(pt.walk_path(vpn), want, "{what}: walk {vpn:?}");
            assert_eq!(pt.walk_path_into(vpn, &mut buf), want.is_some());
            for (step, ptb) in &buf {
                assert_eq!(Some(*ptb), eager.ptb_at(step.ptb_block), "{what}: walked PTB");
            }
        }
    }

    #[test]
    fn closed_form_identity_matches_eager_builder() {
        for huge_pages in [false, true] {
            let cfg = PageTableConfig { huge_pages, ..Default::default() };
            for pages in DIFF_PAGES {
                let eager = EagerPageTable::identity(cfg, pages);
                let what = format!("{pages} pages, huge={huge_pages}");
                let closed = PageTable::identity(cfg, pages);
                assert!(closed.tables.is_empty(), "{what}: identity stores no table");
                assert_eq!(
                    PageTable::identity_table_pages(pages, huge_pages),
                    eager.table_page_count() as u64,
                    "{what}: closed-form count"
                );
                assert_same(&closed, &eager, pages, &what);
                // A sequential map loop extends the prefix instead of
                // storing tables.
                let mut looped = PageTable::new(cfg);
                if huge_pages {
                    for region in 0..pages.div_ceil(512) {
                        looped.map(Vpn::new(region * 512), Ppn::new(region * 512));
                    }
                } else {
                    for i in 0..pages {
                        looped.map(Vpn::new(i), Ppn::new(i));
                    }
                }
                assert!(looped.tables.is_empty(), "{what}: map loop stays closed-form");
                assert_same(&looped, &eager, pages, &what);
            }
        }
    }

    #[test]
    fn writes_after_identity_prefix_match_eager_builder() {
        for huge_pages in [false, true] {
            let cfg = PageTableConfig { huge_pages, ..Default::default() };
            for pages in [0, 1, 513, 512 * 512 + 1] {
                let what = format!("{pages} pages, huge={huge_pages}");
                let mut eager = EagerPageTable::identity(cfg, pages);
                let mut closed = PageTable::identity(cfg, pages);
                // Deterministic mix of maps (identity continuations,
                // remaps, far-away VPNs, odd flags) and PTB rewrites.
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ pages;
                for op in 0..300u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let vpn = match op % 4 {
                        0 => (pages + op) << if huge_pages { 9 } else { 0 },
                        1 => x % (pages.max(1) << if huge_pages { 9 } else { 0 }),
                        2 => x % (1 << 36),
                        _ => ((x % 4) << 27) | ((x >> 20) % 2048),
                    };
                    let path = eager.walk_path(Vpn::new(vpn));
                    if let (true, Some(path)) = (op % 7 == 3, path) {
                        // Rewrite one PTE on the walk: re-point the leaf,
                        // or dirty an upper-level entry (keeping its
                        // pointer, so later walks stay well-formed).
                        let step = path[(x >> 40) as usize % path.len()];
                        let mut ptb = eager.ptb_at(step.ptb_block).unwrap();
                        let old = ptb.entry(step.slot);
                        let (ppn, low) = if step.level == closed.leaf_level() {
                            (Ppn::new(x % 4096), PteFlags::PRESENT | PteFlags::DIRTY)
                        } else {
                            (old.ppn(), old.flags().low() | PteFlags::DIRTY)
                        };
                        ptb.set_entry(step.slot, Pte::new(ppn, PteFlags::new(low, 0)));
                        closed.write_ptb(step.ptb_block, &ptb);
                        eager.write_ptb(step.ptb_block, &ptb);
                    } else {
                        let flags = if op % 5 == 0 {
                            PteFlags::new(PteFlags::PRESENT | PteFlags::USER, 1)
                        } else {
                            PteFlags::present_rw()
                        };
                        let ppn = if op % 3 == 0 { vpn } else { x % 1_000_000 };
                        closed.map_with_flags(Vpn::new(vpn), Ppn::new(ppn), flags);
                        eager.map(Vpn::new(vpn), Ppn::new(ppn), flags);
                    }
                }
                assert!(!closed.tables.is_empty(), "{what}: writes diverge the table");
                assert_same(&closed, &eager, pages, &what);
            }
        }
    }
}
