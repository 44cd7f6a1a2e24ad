//! The hardware page walker with a per-core page-walk cache.
//!
//! On a TLB miss the walker traverses the page table. A small page-walk
//! cache (PWC — 1 KiB per core in the paper's Table III, "similar to
//! \[23\]") holds upper-level translations so most walks skip straight to
//! the lower levels; the PTB fetches that remain are issued to the cache
//! hierarchy by the caller, which is where TMCC's embedded CTEs pay off
//! (Fig. 12a).

use crate::cache::SetAssocCache;
use crate::page_table::{PageTable, WalkStep};
use tmcc_types::addr::{Ppn, Vpn};
use tmcc_types::pte::PageTableBlock;

/// Result of one page walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkResult {
    /// The steps whose PTB the walker actually had to fetch from the
    /// memory system (upper levels may be skipped via PWC hits).
    pub fetched: Vec<WalkStep>,
    /// Steps resolved from the PWC without a memory access.
    pub pwc_hits: u32,
    /// The final translation.
    pub ppn: Ppn,
}

/// The page walker.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::{PageTable, PageTableConfig, PageWalker};
/// use tmcc_types::addr::{Ppn, Vpn};
///
/// let mut pt = PageTable::new(PageTableConfig::default());
/// pt.map(Vpn::new(10), Ppn::new(3));
/// pt.map(Vpn::new(11), Ppn::new(4));
/// let mut walker = PageWalker::paper_default();
/// let first = walker.walk(&pt, Vpn::new(10)).expect("mapped");
/// assert_eq!(first.ppn, Ppn::new(3));
/// assert_eq!(first.fetched.len(), 4);
/// // A second walk nearby skips the upper levels via the PWC.
/// let again = walker.walk(&pt, Vpn::new(11)).expect("mapped");
/// assert_eq!(again.fetched.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PageWalker {
    /// PWC keyed by `(level, table-relative prefix)`; payload is unused —
    /// a hit means "the walker already knows the level-N table pointer".
    pwc: SetAssocCache<()>,
}

impl PageWalker {
    /// Creates a walker whose PWC holds `pwc_entries` upper-level entries.
    pub fn new(pwc_entries: usize) -> Self {
        Self { pwc: SetAssocCache::fully_associative(pwc_entries) }
    }

    /// The paper's 1 KiB PWC: 64 entries of 16 B.
    pub fn paper_default() -> Self {
        Self::new(64)
    }

    /// PWC key for the entry *produced* by the step at `level` (i.e. the
    /// pointer to the level-`level - 1` table).
    fn pwc_key(vpn: Vpn, level: u8) -> u64 {
        // Prefix covering this table pointer, tagged with the level.
        (vpn.raw() >> (9 * (level as u64 - 1))) << 3 | level as u64
    }

    /// Walks the table for `vpn`. Returns `None` for unmapped addresses.
    ///
    /// Upper-level steps whose translations hit in the PWC are skipped; the
    /// remaining steps (always at least the leaf) are returned in
    /// root-to-leaf order for the caller to issue to the cache hierarchy.
    pub fn walk(&mut self, table: &PageTable, vpn: Vpn) -> Option<WalkResult> {
        let mut buf = Vec::with_capacity(4);
        let (ppn, pwc_hits) = self.walk_into(table, vpn, &mut buf)?;
        Some(WalkResult { fetched: buf.into_iter().map(|(step, _)| step).collect(), pwc_hits, ppn })
    }

    /// Allocation-free walk: clears `out` and fills it with the steps the
    /// walker actually fetches (PWC-skipped upper levels excluded), each
    /// paired with its PTB. Returns the final translation and the PWC hit
    /// count, or `None` (with `out` empty) for unmapped addresses.
    ///
    /// The hot per-TLB-miss path of the system model: with a caller-owned
    /// scratch buffer it performs no heap allocation and no extra
    /// page-table lookups.
    pub fn walk_into(
        &mut self,
        table: &PageTable,
        vpn: Vpn,
        out: &mut Vec<(WalkStep, PageTableBlock)>,
    ) -> Option<(Ppn, u32)> {
        if !table.walk_path_into(vpn, out) {
            return None;
        }
        // A degenerate (empty) path is an unmapped address, not a crash.
        let leaf_level = out.last()?.0.level;
        // Find the deepest level whose *table pointer* the PWC knows: we
        // can start fetching below it.
        let mut start_idx = 0;
        let mut pwc_hits = 0;
        for (i, (step, _)) in out.iter().enumerate() {
            if step.level == leaf_level {
                break; // the leaf PTB itself is never skipped
            }
            if self.pwc.contains(Self::pwc_key(vpn, step.level)) {
                // Touch for LRU.
                let _ = self.pwc.access(Self::pwc_key(vpn, step.level), false, ());
                pwc_hits += 1;
                start_idx = i + 1;
            } else {
                break;
            }
        }
        // Install the pointers produced by the steps we did fetch.
        for (step, _) in &out[start_idx..] {
            if step.level != leaf_level {
                let _ = self.pwc.access(Self::pwc_key(vpn, step.level), false, ());
            }
        }
        let ppn = out.last()?.0.next_ppn;
        out.drain(..start_idx);
        Some((ppn, pwc_hits))
    }

    /// Clears the PWC (context switch).
    pub fn flush(&mut self) {
        self.pwc.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::PageTableConfig;

    fn table_with(n: u64) -> PageTable {
        let mut pt = PageTable::new(PageTableConfig::default());
        for i in 0..n {
            pt.map(Vpn::new(i), Ppn::new(i + 100));
        }
        pt
    }

    #[test]
    fn cold_walk_fetches_everything() {
        let pt = table_with(16);
        let mut w = PageWalker::paper_default();
        let r = w.walk(&pt, Vpn::new(0)).unwrap();
        assert_eq!(r.fetched.len(), 4);
        assert_eq!(r.pwc_hits, 0);
    }

    #[test]
    fn warm_walk_fetches_only_leaf() {
        let pt = table_with(64);
        let mut w = PageWalker::paper_default();
        let _ = w.walk(&pt, Vpn::new(0)).unwrap();
        let r = w.walk(&pt, Vpn::new(63)).unwrap();
        assert_eq!(r.fetched.len(), 1, "only the leaf PTB should be fetched");
        assert_eq!(r.fetched[0].level, 1);
        assert_eq!(r.pwc_hits, 3);
        assert_eq!(r.ppn, Ppn::new(163));
    }

    #[test]
    fn distant_vpn_misses_lower_pwc_levels() {
        let mut pt = table_with(1);
        // VPN 2^18 lives in a different L2 *table* (each L2 table covers
        // 512 x 512 pages), so only the L4 pointer is shared.
        pt.map(Vpn::new(1 << 18), Ppn::new(999));
        let mut w = PageWalker::paper_default();
        let _ = w.walk(&pt, Vpn::new(0)).unwrap();
        let r = w.walk(&pt, Vpn::new(1 << 18)).unwrap();
        assert_eq!(r.fetched.len(), 3, "L3 + L2 + leaf must be fetched");
        assert_eq!(r.fetched[0].level, 3);
        assert_eq!(r.pwc_hits, 1);
        // A VPN in the same L1 table (within 512 pages) fetches only the
        // leaf PTB.
        pt.map(Vpn::new((1 << 18) + 8), Ppn::new(1000));
        let r2 = w.walk(&pt, Vpn::new((1 << 18) + 8)).unwrap();
        assert_eq!(r2.fetched.len(), 1);
    }

    #[test]
    fn unmapped_returns_none() {
        let pt = table_with(1);
        let mut w = PageWalker::paper_default();
        assert!(w.walk(&pt, Vpn::new(1 << 30)).is_none());
    }

    #[test]
    fn flush_forgets_pointers() {
        let pt = table_with(8);
        let mut w = PageWalker::paper_default();
        let _ = w.walk(&pt, Vpn::new(0));
        w.flush();
        let r = w.walk(&pt, Vpn::new(1)).unwrap();
        assert_eq!(r.fetched.len(), 4);
    }
}
