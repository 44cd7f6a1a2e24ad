//! TMCC's CTE buffer (paper §V-A3, Fig. 10).
//!
//! When the page walker fetches a compressed PTB, L2 copies every embedded
//! CTE into this small temporary buffer, keyed by the PPN each PTE records.
//! When L2 later sees another request (the next walk step or the end
//! data/instruction access), it looks the request's PPN up here and
//! piggybacks the CTE down the hierarchy so the memory controller can
//! launch the speculative parallel DRAM access.
//!
//! Each entry also remembers the physical address of the PTE the CTE came
//! from (its PTB block plus the slot within it), so that when the
//! *correct* CTE comes back in the response, L2 can lazily repair a stale
//! embedded CTE in the PTB (§V-A2's lazy update). The entry is the only
//! record of that location: a page whose entry has been evicted or
//! flushed is not repaired.

use crate::cache::SetAssocCache;
use tmcc_types::addr::{BlockAddr, Ppn};
use tmcc_types::cte::TruncatedCte;

/// One CTE-buffer entry (Fig. 10: PPN key → embedded CTE + PTE address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CteBufferEntry {
    /// The embedded CTE for this PPN, if the PTB had one for this slot.
    pub cte: Option<TruncatedCte>,
    /// The PTB the entry came from (for lazy repair).
    pub ptb_block: BlockAddr,
    /// The PTE's slot within that PTB.
    pub pte_slot: usize,
}

/// The 64-entry CTE buffer (~1 KiB, §V-A6).
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::CteBuffer;
/// use tmcc_types::addr::{BlockAddr, Ppn};
/// use tmcc_types::cte::TruncatedCte;
///
/// let mut buf = CteBuffer::paper_default();
/// buf.insert(Ppn::new(5), Some(TruncatedCte::new(123)), BlockAddr::new(900), 3);
/// let e = buf.lookup(Ppn::new(5)).expect("present");
/// assert_eq!(e.cte.unwrap().frame(), 123);
/// ```
#[derive(Debug, Clone)]
pub struct CteBuffer {
    entries: SetAssocCache<CteBufferEntry>,
}

impl CteBuffer {
    /// Creates a buffer with `entries` slots.
    pub fn new(entries: usize) -> Self {
        Self { entries: SetAssocCache::fully_associative(entries) }
    }

    /// The paper's 64-entry buffer.
    pub fn paper_default() -> Self {
        Self::new(64)
    }

    /// Inserts (or replaces) the entry for `ppn`, harvested from slot
    /// `pte_slot` of the PTB at `ptb_block`.
    pub fn insert(
        &mut self,
        ppn: Ppn,
        cte: Option<TruncatedCte>,
        ptb_block: BlockAddr,
        pte_slot: usize,
    ) {
        let entry = CteBufferEntry { cte, ptb_block, pte_slot };
        if let Some(resident) = self.entries.payload_mut(ppn.raw()) {
            *resident = entry;
        }
        let _ = self.entries.access(ppn.raw(), false, entry); // fill or touch LRU
    }

    /// Looks up the entry for `ppn` (recency-updating).
    pub fn lookup(&mut self, ppn: Ppn) -> Option<CteBufferEntry> {
        let e = *self.entries.payload(ppn.raw())?;
        let _ = self.entries.access(ppn.raw(), false, e);
        Some(e)
    }

    /// Stores the verified CTE into an existing entry (the response path
    /// of §V-A3: "L2 stores the correct CTE into the entry"). Returns the
    /// PTE to repair, as `(PTB block, slot)`, when the entry existed and
    /// disagreed.
    pub fn reconcile(&mut self, ppn: Ppn, correct: TruncatedCte) -> Option<(BlockAddr, usize)> {
        let entry = self.entries.payload_mut(ppn.raw())?;
        let stale = entry.cte != Some(correct);
        entry.cte = Some(correct);
        stale.then_some((entry.ptb_block, entry.pte_slot))
    }

    /// Drops every entry (a flush storm).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.iter().count()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_round_trip() {
        let mut buf = CteBuffer::new(4);
        buf.insert(Ppn::new(1), Some(TruncatedCte::new(10)), BlockAddr::new(100), 0);
        buf.insert(Ppn::new(2), None, BlockAddr::new(200), 1);
        assert_eq!(buf.lookup(Ppn::new(1)).unwrap().cte, Some(TruncatedCte::new(10)));
        assert_eq!(buf.lookup(Ppn::new(2)).unwrap().cte, None);
        assert!(buf.lookup(Ppn::new(3)).is_none());
    }

    #[test]
    fn capacity_is_bounded() {
        let mut buf = CteBuffer::new(64);
        for i in 0..100u64 {
            buf.insert(Ppn::new(i), None, BlockAddr::new(i), 0);
        }
        assert_eq!(buf.len(), 64);
    }

    #[test]
    fn reconcile_reports_stale_ptb() {
        let mut buf = CteBuffer::new(4);
        buf.insert(Ppn::new(7), Some(TruncatedCte::new(1)), BlockAddr::new(70), 5);
        // Correct CTE disagrees: the PTE at (block, slot) needs repair.
        assert_eq!(buf.reconcile(Ppn::new(7), TruncatedCte::new(2)), Some((BlockAddr::new(70), 5)));
        // Now it agrees: no repair.
        assert_eq!(buf.reconcile(Ppn::new(7), TruncatedCte::new(2)), None);
        assert_eq!(buf.lookup(Ppn::new(7)).unwrap().cte, Some(TruncatedCte::new(2)));
        // A later fetch from another PTB moves the recorded PTE with it.
        buf.insert(Ppn::new(7), Some(TruncatedCte::new(2)), BlockAddr::new(71), 2);
        assert_eq!(buf.reconcile(Ppn::new(7), TruncatedCte::new(3)), Some((BlockAddr::new(71), 2)));
    }

    #[test]
    fn reconcile_missing_entry_is_none() {
        let mut buf = CteBuffer::new(4);
        assert_eq!(buf.reconcile(Ppn::new(9), TruncatedCte::new(1)), None);
    }

    #[test]
    fn entry_with_no_cte_reconciles_to_repair() {
        // "if the CTE Buffer entry ... has no CTE, L2 stores the correct
        // CTE into the entry and ... updates the PTB" (§V-A3).
        let mut buf = CteBuffer::new(4);
        buf.insert(Ppn::new(3), None, BlockAddr::new(30), 7);
        assert_eq!(buf.reconcile(Ppn::new(3), TruncatedCte::new(5)), Some((BlockAddr::new(30), 7)));
    }
}
