//! The ML1 Recency List (paper §IV-B).
//!
//! A doubly linked list of the pages resident in ML1, hottest at the head,
//! coldest at the tail. To keep hardware cost low the paper updates it for
//! only **1 % of randomly chosen ML1 accesses**; victims for eviction to
//! ML2 come from the cold tail. Incompressible pages are *removed* from
//! the list (so ML1 stops trying to evict them) and re-enter with 1 %
//! probability after a writeback (§IV-B).
//!
//! The list is intrusive over a dense slab: page numbers index link
//! slots directly, exactly as the hardware table indexes DRAM by page
//! frame, so every touch/unlink is a few array loads — no hashing.
//! Callers hand in physical page numbers from the simulator's dense
//! data-page range.
//!
//! # The initial chain and the overlay
//!
//! The two-level schemes start the list holding pages `0` (hottest) to
//! `len − 1` (coldest) in index order ([`RecencyList::with_initial_chain`]).
//! Those links are implicit: a *pristine* node `i` of the chain has
//! neighbours `i − 1` and `i + 1`. Nodes live in a copy-on-write overlay
//! — a directory of 64-node leaves, each allocated on first write — and a
//! node is copied into it, with its membership, the first time an unlink
//! or insert writes it or a neighbour's link to it. A pristine node's
//! implicit links stay true: they change only when a neighbour is
//! unlinked or inserted next to it, and both write the node. So a list
//! over millions of ML1 pages costs only the nodes that moved.
//!
//! The list costs real DRAM — 0.4 % of capacity (§V-A6) — accounted by
//! [`RecencyList::dram_overhead_bytes`].

use crate::paged::Paged;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tmcc_types::addr::Ppn;

/// The paper's hardware sampling probability: 1 % of ML1 accesses update
/// the list (§IV-B). Hardware runs billions of accesses, so 1 % sampling
/// converges; scaled-down simulations should use
/// [`RecencyList::with_probability`] to keep the *list quality* (samples
/// per resident page) comparable — see `SystemConfig::recency_sample`.
pub const SAMPLE_PROBABILITY: f64 = 0.01;

/// Sentinel link value ("no neighbour").
const NIL: u32 = u32::MAX;

/// Nodes per overlay leaf.
const LEAF: usize = 64;

/// One overlay node: intrusive links plus membership. The default (all
/// zero, `materialized` false) marks a node the overlay does not hold.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    prev: u32, // towards head
    next: u32, // towards tail
    present: bool,
    materialized: bool,
}

impl Node {
    const ABSENT: Node = Node { prev: NIL, next: NIL, present: false, materialized: false };
}

/// The recency list.
///
/// # Examples
///
/// ```
/// use tmcc::RecencyList;
/// use tmcc_types::addr::Ppn;
///
/// let mut rl = RecencyList::new(7);
/// rl.insert_hot(Ppn::new(1));
/// rl.insert_hot(Ppn::new(2));
/// assert_eq!(rl.coldest(), Some(Ppn::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct RecencyList {
    /// Nodes written since construction, indexed by page number.
    nodes: Paged<Node, LEAF>,
    /// Length of the implicit initial chain `0..chain`.
    chain: u32,
    head: u32, // hottest (NIL when empty)
    tail: u32, // coldest (NIL when empty)
    len: usize,
    rng: SmallRng,
    sample_prob: f64,
}

impl RecencyList {
    /// Creates an empty list with the paper's 1 % sampling.
    pub fn new(seed: u64) -> Self {
        Self::with_probability(seed, SAMPLE_PROBABILITY)
    }

    /// Creates an empty list with a custom sampling probability (used by
    /// scaled-down simulations to keep samples-per-page comparable to a
    /// full-length hardware run).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < sample_prob <= 1`.
    pub fn with_probability(seed: u64, sample_prob: f64) -> Self {
        assert!(sample_prob > 0.0 && sample_prob <= 1.0, "sampling probability must be in (0, 1]");
        Self {
            nodes: Paged::new(),
            chain: 0,
            head: NIL,
            tail: NIL,
            len: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0xDECAF),
            sample_prob,
        }
    }

    /// Fills an empty list with pages `0` (hottest) to `pages − 1`
    /// (coldest) — the list `insert_hot` of pages `pages − 1` down to `0`
    /// leaves — in O(1): the chain's links are implicit.
    ///
    /// # Panics
    ///
    /// Panics if the list is not empty or `pages` reaches the link
    /// sentinel.
    pub fn with_initial_chain(mut self, pages: u32) -> Self {
        assert!(self.len == 0 && self.chain == 0, "the initial chain needs an empty list");
        assert!(pages < NIL, "chain of {pages} pages overflows the link range");
        if pages > 0 {
            self.chain = pages;
            self.head = 0;
            self.tail = pages - 1;
            self.len = pages as usize;
        }
        self
    }

    /// Slab index of `page`.
    ///
    /// # Panics
    ///
    /// Panics if the page number cannot index the slab (the simulator's
    /// trackable pages are dense small indices by construction).
    #[inline]
    fn key(page: Ppn) -> u32 {
        let raw = page.raw();
        assert!(raw < NIL as u64, "page {raw:#x} out of the recency slab's dense index range");
        raw as u32
    }

    /// Node `key` as the list sees it: the overlay's copy, the implicit
    /// chain's, or absent.
    #[inline]
    fn node(&self, key: u32) -> Node {
        match self.nodes.get(key as usize) {
            Some(n) if n.materialized => *n,
            _ if key < self.chain => Node {
                prev: key.checked_sub(1).unwrap_or(NIL),
                next: if key + 1 == self.chain { NIL } else { key + 1 },
                present: true,
                materialized: false,
            },
            _ => Node::ABSENT,
        }
    }

    /// Node `key` in the overlay, copied there first if it is not.
    fn node_mut(&mut self, key: u32) -> &mut Node {
        let current = self.node(key);
        let node = self.nodes.entry(key as usize);
        if !node.materialized {
            *node = Node { materialized: true, ..current };
        }
        node
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list tracks nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `page` is tracked.
    pub fn contains(&self, page: Ppn) -> bool {
        self.node(Self::key(page)).present
    }

    /// Unconditionally inserts/moves `page` to the hot end.
    pub fn insert_hot(&mut self, page: Ppn) {
        let key = Self::key(page);
        if self.node(key).present {
            self.unlink(key);
            self.len -= 1;
        }
        let old_head = self.head;
        *self.node_mut(key) = Node { prev: NIL, next: old_head, present: true, materialized: true };
        if old_head != NIL {
            self.node_mut(old_head).prev = key;
        }
        self.head = key;
        if self.tail == NIL {
            self.tail = key;
        }
        self.len += 1;
    }

    /// Called on every ML1 access: with 1 % probability, moves the page to
    /// the hot end (inserting it if untracked). Returns whether the update
    /// fired (for stats).
    pub fn on_access(&mut self, page: Ppn) -> bool {
        if self.rng.gen::<f64>() < self.sample_prob {
            self.insert_hot(page);
            true
        } else {
            false
        }
    }

    /// Called when a writeback hits a page marked incompressible: with 1 %
    /// probability the page re-enters the list (§IV-B: "ML1 adds an
    /// incompressible page back to the Recency List at 1% probability
    /// after a writeback"). Returns whether it re-entered.
    pub fn on_incompressible_writeback(&mut self, page: Ppn) -> bool {
        if self.rng.gen::<f64>() < self.sample_prob {
            self.insert_hot(page);
            true
        } else {
            false
        }
    }

    /// The coldest tracked page.
    pub fn coldest(&self) -> Option<Ppn> {
        if self.tail == NIL {
            None
        } else {
            Some(Ppn::new(self.tail as u64))
        }
    }

    /// Removes and returns the coldest page (the eviction victim).
    pub fn pop_coldest(&mut self) -> Option<Ppn> {
        let t = self.tail;
        if t == NIL {
            return None;
        }
        self.unlink(t);
        self.node_mut(t).present = false;
        self.len -= 1;
        Some(Ppn::new(t as u64))
    }

    /// Removes `page` (e.g., when found incompressible, or migrated away).
    pub fn remove(&mut self, page: Ppn) -> bool {
        let key = Self::key(page);
        if self.node(key).present {
            self.unlink(key);
            self.node_mut(key).present = false;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    fn unlink(&mut self, key: u32) {
        let node = self.node(key);
        debug_assert!(node.present, "unlinking an untracked slot");
        match node.prev {
            NIL => self.head = node.next,
            p => self.node_mut(p).next = node.next,
        }
        match node.next {
            NIL => self.tail = node.prev,
            n => self.node_mut(n).prev = node.prev,
        }
    }

    /// Pages from coldest to hottest (diagnostics; O(n)).
    pub fn cold_to_hot(&self) -> Vec<Ppn> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.tail;
        while cur != NIL {
            out.push(Ppn::new(cur as u64));
            cur = self.node(cur).prev;
        }
        out
    }

    /// DRAM cost of the list for a machine with `total_pages` ML1-capable
    /// pages: two 8-byte pointers + an 8-byte PPN per element ≈ 0.4 % of
    /// DRAM (§V-A6).
    pub fn dram_overhead_bytes(total_pages: u64) -> u64 {
        total_pages * 16
    }

    /// Host heap bytes the list occupies (the node overlay).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_lru() {
        let mut rl = RecencyList::new(1);
        for p in 1..=4u64 {
            rl.insert_hot(Ppn::new(p));
        }
        assert_eq!(rl.cold_to_hot(), vec![Ppn::new(1), Ppn::new(2), Ppn::new(3), Ppn::new(4)]);
        rl.insert_hot(Ppn::new(1)); // re-touch the coldest
        assert_eq!(rl.coldest(), Some(Ppn::new(2)));
    }

    #[test]
    fn pop_coldest_drains_in_order() {
        let mut rl = RecencyList::new(1);
        for p in 0..5u64 {
            rl.insert_hot(Ppn::new(p));
        }
        let drained: Vec<u64> = std::iter::from_fn(|| rl.pop_coldest().map(|p| p.raw())).collect();
        assert_eq!(drained, [0, 1, 2, 3, 4]);
        assert!(rl.is_empty());
    }

    #[test]
    fn remove_middle_keeps_links() {
        let mut rl = RecencyList::new(1);
        for p in 0..3u64 {
            rl.insert_hot(Ppn::new(p));
        }
        assert!(rl.remove(Ppn::new(1)));
        assert_eq!(rl.cold_to_hot(), vec![Ppn::new(0), Ppn::new(2)]);
        assert!(!rl.remove(Ppn::new(1)));
    }

    #[test]
    fn sampling_rate_is_about_one_percent() {
        let mut rl = RecencyList::new(99);
        let mut fired = 0;
        for i in 0..100_000u64 {
            if rl.on_access(Ppn::new(i % 64)) {
                fired += 1;
            }
        }
        let rate = fired as f64 / 100_000.0;
        assert!((rate - 0.01).abs() < 0.004, "sample rate {rate}");
    }

    #[test]
    fn single_element_list() {
        let mut rl = RecencyList::new(1);
        rl.insert_hot(Ppn::new(9));
        assert_eq!(rl.coldest(), Some(Ppn::new(9)));
        assert_eq!(rl.pop_coldest(), Some(Ppn::new(9)));
        assert_eq!(rl.pop_coldest(), None);
        assert_eq!(rl.coldest(), None);
    }

    #[test]
    fn reinsert_after_pop_is_tracked_again() {
        let mut rl = RecencyList::new(1);
        rl.insert_hot(Ppn::new(3));
        rl.insert_hot(Ppn::new(4));
        assert_eq!(rl.pop_coldest(), Some(Ppn::new(3)));
        assert!(!rl.contains(Ppn::new(3)));
        rl.insert_hot(Ppn::new(3));
        assert!(rl.contains(Ppn::new(3)));
        assert_eq!(rl.cold_to_hot(), vec![Ppn::new(4), Ppn::new(3)]);
    }

    #[test]
    fn overhead_is_0_4_percent() {
        // 16 B per 4096 B page = 0.39 %.
        let pages = 1_000_000u64;
        let frac = RecencyList::dram_overhead_bytes(pages) as f64 / (pages * 4096) as f64;
        assert!((frac - 0.004).abs() < 0.001);
    }
}
