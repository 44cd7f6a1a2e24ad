//! Hardware free lists (paper §II, §IV-B, Fig. 3).
//!
//! Three flavours:
//!
//! * [`CompressoFreeList`] — the prior-work list of free 512 B chunks
//!   (Fig. 3a); pointers live "for free" inside free chunks, so the list
//!   costs no DRAM.
//! * [`Ml1FreeList`] — the same structure scaled to 4 KiB chunks for ML1
//!   (Fig. 3b).
//! * [`Ml2FreeLists`] — one list per sub-chunk size class (Fig. 3c). Free
//!   space for ML2 is created by carving *super-chunks* (groups of `M`
//!   interlinked 4 KiB chunks) into `N` equal sub-chunks, choosing `N, M`
//!   to minimize `(4KB · M) mod N` waste; when every sub-chunk of a
//!   super-chunk frees up, its chunks return to ML1 (the "ML2 gracefully
//!   shrinks" behaviour of §IV-A).
//!
//! # Representation
//!
//! Both list flavours are succinct so metadata stays kilobytes at
//! datacenter-scale footprints while popping/pushing in *exactly* the
//! order the original `Vec`/`VecDeque` representations did (frame order
//! determines DRAM addresses and therefore bank timing, so the pop
//! sequence is part of the determinism contract):
//!
//! * [`ChunkFreeList`] splits its free set into a *fresh watermark* — the
//!   never-yet-popped run `[fresh_next, fresh_end)`, which costs zero
//!   bytes — and a LIFO *spill* of explicitly returned chunks, shadowed
//!   by a [`BitVec`] free-map that makes the double-free audit O(1)
//!   instead of an O(n) scan.
//! * Each [`Ml2FreeLists`] super-chunk threads its free slots through an
//!   inline singly-linked list (`free_head` + one `u8` next-pointer per
//!   slot, exactly `N` bytes, `N ≤ 128`) with a `u128` occupancy mask for
//!   O(1) double-free detection. Head insertion/removal reproduces the
//!   old `VecDeque` `push_front`/`pop_front` byte for byte, and the
//!   fixed-size table cannot retain drained capacity across
//!   `PoolShrink`/`PoolGrow` churn the way a `VecDeque` did.
//!
//! * The super-chunks themselves sit in a copy-on-write overlay over the
//!   construction-time carve. A scheme's initial state carves every
//!   super-chunk from the fresh run, in order, so each one's chunks are
//!   contiguous and all but each class's last one are full; the carve
//!   repeats every window of the placement walk, so one window's table
//!   gives any id's first chunk and class (`placement::Carves`) with no
//!   per-super-chunk table. A *pristine* super-chunk materializes into
//!   the overlay (a directory of 16-super-chunk leaves, each allocated on
//!   first write) on its first free, as a full super-chunk with chunks
//!   `first..first + M` — exact, because the slot table of an allocated
//!   slot is never read before a free writes it. Each class's partial
//!   last super-chunk is materialized up front (at most one per class).
//!   Id reuse and the per-class `avail` stacks are unchanged.
//!
//! All three enforce the conservation invariant — a chunk is never in two
//! places at once — which the property tests exercise.

use crate::error::TmccError;
use crate::paged::Paged;
use crate::placement::Carves;
use tmcc_types::bitvec::BitVec;

/// A simple LIFO free list of uniform chunks, used for Compresso's 512 B
/// chunks and ML1's 4 KiB chunks.
///
/// Chunks are identified by index (chunk number within the managed
/// region). Push/pop at the top mirrors the paper's "push to / pop from
/// the top of the Free List".
#[derive(Debug, Clone, Default)]
pub struct ChunkFreeList {
    /// First never-popped chunk of the fresh run.
    fresh_next: u32,
    /// One past the last chunk of the fresh run.
    fresh_end: u32,
    /// Explicitly returned chunks, popped LIFO before the fresh run.
    spill: Vec<u32>,
    /// Free-map over the spill (bit set = chunk is in `spill`); the fresh
    /// run is implicit in the watermark, so an all-fresh list costs no
    /// bitmap bits at all.
    spill_map: BitVec,
}

impl ChunkFreeList {
    /// Creates a list owning chunks `0..chunks`.
    pub fn with_chunks(chunks: u32) -> Self {
        Self { fresh_next: 0, fresh_end: chunks, spill: Vec::new(), spill_map: BitVec::new() }
    }

    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a free chunk from the top, if any: the most recently pushed
    /// chunk first, then the fresh run in ascending order.
    pub fn pop(&mut self) -> Option<u32> {
        if let Some(c) = self.spill.pop() {
            self.spill_map.clear(c as usize);
            Some(c)
        } else if self.fresh_next < self.fresh_end {
            let c = self.fresh_next;
            self.fresh_next += 1;
            Some(c)
        } else {
            None
        }
    }

    /// Pops `n` chunks off the fresh run at once — the state `n` pops of
    /// a list with an empty spill leave behind.
    ///
    /// # Panics
    ///
    /// Panics if the spill is not empty or the fresh run is shorter than
    /// `n`.
    pub(crate) fn advance_fresh(&mut self, n: u32) {
        assert!(self.spill.is_empty(), "fresh-run pops need an empty spill");
        assert!(n <= self.fresh_end - self.fresh_next, "fresh run shorter than {n}");
        self.fresh_next += n;
    }

    /// Returns a chunk to the top.
    pub fn push(&mut self, chunk: u32) {
        debug_assert!(!self.is_free(chunk), "chunk {chunk} double-freed");
        self.spill_map.grow(chunk as usize + 1);
        self.spill_map.set(chunk as usize);
        self.spill.push(chunk);
    }

    /// Whether `chunk` is currently free (in the fresh run or the spill).
    pub fn is_free(&self, chunk: u32) -> bool {
        (self.fresh_next..self.fresh_end).contains(&chunk)
            || ((chunk as usize) < self.spill_map.len() && self.spill_map.get(chunk as usize))
    }

    /// Number of free chunks.
    pub fn len(&self) -> usize {
        (self.fresh_end - self.fresh_next) as usize + self.spill.len()
    }

    /// Whether no chunks are free.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes owned by the list (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.spill.capacity() * std::mem::size_of::<u32>() + self.spill_map.heap_bytes()
    }

    /// Drops excess capacity left behind by a drain (pool-shrink hygiene:
    /// a drained list should not pin its peak-size allocation).
    pub fn shrink_to_fit(&mut self) {
        self.spill.shrink_to_fit();
        self.spill_map.shrink_to_fit();
    }
}

/// Compresso's 512 B-chunk free list (Fig. 3a).
pub type CompressoFreeList = ChunkFreeList;

/// ML1's 4 KiB-chunk free list (Fig. 3b).
pub type Ml1FreeList = ChunkFreeList;

/// Sentinel for "no next slot" in a super-chunk's inline free list
/// (slots are `< 128`, so `0xFF` is never a valid slot).
const SLOT_NIL: u8 = u8::MAX;

/// A super-chunk: `M` 4 KiB chunks carved into `N` sub-chunks of one size
/// class (Fig. 3c). `M ≤ 8` and the smallest class is 256 B, so `N ≤ 128`
/// and the free-slot list fits a fixed `N`-byte next-pointer table plus a
/// `u128` occupancy mask.
#[derive(Debug, Clone)]
struct SuperChunk {
    /// The 4 KiB chunk numbers backing this super-chunk (first `m` used).
    chunks: [u32; 8],
    /// Chunks backing this super-chunk.
    m: u8,
    /// Total sub-chunk slots.
    n: u8,
    /// Head of the free-slot list ([`SLOT_NIL`] when full).
    free_head: u8,
    /// `next[s]` = slot after `s` in the free list; exactly `n` bytes.
    next: Box<[u8]>,
    /// Bit set = slot currently allocated (O(1) double-free detection).
    allocated: u128,
}

impl SuperChunk {
    /// A fresh super-chunk with all `n` slots free, popping `0, 1, …` in
    /// ascending order like the original `(0..n).collect::<VecDeque<_>>()`.
    fn carve(chunks: [u32; 8], m: u8, n: u8) -> Self {
        let mut next = vec![SLOT_NIL; n as usize].into_boxed_slice();
        for s in 0..n.saturating_sub(1) {
            next[s as usize] = s + 1;
        }
        Self { chunks, m, n, free_head: 0, next, allocated: 0 }
    }

    /// A pristine super-chunk as construction left it: `m` contiguous
    /// chunks from `first`, every slot allocated. The slot table is
    /// written before it is read (a free pushes the slot), so its
    /// contents do not matter.
    fn full(first: u32, m: u8, n: u8) -> Self {
        let allocated = if n >= 128 { u128::MAX } else { (1u128 << n) - 1 };
        Self {
            chunks: contiguous(first, m),
            m,
            n,
            free_head: SLOT_NIL,
            next: vec![SLOT_NIL; n as usize].into_boxed_slice(),
            allocated,
        }
    }

    /// Pops the head free slot (the old `free_slots.pop_front()`).
    fn pop_slot(&mut self) -> Option<u8> {
        if self.free_head == SLOT_NIL {
            return None;
        }
        let s = self.free_head;
        self.free_head = self.next[s as usize];
        self.allocated |= 1u128 << s;
        Some(s)
    }

    /// Pushes a freed slot at the head (the old `push_front`), so it is
    /// reused before older free slots.
    fn push_slot(&mut self, s: u8) {
        self.next[s as usize] = self.free_head;
        self.free_head = s;
        self.allocated &= !(1u128 << s);
    }

    /// Number of free slots.
    fn free_count(&self) -> usize {
        self.n as usize - self.allocated.count_ones() as usize
    }

    /// Heap bytes owned by this super-chunk.
    fn heap_bytes(&self) -> usize {
        self.next.len()
    }
}

/// The chunk table of `m` contiguous chunks from `first`.
fn contiguous(first: u32, m: u8) -> [u32; 8] {
    std::array::from_fn(|i| if i < m as usize { first + i as u32 } else { 0 })
}

/// Super-chunk ids per overlay leaf.
const SUPER_LEAF: usize = 16;

/// One super-chunk id's state in the overlay.
#[derive(Debug, Clone, Default)]
enum SuperSlot {
    /// Never written: pristine when construction carved the id.
    #[default]
    Untouched,
    Live(SuperChunk),
    Dissolved,
}

/// Identifier of an allocated ML2 sub-chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubChunk {
    /// Size class index within [`Ml2FreeLists`].
    pub class: usize,
    /// Super-chunk id.
    pub super_id: u32,
    /// Slot within the super-chunk.
    pub slot: u8,
}

/// The set of ML2 free lists, one per sub-chunk size class.
///
/// # Examples
///
/// ```
/// use tmcc::free_list::{Ml1FreeList, Ml2FreeLists};
///
/// let mut ml1 = Ml1FreeList::with_chunks(1000);
/// let mut ml2 = Ml2FreeLists::paper_classes();
/// // Store a 1300-byte compressed page: needs the 1536-byte class.
/// let sc = ml2.allocate(1300, &mut ml1).expect("space available");
/// assert_eq!(ml2.class_size(sc.class), 1536);
/// ml2.free(sc, &mut ml1);
/// assert_eq!(ml1.len(), 1000, "all chunks returned");
/// ```
#[derive(Debug, Clone)]
pub struct Ml2FreeLists {
    /// Sub-chunk sizes per class, ascending.
    class_sizes: Vec<usize>,
    /// Per class: `(M chunks, N sub-chunks)` chosen to minimize waste.
    geometry: Vec<(usize, usize)>,
    /// Per class: super-chunks with at least one free slot (ids).
    avail: Vec<Vec<u32>>,
    /// Super-chunks written since construction, indexed directly by id:
    /// every allocate/free/addr_of on the simulator's hot path resolves a
    /// super-chunk id, and a paged array makes that two loads instead of
    /// a hash lookup. An untouched id in `carved` is pristine.
    supers: Paged<SuperSlot, SUPER_LEAF>,
    /// The super-chunks construction carved (ids `0..carved.len()`).
    carved: Carves,
    /// One past the highest id ever handed out.
    next_id: u32,
    /// Ids of dissolved super-chunks awaiting reuse, so churn does not
    /// grow `supers` without bound.
    free_super_ids: Vec<u32>,
    /// Bytes of live sub-chunk allocations (for usage accounting).
    allocated_bytes: usize,
    /// 4 KiB chunks currently owned by ML2.
    owned_chunks: usize,
}

impl Ml2FreeLists {
    /// The size classes used throughout the reproduction: enough classes
    /// that a compressed page wastes little (the paper: "many free lists,
    /// each tracking sub-physical pages of a different size").
    pub fn paper_classes() -> Self {
        Self::new(vec![256, 512, 768, 1024, 1280, 1536, 1792, 2048, 2560, 3072, 4096])
    }

    /// Creates lists for the given ascending size classes.
    ///
    /// # Panics
    ///
    /// Panics if `class_sizes` is empty, unsorted, or contains a class
    /// larger than 4 KiB or smaller than 256 B (the super-chunk slot
    /// table packs slot ids into 7 bits).
    pub fn new(class_sizes: Vec<usize>) -> Self {
        assert!(!class_sizes.is_empty(), "need at least one class");
        assert!(class_sizes.windows(2).all(|w| w[0] < w[1]), "classes must be ascending");
        assert!(
            *class_sizes.last().expect("non-empty") <= 4096,
            "sub-chunks cannot exceed a 4 KiB chunk"
        );
        assert!(
            *class_sizes.first().expect("non-empty") >= 256,
            "sub-chunks below 256 B would overflow the 128-slot super-chunk table"
        );
        let geometry = class_sizes.iter().map(|&s| Self::best_geometry(s)).collect();
        let len = class_sizes.len();
        Self {
            class_sizes,
            geometry,
            avail: vec![Vec::new(); len],
            supers: Paged::new(),
            carved: Carves::default(),
            next_id: 0,
            free_super_ids: Vec::new(),
            allocated_bytes: 0,
            owned_chunks: 0,
        }
    }

    /// Chooses `(M, N)` with `N·size ≤ M·4096`, `M ≤ 8`, minimizing waste
    /// `(M·4096) mod (N·size)` relative to the super-chunk (paper §IV-B:
    /// "N, M are chosen to minimize (4KB · M) mod N").
    fn best_geometry(size: usize) -> (usize, usize) {
        let mut best = (1usize, 4096 / size.max(1));
        let mut best_waste = 4096 % (best.1 * size).max(1);
        for m in 1..=8usize {
            let n = (m * 4096) / size;
            if n == 0 {
                continue;
            }
            let waste = (m * 4096) - n * size;
            // Prefer lower waste per chunk; tie-break on smaller M.
            if (waste as f64 / m as f64) < (best_waste as f64 / best.0 as f64) {
                best = (m, n);
                best_waste = waste;
            }
        }
        (best.0, best.1)
    }

    /// Starts the lists from a construction-time carve: the carved
    /// super-chunks own `chunks` chunks and `allocated_bytes` of
    /// sub-chunks, and each `(class, id, used)` in `partial` is a class's
    /// last super-chunk with only its first `used` slots allocated.
    ///
    /// # Panics
    ///
    /// Panics unless the lists are fresh.
    pub(crate) fn start_from(
        &mut self,
        carved: Carves,
        partial: &[(usize, u32, u32)],
        chunks: u64,
        allocated_bytes: u64,
    ) {
        assert!(self.next_id == 0, "lists already hold super-chunks");
        for &(class, id, used) in partial {
            let (first, _) = carved.get(id).expect("partial super-chunk was carved");
            let (m, n) = self.geometry[class];
            let mut sc = SuperChunk::carve(contiguous(first, m as u8), m as u8, n as u8);
            for _ in 0..used {
                sc.pop_slot();
            }
            *self.supers.entry(id as usize) = SuperSlot::Live(sc);
            self.avail[class].push(id);
        }
        self.next_id = carved.len();
        self.carved = carved;
        self.owned_chunks = chunks as usize;
        self.allocated_bytes = allocated_bytes as usize;
    }

    /// The per-class stacks of super-chunks with a free slot.
    #[cfg(test)]
    pub(crate) fn avail(&self) -> &[Vec<u32>] {
        &self.avail
    }

    /// A class's super-chunk geometry: `(M chunks, N sub-chunks)`.
    pub(crate) fn geometry(&self, class: usize) -> (usize, usize) {
        self.geometry[class]
    }

    /// Number of size classes.
    pub fn classes(&self) -> usize {
        self.class_sizes.len()
    }

    /// Sub-chunk size of a class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_size(&self, class: usize) -> usize {
        self.class_sizes[class]
    }

    /// The smallest class that fits `bytes`, if any.
    pub fn class_for(&self, bytes: usize) -> Option<usize> {
        self.class_sizes.iter().position(|&s| s >= bytes)
    }

    /// Allocates a sub-chunk for a `bytes`-long compressed page, carving a
    /// new super-chunk from `ml1`'s free chunks when the class is empty.
    /// Returns `None` when `bytes` exceeds the largest class or ML1 has no
    /// chunks to donate (see [`try_allocate`](Self::try_allocate) for the
    /// typed distinction between the two).
    pub fn allocate(&mut self, bytes: usize, ml1: &mut Ml1FreeList) -> Option<SubChunk> {
        self.try_allocate(bytes, ml1).ok()
    }

    /// Allocates a sub-chunk for a `bytes`-long compressed page, reporting
    /// *why* an allocation cannot be satisfied:
    /// [`TmccError::OversizedAllocation`] when no class fits `bytes`, and
    /// [`TmccError::FreeListExhausted`] when ML1 cannot donate enough
    /// chunks to carve a fresh super-chunk.
    pub fn try_allocate(
        &mut self,
        bytes: usize,
        ml1: &mut Ml1FreeList,
    ) -> Result<SubChunk, TmccError> {
        let class = self.class_for(bytes).ok_or(TmccError::OversizedAllocation {
            requested_bytes: bytes,
            largest_class: *self.class_sizes.last().unwrap_or(&0),
        })?;
        if self.avail[class].is_empty() && self.carve_super(class, ml1).is_none() {
            return Err(TmccError::FreeListExhausted {
                requested_bytes: bytes,
                ml1_free_chunks: ml1.len(),
            });
        }
        // `avail[class]` is non-empty by construction above; both lookups
        // below are guarded rather than asserted so a corrupted state
        // surfaces as a typed error instead of a panic.
        let super_id = *self.avail[class].last().ok_or(TmccError::FreeListExhausted {
            requested_bytes: bytes,
            ml1_free_chunks: ml1.len(),
        })?;
        let sc = self.live_mut(super_id).ok_or(TmccError::UnknownSubChunk { super_id })?;
        let slot = sc.pop_slot().ok_or(TmccError::FreeListExhausted {
            requested_bytes: bytes,
            ml1_free_chunks: ml1.len(),
        })?;
        if sc.free_head == SLOT_NIL {
            self.avail[class].pop();
        }
        self.allocated_bytes += self.class_sizes[class];
        Ok(SubChunk { class, super_id, slot })
    }

    fn carve_super(&mut self, class: usize, ml1: &mut Ml1FreeList) -> Option<()> {
        let (m, n) = self.geometry[class];
        // Take M chunks from ML1 (§IV-A: "ML1 gives cold victim physical
        // pages to ML2" — here modelled from the free list).
        let mut chunks = [0u32; 8];
        for i in 0..m {
            match ml1.pop() {
                Some(c) => chunks[i] = c,
                None => {
                    for &c in &chunks[..i] {
                        ml1.push(c);
                    }
                    return None;
                }
            }
        }
        let sc = SuperChunk::carve(chunks, m as u8, n as u8);
        let id = self.free_super_ids.pop().unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id - 1
        });
        *self.supers.entry(id as usize) = SuperSlot::Live(sc);
        self.avail[class].push(id);
        self.owned_chunks += m;
        Some(())
    }

    /// Frees a sub-chunk. If its super-chunk becomes entirely free, the
    /// backing chunks return to ML1 (§IV-B).
    ///
    /// # Panics
    ///
    /// Panics on double-free or unknown sub-chunks. Library code should
    /// use [`try_free`](Self::try_free) instead.
    pub fn free(&mut self, sub: SubChunk, ml1: &mut Ml1FreeList) {
        if let Err(e) = self.try_free(sub, ml1) {
            panic!("{e}");
        }
    }

    /// Frees a sub-chunk, returning [`TmccError::DoubleFree`] /
    /// [`TmccError::UnknownSubChunk`] instead of panicking when the
    /// sub-chunk is not a live allocation. If its super-chunk becomes
    /// entirely free, the backing chunks return to ML1 (§IV-B).
    pub fn try_free(&mut self, sub: SubChunk, ml1: &mut Ml1FreeList) -> Result<(), TmccError> {
        let sc = self
            .live_mut(sub.super_id)
            .ok_or(TmccError::UnknownSubChunk { super_id: sub.super_id })?;
        if sub.slot >= sc.n {
            return Err(TmccError::UnknownSubChunk { super_id: sub.super_id });
        }
        if sc.allocated & (1u128 << sub.slot) == 0 {
            return Err(TmccError::DoubleFree { super_id: sub.super_id, slot: sub.slot });
        }
        // Newly-freed sub-chunks go to the *top* of the list (§IV-B).
        sc.push_slot(sub.slot);
        let (free, slots) = (sc.free_count(), sc.n as usize);
        self.allocated_bytes -= self.class_sizes[sub.class];
        if free == 1 {
            self.avail[sub.class].push(sub.super_id);
        }
        if free == slots {
            // Fully free: dissolve and return chunks to ML1.
            let SuperSlot::Live(sc) =
                std::mem::replace(self.supers.entry(sub.super_id as usize), SuperSlot::Dissolved)
            else {
                return Err(TmccError::UnknownSubChunk { super_id: sub.super_id });
            };
            self.owned_chunks -= sc.m as usize;
            for &c in &sc.chunks[..sc.m as usize] {
                ml1.push(c);
            }
            self.avail[sub.class].retain(|&id| id != sub.super_id);
            self.free_super_ids.push(sub.super_id);
        }
        Ok(())
    }

    /// Bytes currently allocated to compressed pages.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    /// 4 KiB chunks ML2 currently owns (allocated + internal free space).
    pub fn owned_chunks(&self) -> usize {
        self.owned_chunks
    }

    /// DRAM bytes ML2 occupies (owned chunks × 4 KiB) — the capacity
    /// accounting the effective-ratio experiments use.
    pub fn footprint_bytes(&self) -> usize {
        self.owned_chunks * 4096
    }

    /// Heap bytes owned by the free lists (capacity, not length): the
    /// carve window, the super-chunk overlay, each materialized
    /// super-chunk's slot table, and the per-class availability stacks.
    pub fn heap_bytes(&self) -> usize {
        let slot_tables: usize = self
            .supers
            .leaves()
            .flat_map(|leaf| leaf.iter())
            .map(|slot| match slot {
                SuperSlot::Live(sc) => sc.heap_bytes(),
                _ => 0,
            })
            .sum();
        self.carved.heap_bytes()
            + self.supers.heap_bytes()
            + slot_tables
            + self.free_super_ids.capacity() * std::mem::size_of::<u32>()
            + self.avail.iter().map(|v| v.capacity() * std::mem::size_of::<u32>()).sum::<usize>()
            + self.class_sizes.capacity() * std::mem::size_of::<usize>()
            + self.geometry.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    /// DRAM byte address where sub-chunk `sub` starts. Sub-chunks may span
    /// the boundary between the interlinked chunks of their super-chunk.
    ///
    /// # Panics
    ///
    /// Panics if `sub` does not name a live allocation. Library code
    /// should use [`try_addr_of`](Self::try_addr_of) instead.
    pub fn addr_of(&self, sub: SubChunk) -> u64 {
        match self.try_addr_of(sub) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }

    /// DRAM byte address where sub-chunk `sub` starts, or
    /// [`TmccError::UnknownSubChunk`] when its super-chunk is not live.
    pub fn try_addr_of(&self, sub: SubChunk) -> Result<u64, TmccError> {
        let offset = sub.slot as usize * self.class_sizes[sub.class];
        let chunk = self
            .chunk_of(sub.super_id, offset / 4096)
            .ok_or(TmccError::UnknownSubChunk { super_id: sub.super_id })?;
        Ok(chunk as u64 * 4096 + (offset % 4096) as u64)
    }

    /// Chunk `i` of live super-chunk `id`, if it has one.
    #[inline]
    fn chunk_of(&self, id: u32, i: usize) -> Option<u32> {
        match self.supers.get(id as usize) {
            Some(SuperSlot::Live(sc)) => sc.chunks.get(i).filter(|_| i < sc.m as usize).copied(),
            Some(SuperSlot::Dissolved) => None,
            Some(SuperSlot::Untouched) | None => {
                let (first, class) = self.carved.get(id)?;
                (i < self.geometry[class].0).then(|| first + i as u32)
            }
        }
    }

    /// Live super-chunk `id`, materializing it first if it is pristine.
    fn live_mut(&mut self, id: u32) -> Option<&mut SuperChunk> {
        if matches!(self.supers.get(id as usize), None | Some(SuperSlot::Untouched)) {
            let (first, class) = self.carved.get(id)?;
            let (m, n) = self.geometry[class];
            *self.supers.entry(id as usize) =
                SuperSlot::Live(SuperChunk::full(first, m as u8, n as u8));
        }
        match self.supers.entry(id as usize) {
            SuperSlot::Live(sc) => Some(sc),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_list_lifo() {
        let mut l = ChunkFreeList::with_chunks(3);
        assert_eq!(l.pop(), Some(0));
        l.push(0);
        assert_eq!(l.pop(), Some(0));
        assert_eq!(l.pop(), Some(1));
        assert_eq!(l.pop(), Some(2));
        assert_eq!(l.pop(), None);
    }

    #[test]
    fn chunk_list_matches_naive_vec_order() {
        // The watermark + spill representation must replay the exact pop
        // order of the original `(0..n).rev().collect::<Vec<_>>()` list
        // under an arbitrary interleaving of pops and pushes.
        let mut naive: Vec<u32> = (0..40u32).rev().collect();
        let mut l = ChunkFreeList::with_chunks(40);
        let mut popped = Vec::new();
        let mut step = 0u64;
        for _ in 0..400 {
            step = step.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if !step.is_multiple_of(3) || popped.is_empty() {
                let a = naive.pop();
                let b = l.pop();
                assert_eq!(a, b);
                if let Some(c) = b {
                    popped.push(c);
                }
            } else {
                let c = popped.swap_remove((step % popped.len() as u64) as usize);
                naive.push(c);
                l.push(c);
            }
            assert_eq!(naive.len(), l.len());
        }
    }

    #[test]
    fn chunk_list_free_map_tracks_membership() {
        let mut l = ChunkFreeList::with_chunks(10);
        assert!(l.is_free(0) && l.is_free(9));
        assert!(!l.is_free(10));
        let c = l.pop().expect("non-empty");
        assert!(!l.is_free(c));
        l.push(c);
        assert!(l.is_free(c));
        // Chunks minted beyond the original range (GrowBudget) work too.
        l.push(500);
        assert!(l.is_free(500));
        assert_eq!(l.pop(), Some(500));
        assert!(!l.is_free(500));
    }

    #[test]
    fn geometry_minimizes_waste() {
        // 1536-byte sub-chunks: M=3 chunks -> N=8 sub-chunks, zero waste.
        let (m, n) = Ml2FreeLists::best_geometry(1536);
        assert_eq!((m * 4096) % (n * 1536), (m * 4096) - n * 1536);
        assert_eq!((m * 4096) - n * 1536, 0, "1536B should pack perfectly (M={m}, N={n})");
        // 4096-byte sub-chunks pack 1:1.
        let (m4, n4) = Ml2FreeLists::best_geometry(4096);
        assert_eq!(m4, n4);
    }

    #[test]
    fn allocate_free_conserves_chunks() {
        let mut ml1 = Ml1FreeList::with_chunks(64);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut subs = Vec::new();
        for i in 0..20usize {
            let bytes = 200 + i * 150;
            subs.push(ml2.allocate(bytes, &mut ml1).expect("fits"));
        }
        assert!(ml1.len() < 64);
        assert_eq!(ml2.owned_chunks() + ml1.len(), 64);
        for s in subs {
            ml2.free(s, &mut ml1);
        }
        assert_eq!(ml1.len(), 64, "every chunk must return to ML1");
        assert_eq!(ml2.allocated_bytes(), 0);
        assert_eq!(ml2.owned_chunks(), 0);
    }

    #[test]
    fn allocation_prefers_smallest_fitting_class() {
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let s = ml2.allocate(513, &mut ml1).expect("fits");
        assert_eq!(ml2.class_size(s.class), 768);
    }

    #[test]
    fn addr_of_is_unique_and_within_owned_chunks() {
        let mut ml1 = Ml1FreeList::with_chunks(32);
        let mut ml2 = Ml2FreeLists::new(vec![1536]);
        let mut addrs = std::collections::HashSet::new();
        let mut subs = Vec::new();
        for _ in 0..16 {
            let s = ml2.allocate(1500, &mut ml1).expect("fits");
            let a = ml2.addr_of(s);
            assert!(addrs.insert(a), "duplicate sub-chunk address {a:#x}");
            subs.push(s);
        }
        // Adjacent slots in one super-chunk are exactly 1536 B apart in
        // the concatenated chunk space.
        let a0 = ml2.addr_of(subs[0]);
        let a1 = ml2.addr_of(subs[1]);
        if subs[0].super_id == subs[1].super_id {
            let off = |s: &super::SubChunk| s.slot as u64 * 1536;
            assert_eq!(off(&subs[1]) - off(&subs[0]), 1536);
            let _ = (a0, a1);
        }
    }

    #[test]
    fn super_chunk_slots_reuse_most_recent_free_first() {
        // One 4096-class super-chunk has n == m, so slot recycling within
        // a single super-chunk is observable: pop 0,1,2 ascending, then a
        // freed slot is handed out again before the next fresh one.
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::new(vec![256]);
        let a = ml2.allocate(100, &mut ml1).expect("fits");
        let b = ml2.allocate(100, &mut ml1).expect("fits");
        let c = ml2.allocate(100, &mut ml1).expect("fits");
        assert_eq!((a.slot, b.slot, c.slot), (0, 1, 2));
        ml2.free(b, &mut ml1);
        let d = ml2.allocate(100, &mut ml1).expect("fits");
        assert_eq!(d.slot, 1, "most recently freed slot is reused first");
        let e = ml2.allocate(100, &mut ml1).expect("fits");
        assert_eq!(e.slot, 3, "then the fresh run continues");
    }

    #[test]
    fn oversized_pages_rejected() {
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::paper_classes();
        assert!(ml2.allocate(5000, &mut ml1).is_none());
    }

    #[test]
    fn exhausted_ml1_fails_cleanly() {
        let mut ml1 = Ml1FreeList::with_chunks(0);
        let mut ml2 = Ml2FreeLists::paper_classes();
        assert!(ml2.allocate(100, &mut ml1).is_none());
        assert_eq!(ml1.len(), 0);
    }

    #[test]
    #[should_panic(expected = "double-freed")]
    fn double_free_detected() {
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::new(vec![2048]);
        let a = ml2.allocate(2000, &mut ml1).expect("fits");
        let _b = ml2.allocate(2000, &mut ml1).expect("fits");
        ml2.free(a, &mut ml1);
        ml2.free(a, &mut ml1);
    }

    #[test]
    fn out_of_range_slot_is_a_typed_error() {
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::new(vec![2048]);
        let a = ml2.allocate(2000, &mut ml1).expect("fits");
        let bogus = SubChunk { class: a.class, super_id: a.super_id, slot: 99 };
        assert!(matches!(ml2.try_free(bogus, &mut ml1), Err(TmccError::UnknownSubChunk { .. })));
    }

    #[test]
    fn many_allocations_within_budget() {
        let mut ml1 = Ml1FreeList::with_chunks(256);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut live = Vec::new();
        let mut k = 0usize;
        // Allocate until ML1 runs dry, then free half and repeat.
        for round in 0..6 {
            while let Some(s) = ml2.allocate(300 + (k * 97) % 3500, &mut ml1) {
                live.push(s);
                k += 1;
            }
            let half = live.len() / 2;
            for s in live.drain(..half) {
                ml2.free(s, &mut ml1);
            }
            assert!(ml2.owned_chunks() + ml1.len() == 256, "round {round}");
        }
        for s in live.drain(..) {
            ml2.free(s, &mut ml1);
        }
        assert_eq!(ml1.len(), 256);
    }

    #[test]
    fn churn_cycles_do_not_retain_capacity() {
        // Regression for the pool-shrink leak: super-chunk slot tracking
        // (previously a `VecDeque<u8>` per super-chunk) must not pin its
        // peak capacity once allocations drain. Heap bytes after each
        // full drain must stay flat across fill/drain cycles, and a
        // drained ML2 must cost no more than the empty slab + id stacks.
        let mut ml1 = Ml1FreeList::with_chunks(512);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut drained_heap = Vec::new();
        for _ in 0..4 {
            let mut live = Vec::new();
            let mut k = 0usize;
            while let Some(s) = ml2.allocate(260 + (k * 131) % 3000, &mut ml1) {
                live.push(s);
                k += 1;
            }
            let peak = ml2.heap_bytes();
            for s in live {
                ml2.free(s, &mut ml1);
            }
            assert_eq!(ml2.owned_chunks(), 0);
            let drained = ml2.heap_bytes();
            assert!(
                drained < peak,
                "drained heap {drained} should drop below peak {peak} \
                 (per-super slot tables must be released on dissolve)"
            );
            drained_heap.push(drained);
        }
        assert!(
            drained_heap.windows(2).all(|w| w[1] <= w[0]),
            "drained heap must not grow across cycles: {drained_heap:?}"
        );
        // ML1's spill also returns to watermark-only cost on demand.
        let before = ml1.heap_bytes();
        while ml1.pop().is_some() {}
        ml1.shrink_to_fit();
        assert!(ml1.heap_bytes() < before.max(1));
    }
}
