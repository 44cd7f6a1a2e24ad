//! The two-level schemes' initial placement, in closed form.
//!
//! The paper warms ML1 and ML2 before it measures (§VI). That warm state
//! is a pure function of the size model, the budget and the page-table
//! size, fixed by one procedure: page-table pages take ML1 frames
//! `0..T`; a split point `k` is chosen so pages `k..` fit compressed in
//! ML2 beside the eviction reserve; then data pages are walked
//! coldest-first (highest index first), pages `k..` carved into Fig. 3c
//! super-chunks from the ML1 free list's fresh run and pages `..k` given
//! the next frames. Frames are handed out in ascending order and nothing
//! is freed during the walk, so every piece has a formula:
//!
//! - page-table page `t` sits in frame `t`;
//! - the super-chunks take the chunks right after the tables, each one
//!   contiguous, in carve order ([`CarveLog`]: super id → first chunk);
//! - ML1 data page `idx < k` sits in frame `T + C + (k − 1 − idx)`, `C`
//!   being the chunks ML2 carved;
//! - ML2 page `idx` of size class `c` is the `r`-th class-`c` page of the
//!   walk, `r` counting the class-`c` pages above it, so it holds slot
//!   `r mod N` of its class's `⌊r / N⌋`-th super-chunk.
//!
//! [`PlacementPlan::search`] folds the split search and the carving into
//! one coldest-first pass over the ML2 pages — both run in the same
//! direction, and the carve of pages `≥ k` does not depend on where the
//! split lands — and records per-class page counts every [`GROUP`]
//! pages, so a page's rank `r` is one checkpoint plus a scan of at most
//! `GROUP − 1` pages. Nothing is stored per page.

use crate::free_list::{Ml2FreeLists, SubChunk};
use crate::page_meta::{PageInfo, Placement};
use crate::size_model::SizeModel;
use tmcc_types::addr::PAGE_SIZE;

/// Data pages per class-count checkpoint.
pub(crate) const GROUP: u64 = 64;

/// ML1 frames needed to hold `bytes` of class-rounded compressed pages,
/// with ~3% carving slack — the one formula both the split search and
/// the feasibility minimum use.
pub(crate) fn ml2_frames(bytes: u64) -> u64 {
    (bytes * 103 / 100).div_ceil(PAGE_SIZE as u64)
}

/// Per-sample ML2 facts at write-epoch 0: each sample page's size class,
/// stored bytes and class-rounded bytes, indexed per page through
/// [`SizeModel::sample_index`].
#[derive(Debug, Clone)]
pub(crate) struct SampleTable {
    model: SizeModel,
    class: Vec<u8>,
    comp: Vec<u16>,
    rounded: Vec<u32>,
}

impl SampleTable {
    /// Tabulates `model`'s samples against `ml2`'s size classes.
    ///
    /// # Panics
    ///
    /// Panics if a page capped at 4 KiB fits no class (the largest class
    /// must be 4 KiB, as in [`Ml2FreeLists::paper_classes`]).
    pub(crate) fn new(model: &SizeModel, ml2: &Ml2FreeLists) -> Self {
        let mut table =
            Self { model: model.clone(), class: Vec::new(), comp: Vec::new(), rounded: Vec::new() };
        for s in model.samples() {
            let comp = s.deflate_bytes.min(PAGE_SIZE);
            let class = ml2.class_for(comp).expect("a 4 KiB class holds every page");
            table.class.push(class as u8);
            table.comp.push(comp as u16);
            table.rounded.push(ml2.class_size(class) as u32);
        }
        table
    }

    #[inline]
    fn sample(&self, idx: u64) -> usize {
        self.model.sample_index(idx, 0)
    }

    #[inline]
    fn class(&self, idx: u64) -> usize {
        self.class[self.sample(idx)] as usize
    }

    /// Class-rounded ML2 bytes of pages `0..pages`. A power-of-two sample
    /// count draws each sample once per `samples` consecutive pages (see
    /// [`SizeModel::sample_index`]), so whole periods sum in closed form.
    pub(crate) fn rounded_bytes_below(&self, pages: u64) -> u64 {
        let n = self.rounded.len() as u64;
        let tail = |from: u64| (from..pages).map(|i| self.rounded[self.sample(i)] as u64).sum();
        if n.is_power_of_two() {
            let period: u64 = self.rounded.iter().map(|&r| r as u64).sum();
            pages / n * period + tail(pages - pages % n)
        } else {
            tail(0)
        }
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.model.samples())
            + self.class.capacity()
            + self.comp.capacity() * 2
            + self.rounded.capacity() * 4
    }
}

/// The super-chunks carved at construction, by id: each one's first
/// chunk (the rest follow contiguously) and size class.
#[derive(Debug, Clone, Default)]
pub(crate) struct CarveLog {
    first_chunk: Vec<u32>,
    class: Vec<u8>,
}

impl CarveLog {
    fn push(&mut self, first_chunk: u64, class: usize) {
        self.first_chunk.push(first_chunk as u32);
        self.class.push(class as u8);
    }

    /// Super-chunks carved.
    pub(crate) fn len(&self) -> usize {
        self.first_chunk.len()
    }

    /// Super-chunk `id`'s first chunk and size class.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> Option<(u32, usize)> {
        let i = id as usize;
        Some((*self.first_chunk.get(i)?, self.class[i] as usize))
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.first_chunk.capacity() * 4 + self.class.capacity()
    }

    fn shrink_to_fit(&mut self) {
        self.first_chunk.shrink_to_fit();
        self.class.shrink_to_fit();
    }
}

/// Every page's initial [`PageInfo`], computed on demand.
#[derive(Debug, Clone)]
pub(crate) struct InitialPages {
    samples: SampleTable,
    data_pages: u64,
    table_pages: u64,
    split: u64,
    /// Frame of ML1 page `split − 1`: the chunks tables and ML2 took.
    ml1_base: u64,
    /// Sub-chunk slots per super-chunk, per class.
    slots: Vec<u32>,
    /// Class-`c` ML2 pages above group `g` (indices `≥ 64·(g+1)`), at
    /// `(top_group − g) · classes + c`.
    checkpoints: Vec<u32>,
    /// ML2 pages per class.
    totals: Vec<u32>,
    /// Per class: the `j`-th super-chunk's id.
    supers: Vec<Vec<u32>>,
}

impl InitialPages {
    /// Data pages placed.
    pub(crate) fn data_pages(&self) -> u64 {
        self.data_pages
    }

    /// Page-table pages placed.
    pub(crate) fn table_pages(&self) -> u64 {
        self.table_pages
    }

    /// Page-table page `t`'s initial state: pinned in frame `t`.
    pub(crate) fn table_page(t: u64) -> PageInfo {
        PageInfo {
            place: Placement::Ml1 { frame: t as u32 },
            dirty_epoch: 0,
            pinned: true,
            incompressible: false,
        }
    }

    /// Data page `idx`'s initial state (`idx < data_pages`).
    pub(crate) fn data_page(&self, idx: u64) -> PageInfo {
        if idx < self.split {
            return self.ml1_page(idx);
        }
        let s = self.samples.sample(idx);
        let c = self.samples.class[s] as usize;
        let g = idx / GROUP;
        let top = ((g + 1) * GROUP).min(self.data_pages);
        let at = ((self.data_pages - 1) / GROUP - g) as usize * self.slots.len() + c;
        let above = (idx + 1..top).filter(|&q| self.samples.class(q) == c).count() as u32;
        let (rank, n) = (self.checkpoints[at] + above, self.slots[c]);
        self.ml2_at(s, c, rank / n, rank % n)
    }

    fn ml1_page(&self, idx: u64) -> PageInfo {
        PageInfo {
            place: Placement::Ml1 { frame: (self.ml1_base + (self.split - 1 - idx)) as u32 },
            dirty_epoch: 0,
            pinned: false,
            incompressible: false,
        }
    }

    /// An ML2 page drawing sample `s`, of class `c`, in slot `slot` of
    /// the class's `j`-th super-chunk.
    #[inline]
    fn ml2_at(&self, s: usize, c: usize, j: u32, slot: u32) -> PageInfo {
        PageInfo {
            place: Placement::Ml2 {
                sub: SubChunk { class: c, super_id: self.supers[c][j as usize], slot: slot as u8 },
                comp_bytes: self.samples.comp[s] as u32,
            },
            dirty_epoch: 0,
            pinned: false,
            incompressible: false,
        }
    }

    /// A cursor for [`streamed`](Self::streamed), positioned before page
    /// 0.
    pub(crate) fn cursor(&self) -> Cursor {
        self.cursor_at(0)
    }

    /// A cursor positioned before page `lo`, a multiple of [`GROUP`]: per
    /// class, the ML2 pages at or above `lo` — all of them when `lo` is
    /// at most the split, else group `lo / GROUP − 1`'s checkpoint.
    pub(crate) fn cursor_at(&self, lo: u64) -> Cursor {
        debug_assert_eq!(lo % GROUP, 0, "cursor at {lo}");
        let classes = self.slots.len();
        let above = if lo <= self.split {
            &self.totals[..]
        } else {
            let at = ((self.data_pages - 1) / GROUP + 1 - lo / GROUP) as usize * classes;
            &self.checkpoints[at..at + classes]
        };
        Cursor { next: above.iter().zip(&self.slots).map(|(&t, &n)| (t / n, t % n)).collect() }
    }

    /// Data page `idx`'s initial state when pages are visited in
    /// ascending order, every one of them, through `cursor`: ranks count
    /// down from the class totals as `(super-chunk, slot)` pairs, so the
    /// stream neither scans nor divides per page.
    #[inline]
    pub(crate) fn streamed(&self, cursor: &mut Cursor, idx: u64) -> PageInfo {
        if idx < self.split {
            return self.ml1_page(idx);
        }
        let s = self.samples.sample(idx);
        let c = self.samples.class[s] as usize;
        let (j, slot) = &mut cursor.next[c];
        if *slot == 0 {
            *j -= 1;
            *slot = self.slots[c];
        }
        *slot -= 1;
        self.ml2_at(s, c, *j, *slot)
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.samples.heap_bytes()
            + (self.slots.capacity() + self.checkpoints.capacity() + self.totals.capacity()) * 4
            + self
                .supers
                .iter()
                .map(|v| v.capacity() * 4 + std::mem::size_of::<Vec<u32>>())
                .sum::<usize>()
    }
}

/// Where an ascending walk over [`InitialPages`] stands: per class, the
/// `(super-chunk, slot)` just past the next ML2 page's.
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    next: Vec<(u32, u32)>,
}

/// The outcome of the placement search: the split point, what ML2 took,
/// and the closed-form state the page store and the ML2 free lists start
/// from.
#[derive(Debug)]
pub(crate) struct PlacementPlan {
    /// Pages `0..split` start in ML1, `split..` in ML2.
    pub(crate) split: u64,
    /// Chunks the initial super-chunks took from the fresh run.
    pub(crate) ml2_chunks: u64,
    /// Class-rounded bytes of the ML2 pages (their sub-chunks' sizes).
    pub(crate) ml2_bytes: u64,
    /// The pages' initial state.
    pub(crate) pages: InitialPages,
    /// The initial super-chunks.
    pub(crate) carve: CarveLog,
    /// Each class's last super-chunk when it is only partly filled — the
    /// only ones with free slots: `(class, id, slots used)`.
    pub(crate) partial: Vec<(usize, u32, u32)>,
}

impl PlacementPlan {
    /// Chooses the split point and carves the ML2 pages in one
    /// coldest-first pass: the candidate `k` runs from `data_pages` down
    /// while the class-rounded ML2 bytes of pages `k..` accumulate, and
    /// the first `k` with `k + ml2_frames(bytes) + reserve ≤ avail` wins.
    /// Returns the all-ML2 byte total when no `k` fits.
    ///
    /// `table_pages` is where the fresh run starts (the tables took the
    /// chunks below), and `avail` the frames the budget leaves after them.
    pub(crate) fn search(
        samples: SampleTable,
        ml2: &Ml2FreeLists,
        table_pages: u64,
        data_pages: u64,
        avail: u64,
        reserve: u64,
    ) -> Result<Self, u64> {
        let classes = ml2.classes();
        let geometry: Vec<(u64, u32)> =
            (0..classes).map(|c| ml2.geometry(c)).map(|(m, n)| (m as u64, n as u32)).collect();
        let mut counts = vec![0u32; classes];
        // Free slots left in each class's newest super-chunk.
        let mut left = vec![0u32; classes];
        let mut supers = vec![Vec::new(); classes];
        let mut carve = CarveLog::default();
        let mut checkpoints = Vec::new();
        let mut chunks = 0u64;
        let mut bytes = 0u64;
        let mut k = data_pages;
        while k + ml2_frames(bytes) + reserve > avail {
            if k == 0 {
                return Err(bytes);
            }
            k -= 1;
            if k % GROUP == GROUP - 1 || k + 1 == data_pages {
                checkpoints.extend_from_slice(&counts);
            }
            let s = samples.sample(k);
            let c = samples.class[s] as usize;
            bytes += samples.rounded[s] as u64;
            if left[c] == 0 {
                supers[c].push(carve.len() as u32);
                carve.push(table_pages + chunks, c);
                chunks += geometry[c].0;
                left[c] = geometry[c].1;
            }
            left[c] -= 1;
            counts[c] += 1;
        }
        let partial = (0..classes)
            .filter(|&c| left[c] > 0)
            .map(|c| {
                (
                    c,
                    *supers[c].last().expect("a partial class has a super-chunk"),
                    geometry[c].1 - left[c],
                )
            })
            .collect();
        checkpoints.shrink_to_fit();
        carve.shrink_to_fit();
        supers.iter_mut().for_each(Vec::shrink_to_fit);
        Ok(Self {
            split: k,
            ml2_chunks: chunks,
            ml2_bytes: bytes,
            pages: InitialPages {
                samples,
                data_pages,
                table_pages,
                split: k,
                ml1_base: table_pages + chunks,
                slots: geometry.iter().map(|g| g.1).collect(),
                checkpoints,
                totals: counts,
                supers,
            },
            carve,
            partial,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_model::PageSizes;

    fn model(sizes: &[usize]) -> SizeModel {
        SizeModel::from_samples(
            sizes.iter().map(|&d| PageSizes { deflate_bytes: d, block_bytes: 4096 }).collect(),
        )
    }

    #[test]
    fn periodic_sum_matches_page_by_page() {
        let ml2 = Ml2FreeLists::paper_classes();
        for sizes in [&[300, 1300, 5000, 2000][..], &[700, 100, 4096][..], &[1][..]] {
            let t = SampleTable::new(&model(sizes), &ml2);
            for pages in [0, 1, 3, 4, 5, 63, 64, 1000, 4099] {
                let naive: u64 = (0..pages).map(|i| t.rounded[t.sample(i)] as u64).sum();
                assert_eq!(t.rounded_bytes_below(pages), naive, "{sizes:?} {pages}");
            }
        }
    }

    #[test]
    fn ranks_from_checkpoints_match_the_streamed_ranks() {
        let ml2 = Ml2FreeLists::paper_classes();
        let t = SampleTable::new(&model(&[300, 1300, 2600, 900, 4000, 1800, 250]), &ml2);
        let plan = PlacementPlan::search(t, &ml2, 5, 1000, 900, 40).expect("fits");
        assert!(plan.split > 0 && plan.split < 1000, "split {}", plan.split);
        let mut cursor = plan.pages.cursor();
        let streamed: Vec<PageInfo> =
            (0..1000).map(|idx| plan.pages.streamed(&mut cursor, idx)).collect();
        assert_eq!(streamed.len(), 1000);
        for (idx, info) in streamed.iter().enumerate() {
            assert_eq!(*info, plan.pages.data_page(idx as u64), "page {idx}");
        }
    }
}
