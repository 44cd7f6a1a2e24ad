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
//! - ML1 data page `idx < k` sits in frame `T + C + (k − 1 − idx)`, `C`
//!   being the chunks ML2 carved;
//! - the ML2 pages and their super-chunks repeat every *window*.
//!
//! The window comes from the size model. With `n` samples (a power of
//! two), page `idx` draws sample `idx · K mod n` at write-epoch 0 (see
//! [`SizeModel::sample_index`]), so its size class depends only on
//! `idx mod n`, and every class's slot count `N_c` divides the largest,
//! `L` (16). Over `H = n·L` consecutive pages of the coldest-first
//! walk each class then fills exactly `cnt_c · L / N_c` super-chunks and
//! leaves none partly filled, so every window of `H` pages carves the
//! same `K` super-chunks of the same classes in the same order, taking
//! the same `CH` chunks. Walking one window ([`PlacementPlan::search`])
//! records, per window page, its carve within the window and its slot,
//! and per window carve, its class and chunk offset. The page at walk
//! position `p = D − 1 − idx` then holds that slot of super-chunk
//! `⌊p / H⌋·K + carve(p mod H)`, and super-chunk `id` starts at chunk
//! `T + ⌊id / K⌋·CH + offset(id mod K)` ([`Carves`]). The split needs no
//! walk either: class-rounded bytes below a page are whole periods plus a
//! per-residue prefix ([`SampleTable::rounded_bytes_below`]). Nothing is
//! stored per page or per super-chunk.

use crate::free_list::{Ml2FreeLists, SubChunk};
use crate::page_meta::{PageInfo, Placement};
use crate::size_model::SizeModel;
use tmcc_types::addr::PAGE_SIZE;

/// ML1 frames needed to hold `bytes` of class-rounded compressed pages,
/// with ~3% carving slack — the one formula both the split search and
/// the feasibility minimum use.
pub(crate) fn ml2_frames(bytes: u64) -> u64 {
    (bytes * 103 / 100).div_ceil(PAGE_SIZE as u64)
}

/// Per-sample ML2 facts at write-epoch 0: each sample page's size class
/// and stored bytes, indexed per page through
/// [`SizeModel::sample_index`], plus the class-rounded bytes of every
/// prefix of one period.
#[derive(Debug, Clone)]
pub(crate) struct SampleTable {
    model: SizeModel,
    class: Vec<u8>,
    comp: Vec<u16>,
    /// Class-rounded bytes of pages `0..r`, for `r` in `0..=n`.
    rounded_below: Vec<u64>,
}

impl SampleTable {
    /// Tabulates `model`'s samples against `ml2`'s size classes.
    ///
    /// # Panics
    ///
    /// Panics if a page capped at 4 KiB fits no class (the largest class
    /// must be 4 KiB, as in [`Ml2FreeLists::paper_classes`]).
    pub(crate) fn new(model: &SizeModel, ml2: &Ml2FreeLists) -> Self {
        let mut table = Self {
            model: model.clone(),
            class: Vec::new(),
            comp: Vec::new(),
            rounded_below: vec![0],
        };
        for s in model.samples() {
            let comp = s.deflate_bytes.min(PAGE_SIZE);
            let class = ml2.class_for(comp).expect("a 4 KiB class holds every page");
            table.class.push(class as u8);
            table.comp.push(comp as u16);
        }
        let mut bytes = 0;
        for idx in 0..table.period() {
            bytes += ml2.class_size(table.class(idx)) as u64;
            table.rounded_below.push(bytes);
        }
        table
    }

    /// Pages per period of the draw: the sample count.
    fn period(&self) -> u64 {
        self.class.len() as u64
    }

    #[inline]
    fn sample(&self, idx: u64) -> usize {
        self.model.sample_index(idx, 0)
    }

    #[inline]
    fn class(&self, idx: u64) -> usize {
        self.class[self.sample(idx)] as usize
    }

    /// Class-rounded ML2 bytes of pages `0..pages`: each period of `n`
    /// pages draws every sample once, so whole periods sum in closed form
    /// and the rest is a prefix of one.
    pub(crate) fn rounded_bytes_below(&self, pages: u64) -> u64 {
        let n = self.period();
        pages / n * self.rounded_below[n as usize] + self.rounded_below[(pages % n) as usize]
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.model.samples())
            + self.class.capacity()
            + self.comp.capacity() * 2
            + self.rounded_below.capacity() * 8
    }
}

/// The super-chunks carved at construction, by id, in closed form: carve
/// `id` is carve `id mod K` of one window, `⌊id / K⌋` windows of `CH`
/// chunks later. Each one's chunks are contiguous.
#[derive(Debug, Clone, Default)]
pub(crate) struct Carves {
    /// Per carve of one window, in carve order: its size class and first
    /// chunk, counted from the window's first.
    window: Vec<(u8, u32)>,
    /// Chunks one window's carves take (`CH`).
    window_chunks: u32,
    /// First chunk of carve 0: the fresh run's, after the page tables.
    base: u32,
    /// Super-chunks carved.
    len: u32,
}

impl Carves {
    /// Super-chunks carved (ids `0..len`).
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// Super-chunk `id`'s first chunk and size class.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> Option<(u32, usize)> {
        if id >= self.len {
            return None;
        }
        let per_window = self.window.len() as u32;
        let (class, offset) = self.window[(id % per_window) as usize];
        Some((self.base + id / per_window * self.window_chunks + offset, class as usize))
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.window.capacity() * std::mem::size_of::<(u8, u32)>()
    }
}

/// Bits of a window-page entry that hold the slot; the carve sits above.
const SLOT_BITS: u32 = 8;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// Every page's initial [`PageInfo`], computed on demand.
#[derive(Debug, Clone)]
pub(crate) struct InitialPages {
    samples: SampleTable,
    data_pages: u64,
    table_pages: u64,
    split: u64,
    /// Frame of ML1 page `split − 1`: the chunks tables and ML2 took.
    ml1_base: u64,
    /// Per page of one window, coldest first: its super-chunk's carve
    /// within the window above [`SLOT_BITS`], its slot below.
    window: Vec<u32>,
    /// Super-chunks carved per window (`K`).
    carves_per_window: u32,
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

    /// Data page `idx`'s initial state (`idx < data_pages`) — the one
    /// source of every pristine data page's state.
    #[inline]
    pub(crate) fn data_page(&self, idx: u64) -> PageInfo {
        let place = if idx < self.split {
            Placement::Ml1 { frame: (self.ml1_base + (self.split - 1 - idx)) as u32 }
        } else {
            let s = self.samples.sample(idx);
            let p = self.data_pages - 1 - idx;
            let h = self.window.len() as u64;
            let entry = self.window[(p % h) as usize];
            let super_id = (p / h) as u32 * self.carves_per_window + (entry >> SLOT_BITS);
            Placement::Ml2 {
                sub: SubChunk {
                    class: self.samples.class[s] as usize,
                    super_id,
                    slot: entry as u8,
                },
                comp_bytes: self.samples.comp[s] as u32,
            }
        };
        PageInfo { place, dirty_epoch: 0, pinned: false, incompressible: false }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.samples.heap_bytes() + self.window.capacity() * 4
    }
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
    pub(crate) carves: Carves,
    /// Each class's last super-chunk when it is only partly filled — the
    /// only ones with free slots: `(class, id, slots used)`.
    pub(crate) partial: Vec<(usize, u32, u32)>,
}

impl PlacementPlan {
    /// Chooses the split point — the largest `k` with
    /// `k + ml2_frames(bytes of pages k..) + reserve ≤ avail` — and lays
    /// out the ML2 pages from one window of the coldest-first walk.
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
        let above =
            |k: u64| samples.rounded_bytes_below(data_pages) - samples.rounded_bytes_below(k);
        // `k + ml2_frames(above(k))` falls by at most one per page as `k`
        // falls, so when it overshoots by `over`, the `over − 1` pages
        // below `k` overshoot too and the next candidate is `k − over`.
        let mut split = data_pages;
        loop {
            let over = (split + ml2_frames(above(split)) + reserve).saturating_sub(avail);
            if over == 0 {
                break;
            }
            if over > split {
                return Err(above(0));
            }
            split -= over;
        }

        let classes = ml2.classes();
        let geometry: Vec<(u32, u32)> =
            (0..classes).map(|c| ml2.geometry(c)).map(|(m, n)| (m as u32, n as u32)).collect();
        // Every slot count divides the largest (the paper's classes hold
        // 16, 8, 4, 2 or 1), which is then their lcm.
        let slots = geometry.iter().map(|g| g.1).max().expect("at least one class");
        assert!(geometry.iter().all(|g| slots % g.1 == 0), "slot counts {geometry:?}");
        let h = samples.period() * slots as u64;
        // The walk's window: page `p` of it is data page `D − 1 − p`,
        // shifted a window up so the index stays non-negative (only its
        // residue mod `n` matters).
        let class_at = |p: u64| samples.class(data_pages + h - 1 - p);
        let mut left = vec![0u32; classes];
        let mut newest = vec![0u32; classes];
        let mut window = Vec::with_capacity(h as usize);
        let mut carves = Vec::new();
        let mut chunks = 0u32;
        for p in 0..h {
            let c = class_at(p);
            let (m, n) = geometry[c];
            if left[c] == 0 {
                newest[c] = carves.len() as u32;
                carves.push((c as u8, chunks));
                chunks += m;
                left[c] = n;
            }
            left[c] -= 1;
            window.push(newest[c] << SLOT_BITS | (n - 1 - left[c]));
        }
        debug_assert!(left.iter().all(|&l| l == 0), "a window leaves no super-chunk partial");

        // The ML2 pages are whole windows plus the first `q` pages of one.
        let per_window = carves.len() as u32;
        let (whole, q) = ((data_pages - split) / h, ((data_pages - split) % h) as usize);
        let mut last = vec![None; classes];
        for (p, &entry) in window[..q].iter().enumerate() {
            last[class_at(p as u64)] = Some(entry);
        }
        let partial = (0..classes)
            .filter_map(|c| {
                let entry = last[c]?;
                let used = (entry & SLOT_MASK) + 1;
                let id = whole as u32 * per_window + (entry >> SLOT_BITS);
                (used < geometry[c].1).then_some((c, id, used))
            })
            .collect();
        // A carve's first page takes slot 0.
        let carved_in_q = window[..q].iter().filter(|&&e| e & SLOT_MASK == 0).count();
        let chunks_in_q = carves.get(carved_in_q).map_or(chunks, |&(_, offset)| offset);
        let ml2_chunks = whole * chunks as u64 + chunks_in_q as u64;
        let ml2_bytes = above(split);
        window.shrink_to_fit();
        carves.shrink_to_fit();
        Ok(Self {
            split,
            ml2_chunks,
            ml2_bytes,
            pages: InitialPages {
                samples,
                data_pages,
                table_pages,
                split,
                ml1_base: table_pages + ml2_chunks,
                window,
                carves_per_window: per_window,
            },
            carves: Carves {
                window: carves,
                window_chunks: chunks,
                base: table_pages as u32,
                len: whole as u32 * per_window + carved_in_q as u32,
            },
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

    /// The page-by-page coldest-first carve the window replaces: every
    /// ML2 page's `(class, super id, slot)`, each super-chunk's first
    /// chunk, the chunks carved and each class's partial super-chunk.
    #[allow(clippy::type_complexity)]
    fn walk(
        t: &SampleTable,
        ml2: &Ml2FreeLists,
        base: u64,
        pages: u64,
        split: u64,
    ) -> (Vec<(usize, u32, u8)>, Vec<u32>, u64, Vec<(usize, u32, u32)>) {
        let (mut left, mut newest) = (vec![0; ml2.classes()], vec![0; ml2.classes()]);
        let (mut placed, mut firsts, mut chunks) = (Vec::new(), Vec::new(), 0);
        for idx in (split..pages).rev() {
            let c = t.class(idx);
            let (m, n) = ml2.geometry(c);
            if left[c] == 0 {
                newest[c] = firsts.len() as u32;
                firsts.push((base + chunks) as u32);
                chunks += m as u64;
                left[c] = n;
            }
            left[c] -= 1;
            placed.push((c, newest[c], (n - 1 - left[c]) as u8));
        }
        placed.reverse();
        let partial = (0..ml2.classes())
            .filter(|&c| left[c] > 0)
            .map(|c| (c, newest[c], (ml2.geometry(c).1 - left[c]) as u32))
            .collect();
        (placed, firsts, chunks, partial)
    }

    #[test]
    fn window_placement_matches_the_page_by_page_walk() {
        let ml2 = Ml2FreeLists::paper_classes();
        let sets: [&[usize]; 4] = [
            &[1200],
            &[300, 1300, 2600, 900, 4000, 1800, 250, 5000],
            &[700, 100],
            &[3100, 2000, 1500, 600],
        ];
        for sizes in sets {
            let h = 16 * sizes.len() as u64;
            for pages in [0, 1, 63, 1000, h - 1, h, h + 1, 3 * h + 17] {
                let t = SampleTable::new(&model(sizes), &ml2);
                let all_ml2 = ml2_frames(t.rounded_bytes_below(pages));
                for avail in [0, 40 + all_ml2 / 2, 40 + all_ml2, pages / 2 + 40, pages + 40] {
                    let ctx = format!("{sizes:?} pages={pages} avail={avail}");
                    let Ok(plan) = PlacementPlan::search(t.clone(), &ml2, 5, pages, avail, 40)
                    else {
                        continue;
                    };
                    let (placed, firsts, chunks, partial) = walk(&t, &ml2, 5, pages, plan.split);
                    assert_eq!(plan.ml2_chunks, chunks, "{ctx}");
                    assert_eq!(plan.partial, partial, "{ctx}");
                    assert_eq!(plan.carves.len() as usize, firsts.len(), "{ctx}");
                    for (id, &first) in firsts.iter().enumerate() {
                        assert_eq!(plan.carves.get(id as u32).map(|g| g.0), Some(first), "{ctx}");
                    }
                    assert_eq!(plan.carves.get(firsts.len() as u32), None, "{ctx}");
                    for (idx, &(class, super_id, slot)) in (plan.split..).zip(&placed) {
                        let Placement::Ml2 { sub, .. } = plan.pages.data_page(idx).place else {
                            panic!("{ctx}: page {idx} is not in ML2");
                        };
                        assert_eq!(sub, SubChunk { class, super_id, slot }, "{ctx}: page {idx}");
                    }
                }
            }
        }
    }

    #[test]
    fn periodic_sum_matches_page_by_page() {
        let ml2 = Ml2FreeLists::paper_classes();
        for sizes in [&[300, 1300, 5000, 2000][..], &[700, 100][..], &[1][..]] {
            let t = SampleTable::new(&model(sizes), &ml2);
            for pages in [0, 1, 3, 4, 5, 63, 64, 1000, 4099] {
                let naive: u64 = (0..pages).map(|i| ml2.class_size(t.class(i)) as u64).sum();
                assert_eq!(t.rounded_bytes_below(pages), naive, "{sizes:?} {pages}");
            }
        }
    }
}
