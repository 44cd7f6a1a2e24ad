//! A sparse two-level array for copy-on-write overlays.
//!
//! The two-level scheme's initial state is a closed-form function of the
//! placement plan; only entries that diverge from it are stored. A
//! [`Paged`] array is a directory of fixed-size leaves, each allocated on
//! its first write, so an overlay over a terabyte-scale index space costs
//! one directory slot per leaf plus the leaves actually written — and
//! lookups stay two loads, never a hash. The leaves share one slab, in
//! first-write order, so a structure's overlay is one allocation that
//! audits walk with few cache and TLB misses, not thousands of scattered
//! ones.

/// A directory of `N`-entry leaves allocated on first write. Entries of a
/// leaf that was never written read as absent ([`Paged::get`] returns
/// `None`); entries of an allocated leaf start at `T::default()`.
#[derive(Debug, Clone)]
pub(crate) struct Paged<T, const N: usize> {
    /// Per leaf: one plus its position in `slab`, or 0 while unwritten.
    dir: Vec<u32>,
    slab: Vec<[T; N]>,
}

impl<T: Default, const N: usize> Paged<T, N> {
    pub(crate) fn new() -> Self {
        Self { dir: Vec::new(), slab: Vec::new() }
    }

    /// The entry at `i`, or `None` when its leaf was never written.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.leaf(i / N).map(|leaf| &leaf[i % N])
    }

    /// Leaf `d` (entries `d·N..(d+1)·N`), if it was ever written.
    #[inline]
    pub(crate) fn leaf(&self, d: usize) -> Option<&[T; N]> {
        match *self.dir.get(d)? {
            0 => None,
            at => Some(&self.slab[at as usize - 1]),
        }
    }

    /// Mutable access to the entry at `i`, allocating its leaf (and
    /// growing the directory) on first write.
    pub(crate) fn entry(&mut self, i: usize) -> &mut T {
        let d = i / N;
        if d >= self.dir.len() {
            self.dir.resize(d + 1, 0);
        }
        if self.dir[d] == 0 {
            self.slab.push(std::array::from_fn(|_| T::default()));
            self.dir[d] = u32::try_from(self.slab.len()).expect("fewer than 2^32 leaves");
        }
        &mut self.slab[self.dir[d] as usize - 1][i % N]
    }

    /// One past the highest index any allocated leaf covers.
    pub(crate) fn bound(&self) -> usize {
        self.dir.len() * N
    }

    /// Allocated leaves, in first-write order.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = &[T; N]> + '_ {
        self.slab.iter()
    }

    /// Host heap bytes: the directory's and the slab's capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.dir.capacity() * std::mem::size_of::<u32>()
            + self.slab.capacity() * std::mem::size_of::<[T; N]>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_leaves_read_absent_and_writes_allocate_one_leaf() {
        let mut p: Paged<u32, 4> = Paged::new();
        assert!(p.get(0).is_none());
        *p.entry(9) = 7;
        assert_eq!(p.get(9), Some(&7));
        assert_eq!(p.get(8), Some(&0), "same leaf, default entry");
        assert!(p.get(3).is_none() && p.get(12).is_none());
        assert_eq!(p.bound(), 12);
        *p.entry(10) = 1;
        assert_eq!(p.leaves().count(), 1, "still one leaf");
        *p.entry(1) = 5;
        assert_eq!(p.get(1), Some(&5));
        assert_eq!(p.get(9), Some(&7), "a second leaf leaves the first intact");
        assert_eq!(p.leaves().count(), 2);
    }
}
