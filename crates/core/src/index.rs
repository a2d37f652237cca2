//! The membership index behind the segment and block trees.
//!
//! Gallatin's contribution is using a concurrent vEB tree here; the
//! ablation benchmarks (DESIGN.md E14) need the same allocator running on
//! a flat linear-scan bitset to quantify what the tree buys. This enum
//! gives both structures one face; [`crate::GallatinConfig::search`]
//! selects the implementation.

use veb::{FlatBitset, VebTree};

/// Which search structure backs the segment/block indexes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchStructure {
    /// The paper's concurrent van Emde Boas tree.
    #[default]
    Veb,
    /// Single-level bitmap with linear word scans (ablation baseline).
    FlatScan,
}

/// A concurrent set over segment ids, vEB-backed or flat.
pub enum SegmentIndex {
    /// Backed by the concurrent vEB tree.
    Veb(VebTree),
    /// Backed by the flat linear-scan bitset.
    Flat(FlatBitset),
}

impl SegmentIndex {
    /// An empty index over `{0, …, universe−1}`.
    pub fn new(kind: SearchStructure, universe: u64) -> Self {
        match kind {
            SearchStructure::Veb => SegmentIndex::Veb(VebTree::new(universe)),
            SearchStructure::FlatScan => SegmentIndex::Flat(FlatBitset::new(universe)),
        }
    }

    /// A full index (every id present).
    pub fn new_full(kind: SearchStructure, universe: u64) -> Self {
        let s = Self::new(kind, universe);
        s.fill();
        s
    }

    /// Add `x`; returns whether it was absent.
    #[inline]
    pub fn insert(&self, x: u64) -> bool {
        match self {
            SegmentIndex::Veb(t) => t.insert(x),
            SegmentIndex::Flat(s) => s.insert(x),
        }
    }

    /// Atomically remove `x` if present (exclusive).
    #[inline]
    pub fn claim_exact(&self, x: u64) -> bool {
        match self {
            SegmentIndex::Veb(t) => t.claim_exact(x),
            SegmentIndex::Flat(s) => s.claim_exact(x),
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, x: u64) -> bool {
        match self {
            SegmentIndex::Veb(t) => t.contains(x),
            SegmentIndex::Flat(s) => s.contains(x),
        }
    }

    /// Minimum member ≥ `x`.
    #[inline]
    pub fn successor(&self, x: u64) -> Option<u64> {
        match self {
            SegmentIndex::Veb(t) => t.successor(x),
            SegmentIndex::Flat(s) => s.successor(x),
        }
    }

    /// Find-and-claim the first member ≥ `x`.
    #[inline]
    pub fn claim_first_ge(&self, x: u64) -> Option<u64> {
        match self {
            SegmentIndex::Veb(t) => t.claim_first_ge(x),
            SegmentIndex::Flat(s) => s.claim_first_ge(x),
        }
    }

    /// Minimum member ≥ `start`, wrapping to the front when nothing lies
    /// at or above the hint (probe-start randomization, paper §4.3).
    #[inline]
    pub fn find_first_from(&self, start: u64) -> Option<u64> {
        match self {
            SegmentIndex::Veb(t) => t.find_first_from(start),
            SegmentIndex::Flat(s) => s.find_first_from(start),
        }
    }

    /// Find-and-claim scanning from `start` with wraparound.
    #[inline]
    pub fn claim_first_from(&self, start: u64) -> Option<u64> {
        match self {
            SegmentIndex::Veb(t) => t.claim_first_from(start),
            SegmentIndex::Flat(s) => s.claim_first_from(start),
        }
    }

    /// Claim `n` contiguous members scanning from the back.
    #[inline]
    pub fn claim_contiguous_from_back(&self, n: u64) -> Option<u64> {
        match self {
            SegmentIndex::Veb(t) => t.claim_contiguous_from_back(n),
            SegmentIndex::Flat(s) => s.claim_contiguous_from_back(n),
        }
    }

    /// Insert the contiguous members `[x, x+n)`.
    #[inline]
    pub fn insert_range(&self, x: u64, n: u64) {
        match self {
            SegmentIndex::Veb(t) => t.insert_range(x, n),
            SegmentIndex::Flat(s) => s.insert_range(x, n),
        }
    }

    /// Exact membership count (leaf scan).
    pub fn count(&self) -> u64 {
        match self {
            SegmentIndex::Veb(t) => t.count(),
            SegmentIndex::Flat(s) => s.count(),
        }
    }

    /// Set every member. Reset-time only.
    pub fn fill(&self) {
        match self {
            SegmentIndex::Veb(t) => t.fill(),
            SegmentIndex::Flat(s) => s.fill(),
        }
    }

    /// Remove every member. Reset-time only.
    pub fn clear(&self) {
        match self {
            SegmentIndex::Veb(t) => t.clear(),
            SegmentIndex::Flat(s) => s.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_expose_identical_behaviour() {
        for kind in [SearchStructure::Veb, SearchStructure::FlatScan] {
            let s = SegmentIndex::new_full(kind, 200);
            assert_eq!(s.count(), 200);
            assert_eq!(s.claim_first_ge(0), Some(0));
            assert_eq!(s.successor(0), Some(1));
            assert_eq!(s.find_first_from(199), Some(199));
            assert_eq!(s.claim_first_from(199), Some(199));
            assert_eq!(s.find_first_from(199), Some(1)); // wraps
            assert_eq!(s.claim_first_from(199), Some(1)); // wraps
            s.insert(199);
            s.insert(1);
            assert_eq!(s.claim_contiguous_from_back(3), Some(197));
            assert!(!s.contains(197));
            assert!(s.contains(196));
            assert!(!s.claim_exact(197));
            s.insert_range(197, 3);
            assert!(s.claim_exact(197));
            s.clear();
            assert_eq!(s.count(), 0);
            assert!(s.insert(5));
            assert_eq!(s.claim_first_ge(0), Some(5));
        }
    }

    #[test]
    fn default_is_veb() {
        assert_eq!(SearchStructure::default(), SearchStructure::Veb);
    }
}
