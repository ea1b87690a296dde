//! Basic geometric primitives: inclusive 1-D intervals ([`Rect1`]) and sets of
//! disjoint intervals ([`IntervalSet`]).
//!
//! SpDISTAL encodes compressed tensor levels with a `pos` region whose values
//! are *intervals* into a `crd` region (Section III-B of the paper), so
//! interval arithmetic is the workhorse of the whole partitioning subsystem.
//! Partitions color (possibly overlapping) subsets of an index space; each
//! color's subset is represented here as an [`IntervalSet`].
//!
//! ## Cost
//!
//! Every binary operation on two *canonical* sets (`union`, `intersect`,
//! `subtract`, `overlaps`) is one two-pointer pass over the runs of both
//! operands and produces a canonical result directly — none of them sorts.
//! Only [`IntervalSet::from_rects`] may sort, and only input that is not
//! already ordered by `lo`.
//!
//! ## Domain
//!
//! Coordinates are any `i64`; adjacency tests saturate instead of
//! overflowing, so a run ending at `i64::MAX` is legal. [`Rect1::len`]
//! saturates at `u64::MAX` for the one interval (`[i64::MIN, i64::MAX]`)
//! whose length does not fit.

/// An inclusive 1-D interval `[lo, hi]`. Empty iff `lo > hi`.
///
/// This mirrors the `(lo, hi)` tuples SpDISTAL stores in `pos` regions so
/// that dependent partitioning (image/preimage) can relate `pos` and `crd`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rect1 {
    pub lo: i64,
    pub hi: i64,
}

impl std::fmt::Debug for Rect1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{},{}]", self.lo, self.hi)
    }
}

impl Rect1 {
    /// Create the interval `[lo, hi]` (inclusive on both ends).
    pub const fn new(lo: i64, hi: i64) -> Self {
        Rect1 { lo, hi }
    }

    /// The canonical empty interval.
    pub const fn empty() -> Self {
        Rect1 { lo: 0, hi: -1 }
    }

    /// True iff the interval contains no points.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Number of points in the interval (saturating at `u64::MAX` for
    /// `[i64::MIN, i64::MAX]`, the one length that does not fit).
    pub fn len(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.hi.abs_diff(self.lo).saturating_add(1)
        }
    }

    /// True iff `p` lies inside the interval.
    pub fn contains(&self, p: i64) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// True iff `other` is entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect1) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Intersection of two intervals (possibly empty).
    pub fn intersect(&self, other: &Rect1) -> Rect1 {
        Rect1 {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// True iff the two intervals share at least one point.
    pub fn overlaps(&self, other: &Rect1) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Iterate over the points of the interval.
    pub fn iter(&self) -> impl Iterator<Item = i64> {
        self.lo..=self.hi
    }
}

/// A set of points on the integer line, stored as sorted, disjoint,
/// non-adjacent intervals.
///
/// `IntervalSet` is the representation of one color's subset in a
/// [`crate::partition::Partition`]. Subsets of *different* colors may overlap
/// (partitions in the Legion model are allowed to alias); the invariants here
/// apply only within a single set.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct IntervalSet {
    rects: Vec<Rect1>,
}

impl std::fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.rects.iter()).finish()
    }
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet { rects: Vec::new() }
    }

    /// A set holding exactly the points of `r`.
    pub fn from_rect(r: Rect1) -> Self {
        if r.is_empty() {
            Self::new()
        } else {
            IntervalSet { rects: vec![r] }
        }
    }

    /// Build a set from arbitrary (unsorted, possibly overlapping) intervals.
    /// Sorts only input that is not already ordered by `lo`; coalescing is
    /// one in-place pass.
    pub fn from_rects(mut rects: Vec<Rect1>) -> Self {
        rects.retain(|r| !r.is_empty());
        if !rects.is_sorted_by_key(|r| r.lo) {
            rects.sort_unstable_by_key(|r| r.lo);
        }
        // `dedup_by` hands over (candidate, last kept): absorb the candidate
        // into the last kept run when they overlap or touch.
        rects.dedup_by(|r, last| {
            let joins = touches(last, r);
            if joins {
                last.hi = last.hi.max(r.hi);
            }
            joins
        });
        // Results of `from_rects` are mostly stored (partition subsets):
        // keep neither the caller's growth slack nor the coalesced-away tail.
        rects.shrink_to_fit();
        IntervalSet { rects }
    }

    /// Release capacity beyond the stored runs. Sets that live on (coherence
    /// state, partitions) call this so a merge's scratch space is not kept.
    pub fn shrink_to_fit(&mut self) {
        self.rects.shrink_to_fit();
    }

    /// The normalized intervals of the set.
    pub fn rects(&self) -> &[Rect1] {
        &self.rects
    }

    /// True iff the set contains no points.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Total number of points in the set.
    pub fn total_len(&self) -> u64 {
        self.rects.iter().map(Rect1::len).sum()
    }

    /// Number of maximal contiguous runs. Used by the machine model to count
    /// messages: each run is one contiguous copy.
    pub fn num_runs(&self) -> usize {
        self.rects.len()
    }

    /// Smallest interval covering the whole set (empty if the set is empty).
    pub fn bounding_rect(&self) -> Rect1 {
        match (self.rects.first(), self.rects.last()) {
            (Some(a), Some(b)) => Rect1::new(a.lo, b.hi),
            _ => Rect1::empty(),
        }
    }

    /// Membership test (binary search).
    pub fn contains(&self, p: i64) -> bool {
        let idx = self.rects.partition_point(|r| r.hi < p);
        self.rects.get(idx).is_some_and(|r| r.contains(p))
    }

    /// True iff every point of `other` is in `self`.
    pub fn contains_set(&self, other: &IntervalSet) -> bool {
        other.subtract(self).is_empty()
    }

    /// Set union: a two-pointer merge of the two run lists by `lo` that
    /// coalesces overlap and adjacency as it goes.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let (a, b) = (&self.rects, &other.rects);
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() { other } else { self }.clone();
        }
        let mut out: Vec<Rect1> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let r = if j == b.len() || (i < a.len() && a[i].lo <= b[j].lo) {
                i += 1;
                a[i - 1]
            } else {
                j += 1;
                b[j - 1]
            };
            match out.last_mut() {
                Some(last) if touches(last, &r) => last.hi = last.hi.max(r.hi),
                _ => out.push(r),
            }
        }
        IntervalSet { rects: out }
    }

    /// `self ∪= other`, for sets that are stored: the result keeps none of
    /// the merge's scratch capacity.
    pub fn union_with(&mut self, other: &IntervalSet) {
        if !other.is_empty() {
            *self = self.union(other);
            self.shrink_to_fit();
        }
    }

    /// Set intersection (linear merge over both interval lists).
    ///
    /// The pieces come out sorted and disjoint, and no two are adjacent:
    /// pieces `[a,b]` and `[b+1,c]` would put `b` and `b+1` in both inputs,
    /// each input (being canonical) would hold them in one run, and the
    /// intersection of those two runs is one piece containing both. So two
    /// canonical sets intersect to a canonical set and the output is
    /// returned as is.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.rects.len() && j < other.rects.len() {
            let r = self.rects[i].intersect(&other.rects[j]);
            if !r.is_empty() {
                out.push(r);
            }
            if self.rects[i].hi < other.rects[j].hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { rects: out }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let mut j = 0;
        for &r in &self.rects {
            let mut cur = r;
            while j < other.rects.len() && other.rects[j].hi < cur.lo {
                j += 1;
            }
            let mut k = j;
            while k < other.rects.len() && other.rects[k].lo <= cur.hi {
                let cut = other.rects[k];
                if cut.lo > cur.lo {
                    out.push(Rect1::new(cur.lo, (cut.lo - 1).min(cur.hi)));
                }
                if cut.hi >= cur.hi {
                    cur = Rect1::empty();
                    break;
                }
                cur = Rect1::new(cur.lo.max(cut.hi + 1), cur.hi);
                k += 1;
            }
            if !cur.is_empty() {
                out.push(cur);
            }
        }
        IntervalSet { rects: out }
    }

    /// True iff the two sets share at least one point.
    pub fn overlaps(&self, other: &IntervalSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.rects.len() && j < other.rects.len() {
            if self.rects[i].overlaps(&other.rects[j]) {
                return true;
            }
            if self.rects[i].hi < other.rects[j].hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Iterate over all points of the set in increasing order.
    pub fn iter_points(&self) -> impl Iterator<Item = i64> + '_ {
        self.rects.iter().flat_map(|r| r.iter())
    }

    /// Intersect with a single interval, yielding the overlapping pieces in
    /// order. O(log n + k); the hot path of partition-clamped iteration.
    pub fn intersect_rect<'a>(&'a self, r: Rect1) -> impl Iterator<Item = Rect1> + 'a {
        let start = self.rects.partition_point(|x| x.hi < r.lo);
        self.rects[start..]
            .iter()
            .take_while(move |x| x.lo <= r.hi)
            .map(move |x| x.intersect(&r))
            .filter(|x| !x.is_empty())
    }
}

/// True iff `next` (with `next.lo >= last.lo`) overlaps or is adjacent to
/// `last`, i.e. the two belong to one run. Saturating: a run ending at
/// `i64::MAX` absorbs everything after it instead of overflowing.
fn touches(last: &Rect1, next: &Rect1) -> bool {
    next.lo <= last.hi.saturating_add(1)
}

impl FromIterator<Rect1> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = Rect1>>(iter: T) -> Self {
        IntervalSet::from_rects(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basics() {
        let r = Rect1::new(2, 5);
        assert_eq!(r.len(), 4);
        assert!(r.contains(2) && r.contains(5) && !r.contains(6));
        assert!(Rect1::empty().is_empty());
        assert_eq!(Rect1::new(5, 2).len(), 0);
    }

    #[test]
    fn rect_intersect_overlap() {
        let a = Rect1::new(0, 10);
        let b = Rect1::new(5, 15);
        assert_eq!(a.intersect(&b), Rect1::new(5, 10));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&Rect1::new(11, 20)));
        assert!(a.contains_rect(&Rect1::new(3, 7)));
        assert!(!a.contains_rect(&b));
        assert!(a.contains_rect(&Rect1::empty()));
    }

    #[test]
    fn from_rects_normalizes() {
        let s = IntervalSet::from_rects(vec![
            Rect1::new(5, 7),
            Rect1::new(0, 2),
            Rect1::new(3, 4), // adjacent to [0,2] -> merge
            Rect1::new(6, 9), // overlaps [5,7] -> merge
            Rect1::empty(),
        ]);
        // Everything chains together through adjacency into one interval.
        assert_eq!(s.rects(), &[Rect1::new(0, 9)]);
        let s2 = IntervalSet::from_rects(vec![Rect1::new(0, 3), Rect1::new(5, 9)]);
        assert_eq!(s2.rects(), &[Rect1::new(0, 3), Rect1::new(5, 9)]);
    }

    #[test]
    fn from_rects_merges_adjacent_after_sort() {
        let s = IntervalSet::from_rects(vec![Rect1::new(5, 9), Rect1::new(0, 4)]);
        assert_eq!(s.rects(), &[Rect1::new(0, 9)]);
    }

    /// Adjacency is tested with `last.hi + 1`; a run ending at `i64::MAX`
    /// must saturate there instead of overflowing (a debug-build panic).
    #[test]
    fn runs_ending_at_i64_max_do_not_overflow() {
        let top = Rect1::new(i64::MAX - 3, i64::MAX);
        let s = IntervalSet::from_rects(vec![top, Rect1::new(i64::MAX - 1, i64::MAX)]);
        assert_eq!(s.rects(), &[top]);
        let low = IntervalSet::from_rect(Rect1::new(0, 9));
        let u = IntervalSet::from_rect(top).union(&low).union(&s);
        assert_eq!(u.rects(), &[Rect1::new(0, 9), top]);
        assert_eq!(u.subtract(&low).rects(), &[top]);
        assert_eq!(u.intersect(&s).rects(), &[top]);
        // `len` is total: the extremes neither overflow nor wrap.
        assert_eq!(top.len(), 4);
        assert_eq!(Rect1::new(i64::MIN, -1).len(), 1 << 63);
        assert_eq!(Rect1::new(i64::MIN, i64::MAX).len(), u64::MAX);
        assert_eq!(Rect1::new(i64::MIN, i64::MAX - 1).len(), u64::MAX);
    }

    #[test]
    fn union_with_keeps_no_scratch_capacity() {
        let mut s = IntervalSet::from_rects(vec![Rect1::new(0, 1), Rect1::new(4, 5)]);
        s.union_with(&IntervalSet::from_rects(vec![
            Rect1::new(2, 3),
            Rect1::new(9, 9),
        ]));
        assert_eq!(s.rects(), &[Rect1::new(0, 5), Rect1::new(9, 9)]);
        assert_eq!(s.rects.capacity(), 2);
        s.union_with(&IntervalSet::new());
        assert_eq!(s.num_runs(), 2);
    }

    #[test]
    fn union_intersect_subtract() {
        let a = IntervalSet::from_rects(vec![Rect1::new(0, 4), Rect1::new(10, 14)]);
        let b = IntervalSet::from_rects(vec![Rect1::new(3, 11)]);
        assert_eq!(a.union(&b).total_len(), 15);
        assert_eq!(a.intersect(&b).total_len(), 4); // {3,4} + {10,11}
        let d = a.subtract(&b);
        assert_eq!(d.total_len(), 6); // {0,1,2} + {12,13,14}
        assert!(d.contains(0) && d.contains(14) && !d.contains(3) && !d.contains(10));
    }

    #[test]
    fn subtract_splits_interval() {
        let a = IntervalSet::from_rect(Rect1::new(0, 10));
        let b = IntervalSet::from_rect(Rect1::new(4, 6));
        let d = a.subtract(&b);
        assert_eq!(d.rects(), &[Rect1::new(0, 3), Rect1::new(7, 10)]);
    }

    #[test]
    fn subtract_multiple_cuts() {
        let a = IntervalSet::from_rect(Rect1::new(0, 20));
        let b =
            IntervalSet::from_rects(vec![Rect1::new(2, 3), Rect1::new(8, 9), Rect1::new(18, 25)]);
        let d = a.subtract(&b);
        assert_eq!(
            d.rects(),
            &[Rect1::new(0, 1), Rect1::new(4, 7), Rect1::new(10, 17)]
        );
    }

    #[test]
    fn contains_and_membership() {
        let s = IntervalSet::from_rects(vec![Rect1::new(0, 2), Rect1::new(8, 9)]);
        assert!(s.contains(0) && s.contains(2) && s.contains(8));
        assert!(!s.contains(3) && !s.contains(7) && !s.contains(10));
        assert!(s.contains_set(&IntervalSet::from_rect(Rect1::new(1, 2))));
        assert!(!s.contains_set(&IntervalSet::from_rect(Rect1::new(1, 3))));
    }

    #[test]
    fn overlaps_set() {
        let a = IntervalSet::from_rects(vec![Rect1::new(0, 2), Rect1::new(10, 12)]);
        let b = IntervalSet::from_rects(vec![Rect1::new(3, 9)]);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&IntervalSet::from_rect(Rect1::new(2, 3))));
    }

    #[test]
    fn iter_points_ordered() {
        let s = IntervalSet::from_rects(vec![Rect1::new(4, 5), Rect1::new(0, 1)]);
        let pts: Vec<i64> = s.iter_points().collect();
        assert_eq!(pts, vec![0, 1, 4, 5]);
    }

    #[test]
    fn bounding_rect_and_runs() {
        let s = IntervalSet::from_rects(vec![Rect1::new(0, 1), Rect1::new(5, 6)]);
        assert_eq!(s.bounding_rect(), Rect1::new(0, 6));
        assert_eq!(s.num_runs(), 2);
        assert_eq!(IntervalSet::new().bounding_rect(), Rect1::empty());
    }
}
