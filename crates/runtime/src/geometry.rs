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
//! already ordered by `lo`. `image_coords` (`dependent.rs`) reaches it only
//! on its hypersparse arm; otherwise it reads its runs off a bitmap in
//! order. [`IntervalSet::intersect_count`] walks the same pass as
//! `intersect` but only counts. When one side of a `union`, or
//! the one run of `other` inside `self`'s span in a `subtract`, is a single
//! run, there is no pass: two binary searches and a copy of the runs it
//! does not touch.
//!
//! ## Domain
//!
//! Coordinates are any `i64`; adjacency tests saturate instead of
//! overflowing, so a run ending at `i64::MAX` is legal. [`Rect1::len`]
//! saturates at `u64::MAX` for the one interval (`[i64::MIN, i64::MAX]`)
//! whose length does not fit.
//!
//! ## Sharing
//!
//! A set's runs sit behind an [`Arc`]: every constructor wraps the `Vec` it
//! builds, and no operation writes into an existing set's runs, so a clone
//! is a reference-count bump and two clones share one allocation. Equality
//! answers at once for two sets that share one, which is what lets the
//! machine model keep a launch's coherence state and compare it later
//! without copying or walking it (`exec.rs`, "Launch replay").

use std::sync::Arc;

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
///
/// The runs are shared and never written in place (see "Sharing" above):
/// a clone costs a reference-count bump.
#[derive(Clone, Default)]
pub struct IntervalSet {
    rects: Arc<Vec<Rect1>>,
}

impl PartialEq for IntervalSet {
    fn eq(&self, other: &IntervalSet) -> bool {
        Arc::ptr_eq(&self.rects, &other.rects) || self.rects == other.rects
    }
}

impl Eq for IntervalSet {}

impl std::fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.rects.iter()).finish()
    }
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::wrap(Vec::new())
    }

    /// The one way runs become a set: behind a fresh, unshared [`Arc`].
    fn wrap(rects: Vec<Rect1>) -> Self {
        IntervalSet {
            rects: Arc::new(rects),
        }
    }

    /// A set holding exactly the points of `r`.
    pub fn from_rect(r: Rect1) -> Self {
        if r.is_empty() {
            Self::new()
        } else {
            Self::wrap(vec![r])
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
        Self::wrap(rects)
    }

    /// A set from runs the caller already produced in canonical form
    /// (sorted, disjoint, non-adjacent, none empty), kept as they are:
    /// nothing sorts and nothing coalesces, so a caller that left two
    /// touching runs apart yields a set unequal to every canonical one.
    pub(crate) fn from_canonical(mut rects: Vec<Rect1>) -> Self {
        debug_assert!(
            rects.iter().all(|r| !r.is_empty())
                && rects
                    .windows(2)
                    .all(|w| w[0].hi.saturating_add(1) < w[1].lo),
            "runs not canonical: {rects:?}"
        );
        rects.shrink_to_fit();
        Self::wrap(rects)
    }

    /// Release capacity beyond the stored runs. Sets that live on (coherence
    /// state, partitions) call this so a merge's scratch space is not kept.
    /// A set that shares its runs with another is left as it is.
    pub fn shrink_to_fit(&mut self) {
        if let Some(rects) = Arc::get_mut(&mut self.rects) {
            rects.shrink_to_fit();
        }
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

    /// Set union. When either side is one run, the other side's runs it
    /// does not touch are copied whole and the ones it touches merge into
    /// it (two binary searches); otherwise one merge.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        match (self.rects.as_slice(), other.rects.as_slice()) {
            ([], _) => other.clone(),
            (_, []) => self.clone(),
            (&[run], _) => other.plus_run(run),
            (_, &[run]) => self.plus_run(run),
            _ => self.union_walk(other),
        }
    }

    /// `self ∪ run`, allocated exactly.
    fn plus_run(&self, run: Rect1) -> IntervalSet {
        let lo = self
            .rects
            .partition_point(|x| x.hi.saturating_add(1) < run.lo);
        let hi = lo + self.rects[lo..].partition_point(|x| x.lo <= run.hi.saturating_add(1));
        let mut merged = run;
        if hi > lo {
            merged.lo = merged.lo.min(self.rects[lo].lo);
            merged.hi = merged.hi.max(self.rects[hi - 1].hi);
        }
        let mut out = Vec::with_capacity(lo + 1 + self.rects.len() - hi);
        out.extend_from_slice(&self.rects[..lo]);
        out.push(merged);
        out.extend_from_slice(&self.rects[hi..]);
        Self::wrap(out)
    }

    /// The merge behind [`IntervalSet::union`]: two pointers over the run
    /// lists by `lo`, coalescing overlap and adjacency as they go.
    fn union_walk(&self, other: &IntervalSet) -> IntervalSet {
        let (a, b) = (&self.rects, &other.rects);
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
        Self::wrap(out)
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
        Self::wrap(pieces(&self.rects, &other.rects).collect())
    }

    /// `(total_len, num_runs)` of `self ∩ other`, counted without building
    /// it — each piece of [`IntervalSet::intersect`]'s merge is one run —
    /// over only the runs of `other` inside `self`'s bounding run.
    pub fn intersect_count(&self, other: &IntervalSet) -> (u64, usize) {
        let within = &other.rects[other.overlapping(self.bounding_rect())];
        pieces(&self.rects, within).fold((0, 0), |(len, runs), piece| (len + piece.len(), runs + 1))
    }

    /// Index range of the runs of `self` that overlap the non-empty `r`
    /// (none for an empty `r`): two binary searches.
    fn overlapping(&self, r: Rect1) -> std::ops::Range<usize> {
        if r.is_empty() {
            return 0..0;
        }
        let first = self.rects.partition_point(|x| x.hi < r.lo);
        first..first + self.rects[first..].partition_point(|x| x.lo <= r.hi)
    }

    /// Set difference `self ∖ other`, over only the runs of `other` inside
    /// `self`'s bounding run. None: a copy. One — a replicated copy held
    /// whole, an owner's block — two binary searches, the runs it misses
    /// copied whole (nothing at all when it covers `self`). More: one
    /// merge. Every result is allocated once, at most one run per cut too
    /// large (stored differences shrink to fit).
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        match &other.rects[other.overlapping(self.bounding_rect())] {
            [] => self.clone(),
            &[cut] => self.minus_run(cut),
            cuts => self.subtract_walk(cuts),
        }
    }

    /// `self ∖ cut`, allocated exactly: the runs `cut` misses, and at most
    /// two trimmed pieces of the ones it overlaps.
    fn minus_run(&self, cut: Rect1) -> IntervalSet {
        let hit = self.overlapping(cut);
        let (before, after) = (&self.rects[..hit.start], &self.rects[hit.end..]);
        let mut pieces = [None, None];
        if !hit.is_empty() {
            let (first, last) = (self.rects[hit.start], self.rects[hit.end - 1]);
            if first.lo < cut.lo {
                pieces[0] = Some(Rect1::new(first.lo, cut.lo - 1));
            }
            if last.hi > cut.hi {
                pieces[1] = Some(Rect1::new(cut.hi + 1, last.hi));
            }
        }
        let kept = pieces.iter().flatten().count();
        let mut out = Vec::with_capacity(before.len() + kept + after.len());
        out.extend_from_slice(before);
        out.extend(pieces.into_iter().flatten());
        out.extend_from_slice(after);
        Self::wrap(out)
    }

    /// The merge behind [`IntervalSet::subtract`]: `self` minus the sorted,
    /// disjoint runs `cuts`, each of which splits at most one piece in two.
    fn subtract_walk(&self, cuts: &[Rect1]) -> IntervalSet {
        let mut out = Vec::with_capacity(self.rects.len() + cuts.len());
        let mut j = 0;
        for &r in self.rects.iter() {
            let mut cur = r;
            while j < cuts.len() && cuts[j].hi < cur.lo {
                j += 1;
            }
            let mut k = j;
            while k < cuts.len() && cuts[k].lo <= cur.hi {
                let cut = cuts[k];
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
        Self::wrap(out)
    }

    /// True iff the two sets share at least one point.
    pub fn overlaps(&self, other: &IntervalSet) -> bool {
        pieces(&self.rects, &other.rects).next().is_some()
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

/// The non-empty pieces of `a ∩ b` for two canonical run lists, in order:
/// one two-pointer merge, the walk behind `intersect`, `intersect_count`
/// and `overlaps`.
fn pieces<'a>(a: &'a [Rect1], b: &'a [Rect1]) -> impl Iterator<Item = Rect1> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        while i < a.len() && j < b.len() {
            let piece = a[i].intersect(&b[j]);
            if a[i].hi < b[j].hi {
                i += 1;
            } else {
                j += 1;
            }
            if !piece.is_empty() {
                return Some(piece);
            }
        }
        None
    })
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
    use proptest::prelude::*;

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

    /// Sorted, disjoint, non-adjacent, no empty run.
    fn is_canonical(s: &IntervalSet) -> bool {
        s.rects.iter().all(|r| !r.is_empty())
            && s.rects
                .windows(2)
                .all(|w| w[0].hi.saturating_add(1) < w[1].lo)
    }

    /// Up to six runs near 0, or near `i64::MAX` (`mode` 1), one of them
    /// then sometimes ending at it (`mode` 2); `touch` adds a run starting
    /// right after one, which `from_rects` coalesces.
    fn arb_set() -> impl Strategy<Value = IntervalSet> {
        let runs = proptest::collection::vec((0i64..40, 0i64..8, proptest::bool::ANY), 0..7);
        (runs, 0u32..3).prop_map(|(runs, mode)| {
            let base = if mode == 0 { 0 } else { i64::MAX - 48 };
            let mut rects = Vec::new();
            for (lo, len, touch) in runs {
                let r = Rect1::new(base + lo, base + lo + len);
                rects.push(r);
                if touch {
                    rects.push(Rect1::new(r.hi + 1, r.hi + 2));
                }
            }
            if mode == 2 {
                rects.push(Rect1::new(i64::MAX - 3, i64::MAX));
            }
            IntervalSet::from_rects(rects)
        })
    }

    /// A right operand for `a`: an arbitrary set, `a` itself, or one run
    /// covering `a`'s bounding run, exactly or widened (to `i64::MAX` at
    /// most).
    fn arb_pair() -> impl Strategy<Value = (IntervalSet, IntervalSet)> {
        (arb_set(), arb_set(), 0u32..4, 0i64..3, 0i64..3).prop_map(|(a, b, kind, wl, wh)| {
            let span = a.bounding_rect();
            let cover = |wl: i64, wh: i64| {
                Rect1::new(span.lo.saturating_sub(wl), span.hi.saturating_add(wh))
            };
            let b = match kind {
                0 => b,
                1 => a.clone(),
                2 => IntervalSet::from_rect(cover(0, 0)),
                _ => IntervalSet::from_rect(cover(wl, wh)).union(&b),
            };
            (a, b)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn counting_walk_counts_the_intersection((a, b) in arb_pair()) {
            let inter = a.intersect(&b);
            prop_assert_eq!(a.intersect_count(&b), (inter.total_len(), inter.num_runs()));
            let back = b.intersect(&a);
            prop_assert_eq!(b.intersect_count(&a), (back.total_len(), back.num_runs()));
        }

        /// `subtract` and `union` answer as their merges do — in canonical
        /// form, allocated exactly when a side is one run (stored results
        /// keep no scratch capacity through `shrink_to_fit` either way).
        #[test]
        fn one_run_splices_equal_the_merges((a, b) in arb_pair()) {
            for (x, y) in [(&a, &b), (&b, &a)] {
                let diff = x.subtract(y);
                prop_assert_eq!(&diff, &x.subtract_walk(&y.rects));
                prop_assert!(is_canonical(&diff), "{:?} \\ {:?} = {:?}", x, y, diff);
                let union = x.union(y);
                prop_assert_eq!(&union, &x.union_walk(y));
                prop_assert!(is_canonical(&union), "{:?} ∪ {:?} = {:?}", x, y, union);
                if x.num_runs() == 1 || y.num_runs() == 1 {
                    prop_assert_eq!(union.rects.capacity(), union.num_runs());
                }
                if y.num_runs() == 1 {
                    prop_assert_eq!(diff.rects.capacity(), diff.num_runs());
                }
            }
        }
    }

    #[test]
    fn one_run_cases_take_the_short_path() {
        let run = IntervalSet::from_rect(Rect1::new(0, 99));
        let many: IntervalSet = (0..50).map(|k| Rect1::new(2 * k, 2 * k)).collect();
        // Covered: nothing left, nothing allocated.
        let gone = many.subtract(&run);
        assert!(gone.is_empty() && gone.rects.capacity() == 0);
        assert_eq!(many.intersect_count(&run), (50, 50));
        assert_eq!(run.intersect_count(&many), (50, 50));
        // One cut in the middle, and a run bridging two gaps.
        let mid = IntervalSet::from_rect(Rect1::new(41, 59));
        assert_eq!(many.subtract(&mid).num_runs(), 41);
        assert_eq!(many.intersect_count(&mid), (9, 9));
        let bridge = IntervalSet::from_rect(Rect1::new(3, 5));
        let joined = many.union(&bridge);
        assert_eq!(
            &joined.rects[..3],
            &[Rect1::new(0, 0), Rect1::new(2, 6), Rect1::new(8, 8)]
        );
        assert_eq!(joined.num_runs(), 48);
        // Two cuts: the merge answers.
        let split = IntervalSet::from_rects(vec![Rect1::new(0, 49), Rect1::new(51, 99)]);
        assert_eq!(many.subtract(&split).rects(), &[Rect1::new(50, 50)]);
        assert_eq!(many.intersect_count(&split), (49, 49));
        assert_eq!(IntervalSet::new().intersect_count(&run), (0, 0));
        assert!(IntervalSet::new().subtract(&run).is_empty());
    }

    #[test]
    fn bounding_rect_and_runs() {
        let s = IntervalSet::from_rects(vec![Rect1::new(0, 1), Rect1::new(5, 6)]);
        assert_eq!(s.bounding_rect(), Rect1::new(0, 6));
        assert_eq!(s.num_runs(), 2);
        assert_eq!(IntervalSet::new().bounding_rect(), Rect1::empty());
    }
}
