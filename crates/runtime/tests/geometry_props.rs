//! Model-based property tests for the geometric substrate: every
//! [`IntervalSet`] operation must agree with the same operation on a plain
//! set of points, and the dependent-partitioning operators must satisfy
//! their algebraic laws for arbitrary pos/crd structures. These invariants
//! carry the whole partitioning subsystem.

use std::collections::BTreeSet;

use proptest::prelude::*;
use spdistal_runtime::{image_rects, preimage_rects, IntervalSet, Partition, Rect1};

fn arb_set() -> impl Strategy<Value = (IntervalSet, BTreeSet<i64>)> {
    proptest::collection::vec((0i64..100, 0i64..12), 0..12).prop_map(|pairs| {
        let rects: Vec<Rect1> = pairs
            .iter()
            .map(|&(lo, len)| Rect1::new(lo, lo + len))
            .collect();
        let model: BTreeSet<i64> = rects.iter().flat_map(|r| r.iter()).collect();
        (IntervalSet::from_rects(rects), model)
    })
}

/// A set over a *small* universe built to hit the rewritten algebra's
/// corners: touching runs (`[a,b]`,`[b+1,c]`), containment, duplicates,
/// empty rects, and — when `sorted` — input already ordered by `lo`, the
/// path on which `from_rects` skips its sort.
fn arb_small_set() -> impl Strategy<Value = (Vec<Rect1>, BTreeSet<i64>)> {
    (
        proptest::collection::vec((0i64..24, -1i64..6, 0usize..4), 0..8),
        0usize..2,
    )
        .prop_map(|(triples, sorted)| {
            let sorted = sorted == 1;
            let mut rects = Vec::new();
            for (lo, len, extra) in triples {
                let r = Rect1::new(lo, lo + len); // len == -1: an empty rect
                rects.push(r);
                match extra {
                    1 if !r.is_empty() => rects.push(Rect1::new(r.hi + 1, r.hi + 2)), // adjacent
                    2 if r.len() > 2 => rects.push(Rect1::new(r.lo + 1, r.hi - 1)),   // contained
                    3 => rects.push(r),                                               // duplicate
                    _ => {}
                }
            }
            if sorted {
                rects.sort_by_key(|r| r.lo);
            }
            let model = rects.iter().flat_map(|r| r.iter()).collect();
            (rects, model)
        })
}

/// Sorted, disjoint, non-adjacent, no empty rect.
fn is_canonical(s: &IntervalSet) -> bool {
    s.rects().iter().all(|r| !r.is_empty()) && s.rects().windows(2).all(|w| w[0].hi + 1 < w[1].lo)
}

fn points(s: &IntervalSet) -> BTreeSet<i64> {
    s.iter_points().collect()
}

/// An arbitrary pos array: contiguous, possibly-empty row ranges over a crd
/// space, exactly as compressed tensor levels produce.
fn arb_pos() -> impl Strategy<Value = (Vec<Rect1>, u64)> {
    proptest::collection::vec(0i64..6, 1..20).prop_map(|row_lens| {
        let mut pos = Vec::with_capacity(row_lens.len());
        let mut cur = 0i64;
        for len in row_lens {
            if len == 0 {
                pos.push(Rect1::empty());
            } else {
                pos.push(Rect1::new(cur, cur + len - 1));
                cur += len;
            }
        }
        (pos, cur.max(1) as u64)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interval_set_ops_match_point_sets(
        (a, ma) in arb_set(),
        (b, mb) in arb_set(),
    ) {
        let union: BTreeSet<i64> = ma.union(&mb).copied().collect();
        let inter: BTreeSet<i64> = ma.intersection(&mb).copied().collect();
        let diff: BTreeSet<i64> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(a.union(&b).iter_points().collect::<BTreeSet<_>>(), union);
        prop_assert_eq!(a.intersect(&b).iter_points().collect::<BTreeSet<_>>(), inter);
        prop_assert_eq!(a.subtract(&b).iter_points().collect::<BTreeSet<_>>(), diff);
        prop_assert_eq!(a.overlaps(&b), !ma.is_disjoint(&mb));
        prop_assert_eq!(a.total_len(), ma.len() as u64);
        for p in 0..100i64 {
            prop_assert_eq!(a.contains(p), ma.contains(&p));
        }
    }

    /// The sort-free algebra against a brute-force point-set model: every
    /// result holds exactly the model's points *and* is in canonical form
    /// (`intersect` returns its merge output as is; `union` coalesces as it
    /// merges; `from_rects` may skip its sort).
    #[test]
    fn rewritten_algebra_matches_point_sets_canonically(
        (ra, ma) in arb_small_set(),
        (rb, mb) in arb_small_set(),
    ) {
        let (a, b) = (IntervalSet::from_rects(ra.clone()), IntervalSet::from_rects(rb));
        prop_assert_eq!(&points(&a), &ma);
        prop_assert!(is_canonical(&a) && is_canonical(&b));
        // Order of the input never matters.
        let mut reversed = ra;
        reversed.reverse();
        prop_assert_eq!(&IntervalSet::from_rects(reversed), &a);

        let (union, inter, diff) = (a.union(&b), a.intersect(&b), a.subtract(&b));
        prop_assert_eq!(points(&union), ma.union(&mb).copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(points(&inter), ma.intersection(&mb).copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(points(&diff), ma.difference(&mb).copied().collect::<BTreeSet<_>>());
        prop_assert!(is_canonical(&union), "union {:?}", union);
        prop_assert!(is_canonical(&inter), "intersect {:?}", inter);
        prop_assert!(is_canonical(&diff), "subtract {:?}", diff);
        // Canonical form is unique, so equal point sets are equal values.
        prop_assert_eq!(&union, &b.union(&a));
        prop_assert_eq!(&inter, &b.intersect(&a));
        prop_assert_eq!(&diff.union(&inter), &a);
        let mut stored = a.clone();
        stored.union_with(&b);
        prop_assert_eq!(&stored, &union);
        // Empty operands.
        let empty = IntervalSet::new();
        prop_assert_eq!(&a.union(&empty), &a);
        prop_assert_eq!(&empty.union(&a), &a);
        prop_assert!(a.intersect(&empty).is_empty() && empty.subtract(&a).is_empty());
        prop_assert_eq!(&a.subtract(&empty), &a);
    }

    #[test]
    fn normalization_is_canonical((a, _) in arb_set(), (b, _) in arb_set()) {
        // Rebuilding from a set's own rects is the identity, and rect lists
        // are sorted, disjoint and non-adjacent.
        let rebuilt = IntervalSet::from_rects(a.rects().to_vec());
        prop_assert_eq!(&rebuilt, &a);
        for w in a.rects().windows(2) {
            prop_assert!(w[0].hi + 1 < w[1].lo);
        }
        // Union is commutative and associative with itself.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a);
    }

    #[test]
    fn intersect_rect_matches_full_intersect((a, _) in arb_set(), lo in 0i64..100, len in 0i64..30) {
        let r = Rect1::new(lo, lo + len);
        let via_iter: Vec<Rect1> = a.intersect_rect(r).collect();
        let expect = a.intersect(&IntervalSet::from_rect(r));
        prop_assert_eq!(IntervalSet::from_rects(via_iter), expect);
    }

    #[test]
    fn image_preimage_galois_connection((pos, crd_len) in arb_pos(), colors in 1usize..6) {
        // image/preimage form a Galois-connection-like pair on pos/crd:
        // pushing a row partition down then pulling it back keeps every
        // non-empty row; pulling a crd partition up then pushing it down
        // covers the original crd subsets.
        let rows = Partition::equal(pos.len() as u64, colors);
        let down = image_rects(&pos, &rows, crd_len);
        let back = preimage_rects(&pos, &down);
        for c in 0..colors {
            for i in rows.subset(c).iter_points() {
                if !pos[i as usize].is_empty() {
                    prop_assert!(back.subset(c).contains(i));
                }
            }
        }
        let crd = Partition::equal(crd_len, colors);
        let up = preimage_rects(&pos, &crd);
        let down2 = image_rects(&pos, &up, crd_len);
        for c in 0..colors {
            // Every crd position covered by some row must be recovered.
            let covered = crd.subset(c).iter_points().filter(|&q| {
                pos.iter().any(|r| r.contains(q))
            });
            for q in covered {
                prop_assert!(down2.subset(c).contains(q));
            }
        }
    }

    #[test]
    fn by_value_ranges_partitions_disjoint_ranges(
        values in proptest::collection::vec(0i64..40, 0..60),
        split in 1i64..39,
    ) {
        let ranges = [Rect1::new(0, split - 1), Rect1::new(split, 39)];
        let p = Partition::by_value_ranges(&values, &ranges);
        prop_assert!(p.is_disjoint());
        prop_assert!(p.is_complete());
        for q in p.subset(0).iter_points() {
            prop_assert!(values[q as usize] < split);
        }
        for q in p.subset(1).iter_points() {
            prop_assert!(values[q as usize] >= split);
        }
    }
}
