//! Model-based property tests for the geometric substrate: every
//! [`IntervalSet`] operation must agree with the same operation on a plain
//! set of points, and the dependent-partitioning operators must satisfy
//! their algebraic laws for arbitrary pos/crd structures. These invariants
//! carry the whole partitioning subsystem.

use std::collections::BTreeSet;

use proptest::prelude::*;
use spdistal_runtime::{image_coords, image_rects, preimage_rects, IntervalSet, Partition, Rect1};

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

/// A `crd` array, a partition of its positions and a destination length
/// for `image_coords`. Colors may alias or be empty; values fall anywhere
/// (negative and `>= dst_len` included), around a word boundary, or in a
/// cluster across bit 128. The length is 0, 1, a few words, within a word
/// of the arm threshold (`64 * points imaged`) on either side, or well past
/// it (the sort arm).
fn arb_image() -> impl Strategy<Value = (Vec<i64>, Partition, u64)> {
    let values = proptest::collection::vec((0u64..1 << 20, 0u32..3), 0..48);
    let runs = proptest::collection::vec((0i64..64, 0i64..12), 0..4);
    let colors = proptest::collection::vec(runs, 1..5);
    (values, colors, 0u32..5, 0u64..130).prop_map(|(values, colors, mode, k)| {
        let n = values.len() as i64;
        let subsets = colors
            .into_iter()
            .map(|runs| match n {
                0 => IntervalSet::new(),
                _ => runs
                    .into_iter()
                    .map(|(lo, len)| Rect1::new(lo % n, (lo % n + len).min(n - 1)))
                    .collect(),
            })
            .collect();
        let part = Partition::new(n as u64, subsets);
        let points = part.total_assigned();
        let dst_len = match mode {
            0 => 0,
            1 => 1,
            2 => 2 + k,
            3 => 64 * points + k,
            _ => 64 * (points + 1) + 64 * k,
        };
        let crd = values
            .into_iter()
            .map(|(raw, kind)| match kind {
                0 => (raw % (dst_len + 16)) as i64 - 8,
                1 => 64 * (raw % 4) as i64 + (raw / 4 % 8) as i64 - 4,
                _ => 120 + (raw % 16) as i64,
            })
            .collect();
        (crd, part, dst_len)
    })
}

/// `image_coords` of one color holding every position, over 64 coordinates
/// per point: the bitmap arm.
fn image_one_color(values: Vec<i64>) -> Vec<Rect1> {
    let n = values.len() as u64;
    let img = image_coords(&values, &Partition::equal(n, 1), 64 * n);
    img.subset(0).rects().to_vec()
}

#[test]
fn image_coords_reads_runs_across_word_boundaries() {
    let span = |lo: i64, hi: i64| (lo..=hi).collect::<Vec<i64>>();
    let run = Rect1::new;
    // A run ending at bit 63, one starting at bit 64, and one across them.
    assert_eq!(image_one_color(span(60, 63)), [run(60, 63)]);
    assert_eq!(image_one_color(span(64, 70)), [run(64, 70)]);
    assert_eq!(image_one_color(span(60, 66)), [run(60, 66)]);
    assert_eq!(image_one_color(vec![63, 65]), [run(63, 63), run(65, 65)]);
    // Whole words: the run's carry leaves bit 63.
    assert_eq!(image_one_color(span(0, 63)), [run(0, 63)]);
    assert_eq!(image_one_color(span(0, 191)), [run(0, 191)]);
    // Three words, in any order of the input.
    let mut three = span(40, 150);
    assert_eq!(image_one_color(three.clone()), [run(40, 150)]);
    three.reverse();
    three.extend([3, 1, 200, 2]);
    assert_eq!(
        image_one_color(three),
        [run(1, 3), run(40, 150), run(200, 200)]
    );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Each color of `image_coords` holds exactly the in-range values at
    /// its positions, whichever arm ran — compared by `==` with the
    /// canonical set of the model's points, so a run left split fails too;
    /// the sort arm, reached by widening the destination past the
    /// threshold and clamping back, agrees.
    #[test]
    fn image_coords_matches_point_sets((crd, part, dst_len) in arb_image()) {
        let img = image_coords(&crd, &part, dst_len);
        prop_assert_eq!(img.parent_len(), dst_len);
        prop_assert_eq!(img.num_colors(), part.num_colors());
        let wide = image_coords(&crd, &part, 64 * (part.total_assigned() + 1) + dst_len);
        let bound = IntervalSet::from_rect(Rect1::new(0, dst_len as i64 - 1));
        for c in 0..part.num_colors() {
            let model: BTreeSet<i64> = part
                .subset(c)
                .iter_points()
                .map(|i| crd[i as usize])
                .filter(|&v| v >= 0 && (v as u64) < dst_len)
                .collect();
            let expect: IntervalSet = model.iter().map(|&v| Rect1::new(v, v)).collect();
            prop_assert_eq!(img.subset(c), &expect, "color {} of {:?}", c, crd);
            prop_assert_eq!(&wide.subset(c).intersect(&bound), &expect);
        }
    }
}
