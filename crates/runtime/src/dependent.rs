//! Dependent partitioning: the `image` and `preimage` operators of
//! Treichler et al. (OOPSLA 2016), as used by SpDISTAL to relate partitions
//! of the `pos` and `crd` regions of compressed tensor levels (Section III-A,
//! Figure 6 of the paper).
//!
//! A *source* region holds values that name indices of a *destination*
//! region. Two value types occur in SpDISTAL's tensors:
//!
//! * `pos` regions hold **intervals** ([`Rect1`]) into `crd`/`vals`;
//! * `crd` regions hold **coordinates** (single points) into the coordinate
//!   space of their dimension.
//!
//! `image` pushes a partition of the source forward through the pointers
//! (color every destination a source points at with the source's color);
//! `preimage` pulls a partition of the destination back (color every source
//! that points into a colored destination subset).
//!
//! ## Cost
//!
//! [`image_rects`] and [`preimage_rects`] work on runs, not points. The
//! `pos` array of a compressed level holds ascending intervals, and over
//! those both are linear range walks that allocate one rect per run they
//! return:
//!
//! * `image_rects` walks each color's position runs over their slice of
//!   `pos` and extends the current destination run while the next
//!   non-empty interval starts inside it or right after it. One
//!   destination run per gap in `pos` reaches [`IntervalSet::from_rects`],
//!   which then only checks that they are ordered (a `pos` array out of
//!   order or overlapping is sorted and merged there, to the same set).
//! * `preimage_rects` walks the source once per color with a cursor over
//!   the target's runs. The cursor moves forward while the intervals' `lo`
//!   does not decrease and binary-searches when it steps back. Hits are
//!   appended as runs: O(entries + target runs) per color.
//!
//! [`image_coords`] has two arms, chosen per call by comparing the
//! destination's 64-bit words, `dst_len / 64`, with the points imaged
//! (`src_part.total_assigned()`). When the words are not more than the
//! points, each color's in-range coordinates set bits of one bitmap of
//! `dst_len` bits, allocated once per call, and one scan of the words that
//! color touched reads its runs off in order and clears them: O(points +
//! words), with no sort. A destination of one word (`dst_len` ≤ 64) is
//! marked in a register, one run of positions at a time: marked in memory,
//! every value would read the word the previous value wrote (about 3x the
//! time over the 47 k points of a 64-wide level). When the words are more
//! than the points — a hypersparse coordinate space — each in-range point
//! becomes one rect, sorted by [`IntervalSet::from_rects`]. The rule
//! bounds the bitmap at one bit per coordinate and one word per point
//! imaged (plus one): at most 8 bytes per point, under the 16 of the rect
//! the sort arm allocates for it.

use crate::geometry::{IntervalSet, Rect1};
use crate::partition::Partition;

/// `image(S, P_S, D)` for an interval-valued source region.
///
/// For each color `c` and each source index `i ∈ P_S[c]`, the destination
/// indices `S[i] = [lo, hi]` are added to color `c` of the result. The
/// result partitions the destination region of length `dst_len`.
pub fn image_rects(src: &[Rect1], src_part: &Partition, dst_len: u64) -> Partition {
    let bound = Rect1::new(0, dst_len as i64 - 1);
    let subsets = src_part
        .subsets()
        .iter()
        .map(|positions| image_runs(src, positions, bound))
        .collect();
    Partition::new(dst_len, subsets)
}

/// The union of the intervals `src` holds at `positions`, clamped to
/// `bound`. Each interval that starts inside the current run, or right
/// after it, extends that run; any other starts a new one. Over an
/// ascending `pos` slice that leaves one run per gap, and
/// [`IntervalSet::from_rects`] only checks the order. Intervals that are
/// out of order or overlap an earlier run still end up in the one
/// canonical set, through its sort and merge.
fn image_runs(src: &[Rect1], positions: &IntervalSet, bound: Rect1) -> IntervalSet {
    let mut runs: Vec<Rect1> = Vec::new();
    for r in positions.rects() {
        for x in &src[r.lo as usize..=r.hi as usize] {
            let x = x.intersect(&bound);
            if x.is_empty() {
                continue;
            }
            match runs.last_mut() {
                Some(run) if run.lo <= x.lo && x.lo <= run.hi.saturating_add(1) => {
                    run.hi = run.hi.max(x.hi)
                }
                _ => runs.push(x),
            }
        }
    }
    IntervalSet::from_rects(runs)
}

/// `image(S, P_S, D)` for a coordinate-valued source region (e.g. pushing a
/// partition of `crd` positions forward onto the coordinate space of the
/// dimension the coordinates live in). Values outside `[0, dst_len)` are
/// dropped.
pub fn image_coords(src: &[i64], src_part: &Partition, dst_len: u64) -> Partition {
    if dst_len / 64 > src_part.total_assigned() {
        // Hypersparse: a bitmap would outweigh one rect per point.
        let mut subsets = Vec::with_capacity(src_part.num_colors());
        for c in 0..src_part.num_colors() {
            let mut rects = Vec::new();
            for i in src_part.subset(c).iter_points() {
                let v = src[i as usize];
                if v >= 0 && (v as u64) < dst_len {
                    rects.push(Rect1::new(v, v));
                }
            }
            subsets.push(IntervalSet::from_rects(rects));
        }
        return Partition::new(dst_len, subsets);
    }
    let mut bitmap = vec![0u64; dst_len.div_ceil(64) as usize];
    let subsets = src_part
        .subsets()
        .iter()
        .map(|positions| marked_runs(&mut bitmap, src, positions, dst_len))
        .collect();
    Partition::new(dst_len, subsets)
}

/// The coordinates `src` holds at `positions`, as runs: each value in
/// `[0, dst_len)` sets its bit in `bitmap` (one bit per destination
/// coordinate, all clear on entry), then one scan of the words it touched
/// reads the runs off in order — joining a run across a word boundary —
/// and clears each word as it goes, so `bitmap` is clear again for the
/// next color.
fn marked_runs(
    bitmap: &mut [u64],
    src: &[i64],
    positions: &IntervalSet,
    dst_len: u64,
) -> IntervalSet {
    let (mut first, mut last) = (usize::MAX, 0);
    if let [word] = bitmap {
        // One word: each run's values are marked in a register. Read and
        // written back once per value, the word is a chain through memory.
        for r in positions.rects() {
            *word |= src[r.lo as usize..=r.hi as usize]
                .iter()
                .filter(|&&v| v >= 0 && (v as u64) < dst_len)
                .fold(0, |bits, &v| bits | 1u64 << v);
        }
        (first, last) = (0, 0);
    } else {
        for r in positions.rects() {
            for &v in &src[r.lo as usize..=r.hi as usize] {
                if v >= 0 && (v as u64) < dst_len {
                    let word = (v / 64) as usize;
                    bitmap[word] |= 1u64 << (v % 64);
                    first = first.min(word);
                    last = last.max(word);
                }
            }
        }
    }
    let mut runs: Vec<Rect1> = Vec::new();
    for (w, slot) in bitmap.iter_mut().enumerate().take(last + 1).skip(first) {
        let (mut word, base) = (std::mem::take(slot), w as i64 * 64);
        while word != 0 {
            // The lowest run of set bits, and the word without it: adding
            // its lowest bit carries through the run (out of bit 63 too).
            let rest = word & word.wrapping_add(word & word.wrapping_neg());
            let run = word ^ rest;
            let (lo, hi) = (
                base + run.trailing_zeros() as i64,
                base + 63 - run.leading_zeros() as i64,
            );
            match runs.last_mut() {
                Some(prev) if prev.hi + 1 == lo => prev.hi = hi,
                _ => runs.push(Rect1::new(lo, hi)),
            }
            word = rest;
        }
    }
    IntervalSet::from_canonical(runs)
}

/// `preimage(S, P_D, D)` for an interval-valued source region.
///
/// For each color `c`, every source index `i` whose interval `S[i]` overlaps
/// `P_D[c]` is added to color `c`. Sources referenced by several colors are
/// aliased — the runtime keeps the shared copies coherent (Figure 6b).
pub fn preimage_rects(src: &[Rect1], dst_part: &Partition) -> Partition {
    let subsets = dst_part
        .subsets()
        .iter()
        .map(|target| preimage_runs(src, target.rects()))
        .collect();
    Partition::new(src.len() as u64, subsets)
}

/// The source indices whose non-empty interval meets `target`, as runs.
/// Only the first run of `target` ending at or after an interval's `lo`
/// can meet it. A cursor finds that run by moving forward while `lo` does
/// not decrease from one non-empty interval to the next, and by binary
/// search when it steps back.
fn preimage_runs(src: &[Rect1], target: &[Rect1]) -> IntervalSet {
    if target.is_empty() {
        return IntervalSet::new();
    }
    let mut hits: Vec<Rect1> = Vec::new();
    let (mut at, mut prev_lo) = (0, i64::MIN);
    for (i, r) in (0i64..).zip(src) {
        if r.is_empty() {
            continue;
        }
        if r.lo < prev_lo {
            at = target.partition_point(|x| x.hi < r.lo);
        } else {
            while at < target.len() && target[at].hi < r.lo {
                at += 1;
            }
        }
        prev_lo = r.lo;
        if target.get(at).is_some_and(|x| x.lo <= r.hi) {
            match hits.last_mut() {
                Some(run) if run.hi + 1 == i => run.hi = i,
                _ => hits.push(Rect1::new(i, i)),
            }
        }
    }
    IntervalSet::from_canonical(hits)
}

/// `preimage` for a coordinate-valued source region: color every source
/// position whose coordinate value lies in the destination subset.
pub fn preimage_coords(src: &[i64], dst_part: &Partition) -> Partition {
    let mut subsets = Vec::with_capacity(dst_part.num_colors());
    for c in 0..dst_part.num_colors() {
        let target = dst_part.subset(c);
        let mut rects = Vec::new();
        if !target.is_empty() {
            let mut run_start: Option<i64> = None;
            for (i, v) in src.iter().enumerate() {
                if target.contains(*v) {
                    if run_start.is_none() {
                        run_start = Some(i as i64);
                    }
                } else if let Some(s) = run_start.take() {
                    rects.push(Rect1::new(s, i as i64 - 1));
                }
            }
            if let Some(s) = run_start {
                rects.push(Rect1::new(s, src.len() as i64 - 1));
            }
        }
        subsets.push(IntervalSet::from_rects(rects));
    }
    Partition::new(src.len() as u64, subsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-point construction `image_rects` replaced, kept as its
    /// oracle: one rect per source entry, sorted, then clamped.
    fn image_points(src: &[Rect1], src_part: &Partition, dst_len: u64) -> Partition {
        let bound = IntervalSet::from_rect(Rect1::new(0, dst_len as i64 - 1));
        let subsets = src_part
            .subsets()
            .iter()
            .map(|s| {
                let rects = s.iter_points().map(|i| src[i as usize]).collect();
                IntervalSet::from_rects(rects).intersect(&bound)
            })
            .collect();
        Partition::new(dst_len, subsets)
    }

    /// The per-point construction `preimage_rects` replaced, kept as its
    /// oracle: every non-empty source entry tested against every color.
    fn preimage_points(src: &[Rect1], dst_part: &Partition) -> Partition {
        let subsets = dst_part
            .subsets()
            .iter()
            .map(|target| {
                (0i64..)
                    .zip(src)
                    .filter(|(_, r)| !r.is_empty() && target.overlaps(&IntervalSet::from_rect(**r)))
                    .map(|(i, _)| Rect1::new(i, i))
                    .collect()
            })
            .collect();
        Partition::new(src.len() as u64, subsets)
    }

    /// A `pos` array of up to 24 entries: the contiguous ranges of a
    /// compressed level (empty rows spelt `[p, p-1]` or `Rect1::empty()`),
    /// ranges anywhere (out of order, overlapping, empty), or the same
    /// sorted by `lo` (ascending but overlapping).
    fn arb_pos() -> impl Strategy<Value = Vec<Rect1>> {
        let entries = proptest::collection::vec((0i64..48, -2i64..8), 0..24);
        (entries, 0usize..3).prop_map(|(entries, mode)| {
            let mut cur = 0;
            let mut pos: Vec<Rect1> = entries
                .into_iter()
                .map(|(lo, len)| match mode {
                    0 if len == -2 => Rect1::empty(),
                    0 => {
                        let r = Rect1::new(cur, cur + len.max(0) - 1);
                        cur += len.max(0);
                        r
                    }
                    _ => Rect1::new(lo, lo + len),
                })
                .collect();
            if mode == 2 {
                pos.sort_by_key(|r| r.lo);
            }
            pos
        })
    }

    /// `colors` subsets of `[0, len)`, each up to three runs; colors may
    /// overlap each other or be empty.
    fn arb_subsets(len: i64) -> impl Strategy<Value = Vec<IntervalSet>> {
        let runs = proptest::collection::vec((0i64..64, 0i64..10), 0..4);
        proptest::collection::vec(runs, 1..5).prop_map(move |colors| {
            colors
                .into_iter()
                .map(|runs| match len {
                    0 => IntervalSet::new(),
                    _ => runs
                        .into_iter()
                        .map(|(lo, n)| Rect1::new(lo % len, (lo % len + n).min(len - 1)))
                        .collect(),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// `image_rects` and `preimage_rects` give the sets their per-point
        /// constructions give, on any `pos` array and any (aliased)
        /// partition, with destinations shorter than what `pos` names.
        #[test]
        fn run_walks_match_the_per_point_oracles(
            pos in arb_pos(),
            src_runs in arb_subsets(24),
            dst_runs in arb_subsets(60),
            dst_len in 0u64..60,
        ) {
            let n = pos.len() as i64;
            let src_part = Partition::new(
                pos.len() as u64,
                src_runs.iter().map(|s| s.intersect(&IntervalSet::from_rect(Rect1::new(0, n - 1)))).collect(),
            );
            let img = image_rects(&pos, &src_part, dst_len);
            let expect = image_points(&pos, &src_part, dst_len);
            prop_assert_eq!(img.parent_len(), dst_len);
            prop_assert_eq!(img.subsets(), expect.subsets(), "image of {:?}", pos);
            let dst_part = Partition::new(60, dst_runs);
            let pre = preimage_rects(&pos, &dst_part);
            let expect = preimage_points(&pos, &dst_part);
            prop_assert_eq!(pre.parent_len(), pos.len() as u64);
            prop_assert_eq!(pre.subsets(), expect.subsets(), "preimage of {:?}", pos);
        }
    }

    /// The pos/crd pair from Figure 7 of the paper (a 4x4 CSR matrix with
    /// rows {a b c | d e | f | g h} and 8 non-zeros).
    fn fig7_pos() -> Vec<Rect1> {
        vec![
            Rect1::new(0, 2),
            Rect1::new(3, 4),
            Rect1::new(5, 5),
            Rect1::new(6, 7),
        ]
    }

    fn fig7_crd() -> Vec<i64> {
        vec![0, 1, 3, 1, 3, 0, 0, 3]
    }

    #[test]
    fn image_of_pos_partition_matches_fig9c() {
        // Universe partition of rows into 2 pieces: {0,1}, {2,3}.
        let row_part = Partition::equal(4, 2);
        let crd_part = image_rects(&fig7_pos(), &row_part, 8);
        // Rows 0-1 own crd positions 0..=4; rows 2-3 own 5..=7.
        assert_eq!(crd_part.subset(0).rects(), &[Rect1::new(0, 4)]);
        assert_eq!(crd_part.subset(1).rects(), &[Rect1::new(5, 7)]);
        assert!(crd_part.is_disjoint() && crd_part.is_complete());
    }

    #[test]
    fn preimage_recovers_pos_partition_fig9d() {
        // Non-zero partition of crd into 2 equal pieces: [0,3], [4,7].
        let crd_part = Partition::equal(8, 2);
        let pos_part = preimage_rects(&fig7_pos(), &crd_part);
        // pos[1] = [3,4] straddles both pieces -> aliased (both colors).
        assert!(pos_part.subset(0).contains(0));
        assert!(pos_part.subset(0).contains(1));
        assert!(pos_part.subset(1).contains(1));
        assert!(pos_part.subset(1).contains(2));
        assert!(pos_part.subset(1).contains(3));
        assert!(!pos_part.is_disjoint());
        assert!(pos_part.is_complete());
    }

    #[test]
    fn image_preimage_adjoint_on_covering_partitions() {
        // image(P) then preimage recovers at least P (adjointness).
        let pos = fig7_pos();
        let p = Partition::equal(4, 3);
        let img = image_rects(&pos, &p, 8);
        let back = preimage_rects(&pos, &img);
        for c in 0..3 {
            assert!(
                back.subset(c).contains_set(p.subset(c)),
                "color {c}: {:?} should contain {:?}",
                back.subset(c),
                p.subset(c)
            );
        }
    }

    #[test]
    fn image_skips_empty_rows() {
        // Row 1 is empty: pos[1] = empty interval.
        let pos = vec![Rect1::new(0, 1), Rect1::empty(), Rect1::new(2, 3)];
        let p = Partition::equal(3, 3);
        let img = image_rects(&pos, &p, 4);
        assert_eq!(img.subset(0).total_len(), 2);
        assert!(img.subset(1).is_empty());
        assert_eq!(img.subset(2).total_len(), 2);
    }

    #[test]
    fn image_coords_projects_to_dimension() {
        let crd = fig7_crd();
        let crd_part = Partition::equal(8, 2);
        // Columns referenced by each half of the non-zeros.
        let col_part = image_coords(&crd, &crd_part, 4);
        let c0: Vec<i64> = col_part.subset(0).iter_points().collect();
        let c1: Vec<i64> = col_part.subset(1).iter_points().collect();
        assert_eq!(c0, vec![0, 1, 3]);
        assert_eq!(c1, vec![0, 3]);
    }

    /// A handful of points in a coordinate space of 2^40 (and 2^62) takes
    /// the sort arm: a bitmap of that many bits (128 GiB, 512 PiB) cannot be
    /// allocated, and the attempt would abort the test.
    #[test]
    fn hypersparse_space_takes_the_sort_arm() {
        for dst_len in [1u64 << 40, 1 << 62] {
            let far = (dst_len / 2) as i64;
            let crd = vec![5, far + 1, 7, 6, -1, dst_len as i64, far, 0];
            let part = Partition::new(
                8,
                vec![
                    IntervalSet::from_rect(Rect1::new(0, 3)),
                    IntervalSet::from_rect(Rect1::new(2, 7)),
                    IntervalSet::new(),
                ],
            );
            let img = image_coords(&crd, &part, dst_len);
            assert_eq!(img.parent_len(), dst_len);
            assert_eq!(
                img.subset(0).rects(),
                &[Rect1::new(5, 7), Rect1::new(far + 1, far + 1)]
            );
            assert_eq!(
                img.subset(1).rects(),
                &[Rect1::new(0, 0), Rect1::new(6, 7), Rect1::new(far, far)]
            );
            assert!(img.subset(2).is_empty());
        }
    }

    #[test]
    fn preimage_coords_buckets_runs() {
        let crd = fig7_crd();
        // Partition columns into [0,1] and [2,3].
        let col_part = Partition::by_bounds(4, vec![Rect1::new(0, 1), Rect1::new(2, 3)]);
        let pos_part = preimage_coords(&crd, &col_part);
        let c0: Vec<i64> = pos_part.subset(0).iter_points().collect();
        let c1: Vec<i64> = pos_part.subset(1).iter_points().collect();
        assert_eq!(c0, vec![0, 1, 3, 5, 6]);
        assert_eq!(c1, vec![2, 4, 7]);
    }

    #[test]
    fn figure6_example() {
        // Figure 6: source region of index spaces {0,2},{3,4},{5,5},{6,8}
        // over a destination of 9 elements.
        let src = vec![
            Rect1::new(0, 2),
            Rect1::new(3, 4),
            Rect1::new(5, 5),
            Rect1::new(6, 8),
        ];
        // Color source as {0,1} red, {2,3} blue.
        let sp = Partition::equal(4, 2);
        let img = image_rects(&src, &sp, 9);
        assert_eq!(img.subset(0).rects(), &[Rect1::new(0, 4)]);
        assert_eq!(img.subset(1).rects(), &[Rect1::new(5, 8)]);
        // Color destination equally and pull back.
        let dp = Partition::equal(9, 2); // [0,4],[5,8]
        let pre = preimage_rects(&src, &dp);
        assert_eq!(pre.subset(0).rects(), &[Rect1::new(0, 1)]);
        assert_eq!(pre.subset(1).rects(), &[Rect1::new(2, 3)]);
    }
}
