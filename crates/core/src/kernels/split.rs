//! Splittable leaf iteration spaces: chunking one color's work into
//! [`KernelSpan`]s.
//!
//! The runtime maps each color of an index launch to one processor, so a
//! skewed launch (power-law row degrees, heavy tensor slices) is gated by
//! its critical color while the rest of the pool idles. This module makes
//! the leaf layer *splittable*: a color's partitioned walk is cut into
//! sub-ranges of one level's entry space — nested intra-color parallelism,
//! the shared-memory analogue of fanning a Legion leaf task out over
//! CPU/OMP processors.
//!
//! ## Where a kernel may split
//!
//! Correctness (and bit-identity with unsplit execution) hinges on one
//! property: **spans of a color must write pairwise-disjoint output
//! elements, with each element's accumulation staying inside one span.**
//! That is guaranteed by splitting at the driver level whose entries *key*
//! the kernel's output writes:
//!
//! * `SpMV`/`SpMM`/`SpMTTKRP`/`SpAdd3` write per `coords[0]` (row/slice) —
//!   split level 0;
//! * `SpTTV` accumulates per level-1 fiber entry — split level 1;
//! * `SDDMM` sets one value per leaf entry — split the leaf level.
//!
//! Each leaf entry belongs to exactly one split-level entry, so chunking
//! the color's split-level subset partitions the color's walk exactly:
//! spans clamp only that level (levels above and below keep the color's
//! own clamps) and their union reproduces the unsplit walk entry-for-entry.
//!
//! Both span consumers — the generic walker
//! ([`crate::kernels::walk_partitioned_span`]) and the monomorphized
//! kernels ([`crate::kernels::specialized`]) — apply a span through the
//! same [`crate::level_funcs::LevelClamps`] seam, so splitting composes
//! with either dispatch path identically.
//!
//! ## How a color is chunked
//!
//! Chunks are balanced by *leaf weight* (stored entries under each
//! split-level entry), not by entry count — under power-law skew a few
//! rows carry most of the non-zeros, and equal-row chunks would just
//! reproduce the imbalance one level down.

use spdistal_runtime::sched::{ExecMode, SplitPolicy};
use spdistal_runtime::{IntervalSet, Rect1};
use spdistal_sparse::{Level, SpTensor};

use super::LeafKernel;
use crate::level_funcs::TensorPartition;

/// One chunk of a color's iteration space: at `level`, iterate only the
/// entries in `subset`; every other level keeps the color's clamps.
/// [`color_spans`] cuts `subset` from the color's own clamp at that level,
/// so it is that clamp already and consumers read it as is
/// ([`crate::level_funcs::LevelClamps`] asserts it in debug builds).
#[derive(Clone, Debug)]
pub struct KernelSpan {
    pub level: usize,
    pub subset: IntervalSet,
}

/// The driver level whose entries key `kernel`'s output writes — the only
/// level it may split at (see the module docs).
pub fn split_level(kernel: &LeafKernel, driver_order: usize) -> usize {
    match kernel {
        LeafKernel::Sddmm { .. } => driver_order - 1,
        LeafKernel::SpTtv => 1,
        LeafKernel::SpMv
        | LeafKernel::SpMm { .. }
        | LeafKernel::SpMttkrp { .. }
        | LeafKernel::SpAdd3 => 0,
    }
}

/// A color's work estimate: the stored values it owns. Drives both the
/// per-color span budget ([`SplitPolicy::max_spans`]) and chunk balancing.
pub fn color_weight(part: &TensorPartition, color: usize) -> u64 {
    part.vals().subset(color).total_len()
}

/// The sub-task descriptors of one color: up to `policy.max_spans(..)`
/// leaf-weight-balanced [`KernelSpan`]s, or the single unsplit span
/// (`None`) when the policy declines or the color has too little structure
/// to cut.
pub fn color_spans(
    driver: &SpTensor,
    part: &TensorPartition,
    kernel: &LeafKernel,
    color: usize,
    policy: SplitPolicy,
    mode: ExecMode,
    total_weight: u64,
) -> Vec<Option<KernelSpan>> {
    let unsplit = vec![None];
    let level = split_level(kernel, driver.order());
    let max_spans = policy.max_spans(mode, color_weight(part, color), total_weight);
    if max_spans <= 1 {
        return unsplit;
    }
    let subset = part.entries[level].subset(color);
    if subset.total_len() <= 1 {
        return unsplit;
    }
    // Weight each split-level entry by its subtree's leaf entries. At the
    // leaf level itself every entry weighs 1, so the chunks are plain
    // position ranges (the non-zero split of Table I, one level down) cut
    // straight from the subset's rects — no per-entry materialization.
    let chunks = if level + 1 == driver.order() {
        uniform_chunks(subset, max_spans)
    } else {
        let points: Vec<i64> = subset.iter_points().collect();
        let weights: Vec<u64> = points
            .iter()
            // Empty rows still weigh 1 so chunk boundaries always advance.
            .map(|&p| subtree_leaf_weight(driver, level, p).max(1))
            .collect();
        weighted_chunks(&points, &weights, max_spans)
    };
    if chunks.len() <= 1 {
        return unsplit;
    }
    chunks
        .into_iter()
        .map(|subset| Some(KernelSpan { level, subset }))
        .collect()
}

/// Number of leaf-level entries stored under entry `entry` of `level`
/// (subtree size in the coordinate tree). Entries under a contiguous
/// ancestor range are contiguous in every tree format here, so the count
/// is tracked as a closed entry range walked down the levels.
fn subtree_leaf_weight(t: &SpTensor, level: usize, entry: i64) -> u64 {
    let (mut lo, mut hi) = (entry, entry);
    for k in level + 1..t.order() {
        match t.level(k) {
            Level::Dense { size } => {
                let s = *size as i64;
                lo *= s;
                hi = (hi + 1) * s - 1;
            }
            Level::Compressed { pos, .. } => {
                let (mut nlo, mut nhi) = (i64::MAX, i64::MIN);
                for e in lo..=hi {
                    let r = pos[e as usize];
                    if !r.is_empty() {
                        nlo = nlo.min(r.lo);
                        nhi = nhi.max(r.hi);
                    }
                }
                if nlo > nhi {
                    return 0;
                }
                (lo, hi) = (nlo, nhi);
            }
            Level::Singleton { .. } => {}
        }
    }
    (hi - lo + 1) as u64
}

/// Cut `subset` into at most `max_chunks` chunks of (near-)equal entry
/// count, straight from its interval runs — the uniform-weight case, in
/// O(runs) instead of O(entries). Every entry lands in exactly one chunk,
/// in order; every chunk is non-empty.
fn uniform_chunks(subset: &IntervalSet, max_chunks: usize) -> Vec<IntervalSet> {
    let total = subset.total_len();
    let k = (max_chunks as u64).min(total).max(1) as usize;
    let mut rects_iter = subset.rects().iter().copied();
    let mut current = rects_iter.next();
    let mut remaining = total;
    let mut out = Vec::with_capacity(k);
    for chunk_idx in 0..k {
        let chunks_left = (k - chunk_idx) as u64;
        let mut need = remaining.div_ceil(chunks_left);
        remaining -= need;
        let mut rects = Vec::new();
        while need > 0 {
            let Some(r) = current else { break };
            if r.len() <= need {
                need -= r.len();
                rects.push(r);
                current = rects_iter.next();
            } else {
                rects.push(Rect1::new(r.lo, r.lo + need as i64 - 1));
                current = Some(Rect1::new(r.lo + need as i64, r.hi));
                need = 0;
            }
        }
        if !rects.is_empty() {
            out.push(IntervalSet::from_rects(rects));
        }
    }
    out
}

/// Cut ascending `points` into at most `max_chunks` contiguous-run chunks
/// of roughly equal total weight (greedy, remaining-aware targets). Every
/// point lands in exactly one chunk, in order; every chunk is non-empty.
fn weighted_chunks(points: &[i64], weights: &[u64], max_chunks: usize) -> Vec<IntervalSet> {
    let k = max_chunks.min(points.len());
    let mut remaining_total: u64 = weights.iter().sum();
    let mut out = Vec::with_capacity(k);
    let mut i = 0;
    for chunk_idx in 0..k {
        if i >= points.len() {
            break;
        }
        let chunks_left = (k - chunk_idx) as u64;
        let target = remaining_total.div_ceil(chunks_left);
        let mut acc = 0u64;
        let mut rects: Vec<Rect1> = Vec::new();
        let mut run: Option<Rect1> = None;
        while i < points.len() {
            // Leave at least one point for every later chunk.
            let must_stop = points.len() - i <= (k - chunk_idx - 1) && run.is_some();
            if must_stop || (acc >= target && run.is_some()) {
                break;
            }
            let p = points[i];
            run = Some(match run {
                Some(r) if r.hi + 1 == p => Rect1::new(r.lo, p),
                Some(r) => {
                    rects.push(r);
                    Rect1::new(p, p)
                }
                None => Rect1::new(p, p),
            });
            acc += weights[i];
            i += 1;
        }
        if let Some(r) = run {
            rects.push(r);
        }
        remaining_total -= acc.min(remaining_total);
        out.push(IntervalSet::from_rects(rects));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level_funcs::{
        equal_coord_bounds, nonzero_partition, partition_tensor, universe_partition,
    };
    use spdistal_sparse::generate;

    fn spans_of(
        t: &SpTensor,
        part: &TensorPartition,
        kernel: &LeafKernel,
        color: usize,
        n: usize,
    ) -> Vec<Option<KernelSpan>> {
        color_spans(
            t,
            part,
            kernel,
            color,
            SplitPolicy::Spans(n),
            ExecMode::Serial,
            part.vals().parent_len(),
        )
    }

    #[test]
    fn split_levels_follow_output_keys() {
        assert_eq!(split_level(&LeafKernel::SpMv, 2), 0);
        assert_eq!(split_level(&LeafKernel::SpMm { jdim: 4 }, 2), 0);
        assert_eq!(split_level(&LeafKernel::SpAdd3, 2), 0);
        assert_eq!(split_level(&LeafKernel::Sddmm { kdim: 4 }, 2), 1);
        assert_eq!(split_level(&LeafKernel::SpTtv, 3), 1);
        assert_eq!(split_level(&LeafKernel::SpMttkrp { ldim: 4 }, 3), 0);
    }

    #[test]
    fn spans_partition_the_colors_subset() {
        let t = generate::rmat_default(7, 2000, 3);
        let part = partition_tensor(
            &t,
            0,
            universe_partition(&t, 0, &equal_coord_bounds(t.dims()[0], 4)),
        );
        for color in 0..4 {
            let spans = spans_of(&t, &part, &LeafKernel::SpMv, color, 5);
            let color_set = part.entries[0].subset(color);
            let mut union = IntervalSet::new();
            let mut covered = 0;
            for s in &spans {
                let s = s.as_ref().expect("splittable");
                assert_eq!(s.level, 0);
                assert!(color_set.contains_set(&s.subset), "span within color");
                assert!(!s.subset.overlaps(&union), "spans disjoint");
                covered += s.subset.total_len();
                union = union.union(&s.subset);
            }
            assert_eq!(covered, color_set.total_len(), "spans cover the color");
        }
    }

    #[test]
    fn weighted_chunks_balance_skewed_rows() {
        // Row 0 carries ~2/3 of the matrix; equal-row chunks would leave
        // one span with nearly everything. Weighted chunks isolate it.
        let mut triplets = Vec::new();
        for j in 0..400i64 {
            triplets.push((0, j % 512, 1.0));
        }
        for i in 1..64i64 {
            triplets.push((i, i, 1.0));
        }
        let t = spdistal_sparse::csr_from_triplets(64, 512, &triplets);
        let part = partition_tensor(&t, 0, universe_partition(&t, 0, &equal_coord_bounds(64, 1)));
        let spans = spans_of(&t, &part, &LeafKernel::SpMv, 0, 4);
        assert!(spans.len() >= 2);
        // The heavy row sits alone in the first span.
        let first = spans[0].as_ref().unwrap();
        assert_eq!(first.subset.total_len(), 1);
        assert!(first.subset.contains(0));
    }

    #[test]
    fn leaf_level_split_chunks_positions() {
        let t = generate::rmat_default(7, 1500, 9);
        let part = partition_tensor(&t, 1, nonzero_partition(&t, 1, 2));
        let spans = spans_of(&t, &part, &LeafKernel::Sddmm { kdim: 4 }, 0, 3);
        assert_eq!(spans.len(), 3);
        let total: u64 = spans
            .iter()
            .map(|s| s.as_ref().unwrap().subset.total_len())
            .sum();
        assert_eq!(total, part.entries[1].subset(0).total_len());
    }

    #[test]
    fn unsplittable_cases_return_single_none() {
        let t = generate::uniform(16, 16, 60, 5);
        let part = partition_tensor(&t, 0, universe_partition(&t, 0, &equal_coord_bounds(16, 4)));
        assert!(spans_of(&t, &part, &LeafKernel::SpMv, 0, 1)[0].is_none());
        // Auto under serial execution never splits.
        let auto = color_spans(
            &t,
            &part,
            &LeafKernel::SpMv,
            0,
            SplitPolicy::Auto,
            ExecMode::Serial,
            part.vals().parent_len(),
        );
        assert_eq!(auto.len(), 1);
        assert!(auto[0].is_none());
    }

    #[test]
    fn subtree_weights_count_csf3_leaves() {
        let t = generate::tensor3_uniform([8, 8, 8], 300, 7);
        let total: u64 = (0..t.dims()[0])
            .map(|i| subtree_leaf_weight(&t, 0, i as i64))
            .sum();
        assert_eq!(total, t.nnz() as u64);
    }
}
