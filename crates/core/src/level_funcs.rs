//! The partitioning level functions of Table I, and the coordinate-tree
//! partition derivation they enable (Section IV).
//!
//! Each tensor dimension is encoded by a level format; partitioning a whole
//! tensor proceeds by (1) creating an *initial* partition of one level —
//! a **universe** partition (coordinate ranges per color) for distributed
//! coordinate-value loops, or a **non-zero** partition (position ranges per
//! color) for distributed position loops — and (2) deriving partitions of
//! all levels above (`partition_from_child`) and below
//! (`partition_from_parent`) the initial level, using Legion's dependent
//! partitioning operators `image` and `preimage` on the `pos`/`crd` regions
//! of compressed levels.
//!
//! A level's *entry space* is its set of coordinate-tree nodes: for a
//! `Dense` level of extent `s` with `P` parent entries it is `[0, P*s)`
//! (linearized `(parent, coord)` pairs); for a `Compressed` level it is the
//! index space of its `crd` array. The partition of level `k`'s entry space
//! simultaneously serves as the partition of level `k+1`'s `pos` region.

use spdistal_runtime::{image_rects, preimage_rects, IntervalSet, Partition, Rect1};
use spdistal_sparse::{Level, SpTensor};

use crate::kernels::split::KernelSpan;

/// Per-level iteration clamps of one `(color, span)` leaf task.
///
/// Built once per task: the color's entry subsets, with the span's level
/// (if any) replaced by the span's subset, borrowed as is. A span lies
/// inside its color's clamp at that level because
/// [`crate::kernels::color_spans`] cuts it from there. Both the generic
/// partitioned walker ([`crate::kernels::walk_partitioned_span`]) and the
/// monomorphized kernels ([`crate::kernels::specialized`]) resolve their
/// iteration bounds through this one seam, so the fast path and its
/// fallback visit identical entries by construction.
pub struct LevelClamps<'a> {
    part: &'a TensorPartition,
    color: usize,
    span: Option<&'a KernelSpan>,
}

impl<'a> LevelClamps<'a> {
    pub fn new(part: &'a TensorPartition, color: usize, span: Option<&'a KernelSpan>) -> Self {
        debug_assert!(
            span.is_none_or(|s| part.entries[s.level].subset(color).contains_set(&s.subset)),
            "a span lies inside its color's clamp"
        );
        LevelClamps { part, color, span }
    }

    /// The clamp at `level`.
    pub fn level(&self, level: usize) -> &'a IntervalSet {
        match self.span {
            Some(s) if s.level == level => &s.subset,
            _ => self.part.entries[level].subset(self.color),
        }
    }
}

/// A full coordinate-tree partition of one tensor: one entry-space partition
/// per level. The values array is aligned with the leaf level, so its
/// partition is the leaf level's ([`TensorPartition::vals`]).
#[derive(Clone, Debug)]
pub struct TensorPartition {
    /// `entries[k]` partitions level `k`'s entry space (an order-0 tensor
    /// has one: its root, which holds its value).
    pub entries: Vec<Partition>,
}

impl TensorPartition {
    pub fn num_colors(&self) -> usize {
        self.vals().num_colors()
    }

    /// The partition of the values array: the leaf level's.
    pub fn vals(&self) -> &Partition {
        let leaf = self.entries.last();
        leaf.expect("a partition has a level, or the root of an order-0 tensor")
    }
}

/// Number of entries in each level of `t` (entry-space sizes).
pub fn entry_counts(t: &SpTensor) -> Vec<u64> {
    let mut counts = Vec::with_capacity(t.order());
    let mut parent = 1usize;
    for l in t.levels() {
        parent = l.num_entries(parent);
        counts.push(parent as u64);
    }
    counts
}

/// `initUniversePartition` / `createUniversePartitionEntry` /
/// `finalizeUniversePartition` for level `k`, collapsed into one call: each
/// color receives one *coordinate* range of dimension `k`.
///
/// Only supported when all levels above `k` are dense (the initial level's
/// entry space must be addressable by coordinate); in practice SpDISTAL
/// distributes the outermost dimension, where this always holds.
pub fn universe_partition(t: &SpTensor, k: usize, coord_bounds: &[Rect1]) -> Partition {
    let parent_entries: usize = t.levels()[..k]
        .iter()
        .map(|l| match l {
            Level::Dense { size } => *size,
            Level::Compressed { .. } | Level::Singleton { .. } => {
                panic!("universe partition below a compressed level is unsupported")
            }
        })
        .product();
    match t.level(k) {
        Level::Singleton { crd } => Partition::by_value_ranges(crd, coord_bounds),
        Level::Dense { size } => {
            // Entry space is (parent, coord) linearized. Each color takes
            // its coordinate range within every parent entry.
            let subsets = coord_bounds
                .iter()
                .map(|r| {
                    let rects: Vec<Rect1> = (0..parent_entries as i64)
                        .map(|p| Rect1::new(p * *size as i64 + r.lo, p * *size as i64 + r.hi))
                        .collect();
                    IntervalSet::from_rects(rects)
                })
                .collect();
            Partition::new((parent_entries * size) as u64, subsets)
        }
        Level::Compressed { crd, .. } => {
            // Bucket crd positions by coordinate value range
            // (partitionByValueRanges), Table I.
            Partition::by_value_ranges(crd, coord_bounds)
        }
    }
}

/// Equal coordinate ranges for a universe partition of dimension `k`.
pub fn equal_coord_bounds(extent: usize, colors: usize) -> Vec<Rect1> {
    let p = Partition::equal(extent as u64, colors);
    (0..colors).map(|c| p.subset(c).bounding_rect()).collect()
}

/// `initNonZeroPartition` / `createNonZeroPartitionEntry` /
/// `finalizeNonZeroPartition` for compressed level `k`: each color receives
/// an equal range of stored *positions* (perfect static load balance).
pub fn nonzero_partition(t: &SpTensor, k: usize, colors: usize) -> Partition {
    match t.level(k) {
        Level::Compressed { crd, .. } => Partition::equal(crd.len() as u64, colors),
        Level::Singleton { crd } => Partition::equal(crd.len() as u64, colors),
        // A dense level stores every coordinate, so its non-zero partition
        // coincides with the universe partition of its entries.
        Level::Dense { .. } => Partition::equal(entry_counts(t)[k], colors),
    }
}

/// `partitionFromParent` for level `k`: derive this level's entry partition
/// from the parent level's entry partition.
pub fn partition_from_parent(t: &SpTensor, k: usize, parent: &Partition) -> Partition {
    match t.level(k) {
        // Singleton entries coincide with their parents.
        Level::Singleton { .. } => parent.clone(),
        Level::Dense { size } => scale_partition(parent, *size),
        Level::Compressed { pos, crd } => {
            // P_pos = copy(parentPart); P_crd = image(pos, P_pos, crd).
            image_rects(pos, parent, crd.len() as u64)
        }
    }
}

/// `partitionFromChild` for level `k`: derive the *parent* level's entry
/// partition from this level's entry partition.
pub fn partition_from_child(t: &SpTensor, k: usize, child: &Partition) -> Partition {
    match t.level(k) {
        Level::Singleton { .. } => child.clone(),
        Level::Dense { size } => unscale_partition(child, *size, entry_counts(t)[k - 1]),
        Level::Compressed { pos, .. } => {
            // P_crd = copy(childPart); P_pos = preimage(pos, P_crd, crd).
            preimage_rects(pos, child)
        }
    }
}

/// Expand a partition of parent entries into the child entry space of a
/// dense level: parent entry `p` owns child entries `[p*size, (p+1)*size)`.
fn scale_partition(parent: &Partition, size: usize) -> Partition {
    let s = size as i64;
    let subsets = parent
        .subsets()
        .iter()
        .map(|set| {
            set.rects()
                .iter()
                .map(|r| Rect1::new(r.lo * s, (r.hi + 1) * s - 1))
                .collect()
        })
        .collect();
    Partition::new(parent.parent_len() * size as u64, subsets)
}

/// Contract a partition of a dense level's entries back to its `parents`
/// parent entries (counted, not divided out: a zero-width level has
/// parents but no entries).
fn unscale_partition(child: &Partition, size: usize, parents: u64) -> Partition {
    let s = size as i64;
    let subsets = child
        .subsets()
        .iter()
        .map(|set| {
            set.rects()
                .iter()
                .map(|r| Rect1::new(r.lo.div_euclid(s), r.hi.div_euclid(s)))
                .collect()
        })
        .collect();
    Partition::new(parents, subsets)
}

/// The full coordinate-tree derivation (Section IV-A): given an initial
/// partition of level `k`'s entry space, derive every level above with
/// `partition_from_child` and every level below with
/// `partition_from_parent`; the values follow the leaf level's.
pub fn partition_tensor(t: &SpTensor, k: usize, initial: Partition) -> TensorPartition {
    let order = t.order();
    let mut entries: Vec<Option<Partition>> = vec![None; order];
    entries[k] = Some(initial);
    // Upward.
    for level in (1..=k).rev() {
        let child = entries[level].as_ref().unwrap().clone();
        entries[level - 1] = Some(partition_from_child(t, level, &child));
    }
    // Downward.
    for level in k + 1..order {
        let parent = entries[level - 1].as_ref().unwrap().clone();
        entries[level] = Some(partition_from_parent(t, level, &parent));
    }
    let entries = entries.into_iter().map(Option::unwrap).collect();
    TensorPartition { entries }
}

/// The outer-dimension (row/slice) tree partition every canned universe
/// distribution and schedule uses: equal coordinate ranges of dimension 0,
/// derived downward.
pub(crate) fn outer_dim_partition(t: &SpTensor, colors: usize) -> TensorPartition {
    let bounds = equal_coord_bounds(t.dims()[0], colors);
    partition_tensor(t, 0, universe_partition(t, 0, &bounds))
}

/// Its non-zero twin: equal position ranges of `level`, derived both ways.
pub(crate) fn nonzero_tree_partition(t: &SpTensor, level: usize, colors: usize) -> TensorPartition {
    partition_tensor(t, level, nonzero_partition(t, level, colors))
}

/// A fully replicated partition: every color sees the whole tensor.
pub fn replicated_partition(t: &SpTensor, colors: usize) -> TensorPartition {
    // An order-0 tensor has no level: its one value is the root entry.
    let counts = match entry_counts(t) {
        levels if levels.is_empty() => vec![t.num_stored() as u64],
        levels => levels,
    };
    let entries = counts
        .into_iter()
        .map(|n| {
            Partition::new(
                n,
                vec![IntervalSet::from_rect(Rect1::new(0, n as i64 - 1)); colors],
            )
        })
        .collect();
    TensorPartition { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdistal_sparse::{csr_from_triplets, generate};

    fn fig7() -> SpTensor {
        csr_from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (0, 3, 3.0),
                (1, 1, 4.0),
                (1, 3, 5.0),
                (2, 0, 6.0),
                (3, 0, 7.0),
                (3, 3, 8.0),
            ],
        )
    }

    #[test]
    fn entry_counts_csr() {
        let t = fig7();
        assert_eq!(entry_counts(&t), vec![4, 8]);
    }

    /// Figure 9c: row-based SpMV creates a universe partition of rows, then
    /// derives crd/vals partitions downward.
    #[test]
    fn universe_row_partition_fig9c() {
        let t = fig7();
        let bounds = equal_coord_bounds(4, 2);
        let init = universe_partition(&t, 0, &bounds);
        let tp = partition_tensor(&t, 0, init);
        // Rows {0,1} own crd/vals [0,4]; rows {2,3} own [5,7].
        assert_eq!(tp.entries[0].subset(0).rects(), &[Rect1::new(0, 1)]);
        assert_eq!(tp.entries[1].subset(0).rects(), &[Rect1::new(0, 4)]);
        assert_eq!(tp.entries[1].subset(1).rects(), &[Rect1::new(5, 7)]);
        assert_eq!(tp.vals().subset(1).rects(), &[Rect1::new(5, 7)]);
        assert!(tp.entries[1].is_disjoint() && tp.entries[1].is_complete());
    }

    /// Figure 9d: non-zero partition of the second level, derived upward.
    #[test]
    fn nonzero_partition_fig9d() {
        let t = fig7();
        let init = nonzero_partition(&t, 1, 2);
        let tp = partition_tensor(&t, 1, init);
        // crd split equally: [0,3], [4,7].
        assert_eq!(tp.entries[1].subset(0).rects(), &[Rect1::new(0, 3)]);
        assert_eq!(tp.entries[1].subset(1).rects(), &[Rect1::new(4, 7)]);
        // pos[1] = [3,4] straddles: row 1 aliased into both colors.
        assert!(tp.entries[0].subset(0).contains(1));
        assert!(tp.entries[0].subset(1).contains(1));
        assert!(!tp.entries[0].is_disjoint());
        assert!(tp.entries[0].is_complete());
    }

    #[test]
    fn nonzero_partition_balances_skew() {
        // A matrix whose first row block is much denser than the rest.
        let mut triplets = Vec::new();
        for j in 0..512i64 {
            triplets.push((j % 4, j, 1.0)); // rows 0-3 hold 512 entries
        }
        for i in 4..64i64 {
            triplets.push((i, 0, 1.0)); // one entry per remaining row
        }
        let t = csr_from_triplets(64, 512, &triplets);
        let colors = 8;
        // Universe (row) partition: the first color owns the dense rows.
        let u = partition_tensor(
            &t,
            0,
            universe_partition(&t, 0, &equal_coord_bounds(64, colors)),
        );
        // Non-zero partition: perfectly balanced values.
        let z = partition_tensor(&t, 1, nonzero_partition(&t, 1, colors));
        assert!(
            u.vals().imbalance() > 4.0,
            "u imbalance {}",
            u.vals().imbalance()
        );
        assert!(
            z.vals().imbalance() < 1.05,
            "z imbalance {}",
            z.vals().imbalance()
        );
    }

    #[test]
    fn universe_partition_of_compressed_level0() {
        // DCSR: level 0 compressed.
        let t = spdistal_sparse::convert::to_dcsr(&fig7());
        let init = universe_partition(&t, 0, &equal_coord_bounds(4, 2));
        let tp = partition_tensor(&t, 0, init);
        assert!(tp.entries[0].is_complete());
        assert!(tp.vals().is_complete());
    }

    #[test]
    fn dds_partition_through_dense_levels() {
        // {Dense, Dense, Compressed} patents-like tensor.
        let t = generate::tensor3_uniform_fmt(
            [4, 8, 16],
            100,
            7,
            &[
                spdistal_sparse::LevelFormat::Dense,
                spdistal_sparse::LevelFormat::Dense,
                spdistal_sparse::LevelFormat::Compressed,
            ],
        );
        let init = universe_partition(&t, 0, &equal_coord_bounds(4, 2));
        let tp = partition_tensor(&t, 0, init);
        assert_eq!(tp.entries[0].parent_len(), 4);
        assert_eq!(tp.entries[1].parent_len(), 32);
        assert!(tp.entries[1].is_disjoint() && tp.entries[1].is_complete());
        assert!(tp.vals().is_complete());
        // vals count == nnz for trailing compressed.
        assert_eq!(tp.vals().parent_len(), t.nnz() as u64);
    }

    #[test]
    fn csf3_nonzero_values_partition() {
        let t = generate::tensor3_uniform([8, 8, 8], 200, 11);
        let colors = 4;
        let tp = partition_tensor(&t, 2, nonzero_partition(&t, 2, colors));
        assert!(tp.vals().imbalance() < 1.1);
        // All levels complete (possibly aliased).
        for e in &tp.entries {
            assert!(e.is_complete());
        }
    }

    #[test]
    fn replicated_covers_everything() {
        let t = fig7();
        let tp = replicated_partition(&t, 3);
        for c in 0..3 {
            assert_eq!(tp.vals().subset(c).total_len(), 8);
            assert_eq!(tp.entries[0].subset(c).total_len(), 4);
        }
        let scalar = SpTensor::from_parts(vec![], vec![], vec![2.0]);
        assert_eq!(
            replicated_partition(&scalar, 3)
                .vals()
                .subset(2)
                .total_len(),
            1
        );
    }

    #[test]
    fn roundtrip_up_down_consistent() {
        // Deriving down then up from the same seed must cover the seed.
        let t = generate::uniform(64, 64, 800, 13);
        let init = nonzero_partition(&t, 1, 4);
        let tp = partition_tensor(&t, 1, init.clone());
        let down_again = partition_from_parent(&t, 1, &tp.entries[0]);
        for c in 0..4 {
            assert!(
                down_again.subset(c).contains_set(init.subset(c)),
                "color {c} lost entries"
            );
        }
    }
}
