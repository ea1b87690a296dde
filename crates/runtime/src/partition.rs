//! Partitions of 1-D index spaces.
//!
//! A partition maps a set of *colors* to (potentially overlapping) subsets of
//! an index space (Section III-A of the paper). Regions are distributed by
//! partitioning their index space and placing each colored sub-region in a
//! different memory. Colors correspond one-to-one with the points of the
//! machine grid a computation is distributed over.

use crate::geometry::{IntervalSet, Rect1};

/// A partition of the index space `[0, parent_len)` into `subsets.len()`
/// colored subsets. Subsets may overlap each other (aliased partitions) and
/// need not cover the parent space.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    parent_len: u64,
    subsets: Vec<IntervalSet>,
}

impl Partition {
    /// Build a partition directly from per-color subsets.
    pub fn new(parent_len: u64, subsets: Vec<IntervalSet>) -> Self {
        Partition {
            parent_len,
            subsets,
        }
    }

    /// An empty partition with `colors` empty subsets.
    pub fn empty(parent_len: u64, colors: usize) -> Self {
        Partition {
            parent_len,
            subsets: vec![IntervalSet::new(); colors],
        }
    }

    /// The equal blocked partition of `[0, parent_len)` into `colors` pieces,
    /// the default "universe" partition of tensor distribution notation.
    ///
    /// Piece `c` gets `[c*ceil, min((c+1)*ceil, n)-1)` using ceiling-division
    /// blocks so that every point is covered and blocks differ by at most one
    /// trailing shorter block.
    pub fn equal(parent_len: u64, colors: usize) -> Self {
        assert!(colors > 0, "cannot partition into zero colors");
        let n = parent_len as i64;
        let block = (parent_len as i64 + colors as i64 - 1) / colors as i64;
        let subsets = (0..colors as i64)
            .map(|c| {
                let lo = c * block;
                let hi = ((c + 1) * block - 1).min(n - 1);
                IntervalSet::from_rect(Rect1::new(lo, hi))
            })
            .collect();
        Partition {
            parent_len,
            subsets,
        }
    }

    /// `partitionByBounds` from Table I: each color is assigned one interval.
    pub fn by_bounds(parent_len: u64, bounds: Vec<Rect1>) -> Self {
        let subsets = bounds
            .into_iter()
            .map(|r| IntervalSet::from_rect(r.intersect(&Rect1::new(0, parent_len as i64 - 1))))
            .collect();
        Partition {
            parent_len,
            subsets,
        }
    }

    /// `partitionByValueRanges` from Table I: partition the *positions* of a
    /// value array (e.g. a `crd` region) by bucketing each value into the
    /// coordinate range assigned to each color. Positions whose value falls
    /// in multiple ranges get multiple colors.
    pub fn by_value_ranges(values: &[i64], ranges: &[Rect1]) -> Self {
        let mut per_color: Vec<Vec<Rect1>> = vec![Vec::new(); ranges.len()];
        for (c, range) in ranges.iter().enumerate() {
            // Collect maximal runs of positions whose value lies in `range`.
            let mut run_start: Option<i64> = None;
            for (p, v) in values.iter().enumerate() {
                if range.contains(*v) {
                    if run_start.is_none() {
                        run_start = Some(p as i64);
                    }
                } else if let Some(s) = run_start.take() {
                    per_color[c].push(Rect1::new(s, p as i64 - 1));
                }
            }
            if let Some(s) = run_start {
                per_color[c].push(Rect1::new(s, values.len() as i64 - 1));
            }
        }
        Partition {
            parent_len: values.len() as u64,
            subsets: per_color.into_iter().map(IntervalSet::from_rects).collect(),
        }
    }

    /// Length of the partitioned (parent) index space.
    pub fn parent_len(&self) -> u64 {
        self.parent_len
    }

    /// Number of colors.
    pub fn num_colors(&self) -> usize {
        self.subsets.len()
    }

    /// The subset assigned to `color`.
    pub fn subset(&self, color: usize) -> &IntervalSet {
        &self.subsets[color]
    }

    /// All subsets, indexed by color.
    pub fn subsets(&self) -> &[IntervalSet] {
        &self.subsets
    }

    /// True iff no point is assigned to two different colors.
    pub fn is_disjoint(&self) -> bool {
        for i in 0..self.subsets.len() {
            for j in (i + 1)..self.subsets.len() {
                if self.subsets[i].overlaps(&self.subsets[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// True iff every point of the parent space is assigned at least one color.
    pub fn is_complete(&self) -> bool {
        let mut u = IntervalSet::new();
        for s in &self.subsets {
            u = u.union(s);
        }
        u.total_len() == self.parent_len
    }

    /// Sum of subset sizes. For aliased partitions this can exceed
    /// `parent_len`; the excess is exactly the replication the machine pays
    /// for in memory and communication.
    pub fn total_assigned(&self) -> u64 {
        self.subsets.iter().map(IntervalSet::total_len).sum()
    }

    /// Size of the largest subset; `max / mean` is the load-imbalance factor
    /// that motivates non-zero partitions (Section II-B).
    pub fn max_subset_len(&self) -> u64 {
        self.subsets
            .iter()
            .map(IntervalSet::total_len)
            .max()
            .unwrap_or(0)
    }

    /// Load imbalance factor: `max subset size / mean subset size`.
    /// Returns 1.0 for empty partitions.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_assigned();
        if total == 0 || self.subsets.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.subsets.len() as f64;
        self.max_subset_len() as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_partition_covers_disjointly() {
        for n in [0u64, 1, 7, 16, 100, 101] {
            for c in [1usize, 2, 3, 4, 7, 16] {
                let p = Partition::equal(n, c);
                assert_eq!(p.num_colors(), c);
                assert!(p.is_disjoint(), "n={n} c={c}");
                assert!(p.is_complete(), "n={n} c={c}");
                assert_eq!(p.total_assigned(), n);
            }
        }
    }

    #[test]
    fn equal_partition_balanced() {
        let p = Partition::equal(10, 4);
        // ceil(10/4)=3: blocks [0,2],[3,5],[6,8],[9,9]
        assert_eq!(p.subset(0).total_len(), 3);
        assert_eq!(p.subset(3).total_len(), 1);
        assert!(p.imbalance() <= 3.0 / 2.5 + 1e-9);
    }

    #[test]
    fn by_bounds_clamps() {
        let p = Partition::by_bounds(8, vec![Rect1::new(0, 3), Rect1::new(4, 100)]);
        assert_eq!(p.subset(1).total_len(), 4); // clamped to [4,7]
        assert!(p.is_complete());
    }

    #[test]
    fn by_value_ranges_buckets_positions() {
        // crd array of a CSR matrix row-block: values are column coords.
        let crd = [0i64, 1, 3, 1, 3, 0, 0, 3];
        // Two colors: columns [0,1] and [2,3].
        let p = Partition::by_value_ranges(&crd, &[Rect1::new(0, 1), Rect1::new(2, 3)]);
        let c0: Vec<i64> = p.subset(0).iter_points().collect();
        let c1: Vec<i64> = p.subset(1).iter_points().collect();
        assert_eq!(c0, vec![0, 1, 3, 5, 6]);
        assert_eq!(c1, vec![2, 4, 7]);
        assert!(p.is_disjoint());
        assert!(p.is_complete());
    }

    #[test]
    fn by_value_ranges_overlapping_ranges_alias() {
        let crd = [0i64, 1, 2];
        let p = Partition::by_value_ranges(&crd, &[Rect1::new(0, 1), Rect1::new(1, 2)]);
        assert!(!p.is_disjoint());
        assert!(p.subset(0).contains(1) && p.subset(1).contains(1));
    }

    #[test]
    fn imbalance_detects_skew() {
        let p = Partition::new(
            10,
            vec![
                IntervalSet::from_rect(Rect1::new(0, 8)),
                IntervalSet::from_rect(Rect1::new(9, 9)),
            ],
        );
        assert!(p.imbalance() > 1.7);
        let q = Partition::equal(10, 2);
        assert!((q.imbalance() - 1.0).abs() < 1e-9);
    }
}
