//! Building sparse tensors from coordinate (COO) form.
//!
//! [`CooTensor`] buffers `(coordinates, value)` pairs in any order, then
//! [`CooTensor::build`] assembles an [`SpTensor`] with any per-dimension
//! format combination: entries are sorted lexicographically in storage
//! order, duplicates are summed, and the coordinate tree is materialized
//! level by level.

use spdistal_runtime::Rect1;

use crate::tensor::{Level, LevelFormat, SpTensor};

/// A tensor in coordinate form.
#[derive(Clone, Debug, Default)]
pub struct CooTensor {
    dims: Vec<usize>,
    coords: Vec<Vec<i64>>,
    vals: Vec<f64>,
}

impl CooTensor {
    /// An empty COO tensor with the given dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        CooTensor {
            dims,
            coords: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of buffered entries (before deduplication).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Append one entry. Coordinates must be in range.
    pub fn push(&mut self, coord: &[i64], val: f64) {
        debug_assert_eq!(coord.len(), self.dims.len());
        debug_assert!(coord
            .iter()
            .zip(&self.dims)
            .all(|(&c, &d)| c >= 0 && (c as usize) < d));
        self.coords.push(coord.to_vec());
        self.vals.push(val);
    }

    /// Reorder the stored dimensions (e.g. `[1, 0]` converts a row-major
    /// matrix COO into column-major form for CSC assembly).
    pub fn permute_dims(&self, perm: &[usize]) -> CooTensor {
        assert_eq!(perm.len(), self.dims.len());
        let dims = perm.iter().map(|&p| self.dims[p]).collect();
        let coords = self
            .coords
            .iter()
            .map(|c| perm.iter().map(|&p| c[p]).collect())
            .collect();
        CooTensor {
            dims,
            coords,
            vals: self.vals.clone(),
        }
    }

    /// Assemble an [`SpTensor`] with the given per-dimension formats.
    /// Duplicate coordinates are summed.
    pub fn build(&self, formats: &[LevelFormat]) -> SpTensor {
        // Sort entry indices lexicographically by coordinates.
        let mut idx: Vec<usize> = (0..self.vals.len()).collect();
        idx.sort_unstable_by(|&a, &b| self.coords[a].cmp(&self.coords[b]));

        // Deduplicate: collapse runs of equal coordinates, summing values.
        let mut uniq: Vec<(usize, f64)> = Vec::with_capacity(idx.len());
        for &i in &idx {
            match uniq.last_mut() {
                Some((j, v)) if self.coords[*j] == self.coords[i] => *v += self.vals[i],
                _ => uniq.push((i, self.vals[i])),
            }
        }

        let mut packer = Packer::new(&self.dims, formats, uniq.len());
        for &(i, v) in &uniq {
            packer.push(&self.coords[i], v);
        }
        packer.finish()
    }
}

/// The one way a coordinate tree is materialized: entries arrive sorted by
/// coordinate and unique — [`CooTensor::build`] after its sort + dedup,
/// [`SpTensor::with_edits`] straight from its merge — and every level's
/// arrays grow by appending.
pub(crate) struct Packer<'a> {
    dims: &'a [usize],
    /// A Singleton below level 0 keeps one entry per stored value at every
    /// level above it (what makes `{Compressed, Singleton}` the COO layout),
    /// so no entry is ever shared between two values.
    share_prefixes: bool,
    levels: Vec<Level>,
    vals: Vec<f64>,
    /// The last pushed coordinate (`-1`s before the first: below every
    /// valid coordinate) and its entry at every level.
    prev: Vec<i64>,
    path: Vec<usize>,
}

impl<'a> Packer<'a> {
    /// `expected` entries will be pushed, give or take: room is reserved
    /// for them in the arrays that hold one element per entry.
    pub(crate) fn new(dims: &'a [usize], formats: &[LevelFormat], expected: usize) -> Self {
        assert_eq!(formats.len(), dims.len(), "one format per dimension");
        // Dense levels cannot precede a Singleton: their entries are
        // coordinate-addressed, a Singleton's parents are one per value.
        if let Some(first_singleton) = formats.iter().position(|f| *f == LevelFormat::Singleton) {
            assert!(
                formats[..first_singleton]
                    .iter()
                    .all(|f| *f != LevelFormat::Dense),
                "Singleton levels below Dense levels are unsupported"
            );
        }
        let share_prefixes = formats.iter().skip(1).all(|f| *f != LevelFormat::Singleton);
        let leaf = dims.len().saturating_sub(1);
        let per_entry = |k: usize| {
            if k == leaf || !share_prefixes {
                expected
            } else {
                0
            }
        };
        let levels = formats
            .iter()
            .zip(dims)
            .enumerate()
            .map(|(k, (f, &size))| match f {
                LevelFormat::Dense => Level::Dense { size },
                LevelFormat::Compressed => Level::Compressed {
                    pos: Vec::new(),
                    crd: Vec::with_capacity(per_entry(k)),
                },
                LevelFormat::Singleton => Level::Singleton {
                    crd: Vec::with_capacity(per_entry(k)),
                },
            })
            .collect();
        let dense_leaf = formats.last() == Some(&LevelFormat::Dense);
        Packer {
            dims,
            share_prefixes,
            levels,
            vals: Vec::with_capacity(if dense_leaf { 0 } else { expected }),
            prev: vec![-1; dims.len()],
            path: vec![0; dims.len()],
        }
    }

    /// Append one entry; `coord` must sort strictly after the previous one.
    pub(crate) fn push(&mut self, coord: &[i64], val: f64) {
        debug_assert_eq!(coord.len(), self.dims.len());
        let moved = coord.iter().zip(&self.prev).position(|(c, p)| c != p);
        let moved = moved.expect("packed entries must be unique");
        assert!(
            coord[moved] > self.prev[moved],
            "packed entries must arrive sorted"
        );
        // Levels above the first coordinate that moved keep their entry.
        let fresh_from = if self.share_prefixes { moved } else { 0 };
        let mut parent = match fresh_from {
            0 => 0,
            k => self.path[k - 1],
        };
        for (k, &c) in coord.iter().enumerate().skip(fresh_from) {
            parent = match &mut self.levels[k] {
                Level::Dense { size } => parent * *size + c as usize,
                Level::Compressed { pos, crd } => {
                    let entry = crd.len();
                    crd.push(c);
                    if pos.len() <= parent {
                        pos.resize(parent + 1, Rect1::empty());
                    }
                    if pos[parent].is_empty() {
                        pos[parent].lo = entry as i64;
                    }
                    pos[parent].hi = entry as i64;
                    entry
                }
                Level::Singleton { crd } => {
                    debug_assert_eq!(crd.len(), parent, "singleton parents hold one element");
                    crd.push(c);
                    parent
                }
            };
            self.path[k] = parent;
        }
        if self.vals.len() <= parent {
            self.vals.resize(parent + 1, 0.0);
        }
        self.vals[parent] = val;
        self.prev[moved..].copy_from_slice(&coord[moved..]);
    }

    /// Close every level over the entries pushed so far.
    pub(crate) fn finish(mut self) -> SpTensor {
        let mut entries = 1usize;
        for level in &mut self.levels {
            if let Level::Compressed { pos, .. } = level {
                pos.resize(entries, Rect1::empty());
            }
            entries = level.num_entries(entries);
        }
        self.vals.resize(entries, 0.0);
        SpTensor::from_parts(self.dims.to_vec(), self.levels, self.vals)
    }
}

/// Shorthand: build a CSR matrix from `(row, col, value)` triplets.
pub fn csr_from_triplets(rows: usize, cols: usize, triplets: &[(i64, i64, f64)]) -> SpTensor {
    let mut coo = CooTensor::new(vec![rows, cols]);
    for &(i, j, v) in triplets {
        coo.push(&[i, j], v);
    }
    coo.build(&[LevelFormat::Dense, LevelFormat::Compressed])
}

/// Shorthand: build a CSC matrix (stored column-major) from row-major
/// triplets.
pub fn csc_from_triplets(rows: usize, cols: usize, triplets: &[(i64, i64, f64)]) -> SpTensor {
    let mut coo = CooTensor::new(vec![rows, cols]);
    for &(i, j, v) in triplets {
        coo.push(&[i, j], v);
    }
    coo.permute_dims(&[1, 0])
        .build(&[LevelFormat::Dense, LevelFormat::Compressed])
}

/// Shorthand: a dense vector tensor.
pub fn dense_vector(data: Vec<f64>) -> SpTensor {
    let n = data.len();
    SpTensor::from_parts(vec![n], vec![Level::Dense { size: n }], data)
}

/// Shorthand: a dense row-major matrix tensor.
pub fn dense_matrix(rows: usize, cols: usize, data: Vec<f64>) -> SpTensor {
    assert_eq!(data.len(), rows * cols);
    SpTensor::from_parts(
        vec![rows, cols],
        vec![Level::Dense { size: rows }, Level::Dense { size: cols }],
        data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig7_triplets() -> Vec<(i64, i64, f64)> {
        vec![
            (0, 0, 1.0),
            (0, 1, 2.0),
            (0, 3, 3.0),
            (1, 1, 4.0),
            (1, 3, 5.0),
            (2, 0, 6.0),
            (3, 0, 7.0),
            (3, 3, 8.0),
        ]
    }

    #[test]
    fn csr_matches_fig7() {
        let t = csr_from_triplets(4, 4, &fig7_triplets());
        let (pos, crd, vals) = t.csr_views().unwrap();
        assert_eq!(
            pos,
            &[
                Rect1::new(0, 2),
                Rect1::new(3, 4),
                Rect1::new(5, 5),
                Rect1::new(6, 7)
            ]
        );
        assert_eq!(crd, &[0, 1, 3, 1, 3, 0, 0, 3]);
        assert_eq!(vals, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn csc_matches_fig3() {
        // Figure 3's CSC: values ordered a f g b d c e h by columns.
        let t = csc_from_triplets(4, 4, &fig7_triplets());
        let (pos, crd, vals) = t.csr_views().unwrap();
        assert_eq!(
            pos,
            &[
                Rect1::new(0, 2),
                Rect1::new(3, 4),
                Rect1::empty(),
                Rect1::new(5, 7)
            ]
        );
        // Column 0 holds rows 0,2,3; column 1 rows 0,1; column 3 rows 0,1,3.
        assert_eq!(crd, &[0, 2, 3, 0, 1, 0, 1, 3]);
        assert_eq!(vals, &[1.0, 6.0, 7.0, 2.0, 4.0, 3.0, 5.0, 8.0]);
    }

    #[test]
    fn duplicates_summed() {
        let t = csr_from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0)]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.to_coo(), vec![(vec![0, 0], 3.0), (vec![1, 1], 3.0)]);
    }

    #[test]
    fn unsorted_input_sorted() {
        let t = csr_from_triplets(3, 3, &[(2, 2, 1.0), (0, 1, 2.0), (2, 0, 3.0)]);
        assert_eq!(
            t.to_coo(),
            vec![(vec![0, 1], 2.0), (vec![2, 0], 3.0), (vec![2, 2], 1.0)]
        );
    }

    #[test]
    fn dense_dense_matrix() {
        let mut coo = CooTensor::new(vec![2, 3]);
        coo.push(&[0, 1], 5.0);
        coo.push(&[1, 2], 6.0);
        let t = coo.build(&[LevelFormat::Dense, LevelFormat::Dense]);
        assert_eq!(t.vals(), &[0.0, 5.0, 0.0, 0.0, 0.0, 6.0]);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn dds_patents_format() {
        // {Dense, Dense, Compressed}: the "patents" layout.
        let mut coo = CooTensor::new(vec![2, 2, 4]);
        coo.push(&[0, 0, 3], 1.0);
        coo.push(&[1, 1, 0], 2.0);
        coo.push(&[1, 1, 2], 3.0);
        let t = coo.build(&[
            LevelFormat::Dense,
            LevelFormat::Dense,
            LevelFormat::Compressed,
        ]);
        match t.level(2) {
            Level::Compressed { pos, crd } => {
                assert_eq!(pos.len(), 4); // 2*2 parent entries
                assert_eq!(pos[0], Rect1::new(0, 0));
                assert!(pos[1].is_empty() && pos[2].is_empty());
                assert_eq!(pos[3], Rect1::new(1, 2));
                assert_eq!(crd, &[3, 0, 2]);
            }
            _ => panic!(),
        }
        assert_eq!(t.vals(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn csf_3tensor() {
        let mut coo = CooTensor::new(vec![3, 3, 4]);
        coo.push(&[0, 0, 1], 1.0);
        coo.push(&[0, 2, 0], 2.0);
        coo.push(&[0, 2, 3], 3.0);
        coo.push(&[2, 1, 2], 4.0);
        let t = coo.build(&[
            LevelFormat::Compressed,
            LevelFormat::Compressed,
            LevelFormat::Compressed,
        ]);
        assert_eq!(t.nnz(), 4);
        assert_eq!(
            t.to_coo(),
            vec![
                (vec![0, 0, 1], 1.0),
                (vec![0, 2, 0], 2.0),
                (vec![0, 2, 3], 3.0),
                (vec![2, 1, 2], 4.0),
            ]
        );
    }

    #[test]
    fn empty_tensor_builds() {
        let coo = CooTensor::new(vec![4, 4]);
        let t = coo.build(&[LevelFormat::Dense, LevelFormat::Compressed]);
        assert_eq!(t.nnz(), 0);
        assert!(t.to_coo().is_empty());
    }

    #[test]
    fn dense_vector_helper() {
        let v = dense_vector(vec![1.0, 2.0]);
        assert_eq!(v.order(), 1);
        assert_eq!(v.vals(), &[1.0, 2.0]);
    }

    #[test]
    fn roundtrip_coo_build() {
        let t = csr_from_triplets(5, 7, &[(0, 6, 1.5), (4, 0, 2.5), (2, 3, -1.0)]);
        let coo = t.to_coo();
        let mut c2 = CooTensor::new(vec![5, 7]);
        for (c, v) in &coo {
            c2.push(c, *v);
        }
        let t2 = c2.build(&[LevelFormat::Dense, LevelFormat::Compressed]);
        assert_eq!(t, t2);
    }
}
