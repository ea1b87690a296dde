//! The sparse tensor data structure: a coordinate tree stored level by level
//! (Section III-B of the paper, following TACO's format abstraction).
//!
//! A tensor of order *k* stores each of its *k* dimensions with a *level
//! format*. A `Dense` level stores all coordinates of the dimension as an
//! implicit range `[0, size)`. A `Compressed` level stores only the non-zero
//! coordinates with a `pos`/`crd` pair, where — following SpDISTAL rather
//! than classic TACO — `pos` holds inclusive `(lo, hi)` *interval tuples*
//! into `crd` so that partitions of `pos` and `crd` can be related with the
//! dependent-partitioning operators `image` and `preimage` (Figure 7).

use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use spdistal_runtime::Rect1;

use crate::builder::Packer;

/// Per-dimension storage format selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LevelFormat {
    /// All coordinates of the dimension, stored implicitly.
    Dense,
    /// Only non-zero coordinates, stored with `pos`/`crd` arrays.
    Compressed,
    /// Exactly one coordinate per parent entry, stored with a `crd` array
    /// only (no `pos`). `{Compressed, Singleton}` is TACO's COO matrix
    /// layout: the compressed level keeps duplicate outer coordinates, and
    /// each carries a single inner coordinate.
    Singleton,
}

/// Physical storage of one coordinate-tree level.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Level {
    /// A dense level of extent `size`: parent entry `p` has children
    /// `p*size + c` for every coordinate `c` in `[0, size)`.
    Dense { size: usize },
    /// A compressed level: parent entry `p` has children at positions
    /// `pos[p].lo ..= pos[p].hi` of `crd`; the child coordinate value is
    /// `crd[q]`.
    Compressed { pos: Vec<Rect1>, crd: Vec<i64> },
    /// A singleton level: parent entry `p` has exactly one child, itself at
    /// entry `p`, with coordinate `crd[p]`.
    Singleton { crd: Vec<i64> },
}

impl Level {
    /// The level format this storage implements.
    pub fn format(&self) -> LevelFormat {
        match self {
            Level::Dense { .. } => LevelFormat::Dense,
            Level::Compressed { .. } => LevelFormat::Compressed,
            Level::Singleton { .. } => LevelFormat::Singleton,
        }
    }

    /// Number of entries (coordinate-tree nodes) in this level, given the
    /// number of entries in the parent level.
    pub fn num_entries(&self, parent_entries: usize) -> usize {
        match self {
            Level::Dense { size } => parent_entries * size,
            Level::Compressed { crd, .. } => crd.len(),
            Level::Singleton { crd } => {
                debug_assert_eq!(crd.len(), parent_entries);
                parent_entries
            }
        }
    }
}

/// A sparse tensor: ordered levels plus a values array.
///
/// Dimensions are indexed in *storage order*: `dims()[0]` is the outermost
/// stored dimension. A CSR matrix is `{Dense, Compressed}` over `(rows,
/// cols)`; CSC is the same formats over `(cols, rows)` (the caller reorders
/// coordinates when building).
///
/// One copy of each array: the levels never change after construction, so
/// a clone shares them, and the values are copy-on-write — a clone shares
/// them too until either side asks for [`vals_mut`](SpTensor::vals_mut),
/// which copies a shared buffer and writes a unique one where it stands.
/// [`with_vals`](SpTensor::with_vals) puts new values around the same
/// pattern without copying it.
#[derive(Clone, Debug)]
pub struct SpTensor {
    dims: Vec<usize>,
    levels: Arc<[Level]>,
    vals: Arc<Vec<f64>>,
    /// [`SpTensor::pattern_hash`], memoised. `dims` and `levels` never
    /// change after construction (only `vals` is mutable), so the memo
    /// stays valid. A clone copies the memo as it stands: clones taken
    /// after the first hash inherit it, clones taken before it hash again.
    pattern: OnceLock<u64>,
}

impl PartialEq for SpTensor {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims && self.levels == other.levels && self.vals == other.vals
    }
}

impl SpTensor {
    /// Assemble a tensor from parts, validating structural invariants.
    pub fn from_parts(dims: Vec<usize>, levels: Vec<Level>, vals: Vec<f64>) -> Self {
        assert_eq!(dims.len(), levels.len(), "one level per dimension");
        let mut entries = 1usize;
        for (d, level) in levels.iter().enumerate() {
            match level {
                Level::Dense { size } => assert_eq!(*size, dims[d], "dense level extent"),
                Level::Compressed { pos, crd } => {
                    assert_eq!(pos.len(), entries, "pos length == parent entries");
                    debug_assert!(crd.iter().all(|&c| (c as usize) < dims[d]));
                }
                Level::Singleton { crd } => {
                    assert_eq!(crd.len(), entries, "singleton crd length == parent entries");
                    debug_assert!(crd.iter().all(|&c| (c as usize) < dims[d]));
                }
            }
            entries = level.num_entries(entries);
        }
        assert_eq!(vals.len(), entries, "vals length == leaf entries");
        SpTensor {
            dims,
            levels: levels.into(),
            vals: Arc::new(vals),
            pattern: OnceLock::new(),
        }
    }

    /// This tensor's pattern around `vals`: the levels and the memoised
    /// pattern hash are shared, not copied (only the dims are, one word per
    /// dimension). `vals` must hold one value per stored entry, as
    /// [`from_parts`](SpTensor::from_parts) checks.
    pub fn with_vals(&self, vals: Vec<f64>) -> Self {
        assert_eq!(vals.len(), self.vals.len(), "vals length == leaf entries");
        SpTensor {
            dims: self.dims.clone(),
            levels: Arc::clone(&self.levels),
            vals: Arc::new(vals),
            pattern: self.pattern.clone(),
        }
    }

    /// A hash of the stored coordinate tree — dims and every level's
    /// `pos`/`crd` arrays, never the values: equal for two tensors exactly
    /// when (up to hash collisions) they store the same pattern the same
    /// way. Computed at most once per tensor, and inherited by the clones
    /// taken after that (a clone taken before it hashes on its own, since
    /// the memo is copied by value at clone time). `spd-server` hashes a
    /// tensor when it registers it, so every request's copy inherits the
    /// hash. O(1) for all-dense tensors.
    pub fn pattern_hash(&self) -> u64 {
        *self.pattern.get_or_init(|| {
            let mut h = DefaultHasher::new();
            self.dims.hash(&mut h);
            self.levels.hash(&mut h);
            h.finish()
        })
    }

    /// The memoised [`pattern_hash`](SpTensor::pattern_hash) if it has been
    /// computed — a peek for tests that pin *when* the coordinate tree is
    /// hashed, never a reason to hash it.
    #[doc(hidden)]
    pub fn pattern_memo(&self) -> Option<u64> {
        self.pattern.get().copied()
    }

    /// Extents of the stored dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Tensor order (number of dimensions).
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// The stored levels, outermost first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The stored levels as the one allocation this tensor, its clones and
    /// its [`with_vals`](SpTensor::with_vals) tensors share: two tensors
    /// hold the very same pattern arrays exactly when these are
    /// [`Arc::ptr_eq`] — an identity that costs no hash.
    pub fn shared_levels(&self) -> &Arc<[Level]> {
        &self.levels
    }

    /// Storage of level `k`.
    pub fn level(&self, k: usize) -> &Level {
        &self.levels[k]
    }

    /// The values array (one entry per leaf-level entry; for a trailing
    /// dense level this includes explicit zeros).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable values (e.g. for output tensors that reuse an input pattern).
    /// Copy-on-write: values shared with a clone are copied first, so the
    /// clone keeps its bits; unique values are written where they stand.
    pub fn vals_mut(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.vals).as_mut_slice()
    }

    /// Consume the tensor, keeping only its values array (the allocation a
    /// merging pass re-uses as the next output buffer): moved out when this
    /// tensor is its only owner, copied when a clone still shares it.
    pub fn into_vals(self) -> Vec<f64> {
        Arc::unwrap_or_clone(self.vals)
    }

    /// Number of stored values, counting explicit zeros in trailing dense
    /// levels.
    pub fn num_stored(&self) -> usize {
        self.vals.len()
    }

    /// Number of structurally non-zero stored values.
    pub fn nnz(&self) -> usize {
        if self.trailing_dense() {
            self.vals.iter().filter(|v| **v != 0.0).count()
        } else {
            self.vals.len()
        }
    }

    /// A trailing dense level stores every coordinate of its dimension, so
    /// there a stored `0.0` means "absent" ([`SpTensor::nnz`],
    /// [`SpTensor::to_coo`], [`SpTensor::locate`] all read it that way).
    fn trailing_dense(&self) -> bool {
        self.levels
            .last()
            .is_some_and(|l| l.format() == LevelFormat::Dense)
    }

    /// The per-dimension formats.
    pub fn formats(&self) -> Vec<LevelFormat> {
        self.levels.iter().map(Level::format).collect()
    }

    /// Estimated resident bytes of all arrays (used for OOM modeling).
    pub fn bytes(&self) -> u64 {
        let mut b = (self.vals.len() * std::mem::size_of::<f64>()) as u64;
        for l in self.levels.iter() {
            match l {
                Level::Compressed { pos, crd } => {
                    b += (pos.len() * std::mem::size_of::<Rect1>()) as u64;
                    b += (crd.len() * std::mem::size_of::<i64>()) as u64;
                }
                Level::Singleton { crd } => {
                    b += (crd.len() * std::mem::size_of::<i64>()) as u64;
                }
                Level::Dense { .. } => {}
            }
        }
        b
    }

    /// Visit every stored entry `(coordinates, value)` in storage order.
    /// Trailing-dense entries with value zero are visited too.
    pub fn for_each(&self, mut f: impl FnMut(&[i64], f64)) {
        let mut coord = vec![0i64; self.order()];
        self.walk(0, 0, &mut coord, &mut f);
    }

    fn walk(
        &self,
        level: usize,
        entry: usize,
        coord: &mut Vec<i64>,
        f: &mut impl FnMut(&[i64], f64),
    ) {
        if level == self.order() {
            f(coord, self.vals[entry]);
            return;
        }
        match &self.levels[level] {
            Level::Dense { size } => {
                for c in 0..*size {
                    coord[level] = c as i64;
                    self.walk(level + 1, entry * size + c, coord, f);
                }
            }
            Level::Compressed { pos, crd } => {
                let r = pos[entry];
                if r.is_empty() {
                    return;
                }
                for q in r.lo..=r.hi {
                    coord[level] = crd[q as usize];
                    self.walk(level + 1, q as usize, coord, f);
                }
            }
            Level::Singleton { crd } => {
                coord[level] = crd[entry];
                self.walk(level + 1, entry, coord, f);
            }
        }
    }

    /// Flatten to coordinate form (structural non-zeros only).
    pub fn to_coo(&self) -> Vec<(Vec<i64>, f64)> {
        let mut out = Vec::new();
        let trailing_dense = self.trailing_dense();
        self.for_each(|c, v| {
            if !trailing_dense || v != 0.0 {
                out.push((c.to_vec(), v));
            }
        });
        out
    }

    /// Position in [`vals`](SpTensor::vals) of the entry stored at `coord`,
    /// if there is one — exactly the coordinates [`SpTensor::to_coo`]
    /// lists, found by descending the levels with a binary search in each
    /// (`O(order · log fan-out)`) instead of visiting every entry. Relies,
    /// like the kernels, on the sorted level arrays [`CooTensor::build`]
    /// produces.
    ///
    /// [`CooTensor::build`]: crate::CooTensor::build
    pub fn locate(&self, coord: &[i64]) -> Option<usize> {
        assert_eq!(coord.len(), self.order(), "one coordinate per dimension");
        let at = self.descend(0, 0..1, coord)?;
        (!self.trailing_dense() || self.vals[at] != 0.0).then_some(at)
    }

    /// `parents` are the entries above `level` whose coordinates match
    /// `coord[..level]`: one entry, except below a compressed level that
    /// keeps duplicates (COO), where they are that coordinate's equal-range
    /// — sorted by the next coordinate, which is what lets a singleton
    /// level narrow them by bisection.
    fn descend(&self, level: usize, mut parents: Range<usize>, coord: &[i64]) -> Option<usize> {
        if level == self.order() {
            debug_assert!(parents.len() <= 1, "stored coordinates are unique");
            return (!parents.is_empty()).then_some(parents.start);
        }
        let c = coord[level];
        let equal_range = |run: &[i64], base: usize| {
            base + run.partition_point(|&x| x < c)..base + run.partition_point(|&x| x <= c)
        };
        match &self.levels[level] {
            Level::Dense { size } => {
                let c = usize::try_from(c).ok().filter(|c| c < size)?;
                parents.find_map(|p| self.descend(level + 1, p * size + c..p * size + c + 1, coord))
            }
            Level::Compressed { pos, crd } => parents.find_map(|p| {
                let r = pos[p];
                if r.is_empty() {
                    return None;
                }
                let (lo, hi) = (r.lo as usize, r.hi as usize + 1);
                self.descend(level + 1, equal_range(&crd[lo..hi], lo), coord)
            }),
            Level::Singleton { crd } => {
                let narrowed = equal_range(&crd[parents.clone()], parents.start);
                self.descend(level + 1, narrowed, coord)
            }
        }
    }

    /// This tensor with `edits` applied, in the same formats: `Some(v)`
    /// stores `v` at its coordinate (insert or overwrite), `None` removes
    /// the entry stored there (nothing to remove: no-op). `edits` are
    /// sorted by coordinate and unique, so one linear merge with the stored
    /// entries feeds the packer [`CooTensor::build`] uses — nothing is
    /// sorted, and nothing is held per stored entry.
    ///
    /// [`CooTensor::build`]: crate::CooTensor::build
    pub fn with_edits(&self, edits: &[(&[i64], Option<f64>)]) -> SpTensor {
        let formats = self.formats();
        let mut packer = Packer::new(&self.dims, &formats, self.vals.len() + edits.len());
        let trailing_dense = self.trailing_dense();
        let mut pending = edits.iter().peekable();
        self.for_each(|c, v| {
            if trailing_dense && v == 0.0 {
                return;
            }
            // Edits up to and including this coordinate; one there
            // replaces the stored entry.
            let mut stored = Some(v);
            while let Some((at, new)) = pending.next_if(|(at, _)| *at <= c) {
                if *at == c {
                    stored = None;
                }
                if let Some(new) = new {
                    packer.push(at, *new);
                }
            }
            if let Some(v) = stored {
                packer.push(c, v);
            }
        });
        for (at, new) in pending {
            if let Some(new) = new {
                packer.push(at, *new);
            }
        }
        packer.finish()
    }

    /// CSR accessors for a `{Dense, Compressed}` matrix: `(pos, crd, vals)`.
    pub fn csr_views(&self) -> Option<(&[Rect1], &[i64], &[f64])> {
        if self.order() != 2 {
            return None;
        }
        match (&self.levels[0], &self.levels[1]) {
            (Level::Dense { .. }, Level::Compressed { pos, crd }) => Some((pos, crd, self.vals())),
            _ => None,
        }
    }

    /// Number of non-zeros in row `i` of a CSR matrix.
    pub fn row_nnz(&self, i: usize) -> usize {
        match &self.levels[1] {
            Level::Compressed { pos, .. } => pos[i].len() as usize,
            Level::Dense { size } => *size,
            Level::Singleton { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4x4 matrix of Figure 3 / Figure 7 in CSR.
    pub fn fig7_matrix() -> SpTensor {
        SpTensor::from_parts(
            vec![4, 4],
            vec![
                Level::Dense { size: 4 },
                Level::Compressed {
                    pos: vec![
                        Rect1::new(0, 2),
                        Rect1::new(3, 4),
                        Rect1::new(5, 5),
                        Rect1::new(6, 7),
                    ],
                    crd: vec![0, 1, 3, 1, 3, 0, 0, 3],
                },
            ],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        )
    }

    #[test]
    fn pattern_hash_sees_structure_not_values() {
        let a = fig7_matrix();
        let mut revalued = a.clone();
        revalued.vals_mut().fill(-1.0);
        assert_eq!(revalued.levels(), a.levels());
        assert_ne!(a, revalued);
        assert_eq!(a.pattern_hash(), revalued.pattern_hash());
        // Same dims, same column indices, one entry moved from row 0 to
        // row 1: only `pos` differs.
        let Level::Compressed { crd, .. } = a.level(1).clone() else {
            panic!("fig7 is CSR");
        };
        let pos = vec![
            Rect1::new(0, 1),
            Rect1::new(2, 4),
            Rect1::new(5, 5),
            Rect1::new(6, 7),
        ];
        let levels = vec![Level::Dense { size: 4 }, Level::Compressed { pos, crd }];
        let moved = SpTensor::from_parts(vec![4, 4], levels, a.vals().to_vec());
        assert_ne!(a.pattern_hash(), moved.pattern_hash());
    }

    #[test]
    fn locate_and_with_edits_agree_with_to_coo_in_every_format() {
        use crate::{convert::with_formats, generate, CooTensor};
        use LevelFormat::{Compressed as C, Dense as D, Singleton as S};
        let m = generate::uniform(24, 17, 90, 3);
        let t3 = generate::tensor3_uniform([7, 6, 5], 60, 4);
        let cases = [
            with_formats(&m, &[D, C]),
            with_formats(&m, &[C, C]),
            with_formats(&m, &[C, S]),
            with_formats(&m, &[D, D]),
            with_formats(&m, &[C, D]),
            with_formats(&t3, &[C, C, C]),
            with_formats(&t3, &[C, S, S]),
            with_formats(&t3, &[D, C, D]),
        ];
        for t in &cases {
            let stored = t.to_coo();
            for (c, v) in &stored {
                assert_eq!(t.locate(c).map(|p| t.vals()[p]), Some(*v), "{c:?}");
            }
            // Every coordinate of the index space: stored ones aside, absent.
            let mut coord = vec![0i64; t.order()];
            let mut found = 0;
            'space: loop {
                found += usize::from(t.locate(&coord).is_some());
                for k in (0..coord.len()).rev() {
                    coord[k] += 1;
                    if (coord[k] as usize) < t.dims()[k] {
                        continue 'space;
                    }
                    coord[k] = 0;
                }
                break;
            }
            assert_eq!(found, stored.len(), "{:?}", t.formats());
            assert_eq!(t.locate(&vec![-1; t.order()]), None);
            assert_eq!(
                t.locate(&t.dims().iter().map(|&d| d as i64).collect::<Vec<_>>()),
                None
            );

            // Remove every third entry, re-value the next, and store the
            // last coordinate of the index space if it is absent.
            let mut edits: Vec<(&[i64], Option<f64>)> = Vec::new();
            let mut expect = CooTensor::new(t.dims().to_vec());
            for (k, (c, v)) in stored.iter().enumerate() {
                match k % 3 {
                    0 => edits.push((c, None)),
                    1 => {
                        edits.push((c, Some(-v)));
                        expect.push(c, -v);
                    }
                    _ => expect.push(c, *v),
                }
            }
            let last: Vec<i64> = t.dims().iter().map(|&d| d as i64 - 1).collect();
            if t.locate(&last).is_none() {
                edits.push((&last, Some(7.5)));
                expect.push(&last, 7.5);
            }
            assert_eq!(t.with_edits(&edits), expect.build(&t.formats()));
            assert_eq!(&t.with_edits(&[]), t);
        }
    }

    #[test]
    fn csr_roundtrip_coo() {
        let t = fig7_matrix();
        assert_eq!(t.nnz(), 8);
        let coo = t.to_coo();
        assert_eq!(coo.len(), 8);
        assert_eq!(coo[0], (vec![0, 0], 1.0));
        assert_eq!(coo[2], (vec![0, 3], 3.0));
        assert_eq!(coo[7], (vec![3, 3], 8.0));
    }

    #[test]
    fn dense_vector() {
        let t = SpTensor::from_parts(
            vec![4],
            vec![Level::Dense { size: 4 }],
            vec![1.0, 0.0, 2.0, 0.0],
        );
        assert_eq!(t.num_stored(), 4);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.to_coo(), vec![(vec![0], 1.0), (vec![2], 2.0)]);
    }

    #[test]
    fn empty_rows_skipped() {
        let t = SpTensor::from_parts(
            vec![3, 4],
            vec![
                Level::Dense { size: 3 },
                Level::Compressed {
                    pos: vec![Rect1::new(0, 0), Rect1::empty(), Rect1::new(1, 1)],
                    crd: vec![2, 0],
                },
            ],
            vec![5.0, 6.0],
        );
        let coo = t.to_coo();
        assert_eq!(coo, vec![(vec![0, 2], 5.0), (vec![2, 0], 6.0)]);
        assert_eq!(t.row_nnz(0), 1);
        assert_eq!(t.row_nnz(1), 0);
    }

    #[test]
    fn csf_3tensor_walk() {
        // Two slices: slice 0 has rows {0: [1], 2: [0,3]}, slice 2 has row {1: [2]}.
        let t = SpTensor::from_parts(
            vec![3, 3, 4],
            vec![
                Level::Compressed {
                    pos: vec![Rect1::new(0, 1)],
                    crd: vec![0, 2],
                },
                Level::Compressed {
                    pos: vec![Rect1::new(0, 1), Rect1::new(2, 2)],
                    crd: vec![0, 2, 1],
                },
                Level::Compressed {
                    pos: vec![Rect1::new(0, 0), Rect1::new(1, 2), Rect1::new(3, 3)],
                    crd: vec![1, 0, 3, 2],
                },
            ],
            vec![1.0, 2.0, 3.0, 4.0],
        );
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
    #[should_panic(expected = "pos length")]
    fn bad_pos_length_rejected() {
        SpTensor::from_parts(
            vec![2, 2],
            vec![
                Level::Dense { size: 2 },
                Level::Compressed {
                    pos: vec![Rect1::new(0, 0)],
                    crd: vec![0],
                },
            ],
            vec![1.0],
        );
    }

    /// Where `t`'s values and level arrays live.
    fn addresses(t: &SpTensor) -> (usize, Vec<usize>) {
        let levels = t.levels().iter().flat_map(|level| match level {
            Level::Dense { .. } => vec![],
            Level::Compressed { pos, crd } => vec![pos.as_ptr() as usize, crd.as_ptr() as usize],
            Level::Singleton { crd } => vec![crd.as_ptr() as usize],
        });
        (t.vals().as_ptr() as usize, levels.collect())
    }

    #[test]
    fn a_clone_shares_its_levels_and_values() {
        let a = fig7_matrix();
        let b = a.clone();
        assert_eq!(addresses(&a), addresses(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn vals_mut_copies_only_shared_values() {
        let mut a = fig7_matrix();
        let b = a.clone();
        let (vals, levels) = addresses(&a);
        a.vals_mut()[0] = -1.0;
        // Shared: copied first, so the clone keeps its bits.
        assert_eq!(b.vals(), fig7_matrix().vals());
        assert_eq!(a.vals()[0], -1.0);
        assert_ne!(addresses(&a).0, vals);
        assert_eq!(addresses(&a).1, levels, "the levels stay shared");
        // Unique: written where it stands.
        let unique = addresses(&a).0;
        a.vals_mut()[1] = -2.0;
        assert_eq!(addresses(&a).0, unique);
        assert_eq!(b.vals()[1], 2.0);
    }

    #[test]
    fn into_vals_moves_a_unique_buffer_and_copies_a_shared_one() {
        let a = fig7_matrix();
        let at = a.vals().as_ptr();
        let held = a.clone();
        let copied = a.into_vals();
        assert_ne!(copied.as_ptr(), at);
        assert_eq!(copied, held.vals());
        let moved = held.into_vals();
        assert_eq!(moved.as_ptr(), at, "the last owner's own allocation");
    }

    #[test]
    fn with_vals_shares_the_pattern_and_its_memo() {
        let a = fig7_matrix();
        let hash = a.pattern_hash();
        let b = a.with_vals(vec![0.5; 8]);
        assert_eq!(b.pattern_memo(), Some(hash));
        assert_eq!(addresses(&a).1, addresses(&b).1);
        assert_eq!(b.vals(), [0.5; 8]);
        assert_eq!(a.vals(), fig7_matrix().vals());
    }

    #[test]
    #[should_panic(expected = "vals length")]
    fn with_vals_rejects_a_wrong_length() {
        fig7_matrix().with_vals(vec![1.0; 7]);
    }

    #[test]
    fn bytes_accounting() {
        let t = fig7_matrix();
        // vals 8*8 + pos 4*16 + crd 8*8 = 64 + 64 + 64
        assert_eq!(t.bytes(), 192);
    }
}
