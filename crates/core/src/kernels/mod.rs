//! Leaf kernels: the per-processor computations the compiler binds.
//!
//! In the paper, TACO's code generation emits fused imperative loops for the
//! innermost (single-node) computation of *the* statement. This
//! reproduction stands six hand-bound leaves in for that generator — the
//! evaluation kernels of Section VI-A — and [`recognize`] is the single
//! gate in front of them: a statement is one of the six shapes with its
//! driver stored in a layout [`specialized::lookup`] blesses for that
//! shape, or it is refused with a reason and never compiles. Every plan
//! runs a blessed kernel; the generic walker ([`walk_partitioned_span`],
//! `matrix::*_color`, `tensor3::*_color`) is their bit-identity oracle and
//! the benchmark's baseline, never a dispatch path. A leaf operates only on
//! the sub-tensor its color owns, by clamping coordinate-tree iteration to
//! the color's partition.

pub mod matrix;
pub mod specialized;
pub mod split;
pub mod tensor3;

use spdistal_ir::{Assignment, IndexVar, Term};
use spdistal_runtime::IntervalSet;
use spdistal_sparse::{Level, LevelFormat, SpTensor};

pub use split::{color_spans, split_level, KernelSpan};

use crate::level_funcs::{LevelClamps, TensorPartition};

/// The leaf computations (the paper's evaluation kernels, Section VI-A).
#[derive(Clone, Debug, PartialEq)]
pub enum LeafKernel {
    /// `a(i) = B(i,j) · c(j)`
    SpMv,
    /// `A(i,j) = B(i,k) · C(k,j)`
    SpMm { jdim: usize },
    /// `A(i,j) = B(i,j) + C(i,j) + D(i,j)`
    SpAdd3,
    /// `A(i,j) = B(i,j) · C(i,k) · D(k,j)`
    Sddmm { kdim: usize },
    /// `A(i,j) = B(i,j,k) · c(k)`
    SpTtv,
    /// `A(i,l) = B(i,j,k) · C(j,l) · D(k,l)`
    SpMttkrp { ldim: usize },
}

/// What [`recognize`]'s `lookup` reports per tensor:
/// `(stored level kinds, dims)`.
pub type TensorInfo = (Vec<LevelFormat>, Vec<usize>);

/// The statements that compile, as a refusal lists them.
pub(crate) const SHAPES: &str = "a(i) = B(i,j) * c(j), A(i,j) = B(i,k) * C(k,j), \
     A(i,j) = B(i,j) * C(i,k) * D(k,j), A(i,j) = B(i,j,k) * c(k), \
     A(i,l) = B(i,j,k) * C(j,l) * D(k,l) with B stored in a layout blessed for the kernel \
     and the other operands dense, or \
     A(i,j) = B(i,j) + C(i,j) + D(i,j) with B, C and D stored {Dense,Compressed}";

/// The index pattern of each shape: the left-hand side, then every operand
/// in order, with index variables numbered by first appearance (so a
/// repeated variable, `B(i,i)`, matches nothing). Widths are filled in from
/// the operands.
const PATTERNS: [(LeafKernel, &[&[usize]]); 6] = [
    (LeafKernel::SpMv, &[&[0], &[0, 1], &[1]]),
    (LeafKernel::SpMm { jdim: 0 }, &[&[0, 1], &[0, 2], &[2, 1]]),
    (LeafKernel::SpAdd3, &[&[0, 1], &[0, 1], &[0, 1], &[0, 1]]),
    (
        LeafKernel::Sddmm { kdim: 0 },
        &[&[0, 1], &[0, 1], &[0, 2], &[2, 1]],
    ),
    (LeafKernel::SpTtv, &[&[0, 1], &[0, 1, 2], &[2]]),
    (
        LeafKernel::SpMttkrp { ldim: 0 },
        &[&[0, 1], &[0, 2, 3], &[2, 1], &[3, 1]],
    ),
];

/// The leaf that computes exactly `stmt` over its operands' *stored*
/// layouts, or the reason there is none. `lookup(name)` returns a tensor's
/// `(stored level kinds, dims)`. Nothing stands behind a refusal:
/// [`crate::codegen::compile`] turns it into a typed error before a plan
/// exists.
pub fn recognize(
    stmt: &Assignment,
    lookup: &dyn Fn(&str) -> Option<TensorInfo>,
) -> Result<LeafKernel, String> {
    let sop = stmt.rhs.sum_of_products();
    // A leaf multiplies stored values and nothing else: a constant it
    // cannot apply must not be dropped.
    let mut accesses = vec![&stmt.lhs];
    for factor in sop.iter().flatten() {
        match factor {
            Term::Access(a) => accesses.push(a),
            Term::Const(c) => return Err(format!("constant factor {c} in a product term")),
        }
    }

    let mut vars: Vec<IndexVar> = Vec::new();
    let mut pattern: Vec<Vec<usize>> = Vec::with_capacity(accesses.len());
    for a in &accesses {
        let mut numbered = Vec::with_capacity(a.indices.len());
        for v in &a.indices {
            numbered.push(vars.iter().position(|seen| seen == v).unwrap_or_else(|| {
                vars.push(*v);
                vars.len() - 1
            }));
        }
        pattern.push(numbered);
    }
    let shape = PATTERNS.iter().find(|(kernel, shape)| {
        let terms = if *kernel == LeafKernel::SpAdd3 { 3 } else { 1 };
        sop.len() == terms && pattern.iter().map(Vec::as_slice).eq(shape.iter().copied())
    });
    let Some((kernel, _)) = shape else {
        return Err("its terms and index pattern match none of the shapes".to_string());
    };

    // Every access names a declared tensor of the accessed order, and an
    // index variable has one extent wherever it appears: a leaf indexes one
    // operand with coordinates it read from another.
    let mut extents = vec![None; vars.len()];
    let mut width = 0;
    for (k, (a, numbered)) in accesses.iter().zip(&pattern).enumerate() {
        let (levels, dims) =
            lookup(&a.tensor).ok_or_else(|| format!("'{}' is not a declared tensor", a.tensor))?;
        if dims.len() != a.indices.len() {
            return Err(format!("{a} accesses a tensor of order {}", dims.len()));
        }
        for (&v, &extent) in numbered.iter().zip(&dims) {
            let first = *extents[v].get_or_insert(extent);
            if first != extent {
                return Err(format!(
                    "index variable {} has extent {first} and, in {a}, {extent}",
                    vars[v]
                ));
            }
        }
        // The stored layout the leaf reads: the driver — and each of
        // SpAdd3's three inputs, whose level-1 `pos` it indexes by row —
        // in a layout blessed for the kernel, every other operand as one
        // flat row-major `vals` slice.
        if k == 0 {
            continue;
        }
        let stored = specialized::kinds_signature(&levels);
        if k == 1 || *kernel == LeafKernel::SpAdd3 {
            if specialized::lookup(kernel, &stored).is_none() {
                return Err(specialized::refusal(kernel, &a.tensor, &stored));
            }
        } else if levels.iter().any(|l| *l != LevelFormat::Dense) {
            return Err(format!(
                "operand '{}' must be dense at every level; it is stored {stored}",
                a.tensor
            ));
        }
        if k == 2 {
            width = dims[dims.len() - 1];
        }
    }
    Ok(match kernel {
        LeafKernel::SpMm { .. } => LeafKernel::SpMm { jdim: width },
        LeafKernel::Sddmm { .. } => LeafKernel::Sddmm { kdim: width },
        LeafKernel::SpMttkrp { .. } => LeafKernel::SpMttkrp { ldim: width },
        exact => exact.clone(),
    })
}

/// The shared output view the leaf kernels write through.
///
/// Point tasks of one launch may hold views over the *same* output buffer
/// concurrently (disjoint output partitions write in place). Routing those
/// writes through raw pointers — instead of handing each task a
/// `&mut [f64]` over the whole buffer — keeps the aliasing model honest:
/// no two `&mut` views of one allocation are ever live at once, so the
/// pattern is clean under Miri's aliasing rules, not merely race-free.
///
/// Disjointness is still the caller's contract, exactly as it is for the
/// dependence graph: [`OutVals::new`] takes an exclusive borrow (sound for
/// any single-threaded use), and the `Sync` impl extends that to shared
/// use under plan execution's guarantee that tasks with overlapping,
/// non-commuting output requirements are serialized by the task graph —
/// concurrent calls never touch the same element.
pub struct OutVals<'a> {
    ptr: *mut f64,
    len: usize,
    _life: std::marker::PhantomData<&'a mut [f64]>,
}

// SAFETY (`Send`): `OutVals` is a raw view over `f64`s owned elsewhere;
// `f64` is `Send`, and moving the view to another thread moves only the
// pointer + length — validity for `'a` is pinned by the `PhantomData`
// borrow, so the referent cannot be freed or reallocated while any view
// (on any thread) is live. Under AddressSanitizer:
// `tests/parallel_identity.rs::parallel_is_bit_identical_to_serial_on_every_kernel`.
unsafe impl Send for OutVals<'_> {}
// SAFETY (`Sync`): sharing `&OutVals` across threads shares write access
// to the buffer, which is sound only under the aliasing invariant stated
// in the type docs: (1) while any view is live, no `&`/`&mut [f64]`
// reference to the viewed elements exists (all access goes through raw
// pointers), and (2) two tasks holding views over the same allocation
// never access the same element concurrently — plan execution's task
// graph serializes overlapping, non-commuting output requirements.
// Callers constructing views via `from_raw` inherit both obligations.
// Under AddressSanitizer:
// `tests/parallel_identity.rs::parallel_is_bit_identical_to_serial_on_every_kernel`.
unsafe impl Sync for OutVals<'_> {}

impl<'a> OutVals<'a> {
    /// View an exclusively borrowed buffer.
    pub fn new(buf: &'a mut [f64]) -> Self {
        OutVals {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _life: std::marker::PhantomData,
        }
    }

    /// View `len` elements starting at `ptr`.
    ///
    /// # Safety
    /// `ptr..ptr+len` must stay valid for writes for `'a`, and no `&`/
    /// `&mut` reference to those elements may be used while this view is
    /// live. Concurrent holders must never access the same element.
    pub unsafe fn from_raw(ptr: *mut f64, len: usize) -> Self {
        OutVals {
            ptr,
            len,
            _life: std::marker::PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `out[i] += v`.
    #[inline]
    pub fn add(&self, i: usize, v: f64) {
        assert!(
            i < self.len,
            "OutVals::add index {i} out of bounds ({})",
            self.len
        );
        // SAFETY: bounds checked; element-disjointness per the type docs.
        // Under AddressSanitizer:
        // `tests/specialized_identity.rs::spmv_specialized_matches_walker_all_formats`.
        unsafe { *self.ptr.add(i) += v }
    }

    /// `out[i] = v`.
    #[inline]
    pub fn set(&self, i: usize, v: f64) {
        assert!(
            i < self.len,
            "OutVals::set index {i} out of bounds ({})",
            self.len
        );
        // SAFETY: bounds checked; element-disjointness per the type docs.
        // Under AddressSanitizer:
        // `tests/specialized_identity.rs::sddmm_specialized_matches_walker_all_formats`.
        unsafe { *self.ptr.add(i) = v }
    }

    /// `out[start + j] += v * src[j]` for every `j` — the dense row update
    /// of SpMM. One bounds check for the whole row keeps the inner loop as
    /// cheap as the `&mut`-slice iteration it replaced.
    #[inline]
    pub fn add_scaled(&self, start: usize, v: f64, src: &[f64]) {
        let end = start
            .checked_add(src.len())
            .expect("OutVals::add_scaled range overflow");
        assert!(
            end <= self.len,
            "OutVals::add_scaled range {start}..{end} out of bounds ({})",
            self.len
        );
        for (j, s) in src.iter().enumerate() {
            // SAFETY: start + j < end <= len (checked above). Under
            // AddressSanitizer, through the walker:
            // `tests/specialized_identity.rs::spmm_specialized_matches_walker_all_formats`.
            unsafe { *self.ptr.add(start + j) += v * s }
        }
    }

    /// Exclusive view of `out[start..start + len]`, for kernels that make
    /// many updates to one dense output row (SpMM, SpMTTKRP): one bounds
    /// check and one noalias slice for the whole row instead of a checked
    /// raw-pointer write per update.
    ///
    /// # Safety
    ///
    /// The caller must be the range's only accessor for the returned
    /// slice's lifetime. Under plan execution this is the type's own
    /// contract: tasks whose output requirements overlap are serialized
    /// by the dependence graph, and concurrent tasks touch disjoint
    /// elements.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, start: usize, len: usize) -> &mut [f64] {
        let end = start
            .checked_add(len)
            .expect("OutVals::row_mut range overflow");
        assert!(
            end <= self.len,
            "OutVals::row_mut range {start}..{end} out of bounds ({})",
            self.len
        );
        // SAFETY: bounds checked; exclusivity is the caller's contract.
        // Under AddressSanitizer, through the row fold:
        // `tests/specialized_identity.rs::row_loops_match_walker_at_lane_widths`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }

    /// `out[start + j] += v * a[j] * b[j]` for every `j` — the factor-row
    /// update of SpMTTKRP. Bounds checked once per row.
    #[inline]
    pub fn add_scaled_product(&self, start: usize, v: f64, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "OutVals::add_scaled_product row widths");
        let end = start
            .checked_add(a.len())
            .expect("OutVals::add_scaled_product range overflow");
        assert!(
            end <= self.len,
            "OutVals::add_scaled_product range {start}..{end} out of bounds ({})",
            self.len
        );
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            // SAFETY: start + j < end <= len (checked above). Under
            // AddressSanitizer, through the walker:
            // `tests/specialized_identity.rs::spmttkrp_specialized_matches_walker_all_formats`.
            unsafe { *self.ptr.add(start + j) += v * x * y }
        }
    }
}

/// The visitor callback of [`walk_partitioned_span`]:
/// `f(coords, level_entries, value)`.
pub type EntryVisitor<'a> = dyn FnMut(&[i64], &[usize], f64) + 'a;

/// Walk the stored entries of `t` owned by `color` under `part` — within
/// one [`KernelSpan`] when given — calling `f(coords, level_entries,
/// value)` for each: the generic walker behind `matrix::*_color` and
/// `tensor3::*_color`, the oracle of the blessed kernels. Iteration at
/// every level is clamped to the color's entry partition, so aliased
/// partitions (e.g. boundary rows of a non-zero split) visit exactly the
/// positions the color owns at the leaf level; a span's level is clamped
/// to the span's subset as well. Walking every span of a color (chunks of
/// the color's subset at one level) visits exactly the color's entries,
/// each exactly once, because every leaf entry descends from exactly one
/// split-level entry.
pub fn walk_partitioned_span(
    t: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    f: &mut EntryVisitor,
) {
    let mut coords = vec![0i64; t.order()];
    let mut entries = vec![0usize; t.order()];
    // Per-level clamps: the color's subsets, with the span's subset at the
    // span's level — the same seam the specialized kernels resolve their
    // bounds through.
    let clamps = LevelClamps::new(part, color, span);
    let clamp_refs: Vec<&IntervalSet> = (0..t.order()).map(|l| clamps.level(l)).collect();
    walk_rec(t, &clamp_refs, 0, 0, &mut coords, &mut entries, f);
}

#[allow(clippy::too_many_arguments)]
fn walk_rec(
    t: &SpTensor,
    clamps: &[&IntervalSet],
    level: usize,
    parent_entry: usize,
    coords: &mut Vec<i64>,
    entries: &mut Vec<usize>,
    f: &mut EntryVisitor,
) {
    if level == t.order() {
        f(coords, entries, t.vals()[parent_entry]);
        return;
    }
    let subset = clamps[level];
    match t.level(level) {
        Level::Dense { size } => {
            let s = *size as i64;
            let range = spdistal_runtime::Rect1::new(
                parent_entry as i64 * s,
                parent_entry as i64 * s + s - 1,
            );
            let clamped: Vec<_> = subset.intersect_rect(range).collect();
            for r in clamped {
                for e in r.lo..=r.hi {
                    coords[level] = e - parent_entry as i64 * s;
                    entries[level] = e as usize;
                    walk_rec(t, clamps, level + 1, e as usize, coords, entries, f);
                }
            }
        }
        Level::Compressed { pos, crd } => {
            let range = pos[parent_entry];
            if range.is_empty() {
                return;
            }
            let clamped: Vec<_> = subset.intersect_rect(range).collect();
            for r in clamped {
                for q in r.lo..=r.hi {
                    coords[level] = crd[q as usize];
                    entries[level] = q as usize;
                    walk_rec(t, clamps, level + 1, q as usize, coords, entries, f);
                }
            }
        }
        Level::Singleton { crd } => {
            if subset.contains(parent_entry as i64) {
                coords[level] = crd[parent_entry];
                entries[level] = parent_entry;
                walk_rec(t, clamps, level + 1, parent_entry, coords, entries, f);
            }
        }
    }
}

/// True iff the tensor has any compressed level (the "bolded" tensors of
/// the paper's kernel list).
pub fn is_sparse(t: &SpTensor) -> bool {
    t.formats().contains(&LevelFormat::Compressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level_funcs::{nonzero_partition, partition_tensor, replicated_partition};
    use spdistal_ir::{Access, Expr, VarCtx};
    use spdistal_sparse::generate;

    use LevelFormat::{Compressed as C, Dense as D, Singleton as S};

    /// A tensor table: `(name, stored level kinds, dims)` per entry.
    type Table = [(&'static str, &'static [LevelFormat], &'static [usize])];

    fn recognize_in(s: &Assignment, table: &Table) -> Result<LeafKernel, String> {
        recognize(s, &|name: &str| {
            let (_, levels, dims) = table.iter().find(|(n, ..)| *n == name)?;
            Some((levels.to_vec(), dims.to_vec()))
        })
    }

    const TABLE: &Table = &[
        ("a", &[D], &[10]),
        ("A", &[D, C], &[10, 12]),
        ("B2", &[D, C], &[10, 12]),
        ("B3", &[D, C, C], &[10, 12, 14]),
        ("C2", &[D, C], &[10, 12]),
        ("D2", &[D, C], &[10, 12]),
        ("Dcoo", &[C, S], &[10, 12]),
        ("Ddcsr", &[C, C], &[10, 12]),
        ("c", &[D], &[12]),
        ("cs", &[C], &[12]),
        ("ck", &[D], &[14]),
        ("Cd", &[D, D], &[12, 8]),
        ("Ad", &[D, D], &[10, 8]),
        ("Ck", &[D, D], &[10, 6]),
        ("Dk", &[D, D], &[6, 12]),
        ("Cl", &[D, D], &[12, 4]),
        ("Dl", &[D, D], &[14, 4]),
        ("Al", &[D, D], &[10, 4]),
        ("Adense", &[D, D], &[10, 12]),
    ];

    #[test]
    fn recognize_all_six() {
        let mut ctx = VarCtx::new();
        let [i, j, k, l] = ctx.fresh_n(["i", "j", "k", "l"]);
        let ok = |lhs: Access, rhs: Expr| recognize_in(&Assignment::new(lhs, rhs), TABLE);

        let spmv = Expr::access("B2", &[i, j]) * Expr::access("c", &[j]);
        assert_eq!(ok(Access::new("a", &[i]), spmv), Ok(LeafKernel::SpMv));
        let spmm = Expr::access("B2", &[i, k]) * Expr::access("Cd", &[k, j]);
        assert_eq!(
            ok(Access::new("Ad", &[i, j]), spmm),
            Ok(LeafKernel::SpMm { jdim: 8 })
        );
        let spadd3 =
            Expr::access("B2", &[i, j]) + Expr::access("C2", &[i, j]) + Expr::access("D2", &[i, j]);
        assert_eq!(
            ok(Access::new("A", &[i, j]), spadd3),
            Ok(LeafKernel::SpAdd3)
        );
        let sddmm =
            Expr::access("B2", &[i, j]) * Expr::access("Ck", &[i, k]) * Expr::access("Dk", &[k, j]);
        assert_eq!(
            ok(Access::new("A", &[i, j]), sddmm),
            Ok(LeafKernel::Sddmm { kdim: 6 })
        );
        let spttv = Expr::access("B3", &[i, j, k]) * Expr::access("ck", &[k]);
        assert_eq!(ok(Access::new("A", &[i, j]), spttv), Ok(LeafKernel::SpTtv));
        let mttkrp = Expr::access("B3", &[i, j, k])
            * Expr::access("Cl", &[j, l])
            * Expr::access("Dl", &[k, l]);
        assert_eq!(
            ok(Access::new("Al", &[i, l]), mttkrp),
            Ok(LeafKernel::SpMttkrp { ldim: 4 })
        );
    }

    /// Every refusal of [`recognize`], each with the word its reason must
    /// carry.
    #[test]
    fn recognize_refuses_what_no_leaf_computes() {
        let mut ctx = VarCtx::new();
        let [i, j] = ctx.fresh_n(["i", "j"]);
        let (a, big_a) = (Access::new("a", &[i]), Access::new("A", &[i, j]));
        let b = |t: &str| Expr::access(t, &[i, j]);
        let c = |t: &str| Expr::access(t, &[j]);
        let cases: Vec<(Access, Expr, &str)> =
            vec![
            // A constant factor, in a product and inside one summand.
            (a.clone(), Expr::Const(2.0) * b("B2") * c("c"), "constant factor 2"),
            (
                big_a.clone(),
                b("B2") + Expr::Const(0.5) * b("C2") + b("D2"),
                "constant factor 0.5",
            ),
            // Shapes outside the six: a copy, a two-term sum, a repeated
            // index variable (`B(i,i)` is a diagonal, not a row).
            (a.clone(), Expr::access("c", &[i]), "none of the shapes"),
            (big_a.clone(), b("B2") + b("C2"), "none of the shapes"),
            (
                a.clone(),
                Expr::access("B2", &[i, i]) * Expr::access("c", &[i]),
                "none of the shapes",
            ),
            (a.clone(), b("Z") * c("c"), "'Z' is not a declared tensor"),
            (a.clone(), b("B3") * c("c"), "order 3"),
            (a.clone(), b("B2") * c("ck"), "extent 12 and, in ck(iv1), 14"),
            // Operand layouts the bound leaf does not read.
            (
                a.clone(),
                b("Adense") * c("c"),
                "leaf SpMv: operand 'Adense' must be stored {Dense,Compressed} or \
                 {Compressed,Compressed} or {Compressed,Singleton}; it is stored {Dense,Dense}",
            ),
            (a.clone(), b("B2") * c("cs"), "'cs' must be dense"),
            (
                big_a.clone(),
                b("B2") + b("C2") + b("Dcoo"),
                "'Dcoo' must be stored {Dense,Compressed}; it is stored {Compressed,Singleton}",
            ),
            (
                big_a.clone(),
                b("B2") + b("Ddcsr") + b("D2"),
                "'Ddcsr' must be stored {Dense,Compressed}; it is stored {Compressed,Compressed}",
            ),
        ];
        for (lhs, rhs, word) in cases {
            let stmt = Assignment::new(lhs, rhs);
            let reason = recognize_in(&stmt, TABLE).expect_err(&stmt.to_string());
            assert!(reason.contains(word), "{stmt}: {reason}");
        }
    }

    #[test]
    fn walk_partitioned_covers_all_once_when_disjoint() {
        let t = generate::uniform(32, 32, 300, 5);
        let nnz = t.nnz();
        let part = partition_tensor(&t, 1, nonzero_partition(&t, 1, 4));
        let mut seen = vec![0u32; t.num_stored()];
        for c in 0..4 {
            walk_partitioned_span(&t, &part, c, None, &mut |_, entries, _| {
                seen[entries[1]] += 1;
            });
        }
        assert_eq!(seen.len(), nnz);
        assert!(
            seen.iter().all(|&s| s == 1),
            "each nnz visited exactly once"
        );
    }

    #[test]
    fn walk_replicated_visits_everything_per_color() {
        let t = generate::tensor3_uniform([8, 8, 8], 100, 6);
        let part = replicated_partition(&t, 2);
        let mut count = 0;
        walk_partitioned_span(&t, &part, 1, None, &mut |_, _, _| count += 1);
        assert_eq!(count, t.nnz());
    }

    #[test]
    fn walk_coords_match_for_each() {
        let t = generate::tensor3_uniform([6, 7, 8], 60, 7);
        let part = replicated_partition(&t, 1);
        let mut from_walk = Vec::new();
        walk_partitioned_span(&t, &part, 0, None, &mut |c, _, v| {
            from_walk.push((c.to_vec(), v))
        });
        assert_eq!(from_walk, t.to_coo());
    }
}
