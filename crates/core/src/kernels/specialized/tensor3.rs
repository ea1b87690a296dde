//! Order-3 leaf loops: SpMTTKRP and SpTTV, each as one row-keyed source
//! (generic over the driver's [`MidLevel`]: CSF
//! `{Dense,Compressed,Compressed}`, doubly-compressed CSF
//! `{Compressed,Compressed,Compressed}` and the patents layout
//! `{Dense,Dense,Compressed}`) plus one COO
//! `{Compressed,Singleton,Singleton}` source.
//!
//! `A(i,l) += B(i,j,k) * C(j,l) * D(k,l)` with dense row-major factors of
//! width `ldim`, through SpMM's row fold ([`RowFold`]): output row
//! `A(i,:)` is one fold (COO: each run of equal `i`), each fiber one run
//! of it with its `C(j,:)` row sliced once ([`Fiber`]) — a CSF fiber, or
//! a COO run of equal `j`. Every element still sees the walker's exact
//! sequence `out += (v·C[j,l])·D[k,l]`, entry by entry in position order;
//! op accounting is `2 * ldim` per stored entry, as in
//! [`crate::kernels::tensor3::spmttkrp_color`].
//!
//! `A(i,j) += B(i,j,k) * c(k)` into one slot per level-1 fiber: a fiber is
//! SpMV's row one level down, folded by the same [`dot_row`] (a whole
//! fiber in a local accumulator, a partly clamped one per entry, for the
//! reason the `matrix` module docs give); one op per stored entry, as in
//! [`crate::kernels::tensor3::spttv_color`].
//!
//! Ownership is decided once per row run at both levels: the row walker
//! ([`MidLevel::for_rows`]) tells a body whether a row's fiber range lies
//! inside the level-1 clamp, and one [`Owner`] cursor per task, moving
//! forward with the fibers, tells it whether a fiber's position range lies
//! inside the level-2 clamp. An owned range is one straight slice loop;
//! only a cut one goes through [`cut`](super::cut).

use std::marker::PhantomData;

use spdistal_runtime::{IntervalSet, Rect1};
use spdistal_sparse::SpTensor;

use super::matrix::dot_row;
use super::{
    compressed, equal_runs, for_coo_runs, for_rows, pieces, singleton, DenseTop, Owner, RowFold,
    Terms, TopLevel,
};
use crate::kernels::{KernelSpan, OutVals};
use crate::level_funcs::{LevelClamps, TensorPartition};

/// How level 1 of a row-keyed order-3 driver yields row `i`'s fibers and
/// fiber `q1`'s coordinate `j` — the one thing CSF and the patents layout
/// differ in. Zero-sized, like [`TopLevel`].
pub(super) trait MidLevel {
    /// Level 1's stored coordinate array (empty when coordinates are
    /// implicit).
    fn open(b: &SpTensor) -> &[i64];
    /// Hand `row(i, fibers, owned)` the rows of the level-0 clamp `rows` in
    /// ascending order (a row without fibers may be skipped), where `owned`
    /// says `fibers` lies inside the level-1 clamp `l1` (an [`Owner`]
    /// query, once per row); returns the sum of the results.
    fn for_rows(
        b: &SpTensor,
        rows: &IntervalSet,
        l1: &IntervalSet,
        row: impl FnMut(usize, Rect1, bool) -> u64,
    ) -> u64;
    /// The coordinate `j` of fiber `q1` in a row whose fibers start at
    /// `first`, given `open`'s array.
    fn coord(crd1: &[i64], first: i64, q1: usize) -> usize;
}

/// A compressed level 1 under level 0 `T` (CSF, doubly-compressed CSF):
/// row `i`'s fibers are `pos1[i]`, and `j = crd1[q1]`.
pub(super) struct CompressedMid<T>(PhantomData<T>);
/// A dense level 1 of extent `J` under a dense level 0 (the patents
/// layout, a fused dense `(i,j)` dimension): row `i`'s fibers are
/// `i·J ..= i·J+J-1`, and `j = q1 − i·J`.
pub(super) struct DenseMid;

impl<T: TopLevel> MidLevel for CompressedMid<T> {
    #[inline(always)]
    fn open(b: &SpTensor) -> &[i64] {
        compressed(b, 1).1
    }
    #[inline(always)]
    fn for_rows(
        b: &SpTensor,
        rows: &IntervalSet,
        l1: &IntervalSet,
        row: impl FnMut(usize, Rect1, bool) -> u64,
    ) -> u64 {
        for_rows::<T>(b, rows, l1, row)
    }
    #[inline(always)]
    fn coord(crd1: &[i64], _: i64, q1: usize) -> usize {
        crd1[q1] as usize
    }
}

impl MidLevel for DenseMid {
    #[inline(always)]
    fn open(_: &SpTensor) -> &[i64] {
        &[]
    }
    #[inline(always)]
    fn for_rows(
        b: &SpTensor,
        rows: &IntervalSet,
        l1: &IntervalSet,
        mut row: impl FnMut(usize, Rect1, bool) -> u64,
    ) -> u64 {
        let width = b.dims()[1] as i64;
        let mut owner = Owner::new(l1);
        let mut n = 0u64;
        for rr in rows.intersect_rect(DenseTop::open(b).0) {
            for i in rr.lo..=rr.hi {
                let fibers = Rect1::new(i * width, i * width + width - 1);
                n += row(i as usize, fibers, owner.owns(fibers));
            }
        }
        n
    }
    #[inline(always)]
    fn coord(_: &[i64], first: i64, q1: usize) -> usize {
        q1 - first as usize
    }
}

/// SpMTTKRP's terms over one fiber: the entry of value `v` at level-2
/// coordinate `k` adds `(v·C[j,l])·D[k,l]` to `A(i,l)`, with `crow` the
/// fiber's `C(j,:)` row, sliced once per fiber.
#[derive(Clone, Copy)]
struct Fiber<'a> {
    crow: &'a [f64],
    d: &'a [f64],
}

impl<'a> Fiber<'a> {
    #[inline(always)]
    fn new(c: &'a [f64], j: usize, d: &'a [f64], ldim: usize) -> Self {
        Fiber {
            crow: &c[j * ldim..][..ldim],
            d,
        }
    }
}

impl Terms for Fiber<'_> {
    const PREFETCH: bool = false;
    #[inline(always)]
    fn width(&self) -> usize {
        self.crow.len()
    }
    #[inline(always)]
    fn factor(&self) -> &[f64] {
        self.d
    }
    #[inline(always)]
    fn term(&self, v: f64, l: usize, x: f64) -> f64 {
        v * self.crow[l] * x
    }
}

/// SpMTTKRP over a row-keyed driver: output row `i` is one [`RowFold`] of
/// its fibers (one per piece when the walker found the row's fiber range
/// cut by the level-1 clamp), each fiber a run, whole when the task's
/// level-2 [`Owner`] finds it inside the clamp, else cut.
#[allow(clippy::too_many_arguments)]
pub(super) fn spmttkrp<M: MidLevel>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    d: &[f64],
    ldim: usize,
    out: &OutVals,
) -> f64 {
    let (pos2, crd2) = compressed(b, 2);
    let crd1 = M::open(b);
    let clamps = LevelClamps::new(part, color, span);
    let (l1, l2) = (clamps.level(1), clamps.level(2));
    let fold = RowFold::new(b.vals(), crd2);
    let mut fiber_owner = Owner::new(l2);
    let n = M::for_rows(b, clamps.level(0), l1, |i, fibers, owned| {
        pieces(fibers, owned, l1, |fr| {
            let (lo, hi) = (fr.lo as usize, fr.hi as usize);
            let runs = (lo..).zip(&pos2[lo..=hi]).map(|(q1, &fiber)| {
                let terms = Fiber::new(c, M::coord(crd1, fibers.lo, q1), d, ldim);
                (terms, fiber, (!fiber_owner.owns(fiber)).then_some(l2))
            });
            fold.row(out, i, ldim, runs)
        })
    });
    (2 * ldim as u64 * n) as f64
}

/// SpMTTKRP over an order-3 COO driver: each run of equal `i` is one row
/// for the [`RowFold`], and each run of equal `j` inside it one fiber,
/// folded with that `C` row as a CSF fiber is.
#[allow(clippy::too_many_arguments)]
pub(super) fn spmttkrp_coo(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    d: &[f64],
    ldim: usize,
    out: &OutVals,
) -> f64 {
    let (_, crd0) = compressed(b, 0);
    let crd1 = singleton(b, 1);
    let fold = RowFold::new(b.vals(), singleton(b, 2));
    let n = for_coo_runs(b, part, color, span, |lo, hi| {
        for (i, run) in equal_runs(crd0, lo, hi) {
            let fibers = equal_runs(crd1, run.lo as usize, run.hi as usize)
                .map(|(j, r)| (Fiber::new(c, j, d, ldim), r, None));
            fold.row(out, i, ldim, fibers);
        }
    });
    (2 * ldim as u64 * n) as f64
}

/// SpTTV over a row-keyed driver: every clamped fiber of every row is one
/// [`dot_row`] into its level-1 slot, owned or cut as the task's level-2
/// [`Owner`] finds it.
pub(super) fn spttv<M: MidLevel>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    out: &OutVals,
) -> f64 {
    let (pos2, crd2) = compressed(b, 2);
    let vals = b.vals();
    let clamps = LevelClamps::new(part, color, span);
    let (l1, l2) = (clamps.level(1), clamps.level(2));
    let mut fiber_owner = Owner::new(l2);
    M::for_rows(b, clamps.level(0), l1, |_, fibers, owned| {
        pieces(fibers, owned, l1, |fr| {
            let (lo, hi) = (fr.lo as usize, fr.hi as usize);
            let mut n = 0u64;
            for (q1, &fiber) in (lo..).zip(&pos2[lo..=hi]) {
                n += dot_row(q1, fiber, fiber_owner.owns(fiber), l2, crd2, vals, c, out);
            }
            n
        })
    }) as f64
}

/// SpTTV over an order-3 COO driver: a singleton level-1 entry is its
/// stored entry, so every entry updates its own slot.
pub(super) fn spttv_coo(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    out: &OutVals,
) -> f64 {
    let crd2 = singleton(b, 2);
    let vals = b.vals();
    for_coo_runs(b, part, color, span, |lo, hi| {
        for (q, (v, &k)) in (lo..).zip(vals[lo..=hi].iter().zip(&crd2[lo..=hi])) {
            out.add(q, v * c[k as usize]);
        }
    }) as f64
}
