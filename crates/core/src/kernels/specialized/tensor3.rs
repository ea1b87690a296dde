//! Order-3 leaf loops: SpMTTKRP and SpTTV, each as one row-keyed source
//! (generic over the driver's [`MidLevel`]: CSF
//! `{Dense,Compressed,Compressed}`, doubly-compressed CSF
//! `{Compressed,Compressed,Compressed}` and the patents layout
//! `{Dense,Dense,Compressed}`) plus one COO
//! `{Compressed,Singleton,Singleton}` source.
//!
//! `A(i,l) += B(i,j,k) * C(j,l) * D(k,l)` with dense row-major factors of
//! width `ldim`, SpMM's row treatment one level down ([`SpMttkrpRows`]):
//! output row `A(i,:)` is borrowed once per row (COO: once per run of
//! equal `i`) through [`OutVals::row_mut`], each fiber's `C(j,:)` row is
//! sliced once, and a fiber's stored entries fold four per step with
//! `out[l]` in a register. Every element still sees the walker's exact
//! sequence `out += (v·C[j,l])·D[k,l]`, entry by entry in position order;
//! op accounting is `2 * ldim` per stored entry, as in
//! [`crate::kernels::tensor3::spmttkrp_color`]. The row-keyed body is
//! compiled a second time under `#[target_feature(enable = "avx")]` and
//! picked at run time; widening keeps the bits because the update is
//! element-wise — no cross-lane reduction, and no FMA (`fma` stays
//! disabled), so the lanes only change which elements share an
//! instruction.
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

use super::matrix::{dot_row, CHUNK};
use super::{
    compressed, cut, for_coo_runs, for_rows, pieces, singleton, Avx, DenseTop, Owner, TopLevel,
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

/// The per-task operands of the row-keyed SpMTTKRP update, bundled so the
/// baseline and AVX-widened row loops share one body (as SpMM's rows do).
struct SpMttkrpRows<'a> {
    /// The level-1 and level-2 clamps.
    l1: &'a IntervalSet,
    l2: &'a IntervalSet,
    crd1: &'a [i64],
    pos2: &'a [Rect1],
    crd2: &'a [i64],
    vals: &'a [f64],
    c: &'a [f64],
    d: &'a [f64],
    ldim: usize,
    out: &'a OutVals<'a>,
}

impl SpMttkrpRows<'_> {
    /// One output row: apply row `i`'s clamped fibers (all of `fibers`
    /// when the walker found them `owned`, else their [`cut`]) to output
    /// row `i`, borrowed once through [`OutVals::row_mut`] — one bounds
    /// check and a noalias row the compiler keeps vectorized, instead of a
    /// checked raw-pointer update per stored entry. `fiber_owner` decides,
    /// fiber by fiber, whether the level-2 clamp holds a fiber whole.
    /// Returns the entry count.
    ///
    /// `#[inline(always)]`, and no closure on the way down to
    /// [`SpMttkrpRows::fold`], so [`SpMttkrpRows::row_wide`] recompiles
    /// this exact body under its widened target features.
    #[inline(always)]
    fn row<M: MidLevel>(
        &self,
        fiber_owner: &mut Owner,
        i: usize,
        fibers: Rect1,
        owned: bool,
    ) -> u64 {
        // SAFETY: the dependence graph serializes tasks whose output rows
        // overlap and concurrent tasks touch disjoint elements (the OutVals
        // contract; spans split at level 0, so one color's spans own
        // disjoint rows): this task is the row's only accessor.
        let out_row = unsafe { self.out.row_mut(i * self.ldim, self.ldim) };
        if owned {
            return self.fibers::<M>(out_row, fiber_owner, fibers, fibers.lo);
        }
        let mut n = 0u64;
        for fr in cut(fibers, self.l1) {
            n += self.fibers::<M>(out_row, fiber_owner, fr, fibers.lo);
        }
        n
    }

    /// Apply fibers `fr` of a row whose fibers start at `first`: each
    /// fiber's `C` row once, then its clamped entries through
    /// [`SpMttkrpRows::fold`] — the whole fiber when the level-2 clamp
    /// holds it, else its [`cut`].
    #[inline(always)]
    fn fibers<M: MidLevel>(
        &self,
        out_row: &mut [f64],
        fiber_owner: &mut Owner,
        fr: Rect1,
        first: i64,
    ) -> u64 {
        let ldim = self.ldim;
        let (lo, hi) = (fr.lo as usize, fr.hi as usize);
        let mut n = 0u64;
        for (q1, &fiber) in (lo..).zip(&self.pos2[lo..=hi]) {
            let j = M::coord(self.crd1, first, q1);
            let crow = &self.c[j * ldim..(j + 1) * ldim];
            if fiber_owner.owns(fiber) {
                n += self.fold(out_row, crow, fiber);
            } else {
                for lr in cut(fiber, self.l2) {
                    n += self.fold(out_row, crow, lr);
                }
            }
        }
        n
    }

    /// Apply stored positions `lr` of one fiber (`C` row `crow`) to
    /// `out_row`, four entries per step: `out[l] += a; out[l] += b; ...`
    /// is the element-wise fold `(((out[l] + a) + b) + c) + d`, so keeping
    /// `out[l]` in a register across the chunk preserves the walker's
    /// per-element sequence — `out += (v·C[j,l])·D[k,l]` in position
    /// order — while quartering the output row's load/store traffic.
    /// Returns the entry count.
    #[inline(always)]
    fn fold(&self, out_row: &mut [f64], crow: &[f64], lr: Rect1) -> u64 {
        let (d, ldim) = (self.d, self.ldim);
        let (lo, hi) = (lr.lo as usize, lr.hi as usize);
        let vs = &self.vals[lo..=hi];
        let ks = &self.crd2[lo..=hi];
        let (out_row, crow) = (&mut out_row[..ldim], &crow[..ldim]);
        let mut idx = 0;
        while idx + CHUNK <= vs.len() {
            let (v0, v1, v2, v3) = (vs[idx], vs[idx + 1], vs[idx + 2], vs[idx + 3]);
            let k0 = ks[idx] as usize * ldim;
            let k1 = ks[idx + 1] as usize * ldim;
            let k2 = ks[idx + 2] as usize * ldim;
            let k3 = ks[idx + 3] as usize * ldim;
            let d0 = &d[k0..k0 + ldim];
            let d1 = &d[k1..k1 + ldim];
            let d2 = &d[k2..k2 + ldim];
            let d3 = &d[k3..k3 + ldim];
            for l in 0..ldim {
                let mut t = out_row[l];
                t += v0 * crow[l] * d0[l];
                t += v1 * crow[l] * d1[l];
                t += v2 * crow[l] * d2[l];
                t += v3 * crow[l] * d3[l];
                out_row[l] = t;
            }
            idx += CHUNK;
        }
        for (&v, &k) in vs[idx..].iter().zip(&ks[idx..]) {
            let k = k as usize;
            add_entry(out_row, v, crow, &d[k * ldim..(k + 1) * ldim]);
        }
        vs.len() as u64
    }

    /// [`SpMttkrpRows::row`] recompiled with 256-bit AVX enabled (the
    /// baseline x86-64 target is SSE2, two `f64` lanes). The update is
    /// purely element-wise — each `out[l] += (v·C[j,l])·D[k,l]` is two
    /// multiplies then an add, with no cross-lane reduction and no FMA
    /// contraction (`fma` stays disabled) — so widening the lanes changes
    /// which elements share an instruction, never any element's op
    /// sequence: results stay bit-identical to the scalar walker.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn row_wide<M: MidLevel>(
        &self,
        fiber_owner: &mut Owner,
        i: usize,
        fibers: Rect1,
        owned: bool,
    ) -> u64 {
        self.row::<M>(fiber_owner, i, fibers, owned)
    }
}

/// One stored entry's factor-row update, `out[l] += (v·C[j,l])·D[k,l]`
/// for every `l` — the walker's per-entry update on a borrowed row.
#[inline(always)]
fn add_entry(out_row: &mut [f64], v: f64, crow: &[f64], drow: &[f64]) {
    for ((a, &x), &y) in out_row.iter_mut().zip(crow).zip(drow) {
        *a += v * x * y;
    }
}

/// SpMTTKRP over a row-keyed driver: one output-row borrow per row, the
/// 4-entry fold per fiber (see [`SpMttkrpRows`]), through the AVX-widened
/// loop when the CPU has it.
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
    spmttkrp_with::<M>(b, part, color, span, c, d, ldim, out, Avx::detect())
}

/// [`spmttkrp`] through [`SpMttkrpRows::row_wide`] when handed an
/// [`Avx`], else through the baseline [`SpMttkrpRows::row`].
#[allow(clippy::too_many_arguments)]
pub(super) fn spmttkrp_with<M: MidLevel>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    d: &[f64],
    ldim: usize,
    out: &OutVals,
    avx: Option<Avx>,
) -> f64 {
    let (pos2, crd2) = compressed(b, 2);
    let clamps = LevelClamps::new(part, color, span);
    let (l1, l2) = (clamps.level(1), clamps.level(2));
    let rows = SpMttkrpRows {
        l1,
        l2,
        crd1: M::open(b),
        pos2,
        crd2,
        vals: b.vals(),
        c,
        d,
        ldim,
        out,
    };
    let mut fiber_owner = Owner::new(l2);
    #[cfg(target_arch = "x86_64")]
    if avx.is_some() {
        // SAFETY: an `Avx` exists only where AVX support was detected.
        let n = M::for_rows(b, clamps.level(0), l1, |i, fibers, owned| unsafe {
            rows.row_wide::<M>(&mut fiber_owner, i, fibers, owned)
        });
        return (2 * ldim as u64 * n) as f64;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx;
    let n = M::for_rows(b, clamps.level(0), l1, |i, fibers, owned| {
        rows.row::<M>(&mut fiber_owner, i, fibers, owned)
    });
    (2 * ldim as u64 * n) as f64
}

/// SpMTTKRP over an order-3 COO driver: stored entries are sorted by `i`,
/// so the output row is borrowed once per run of equal `i` and every entry
/// of the run updates it in position order.
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
    let (crd1, crd2) = (singleton(b, 1), singleton(b, 2));
    let vals = b.vals();
    let n = for_coo_runs(b, part, color, span, |lo, hi| {
        let mut at = lo;
        while at <= hi {
            let i = crd0[at];
            let end = at + crd0[at..=hi].iter().take_while(|&&x| x == i).count();
            // SAFETY: as in `SpMttkrpRows::row`, this task is output row
            // `i`'s only accessor while it runs.
            let out_row = unsafe { out.row_mut(i as usize * ldim, ldim) };
            let coords = crd1[at..end].iter().zip(&crd2[at..end]);
            for (&v, (&j, &k)) in vals[at..end].iter().zip(coords) {
                let (j, k) = (j as usize, k as usize);
                let (crow, drow) = (&c[j * ldim..(j + 1) * ldim], &d[k * ldim..(k + 1) * ldim]);
                add_entry(out_row, v, crow, drow);
            }
            at = end;
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
