//! Matrix leaf loops: SpMV / SpMM / SDDMM, each as one row-keyed source
//! (generic over the driver's [`TopLevel`]: CSR `{Dense,Compressed}` and
//! DCSR `{Compressed,Compressed}`) plus one COO `{Compressed,Singleton}`
//! source; and SpAdd3, over CSR only.
//!
//! Shape of every kernel here: resolve the task's per-level bounds once
//! through [`LevelClamps`], let [`for_rows`] / [`for_coo_runs`] walk the
//! driver's top level, and handle each row's (or run's) contiguous
//! position ranges with branch-free inner loops over plain slices — no
//! per-row allocation and no per-entry indirect call. Entry visit order,
//! per-element accumulation order, and integer op counts are exactly the
//! generic walker's (the bit-identity contract of the module docs).
//!
//! Row ownership is decided by the walker, once per row run: [`for_rows`]
//! hands each row-keyed body `owned`, and an owned row is one straight
//! slice loop with no clamp search. Only a row the clamp cuts goes through
//! [`cut`], which searches the clamp for that row's pieces.
//!
//! Row-keyed SpMV (and SpTTV, per fiber) folds each *fully owned* row
//! into a local accumulator before one `out[i] +=`. That is bitwise
//! identical to the walker's per-entry adds: when the clamp covers the
//! whole stored row, this task is the slot's only writer (position
//! partitions are disjoint), so `out[i]` is `+0.0` and both paths compute
//! the same left fold — and a fold seeded with `+0.0` can never produce
//! `-0.0`, so the final `+=` through memory cannot flip a sign bit. A
//! *partially* clamped row (a non-zero position split can cut mid-row)
//! may share `out[i]` with another color, where `(P + x1) + x2` and
//! `P + (x1 + x2)` round differently — those rows keep the walker's
//! per-entry read-modify-write order.

use spdistal_runtime::{IntervalSet, Rect1};
use spdistal_sparse::SpTensor;

use super::{
    compressed, cut, for_coo_runs, for_rows, pieces, prefetch_read, singleton, Avx, TopLevel,
};
use crate::kernels::{KernelSpan, OutVals};
use crate::level_funcs::{LevelClamps, TensorPartition};

/// One dot-product row — an SpMV row, or an SpTTV fiber: fold the clamped
/// slice of stored position range `range` into `out[row]`. An `owned` row
/// (the walker found `range` inside the clamp `cols`) folds in a local
/// accumulator with a single store; a cut row keeps the walker's per-entry
/// read-modify-write order (see module docs for why both are bit-identical
/// to the walker). Returns the entry count.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(super) fn dot_row(
    row: usize,
    range: Rect1,
    owned: bool,
    cols: &IntervalSet,
    crd: &[i64],
    vals: &[f64],
    c: &[f64],
    out: &OutVals,
) -> u64 {
    if owned {
        let (lo, hi) = (range.lo as usize, range.hi as usize);
        let vs = &vals[lo..=hi];
        let js = &crd[lo..=hi];
        let mut acc = 0.0;
        for (v, &j) in vs.iter().zip(js) {
            acc += v * c[j as usize];
        }
        out.add(row, acc);
        return vs.len() as u64;
    }
    let mut n = 0u64;
    for cr in cut(range, cols) {
        let (lo, hi) = (cr.lo as usize, cr.hi as usize);
        let vs = &vals[lo..=hi];
        let js = &crd[lo..=hi];
        for (v, &j) in vs.iter().zip(js) {
            out.add(row, v * c[j as usize]);
        }
        n += vs.len() as u64;
    }
    n
}

/// SpMV over a row-keyed driver: `a(i) += B(i,j) * c(j)`.
pub(super) fn spmv<T: TopLevel>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    out: &OutVals,
) -> f64 {
    let (_, crd) = compressed(b, 1);
    let vals = b.vals();
    let clamps = LevelClamps::new(part, color, span);
    let cols = clamps.level(1);
    for_rows::<T>(b, clamps.level(0), cols, |i, range, owned| {
        dot_row(i, range, owned, cols, crd, vals, c, out)
    }) as f64
}

/// SpMV over a COO driver.
pub(super) fn spmv_coo(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    out: &OutVals,
) -> f64 {
    let (_, crd0) = compressed(b, 0);
    let crd1 = singleton(b, 1);
    let vals = b.vals();
    for_coo_runs(b, part, color, span, |lo, hi| {
        for ((v, &i), &j) in vals[lo..=hi].iter().zip(&crd0[lo..=hi]).zip(&crd1[lo..=hi]) {
            out.add(i as usize, v * c[j as usize]);
        }
    }) as f64
}

/// How many stored entries ahead of the current one to prefetch the
/// dense `C` row for (far enough to beat a memory round-trip, near
/// enough to still be resident when the loop arrives).
const PF_DIST: usize = 4;

/// `f64`s per 64-byte cache line, the stride between prefetch hints.
const FLOATS_PER_LINE: usize = 8;

/// Stored entries folded per unrolled step of SpMM's and SpMTTKRP's row
/// loops (see [`SpMmRows::slice`]).
pub(super) const CHUNK: usize = 4;

/// The per-task operands of the row-keyed SpMM update, bundled so the
/// baseline and AVX-widened row loops share one body.
struct SpMmRows<'a> {
    cols: &'a IntervalSet,
    crd: &'a [i64],
    vals: &'a [f64],
    c: &'a [f64],
    jdim: usize,
    out: &'a OutVals<'a>,
}

impl SpMmRows<'_> {
    /// One SpMM row: apply the clamped slice of stored row `range` to
    /// output row `i` (all of it when the walker found the row `owned`, else
    /// its [`cut`]), entry by entry in position order — the walker's exact
    /// update sequence, so bit-identity holds unconditionally. The
    /// row is borrowed once through [`OutVals::row_mut`]: one bounds check
    /// and a noalias `&mut` row the compiler can keep vectorized, instead
    /// of a checked raw-pointer `add_scaled` per entry. Returns the entry
    /// count.
    ///
    /// `#[inline(always)]` so [`SpMmRows::row_wide`] recompiles this exact
    /// body under its widened target features (both arms call
    /// [`SpMmRows::slice`] directly, never through a closure, which would
    /// be compiled without them).
    #[inline(always)]
    fn row(&self, i: usize, range: Rect1, owned: bool) -> u64 {
        // SAFETY: the dependence graph serializes tasks whose output rows
        // overlap and concurrent tasks touch disjoint elements (the OutVals
        // contract), so this task is the row's only accessor.
        let out_row = unsafe { self.out.row_mut(i * self.jdim, self.jdim) };
        if owned {
            return self.slice(out_row, range);
        }
        let mut n = 0u64;
        for cr in cut(range, self.cols) {
            n += self.slice(out_row, cr);
        }
        n
    }

    /// Apply stored positions `cr` of one row to `out_row`. The stored
    /// column indices are effectively random, so each entry's dense `C` row
    /// is a likely cache miss — the loop issues a prefetch `PF_DIST`
    /// entries ahead to overlap those misses with the current row's work.
    /// Returns the entry count.
    #[inline(always)]
    fn slice(&self, out_row: &mut [f64], cr: Rect1) -> u64 {
        let SpMmRows {
            crd, vals, c, jdim, ..
        } = *self;
        let (lo, hi) = (cr.lo as usize, cr.hi as usize);
        let vs = &vals[lo..=hi];
        let ks = &crd[lo..=hi];
        // Four entries per step: `out[j] += a; out[j] += b; ...` is the
        // element-wise fold `(((out[j] + a) + b) + c) + d`, so keeping
        // `out[j]` in a register across the chunk preserves the walker's
        // per-element op order exactly while quartering the output row's
        // load/store traffic.
        let mut idx = 0;
        while idx + CHUNK <= vs.len() {
            if let Some(&knext) = ks.get(idx + PF_DIST) {
                // A dense row spans several cache lines (jdim * 8
                // bytes); hint every line, not just the first.
                let base = knext as usize * jdim;
                let mut off = 0;
                while off < jdim {
                    prefetch_read(c, base + off);
                    off += FLOATS_PER_LINE;
                }
            }
            let (v0, v1, v2, v3) = (vs[idx], vs[idx + 1], vs[idx + 2], vs[idx + 3]);
            let k0 = ks[idx] as usize * jdim;
            let k1 = ks[idx + 1] as usize * jdim;
            let k2 = ks[idx + 2] as usize * jdim;
            let k3 = ks[idx + 3] as usize * jdim;
            let c0 = &c[k0..k0 + jdim];
            let c1 = &c[k1..k1 + jdim];
            let c2 = &c[k2..k2 + jdim];
            let c3 = &c[k3..k3 + jdim];
            for j in 0..jdim {
                let mut t = out_row[j];
                t += v0 * c0[j];
                t += v1 * c1[j];
                t += v2 * c2[j];
                t += v3 * c3[j];
                out_row[j] = t;
            }
            idx += CHUNK;
        }
        for (v, &k) in vs[idx..].iter().zip(&ks[idx..]) {
            let k = k as usize;
            let crow = &c[k * jdim..(k + 1) * jdim];
            for (a, cj) in out_row.iter_mut().zip(crow) {
                *a += v * cj;
            }
        }
        vs.len() as u64
    }

    /// [`SpMmRows::row`] recompiled with 256-bit AVX enabled (the baseline
    /// x86-64 target is SSE2, two `f64` lanes). The row update is purely
    /// element-wise — each `out[j] += v * c[j]` is an independent
    /// mul-then-add with no cross-lane reduction and no FMA contraction
    /// (`fma` stays disabled) — so widening the lanes changes which
    /// elements share an instruction, never any element's op sequence:
    /// results stay bit-identical to the scalar walker.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn row_wide(&self, i: usize, range: Rect1, owned: bool) -> u64 {
        self.row(i, range, owned)
    }
}

/// SpMM over a row-keyed driver: `A(i,j) += B(i,k) * C(k,j)`, dense
/// row-major `C` of width `jdim`. Per-row exclusive output borrow with
/// per-entry updates in the walker's order (see [`SpMmRows::row`]),
/// through the AVX-widened loop when the CPU has it.
pub(super) fn spmm<T: TopLevel>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    jdim: usize,
    out: &OutVals,
) -> f64 {
    spmm_with::<T>(b, part, color, span, c, jdim, out, Avx::detect())
}

/// [`spmm`] through [`SpMmRows::row_wide`] when handed an [`Avx`], else
/// through the baseline [`SpMmRows::row`].
#[allow(clippy::too_many_arguments)]
pub(super) fn spmm_with<T: TopLevel>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    jdim: usize,
    out: &OutVals,
    avx: Option<Avx>,
) -> f64 {
    let clamps = LevelClamps::new(part, color, span);
    let cols = clamps.level(1);
    let rows = SpMmRows {
        cols,
        crd: compressed(b, 1).1,
        vals: b.vals(),
        c,
        jdim,
        out,
    };
    #[cfg(target_arch = "x86_64")]
    if avx.is_some() {
        // SAFETY: an `Avx` exists only where AVX support was detected.
        let n = for_rows::<T>(b, clamps.level(0), cols, |i, range, owned| unsafe {
            rows.row_wide(i, range, owned)
        });
        return (jdim as u64 * n) as f64;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx;
    let n = for_rows::<T>(b, clamps.level(0), cols, |i, range, owned| {
        rows.row(i, range, owned)
    });
    (jdim as u64 * n) as f64
}

/// SpMM over a COO driver.
pub(super) fn spmm_coo(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    jdim: usize,
    out: &OutVals,
) -> f64 {
    let (_, crd0) = compressed(b, 0);
    let crd1 = singleton(b, 1);
    let vals = b.vals();
    let n = for_coo_runs(b, part, color, span, |lo, hi| {
        for ((v, &i), &k) in vals[lo..=hi].iter().zip(&crd0[lo..=hi]).zip(&crd1[lo..=hi]) {
            let k = k as usize;
            out.add_scaled(i as usize * jdim, *v, &c[k * jdim..(k + 1) * jdim]);
        }
    });
    (jdim as u64 * n) as f64
}

/// `C(i,:) · D(:,j)` for SDDMM, accumulated in ascending `k` — the
/// walker's order.
#[inline(always)]
fn dot_col(crow: &[f64], d: &[f64], jdim: usize, j: usize) -> f64 {
    let mut dot = 0.0;
    for (k, ck) in crow.iter().enumerate() {
        dot += ck * d[k * jdim + j];
    }
    dot
}

/// SDDMM over a row-keyed driver: `A(i,j) = B(i,j) * (C(i,:) · D(:,j))`,
/// position-aligned output values.
#[allow(clippy::too_many_arguments)]
pub(super) fn sddmm<T: TopLevel>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    d: &[f64],
    kdim: usize,
    jdim: usize,
    out_vals: &OutVals,
) -> f64 {
    let (_, crd) = compressed(b, 1);
    let vals = b.vals();
    let clamps = LevelClamps::new(part, color, span);
    let cols = clamps.level(1);
    let n = for_rows::<T>(b, clamps.level(0), cols, |i, range, owned| {
        let crow = &c[i * kdim..(i + 1) * kdim];
        pieces(range, owned, cols, |cr| {
            let (lo, hi) = (cr.lo as usize, cr.hi as usize);
            for (q, (v, &j)) in (lo..).zip(vals[lo..=hi].iter().zip(&crd[lo..=hi])) {
                out_vals.set(q, v * dot_col(crow, d, jdim, j as usize));
            }
            cr.len()
        })
    });
    (kdim as u64 * n) as f64
}

/// SDDMM over a COO driver.
#[allow(clippy::too_many_arguments)]
pub(super) fn sddmm_coo(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    d: &[f64],
    kdim: usize,
    jdim: usize,
    out_vals: &OutVals,
) -> f64 {
    let (_, crd0) = compressed(b, 0);
    let crd1 = singleton(b, 1);
    let vals = b.vals();
    let n = for_coo_runs(b, part, color, span, |lo, hi| {
        let coords = crd0[lo..=hi].iter().zip(&crd1[lo..=hi]);
        for (q, (v, (&i, &j))) in (lo..).zip(vals[lo..=hi].iter().zip(coords)) {
            let crow = &c[i as usize * kdim..(i as usize + 1) * kdim];
            out_vals.set(q, v * dot_col(crow, d, jdim, j as usize));
        }
    });
    (kdim as u64 * n) as f64
}

/// SpAdd3 over CSR operands, fused across the three inputs (the paper's
/// point: one pass, no temporaries): every row of the task's level-0
/// clamp — including rows `b` does not store, which `c` or `d` may — is
/// the sorted merge of the three operands' rows, appended to the task's
/// flat buffer as `(row, len)` plus `len` columns and values. The symbolic
/// op count is the entries read, the numeric one the entries written (the
/// two-phase assembly of Section V-B, fused into one merge).
#[allow(clippy::too_many_arguments)]
pub(super) fn spadd3(
    b: &SpTensor,
    c: &SpTensor,
    d: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    rows: &mut Vec<(usize, usize)>,
    cols: &mut Vec<i64>,
    vals: &mut Vec<f64>,
) -> (f64, f64) {
    let operands = [b, c, d].map(|t| {
        let (pos, crd) = compressed(t, 1);
        (pos, crd, t.vals())
    });
    let written = cols.len();
    let mut read = 0u64;
    for rr in LevelClamps::new(part, color, span).level(0).rects() {
        for row in rr.lo as usize..=rr.hi as usize {
            let segs = operands.map(|(pos, crd, vals)| match pos[row] {
                r if r.is_empty() => (&[][..], &[][..]),
                r => (
                    &crd[r.lo as usize..=r.hi as usize],
                    &vals[r.lo as usize..=r.hi as usize],
                ),
            });
            read += segs.iter().map(|(s, _)| s.len() as u64).sum::<u64>();
            let len = merge_row(segs, cols, vals);
            if len > 0 {
                rows.push((row, len));
            }
        }
    }
    (read as f64, (cols.len() - written) as f64)
}

/// Three-way sorted merge of one row's `(cols, vals)` segments, appended to
/// `cols`/`vals`; returns the merged length. An output value is its
/// column's inputs summed in operand order from `+0.0` —
/// `((0 + b) + c) + d` over those present.
#[inline]
fn merge_row(segs: [(&[i64], &[f64]); 3], cols: &mut Vec<i64>, vals: &mut Vec<f64>) -> usize {
    let cap = segs.iter().map(|(s, _)| s.len()).sum();
    cols.reserve(cap);
    vals.reserve(cap);
    let before = cols.len();
    let mut at = [0usize; 3];
    loop {
        // Coordinates are below a dimension extent, so `i64::MAX` marks an
        // exhausted segment.
        let head = |s: usize| segs[s].0.get(at[s]).copied().unwrap_or(i64::MAX);
        let m = head(0).min(head(1)).min(head(2));
        if m == i64::MAX {
            break;
        }
        let mut v = 0.0;
        for (s, (sc, sv)) in segs.iter().enumerate() {
            while at[s] < sc.len() && sc[at[s]] == m {
                v += sv[at[s]];
                at[s] += 1;
            }
        }
        cols.push(m);
        vals.push(v);
    }
    cols.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_row_sums_equal_columns_in_operand_order() {
        let (a, b, c) = (
            (vec![0i64, 2, 5], vec![1.0, 2.0, 3.0]),
            (vec![2i64, 5], vec![10.0, 20.0]),
            (vec![1i64], vec![-0.0]),
        );
        let segs = [
            (&a.0[..], &a.1[..]),
            (&b.0[..], &b.1[..]),
            (&c.0[..], &c.1[..]),
        ];
        let (mut cols, mut vals) = (vec![7], vec![9.0]);
        assert_eq!(merge_row(segs, &mut cols, &mut vals), 4);
        assert_eq!(cols, vec![7, 0, 1, 2, 5]);
        // `0 + -0.0` is `+0.0`: a lone input is summed, not copied.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&vals), bits(&[9.0, 1.0, 0.0, 12.0, 23.0]));
    }
}
