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
//!
//! SpMM adds `v·C[k,:]` into output row `A(i,:)` for each stored entry,
//! through the layer's one row fold ([`RowFold`]): a row-keyed row is one
//! run (cut by the clamp unless the walker found it owned), a COO row one
//! run of equal `i`.

use spdistal_runtime::{IntervalSet, Rect1};
use spdistal_sparse::SpTensor;

use super::{
    compressed, cut, equal_runs, for_coo_runs, for_rows, pieces, singleton, RowFold, Terms,
    TopLevel,
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

/// SpMM's terms: the entry of value `v` at level-1 coordinate `k` adds
/// `v·C[k,l]` to `A(i,l)`, with dense row-major `C` of width `jdim`. Its
/// `C` rows are effectively random, so each is a likely cache miss: the
/// fold prefetches them ahead.
#[derive(Clone, Copy)]
struct Scaled<'a> {
    c: &'a [f64],
    jdim: usize,
}

impl Terms for Scaled<'_> {
    const PREFETCH: bool = true;
    #[inline(always)]
    fn width(&self) -> usize {
        self.jdim
    }
    #[inline(always)]
    fn factor(&self) -> &[f64] {
        self.c
    }
    #[inline(always)]
    fn term(&self, v: f64, _: usize, x: f64) -> f64 {
        v * x
    }
}

/// SpMM over a row-keyed driver: `A(i,j) += B(i,k) * C(k,j)`. Each row's
/// clamped slice (all of it when the walker found the row `owned`, else
/// its [`cut`](super::cut)) goes through the one [`RowFold`].
pub(super) fn spmm<T: TopLevel>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    jdim: usize,
    out: &OutVals,
) -> f64 {
    let clamps = LevelClamps::new(part, color, span);
    let cols = clamps.level(1);
    let fold = RowFold::new(b.vals(), compressed(b, 1).1);
    let terms = Scaled { c, jdim };
    let n = for_rows::<T>(b, clamps.level(0), cols, |i, range, owned| {
        fold.row(out, i, jdim, [(terms, range, (!owned).then_some(cols))])
    });
    (jdim as u64 * n) as f64
}

/// SpMM over a COO driver: each run of equal `i` is one row for the
/// [`RowFold`].
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
    let fold = RowFold::new(b.vals(), singleton(b, 1));
    let terms = Scaled { c, jdim };
    let n = for_coo_runs(b, part, color, span, |lo, hi| {
        for (i, run) in equal_runs(crd0, lo, hi) {
            fold.row(out, i, jdim, [(terms, run, None)]);
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

/// Eight of [`dot_col`]'s dots at once, for the columns `js`: lane `l`
/// folds like `dot_col(crow, d, jdim, js[l])` — from `+0.0`, adding the
/// `k` terms in ascending order — so its bits are that dot's. The eight
/// chains are independent, so their adds overlap rather than each waiting
/// on the one before, and `D`'s rows are whole `jdim`-wide chunks, so a
/// lane's column is checked once, not once per term. A column outside the
/// width (no compiled plan has one: `recognize` matches the extents)
/// sends the group through `dot_col`, which reads what it always read.
#[inline(always)]
fn dot_cols8(crow: &[f64], d: &[f64], jdim: usize, js: &[i64]) -> [f64; 8] {
    let js: [usize; 8] = std::array::from_fn(|l| js[l] as usize);
    if js.iter().any(|&j| j >= jdim) || d.len() < crow.len() * jdim {
        return js.map(|j| dot_col(crow, d, jdim, j));
    }
    let mut dots = [0.0; 8];
    for (ck, drow) in crow.iter().zip(d.chunks_exact(jdim)) {
        for (dot, &j) in dots.iter_mut().zip(&js) {
            *dot += ck * drow[j];
        }
    }
    dots
}

/// SDDMM over a row-keyed driver: `A(i,j) = B(i,j) * (C(i,:) · D(:,j))`,
/// position-aligned output values. A row's positions (or a cut piece's)
/// go 8 at a time through [`dot_cols8`], the rest through [`dot_col`].
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
            let (vs, js) = (vals[lo..=hi].chunks_exact(8), crd[lo..=hi].chunks_exact(8));
            let (v_rest, j_rest) = (vs.remainder(), js.remainder());
            let mut q = lo;
            for (v8, j8) in vs.zip(js) {
                for (v, dot) in v8.iter().zip(dot_cols8(crow, d, jdim, j8)) {
                    out_vals.set(q, v * dot);
                    q += 1;
                }
            }
            for (v, &j) in v_rest.iter().zip(j_rest) {
                out_vals.set(q, v * dot_col(crow, d, jdim, j as usize));
                q += 1;
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
