//! Order-3 leaf loops: SpMTTKRP and SpTTV, each as one row-keyed source
//! (generic over the driver's [`TopLevel`]: CSF
//! `{Dense,Compressed,Compressed}` and doubly-compressed CSF
//! `{Compressed,Compressed,Compressed}`) plus one COO
//! `{Compressed,Singleton,Singleton}` source.
//!
//! `A(i,l) += B(i,j,k) * C(j,l) * D(k,l)` with dense row-major factors of
//! width `ldim`. Per-entry factor-row updates keep the accumulation order
//! exactly the generic walker's; op accounting is `2 * ldim` per stored
//! entry, as in [`crate::kernels::tensor3::spmttkrp_color`].
//!
//! `A(i,j) += B(i,j,k) * c(k)` into one slot per level-1 fiber: a fiber is
//! SpMV's row one level down, folded by the same [`dot_row`] (a whole
//! fiber in a local accumulator, a partly clamped one per entry, for the
//! reason the `matrix` module docs give); one op per stored entry, as in
//! [`crate::kernels::tensor3::spttv_color`].

use spdistal_sparse::SpTensor;

use super::matrix::dot_row;
use super::{compressed, for_coo_runs, for_rows, singleton, TopLevel};
use crate::kernels::{KernelSpan, OutVals};
use crate::level_funcs::{LevelClamps, TensorPartition};

/// SpMTTKRP over a row-keyed driver (slices over compressed fibers).
#[allow(clippy::too_many_arguments)]
pub(super) fn spmttkrp<T: TopLevel>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    d: &[f64],
    ldim: usize,
    out: &OutVals,
) -> f64 {
    let (_, crd1) = compressed(b, 1);
    let (pos2, crd2) = compressed(b, 2);
    let vals = b.vals();
    let clamps = LevelClamps::new(part, color, span);
    let (l1, l2) = (clamps.level(1), clamps.level(2));
    let n = for_rows::<T>(b, clamps.level(0), |i, fibers| {
        let mut n = 0u64;
        for fr in l1.intersect_rect(fibers) {
            for q1 in fr.lo as usize..=fr.hi as usize {
                let j = crd1[q1] as usize;
                let crow = &c[j * ldim..(j + 1) * ldim];
                for lr in l2.intersect_rect(pos2[q1]) {
                    let (lo, hi) = (lr.lo as usize, lr.hi as usize);
                    for (v, &k) in vals[lo..=hi].iter().zip(&crd2[lo..=hi]) {
                        let k = k as usize;
                        out.add_scaled_product(i * ldim, *v, crow, &d[k * ldim..(k + 1) * ldim]);
                    }
                    n += lr.len();
                }
            }
        }
        n
    });
    (2 * ldim as u64 * n) as f64
}

/// SpMTTKRP over an order-3 COO driver.
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
        let coords = crd0[lo..=hi].iter().zip(&crd1[lo..=hi]).zip(&crd2[lo..=hi]);
        for (v, ((&i, &j), &k)) in vals[lo..=hi].iter().zip(coords) {
            let (j, k) = (j as usize, k as usize);
            out.add_scaled_product(
                i as usize * ldim,
                *v,
                &c[j * ldim..(j + 1) * ldim],
                &d[k * ldim..(k + 1) * ldim],
            );
        }
    });
    (2 * ldim as u64 * n) as f64
}

/// SpTTV over a row-keyed driver: every clamped fiber of every row is one
/// [`dot_row`] into its level-1 slot.
pub(super) fn spttv<T: TopLevel>(
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
    for_rows::<T>(b, clamps.level(0), |_, fibers| {
        let mut n = 0u64;
        for fr in l1.intersect_rect(fibers) {
            let (lo, hi) = (fr.lo as usize, fr.hi as usize);
            for (q1, &fiber) in (lo..).zip(&pos2[lo..=hi]) {
                n += dot_row(q1, fiber, l2, crd2, vals, c, out);
            }
        }
        n
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
