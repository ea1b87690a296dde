//! SpMTTKRP leaf loops over the order-3 driver layouts: one row-keyed
//! source (generic over the driver's [`TopLevel`]: CSF
//! `{Dense,Compressed,Compressed}` and doubly-compressed CSF
//! `{Compressed,Compressed,Compressed}`) plus one COO
//! `{Compressed,Singleton,Singleton}` source.
//!
//! `A(i,l) += B(i,j,k) * C(j,l) * D(k,l)` with dense row-major factors of
//! width `ldim`. Per-entry factor-row updates keep the accumulation order
//! exactly the generic walker's; op accounting is `2 * ldim` per stored
//! entry, as in [`crate::kernels::tensor3::spmttkrp_color`].

use spdistal_sparse::SpTensor;

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
