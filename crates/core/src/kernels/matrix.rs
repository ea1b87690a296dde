//! Matrix leaf kernels through the generic walker: SpMV, SpMM, SDDMM.
//!
//! Each `*_color` function computes the contribution of one color (one
//! distributed-loop iteration) by walking the driver tensor's partitioned
//! coordinate tree, and returns the modeled operation count that feeds the
//! machine model. Accumulation into shared outputs happens color-by-color,
//! mirroring the runtime's reduction semantics. These are the oracle of
//! the blessed kernels and the path of matrix layouts none blesses; SpAdd3
//! has no walker — `recognize` admits it over CSR only, whose blessed
//! merge ([`crate::kernels::specialized`]) is its one implementation.

use spdistal_sparse::SpTensor;

use super::{walk_partitioned_span, KernelSpan, OutVals};
use crate::level_funcs::TensorPartition;

/// SpMV for one color: `a(i) += B(i,j) * c(j)` over the color's entries —
/// or over one [`KernelSpan`] (a row chunk) of them.
pub fn spmv_color(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    out: &OutVals,
) -> f64 {
    let mut ops = 0u64;
    walk_partitioned_span(b, part, color, span, &mut |coords, _, v| {
        out.add(coords[0] as usize, v * c[coords[1] as usize]);
        ops += 1;
    });
    ops as f64
}

/// SpMM for one color: `A(i,j) += B(i,k) * C(k,j)`, dense row-major `C` of
/// width `jdim`.
pub fn spmm_color(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    jdim: usize,
    out: &OutVals,
) -> f64 {
    let mut ops = 0u64;
    walk_partitioned_span(b, part, color, span, &mut |coords, _, v| {
        let (i, k) = (coords[0] as usize, coords[1] as usize);
        out.add_scaled(i * jdim, v, &c[k * jdim..(k + 1) * jdim]);
        ops += jdim as u64;
    });
    ops as f64
}

/// SDDMM for one color: `A(i,j) = B(i,j) * (C(i,:) · D(:,j))`. Writes into
/// `out_vals`, which shares `B`'s pattern (position-aligned).
#[allow(clippy::too_many_arguments)]
pub fn sddmm_color(
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
    let mut ops = 0u64;
    walk_partitioned_span(b, part, color, span, &mut |coords, entries, v| {
        let (i, j) = (coords[0] as usize, coords[1] as usize);
        let mut dot = 0.0;
        for k in 0..kdim {
            dot += c[i * kdim + k] * d[k * jdim + j];
        }
        out_vals.set(entries[1], v * dot);
        ops += kdim as u64;
    });
    ops as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level_funcs::{
        equal_coord_bounds, nonzero_partition, partition_tensor, universe_partition,
    };
    use spdistal_sparse::{generate, reference};

    fn row_part(t: &SpTensor, colors: usize) -> TensorPartition {
        partition_tensor(
            t,
            0,
            universe_partition(t, 0, &equal_coord_bounds(t.dims()[0], colors)),
        )
    }

    #[test]
    fn spmv_row_and_nonzero_match_reference() {
        let b = generate::rmat_default(8, 1500, 1);
        let n = b.dims()[0];
        let c = generate::dense_vec(n, 2);
        let expect = reference::spmv(&b, &c);
        for colors in [1usize, 3, 8] {
            // Row-based.
            let pu = row_part(&b, colors);
            let mut out = vec![0.0; n];
            let mut total_ops = 0.0;
            for col in 0..colors {
                total_ops += spmv_color(&b, &pu, col, None, &c, &OutVals::new(&mut out));
            }
            assert!(reference::approx_eq(&out, &expect, 1e-12));
            assert_eq!(total_ops as usize, b.nnz());
            // Non-zero based.
            let pz = partition_tensor(&b, 1, nonzero_partition(&b, 1, colors));
            let mut out2 = vec![0.0; n];
            for col in 0..colors {
                spmv_color(&b, &pz, col, None, &c, &OutVals::new(&mut out2));
            }
            assert!(reference::approx_eq(&out2, &expect, 1e-12));
        }
    }

    #[test]
    fn spmm_matches_reference() {
        let b = generate::uniform(40, 30, 400, 3);
        let jdim = 8;
        let c = generate::dense_buffer(30, jdim, 4);
        let expect = reference::spmm(&b, &c, jdim);
        let p = row_part(&b, 4);
        let mut out = vec![0.0; 40 * jdim];
        for col in 0..4 {
            spmm_color(&b, &p, col, None, &c, jdim, &OutVals::new(&mut out));
        }
        assert!(reference::approx_eq(&out, &expect, 1e-12));
    }

    #[test]
    fn sddmm_matches_reference_nonzero_split() {
        let b = generate::rmat_default(7, 900, 5);
        let (n, m) = (b.dims()[0], b.dims()[1]);
        let kdim = 6;
        let c = generate::dense_buffer(n, kdim, 6);
        let d = generate::dense_buffer(kdim, m, 7);
        let expect = reference::sddmm(&b, &c, &d, kdim);
        let p = partition_tensor(&b, 1, nonzero_partition(&b, 1, 5));
        let mut vals = vec![0.0; b.num_stored()];
        for col in 0..5 {
            sddmm_color(&b, &p, col, None, &c, &d, kdim, m, &OutVals::new(&mut vals));
        }
        assert!(reference::approx_eq(&vals, expect.vals(), 1e-12));
    }
}
