//! 3-tensor leaf kernels through the generic walker: SpTTV and SpMTTKRP.
//!
//! Both walk the driver tensor's partitioned coordinate tree (any level
//! formats work through [`walk_partitioned_span`]). No plan runs them:
//! they are the oracle of the blessed CSF / doubly-compressed CSF / COO /
//! `{Dense,Dense,Compressed}` kernels ([`crate::kernels::specialized`])
//! and the benchmark's baseline. [`spttv_output`] builds the output every
//! SpTTV plan answers.

use spdistal_sparse::SpTensor;

use super::{walk_partitioned_span, KernelSpan, OutVals};
use crate::level_funcs::{entry_counts, TensorPartition};

/// SpTTV for one color: `A(i,j) += B(i,j,k) * c(k)`.
///
/// The output values are position-aligned with `B`'s level-1 entries (the
/// (i,j) fibers), matching the paper's pattern-preserving output path
/// (Section V-B): `out_fiber_vals` has one slot per level-1 entry of `B`.
/// A [`KernelSpan`] restricts the walk to a fiber chunk, so spans of one
/// color accumulate into disjoint fiber slots.
pub fn spttv_color(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    out_fiber_vals: &OutVals,
) -> f64 {
    debug_assert_eq!(out_fiber_vals.len() as u64, entry_counts(b)[1]);
    let mut ops = 0u64;
    walk_partitioned_span(b, part, color, span, &mut |coords, entries, v| {
        out_fiber_vals.add(entries[1], v * c[coords[2] as usize]);
        ops += 1;
    });
    ops as f64
}

/// SpMTTKRP for one color: `A(i,l) += B(i,j,k) * C(j,l) * D(k,l)` with
/// dense row-major factors of width `ldim`.
#[allow(clippy::too_many_arguments)]
pub fn spmttkrp_color(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    d: &[f64],
    ldim: usize,
    out: &OutVals,
) -> f64 {
    let mut ops = 0u64;
    walk_partitioned_span(b, part, color, span, &mut |coords, _, v| {
        let (i, j, k) = (coords[0] as usize, coords[1] as usize, coords[2] as usize);
        out.add_scaled_product(
            i * ldim,
            v,
            &c[j * ldim..(j + 1) * ldim],
            &d[k * ldim..(k + 1) * ldim],
        );
        ops += 2 * ldim as u64;
    });
    ops as f64
}

/// Build the SpTTV output tensor: `B`'s first two levels with the computed
/// fiber values.
pub fn spttv_output(b: &SpTensor, fiber_vals: Vec<f64>) -> SpTensor {
    SpTensor::from_parts(
        vec![b.dims()[0], b.dims()[1]],
        vec![b.level(0).clone(), b.level(1).clone()],
        fiber_vals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level_funcs::{
        equal_coord_bounds, nonzero_partition, partition_tensor, universe_partition,
    };
    use spdistal_sparse::convert::to_dense;
    use spdistal_sparse::{generate, reference, LevelFormat};

    #[test]
    fn spttv_slice_and_value_splits_match() {
        let b = generate::tensor3_skewed([24, 16, 16], 1200, 1.0, 1);
        let c = generate::dense_vec(16, 2);
        let expect = to_dense(&reference::spttv(&b, &c));
        for colors in [1usize, 4, 7] {
            // Slice-based (universe on level 0).
            let pu = partition_tensor(
                &b,
                0,
                universe_partition(&b, 0, &equal_coord_bounds(24, colors)),
            );
            let mut fibers = vec![0.0; entry_counts(&b)[1] as usize];
            for col in 0..colors {
                spttv_color(&b, &pu, col, None, &c, &OutVals::new(&mut fibers));
            }
            let got = to_dense(&spttv_output(&b, fibers));
            assert!(
                reference::approx_eq(&got, &expect, 1e-12),
                "universe {colors}"
            );
            // Value-based (non-zero on level 2).
            let pz = partition_tensor(&b, 2, nonzero_partition(&b, 2, colors));
            let mut fibers2 = vec![0.0; entry_counts(&b)[1] as usize];
            for col in 0..colors {
                spttv_color(&b, &pz, col, None, &c, &OutVals::new(&mut fibers2));
            }
            let got2 = to_dense(&spttv_output(&b, fibers2));
            assert!(
                reference::approx_eq(&got2, &expect, 1e-12),
                "nonzero {colors}"
            );
        }
    }

    #[test]
    fn spmttkrp_matches_reference() {
        let b = generate::tensor3_uniform([12, 14, 16], 700, 3);
        let ldim = 5;
        let c = generate::dense_buffer(14, ldim, 4);
        let d = generate::dense_buffer(16, ldim, 5);
        let expect = reference::spmttkrp(&b, &c, &d, ldim);
        let p = partition_tensor(&b, 0, universe_partition(&b, 0, &equal_coord_bounds(12, 3)));
        let mut out = vec![0.0; 12 * ldim];
        for col in 0..3 {
            spmttkrp_color(&b, &p, col, None, &c, &d, ldim, &OutVals::new(&mut out));
        }
        assert!(reference::approx_eq(&out, &expect, 1e-12));
    }

    #[test]
    fn dds_patents_layout_works() {
        let b = generate::tensor3_uniform_fmt(
            [6, 8, 32],
            300,
            6,
            &[
                LevelFormat::Dense,
                LevelFormat::Dense,
                LevelFormat::Compressed,
            ],
        );
        let ldim = 3;
        let c = generate::dense_buffer(8, ldim, 7);
        let d = generate::dense_buffer(32, ldim, 8);
        let expect = reference::spmttkrp(&b, &c, &d, ldim);
        let p = partition_tensor(&b, 2, nonzero_partition(&b, 2, 4));
        let mut out = vec![0.0; 6 * ldim];
        for col in 0..4 {
            spmttkrp_color(&b, &p, col, None, &c, &d, ldim, &OutVals::new(&mut out));
        }
        assert!(reference::approx_eq(&out, &expect, 1e-12));
    }
}
