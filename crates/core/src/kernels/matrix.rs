//! Matrix leaf kernels: SpMV, SpMM, SDDMM, SpAdd3.
//!
//! Each `*_color` function computes the contribution of one color (one
//! distributed-loop iteration) by walking the driver tensor's partitioned
//! coordinate tree, and returns the modeled operation count that feeds the
//! machine model. Accumulation into shared outputs happens color-by-color,
//! mirroring the runtime's reduction semantics.

use spdistal_runtime::Rect1;
use spdistal_sparse::{Level, SpTensor};

use super::{walk_partitioned_span, KernelSpan, OutVals};
use crate::level_funcs::{LevelClamps, TensorPartition};

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

/// One assembled output row of SpAdd3.
pub struct AddRow {
    pub row: usize,
    pub cols: Vec<i64>,
    pub vals: Vec<f64>,
}

/// SpAdd3 for one color, fused across the three inputs (the paper's point:
/// one pass, no temporaries). Implements the two-phase assembly of
/// Section V-B: the symbolic phase discovers the union pattern per row, the
/// numeric phase fills values; both are fused into one merge here, with the
/// returned op counts split accordingly.
///
/// Returns the assembled rows plus `(symbolic_ops, numeric_ops)`.
pub fn spadd3_color(
    b: &SpTensor,
    c: &SpTensor,
    d: &SpTensor,
    row_part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
) -> (Vec<AddRow>, f64, f64) {
    // A span is a chunk of the color's rows, so spans of one color assemble
    // disjoint, ascending row ranges.
    debug_assert!(span.is_none_or(|s| s.level == 0), "SpAdd3 splits on rows");
    let rows_subset = LevelClamps::new(row_part, color, span).level(0);
    let mut out = Vec::new();
    let mut sym_ops = 0u64;
    let mut num_ops = 0u64;
    for row in rows_subset.iter_points() {
        let segs: Vec<(&[i64], &[f64])> = [b, c, d]
            .iter()
            .map(|t| row_segment(t, row as usize))
            .collect();
        sym_ops += segs.iter().map(|(cr, _)| cr.len() as u64).sum::<u64>();
        let merged = merge3(&segs);
        num_ops += merged.0.len() as u64;
        if !merged.0.is_empty() {
            out.push(AddRow {
                row: row as usize,
                cols: merged.0,
                vals: merged.1,
            });
        }
    }
    (out, sym_ops as f64, num_ops as f64)
}

/// The (cols, vals) slice of one CSR row. Callers are compiled SpAdd3
/// plans: [`recognize`](super::recognize) admits only `{Dense,Compressed}`
/// operands, so level-1 `pos` is indexed by row coordinate.
fn row_segment(t: &SpTensor, row: usize) -> (&[i64], &[f64]) {
    match t.level(1) {
        Level::Compressed { pos, crd } => {
            let r: Rect1 = pos[row];
            if r.is_empty() {
                (&[], &[])
            } else {
                (
                    &crd[r.lo as usize..=r.hi as usize],
                    &t.vals()[r.lo as usize..=r.hi as usize],
                )
            }
        }
        _ => unreachable!("recognize admits SpAdd3 over CSR operands only"),
    }
}

/// Three-way sorted merge, summing values for equal columns.
fn merge3(segs: &[(&[i64], &[f64])]) -> (Vec<i64>, Vec<f64>) {
    let mut idx = [0usize; 3];
    let cap = segs.iter().map(|(c, _)| c.len()).sum();
    let mut cols = Vec::with_capacity(cap);
    let mut vals = Vec::with_capacity(cap);
    loop {
        let mut min: Option<i64> = None;
        for (s, seg) in segs.iter().enumerate() {
            if let Some(&c) = seg.0.get(idx[s]) {
                min = Some(min.map_or(c, |m: i64| m.min(c)));
            }
        }
        let Some(m) = min else { break };
        let mut v = 0.0;
        for (s, seg) in segs.iter().enumerate() {
            while idx[s] < seg.0.len() && seg.0[idx[s]] == m {
                v += seg.1[idx[s]];
                idx[s] += 1;
            }
        }
        cols.push(m);
        vals.push(v);
    }
    (cols, vals)
}

/// Assemble SpAdd3 rows (from all colors) into a CSR tensor.
pub fn assemble_rows(rows: usize, cols: usize, mut parts: Vec<AddRow>) -> SpTensor {
    parts.sort_by_key(|r| r.row);
    let mut pos = vec![Rect1::empty(); rows];
    let mut crd = Vec::new();
    let mut vals = Vec::new();
    for r in parts {
        let lo = crd.len() as i64;
        crd.extend_from_slice(&r.cols);
        vals.extend_from_slice(&r.vals);
        if crd.len() as i64 > lo {
            pos[r.row] = Rect1::new(lo, crd.len() as i64 - 1);
        }
    }
    SpTensor::from_parts(
        vec![rows, cols],
        vec![Level::Dense { size: rows }, Level::Compressed { pos, crd }],
        vals,
    )
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

    #[test]
    fn spadd3_matches_reference() {
        let b = generate::uniform(50, 40, 300, 8);
        let c = generate::shift_last_dim(&b, 3);
        let d = generate::shift_last_dim(&b, 7);
        let expect = reference::spadd3(&b, &c, &d);
        let p = row_part(&b, 4);
        let mut rows = Vec::new();
        for col in 0..4 {
            let (r, sym, num) = spadd3_color(&b, &c, &d, &p, col, None);
            assert!(sym > 0.0 && num > 0.0);
            rows.extend(r);
        }
        let got = assemble_rows(50, 40, rows);
        assert!(reference::tensors_approx_eq(&got, &expect, 1e-12));
    }

    #[test]
    fn merge3_sums_duplicates() {
        let a = (vec![0i64, 2, 5], vec![1.0, 2.0, 3.0]);
        let b = (vec![2i64, 5], vec![10.0, 20.0]);
        let c = (vec![1i64], vec![100.0]);
        let (cols, vals) = merge3(&[(&a.0, &a.1), (&b.0, &b.1), (&c.0, &c.1)]);
        assert_eq!(cols, vec![0, 1, 2, 5]);
        assert_eq!(vals, vec![1.0, 100.0, 12.0, 23.0]);
    }
}
