//! Format conversions between coordinate-tree layouts.
//!
//! TACO's per-dimension format abstraction means any format combination can
//! be reached by flattening to COO, optionally permuting the dimension
//! order, and rebuilding (Figure 3 shows CSR vs CSC as exactly such a
//! reordering). These helpers package the common matrix conversions.

use crate::builder::CooTensor;
use crate::tensor::{LevelFormat, SpTensor};

/// Rebuild `t` with new per-dimension formats (same dimension order).
pub fn with_formats(t: &SpTensor, formats: &[LevelFormat]) -> SpTensor {
    let mut coo = CooTensor::new(t.dims().to_vec());
    for (c, v) in t.to_coo() {
        coo.push(&c, v);
    }
    coo.build(formats)
}

/// Rebuild `t` with dimensions permuted by `perm` and the given formats.
/// `perm[k]` names which original dimension becomes stored dimension `k`.
pub fn permuted(t: &SpTensor, perm: &[usize], formats: &[LevelFormat]) -> SpTensor {
    let mut coo = CooTensor::new(t.dims().to_vec());
    for (c, v) in t.to_coo() {
        coo.push(&c, v);
    }
    coo.permute_dims(perm).build(formats)
}

/// Convert a matrix to CSR (`{Dense, Compressed}`, row-major).
pub fn to_csr(t: &SpTensor) -> SpTensor {
    assert_eq!(t.order(), 2);
    with_formats(t, &[LevelFormat::Dense, LevelFormat::Compressed])
}

/// Convert a matrix to CSC: column-major `{Dense, Compressed}`.
///
/// Note: the resulting tensor's `dims()` are `(cols, rows)` — storage order.
pub fn to_csc(t: &SpTensor) -> SpTensor {
    assert_eq!(t.order(), 2);
    permuted(t, &[1, 0], &[LevelFormat::Dense, LevelFormat::Compressed])
}

/// Convert a matrix to DCSR (`{Compressed, Compressed}`): both levels
/// compressed, so empty rows cost nothing.
pub fn to_dcsr(t: &SpTensor) -> SpTensor {
    assert_eq!(t.order(), 2);
    with_formats(t, &[LevelFormat::Compressed, LevelFormat::Compressed])
}

/// Convert a tensor to TACO's COO layout: `{Compressed, Singleton, ...}` —
/// the outer compressed level keeps duplicate coordinates (one entry per
/// stored value) and every inner level is a singleton.
pub fn to_coo_format(t: &SpTensor) -> SpTensor {
    let mut formats = vec![LevelFormat::Compressed];
    formats.extend(std::iter::repeat_n(LevelFormat::Singleton, t.order() - 1));
    with_formats(t, &formats)
}

/// Materialize a sparse matrix densely (row-major).
pub fn to_dense(t: &SpTensor) -> Vec<f64> {
    assert_eq!(t.order(), 2);
    let (r, c) = (t.dims()[0], t.dims()[1]);
    let mut out = vec![0.0; r * c];
    t.for_each(|co, v| out[co[0] as usize * c + co[1] as usize] = v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::csr_from_triplets;
    use crate::generate;

    #[test]
    fn csr_csc_roundtrip() {
        let t = generate::uniform(20, 30, 100, 1);
        let csc = to_csc(&t);
        assert_eq!(csc.dims(), &[30, 20]);
        let back = to_csc(&csc);
        assert_eq!(back, t);
    }

    #[test]
    fn dcsr_preserves_values() {
        let t = csr_from_triplets(100, 10, &[(0, 0, 1.0), (99, 9, 2.0)]);
        let d = to_dcsr(&t);
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.to_coo(), t.to_coo());
        // DCSR stores only 2 rows of pos at the top level (1 root entry).
        match d.level(0) {
            crate::tensor::Level::Compressed { pos, crd } => {
                assert_eq!(pos.len(), 1);
                assert_eq!(crd, &[0, 99]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn to_dense_layout() {
        let t = csr_from_triplets(2, 2, &[(0, 1, 3.0), (1, 0, 4.0)]);
        assert_eq!(to_dense(&t), vec![0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn with_formats_identity() {
        let t = generate::rmat_default(6, 200, 2);
        let same = with_formats(&t, &[LevelFormat::Dense, LevelFormat::Compressed]);
        assert_eq!(t, same);
    }

    #[test]
    fn coo_matrix_roundtrip() {
        let t = generate::uniform(30, 40, 200, 4);
        let coo = to_coo_format(&t);
        assert_eq!(
            coo.formats(),
            vec![LevelFormat::Compressed, LevelFormat::Singleton]
        );
        // One row-coordinate entry per stored value (duplicates kept).
        match coo.level(0) {
            crate::tensor::Level::Compressed { pos, crd } => {
                assert_eq!(pos.len(), 1);
                assert_eq!(crd.len(), t.nnz());
            }
            _ => panic!(),
        }
        assert_eq!(coo.to_coo(), t.to_coo());
        assert_eq!(to_csr(&coo), t);
    }

    #[test]
    fn coo_3tensor_roundtrip() {
        let t = generate::tensor3_uniform([10, 12, 14], 150, 5);
        let coo = to_coo_format(&t);
        assert_eq!(
            coo.formats(),
            vec![
                LevelFormat::Compressed,
                LevelFormat::Singleton,
                LevelFormat::Singleton
            ]
        );
        assert_eq!(coo.to_coo(), t.to_coo());
        // COO spmv-style walks work through reference kernels too.
        let c = generate::dense_vec(14, 6);
        let a = crate::reference::spttv(&coo, &c);
        let b = crate::reference::spttv(&t, &c);
        assert!(crate::reference::tensors_approx_eq(&a, &b, 1e-12));
    }
}
