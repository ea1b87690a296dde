//! The format language (Section II-B): per-dimension level formats combined
//! with a data distribution, mirroring the paper's
//! `Format BlockedCSR({Dense, Compressed}, Distribution({x, y}, M, {x}))`.

use spdistal_sparse::LevelFormat;

use crate::tdn::{Distribution, TdnError};

/// A tensor format: how each dimension stores its coordinates, and how the
/// tensor is distributed onto the machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Format {
    pub levels: Vec<LevelFormat>,
    pub dist: Distribution,
}

impl Format {
    pub fn new(levels: Vec<LevelFormat>, dist: Distribution) -> Self {
        Format { levels, dist }
    }

    /// A blocked dense vector: `{Dense}`, `x ↦ x M`.
    pub fn blocked_dense_vec() -> Self {
        Format::new(
            vec![LevelFormat::Dense],
            Distribution::new("x", "x").unwrap(),
        )
    }

    /// A replicated dense vector: `{Dense}`, `x ↦ y M`.
    pub fn replicated_dense_vec() -> Self {
        Format::new(
            vec![LevelFormat::Dense],
            Distribution::new("x", "y").unwrap(),
        )
    }

    /// Row-wise distributed CSR: `{Dense, Compressed}`, `xy ↦ x M`
    /// (the `BlockedCSR` of Figure 1).
    pub fn blocked_csr() -> Self {
        Format::new(
            vec![LevelFormat::Dense, LevelFormat::Compressed],
            Distribution::new("xy", "x").unwrap(),
        )
    }

    /// Non-zero distributed CSR: `{Dense, Compressed}`, `xy (xy→f) ↦ ~f M`.
    pub fn nonzero_csr() -> Self {
        Format::new(
            vec![LevelFormat::Dense, LevelFormat::Compressed],
            Distribution::new("xy", "~f")
                .unwrap()
                .with_fusion("xy", 'f'),
        )
    }

    /// Row-wise distributed DCSR: `{Compressed, Compressed}`, `xy ↦ x M` —
    /// doubly-compressed rows for hypersparse matrices (most rows empty).
    pub fn blocked_dcsr() -> Self {
        Format::new(
            vec![LevelFormat::Compressed, LevelFormat::Compressed],
            Distribution::new("xy", "x").unwrap(),
        )
    }

    /// Row-wise distributed COO matrix: `{Compressed, Singleton}`, `xy ↦ x M`
    /// (TACO's COO: level 0 keeps one row coordinate per stored entry).
    pub fn blocked_coo() -> Self {
        Format::new(
            vec![LevelFormat::Compressed, LevelFormat::Singleton],
            Distribution::new("xy", "x").unwrap(),
        )
    }

    /// Slice-wise distributed COO 3-tensor:
    /// `{Compressed, Singleton, Singleton}`, `xyz ↦ x M`.
    pub fn blocked_coo3() -> Self {
        Format::new(
            vec![
                LevelFormat::Compressed,
                LevelFormat::Singleton,
                LevelFormat::Singleton,
            ],
            Distribution::new("xyz", "x").unwrap(),
        )
    }

    /// Row-wise distributed dense matrix: `{Dense, Dense}`, `xy ↦ x M`.
    pub fn blocked_dense_matrix() -> Self {
        Format::new(
            vec![LevelFormat::Dense, LevelFormat::Dense],
            Distribution::new("xy", "x").unwrap(),
        )
    }

    /// Replicated dense matrix: `{Dense, Dense}`, `xy ↦ z M`.
    pub fn replicated_dense_matrix() -> Self {
        Format::new(
            vec![LevelFormat::Dense, LevelFormat::Dense],
            Distribution::new("xy", "z").unwrap(),
        )
    }

    /// A *staged* dense matrix: no machine dimensions at all, so the tensor
    /// starts in staging memory and the computation's own partition decides
    /// what lands where (used when the initial data distribution is derived
    /// from a non-zero computation distribution, Section II-D).
    pub fn staged_dense_matrix() -> Self {
        Format::new(
            vec![LevelFormat::Dense, LevelFormat::Dense],
            Distribution::new("xy", "").unwrap(),
        )
    }

    /// A staged dense vector (see [`Format::staged_dense_matrix`]).
    pub fn staged_dense_vec() -> Self {
        Format::new(
            vec![LevelFormat::Dense],
            Distribution::new("x", "").unwrap(),
        )
    }

    /// Slice-wise distributed CSF 3-tensor: `{Dense, Compressed,
    /// Compressed}`, `xyz ↦ x M`.
    pub fn blocked_csf3() -> Self {
        Format::new(
            vec![
                LevelFormat::Dense,
                LevelFormat::Compressed,
                LevelFormat::Compressed,
            ],
            Distribution::new("xyz", "x").unwrap(),
        )
    }

    /// Non-zero distributed CSF 3-tensor: `xyz (xyz→f) ↦ ~f M`.
    pub fn nonzero_csf3() -> Self {
        Format::new(
            vec![
                LevelFormat::Dense,
                LevelFormat::Compressed,
                LevelFormat::Compressed,
            ],
            Distribution::new("xyz", "~f")
                .unwrap()
                .with_fusion("xyz", 'f'),
        )
    }

    /// A stable, human-readable identity string for this format: the level
    /// formats plus the distribution in TDN syntax. Two formats with equal
    /// signatures store and distribute tensors identically — this is the
    /// per-tensor component of `Program` plan-cache keys, so re-declaring a
    /// tensor under a different format misses the cache.
    ///
    /// ```
    /// use spdistal_ir::Format;
    /// assert_eq!(Format::blocked_csr().signature(), "{Dense,Compressed} xy -> x");
    /// assert_eq!(
    ///     Format::nonzero_csr().signature(),
    ///     "{Dense,Compressed} xy (xy->f) -> ~f"
    /// );
    /// ```
    pub fn signature(&self) -> String {
        format!("{} {}", self.levels_signature(), self.dist)
    }

    /// The storage half of [`Format::signature`]: the level formats alone,
    /// without the distribution. Two formats with equal level signatures
    /// walk their coordinate trees identically whatever machine they map
    /// onto. It is spelled like the key of the specialized kernel table
    /// (`spdistal::kernels::specialized`), which is looked up by the
    /// driver's *stored* levels, not by its declared format.
    ///
    /// ```
    /// use spdistal_ir::Format;
    /// assert_eq!(Format::blocked_csr().levels_signature(), "{Dense,Compressed}");
    /// assert_eq!(Format::nonzero_csr().levels_signature(), "{Dense,Compressed}");
    /// assert_eq!(Format::blocked_coo().levels_signature(), "{Compressed,Singleton}");
    /// ```
    pub fn levels_signature(&self) -> String {
        let levels: Vec<String> = self.levels.iter().map(|l| format!("{l:?}")).collect();
        format!("{{{}}}", levels.join(","))
    }

    /// Validate the format against a tensor order.
    pub fn validate(&self, order: usize) -> Result<(), TdnError> {
        if self.levels.len() != order {
            return Err(TdnError::Syntax(format!(
                "{} level formats for order-{order} tensor",
                self.levels.len()
            )));
        }
        self.dist.resolve(order).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Format::blocked_dense_vec().validate(1).unwrap();
        Format::replicated_dense_vec().validate(1).unwrap();
        Format::blocked_csr().validate(2).unwrap();
        Format::nonzero_csr().validate(2).unwrap();
        Format::blocked_dcsr().validate(2).unwrap();
        Format::blocked_coo().validate(2).unwrap();
        Format::blocked_dense_matrix().validate(2).unwrap();
        Format::blocked_csf3().validate(3).unwrap();
        Format::nonzero_csf3().validate(3).unwrap();
        Format::blocked_coo3().validate(3).unwrap();
    }

    #[test]
    fn order_mismatch_fails() {
        assert!(Format::blocked_csr().validate(3).is_err());
    }

    #[test]
    fn nonzero_csr_resolves_fused() {
        let spec = Format::nonzero_csr().dist.resolve(2).unwrap();
        assert_eq!(spec.logical_dims, vec![vec![0, 1]]);
        assert_eq!(spec.nonzero, vec![true]);
    }
}
