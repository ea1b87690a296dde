//! The lowered loop IR: the distributed loops of a scheduled statement.
//!
//! This is what "generated code" looks like in this reproduction: instead of
//! emitting C++, the compiler lowers a scheduled TIN statement and the
//! partitioning code generator (crate `spdistal`) partitions every operand
//! along its distributed loop — the structure of Figure 9a. The loops that
//! are not distributed, the `parallelize` marks and the `communicate`
//! directives are validated by [`crate::lower()`] and kept nowhere: every
//! tensor is communicated at the distributed loop, and the leaf executor is
//! the context's, whatever unit a schedule names.

use crate::vars::IndexVar;

/// How a loop iterates (Section IV-C).
#[derive(Clone, Debug, PartialEq)]
pub enum IterKind {
    /// Coordinate *value* iteration: loop over all coordinate values of the
    /// dimension. Distributed value loops get universe partitions.
    Value,
    /// Coordinate *position* iteration: loop directly over the stored
    /// non-zero positions of `tensor`. Distributed position loops get
    /// non-zero partitions.
    Position { tensor: String },
}

/// One distributed loop of a lowered statement.
#[derive(Clone, Debug, PartialEq)]
pub struct DistributedLoop {
    pub var: IndexVar,
    pub kind: IterKind,
    /// For divide-outer variables: the static piece count.
    pub pieces: Option<usize>,
    /// Machine dimension the loop is distributed over.
    pub machine_dim: usize,
}
