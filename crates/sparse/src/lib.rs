//! # spdistal-sparse — the sparse tensor substrate
//!
//! TACO-style sparse tensors stored as coordinate trees with per-dimension
//! level formats (`Dense`, `Compressed`), following SpDISTAL's distributed
//! encoding where compressed `pos` arrays hold inclusive `(lo, hi)` interval
//! tuples (Section III-B, Figure 7 of the paper).
//!
//! Also provides: a COO builder for any format combination, format
//! conversions, seeded synthetic generators (and Table II dataset
//! stand-ins), and serial reference kernels used as correctness oracles
//! throughout the workspace.

pub mod builder;
pub mod convert;
pub mod dataset;
pub mod delta;
pub mod generate;
pub mod reference;
pub mod tensor;

pub use builder::{csc_from_triplets, csr_from_triplets, dense_matrix, dense_vector, CooTensor};
pub use delta::{CoordDelta, DeltaOp};
pub use tensor::{Level, LevelFormat, SpTensor};
