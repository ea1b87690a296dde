//! # spdistal-ir — the compiler front and middle end
//!
//! The three input sub-languages of SpDISTAL's programming model
//! (Section II of the paper), plus lowering to a loop IR:
//!
//! * **Computation language** ([`expr`]): tensor index notation — accesses,
//!   multiplication, addition, assignment.
//! * **Format language** ([`format`], [`tdn`]): per-dimension level formats
//!   combined with tensor distribution notation, extended with non-zero
//!   partitions (`~`) and coordinate fusion.
//! * **Scheduling language** ([`schedule`], [`vars`]): TACO's sparse
//!   iteration-space transformations (`divide`, `fuse`, `pos`, `reorder`,
//!   `parallelize`) combined with DISTAL's `distribute` and `communicate`.
//!
//! [`lower`] validates a scheduled statement and returns its distributed
//! loops ([`loop_ir::DistributedLoop`]), along which the partitioning code
//! generator (crate `spdistal`) partitions every operand; `communicate` and
//! `parallelize` are validated, and every tensor is communicated at the
//! distributed loop. Nothing here
//! evaluates a statement: the correctness oracle of every shape that
//! compiles is `spdistal_sparse::reference`.

pub mod expr;
pub mod format;
pub mod loop_ir;
pub mod lower;
pub mod parse;
pub mod schedule;
pub mod tdn;
pub mod vars;

pub use expr::{Access, Assignment, Expr, Term};
pub use format::Format;
pub use loop_ir::{DistributedLoop, IterKind};
pub use lower::lower;
pub use parse::{parse_tin, parse_tin_with_vars, ParseError};
pub use schedule::{ParallelUnit, SchedCmd, SchedError, Schedule};
pub use tdn::{DistSpec, Distribution, TdnError, TdnStatement};
pub use vars::{Derivation, IndexVar, VarCtx};
