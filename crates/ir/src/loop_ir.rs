//! The lowered loop IR: an ordered nest of loop levels with distribution,
//! parallelism and iteration-kind annotations.
//!
//! This is what "generated code" looks like in this reproduction: instead of
//! emitting C++, the compiler lowers a scheduled TIN statement into a
//! [`LoopNest`], which the partitioning code generator (crate `spdistal`)
//! walks recursively — exactly the structure of Figure 9a.

use crate::expr::Assignment;
use crate::schedule::ParallelUnit;
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

/// One loop level of the nest.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopLevel {
    pub var: IndexVar,
    pub kind: IterKind,
    /// For divide-outer variables: the static piece count.
    pub pieces: Option<usize>,
    /// Machine dimension the loop is distributed over, if any.
    pub distributed: Option<usize>,
    /// Intra-processor parallelization, if any.
    pub parallel: Option<ParallelUnit>,
}

/// A lowered, scheduled statement.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopNest {
    /// Loop levels, outermost first.
    pub loops: Vec<LoopLevel>,
    /// `communicate` directives: (tensor, at-loop).
    pub comm: Vec<(String, IndexVar)>,
    /// The statement computed in the innermost loop body.
    pub stmt: Assignment,
}

impl LoopNest {
    /// The distributed loop levels, outermost first.
    pub fn distributed_loops(&self) -> impl Iterator<Item = &LoopLevel> {
        self.loops.iter().filter(|l| l.distributed.is_some())
    }

    /// Find a loop level by variable.
    pub fn level(&self, var: IndexVar) -> Option<&LoopLevel> {
        self.loops.iter().find(|l| l.var == var)
    }

    /// Tensors to communicate at the given loop.
    pub fn comm_at(&self, var: IndexVar) -> Vec<&str> {
        self.comm
            .iter()
            .filter(|(_, v)| *v == var)
            .map(|(t, _)| t.as_str())
            .collect()
    }
}
