//! The scheduling language (Section II-C).
//!
//! SpDISTAL's schedules combine TACO's single-node sparse iteration-space
//! transformations (`divide`, `split`, `fuse`, `pos`, `reorder`,
//! `parallelize`) with DISTAL's distributed commands (`distribute`,
//! `communicate`). The position transform (`pos`) moves a variable from
//! coordinate space into the position space of a tensor's non-zeros; fusing
//! `i` and `j` and dividing the fused position space is exactly the
//! "non-zero split" the paper uses for statically load-balanced schedules.

use crate::vars::{Derivation, IndexVar, VarCtx};

/// Where a parallel loop's iterations run within one processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelUnit {
    /// OpenMP-style threading over CPU cores.
    CpuThread,
    /// GPU thread blocks (the simulated GPU executes them with higher
    /// throughput in the machine model).
    GpuThread,
}

impl std::fmt::Display for ParallelUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelUnit::CpuThread => write!(f, "CpuThread"),
            ParallelUnit::GpuThread => write!(f, "GpuThread"),
        }
    }
}

/// One scheduling command.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedCmd {
    /// Break `target` into `pieces` equal outer blocks: `target -> (outer,
    /// inner)` where `outer` ranges over `[0, pieces)`.
    Divide {
        target: IndexVar,
        outer: IndexVar,
        inner: IndexVar,
        pieces: usize,
    },
    /// Collapse adjacent loops `a`, `b` into `fused`.
    Fuse {
        a: IndexVar,
        b: IndexVar,
        fused: IndexVar,
    },
    /// Move `target` into the position space of `tensor`'s non-zeros.
    Pos {
        target: IndexVar,
        result: IndexVar,
        tensor: String,
    },
    /// Set the complete loop order.
    Reorder(Vec<IndexVar>),
    /// Execute iterations of `target` on different processors along machine
    /// dimension `machine_dim`.
    Distribute {
        target: IndexVar,
        machine_dim: usize,
    },
    /// Fetch the needed sub-tensors of `tensors` at the start of each
    /// iteration of `at` (which must be distributed).
    Communicate { tensors: Vec<String>, at: IndexVar },
    /// Parallelize `target` within a processor.
    Parallelize {
        target: IndexVar,
        unit: ParallelUnit,
    },
}

/// Displays one command in the paper's scheduling-language spelling, with
/// index variables in their stable `iv<n>` form (see
/// [`IndexVar`](crate::vars::IndexVar)'s `Display`):
/// `divide(iv0, 4) -> (iv2, iv3)`, `distribute(iv2, dim 0)`, …
impl std::fmt::Display for SchedCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedCmd::Divide {
                target,
                outer,
                inner,
                pieces,
            } => write!(f, "divide({target}, {pieces}) -> ({outer}, {inner})"),
            SchedCmd::Fuse { a, b, fused } => write!(f, "fuse({a}, {b}) -> {fused}"),
            SchedCmd::Pos {
                target,
                result,
                tensor,
            } => write!(f, "pos({target}, {tensor}) -> {result}"),
            SchedCmd::Reorder(order) => {
                write!(f, "reorder(")?;
                for (k, v) in order.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            SchedCmd::Distribute {
                target,
                machine_dim,
            } => write!(f, "distribute({target}, dim {machine_dim})"),
            SchedCmd::Communicate { tensors, at } => {
                write!(f, "communicate([{}], at {at})", tensors.join(", "))
            }
            SchedCmd::Parallelize { target, unit } => write!(f, "parallelize({target}, {unit})"),
        }
    }
}

/// Errors raised while building or lowering a schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedError {
    UnknownVar(String),
    /// `fuse` requires its operands to be adjacent loops.
    NotAdjacent(String, String),
    /// `reorder` must permute exactly the current loop variables.
    NotAPermutation,
    UnknownTensor(String),
    /// `communicate` must name a distributed loop.
    CommunicateAtUndistributed(String),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::UnknownVar(v) => write!(f, "unknown index variable '{v}'"),
            SchedError::NotAdjacent(a, b) => {
                write!(f, "fuse requires adjacent loops, got '{a}', '{b}'")
            }
            SchedError::NotAPermutation => write!(f, "reorder must permute the loop variables"),
            SchedError::UnknownTensor(t) => write!(f, "unknown tensor '{t}'"),
            SchedError::CommunicateAtUndistributed(v) => {
                write!(f, "communicate at non-distributed loop '{v}'")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// An ordered list of scheduling commands, built fluently.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    cmds: Vec<SchedCmd>,
}

/// Displays the command list separated by `; ` (empty schedules print
/// `identity`) — the human-readable plan a cache key or
/// `CompiledProgram::describe()` listing embeds.
impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cmds.is_empty() {
            return write!(f, "identity");
        }
        for (k, cmd) in self.cmds.iter().enumerate() {
            if k > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{cmd}")?;
        }
        Ok(())
    }
}

impl Schedule {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn cmds(&self) -> &[SchedCmd] {
        &self.cmds
    }

    /// `divide(i, io, ii, pieces)`: creates and returns `(io, ii)`.
    pub fn divide(
        &mut self,
        ctx: &mut VarCtx,
        target: IndexVar,
        pieces: usize,
    ) -> (IndexVar, IndexVar) {
        let base = ctx.name(target).to_string();
        let outer = ctx.add(
            &format!("{base}o"),
            Derivation::DivideOuter {
                parent: target,
                inner: IndexVar(u32::MAX),
                pieces,
            },
        );
        let inner = ctx.add(
            &format!("{base}i"),
            Derivation::DivideInner {
                parent: target,
                outer,
                pieces,
            },
        );
        ctx.set_derivation(
            outer,
            Derivation::DivideOuter {
                parent: target,
                inner,
                pieces,
            },
        );
        self.cmds.push(SchedCmd::Divide {
            target,
            outer,
            inner,
            pieces,
        });
        (outer, inner)
    }

    /// `fuse(a, b)`: creates and returns the fused variable.
    pub fn fuse(&mut self, ctx: &mut VarCtx, a: IndexVar, b: IndexVar) -> IndexVar {
        let name = format!("{}{}", ctx.name(a), ctx.name(b));
        let fused = ctx.add(&name, Derivation::Fused { a, b });
        self.cmds.push(SchedCmd::Fuse { a, b, fused });
        fused
    }

    /// `pos(i, tensor)`: move `i` into `tensor`'s position space; returns the
    /// position-space variable.
    pub fn pos(&mut self, ctx: &mut VarCtx, target: IndexVar, tensor: &str) -> IndexVar {
        let name = format!("{}pos", ctx.name(target));
        let result = ctx.add(
            &name,
            Derivation::Pos {
                parent: target,
                tensor: tensor.to_string(),
            },
        );
        self.cmds.push(SchedCmd::Pos {
            target,
            result,
            tensor: tensor.to_string(),
        });
        result
    }

    pub fn reorder(&mut self, order: Vec<IndexVar>) -> &mut Self {
        self.cmds.push(SchedCmd::Reorder(order));
        self
    }

    pub fn distribute(&mut self, target: IndexVar, machine_dim: usize) -> &mut Self {
        self.cmds.push(SchedCmd::Distribute {
            target,
            machine_dim,
        });
        self
    }

    pub fn communicate(&mut self, tensors: &[&str], at: IndexVar) -> &mut Self {
        self.cmds.push(SchedCmd::Communicate {
            tensors: tensors.iter().map(|s| s.to_string()).collect(),
            at,
        });
        self
    }

    pub fn parallelize(&mut self, target: IndexVar, unit: ParallelUnit) -> &mut Self {
        self.cmds.push(SchedCmd::Parallelize { target, unit });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divide_names_and_derivations() {
        let mut ctx = VarCtx::new();
        let mut s = Schedule::new();
        let i = ctx.fresh("i");
        let (io, ii) = s.divide(&mut ctx, i, 4);
        assert_eq!(ctx.name(io), "io");
        assert_eq!(ctx.name(ii), "ii");
        match ctx.derivation(io) {
            Derivation::DivideOuter {
                parent,
                inner,
                pieces,
            } => {
                assert_eq!(*parent, i);
                assert_eq!(*inner, ii);
                assert_eq!(*pieces, 4);
            }
            d => panic!("unexpected {d:?}"),
        }
        assert_eq!(s.cmds().len(), 1);
    }

    #[test]
    fn schedules_display_human_readably() {
        let mut ctx = VarCtx::new();
        let mut s = Schedule::new();
        assert_eq!(s.to_string(), "identity");
        let [i, j] = ctx.fresh_n(["i", "j"]);
        let f = s.fuse(&mut ctx, i, j);
        let fp = s.pos(&mut ctx, f, "B");
        let (fo, fi) = s.divide(&mut ctx, fp, 8);
        s.reorder(vec![fo, fi])
            .distribute(fo, 0)
            .communicate(&["a", "B"], fo)
            .parallelize(fi, ParallelUnit::CpuThread);
        assert_eq!(
            s.to_string(),
            "fuse(iv0, iv1) -> iv2; pos(iv2, B) -> iv3; \
             divide(iv3, 8) -> (iv4, iv5); reorder(iv4, iv5); \
             distribute(iv4, dim 0); communicate([a, B], at iv4); \
             parallelize(iv5, CpuThread)"
        );
    }

    #[test]
    fn fuse_then_pos_is_position_space() {
        let mut ctx = VarCtx::new();
        let mut s = Schedule::new();
        let [i, j] = ctx.fresh_n(["i", "j"]);
        let f = s.fuse(&mut ctx, i, j);
        let fp = s.pos(&mut ctx, f, "B");
        assert_eq!(ctx.name(f), "ij");
        assert!(ctx.is_position_space(fp));
        assert_eq!(ctx.position_tensor(fp), Some("B"));
        // Dividing the position variable keeps position space.
        let (fpo, _fpi) = s.divide(&mut ctx, fp, 8);
        assert!(ctx.is_position_space(fpo));
    }
}
