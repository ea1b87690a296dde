//! Lowering: scheduled tensor index notation → its [`DistributedLoop`]s.
//!
//! Starts from the statement's default loop order and replays the schedule's
//! transformations over it, validating each step. The result is what code
//! generation reads: the distributed loops of the final order, each with
//! whether it iterates coordinate values or non-zero positions — the
//! distinction that drives universe vs non-zero partitioning (Section
//! IV-C). `communicate` and `parallelize` are validated and leave nothing
//! behind: every tensor is communicated at the distributed loop.

use crate::expr::Assignment;
use crate::loop_ir::{DistributedLoop, IterKind};
use crate::schedule::{SchedCmd, SchedError, Schedule};
use crate::vars::{Derivation, IndexVar, VarCtx};

/// Lower `stmt` under `schedule`, consulting `ctx` for variable provenance:
/// the distributed loops, outermost first (none when nothing is
/// distributed).
pub fn lower(
    stmt: &Assignment,
    schedule: &Schedule,
    ctx: &VarCtx,
) -> Result<Vec<DistributedLoop>, SchedError> {
    let mut order: Vec<IndexVar> = stmt.default_loop_order();
    let mut distributed: Vec<(IndexVar, usize)> = Vec::new();
    let tensor_names = stmt.tensor_names();

    let find = |order: &[IndexVar], v: IndexVar| -> Result<usize, SchedError> {
        order
            .iter()
            .position(|&x| x == v)
            .ok_or_else(|| SchedError::UnknownVar(ctx.name(v).to_string()))
    };

    for cmd in schedule.cmds() {
        match cmd {
            SchedCmd::Divide {
                target,
                outer,
                inner,
                ..
            } => {
                let p = find(&order, *target)?;
                order.splice(p..=p, [*outer, *inner]);
            }
            SchedCmd::Fuse { a, b, fused } => {
                let pa = find(&order, *a)?;
                let pb = find(&order, *b)?;
                if pb != pa + 1 {
                    return Err(SchedError::NotAdjacent(
                        ctx.name(*a).to_string(),
                        ctx.name(*b).to_string(),
                    ));
                }
                order.splice(pa..=pb, [*fused]);
            }
            SchedCmd::Pos {
                target,
                result,
                tensor,
            } => {
                if !tensor_names.contains(tensor) {
                    return Err(SchedError::UnknownTensor(tensor.clone()));
                }
                let p = find(&order, *target)?;
                order[p] = *result;
            }
            SchedCmd::Reorder(new_order) => {
                let mut sorted_a = order.clone();
                let mut sorted_b = new_order.clone();
                sorted_a.sort_unstable();
                sorted_b.sort_unstable();
                if sorted_a != sorted_b {
                    return Err(SchedError::NotAPermutation);
                }
                order = new_order.clone();
            }
            SchedCmd::Distribute {
                target,
                machine_dim,
            } => {
                find(&order, *target)?;
                distributed.push((*target, *machine_dim));
            }
            SchedCmd::Communicate { tensors, at } => {
                find(&order, *at)?;
                if !distributed.iter().any(|(v, _)| v == at) {
                    return Err(SchedError::CommunicateAtUndistributed(
                        ctx.name(*at).to_string(),
                    ));
                }
                if let Some(t) = tensors.iter().find(|t| !tensor_names.contains(t)) {
                    return Err(SchedError::UnknownTensor(t.clone()));
                }
            }
            SchedCmd::Parallelize { target, .. } => {
                find(&order, *target)?;
            }
        }
    }

    Ok(order
        .iter()
        .filter_map(|&v| {
            let machine_dim = distributed.iter().find(|(x, _)| *x == v)?.1;
            let kind = match ctx.position_tensor(v) {
                Some(t) => IterKind::Position {
                    tensor: t.to_string(),
                },
                None => IterKind::Value,
            };
            let pieces = match ctx.derivation(v) {
                Derivation::DivideOuter { pieces, .. } => Some(*pieces),
                _ => None,
            };
            Some(DistributedLoop {
                var: v,
                kind,
                pieces,
                machine_dim,
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Access, Expr};
    use crate::schedule::ParallelUnit;

    fn spmv(ctx: &mut VarCtx) -> (Assignment, IndexVar, IndexVar) {
        let [i, j] = ctx.fresh_n(["i", "j"]);
        let stmt = Assignment::new(
            Access::new("a", &[i]),
            Expr::access("B", &[i, j]) * Expr::access("c", &[j]),
        );
        (stmt, i, j)
    }

    /// The row-based SpMV schedule of Figure 1.
    #[test]
    fn row_based_spmv_lowers() {
        let mut ctx = VarCtx::new();
        let (stmt, i, _j) = spmv(&mut ctx);
        let mut s = Schedule::new();
        let (io, ii) = s.divide(&mut ctx, i, 4);
        s.distribute(io, 0)
            .communicate(&["a", "B", "c"], io)
            .parallelize(ii, ParallelUnit::CpuThread);
        // Of the loops io, ii, j only io is distributed.
        let expect = DistributedLoop {
            var: io,
            kind: IterKind::Value,
            pieces: Some(4),
            machine_dim: 0,
        };
        assert_eq!(lower(&stmt, &s, &ctx), Ok(vec![expect]));
    }

    /// The non-zero-based SpMV schedule of Section II-D: fuse i and j, move
    /// to position space, divide the non-zeros, distribute.
    #[test]
    fn nonzero_based_spmv_lowers() {
        let mut ctx = VarCtx::new();
        let (stmt, i, j) = spmv(&mut ctx);
        let mut s = Schedule::new();
        let f = s.fuse(&mut ctx, i, j);
        let fp = s.pos(&mut ctx, f, "B");
        let (fo, _fi) = s.divide(&mut ctx, fp, 4);
        s.distribute(fo, 0).communicate(&["a", "B", "c"], fo);
        // Of the loops fo, fi only fo is distributed.
        let expect = DistributedLoop {
            var: fo,
            kind: IterKind::Position {
                tensor: "B".to_string(),
            },
            pieces: Some(4),
            machine_dim: 0,
        };
        assert_eq!(lower(&stmt, &s, &ctx), Ok(vec![expect]));
    }

    #[test]
    fn nothing_distributed_lowers_to_no_loop() {
        let mut ctx = VarCtx::new();
        let (stmt, i, _) = spmv(&mut ctx);
        let mut s = Schedule::new();
        let (_, ii) = s.divide(&mut ctx, i, 4);
        s.parallelize(ii, ParallelUnit::CpuThread);
        assert_eq!(lower(&stmt, &s, &ctx), Ok(vec![]));
    }

    #[test]
    fn parallelize_unknown_var_rejected() {
        let mut ctx = VarCtx::new();
        let (stmt, _, _) = spmv(&mut ctx);
        let mut s = Schedule::new();
        let ghost = ctx.fresh("ghost");
        s.parallelize(ghost, ParallelUnit::CpuThread);
        assert_eq!(
            lower(&stmt, &s, &ctx),
            Err(SchedError::UnknownVar("ghost".to_string()))
        );
    }

    #[test]
    fn fuse_nonadjacent_rejected() {
        let mut ctx = VarCtx::new();
        let [i, j, k] = ctx.fresh_n(["i", "j", "k"]);
        let stmt = Assignment::new(
            Access::new("A", &[i, j]),
            Expr::access("B", &[i, j, k]) * Expr::access("c", &[k]),
        );
        let mut s = Schedule::new();
        // i and k are not adjacent (j sits between them).
        s.fuse(&mut ctx, i, k);
        assert!(matches!(
            lower(&stmt, &s, &ctx),
            Err(SchedError::NotAdjacent(_, _))
        ));
    }

    #[test]
    fn reorder_validates_permutation() {
        let mut ctx = VarCtx::new();
        let (stmt, i, j) = spmv(&mut ctx);
        let mut s = Schedule::new();
        s.reorder(vec![j, i]).distribute(i, 0).distribute(j, 0);
        let vars: Vec<IndexVar> = lower(&stmt, &s, &ctx)
            .unwrap()
            .iter()
            .map(|l| l.var)
            .collect();
        assert_eq!(vars, [j, i], "outermost first, in the reordered nest");
        let mut s2 = Schedule::new();
        s2.reorder(vec![j]);
        assert_eq!(lower(&stmt, &s2, &ctx), Err(SchedError::NotAPermutation));
    }

    #[test]
    fn communicate_requires_distribution() {
        let mut ctx = VarCtx::new();
        let (stmt, i, _) = spmv(&mut ctx);
        let mut s = Schedule::new();
        s.communicate(&["B"], i);
        assert!(matches!(
            lower(&stmt, &s, &ctx),
            Err(SchedError::CommunicateAtUndistributed(_))
        ));
    }

    #[test]
    fn unknown_tensor_rejected() {
        let mut ctx = VarCtx::new();
        let (stmt, i, _) = spmv(&mut ctx);
        let mut s = Schedule::new();
        s.distribute(i, 0).communicate(&["Z"], i);
        assert_eq!(
            lower(&stmt, &s, &ctx),
            Err(SchedError::UnknownTensor("Z".to_string()))
        );
    }

    #[test]
    fn divide_unknown_var_rejected() {
        let mut ctx = VarCtx::new();
        let (stmt, _, _) = spmv(&mut ctx);
        let mut s = Schedule::new();
        let ghost = ctx.fresh("ghost");
        s.divide(&mut ctx, ghost, 2);
        assert!(matches!(
            lower(&stmt, &s, &ctx),
            Err(SchedError::UnknownVar(_))
        ));
    }
}
