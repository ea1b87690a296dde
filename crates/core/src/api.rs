//! The user-facing API, mirroring Figure 1 of the paper: declare a machine,
//! tensors with formats, a tensor index notation statement, and a schedule;
//! then compile and execute.
//!
//! Also provides the two canned schedule families the evaluation uses
//! everywhere: outer-dimension (row/slice) distribution and non-zero-based
//! distribution (Section II-D).

use spdistal_ir::{Access, Assignment, Expr, IndexVar, ParallelUnit, Schedule};

use crate::codegen::{self, Plan};
use crate::dist_tensor::{Context, Error};
use crate::plan::{self, ExecResult};

/// Build a tensor access expression: `access("B", &[i, j])` is `B(i,j)`.
///
/// A thin shim over [`Expr::access`] — the [`Program`](crate::Program)
/// front-end accepts the same notation as text (`.stmt("a(i) = B(i,j) *
/// c(j)")`), which is the preferred entry point; use this builder when
/// constructing statements programmatically (e.g. in a loop over modes).
pub fn access(tensor: &str, indices: &[IndexVar]) -> Expr {
    Expr::access(tensor, indices)
}

/// Build an assignment: `assign("a", &[i], rhs)` is `a(i) = rhs`.
///
/// A thin shim over [`Assignment::new`]; see [`access`] for how this
/// relates to the [`Program`](crate::Program) front-end.
pub fn assign(tensor: &str, indices: &[IndexVar], rhs: Expr) -> Assignment {
    Assignment::new(Access::new(tensor, indices), rhs)
}

impl Context {
    /// Compile a scheduled statement into an executable plan.
    pub fn compile(&self, stmt: &Assignment, schedule: &Schedule) -> Result<Plan, Error> {
        codegen::compile(self, stmt, schedule)
    }

    /// Execute a compiled plan, returning simulated timing and the output.
    pub fn run(&mut self, plan: &Plan) -> Result<ExecResult, Error> {
        plan::execute(self, plan)
    }

    /// Compile and execute in one step.
    pub fn compile_and_run(
        &mut self,
        stmt: &Assignment,
        schedule: &Schedule,
    ) -> Result<ExecResult, Error> {
        let plan = self.compile(stmt, schedule)?;
        self.run(&plan)
    }

    /// Pre-stage a plan's input partitions: attach every color's sub-regions
    /// to the owning processor's memory at no modeled cost, matching the
    /// paper's methodology of establishing an initial data distribution
    /// *matched to the computation distribution* before the timed region
    /// (Section II-D). Fails with OOM if a processor cannot hold its share.
    pub fn prestage(&mut self, plan: &Plan) -> Result<(), Error> {
        for input in &plan.inputs {
            let regions = self.tensor(&input.tensor)?.regions.clone();
            for color in 0..plan.colors {
                let proc = plan::owner_proc(self, plan, color)?;
                for (region, subset) in regions.footprint(&input.part, color) {
                    self.runtime_mut().attach(region, proc, subset.clone())?;
                }
            }
        }
        Ok(())
    }
}

/// The row/slice-based distributed schedule of Figure 1: divide the first
/// lhs index variable into `pieces` blocks, distribute the blocks over
/// machine dimension 0, communicate every tensor at the distributed loop,
/// and parallelize the inner blocks over `unit`.
pub fn schedule_outer_dim(
    ctx: &mut Context,
    stmt: &Assignment,
    pieces: usize,
    unit: ParallelUnit,
) -> Schedule {
    let i = stmt.lhs.indices[0];
    let mut s = Schedule::new();
    let (io, ii) = s.divide(ctx.vars_mut(), i, pieces);
    let tensors = stmt.tensor_names();
    let names: Vec<&str> = tensors.iter().map(String::as_str).collect();
    s.distribute(io, 0)
        .communicate(&names, io)
        .parallelize(ii, unit);
    s
}

/// The non-zero-based distributed schedule of Section II-D: reorder the
/// driver's index variables to the front, fuse the first `depth` of them,
/// move the fused variable into the driver's position space, divide the
/// non-zeros into `pieces`, distribute, and communicate.
///
/// `depth = 2` splits matrix non-zeros (or 3-tensor tubes); `depth = 3`
/// splits 3-tensor values.
pub fn schedule_nonzero(
    ctx: &mut Context,
    stmt: &Assignment,
    driver: &str,
    depth: usize,
    pieces: usize,
    unit: ParallelUnit,
) -> Result<Schedule, Error> {
    let driver_access = stmt
        .rhs
        .accesses()
        .into_iter()
        .find(|a| a.tensor == driver)
        .ok_or_else(|| Error::UnknownTensor(driver.to_string()))?
        .clone();
    let mut order: Vec<IndexVar> = driver_access.indices.clone();
    for v in stmt.default_loop_order() {
        if !order.contains(&v) {
            order.push(v);
        }
    }
    let mut s = Schedule::new();
    s.reorder(order);
    let mut fused = driver_access.indices[0];
    for k in 1..depth.min(driver_access.indices.len()) {
        fused = s.fuse(ctx.vars_mut(), fused, driver_access.indices[k]);
    }
    let fp = s.pos(ctx.vars_mut(), fused, driver);
    let (fo, fi) = s.divide(ctx.vars_mut(), fp, pieces);
    let tensors = stmt.tensor_names();
    let names: Vec<&str> = tensors.iter().map(String::as_str).collect();
    s.distribute(fo, 0)
        .communicate(&names, fo)
        .parallelize(fi, unit);
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdistal_ir::Format;
    use spdistal_runtime::{Machine, MachineProfile};
    use spdistal_sparse::{dense_vector, generate, reference};

    #[test]
    fn figure1_spmv_end_to_end() {
        // Figure 1, line by line (in Rust).
        let pieces = 4;
        let machine = Machine::grid1d(pieces, MachineProfile::lassen_cpu());
        let mut ctx = Context::new(machine);

        let (n, m) = (128usize, 128usize);
        let b = generate::rmat_default(7, 1000, 1);
        assert_eq!(b.dims(), &[n, m]);
        let cdata = generate::dense_vec(m, 2);

        ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
            .unwrap();
        ctx.add_tensor("B", b.clone(), Format::blocked_csr())
            .unwrap();
        ctx.add_tensor(
            "c",
            dense_vector(cdata.clone()),
            Format::replicated_dense_vec(),
        )
        .unwrap();

        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
        let sched = schedule_outer_dim(&mut ctx, &stmt, pieces, ParallelUnit::CpuThread);
        let result = ctx.compile_and_run(&stmt, &sched).unwrap();

        let expect = reference::spmv(&b, &cdata);
        let got = result.output.as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &expect, 1e-12));
        assert!(result.time > 0.0);
    }

    #[test]
    fn nonzero_spmv_matches_and_reduces() {
        let pieces = 8;
        let machine = Machine::grid1d(pieces, MachineProfile::lassen_cpu());
        let mut ctx = Context::new(machine);
        let b = generate::rmat_default(7, 1500, 3);
        let (n, m) = (b.dims()[0], b.dims()[1]);
        let cdata = generate::dense_vec(m, 4);
        ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
            .unwrap();
        ctx.add_tensor("B", b.clone(), Format::nonzero_csr())
            .unwrap();
        ctx.add_tensor(
            "c",
            dense_vector(cdata.clone()),
            Format::replicated_dense_vec(),
        )
        .unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
        let sched =
            schedule_nonzero(&mut ctx, &stmt, "B", 2, pieces, ParallelUnit::CpuThread).unwrap();
        let plan = ctx.compile(&stmt, &sched).unwrap();
        // Non-zero split: output coordinates alias at boundaries -> reduce.
        assert!(plan.output.reduce);
        let result = ctx.run(&plan).unwrap();
        let expect = reference::spmv(&b, &cdata);
        assert!(reference::approx_eq(
            result.output.as_tensor().unwrap().vals(),
            &expect,
            1e-12
        ));
    }
}
