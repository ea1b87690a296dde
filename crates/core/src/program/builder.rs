//! The declaration half of the `Program` front-end: what the user writes.
//!
//! | Item | Responsibility |
//! |------|----------------|
//! | [`Program`] | Builder collecting Figure 1's four declarations: machine, tensors + formats, TIN statements, schedules |
//! | [`ScheduleSpec`] | How one statement asks to be mapped: `Auto`, a canned family, or an explicit schedule |
//! | [`Program::build`] | Checks the declarations, registers tensors, parses statements → [`CompiledProgram`] |
//!
//! ## Ownership
//!
//! - Owns the declarations until `build`, and every *declaration-time*
//!   error (misused builder calls, TDN/TIN parse errors, unknown tensors
//!   in a `dist` override).
//! - Does NOT resolve a [`ScheduleSpec`] into a concrete schedule — that
//!   needs the registered tensor table and is `auto`'s job, lazily.
//! - Does NOT compile or run anything: plans are `exec`'s, on first run.

use std::sync::Arc;

use spdistal_ir::{parse_tin, tdn, Assignment, Format, ParallelUnit, Schedule, VarCtx};
use spdistal_runtime::{ExecMode, Machine, SplitPolicy, Tenant, Trace};
use spdistal_sparse::SpTensor;

use super::{CompiledProgram, ProgramReport, ProgramStmt};
use crate::dist_tensor::{Context, Error};
use crate::engine::PlanCache;
use crate::session::PassRecord;

/// How one statement is mapped onto the machine.
///
/// ```
/// use spdistal::ScheduleSpec;
/// // The default is the auto-scheduler.
/// assert!(matches!(ScheduleSpec::default(), ScheduleSpec::Auto));
/// ```
#[derive(Clone, Debug, Default)]
pub enum ScheduleSpec {
    /// Let the program choose (and re-choose) between the outer-dimension
    /// and non-zero distributions from nnz statistics and executor
    /// feedback. The default.
    #[default]
    Auto,
    /// The row/slice-based distribution of Figure 1 (`pieces` defaults to
    /// the extent of machine dimension 0).
    OuterDim {
        pieces: Option<usize>,
        unit: ParallelUnit,
    },
    /// The non-zero distribution of Section II-D. `driver` defaults to the
    /// first sparse right-hand-side tensor, `depth` to 2 (matrix non-zeros
    /// / 3-tensor tubes), `pieces` to machine dimension 0's extent.
    Nonzero {
        driver: Option<String>,
        depth: Option<usize>,
        pieces: Option<usize>,
        unit: ParallelUnit,
    },
    /// A schedule built by hand with the scheduling-language commands.
    Explicit(Schedule),
}

impl ScheduleSpec {
    /// The outer-dimension distribution with all defaults.
    pub fn outer_dim() -> Self {
        ScheduleSpec::OuterDim {
            pieces: None,
            unit: ParallelUnit::CpuThread,
        }
    }

    /// The non-zero distribution with all defaults.
    pub fn nonzero() -> Self {
        ScheduleSpec::Nonzero {
            driver: None,
            depth: None,
            pieces: None,
            unit: ParallelUnit::CpuThread,
        }
    }
}

enum StmtSource {
    Text(String),
    Built(Box<dyn FnOnce(&mut VarCtx) -> Assignment>),
}

struct StmtDecl {
    source: StmtSource,
    spec: ScheduleSpec,
}

/// The typed program builder — see the [module docs](super) for the
/// Figure-1 walkthrough. Declarations are checked at [`Program::build`];
/// builder methods themselves never fail.
pub struct Program {
    machine: Machine,
    exec_mode: ExecMode,
    split: SplitPolicy,
    pipelined: bool,
    trace: Option<Trace>,
    cache: Option<Arc<PlanCache>>,
    tenant: Option<String>,
    tensors: Vec<(String, SpTensor, Format)>,
    dists: Vec<String>,
    stmts: Vec<StmtDecl>,
    errors: Vec<String>,
}

impl Program {
    /// Start a program on `machine` (Figure 1's `Machine M(Grid(pieces))`).
    pub fn on(machine: Machine) -> Self {
        Program {
            machine,
            exec_mode: ExecMode::Serial,
            split: SplitPolicy::Auto,
            pipelined: true,
            trace: None,
            cache: None,
            tenant: None,
            tensors: Vec::new(),
            dists: Vec::new(),
            stmts: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Share a [`PlanCache`] with other programs: every `(statement,
    /// schedule, formats)` key any sharer compiled is a hit for all of
    /// them. Defaults to a fresh private cache; an
    /// [`Engine`](crate::Engine) wires its shared cache through here.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Label this program's cache traffic with a tenant name: lookups
    /// count under `tenant.<name>.plan_cache.{hit,miss}` on the trace, and
    /// plans it compiles are attributed to it for cross-tenant hit
    /// accounting (see [`PlanCache`]).
    pub fn tenant(mut self, name: &str) -> Self {
        self.tenant = Some(name.to_string());
        self
    }

    /// Attach a structured trace: every flush, launch, span, steal,
    /// plan-cache lookup, and auto-scheduler decision of the compiled
    /// program records into it (see [`spdistal_runtime::obs`]). Without
    /// this call the trace comes from the `SPD_TRACE` environment variable
    /// ([`Trace::from_env`]) and defaults to disabled — a disabled trace
    /// is a no-op handle with near-zero overhead.
    pub fn trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Declare a tensor with its format (levels + distribution) and data.
    pub fn tensor(mut self, name: &str, format: Format, data: SpTensor) -> Self {
        self.tensors.push((name.to_string(), data, format));
        self
    }

    /// Override a declared tensor's *distribution* with a TDN statement,
    /// e.g. `.dist("B xy (xy->f) -> ~f M")` — the tensor named in the
    /// statement keeps its level formats and gets the parsed distribution.
    pub fn dist(mut self, tdn_stmt: &str) -> Self {
        self.dists.push(tdn_stmt.to_string());
        self
    }

    /// Add a statement in TIN text, e.g. `"a(i) = B(i,j) * c(j)"`. Its
    /// schedule defaults to [`ScheduleSpec::Auto`]; follow with
    /// [`Program::schedule`] or [`Program::auto`] to change it.
    pub fn stmt(mut self, tin: &str) -> Self {
        self.stmts.push(StmtDecl {
            source: StmtSource::Text(tin.to_string()),
            spec: ScheduleSpec::default(),
        });
        self
    }

    /// Add a statement built programmatically against the program's
    /// variable context (the [`Expr`](spdistal_ir::Expr) builders):
    ///
    /// ```
    /// use spdistal::prelude::*;
    /// use spdistal::{access, assign};
    /// # use spdistal_sparse::{dense_vector, generate};
    /// # let b = generate::banded(32, 3, 1);
    /// let p = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu()))
    ///     # .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; 32]))
    ///     # .tensor("B", Format::blocked_csr(), b)
    ///     # .tensor("c", Format::replicated_dense_vec(), dense_vector(vec![1.0; 32]))
    ///     // ... .tensor(...) declarations ...
    ///     .stmt_with(|vars| {
    ///         let [i, j] = vars.fresh_n(["i", "j"]);
    ///         assign("a", &[i], access("B", &[i, j]) * access("c", &[j]))
    ///     });
    /// # p.build().unwrap().run().unwrap();
    /// ```
    pub fn stmt_with(mut self, build: impl FnOnce(&mut VarCtx) -> Assignment + 'static) -> Self {
        self.stmts.push(StmtDecl {
            source: StmtSource::Built(Box::new(build)),
            spec: ScheduleSpec::default(),
        });
        self
    }

    /// Set the most recently added statement's schedule.
    pub fn schedule(mut self, spec: ScheduleSpec) -> Self {
        match self.stmts.last_mut() {
            Some(decl) => decl.spec = spec,
            None => self.errors.push("schedule() before any stmt()".to_string()),
        }
        self
    }

    /// Let the auto-scheduler pick the most recent statement's mapping
    /// (equivalent to `.schedule(ScheduleSpec::Auto)`; with no statements
    /// yet it is a no-op, since `Auto` is already the default).
    pub fn auto(self) -> Self {
        if self.stmts.is_empty() {
            return self;
        }
        self.schedule(ScheduleSpec::Auto)
    }

    /// Select how leaf kernels execute (default [`ExecMode::Serial`]).
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Select how splittable colors chunk into spans (default
    /// [`SplitPolicy::Auto`]).
    pub fn split_policy(mut self, policy: SplitPolicy) -> Self {
        self.split = policy;
        self
    }

    /// Flush after every statement instead of overlapping a whole
    /// iteration through one deferred flush (the pre-`Session` behavior;
    /// useful for baselines and A/B runs).
    pub fn launch_at_a_time(mut self) -> Self {
        self.pipelined = false;
        self
    }

    /// Check and compile the declarations: materialize every tensor's
    /// initial distribution, parse/build every statement, and return the
    /// executable [`CompiledProgram`]. Schedules are resolved lazily (the
    /// auto-scheduler needs the tensor table), plans on first run.
    pub fn build(self) -> Result<CompiledProgram, Error> {
        if let Some(msg) = self.errors.into_iter().next() {
            return Err(Error::Unsupported(msg));
        }
        let mut tensors = self.tensors;
        for tdn_stmt in &self.dists {
            let parsed = tdn::parse(tdn_stmt)?;
            let decl = tensors
                .iter_mut()
                .find(|(name, ..)| *name == parsed.tensor)
                .ok_or_else(|| Error::UnknownTensor(parsed.tensor.clone()))?;
            decl.2.dist = parsed.dist;
        }
        let trace = self.trace.unwrap_or_else(Trace::from_env);
        let mut ctx = Context::new(self.machine)
            .with_exec_mode(self.exec_mode)
            .with_split_policy(self.split)
            .with_trace(trace);
        for (name, data, format) in tensors {
            ctx.add_tensor(&name, data, format)?;
        }
        let mut stmts = Vec::with_capacity(self.stmts.len());
        for decl in self.stmts {
            let stmt = match decl.source {
                StmtSource::Text(src) => parse_tin(&src, ctx.vars_mut())?,
                StmtSource::Built(build) => build(ctx.vars_mut()),
            };
            stmts.push(ProgramStmt {
                stmt,
                spec: decl.spec,
                chosen: None,
                tuned: false,
                key: None,
            });
        }
        let n = stmts.len();
        Ok(CompiledProgram {
            report: ProgramReport {
                stmts: stmts.iter().map(ProgramStmt::report).collect(),
                ..ProgramReport::default()
            },
            ctx,
            stmts,
            pipelined: self.pipelined,
            cache: self.cache.unwrap_or_else(PlanCache::shared),
            tenant: self.tenant.map(Tenant::new),
            last_results: vec![None; n],
            retained: vec![None; n],
            last_incremental: vec![None; n],
            record: PassRecord::default(),
            #[cfg(test)]
            pass_replay_off: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::machine;
    use super::*;
    use spdistal_sparse::{dense_vector, generate};

    #[test]
    fn text_and_builder_statements_agree() {
        let b = generate::banded(64, 3, 1);
        let c = generate::dense_vec(64, 5);
        let build = |textual: bool| {
            let program = Program::on(machine())
                .tensor(
                    "a",
                    Format::blocked_dense_vec(),
                    dense_vector(vec![0.0; 64]),
                )
                .tensor("B", Format::blocked_csr(), b.clone())
                .tensor("c", Format::replicated_dense_vec(), dense_vector(c.clone()));
            let program = if textual {
                program.stmt("a(i) = B(i,j) * c(j)")
            } else {
                program.stmt_with(|vars| {
                    let [i, j] = vars.fresh_n(["i", "j"]);
                    crate::api::assign(
                        "a",
                        &[i],
                        crate::api::access("B", &[i, j]) * crate::api::access("c", &[j]),
                    )
                })
            };
            let mut p = program.schedule(ScheduleSpec::outer_dim()).build().unwrap();
            p.run().unwrap();
            p.value(0).unwrap().as_tensor().unwrap().clone()
        };
        let (a, b) = (build(true), build(false));
        assert_eq!(a.vals(), b.vals());
    }

    #[test]
    fn dist_override_applies_tdn() {
        let b = generate::rmat_default(7, 800, 4);
        let mut p = super::super::tests::spmv_program(b, ScheduleSpec::outer_dim())
            .dist("B xy (xy->f) -> ~f M")
            .build()
            .unwrap();
        let sig = p.context().tensor("B").unwrap().format.signature();
        assert_eq!(sig, Format::nonzero_csr().signature());
        p.run().unwrap();
        // Unknown tensor in a TDN override is a typed error.
        let b2 = generate::rmat_default(7, 800, 4);
        let err = super::super::tests::spmv_program(b2, ScheduleSpec::outer_dim())
            .dist("Z xy -> x M")
            .build();
        assert!(matches!(err, Err(Error::UnknownTensor(_))));
    }

    #[test]
    fn builder_misuse_is_reported_at_build() {
        let err = Program::on(machine()).schedule(ScheduleSpec::Auto).build();
        assert!(matches!(err, Err(Error::Unsupported(_))));
        let err = Program::on(machine()).stmt("a(i) = ").build();
        assert!(matches!(err, Err(Error::Parse(_))));
    }
}
