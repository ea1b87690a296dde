//! The `Program` front-end: one typed entry point for the paper's whole
//! programming model.
//!
//! | Module | Responsibility |
//! |--------|----------------|
//! | `builder` | [`Program`], [`ScheduleSpec`]: declarations → [`Program::build`] |
//! | `auto` | the auto-scheduler: static choice, warm-up feedback, drift re-selection, [`AutoDecision`] and the three thresholds |
//! | `exec` | the one run path: [`CompiledProgram::run`]/[`run_iters`](CompiledProgram::run_iters)/[`run_iters_with`](CompiledProgram::run_iters_with)/[`run_incremental`](CompiledProgram::run_incremental) over one pass through a [`Session`](crate::Session); plan lookup, merge eligibility, retention proofs, report folding |
//! | this file | [`CompiledProgram`]'s state and accessors, the report types, `describe` |
//!
//! ```text
//! Program ── build ──► CompiledProgram ── run* ──► auto (schedules) ─► exec (plans, Session) ─► ProgramReport
//! ```
//!
//! ## Ownership
//!
//! - `CompiledProgram` owns the [`Context`], the per-statement results of
//!   the last pass, and a handle on a (possibly shared) [`PlanCache`].
//! - It does NOT own the plans (the cache does), the execution of a batch
//!   ([`Session`](crate::Session) does), a statement's timings (its
//!   [`ExecResult`] does: [`CompiledProgram::result`]), or tensor versions
//!   and dirty state (each registration in the [`Context`] does).
//!
//! Figure 1's pitch is that a user writes *four declarative things* — a
//! machine, tensor formats, a tensor index notation statement, and a
//! distribution/schedule — and the system does the rest. [`Program`] is
//! that surface in one builder:
//!
//! ```
//! use spdistal::prelude::*;
//! use spdistal_sparse::{dense_vector, generate};
//!
//! let pieces = 4;
//! let b = generate::banded(64, 5, 0);
//! let mut p = Program::on(Machine::grid1d(pieces, MachineProfile::lassen_cpu()))
//!     .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; 64]))
//!     .tensor("B", Format::blocked_csr(), b)
//!     .tensor("c", Format::replicated_dense_vec(), dense_vector(vec![1.0; 64]))
//!     .stmt("a(i) = B(i,j) * c(j)")
//!     .auto()
//!     .build()
//!     .unwrap();
//! let report = p.run().unwrap().clone();
//! assert_eq!(report.iterations, 1);
//! assert_eq!(report.compiles, 1);
//! assert!(p.result(0).unwrap().time > 0.0);
//! ```
//!
//! [`Program::build`] compiles the declarations into a [`CompiledProgram`]
//! that owns the [`Context`], a **plan cache** keyed by `(statement,
//! schedule, format signature)`, and the deferred-execution drive loop:
//! [`CompiledProgram::run`] submits every statement to a
//! [`Session`](crate::Session) (independent statements overlap; RAW chains
//! cut batches), [`CompiledProgram::run_iters`] repeats the whole program
//! without recompiling anything whose cache key is unchanged, and
//! [`CompiledProgram::report`] surfaces what happened — including every
//! [`AutoDecision`] the auto-scheduler took.
//!
//! ## Auto-scheduling
//!
//! [`ScheduleSpec::Auto`] closes the simplest form of the executor-feedback
//! loop the paper leaves to the user:
//!
//! 1. **Static choice** — from the driver tensor's non-zero statistics: if
//!    the equal outer-dimension blocks' nnz imbalance exceeds
//!    [`STATIC_IMBALANCE`], the statement gets the non-zero distribution of
//!    Section II-D outright; otherwise the Figure-1 outer-dimension
//!    (row/slice) distribution.
//! 2. **Warm-up feedback** — after the first iteration, statements still on
//!    the outer-dimension schedule are re-examined against the *compiled*
//!    plan's modeled partition imbalance ([`SWITCH_IMBALANCE`]) and the
//!    executor's measured counters (task skew above [`SWITCH_TASK_SKEW`]
//!    with real steals): if either says one color gates the launch, the
//!    statement is re-scheduled onto the non-zero distribution for every
//!    subsequent iteration. Each (re)selection is recorded as an
//!    [`AutoDecision`] in [`CompiledProgram::report`].
//!
//! The plan cache makes the re-selection cheap: the old and new schedules
//! key different entries, each compiled exactly once.
//!
//! ## Caching caveat
//!
//! Cache keys capture statements, schedules, formats, and — for every
//! tensor a statement reads — its dims and a hash of its sparsity
//! *pattern* (see [`SpTensor::pattern_hash`]),
//! because plans embed partitions derived from exactly that. Tensor
//! *values* are not part of the key, so dense factor updates and
//! value-only deltas keep hitting; a pattern change (a structural delta, a
//! tenant with different data) keys a different plan by itself. Entries for
//! patterns no longer in use stay cached until
//! [`CompiledProgram::clear_plan_cache`].

mod auto;
mod builder;
mod exec;

use std::sync::Arc;

use spdistal_ir::{Assignment, Format};
use spdistal_runtime::Trace;
use spdistal_sparse::SpTensor;

use crate::dist_tensor::{Context, Error};
use crate::engine::PlanCache;
use crate::plan::{ExecResult, OutputValue};
use crate::streaming::IncrementalStats;
use auto::Chosen;
use exec::RetainedOutput;

pub use auto::{AutoDecision, STATIC_IMBALANCE, SWITCH_IMBALANCE, SWITCH_TASK_SKEW};
pub use builder::{Program, ScheduleSpec};

/// Per-statement slice of a [`ProgramReport`]: the schedule selected now.
/// What the last execution did (simulated and wall time, launches, task
/// skew) is its [`ExecResult`]: [`CompiledProgram::result`].
#[derive(Clone, Debug)]
pub struct StmtReport {
    /// Which schedule family is currently selected.
    pub schedule_kind: &'static str,
    /// The concrete schedule, in scheduling-language syntax.
    pub schedule: String,
}

/// What a [`CompiledProgram`]'s runs did, cumulatively.
#[derive(Clone, Debug, Default)]
pub struct ProgramReport {
    /// Whole-program iterations executed so far.
    pub iterations: usize,
    /// Plans compiled (cache misses) so far.
    pub compiles: usize,
    /// Plan-cache hits so far.
    pub cache_hits: usize,
    /// Real wall-clock seconds summed over every flush.
    pub wall_seconds: f64,
    /// Pipelined batches over all iterations.
    pub batches: usize,
    /// Point tasks executed over all iterations.
    pub tasks: usize,
    /// Spans executed over all iterations.
    pub spans: usize,
    /// Work-stealing steals over all iterations.
    pub steals: usize,
    /// Worker threads used (max over flushes).
    pub threads: usize,
    /// Modeled sequential sum over all flushes (launch-at-a-time charge).
    pub model_seq_sum: f64,
    /// Modeled graph-ordered makespan summed over flushes.
    pub model_makespan: f64,
    /// Per-statement state after the most recent iteration.
    pub stmts: Vec<StmtReport>,
    /// Every auto-scheduler decision taken so far, in order.
    pub decisions: Vec<AutoDecision>,
}

impl ProgramReport {
    /// The decisions affecting one statement, in order.
    pub fn decisions_for(&self, stmt: usize) -> impl Iterator<Item = &AutoDecision> {
        self.decisions.iter().filter(move |d| d.stmt == stmt)
    }
}

struct ProgramStmt {
    stmt: Assignment,
    spec: ScheduleSpec,
    /// The currently selected concrete schedule. Built once per selection,
    /// so its `Display` form (hence the cache key) is stable across
    /// iterations.
    chosen: Option<Chosen>,
    /// Whether the warm-up feedback pass already ran for this statement
    /// (re-selection happens at most once).
    tuned: bool,
}

impl ProgramStmt {
    /// The selected schedule in scheduling-language syntax.
    fn schedule_text(&self) -> String {
        let chosen = self.chosen.as_ref();
        chosen.map_or_else(|| "<unselected>".to_string(), |c| c.schedule.to_string())
    }
}

/// A built program: context + plan cache + drive loop. Created by
/// [`Program::build`]; see the [module docs](self) for the full tour.
pub struct CompiledProgram {
    ctx: Context,
    stmts: Vec<ProgramStmt>,
    pipelined: bool,
    cache: Arc<PlanCache>,
    tenant: Option<String>,
    report: ProgramReport,
    /// Per-statement result of the most recent pass; a merging pass moves
    /// the output values out as its seed (and replaces the result).
    last_results: Vec<Option<ExecResult>>,
    /// Per-statement proof of what `last_results[k]` was computed from —
    /// what lets [`CompiledProgram::run_incremental`] merge into it.
    retained: Vec<Option<RetainedOutput>>,
    /// Per-statement telemetry of the most recent
    /// [`run_incremental`](CompiledProgram::run_incremental) pass.
    last_incremental: Vec<Option<IncrementalStats>>,
}

impl CompiledProgram {
    /// The underlying compilation context (low-level escape hatch).
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Mutable access to the context — for tensor data updates between
    /// iterations and other low-level needs. Re-registering a tensor the
    /// program reads re-keys its statements' plans by itself; see the
    /// module docs' caching caveat.
    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Statements in this program.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Re-register a tensor under a new format. Cached plans for
    /// statements touching it miss from now on (the format signature is
    /// part of the cache key) and recompile against the new declaration.
    /// Re-registration also drops tracked dirty state for `name` and bumps
    /// its version (in the context), so no statement that reads or writes
    /// it can merge into an output keyed to the old layout: the next
    /// incremental pass falls back for each of them.
    pub fn set_tensor_format(&mut self, name: &str, format: Format) -> Result<(), Error> {
        self.ctx.set_tensor_format(name, format)
    }

    /// Mutable access to a tensor's values (e.g. the CP-ALS factor-damping
    /// step between sweeps).
    pub fn tensor_data_mut(&mut self, name: &str) -> Result<&mut SpTensor, Error> {
        self.ctx.tensor_data_mut(name)
    }

    /// Apply a batch of coordinate deltas to a registered tensor and track
    /// the touched rows for the next
    /// [`run_incremental`](CompiledProgram::run_incremental) — see
    /// [`Context::update_batch`].
    pub fn update_batch(
        &mut self,
        name: &str,
        deltas: &[crate::streaming::CoordDelta],
    ) -> Result<crate::streaming::UpdateReport, Error> {
        self.ctx.update_batch(name, deltas)
    }

    /// The last run's result for statement `k` (`None` before the first
    /// run, and for a statement that did not finish a failed one).
    pub fn result(&self, k: usize) -> Option<&ExecResult> {
        self.last_results.get(k)?.as_ref()
    }

    /// The last run's output value for statement `k`.
    pub fn value(&self, k: usize) -> Option<&OutputValue> {
        self.result(k).map(|r| &r.output)
    }

    /// What every run so far did (cache traffic, executor counters,
    /// modeled times, auto-scheduler decisions).
    pub fn report(&self) -> &ProgramReport {
        &self.report
    }

    /// The program's structured trace handle (disabled unless attached via
    /// [`Program::trace`] or the `SPD_TRACE` environment variable).
    pub fn trace(&self) -> &Trace {
        self.ctx.trace()
    }

    /// Write the recorded trace as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`). A no-op `Ok(())` when tracing is
    /// disabled.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        self.ctx.trace().write_chrome_trace(path)
    }

    /// One-line JSON run report: event counts, counters, and histogram
    /// quantiles (p50/p95/p99) — grep-friendly for benches and CI.
    pub fn run_report_json(&self, name: &str) -> String {
        self.ctx.trace().run_report_json(name)
    }

    /// Drop every cached plan (they recompile on the next run) — the way
    /// to release entries keyed to patterns no longer in use; see the
    /// module docs' caching caveat. On a cache shared via
    /// [`Program::plan_cache`] / [`Engine`](crate::Engine) this affects
    /// every sharer.
    pub fn clear_plan_cache(&mut self) {
        self.cache.clear();
    }

    /// The plan cache this program admits lookups through — private by
    /// default, shared when built via [`Program::plan_cache`] or an
    /// [`Engine`](crate::Engine).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The tenant label attributed to this program's cache traffic, if
    /// any (see [`Program::tenant`]).
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// A human-readable dump of the program: statements, current
    /// schedules, cache keys, and the decision log.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program: {} statement(s) on {:?} procs; plan cache: {} entries, \
             {} compiles, {} hits",
            self.stmts.len(),
            self.ctx.machine().dims(),
            self.cache.len(),
            self.report.compiles,
            self.report.cache_hits,
        );
        for (k, ps) in self.stmts.iter().enumerate() {
            let _ = writeln!(out, "  [{k}] {}", ps.stmt);
            match &ps.chosen {
                Some(c) => {
                    let _ = writeln!(out, "      schedule ({}): {}", c.kind.label(), c.schedule);
                    let _ = writeln!(out, "      cache key: {}", self.cache_key(k));
                }
                None => {
                    let _ = writeln!(out, "      schedule: not yet selected");
                }
            }
            for name in ps.stmt.tensor_names() {
                if let Ok(t) = self.ctx.tensor(&name) {
                    let _ = writeln!(out, "      format {}: {}", name, t.format.signature());
                }
            }
        }
        if !self.report.decisions.is_empty() {
            let _ = writeln!(out, "  auto-scheduler decisions:");
            for d in &self.report.decisions {
                let _ = writeln!(out, "    {d}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::CoordDelta;
    use spdistal_runtime::{Machine, MachineProfile};
    use spdistal_sparse::{dense_vector, generate, reference};

    pub(super) const PIECES: usize = 4;

    pub(super) fn machine() -> Machine {
        Machine::grid1d(PIECES, MachineProfile::lassen_cpu())
    }

    pub(super) fn spmv_program(b: SpTensor, spec: ScheduleSpec) -> Program {
        let n = b.dims()[0];
        let c = generate::dense_vec(b.dims()[1], 5);
        Program::on(machine())
            .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
            .tensor("B", Format::blocked_csr(), b)
            .tensor("c", Format::replicated_dense_vec(), dense_vector(c))
            .stmt("a(i) = B(i,j) * c(j)")
            .schedule(spec)
    }

    pub(super) fn bits(p: &CompiledProgram, k: usize) -> Vec<u64> {
        p.value(k)
            .unwrap()
            .as_tensor()
            .unwrap()
            .vals()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn figure1_via_program_matches_reference() {
        let b = generate::banded(96, 5, 3);
        let c = generate::dense_vec(96, 5);
        let expect = reference::spmv(&b, &c);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        let got = p.value(0).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &expect, 1e-12));
        assert_eq!(p.report().compiles, 1);
        assert_eq!(p.report().iterations, 1);
    }

    #[test]
    fn run_iters_compiles_each_pair_exactly_once() {
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run_iters(5).unwrap();
        assert_eq!(p.report().iterations, 5);
        assert_eq!(p.report().compiles, 1, "one compile across 5 iterations");
        assert_eq!(p.report().cache_hits, 4);
    }

    #[test]
    fn format_change_misses_the_cache() {
        let b = generate::rmat_default(7, 900, 2);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        assert_eq!(p.report().compiles, 1);
        // Same statement, same schedule — different format signature.
        p.set_tensor_format("B", Format::nonzero_csr()).unwrap();
        p.run().unwrap();
        assert_eq!(
            p.report().compiles,
            2,
            "a re-declared format must miss the plan cache"
        );
        // And back: the original key (same data, same format) is still
        // cached — plan partitions depend only on statement, schedule, and
        // format, so reuse is sound and counted as a hit.
        p.set_tensor_format("B", Format::blocked_csr()).unwrap();
        p.run().unwrap();
        assert_eq!(p.report().compiles, 2);
        assert_eq!(p.report().cache_hits, 1);
    }

    #[test]
    fn chained_statements_cut_batches_and_see_writebacks() {
        let b = generate::banded(80, 5, 2);
        let n = b.dims()[0];
        let x0 = generate::dense_vec(n, 6);
        let x1 = reference::spmv(&b, &x0);
        let x2 = reference::spmv(&b, &x1);
        let mut p = Program::on(machine())
            .tensor("B", Format::blocked_csr(), b)
            .tensor("x0", Format::replicated_dense_vec(), dense_vector(x0))
            .tensor(
                "x1",
                Format::blocked_dense_vec(),
                dense_vector(vec![0.0; n]),
            )
            .tensor(
                "x2",
                Format::blocked_dense_vec(),
                dense_vector(vec![0.0; n]),
            )
            .stmt("x1(i) = B(i,j) * x0(j)")
            .schedule(ScheduleSpec::outer_dim())
            .stmt("x2(i) = B(i,j) * x1(j)")
            .schedule(ScheduleSpec::outer_dim())
            .build()
            .unwrap();
        p.run().unwrap();
        assert_eq!(p.report().batches, 2, "RAW chain must cut the flush");
        let got = p.value(1).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &x2, 1e-12));
        assert!(reference::approx_eq(
            p.context().tensor("x1").unwrap().data.vals(),
            &x1,
            1e-12
        ));
    }

    #[test]
    fn describe_names_schedules_and_cache_keys() {
        let b = generate::banded(64, 3, 8);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        let text = p.describe();
        assert!(text.contains("a(iv0) = B(iv0,iv1) * c(iv1)"), "{text}");
        assert!(text.contains("divide(iv0, 4)"), "{text}");
        assert!(text.contains("cache key:"), "{text}");
        assert!(text.contains("{Dense,Compressed} xy -> x"), "{text}");
    }

    #[test]
    fn set_tensor_format_invalidates_incremental_state() {
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        p.update_batch("B", &[CoordDelta::overwrite(vec![0, 0], 9.0)])
            .unwrap();
        // Re-registration drops the tracked dirty state and the retained
        // output: the next incremental pass must fall back, not merge into
        // a buffer keyed to the old format.
        p.set_tensor_format("B", Format::nonzero_csr()).unwrap();
        assert!(p.context().dirty_state("B").is_none());
        p.run_incremental().unwrap();
        let stats = p.last_incremental(0).unwrap();
        assert!(stats.fallback);
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let mut full = spmv_program(b2, ScheduleSpec::outer_dim()).build().unwrap();
        full.run().unwrap();
        assert_eq!(bits(&p, 0), bits(&full, 0));
    }

    #[test]
    fn incremental_chained_statements_stay_correct() {
        // x1 = B*x0; x2 = B*x1 — stmt 1's operand x1 is rewritten by stmt
        // 0 every pass, so it must fall back while stmt 0 merges.
        let b = generate::banded(80, 5, 2);
        let n = b.dims()[0];
        let x0 = generate::dense_vec(n, 6);
        let build = |b: SpTensor| {
            Program::on(machine())
                .tensor("B", Format::blocked_csr(), b)
                .tensor(
                    "x0",
                    Format::replicated_dense_vec(),
                    dense_vector(x0.clone()),
                )
                .tensor(
                    "x1",
                    Format::blocked_dense_vec(),
                    dense_vector(vec![0.0; n]),
                )
                .tensor(
                    "x2",
                    Format::blocked_dense_vec(),
                    dense_vector(vec![0.0; n]),
                )
                .stmt("x1(i) = B(i,j) * x0(j)")
                .schedule(ScheduleSpec::outer_dim())
                .stmt("x2(i) = B(i,j) * x1(j)")
                .schedule(ScheduleSpec::outer_dim())
                .build()
                .unwrap()
        };
        let mut p = build(b);
        p.run().unwrap();
        p.update_batch("B", &[CoordDelta::overwrite(vec![0, 0], 11.0)])
            .unwrap();
        p.run_incremental().unwrap();
        assert!(!p.last_incremental(0).unwrap().fallback);
        assert!(
            p.last_incremental(1).unwrap().fallback,
            "stmt 1 reads a rewritten operand and must fall back"
        );
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let mut full = build(b2);
        full.run().unwrap();
        assert_eq!(bits(&p, 0), bits(&full, 0));
        assert_eq!(bits(&p, 1), bits(&full, 1));
    }
}
