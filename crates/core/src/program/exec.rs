//! The drive loop: one pass of a compiled program through a [`Session`].
//!
//! | Step of [`CompiledProgram::pass`] | Responsibility |
//! |------|----------------|
//! | schedules | ask `auto` for drift re-selection and any missing schedule |
//! | plans | one cache lookup (or compile) per statement under its [`PlanKey`], memoised ([`KeyMemo`]): the key string is rendered again only when the selection, a named tensor's `Format`, or a read tensor's dims or pattern hash changed; a hit still goes through `PlanCache::lookup`, so hit counts and tenant attribution are unchanged |
//! | run modes | [`eligibility`]: per statement, merge into the previous output or run full — decided up front from pre-pass state, never during execution |
//! | session | resume the last pass's record (what its session described: per statement the requirement lists, owner processors, span cuts and leaf, per batch the dependence graph — `session::PassRecord`), submit every statement with its merge seed, if any, and — while its plan key is unchanged — what its previous write-back left (the output version; for SpAdd3 also the inputs' pattern arrays), which lets the write-back go by value; one flush when pipelined, one per statement otherwise; keep the record for the next pass |
//! | bookkeeping | move results out of the session, record retention proofs, consume dirty state, fold flush reports — once |
//!
//! ```text
//! run / run_iters / run_iters_with ─┐
//!                                   ├─► iterate ─► pass(merge) ─► hook ─► warm-up feedback
//! run_incremental ──────────────────┘
//! ```
//!
//! ## Ownership
//!
//! - Owns the four run verbs, the plan-cache key, the retention
//!   *proof* ([`RetainedOutput`]: versions and key, no values), the typed
//!   [`Fallback`] reasons, and `ProgramReport`'s cumulative counters.
//! - Does NOT own the retained *values*: a merging pass takes them out of
//!   the previous pass's [`ExecResult`], which it replaces anyway.
//! - Does NOT own the merge mechanism (seeding, zeroing, the per-color
//!   `rerun` mask — [`crate::plan`]), batching or model replay
//!   ([`crate::session`]), versions and dirty maps (each registration in
//!   the [`Context`]), a statement's timings (its [`ExecResult`](crate::ExecResult)),
//!   or schedule choice (`auto`).
//! - A full run is the degenerate incremental run: `run()` is a pass in
//!   which every statement's mode is [`Fallback::FullRequested`] — the
//!   simulator must charge every color, which is the paper's cost model.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use spdistal_ir::{Format, ParallelUnit};
use spdistal_runtime::Tenant;

use super::auto::{Chosen, ChosenKind};
use super::{CompiledProgram, ProgramReport, ScheduleSpec};
use crate::codegen::Plan;
use crate::dist_tensor::{Context, Error};
use crate::engine::PlanKey;
use crate::plan::{LastWrite, MergeSeed};
use crate::session::{FlushReport, Session, TensorFuture};
use crate::streaming::{DirtyMap, IncrementalStats, TensorDirty, FALLBACK_DIRTY_RATIO};

/// What a pass records per statement, before it runs: the statement's
/// inputs and the tensor states its output is about to be computed from (a
/// rewrite during the pass therefore invalidates it). The next pass's
/// [`eligibility`] compares it with its own. The output values themselves
/// stay in the pass's [`ExecResult`](crate::ExecResult).
#[derive(Clone, Debug)]
pub(crate) struct RetainedOutput {
    /// The tensor the statement writes.
    pub output: String,
    /// The distinct tensors it reads, in right-hand-side order, each with
    /// its version.
    pub reads: Vec<(String, u64)>,
    /// The first sparse one of those — the operand whose rows key the
    /// colors, and the only one whose tracked deltas can be merged.
    pub driver: Option<String>,
    /// Plan-cache key the statement runs under; a schedule, format or
    /// pattern change re-keys the plan and drops eligibility.
    pub plan_key: Arc<PlanKey>,
}

/// What a plan key is built from, per tensor a statement names: its format
/// and — for a tensor the statement reads — its dims and pattern hash;
/// `None` for a name nothing is registered under.
type KeyInput = Option<(Format, Option<(Vec<usize>, u64)>)>;

/// Statement `k`'s plan key and what it was built from
/// ([`CompiledProgram::cache_key`]).
pub(super) struct KeyMemo {
    pub key: Arc<PlanKey>,
    inputs: Vec<(String, KeyInput)>,
}

/// Why a statement ran in full instead of merging into its previous
/// output. `Display` is the text of
/// [`IncrementalStats::reason`](crate::IncrementalStats); the `String`s
/// name the tensor at fault.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Fallback {
    /// The pass was not entered through `run_incremental`.
    FullRequested,
    OutputOnRhs,
    /// An earlier statement of the same program writes this input, so it
    /// changes during the pass — known from the statement list alone.
    InputRewrittenInPass(String),
    NoRetainedProof,
    Structural(String),
    PlanKeyChanged,
    /// A non-driver input's version: `(input, now, retained)`.
    ForeignInputMoved(String, u64, u64),
    DriverMutatedOutside(String),
    LineageBroken(String),
    DirtyRatio(f64),
    /// Decided by the prepared plan, not by [`eligibility`]: reduction and
    /// assembled outputs have no shared buffer to seed.
    NoInPlaceOutput,
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Fallback::*;
        match self {
            FullRequested => write!(f, "full pass requested"),
            OutputOnRhs => write!(f, "output tensor also appears on the right-hand side"),
            InputRewrittenInPass(t) => {
                write!(f, "input '{t}' is rewritten earlier in the same pass")
            }
            NoRetainedProof => write!(f, "no retained output from a previous run"),
            Structural(t) => write!(f, "structural deltas on driver '{t}'"),
            PlanKeyChanged => write!(f, "schedule or format changed since the retained run"),
            ForeignInputMoved(t, now, was) => {
                write!(f, "input '{t}' changed (version {now} != retained {was})")
            }
            DriverMutatedOutside(t) => write!(f, "driver '{t}' mutated outside update_batch"),
            LineageBroken(t) => {
                write!(
                    f,
                    "driver '{t}' version lineage broken by an untracked mutation"
                )
            }
            DirtyRatio(r) => write!(f, "dirty ratio {r:.2} > {FALLBACK_DIRTY_RATIO:.2}"),
            NoInPlaceOutput => write!(f, "plan has no in-place output to merge into"),
        }
    }
}

/// May statement `k` merge into its previous output, and if so which driver
/// rows must re-run? Pure: compares what the statement recorded last pass
/// (`retained`) with what every statement records for this one (`now`) and
/// the driver's tracked deltas; executes nothing.
///
/// `Ok` means every observable input is provably what the previous output
/// was computed from, except value-only tracked deltas on the driver — the
/// returned rows (none for a clean driver: every color skips).
pub(crate) fn eligibility(
    merge: bool,
    now: &[RetainedOutput],
    k: usize,
    retained: Option<&RetainedOutput>,
    tracked: Option<&TensorDirty>,
) -> Result<DirtyMap, Fallback> {
    let this = &now[k];
    if !merge {
        return Err(Fallback::FullRequested);
    }
    if this.reads.iter().any(|(t, _)| *t == this.output) {
        return Err(Fallback::OutputOnRhs);
    }
    let rewritten = |t: &str| now[..k].iter().any(|earlier| earlier.output == t);
    if let Some((t, _)) = this.reads.iter().find(|(t, _)| rewritten(t)) {
        return Err(Fallback::InputRewrittenInPass(t.clone()));
    }
    let Some(ret) = retained else {
        return Err(Fallback::NoRetainedProof);
    };
    let driver = this.driver.as_deref().unwrap_or_default();
    // Before the key check: a structural delta also re-keys the plan (the
    // pattern is part of the key), and this is the more useful reason.
    if tracked.is_some_and(|td| td.structural) {
        return Err(Fallback::Structural(driver.to_string()));
    }
    if ret.plan_key != this.plan_key {
        return Err(Fallback::PlanKeyChanged);
    }
    let version = |of: &RetainedOutput, t: &str| {
        let read = of.reads.iter().find(|(name, _)| name == t);
        read.map_or(0, |(_, v)| *v)
    };
    for (t, was) in ret.reads.iter().filter(|(t, _)| t != driver) {
        let current = version(this, t);
        if current != *was {
            return Err(Fallback::ForeignInputMoved(t.clone(), current, *was));
        }
    }
    let (was, current) = (version(ret, driver), version(this, driver));
    match tracked {
        None if current != was => Err(Fallback::DriverMutatedOutside(driver.to_string())),
        None => Ok(DirtyMap::default()),
        Some(td) if td.from_version != was || current != td.tracked_version => {
            Err(Fallback::LineageBroken(driver.to_string()))
        }
        Some(td) if td.map.ratio() > FALLBACK_DIRTY_RATIO => {
            Err(Fallback::DirtyRatio(td.map.ratio()))
        }
        Some(td) => Ok(td.map.clone()),
    }
}

/// Submit every statement and flush: once when pipelined (independent
/// statements share a batch, RAW chains cut it), after each statement
/// otherwise. On an error `futures` holds what was submitted so far.
fn drive(
    session: &mut Session<'_>,
    queued: Vec<(Arc<Plan>, Option<MergeSeed>, Option<LastWrite>)>,
    pipelined: bool,
    futures: &mut Vec<TensorFuture>,
) -> Result<Vec<FlushReport>, Error> {
    let mut flushes = Vec::new();
    for (plan, seed, last_write) in queued {
        futures.push(session.submit_merging(plan, seed, last_write));
        if !pipelined {
            flushes.push(session.flush()?);
        }
    }
    if pipelined {
        flushes.push(session.flush()?);
    }
    Ok(flushes)
}

impl CompiledProgram {
    /// Execute the whole program once, every color of every statement — a
    /// full pass, whatever deltas are tracked (the simulator charges what
    /// runs, and a full run is the paper's cost model). Statements flow
    /// through one deferred [`Session`] flush (unless built
    /// [`launch_at_a_time`](super::Program::launch_at_a_time)), so
    /// independent statements overlap and RAW chains cut batches exactly as
    /// [`Session`] documents — outputs are bit-identical to launch-at-a-
    /// time serial execution.
    pub fn run(&mut self) -> Result<&ProgramReport, Error> {
        self.run_iters(1)
    }

    /// Execute the whole program `iters` times. Every (statement,
    /// schedule, formats) triple compiles **exactly once** across all
    /// iterations; the auto-scheduler's warm-up feedback runs after the
    /// first iteration and may re-select schedules for the rest.
    pub fn run_iters(&mut self, iters: usize) -> Result<&ProgramReport, Error> {
        self.run_iters_with(iters, |_, _| Ok(()))
    }

    /// [`run_iters`](CompiledProgram::run_iters) with a between-iteration
    /// hook: `hook(ctx, iter)` runs after iteration `iter`'s flush (all
    /// write-backs landed) and before the next iteration — the place for
    /// CP-ALS-style factor updates that feed one sweep into the next:
    ///
    /// ```
    /// # use spdistal::prelude::*;
    /// # use spdistal_sparse::{dense_vector, generate};
    /// # let b = generate::banded(32, 3, 1);
    /// # let mut p = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu()))
    /// #     .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; 32]))
    /// #     .tensor("B", Format::blocked_csr(), b)
    /// #     .tensor("c", Format::replicated_dense_vec(), dense_vector(vec![1.0; 32]))
    /// #     .stmt("a(i) = B(i,j) * c(j)")
    /// #     .build()
    /// #     .unwrap();
    /// p.run_iters_with(3, |ctx, _iter| {
    ///     // Feed this iteration's output back into the next one's input.
    ///     let a = ctx.tensor("a")?.data.vals().to_vec();
    ///     ctx.tensor_data_mut("c")?.vals_mut().copy_from_slice(&a);
    ///     Ok(())
    /// })
    /// .unwrap();
    /// assert_eq!(p.report().compiles, 1); // still one compile
    /// ```
    pub fn run_iters_with(
        &mut self,
        iters: usize,
        mut hook: impl FnMut(&mut Context, usize) -> Result<(), Error>,
    ) -> Result<&ProgramReport, Error> {
        for _ in 0..iters {
            self.iterate(false, &mut hook)?;
        }
        Ok(&self.report)
    }

    /// Execute the whole program once, re-using each statement's previous
    /// output where the tracked delta state proves it sound: only the
    /// colors whose driver rows intersect the dirty set re-execute, the
    /// rest keep their values. Statements that cannot take the fast path
    /// fall back to a full recompute — either way the result is
    /// bit-identical to [`run`](CompiledProgram::run) on the same data, and
    /// statements batch and pipeline exactly as they do there.
    ///
    /// Every pass is trace-instrumented with
    /// `incremental.{runs,rows_dirty,spans_reexecuted,spans_skipped,fallbacks}`
    /// counters and an `Event::IncrementalRun` per statement, and
    /// [`last_incremental`](CompiledProgram::last_incremental) reports
    /// per-statement what happened and why (see `docs/streaming.md` for the
    /// table of fallback reasons).
    pub fn run_incremental(&mut self) -> Result<&ProgramReport, Error> {
        self.iterate(true, &mut |_, _| Ok(()))?;
        Ok(&self.report)
    }

    /// Telemetry of statement `k`'s most recent
    /// [`run_incremental`](CompiledProgram::run_incremental) pass (`None`
    /// before the first incremental run).
    pub fn last_incremental(&self, k: usize) -> Option<&IncrementalStats> {
        self.last_incremental.get(k)?.as_ref()
    }

    /// One iteration, whichever verb asked for it: the pass, the
    /// between-iteration hook, and — after iteration 0 only — the
    /// auto-scheduler's warm-up feedback.
    fn iterate(
        &mut self,
        merge: bool,
        hook: &mut impl FnMut(&mut Context, usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let iter = self.report.iterations;
        self.pass(merge)?;
        hook(&mut self.ctx, iter)?;
        if iter == 0 {
            self.warmup_feedback();
        }
        Ok(())
    }

    /// One whole-program pass through a deferred session. `merge` lets
    /// eligible statements re-run only their dirty colors. A statement
    /// whose pass fails is left with no result and no retention proof.
    fn pass(&mut self, merge: bool) -> Result<(), Error> {
        let t0 = Instant::now();
        #[cfg(test)]
        if self.pass_replay_off {
            self.record = Default::default();
            self.stmts.iter_mut().for_each(|ps| ps.key = None);
        }
        // Accumulated streamed deltas can invalidate an earlier outer-dim
        // pick on either verb.
        self.drift_reselect()?;
        self.ensure_schedules()?;
        let n = self.stmts.len();
        let plans: Vec<(Arc<PlanKey>, Arc<Plan>)> = (0..n)
            .map(|k| self.ensure_plan(k))
            .collect::<Result<_, _>>()?;

        // Decide every statement's run mode up front, from pre-pass state.
        let (proofs, plans): (Vec<RetainedOutput>, Vec<Arc<Plan>>) = plans
            .into_iter()
            .enumerate()
            .map(|(k, (key, plan))| (self.proof(k, key), plan))
            .unzip();
        let mut fallbacks = Vec::with_capacity(n);
        let mut queued = Vec::with_capacity(n);
        for (k, plan) in plans.into_iter().enumerate() {
            let (retained, previous) = (self.retained[k].take(), self.last_results[k].take());
            let tracked = self.tracked(&proofs[k]);
            let mode = eligibility(merge, &proofs, k, retained.as_ref(), tracked);
            // What the statement's previous write-back left, while the plan
            // is the one that wrote it; the write-back itself compares it
            // with the output (and SpAdd3's inputs) then.
            let last_write = match (&retained, &previous) {
                (Some(ret), Some(prev)) if ret.plan_key == proofs[k].plan_key => {
                    Some(prev.written.clone())
                }
                _ => None,
            };
            let (seed, fallback) = match (mode, previous) {
                (Ok(dirty), Some(previous)) => {
                    let vals = previous.output.into_vals();
                    (Some(MergeSeed { vals, dirty }), None)
                }
                (Ok(_), None) => (None, Some(Fallback::NoRetainedProof)),
                (Err(fallback), _) => (None, Some(fallback)),
            };
            fallbacks.push(fallback);
            queued.push((plan, seed, last_write));
        }

        let mut futures = Vec::with_capacity(n);
        let flushes = {
            let mut session = Session::resume(&mut self.ctx, std::mem::take(&mut self.record));
            let flushes = drive(&mut session, queued, self.pipelined, &mut futures);
            let mut results = futures.iter().map(|f| session.take(f).ok());
            self.last_results.fill_with(|| results.next().flatten());
            self.record = session.into_record();
            flushes?
        };
        if merge {
            self.record_incremental(&proofs, fallbacks);
        }
        self.retained = proofs.into_iter().map(Some).collect();
        // Every consumer is now up to date with every tracked delta.
        self.ctx.clear_all_dirty();

        let r = &mut self.report;
        r.iterations += 1;
        for f in flushes {
            r.batches += f.batches;
            r.wall_seconds += f.sched.wall_seconds;
            r.tasks += f.sched.tasks;
            r.spans += f.sched.spans;
            r.steals += f.sched.steals;
            r.threads = r.threads.max(f.sched.threads);
            r.model_seq_sum += f.model_seq_sum();
            r.model_makespan += f.model_makespan();
        }
        let trace = self.ctx.trace();
        trace.observe_ns("iter_ns", t0.elapsed().as_nanos() as u64);
        trace.add("iterations", 1);
        Ok(())
    }

    /// Publish what an incremental pass did, per statement: the stats
    /// behind [`last_incremental`](CompiledProgram::last_incremental), the
    /// `Event::IncrementalRun` and the `incremental.*` counters. Reads the
    /// dirty state, so it runs before the pass consumes it.
    fn record_incremental(&mut self, proofs: &[RetainedOutput], fallbacks: Vec<Option<Fallback>>) {
        for (k, fallback) in fallbacks.into_iter().enumerate() {
            let Some(merge) = self.last_results[k].as_ref().map(|r| r.merge) else {
                continue;
            };
            let fallback =
                fallback.or_else(|| (!merge.merged).then_some(Fallback::NoInPlaceOutput));
            let stats = IncrementalStats {
                stmt: k,
                rows_dirty: self.tracked(&proofs[k]).map_or(0, |td| td.map.dirty_rows()),
                spans_reexecuted: merge.spans_reexecuted,
                spans_skipped: merge.spans_skipped,
                fallback: fallback.is_some(),
                reason: fallback.map_or_else(
                    || {
                        format!(
                            "incremental: {} span(s) re-executed, {} skipped",
                            merge.spans_reexecuted, merge.spans_skipped
                        )
                    },
                    |f| f.to_string(),
                ),
            };
            self.ctx.trace().incremental_run(
                k as u32,
                stats.rows_dirty as u64,
                stats.spans_reexecuted as u64,
                stats.spans_skipped as u64,
                stats.fallback,
            );
            self.last_incremental[k] = Some(stats);
        }
    }

    // ---- plan cache -----------------------------------------------------

    /// The cache key of statement `k`'s current selection: statement text,
    /// schedule text, and per referenced tensor its format signature —
    /// plus, for every tensor the statement *reads*, its dims and
    /// [`pattern_hash`](spdistal_sparse::SpTensor::pattern_hash), because the plan
    /// embeds partitions derived from exactly that. A tensor that is only
    /// written contributes no hash, so per-run output write-backs cost
    /// nothing here. The memo keeps what the key was built from.
    pub(super) fn cache_key(&self, k: usize) -> KeyMemo {
        let ps = &self.stmts[k];
        let reads = ps.stmt.rhs.accesses();
        let input = |name: String| {
            let read = reads.iter().any(|a| a.tensor == name);
            let input = self.ctx.tensor(&name).ok().map(|t| {
                let read = read.then(|| (t.data.dims().to_vec(), t.data.pattern_hash()));
                (t.format.clone(), read)
            });
            (name, input)
        };
        let inputs: Vec<(String, KeyInput)> =
            ps.stmt.tensor_names().into_iter().map(input).collect();
        let formats: Vec<String> = inputs
            .iter()
            .map(|(name, input)| match input {
                Some((format, Some((dims, hash)))) => {
                    format!("{name}={} @{dims:?}#{hash:016x}", format.signature())
                }
                Some((format, None)) => format!("{name}={}", format.signature()),
                None => format!("{name}=<unknown>"),
            })
            .collect();
        let key = PlanKey::new(ps.stmt.to_string(), ps.schedule_text(), formats.join("; "));
        let key = Arc::new(key);
        KeyMemo { key, inputs }
    }

    /// Statement `k`'s plan key: the memoised one while every tensor it
    /// names still has the format, dims and pattern hash it was built from
    /// (a selection clears the memo), else [`cache_key`](Self::cache_key)
    /// afresh.
    fn plan_key(&mut self, k: usize) -> Arc<PlanKey> {
        let holds = |(name, then): &(String, KeyInput)| match (self.ctx.tensor(name), then) {
            (Ok(t), Some((format, read))) => {
                let same = |(dims, hash): &(Vec<usize>, u64)| {
                    t.data.dims() == dims.as_slice() && t.data.pattern_hash() == *hash
                };
                t.format == *format && read.as_ref().is_none_or(same)
            }
            (now, then) => now.is_err() && then.is_none(),
        };
        match &self.stmts[k].key {
            Some(memo) if memo.inputs.iter().all(holds) => Arc::clone(&memo.key),
            _ => {
                let memo = self.cache_key(k);
                Arc::clone(&self.stmts[k].key.insert(memo).key)
            }
        }
    }

    /// Statement `k`'s plan and the key it is cached under, compiling on a
    /// miss; a hit is folded into the program report. An `Auto` non-zero
    /// selection that fails to compile falls back to the outer-dimension
    /// schedule (recorded as a decision). Each compile that yields the plan
    /// is timed in the trace's `compile_ns` histogram, one observation per
    /// [`ProgramReport::compiles`].
    fn ensure_plan(&mut self, k: usize) -> Result<(Arc<PlanKey>, Arc<Plan>), Error> {
        let key = self.plan_key(k);
        let cached = self
            .cache
            .lookup(&key, self.ctx.trace(), self.tenant.as_ref());
        if let Some(plan) = cached {
            self.report.cache_hits += 1;
            return Ok((key, plan));
        }
        let chosen = self.stmts[k]
            .chosen
            .as_ref()
            .expect("schedule selected before compile");
        let compile_t0 = Instant::now();
        let compiled = self.ctx.compile(&self.stmts[k].stmt, &chosen.schedule);
        let plan = match compiled {
            Ok(plan) => plan,
            Err(e)
                if chosen.kind == ChosenKind::Nonzero
                    && matches!(self.stmts[k].spec, ScheduleSpec::Auto) =>
            {
                // Fall back: the auto-picked non-zero mapping does not
                // lower for this statement; outer-dim always does.
                let reason = format!("non-zero plan failed to compile ({e})");
                let (stmt, pieces) = (self.stmts[k].stmt.clone(), self.default_pieces());
                let unit = ParallelUnit::CpuThread;
                let chosen = Chosen::outer_dim(&mut self.ctx, &stmt, pieces, unit);
                self.select(k, chosen);
                self.stmts[k].tuned = true;
                self.push_decision(k, "outer-dim", reason);
                return self.ensure_plan(k);
            }
            Err(e) => return Err(e),
        };
        let trace = self.ctx.trace();
        trace.observe_ns("compile_ns", compile_t0.elapsed().as_nanos() as u64);
        self.report.compiles += 1;
        let tenant = self.tenant.as_ref().map(Tenant::name);
        let plan = self.cache.insert(PlanKey::clone(&key), plan, tenant);
        Ok((key, plan))
    }

    // ---- retention ------------------------------------------------------

    /// What statement `k` records for the pass about to run under `key`:
    /// the current version of everything it reads.
    fn proof(&self, k: usize, plan_key: Arc<PlanKey>) -> RetainedOutput {
        let stmt = &self.stmts[k].stmt;
        let mut reads: Vec<(String, u64)> = Vec::new();
        for a in stmt.rhs.accesses() {
            if !reads.iter().any(|(t, _)| *t == a.tensor) {
                reads.push((a.tensor.clone(), self.ctx.tensor_version(&a.tensor)));
            }
        }
        RetainedOutput {
            output: stmt.lhs.tensor.clone(),
            reads,
            driver: self.sparse_driver(stmt),
            plan_key,
        }
    }

    /// The deltas tracked on a statement's driver since the last pass.
    fn tracked(&self, proof: &RetainedOutput) -> Option<&TensorDirty> {
        self.ctx.dirty_state(proof.driver.as_deref()?)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{bits, machine, spmv_program, PIECES};
    use super::super::Program;
    use super::*;
    use crate::streaming::CoordDelta;
    use spdistal_sparse::{dense_vector, generate, SpTensor};

    fn proof(
        output: &str,
        reads: &[(&str, u64)],
        driver: Option<&str>,
        key: &str,
    ) -> RetainedOutput {
        RetainedOutput {
            output: output.to_string(),
            reads: reads.iter().map(|(t, v)| (t.to_string(), *v)).collect(),
            driver: driver.map(str::to_string),
            plan_key: Arc::new(PlanKey::new(key, "", "")),
        }
    }

    /// `dirty` of 100 driver rows tracked from version `from` to version `to`.
    fn deltas(dirty: usize, structural: bool, from: u64, to: u64) -> TensorDirty {
        let mut map = DirtyMap::new(100);
        (0..dirty as i64).for_each(|row| map.mark(row));
        TensorDirty {
            map,
            structural,
            from_version: from,
            tracked_version: to,
            deltas_applied: dirty as u64,
        }
    }

    /// One row per [`Fallback`] variant `eligibility` can return, plus the
    /// two `Ok` rows — plain values only, nothing compiled or executed.
    #[test]
    fn eligibility_table() {
        use Fallback::*;
        // `a = B * c`, last run under key "k" with B at version 3, c at 1.
        let spmv = |b: u64, c: u64, key: &str| proof("a", &[("B", b), ("c", c)], Some("B"), key);
        let last = spmv(3, 1, "k");
        let (same, rekeyed, c_moved) =
            ([spmv(3, 1, "k")], [spmv(3, 1, "other")], [spmv(3, 2, "k")]);
        let (b_moved, b_moved_twice) = ([spmv(4, 1, "k")], [spmv(5, 1, "k")]);
        let chain = [
            proof("x1", &[("B", 3), ("x0", 1)], Some("B"), "k0"),
            proof("x2", &[("B", 3), ("x1", 2)], Some("B"), "k"),
        ];
        let accumulate = [proof("a", &[("a", 1), ("B", 3)], Some("B"), "k")];
        let broken = "driver 'B' version lineage broken by an untracked mutation";
        type Row<'a> = (
            bool,
            &'a [RetainedOutput],
            Option<&'a RetainedOutput>,
            Option<TensorDirty>,
            Result<usize, (Fallback, &'a str)>,
        );
        #[rustfmt::skip]
        let rows: Vec<Row> = vec![
            (false, &same, Some(&last), None, Err((FullRequested, "full pass requested"))),
            (true, &accumulate, Some(&last), None,
             Err((OutputOnRhs, "output tensor also appears on the right-hand side"))),
            (true, &chain, Some(&last), None,
             Err((InputRewrittenInPass("x1".into()), "input 'x1' is rewritten earlier in the same pass"))),
            (true, &same, None, None, Err((NoRetainedProof, "no retained output from a previous run"))),
            (true, &rekeyed, Some(&last), None,
             Err((PlanKeyChanged, "schedule or format changed since the retained run"))),
            (true, &c_moved, Some(&last), None,
             Err((ForeignInputMoved("c".into(), 2, 1), "input 'c' changed (version 2 != retained 1)"))),
            (true, &b_moved, Some(&last), None,
             Err((DriverMutatedOutside("B".into()), "driver 'B' mutated outside update_batch"))),
            (true, &b_moved, Some(&last), Some(deltas(2, true, 3, 4)),
             Err((Structural("B".into()), "structural deltas on driver 'B'"))),
            (true, &b_moved, Some(&last), Some(deltas(2, false, 2, 4)), Err((LineageBroken("B".into()), broken))),
            (true, &b_moved_twice, Some(&last), Some(deltas(2, false, 3, 4)),
             Err((LineageBroken("B".into()), broken))),
            (true, &b_moved, Some(&last), Some(deltas(60, false, 3, 4)),
             Err((DirtyRatio(0.6), "dirty ratio 0.60 > 0.50"))),
            // Clean driver: nothing to re-run. Mergeable: exactly the tracked rows.
            (true, &same, Some(&last), None, Ok(0)),
            (true, &b_moved, Some(&last), Some(deltas(2, false, 3, 4)), Ok(2)),
        ];
        for (merge, now, retained, tracked, expect) in rows {
            let got = eligibility(merge, now, now.len() - 1, retained, tracked.as_ref());
            match expect {
                Ok(dirty_rows) => assert_eq!(got.unwrap().dirty_rows(), dirty_rows),
                Err((fallback, text)) => {
                    assert_eq!(fallback.to_string(), text);
                    assert_eq!(got.unwrap_err(), fallback);
                }
            }
        }
    }

    /// The one fallback `eligibility` cannot see: a reduction output (the
    /// non-zero schedule's) has no shared buffer to seed. The seed is
    /// dropped by the prepared plan itself — one prepare per pass.
    #[test]
    fn reduction_output_falls_back_without_a_second_prepare() {
        let b = generate::rmat_default(7, 900, 2);
        let mut p = spmv_program(b, ScheduleSpec::nonzero())
            .trace(crate::Trace::enabled())
            .build()
            .unwrap();
        p.run().unwrap();
        let full = bits(&p, 0);
        p.run_incremental().unwrap();
        let stats = p.last_incremental(0).unwrap();
        assert!(stats.fallback);
        assert_eq!(stats.reason, Fallback::NoInPlaceOutput.to_string());
        assert_eq!(stats.reason, "plan has no in-place output to merge into");
        assert_eq!(stats.spans_skipped, 0);
        assert_eq!(bits(&p, 0), full);
        let m = p.trace().metrics().unwrap();
        assert_eq!(
            m.counter("kernel.specialized").get(),
            2,
            "one prepare per pass"
        );
    }

    /// Which arm each write-back took: a first run re-registers, a cached
    /// plan writes by value from then on — a merge included — and an output
    /// mutated behind the plan's back re-registers once, then by value
    /// again. Every write-back is timed.
    #[test]
    fn writeback_goes_by_value_while_the_plan_wrote_the_output_last() {
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim())
            .trace(crate::Trace::enabled())
            .build()
            .unwrap();
        let arms = |p: &CompiledProgram| {
            let m = p.trace().metrics().unwrap();
            let count = |name: &str| m.counter(name).get();
            let timed = m.histogram("writeback_ns").count();
            (
                count("writeback.reregistered"),
                count("writeback.by_value"),
                timed,
            )
        };
        p.run().unwrap();
        assert_eq!(arms(&p), (1, 0, 1), "a first run re-registers");
        p.run().unwrap();
        p.update_batch("B", &[CoordDelta::overwrite(vec![0, 0], 9.0)])
            .unwrap();
        p.run_incremental().unwrap();
        assert!(p.last_incremental(0).unwrap().spans_skipped > 0);
        assert_eq!(arms(&p), (1, 2, 3), "then by value, a merge included");
        p.tensor_data_mut("a").unwrap().vals_mut().fill(-1.0);
        p.run().unwrap();
        assert_eq!(arms(&p), (2, 2, 4), "a mutated output re-registers");
        p.run().unwrap();
        assert_eq!(arms(&p), (2, 3, 5));
        let registered = p.context().tensor("a").unwrap().data.vals();
        let registered: Vec<u64> = registered.iter().map(|v| v.to_bits()).collect();
        assert_eq!(registered, bits(&p, 0));
    }

    /// Every compile of a pass is timed, and only a compile: a first run of
    /// three statements observes three, a cached run none, and a run after
    /// one statement's key changed (an input only it reads was re-declared)
    /// one more.
    #[test]
    fn compile_ns_observes_each_compile_once() {
        let b = generate::banded(64, 5, 2);
        let n = b.dims()[0];
        let vector = |fill: f64| dense_vector(vec![fill; n]);
        let mut p = Program::on(machine())
            .tensor("B", Format::blocked_csr(), b)
            .tensor("x0", Format::replicated_dense_vec(), vector(1.0))
            .tensor("x1", Format::blocked_dense_vec(), vector(0.0))
            .tensor("x2", Format::blocked_dense_vec(), vector(0.0))
            .tensor("x3", Format::blocked_dense_vec(), vector(0.0))
            .stmt("x1(i) = B(i,j) * x0(j)")
            .schedule(ScheduleSpec::outer_dim())
            .stmt("x2(i) = B(i,j) * x1(j)")
            .schedule(ScheduleSpec::outer_dim())
            .stmt("x3(i) = B(i,j) * x2(j)")
            .schedule(ScheduleSpec::outer_dim())
            .trace(crate::Trace::enabled())
            .build()
            .unwrap();
        let timed = |p: &CompiledProgram| {
            let m = p.trace().metrics().unwrap();
            m.histogram("compile_ns").count()
        };
        p.run().unwrap();
        assert_eq!(p.report().compiles, 3);
        assert_eq!(timed(&p), 3, "a first run times each of its compiles");
        p.run().unwrap();
        assert_eq!(
            (p.report().compiles, timed(&p)),
            (3, 3),
            "a cached run times none"
        );
        p.set_tensor_format("x0", Format::blocked_dense_vec())
            .unwrap();
        p.run().unwrap();
        assert_eq!(
            (p.report().compiles, timed(&p)),
            (4, 4),
            "a re-keyed plan times one"
        );
        assert!(p.trace().run_report_json("t").contains("\"compile_us\""));
    }

    #[test]
    fn run_incremental_is_bit_identical_and_skips_clean_colors() {
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        // Value-only deltas confined to the first few rows: one of four
        // colors is dirty, three are served from the retained output.
        let deltas: Vec<CoordDelta> = (0..4)
            .map(|i| CoordDelta::overwrite(vec![i, i], 7.5 + i as f64))
            .collect();
        let rep = p.update_batch("B", &deltas).unwrap();
        assert!(!rep.structural);
        assert_eq!(rep.overwritten, 4);
        assert_eq!(rep.rows_dirty, 4);
        p.run_incremental().unwrap();
        let stats = p.last_incremental(0).unwrap().clone();
        assert!(!stats.fallback, "unexpected fallback: {}", stats.reason);
        assert_eq!(stats.rows_dirty, 4);
        assert!(stats.spans_reexecuted > 0);
        assert!(stats.spans_skipped > 0, "clean colors must be skipped");
        // Bit-identical to a full recompute over the post-delta data.
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let mut full = spmv_program(b2, ScheduleSpec::outer_dim()).build().unwrap();
        full.run().unwrap();
        assert_eq!(bits(&p, 0), bits(&full, 0));
        // Trace counters observed the pass.
        let m = p.trace().metrics();
        if let Some(m) = m {
            assert_eq!(m.counter("incremental.runs").get(), 1);
        }
    }

    #[test]
    fn run_incremental_without_deltas_skips_every_span() {
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        let before = bits(&p, 0);
        p.run_incremental().unwrap();
        let stats = p.last_incremental(0).unwrap();
        assert!(!stats.fallback, "unexpected fallback: {}", stats.reason);
        assert_eq!(stats.spans_reexecuted, 0);
        assert!(stats.spans_skipped > 0);
        assert_eq!(bits(&p, 0), before);
    }

    #[test]
    fn structural_deltas_fall_back_and_recompile_bit_identically() {
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        assert_eq!(p.report().compiles, 1);
        // Inserts outside the band change the sparsity pattern: the cached
        // plan's partitions are stale and must be recompiled.
        let deltas = vec![
            CoordDelta::insert(vec![0, 90], 3.25),
            CoordDelta::delete(vec![1, 1]),
            CoordDelta::delete(vec![95, 0]), // absent -> ignored
        ];
        let rep = p.update_batch("B", &deltas).unwrap();
        assert!(rep.structural);
        assert_eq!((rep.inserted, rep.deleted, rep.ignored), (1, 1, 1));
        p.run_incremental().unwrap();
        let stats = p.last_incremental(0).unwrap();
        assert!(stats.fallback);
        assert_eq!(p.report().compiles, 2, "structural deltas must recompile");
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let mut full = spmv_program(b2, ScheduleSpec::outer_dim()).build().unwrap();
        full.run().unwrap();
        assert_eq!(bits(&p, 0), bits(&full, 0));
    }

    // ---- the record -------------------------------------------------------

    /// What a pass leaves that a replayed describe could change, as bits:
    /// every value; per statement its simulated time, ops, traffic, span
    /// accounting, launch records, and its drain's tasks, spans, edges and
    /// critical path; the runtime's counters and clock.
    fn observed(p: &CompiledProgram) -> Vec<u64> {
        let mut seen = Vec::new();
        for k in 0..p.stmt_count() {
            seen.extend(bits(p, k));
            let r = p.result(k).unwrap();
            let (s, m) = (&r.sched, &r.merge);
            seen.extend([r.time.to_bits(), r.ops.to_bits(), r.comm_bytes, r.messages]);
            let counts = [s.tasks, s.spans, s.edges, s.critical_path];
            let merged = [m.merged as usize, m.spans_reexecuted, m.spans_skipped];
            seen.extend(counts.into_iter().chain(merged).map(|c| c as u64));
            for rec in &r.records {
                let t = &rec.model;
                let times = [t.issue, t.start, t.finish, t.seq_span, rec.clock_after];
                seen.extend(times.map(f64::to_bits));
                seen.extend([rec.comm_bytes, rec.messages, rec.tasks as u64]);
            }
        }
        let rt = p.context().runtime();
        let stats = rt.stats();
        seen.extend([
            stats.comm_bytes,
            stats.messages,
            stats.launches,
            stats.tasks,
        ]);
        seen.extend([
            stats.total_ops.to_bits(),
            rt.now().to_bits(),
            stats.replayed,
        ]);
        seen
    }

    type Step = fn(&mut CompiledProgram);

    /// Runs `steps` on a program that replays its record and on one that
    /// describes and keys afresh every pass (`pass_replay_off`), comparing
    /// what each step left and the compiles so far. Returns, per step, the
    /// describes and batch graphs the replaying program took from its
    /// record.
    fn replay_against_fresh(
        build: impl Fn() -> CompiledProgram,
        steps: &[Step],
    ) -> Vec<(usize, usize)> {
        let (mut on, mut off) = (build(), build());
        off.pass_replay_off = true;
        let mut reused = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            let before = on.record.reused;
            step(&mut on);
            step(&mut off);
            assert_eq!(observed(&on), observed(&off), "step {i}");
            assert_eq!(on.report().compiles, off.report().compiles, "step {i}");
            let after = on.record.reused;
            reused.push((after.0 - before.0, after.1 - before.1));
        }
        assert_eq!(off.record.reused, (0, 0), "the oracle replays nothing");
        reused
    }

    const RUN: Step = |p| {
        p.run().unwrap();
    };

    /// `iter_small`'s shape: the RAW chain `x1 = B·x0; x2 = B·x1; x3 = B·x2`
    /// on a skewed driver, two workers, spans split.
    fn chain() -> CompiledProgram {
        let b = generate::rmat_default(8, 3000, 3);
        let n = b.dims()[0];
        let vector = |v: Vec<f64>| dense_vector(v);
        let mut p = Program::on(machine())
            .exec_mode(spdistal_runtime::ExecMode::Parallel(2))
            .tensor("B", Format::blocked_csr(), b)
            .tensor(
                "x0",
                Format::replicated_dense_vec(),
                vector(generate::dense_vec(n, 4)),
            );
        for (out, input) in [("x1", "x0"), ("x2", "x1"), ("x3", "x2")] {
            p = p
                .tensor(out, Format::blocked_dense_vec(), vector(vec![0.0; n]))
                .stmt(&format!("{out}(i) = B(i,j) * {input}(j)"))
                .schedule(ScheduleSpec::outer_dim());
        }
        p.build().unwrap()
    }

    /// `iter_heavy`'s shape: the six kernels as independent statements —
    /// dense, pattern-aligned and assembled outputs — in one batch.
    fn sweep() -> CompiledProgram {
        sweep_program().build().unwrap()
    }

    /// [`sweep`], not yet built.
    fn sweep_program() -> Program {
        use spdistal_sparse::{convert, dense_matrix};
        const W: usize = 4;
        let n = 64;
        let matrix =
            |r: usize, c: usize, seed| dense_matrix(r, c, generate::dense_buffer(r, c, seed));
        let skewed = |seed| generate::rmat_clustered(6, 700, 0.9, seed);
        let (b0, b1, b2, b5) = (
            skewed(10),
            convert::to_dcsr(&skewed(11)),
            skewed(12),
            skewed(15),
        );
        let b3 = generate::tensor3_uniform([16, 12, 12], 600, 13);
        let a4 = crate::kernels::tensor3::spttv_output(
            &b3,
            vec![0.0; crate::level_funcs::entry_counts(&b3)[1] as usize],
        );
        let (csr, dense) = (Format::blocked_csr(), Format::blocked_dense_matrix());
        let replicated = Format::replicated_dense_matrix();
        Program::on(machine())
            .exec_mode(spdistal_runtime::ExecMode::Parallel(2))
            .tensor("A0", dense.clone(), dense_matrix(n, W, vec![0.0; n * W]))
            .tensor("B0", csr.clone(), b0)
            .tensor("C0", replicated.clone(), matrix(n, W, 20))
            .stmt("A0(i,j) = B0(i,k) * C0(k,j)")
            .schedule(ScheduleSpec::outer_dim())
            .tensor(
                "a1",
                Format::blocked_dense_vec(),
                dense_vector(vec![0.0; n]),
            )
            .tensor("B1", Format::blocked_dcsr(), b1)
            .tensor(
                "c1",
                Format::replicated_dense_vec(),
                dense_vector(generate::dense_vec(n, 21)),
            )
            .stmt("a1(i) = B1(i,j) * c1(j)")
            .schedule(ScheduleSpec::outer_dim())
            .tensor("A2", csr.clone(), b2.clone())
            .tensor("B2", Format::nonzero_csr(), b2)
            .tensor("C2", Format::staged_dense_matrix(), matrix(n, W, 22))
            .tensor("D2", Format::staged_dense_matrix(), matrix(W, n, 23))
            .stmt("A2(i,j) = B2(i,j) * C2(i,k) * D2(k,j)")
            .schedule(ScheduleSpec::outer_dim())
            .tensor("A3", dense, dense_matrix(16, W, vec![0.0; 16 * W]))
            .tensor("B3", Format::blocked_csf3(), b3)
            .tensor("C3", replicated.clone(), matrix(12, W, 24))
            .tensor("D3", replicated, matrix(12, W, 25))
            .stmt("A3(i,l) = B3(i,j,k) * C3(j,l) * D3(k,l)")
            .schedule(ScheduleSpec::outer_dim())
            .tensor("A4", csr.clone(), a4)
            .tensor(
                "c4",
                Format::replicated_dense_vec(),
                dense_vector(generate::dense_vec(12, 26)),
            )
            .stmt("A4(i,j) = B3(i,j,k) * c4(k)")
            .schedule(ScheduleSpec::outer_dim())
            .tensor("A5", csr.clone(), crate::plan::empty_csr(n, n))
            .tensor("C5", csr.clone(), generate::shift_last_dim(&b5, 1))
            .tensor("D5", csr.clone(), generate::shift_last_dim(&b5, 2))
            .tensor("B5", csr, b5)
            .stmt("A5(i,j) = B5(i,j) + C5(i,j) + D5(i,j)")
            .schedule(ScheduleSpec::outer_dim())
    }

    /// From the second pass of the sweep on, every statement writes its
    /// output back by value — SpAdd3's assembled output included, its
    /// inputs' pattern arrays unchanged — and none re-registers.
    #[test]
    fn a_cached_sweep_writes_every_output_by_value() {
        let mut p = sweep_program()
            .trace(crate::Trace::enabled())
            .build()
            .unwrap();
        let arms = |p: &CompiledProgram| {
            let m = p.trace().metrics().unwrap();
            let count = |name: &str| m.counter(name).get();
            (count("writeback.reregistered"), count("writeback.by_value"))
        };
        p.run().unwrap();
        assert_eq!(arms(&p), (6, 0), "a first pass re-registers");
        for pass in 1..4 {
            p.run().unwrap();
            assert_eq!(arms(&p), (6, 6 * pass), "cached pass {pass}");
        }
    }

    /// The record against describing afresh: a first pass re-registers
    /// every output, so the second describes again; from the third pass
    /// on, every output keeps its regions, every statement of the chain and
    /// of the sweep rebinds its recorded describe and every batch drains
    /// its recorded graph, and each pass leaves exactly what describing
    /// afresh leaves.
    #[test]
    fn a_cached_pass_replays_its_record_bit_for_bit() {
        let reused = replay_against_fresh(chain, &[RUN; 6]);
        assert_eq!(reused[..2], [(0, 0), (0, 0)], "a re-registration describes");
        assert!(reused[2..].iter().all(|&r| r == (3, 3)), "{reused:?}");
        let reused = replay_against_fresh(sweep, &[RUN; 5]);
        assert_eq!(reused[..2], [(0, 0), (0, 0)], "a re-registration describes");
        assert!(reused[2..].iter().all(|&r| r == (6, 1)), "{reused:?}");
    }

    /// A `run_incremental` stream: value-only batches (the driver's regions
    /// renewed in place, so the record holds), merges, a structural batch
    /// that re-keys the plan, and full passes between.
    #[test]
    fn an_incremental_stream_replays_its_record_bit_for_bit() {
        let build = || {
            spmv_program(generate::banded(96, 5, 3), ScheduleSpec::outer_dim())
                .build()
                .unwrap()
        };
        let value_only: Step = |p| {
            let deltas: Vec<CoordDelta> = (0..3)
                .map(|i| CoordDelta::overwrite(vec![i, i], 2.5 + i as f64))
                .collect();
            p.update_batch("B", &deltas).unwrap();
            p.run_incremental().unwrap();
        };
        let structural: Step = |p| {
            p.update_batch("B", &[CoordDelta::insert(vec![0, 90], 3.25)])
                .unwrap();
            p.run_incremental().unwrap();
        };
        let merge: Step = |p| {
            p.run_incremental().unwrap();
        };
        let steps = [
            RUN, value_only, value_only, merge, structural, value_only, RUN,
        ];
        let reused = replay_against_fresh(build, &steps);
        assert_eq!(
            &reused[1..4],
            &[(0, 0), (1, 1), (1, 1)],
            "the first run re-registers the output; value-only batches keep every region"
        );
        assert_eq!(
            reused[4],
            (0, 0),
            "a structural batch re-keys: a new plan is described"
        );
    }

    /// Every entry point that changes what a plan key is built from re-keys
    /// the statement — one compile more, as on a program that keys afresh
    /// every pass — and the passes after it stay bit-identical to that
    /// program's.
    #[test]
    fn every_key_input_change_rekeys_the_statement() {
        let banded = || generate::banded(128, 7, 9);
        let skew: Step = |p| {
            let deltas: Vec<CoordDelta> = (0..32)
                .flat_map(|i| (64..72).map(move |j| CoordDelta::insert(vec![i, j], 0.5)))
                .collect();
            p.update_batch("B", &deltas).unwrap();
        };
        type Row = (&'static str, ScheduleSpec, SpTensor, Step);
        let rows: Vec<Row> = vec![
            (
                "set_tensor_format",
                ScheduleSpec::outer_dim(),
                banded(),
                |p| {
                    p.set_tensor_format("B", Format::nonzero_csr()).unwrap();
                },
            ),
            (
                "context_mut re-registration",
                ScheduleSpec::outer_dim(),
                banded(),
                |p| {
                    let b = generate::banded(128, 9, 4);
                    p.context_mut()
                        .add_tensor("B", b, Format::blocked_csr())
                        .unwrap();
                },
            ),
            (
                "structural update_batch",
                ScheduleSpec::outer_dim(),
                banded(),
                |p| {
                    let insert = CoordDelta::insert(vec![0, 100], 3.25);
                    p.update_batch("B", &[insert]).unwrap();
                },
            ),
            (
                "warm-up re-selection",
                ScheduleSpec::Auto,
                super::super::auto::tests::find_moderate_skew(),
                |_| {},
            ),
            ("drift_reselect", ScheduleSpec::Auto, banded(), skew),
        ];
        for (what, spec, b, change) in rows {
            let build = || spmv_program(b.clone(), spec.clone()).build().unwrap();
            let (mut on, mut off) = (build(), build());
            off.pass_replay_off = true;
            let mut compiles = 0;
            for p in [&mut on, &mut off] {
                p.run().unwrap();
                compiles = p.report().compiles;
                change(p);
                p.run_incremental().unwrap();
                p.run().unwrap();
            }
            assert!(on.report().compiles > compiles, "{what}: not re-keyed");
            assert_eq!(on.report().compiles, off.report().compiles, "{what}");
            assert_eq!(observed(&on), observed(&off), "{what}");
        }
    }

    /// The report names the schedule each statement runs under, refreshed
    /// where a selection is assigned: a warm-up re-selection onto the
    /// non-zero split, and an auto non-zero pick that does not compile and
    /// falls back to outer-dim.
    #[test]
    fn the_report_names_reselections_and_fallbacks() {
        let skewed = super::super::auto::tests::find_moderate_skew();
        let mut p = spmv_program(skewed, ScheduleSpec::Auto).build().unwrap();
        assert_eq!(p.report().stmts[0].schedule_kind, "unselected");
        // The first pass runs outer-dim; the warm-up feedback after it
        // re-selects, and the report names the selection at once.
        p.run().unwrap();
        let report = p.report();
        assert_eq!(
            report.stmts[0].schedule_kind, "non-zero",
            "the warm-up re-selection"
        );
        assert_eq!(report.stmts[0].schedule, p.stmts[0].schedule_text());
        assert!(report.decisions[1].reason.starts_with("warm-up"));
        p.run().unwrap();
        assert_eq!(p.report().stmts[0].schedule_kind, "non-zero");

        let mut p = spmv_program(generate::banded(64, 5, 2), ScheduleSpec::Auto)
            .build()
            .unwrap();
        p.run().unwrap();
        // Three pieces on four processors: this non-zero split does not
        // compile.
        let stmt = p.stmts[0].stmt.clone();
        let unit = ParallelUnit::CpuThread;
        let schedule =
            crate::api::schedule_nonzero(&mut p.ctx, &stmt, "B", 2, PIECES - 1, unit).unwrap();
        p.select(
            0,
            Chosen {
                kind: ChosenKind::Nonzero,
                schedule,
            },
        );
        assert_eq!(p.report().stmts[0].schedule_kind, "non-zero");
        p.run().unwrap();
        let report = p.report();
        assert_eq!(report.stmts[0].schedule_kind, "outer-dim", "the fallback");
        assert_eq!(report.stmts[0].schedule, p.stmts[0].schedule_text());
        let last = report.decisions.last().unwrap();
        assert!(
            last.reason.starts_with("non-zero plan failed to compile"),
            "{last}"
        );
    }
}
