//! Deferred execution: the `Session`/`TensorFuture` API.
//!
//! Legion programs *issue* work and let the runtime overlap everything no
//! data dependence orders — the deferred-execution model SpDISTAL inherits
//! its distributed performance from. A [`Session`] brings that model to
//! plan execution: [`Session::submit`] queues a compiled [`Plan`] and
//! returns a [`TensorFuture`] immediately; nothing executes until a future
//! is forced ([`Session::wait`]/[`Session::value`]), the session is
//! flushed, or the context's tensor data is touched. It is the only driver
//! of a plan's describe, drain and model phases ([`crate::plan`]):
//! `Context::run` is a session of one plan, forced at once.
//!
//! At flush time the queue is cut into **batches**: the longest prefix of
//! plans none of which *reads* a tensor an earlier plan in the same prefix
//! writes. Within a batch every compute phase runs from pre-batch tensor
//! state (true flow dependences only exist *between* batches), so the
//! whole batch is described up front and drained through the runtime's
//! [`Pipeline`] in one work-stealing pass — point tasks of independent
//! launches interleave, and any WAW/WAR pairs the whole-launch summaries
//! expose serialize in issue order. Model phases and write-backs then
//! replay in issue order (a topological order of the launch graph), with
//! write-backs claimed at launch granularity, so:
//!
//! * outputs are **bit-identical** to
//!   [`ExecMode::Serial`](spdistal_runtime::ExecMode::Serial) execution one
//!   plan per flush, and
//! * simulated time ([`ExecResult::time`]) is completely unaffected by
//!   pipelining — only real wall-clock moves.
//!
//! ## Modeled pipelining
//!
//! The model phase is replayed **launch-graph-ordered**: each batch hands
//! its launch edge set,
//! [`Pipeline::preds`](spdistal_runtime::pipeline::Pipeline::preds) (which
//! already includes the launch-granularity write-back claims), to
//! [`Runtime::index_launch_after`](spdistal_runtime::Runtime::index_launch_after),
//! so on the simulator's pipelined timeline a launch starts at
//! `max(predecessor finishes, processor availability)` instead of behind a
//! global serialization point. Batches still serialize behind each other
//! (every launch of batch *k+1* names all of batch *k* as predecessors —
//! the RAW cut that created the batch boundary). The per-launch modeled
//! milestones surface as [`LaunchTiming::model`] and
//! [`FlushReport::modeled_overlap`] reports sequential-sum ÷ graph-ordered
//! makespan: 1.0 for a dependence chain, > 1 when independent launches
//! with different critical processors genuinely overlap.
//!
//! ## The record
//!
//! What a batch describes — per plan a [`Described`]: the leaf, the
//! per-color requirement lists and owner processors, the span cuts and the
//! write-back claims; per batch the [`Pipeline`] built from them, with its
//! `preds` — stays in the session's `PassRecord`, by ticket and by the
//! batch's first ticket. A session starts from an empty record, so
//! [`Session::new`] (and with it `Context::run`) always describes; and
//! since nothing resumes a plain session's record, it lets go of a batch's
//! describes and graph once the batch has run, holding none across a long
//! stream of submits. A
//! [`CompiledProgram`](crate::CompiledProgram) hands the record of one pass
//! to the next pass's session (`Session::resume`, `Session::into_record`),
//! whose statements have the same tickets: a batch then rebinds each
//! recorded describe that still holds ([`Described::rebind`]) and, when
//! every one of them held, drains the recorded graph — only the operand
//! views and value buffers are bound afresh. Every trace event and counter
//! of a pass keeps its count either way, `kernel.specialized` included;
//! the `deps.analyze_ns` histogram times only the graphs that are built.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use spdistal_runtime::pipeline::{LaunchTiming, Pipeline};
use spdistal_runtime::sched::ExecReport;
use spdistal_runtime::{LaunchId, RegionId, Trace};
use spdistal_sparse::SpTensor;

use crate::codegen::Plan;
use crate::dist_tensor::{Context, Error};
use crate::plan::{
    finish_model, Described, ExecResult, LastWrite, MergeSeed, OutputValue, PreparedPlan,
};

/// A handle to the (possibly not yet computed) result of one submitted
/// plan. Force it with [`Session::wait`] or [`Session::value`].
#[derive(Clone, Copy, Debug)]
pub struct TensorFuture {
    ticket: usize,
}

impl TensorFuture {
    /// Position of this future's plan in the session's submission order.
    pub fn ticket(&self) -> usize {
        self.ticket
    }
}

/// What one [`Session::flush`] did.
#[derive(Clone, Debug, Default)]
pub struct FlushReport {
    /// Pipelined batches the queue was cut into (dependence cuts only:
    /// one batch unless a queued plan reads an earlier queued plan's
    /// output).
    pub batches: usize,
    /// The batches' drains folded into one ([`ExecReport::absorb`]):
    /// batches never overlap, so wall and busy seconds add, and
    /// [`ExecReport::task_skew`] is the flush's measured skew.
    pub sched: ExecReport,
    /// Per-launch issue/start/drain milestones, rebased onto the
    /// session's epoch so overlap across launches is directly readable.
    /// Each entry's [`LaunchTiming::model`] carries the *modeled*
    /// issue/start/finish of the plan's launch(es) on the simulator's
    /// pipelined timeline.
    pub launches: Vec<LaunchTiming>,
}

impl FlushReport {
    /// Sum of the launches' modeled *sequential* spans: the simulated time
    /// launch-at-a-time replay charges for this flush's work.
    pub fn model_seq_sum(&self) -> f64 {
        self.launches.iter().map(|l| l.model.seq_span).sum()
    }

    /// Modeled makespan of the graph-ordered replay: from the first
    /// launch's modeled start to the last modeled finish.
    pub fn model_makespan(&self) -> f64 {
        let start = self
            .launches
            .iter()
            .map(|l| l.model.start)
            .fold(f64::INFINITY, f64::min);
        let finish = self
            .launches
            .iter()
            .map(|l| l.model.finish)
            .fold(0.0, f64::max);
        if start.is_finite() {
            (finish - start).max(0.0)
        } else {
            0.0
        }
    }

    /// The modeled-overlap ratio of this flush: sequential modeled sum ÷
    /// graph-ordered modeled makespan. 1.0 means the launch graph bought no
    /// overlap (a dependence chain or a single launch); above 1.0, deferred
    /// execution genuinely shortened simulated time. An empty flush, or a
    /// multi-launch flush whose modeled makespan collapsed to zero, has no
    /// overlap to speak of: 0.0, never NaN or infinity.
    pub fn modeled_overlap(&self) -> f64 {
        if self.launches.is_empty() {
            return 0.0;
        }
        if self.launches.len() == 1 {
            return 1.0;
        }
        let makespan = self.model_makespan();
        if makespan <= 0.0 {
            return 0.0;
        }
        self.model_seq_sum() / makespan
    }
}

enum Slot {
    Pending,
    Done(Box<ExecResult>),
    Aborted(String),
}

struct Queued {
    ticket: usize,
    plan: Arc<Plan>,
    issued: Instant,
    /// The previous output to merge into, if the submitter proved one valid
    /// (see [`Session::submit_merging`]).
    seed: Option<MergeSeed>,
    /// What this plan's previous write-back left, if the submitter knows
    /// it: the write-back goes by value while that still holds
    /// ([`finish_model`]).
    last_write: Option<LastWrite>,
}

/// A deferred-execution context wrapper. See the module docs.
pub struct Session<'c> {
    ctx: &'c mut Context,
    epoch: Instant,
    queue: VecDeque<Queued>,
    slots: Vec<Slot>,
    /// Model-timeline launches of the most recently replayed batch: the
    /// predecessor set every launch of the next batch gates behind (batch
    /// cuts are RAW cuts, so the dependence is real).
    model_preds: Vec<LaunchId>,
    record: PassRecord,
}

/// What a session described, by ticket, and each batch's [`Pipeline`], by
/// its first ticket. A session starts from an empty record, so every plan
/// is described; a program hands the record of one pass to the next pass's
/// session ([`Session::resume`]), whose batches rebind what still holds
/// ([`Described::rebind`]) and drain the recorded graph when every plan of
/// the batch held (module docs, "The record"). A plain session's tickets
/// never come back, so its record is `transient`: it lets go of a batch's
/// describes and graph once the batch has run.
#[derive(Default)]
pub(crate) struct PassRecord {
    described: BTreeMap<usize, Described>,
    pipelines: BTreeMap<usize, (usize, Pipeline)>,
    transient: bool,
    /// Describes and batch graphs taken from the record, not built.
    #[cfg(test)]
    pub(crate) reused: (usize, usize),
}

impl PassRecord {
    /// Make the record hold a describe of every plan of `batch` and the
    /// batch's pipeline, building only what no longer holds.
    fn describe(&mut self, ctx: &Context, batch: &[Queued], trace: &Trace) -> Result<(), Error> {
        let mut built = 0;
        for q in batch {
            let recorded = self.described.get(&q.ticket);
            if !recorded.is_some_and(|d| d.rebind(ctx, &q.plan)) {
                // Distinct per ticket, counting down from the top of the id
                // space (real ids count up from 0).
                let stand_in = RegionId(u32::MAX - q.ticket as u32);
                let described = Described::new(ctx, Arc::clone(&q.plan), stand_in)?;
                self.described.insert(q.ticket, described);
                built += 1;
            }
        }
        let first = batch[0].ticket;
        let recorded = self.pipelines.get(&first);
        let replay = built == 0 && recorded.is_some_and(|(n, _)| *n == batch.len());
        #[cfg(test)]
        {
            self.reused.0 += batch.len() - built;
            self.reused.1 += replay as usize;
        }
        if !replay {
            let launches = batch
                .iter()
                .map(|q| self.described[&q.ticket].launch_desc());
            let deps_t0 = Instant::now();
            let pipeline = Pipeline::new(launches.collect());
            trace.observe_ns("deps.analyze_ns", deps_t0.elapsed().as_nanos() as u64);
            self.pipelines.insert(first, (batch.len(), pipeline));
        }
        Ok(())
    }

    /// Let go of what `batch` recorded, if nothing resumes this record.
    fn release(&mut self, batch: &[Queued]) {
        if self.transient {
            for q in batch {
                self.described.remove(&q.ticket);
            }
            self.pipelines.remove(&batch[0].ticket);
        }
    }
}

impl<'c> Session<'c> {
    pub fn new(ctx: &'c mut Context) -> Self {
        let record = PassRecord {
            transient: true,
            ..PassRecord::default()
        };
        Session::resume(ctx, record)
    }

    /// A session that starts from `record`, what an earlier session
    /// described ([`Session::into_record`]).
    pub(crate) fn resume(ctx: &'c mut Context, record: PassRecord) -> Self {
        // Gate the first batch behind whatever the context already issued
        // on the model timeline (earlier sessions, `Context::run`s), so a
        // session's modeled windows start after preceding work.
        let model_preds: Vec<LaunchId> = ctx.runtime().model_fence_launch().into_iter().collect();
        if !model_preds.is_empty() {
            ctx.trace().model_fence("session-epoch");
        }
        Session {
            ctx,
            epoch: Instant::now(),
            queue: VecDeque::new(),
            slots: Vec::new(),
            model_preds,
            record,
        }
    }

    /// What this session described, for the next one to resume from.
    pub(crate) fn into_record(mut self) -> PassRecord {
        std::mem::take(&mut self.record)
    }

    /// Read-only view of the underlying context (always consistent: reads
    /// of tensor *data* should go through [`Session::wait`]/
    /// [`Session::tensor_data_mut`], which flush pending work first).
    pub fn context(&self) -> &Context {
        self.ctx
    }

    /// Plans queued but not yet executed.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Queue `plan` for deferred execution and return its future. The plan
    /// is captured by value (cloned once, here): later schedule or context
    /// changes do not affect it (tensor *data* changes do — they force a
    /// flush first).
    pub fn submit(&mut self, plan: &Plan) -> TensorFuture {
        self.submit_merging(Arc::new(plan.clone()), None, None)
    }

    /// [`Session::submit`] with an optional merge seed: the plan's previous
    /// output and the driver rows that changed since. Only the colors those
    /// rows touch re-run; [`ExecResult::merge`] reports what happened. The
    /// submitter vouches that every other input is unchanged. `last_write`
    /// is what the plan's previous write-back left ([`ExecResult::written`]),
    /// which lets this one write by value.
    /// The queue shares the plan (partitions included) with whoever holds
    /// the `Arc` — for a [`Program`](crate::program::Program), its plan
    /// cache.
    pub(crate) fn submit_merging(
        &mut self,
        plan: Arc<Plan>,
        seed: Option<MergeSeed>,
        last_write: Option<LastWrite>,
    ) -> TensorFuture {
        let ticket = self.slots.len();
        self.slots.push(Slot::Pending);
        self.queue.push_back(Queued {
            ticket,
            plan,
            issued: Instant::now(),
            seed,
            last_write,
        });
        TensorFuture { ticket }
    }

    /// Force everything queued. Batches of mutually flow-independent plans
    /// drain through the pipelined executor; dependent plans start a new
    /// batch after their producers' write-backs landed.
    pub fn flush(&mut self) -> Result<FlushReport, Error> {
        let mut report = FlushReport::default();
        if self.queue.is_empty() {
            return Ok(report);
        }
        let trace = self.ctx.trace().clone();
        let (flush, t0) = (trace.next_flush_id(), trace.now_ns());
        let mut drained = Ok(());
        while !self.queue.is_empty() {
            let n = self.next_batch_len();
            let mut batch: Vec<Queued> = self.queue.drain(..n).collect();
            drained = self.run_batch(&mut batch, &mut report);
            self.record.release(&batch);
            if let Err(e) = &drained {
                // Poison everything that never completed, drop the queue.
                let msg = e.to_string();
                for q in batch.iter().chain(self.queue.iter()) {
                    if matches!(self.slots[q.ticket], Slot::Pending) {
                        self.slots[q.ticket] = Slot::Aborted(msg.clone());
                    }
                }
                self.queue.clear();
            }
        }
        trace.flush(flush, t0, report.batches as u32, report.sched.tasks as u64);
        drained.map(|()| report)
    }

    /// Force (at most) everything queued, then return the future's result.
    pub fn wait(&mut self, future: &TensorFuture) -> Result<&ExecResult, Error> {
        if matches!(self.slots.get(future.ticket), Some(Slot::Pending)) {
            self.flush()?;
        }
        match &self.slots[future.ticket] {
            Slot::Done(result) => Ok(result),
            Slot::Aborted(msg) => Err(Error::Aborted(msg.clone())),
            Slot::Pending => unreachable!("flushed future still pending"),
        }
    }

    /// Force the future and move its result out of the session. A second
    /// `take`/`wait` of the same future is an [`Error::Aborted`].
    pub fn take(&mut self, future: &TensorFuture) -> Result<ExecResult, Error> {
        self.wait(future)?;
        let taken = Slot::Aborted("result already taken".to_string());
        match std::mem::replace(&mut self.slots[future.ticket], taken) {
            Slot::Done(result) => Ok(*result),
            _ => unreachable!("wait() returned Ok for an unfinished future"),
        }
    }

    /// Force the future and clone its output value.
    pub fn value(&mut self, future: &TensorFuture) -> Result<OutputValue, Error> {
        self.wait(future).map(|r| r.output.clone())
    }

    /// Mutable access to a tensor's values. Flushes first, so the data a
    /// caller overwrites (or reads) reflects every submitted plan — the
    /// deferred queue can never observe out-of-order mutation.
    pub fn tensor_data_mut(&mut self, name: &str) -> Result<&mut SpTensor, Error> {
        self.flush()?;
        self.ctx.tensor_data_mut(name)
    }

    /// Flush and dissolve the session explicitly (dropping flushes too,
    /// but swallows errors).
    pub fn finish(mut self) -> Result<FlushReport, Error> {
        self.flush()
    }

    /// The longest flow-independent prefix of the queue: stop before the
    /// first plan that reads a tensor an earlier prefix member writes
    /// (its compute must see that write-back). WAW/WAR pairs stay in one
    /// batch — computes read only pre-batch state, write-backs replay in
    /// issue order, and the launch summaries serialize their launches.
    fn next_batch_len(&self) -> usize {
        let mut outputs: BTreeSet<&str> = BTreeSet::new();
        let mut n = 0;
        for q in &self.queue {
            if q.plan
                .inputs
                .iter()
                .any(|i| outputs.contains(i.tensor.as_str()))
            {
                break;
            }
            outputs.insert(q.plan.output.tensor.as_str());
            n += 1;
        }
        n.max(1)
    }

    /// Describe every plan of the batch — or rebind what the record holds
    /// for its tickets — drain all their point tasks in one pipelined pass,
    /// then replay model phases and write-backs in issue order — which is a
    /// topological order of the batch's launch graph, so gating each launch
    /// behind its graph predecessors (plus everything the previous batch
    /// issued) replays the model phase launch-graph-ordered.
    fn run_batch(&mut self, batch: &mut [Queued], report: &mut FlushReport) -> Result<(), Error> {
        let mode = self.ctx.exec_mode();
        let trace = self.ctx.trace().clone();
        let batch_t0 = Instant::now();
        self.record.describe(self.ctx, batch, &trace)?;
        let record = &self.record;
        let described: Vec<&Described> =
            batch.iter().map(|q| &record.described[&q.ticket]).collect();
        let (_, pipeline) = &record.pipelines[&batch[0].ticket];
        let (exec_report, timings, finished) = {
            let ctx: &Context = self.ctx;
            let mut prepared = Vec::with_capacity(batch.len());
            for (q, d) in batch.iter_mut().zip(&described) {
                prepared.push(PreparedPlan::new(ctx, d, q.seed.take())?);
            }
            let (exec_report, timings) =
                pipeline.run_traced(mode, &trace, |launch, point, span| {
                    prepared[launch].run_point(point, span)
                });
            let finished: Vec<_> = prepared.into_iter().map(PreparedPlan::finish).collect();
            (exec_report, timings, finished)
        };

        // Rebase the driver-relative milestones onto the session epoch and
        // fill in the real issue instants.
        let run_offset = batch_t0.duration_since(self.epoch).as_secs_f64();
        let timings: Vec<LaunchTiming> = timings
            .into_iter()
            .zip(batch.iter())
            .map(|(t, q)| LaunchTiming {
                name: t.name,
                issue: q.issued.duration_since(self.epoch).as_secs_f64(),
                start: run_offset + t.start,
                drain: run_offset + t.drain,
                model: t.model,
            })
            .collect();

        // Model-timeline launches issued per plan of this batch, for
        // intra-batch graph gating.
        let mut plan_ids: Vec<Vec<LaunchId>> = Vec::with_capacity(batch.len());
        for (k, ((q, finished), timing)) in batch
            .iter()
            .zip(finished)
            .zip(timings.iter().cloned())
            .enumerate()
        {
            let mut preds = self.model_preds.clone();
            for &a in &pipeline.preds()[k] {
                preds.extend_from_slice(&plan_ids[a]);
            }
            let result = finish_model(
                self.ctx,
                described[k],
                finished,
                exec_report,
                timing,
                &preds,
                q.last_write.as_ref(),
            )?;
            plan_ids.push(result.records.iter().map(|r| r.id).collect());
            report.launches.extend(result.launches.iter().cloned());
            self.slots[q.ticket] = Slot::Done(Box::new(result));
        }
        self.model_preds = plan_ids.into_iter().flatten().collect();

        trace.add("batches", 1);
        trace.add("tasks", exec_report.tasks as u64);

        report.batches += 1;
        report.sched.absorb(&exec_report);
        Ok(())
    }
}

impl Drop for Session<'_> {
    /// Write-backs are side effects later code may rely on; flush them even
    /// if the user never forced a future. Errors are swallowed here — call
    /// [`Session::finish`] to observe them.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{access, assign, schedule_outer_dim};
    use spdistal_ir::{Format, ParallelUnit};
    use spdistal_runtime::{Machine, MachineProfile};
    use spdistal_sparse::{dense_vector, generate, reference};

    const PIECES: usize = 4;

    /// A context with `B` (CSR), `x` (replicated input vector), and two
    /// output vectors `y`, `z`.
    fn spmv_ctx() -> (Context, SpTensor, Vec<f64>) {
        let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
        let b = generate::rmat_default(7, 900, 3);
        let n = b.dims()[0];
        let x = generate::dense_vec(n, 4);
        ctx.add_tensor("B", b.clone(), Format::blocked_csr())
            .unwrap();
        ctx.add_tensor("x", dense_vector(x.clone()), Format::replicated_dense_vec())
            .unwrap();
        for out in ["y", "z"] {
            ctx.add_tensor(out, dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
                .unwrap();
        }
        (ctx, b, x)
    }

    #[test]
    fn independent_plans_flush_in_one_batch() {
        let (mut ctx, b, x) = spmv_ctx();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let sy = assign("y", &[i], access("B", &[i, j]) * access("x", &[j]));
        let schedy = schedule_outer_dim(&mut ctx, &sy, PIECES, ParallelUnit::CpuThread);
        let py = ctx.compile(&sy, &schedy).unwrap();
        let [i2, j2] = ctx.fresh_vars(["i", "j"]);
        let sz = assign("z", &[i2], access("B", &[i2, j2]) * access("x", &[j2]));
        let schedz = schedule_outer_dim(&mut ctx, &sz, PIECES, ParallelUnit::CpuThread);
        let pz = ctx.compile(&sz, &schedz).unwrap();

        let expect = reference::spmv(&b, &x);
        let mut session = Session::new(&mut ctx);
        let fy = session.submit(&py);
        let fz = session.submit(&pz);
        assert_eq!(session.pending(), 2);
        let report = session.flush().unwrap();
        assert_eq!(report.batches, 1);
        assert_eq!(report.sched.tasks, 2 * PIECES);
        assert_eq!(report.launches.len(), 2);
        for got in [session.value(&fy).unwrap(), session.value(&fz).unwrap()] {
            assert!(reference::approx_eq(
                got.as_tensor().unwrap().vals(),
                &expect,
                1e-12
            ));
        }
        assert_eq!(session.pending(), 0);
    }

    #[test]
    fn raw_dependence_cuts_batches_and_chains_data() {
        let (mut ctx, b, x) = spmv_ctx();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let sy = assign("y", &[i], access("B", &[i, j]) * access("x", &[j]));
        let schedy = schedule_outer_dim(&mut ctx, &sy, PIECES, ParallelUnit::CpuThread);
        let py = ctx.compile(&sy, &schedy).unwrap();
        // z = B * y: reads the first plan's output.
        let [i2, j2] = ctx.fresh_vars(["i", "j"]);
        let sz = assign("z", &[i2], access("B", &[i2, j2]) * access("y", &[j2]));
        let schedz = schedule_outer_dim(&mut ctx, &sz, PIECES, ParallelUnit::CpuThread);
        let pz = ctx.compile(&sz, &schedz).unwrap();

        let y_expect = reference::spmv(&b, &x);
        let z_expect = reference::spmv(&b, &y_expect);
        let mut session = Session::new(&mut ctx);
        session.submit(&py);
        let fz = session.submit(&pz);
        let report = session.flush().unwrap();
        assert_eq!(report.batches, 2, "RAW must cut the pipeline");
        let got = session.value(&fz).unwrap();
        assert!(reference::approx_eq(
            got.as_tensor().unwrap().vals(),
            &z_expect,
            1e-12
        ));
    }

    #[test]
    fn empty_flush_returns_well_formed_report() {
        let (mut ctx, _, _) = spmv_ctx();
        let mut session = Session::new(&mut ctx);
        let report = session.flush().unwrap();
        assert_eq!(report.batches, 0);
        assert!(report.launches.is_empty());
        assert_eq!(report.sched.tasks, 0);
        assert_eq!(report.modeled_overlap(), 0.0);
        assert_eq!(report.model_seq_sum(), 0.0);
        assert_eq!(report.model_makespan(), 0.0);
        // Flushing an empty queue twice is just as fine.
        assert_eq!(session.flush().unwrap().modeled_overlap(), 0.0);
    }

    #[test]
    fn flush_report_zero_input_ratios_are_zero_not_nan() {
        // Default (empty) report: no overlap to speak of, a finite 0.0.
        let report = FlushReport::default();
        assert_eq!(report.modeled_overlap(), 0.0);

        // Multi-launch flush whose modeled makespan collapsed to zero must
        // not divide by it.
        let zero_model = spdistal_runtime::ModelTiming::default();
        let report = FlushReport {
            launches: vec![
                LaunchTiming {
                    name: "a".into(),
                    issue: 0.0,
                    start: 0.0,
                    drain: 0.0,
                    model: zero_model.clone(),
                },
                LaunchTiming {
                    name: "b".into(),
                    issue: 0.0,
                    start: 0.0,
                    drain: 0.0,
                    model: zero_model,
                },
            ],
            ..FlushReport::default()
        };
        assert_eq!(report.modeled_overlap(), 0.0);
        assert!(report.modeled_overlap().is_finite());
    }

    #[test]
    fn single_launch_flush_is_well_formed() {
        let (mut ctx, b, x) = spmv_ctx();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let sy = assign("y", &[i], access("B", &[i, j]) * access("x", &[j]));
        let sched = schedule_outer_dim(&mut ctx, &sy, PIECES, ParallelUnit::CpuThread);
        let py = ctx.compile(&sy, &sched).unwrap();
        let expect = reference::spmv(&b, &x);
        let mut session = Session::new(&mut ctx);
        let fy = session.submit(&py);
        let report = session.flush().unwrap();
        assert_eq!(report.batches, 1);
        assert_eq!(report.launches.len(), 1);
        assert_eq!(report.modeled_overlap(), 1.0);
        let m = &report.launches[0].model;
        assert!(m.issue <= m.start && m.start <= m.finish);
        assert!(m.seq_span > 0.0);
        assert!(report.model_seq_sum() > 0.0);
        let got = session.value(&fy).unwrap();
        assert!(reference::approx_eq(
            got.as_tensor().unwrap().vals(),
            &expect,
            1e-12
        ));
    }

    /// Two contexts: `B` skewed with its hubs clustered at low rows (proc 0
    /// dominates its launch) and `C` banded (uniform). Their SpMVs are
    /// independent, with different critical processors — the graph-ordered
    /// model replay must overlap them, launch-at-a-time must not.
    fn skew_pair_ctx() -> (Context, Vec<crate::codegen::Plan>) {
        let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
        let b = generate::rmat_clustered(7, 2000, 0.95, 5);
        let n = b.dims()[0];
        let c = generate::banded(n, 9, 6);
        ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
        ctx.add_tensor("C", c, Format::blocked_csr()).unwrap();
        ctx.add_tensor(
            "x",
            dense_vector(generate::dense_vec(n, 4)),
            Format::replicated_dense_vec(),
        )
        .unwrap();
        for out in ["y", "z"] {
            ctx.add_tensor(out, dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
                .unwrap();
        }
        let mut plans = Vec::new();
        for (out, mat) in [("y", "B"), ("z", "C")] {
            let [i, j] = ctx.fresh_vars(["i", "j"]);
            let s = assign(out, &[i], access(mat, &[i, j]) * access("x", &[j]));
            let sched = schedule_outer_dim(&mut ctx, &s, PIECES, ParallelUnit::CpuThread);
            plans.push(ctx.compile(&s, &sched).unwrap());
        }
        (ctx, plans)
    }

    #[test]
    fn independent_launches_overlap_on_the_model_timeline() {
        let (mut ctx, plans) = skew_pair_ctx();
        let mut session = Session::new(&mut ctx);
        for p in &plans {
            session.submit(p);
        }
        let report = session.flush().unwrap();
        assert_eq!(report.batches, 1);
        assert_eq!(report.launches.len(), 2);
        assert!(
            report.model_makespan() < report.model_seq_sum(),
            "independent skewed launches must overlap on the model timeline: \
             makespan {} vs sequential sum {}",
            report.model_makespan(),
            report.model_seq_sum()
        );
        assert!(report.modeled_overlap() > 1.0);
    }

    #[test]
    fn launch_at_a_time_flushes_tile_the_model_timeline() {
        let (mut ctx, plans) = skew_pair_ctx();
        let mut session = Session::new(&mut ctx);
        let mut launches = Vec::new();
        for p in &plans {
            session.submit(p);
            let report = session.flush().unwrap();
            assert_eq!(report.modeled_overlap(), 1.0, "single-launch flush");
            launches.extend(report.launches);
        }
        // Across the two flushes the spans tile: the second launch was
        // gated behind the first batch's finish.
        assert!(launches[1].model.issue >= launches[0].model.finish);
    }

    #[test]
    fn raw_chain_has_no_modeled_overlap() {
        let (mut ctx, _, _) = spmv_ctx();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let sy = assign("y", &[i], access("B", &[i, j]) * access("x", &[j]));
        let schedy = schedule_outer_dim(&mut ctx, &sy, PIECES, ParallelUnit::CpuThread);
        let py = ctx.compile(&sy, &schedy).unwrap();
        let [i2, j2] = ctx.fresh_vars(["i", "j"]);
        let sz = assign("z", &[i2], access("B", &[i2, j2]) * access("y", &[j2]));
        let schedz = schedule_outer_dim(&mut ctx, &sz, PIECES, ParallelUnit::CpuThread);
        let pz = ctx.compile(&sz, &schedz).unwrap();
        let mut session = Session::new(&mut ctx);
        session.submit(&py);
        session.submit(&pz);
        let report = session.flush().unwrap();
        assert_eq!(report.batches, 2);
        // The chain gates the second launch at the first's finish: spans
        // tile, so the overlap ratio is 1 (up to rounding).
        assert!(report.launches[1].model.start >= report.launches[0].model.finish);
        assert!(
            (report.modeled_overlap() - 1.0).abs() < 1e-9,
            "chain overlap ratio must be 1, got {}",
            report.modeled_overlap()
        );
    }

    /// A plain session's record holds nothing once its batches have run:
    /// 200 plans submitted and flushed in batches of one, two and many
    /// leave no describe and no batch graph behind.
    #[test]
    fn a_plain_session_lets_go_of_its_describes() {
        let (mut ctx, _, _) = spmv_ctx();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let sy = assign("y", &[i], access("B", &[i, j]) * access("x", &[j]));
        let schedy = schedule_outer_dim(&mut ctx, &sy, PIECES, ParallelUnit::CpuThread);
        let py = ctx.compile(&sy, &schedy).unwrap();
        // z = B * y: reads y, so each y-then-z pair cuts a batch.
        let [i2, j2] = ctx.fresh_vars(["i", "j"]);
        let sz = assign("z", &[i2], access("B", &[i2, j2]) * access("y", &[j2]));
        let schedz = schedule_outer_dim(&mut ctx, &sz, PIECES, ParallelUnit::CpuThread);
        let pz = ctx.compile(&sz, &schedz).unwrap();
        let mut session = Session::new(&mut ctx);
        let mut batches = 0;
        for round in 0..100 {
            session.submit(&py);
            session.submit(if round % 2 == 0 { &pz } else { &py });
            if round % 10 == 9 {
                batches += session.flush().unwrap().batches;
            }
        }
        assert!(batches > 50, "{batches} batches");
        assert!(session.record.described.is_empty(), "describes held");
        assert!(session.record.pipelines.is_empty(), "batch graphs held");
    }

    #[test]
    fn wait_flushes_lazily_and_timings_are_ordered() {
        let (mut ctx, b, x) = spmv_ctx();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let sy = assign("y", &[i], access("B", &[i, j]) * access("x", &[j]));
        let sched = schedule_outer_dim(&mut ctx, &sy, PIECES, ParallelUnit::CpuThread);
        let py = ctx.compile(&sy, &sched).unwrap();
        let expect = reference::spmv(&b, &x);

        let mut session = Session::new(&mut ctx);
        let fy = session.submit(&py);
        assert_eq!(session.pending(), 1);
        let result = session.wait(&fy).unwrap();
        assert!(reference::approx_eq(
            result.output.as_tensor().unwrap().vals(),
            &expect,
            1e-12
        ));
        let [t] = result.launches.as_slice() else {
            panic!("one launch timing expected");
        };
        assert!(t.issue <= t.start && t.start <= t.drain);
        // The write-back landed in the context.
        drop(session);
        assert!(reference::approx_eq(
            ctx.tensor("y").unwrap().data.vals(),
            &expect,
            1e-12
        ));
    }
}
