//! Plan execution: launch the compiled distributed computation on the
//! runtime simulator while running the real leaf kernels for correctness.
//!
//! One index launch is issued per distributed loop (two for unknown-pattern
//! sparse outputs, following the two-phase assembly of Section V-B). Each
//! point task's region requirements name exactly the `pos`/`crd`/`vals`
//! sub-regions its color owns under the plan's partitions, so the runtime
//! infers the same communication Legion would.
//!
//! ## Describe vs. run
//!
//! Execution is split into two phases so whole launches can be deferred and
//! overlapped. There is one driver of both, the
//! [`Session`](crate::session::Session): [`execute`] (behind
//! `Context::run`) is a session of one plan.
//!
//! * **describe** — two halves. [`Described::new`] resolves the plan
//!   against the context's tensor table for everything that does not
//!   depend on tensor *values*: the blessed leaf for the driver's stored
//!   layout, the per-color region requirements and owner processors, and
//!   the span cuts. [`PreparedPlan::new`] then binds that describe to the
//!   operands: borrowed views of every operand the leaf kernels need, the
//!   leaf closure, and fresh output buffers. Nothing has executed yet. An
//!   optional `MergeSeed` — the previous output of this same plan plus the
//!   driver rows that changed since — turns the bind into an
//!   *incremental* one: the seed's buffer becomes the shared output
//!   allocation, the colors whose driver rows intersect the dirty set are
//!   zeroed, and a per-color `rerun` mask records which colors those are. A
//!   seed the plan cannot honour (reduction or assembled output, or a
//!   buffer of the wrong length) is dropped and every color re-runs;
//!   [`MergeReport::merged`] says which happened.
//! * **run** — [`PreparedPlan::run_point`] executes one span of one color's
//!   leaf kernel — or, for a color the `rerun` mask clears, records a
//!   zero-op result and leaves the seeded values in place; any
//!   dependence-respecting driver may call it. [`PreparedPlan::finish`]
//!   then folds the per-color results into the computed output, and
//!   [`finish_model`] replays the launch against the discrete-event
//!   simulator and writes the output back.
//!
//! ## Write-back
//!
//! An output is written back one of two ways, and either way one copy of
//! it exists and the output keeps its regions (a re-registration of the
//! same region layout renews them in place), so the machine model sees the
//! same new tensor state and the arm decides host-side cost only.
//! **By value**, whenever the registered output already has the pattern
//! the computed one has, judged *at write-back time* (another statement of
//! the same pass may have written it since): a dense output of the same
//! dims; SDDMM's output around its driver's very level arrays; SpTTV's
//! fibers and SpAdd3's union while the output and every input still hold
//! the level arrays the statement's previous write-back recorded
//! ([`ExecResult::written`]; a value-only batch keeps them). The
//! registration keeps its dims, levels, pattern hash and partition, and
//! only renews its regions' coherence ([`Context::write_back`]). A plain
//! pass moves the computed buffer in as its values (for SpAdd3, its span
//! buffers' values back to back: no `pos`/`crd` rebuild, no initial
//! partition). A merging pass copies only the ranges of the colors that
//! re-ran into the registered values and keeps its buffer for the next
//! merge seed — while those values are still its own last write (the
//! output's version is the one that write recorded); if anything wrote
//! the output since, the whole merge buffer moves in instead.
//! **Re-registration**: otherwise — a first run of SpTTV or SpAdd3, an
//! SpAdd3 input whose pattern changed, an output re-registered around
//! other arrays, a re-keyed plan of those — [`materialize_output`] builds a
//! new tensor around the computed buffer and
//! `Context::replace_tensor_data` takes it by move.
//! [`ExecResult::output`] is a clone of the registration that shares its
//! storage (after a merge, the registration's pattern around the merge
//! buffer); a later write to either side copies first
//! ([`SpTensor::vals_mut`]). The trace's `writeback_ns` histogram times the
//! write-back, and the counters `writeback.by_value` and
//! `writeback.reregistered` say which arm ran.
//!
//! A launch is described **once per record**. The requirement lists a
//! [`Described`] holds (one `Vec<RegionReq>` per color: every input's
//! footprint, then the color's slice of the statement's output region)
//! feed the pipeline, which derives the dependence order of the pool drain
//! from them, and [`finish_model`] issues the very same lists, borrowed, to
//! the machine model, which derives the data movement from them — for an
//! assembled output as they are for the symbolic launch, and in a copy with
//! each color's assembled range appended for the numeric one. The output
//! region belongs to the statement: the session's pass record creates it
//! the first time it describes the statement's ticket and keeps it, and
//! [`finish_model`] gives it, before the launches, the state
//! `create_region` gives a region of this run's output length, and drops
//! its copies after the write-back
//! ([`Runtime::clear_region`](spdistal_runtime::Runtime::clear_region)), so
//! a cached pass creates and retires no region. A program keeps
//! its statements' describes from one pass to the next (the session's
//! `PassRecord`, as Legion's dynamic tracing records a loop body once and
//! replays it over the same region arguments): [`Described::rebind`]
//! reuses one while its plan, exec mode and split policy are the same,
//! every tensor the plan names keeps the regions it had — a tensor keeps
//! them for its life unless a re-registration changes its layout — and
//! the write-back claims still cover the output's region lengths.
//! Anything else is a miss, and the miss path — the only path of a first
//! run and of `Context::run` — describes afresh.
//! The model's costing is memoised the same way: the runtime keeps a
//! record of the last launch of each name and replays a launch that
//! repeats it (`spdistal_runtime::exec`, "Launch replay").
//!
//! | `plan` owns | `plan` does not own |
//! |---|---|
//! | Leaf binding: kernel × *stored* driver layout → one lookup per [`Described`], one closure per prepared plan | What a color touches of a tensor — `pos` follows the parent level's entries, the root entry at level 0: [`TensorRegions::footprint`](crate::dist_tensor::TensorRegions::footprint) |
//! | The requirement lists, from describe through the drain to the model issue, and when a recorded describe still holds ([`Described::rebind`]) | Batching, launch-graph gating (`model_preds`), and the pass record with each statement's output region: [`session`](crate::session) |
//! | The output fold: shared buffer, reduction partials over their colors' windows, SpAdd3's span buffers assembled into one tensor | The partitions a plan carries: [`codegen`](crate::codegen) over [`level_funcs`](crate::level_funcs) |
//! | The model issue (`index_launch_after`) and the output region's state around it (`clear_region`) | Costing a requirement, coherence, clocks: `spdistal_runtime::exec` (docs/model.md) |
//! | The write-back: which arm (by value or re-registration), the ranges a merge copies, and its launch-granularity claims ([`writeback_reqs`]) | Moving values into a registration and renewing its regions' coherence ([`Context::write_back`]), and re-registration itself (`Context::replace_tensor_data`): [`dist_tensor`](crate::dist_tensor) |
//!
//! ## Real parallel execution
//!
//! The compute phase runs the leaf kernels through the runtime's task
//! scheduler ([`spdistal_runtime::sched`]): the same region requirements
//! that drive the communication model are analyzed into a dependence DAG,
//! and [`ExecMode`](spdistal_runtime::sched::ExecMode) selects serial
//! (reference) or work-stealing parallel execution. Output handling keeps
//! the two modes bit-identical:
//!
//! * disjoint output partitions (`reduce == false`) write the shared
//!   buffer in place through the raw-pointer [`OutVals`] view — each
//!   element has exactly one writer, no `&mut` aliases ever coexist, and
//!   any conflicting pair the graph finds is serialized in color order;
//! * aliased output partitions (`reduce == true`) give every color a
//!   private partial over the color's output window ([`out_window`]: the
//!   bounding rect of its output subset), added single-threaded into the
//!   output in color order afterwards — a deterministic floating-point sum
//!   regardless of scheduling, with the bits a whole-output partial per
//!   color would give;
//! * assembled sparse outputs are built from per-span private buffers,
//!   copied into one tensor in (color, span) order.
//!
//! ## Splittable colors: two-level sub-tasks
//!
//! Describe additionally decides, per statement, whether a color's leaf
//! kernel is *splittable* and emits sub-task descriptors
//! ([`KernelSpan`]s) instead of one closure per color: chunks of the
//! color's iteration space at the driver level that keys the output
//! writes (see [`crate::kernels::split`]). The launch descriptor carries
//! the per-color span widths, so the executor steals *inside* a dominant
//! color when workers idle. Splitting is invisible to results:
//!
//! * spans of an in-place color write the shared buffer exactly where the
//!   unsplit color would — disjoint elements, unchanged per-element
//!   accumulation order;
//! * spans of a reduction color share the *color's* private partial (its
//!   window) the same way; color partials still combine in color order;
//! * assembled span buffers concatenate in (color, span) order — the
//!   color's own ascending row order;
//! * per-color modeled op counts are exact integer sums over spans, so
//!   simulated time cannot move.
//!
//! The simulator remains the cost model: [`ExecResult::time`] is simulated,
//! [`ExecResult::wall_time`] is the measured compute-phase wall-clock, and
//! `ExecResult::sched` reports the measured per-color critical path
//! (`critical_task_seconds`) next to it, so the gap between the modeled
//! balance and the achieved schedule is visible under skew.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use spdistal_runtime::pipeline::{LaunchDesc, LaunchTiming};
use spdistal_runtime::sched::{ExecMode, ExecReport, SplitPolicy};
use spdistal_runtime::{
    IntervalSet, LaunchId, LaunchRecord, ModelTiming, Rect1, RegionId, RegionReq, TaskSpec,
};
use spdistal_sparse::{dense_vector, CooTensor, Level, LevelFormat, SpTensor};

use crate::codegen::{OutKind, Plan};
use crate::dist_tensor::{procs_for_color, Context, Error, TensorRegions};
use crate::kernels::specialized::{self, SpAdd3Fn, SpecializedKernel};
use crate::kernels::split::color_weight;
use crate::kernels::{self, tensor3, KernelSpan, LeafKernel, OutVals};
use crate::level_funcs::{entry_counts, TensorPartition};
use crate::session::Session;
use crate::streaming::DirtyMap;

/// The computed value of a plan's output.
#[derive(Clone, Debug)]
pub enum OutputValue {
    /// Dense buffer. No plan produces one — every output is written back
    /// as a tensor — but `benchmark/src/spec.rs` still matches on the
    /// variant, so it stays until a `[benchmark]` PR drops those arms.
    Dense(Vec<f64>),
    /// A sparse tensor (pattern-aligned or assembled).
    Tensor(SpTensor),
}

impl OutputValue {
    pub fn as_tensor(&self) -> Option<&SpTensor> {
        match self {
            OutputValue::Tensor(t) => Some(t),
            OutputValue::Dense(_) => None,
        }
    }

    /// Consume the value, keeping only its flat values buffer.
    pub fn into_vals(self) -> Vec<f64> {
        match self {
            OutputValue::Dense(v) => v,
            OutputValue::Tensor(t) => t.into_vals(),
        }
    }
}

/// The merge base of an incremental execution: the bit-exact output buffer
/// of this same plan's previous run, and the driver rows that changed
/// since. Callers own eligibility beyond plan shape — every input other
/// than value-only driver deltas must be unchanged (see
/// [`crate::streaming`]).
pub(crate) struct MergeSeed {
    pub vals: Vec<f64>,
    pub dirty: DirtyMap,
}

/// How one execution's leaf spans split between running and being served
/// from a merge seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeReport {
    /// A seed became the output allocation and clean colors were skipped.
    /// `false` for every unseeded execution, and for a seeded one whose
    /// plan has no in-place output of the seed's length.
    pub merged: bool,
    /// Leaf spans that ran (all of them unless `merged`).
    pub spans_reexecuted: usize,
    /// Leaf spans served from the seed without running.
    pub spans_skipped: usize,
}

/// Result of executing a plan once.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Simulated wall time of this execution (seconds).
    pub time: f64,
    /// Real wall-clock seconds the compute phase took under the selected
    /// [`ExecMode`](spdistal_runtime::sched::ExecMode) (reported
    /// alongside, never folded into, `time`): the plan's own active window
    /// (`drain - start` of its launch), since a batch's launches share the
    /// pool.
    pub wall_time: f64,
    /// Deferred-execution milestones of this plan's compute launch(es):
    /// when each was issued, when its first point task started, and when
    /// its last point task drained, on the session's submission epoch so
    /// overlap is visible across the results of one session.
    pub launches: Vec<LaunchTiming>,
    /// Bytes moved between memories during this execution.
    pub comm_bytes: u64,
    /// Messages sent during this execution.
    pub messages: u64,
    /// Modeled operations executed.
    pub ops: f64,
    /// Per-launch records.
    pub records: Vec<LaunchRecord>,
    /// Compute-phase scheduler report (threads, steals, DAG shape). For a
    /// pipelined execution this is the report of the whole batch drain the
    /// plan was part of.
    pub sched: ExecReport,
    /// This plan's own span counts, and whether it merged into a seed.
    pub merge: MergeReport,
    /// The computed output: a clone of the output's registration that
    /// shares its storage, so a result costs no second copy of the tensor.
    /// After a merge written back by value it is the registration's pattern
    /// around the merge buffer, which seeds the statement's next merge by
    /// move.
    pub output: OutputValue,
    /// What this run's write-back left, which the statement's next
    /// write-back compares with the output and its inputs
    /// ([`finish_model`]).
    pub(crate) written: LastWrite,
}

/// What a write-back left, for the statement's next run ([`finish_model`]):
/// the output's version right after it — a merge copies only its re-ran
/// ranges into values that are still this write's — and, for an output
/// whose pattern the plan derives from its inputs', the level arrays
/// [`derived_from`] found right after it.
#[derive(Clone, Debug)]
pub(crate) struct LastWrite {
    version: u64,
    patterns: Vec<Arc<[Level]>>,
}

/// Execute `plan` within `ctx`: a [`Session`] of one plan, forced at once.
/// The lhs tensor's data is replaced by the computed output (so chained
/// statements, e.g. CP-ALS sweeps, see it).
pub fn execute(ctx: &mut Context, plan: &Plan) -> Result<ExecResult, Error> {
    let mut session = Session::new(ctx);
    let future = session.submit(plan);
    session.take(&future)
}

/// One span's computed contribution, parked until [`PreparedPlan::finish`].
enum PointResult {
    /// Wrote its output buffer (shared, or the color's reduction partial)
    /// in place; the modeled op count.
    Ops(f64),
    /// SpAdd3's assembled span buffer with (symbolic, numeric) op counts.
    Assembled { span: AddSpan, sym: f64, num: f64 },
}

/// One SpAdd3 span's merged rows: `(row, len)` per non-empty row, in
/// ascending row order, over the rows' columns and values back to back.
#[derive(Default)]
pub(crate) struct AddSpan {
    rows: Vec<(usize, usize)>,
    cols: Vec<i64>,
    vals: Vec<f64>,
}

/// The leaf of a dense-output plan, bound once per prepared plan: runs one
/// `(point, span clamp)` task into the given output view and returns its
/// modeled op count — the blessed [`specialized`] kernel the describe
/// looked up, with the operands already captured. (The generic walker is
/// the identity suites' oracle, never a leaf.)
type Leaf<'a> = Box<dyn Fn(usize, Option<&KernelSpan>, &OutVals) -> f64 + Send + Sync + 'a>;

/// What one span of a prepared plan executes.
enum Body<'a> {
    /// Dense or pattern-aligned output written in place through [`OutVals`].
    Dense(Leaf<'a>),
    /// SpAdd3's merge into a fresh [`AddSpan`] per span.
    SpAdd3 {
        merge: SpAdd3Fn,
        c: &'a SpTensor,
        d: &'a SpTensor,
    },
}

/// A dense output buffer shared in place by concurrently executing colors,
/// or one reduction color's partial, which holds only the output elements
/// `base..base + len` (its window). Writers go through [`OutVals`]
/// raw-pointer views derived once at construction, so no `&mut` alias of
/// the allocation is ever live while tasks run; element-disjointness (or
/// serialization) is enforced by the launch's dependence graph.
struct SharedOut {
    buf: Vec<f64>,
    ptr: *mut f64,
    base: usize,
    len: usize,
}

// SAFETY (`Sync`): `&SharedOut` only exposes writes through the
// element-disjoint [`OutVals`] discipline — `ptr` is derived from `buf` at
// construction and `buf` is reborrowed only by `zero_range`, which takes
// `&mut self` (so no writer view, which borrows `&self`, can be live) and
// re-derives `ptr` afterwards — and the launch's dependence
// graph guarantees that two concurrently running tasks never touch the
// same element (overlapping, non-commuting output requirements are
// serialized into different batches). Under AddressSanitizer:
// `tests/parallel_identity.rs::parallel_is_bit_identical_to_serial_on_every_kernel`
// (a reduction partial's window: `spmv_nonzero`, and `spmm_nonzero`'s
// rows).
unsafe impl Sync for SharedOut {}
// SAFETY (`Send`): moving `SharedOut` moves `buf` together with the
// `ptr`/`len` derived from it (and `base`, a plain index); `Vec<f64>`'s
// heap allocation is stable across moves, so the pointer stays valid on
// the receiving thread, and `f64` has no thread affinity. Sends only happen at flush boundaries,
// when no writer views are outstanding. Under AddressSanitizer:
// `tests/pipeline_identity.rs::raw_chain_cuts_batches_bit_identically`.
unsafe impl Send for SharedOut {}

impl SharedOut {
    fn new(buf: Vec<f64>) -> Self {
        SharedOut::window(0, buf)
    }

    /// A buffer that holds output elements `base..base + buf.len()`.
    fn window(base: usize, mut buf: Vec<f64>) -> Self {
        let ptr = buf.as_mut_ptr();
        let len = buf.len();
        SharedOut {
            buf,
            ptr,
            base,
            len,
        }
    }

    /// A writer view for one task.
    fn writer(&self) -> OutVals<'_> {
        // SAFETY: the heap allocation is stable and unaliased by `&mut`
        // references for the view's lifetime; concurrent element
        // disjointness is the dependence graph's contract. Under
        // AddressSanitizer:
        // `tests/writeback_identity.rs::every_output_kind_through_every_transition`,
        // and over a reduction partial's window:
        // `tests/parallel_identity.rs::parallel_is_bit_identical_to_serial_on_every_kernel`
        // (`spmm_nonzero`).
        unsafe { OutVals::from_raw(self.ptr, self.base, self.len) }
    }

    /// Zero the closed element range `[lo, hi]`. Goes through the owning
    /// `Vec`, so the writer pointer is re-derived afterwards (`&mut self`:
    /// no writer view is live).
    fn zero_range(&mut self, lo: usize, hi: usize) {
        self.buf[lo..=hi].fill(0.0);
        self.ptr = self.buf.as_mut_ptr();
    }

    fn into_vec(self) -> Vec<f64> {
        self.buf
    }
}

/// A plan described against a context before anything runs: the blessed
/// leaf, the per-color requirement lists and owner processors, and the span
/// cuts — everything a run needs that does not depend on tensor *values*.
/// A program's pass records one per statement and the next pass reuses it
/// while [`Described::rebind`] holds (module docs, "A launch is described
/// once per record").
pub(crate) struct Described {
    plan: Arc<Plan>,
    mode: ExecMode,
    policy: SplitPolicy,
    /// The regions of every tensor the plan names — its inputs in order,
    /// then its output — under the ids the lists below name.
    regions: Vec<TensorRegions>,
    blessed: SpecializedKernel,
    /// The driver's stored layout the leaf was looked up by.
    layout: String,
    /// The statement's output region, which its pass record keeps from
    /// one describe to the next; [`finish_model`] sizes it per run.
    output: RegionId,
    /// What each color touches: every input's footprint, then its slice of
    /// `output`.
    point_reqs: Vec<Vec<RegionReq>>,
    /// The processor that runs each color.
    procs: Vec<usize>,
    /// `spans[point]` are that color's kernel spans (`None` = the whole
    /// color, unsplit); spans of one color write disjoint output elements.
    spans: Vec<Vec<Option<KernelSpan>>>,
    /// `span_offsets[point]`: flat slot index of the point's first span.
    span_offsets: Vec<usize>,
    /// The write-back's launch-granularity claims ([`writeback_reqs`]).
    writeback: Vec<RegionReq>,
}

impl Described {
    /// Describe `plan` against `ctx`, writing the statement's region
    /// `output`. A driver re-registered since compile in a layout the
    /// kernel is not blessed over is refused here.
    pub(crate) fn new(ctx: &Context, plan: Arc<Plan>, output: RegionId) -> Result<Self, Error> {
        let driver = &ctx.tensor(&plan.driver)?.data;
        // Leaf dispatch: look the (kernel, stored driver layout) pair up
        // exactly once — the layout `recognize` admitted and the arrays the
        // kernel reads (see docs/kernels.md).
        let layout = specialized::storage_signature(driver);
        let Some(blessed) = specialized::lookup(&plan.kernel, &layout) else {
            return Err(Error::Unsupported(format!(
                "plan '{}': {}",
                plan.name,
                specialized::refusal(&plan.kernel, &plan.driver, &layout)
            )));
        };
        // Every color splits at the kernel's output-keyed level, sized by
        // the context's policy and mode.
        let (part, mode, policy) = (driver_part(&plan), ctx.exec_mode(), ctx.split_policy());
        let total_weight = (0..plan.colors).map(|c| color_weight(part, c)).sum();
        let (mut point_reqs, mut procs, mut spans, mut offsets) = (vec![], vec![], vec![], vec![]);
        let kernel = &plan.kernel;
        for color in 0..plan.colors {
            point_reqs.push(launch_reqs(ctx, &plan, output, color)?);
            procs.push(owner_proc(ctx, &plan, color)?);
            offsets.push(spans.iter().map(Vec::len).sum::<usize>());
            let cut = kernels::color_spans(driver, part, kernel, color, policy, mode, total_weight);
            spans.push(cut);
        }
        let regions = named(&plan).map(|name| Ok(ctx.tensor(name)?.regions.clone()));
        Ok(Described {
            regions: regions.collect::<Result<_, Error>>()?,
            writeback: writeback_reqs(ctx, &plan)?,
            plan,
            mode,
            policy,
            blessed,
            layout,
            output,
            point_reqs,
            procs,
            spans,
            span_offsets: offsets,
        })
    }

    /// Whether this describe still holds for `plan` in `ctx`: the same
    /// plan, exec mode and split policy, every tensor the plan names
    /// registered under the very regions the lists name, and the output's
    /// regions of the lengths its claims cover.
    ///
    /// Equal regions do not tell a re-registration apart — one of the same
    /// layout keeps its ids — so the rest carries the proof. A requirement
    /// list is a function of the plan's partitions, which follow the read
    /// tensors' patterns, and of their ids: the plan is the same `Arc` only
    /// while its key — every format and every read tensor's dims and
    /// pattern hash — is, so an input re-registered around another pattern
    /// re-keys it. The output is not read: what the describe holds of it,
    /// the claims over its whole regions, is checked by length.
    pub(crate) fn rebind(&self, ctx: &Context, plan: &Arc<Plan>) -> bool {
        let same = |(name, then): (&String, &TensorRegions)| {
            ctx.tensor(name).is_ok_and(|t| t.regions == *then)
        };
        // The ids are the output's, which `same` has just matched.
        let claims_hold = || {
            let len = |r: RegionId| ctx.runtime().region(r).len;
            let claim = |c: &RegionReq| (c.region, c.subset.total_len());
            let output = self.regions.last().expect("a plan names its output");
            let live = output.ids().into_iter().filter(|&r| len(r) > 0);
            live.map(|r| (r, len(r)))
                .eq(self.writeback.iter().map(claim))
        };
        Arc::ptr_eq(&self.plan, plan)
            && self.mode == ctx.exec_mode()
            && self.policy == ctx.split_policy()
            && named(plan).zip(&self.regions).all(same)
            && claims_hold()
    }

    /// One task per color, issuing its recorded requirements as they are:
    /// the ones the pool ran under are the ones the model is charged for.
    fn tasks(&self, ops: &[f64]) -> Vec<TaskSpec<'_>> {
        let specs = self.procs.iter().zip(&self.point_reqs).zip(ops);
        specs
            .map(|((&proc, reqs), &ops)| TaskSpec {
                proc,
                reqs: Cow::Borrowed(reqs),
                ops,
            })
            .collect()
    }

    /// The launch descriptor of this plan's compute phase: the per-point
    /// requirements and span widths, and the write-back claims.
    pub(crate) fn launch_desc(&self) -> LaunchDesc {
        let widths = self.spans.iter().map(Vec::len).collect();
        LaunchDesc::new(self.plan.name.clone(), self.point_reqs.clone())
            .with_point_widths(widths)
            .with_extra_reqs(self.writeback.clone())
    }
}

/// Every tensor `plan` names: its inputs in order, then its output.
fn named(plan: &Plan) -> impl Iterator<Item = &String> {
    plan.inputs
        .iter()
        .map(|i| &i.tensor)
        .chain([&plan.output.tensor])
}

/// The partition of `plan`'s driver: what its colors and spans cut.
fn driver_part(plan: &Plan) -> &TensorPartition {
    let driver = plan.inputs.iter().find(|i| i.tensor == plan.driver);
    &driver.expect("the driver is an input").part
}

/// A [`Described`] plan bound to the context's operands and value buffers —
/// the per-run half of the describe. Holds everything the compute phase
/// needs (borrowed operand views, the leaf, result slots) so any driver
/// that honors the requirements' dependence structure can run the points —
/// span by span.
pub(crate) struct PreparedPlan<'a> {
    described: &'a Described,
    driver: &'a SpTensor,
    part: &'a TensorPartition,
    body: Body<'a>,
    out_len: usize,
    shared: Option<SharedOut>,
    /// Whether a [`MergeSeed`] became the shared output allocation.
    merged: bool,
    /// `rerun[point]`: whether the color's spans execute. All `true` unless
    /// `merged`; a cleared color keeps its seeded output values.
    rerun: Vec<bool>,
    /// Reduction plans: one private partial per color, written in place by
    /// the color's spans (disjoint elements), combined in color order at
    /// [`PreparedPlan::finish`]. Empty for in-place and assembled plans.
    reduce_parts: Vec<SharedOut>,
    /// One result slot per span, in (point, span) order; each is written
    /// once, by the one worker that runs the span.
    slots: Vec<OnceLock<PointResult>>,
}

impl<'a> PreparedPlan<'a> {
    /// Bind `described` to `ctx`'s operands: the blessed kernel and its
    /// operand views become the plan's leaf, so per-span execution is one
    /// indirect call.
    ///
    /// `seed`, when given, makes this an incremental execution: its buffer
    /// becomes the shared output allocation itself (no zero-fill, no copy)
    /// and only the colors whose driver rows intersect its dirty set
    /// re-run. It is honored only when the plan has a shared in-place
    /// output of exactly that length; otherwise every color runs into a
    /// fresh buffer, and [`MergeReport::merged`] reports `false`.
    pub(crate) fn new(
        ctx: &'a Context,
        described: &'a Described,
        seed: Option<MergeSeed>,
    ) -> Result<Self, Error> {
        let plan = &*described.plan;
        let accesses = plan.stmt.rhs.accesses();
        let data = |name: &str| ctx.tensor(name).map(|t| &t.data);
        let driver = data(&plan.driver)?;
        let part = driver_part(plan);
        let operand = |k: usize| data(&accesses[k].tensor).map(SpTensor::vals);
        let (body, out_len): (Body<'a>, usize) = match (described.blessed, &plan.kernel) {
            (SpecializedKernel::SpMv(f), _) => {
                let c = operand(1)?;
                let leaf: Leaf = Box::new(move |p, sp, out| f(driver, part, p, sp, c, out));
                (Body::Dense(leaf), driver.dims()[0])
            }
            (SpecializedKernel::SpMm(f), &LeafKernel::SpMm { jdim }) => {
                let c = operand(1)?;
                let leaf: Leaf = Box::new(move |p, sp, out| f(driver, part, p, sp, c, jdim, out));
                (Body::Dense(leaf), driver.dims()[0] * jdim)
            }
            (SpecializedKernel::Sddmm(f), &LeafKernel::Sddmm { kdim }) => {
                let (c, d, jdim) = (operand(1)?, operand(2)?, driver.dims()[1]);
                let leaf: Leaf =
                    Box::new(move |p, sp, out| f(driver, part, p, sp, c, d, kdim, jdim, out));
                (Body::Dense(leaf), driver.num_stored())
            }
            (SpecializedKernel::SpTtv(f), _) => {
                let c = operand(1)?;
                let leaf: Leaf = Box::new(move |p, sp, out| f(driver, part, p, sp, c, out));
                (Body::Dense(leaf), entry_counts(driver)[1] as usize)
            }
            (SpecializedKernel::SpMttkrp(f), &LeafKernel::SpMttkrp { ldim }) => {
                let (c, d) = (operand(1)?, operand(2)?);
                let leaf: Leaf =
                    Box::new(move |p, sp, out| f(driver, part, p, sp, c, d, ldim, out));
                (Body::Dense(leaf), driver.dims()[0] * ldim)
            }
            (SpecializedKernel::SpAdd3(merge), _) => {
                let (c, d) = (data(&accesses[1].tensor)?, data(&accesses[2].tensor)?);
                (Body::SpAdd3 { merge, c, d }, 0)
            }
            _ => unreachable!("lookup answers with the kernel's own variant"),
        };
        ctx.trace()
            .kernel_dispatch(specialized::kernel_name(&plan.kernel), &described.layout);

        let (shared, dirty) = match &plan.kernel {
            LeafKernel::SpAdd3 => (None, None),
            _ if plan.output.reduce => (None, None),
            _ => match seed {
                Some(seed) if seed.vals.len() == out_len => {
                    (Some(SharedOut::new(seed.vals)), Some(seed.dirty))
                }
                _ => (Some(SharedOut::new(vec![0.0; out_len])), None),
            },
        };
        // Aliased (reduce) outputs: one zeroed partial per color over the
        // color's output window, shared by the color's spans (they write
        // disjoint elements).
        let reduce_parts: Vec<SharedOut> = if shared.is_none() && plan.kernel != LeafKernel::SpAdd3
        {
            let partial = |color| {
                let (base, len) = out_window(plan, color);
                SharedOut::window(base, vec![0.0; len])
            };
            (0..plan.colors).map(partial).collect()
        } else {
            Vec::new()
        };

        let total_spans = described.spans.iter().map(Vec::len).sum();
        let slots = (0..total_spans).map(|_| OnceLock::new()).collect();
        let mut prepared = PreparedPlan {
            described,
            driver,
            part,
            rerun: vec![true; plan.colors],
            body,
            out_len,
            shared,
            merged: dirty.is_some(),
            reduce_parts,
            slots,
        };
        // Color granularity: a color re-runs iff its driver rows intersect
        // the dirty set (unmappable colors run defensively), from a zeroed
        // output slice — the dense leaf kernels accumulate — so it rebuilds
        // exactly the bits a full run would.
        if let Some(dirty) = &dirty {
            for color in 0..prepared.rerun.len() {
                let rerun = prepared
                    .color_row_range(color)
                    .is_none_or(|(lo, hi)| dirty.intersects_range(lo, hi));
                prepared.rerun[color] = rerun;
                if rerun {
                    prepared.zero_color_output(color);
                }
            }
        }
        Ok(prepared)
    }

    /// Run one span of one point task. Must be called exactly once per
    /// (point, span), under a driver that serializes the conflicting point
    /// pairs named by the launch descriptor's requirements; spans of one
    /// point may run concurrently (they touch disjoint output elements).
    /// A span of a color the `rerun` mask clears does not execute: its
    /// output elements keep the seeded values and it contributes zero
    /// modeled ops, so the launch bookkeeping stays whole.
    pub(crate) fn run_point(&self, point: usize, span: usize) {
        let d = self.described;
        let clamp = d.spans[point][span].as_ref();
        let result = match &self.body {
            Body::Dense(_) if !self.rerun[point] => PointResult::Ops(0.0),
            Body::Dense(leaf) => {
                let out = match &self.shared {
                    Some(shared) => shared.writer(),
                    None => self.reduce_parts[point].writer(),
                };
                PointResult::Ops(leaf(point, clamp, &out))
            }
            Body::SpAdd3 { merge, c, d } => {
                let mut span = AddSpan::default();
                let (sym, num) = merge(
                    self.driver,
                    c,
                    d,
                    self.part,
                    point,
                    clamp,
                    &mut span.rows,
                    &mut span.cols,
                    &mut span.vals,
                );
                PointResult::Assembled { span, sym, num }
            }
        };
        let written = self.slots[d.span_offsets[point] + span].set(result);
        assert!(written.is_ok(), "span ({point}, {span}) ran twice");
    }

    /// The closed row-coordinate range of one color's driver level-0
    /// entries, for intersecting against a dirty-row set. `None` when the
    /// color owns no entries or the level-0 storage doesn't expose a row
    /// order (callers treat that color as dirty).
    fn color_row_range(&self, color: usize) -> Option<(i64, i64)> {
        let subset = self.part.entries[0].subset(color);
        let rects = subset.rects();
        let (first, last) = (rects.first()?, rects.last()?);
        match self.driver.level(0) {
            // Level-0 dense entries *are* row coordinates (single root
            // parent).
            Level::Dense { .. } => Some((first.lo, last.hi)),
            // Compressed level-0 entries index a sorted row-coordinate
            // array.
            Level::Compressed { crd, .. } => {
                let lo = crd.get(first.lo as usize)?;
                let hi = crd.get(last.hi as usize)?;
                Some((*lo, *hi))
            }
            Level::Singleton { .. } => None,
        }
    }

    /// Zero one color's slice of the shared output, so a re-executed
    /// color's accumulating kernels rebuild it from scratch (exactly as a
    /// full run would).
    fn zero_color_output(&mut self, color: usize) {
        let Some(shared) = &mut self.shared else {
            return;
        };
        for r in out_subset(&self.described.plan, color).rects() {
            let lo = r.lo.max(0) as usize;
            let hi = (r.hi.min(shared.len as i64 - 1)).max(-1);
            if hi < 0 {
                continue;
            }
            shared.zero_range(lo, hi as usize);
        }
    }

    /// Fold the per-span results into the computed output and the
    /// per-color modeled op counts. Call after every span ran.
    pub(crate) fn finish(mut self) -> Finished {
        let colors = self.described.spans.iter().zip(&self.rerun);
        let spans_skipped = colors.filter(|(_, r)| !**r).map(|(s, _)| s.len()).sum();
        let merge = MergeReport {
            merged: self.merged,
            spans_reexecuted: self.slots.len() - spans_skipped,
            spans_skipped,
        };
        let reran = self.merged.then(|| std::mem::take(&mut self.rerun));
        let (computed, ops) = self.fold();
        Finished {
            computed,
            ops,
            merge,
            reran,
        }
    }

    /// The per-kernel half of [`PreparedPlan::finish`].
    ///
    /// A reduction adds each color's partial into its window of the output,
    /// in color order. That is bit-identical to adding partials the length
    /// of the whole output: an element outside a color's window would
    /// receive `+0.0` from it, and the accumulator never holds `-0.0` — it
    /// starts at `+0.0`, and a round-to-nearest sum is `-0.0` only when both
    /// addends are — so adding `+0.0` never changes its bits.
    fn fold(self) -> (Computed, Vec<f64>) {
        // Group the flat span results back per point, in span order.
        let mut flat: Vec<PointResult> = self
            .slots
            .into_iter()
            .map(|s| s.into_inner().expect("span did not run"))
            .collect();
        let spans = &self.described.spans;
        let mut results: Vec<Vec<PointResult>> = Vec::with_capacity(spans.len());
        for point_spans in spans.iter().rev() {
            let rest = flat.split_off(flat.len() - point_spans.len());
            results.push(rest);
        }
        results.reverse();
        let plan = &*self.described.plan;
        let colors = plan.colors;
        match plan.kernel {
            LeafKernel::SpAdd3 => {
                let mut ops = vec![0.0; colors];
                let mut all_spans = Vec::with_capacity(results.iter().map(Vec::len).sum());
                let mut per_color_nnz = Vec::with_capacity(colors);
                let mut symbolic_ops = Vec::with_capacity(colors);
                let mut numeric_ops = Vec::with_capacity(colors);
                for (col, spans) in results.into_iter().enumerate() {
                    // Keep the span buffers in span order: spans are
                    // ascending chunks of the color's rows, so this is the
                    // unsplit color's own row order.
                    let (mut nnz, mut sym_c, mut num_c) = (0usize, 0.0, 0.0);
                    for r in spans {
                        let PointResult::Assembled { span, sym, num } = r else {
                            unreachable!("SpAdd3 span result shape");
                        };
                        nnz += span.cols.len();
                        sym_c += sym;
                        num_c += num;
                        all_spans.push(span);
                    }
                    per_color_nnz.push(nnz);
                    symbolic_ops.push(sym_c);
                    numeric_ops.push(num_c);
                    ops[col] = sym_c + num_c;
                }
                let total_nnz = per_color_nnz.iter().sum();
                (
                    Computed::Assembled {
                        spans: all_spans,
                        per_color_nnz,
                        total_nnz,
                        symbolic_ops,
                        numeric_ops,
                    },
                    ops,
                )
            }
            _ => {
                // Per-color ops: exact integer sums over the color's spans
                // (kernel op counts are whole numbers), so the modeled cost
                // is independent of splitting.
                let mut ops = vec![0.0; colors];
                for (col, spans) in results.into_iter().enumerate() {
                    for r in spans {
                        let PointResult::Ops(o) = r else {
                            unreachable!("dense span result shape");
                        };
                        ops[col] += o;
                    }
                }
                let buf = if let Some(shared) = self.shared {
                    shared.into_vec()
                } else {
                    // Reduction: each partial into its window, in color order.
                    let mut out = vec![0.0; self.out_len];
                    for partial in self.reduce_parts {
                        let window = &mut out[partial.base..partial.base + partial.len];
                        for (dst, src) in window.iter_mut().zip(partial.into_vec()) {
                            *dst += src;
                        }
                    }
                    out
                };
                (Computed::Vals(buf), ops)
            }
        }
    }
}

/// The model phase: replay the launch(es) against the discrete-event
/// simulator, then write the output back into the context.
///
/// The launches are issued launch-graph-ordered on the simulator's
/// pipelined model timeline, gated only on `model_preds`: the launch-graph
/// predecessors of this plan's compute launch plus everything the previous
/// batch (or, for a session's first batch, the context) issued. The
/// canonical per-processor clocks (hence [`ExecResult::time`]) do not
/// observe the gating; only the modeled milestones reported in the
/// returned timings' [`ModelTiming`] do.
///
/// The write-back has two arms (module docs, "Write-back"). `last_write`
/// is what the statement's previous write-back left
/// ([`ExecResult::written`]), under this plan or another. The output is
/// written by value when its registered pattern is the computed one's
/// *now* — checked here, not at pass start, since another statement of
/// the same pass may have written it since: the computed buffer moved in,
/// or on a merge only the ranges of the colors that re-ran copied, while
/// the output still has the version `last_write` recorded
/// ([`Context::write_back`]). Otherwise the output is materialized and
/// moved into a new registration. Either arm renews the output's regions,
/// under the ids they have, with the same charges.
pub(crate) fn finish_model(
    ctx: &mut Context,
    described: &Described,
    finished: Finished,
    sched: ExecReport,
    timing: LaunchTiming,
    model_preds: &[LaunchId],
    last_write: Option<&LastWrite>,
) -> Result<ExecResult, Error> {
    // The statement's region, as `create_region` gives one of this run's
    // length: nothing of it is valid anywhere before its launches write it.
    let (out_region, out_len) = (described.output, finished.computed.len());
    ctx.runtime_mut().clear_region(out_region, out_len);
    let result = issue_and_write_back(
        ctx,
        described,
        finished,
        sched,
        timing,
        model_preds,
        last_write,
    );
    // Nothing reads the output region after its own launch(es): drop its
    // copies on every exit, a failed launch or write-back included, so no
    // memory holds them between runs.
    ctx.runtime_mut().clear_region(out_region, out_len);
    result
}

/// [`finish_model`] between the two clears of the output region: the
/// launches, then the write-back.
fn issue_and_write_back(
    ctx: &mut Context,
    described: &Described,
    finished: Finished,
    sched: ExecReport,
    mut timing: LaunchTiming,
    model_preds: &[LaunchId],
    last_write: Option<&LastWrite>,
) -> Result<ExecResult, Error> {
    let Finished {
        computed,
        ops,
        merge,
        reran,
    } = finished;
    let plan = &*described.plan;
    let time0 = ctx.runtime().now();
    let stats0 = ctx.runtime().stats().clone();
    let (out_region, out_len) = (described.output, computed.len());

    let issue_t0 = Instant::now();
    let issued: Vec<LaunchRecord> = match &computed {
        Computed::Assembled {
            per_color_nnz,
            symbolic_ops,
            numeric_ops,
            ..
        } => {
            // Two-phase assembly: symbolic pass discovers the pattern,
            // numeric pass writes values (Chou et al., Section V-B). The
            // numeric pass always chains behind the symbolic one.
            let name = format!("{}:symbolic", plan.name);
            let t1 = described.tasks(symbolic_ops);
            let sym = ctx
                .runtime_mut()
                .index_launch_after(&name, t1, model_preds)?;
            // Colors own contiguous output ranges in color order.
            let (mut t2, mut off) = (described.tasks(numeric_ops), 0i64);
            for (task, &n) in t2.iter_mut().zip(per_color_nnz) {
                if n > 0 {
                    let range = IntervalSet::from_rect(Rect1::new(off, off + n as i64 - 1));
                    task.reqs.to_mut().push(RegionReq::write(out_region, range));
                }
                off += n as i64;
            }
            let name = format!("{}:numeric", plan.name);
            let num = ctx.runtime_mut().index_launch_after(&name, t2, &[sym.id])?;
            vec![sym, num]
        }
        Computed::Vals(_) => {
            let runtime = ctx.runtime_mut();
            vec![runtime.index_launch_after(&plan.name, described.tasks(&ops), model_preds)?]
        }
    };
    // The model timeline's trace events: one modeled launch window per
    // issued record.
    let trace = ctx.trace().clone();
    trace.observe_ns("model.issue_ns", issue_t0.elapsed().as_nanos() as u64);
    let replayed = ctx.runtime().stats().replayed - stats0.replayed;
    trace.add("model.replayed", replayed);
    if trace.is_enabled() {
        for r in &issued {
            trace.model_launch(
                &r.name,
                r.model.issue,
                r.model.start,
                r.model.finish,
                r.model.seq_span,
            );
        }
    }
    // Fold the issued launches' modeled milestones into this plan's
    // timing: one window from first issue to last finish, sequential
    // spans summed (two-phase launches chain, so their spans tile).
    timing.model = ModelTiming {
        issue: issued.first().map_or(0.0, |r| r.model.issue),
        start: issued.first().map_or(0.0, |r| r.model.start),
        finish: issued.last().map_or(0.0, |r| r.model.finish),
        seq_span: issued.iter().map(|r| r.model.seq_span).sum(),
    };

    // --- write back ------------------------------------------------------
    let writeback_t0 = Instant::now();
    let name = &plan.output.tensor;
    let by_value = pattern_holds(ctx, plan, out_len, last_write)?;
    let output = if by_value {
        // A merge copies only the ranges it re-ran while the registered
        // values are still its own last write; else its whole buffer moves.
        let own = last_write.is_some_and(|w| w.version == ctx.tensor_version(name));
        let merged = reran
            .filter(|_| own)
            .map(|reran| move |src: &[f64], dst: &mut [f64]| copy_written(plan, &reran, src, dst));
        ctx.write_back(name, computed.into_vals(), merged)?
    } else {
        let output = materialize_output(ctx, plan, computed)?;
        ctx.replace_tensor_data(name, output)?;
        ctx.tensor(name)?.data.clone()
    };
    trace.observe_ns("writeback_ns", writeback_t0.elapsed().as_nanos() as u64);
    let arm = if by_value {
        "writeback.by_value"
    } else {
        "writeback.reregistered"
    };
    trace.add(arm, 1);

    let stats = ctx.runtime().stats();
    Ok(ExecResult {
        time: ctx.runtime().now() - time0,
        wall_time: (timing.drain - timing.start).max(0.0),
        launches: vec![timing],
        comm_bytes: stats.comm_bytes - stats0.comm_bytes,
        messages: stats.messages - stats0.messages,
        ops: stats.total_ops - stats0.total_ops,
        records: issued,
        sched,
        merge,
        output: OutputValue::Tensor(output),
        written: LastWrite {
            version: ctx.tensor_version(name),
            patterns: derived_from(ctx, plan)?,
        },
    })
}

/// Whether the registered output already has the pattern the computed
/// output (`out_len` values) has, so the write-back keeps it and writes
/// values only: a dense output of the same dims; SDDMM's output around its
/// driver's very level arrays; an output whose pattern the plan derives
/// from its inputs' (SpTTV's fibers, SpAdd3's union) while it and those
/// inputs still hold the arrays `last_write` recorded ([`derived_from`]).
fn pattern_holds(
    ctx: &Context,
    plan: &Plan,
    out_len: u64,
    last_write: Option<&LastWrite>,
) -> Result<bool, Error> {
    let registered = &ctx.tensor(&plan.output.tensor)?.data;
    let levels = registered.levels();
    let dense = levels.iter().all(|l| l.format() == LevelFormat::Dense);
    let (ptr, now) = (Arc::as_ptr, derived_from(ctx, plan)?);
    let holds = match plan.output.kind {
        OutKind::DenseVec => dense && registered.order() == 1,
        OutKind::DenseMat { width } => dense && registered.dims().get(1..) == Some(&[width][..]),
        _ if now.is_empty() => {
            let driver = &ctx.tensor(&plan.driver)?.data;
            Arc::ptr_eq(registered.shared_levels(), driver.shared_levels())
        }
        _ => last_write.is_some_and(|w| w.patterns.iter().map(ptr).eq(now.iter().map(ptr))),
    };
    Ok(holds && registered.num_stored() as u64 == out_len)
}

/// For an output whose pattern `plan` derives from its inputs' (SpTTV's
/// fibers, SpAdd3's union), the level arrays of the output, then of each
/// input; empty for any other output.
fn derived_from(ctx: &Context, plan: &Plan) -> Result<Vec<Arc<[Level]>>, Error> {
    let derives = match plan.output.kind {
        OutKind::SparseAssembled => true,
        OutKind::PatternVals { level } => level + 1 < ctx.tensor(&plan.driver)?.data.order(),
        OutKind::DenseVec | OutKind::DenseMat { .. } => false,
    };
    let levels = |name: &String| Ok(Arc::clone(ctx.tensor(name)?.data.shared_levels()));
    let names = [&plan.output.tensor].into_iter();
    let names = names.chain(plan.inputs.iter().map(|i| &i.tensor));
    names.filter(|_| derives).map(levels).collect()
}

/// After a merge, copy the output ranges of the colors that re-ran from the
/// computed buffer into the registered output's values. Every other element
/// still holds what the previous write-back left there, which is what the
/// merge was seeded with.
fn copy_written(plan: &Plan, reran: &[bool], src: &[f64], dst: &mut [f64]) {
    for color in (0..reran.len()).filter(|&c| reran[c]) {
        for r in out_subset(plan, color).rects() {
            let (lo, hi) = (r.lo.max(0) as usize, (r.hi + 1).max(0) as usize);
            let hi = hi.min(src.len());
            if lo < hi {
                dst[lo..hi].copy_from_slice(&src[lo..hi]);
            }
        }
    }
}

/// What one color of the launch touches: every input under its planned
/// partition ([`TensorRegions::footprint`](crate::dist_tensor::TensorRegions::footprint),
/// commuting reads), then the color's slice of the output under the plan's
/// output partition with the launch's write-or-reduce privilege — aliased
/// writers serialize in color order, reductions commute. Built once per
/// [`Described`]: the pool derives the dependence order from this list and
/// the machine model the data movement, as Legion does from one set of
/// region requirements.
fn launch_reqs(
    ctx: &Context,
    plan: &Plan,
    out_region: RegionId,
    color: usize,
) -> Result<Vec<RegionReq>, Error> {
    let mut reqs = Vec::new();
    for input in &plan.inputs {
        let footprint = ctx
            .tensor(&input.tensor)?
            .regions
            .footprint(&input.part, color);
        let touched = footprint.filter(|(_, subset)| !subset.is_empty());
        reqs.extend(touched.map(|(region, subset)| RegionReq::read(region, subset.clone())));
    }
    let out = out_subset(plan, color);
    if !out.is_empty() {
        let claim = if plan.output.reduce {
            RegionReq::reduce
        } else {
            RegionReq::write
        };
        reqs.push(claim(out_region, out));
    }
    Ok(reqs)
}

/// The processor that runs `color`: the first one the color owns along the
/// plan's machine dimension.
pub(crate) fn owner_proc(ctx: &Context, plan: &Plan, color: usize) -> Result<usize, Error> {
    procs_for_color(ctx.machine(), Some(plan.machine_dim), color)
        .next()
        .ok_or(Error::EmptyMachineDim(plan.machine_dim))
}

/// Launch-granularity requirements on the *real* regions of the plan's
/// output tensor — the write-back every execution performs after its
/// compute phase. These never enter the intra-launch point requirements
/// (the compute phase writes private/synthetic buffers); they exist so a
/// pipeline of several plans serializes any later launch that touches this
/// tensor behind this one (WAW/WAR at launch granularity).
pub(crate) fn writeback_reqs(ctx: &Context, plan: &Plan) -> Result<Vec<RegionReq>, Error> {
    let whole = |region: RegionId| {
        let len = ctx.runtime().region(region).len as i64;
        (len > 0).then(|| RegionReq::write(region, IntervalSet::from_rect(Rect1::new(0, len - 1))))
    };
    let ids = ctx.tensor(&plan.output.tensor)?.regions.ids();
    Ok(ids.into_iter().filter_map(whole).collect())
}

/// The elements of the in-place output buffer that `color` owns under the
/// plan's output partition. Empty for assembled outputs: they are built
/// from task-private rows, so there is no shared output buffer during the
/// compute phase (the model phase sizes their ranges from the result).
fn out_subset(plan: &Plan, color: usize) -> IntervalSet {
    match &plan.output.kind {
        OutKind::DenseVec | OutKind::PatternVals { .. } => plan.output.part.subset(color).clone(),
        OutKind::DenseMat { width } => scale_set(plan.output.part.subset(color), *width),
        OutKind::SparseAssembled => IntervalSet::new(),
    }
}

/// The window `(base, len)` of output elements `color` writes: the bounding
/// rect of its slice of the output partition (`(0, 0)` for an empty one). A
/// reduction partial covers only this window, as a Legion reduction
/// instance covers only the subregion its task names.
fn out_window(plan: &Plan, color: usize) -> (usize, usize) {
    let r = out_subset(plan, color).bounding_rect();
    (r.lo as usize, r.len() as usize)
}

/// Scale a coordinate set by a row width (row-major linearization).
fn scale_set(s: &IntervalSet, width: usize) -> IntervalSet {
    let w = width as i64;
    IntervalSet::from_rects(
        s.rects()
            .iter()
            .map(|r| Rect1::new(r.lo * w, (r.hi + 1) * w - 1))
            .collect(),
    )
}

/// What [`PreparedPlan::finish`] hands to [`finish_model`]: the computed
/// output, the per-color modeled op counts, the span accounting, and the
/// colors that re-ran when the plan merged into a seed.
pub(crate) struct Finished {
    computed: Computed,
    ops: Vec<f64>,
    merge: MergeReport,
    reran: Option<Vec<bool>>,
}

pub(crate) enum Computed {
    /// The in-place buffer: dense, or aligned with the driver's pattern —
    /// the plan's [`OutKind`] says which.
    Vals(Vec<f64>),
    /// SpAdd3's span buffers in (color, span) order.
    Assembled {
        spans: Vec<AddSpan>,
        per_color_nnz: Vec<usize>,
        total_nnz: usize,
        symbolic_ops: Vec<f64>,
        numeric_ops: Vec<f64>,
    },
}

impl Computed {
    /// The output's element count: the in-place buffer's length, or the
    /// assembled non-zeros.
    fn len(&self) -> u64 {
        match self {
            Computed::Vals(v) => v.len() as u64,
            Computed::Assembled { total_nnz, .. } => *total_nnz as u64,
        }
    }

    /// The output's values in storage order: the in-place buffer, or the
    /// span buffers' values back to back — (color, span) order is row
    /// order, as [`assemble`] lays them out.
    fn into_vals(self) -> Vec<f64> {
        match self {
            Computed::Vals(vals) => vals,
            Computed::Assembled {
                spans, total_nnz, ..
            } => {
                let mut vals = Vec::with_capacity(total_nnz);
                for span in &spans {
                    vals.extend_from_slice(&span.vals);
                }
                vals
            }
        }
    }
}

/// Turn the computed buffers into a new output tensor, for the
/// re-registration arm of the write-back ([`finish_model`]): the first run
/// of a plan, an SpAdd3 input whose pattern changed, or an output changed
/// since the plan last wrote it. The buffer is moved in; SDDMM's output
/// shares the driver's levels ([`SpTensor::with_vals`]) and SpTTV's copies
/// its two outer levels. The tensor is registered by move and the result
/// shares it. The by-value arm builds nothing: it keeps the registration's
/// dims and levels.
fn materialize_output(ctx: &Context, plan: &Plan, computed: Computed) -> Result<SpTensor, Error> {
    Ok(match (computed, &plan.output.kind) {
        (Computed::Vals(v), OutKind::DenseVec) => dense_vector(v),
        (Computed::Vals(v), OutKind::DenseMat { width }) => {
            // The rows come from the registered output, not from the
            // buffer: a zero-width matrix has rows but no values.
            let rows = ctx.tensor(&plan.output.tensor)?.data.dims()[0];
            spdistal_sparse::dense_matrix(rows, *width, v)
        }
        (Computed::Vals(vals), OutKind::PatternVals { level }) => {
            let driver = &ctx.tensor(&plan.driver)?.data;
            if *level == driver.order() - 1 {
                // Full pattern reuse (SDDMM): the driver's levels, shared.
                driver.with_vals(vals)
            } else {
                // Fiber-level pattern (SpTTV): first two levels.
                tensor3::spttv_output(driver, vals)
            }
        }
        (
            Computed::Assembled {
                spans, total_nnz, ..
            },
            OutKind::SparseAssembled,
        ) => {
            let out_t = &ctx.tensor(&plan.output.tensor)?.data;
            assemble(out_t.dims()[0], out_t.dims()[1], spans, total_nnz)
        }
        _ => return Err(Error::Unsupported("output kind mismatch".into())),
    })
}

/// SpAdd3's output tensor: the span buffers copied, in (color, span) order,
/// into `pos`/`crd`/`vals` allocated once. That order is row order: colors
/// own ascending, disjoint row blocks (`codegen` compiles SpAdd3 under no
/// other split) and a color's spans are ascending chunks of its rows. It is
/// also the order [`finish_model`] charges the numeric launch's output
/// ranges in.
fn assemble(rows: usize, cols: usize, spans: Vec<AddSpan>, nnz: usize) -> SpTensor {
    let mut pos = vec![Rect1::empty(); rows];
    let mut crd = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    let mut next_row = 0;
    for span in spans {
        let mut off = crd.len() as i64;
        for &(row, len) in &span.rows {
            debug_assert!(row >= next_row, "assembled rows ascend across spans");
            next_row = row + 1;
            pos[row] = Rect1::new(off, off + len as i64 - 1);
            off += len as i64;
        }
        crd.extend_from_slice(&span.cols);
        vals.extend_from_slice(&span.vals);
    }
    SpTensor::from_parts(
        vec![rows, cols],
        vec![Level::Dense { size: rows }, Level::Compressed { pos, crd }],
        vals,
    )
}

/// Helper for tests and the figure binaries: a zeroed COO-backed CSR with
/// given dims.
pub fn empty_csr(rows: usize, cols: usize) -> SpTensor {
    CooTensor::new(vec![rows, cols]).build(&spdistal_sparse::generate::CSR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{access, assign, schedule_nonzero};
    use spdistal_ir::{Format, ParallelUnit};
    use spdistal_runtime::{Machine, MachineProfile};
    use spdistal_sparse::{dense_matrix, generate, reference};

    /// Small integers, a third of them `-0.0`: every sum of a few of their
    /// products is exact, so any association of it has the bits of the
    /// serial reference's, and the signed zeros test that no window hands a
    /// `-0.0` to the fold.
    fn ints(n: usize, seed: usize) -> impl Iterator<Item = f64> {
        (0..n).map(move |k| match (k * 7 + seed) % 9 {
            0 | 3 | 6 => -0.0,
            r => r as f64 - 4.0,
        })
    }

    /// `A = B·C` under a non-zero split of `B` into `pieces` colors (SpMV
    /// for `width` 0), run under `mode` and `split`: checks the computed
    /// values against the serial reference by `to_bits` and returns the
    /// plan.
    fn run(
        rows: usize,
        nnz: usize,
        width: usize,
        pieces: usize,
        mode: ExecMode,
        split: SplitPolicy,
    ) -> Plan {
        let mut b = generate::uniform(rows, 40, nnz, 7);
        let vals: Vec<f64> = ints(b.num_stored(), 1).collect();
        b.vals_mut().copy_from_slice(&vals);
        let cols = width.max(1);
        let c: Vec<f64> = ints(40 * cols, 2).collect();
        let machine = Machine::grid1d(pieces, MachineProfile::lassen_cpu());
        let mut ctx = Context::new(machine)
            .with_exec_mode(mode)
            .with_split_policy(split);
        ctx.add_tensor("B", b.clone(), Format::nonzero_csr())
            .unwrap();
        let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
        let (stmt, want) = if width == 0 {
            let zeros = dense_vector(vec![0.0; rows]);
            ctx.add_tensor("A", zeros, Format::blocked_dense_vec())
                .unwrap();
            ctx.add_tensor("C", dense_vector(c.clone()), Format::replicated_dense_vec())
                .unwrap();
            let stmt = assign("A", &[i], access("B", &[i, k]) * access("C", &[k]));
            (stmt, reference::spmv(&b, &c))
        } else {
            let zeros = dense_matrix(rows, width, vec![0.0; rows * width]);
            ctx.add_tensor("A", zeros, Format::blocked_dense_matrix())
                .unwrap();
            let dense = dense_matrix(40, width, c.clone());
            ctx.add_tensor("C", dense, Format::replicated_dense_matrix())
                .unwrap();
            let stmt = assign("A", &[i, j], access("B", &[i, k]) * access("C", &[k, j]));
            (stmt, reference::spmm(&b, &c, width))
        };
        let unit = ParallelUnit::CpuThread;
        let sched = schedule_nonzero(&mut ctx, &stmt, "B", 2, pieces, unit).unwrap();
        let plan = ctx.compile(&stmt, &sched).unwrap();
        assert!(plan.output.reduce, "a non-zero split reduces");
        let got = ctx.run(&plan).unwrap().output.into_vals();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{mode:?} {split:?}");
        plan
    }

    /// Every mode a window must be invisible in: serial, and two workers
    /// with and without colors split into spans sharing one partial.
    const MODES: [(ExecMode, SplitPolicy); 3] = [
        (ExecMode::Serial, SplitPolicy::Off),
        (ExecMode::Parallel(2), SplitPolicy::Auto),
        (ExecMode::Parallel(2), SplitPolicy::Spans(3)),
    ];

    #[test]
    fn more_pieces_than_rows_leaves_empty_windows() {
        for (mode, split) in MODES {
            for width in [0, 3] {
                let plan = run(3, 5, width, 8, mode, split);
                let out_len = 3 * width.max(1);
                let windows: Vec<_> = (0..8).map(|c| out_window(&plan, c)).collect();
                assert!(windows.contains(&(0, 0)), "{windows:?}");
                assert!(windows.iter().all(|&(base, len)| base + len <= out_len));
            }
        }
    }

    #[test]
    fn a_window_may_end_at_the_last_row() {
        for (mode, split) in MODES {
            for width in [0, 4] {
                let plan = run(50, 400, width, 6, mode, split);
                let out_len = 50 * width.max(1);
                let (base, len) = out_window(&plan, 5);
                assert_eq!(base + len, out_len, "the last color's window");
                assert!(len < out_len, "a window, not the whole output");
            }
        }
    }

    #[test]
    fn signed_zeros_fold_to_the_reference_bits() {
        // Rows of one or two entries: many a row's products are all `-0.0`.
        for (mode, split) in MODES {
            for width in [0, 2] {
                run(60, 70, width, 4, mode, split);
            }
        }
    }
}
