//! The typed event vocabulary every runtime layer records into.
//!
//! Events are small `Copy` values: strings are interned up front into
//! [`Sym`] handles (see [`crate::recorder::TraceRecorder::intern`]) so the
//! hot recording path never allocates. Wall-clock timestamps are
//! nanoseconds since the recorder's epoch; model timestamps are the
//! discrete-event simulator's *simulated seconds* and live on their own
//! timeline (the Chrome exporter renders them as a separate process).

/// An interned string handle. Resolve with
/// [`crate::recorder::TraceRecorder::resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Sym(pub u32);

/// One recorded occurrence: what happened, when, and on which lane.
///
/// Lane 0 is the control thread (flushes, launch milestones, model
/// events); lane `k >= 1` is worker `k - 1` of the executing pool.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Recording lane (0 = control, `k` = worker `k - 1`).
    pub lane: u32,
    pub event: Event,
}

/// Everything the runtime knows how to record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A non-empty `Session::flush` began.
    FlushBegin { flush: u32 },
    /// The flush drained; `batches` RAW-cut batches ran `tasks` point tasks.
    FlushEnd {
        flush: u32,
        batches: u32,
        tasks: u64,
    },
    /// A launch entered a pipeline drain (issued to the combined graph).
    LaunchIssue { launch: u32, name: Sym },
    /// The launch's first span started executing.
    LaunchStart { launch: u32, name: Sym },
    /// The launch's last span completed.
    LaunchFinish { launch: u32, name: Sym },
    /// One `(task, span)` leaf body began on this lane's worker. `task` is
    /// the flat index in the pipeline's combined graph.
    SpanBegin { launch: u32, task: u32, span: u32 },
    /// The matching end of a [`Event::SpanBegin`] on the same lane.
    SpanEnd { launch: u32, task: u32, span: u32 },
    /// This lane's worker took `(task, span)` from `victim`'s deque.
    Steal { victim: u32, task: u32, span: u32 },
    /// This lane's worker scanned every victim and found nothing (recorded
    /// once per idle episode; the `steal_attempts` counter counts them all).
    StealAttempt,
    /// `Program::ensure_plan` found `key` in the plan cache.
    PlanCacheHit { key: Sym },
    /// `Program::ensure_plan` had to compile `key`.
    PlanCacheMiss { key: Sym },
    /// The auto-scheduler chose `choice` for statement `stmt`.
    AutoDecision {
        stmt: u32,
        iteration: u32,
        choice: Sym,
        reason: Sym,
    },
    /// One launch on the *modeled* timeline: simulated seconds from the
    /// discrete-event replay (`issue <= start <= finish`).
    ModelLaunch {
        name: Sym,
        issue: f64,
        start: f64,
        finish: f64,
        seq_span: f64,
    },
    /// A model-ordering barrier: the next launches serialize behind
    /// everything already issued on the simulated timeline.
    ModelFence { name: Sym },
    /// A prepared plan bound the blessed kernel for `kernel` over the
    /// driver's stored layout `signature`.
    KernelDispatch { kernel: Sym, signature: Sym },
    /// One incremental execution of a statement: `rows_dirty` driver rows
    /// were marked by streamed deltas, `spans_reexecuted` leaf spans ran,
    /// `spans_skipped` were served from the retained output. `fallback`
    /// says the dirty set forced a full recompute instead (all spans ran).
    IncrementalRun {
        stmt: u32,
        rows_dirty: u64,
        spans_reexecuted: u64,
        spans_skipped: u64,
        fallback: bool,
    },
    /// One non-empty `update_batch`: `deltas` arrived, `ignored` of them
    /// were no-ops, and the batch either wrote values in place or — it
    /// inserted or removed an entry, `structural` — re-packed the tensor.
    IngestBatch {
        deltas: u64,
        ignored: u64,
        structural: bool,
    },
}

impl Event {
    /// The Chrome-trace category this event exports under.
    pub fn category(&self) -> &'static str {
        match self {
            Event::FlushBegin { .. } | Event::FlushEnd { .. } => "flush",
            Event::LaunchIssue { .. } | Event::LaunchStart { .. } | Event::LaunchFinish { .. } => {
                "launch"
            }
            Event::SpanBegin { .. } | Event::SpanEnd { .. } => "span",
            Event::Steal { .. } | Event::StealAttempt => "steal",
            Event::PlanCacheHit { .. } | Event::PlanCacheMiss { .. } => "cache",
            Event::AutoDecision { .. } => "auto",
            Event::ModelLaunch { .. } | Event::ModelFence { .. } => "model",
            Event::KernelDispatch { .. } => "kernel-dispatch",
            Event::IncrementalRun { .. } => "incremental",
            Event::IngestBatch { .. } => "ingest",
        }
    }
}
