//! # spdistal-obs — the observability spine
//!
//! A low-overhead structured tracing and metrics layer every runtime
//! layer writes into: typed events in a per-lane ring-buffer
//! [`TraceRecorder`], named counters and log2 latency histograms in a
//! [`MetricsRegistry`], a Chrome trace-event exporter
//! (`chrome://tracing` / Perfetto), and single-line JSON [`RunReport`]s
//! for CI and the serving report.
//!
//! The one type call sites hold is [`Trace`]: a cheaply clonable handle
//! that is either *disabled* (a `None` — every recording helper is an
//! inlined early return, near-zero cost) or *enabled* (an `Arc` over
//! recorder + metrics). Enable explicitly ([`Trace::enabled`]) or via the
//! `SPD_TRACE` environment variable ([`Trace::from_env`]).
//!
//! Worker attribution uses *lanes*: lane 0 is the control thread; worker
//! `w` of a drain records on lane `w + 1`. The thread that submits a drain
//! is its worker 0 and takes lane 1 for the drain's duration
//! ([`lane_scope`]); a resident helper calls [`set_thread_lane`] with the
//! slot it claimed, once per drain it joins.
//!
//! This crate is a dependency-free leaf: `std` only, no knowledge of the
//! runtime's types beyond the event vocabulary in [`event`].

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;

use std::cell::Cell;
use std::sync::Arc;

pub use chrome::{chrome_trace_json, validate_chrome_trace, TraceStats};
pub use event::{Event, Sym, TraceEvent};
pub use metrics::{HistSnapshot, HistSummary, MetricsRegistry};
pub use recorder::TraceRecorder;
pub use report::RunReport;

thread_local! {
    static LANE: Cell<u32> = const { Cell::new(0) };
}

/// Set this thread's recording lane (0 = control, `w + 1` = worker `w` of
/// a drain). Resident helpers call this for every drain they join.
pub fn set_thread_lane(lane: u32) {
    LANE.with(|l| l.set(lane));
}

/// This thread's current recording lane.
pub fn thread_lane() -> u32 {
    LANE.with(|l| l.get())
}

/// RAII guard restoring the previous lane on drop (for the thread that
/// submits a drain and runs it as worker 0).
pub struct LaneGuard(u32);

impl Drop for LaneGuard {
    fn drop(&mut self) {
        set_thread_lane(self.0);
    }
}

/// Switch this thread to `lane` until the guard drops.
pub fn lane_scope(lane: u32) -> LaneGuard {
    let prev = thread_lane();
    set_thread_lane(lane);
    LaneGuard(prev)
}

struct TraceInner {
    recorder: TraceRecorder,
    metrics: MetricsRegistry,
    // Hot-path handles, resolved once.
    spans: Arc<metrics::Counter>,
    steals: Arc<metrics::Counter>,
    steal_attempts: Arc<metrics::Counter>,
    span_ns: Arc<metrics::LogHistogram>,
    caller_spans: Arc<metrics::Counter>,
    helper_spans: Arc<metrics::Counter>,
    wake_ns: Arc<metrics::LogHistogram>,
}

/// A clonable tracing handle: disabled (default) or recording.
#[derive(Clone, Default)]
pub struct Trace(Option<Arc<TraceInner>>);

impl Trace {
    /// A handle that records nothing; every helper is a near-free no-op.
    pub fn disabled() -> Trace {
        Trace(None)
    }

    /// A recording handle sized to the host (one lane per possible
    /// worker).
    pub fn enabled() -> Trace {
        let recorder = TraceRecorder::for_host();
        let metrics = MetricsRegistry::default();
        let spans = metrics.counter("spans");
        let steals = metrics.counter("steals");
        let steal_attempts = metrics.counter("steal_attempts");
        let span_ns = metrics.histogram("span_ns");
        let caller_spans = metrics.counter("sched.caller_spans");
        let helper_spans = metrics.counter("sched.helper_spans");
        let wake_ns = metrics.histogram("sched.wake_ns");
        Trace(Some(Arc::new(TraceInner {
            recorder,
            metrics,
            spans,
            steals,
            steal_attempts,
            span_ns,
            caller_spans,
            helper_spans,
            wake_ns,
        })))
    }

    /// Enabled iff `SPD_TRACE` is set to anything but `""` or `"0"`.
    pub fn from_env() -> Trace {
        if env_trace_path().is_some() {
            Trace::enabled()
        } else {
            Trace::disabled()
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The recorder behind an enabled handle.
    pub fn recorder(&self) -> Option<&TraceRecorder> {
        self.0.as_deref().map(|i| &i.recorder)
    }

    /// The metrics registry behind an enabled handle.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.0.as_deref().map(|i| &i.metrics)
    }

    /// Nanoseconds since the trace epoch (0 when disabled — callers only
    /// use the value to stamp events, which are dropped anyway).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            Some(i) => i.recorder.now_ns(),
            None => 0,
        }
    }

    /// Intern `name` ([`Sym(0)`](Sym) when disabled).
    #[inline]
    pub fn intern(&self, name: &str) -> Sym {
        match &self.0 {
            Some(i) => i.recorder.intern(name),
            None => Sym(0),
        }
    }

    /// Reserve `n` consecutive launch ids (0 when disabled).
    #[inline]
    pub fn alloc_launch_ids(&self, n: u32) -> u32 {
        match &self.0 {
            Some(i) => i.recorder.alloc_launch_ids(n),
            None => 0,
        }
    }

    /// The next flush id (0 when disabled).
    pub fn next_flush_id(&self) -> u32 {
        match &self.0 {
            Some(i) => i.recorder.next_flush_id(),
            None => 0,
        }
    }

    /// Record `event` on this thread's lane, stamped now.
    #[inline]
    pub fn record(&self, event: Event) {
        if let Some(i) = &self.0 {
            i.recorder.record(thread_lane(), event);
        }
    }

    /// Record `event` on an explicit lane at an explicit timestamp.
    #[inline]
    pub fn record_at(&self, ts_ns: u64, lane: u32, event: Event) {
        if let Some(i) = &self.0 {
            i.recorder.record_at(ts_ns, lane, event);
        }
    }

    /// Bump counter `name` by `v`.
    #[inline]
    pub fn add(&self, name: &str, v: u64) {
        if let Some(i) = &self.0 {
            i.metrics.add(name, v);
        }
    }

    /// Observe `ns` into histogram `name` (conventionally `*_ns`).
    #[inline]
    pub fn observe_ns(&self, name: &str, ns: u64) {
        if let Some(i) = &self.0 {
            i.metrics.observe(name, ns);
        }
    }

    // ---- one-line instrumentation helpers -------------------------------

    /// One executed span: begin/end events on this thread's lane at the
    /// caller-measured timestamps, plus the span counter and latency
    /// histogram.
    #[inline]
    pub fn span(&self, launch: u32, task: u32, span: u32, t0_ns: u64, t1_ns: u64) {
        if let Some(i) = &self.0 {
            let lane = thread_lane();
            i.recorder
                .record_at(t0_ns, lane, Event::SpanBegin { launch, task, span });
            i.recorder
                .record_at(t1_ns, lane, Event::SpanEnd { launch, task, span });
            i.spans.add(1);
            i.span_ns.observe(t1_ns.saturating_sub(t0_ns));
        }
    }

    /// A successful steal by this thread's worker.
    #[inline]
    pub fn steal(&self, victim: u32, task: u32, span: u32) {
        if let Some(i) = &self.0 {
            i.recorder
                .record(thread_lane(), Event::Steal { victim, task, span });
            i.steals.add(1);
        }
    }

    /// A failed whole-pool victim scan. Counted always; recorded as an
    /// event only when `record_event` (callers throttle to one per idle
    /// episode so a parked worker cannot flood the ring).
    #[inline]
    pub fn steal_attempt(&self, record_event: bool) {
        if let Some(i) = &self.0 {
            i.steal_attempts.add(1);
            if record_event {
                i.recorder.record(thread_lane(), Event::StealAttempt);
            }
        }
    }

    /// One worker's share of a pool drain: `n` spans run by the submitting
    /// thread (`sched.caller_spans`) or by a resident helper
    /// (`sched.helper_spans`). A drain the caller finished alone adds
    /// nothing to the helper side.
    #[inline]
    pub fn drain_spans(&self, helper: bool, n: u64) {
        if let Some(i) = &self.0 {
            if helper {
                i.helper_spans.add(n);
            } else {
                i.caller_spans.add(n);
            }
        }
    }

    /// The first span a helper started in a drain, `ns` after the drain
    /// was published (`sched.wake_ns`): what a cross-thread wake-up cost.
    /// Drains no helper reached in time record nothing.
    #[inline]
    pub fn helper_wake(&self, ns: u64) {
        if let Some(i) = &self.0 {
            i.wake_ns.observe(ns);
        }
    }

    pub fn flush_begin(&self, flush: u32) {
        self.record(Event::FlushBegin { flush });
    }

    pub fn flush_end(&self, flush: u32, batches: u32, tasks: u64) {
        self.record(Event::FlushEnd {
            flush,
            batches,
            tasks,
        });
    }

    pub fn launch_issue_at(&self, ts_ns: u64, launch: u32, name: Sym) {
        self.record_at(ts_ns, 0, Event::LaunchIssue { launch, name });
    }

    pub fn launch_start_at(&self, ts_ns: u64, launch: u32, name: Sym) {
        self.record_at(ts_ns, 0, Event::LaunchStart { launch, name });
    }

    pub fn launch_finish_at(&self, ts_ns: u64, launch: u32, name: Sym) {
        self.record_at(ts_ns, 0, Event::LaunchFinish { launch, name });
    }

    /// One plan-cache lookup with tenant attribution: records the
    /// `PlanCacheHit`/`PlanCacheMiss` event and the `plan_cache.{hit,miss}`
    /// counters, a per-tenant `tenant.<name>.plan_cache.{hit,miss}` counter
    /// when a tenant label is given, and `plan_cache.hit.cross_tenant` when
    /// the hit reused a plan some *other* tenant compiled.
    pub fn plan_cache_lookup(
        &self,
        key: &str,
        tenant: Option<&str>,
        hit: bool,
        cross_tenant: bool,
    ) {
        if !self.is_enabled() {
            return;
        }
        let sym = self.intern(key);
        if hit {
            self.record(Event::PlanCacheHit { key: sym });
            self.add("plan_cache.hit", 1);
            if cross_tenant {
                self.add("plan_cache.hit.cross_tenant", 1);
            }
        } else {
            self.record(Event::PlanCacheMiss { key: sym });
            self.add("plan_cache.miss", 1);
        }
        if let Some(t) = tenant {
            let outcome = if hit { "hit" } else { "miss" };
            self.add(&format!("tenant.{t}.plan_cache.{outcome}"), 1);
        }
    }

    /// A prepared plan bound its leaf: the blessed kernel for `kernel` over
    /// the driver's stored `signature`. Bumps `kernel.specialized`, so run
    /// reports carry the dispatch count.
    pub fn kernel_dispatch(&self, kernel: &str, signature: &str) {
        if self.is_enabled() {
            let (kernel, signature) = (self.intern(kernel), self.intern(signature));
            self.record(Event::KernelDispatch { kernel, signature });
            self.add("kernel.specialized", 1);
        }
    }

    pub fn auto_decision(&self, stmt: u32, iteration: u32, choice: &str, reason: &str) {
        if self.is_enabled() {
            let (choice, reason) = (self.intern(choice), self.intern(reason));
            self.record(Event::AutoDecision {
                stmt,
                iteration,
                choice,
                reason,
            });
            self.add("auto_decisions", 1);
        }
    }

    /// One incremental execution of a statement: how much of the dirty set
    /// it saw and how many leaf spans it re-executed versus served from the
    /// retained output. Bumps the `incremental.*` counters either way;
    /// `fallback` additionally bumps `incremental.fallbacks` (the dirty set
    /// forced a full recompute).
    pub fn incremental_run(
        &self,
        stmt: u32,
        rows_dirty: u64,
        spans_reexecuted: u64,
        spans_skipped: u64,
        fallback: bool,
    ) {
        if self.is_enabled() {
            self.record(Event::IncrementalRun {
                stmt,
                rows_dirty,
                spans_reexecuted,
                spans_skipped,
                fallback,
            });
            self.add("incremental.runs", 1);
            self.add("incremental.rows_dirty", rows_dirty);
            self.add("incremental.spans_reexecuted", spans_reexecuted);
            self.add("incremental.spans_skipped", spans_skipped);
            if fallback {
                self.add("incremental.fallbacks", 1);
            }
        }
    }

    /// One non-empty `update_batch` that took `ns`: which arm ran and what
    /// it was fed. Bumps `ingest.{batches,deltas,ignored}` and one of
    /// `ingest.{in_place,structural}`, and observes `ingest_ns`.
    pub fn ingest_batch(&self, deltas: u64, ignored: u64, structural: bool, ns: u64) {
        if self.is_enabled() {
            self.record(Event::IngestBatch {
                deltas,
                ignored,
                structural,
            });
            self.add("ingest.batches", 1);
            self.add("ingest.deltas", deltas);
            self.add("ingest.ignored", ignored);
            self.add(
                if structural {
                    "ingest.structural"
                } else {
                    "ingest.in_place"
                },
                1,
            );
            self.observe_ns("ingest_ns", ns);
        }
    }

    /// One launch on the modeled timeline (simulated seconds).
    pub fn model_launch(&self, name: &str, issue: f64, start: f64, finish: f64, seq_span: f64) {
        if self.is_enabled() {
            let name = self.intern(name);
            self.record(Event::ModelLaunch {
                name,
                issue,
                start,
                finish,
                seq_span,
            });
            self.add("model_launches", 1);
        }
    }

    /// A model-ordering barrier.
    pub fn model_fence(&self, name: &str) {
        if self.is_enabled() {
            let name = self.intern(name);
            self.record(Event::ModelFence { name });
            self.add("model_fences", 1);
        }
    }

    // ---- exporters ------------------------------------------------------

    /// The Chrome trace-event JSON for everything recorded so far
    /// (`None` when disabled).
    pub fn chrome_trace(&self) -> Option<String> {
        self.recorder().map(chrome_trace_json)
    }

    /// Write the Chrome trace to `path`. A disabled handle writes nothing
    /// and returns `Ok`.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        match self.chrome_trace() {
            Some(json) => std::fs::write(path, json),
            None => Ok(()),
        }
    }

    /// A generic single-line JSON run report: every counter value and
    /// every histogram summary recorded so far. Histograms named `*_ns`
    /// are reported as `*_us` objects in microseconds.
    pub fn run_report_json(&self, name: &str) -> String {
        let Some(inner) = self.0.as_deref() else {
            return RunReport::new(name).str("trace", "disabled").finish();
        };
        let counters = inner
            .metrics
            .counter_values()
            .into_iter()
            .map(|(k, v)| format!("\"{}\":{v}", json::escape(&k)))
            .collect::<Vec<_>>()
            .join(",");
        let hists = inner
            .metrics
            .histogram_summaries()
            .into_iter()
            .map(|(k, s)| {
                let (key, s) = match k.strip_suffix("_ns") {
                    Some(base) => (format!("{base}_us"), s.scaled(1e-3)),
                    None => (k, s),
                };
                format!("\"{}\":{}", json::escape(&key), report::hist_json(&s))
            })
            .collect::<Vec<_>>()
            .join(",");
        RunReport::new(name)
            .int("events", inner.recorder.len() as u64)
            .int("events_dropped", inner.recorder.dropped())
            .raw("counters", &format!("{{{counters}}}"))
            .raw("hist", &format!("{{{hists}}}"))
            .finish()
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Where `SPD_TRACE` asks the trace to be written: `None` when unset,
/// empty, or `"0"`; the default `trace.json` for bare truthy values
/// (`1`/`true`/`yes`/`on`, any case); otherwise the value is the path.
pub fn env_trace_path() -> Option<String> {
    let v = std::env::var("SPD_TRACE").ok()?;
    if v.is_empty() || v == "0" {
        return None;
    }
    if ["1", "true", "yes", "on"].contains(&v.to_ascii_lowercase().as_str()) {
        Some("trace.json".to_string())
    } else {
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_inert() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        t.span(0, 0, 0, 10, 20);
        t.steal(1, 2, 3);
        t.steal_attempt(true);
        t.plan_cache_lookup("k", None, true, false);
        t.auto_decision(0, 0, "outer-dim", "balanced");
        t.model_launch("spmv", 0.0, 0.1, 0.2, 0.1);
        assert!(t.recorder().is_none());
        assert!(t.metrics().is_none());
        assert!(t.chrome_trace().is_none());
        assert_eq!(t.now_ns(), 0);
        let report = t.run_report_json("x");
        assert!(report.contains("\"trace\":\"disabled\""));
        json::Json::parse(&report).unwrap();
    }

    #[test]
    fn enabled_trace_records_counts_and_reports() {
        let t = Trace::enabled();
        t.span(0, 0, 0, 10, 2_000);
        t.span(0, 1, 0, 20, 5_000);
        t.steal(0, 1, 0);
        t.steal_attempt(true);
        t.steal_attempt(false); // counted, not recorded
        let rec = t.recorder().unwrap();
        assert_eq!(rec.len(), 6, "2 spans x 2 events + 1 steal + 1 attempt");
        let m = t.metrics().unwrap();
        assert_eq!(m.counter("spans").get(), 2);
        assert_eq!(m.counter("steals").get(), 1);
        assert_eq!(m.counter("steal_attempts").get(), 2);
        assert_eq!(m.histogram("span_ns").count(), 2);

        let report = t.run_report_json("unit");
        let v = json::Json::parse(&report).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("steals").unwrap().as_f64(),
            Some(1.0)
        );
        let span_us = v.get("hist").unwrap().get("span_us").unwrap();
        assert!(span_us.get("p50").unwrap().as_f64().unwrap() > 0.0);
        assert!(span_us.get("p99").unwrap().as_f64().is_some());
        assert!(span_us.get("p95").unwrap().as_f64().is_some());
        assert_eq!(span_us.get("count").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn plan_cache_lookup_attributes_tenants_and_cross_tenant_hits() {
        let t = Trace::enabled();
        t.plan_cache_lookup("k", Some("t1"), false, false);
        t.plan_cache_lookup("k", Some("t2"), true, true);
        t.plan_cache_lookup("k", Some("t1"), true, false);
        t.plan_cache_lookup("k", None, true, false); // untenanted hit
        let m = t.metrics().unwrap();
        // Totals plus cross-tenant attribution.
        assert_eq!(m.counter("plan_cache.hit").get(), 3);
        assert_eq!(m.counter("plan_cache.miss").get(), 1);
        assert_eq!(m.counter("plan_cache.hit.cross_tenant").get(), 1);
        // Per-tenant namespacing.
        assert_eq!(m.counter("tenant.t1.plan_cache.miss").get(), 1);
        assert_eq!(m.counter("tenant.t1.plan_cache.hit").get(), 1);
        assert_eq!(m.counter("tenant.t2.plan_cache.hit").get(), 1);
    }

    #[test]
    fn lane_scope_restores_previous_lane() {
        set_thread_lane(0);
        {
            let _g = lane_scope(3);
            assert_eq!(thread_lane(), 3);
            {
                let _g2 = lane_scope(5);
                assert_eq!(thread_lane(), 5);
            }
            assert_eq!(thread_lane(), 3);
        }
        assert_eq!(thread_lane(), 0);
    }

    #[test]
    fn clones_share_the_same_sink() {
        let t = Trace::enabled();
        let u = t.clone();
        u.steal(0, 0, 0);
        assert_eq!(t.metrics().unwrap().counter("steals").get(), 1);
        assert_eq!(t.recorder().unwrap().len(), 1);
    }
}
