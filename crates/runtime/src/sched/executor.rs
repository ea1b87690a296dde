//! The execution front-end: one knob ([`ExecMode`]) selecting between the
//! serial reference path and the dependence-driven work-stealing backend,
//! plus a wall-clock report so callers can surface *real* time next to the
//! discrete-event simulator's *modeled* time.
//!
//! | This module owns | It does **not** own |
//! |---|---|
//! | thread-count policy: what `Parallel(n)` resolves to on this host ([`ExecMode::threads`]) | the threads themselves — [`super::pool`] keeps the resident helpers and decides who runs what |
//! | span-sizing policy ([`SplitPolicy`]), consumed at describe time | dependence analysis ([`super::graph`]) |
//! | the serial reference path and the [`ExecReport`] both paths fill in | parking, waking, panic containment ([`super::pool`]) |
//!
//! Both modes run the same task bodies under the same dependence
//! constraints; the serial mode simply executes tasks in index order (a
//! topological order of the graph, and exactly the order the conflict
//! edges impose), and each task's spans in span order. A caller whose
//! span bodies write only (a) span-private state or (b) pairwise-disjoint
//! shared state named by its region requirements therefore gets
//! bit-identical results from both modes.
//!
//! In parallel mode the calling thread is itself worker 0 of the drain, so
//! `Parallel(n)` degrades to the serial cost plus one notify when no helper
//! arrives in time — it is never the slower choice by a thread's lifetime.

use std::time::Instant;

use spdistal_obs::Trace;

use super::graph::TaskGraph;
use super::pool::{run_graph_traced, PoolStats};

/// How leaf tasks of a launch execute.
///
/// This type is the **single home** of thread-count policy:
///
/// * [`ExecMode::Parallel`]`(0)` auto-detects the host's available
///   parallelism (`std::thread::available_parallelism`, 1 on failure) —
///   call sites should say `Parallel(0)` and point here, not restate the
///   rule;
/// * an explicit `Parallel(n)` is honored up to
///   [`ExecMode::MAX_OVERSUBSCRIPTION`]× the available parallelism, then
///   clamped — modest oversubscription is useful (latency hiding,
///   exercising the pool on small hosts) while a runaway request
///   (`Parallel(100_000)`) is a foot-gun, not a plan;
/// * a drain additionally never admits more workers than it has work
///   items (spans), a per-launch clamp applied in [`Executor::run`]; the
///   resident pool keeps `threads() - 1` helpers for the widest mode any
///   drain of the process used — the caller is the remaining worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One thread, task-index order. The reference semantics.
    #[default]
    Serial,
    /// Work-stealing pool with the given worker count; `Parallel(0)` asks
    /// the OS for the available parallelism (see the type docs).
    Parallel(usize),
}

impl ExecMode {
    /// Worker threads may oversubscribe the host by at most this factor.
    /// Oversubscription is deliberate on small hosts (tests exercise real
    /// concurrency even on one core); unbounded worker counts are not.
    pub const MAX_OVERSUBSCRIPTION: usize = 4;

    /// Worker threads this mode resolves to, after the clamping policy in
    /// the type docs.
    ///
    /// The host's available parallelism is queried once per process and
    /// memoized: `available_parallelism` reads cgroup/affinity state from
    /// the kernel on every call, and `threads()` sits on per-launch (and,
    /// via span sizing, per-color) paths where those reads dominated the
    /// describe phase.
    pub fn threads(&self) -> usize {
        static AVAIL: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let avail = *AVAIL.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        match *self {
            ExecMode::Serial => 1,
            ExecMode::Parallel(0) => avail,
            ExecMode::Parallel(n) => n.min(avail * Self::MAX_OVERSUBSCRIPTION).max(1),
        }
    }
}

/// How aggressively splittable tasks are chunked into spans.
///
/// The policy is consumed at *describe* time (when a launch's sub-task
/// descriptors are emitted), not by the executor itself: the executor
/// simply drains whatever widths the task graph carries. It lives here
/// because it is the scheduling half of the two-level (task × span)
/// execution model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Size spans to the execution mode: roughly [`SplitPolicy::AUTO_CHUNKS_PER_THREAD`]
    /// work chunks per worker across the launch, distributed to tasks in
    /// proportion to their work — a skewed launch's dominant color gets
    /// most of the spans. Serial execution never splits (one span per
    /// task), so the default changes nothing for `ExecMode::Serial`.
    #[default]
    Auto,
    /// Never split: one span per task (the pre-split behavior).
    Off,
    /// Split every splittable task into up to `n` spans, regardless of
    /// mode — including under `ExecMode::Serial` (the reference path for
    /// split-identity tests).
    Spans(usize),
}

impl SplitPolicy {
    /// Under [`SplitPolicy::Auto`], the launch is cut into about this many
    /// chunks per worker thread, so the pool always has spans to steal.
    pub const AUTO_CHUNKS_PER_THREAD: usize = 4;

    /// Maximum spans for one task whose work is `weight` out of the
    /// launch's `total_weight`, under `mode`. Always at least 1.
    pub fn max_spans(&self, mode: ExecMode, weight: u64, total_weight: u64) -> usize {
        match *self {
            SplitPolicy::Off => 1,
            SplitPolicy::Spans(n) => n.max(1),
            SplitPolicy::Auto => {
                let threads = mode.threads();
                if threads <= 1 || total_weight == 0 {
                    return 1;
                }
                let target_chunks = (threads * Self::AUTO_CHUNKS_PER_THREAD) as f64;
                let share = weight as f64 / total_weight as f64;
                ((share * target_chunks).round() as usize).clamp(1, target_chunks as usize)
            }
        }
    }
}

/// What one executor run did and how long it really took.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecReport {
    /// Real wall-clock seconds spent draining the task graph.
    pub wall_seconds: f64,
    /// Tasks (graph nodes, e.g. colors of a launch) in the graph.
    pub tasks: usize,
    /// Spans executed across all tasks (== `tasks` when nothing split).
    pub spans: usize,
    /// Tasks that were split into more than one span.
    pub split_tasks: usize,
    /// Dependence edges the graph imposed.
    pub edges: usize,
    /// Longest dependence chain, in tasks.
    pub critical_path: usize,
    /// Workers the drain was *allowed*: the mode's thread count clamped to
    /// the span count, the submitting thread included. How many resident
    /// helpers actually arrived before the work ran out is a property of
    /// the run, not of the report — read `sched.caller_spans` /
    /// `sched.helper_spans` / `sched.wake_ns` off the trace for that.
    pub threads: usize,
    /// Spans taken from another worker's deque (0 in serial mode).
    pub steals: usize,
    /// Summed span-body seconds across every task: the launch's total
    /// compute, i.e. what a perfectly balanced drain divides by `threads`.
    pub busy_seconds: f64,
    /// The heaviest task's summed span-body seconds — the critical color.
    /// Without splitting, `wall_seconds` can never drop below this no
    /// matter how many workers run; with splitting it can, and the gap
    /// between the two is the measured win of intra-color parallelism.
    pub critical_task_seconds: f64,
}

impl ExecReport {
    /// How severely the heaviest task gates the launch: its share of the
    /// total compute times the task count (1.0 = perfectly balanced,
    /// `tasks` = one task carries everything). The unsplit analogue of
    /// `Partition::imbalance`, measured instead of modeled. A run with no
    /// tasks or no measurable compute has no skew: 0.0, never NaN.
    pub fn task_skew(&self) -> f64 {
        if self.busy_seconds <= 0.0 || self.tasks == 0 {
            return 0.0;
        }
        self.critical_task_seconds / (self.busy_seconds / self.tasks as f64)
    }

    /// Fraction of executed spans that were stolen from another worker's
    /// deque (0.0 in serial mode or when nothing was stolen). High steal
    /// rates mean the static task-to-worker assignment mispredicted the
    /// load — the executor-feedback signal auto-scheduling consumes.
    pub fn steal_rate(&self) -> f64 {
        if self.spans == 0 {
            return 0.0;
        }
        self.steals as f64 / self.spans as f64
    }

    /// Fold another drain into this report, as drains run one after the
    /// other: counts and seconds add; `threads`, `critical_path` and
    /// `critical_task_seconds` take the max.
    pub fn absorb(&mut self, other: &ExecReport) {
        self.wall_seconds += other.wall_seconds;
        self.tasks += other.tasks;
        self.spans += other.spans;
        self.split_tasks += other.split_tasks;
        self.edges += other.edges;
        self.steals += other.steals;
        self.busy_seconds += other.busy_seconds;
        self.critical_path = self.critical_path.max(other.critical_path);
        self.threads = self.threads.max(other.threads);
        self.critical_task_seconds = self.critical_task_seconds.max(other.critical_task_seconds);
    }
}

/// Executes task graphs according to an [`ExecMode`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Executor {
    mode: ExecMode,
}

impl Executor {
    pub fn new(mode: ExecMode) -> Self {
        Executor { mode }
    }

    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Run `body` once per span of `graph` (`body(task, span)`), honoring
    /// its dependence edges at task granularity.
    pub fn run(&self, graph: &TaskGraph, body: impl Fn(usize, usize) + Sync) -> ExecReport {
        self.run_traced(graph, &Trace::disabled(), body)
    }

    /// [`Executor::run`] with an observability sink: pool workers record
    /// steals onto per-worker trace lanes — the calling thread is worker 0
    /// (lane 1) on both paths, helper `k` records on lane `k + 1` — so
    /// single-threaded spans still get a worker track. A disabled trace
    /// makes this identical to [`Executor::run`].
    pub fn run_traced(
        &self,
        graph: &TaskGraph,
        trace: &Trace,
        body: impl Fn(usize, usize) + Sync,
    ) -> ExecReport {
        let threads = self.mode.threads();
        let n = graph.num_tasks();
        let total_spans = graph.total_spans();
        let t0 = Instant::now();
        let stats = if threads <= 1 || total_spans <= 1 {
            let _lane = spdistal_obs::lane_scope(1);
            let mut task_seconds = vec![0.0; n];
            for (task, seconds) in task_seconds.iter_mut().enumerate() {
                let s0 = Instant::now();
                for span in 0..graph.width(task) {
                    body(task, span);
                }
                *seconds = s0.elapsed().as_secs_f64();
            }
            PoolStats {
                executed: total_spans,
                steals: 0,
                task_seconds,
            }
        } else {
            run_graph_traced(threads, graph, trace, &body)
        };
        ExecReport {
            wall_seconds: t0.elapsed().as_secs_f64(),
            tasks: n,
            spans: stats.executed,
            split_tasks: graph.split_tasks(),
            edges: graph.num_edges(),
            critical_path: graph.critical_path_len(),
            threads: threads.min(total_spans.max(1)),
            steals: stats.steals,
            busy_seconds: stats.task_seconds.iter().sum(),
            critical_task_seconds: stats.task_seconds.iter().fold(0.0, |a, &b| a.max(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{IntervalSet, Rect1};
    use crate::task::{Privilege, RegionId, RegionReq};
    use std::sync::Mutex;

    fn write_req(lo: i64, hi: i64) -> Vec<RegionReq> {
        vec![RegionReq {
            region: RegionId(0),
            subset: IntervalSet::from_rect(Rect1::new(lo, hi)),
            privilege: Privilege::ReadWrite,
        }]
    }

    fn avail() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    #[test]
    fn modes_resolve_threads() {
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(
            ExecMode::Parallel(3).threads(),
            3.min(avail() * ExecMode::MAX_OVERSUBSCRIPTION)
        );
        assert!(ExecMode::Parallel(0).threads() >= 1);
        // The clamp is the documented single-place policy: absurd requests
        // resolve to bounded oversubscription, never to the raw ask.
        assert!(
            ExecMode::Parallel(1_000_000).threads() <= avail() * ExecMode::MAX_OVERSUBSCRIPTION
        );
    }

    #[test]
    fn split_policy_resolves_spans() {
        assert_eq!(SplitPolicy::Off.max_spans(ExecMode::Parallel(4), 10, 10), 1);
        assert_eq!(SplitPolicy::Spans(5).max_spans(ExecMode::Serial, 1, 100), 5);
        // Serial auto never splits.
        assert_eq!(SplitPolicy::Auto.max_spans(ExecMode::Serial, 10, 10), 1);
        // A task carrying all the weight gets the whole chunk budget.
        let mode = ExecMode::Parallel(2);
        let budget = mode.threads() * SplitPolicy::AUTO_CHUNKS_PER_THREAD;
        assert_eq!(SplitPolicy::Auto.max_spans(mode, 100, 100), budget);
        // A featherweight task stays unsplit.
        assert_eq!(SplitPolicy::Auto.max_spans(mode, 1, 1_000_000), 1);
    }

    #[test]
    fn serial_and_parallel_agree_on_conflicting_writes() {
        // Non-commutative task bodies over one shared cell: only correct
        // serialization yields the serial result.
        let reqs: Vec<_> = (0..12).map(|_| write_req(0, 0)).collect();
        let graph = TaskGraph::from_reqs(&reqs);
        let run = |mode| {
            let cell = Mutex::new(1.0f64);
            Executor::new(mode).run(&graph, |t, _| {
                let mut v = cell.lock().unwrap();
                *v = *v * 1.0625 + t as f64;
            });
            let v = *cell.lock().unwrap();
            v
        };
        let serial = run(ExecMode::Serial);
        for threads in [2, 4, 8] {
            assert_eq!(run(ExecMode::Parallel(threads)).to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn report_counts() {
        let reqs = vec![write_req(0, 4), write_req(2, 6), write_req(10, 12)];
        let graph = TaskGraph::from_reqs(&reqs);
        let r = Executor::new(ExecMode::Parallel(2)).run(&graph, |_, _| {});
        assert_eq!(r.tasks, 3);
        assert_eq!(r.spans, 3);
        assert_eq!(r.split_tasks, 0);
        assert_eq!(r.edges, 1);
        assert_eq!(r.critical_path, 2);
        assert!(r.wall_seconds >= 0.0);
        assert!(r.busy_seconds >= 0.0);
        assert!(r.critical_task_seconds <= r.busy_seconds + 1e-12);
    }

    #[test]
    fn split_report_counts_spans() {
        let graph = TaskGraph::independent(3).with_widths(vec![1, 4, 2]);
        for mode in [ExecMode::Serial, ExecMode::Parallel(3)] {
            let seen = Mutex::new(Vec::new());
            let r = Executor::new(mode).run(&graph, |t, s| seen.lock().unwrap().push((t, s)));
            assert_eq!(r.tasks, 3);
            assert_eq!(r.spans, 7);
            assert_eq!(r.split_tasks, 2);
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            let expect: Vec<_> = [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)].to_vec();
            assert_eq!(seen, expect);
        }
    }

    #[test]
    fn serial_runs_spans_in_order() {
        let graph = TaskGraph::independent(2).with_widths(vec![3, 2]);
        let seen = Mutex::new(Vec::new());
        Executor::new(ExecMode::Serial).run(&graph, |t, s| seen.lock().unwrap().push((t, s)));
        assert_eq!(
            seen.into_inner().unwrap(),
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
        );
    }

    #[test]
    fn zero_input_ratios_are_zero_not_nan() {
        // A default (never-run) report: no tasks, no time. Both derived
        // ratios must read 0.0 — never NaN or inf.
        let empty = ExecReport::default();
        assert_eq!(empty.task_skew(), 0.0);
        assert_eq!(empty.steal_rate(), 0.0);
        // Tasks but zero measured compute (bodies faster than the clock).
        let fast = ExecReport {
            tasks: 4,
            spans: 0,
            busy_seconds: 0.0,
            ..Default::default()
        };
        assert_eq!(fast.task_skew(), 0.0);
        assert_eq!(fast.steal_rate(), 0.0);
        // Time but zero tasks (cannot normalize by the task count).
        let no_tasks = ExecReport {
            tasks: 0,
            busy_seconds: 1.0,
            critical_task_seconds: 1.0,
            ..Default::default()
        };
        assert_eq!(no_tasks.task_skew(), 0.0);
        assert!(no_tasks.task_skew().is_finite());
        // Steals with zero spans must not divide by zero.
        let stolen = ExecReport {
            steals: 3,
            spans: 0,
            ..Default::default()
        };
        assert_eq!(stolen.steal_rate(), 0.0);
        assert!(stolen.steal_rate().is_finite());
    }

    #[test]
    fn absorb_adds_counts_and_keeps_the_max_of_the_rest() {
        let a = ExecReport {
            wall_seconds: 1.0,
            tasks: 4,
            spans: 6,
            split_tasks: 1,
            edges: 3,
            critical_path: 2,
            threads: 2,
            steals: 5,
            busy_seconds: 1.5,
            critical_task_seconds: 0.75,
        };
        let b = ExecReport {
            wall_seconds: 0.5,
            tasks: 2,
            spans: 3,
            split_tasks: 0,
            edges: 7,
            critical_path: 5,
            threads: 1,
            steals: 1,
            busy_seconds: 0.25,
            critical_task_seconds: 1.25,
        };
        let fields = |r: &ExecReport| {
            let counts = (r.tasks, r.spans, r.split_tasks, r.edges, r.steals);
            let seconds = (r.wall_seconds, r.busy_seconds);
            (
                counts,
                seconds,
                (r.critical_path, r.threads, r.critical_task_seconds),
            )
        };
        // `default()` is the identity on either side.
        let mut from_empty = ExecReport::default();
        from_empty.absorb(&a);
        assert_eq!(fields(&from_empty), fields(&a));
        let mut with_empty = a;
        with_empty.absorb(&ExecReport::default());
        assert_eq!(fields(&with_empty), fields(&a));
        // Counts and seconds add; the critical path, the thread count and
        // the heaviest task take the max.
        let mut both = a;
        both.absorb(&b);
        assert_eq!(fields(&both), ((6, 9, 1, 10, 6), (1.5, 1.75), (5, 2, 1.25)));
    }

    #[test]
    fn task_skew_reads_one_when_balanced() {
        let r = ExecReport {
            busy_seconds: 4.0,
            critical_task_seconds: 1.0,
            tasks: 4,
            ..Default::default()
        };
        assert!((r.task_skew() - 1.0).abs() < 1e-12);
        let skewed = ExecReport {
            critical_task_seconds: 3.7,
            ..r
        };
        assert!(skewed.task_skew() > 3.0);
    }
}
