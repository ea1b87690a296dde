//! The pipelined launch driver: the one dependence analysis of a batch.
//!
//! [`Pipeline::new`] decides which launches of a batch serialize and
//! flattens them into **one** task graph. Two launches conflict iff their
//! whole-launch requirement summaries ([`LaunchDesc::summary`]) do, under
//! the commutativity rules of [`crate::sched::graph`] (Read/Read and
//! Reduce/Reduce over overlapping subsets commute, everything else
//! serializes in issue order) — the Legion deferred execution model, where
//! independent statements overlap and dependent statements pipeline behind
//! each other. A union overlaps another iff some member does, so the
//! analysis builds no summary: it indexes the raw requirements
//! ([`LaunchDesc::reqs`]) by region and runs a set test only where two
//! launches name one region with a non-commuting privilege pair. A batch of
//! one launch (every batch of a RAW chain) does no set work at all.
//!
//! Each launch contributes its point tasks with their intra-launch edges
//! (the same pairwise conflict loop a single launch gets,
//! [`TaskGraphBuilder::add_conflicts`]), and every launch edge `A -> B`
//! adds cross edges from all of `A`'s points to all of `B`'s points —
//! launch-granularity serialization. The launch edges are kept as
//! [`Pipeline::preds`], which orders the model replay after the drain.
//!
//! [`Pipeline::run`] then drains the combined graph through the existing
//! work-stealing [`Executor`] in one pass, so point tasks from *different,
//! independent* launches interleave freely on the pool while dependent
//! launches pipeline behind each other. Per-point span widths flatten the
//! same way: a split point contributes its spans as individually stealable
//! work items (two-level nodes, exactly as in a single launch), so
//! pipelined multi-launch programs benefit from intra-color parallelism
//! too. Per launch it records when the first span started and the last
//! span drained, the deferred-execution telemetry callers surface as
//! [`LaunchTiming`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use spdistal_obs::{Sym, Trace};

use crate::sched::{
    privileges_commute, ExecMode, ExecReport, Executor, TaskGraph, TaskGraphBuilder,
};
use crate::task::{RegionId, RegionReq};

use super::launch::{LaunchDesc, LaunchTiming};

/// A set of launches compiled into one dependence-respecting task graph.
#[derive(Clone, Debug)]
pub struct Pipeline {
    launches: Vec<LaunchDesc>,
    /// `preds[b]`: the launches `b` serializes behind, ascending.
    preds: Vec<Vec<usize>>,
    graph: TaskGraph,
    /// `offsets[l]`: flat index of launch `l`'s first point task.
    offsets: Vec<usize>,
    /// Flat index -> (launch, point).
    locate: Vec<(usize, usize)>,
}

/// The direct predecessors of every launch, in issue order: `a` precedes
/// `b > a` iff some requirement of `a` and some of `b` name one region with
/// a non-commuting privilege pair over overlapping subsets.
fn launch_preds(launches: &[LaunchDesc]) -> Vec<Vec<usize>> {
    let n = launches.len();
    let mut preds = vec![Vec::new(); n];
    if n < 2 {
        return preds;
    }
    // Region first: only requirements naming the same region can conflict,
    // and only across launches.
    let mut by_region: HashMap<RegionId, Vec<(usize, &RegionReq)>> = HashMap::new();
    for (l, launch) in launches.iter().enumerate() {
        for req in launch.reqs() {
            by_region.entry(req.region).or_default().push((l, req));
        }
    }
    let mut conflict = vec![false; n * n];
    for members in by_region.values() {
        for (k, &(a, ra)) in members.iter().enumerate() {
            // Members are in issue order, so `b >= a` below.
            for &(b, rb) in &members[k + 1..] {
                if a != b
                    && !conflict[a * n + b]
                    && !privileges_commute(ra.privilege, rb.privilege)
                    && ra.subset.overlaps(&rb.subset)
                {
                    conflict[a * n + b] = true;
                }
            }
        }
    }
    for (b, preds) in preds.iter_mut().enumerate() {
        preds.extend((0..b).filter(|&a| conflict[a * n + b]));
    }
    preds
}

impl Pipeline {
    pub fn new(launches: Vec<LaunchDesc>) -> Pipeline {
        let preds = launch_preds(&launches);

        let mut offsets = Vec::with_capacity(launches.len());
        let mut locate = Vec::new();
        for (l, launch) in launches.iter().enumerate() {
            offsets.push(locate.len());
            for p in 0..launch.num_points() {
                locate.push((l, p));
            }
        }

        let mut builder = TaskGraphBuilder::new(locate.len());
        // Intra-launch edges: each launch's point analysis, offset into the
        // flat index space.
        for (launch, &base) in launches.iter().zip(&offsets) {
            builder.add_conflicts(base, &launch.point_reqs);
        }
        // Cross-launch edges: launch-granularity serialization.
        for (b, preds_b) in preds.iter().enumerate() {
            for &a in preds_b {
                for i in 0..launches[a].num_points() {
                    for j in 0..launches[b].num_points() {
                        builder.add_edge(offsets[a] + i, offsets[b] + j);
                    }
                }
            }
        }
        // Span widths flatten point-for-point: the flat graph keeps each
        // launch's two-level (point -> spans) structure.
        let widths: Vec<usize> = launches
            .iter()
            .flat_map(|l| l.point_widths.iter().copied())
            .collect();

        Pipeline {
            graph: builder.build().with_widths(widths),
            preds,
            offsets,
            locate,
            launches,
        }
    }

    /// `preds()[b]`: the launches `b` serializes behind, ascending — the
    /// launch-level edge set, handed to drivers that replay the launches
    /// elsewhere (the model phase's graph-ordered replay through
    /// [`Runtime::index_launch_after`](crate::Runtime::index_launch_after)).
    /// Issue order is a topological order, so replaying the launches in
    /// issue order, each gated behind its preds, realizes the same DAG.
    pub fn preds(&self) -> &[Vec<usize>] {
        &self.preds
    }

    pub fn num_launches(&self) -> usize {
        self.launches.len()
    }

    pub fn num_tasks(&self) -> usize {
        self.locate.len()
    }

    /// The combined task graph (for inspection/tests).
    pub fn task_graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Flat index of `point` within `launch`.
    pub fn flat_index(&self, launch: usize, point: usize) -> usize {
        debug_assert!(point < self.launches[launch].num_points());
        self.offsets[launch] + point
    }

    /// Drain every launch's point tasks in one pool pass, honoring both
    /// intra- and inter-launch dependences. `body(launch, point, span)`
    /// runs exactly once per span of every point task. Returns the
    /// executor's report over the whole drain plus per-launch start/drain
    /// milestones (seconds relative to this call; `issue` is left at 0.0
    /// for the caller to rebase).
    pub fn run(
        &self,
        mode: ExecMode,
        body: impl Fn(usize, usize, usize) + Sync,
    ) -> (ExecReport, Vec<LaunchTiming>) {
        self.run_traced(mode, &Trace::disabled(), body)
    }

    /// [`Pipeline::run`] with an observability sink. Each launch is
    /// assigned a trace-global id; the drain records `LaunchIssue` for
    /// every launch up front, one `Span` window per executed span on the
    /// running worker's lane, and one `Launch` window per launch. A drain
    /// reads one clock: the milestones behind [`LaunchTiming`] are the
    /// launch windows, so each window contains its spans by construction.
    /// A disabled trace makes this identical to [`Pipeline::run`].
    pub fn run_traced(
        &self,
        mode: ExecMode,
        trace: &Trace,
        body: impl Fn(usize, usize, usize) + Sync,
    ) -> (ExecReport, Vec<LaunchTiming>) {
        let n_launches = self.launches.len();
        // Per launch: its first span's start and its last span's end, in
        // nanoseconds since `t0`. The trace reads `t_issue + ns`.
        let starts: Vec<AtomicU64> = (0..n_launches).map(|_| AtomicU64::new(u64::MAX)).collect();
        let drains: Vec<AtomicU64> = (0..n_launches).map(|_| AtomicU64::new(0)).collect();

        let base = trace.alloc_launch_ids(n_launches as u32);
        let name_syms: Vec<Sym> = self
            .launches
            .iter()
            .map(|l| trace.intern(&l.name))
            .collect();
        let t_issue = trace.now_ns();
        for (l, &sym) in name_syms.iter().enumerate() {
            trace.launch_issue_at(t_issue, base + l as u32, sym);
        }

        let t0 = Instant::now();
        let report = Executor::new(mode).run_traced(&self.graph, trace, |flat, span| {
            let (launch, point) = self.locate[flat];
            let begin = t0.elapsed().as_nanos() as u64;
            starts[launch].fetch_min(begin, Ordering::Relaxed);
            body(launch, point, span);
            let end = t0.elapsed().as_nanos() as u64;
            drains[launch].fetch_max(end, Ordering::Relaxed);
            let (id, name) = (base + launch as u32, name_syms[launch]);
            trace.span(
                id,
                name,
                flat as u32,
                span as u32,
                t_issue + begin,
                t_issue + end,
            );
        });

        let timings = self
            .launches
            .iter()
            .enumerate()
            .map(|(l, launch)| {
                let start = starts[l].load(Ordering::Relaxed);
                let drain = drains[l].load(Ordering::Relaxed);
                // A launch that ran no span (an empty one) has no window.
                let start = if start == u64::MAX {
                    0
                } else {
                    let (t_start, t_drain) = (t_issue + start, t_issue + drain);
                    trace.launch_window(base + l as u32, name_syms[l], t_start, t_drain);
                    start
                };
                LaunchTiming {
                    name: launch.name.clone(),
                    issue: 0.0,
                    start: start as f64 * 1e-9,
                    drain: drain as f64 * 1e-9,
                    model: Default::default(),
                }
            })
            .collect();
        (report, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{IntervalSet, Rect1};
    use crate::task::{Privilege, RegionId, RegionReq};
    use std::sync::Mutex;

    fn req(region: u32, lo: i64, hi: i64, privilege: Privilege) -> RegionReq {
        RegionReq {
            region: RegionId(region),
            subset: IntervalSet::from_rect(Rect1::new(lo, hi)),
            privilege,
        }
    }

    /// `points` independent point tasks all touching `region` with `priv`.
    fn launch(name: &str, region: u32, points: usize, privilege: Privilege) -> LaunchDesc {
        LaunchDesc::new(
            name,
            (0..points)
                .map(|p| vec![req(region, 10 * p as i64, 10 * p as i64 + 9, privilege)])
                .collect(),
        )
    }

    #[test]
    fn dependent_launches_fully_ordered_independent_interleavable() {
        // w0 writes region 0; r reads region 0 (RAW); w1 writes region 1.
        let pipeline = Pipeline::new(vec![
            launch("w0", 0, 3, Privilege::ReadWrite),
            launch("r", 0, 4, Privilege::Read),
            launch("w1", 1, 3, Privilege::ReadWrite),
        ]);
        assert_eq!(pipeline.num_tasks(), 10);
        assert_eq!(pipeline.preds(), &[vec![], vec![0], vec![]]);
        // Cross edges: 3 * 4; intra: none (disjoint point subsets).
        assert_eq!(pipeline.task_graph().num_edges(), 12);
        assert_eq!(pipeline.task_graph().critical_path_len(), 2);

        let order = Mutex::new(Vec::new());
        let (report, timings) = pipeline.run(ExecMode::Parallel(4), |l, p, _| {
            order.lock().unwrap().push((l, p));
        });
        assert_eq!(report.tasks, 10);
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 10);
        // Every point of w0 precedes every point of r.
        let pos = |l: usize, p: usize| order.iter().position(|&x| x == (l, p)).unwrap();
        for i in 0..3 {
            for j in 0..4 {
                assert!(pos(0, i) < pos(1, j), "w0[{i}] must precede r[{j}]");
            }
        }
        assert_eq!(timings.len(), 3);
        for t in &timings {
            assert!(t.start <= t.drain);
        }
        // The dependent launch cannot start before its predecessor drains.
        assert!(timings[1].start >= timings[0].drain);
    }

    #[test]
    fn reductions_and_reads_commute_across_launches() {
        let pipeline = Pipeline::new(vec![
            launch("r0", 0, 2, Privilege::Reduce),
            launch("r1", 0, 2, Privilege::Reduce),
            launch("x0", 1, 2, Privilege::Read),
            launch("x1", 1, 2, Privilege::Read),
        ]);
        assert!(pipeline.preds().iter().all(Vec::is_empty));
        assert_eq!(pipeline.task_graph().num_edges(), 0);
    }

    #[test]
    fn serial_mode_runs_in_issue_order() {
        let pipeline = Pipeline::new(vec![
            launch("a", 0, 2, Privilege::ReadWrite),
            launch("b", 0, 2, Privilege::ReadWrite),
        ]);
        let order = Mutex::new(Vec::new());
        pipeline.run(ExecMode::Serial, |l, p, _| {
            order.lock().unwrap().push((l, p))
        });
        assert_eq!(*order.lock().unwrap(), vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn traced_run_nests_spans_inside_their_launch_window() {
        use spdistal_obs::{Event, Trace};
        use std::collections::HashMap;
        let pipeline = Pipeline::new(vec![
            launch("w0", 0, 3, Privilege::ReadWrite),
            launch("r", 0, 4, Privilege::Read),
        ]);
        let trace = Trace::enabled();
        let (report, _) = pipeline.run_traced(ExecMode::Parallel(2), &trace, |_, _, _| {});
        assert_eq!(report.spans, 7);

        let events = trace.recorder().unwrap().snapshot();
        let mut issues: HashMap<u32, u64> = HashMap::new();
        let mut windows: HashMap<u32, (u64, u64)> = HashMap::new();
        for e in &events {
            match e.event {
                Event::LaunchIssue { launch, .. } => {
                    issues.insert(launch, e.ts_ns);
                }
                Event::Launch { launch, dur_ns, .. } => {
                    assert_eq!(e.lane, 0, "launch windows live on the control lane");
                    windows.insert(launch, (e.ts_ns, e.ts_ns + dur_ns));
                }
                _ => {}
            }
        }
        assert_eq!(issues.len(), 2, "every launch records its issue");
        assert_eq!(windows.len(), 2, "every launch records its window");
        for (launch, &(start, _)) in &windows {
            assert!(issues[launch] <= start, "issue precedes the first span");
        }
        // Every span lies inside its launch's window — the nesting
        // invariant the Chrome export depends on visually.
        let mut spans = 0;
        for e in &events {
            if let Event::Span { launch, dur_ns, .. } = e.event {
                spans += 1;
                let (start, finish) = windows[&launch];
                assert!(
                    start <= e.ts_ns && e.ts_ns + dur_ns <= finish,
                    "span [{}, {}] outside launch window [{start}, {finish}]",
                    e.ts_ns,
                    e.ts_ns + dur_ns
                );
                assert!(e.lane >= 1, "spans run on worker lanes");
            }
        }
        assert_eq!(spans, 7, "one window per executed span");
    }

    #[test]
    fn empty_pipeline_is_fine() {
        let pipeline = Pipeline::new(Vec::new());
        let (report, timings) = pipeline.run(ExecMode::Parallel(2), |_, _, _| {});
        assert_eq!(report.tasks, 0);
        assert!(timings.is_empty());
    }

    #[test]
    fn span_widths_flatten_across_launches() {
        // w0 (RAW-ordered before r) has a split point; every span of it
        // must run before any span of r, and the drain milestone must wait
        // for the *last* span.
        let w0 = launch("w0", 0, 2, Privilege::ReadWrite).with_point_widths(vec![4, 1]);
        let r = launch("r", 0, 2, Privilege::Read).with_point_widths(vec![2, 2]);
        let pipeline = Pipeline::new(vec![w0, r]);
        assert_eq!(pipeline.num_tasks(), 4);
        assert_eq!(pipeline.task_graph().total_spans(), 9);
        assert_eq!(pipeline.task_graph().width(0), 4);

        let order = Mutex::new(Vec::new());
        let (report, timings) = pipeline.run(ExecMode::Parallel(3), |l, p, s| {
            order.lock().unwrap().push((l, p, s));
        });
        assert_eq!(report.tasks, 4);
        assert_eq!(report.spans, 9);
        assert_eq!(report.split_tasks, 3);
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 9);
        let first_r = order.iter().position(|&(l, _, _)| l == 1).unwrap();
        assert_eq!(
            order[..first_r].iter().filter(|&&(l, _, _)| l == 0).count(),
            5,
            "every span of w0 precedes every span of r: {order:?}"
        );
        assert!(timings[1].start >= timings[0].drain);
    }
}
