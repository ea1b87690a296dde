//! Dependence graph construction from region requirements.
//!
//! Point tasks of an index launch name the logical data they touch through
//! [`RegionReq`] sets. Two tasks *conflict* when they touch overlapping
//! subsets of the same region and at least one of them does something a
//! concurrent observer could notice:
//!
//! * `Read` / `Read` commutes — shared data can be read concurrently;
//! * `Reduce` / `Reduce` commutes — each task produces a private partial
//!   and the executor's caller combines partials in deterministic task
//!   order, so concurrent reduction tasks never observe each other;
//! * every other pairing (RAW, WAR, WAW, and read-or-write against a
//!   reduction) serializes, in task-index order — the same order the
//!   serial executor uses, which keeps results bit-identical.
//!
//! The graph is a DAG by construction: edges always point from the lower
//! task index to the higher one, mirroring Legion's program-order
//! dependence analysis.
//!
//! ## Two-level nodes: tasks and spans
//!
//! Each node optionally carries a *width*: the number of independent
//! **spans** (sub-tasks) it splits into. Dependences stay at task
//! granularity — a task is complete only when all its spans completed, and
//! successors wait for the whole task — but the executor schedules spans
//! individually, so an idle worker can steal *inside* a wide task instead
//! of waiting behind its critical color. Width 1 (the default) is exactly
//! the old single-closure node.

use crate::task::{Privilege, RegionReq};

/// An immutable task DAG: edges run from earlier to later task indices.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    /// `succs[i]`: tasks that must wait for `i` to complete.
    succs: Vec<Vec<usize>>,
    /// `preds[i]`: number of tasks `i` waits for.
    preds: Vec<usize>,
    edges: usize,
    /// `widths[i]`: independent spans task `i` splits into (>= 1).
    widths: Vec<usize>,
}

/// True iff two privileges may act on overlapping data concurrently.
pub fn privileges_commute(a: Privilege, b: Privilege) -> bool {
    matches!(
        (a, b),
        (Privilege::Read, Privilege::Read) | (Privilege::Reduce, Privilege::Reduce)
    )
}

/// True iff two requirement sets have a pair forcing serialization.
pub fn reqs_conflict(a: &[RegionReq], b: &[RegionReq]) -> bool {
    a.iter().any(|ra| {
        b.iter().any(|rb| {
            ra.region == rb.region
                && !privileges_commute(ra.privilege, rb.privilege)
                && ra.subset.overlaps(&rb.subset)
        })
    })
}

impl TaskGraph {
    /// Build the dependence DAG for one launch's requirement sets.
    pub fn from_reqs(reqs: &[Vec<RegionReq>]) -> TaskGraph {
        let mut builder = TaskGraphBuilder::new(reqs.len());
        builder.add_conflicts(0, reqs);
        builder.build()
    }

    /// A graph of `n` fully independent tasks.
    pub fn independent(n: usize) -> TaskGraph {
        TaskGraph {
            succs: vec![Vec::new(); n],
            preds: vec![0; n],
            edges: 0,
            widths: vec![1; n],
        }
    }

    /// Give each task a span width (builder-style). `widths[i]` is the
    /// number of independent spans task `i` splits into; every entry must
    /// be at least 1 and the caller guarantees spans of one task touch
    /// pairwise-disjoint data (the graph does not re-check this — spans
    /// are *derived* from a task whose requirements it already analyzed).
    pub fn with_widths(mut self, widths: Vec<usize>) -> TaskGraph {
        assert_eq!(widths.len(), self.preds.len(), "one width per task");
        assert!(widths.iter().all(|&w| w >= 1), "span widths must be >= 1");
        self.widths = widths;
        self
    }

    /// Number of spans task `task` splits into (1 = unsplit).
    pub fn width(&self, task: usize) -> usize {
        self.widths[task]
    }

    /// Total spans across all tasks (the executor's work-item count).
    pub fn total_spans(&self) -> usize {
        self.widths.iter().sum()
    }

    /// Tasks with more than one span.
    pub fn split_tasks(&self) -> usize {
        self.widths.iter().filter(|&&w| w > 1).count()
    }

    pub fn num_tasks(&self) -> usize {
        self.preds.len()
    }

    pub fn num_edges(&self) -> usize {
        self.edges
    }

    pub fn successors(&self, task: usize) -> &[usize] {
        &self.succs[task]
    }

    pub fn pred_count(&self, task: usize) -> usize {
        self.preds[task]
    }

    /// Tasks with no predecessors, in task order.
    pub fn initially_ready(&self) -> Vec<usize> {
        (0..self.num_tasks())
            .filter(|&t| self.preds[t] == 0)
            .collect()
    }

    /// True iff a dependence path orders `from` before `to`.
    pub fn path_exists(&self, from: usize, to: usize) -> bool {
        if from >= to {
            return from == to;
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.num_tasks()];
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            // Edges only go upward, so anything past `to` is a dead end.
            for &s in &self.succs[t] {
                if s <= to && !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Length (in tasks) of the longest dependence chain: the launch's
    /// critical path, a lower bound on parallel makespan in task units.
    pub fn critical_path_len(&self) -> usize {
        let n = self.num_tasks();
        let mut depth = vec![1usize; n];
        // Task order is a topological order (edges go low -> high).
        for i in 0..n {
            for &s in &self.succs[i] {
                depth[s] = depth[s].max(depth[i] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// Incremental constructor for composite DAGs whose edges do not all come
/// from one launch's requirement sets — e.g. the pipeline subsystem puts
/// several launches' intra-launch edges and their inter-launch edges into
/// one graph.
/// Edges must still point from lower to higher task index (the DAG
/// invariant every consumer of [`TaskGraph`] relies on).
#[derive(Clone, Debug)]
pub struct TaskGraphBuilder {
    succs: Vec<Vec<usize>>,
    preds: Vec<usize>,
    edges: usize,
}

impl TaskGraphBuilder {
    pub fn new(num_tasks: usize) -> Self {
        TaskGraphBuilder {
            succs: vec![Vec::new(); num_tasks],
            preds: vec![0; num_tasks],
            edges: 0,
        }
    }

    /// Add the edge `from -> to` (idempotent: duplicates are ignored, so
    /// composing overlapping edge sources cannot inflate predecessor
    /// counts). Panics unless `from < to`.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(
            from < to,
            "task graph edges must point forward ({from} -> {to})"
        );
        if self.succs[from].contains(&to) {
            return;
        }
        self.succs[from].push(to);
        self.preds[to] += 1;
        self.edges += 1;
    }

    /// Add one launch's intra-launch edges: its point tasks are
    /// `base..base + reqs.len()`, and `i -> j` for every `i < j` whose
    /// requirement sets conflict, in `(i, j)` order.
    pub fn add_conflicts(&mut self, base: usize, reqs: &[Vec<RegionReq>]) {
        for i in 0..reqs.len() {
            for j in (i + 1)..reqs.len() {
                if reqs_conflict(&reqs[i], &reqs[j]) {
                    self.add_edge(base + i, base + j);
                }
            }
        }
    }

    pub fn build(self) -> TaskGraph {
        let n = self.preds.len();
        TaskGraph {
            succs: self.succs,
            preds: self.preds,
            edges: self.edges,
            widths: vec![1; n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{IntervalSet, Rect1};
    use crate::task::RegionId;

    fn req(region: u32, lo: i64, hi: i64, privilege: Privilege) -> RegionReq {
        RegionReq {
            region: RegionId(region),
            subset: IntervalSet::from_rect(Rect1::new(lo, hi)),
            privilege,
        }
    }

    #[test]
    fn reads_commute_writes_serialize() {
        let a = vec![req(0, 0, 9, Privilege::Read)];
        let b = vec![req(0, 5, 14, Privilege::Read)];
        assert!(!reqs_conflict(&a, &b));
        let w = vec![req(0, 5, 14, Privilege::ReadWrite)];
        assert!(reqs_conflict(&a, &w));
        assert!(reqs_conflict(&w, &w.clone()));
    }

    #[test]
    fn disjoint_subsets_never_conflict() {
        let a = vec![req(0, 0, 4, Privilege::ReadWrite)];
        let b = vec![req(0, 5, 9, Privilege::ReadWrite)];
        assert!(!reqs_conflict(&a, &b));
        // Different regions, same interval.
        let c = vec![req(1, 0, 4, Privilege::ReadWrite)];
        assert!(!reqs_conflict(&a, &c));
    }

    #[test]
    fn reductions_commute_with_each_other_only() {
        let r1 = vec![req(0, 0, 9, Privilege::Reduce)];
        let r2 = vec![req(0, 0, 9, Privilege::Reduce)];
        assert!(!reqs_conflict(&r1, &r2));
        assert!(reqs_conflict(&r1, &[req(0, 0, 9, Privilege::Read)]));
        assert!(reqs_conflict(&r1, &[req(0, 0, 9, Privilege::ReadWrite)]));
    }

    #[test]
    fn graph_edges_follow_task_order() {
        // Task 0 writes [0,9]; task 1 reads [5,9]; task 2 reads [20,29].
        let reqs = vec![
            vec![req(0, 0, 9, Privilege::ReadWrite)],
            vec![req(0, 5, 9, Privilege::Read)],
            vec![req(0, 20, 29, Privilege::Read)],
        ];
        let g = TaskGraph::from_reqs(&reqs);
        assert_eq!(g.num_tasks(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.pred_count(1), 1);
        assert_eq!(g.initially_ready(), vec![0, 2]);
        assert!(g.path_exists(0, 1));
        assert!(!g.path_exists(0, 2));
        assert_eq!(g.critical_path_len(), 2);
    }

    #[test]
    fn chain_critical_path() {
        // 0 -> 1 -> 2 -> 3 all writing the same cell.
        let reqs: Vec<_> = (0..4)
            .map(|_| vec![req(0, 0, 0, Privilege::ReadWrite)])
            .collect();
        let g = TaskGraph::from_reqs(&reqs);
        assert_eq!(g.critical_path_len(), 4);
        assert_eq!(g.initially_ready(), vec![0]);
        assert!(g.path_exists(0, 3));
        // Transitive edges exist too (0->2 etc.), predecessors reflect them.
        assert_eq!(g.pred_count(3), 3);
    }

    #[test]
    fn builder_dedups_and_counts() {
        let mut b = TaskGraphBuilder::new(4);
        b.add_edge(0, 2);
        b.add_edge(0, 2); // duplicate: ignored
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let g = b.build();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.pred_count(2), 2);
        assert_eq!(g.initially_ready(), vec![0, 1]);
        assert!(g.path_exists(0, 3));
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    #[should_panic(expected = "must point forward")]
    fn builder_rejects_backward_edges() {
        TaskGraphBuilder::new(3).add_edge(2, 1);
    }

    #[test]
    fn independent_graph() {
        let g = TaskGraph::independent(5);
        assert_eq!(g.num_tasks(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.critical_path_len(), 1);
        assert_eq!(g.initially_ready().len(), 5);
    }

    #[test]
    fn widths_default_to_one_and_sum_to_spans() {
        let g = TaskGraph::independent(3);
        assert_eq!(g.total_spans(), 3);
        assert_eq!(g.split_tasks(), 0);
        let g = g.with_widths(vec![1, 4, 2]);
        assert_eq!(g.width(1), 4);
        assert_eq!(g.total_spans(), 7);
        assert_eq!(g.split_tasks(), 2);
    }

    #[test]
    #[should_panic(expected = "span widths must be >= 1")]
    fn zero_width_rejected() {
        TaskGraph::independent(2).with_widths(vec![1, 0]);
    }
}
