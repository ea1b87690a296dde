//! The inter-launch dependence graph.
//!
//! Whole launches are the nodes; edges come from exactly the same
//! commutativity rules the intra-launch scheduler uses
//! ([`crate::sched::graph`]): Read/Read and Reduce/Reduce over overlapping
//! subsets commute, everything else (RAW, WAR, WAW, read-or-write against a
//! reduction) serializes in issue order. Dependence is decided at launch
//! granularity — the Legion deferred execution model, where independent
//! statements overlap and dependent statements pipeline behind each other:
//! two launches conflict iff their whole-launch requirement *summaries*
//! ([`LaunchDesc::summary`]) do.
//!
//! [`LaunchGraph::from_launches`] decides exactly that without building a
//! summary: a union overlaps another iff some member does, so it indexes
//! the raw requirements by region and runs a set test only where two
//! launches name one region with a non-commuting privilege pair. A batch of
//! one launch (every batch of a RAW chain) does no set work at all.

use std::collections::HashMap;

use crate::sched::{privileges_commute, TaskGraph, TaskGraphBuilder};
use crate::task::{RegionId, RegionReq};

use super::launch::LaunchDesc;

/// Dependence DAG over launches: edges run from earlier to later issue
/// order, mirroring Legion's program-order dependence analysis.
#[derive(Clone, Debug)]
pub struct LaunchGraph {
    graph: TaskGraph,
}

impl LaunchGraph {
    /// Analyze one summary per launch, in issue order.
    pub fn from_summaries(summaries: &[Vec<RegionReq>]) -> LaunchGraph {
        LaunchGraph {
            graph: TaskGraph::from_reqs(summaries),
        }
    }

    /// Analyze launches in issue order: the same edge set as
    /// `from_summaries` over every launch's [`LaunchDesc::summary`].
    pub fn from_launches(launches: &[LaunchDesc]) -> LaunchGraph {
        let n = launches.len();
        if n < 2 {
            return LaunchGraph {
                graph: TaskGraph::independent(n),
            };
        }
        // Region first: only requirements naming the same region can
        // conflict, and only across launches.
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
        let mut builder = TaskGraphBuilder::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                if conflict[a * n + b] {
                    builder.add_edge(a, b);
                }
            }
        }
        LaunchGraph {
            graph: builder.build(),
        }
    }

    pub fn num_launches(&self) -> usize {
        self.graph.num_tasks()
    }

    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Launches that must wait for `launch` to drain.
    pub fn successors(&self, launch: usize) -> &[usize] {
        self.graph.successors(launch)
    }

    /// The direct-predecessor sets of every launch — the edge set handed to
    /// drivers that replay the launches elsewhere (e.g. the model phase's
    /// graph-ordered replay through
    /// [`Runtime::index_launch_after`](crate::Runtime::index_launch_after)).
    /// Issue order is a topological order of the graph (edges always run
    /// earlier → later), so replaying launches in issue order while gating
    /// each behind `pred_sets()[launch]` realizes exactly this DAG.
    pub fn pred_sets(&self) -> Vec<Vec<usize>> {
        let n = self.num_launches();
        let mut preds = vec![Vec::new(); n];
        for a in 0..n {
            for &b in self.successors(a) {
                preds[b].push(a);
            }
        }
        preds
    }

    /// True iff a dependence path forces `earlier` to drain before `later`
    /// starts (indices in issue order, `earlier <= later`).
    pub fn serialized(&self, earlier: usize, later: usize) -> bool {
        self.graph.path_exists(earlier, later)
    }

    /// True iff the two launches may execute concurrently.
    pub fn may_overlap(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        !self.graph.path_exists(lo, hi)
    }

    /// Longest serialization chain, in launches.
    pub fn critical_path_len(&self) -> usize {
        self.graph.critical_path_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{IntervalSet, Rect1};
    use crate::task::{Privilege, RegionId};

    fn req(region: u32, lo: i64, hi: i64, privilege: Privilege) -> RegionReq {
        RegionReq {
            region: RegionId(region),
            subset: IntervalSet::from_rect(Rect1::new(lo, hi)),
            privilege,
        }
    }

    #[test]
    fn raw_serializes_disjoint_overlap() {
        // Launch 0 writes region 0; launch 1 reads it (RAW); launch 2
        // touches region 1 only.
        let summaries = vec![
            vec![req(0, 0, 99, Privilege::ReadWrite)],
            vec![req(0, 0, 99, Privilege::Read)],
            vec![req(1, 0, 99, Privilege::ReadWrite)],
        ];
        let g = LaunchGraph::from_summaries(&summaries);
        assert_eq!(g.num_launches(), 3);
        assert!(g.serialized(0, 1));
        assert!(g.may_overlap(0, 2));
        assert!(g.may_overlap(1, 2));
        assert_eq!(g.critical_path_len(), 2);
    }

    #[test]
    fn reductions_overlap_reads_do_too() {
        let summaries = vec![
            vec![req(0, 0, 50, Privilege::Reduce)],
            vec![req(0, 25, 75, Privilege::Reduce)],
            vec![req(1, 0, 10, Privilege::Read)],
            vec![req(1, 0, 10, Privilege::Read)],
        ];
        let g = LaunchGraph::from_summaries(&summaries);
        assert_eq!(g.num_edges(), 0);
        assert!(g.may_overlap(0, 1));
        assert!(g.may_overlap(2, 3));
    }
}
