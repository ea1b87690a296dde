//! Launch descriptors: what one index launch touches, summarized for
//! inter-launch dependence analysis.
//!
//! A [`LaunchDesc`] carries the per-point region requirement sets the
//! intra-launch scheduler already uses, plus optional *extra* requirements
//! that exist only at launch granularity (e.g. the plan executor claims the
//! output tensor's real regions for the write-back that follows the
//! compute, so a later launch touching that tensor serializes behind it).
//! [`LaunchDesc::summary`] merges everything into one whole-launch
//! requirement set — per `(region, privilege)`, the union of all point
//! subsets. [`Pipeline::new`](super::Pipeline::new) decides the same
//! conflicts from [`LaunchDesc::reqs`] directly, region first, so no
//! summary is built on the run path: a task graph over the summaries, one
//! node per launch, is the oracle that analysis is tested against
//! (`tests/pipeline_props.rs`, `region_first_analysis_equals_summary_analysis`).

use std::collections::BTreeMap;

use crate::geometry::IntervalSet;
use crate::task::{Privilege, RegionId, RegionReq};

/// One deferred launch, as the pipeline driver sees it.
#[derive(Clone, Debug)]
pub struct LaunchDesc {
    /// Display name (the plan's launch name).
    pub name: String,
    /// Per-point region requirements (drive the intra-launch DAG).
    pub point_reqs: Vec<Vec<RegionReq>>,
    /// Per-point span widths (parallel to `point_reqs`, all 1 unless the
    /// describing layer emitted sub-task descriptors). Spans of one point
    /// are mutually independent by the describer's contract; dependences
    /// stay at point granularity.
    pub point_widths: Vec<usize>,
    /// Launch-granularity requirements folded into the summary only —
    /// never into any point's intra-launch requirements.
    pub extra_reqs: Vec<RegionReq>,
}

impl LaunchDesc {
    pub fn new(name: impl Into<String>, point_reqs: Vec<Vec<RegionReq>>) -> Self {
        let widths = vec![1; point_reqs.len()];
        LaunchDesc {
            name: name.into(),
            point_reqs,
            point_widths: widths,
            extra_reqs: Vec::new(),
        }
    }

    /// Builder-style: append launch-granularity requirements.
    pub fn with_extra_reqs(mut self, reqs: Vec<RegionReq>) -> Self {
        self.extra_reqs.extend(reqs);
        self
    }

    /// Builder-style: set the per-point span widths.
    pub fn with_point_widths(mut self, widths: Vec<usize>) -> Self {
        assert_eq!(widths.len(), self.point_reqs.len(), "one width per point");
        assert!(widths.iter().all(|&w| w >= 1), "span widths must be >= 1");
        self.point_widths = widths;
        self
    }

    pub fn num_points(&self) -> usize {
        self.point_reqs.len()
    }

    /// Every requirement the launch names: each point's, then the extras.
    pub fn reqs(&self) -> impl Iterator<Item = &RegionReq> {
        self.point_reqs.iter().flatten().chain(&self.extra_reqs)
    }

    /// The whole-launch requirement summary: for each `(region, privilege)`
    /// pair named by any point (or by `extra_reqs`), the union of the
    /// named subsets, merged run list by run list (no sort). Conflict
    /// analysis over summaries is conservative in exactly the right
    /// direction: two launches conflict iff some pair of their requirements
    /// would — which is what [`Pipeline::new`](super::Pipeline::new)
    /// decides without building any summary.
    pub fn summary(&self) -> Vec<RegionReq> {
        let mut merged: BTreeMap<(RegionId, Privilege), IntervalSet> = BTreeMap::new();
        for req in self.reqs() {
            let set = merged.entry((req.region, req.privilege)).or_default();
            *set = set.union(&req.subset);
        }
        merged
            .into_iter()
            .map(|((region, privilege), subset)| RegionReq {
                region,
                subset,
                privilege,
            })
            .collect()
    }
}

/// Wall-clock milestones of one launch within a pipeline run, in seconds.
///
/// `start` and `drain` are relative to the pipeline run's own start; the
/// driver leaves `issue` at 0.0 and callers that queue launches ahead of
/// time (the `Session` API) rebase all three onto their submission epoch,
/// so `issue <= start <= drain` always reads as one timeline.
///
/// `model` carries the *simulated* counterpart: the launch's modeled
/// issue/start/finish on the runtime's pipelined (launch-graph-ordered)
/// model timeline, plus its sequential span. The driver leaves it at the
/// default; the plan executor's model phase fills it in.
#[derive(Clone, Debug, Default)]
pub struct LaunchTiming {
    pub name: String,
    /// When the launch was handed to the pipeline (0.0 unless rebased by
    /// the caller onto a queue epoch).
    pub issue: f64,
    /// When the launch's first point task began executing.
    pub start: f64,
    /// When the launch's last point task completed.
    pub drain: f64,
    /// Modeled milestones on the simulator's pipelined timeline.
    pub model: crate::exec::ModelTiming,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect1;

    fn req(region: u32, lo: i64, hi: i64, privilege: Privilege) -> RegionReq {
        RegionReq {
            region: RegionId(region),
            subset: IntervalSet::from_rect(Rect1::new(lo, hi)),
            privilege,
        }
    }

    #[test]
    fn summary_unions_per_region_and_privilege() {
        let launch = LaunchDesc::new(
            "l",
            vec![
                vec![
                    req(0, 0, 4, Privilege::Read),
                    req(1, 0, 9, Privilege::ReadWrite),
                ],
                vec![
                    req(0, 5, 9, Privilege::Read),
                    req(1, 10, 19, Privilege::ReadWrite),
                ],
            ],
        );
        let summary = launch.summary();
        assert_eq!(summary.len(), 2);
        let reads = summary
            .iter()
            .find(|r| r.privilege == Privilege::Read)
            .unwrap();
        assert_eq!(reads.region, RegionId(0));
        // Adjacent point subsets coalesce into one run.
        assert_eq!(reads.subset.rects(), &[Rect1::new(0, 9)]);
        let writes = summary
            .iter()
            .find(|r| r.privilege == Privilege::ReadWrite)
            .unwrap();
        assert_eq!(writes.subset.total_len(), 20);
    }

    #[test]
    fn point_widths_default_and_build() {
        let launch = LaunchDesc::new(
            "l",
            vec![
                vec![req(0, 0, 4, Privilege::Read)],
                vec![req(0, 5, 9, Privilege::Read)],
            ],
        );
        assert_eq!(launch.point_widths, vec![1, 1]);
        let launch = launch.with_point_widths(vec![3, 1]);
        assert_eq!(launch.point_widths, vec![3, 1]);
    }

    #[test]
    fn summary_keeps_privileges_separate_and_takes_extras() {
        let launch = LaunchDesc::new("l", vec![vec![req(0, 0, 4, Privilege::Read)]])
            .with_extra_reqs(vec![req(0, 0, 4, Privilege::ReadWrite)]);
        let summary = launch.summary();
        assert_eq!(summary.len(), 2);
        // Every point requirement is contained in some summary entry of the
        // same region and privilege.
        let covers = |r: &RegionReq| {
            summary.iter().any(|s| {
                s.region == r.region
                    && s.privilege == r.privilege
                    && s.subset.contains_set(&r.subset)
            })
        };
        assert!(launch.point_reqs.iter().flatten().all(covers));
        assert!(launch.extra_reqs.iter().all(covers));
    }
}
