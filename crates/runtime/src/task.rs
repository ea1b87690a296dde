//! Task and region-requirement types.
//!
//! Tasks name the logical data they touch through *region requirements*
//! (region, subset, privilege), exactly as in Legion. The runtime uses the
//! requirements for two things: inferring the communication needed to bring
//! the named subsets into the executing processor's memory, and keeping the
//! distributed copies coherent afterwards.

use std::borrow::Cow;

use crate::geometry::IntervalSet;

/// Handle for a logical region registered with the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Access privilege a task requests on a region subset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Privilege {
    /// Read-only: the subset is copied to the executing memory if not
    /// already valid there; other copies stay valid.
    Read,
    /// Read-write: like `Read`, but on completion all other memories'
    /// copies of the subset are invalidated.
    ReadWrite,
    /// Reduction: the task produces a local partial for the subset; after
    /// the launch completes, partials that overlap between tasks are
    /// combined, charging communication for the overlapping elements.
    Reduce,
}

/// One region requirement of a task.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionReq {
    pub region: RegionId,
    pub subset: IntervalSet,
    pub privilege: Privilege,
}

impl RegionReq {
    pub fn read(region: RegionId, subset: IntervalSet) -> Self {
        RegionReq {
            region,
            subset,
            privilege: Privilege::Read,
        }
    }

    pub fn write(region: RegionId, subset: IntervalSet) -> Self {
        RegionReq {
            region,
            subset,
            privilege: Privilege::ReadWrite,
        }
    }

    pub fn reduce(region: RegionId, subset: IntervalSet) -> Self {
        RegionReq {
            region,
            subset,
            privilege: Privilege::Reduce,
        }
    }
}

/// One point task of an index launch: where it runs, what it touches, and
/// how much useful work it performs (in non-zero operations). The
/// requirements are borrowed where the caller keeps them — a recorded
/// describe issues its lists as they are — and owned otherwise.
#[derive(Clone, Debug)]
pub struct TaskSpec<'a> {
    /// Linearized machine-grid processor executing the task.
    pub proc: usize,
    pub reqs: Cow<'a, [RegionReq]>,
    /// Modeled work: number of irregular non-zero operations. Execution time
    /// is `task_overhead + ops / proc.throughput`.
    pub ops: f64,
}

impl TaskSpec<'_> {
    pub fn new(proc: usize, ops: f64) -> Self {
        TaskSpec {
            proc,
            reqs: Cow::Owned(Vec::new()),
            ops,
        }
    }

    pub fn with_req(mut self, req: RegionReq) -> Self {
        self.reqs.to_mut().push(req);
        self
    }
}
