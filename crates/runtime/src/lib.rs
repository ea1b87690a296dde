//! # spdistal-runtime — a Legion-like distributed runtime simulator
//!
//! SpDISTAL (SC 2022) targets the Legion distributed task-based runtime. This
//! crate is the substitution substrate for this reproduction: it implements
//! the abstract distributed data types of Section III of the paper —
//! index spaces, regions, (possibly aliased) partitions, and the dependent
//! partitioning operators `image` and `preimage` — together with a
//! discrete-event machine model that accounts for communication, memory
//! capacity, and per-processor compute time.
//!
//! The division of labor in the reproduction:
//!
//! * this crate answers "**what moves and when**" (coherence + time model);
//! * crate `spdistal-sparse` holds the actual tensor data;
//! * crate `spdistal` (the compiler) creates the partitions via the Table I
//!   level functions and issues index launches here, while running the real
//!   leaf kernels on the shared-memory data for correctness.

/// The observability spine (re-exported): every layer of this crate can
/// record typed events into a [`Trace`](obs::Trace).
pub use spdistal_obs as obs;

pub mod dependent;
pub mod exec;
pub mod geometry;
pub mod machine;
pub mod partition;
pub mod pipeline;
pub mod sched;
pub mod task;

pub use dependent::{image_coords, image_rects, preimage_coords, preimage_rects};
pub use exec::{LaunchId, LaunchRecord, ModelTiming, RegionMeta, RunStats, Runtime, RuntimeError};
pub use geometry::{IntervalSet, Rect1};
pub use machine::{LinkProfile, Machine, MachineProfile, ProcKind, ProcProfile};
pub use partition::Partition;
pub use pipeline::{LaunchDesc, LaunchTiming, Pipeline};
pub use sched::{ExecMode, ExecReport, Executor, SplitPolicy, TaskGraph};
pub use spdistal_obs::{Tenant, Trace};
pub use task::{Privilege, RegionId, RegionReq, TaskSpec};
