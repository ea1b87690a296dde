//! # Deferred-execution pipeline: overlap whole launches
//!
//! SpDISTAL's distributed performance leans on Legion's *deferred
//! execution*: statements are issued asynchronously and the runtime
//! overlaps every pair of launches that no data dependence orders. The
//! [`crate::sched`] subsystem realizes that concurrency *within* one index
//! launch; this module lifts it *across* launches:
//!
//! * [`launch`] — [`LaunchDesc`]: a launch's per-point region requirements
//!   plus its whole-launch requirement summary, and [`LaunchTiming`], the
//!   issue/start/drain milestones deferred execution makes observable.
//! * [`driver`] — [`Pipeline`]: the one dependence analysis of a batch.
//!   [`Pipeline::new`] decides which launches serialize (the same
//!   Read/Read + Reduce/Reduce commutativity rules as `sched::graph`, kept
//!   as [`Pipeline::preds`]) and flattens the launches into one combined
//!   task graph (intra-launch point edges + launch-granularity cross
//!   edges); [`Pipeline::run`] drains it through the work-stealing pool in
//!   a single pass, so point tasks of independent launches interleave.
//!
//! The contract mirrors the intra-launch one: pipelined execution is
//! bit-identical to launch-at-a-time execution, because every
//! non-commuting pair of launches is serialized in issue order and task
//! bodies only touch state their requirements name.

pub mod driver;
pub mod launch;

pub use driver::Pipeline;
pub use launch::{LaunchDesc, LaunchTiming};
