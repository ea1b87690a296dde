//! # Parallel task scheduler: dependence-driven, work-stealing execution
//!
//! SpDISTAL inherits its performance from Legion's deferred, asynchronous
//! execution: the point tasks of an index launch run concurrently, coupled
//! only by true data movement. The discrete-event simulator in
//! [`crate::exec`] *models* that concurrency; this module *realizes* it for
//! the leaf kernels that the compiler runs on shared-memory data for
//! correctness.
//!
//! The pieces mirror the Legion pipeline at miniature scale:
//!
//! * [`graph`] — dependence analysis: a [`TaskGraph`] derived from each
//!   point task's [`crate::task::RegionReq`] set. Read/Read and
//!   Reduce/Reduce commute; everything else serializes in task order.
//!   Nodes are **two-level**: a task may carry a span *width*, splitting
//!   it into independent sub-tasks the pool schedules individually while
//!   dependences stay at task granularity.
//! * [`pool`] — the **resident executor**: a process-wide set of resident
//!   helper threads (lingering between the drains of a burst, asleep
//!   otherwise) plus the submitting thread, which drains its own graph
//!   as worker 0. Work is stolen at span granularity, so an idle worker
//!   steals *inside* a wide task (the dominant color of a skewed launch)
//!   instead of waiting behind it. Legion's processors are long-lived and
//!   issuing a launch is cheap; so is a drain here — no thread is created
//!   or joined per drain.
//! * [`executor`] — the [`ExecMode`] knob ([`ExecMode::Serial`] vs
//!   [`ExecMode::Parallel`]), the [`SplitPolicy`] governing how wide
//!   splittable tasks are chunked, and the [`ExecReport`] carrying real
//!   wall-clock time (per-task critical time included), so callers report
//!   it alongside simulated time.
//!
//! Who owns what:
//!
//! | Module | Owns | Does **not** own |
//! |---|---|---|
//! | [`graph`] | dependence analysis, span widths | execution |
//! | [`pool`] | helper threads, the job registry, parking and waking, panic containment | dependence analysis, span sizing, thread-count policy |
//! | [`executor`] | thread-count and span-sizing policy, the serial reference path, the report | threads |
//!
//! The simulator stays untouched as the cost model: the scheduler never
//! feeds wall-clock back into modeled time.

pub mod executor;
pub mod graph;
pub mod pool;

pub use executor::{ExecMode, ExecReport, Executor, SplitPolicy};
pub use graph::{privileges_commute, reqs_conflict, TaskGraph, TaskGraphBuilder};
pub use pool::PoolStats;
