//! The resident work-stealing executor that drains a [`TaskGraph`].
//!
//! | This module owns | It does **not** own |
//! |---|---|
//! | the helper threads: created lazily, once per process, grown to the largest `threads - 1` any drain asked for, never torn down | dependence analysis ([`super::graph`] builds the DAG this module only walks) |
//! | the job registry: which drains are in flight and which of their worker slots are free | span sizing ([`super::executor::SplitPolicy`], consumed at describe time) |
//! | parking: when an idle helper spins, lingers or sleeps, and who wakes it | thread-count policy ([`super::executor::ExecMode::threads`] clamps before calling in) |
//!
//! ## One drain
//!
//! Work items are **spans**: a task of width `w` contributes `w`
//! independent `(task, span)` items, all released together when the task's
//! last predecessor completes. A drain builds its per-drain state (one
//! deque per worker slot, the dependence and completion counters, the
//! borrowed `body`) **on the submitting thread's stack**, publishes a
//! pointer to it in the process-wide registry, and then runs the worker
//! loop itself as worker 0 (trace lane 1). Helpers that find the job claim
//! a free slot `k` (lane `k + 1`) and run the same loop: pop the own deque
//! from the back (LIFO keeps the working set warm), else steal from the
//! *front* of another slot's deque (FIFO steals take the oldest, likely
//! largest, pending subtree — and with split tasks, the spans of the
//! heaviest color). The initially ready spans are dealt round-robin over
//! all slots, so a helper that arrives finds its share waiting and one
//! that never arrives has it stolen by whoever is there.
//!
//! Because the submitter is a worker, a drain completes with zero helpers:
//! `Parallel(n)` costs at most one wake-up more than `Serial`, and a drain
//! issued while every helper is busy elsewhere (or while none could be
//! spawned) still finishes on its caller. Concurrent drains from different
//! threads never wait for one another — helpers serve whichever published
//! job has queued spans and a free slot.
//!
//! ## Idling
//!
//! A worker with nothing to pop or steal spins for [`SPIN`] on the job's
//! `queued` / `remaining` counters — a cross-thread wake-up costs 40–100 µs
//! on a small VM, more than most of the gaps it would bridge. After that a
//! helper *leaves the job*; the submitter parks on its own thread token. So
//! a helper outside a job never holds a slot, and the wait at the end of a
//! drain is bounded by span bodies already running, never by a wake-up.
//!
//! A helper outside every job **lingers** for [`LINGER`] before it sleeps:
//! it polls the pool's `epoch` (bumped by every call for hands) with
//! `yield_now` between the polls, so it gives way to any thread that wants
//! its core but keeps the core awake if none does. A program run is a
//! burst of drains a few hundred microseconds apart; a lingering helper
//! joins the next one within a microsecond, and the submitter pays no
//! system call for it. Sleeping between them instead cost the submitter
//! 20–90 µs per drain for the wake-up call and brought the helper 50 µs
//! late, on a core the kernel picked — sometimes the submitter's own — and
//! all three numbers moved with the load on the host, from one run of a
//! program to the next.
//!
//! Only a helper that lingered in vain sleeps on the pool's condvar.
//! Calls for hands are made under the pool lock: a lingering helper reads
//! `epoch` under the lock it scanned the registry under, and a helper that
//! goes to sleep never lets go of that lock between its last scan and the
//! wait, so a call either is seen by the scan or finds the helper counted
//! (as lingering, or as parked and woken). The submitter is woken by
//! `unpark`, whose token cannot be lost.
//!
//! ## Panics
//!
//! A panicking span body costs one drain. Every worker runs its loop under
//! `catch_unwind`; the first payload is kept, the job is marked abandoned
//! (its remaining spans never run), everyone leaves, and the submitter
//! re-raises the payload after the drain quiesced. The helpers are
//! untouched and every lock a span could poison dies with the drain's
//! state.
//!
//! No external crates: deques are `Mutex<VecDeque>` — items here are
//! leaf-kernel chunks over tensor blocks, so lock traffic per item is noise
//! compared to the body.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use spdistal_obs::Trace;

use super::graph::TaskGraph;

/// How long an idle worker polls the job's counters before it parks (the
/// submitter) or leaves the job (a helper).
const SPIN: Duration = Duration::from_micros(40);

/// How long a helper outside every job polls for the next one before it
/// sleeps: several times the gap between two drains of one program run
/// (100–150 µs at the smallest benchmark workload), a small fraction of
/// anything that deserves the name idle.
const LINGER: Duration = Duration::from_micros(500);

/// Counters from one pool run.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Spans executed (equals the graph's total span count on success).
    pub executed: usize,
    /// Spans a worker took from another worker's deque.
    pub steals: usize,
    /// Accumulated body seconds per task (summed over its spans) — the
    /// time the task would gate a serial drain by, split or not.
    pub task_seconds: Vec<f64>,
}

/// One worker slot of a drain: slot 0 is the submitter's, slot `k > 0` is
/// claimed by whichever helper joins.
struct Slot {
    deque: Mutex<VecDeque<(usize, usize)>>,
    /// A helper is inside the job on this slot. Set under the pool lock
    /// (claims are serialized there), cleared by the helper as its last
    /// access to the job.
    occupied: AtomicBool,
}

/// The state of one drain. Lives on the submitter's stack; helpers reach
/// it through the registry between [`Pool::publish`] and the drop of the
/// [`Published`] guard.
struct Job<'a> {
    graph: &'a TaskGraph,
    /// Observability sink; steal successes record here (a disabled trace
    /// reduces every call to an inlined `None` check).
    trace: &'a Trace,
    body: &'a (dyn Fn(usize, usize) + Sync),
    slots: Vec<Slot>,
    /// Spans sitting in the deques (raised before the push, lowered after
    /// the pop, so it never under-counts): what idle workers poll and what
    /// makes the job worth joining.
    queued: AtomicUsize,
    /// Remaining predecessor count per task; a task's spans are pushed
    /// when its count reaches zero.
    waits: Vec<AtomicUsize>,
    /// Remaining span count per task; the task completes (and releases
    /// successors) when it reaches zero.
    spans_left: Vec<AtomicUsize>,
    /// Accumulated body nanoseconds per task.
    task_nanos: Vec<AtomicU64>,
    /// Tasks not yet completed (workers exit when this hits zero).
    remaining: AtomicUsize,
    steals: AtomicUsize,
    /// Worker 0, for `unpark`.
    submitter: Thread,
    published: Instant,
    /// Some helper started a span (first one records `sched.wake_ns`).
    helper_started: AtomicBool,
    /// A span body panicked: no further span of this job starts.
    abandoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<'a> Job<'a> {
    fn new(
        threads: usize,
        graph: &'a TaskGraph,
        trace: &'a Trace,
        body: &'a (dyn Fn(usize, usize) + Sync),
    ) -> Self {
        let n = graph.num_tasks();
        let mut deques: Vec<VecDeque<(usize, usize)>> = vec![VecDeque::new(); threads];
        // Deal the initially ready spans round-robin, so the spans of a
        // wide (split) task start spread across the workers.
        let mut queued = 0;
        for task in graph.initially_ready() {
            for span in 0..graph.width(task) {
                deques[queued % threads].push_back((task, span));
                queued += 1;
            }
        }
        Job {
            graph,
            trace,
            body,
            slots: deques
                .into_iter()
                .enumerate()
                .map(|(k, deque)| Slot {
                    deque: Mutex::new(deque),
                    occupied: AtomicBool::new(k == 0),
                })
                .collect(),
            queued: AtomicUsize::new(queued),
            waits: (0..n)
                .map(|t| AtomicUsize::new(graph.pred_count(t)))
                .collect(),
            spans_left: (0..n).map(|t| AtomicUsize::new(graph.width(t))).collect(),
            task_nanos: (0..n).map(|_| AtomicU64::new(0)).collect(),
            remaining: AtomicUsize::new(n),
            steals: AtomicUsize::new(0),
            submitter: std::thread::current(),
            published: Instant::now(),
            helper_started: AtomicBool::new(false),
            abandoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    fn deque(&self, slot: usize) -> MutexGuard<'_, VecDeque<(usize, usize)>> {
        self.slots[slot]
            .deque
            .lock()
            .expect("a deque lock is never held across a span body")
    }

    /// Drained or abandoned: nothing more to run.
    fn over(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0 || self.abandoned.load(Ordering::SeqCst)
    }

    /// Pop the own deque, else steal. (One deque lock at a time: each guard
    /// is a statement's temporary.)
    fn take(&self, me: usize) -> Option<(usize, usize)> {
        let local = self.deque(me).pop_back();
        let item = local.or_else(|| self.steal(me))?;
        self.queued.fetch_sub(1, Ordering::SeqCst);
        Some(item)
    }

    fn steal(&self, me: usize) -> Option<(usize, usize)> {
        let n = self.slots.len();
        // Start the victim scan at a per-(worker, attempt) offset so
        // thieves don't all hammer worker 0.
        let start = (me + 1 + self.remaining.load(Ordering::Relaxed)) % n;
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == me {
                continue;
            }
            let stolen = self.deque(victim).pop_front();
            if let Some((task, span)) = stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.trace.steal(victim as u32, task as u32, span as u32);
                return Some((task, span));
            }
        }
        None
    }

    /// Release every span of a task that just became ready.
    fn push_ready(&self, me: usize, task: usize) -> usize {
        let width = self.graph.width(task);
        self.queued.fetch_add(width, Ordering::SeqCst);
        let mut deque = self.deque(me);
        for span in 0..width {
            deque.push_back((task, span));
        }
        width
    }

    fn complete_span(&self, me: usize, task: usize, nanos: u64) {
        self.task_nanos[task].fetch_add(nanos, Ordering::Relaxed);
        if self.spans_left[task].fetch_sub(1, Ordering::AcqRel) != 1 {
            return; // siblings still running; the task is not done yet
        }
        let mut woke = 0;
        for &succ in self.graph.successors(task) {
            if self.waits[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
                woke += self.push_ready(me, succ);
            }
        }
        let drained = self.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
        // This worker runs one released span itself; the rest want hands.
        if me != 0 && (drained || woke > 1) {
            self.submitter.unpark();
        }
        if woke > 1 {
            let free = self
                .slots
                .iter()
                .filter(|s| !s.occupied.load(Ordering::Relaxed));
            POOL.wake_helpers((woke - 1).min(free.count()));
        }
    }

    /// Nothing to pop or steal: poll until spans are queued or the job is
    /// over. `false` when a helper's spin ran out — it leaves the job and
    /// parks in the pool; the submitter parks here instead and is unparked
    /// by whichever helper queues spans, drains or abandons the job.
    fn wait_for_work(&self, me: usize) -> bool {
        let deadline = Instant::now() + SPIN;
        loop {
            if self.queued.load(Ordering::SeqCst) > 0 || self.over() {
                return true;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::hint::spin_loop();
        }
        if me != 0 {
            return false;
        }
        std::thread::park();
        true
    }

    /// The worker loop, the same for the submitter (`me == 0`) and helpers.
    fn work(&self, me: usize) {
        // One StealAttempt event per idle episode (the metrics counter
        // still counts every failed scan), so an idle worker cannot flood
        // its ring.
        let mut idle_recorded = false;
        let mut ran = 0u64;
        while !self.over() {
            match self.take(me) {
                Some((task, span)) => {
                    idle_recorded = false;
                    if me != 0
                        && self.trace.is_enabled()
                        && !self.helper_started.swap(true, Ordering::Relaxed)
                    {
                        self.trace
                            .helper_wake(self.published.elapsed().as_nanos() as u64);
                    }
                    ran += 1;
                    let t0 = Instant::now();
                    (self.body)(task, span);
                    let nanos = t0.elapsed().as_nanos() as u64;
                    self.complete_span(me, task, nanos);
                }
                None => {
                    self.trace.steal_attempt(!idle_recorded);
                    idle_recorded = true;
                    if !self.wait_for_work(me) {
                        break;
                    }
                }
            }
        }
        self.trace.drain_spans(me != 0, ran);
    }

    /// [`Job::work`] behind the panic boundary: a panicking span body
    /// abandons this job and nothing else.
    fn participate(&self, me: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.work(me))) {
            self.panic
                .lock()
                .expect("the payload lock is never held across a span body")
                .get_or_insert(payload);
            self.abandoned.store(true, Ordering::SeqCst);
            self.submitter.unpark();
        }
    }

    /// A helper asks to join (under the pool lock): the free slot it now
    /// holds, if the job has queued spans and room.
    fn claim(&self) -> Option<usize> {
        if self.queued.load(Ordering::SeqCst) == 0 || self.over() {
            return None;
        }
        (1..self.slots.len()).find(|&k| !self.slots[k].occupied.swap(true, Ordering::Acquire))
    }

    /// A helper's last access to the job.
    fn leave(&self, me: usize) {
        self.slots[me].occupied.store(false, Ordering::Release);
    }

    /// No helper is inside the job.
    fn quiescent(&self) -> bool {
        let helpers = &self.slots[1..];
        helpers.iter().all(|s| !s.occupied.load(Ordering::Acquire))
    }
}

/// The process-wide executor: helper threads and the jobs they may join.
struct Pool {
    registry: Mutex<Registry>,
    /// Parked helpers wait here; notified only with `registry` held.
    wake: Condvar,
    /// Helpers asleep on `wake`, or past their last scan on the way there.
    /// Written under the pool lock; an atomic so the lost-wake-up test can
    /// watch it without taking part in the locking it checks.
    parked: AtomicUsize,
    /// Bumped, under the pool lock, by every call for hands: what
    /// lingering helpers poll.
    epoch: AtomicU64,
}

struct Registry {
    /// Published drains. The `'static` is a lie told by [`Pool::publish`]
    /// and kept honest by [`Published`]'s drop.
    jobs: Vec<&'static Job<'static>>,
    /// Helper threads spawned so far.
    helpers: usize,
    /// Helpers outside every job that are still polling `epoch`.
    lingering: usize,
}

static POOL: Pool = Pool {
    registry: Mutex::new(Registry {
        jobs: Vec::new(),
        helpers: 0,
        lingering: 0,
    }),
    wake: Condvar::new(),
    parked: AtomicUsize::new(0),
    epoch: AtomicU64::new(0),
};

/// Proof that a job is in the registry; dropping it takes the job out and
/// waits until every helper that joined has left.
struct Published<'j>(&'j Job<'j>);

impl Drop for Published<'_> {
    fn drop(&mut self) {
        POOL.lock().jobs.retain(|&job| !std::ptr::eq(job, self.0));
        // Nobody can claim a slot any more; whoever holds one is running a
        // span or polling, never parked, so this wait is short.
        let mut polls = 0u32;
        while !self.0.quiescent() {
            if polls < 256 {
                polls += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl Pool {
    /// No span body runs under this lock and every update (a push, a
    /// retain, a counter) leaves the registry valid, so a poisoned guard is
    /// as good as a clean one — and `Published::drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Make `job` joinable, growing the helper set to its `threads - 1` if
    /// this is the widest drain so far (a failed spawn just leaves the
    /// drain with fewer hands), and wake helpers for the spans the
    /// submitter will not run first.
    fn publish<'j>(&self, job: &'j Job<'j>) -> Published<'j> {
        // SAFETY: the registry (and through it every helper) holds this
        // reference only while the returned `Published` guard is alive.
        // The guard borrows `job`, so it is dropped first — on return and
        // on unwind alike — and its drop is the quiescence wait: it removes
        // the job from the registry under the pool lock (claims happen
        // under that lock, so none can follow) and returns only once every
        // slot a helper claimed has been released, which is each helper's
        // last access to the job (`Job::leave`). `run_graph_traced` asserts
        // `Job::quiescent` after the guard in debug builds. `ci.sh` runs
        // the pool stress test in debug and release, and this module's
        // tests under AddressSanitizer (Miri is not installed), which fail
        // if a helper touches the job after this wait.
        let erased: &'static Job<'static> =
            unsafe { std::mem::transmute::<&'j Job<'j>, &'static Job<'static>>(job) };
        let want = job.slots.len() - 1;
        let mut registry = self.lock();
        while registry.helpers < want {
            let name = format!("spd-worker-{}", registry.helpers + 1);
            // Helpers live as long as the process: the handle is dropped on
            // purpose, and their panics are caught per job.
            if std::thread::Builder::new()
                .name(name)
                .spawn(helper_main)
                .is_err()
            {
                break;
            }
            registry.helpers += 1;
        }
        registry.jobs.push(erased);
        let queued = job.queued.load(Ordering::Relaxed);
        self.notify(&registry, queued.saturating_sub(1).min(want));
        Published(job)
    }

    /// Call for up to `n` helpers: lingering ones see `epoch` move, and
    /// parked ones are woken for the rest. Takes the witness of the held
    /// lock: a helper between its last registry scan and its wait holds
    /// the lock too, so the call cannot fall into that gap.
    fn notify(&self, held: &MutexGuard<'_, Registry>, n: usize) {
        if n == 0 {
            return;
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let sleepers = n.saturating_sub(held.lingering);
        for _ in 0..sleepers.min(self.parked.load(Ordering::SeqCst)) {
            self.wake.notify_one();
        }
    }

    /// Spans were queued on a job with `n` free slots.
    fn wake_helpers(&self, n: usize) {
        if n > 0 {
            self.notify(&self.lock(), n);
        }
    }

    /// Linger, then sleep, until some published job has queued spans and a
    /// free slot; returns the job and the claimed slot.
    fn next_job(&self) -> (&'static Job<'static>, usize) {
        let mut registry = self.lock();
        loop {
            let deadline = Instant::now() + LINGER;
            registry.lingering += 1;
            loop {
                let found = registry
                    .jobs
                    .iter()
                    .find_map(|&job| job.claim().map(|slot| (job, slot)));
                if let Some(found) = found {
                    registry.lingering -= 1;
                    return found;
                }
                if Instant::now() >= deadline {
                    break;
                }
                // Read under the lock the scan ran under: a call for hands
                // made from here on moves it.
                let seen = self.epoch.load(Ordering::SeqCst);
                drop(registry);
                while self.epoch.load(Ordering::SeqCst) == seen && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                registry = self.lock();
            }
            // The scan that just failed ran under the lock still held, so
            // whoever calls next finds this helper counted as parked.
            registry.lingering -= 1;
            self.parked.fetch_add(1, Ordering::SeqCst);
            // Unit tests widen the gap between the count and the wait — the
            // few nanoseconds a notify issued without the lock falls into —
            // to what a watching thread can hit, on this core or another
            // (`a_queued_span_always_finds_the_parked_helper`).
            #[cfg(test)]
            {
                let gap = Instant::now();
                while gap.elapsed() < Duration::from_micros(20) {
                    std::thread::yield_now();
                }
            }
            registry = self
                .wake
                .wait(registry)
                .unwrap_or_else(PoisonError::into_inner);
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn helper_main() {
    loop {
        let (job, slot) = POOL.next_job();
        spdistal_obs::set_thread_lane(slot as u32 + 1);
        job.participate(slot);
        job.leave(slot);
    }
}

/// Drain `graph` on up to `threads` workers — the calling thread and
/// `threads - 1` resident helpers — calling `body(task, span)` exactly once
/// per span. Dependence edges are honored at task granularity: no span of a
/// task runs before every span of every predecessor completed (and their
/// effects are visible — completion counts use acquire/release ordering).
/// Spans of one task may run concurrently in any order. If `body` panics,
/// the drain's remaining spans are abandoned and the panic resumes here
/// once every worker has left the drain.
pub fn run_graph(
    threads: usize,
    graph: &TaskGraph,
    body: &(dyn Fn(usize, usize) + Sync),
) -> PoolStats {
    run_graph_traced(threads, graph, &Trace::disabled(), body)
}

/// [`run_graph`] with an observability sink: the caller records onto trace
/// lane 1 and the helper on slot `k` onto lane `k + 1`, steals record the
/// victim, failed whole-pool scans record one `StealAttempt` per idle
/// episode, and the drain reports `sched.caller_spans` /
/// `sched.helper_spans` and, when a helper ran a span, `sched.wake_ns`.
pub fn run_graph_traced(
    threads: usize,
    graph: &TaskGraph,
    trace: &Trace,
    body: &(dyn Fn(usize, usize) + Sync),
) -> PoolStats {
    let total_spans = graph.total_spans();
    if graph.num_tasks() == 0 {
        return PoolStats::default();
    }
    let threads = threads.max(1).min(total_spans);
    let job = Job::new(threads, graph, trace, body);
    {
        let _published = (threads > 1).then(|| POOL.publish(&job));
        let _lane = spdistal_obs::lane_scope(1);
        job.participate(0);
    }
    debug_assert!(job.quiescent(), "a helper outlived its drain");
    let panic = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    debug_assert!(job.waits.iter().all(|w| w.load(Ordering::Relaxed) == 0));
    debug_assert!(job
        .spans_left
        .iter()
        .all(|w| w.load(Ordering::Relaxed) == 0));
    PoolStats {
        executed: total_spans,
        steals: job.steals.load(Ordering::Relaxed),
        task_seconds: job
            .task_nanos
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed) as f64 * 1e-9)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{IntervalSet, Rect1};
    use crate::task::{Privilege, RegionId, RegionReq};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let g = TaskGraph::independent(64);
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let stats = run_graph(4, &g, &|t, _| {
            counts[t].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.executed, 64);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn runs_every_span_exactly_once() {
        let widths = vec![1usize, 5, 2, 7];
        let g = TaskGraph::independent(4).with_widths(widths.clone());
        let counts: Vec<Vec<AtomicUsize>> = widths
            .iter()
            .map(|&w| (0..w).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        let stats = run_graph(4, &g, &|t, s| {
            counts[t][s].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.executed, 15);
        for per_task in &counts {
            assert!(per_task.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
        assert_eq!(stats.task_seconds.len(), 4);
    }

    #[test]
    fn honors_dependence_chain_order() {
        // All tasks write the same cell -> total serialization in order.
        let reqs: Vec<_> = (0..16)
            .map(|_| {
                vec![RegionReq {
                    region: RegionId(0),
                    subset: IntervalSet::from_rect(Rect1::new(0, 0)),
                    privilege: Privilege::ReadWrite,
                }]
            })
            .collect();
        let g = TaskGraph::from_reqs(&reqs);
        let order = Mutex::new(Vec::new());
        run_graph(4, &g, &|t, _| order.lock().unwrap().push(t));
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn successors_wait_for_every_span() {
        // Task 0 (width 6) writes; task 1 reads: every span of 0 must
        // complete before any span of 1 starts.
        let w = RegionReq {
            region: RegionId(0),
            subset: IntervalSet::from_rect(Rect1::new(0, 9)),
            privilege: Privilege::ReadWrite,
        };
        let r = RegionReq {
            privilege: Privilege::Read,
            ..w.clone()
        };
        let g = TaskGraph::from_reqs(&[vec![w], vec![r]]).with_widths(vec![6, 3]);
        for threads in [2usize, 4] {
            let order = Mutex::new(Vec::new());
            run_graph(threads, &g, &|t, s| order.lock().unwrap().push((t, s)));
            let order = order.into_inner().unwrap();
            assert_eq!(order.len(), 9);
            let first_reader = order.iter().position(|&(t, _)| t == 1).unwrap();
            assert!(
                order[..first_reader]
                    .iter()
                    .filter(|&&(t, _)| t == 0)
                    .count()
                    == 6,
                "all writer spans must precede the first reader span: {order:?}"
            );
        }
    }

    #[test]
    fn diamond_runs_sink_last() {
        // 0 writes; 1 and 2 read; 3 writes again.
        let w = |lo, hi| RegionReq {
            region: RegionId(0),
            subset: IntervalSet::from_rect(Rect1::new(lo, hi)),
            privilege: Privilege::ReadWrite,
        };
        let r = |lo, hi| RegionReq {
            region: RegionId(0),
            subset: IntervalSet::from_rect(Rect1::new(lo, hi)),
            privilege: Privilege::Read,
        };
        let reqs = vec![vec![w(0, 9)], vec![r(0, 4)], vec![r(5, 9)], vec![w(0, 9)]];
        let g = TaskGraph::from_reqs(&reqs);
        let order = Mutex::new(Vec::new());
        run_graph(3, &g, &|t, _| order.lock().unwrap().push(t));
        let order = order.into_inner().unwrap();
        let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn accumulated_work_matches_serial() {
        // Independent tasks adding into disjoint accumulator slots from
        // many threads; the pool must neither lose nor duplicate work.
        let n = 200;
        let g = TaskGraph::independent(n);
        let acc: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        run_graph(8, &g, &|t, _| {
            acc[t].fetch_add(t as u64 + 1, Ordering::Relaxed);
        });
        let total: u64 = acc.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        assert_eq!(total, (n as u64) * (n as u64 + 1) / 2);
    }

    #[test]
    fn traced_run_attributes_steals_to_live_items_and_worker_lanes() {
        use spdistal_obs::{Event, Trace};
        let widths = vec![3usize; 32];
        let g = TaskGraph::independent(32).with_widths(widths);
        let trace = Trace::enabled();
        let stats = run_graph_traced(4, &g, &trace, &|_, _| {
            std::thread::yield_now();
        });
        let metrics = trace.metrics().unwrap();
        assert_eq!(metrics.counter("steals").get() as usize, stats.steals);
        let mut steal_events = 0;
        for e in trace.recorder().unwrap().snapshot() {
            if let Event::Steal { victim, task, span } = e.event {
                steal_events += 1;
                assert!((task as usize) < g.num_tasks(), "stolen task is live");
                assert!((span as usize) < g.width(task as usize));
                assert!((victim as usize) < 4, "victim is a real worker");
                assert!(
                    (1..=4).contains(&e.lane),
                    "thief recorded on its own worker lane"
                );
                assert_ne!(e.lane, victim + 1, "a worker cannot steal from itself");
            }
        }
        assert_eq!(steal_events, stats.steals, "one event per counted steal");
        // Every span is attributed to exactly one side of the drain.
        let ran = metrics.counter("sched.caller_spans").get()
            + metrics.counter("sched.helper_spans").get();
        assert_eq!(ran as usize, stats.executed);
    }

    #[test]
    fn a_queued_span_always_finds_the_parked_helper() {
        // Task 0 has a no-op span that pulls the helper into the job and a
        // head span, run by the caller, that returns the moment it sees a
        // helper give up polling and head for the condvar (`parked` rises).
        // Its completion queues task 1: two spans that each wait for the
        // other to start, so the drain only ends if the helper comes back.
        // A notify that slips between the helper's registry scan and its
        // wait (one issued without the pool lock) leaves it asleep and this
        // drain stuck. Safe next to any other test: one helper is all it
        // needs, and helpers always come back.
        let mut chain = crate::sched::TaskGraphBuilder::new(2);
        chain.add_edge(0, 1);
        let g = chain.build().with_widths(vec![2, 2]);
        for round in 0..500 {
            let started = AtomicUsize::new(0);
            let t0 = Instant::now();
            run_graph(2, &g, &|task, span| match (task, span) {
                (0, 0) => {
                    let mut fewest = usize::MAX;
                    for poll in 0u32.. {
                        let parked = POOL.parked.load(Ordering::SeqCst);
                        if parked > fewest || t0.elapsed() > Duration::from_millis(2) {
                            break;
                        }
                        fewest = parked;
                        // A helper lingering on this core runs only when
                        // this loop lets it.
                        if poll % 64 == 63 {
                            std::thread::yield_now();
                        }
                    }
                }
                (0, _) => {}
                _ => {
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < 2 {
                        assert!(
                            t0.elapsed() < Duration::from_secs(20),
                            "round {round}: the helper never arrived"
                        );
                        std::thread::yield_now();
                    }
                }
            });
        }
    }

    #[test]
    fn single_thread_degenerates_to_serial_order_for_chains() {
        let reqs: Vec<_> = (0..8)
            .map(|_| {
                vec![RegionReq {
                    region: RegionId(7),
                    subset: IntervalSet::from_rect(Rect1::new(3, 5)),
                    privilege: Privilege::ReadWrite,
                }]
            })
            .collect();
        let g = TaskGraph::from_reqs(&reqs);
        let order = Mutex::new(Vec::new());
        let stats = run_graph(1, &g, &|t, _| order.lock().unwrap().push(t));
        assert_eq!(stats.executed, 8);
        assert_eq!(stats.steals, 0);
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }
}
