//! The resident executor's contract, exercised from outside the crate and
//! in a process of its own (so this file decides how large the helper set
//! ever grows):
//!
//! * stress — concurrent submitters, every span exactly once, dependence
//!   order respected, never more workers inside a drain than it was
//!   allowed, over per-drain state that lives on the submitters' stacks (a
//!   helper that outlives its drain scribbles on a dead frame);
//! * a drain completes on its caller when every helper is held elsewhere;
//! * a panicking span body costs its own drain and nothing else.
//!
//! `ci.sh` runs this file in debug and in `--release`: lifetime-erasure
//! bugs hide without optimisation. Miri is not installed; the pool's unit
//! tests run under AddressSanitizer instead.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Barrier, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use spdistal_obs::Trace;
use spdistal_runtime::sched::pool::{run_graph, run_graph_traced};
use spdistal_runtime::sched::{ExecMode, Executor, TaskGraph, TaskGraphBuilder};

/// The widest drain this file issues: the helper set never exceeds
/// `WIDEST - 1`, so a drain that blocks `WIDEST` workers holds every helper
/// of the process.
const WIDEST: usize = 8;

/// Tests whose span bodies wait for a *set* of workers to arrive take this:
/// two of them side by side could split the helpers and wait forever.
static NEEDS_EVERY_HELPER: Mutex<()> = Mutex::new(());

fn every_helper() -> MutexGuard<'static, ()> {
    NEEDS_EVERY_HELPER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f` on a thread of its own and fail, instead of hanging the suite,
/// if it is not done in time.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || tx.send(f()));
    let out = rx
        .recv_timeout(limit)
        .expect("drain did not finish in time");
    handle.join().unwrap().unwrap();
    out
}

/// xorshift64*: the shim `rand` would do, this keeps the file dependency-free.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

#[test]
fn concurrent_submitters_run_every_span_once_in_dependence_order() {
    const SUBMITTERS: u64 = 4;
    const DRAINS: usize = 500;
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|id| {
            std::thread::spawn(move || {
                let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (id + 1));
                for drain in 0..DRAINS {
                    let tasks = 1 + rng.below(12);
                    let widths: Vec<usize> = (0..tasks).map(|_| 1 + rng.below(7)).collect();
                    let mut builder = TaskGraphBuilder::new(tasks);
                    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); tasks];
                    for (to, before) in preds.iter_mut().enumerate() {
                        before.extend((0..to).filter(|_| rng.below(3) == 0));
                        for &from in before.iter() {
                            builder.add_edge(from, to);
                        }
                    }
                    let graph = builder.build().with_widths(widths.clone());
                    // Everything the body touches lives in this frame.
                    let ran: Vec<Vec<AtomicUsize>> = widths
                        .iter()
                        .map(|&w| (0..w).map(|_| AtomicUsize::new(0)).collect())
                        .collect();
                    let done: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                    let mode = ExecMode::Parallel([1, 2, 4, WIDEST][drain % 4]);
                    let allowed = mode.threads().min(graph.total_spans());
                    let inside = AtomicUsize::new(0);
                    let report = Executor::new(mode).run(&graph, |task, span| {
                        let workers = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(
                            workers <= allowed,
                            "{workers} workers inside a {mode:?} drain"
                        );
                        for &p in &preds[task] {
                            assert_eq!(
                                done[p].load(Ordering::Acquire),
                                widths[p],
                                "task {task} started before its predecessor {p} completed"
                            );
                        }
                        ran[task][span].fetch_add(1, Ordering::Relaxed);
                        inside.fetch_sub(1, Ordering::SeqCst);
                        done[task].fetch_add(1, Ordering::Release);
                    });
                    assert_eq!(report.spans, graph.total_spans());
                    for per_task in &ran {
                        for count in per_task {
                            assert_eq!(count.load(Ordering::Relaxed), 1, "{mode:?}");
                        }
                    }
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("a submitter failed");
    }
}

#[test]
fn a_drain_completes_on_its_caller_while_every_helper_is_held() {
    let _exclusive = every_helper();
    let arrived = Barrier::new(WIDEST + 1);
    let gate = (Mutex::new(false), Condvar::new());
    std::thread::scope(|scope| {
        // Drain A: WIDEST spans, each parks its worker (the caller and
        // WIDEST - 1 helpers: all there can be) until the gate opens.
        let held = scope.spawn(|| {
            run_graph(WIDEST, &TaskGraph::independent(WIDEST), &|_, _| {
                arrived.wait();
                let mut open = gate.0.lock().unwrap();
                while !*open {
                    open = gate.1.wait(open).unwrap();
                }
            })
        });
        arrived.wait();

        // Drain B, issued with no helper free: it has to finish right
        // here, on this thread.
        let trace = Trace::enabled();
        let counts: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        let stats = run_graph_traced(2, &TaskGraph::independent(16), &trace, &|t, _| {
            counts[t].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.executed, 16);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        let metrics = trace.metrics().unwrap();
        assert_eq!(metrics.counter("sched.caller_spans").get(), 16);
        assert_eq!(metrics.counter("sched.helper_spans").get(), 0);
        assert_eq!(metrics.histogram("sched.wake_ns").count(), 0);

        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        assert_eq!(held.join().unwrap().executed, WIDEST);
    });
}

/// A drain of `workers` spans that each wait until all of them started:
/// it ends only if `workers - 1` helpers join.
fn rendezvous(workers: usize) {
    within(Duration::from_secs(20), move || {
        let all_started = Barrier::new(workers);
        let counts: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        let stats = run_graph(workers, &TaskGraph::independent(workers), &|t, _| {
            counts[t].fetch_add(1, Ordering::Relaxed);
            all_started.wait();
        });
        assert_eq!(stats.executed, workers);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    })
}

#[test]
fn a_drain_never_holds_more_workers_than_it_was_allowed() {
    let _exclusive = every_helper();
    // Grow the helper set first: the narrow drain keeps one helper, the
    // wide one needs three more.
    run_graph(WIDEST, &TaskGraph::independent(WIDEST), &|_, _| {});
    let (inside, most, started) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    let wide_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // A 2-wide drain whose six spans stay inside until the wide drain
        // is over: it sits first in the registry, full, with spans queued.
        let narrow = scope.spawn(|| {
            run_graph(2, &TaskGraph::independent(6), &|_, _| {
                let workers = inside.fetch_add(1, Ordering::SeqCst) + 1;
                most.fetch_max(workers, Ordering::SeqCst);
                started.fetch_add(1, Ordering::SeqCst);
                while !wide_done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(50));
                }
                inside.fetch_sub(1, Ordering::SeqCst);
            })
        });
        while started.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        // The helpers this wakes scan the registry from the top: each must
        // pass the full narrow drain by, or the rendezvous starves.
        let wide = catch_unwind(|| rendezvous(4));
        wide_done.store(true, Ordering::SeqCst);
        assert_eq!(narrow.join().unwrap().executed, 6);
        wide.expect("the wide drain starved");
    });
    assert_eq!(most.load(Ordering::SeqCst), 2);
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map_or_else(|_| String::new(), |s| s.to_string()),
    }
}

#[test]
fn a_panicking_span_costs_one_drain_not_the_pool() {
    let _exclusive = every_helper();
    rendezvous(4); // the helpers exist

    // Span 3 of 8 panics — on whichever worker gets it. The payload comes
    // back on this thread; no span runs twice; later spans may never run.
    let ran: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_graph(4, &TaskGraph::independent(8), &|t, _| {
            ran[t].fetch_add(1, Ordering::Relaxed);
            if t == 3 {
                panic!("span {t} fails");
            }
        })
    }));
    assert_eq!(panic_text(outcome.unwrap_err()), "span 3 fails");
    assert!(ran.iter().all(|c| c.load(Ordering::Relaxed) <= 1));
    assert_eq!(ran[3].load(Ordering::Relaxed), 1);

    // The same, with the panic pinned first to a helper, then to the caller:
    // both spans start, then the one on the chosen side fails.
    for on_helper in [true, false] {
        let both_started = Barrier::new(2);
        let caller = std::thread::current().id();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_graph(2, &TaskGraph::independent(2), &|_, _| {
                both_started.wait();
                if (std::thread::current().id() != caller) == on_helper {
                    panic!("helper side: {on_helper}");
                }
            })
        }));
        let text = panic_text(outcome.unwrap_err());
        assert_eq!(text, format!("helper side: {on_helper}"));
    }

    // A dependence chain behind the panic is abandoned, not run.
    let mut chain = TaskGraphBuilder::new(3);
    chain.add_edge(0, 1);
    chain.add_edge(1, 2);
    let after = AtomicUsize::new(0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_graph(2, &chain.build(), &|t, _| {
            if t == 0 {
                panic!("head of the chain");
            }
            after.fetch_add(1, Ordering::Relaxed);
        })
    }));
    assert!(outcome.is_err());
    assert_eq!(after.load(Ordering::Relaxed), 0);

    // The pool is whole: every helper joins a healthy drain again, and the
    // executor front-end runs every span exactly once.
    rendezvous(4);
    let graph = TaskGraph::independent(6).with_widths(vec![3; 6]);
    let counts: Vec<AtomicUsize> = (0..18).map(|_| AtomicUsize::new(0)).collect();
    let report = Executor::new(ExecMode::Parallel(4)).run(&graph, |t, s| {
        counts[3 * t + s].fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(report.spans, 18);
    assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
}
