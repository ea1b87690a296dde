//! Structured-trace integration tests: a traced `Program` run must emit a
//! well-ordered event stream (launch windows contain their spans, steals
//! reference live work, one flush window per flush), export well-formed
//! Chrome trace-event JSON with one exported window per recorded window,
//! and cost (near) nothing when tracing is disabled. Every window (span,
//! launch, flush) is one event stamped at its start with its `dur_ns`.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use spdistal_repro::obs::{validate_chrome_trace, Event, Sym, Trace};
use spdistal_repro::sparse::{dense_vector, generate};
use spdistal_repro::spdistal::prelude::*;

const PIECES: usize = 4;

/// The quickstart workload: auto-scheduled SpMV on a hub-clustered R-MAT,
/// on the work-stealing pool so steals (and the warm-up feedback) are real.
fn skewed_program(trace: &Trace) -> CompiledProgram {
    let b = generate::rmat_clustered(11, 40_000, 0.95, 42);
    let n = b.dims()[0];
    let c = generate::dense_vec(b.dims()[1], 7);
    Program::on(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()))
        .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
        .tensor("B", Format::blocked_csr(), b)
        .tensor("c", Format::replicated_dense_vec(), dense_vector(c))
        .stmt("a(i) = B(i,j) * c(j)")
        .auto()
        .exec_mode(ExecMode::Parallel(3))
        .trace(trace.clone())
        .build()
        .unwrap()
}

#[test]
fn traced_run_orders_and_nests_events() {
    let trace = Trace::enabled();
    let mut program = skewed_program(&trace);
    program.run_iters(2).unwrap();

    let rec = trace.recorder().unwrap();
    assert_eq!(rec.dropped(), 0, "small run must not evict events");
    let events = rec.snapshot();

    // Launch windows: issue <= start per launch id, both on the control
    // lane.
    let mut issues = HashMap::new();
    let mut windows = HashMap::new();
    for e in &events {
        match e.event {
            Event::LaunchIssue { launch, .. } => {
                assert_eq!(e.lane, 0, "launch issues live on the control lane");
                issues.insert(launch, e.ts_ns);
            }
            Event::Launch { launch, dur_ns, .. } => {
                assert_eq!(e.lane, 0, "launch windows live on the control lane");
                windows.insert(launch, (e.ts_ns, e.ts_ns + dur_ns));
            }
            _ => {}
        }
    }
    assert!(!issues.is_empty(), "a traced run must issue launches");
    for (launch, &(start, _)) in &windows {
        let issue = issues[launch];
        assert!(
            issue <= start,
            "launch {launch}: issue {issue} <= start {start}"
        );
    }

    // Spans nest within their launch's window and execute on worker lanes.
    let mut live: HashSet<(u32, u32)> = HashSet::new();
    let mut spans = 0usize;
    for e in &events {
        if let Event::Span {
            launch,
            task,
            span,
            dur_ns,
            ..
        } = e.event
        {
            assert!(e.lane >= 1, "spans execute on worker lanes");
            live.insert((task, span));
            let (t0, t1) = (e.ts_ns, e.ts_ns + dur_ns);
            let (start, finish) = windows[&launch];
            assert!(
                start <= t0 && t1 <= finish,
                "span [{t0}, {t1}] must nest within launch {launch}'s window [{start}, {finish}]"
            );
            spans += 1;
        }
    }
    assert!(spans > 0, "a traced run must execute spans");

    // Steals reference live work and a real victim, from a different lane.
    for e in &events {
        if let Event::Steal { victim, task, span } = e.event {
            assert!(
                live.contains(&(task, span)),
                "steal of ({task}, {span}) must reference an executed item"
            );
            assert!((victim as usize) < 3, "victim must be a real worker");
            assert_ne!(e.lane, victim + 1, "a worker cannot steal from itself");
        }
    }

    // One flush window per non-empty flush, at least one per iteration.
    let flushed: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::Flush { tasks, .. } => Some(tasks),
            _ => None,
        })
        .collect();
    assert!(flushed.len() >= 2, "two iterations flush at least twice");
    assert!(flushed.iter().all(|&t| t > 0), "flushed work has tasks");

    // The auto-scheduler decision and the plan-cache traffic made it onto
    // the trace, with resolvable interned strings.
    let decision = events
        .iter()
        .find_map(|e| match e.event {
            Event::AutoDecision { choice, .. } => Some(choice),
            _ => None,
        })
        .expect("auto-scheduled run records its decision");
    let choice = rec.resolve(decision).unwrap();
    assert!(
        choice == "outer-dim" || choice == "non-zero",
        "unexpected choice '{choice}'"
    );
    let key = events
        .iter()
        .find_map(|e| match e.event {
            Event::PlanCacheMiss { key } => Some(key),
            _ => None,
        })
        .expect("first iteration misses the plan cache");
    assert!(
        rec.resolve(key).unwrap().contains(" | "),
        "cache-key events carry the PR-5 '<stmt> | <schedule> | <formats>' key"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::PlanCacheHit { .. })),
        "second iteration hits the plan cache"
    );

    // Model-timeline launches are ordered on the simulated clock.
    let mut model_launches = 0usize;
    for e in &events {
        if let Event::ModelLaunch {
            issue,
            start,
            finish,
            seq_span,
            ..
        } = e.event
        {
            assert!(issue <= start && start <= finish);
            assert!(seq_span >= 0.0);
            model_launches += 1;
        }
    }
    assert!(model_launches > 0, "model replay must be traced");
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let trace = Trace::enabled();
    let mut program = skewed_program(&trace);
    program.run_iters(2).unwrap();

    let json = trace.chrome_trace().unwrap();
    let stats = validate_chrome_trace(&json).expect("exported trace must validate");
    for required in ["span", "launch", "flush", "cache", "auto", "model"] {
        assert!(
            stats.count(required) > 0,
            "chrome trace must contain {required} events"
        );
    }
    // One exported window per recorded window: every span the counter
    // saw, every flush the recorder holds, and nothing re-paired or lost.
    let rec = trace.recorder().unwrap();
    assert_eq!(stats.events_dropped, 0, "small run must not evict events");
    let spans = trace.metrics().unwrap().counter("spans").get() as usize;
    assert_eq!(stats.by_cat["span"], spans, "one X event per span");
    let flushes = rec
        .snapshot()
        .iter()
        .filter(|e| matches!(e.event, Event::Flush { .. }))
        .count();
    assert_eq!(stats.by_cat["flush"], flushes, "one X event per flush");
    // One track per participating worker plus the control track — and the
    // model timeline renders as its own process.
    assert!(
        stats.tracks.len() >= 3,
        "expected control + worker + model tracks, got {:?}",
        stats.tracks
    );
}

/// With tracing *disabled*, the instrumentation must cost under 2% of a
/// run. Measured directly: time the disabled no-op helpers at the event
/// volume an enabled twin of the same workload actually records, against
/// the workload's runtime. One twin's `steal_attempts` can be inflated by a
/// spinning helper, and one run can land in a slow moment of the host, so
/// the (traced twin, untraced run, no-op loop) triple is repeated and each
/// of its three numbers compared as a median.
#[test]
fn disabled_tracing_overhead_is_under_two_percent() {
    const ITERS: usize = 3;
    const REPS: usize = 5;

    let (mut events, mut run, mut noop) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        // Event volume of the traced twin.
        let traced = Trace::enabled();
        let mut twin = skewed_program(&traced);
        twin.run_iters(ITERS).unwrap();
        let n = traced.recorder().unwrap().len() as u64
            + traced.metrics().unwrap().counter("steal_attempts").get();
        events.push(n);

        // Runtime of the untraced program (the trace handle defaults to
        // disabled — same code path every user runs).
        let mut program = skewed_program(&Trace::disabled());
        let t0 = Instant::now();
        program.run_iters(ITERS).unwrap();
        run.push(t0.elapsed().as_secs_f64());

        // Cost of that many disabled-hot-path calls (span is the widest
        // no-op: an event, a counter and a histogram when enabled).
        let disabled = Trace::disabled();
        let t0 = Instant::now();
        for k in 0..n {
            disabled.span(0, Sym(0), k as u32, 0, k, k + 1);
            disabled.steal_attempt(false);
        }
        noop.push(t0.elapsed().as_secs_f64());
    }
    events.sort_unstable();
    run.sort_by(f64::total_cmp);
    noop.sort_by(f64::total_cmp);
    let (events, run_seconds, noop_seconds) = (events[REPS / 2], run[REPS / 2], noop[REPS / 2]);

    assert!(
        noop_seconds < run_seconds * 0.02,
        "disabled tracing must cost <2% of the run: median {noop_seconds:.6}s \
         of no-ops vs {run_seconds:.6}s of work (median {events} events)"
    );
}
