//! One run of one workload: set up, warm up, a timed window, verification,
//! and the metrics of either pass.
//!
//! Owns: the measuring loop (what is timed and what is not), set-up
//! repetitions, the untraced pass's end-to-end metrics, the traced pass's
//! per-layer table.
//! Does not own: what an op is (`workloads`, `serve`), the statistics
//! (`stats`), names and bounds (`metrics`).

use std::collections::BTreeMap;
use std::time::Instant;

use spdistal::prelude::*;

use crate::calibrate::{self, Track};
use crate::host;
use crate::metrics::{RunResult, END_TO_END, PER_LAYER};
use crate::probes;
use crate::serve::{self, ServeWorkload};
use crate::spans::{self, SpanRecorder, OP_SPAN};
use crate::spec::{self, ProgramSpec, Sched};
use crate::stats::{self, Summary};
use crate::workloads::{Client, ColdWorkload, IterWorkload, LayerCounts, StreamWorkload, Workload};

/// Set-up is repeated at least `SETUP_REPS_MIN` times, and further until
/// `SETUP_BUDGET_SECONDS` are spent or `SETUP_REPS_MAX` reached, so a
/// set-up of a few milliseconds gets the repetitions its median needs;
/// `setup_s` is the median.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 25;
const SETUP_BUDGET_SECONDS: f64 = 1.5;
/// Every `FULL_CHECK_EVERY`-th op is checked against the serial reference
/// (plus the first and the last); every op's checksum is checked.
const FULL_CHECK_EVERY: u64 = 64;
/// A window stops early after this many failed ops: it has failed, and a
/// tight loop of failures proves nothing more.
const MAX_FAILURES: u64 = 100;
/// The traced pass alternates the plain and the traced instance in
/// segments of this many seconds, so both see the same noise phases.
const SEGMENT_SECONDS: f64 = 0.5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One timed op: when it started (measured seconds into the window) and
/// how long it took (seconds, as measured).
#[derive(Clone, Copy, Debug)]
struct Sample {
    at: f64,
    secs: f64,
}

/// What one client did across all its segments.
struct ClientState {
    rec: SpanRecorder,
    ops: u64,
    attempted: u64,
    failed: u64,
    /// The most recent op failed (so the closing check must not count it
    /// a second time).
    last_failed: bool,
    samples: Vec<Sample>,
    errors: Vec<String>,
    /// Measured seconds consumed by earlier segments.
    consumed: f64,
    /// Machine-speed calibration points, taken between ops by the first
    /// client of a workload (the others would only disturb each other).
    calibrates: bool,
    track: Track,
}

impl ClientState {
    fn new(traced: bool, epoch: Instant, lane: u32, calibrates: bool) -> ClientState {
        ClientState {
            calibrates,
            track: Track::default(),
            rec: SpanRecorder::new(traced, epoch, lane),
            ops: 0,
            attempted: 0,
            failed: 0,
            last_failed: false,
            samples: Vec::new(),
            errors: Vec::new(),
            consumed: 0.0,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.last_failed = true;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Drive one client for `seconds`: prepare (untimed), op (timed), account
/// and check (untimed), until the segment's time is up; a calibration
/// point between ops every [`calibrate::INTERVAL_SECONDS`].
fn drive(client: &mut dyn Client, st: &mut ClientState, seconds: f64) {
    let start = Instant::now();
    let mut next_point = 0.0;
    while start.elapsed().as_secs_f64() < seconds && st.failed < MAX_FAILURES {
        if st.calibrates && start.elapsed().as_secs_f64() >= next_point {
            let at = st.consumed + start.elapsed().as_secs_f64();
            st.track.push(at, calibrate::point());
            next_point = start.elapsed().as_secs_f64() + calibrate::INTERVAL_SECONDS;
        }
        st.attempted += 1;
        st.last_failed = false;
        if let Err(e) = client.prepare() {
            st.fail(format!("prepare: {e}"));
            continue;
        }
        st.rec.set_op(st.ops);
        let at = st.consumed + start.elapsed().as_secs_f64();
        let open = st.rec.begin(OP_SPAN);
        let t0 = Instant::now();
        let outcome = client.op(&mut st.rec);
        let secs = t0.elapsed().as_secs_f64();
        st.rec.end(open);
        let full = st.ops.is_multiple_of(FULL_CHECK_EVERY);
        st.ops += 1;
        let checked = outcome.and_then(|()| {
            client.account();
            client.check(full)
        });
        match checked {
            Ok(()) => st.samples.push(Sample { at, secs }),
            Err(e) => st.fail(format!("op {}: {e}", st.ops - 1)),
        }
    }
    st.consumed += seconds;
}

/// Run every client of `workload` concurrently for `seconds`.
fn run_segment(workload: &mut dyn Workload, states: &mut [ClientState], seconds: f64) {
    let clients = workload.clients();
    std::thread::scope(|scope| {
        for (client, st) in clients.into_iter().zip(states.iter_mut()) {
            scope.spawn(move || drive(client, st, seconds));
        }
    });
}

/// Check every client's last op against the serial reference.
fn closing_check(workload: &mut dyn Workload, states: &mut [ClientState]) {
    for (client, st) in workload.clients().into_iter().zip(states.iter_mut()) {
        if st.ops > 0 && !st.last_failed {
            if let Err(e) = client.check(true) {
                st.fail(format!("last op: {e}"));
            }
        }
    }
}

/// Build one instance of the named workload. `server` is the `spd-server`
/// binary (only `serve_closed` needs it).
fn setup(
    name: &str,
    seed: u64,
    trace: Trace,
    server: Option<&std::path::Path>,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "iter_small" => Box::new(IterWorkload::setup(spec::iter_small(seed), trace)?),
        "iter_heavy" => Box::new(IterWorkload::setup(spec::iter_heavy(seed), trace)?),
        "compile_cold" => Box::new(ColdWorkload::setup(spec::compile_cold(seed), trace)?),
        "stream_delta" => Box::new(StreamWorkload::setup(
            spec::stream_delta(seed),
            seed,
            trace,
        )?),
        "serve_closed" => Box::new(ServeWorkload::setup(
            server.ok_or("serve_closed needs the spd-server binary")?,
            spec::serve_closed(seed),
            trace,
        )?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

fn lane_states(n: usize, traced: bool, epoch: Instant, first_lane: u32) -> Vec<ClientState> {
    (0..n)
        .map(|k| ClientState::new(traced, epoch, first_lane + k as u32, k == 0))
        .collect()
}

struct Totals {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Latencies as measured, and scaled to the reference machine speed
    /// (see `calibrate`), in seconds.
    raw: Vec<f64>,
    scaled: Vec<f64>,
    /// Median calibration time of the window over the reference time:
    /// how much slower than its undisturbed self the machine ran.
    slowdown: f64,
}

fn totals(states: &[ClientState]) -> Totals {
    // Every client of a workload runs the same segments, so the first
    // client's calibration track times them all.
    let none = Track::default();
    let track = states.first().map_or(&none, |s| &s.track);
    let samples = || states.iter().flat_map(|s| s.samples.iter());
    Totals {
        attempted: states.iter().map(|s| s.attempted).sum(),
        failed: states.iter().map(|s| s.failed).sum(),
        errors: states.iter().flat_map(|s| s.errors.clone()).collect(),
        raw: samples().map(|s| s.secs).collect(),
        scaled: samples().map(|s| track.scale(s.at, s.secs)).collect(),
        slowdown: if track.is_empty() {
            1.0
        } else {
            track.median() / calibrate::REF_SECONDS
        },
    }
}

fn describe(t: &Totals, s: &Summary, label: &str) {
    println!(
        "{label}: {} ops timed; p50 {:.4} ms, p90 {}{}, mean {:.4} ms at reference speed \
         (as measured: p50 {:.4} ms, machine at {:.3}x its reference time)",
        s.count,
        s.p50 * 1e3,
        match &s.p90 {
            Ok(p) => format!("{:.4} ms", p * 1e3),
            Err(e) => format!("refused ({e})"),
        },
        s.p99
            .map(|p| format!(", p99 {:.4} ms (info)", p * 1e3))
            .unwrap_or_default(),
        s.mean * 1e3,
        stats::median(&t.raw) * 1e3,
        t.slowdown
    );
}

/// The run the driver asks for. Prints progress, returns the result line.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let fp = host::Fingerprint::detect();
    println!(
        "spd-benchmark: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host: {}", fp.to_json());
    // The server is the program under test: building it is the build, not
    // set-up.
    let server = match args.workload.as_str() {
        "serve_closed" => Some(serve::ensure_server_binary()?),
        _ => None,
    };
    if args.trace {
        run_traced(args, server.as_deref())
    } else {
        run_untraced(args, server.as_deref())
    }
}

fn result(totals: &Totals, correct: bool, metrics: BTreeMap<String, (f64, String)>) -> RunResult {
    for e in &totals.errors {
        println!("FAILED {e}");
    }
    RunResult {
        correct: correct && totals.failed == 0 && totals.attempted > 0,
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        metrics,
    }
}

fn run_untraced(args: &Args, server: Option<&std::path::Path>) -> Result<RunResult, String> {
    // Set-up, several times over; the last instance is the one measured.
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut workload = setup(&args.workload, args.seed, Trace::disabled(), server)?;
    // The first instance warmed the process (page cache, allocator); the
    // timed repetitions follow it.
    while setup_secs.len() < SETUP_REPS_MIN
        || (setup_secs.len() < SETUP_REPS_MAX
            && setup_secs.iter().sum::<f64>() < SETUP_BUDGET_SECONDS)
    {
        workload.finish()?;
        drop(workload);
        let (built, secs) =
            calibrate::scaled(|| setup(&args.workload, args.seed, Trace::disabled(), server));
        workload = built?;
        setup_secs.push(secs);
    }
    println!(
        "set-up: {} repetitions, median {:.4} s (min {:.4}, max {:.4})",
        setup_secs.len(),
        stats::median(&setup_secs),
        setup_secs.iter().copied().fold(f64::INFINITY, f64::min),
        setup_secs.iter().copied().fold(0.0, f64::max),
    );

    let n = workload.clients().len();
    let mut states = lane_states(n, false, Instant::now(), 0);
    run_segment(&mut *workload, &mut states, args.seconds);
    closing_check(&mut *workload, &mut states);
    let rss = host::peak_rss_mib(workload.pid());
    let finished = workload.finish();

    let t = totals(&states);
    let summary = stats::summarize(&t.scaled);
    let mut metrics = BTreeMap::new();
    let mut correct = finished.is_ok();
    if let Err(e) = &finished {
        println!("FAILED shutdown: {e}");
    }
    let measured = summary.and_then(|q| {
        let p90 = q.p90.clone()?;
        Ok((q, p90))
    });
    match (&measured, rss) {
        (Ok((q, p90)), Some(rss)) => {
            describe(&t, q, "window");
            let values = [
                ("op_p50_ms", q.p50 * 1e3),
                ("op_p90_ms", p90 * 1e3),
                ("ops_per_s", n as f64 / q.mean),
                ("peak_rss_mb", rss),
                ("setup_s", stats::median(&setup_secs)),
            ];
            for m in END_TO_END {
                let (_, v) = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .ok_or_else(|| format!("no value measured for '{}'", m.name))?;
                metrics.insert(m.name.to_string(), (*v, m.unit.to_string()));
            }
        }
        (Err(e), _) => {
            println!("FAILED statistics: {e}");
            correct = false;
        }
        (_, None) => {
            println!("FAILED cannot read peak memory of {:?}", workload.pid());
            correct = false;
        }
    }
    Ok(result(&t, correct, metrics))
}

/// The schedule kinds a built program settled on, statement by statement.
fn settled_kinds(spec: &ProgramSpec, program: Option<&CompiledProgram>) -> Vec<Sched> {
    spec.stmts
        .iter()
        .enumerate()
        .map(|(k, s)| match (s.sched, program) {
            (Sched::Auto, Some(p)) => match p.report().stmts.get(k).map(|r| r.schedule_kind) {
                Some("non-zero") => Sched::Nonzero,
                _ => Sched::OuterDim,
            },
            (Sched::Auto, None) => Sched::OuterDim,
            (kind, _) => kind,
        })
        .collect()
}

fn run_traced(args: &Args, server: Option<&std::path::Path>) -> Result<RunResult, String> {
    let trace = Trace::enabled();
    let mut plain = setup(&args.workload, args.seed, Trace::disabled(), server)?;
    let mut traced = setup(&args.workload, args.seed, trace.clone(), server)?;
    let n = traced.clients().len();
    let epoch = Instant::now();
    let mut plain_states = lane_states(n, false, epoch, 0);
    let mut traced_states = lane_states(n, true, epoch, 1);

    // Alternate short segments so both instances sample the same phases
    // of the machine; each gets half the window.
    let segments = ((args.seconds / SEGMENT_SECONDS / 2.0).ceil() as usize).max(1);
    let segment = args.seconds / 2.0 / segments as f64;
    for _ in 0..segments {
        run_segment(&mut *plain, &mut plain_states, segment);
        run_segment(&mut *traced, &mut traced_states, segment);
    }
    closing_check(&mut *plain, &mut plain_states);
    closing_check(&mut *traced, &mut traced_states);
    let (tp, tt) = (totals(&plain_states), totals(&traced_states));
    let summaries = match (stats::summarize(&tp.scaled), stats::summarize(&tt.scaled)) {
        (Ok(p), Ok(t)) => {
            describe(&tp, &p, "untraced half");
            describe(&tt, &t, "traced half");
            Ok(())
        }
        (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
    };

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut correct = true;
    let mut probe_rec = SpanRecorder::new(true, epoch, 100);
    // The halves alternate every half second, so they saw the same machine:
    // their medians compare as measured.
    values.insert(
        "obs.trace_overhead_pct".to_string(),
        (stats::median(&tt.raw) / stats::median(&tp.raw) - 1.0) * 100.0,
    );
    let filled = summaries.and_then(|()| {
        fill_layers(
            &mut values,
            &mut *traced,
            &traced_states,
            &trace,
            &tt,
            &mut probe_rec,
        )
    });
    if let Err(e) = filled {
        println!("FAILED per-layer table: {e}");
        correct = false;
    }
    for w in [&mut plain, &mut traced] {
        if let Err(e) = w.finish() {
            println!("FAILED shutdown: {e}");
            correct = false;
        }
    }

    // The Chrome trace of every benchmark-side span.
    let mut recorders: Vec<&SpanRecorder> = traced_states.iter().map(|s| &s.rec).collect();
    recorders.push(&probe_rec);
    let path = host::out_dir()
        .map_err(|e| e.to_string())?
        .join(format!("trace_{}.json", args.workload));
    std::fs::write(&path, spans::chrome_trace(&recorders)).map_err(|e| e.to_string())?;
    println!("trace: {}", path.display());

    let cover = values.get("obs.span_cover_pct").copied().unwrap_or(0.0);
    if cover < 95.0 {
        println!("FAILED top-level spans cover {cover:.2} % of op time (need 95 %)");
        correct = false;
    }
    print_layer_table(&values);

    let mut t = tp;
    t.attempted += tt.attempted;
    t.failed += tt.failed;
    t.errors.extend(tt.errors);
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), (v, m.unit.to_string()))
        })
        .collect();
    Ok(result(&t, correct, metrics))
}

fn print_layer_table(values: &BTreeMap<String, f64>) {
    println!("{:<34}{:>18}  unit", "per-layer metric", "value");
    for m in PER_LAYER {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        println!("{:<34}{:>18.4}  {}", m.name, v, m.unit);
    }
}

/// Bring the wall-clock metrics of `values` to the reference machine
/// speed: `level` is the calibration time of the phase they were measured
/// in over the reference time. Counts, ratios, bytes and simulated times
/// stay as they are.
fn to_reference_speed(values: &mut BTreeMap<String, f64>, level: f64) {
    for m in PER_LAYER {
        let Some(v) = values.get_mut(m.name) else {
            continue;
        };
        match m.unit {
            "ns" | "us" | "ms" => *v /= level,
            "1/s" => *v *= level,
            _ => {}
        }
    }
}

/// Fill the per-layer table from the traced instance: its benchmark-side
/// spans, its clients' counts and its program's trace registry (all of the
/// window, whose totals are `window`), then the probes.
fn fill_layers(
    values: &mut BTreeMap<String, f64>,
    traced: &mut dyn Workload,
    states: &[ClientState],
    trace: &Trace,
    window: &Totals,
    probe_rec: &mut SpanRecorder,
) -> Result<(), String> {
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    // Shares of an op are taken of the op as measured, like their
    // numerators.
    let raw_p50 = stats::median(&window.raw);
    let raw_mean = window.raw.iter().sum::<f64>() / window.raw.len().max(1) as f64;
    // Benchmark-side spans of the ops.
    let cover = states
        .iter()
        .map(|s| spans::op_cover(s.rec.spans()))
        .fold(f64::INFINITY, f64::min);
    put("obs.span_cover_pct", cover * 100.0);
    let by_name = spans::totals_by_name(states.iter().map(|s| s.rec.spans()));
    println!(
        "{:<28}{:>9}{:>14}{:>14}",
        "span", "count", "mean us", "self us"
    );
    for (name, t) in &by_name {
        println!(
            "{name:<28}{:>9}{:>14.2}{:>14.2}",
            t.count,
            t.mean_us(),
            t.mean_self_us()
        );
    }
    let mean = |name: &str| by_name.get(name).map_or(0.0, |t| t.mean_us());
    put("program.build_us", mean("program.build"));
    put("program.first_run_us", mean("program.first_run"));
    put("program.iter_us", mean("program.run"));
    put("streaming.update_batch_us", mean("streaming.update_batch"));
    put(
        "streaming.run_incremental_us",
        mean("streaming.run_incremental"),
    );

    // Counts the clients kept per timed op.
    let mut counts = LayerCounts::default();
    for c in traced.clients() {
        counts.merge(&c.counts());
    }
    let per_op = |v: u64| v as f64 / counts.ops.max(1) as f64;
    put("engine.plan_cache_hit", per_op(counts.cache_hits));
    put("engine.plan_cache_miss", per_op(counts.cache_misses));
    put("sched.spans", per_op(counts.spans));
    put("sched.steals", per_op(counts.steals));
    put("admission.refused", counts.refused as f64);
    put("streaming.fallbacks", counts.fallbacks as f64);
    if counts.server_exec_seconds > 0.0 {
        let exec = counts.server_exec_seconds / counts.ops.max(1) as f64;
        put("server.exec_share", exec / raw_mean);
        put("server.req_overhead_us", (raw_mean - exec) * 1e6);
    }

    // The program's last run, statement by statement.
    let spec = traced.spec().clone();
    let threads = spec.mode.threads() as f64;
    let mut kinds = settled_kinds(&spec, None);
    let mut in_process = false;
    if let Some(program) = traced.clients().into_iter().find_map(|c| c.program()) {
        in_process = true;
        kinds = settled_kinds(&spec, Some(program));
        let (mut model_s, mut comm, mut messages, mut ops, mut wall) = (0.0, 0u64, 0u64, 0.0, 0.0);
        let mut skew: f64 = 0.0;
        // Statements of one batch share one drain report: count each once.
        let mut drains: Vec<(u64, f64, f64)> = Vec::new();
        for k in 0..program.stmt_count() {
            let Some(r) = program.result(k) else { continue };
            model_s += r.time;
            comm += r.comm_bytes;
            messages += r.messages;
            ops += r.ops;
            wall += r.wall_time;
            skew = skew.max(r.sched.task_skew());
            if k < 6 {
                put(&format!("kernels.stmt{k}_wall_us"), r.wall_time * 1e6);
            }
            let key = r.sched.wall_seconds.to_bits();
            if !drains.iter().any(|(seen, ..)| *seen == key) {
                drains.push((
                    key,
                    r.sched.busy_seconds,
                    r.sched.wall_seconds * r.sched.threads as f64,
                ));
            }
        }
        put("model.op_us", model_s * 1e6);
        put("model.comm_bytes", comm as f64);
        put("model.messages", messages as f64);
        put("kernels.ops", ops);
        put("sched.task_skew_milli", skew * 1e3);
        if wall > 0.0 {
            put("kernels.mnnz_per_s", spec.driver_nnz() as f64 / wall / 1e6);
        }
        let (busy, capacity) = drains
            .iter()
            .fold((0.0, 0.0), |(b, c), (_, busy, cap)| (b + busy, c + cap));
        if capacity > 0.0 {
            put("sched.busy_share", busy / capacity);
        }
    }
    put("kernels.bytes_computed", spec.bytes_computed() as f64);

    // The program's own trace registry (the traced instance only).
    if let (Some(metrics), Some(recorder)) = (trace.metrics(), trace.recorder()) {
        if in_process {
            let count = |name: &str| metrics.counter(name).get() as f64;
            let iterations = count("iterations").max(1.0);
            let dispatched = count("kernel.specialized") + count("kernel.fallback");
            if dispatched > 0.0 {
                put(
                    "kernels.specialized_share",
                    count("kernel.specialized") / dispatched,
                );
            }
            put("model.launches", count("model_launches") / iterations);
            put("model.fences", count("model_fences") / iterations);
            put("obs.events", recorder.len() as f64);
            put("obs.events_dropped", recorder.dropped() as f64);
            // Seconds inside leaf-kernel spans per iteration, over what
            // the op's threads could have delivered.
            let busy_ns = metrics.histogram("span_ns").snapshot().sum as f64;
            put(
                "kernels.share_of_op",
                busy_ns / 1e9 / iterations / (threads * raw_p50),
            );
            let incremental = count("incremental.runs");
            if incremental > 0.0 {
                let (done, skipped) = (
                    count("incremental.spans_reexecuted"),
                    count("incremental.spans_skipped"),
                );
                put("streaming.skip_ratio", skipped / (done + skipped).max(1.0));
                put(
                    "streaming.rows_dirty",
                    count("incremental.rows_dirty") / incremental,
                );
            }
        }
    }

    to_reference_speed(values, window.slowdown);

    // Layer probes on this workload's own program and inputs, with a
    // calibration point on either side.
    let mut probed: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        probed.insert(name.to_string(), v);
    };
    let before = calibrate::point();
    for (name, v) in probes::probe_program(&spec, &kinds, probe_rec)? {
        match name.as_str() {
            // The model's numbers come from the workload's own program
            // where there is one; a served request is replayed in-process.
            "probe.model_op_us" if !in_process => put("model.op_us", v),
            "probe.model_comm_bytes" if !in_process => put("model.comm_bytes", v),
            "probe.model_messages" if !in_process => put("model.messages", v),
            "probe.kernel_ops" if !in_process => put("kernels.ops", v),
            n if n.starts_with("probe.") => {}
            _ => put(&name, v),
        }
    }
    for (name, v) in traced.probe(probe_rec)? {
        put(name, v);
    }
    let after = calibrate::point();
    to_reference_speed(&mut probed, (before + after) / 2.0 / calibrate::REF_SECONDS);
    values.extend(probed);

    let iter_us = values.get("program.iter_us").copied().unwrap_or(0.0);
    if iter_us > 0.0 {
        let ctx_run_us = values.get("plan.ctx_run_us").copied().unwrap_or(0.0);
        values.insert("program.self_us".to_string(), iter_us - ctx_run_us);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_wall_clock_metrics_are_brought_to_reference_speed() {
        let mut values: BTreeMap<String, f64> = [
            ("program.iter_us", 300.0),
            ("engine.lookup_hit_ns", 450.0),
            ("kernels.mnnz_per_s", 10.0),
            ("model.op_us", 7.0),
            ("sched.spans", 24.0),
            ("kernels.share_of_op", 0.5),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
        // The machine ran at 1.5x its reference time.
        to_reference_speed(&mut values, 1.5);
        assert_eq!(values["program.iter_us"], 200.0);
        assert_eq!(values["engine.lookup_hit_ns"], 300.0);
        assert_eq!(values["kernels.mnnz_per_s"], 15.0);
        assert_eq!(
            values["model.op_us"], 7.0,
            "simulated time is not wall clock"
        );
        assert_eq!(values["sched.spans"], 24.0);
        assert_eq!(values["kernels.share_of_op"], 0.5);
    }
}
