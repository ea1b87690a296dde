//! Chrome trace-event export (the `chrome://tracing` / Perfetto JSON
//! format) and a structural validator for it.
//!
//! The export renders two processes: **pid 1** is measured wall-clock time
//! (tid 0 = the control thread, tid `k` = pool worker `k - 1`, so every
//! worker gets its own track), **pid 2** is the discrete-event simulator's
//! modeled timeline (simulated seconds mapped to microseconds), letting
//! measured and modeled overlap be compared visually side by side.
//! Span/launch/flush windows export as complete (`"X"`) events; steals,
//! plan-cache probes, auto-decisions, and fences as instants (`"i"`).

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{Event, Sym};
use crate::json::{escape, number, Json};
use crate::metrics::HistSnapshot;
use crate::recorder::TraceRecorder;

/// Measured-time process id in the exported trace.
pub const PID_MEASURED: u64 = 1;
/// Modeled-timeline process id in the exported trace.
pub const PID_MODEL: u64 = 2;

/// One exported event: its timeline position (µs) and its JSON. A
/// `dur_us` makes it a complete (`"X"`) event, none an instant (`"i"`).
fn event_json(
    name: &str,
    cat: &str,
    ts_us: f64,
    dur_us: Option<f64>,
    (pid, tid): (u64, u32),
    args: &str,
) -> (f64, String) {
    let phase = match dur_us {
        Some(dur) => format!(
            "\"ph\":\"X\",\"ts\":{},\"dur\":{}",
            number(ts_us),
            number(dur)
        ),
        None => format!("\"ph\":\"i\",\"s\":\"t\",\"ts\":{}", number(ts_us)),
    };
    (
        ts_us,
        format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",{phase},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
            escape(name),
        ),
    )
}

/// Render everything `recorder` holds as a Chrome trace-event JSON
/// document (`{"traceEvents": [...]}`), one exported event per recorded
/// one, in a single walk.
pub fn chrome_trace_json(recorder: &TraceRecorder) -> String {
    let strings = recorder.strings();
    let name_of = |s: Sym| -> &str { strings.get(s.0 as usize).map(String::as_str).unwrap_or("?") };
    let window = |dur_ns: u64| Some(dur_ns as f64 / 1e3);

    let mut out: Vec<(f64, String)> = Vec::new();
    let mut used_lanes: BTreeSet<u32> = BTreeSet::new();
    for ev in recorder.snapshot_lanes().iter().flatten() {
        used_lanes.insert(ev.lane);
        let (name, dur_us, tid, args) = match ev.event {
            Event::Span {
                launch,
                name,
                task,
                span,
                dur_ns,
            } => (
                name_of(name).to_string(),
                window(dur_ns),
                ev.lane,
                format!("\"launch\":{launch},\"task\":{task},\"span\":{span}"),
            ),
            Event::LaunchIssue { launch, name } => (
                format!("issue {}", name_of(name)),
                None,
                0,
                format!("\"launch\":{launch}"),
            ),
            Event::Launch {
                launch,
                name,
                dur_ns,
            } => (
                name_of(name).to_string(),
                window(dur_ns),
                0,
                format!("\"launch\":{launch}"),
            ),
            Event::Steal { victim, task, span } => (
                "steal".to_string(),
                None,
                ev.lane,
                format!("\"victim\":{victim},\"task\":{task},\"span\":{span}"),
            ),
            Event::StealAttempt => ("steal-attempt".to_string(), None, ev.lane, String::new()),
            Event::PlanCacheHit { key } | Event::PlanCacheMiss { key } => {
                let hit = matches!(ev.event, Event::PlanCacheHit { .. });
                (
                    format!("plan-cache {}", if hit { "hit" } else { "miss" }),
                    None,
                    ev.lane,
                    format!("\"key\":\"{}\"", escape(name_of(key))),
                )
            }
            Event::AutoDecision {
                stmt,
                iteration,
                choice,
                reason,
            } => (
                "auto-decision".to_string(),
                None,
                ev.lane,
                format!(
                    "\"stmt\":{stmt},\"iteration\":{iteration},\"choice\":\"{}\",\"reason\":\"{}\"",
                    escape(name_of(choice)),
                    escape(name_of(reason)),
                ),
            ),
            Event::Flush {
                flush,
                batches,
                tasks,
                dur_ns,
            } => (
                format!("flush {flush}"),
                window(dur_ns),
                ev.lane,
                format!("\"batches\":{batches},\"tasks\":{tasks}"),
            ),
            Event::ModelLaunch {
                name,
                issue,
                start,
                finish,
                seq_span,
            } => {
                out.push(event_json(
                    name_of(name),
                    "model",
                    start * 1e6,
                    Some((finish - start).max(0.0) * 1e6),
                    (PID_MODEL, 0),
                    &format!(
                        "\"issue\":{},\"seq_span\":{}",
                        number(issue),
                        number(seq_span)
                    ),
                ));
                continue;
            }
            Event::ModelFence { name } => (
                format!("model-fence {}", name_of(name)),
                None,
                0,
                String::new(),
            ),
            Event::KernelDispatch { kernel, signature } => (
                "kernel-specialized".to_string(),
                None,
                ev.lane,
                format!(
                    "\"kernel\":\"{}\",\"signature\":\"{}\"",
                    escape(name_of(kernel)),
                    escape(name_of(signature)),
                ),
            ),
            Event::IncrementalRun {
                stmt,
                rows_dirty,
                spans_reexecuted,
                spans_skipped,
                fallback,
            } => (
                // Three names so CI can `--require` the interesting
                // case directly: a fallback, a merge that skipped
                // clean spans, or a merge that re-ran everything.
                if fallback {
                    "incremental-fallback"
                } else if spans_skipped > 0 {
                    "incremental-skip"
                } else {
                    "incremental-run"
                }
                .to_string(),
                None,
                ev.lane,
                format!(
                    "\"stmt\":{stmt},\"rows_dirty\":{rows_dirty},\"spans_reexecuted\":{spans_reexecuted},\"spans_skipped\":{spans_skipped}"
                ),
            ),
            Event::IngestBatch {
                deltas,
                ignored,
                structural,
            } => (
                // Named by arm, so CI can `--require` each.
                if structural {
                    "ingest-structural"
                } else {
                    "ingest-in-place"
                }
                .to_string(),
                None,
                ev.lane,
                format!("\"deltas\":{deltas},\"ignored\":{ignored}"),
            ),
        };
        out.push(event_json(
            &name,
            ev.event.category(),
            ev.ts_ns as f64 / 1e3,
            dur_us,
            (PID_MEASURED, tid),
            &args,
        ));
    }

    // Stable timeline order, then prepend track metadata.
    out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut events: Vec<String> = Vec::with_capacity(out.len() + 8);
    for (pid, pname) in [
        (PID_MEASURED, "spdistal measured"),
        (PID_MODEL, "spdistal model timeline"),
    ] {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{pname}\"}}}}"
        ));
    }
    used_lanes.insert(0);
    for lane in &used_lanes {
        let label = if *lane == 0 {
            "control".to_string()
        } else {
            format!("worker {}", lane - 1)
        };
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_MEASURED},\"tid\":{lane},\"args\":{{\"name\":\"{label}\"}}}}"
        ));
    }
    events.push(format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_MODEL},\"tid\":0,\"args\":{{\"name\":\"model\"}}}}"
    ));
    events.extend(out.into_iter().map(|(_, e)| e));
    // `otherData` is the trace-event format's slot for run metadata; a
    // viewer ignores it, `validate_chrome_trace` reads the drop count back.
    format!(
        "{{\"traceEvents\":[\n{}\n],\"otherData\":{{\"events_dropped\":{}}}}}\n",
        events.join(",\n"),
        recorder.dropped()
    )
}

/// Shape statistics of a validated trace.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub events: usize,
    /// Non-metadata event counts by `cat`.
    pub by_cat: BTreeMap<String, usize>,
    /// Non-metadata event counts by `name`.
    pub by_name: BTreeMap<String, usize>,
    /// Distinct `(pid, tid)` tracks carrying non-metadata events.
    pub tracks: BTreeSet<(u64, u64)>,
    /// Duration histograms of complete (`"X"`) events per category, in
    /// nanoseconds (the trace file stores microseconds; ×1000 here so the
    /// log2 buckets resolve sub-microsecond spans).
    pub dur_ns_by_cat: BTreeMap<String, HistSnapshot>,
    /// Events the recorder's ring buffers overwrote before the export
    /// (`otherData.events_dropped`; 0 when the file does not say).
    pub events_dropped: u64,
}

impl TraceStats {
    /// Events whose `cat` *or* `name` equals `key`.
    pub fn count(&self, key: &str) -> usize {
        self.by_cat.get(key).copied().unwrap_or(0) + self.by_name.get(key).copied().unwrap_or(0)
    }
}

/// Validate that `src` is a structurally well-formed Chrome trace-event
/// JSON document and return its shape statistics.
pub fn validate_chrome_trace(src: &str) -> Result<TraceStats, String> {
    let doc = Json::parse(src)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\"")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut stats = TraceStats {
        events: events.len(),
        events_dropped: doc
            .get("otherData")
            .and_then(|o| o.get("events_dropped"))
            .and_then(Json::as_f64)
            .map_or(0, |n| n as u64),
        ..Default::default()
    };
    for (k, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("event {k}: bad or missing \"{field}\"");
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("ph"))?;
        if !matches!(ph, "X" | "i" | "M" | "B" | "E" | "C") {
            return Err(format!("event {k}: unknown phase {ph:?}"));
        }
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("pid"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("tid"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {k}: negative or non-finite ts {ts}"));
        }
        let mut dur_ns = None;
        if ph == "X" {
            let dur = ev
                .get("dur")
                .and_then(Json::as_f64)
                .ok_or_else(|| ctx("dur"))?;
            if !dur.is_finite() || dur < 0.0 {
                return Err(format!("event {k}: negative or non-finite dur {dur}"));
            }
            dur_ns = Some((dur * 1e3) as u64);
        }
        if let Some(cat) = ev.get("cat").and_then(Json::as_str) {
            *stats.by_cat.entry(cat.to_string()).or_insert(0) += 1;
            if let Some(ns) = dur_ns {
                stats
                    .dur_ns_by_cat
                    .entry(cat.to_string())
                    .or_default()
                    .observe(ns);
            }
        }
        *stats.by_name.entry(name.to_string()).or_insert(0) += 1;
        stats.tracks.insert((pid as u64, tid as u64));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;

    fn sample_recorder() -> TraceRecorder {
        let rec = TraceRecorder::new(3, 256);
        let spmv = rec.intern("spmv");
        rec.record_at(
            5,
            0,
            Event::Flush {
                flush: 0,
                batches: 1,
                tasks: 2,
                dur_ns: 35,
            },
        );
        rec.record_at(
            10,
            0,
            Event::LaunchIssue {
                launch: 0,
                name: spmv,
            },
        );
        rec.record_at(
            20,
            1,
            Event::Span {
                launch: 0,
                name: spmv,
                task: 0,
                span: 0,
                dur_ns: 10,
            },
        );
        rec.record_at(
            25,
            2,
            Event::Steal {
                victim: 0,
                task: 1,
                span: 0,
            },
        );
        rec.record_at(
            20,
            0,
            Event::Launch {
                launch: 0,
                name: spmv,
                dur_ns: 15,
            },
        );
        let key = rec.intern("a(i)=B(i,j)*c(j) | outer | csr");
        rec.record_at(45, 0, Event::PlanCacheMiss { key });
        rec.record_at(50, 0, Event::PlanCacheHit { key });
        let (choice, reason) = (rec.intern("non-zero"), rec.intern("imbalance 3.2"));
        rec.record_at(
            55,
            0,
            Event::AutoDecision {
                stmt: 0,
                iteration: 0,
                choice,
                reason,
            },
        );
        rec.record_at(
            60,
            0,
            Event::ModelLaunch {
                name: spmv,
                issue: 0.0,
                start: 0.1,
                finish: 0.4,
                seq_span: 0.3,
            },
        );
        rec.record_at(65, 0, Event::ModelFence { name: spmv });
        for (ts, sig) in [(70, "{Dense,Compressed}"), (75, "{Dense,Dense,Compressed}")] {
            let signature = rec.intern(sig);
            rec.record_at(
                ts,
                0,
                Event::KernelDispatch {
                    kernel: spmv,
                    signature,
                },
            );
        }
        rec.record_at(
            80,
            0,
            Event::IncrementalRun {
                stmt: 0,
                rows_dirty: 5,
                spans_reexecuted: 2,
                spans_skipped: 14,
                fallback: false,
            },
        );
        for (ts, structural) in [(85, false), (90, true)] {
            rec.record_at(
                ts,
                0,
                Event::IngestBatch {
                    deltas: 4,
                    ignored: 1,
                    structural,
                },
            );
        }
        rec
    }

    #[test]
    fn export_validates_and_covers_every_category() {
        let rec = sample_recorder();
        let json = chrome_trace_json(&rec);
        let stats = validate_chrome_trace(&json).expect("well-formed");
        for cat in [
            "span",
            "steal",
            "launch",
            "cache",
            "auto",
            "flush",
            "model",
            "kernel-dispatch",
            "incremental",
            "ingest",
        ] {
            assert!(stats.count(cat) >= 1, "missing category {cat}: {stats:?}");
        }
        // A window exports as recorded: its start and its length.
        assert!(
            json.contains(r#""name":"spmv","cat":"span","ph":"X","ts":0.02,"dur":0.01,"#),
            "{json}"
        );
        // Spans land on their worker's track, not the control track.
        assert!(stats.tracks.contains(&(PID_MEASURED, 1)));
        assert!(stats.tracks.contains(&(PID_MODEL, 0)));
        assert_eq!(stats.count("plan-cache hit"), 1);
        assert_eq!(stats.count("plan-cache miss"), 1);
        assert_eq!(stats.count("auto-decision"), 1);
        assert_eq!(stats.count("kernel-specialized"), 2);
        assert_eq!(stats.count("ingest-in-place"), 1);
        assert_eq!(stats.count("ingest-structural"), 1);
    }

    /// A full ring overwrites its oldest events; the export says how many,
    /// and the validator reads the count back (0 for a file without one).
    #[test]
    fn export_reports_dropped_events() {
        let rec = TraceRecorder::new(1, 16);
        for k in 0..20 {
            rec.record_at(k, 0, Event::ModelFence { name: Sym(0) });
        }
        let stats = validate_chrome_trace(&chrome_trace_json(&rec)).unwrap();
        assert_eq!(stats.events_dropped, 4);
        let bare = validate_chrome_trace(r#"{"traceEvents": []}"#).unwrap();
        assert_eq!(bare.events_dropped, 0);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        for bad in [
            "{}",
            r#"{"traceEvents": [{"ph": "X"}]}"#,
            r#"{"traceEvents": [{"name": "a", "ph": "Q", "ts": 0, "pid": 1, "tid": 0}]}"#,
            r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 0}]}"#,
            r#"{"traceEvents": [{"name": "a", "ph": "i", "ts": -4, "pid": 1, "tid": 0}]}"#,
            r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 1e999, "dur": 1e999, "pid": 1, "tid": 0}]}"#,
            r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": 1e999, "pid": 1, "tid": 0}]}"#,
        ] {
            assert!(validate_chrome_trace(bad).is_err(), "accepted {bad}");
        }
    }
}
