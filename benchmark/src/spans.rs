//! The benchmark-side span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program is
//! touched. They are kept in memory and written as a Chrome trace when
//! the run ends. A disabled recorder (the untraced pass) makes every call
//! a branch on a bool.
//!
//! Owns: span storage, nesting, self time, op coverage, Chrome export.
//! Does not own: which calls get a span (the workloads decide).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one op share an identifier.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of the span the measuring loop opens around every op.
pub const OP_SPAN: &str = "op";

pub struct SpanRecorder {
    enabled: bool,
    epoch: Instant,
    /// Chrome-trace thread id: one per client.
    lane: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
}

/// Handle returned by [`SpanRecorder::begin`]; `None` when disabled.
#[must_use]
pub struct Open(Option<usize>);

impl SpanRecorder {
    pub fn new(enabled: bool, epoch: Instant, lane: u32) -> SpanRecorder {
        SpanRecorder {
            enabled,
            epoch,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans opened from now on belong to op `id`.
    pub fn set_op(&mut self, id: u64) {
        self.op_id = id;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[idx].end_ns = now;
        // Spans close innermost-first; anything left above `idx` on the
        // stack was leaked by an early return and closes with it.
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Time `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of it that its direct children cover (overlapping children are counted
/// once). One pass over the spans of one recorder.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for c in spans {
        if let Some(p) = c.parent {
            let (a, b) = (
                c.start_ns.max(spans[p].start_ns),
                c.end_ns.min(spans[p].end_ns),
            );
            if b > a {
                kids[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: how many, total duration and total self time (ns).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_us(&self) -> f64 {
        self.dur_ns as f64 / self.count.max(1) as f64 / 1e3
    }

    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64 / 1e3
    }
}

/// Totals by span name over several recorders (parents are indices into
/// a recorder's own spans, so each is walked on its own).
pub fn totals_by_name<'a>(
    recorders: impl IntoIterator<Item = &'a [Span]>,
) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for spans in recorders {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.dur_ns += s.dur_ns();
            t.self_ns += own;
        }
    }
    out
}

/// Share of all op time covered by the ops' top-level child spans. The
/// traced pass requires this to be at least 0.95: an op whose time is not
/// attributed to a layer is a hole in the per-layer table.
pub fn op_cover(spans: &[Span]) -> f64 {
    let (mut dur, mut own) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if s.name == OP_SPAN && s.parent.is_none() {
            dur += s.dur_ns();
            own += self_ns;
        }
    }
    if dur == 0 {
        0.0
    } else {
        1.0 - own as f64 / dur as f64
    }
}

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps),
/// one thread per recorder. Loads in Perfetto and `chrome://tracing`.
pub fn chrome_trace(recorders: &[&SpanRecorder]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for rec in recorders {
        for s in &rec.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                rec.lane,
                s.op_id
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(OP_SPAN, 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps "a" by 10: the union covers 10..70.
            span("b", 30, 70, Some(0)),
            // A grandchild does not count against the op.
            span("c", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), [40, 22, 40, 8]);
        // Two recorders with the same spans: parents stay per recorder.
        let t = totals_by_name([spans.as_slice(), spans.as_slice()]);
        assert_eq!((t["a"].count, t["a"].dur_ns, t["a"].self_ns), (2, 60, 44));
        assert_eq!(t["a"].mean_self_us(), 0.022);
        assert!((op_cover(&spans) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut rec = SpanRecorder::new(true, Instant::now(), 3);
        rec.set_op(7);
        let op = rec.begin(OP_SPAN);
        rec.span("inner", || std::hint::black_box(1 + 1));
        rec.end(op);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op_id, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = chrome_trace(&[&rec]);
        let v = spdistal_obs::json::Json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = SpanRecorder::new(false, Instant::now(), 0);
        let op = rec.begin(OP_SPAN);
        assert_eq!(rec.span("x", || 5), 5);
        rec.end(op);
        assert!(rec.spans().is_empty());
        assert_eq!(op_cover(rec.spans()), 0.0);
    }
}
