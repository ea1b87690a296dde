//! Chrome-trace checker for CI: validate a trace file written by
//! `Trace::write_chrome_trace` and assert it contains required events.
//!
//! ```text
//! trace_check <trace.json> [--require <category-or-name>]... [--forbid <category-or-name>]...
//!             [--require-no-drops] [--summary]
//! ```
//!
//! Validation checks the trace-event JSON shape (every event has a name, a
//! known phase, pid/tid; timed events carry non-negative timestamps and
//! durations). Each `--require` matches either an event *category*
//! (`flush`, `launch`, `span`, `steal`, `cache`, `auto`, `model`,
//! `incremental`, `ingest`) or an exact event *name* (`steal`,
//! `auto-decision`, `plan-cache hit`, `incremental-skip`,
//! `ingest-in-place`, `ingest-structural`, ...) and fails unless at least
//! one such event is present. Each `--forbid` matches the same way and
//! fails if any such event is present (`--forbid kernel-fallback`: no plan
//! may dispatch the generic walker).
//! `--require-no-drops` fails when the trace reports that its recorder
//! overwrote events (`events_dropped > 0`): whatever was counted from such a
//! trace undercounts. `--summary`
//! additionally prints per-category event counts and, for categories with
//! window (`"X"`) events, duration percentiles — for quick eyeballing of
//! ci runs. Exits non-zero with a message on any failure, prints a
//! one-line summary on success.

use spdistal_obs::{validate_chrome_trace, TraceStats};

/// The `--forbid`den categories or names the trace holds events of, with
/// their counts.
fn forbidden_present(stats: &TraceStats, forbidden: &[String]) -> Vec<(String, usize)> {
    let counts = forbidden
        .iter()
        .map(|what| (what.clone(), stats.count(what)));
    counts.filter(|(_, n)| *n > 0).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut forbidden: Vec<String> = Vec::new();
    let mut summary = false;
    let mut no_drops = false;
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--require" => {
                let Some(what) = args.get(k + 1) else {
                    eprintln!("trace_check: --require needs a <category-or-name>");
                    std::process::exit(2);
                };
                required.push(what.clone());
                k += 1;
            }
            "--forbid" => {
                let Some(what) = args.get(k + 1) else {
                    eprintln!("trace_check: --forbid needs a <category-or-name>");
                    std::process::exit(2);
                };
                forbidden.push(what.clone());
                k += 1;
            }
            "--summary" => summary = true,
            "--require-no-drops" => no_drops = true,
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => {
                eprintln!(
                    "trace_check: unexpected argument '{other}' \
                     (usage: trace_check <trace.json> [--require <category-or-name>]... \
                     [--forbid <category-or-name>]... [--require-no-drops] [--summary])"
                );
                std::process::exit(2);
            }
        }
        k += 1;
    }
    let Some(path) = path else {
        eprintln!("trace_check: missing <trace.json> argument");
        std::process::exit(2);
    };

    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let stats = match validate_chrome_trace(&src) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("trace_check: {path} is not a well-formed Chrome trace: {e}");
            std::process::exit(1);
        }
    };

    if summary {
        println!("trace_check: {path} summary");
        println!(
            "  {:<10} {:>8}   duration percentiles (us, upper bounds)",
            "category", "events"
        );
        for (cat, n) in &stats.by_cat {
            match stats.dur_ns_by_cat.get(cat) {
                Some(h) if !h.is_empty() => {
                    let s = h.summarize().scaled(1e-3);
                    println!(
                        "  {:<10} {:>8}   p50 {:>12.3}  p95 {:>12.3}  p99 {:>12.3}  \
                         mean {:>12.3}  max {:>12.3}",
                        cat, n, s.p50, s.p95, s.p99, s.mean, s.max
                    );
                }
                _ => println!("  {cat:<10} {n:>8}   (instant events only)"),
            }
        }
    }

    if no_drops && stats.events_dropped > 0 {
        eprintln!(
            "trace_check: {path} dropped {} event(s): its counts are incomplete",
            stats.events_dropped
        );
        std::process::exit(1);
    }

    let mut missing = Vec::new();
    for what in &required {
        let n = stats.count(what);
        if n == 0 {
            missing.push(what.clone());
        } else {
            println!("trace_check: {what}: {n} event(s)");
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "trace_check: {path} valid but missing required events: {}",
            missing.join(", ")
        );
        std::process::exit(1);
    }
    let present = forbidden_present(&stats, &forbidden);
    if !present.is_empty() {
        let present: Vec<String> = present.iter().map(|(w, n)| format!("{w} ({n})")).collect();
        eprintln!(
            "trace_check: {path} valid but holds forbidden events: {}",
            present.join(", ")
        );
        std::process::exit(1);
    }
    println!(
        "trace_check: {path} OK — {} events across {} tracks",
        stats.events,
        stats.tracks.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdistal_obs::Trace;

    fn stats_of(trace: &Trace) -> TraceStats {
        validate_chrome_trace(&trace.chrome_trace().expect("trace enabled")).unwrap()
    }

    #[test]
    fn forbid_matches_a_present_name_or_category_only() {
        let trace = Trace::enabled();
        trace.kernel_dispatch("SpTtv", "{Dense,Dense,Compressed}");
        let stats = stats_of(&trace);
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let present = forbidden_present(&stats, &names(&["kernel-specialized", "kernel-dispatch"]));
        assert_eq!(present.len(), 2, "{present:?}");
        assert!(present.iter().all(|(_, n)| *n >= 1));
        assert!(forbidden_present(&stats, &names(&["ingest-in-place", "steal"])).is_empty());
    }
}
