//! `run` and `selfcheck`: whole sets of runs for a person at a terminal.
//!
//! The automated driver calls the binary once per (workload, run) itself;
//! these subcommands do the same by hand: interleaved rounds of fresh
//! child processes, the median over rounds, one traced pass, a result
//! file, and — for `selfcheck` — two sets compared against the bounds.
//!
//! Owns: round orchestration, aggregation over rounds, result files.
//! Does not own: a single run (`measure`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::host::{self, Fingerprint};
use crate::metrics::{Better, RunResult, END_TO_END, MOVES, PER_LAYER, WORKLOADS};
use crate::stats;

pub struct SetArgs {
    pub seed: u64,
    pub rounds: usize,
    pub seconds: u64,
}

/// One child process: one workload, one window.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: the child printed nothing ({})", out.status))?;
    let result = RunResult::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); child {}; output:\n{stdout}",
            out.status
        )
    })?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{workload}: run failed ({}, {} of {} ops failed); output:\n{stdout}",
            out.status, result.failed, result.attempted
        ));
    }
    Ok(result)
}

/// One set: `rounds` interleaved rounds of every workload.
pub struct Set {
    /// workload -> metric -> value per round.
    pub rounds: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload -> ops attempted per round.
    pub samples: BTreeMap<String, Vec<u64>>,
    pub failed: u64,
    pub attempted: u64,
}

impl Set {
    /// The set's value of a metric: the median over rounds (peak memory:
    /// the maximum — a peak is a peak).
    pub fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        let per_round = self.rounds.get(workload)?.get(metric)?;
        Some(match metric {
            "peak_rss_mb" => per_round.iter().copied().fold(f64::MIN, f64::max),
            _ => stats::median(per_round),
        })
    }

    pub fn fail_share(&self) -> f64 {
        stats::fail_share(self.failed, self.attempted)
    }
}

pub fn run_set(args: &SetArgs) -> Result<Set, String> {
    let mut set = Set {
        rounds: BTreeMap::new(),
        samples: BTreeMap::new(),
        failed: 0,
        attempted: 0,
    };
    for round in 0..args.rounds {
        // Interleaved: a slow phase of the machine hits one round of
        // every workload, not every round of one.
        for w in WORKLOADS {
            eprintln!("round {}/{}: {}", round + 1, args.rounds, w.name);
            let r = child(w.name, args.seed, args.seconds, false)?;
            set.failed += r.failed;
            set.attempted += r.attempted;
            set.samples
                .entry(w.name.to_string())
                .or_default()
                .push(r.attempted);
            let per_metric = set.rounds.entry(w.name.to_string()).or_default();
            for (name, (value, _)) in &r.metrics {
                per_metric.entry(name.clone()).or_default().push(*value);
            }
        }
    }
    Ok(set)
}

fn print_set(set: &Set, title: &str) {
    println!("\n{title}");
    print!("{:<14}", "workload");
    for m in END_TO_END {
        print!("{:>22}", format!("{} [{}]", m.name, m.unit));
    }
    println!("{:>12}", "fail_share");
    for w in WORKLOADS {
        print!("{:<14}", w.name);
        for m in END_TO_END {
            match set.value(w.name, m.name) {
                Some(v) => print!("{v:>22.4}"),
                None => print!("{:>22}", "-"),
            }
        }
        println!("{:>12.6}", set.fail_share());
    }
    for w in WORKLOADS {
        if let Some(s) = set.samples.get(w.name) {
            println!("{:<14}ops per round: {s:?}", w.name);
        }
    }
}

fn set_json(set: &Set) -> String {
    let mut out = String::from("{");
    for (k, w) in WORKLOADS.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{", w.name);
        for (j, m) in END_TO_END.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let per_round = set
                .rounds
                .get(w.name)
                .and_then(|r| r.get(m.name))
                .cloned()
                .unwrap_or_default();
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"rounds\":[{}]}}",
                m.name,
                spdistal_obs::json::number(set.value(w.name, m.name).unwrap_or(0.0)),
                m.unit,
                per_round
                    .iter()
                    .map(|v| spdistal_obs::json::number(*v))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        let _ = write!(
            out,
            ",\"ops_per_round\":{:?}}}",
            set.samples.get(w.name).cloned().unwrap_or_default()
        );
    }
    let _ = write!(out, ",\"fail_share\":{}}}", set.fail_share());
    out
}

fn write_result_file(
    name: &str,
    args: &SetArgs,
    sets: &[&Set],
    layers: Option<&BTreeMap<String, RunResult>>,
) -> Result<(), String> {
    let fp = Fingerprint::detect();
    let mut out = format!(
        "{{\"host\":{},\"seed\":{},\"rounds\":{},\"seconds\":{},\"sets\":[{}]",
        fp.to_json(),
        args.seed,
        args.rounds,
        args.seconds,
        sets.iter()
            .map(|s| set_json(s))
            .collect::<Vec<_>>()
            .join(",")
    );
    if let Some(layers) = layers {
        out.push_str(",\"per_layer\":{");
        for (k, (workload, r)) in layers.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{workload}\":{}", r.to_json());
        }
        out.push('}');
    }
    out.push_str("}\n");
    let path = host::out_dir().map_err(|e| e.to_string())?.join(name);
    std::fs::write(&path, out).map_err(|e| e.to_string())?;
    println!("\nresult file: {}", path.display());
    Ok(())
}

/// `run`: one set, then one traced pass per workload.
pub fn run(args: &SetArgs) -> Result<(), String> {
    println!("host: {}", Fingerprint::detect().to_json());
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<14}{}", w.name, w.why);
    }
    let set = run_set(args)?;
    print_set(
        &set,
        &format!(
            "end to end: seed {}, median of {} rounds of {} s",
            args.seed, args.rounds, args.seconds
        ),
    );
    let mut layers = BTreeMap::new();
    for w in WORKLOADS {
        eprintln!("traced pass: {}", w.name);
        layers.insert(
            w.name.to_string(),
            child(w.name, args.seed, args.seconds, true)?,
        );
    }
    println!("\nper layer (traced pass; 0 = the op does not pass through that layer)");
    print!("{:<34}", "metric");
    for w in WORKLOADS {
        print!("{:>16}", w.name);
    }
    println!("  unit (better)");
    for m in PER_LAYER {
        print!("{:<34}", m.name);
        for w in WORKLOADS {
            print!("{:>16.4}", layers[w.name].value(m.name).unwrap_or(0.0));
        }
        println!("  {} ({})", m.unit, m.better.as_str());
    }
    println!("\nwhich end-to-end metric each layer should move:");
    for (prefix, target) in MOVES {
        println!("  {prefix:<12}-> {target}");
    }
    sanity(&layers);
    write_result_file(
        &format!("result_seed{}.json", args.seed),
        args,
        &[&set],
        Some(&layers),
    )
}

/// The benchmark's checks on itself: the two `iter_*` workloads stress
/// different layers, cached iterations never miss the plan cache, tracing
/// stays cheap and loses nothing. Printed, not enforced: they describe
/// the program under test as much as the benchmark.
fn sanity(layers: &BTreeMap<String, RunResult>) {
    let get = |w: &str, m: &str| layers.get(w).and_then(|r| r.value(m)).unwrap_or(f64::NAN);
    let check = |what: String, ok: bool| {
        println!("  [{}] {what}", if ok { "ok" } else { "!!" });
    };
    println!("\nsanity:");
    let small = get("iter_small", "kernels.share_of_op");
    check(
        format!("kernels.share_of_op @ iter_small = {small:.3} (< 0.15)"),
        small < 0.15,
    );
    let heavy = get("iter_heavy", "kernels.share_of_op");
    check(
        format!("kernels.share_of_op @ iter_heavy = {heavy:.3} (> 0.6)"),
        heavy > 0.6,
    );
    for w in ["iter_small", "iter_heavy"] {
        let miss = get(w, "engine.plan_cache_miss");
        check(
            format!("engine.plan_cache_miss @ {w} = {miss} (0 inside the window)"),
            miss == 0.0,
        );
    }
    for w in WORKLOADS {
        let over = get(w.name, "obs.trace_overhead_pct");
        let dropped = get(w.name, "obs.events_dropped");
        check(
            format!(
                "obs @ {}: trace overhead {over:.2} % (< 5), {dropped} events dropped (0)",
                w.name
            ),
            over < 5.0 && dropped == 0.0,
        );
    }
}

/// Relative amount by which `b` is worse than `a` (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => a / b - 1.0,
    }
}

/// `selfcheck`: two sets of the same code, back to back; every (workload,
/// end-to-end metric) pair must agree within the metric's bound.
pub fn selfcheck(args: &SetArgs) -> Result<(), String> {
    println!("host: {}", Fingerprint::detect().to_json());
    let first = run_set(args)?;
    let second = run_set(args)?;
    print_set(&first, "first set");
    print_set(&second, "second set");
    println!("\ngap of the second set over the first (positive = worse), against the bound");
    let mut over = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(a), Some(b)) = (first.value(w.name, m.name), second.value(w.name, m.name))
            else {
                return Err(format!("{} @ {} was not measured", m.name, w.name));
            };
            let gap = worse_by(m.better, a, b);
            let ok = gap.abs() <= m.bound;
            println!(
                "  [{}] {:<14}{:<14}{:>14.4}{:>14.4}{:>+9.2} %  (bound {:.0} %)",
                if ok { "ok" } else { "!!" },
                w.name,
                m.name,
                a,
                b,
                gap * 100.0,
                m.bound * 100.0
            );
            if !ok {
                over.push(format!("{} @ {}", m.name, w.name));
            }
        }
    }
    write_result_file(
        &format!("selfcheck_seed{}.json", args.seed),
        args,
        &[&first, &second],
        None,
    )?;
    if first.failed + second.failed > 0 {
        return Err(format!("{} ops failed", first.failed + second.failed));
    }
    if over.is_empty() {
        println!("selfcheck: every pair agrees within its bound");
        Ok(())
    } else {
        Err(format!("beyond the bound: {}", over.join(", ")))
    }
}

/// `spread`: every workload `runs` times, each time with another seed;
/// per end-to-end metric, the distance between the first and the third
/// quartile of the runs' values (Python's `statistics.quantiles(v, n=4)`)
/// as a share of their median. A benchmark is steady enough when every
/// spread is below a third of the metric's bound; a spread beyond the
/// bound fails the command (`setup_s` is exempt, as for the driver).
pub fn spread(args: &SetArgs) -> Result<(), String> {
    println!("host: {}", Fingerprint::detect().to_json());
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for run in 0..args.rounds {
        for w in WORKLOADS {
            let seed = args.seed + run as u64;
            eprintln!("run {}/{}: {} --seed {seed}", run + 1, args.rounds, w.name);
            let r = child(w.name, seed, args.seconds, false)?;
            for m in END_TO_END {
                let v = r
                    .value(m.name)
                    .ok_or_else(|| format!("{} @ {} was not measured", m.name, w.name))?;
                values.entry((w.name, m.name)).or_default().push(v);
            }
        }
    }
    println!(
        "\nspread over {} runs of {} s, seeds {}..{}",
        args.rounds,
        args.seconds,
        args.seed,
        args.seed + args.rounds as u64 - 1
    );
    println!(
        "     {:<14}{:<14}{:>14}{:>14}{:>14}{:>10}{:>10}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound/3"
    );
    let mut over = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let v = &values[&(w.name, m.name)];
            let [q1, q2, q3] = stats::quartiles(v).ok_or("spread needs at least 2 runs")?;
            let share = stats::iqr_share(v).ok_or("spread needs at least 2 runs")?;
            let mark = if share <= m.bound / 3.0 {
                "ok"
            } else if share <= m.bound || m.name == "setup_s" {
                "~~"
            } else {
                over.push(format!("{} @ {}", m.name, w.name));
                "!!"
            };
            println!(
                "[{mark}] {:<14}{:<14}{q1:>14.4}{q2:>14.4}{q3:>14.4}{:>9.2}%{:>9.2}%",
                w.name,
                m.name,
                share * 100.0,
                m.bound / 3.0 * 100.0
            );
        }
    }
    println!("\nvalues per run (seed {} first):", args.seed);
    for w in WORKLOADS {
        for m in END_TO_END {
            let v = &values[&(w.name, m.name)];
            let row: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("  {:<14}{:<14}{}", w.name, m.name, row.join(" "));
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("spread beyond the bound: {}", over.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(values: &[f64], metric: &str) -> Set {
        let mut rounds = BTreeMap::new();
        rounds.insert(
            "iter_small".to_string(),
            BTreeMap::from([(metric.to_string(), values.to_vec())]),
        );
        Set {
            rounds,
            samples: BTreeMap::new(),
            failed: 1,
            attempted: 200,
        }
    }

    #[test]
    fn set_value_is_median_of_rounds_and_max_of_peaks() {
        let s = set_of(&[4.1, 4.0, 9.0, 4.2, 3.9], "op_p50_ms");
        assert_eq!(s.value("iter_small", "op_p50_ms"), Some(4.1));
        let s = set_of(&[80.0, 82.5, 81.0], "peak_rss_mb");
        assert_eq!(s.value("iter_small", "peak_rss_mb"), Some(82.5));
        assert_eq!(s.value("iter_small", "setup_s"), None);
        assert_eq!(s.fail_share(), 0.005);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 10.0, 9.0) < 0.0);
        assert!((worse_by(Better::Higher, 110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn result_file_body_is_json() {
        let s = set_of(&[1.0, 2.0, 3.0], "op_p50_ms");
        let v = spdistal_obs::json::Json::parse(&set_json(&s)).expect("valid JSON");
        let p50 = v.get("iter_small").unwrap().get("op_p50_ms").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(p50.get("rounds").unwrap().as_arr().unwrap().len(), 3);
    }
}
