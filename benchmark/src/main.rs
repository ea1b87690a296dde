//! `spd-benchmark` — the repo benchmark.
//!
//! ```text
//! spd-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! spd-benchmark run       [--seed N] [--rounds R] [--seconds S]
//! spd-benchmark selfcheck [--seed N] [--rounds R] [--seconds S]
//! spd-benchmark spread    [--seed N] [--rounds R] [--seconds S]
//! ```
//!
//! The first form is one run of one workload and is what `BENCHMARK.json`'s
//! command invokes: it prints progress, then one JSON object as the last
//! line of standard output (`correct`, `attempted`, `failed`, `metrics`).
//! `--trace 0` reports the end-to-end metrics with tracing off; `--trace 1`
//! is the traced pass and reports the per-layer metrics. `run`, `selfcheck`
//! and `spread` drive whole sets of such runs as child processes.
//!
//! The benchmark measures the program from outside: it calls public
//! functions of the workspace crates and reads the counters their `Trace`
//! exposes. See `README.md` for what each workload and metric means.

mod calibrate;
mod driver;
mod host;
mod measure;
mod metrics;
mod probes;
mod serve;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  spd-benchmark --workload NAME --seed N --seconds S --trace 0|1
  spd-benchmark run       [--seed N] [--rounds R] [--seconds S]
  spd-benchmark selfcheck [--seed N] [--rounds R] [--seconds S]
  spd-benchmark spread    [--seed N] [--rounds R] [--seconds S]
workloads: iter_small iter_heavy compile_cold stream_delta serve_closed";

/// `--key value` pairs after an optional subcommand.
struct Flags {
    command: Option<String>,
    pairs: Vec<(String, String)>,
}

fn parse_flags(argv: &[String]) -> Result<Flags, String> {
    let mut command = None;
    let mut pairs = Vec::new();
    let mut k = 0;
    if let Some(first) = argv.first().filter(|a| !a.starts_with("--")) {
        command = Some(first.clone());
        k = 1;
    }
    while k < argv.len() {
        let key = argv[k]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{}'", argv[k]))?;
        let value = argv
            .get(k + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        pairs.push((key.to_string(), value.clone()));
        k += 2;
    }
    Ok(Flags { command, pairs })
}

impl Flags {
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read '{v}'")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn set_args(flags: &Flags) -> Result<driver::SetArgs, String> {
    flags.only(&["seed", "rounds", "seconds"])?;
    let args = driver::SetArgs {
        seed: flags.get("seed")?.unwrap_or(11),
        rounds: flags.get("rounds")?.unwrap_or(5),
        seconds: flags.get("seconds")?.unwrap_or(15),
    };
    if args.rounds == 0 || args.seconds == 0 {
        return Err("--rounds and --seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn single(flags: &Flags) -> Result<bool, String> {
    flags.only(&["workload", "seed", "seconds", "trace"])?;
    host::pin_allocator()?;
    let need = |key: &str| format!("--{key} is required");
    let workload: String = flags.get("workload")?.ok_or_else(|| need("workload"))?;
    if !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds: f64 = flags.get("seconds")?.ok_or_else(|| need("seconds"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match flags.get::<u8>("trace")?.ok_or_else(|| need("trace"))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let args = measure::Args {
        workload,
        seed: flags.get("seed")?.ok_or_else(|| need("seed"))?,
        seconds,
        trace,
    };
    let result = measure::run(&args)?;
    println!("{}", result.to_json());
    Ok(result.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&argv) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("spd-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match flags.command.as_deref() {
        None => single(&flags),
        Some("run") => set_args(&flags)
            .and_then(|a| driver::run(&a))
            .map(|()| true),
        Some("selfcheck") => set_args(&flags)
            .and_then(|a| driver::selfcheck(&a))
            .map(|()| true),
        Some("spread") => set_args(&flags)
            .and_then(|a| driver::spread(&a))
            .map(|()| true),
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // The result line was printed; a failed op fails the command.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spd-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
