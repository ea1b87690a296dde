//! Sparse tensor factorization workload: the MTTKRP-driven alternating
//! least squares sweep at the heart of CP decomposition — the data-analytics
//! application the paper's introduction motivates (Freebase/FROSTT tensors).
//!
//! Each CP-ALS sweep updates all three factor matrices with one distributed
//! SpMTTKRP per mode (Jacobi-style: every mode reads the *previous* sweep's
//! factors, so the three mode updates are mutually independent). The whole
//! sweep is one [`Program`]: three statements built with the `Expr`
//! builders, an explicit outer-dimension schedule each, iterated with
//! [`CompiledProgram::run_iters_with`] — the factor-damping step between
//! sweeps is the between-iteration hook, and the plan cache compiles each
//! (statement, schedule) pair exactly once across every sweep.
//!
//! ```text
//! cargo run --release --example tensor_factorization
//! cargo run --release --example tensor_factorization -- --pipeline [N_THREADS]
//! cargo run --release --example tensor_factorization -- --skew 1.2 --pipeline
//! ```
//!
//! `--skew <alpha>` sets the Zipf exponent of the tensor's mode-0 slice
//! sizes (`generate::tensor3_skewed`; default 0.8). With `--pipeline`, the
//! program's deferred flush proves the three mode updates independent and
//! overlaps them on the work-stealing pool (vs. launch-at-a-time), with
//! bit-identical results and a modeled makespan strictly below the
//! sequential modeled sum.
//!
//! `--trace <path>` (or `SPD_TRACE`) records every run of the session —
//! serial, launch-at-a-time, pipelined — onto one structured trace,
//! written as Chrome trace-event JSON plus a one-line `run_report_json=`
//! metrics summary.

use spdistal_repro::obs;
use spdistal_repro::sparse::convert::permuted;
use spdistal_repro::sparse::{dense_matrix, generate, reference};
use spdistal_repro::spdistal::prelude::*;
use spdistal_repro::spdistal::{access, assign};

const PIECES: usize = 8;
const RANK: usize = 16;
const DIMS: [usize; 3] = [600, 400, 500];
const NNZ: usize = 200_000;
const SWEEPS: usize = 3;
const DEFAULT_ALPHA: f64 = 0.8;

const MODES: [(&str, &str, &str, &str); 3] = [
    ("Anew", "B0", "C", "D"),
    ("Cnew", "B1", "A", "D"),
    ("Dnew", "B2", "A", "C"),
];

/// The whole CP-ALS sweep as one `Program`: three mode-update statements
/// (Anew(i,l) = B0(i,j,k) * C(j,l) * D(k,l) and its permutations), each on
/// the explicit outer-dimension schedule.
fn build(
    alpha: f64,
    mode: ExecMode,
    pipelined: bool,
    trace: &Trace,
) -> Result<CompiledProgram, Box<dyn std::error::Error>> {
    let b = generate::tensor3_skewed(DIMS, NNZ, alpha, 11);
    let mut program = Program::on(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()))
        .exec_mode(mode)
        .trace(trace.clone())
        .tensor("B0", Format::blocked_csf3(), b.clone())
        .tensor(
            "B1",
            Format::blocked_csf3(),
            permuted(&b, &[1, 0, 2], &generate::CSF3),
        )
        .tensor(
            "B2",
            Format::blocked_csf3(),
            permuted(&b, &[2, 0, 1], &generate::CSF3),
        );
    // Current factors: replicated (every mode reads them) ...
    for (name, rows, seed) in [("A", DIMS[0], 20), ("C", DIMS[1], 21), ("D", DIMS[2], 22)] {
        program = program.tensor(
            name,
            Format::replicated_dense_matrix(),
            dense_matrix(rows, RANK, generate::dense_buffer(rows, RANK, seed)),
        );
    }
    // ... next factors: row-blocked outputs, one per mode.
    for (name, rows) in [("Anew", DIMS[0]), ("Cnew", DIMS[1]), ("Dnew", DIMS[2])] {
        program = program.tensor(
            name,
            Format::blocked_dense_matrix(),
            dense_matrix(rows, RANK, vec![0.0; rows * RANK]),
        );
    }
    for (out, driver, f1, f2) in MODES {
        program = program
            .stmt_with(move |vars| {
                let [m, l, u, v] = vars.fresh_n(["m", "l", "u", "v"]);
                assign(
                    out,
                    &[m, l],
                    access(driver, &[m, u, v]) * access(f1, &[u, l]) * access(f2, &[v, l]),
                )
            })
            .schedule(ScheduleSpec::outer_dim());
    }
    if !pipelined {
        program = program.launch_at_a_time();
    }
    Ok(program.build()?)
}

/// Final factor values + the program that computed them: its report is
/// cumulative, and each statement's result holds its last sweep's timings.
type RunOutcome = (Vec<Vec<f64>>, CompiledProgram);

/// One full CP-ALS run: `SWEEPS` sweeps of the three-mode program, the
/// damping step as the between-sweep hook. Returns the final factor values
/// and the program.
fn run(
    mode: ExecMode,
    alpha: f64,
    pipelined: bool,
    verify: bool,
    trace: &Trace,
) -> Result<RunOutcome, Box<dyn std::error::Error>> {
    let mut program = build(alpha, mode, pipelined, trace)?;
    program.run_iters_with(SWEEPS, |ctx, _sweep| {
        if verify {
            // Each mode against the serial oracle with the pre-sweep
            // factors (the hook runs before they are damped).
            let factor = |name: &str| ctx.tensor(name).unwrap().data.vals().to_vec();
            let (a, c, d) = (factor("A"), factor("C"), factor("D"));
            for ((out, driver, ..), (f1, f2)) in MODES.iter().zip([(&c, &d), (&a, &d), (&a, &c)]) {
                let b = &ctx.tensor(driver).unwrap().data;
                let expect = reference::spmttkrp(b, f1, f2, RANK);
                let got = ctx.tensor(out).unwrap().data.vals();
                assert!(reference::approx_eq(got, &expect, 1e-10));
            }
        }
        // The least-squares-solve stand-in: damp the new factors and make
        // them the next sweep's inputs.
        for (old, new) in [("A", "Anew"), ("C", "Cnew"), ("D", "Dnew")] {
            let updated: Vec<f64> = ctx
                .tensor(new)
                .unwrap()
                .data
                .vals()
                .iter()
                .map(|v| 0.9 * v + 0.01)
                .collect();
            ctx.tensor_data_mut(old)?.copy_from_slice(&updated);
        }
        Ok(())
    })?;
    let finals = ["A", "C", "D"]
        .iter()
        .map(|n| program.context().tensor(n).unwrap().data.vals().to_vec())
        .collect();
    Ok((finals, program))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pipeline_threads: Option<usize> = None;
    let mut alpha = DEFAULT_ALPHA;
    let mut trace_path: Option<String> = None;
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--trace" => {
                trace_path = Some(args.get(k + 1).ok_or("--trace needs a <path>")?.clone());
                k += 1;
            }
            "--pipeline" => {
                // Bare `--pipeline` means Parallel(0): auto-detect, see
                // the ExecMode::Parallel docs for the policy.
                match args.get(k + 1).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) => {
                        pipeline_threads = Some(n);
                        k += 1;
                    }
                    None => pipeline_threads = Some(0),
                }
            }
            "--skew" => {
                alpha = args
                    .get(k + 1)
                    .and_then(|a| a.parse::<f64>().ok())
                    .ok_or("--skew needs a Zipf exponent, e.g. --skew 1.2")?;
                k += 1;
            }
            unknown => {
                eprintln!(
                    "unknown argument '{unknown}' (supported: --pipeline [N], --skew <alpha>, \
                     --trace <path>)"
                );
                std::process::exit(2);
            }
        }
        k += 1;
    }
    let trace_path = trace_path.or_else(obs::env_trace_path);
    let trace = if trace_path.is_some() {
        Trace::enabled()
    } else {
        Trace::disabled()
    };

    println!(
        "CP-ALS (Jacobi) on a {DIMS:?} tensor (slice skew alpha {alpha}), rank {RANK}, \
         {PIECES} nodes, {SWEEPS} sweeps:\
         \n  one Program, 3 independent SpMTTKRP mode updates per sweep"
    );
    let (serial_finals, serial) = run(ExecMode::Serial, alpha, false, true, &trace)?;
    let serial = serial.report();
    println!(
        "serial launch-at-a-time: compute {:8.3} ms wall-clock \
         ({} batches, {} plan compiles + {} cache hits over {} statement runs, \
         all modes verified)",
        serial.wall_seconds * 1e3,
        serial.batches,
        serial.compiles,
        serial.cache_hits,
        serial.compiles + serial.cache_hits,
    );
    assert_eq!(
        serial.compiles, 3,
        "each (stmt, schedule) pair compiles exactly once across sweeps"
    );

    if let Some(threads) = pipeline_threads {
        let mode = ExecMode::Parallel(threads);
        let (lat_finals, lat) = run(mode, alpha, false, false, &trace)?;
        let (pipe_finals, pipe_program) = run(mode, alpha, true, false, &trace)?;
        let (lat, pipe) = (lat.report(), pipe_program.report());
        for factors in [&lat_finals, &pipe_finals] {
            assert_eq!(serial_finals.len(), factors.len());
            for (s, p) in serial_finals.iter().zip(factors.iter()) {
                assert!(
                    s.iter().zip(p).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "deferred factors must be bit-identical to serial"
                );
            }
        }
        println!(
            "at {} threads: launch-at-a-time {:8.3} ms, pipelined {:8.3} ms \
             ({} batches) -> {:.2}x",
            mode.threads(),
            lat.wall_seconds * 1e3,
            pipe.wall_seconds * 1e3,
            pipe.batches,
            lat.wall_seconds / pipe.wall_seconds.max(1e-12)
        );
        println!("  outputs bit-identical to the serial path ✔");
        println!("  final sweep launch milestones (wall ms | modeled ms):");
        let results = (0..pipe_program.stmt_count()).map(|k| pipe_program.result(k).unwrap());
        for timing in results.flat_map(|r| &r.launches) {
            println!(
                "    {:<12} issue {:7.3}  start {:7.3}  drain {:7.3} | \
                 issue {:7.3}  start {:7.3}  finish {:7.3}",
                timing.name,
                timing.issue * 1e3,
                timing.start * 1e3,
                timing.drain * 1e3,
                timing.model.issue * 1e3,
                timing.model.start * 1e3,
                timing.model.finish * 1e3
            );
        }
        // The modeled timeline mirrors the wall-clock story: the three
        // independent mode updates of each sweep overlap under the
        // graph-ordered replay, so the pipelined modeled makespan beats the
        // sequential modeled sum.
        assert!(
            pipe.model_makespan < pipe.model_seq_sum,
            "pipelined modeled makespan must undercut the sequential modeled sum \
             ({} vs {})",
            pipe.model_makespan,
            pipe.model_seq_sum
        );
        println!(
            "  modeled (simulated) time: sequential sum {:8.3} ms, \
             graph-ordered makespan {:8.3} ms -> {:.2}x modeled overlap",
            pipe.model_seq_sum * 1e3,
            pipe.model_makespan * 1e3,
            pipe.model_seq_sum / pipe.model_makespan.max(1e-12)
        );
        println!(
            "  (launch-at-a-time flushes modeled {:8.3} ms — no overlap by construction)",
            lat.model_makespan * 1e3
        );
    }

    if let Some(path) = &trace_path {
        trace.write_chrome_trace(path)?;
        println!("chrome trace: wrote {path} (load in Perfetto / chrome://tracing)");
    }
    if trace.is_enabled() {
        println!(
            "run_report_json={}",
            trace.run_report_json("tensor_factorization")
        );
    }
    Ok(())
}
