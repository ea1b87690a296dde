//! Kernel fusion (Section VI, SpAdd3): SpDISTAL compiles
//! `A = B + C + D` into one fused pass with a single assembly, while
//! library baselines compose two binary additions with a materialized
//! temporary — the locality and assembly overhead behind the paper's
//! 11.8x / 38.5x / 19.2x gaps.
//!
//! Two independent fused additions (`A = B + C + D` and `A2 = C + D + E`)
//! form one [`Program`], written as TIN text. Their symbolic + numeric
//! launches touch no common output, so the program's deferred flush
//! overlaps the two whole statements on the work-stealing pool —
//! Legion-style deferred execution — with bit-identical assembled outputs.
//!
//! ```text
//! cargo run --release --example fused_addition
//! cargo run --release --example fused_addition -- --pipeline [N_THREADS]
//! cargo run --release --example fused_addition -- --pipeline --trace trace.json
//! ```
//!
//! `--trace <path>` (or `SPD_TRACE`) records every run onto one structured
//! trace: Chrome trace-event JSON plus a one-line `run_report_json=`
//! metrics summary.

use spdistal_repro::baselines::{ctf, petsc, trilinos};
use spdistal_repro::obs;
use spdistal_repro::sparse::{generate, reference, SpTensor};
use spdistal_repro::spdistal::prelude::*;

const PIECES: usize = 8;

fn build(
    mode: ExecMode,
    pipelined: bool,
    trace: &Trace,
) -> Result<CompiledProgram, Box<dyn std::error::Error>> {
    let b = generate::rmat_default(13, 160_000, 31);
    let c = generate::shift_last_dim(&b, 1);
    let d = generate::shift_last_dim(&b, 2);
    let e = generate::shift_last_dim(&b, 3);
    let (rows, cols) = (b.dims()[0], b.dims()[1]);
    let mut program = Program::on(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()))
        .exec_mode(mode)
        .trace(trace.clone())
        .tensor("B", Format::blocked_csr(), b)
        .tensor("C", Format::blocked_csr(), c)
        .tensor("D", Format::blocked_csr(), d)
        .tensor("E", Format::blocked_csr(), e);
    for out in ["A", "A2"] {
        program = program.tensor(
            out,
            Format::blocked_csr(),
            spdistal_repro::spdistal::plan::empty_csr(rows, cols),
        );
    }
    program = program
        .stmt("A(i,j) = B(i,j) + C(i,j) + D(i,j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("A2(i,j) = C(i,j) + D(i,j) + E(i,j)")
        .schedule(ScheduleSpec::outer_dim());
    if !pipelined {
        program = program.launch_at_a_time();
    }
    Ok(program.build()?)
}

/// Run both fused additions under `mode`. Returns the two assembled
/// outputs, the first statement's simulated time, and the program: its
/// report and each statement's result (launch milestones included).
fn run(
    mode: ExecMode,
    pipelined: bool,
    trace: &Trace,
) -> Result<(Vec<SpTensor>, f64, CompiledProgram), Box<dyn std::error::Error>> {
    let mut program = build(mode, pipelined, trace)?;
    program.run()?;
    let sim_time = program.result(0).unwrap().time;
    let outputs = (0..program.stmt_count())
        .map(|k| program.value(k).unwrap().as_tensor().unwrap().clone())
        .collect();
    Ok((outputs, sim_time, program))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pipeline_threads: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
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
            "--trace" => {
                trace_path = Some(args.get(k + 1).ok_or("--trace needs a <path>")?.clone());
                k += 1;
            }
            unknown => {
                eprintln!(
                    "unknown argument '{unknown}' (supported: --pipeline [N], --trace <path>)"
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

    // References for both fused statements.
    let b = generate::rmat_default(13, 160_000, 31);
    let c = generate::shift_last_dim(&b, 1);
    let d = generate::shift_last_dim(&b, 2);
    let e = generate::shift_last_dim(&b, 3);
    let expect_a = reference::spadd3(&b, &c, &d);
    let expect_a2 = reference::spadd3(&c, &d, &e);

    let (outputs, sim_time, program) = run(ExecMode::Serial, true, &trace)?;
    assert!(reference::tensors_approx_eq(&outputs[0], &expect_a, 1e-12));
    assert!(reference::tensors_approx_eq(&outputs[1], &expect_a2, 1e-12));
    assert_eq!(
        program.report().batches,
        1,
        "independent additions share one batch"
    );

    // Baselines: pairwise composition of the first statement.
    let machine = Machine::grid1d(PIECES, MachineProfile::lassen_cpu());
    let (petsc_r, petsc_out) = petsc::spadd3(&machine, &b, &c, &d);
    let (tril_r, _) = trilinos::spadd3(&machine, &b, &c, &d);
    let (ctf_r, _) = ctf::spadd3(&machine, &b, &c, &d);
    assert!(reference::tensors_approx_eq(&petsc_out, &expect_a, 1e-12));

    println!(
        "A = B + C + D on {PIECES} simulated nodes ({} nnz inputs)",
        b.nnz()
    );
    println!("{:<22}{:>14}{:>12}", "system", "time (ms)", "vs SpDISTAL");
    let rows_out = [
        ("SpDISTAL (fused)", sim_time),
        ("PETSc (pairwise)", petsc_r.time),
        ("Trilinos (pairwise)", tril_r.time),
        ("CTF (interpreted)", ctf_r.time),
    ];
    for (name, t) in rows_out {
        println!("{:<22}{:>14.4}{:>11.1}x", name, t * 1e3, t / sim_time);
    }
    println!("\nfusion avoids the materialized temporary and its second assembly pass.");

    if let Some(threads) = pipeline_threads {
        let mode = ExecMode::Parallel(threads);
        let (lat_outputs, _, lat) = run(mode, false, &trace)?;
        let (pipe_outputs, pipe_sim, pipe) = run(mode, true, &trace)?;
        let (lat_report, pipe_report) = (lat.report(), pipe.report());
        for got in [&lat_outputs, &pipe_outputs] {
            for (serial, other) in outputs.iter().zip(got.iter()) {
                assert_eq!(serial.levels(), other.levels(), "assembled structure");
                assert!(
                    serial
                        .vals()
                        .iter()
                        .zip(other.vals())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "deferred assembly must be bit-identical to serial"
                );
            }
        }
        assert_eq!(pipe_sim, sim_time, "simulated time is mode-independent");
        println!(
            "\ndeferred execution ({} threads): both additions overlap in one batch",
            mode.threads()
        );
        println!(
            "  launch-at-a-time compute {:8.3} ms wall-clock ({} batches)",
            lat_report.wall_seconds * 1e3,
            lat_report.batches
        );
        println!(
            "  pipelined        compute {:8.3} ms wall-clock ({} batch, {} steals)",
            pipe_report.wall_seconds * 1e3,
            pipe_report.batches,
            pipe_report.steals
        );
        let results = (0..pipe.stmt_count()).map(|k| pipe.result(k).unwrap());
        for t in results.flat_map(|r| &r.launches) {
            println!(
                "    {:<10} issue {:7.3}  start {:7.3}  drain {:7.3} (ms since epoch)",
                t.name,
                t.issue * 1e3,
                t.start * 1e3,
                t.drain * 1e3
            );
        }
        println!("  outputs bit-identical to the serial path ✔");
    }

    if let Some(path) = &trace_path {
        trace.write_chrome_trace(path)?;
        println!("chrome trace: wrote {path} (load in Perfetto / chrome://tracing)");
    }
    if trace.is_enabled() {
        println!(
            "run_report_json={}",
            trace.run_report_json("fused_addition")
        );
    }
    Ok(())
}
