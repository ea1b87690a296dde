//! Load balance study (Section II-D): row-based vs non-zero-based SpMV on
//! a power-law matrix, through the `Program` front-end.
//!
//! The row-based schedule assigns equal *row ranges* to processors — cheap
//! (no reduction) but imbalanced when rows differ wildly in length. The
//! non-zero-based schedule fuses i and j, moves into B's position space and
//! splits the non-zeros evenly — perfectly balanced, at the cost of
//! reducing into the output across piece boundaries.
//!
//! ```text
//! cargo run --release --example load_balance
//! cargo run --release --example load_balance -- --trace trace.json
//! ```
//!
//! `--trace <path>` (or `SPD_TRACE`) writes a Chrome trace-event file and
//! the run always prints a one-line `run_report_json=` metrics summary,
//! like the other examples.

use spdistal_repro::obs;
use spdistal_repro::sparse::{dense_vector, generate, reference, CooTensor, LevelFormat};
use spdistal_repro::spdistal::prelude::*;

/// A pathologically skewed matrix: a few very dense rows at one end.
fn skewed_matrix(n: usize) -> spdistal_repro::sparse::SpTensor {
    let mut coo = CooTensor::new(vec![n, n]);
    // Rows 0..n/50 are dense-ish; the rest hold a single diagonal entry.
    for i in 0..(n / 50) as i64 {
        for j in 0..(n as i64) / 4 {
            coo.push(&[i, (j * 4 + i) % n as i64], 1.0);
        }
    }
    for i in (n / 50) as i64..n as i64 {
        coo.push(&[i, i], 1.0);
    }
    coo.build(&[LevelFormat::Dense, LevelFormat::Compressed])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--trace" => {
                trace_path = Some(args.get(k + 1).ok_or("--trace needs a <path>")?.clone());
                k += 1;
            }
            unknown => {
                eprintln!("unknown argument '{unknown}' (supported: --trace <path>)");
                std::process::exit(2);
            }
        }
        k += 1;
    }
    let trace_path = trace_path.or_else(obs::env_trace_path);
    let trace = Trace::enabled();

    let pieces = 8;
    let b = skewed_matrix(20_000);
    let n = b.dims()[0];
    let c = generate::dense_vec(n, 3);
    let expect = reference::spmv(&b, &c);

    let mut report = Vec::new();
    let mut last_program = None;
    for (name, nonzero) in [("row-based", false), ("non-zero-based", true)] {
        // Same statement both times; only the format + schedule pair
        // changes — matched data and computation distributions (II-D).
        let (fmt, spec) = if nonzero {
            (Format::nonzero_csr(), ScheduleSpec::nonzero())
        } else {
            (Format::blocked_csr(), ScheduleSpec::outer_dim())
        };
        let mut program = Program::on(Machine::grid1d(pieces, MachineProfile::lassen_cpu()))
            .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
            .tensor("B", fmt, b.clone())
            .tensor("c", Format::replicated_dense_vec(), dense_vector(c.clone()))
            .stmt("a(i) = B(i,j) * c(j)")
            .schedule(spec)
            .trace(trace.clone())
            .build()?;
        program.run()?;
        let result = program.result(0).expect("statement ran");
        assert!(reference::approx_eq(
            result.output.as_tensor().unwrap().vals(),
            &expect,
            1e-12
        ));
        let skew = result.sched.task_skew();
        report.push((name, skew, result.time, result.comm_bytes));
        last_program = Some(program);
    }

    println!("SpMV on a skewed matrix, {pieces} simulated nodes:");
    println!(
        "{:<18}{:>12}{:>14}{:>12}",
        "schedule", "task skew", "time (ms)", "comm (B)"
    );
    for (name, skew, time, comm) in &report {
        println!("{:<18}{:>12.3}{:>14.4}{:>12}", name, skew, time * 1e3, comm);
    }
    let speedup = report[0].2 / report[1].2;
    println!("\nnon-zero split is {speedup:.2}x faster here: perfect balance beats the");
    println!("row split's idle processors, even paying boundary reductions.");

    let program = last_program.expect("both schedules ran");
    if let Some(path) = &trace_path {
        program.write_chrome_trace(path)?;
        println!("chrome trace: wrote {path} (load in Perfetto / chrome://tracing)");
    }
    println!(
        "run_report_json={}",
        program.run_report_json("load_balance")
    );
    Ok(())
}
