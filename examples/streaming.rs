//! Streaming SpMV: a PageRank-style rank refresh over a mutating graph.
//!
//! ```text
//! cargo run --release --example streaming
//! cargo run --release --example streaming -- --batches 12 --alpha 0.9
//! cargo run --release --example streaming -- --trace trace.json
//! ```
//!
//! One statement — `r(i) = B(i,j) * c(j)`, the rank-estimate refresh of a
//! PageRank iteration with a fixed weight vector — is compiled once and
//! then re-executed as the graph streams in edge-weight updates. Each
//! batch comes from [`generate::delta_stream`]: clustered coordinate
//! overwrites biased toward the hub rows of an R-MAT graph (the same rows
//! a crawler re-visits most). After every batch the program calls
//! `run_incremental()`, which consults the per-row-block dirty bitmap and
//! re-executes only the plan colors whose rows changed, merging into the
//! retained output from the previous run.
//!
//! The table prints, per batch, how many rows were dirty and how many
//! spans the incremental pass re-executed vs skipped. The stream ends with
//! one *structural* batch (an edge inserted, an edge deleted), which falls
//! back to a full pass under a recompiled plan. The final rank vector is
//! checked **bit-for-bit** against a from-scratch recompute of the
//! fully-mutated graph — incremental execution is exact, not approximate —
//! and after every batch the registered `r` is checked bit-for-bit against
//! the computed value: a merge writes back only the colors it re-ran.
//!
//! `--trace <path>` writes a Chrome trace (the `incremental` category
//! carries one instant event per incremental pass) and prints a
//! `run_report_json=` line whose metrics include the
//! `incremental.{runs,rows_dirty,spans_reexecuted,spans_skipped}`
//! counters that `spd-trace-check --require` can assert on.

use spdistal_repro::obs;
use spdistal_repro::sparse::{dense_vector, generate, reference};
use spdistal_repro::spdistal::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut batches = 8usize;
    let mut alpha = 0.85f64;
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--trace" => {
                trace_path = Some(args.get(k + 1).ok_or("--trace needs a <path>")?.clone());
                k += 1;
            }
            "--batches" => {
                batches = args
                    .get(k + 1)
                    .and_then(|n| n.parse().ok())
                    .ok_or("--batches needs a count")?;
                k += 1;
            }
            "--alpha" => {
                alpha = args
                    .get(k + 1)
                    .and_then(|n| n.parse().ok())
                    .ok_or("--alpha needs a value in [0, 1]")?;
                k += 1;
            }
            unknown => {
                eprintln!(
                    "unknown argument '{unknown}' \
                     (supported: --batches <n>, --alpha <a>, --trace <path>)"
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

    // A clustered R-MAT web graph: hub pages concentrate on low row ids,
    // which is exactly where `delta_stream` clusters its updates.
    let pieces = 4;
    let scale = 9; // 512 pages
    let b = generate::rmat_clustered(scale, 6 * (1 << scale), 0.6, 42);
    let n = b.dims()[0];
    let c = generate::dense_vec(b.dims()[1], 7);

    let mut program = Program::on(Machine::grid1d(pieces, MachineProfile::lassen_cpu()))
        .tensor("r", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
        .tensor("B", Format::blocked_csr(), b.clone())
        .tensor("c", Format::replicated_dense_vec(), dense_vector(c.clone()))
        .stmt("r(i) = B(i,j) * c(j)")
        .schedule(ScheduleSpec::outer_dim())
        .trace(trace)
        .build()?;

    // Cold run: compile the plan, execute everything, retain the output.
    program.run()?;

    // Stream: clustered value updates (~1% of nnz per batch), hub-biased.
    let batch_nnz = (b.nnz() / 100).max(1);
    let stream = generate::delta_stream(&b, alpha, batches, batch_nnz, 1);

    println!(
        "streaming SpMV, {n} pages, {} edges, {pieces} simulated nodes",
        b.nnz()
    );
    println!(
        "{:<8}{:>12}{:>12}{:>14}{:>12}  mode",
        "batch", "deltas", "rows dirty", "spans rerun", "skipped"
    );
    // The last batch is structural: a new edge appears and an existing one
    // disappears. The sparsity pattern changed, so this pass falls back to
    // a full recompute under a freshly compiled plan — same code path,
    // same bit-identity bar.
    let stored = b.to_coo();
    let gone = stored[0].0.clone();
    let fresh = (0..b.dims()[1] as i64)
        .map(|j| vec![gone[0], j])
        .find(|coord| stored.iter().all(|(present, _)| present != coord))
        .ok_or("the first stored row is full")?;
    let structural = vec![CoordDelta::insert(fresh, 0.5), CoordDelta::delete(gone)];
    for (i, batch) in stream.iter().chain([&structural]).enumerate() {
        let rep = program.update_batch("B", batch)?;
        program.run_incremental()?;
        // The registered `r` is the answer: a merge copies only the colors
        // it re-ran into the registration, the rest must already match.
        let registered = program.context().tensor("r")?.data.vals();
        let value = program.value(0).and_then(|v| v.as_tensor());
        let value = value.expect("one statement ran").vals();
        assert!(
            bit_identical(registered, value),
            "batch {i}: the registered output differs from the computed value"
        );
        let stats = program.last_incremental(0).expect("one statement ran");
        println!(
            "{:<8}{:>12}{:>12}{:>14}{:>12}  {}",
            i,
            rep.applied(),
            stats.rows_dirty,
            stats.spans_reexecuted,
            stats.spans_skipped,
            if stats.fallback {
                "full"
            } else {
                "incremental"
            }
        );
    }
    let last = program.last_incremental(0).expect("one statement ran");
    assert!(last.fallback, "a structural batch must fall back");

    // The incremental answer must be *bit-identical* to recomputing the
    // mutated graph from scratch with the same compiled plan.
    let mutated = program.context().tensor("B")?.data.clone();
    let mut full = Program::on(Machine::grid1d(pieces, MachineProfile::lassen_cpu()))
        .tensor("r", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
        .tensor("B", Format::blocked_csr(), mutated.clone())
        .tensor("c", Format::replicated_dense_vec(), dense_vector(c.clone()))
        .stmt("r(i) = B(i,j) * c(j)")
        .schedule(ScheduleSpec::outer_dim())
        .build()?;
    full.run()?;
    let got = program.value(0).unwrap().as_tensor().unwrap().vals();
    let want = full.value(0).unwrap().as_tensor().unwrap().vals();
    assert!(
        bit_identical(got, want),
        "incremental result diverged from full recompute"
    );
    assert!(reference::approx_eq(
        got,
        &reference::spmv(&mutated, &c),
        1e-12
    ));
    println!("\nfinal ranks bit-identical to full recompute over the mutated graph");

    if let Some(path) = &trace_path {
        program.write_chrome_trace(path)?;
        println!("chrome trace: wrote {path} (load in Perfetto / chrome://tracing)");
    }
    println!("run_report_json={}", program.run_report_json("streaming"));
    Ok(())
}

fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
