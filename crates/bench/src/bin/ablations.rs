//! Ablation studies for the design choices DESIGN.md calls out
//! (Section VI-C of the paper discusses each mechanism qualitatively):
//!
//! 1. **Universe vs non-zero partitioning under skew** — sweep the degree
//!    skew of the input and compare the two SpMV schedules: the crossover
//!    shows exactly when paying the non-zero split's output reduction is
//!    worth it.
//! 2. **Matched vs mismatched data/computation distributions** — the same
//!    row-based schedule over row-distributed vs non-zero-distributed data;
//!    the mismatch is valid but pays reshaping communication (Section II-D).
//! 3. **Fusion on/off for SpAdd3** — SpDISTAL's fused ternary add vs the
//!    same compiler running two pairwise adds with a materialized
//!    temporary (what libraries are forced to do).

use spdistal::prelude::*;
use spdistal::{access, assign, schedule_nonzero, schedule_outer_dim};
use spdistal_bench::time_scale;
use spdistal_sparse::{dense_vector, generate, reference, CooTensor, LevelFormat, SpTensor};

const PIECES: usize = 16;

fn cpu() -> MachineProfile {
    MachineProfile::lassen_cpu().time_scaled(time_scale())
}

/// A matrix where a `frac` fraction of non-zeros concentrates in 1% of rows.
fn matrix_with_skew(n: usize, nnz: usize, frac: f64) -> SpTensor {
    let mut coo = CooTensor::new(vec![n, n]);
    let hot_rows = (n / 100).max(1);
    let hot_nnz = (nnz as f64 * frac) as usize;
    for e in 0..hot_nnz {
        let i = (e % hot_rows) as i64;
        let j = ((e * 7919) % n) as i64;
        coo.push(&[i, j], 1.0);
    }
    for e in 0..nnz - hot_nnz {
        let i = (hot_rows + e % (n - hot_rows)) as i64;
        let j = ((e * 104729) % n) as i64;
        coo.push(&[i, j], 1.0);
    }
    coo.build(&[LevelFormat::Dense, LevelFormat::Compressed])
}

fn spmv_time(b: &SpTensor, nonzero: bool) -> (f64, u64, f64) {
    let n = b.dims()[0];
    let c = generate::dense_vec(n, 3);
    let mut ctx = Context::new(Machine::grid1d(PIECES, cpu()));
    let fmt = if nonzero {
        Format::nonzero_csr()
    } else {
        Format::blocked_csr()
    };
    ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    ctx.add_tensor("B", b.clone(), fmt).unwrap();
    ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec())
        .unwrap();
    let [i, j] = ctx.fresh_vars(["i", "j"]);
    let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
    let sched = if nonzero {
        schedule_nonzero(&mut ctx, &stmt, "B", 2, PIECES, ParallelUnit::CpuThread).unwrap()
    } else {
        schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread)
    };
    let plan = ctx.compile(&stmt, &sched).unwrap();
    let imb = plan
        .inputs
        .iter()
        .find(|p| p.tensor == "B")
        .unwrap()
        .part
        .vals()
        .imbalance();
    let r = ctx.run(&plan).unwrap();
    let expect = reference::spmv(b, &c);
    assert!(reference::approx_eq(
        r.output.as_tensor().unwrap().vals(),
        &expect,
        1e-12
    ));
    (r.time, r.comm_bytes, imb)
}

fn ablation_partitioning() {
    println!("--- Ablation 1: universe vs non-zero partition under skew ({PIECES} nodes) ---");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>10}",
        "hot frac", "row imbal.", "row (ms)", "nonzero (ms)", "winner"
    );
    for frac in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let b = matrix_with_skew(20_000, 400_000, frac);
        let (t_row, _, imb) = spmv_time(&b, false);
        let (t_nz, _, _) = spmv_time(&b, true);
        println!(
            "{:>10.1} {:>12.2} {:>14.4} {:>14.4} {:>10}",
            frac,
            imb,
            t_row * 1e3,
            t_nz * 1e3,
            if t_row < t_nz { "row" } else { "nonzero" }
        );
    }
    println!("(non-zero wins once skew makes the row split idle most processors)\n");
}

fn ablation_distribution_mismatch() {
    println!("--- Ablation 2: matched vs mismatched data distribution (row schedule) ---");
    let b = generate::rmat_default(13, 150_000, 5);
    let n = b.dims()[0];
    let c = generate::dense_vec(n, 6);
    println!(
        "{:>12} {:>14} {:>14}",
        "data dist", "time (ms)", "comm (bytes)"
    );
    for (name, fmt) in [
        ("row-wise", Format::blocked_csr()),
        ("non-zero", Format::nonzero_csr()),
    ] {
        let mut ctx = Context::new(Machine::grid1d(PIECES, cpu()));
        ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
            .unwrap();
        ctx.add_tensor("B", b.clone(), fmt).unwrap();
        ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec())
            .unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
        let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        println!("{:>12} {:>14.4} {:>14}", name, r.time * 1e3, r.comm_bytes);
    }
    println!("(the mismatched case is valid but reshapes the sparse data at kernel time)\n");
}

fn spadd_pair(ctx_b: &SpTensor, ctx_c: &SpTensor, pieces: usize) -> (SpTensor, f64) {
    let (rows, cols) = (ctx_b.dims()[0], ctx_b.dims()[1]);
    let empty = spdistal::plan::empty_csr(rows, cols);
    let mut ctx = Context::new(Machine::grid1d(pieces, cpu()));
    ctx.add_tensor("B", ctx_b.clone(), Format::blocked_csr())
        .unwrap();
    ctx.add_tensor("C", ctx_c.clone(), Format::blocked_csr())
        .unwrap();
    ctx.add_tensor("Z", empty.clone(), Format::blocked_csr())
        .unwrap();
    ctx.add_tensor("A", empty, Format::blocked_csr()).unwrap();
    let [i, j] = ctx.fresh_vars(["i", "j"]);
    // Pairwise add expressed as a ternary with a structurally empty third
    // operand, so it flows through the same compiled path.
    let stmt = assign(
        "A",
        &[i, j],
        access("B", &[i, j]) + access("C", &[i, j]) + access("Z", &[i, j]),
    );
    let sched = schedule_outer_dim(&mut ctx, &stmt, pieces, ParallelUnit::CpuThread);
    let r = ctx.compile_and_run(&stmt, &sched).unwrap();
    (r.output.as_tensor().unwrap().clone(), r.time)
}

fn ablation_fusion() {
    println!("--- Ablation 3: fused vs pairwise SpAdd3 (same compiler, {PIECES} nodes) ---");
    let b = generate::rmat_default(13, 150_000, 7);
    let c = generate::shift_last_dim(&b, 1);
    let d = generate::shift_last_dim(&b, 2);
    let (rows, cols) = (b.dims()[0], b.dims()[1]);
    let expect = reference::spadd3(&b, &c, &d);

    // Fused: one pass, one assembly.
    let mut ctx = Context::new(Machine::grid1d(PIECES, cpu()));
    for (name, t) in [("B", &b), ("C", &c), ("D", &d)] {
        ctx.add_tensor(name, t.clone(), Format::blocked_csr())
            .unwrap();
    }
    ctx.add_tensor(
        "A",
        spdistal::plan::empty_csr(rows, cols),
        Format::blocked_csr(),
    )
    .unwrap();
    let [i, j] = ctx.fresh_vars(["i", "j"]);
    let stmt = assign(
        "A",
        &[i, j],
        access("B", &[i, j]) + access("C", &[i, j]) + access("D", &[i, j]),
    );
    let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
    let fused = ctx.compile_and_run(&stmt, &sched).unwrap();
    assert!(reference::tensors_approx_eq(
        fused.output.as_tensor().unwrap(),
        &expect,
        1e-12
    ));

    // Unfused: T = B + C, then A = T + D — a materialized temporary and a
    // second full assembly.
    let (tmp, t1) = spadd_pair(&b, &c, PIECES);
    let (out, t2) = spadd_pair(&tmp, &d, PIECES);
    assert!(reference::tensors_approx_eq(&out, &expect, 1e-12));

    println!("{:>22} {:>14}", "variant", "time (ms)");
    println!("{:>22} {:>14.4}", "fused (1 pass)", fused.time * 1e3);
    println!("{:>22} {:>14.4}", "pairwise (2 passes)", (t1 + t2) * 1e3);
    println!(
        "fusion speedup: {:.2}x (the paper's SpAdd3 result in miniature)\n",
        (t1 + t2) / fused.time
    );
}

fn main() {
    ablation_partitioning();
    ablation_distribution_mismatch();
    ablation_fusion();
}
