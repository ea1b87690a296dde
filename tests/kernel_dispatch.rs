//! Plan-level dispatch regression tests for the specialized kernel table:
//! blessed (kernel, stored layout) pairs must dispatch a monomorphized
//! kernel (counting `kernel.specialized`) that answers the generic
//! walker's bits, and an unblessed pair must be refused at compile with a
//! typed error naming the layout — never run.

use spdistal_repro::ir::Assignment;
use spdistal_repro::sparse::{
    convert, dense_matrix, dense_vector, generate, reference, LevelFormat, SpTensor,
};
use spdistal_repro::spdistal::kernels::tensor3::{self, spttv_output};
use spdistal_repro::spdistal::kernels::OutVals;
use spdistal_repro::spdistal::level_funcs::{
    entry_counts, equal_coord_bounds, partition_tensor, universe_partition,
};
use spdistal_repro::spdistal::prelude::*;

fn counter(trace: &Trace, name: &str) -> u64 {
    trace
        .metrics()
        .expect("trace enabled")
        .counter_values()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

fn traced_ctx() -> Context {
    Context::new(Machine::grid1d(2, MachineProfile::lassen_cpu())).with_trace(Trace::enabled())
}

/// Run SpMV through the full plan path with the driver declared in `fmt`
/// and stored in the declared format's level layout, returning the dense
/// output and the context's trace.
fn run_spmv(fmt: Format, nonzero: bool) -> (Vec<f64>, Trace) {
    let store = match fmt.levels_signature().as_str() {
        "{Compressed,Compressed}" => convert::to_dcsr,
        "{Compressed,Singleton}" => convert::to_coo_format,
        _ => SpTensor::clone,
    };
    run_spmv_stored(fmt, store, nonzero)
}

/// [`run_spmv`] with the driver stored as `store` makes it, whatever `fmt`
/// declares.
fn run_spmv_stored(
    fmt: Format,
    store: fn(&SpTensor) -> SpTensor,
    nonzero: bool,
) -> (Vec<f64>, Trace) {
    let mut ctx = traced_ctx();
    let base = generate::rmat_default(6, 800, 51);
    let b = store(&base);
    let n = b.dims()[0];
    let c = generate::dense_vec(n, 52);
    let expect = reference::spmv(&base, &c);
    ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    ctx.add_tensor("B", b, fmt).unwrap();
    ctx.add_tensor("c", dense_vector(c), Format::replicated_dense_vec())
        .unwrap();
    let [i, j] = ctx.fresh_vars(["i", "j"]);
    let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
    let sched = if nonzero {
        schedule_nonzero(&mut ctx, &stmt, "B", 2, 2, ParallelUnit::CpuThread).unwrap()
    } else {
        schedule_outer_dim(&mut ctx, &stmt, 2, ParallelUnit::CpuThread)
    };
    let plan = ctx.compile(&stmt, &sched).unwrap();
    let out = ctx.run(&plan).unwrap().output.into_vals();
    assert!(
        reference::approx_eq(&out, &expect, 1e-9),
        "SpMV result diverged from the oracle"
    );
    (out, ctx.trace().clone())
}

/// The leaf is looked up by the layout the driver is *stored* in — the
/// arrays the kernel reads — not by the format it was declared under: CSR
/// data registered under a COO format runs the CSR kernel, bit for bit the
/// CSR-declared run, and the dispatch event names the stored layout.
#[test]
fn a_driver_dispatches_on_its_stored_layout() {
    let (csr, _) = run_spmv(Format::blocked_csr(), false);
    let (out, trace) = run_spmv_stored(Format::blocked_coo(), SpTensor::clone, false);
    assert_eq!(counter(&trace, "kernel.specialized"), 1);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out), bits(&csr));
    let json = trace.chrome_trace().expect("trace enabled");
    assert!(
        json.contains(r#""signature":"{Dense,Compressed}""#),
        "the dispatch event carries the stored signature"
    );
}

#[test]
fn blessed_csr_spmv_dispatches_specialized() {
    let (_, trace) = run_spmv(Format::blocked_csr(), false);
    assert!(
        counter(&trace, "kernel.specialized") >= 1,
        "CSR SpMV should resolve to the specialized kernel"
    );
}

#[test]
fn blessed_formats_agree_with_csr_through_the_plan() {
    let (csr, _) = run_spmv(Format::blocked_csr(), false);
    for fmt in [Format::blocked_dcsr(), Format::blocked_coo()] {
        let sig = fmt.signature();
        let (out, trace) = run_spmv(fmt, false);
        assert!(
            counter(&trace, "kernel.specialized") >= 1,
            "{sig}: SpMV should resolve to the specialized kernel"
        );
        assert_eq!(out.len(), csr.len(), "{sig}: length");
        for (i, (a, b)) in out.iter().zip(&csr).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{sig}: value {i} differs from the CSR run ({a} vs {b})"
            );
        }
    }
}

#[test]
fn nonzero_schedule_still_dispatches_specialized() {
    let (_, trace) = run_spmv(Format::nonzero_csr(), true);
    assert!(
        counter(&trace, "kernel.specialized") >= 1,
        "non-zero-split CSR SpMV should still resolve (same storage levels)"
    );
}

/// A traced context holding SpTTV's operands over driver `b`, and the
/// statement.
fn spttv_ctx(b: &SpTensor, c: &[f64]) -> (Context, Assignment) {
    let mut ctx = traced_ctx();
    let fibers = spttv_output(b, vec![0.0; entry_counts(b)[1] as usize]);
    let fmt = Format::new(b.formats(), Format::blocked_csf3().dist);
    ctx.add_tensor("B", b.clone(), fmt).unwrap();
    ctx.add_tensor("A", fibers, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(c.to_vec()),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
    let stmt = assign("A", &[i, j], access("B", &[i, j, k]) * access("c", &[k]));
    (ctx, stmt)
}

/// Run SpTTV through the full plan path over driver `b` (outer-dim, two
/// colors), returning the output tensor and the context's trace.
fn run_spttv(b: &SpTensor, c: &[f64]) -> (SpTensor, Trace) {
    let (mut ctx, stmt) = spttv_ctx(b, c);
    let sched = schedule_outer_dim(&mut ctx, &stmt, 2, ParallelUnit::CpuThread);
    let result = ctx.compile_and_run(&stmt, &sched).unwrap();
    let OutputValue::Tensor(out) = result.output else {
        panic!("SpTTV output is a sparse tensor");
    };
    assert!(
        reference::tensors_approx_eq(&out, &reference::spttv(b, c), 1e-9),
        "SpTTV result diverged from the oracle"
    );
    (out, ctx.trace().clone())
}

#[test]
fn blessed_csf_spttv_dispatches_specialized() {
    let b = generate::tensor3_skewed([24, 18, 20], 900, 0.9, 53);
    let (_, trace) = run_spttv(&b, &generate::dense_vec(20, 54));
    assert_eq!(counter(&trace, "kernel.specialized"), 1);
}

/// The patents layout `{Dense,Dense,Compressed}` dispatches its blessed
/// kernel and answers the walker's own bits.
#[test]
fn ddc_spttv_dispatches_blessed_with_the_walkers_bits() {
    use LevelFormat::{Compressed, Dense};
    let b = generate::tensor3_uniform_fmt([6, 8, 32], 300, 53, &[Dense, Dense, Compressed]);
    let c = generate::dense_vec(32, 54);
    let (out, trace) = run_spttv(&b, &c);
    assert_eq!(counter(&trace, "kernel.specialized"), 1);
    let part = partition_tensor(&b, 0, universe_partition(&b, 0, &equal_coord_bounds(6, 2)));
    let mut walker = vec![0.0; entry_counts(&b)[1] as usize];
    for color in 0..2 {
        tensor3::spttv_color(&b, &part, color, None, &c, &OutVals::new(&mut walker));
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(out.vals()), bits(&walker));
}

/// A driver layout no kernel is blessed for is refused at compile, and
/// the refusal names the kernel, the stored layout and the blessed ones.
#[test]
fn unblessed_spttv_is_refused_at_compile() {
    use LevelFormat::{Compressed, Dense};
    let b = generate::tensor3_uniform_fmt([6, 8, 32], 300, 53, &[Compressed, Dense, Compressed]);
    let (mut ctx, stmt) = spttv_ctx(&b, &generate::dense_vec(32, 54));
    let sched = schedule_outer_dim(&mut ctx, &stmt, 2, ParallelUnit::CpuThread);
    let Err(Error::Unsupported(msg)) = ctx.compile(&stmt, &sched) else {
        panic!("SpTTV over {{Compressed,Dense,Compressed}} must be refused at compile");
    };
    let want = "leaf SpTtv: operand 'B' must be stored {Dense,Compressed,Compressed} or \
                {Compressed,Compressed,Compressed} or {Compressed,Singleton,Singleton} or \
                {Dense,Dense,Compressed}; it is stored {Compressed,Dense,Compressed}";
    assert!(msg.contains(want), "{msg}");
    assert_eq!(counter(ctx.trace(), "kernel.specialized"), 0);
}

/// A plan whose driver was re-registered since compile in a layout its
/// kernel is not blessed over is refused when it runs — the same typed
/// refusal, naming the plan — and dispatches nothing.
#[test]
fn a_driver_re_registered_unblessed_is_refused_at_run() {
    use LevelFormat::{Compressed, Dense};
    let b = generate::tensor3_uniform([6, 8, 32], 300, 53);
    let (mut ctx, stmt) = spttv_ctx(&b, &generate::dense_vec(32, 54));
    let sched = schedule_outer_dim(&mut ctx, &stmt, 2, ParallelUnit::CpuThread);
    let plan = ctx.compile(&stmt, &sched).unwrap();
    let cdc = convert::with_formats(&b, &[Compressed, Dense, Compressed]);
    ctx.replace_tensor_data("B", cdc).unwrap();
    let Err(Error::Unsupported(msg)) = ctx.run(&plan) else {
        panic!("a plan over a driver now stored {{Compressed,Dense,Compressed}} must be refused");
    };
    assert!(
        msg.starts_with("plan 'A<-B': leaf SpTtv: operand 'B' must be stored ")
            && msg.ends_with("; it is stored {Compressed,Dense,Compressed}"),
        "{msg}"
    );
    assert_eq!(counter(ctx.trace(), "kernel.specialized"), 0);
}

/// One program holding all six leaves over the layouts the evaluation uses
/// dispatches six blessed kernels and no walker.
#[test]
fn all_six_leaves_dispatch_blessed_kernels() {
    const W: usize = 4;
    let m = generate::rmat_clustered(7, 1200, 0.6, 71);
    let n = m.dims()[0];
    let t = generate::tensor3_skewed([16, 12, 10], 500, 1.1, 72);
    let dense = |rows: usize, cols: usize, seed: u64| {
        dense_matrix(rows, cols, generate::dense_buffer(rows, cols, seed))
    };
    let zeros = |rows: usize, cols: usize| dense_matrix(rows, cols, vec![0.0; rows * cols]);
    let a4 = spttv_output(&t, vec![0.0; entry_counts(&t)[1] as usize]);
    let trace = Trace::enabled();
    let mut p = Program::on(Machine::grid1d(2, MachineProfile::lassen_cpu()))
        .trace(trace.clone())
        .tensor("B", Format::blocked_csr(), m.clone())
        .tensor("Bz", Format::nonzero_csr(), m.clone())
        .tensor("B3", Format::blocked_csf3(), t.clone())
        .tensor("C", Format::blocked_csr(), generate::shift_last_dim(&m, 1))
        .tensor("D", Format::blocked_csr(), generate::shift_last_dim(&m, 2))
        .tensor(
            "x",
            Format::replicated_dense_vec(),
            dense_vector(generate::dense_vec(n, 73)),
        )
        .tensor("y", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
        .tensor("Cm", Format::replicated_dense_matrix(), dense(n, W, 74))
        .tensor("Ym", Format::blocked_dense_matrix(), zeros(n, W))
        .tensor("Cs", Format::staged_dense_matrix(), dense(n, W, 75))
        .tensor("Ds", Format::staged_dense_matrix(), dense(W, n, 76))
        .tensor("As", Format::blocked_csr(), m.clone())
        .tensor("C3", Format::replicated_dense_matrix(), dense(12, W, 77))
        .tensor("D3", Format::replicated_dense_matrix(), dense(10, W, 78))
        .tensor("A3", Format::blocked_dense_matrix(), zeros(16, W))
        .tensor(
            "c4",
            Format::replicated_dense_vec(),
            dense_vector(generate::dense_vec(10, 79)),
        )
        .tensor("A4", Format::blocked_csr(), a4)
        .tensor(
            "A5",
            Format::blocked_csr(),
            spdistal_repro::spdistal::plan::empty_csr(n, n),
        );
    for (tin, spec) in [
        ("y(i) = B(i,j) * x(j)", ScheduleSpec::outer_dim()),
        ("Ym(i,j) = B(i,k) * Cm(k,j)", ScheduleSpec::outer_dim()),
        (
            "As(i,j) = Bz(i,j) * Cs(i,k) * Ds(k,j)",
            ScheduleSpec::nonzero(),
        ),
        (
            "A3(i,l) = B3(i,j,k) * C3(j,l) * D3(k,l)",
            ScheduleSpec::outer_dim(),
        ),
        ("A4(i,j) = B3(i,j,k) * c4(k)", ScheduleSpec::outer_dim()),
        (
            "A5(i,j) = B(i,j) + C(i,j) + D(i,j)",
            ScheduleSpec::outer_dim(),
        ),
    ] {
        p = p.stmt(tin).schedule(spec);
    }
    let mut p = p.build().unwrap();
    p.run().unwrap();
    assert_eq!(counter(&trace, "kernel.specialized"), 6);
}

#[test]
fn dispatch_events_land_in_the_chrome_trace() {
    let (_, trace) = run_spmv(Format::blocked_csr(), false);
    let json = trace.chrome_trace().expect("trace enabled");
    assert!(
        json.contains("kernel-dispatch"),
        "chrome trace should carry the kernel-dispatch category"
    );
    assert!(
        json.contains("kernel-specialized"),
        "chrome trace should name the specialized dispatch instant"
    );
}
