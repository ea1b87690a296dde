//! Plan-level dispatch regression tests for the specialized kernel table:
//! blessed (kernel, stored layout) pairs must dispatch a monomorphized
//! kernel (counting `kernel.specialized`), and unblessed pairs must fall
//! back to the generic partitioned walker — running correctly and counting
//! `kernel.fallback`, with no panic and no silent wrong dispatch.

use spdistal_repro::sparse::{convert, dense_vector, generate, reference, SpTensor};
use spdistal_repro::spdistal::kernels::tensor3::spttv_output;
use spdistal_repro::spdistal::level_funcs::entry_counts;
use spdistal_repro::spdistal::prelude::*;
use spdistal_repro::spdistal::{access, assign, schedule_nonzero, schedule_outer_dim};

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
    assert_eq!(counter(&trace, "kernel.fallback"), 0);
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
    assert_eq!(
        counter(&trace, "kernel.fallback"),
        0,
        "CSR SpMV should not fall back"
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

#[test]
fn unblessed_spttv_falls_back_to_walker() {
    let mut ctx = traced_ctx();
    let b = generate::tensor3_skewed([24, 18, 20], 900, 0.9, 53);
    let c = generate::dense_vec(20, 54);
    let expect = reference::spttv(&b, &c);
    let fibers = spttv_output(&b, vec![0.0; entry_counts(&b)[1] as usize]);
    ctx.add_tensor("B", b, Format::blocked_csf3()).unwrap();
    ctx.add_tensor("A", fibers, Format::blocked_csr()).unwrap();
    ctx.add_tensor("c", dense_vector(c), Format::replicated_dense_vec())
        .unwrap();
    let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
    let stmt = assign("A", &[i, j], access("B", &[i, j, k]) * access("c", &[k]));
    let sched = schedule_outer_dim(&mut ctx, &stmt, 2, ParallelUnit::CpuThread);
    let result = ctx.compile_and_run(&stmt, &sched).unwrap();
    let OutputValue::Tensor(out) = result.output else {
        panic!("SpTTV output is a sparse tensor");
    };
    assert!(
        reference::tensors_approx_eq(&out, &expect, 1e-9),
        "fallback SpTTV result diverged from the oracle"
    );
    let trace = ctx.trace();
    assert!(
        counter(trace, "kernel.fallback") >= 1,
        "SpTtv has no blessed entry and must count a fallback"
    );
    assert_eq!(
        counter(trace, "kernel.specialized"),
        0,
        "SpTtv must not claim a specialized dispatch"
    );
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
