//! Integration tests for the communication model and failure behavior:
//! matched data/computation distributions move no sparse data, mismatched
//! ones pay for reshaping (Section II-D), and memory capacity surfaces as
//! OOM rather than wrong answers.

use spdistal_repro::ir::Expr;
use spdistal_repro::runtime::{Machine, MachineProfile, RuntimeError};
use spdistal_repro::sparse::{convert, dense_vector, generate, reference, SpTensor};
use spdistal_repro::spdistal::plan::empty_csr;
use spdistal_repro::spdistal::prelude::*;
use spdistal_repro::spdistal::{access, assign, schedule_nonzero, schedule_outer_dim};

fn spmv_stmt(ctx: &mut Context) -> spdistal_repro::ir::Assignment {
    let [i, j] = ctx.fresh_vars(["i", "j"]);
    assign("a", &[i], access("B", &[i, j]) * access("c", &[j]))
}

/// Row-based schedule over row-distributed data: after the initial
/// distribution, the kernel moves no B non-zeros at all.
#[test]
fn matched_distribution_moves_no_sparse_data() {
    let b = generate::banded(5000, 7, 1);
    let n = b.dims()[0];
    let mut ctx = Context::new(Machine::grid1d(8, MachineProfile::lassen_cpu()));
    ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(n, 2)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let stmt = spmv_stmt(&mut ctx);
    let sched = schedule_outer_dim(&mut ctx, &stmt, 8, ParallelUnit::CpuThread);
    let r = ctx.compile_and_run(&stmt, &sched).unwrap();
    assert_eq!(r.comm_bytes, 0, "matched distribution should be comm-free");
}

/// The same row-based schedule over *non-zero-distributed* data is valid
/// but pays to reshape the data (the performance-cost case the paper calls
/// out explicitly in Section II-D).
#[test]
fn mismatched_distribution_pays_communication() {
    let b = generate::rmat_default(9, 8000, 2);
    let n = b.dims()[0];
    let mut ctx = Context::new(Machine::grid1d(8, MachineProfile::lassen_cpu()));
    ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    // Data distributed by non-zeros, computation distributed by rows.
    ctx.add_tensor("B", b, Format::nonzero_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(n, 3)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let stmt = spmv_stmt(&mut ctx);
    let sched = schedule_outer_dim(&mut ctx, &stmt, 8, ParallelUnit::CpuThread);
    let r = ctx.compile_and_run(&stmt, &sched).unwrap();
    assert!(
        r.comm_bytes > 0,
        "mismatched distributions must reshape data"
    );
}

/// Pre-staging establishes the data distribution *matched to the
/// computation* (Section II-D): every sub-region a color reads — the `crd`
/// of a singleton level as much as `pos`/`crd` of a compressed one — is in
/// its processor's memory before the timed region, so the first run
/// fetches nothing of `B`. What is left to pay is the reduction of the
/// output rows two colors share.
#[test]
fn prestage_leaves_nothing_of_the_driver_to_fetch() {
    const PIECES: usize = 4;
    let csr = generate::rmat_default(7, 900, 3);
    let n = csr.dims()[0];
    let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
    ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    // Data distributed by rows, computation distributed by non-zeros.
    ctx.add_tensor("B", convert::to_coo_format(&csr), Format::blocked_coo())
        .unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(n, 4)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let stmt = spmv_stmt(&mut ctx);
    let sched = schedule_nonzero(&mut ctx, &stmt, "B", 2, PIECES, ParallelUnit::CpuThread).unwrap();
    let plan = ctx.compile(&stmt, &sched).unwrap();
    ctx.prestage(&plan).unwrap();
    for input in &plan.inputs {
        let regions = &ctx.tensor(&input.tensor).unwrap().regions;
        for color in 0..PIECES {
            // A 1-d machine: color `c` runs on processor `c`.
            for (region, subset) in regions.footprint(&input.part, color) {
                assert!(
                    ctx.runtime().valid_in(region, color).contains_set(subset),
                    "{}: color {color} would fetch {subset:?} of '{}'",
                    input.tensor,
                    ctx.runtime().region(region).name,
                );
            }
        }
    }
    let r = ctx.run(&plan).unwrap();
    // At most one boundary row per neighbouring pair of colors, 8 bytes each.
    assert!(
        r.comm_bytes <= 8 * (PIECES as u64 - 1),
        "a pre-staged run moved {} bytes",
        r.comm_bytes
    );
}

/// Non-zero schedules on skewed inputs produce balanced work; row-based
/// schedules don't. Imbalance shows up directly in simulated time.
#[test]
fn nonzero_schedule_beats_rows_on_skew() {
    // A matrix with one huge row.
    let mut triplets: Vec<(i64, i64, f64)> = (0..4000).map(|j| (0i64, j as i64, 1.0)).collect();
    for i in 1..4000i64 {
        triplets.push((i, i, 1.0));
    }
    let b = spdistal_repro::sparse::csr_from_triplets(4000, 4000, &triplets);
    let c = generate::dense_vec(4000, 4);
    let mut times = Vec::new();
    for nonzero in [false, true] {
        // Scale fixed overheads down with the small test problem so the
        // work imbalance (not task launch latency) dominates.
        let profile = MachineProfile::lassen_cpu().time_scaled(1e-3);
        let mut ctx = Context::new(Machine::grid1d(8, profile));
        let fmt = if nonzero {
            Format::nonzero_csr()
        } else {
            Format::blocked_csr()
        };
        ctx.add_tensor(
            "a",
            dense_vector(vec![0.0; 4000]),
            Format::blocked_dense_vec(),
        )
        .unwrap();
        ctx.add_tensor("B", b.clone(), fmt).unwrap();
        ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec())
            .unwrap();
        let stmt = spmv_stmt(&mut ctx);
        let sched = if nonzero {
            schedule_nonzero(&mut ctx, &stmt, "B", 2, 8, ParallelUnit::CpuThread).unwrap()
        } else {
            schedule_outer_dim(&mut ctx, &stmt, 8, ParallelUnit::CpuThread)
        };
        times.push(ctx.compile_and_run(&stmt, &sched).unwrap().time);
    }
    assert!(
        times[1] < times[0],
        "nonzero {} should beat row {}",
        times[1],
        times[0]
    );
}

/// GPU memory capacity turns into an OOM error, not silent wrong answers.
#[test]
fn gpu_oom_is_an_error() {
    let b = generate::uniform(2000, 2000, 40_000, 5);
    let tiny = MachineProfile::lassen_gpu(1e-8); // ~160 bytes of HBM
    let mut ctx = Context::new(Machine::grid1d(4, tiny));
    let err = ctx
        .add_tensor("B", b, Format::blocked_csr())
        .expect_err("must OOM");
    match err {
        spdistal_repro::spdistal::Error::Runtime(RuntimeError::Oom { .. }) => {}
        other => panic!("expected OOM, got {other}"),
    }
}

/// A run that fails keeps no copy of its output: after an out-of-memory
/// write-back, every processor holds exactly what it held before the run,
/// so the next run is not charged for the failed one's launches.
#[test]
fn a_failed_run_leaves_no_output_copies_behind() {
    let (n, procs) = (64, 4);
    let b = generate::uniform(n, n, 400, 1);
    let program = |capacity: u64| {
        let profile = MachineProfile::test_profile_with_capacity(capacity);
        let c = dense_vector(generate::dense_vec(n, 2));
        Program::on(Machine::grid1d(procs, profile))
            .tensor("B", Format::blocked_csr(), b.clone())
            .tensor("c", Format::replicated_dense_vec(), c)
            .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
            .stmt("a(i) = B(i,j) * c(j)")
            .schedule(ScheduleSpec::outer_dim())
            .build()
            .unwrap()
    };
    let resident = |p: &CompiledProgram| -> Vec<u64> {
        let runtime = p.context().runtime();
        (0..procs).map(|q| runtime.resident_bytes(q)).collect()
    };
    // Room for the registrations and the launch's copy of `a`'s rows, but
    // not for a second registration of `a` beside them: the matched launch
    // moves nothing else, so the first run fails in its write-back.
    let registered = resident(&program(u64::MAX));
    let rows = (n / procs * 8) as u64;
    let mut p = program(registered.iter().max().unwrap() + rows);
    let before = resident(&p);
    assert_eq!(before, registered);
    match p.run().map(drop) {
        Err(spdistal_repro::spdistal::Error::Runtime(RuntimeError::Oom { .. })) => {}
        other => panic!("expected OOM, got {other:?}"),
    }
    assert_eq!(resident(&p), before, "resident bytes after the failed run");
}

/// Invalid schedules are rejected at compile time with typed errors.
#[test]
fn bad_schedules_rejected() {
    let b = generate::uniform(100, 100, 500, 6);
    let mut ctx = Context::new(Machine::grid1d(4, MachineProfile::lassen_cpu()));
    ctx.add_tensor(
        "a",
        dense_vector(vec![0.0; 100]),
        Format::blocked_dense_vec(),
    )
    .unwrap();
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(100, 7)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let stmt = spmv_stmt(&mut ctx);

    // No distributed loop at all.
    let empty = Schedule::new();
    assert!(ctx.compile(&stmt, &empty).is_err());

    // Divide pieces disagree with the machine extent.
    let mut wrong = Schedule::new();
    let i = stmt.lhs.indices[0];
    let (io, _ii) = wrong.divide(ctx.vars_mut(), i, 3); // machine has 4
    wrong.distribute(io, 0);
    assert!(ctx.compile(&stmt, &wrong).is_err());

    // Communicate at a non-distributed loop.
    let mut sched = Schedule::new();
    sched.communicate(&["B"], i);
    assert!(ctx.compile(&stmt, &sched).is_err());
}

/// A statement no leaf computes is refused at compile with a typed error
/// naming it — it is never run as some other statement — and the plan
/// cache it was refused under still serves the healthy programs after it.
#[test]
fn statements_no_leaf_computes_are_refused_at_compile() {
    let cache = PlanCache::shared();
    let on =
        || Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu())).plan_cache(cache.clone());
    let refused = |p: Program, stmt: &str, why: &str| match p.build().unwrap().run() {
        Err(Error::Unsupported(msg)) => {
            assert!(msg.contains(stmt) && msg.contains(why), "{msg}");
        }
        other => panic!("'{stmt}' must be refused, got {:?}", other.map(|_| ())),
    };

    // A constant factor is not dropped: text and builder front-ends alike.
    let b = generate::uniform(50, 40, 300, 8);
    let c = generate::dense_vec(40, 3);
    let spmv = |c: &[f64]| {
        on().tensor(
            "a",
            Format::blocked_dense_vec(),
            dense_vector(vec![0.0; 50]),
        )
        .tensor("B", Format::blocked_csr(), b.clone())
        .tensor(
            "c",
            Format::replicated_dense_vec(),
            dense_vector(c.to_vec()),
        )
    };
    let scaled = "a(iv0) = 2 * B(iv0,iv1) * c(iv1)";
    refused(
        spmv(&c).stmt("a(i) = 2 * B(i,j) * c(j)"),
        scaled,
        "constant factor 2",
    );
    let built = spmv(&c).stmt_with(|vars| {
        let [i, j] = vars.fresh_n(["i", "j"]);
        assign(
            "a",
            &[i],
            Expr::Const(2.0) * access("B", &[i, j]) * access("c", &[j]),
        )
    });
    refused(built, scaled, "constant factor 2");
    // A vector the leaf would index past its end (a worker panic before).
    refused(
        spmv(&c[..7]).stmt("a(i) = B(i,j) * c(j)"),
        "a(iv0) = B(iv0,iv1) * c(iv1)",
        "extent 40 and, in c(iv1), 7",
    );
    let mut healthy = spmv(&c).stmt("a(i) = B(i,j) * c(j)").build().unwrap();
    healthy.run().unwrap();
    let got = healthy.value(0).unwrap().as_tensor().unwrap();
    assert_eq!(got.vals(), reference::spmv(&b, &c));

    // SpAdd3 reads its operands' level-1 `pos` by row: CSR or nothing. DCSR
    // with empty rows used to add the wrong rows, COO used to panic.
    let b = generate::uniform(50, 40, 30, 8);
    let (c, d) = (
        generate::shift_last_dim(&b, 3),
        generate::shift_last_dim(&b, 7),
    );
    let spadd3 = |fmt: Format, store: fn(&SpTensor) -> SpTensor| {
        on().tensor("A", Format::blocked_csr(), empty_csr(50, 40))
            .tensor("B", fmt.clone(), store(&b))
            .tensor("C", fmt.clone(), store(&c))
            .tensor("D", fmt, store(&d))
            .stmt("A(i,j) = B(i,j) + C(i,j) + D(i,j)")
    };
    let sum = "A(iv0,iv1) = B(iv0,iv1) + C(iv0,iv1) + D(iv0,iv1)";
    refused(
        spadd3(Format::blocked_dcsr(), convert::to_dcsr),
        sum,
        "operand 'B' must be stored {Dense,Compressed}; it is stored {Compressed,Compressed}",
    );
    refused(
        spadd3(Format::blocked_coo(), convert::to_coo_format),
        sum,
        "operand 'B' must be stored {Dense,Compressed}; it is stored {Compressed,Singleton}",
    );
    let mut csr = spadd3(Format::blocked_csr(), SpTensor::clone)
        .build()
        .unwrap();
    csr.run().unwrap();
    let got = csr.value(0).unwrap().as_tensor().unwrap();
    assert!(reference::tensors_approx_eq(
        got,
        &reference::spadd3(&b, &c, &d),
        1e-12
    ));
}

/// The deferred-execution model never synchronizes processors without a
/// data dependence: per-processor clocks differ after imbalanced work.
#[test]
fn deferred_execution_decouples_processors() {
    let mut triplets: Vec<(i64, i64, f64)> = (0..2000).map(|j| (0i64, j, 1.0)).collect();
    triplets.push((1500, 0, 1.0));
    let b = spdistal_repro::sparse::csr_from_triplets(2000, 2000, &triplets);
    let mut ctx = Context::new(Machine::grid1d(4, MachineProfile::lassen_cpu()));
    ctx.add_tensor(
        "a",
        dense_vector(vec![0.0; 2000]),
        Format::blocked_dense_vec(),
    )
    .unwrap();
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(2000, 8)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let stmt = spmv_stmt(&mut ctx);
    let sched = schedule_outer_dim(&mut ctx, &stmt, 4, ParallelUnit::CpuThread);
    ctx.compile_and_run(&stmt, &sched).unwrap();
    let clocks: Vec<f64> = (0..4).map(|p| ctx.runtime().proc_clock(p)).collect();
    assert!(
        clocks[0] > clocks[2],
        "proc 0 (dense row) should lag: {clocks:?}"
    );
}
