//! The parallel executor contract: for every evaluation kernel and both
//! schedule families, `ExecMode::Parallel(n)` produces **bit-identical**
//! `OutputValue`s to `ExecMode::Serial` — conflicting point tasks are
//! serialized in color order by the dependence graph, reductions combine
//! in color order, and disjoint writers touch disjoint elements.
//!
//! The same contract covers **intra-color splitting**: chunking a color's
//! leaf kernel into spans (`SplitPolicy`) must be invisible in the output
//! and in simulated time, under Serial and Parallel execution alike —
//! spans write disjoint output elements and per-color op counts are exact
//! span sums.

use spdistal_repro::sparse::{dense_matrix, dense_vector, generate};
use spdistal_repro::spdistal::prelude::*;
use spdistal_repro::spdistal::{access, assign, schedule_nonzero, schedule_outer_dim};

const WIDTH: usize = 8;

fn assert_bit_identical(kernel: &str, serial: &OutputValue, parallel: &OutputValue) {
    let (a, b) = match (serial, parallel) {
        (OutputValue::Tensor(x), OutputValue::Tensor(y)) => {
            assert_eq!(x.dims(), y.dims(), "{kernel}: dims");
            assert_eq!(x.levels(), y.levels(), "{kernel}: structure");
            (x.vals(), y.vals())
        }
        (OutputValue::Dense(x), OutputValue::Dense(y)) => (&x[..], &y[..]),
        _ => panic!("{kernel}: output kinds differ between modes"),
    };
    assert_eq!(a.len(), b.len(), "{kernel}: value count");
    for (i, (u, v)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            u.to_bits(),
            v.to_bits(),
            "{kernel}: value {i} differs ({u} vs {v})"
        );
    }
}

/// Build a fresh context, run one kernel under `mode` and `split`, return
/// the result. (`SplitPolicy::Auto` is the context default: parallel runs
/// split their dominant colors on their own.)
fn run_kernel(kernel: &str, mode: ExecMode, nodes: usize, split: SplitPolicy) -> ExecResult {
    let mut ctx = Context::new(Machine::grid1d(nodes, MachineProfile::lassen_cpu()))
        .with_exec_mode(mode)
        .with_split_policy(split);
    let (stmt, sched) = match kernel {
        "spmv_row" | "spmv_nonzero" => {
            let b = generate::rmat_default(8, 3000, 21);
            let n = b.dims()[0];
            let nonzero = kernel == "spmv_nonzero";
            let fmt = if nonzero {
                Format::nonzero_csr()
            } else {
                Format::blocked_csr()
            };
            ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
                .unwrap();
            ctx.add_tensor("B", b, fmt).unwrap();
            ctx.add_tensor(
                "c",
                dense_vector(generate::dense_vec(n, 22)),
                Format::replicated_dense_vec(),
            )
            .unwrap();
            let [i, j] = ctx.fresh_vars(["i", "j"]);
            let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
            let sched = if nonzero {
                schedule_nonzero(&mut ctx, &stmt, "B", 2, nodes, ParallelUnit::CpuThread).unwrap()
            } else {
                schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread)
            };
            (stmt, sched)
        }
        "spmm" => {
            let b = generate::uniform(200, 160, 2500, 23);
            ctx.add_tensor(
                "A",
                dense_matrix(200, WIDTH, vec![0.0; 200 * WIDTH]),
                Format::blocked_dense_matrix(),
            )
            .unwrap();
            ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
            ctx.add_tensor(
                "C",
                dense_matrix(160, WIDTH, generate::dense_buffer(160, WIDTH, 24)),
                Format::replicated_dense_matrix(),
            )
            .unwrap();
            let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
            let stmt = assign("A", &[i, j], access("B", &[i, k]) * access("C", &[k, j]));
            let sched = schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread);
            (stmt, sched)
        }
        "spadd3" => {
            let b = generate::uniform(150, 140, 1800, 25);
            let c = generate::shift_last_dim(&b, 3);
            let d = generate::shift_last_dim(&b, 7);
            for (name, t) in [("B", &b), ("C", &c), ("D", &d)] {
                ctx.add_tensor(name, t.clone(), Format::blocked_csr())
                    .unwrap();
            }
            ctx.add_tensor(
                "A",
                spdistal_repro::spdistal::plan::empty_csr(150, 140),
                Format::blocked_csr(),
            )
            .unwrap();
            let [i, j] = ctx.fresh_vars(["i", "j"]);
            let stmt = assign(
                "A",
                &[i, j],
                access("B", &[i, j]) + access("C", &[i, j]) + access("D", &[i, j]),
            );
            let sched = schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread);
            (stmt, sched)
        }
        "sddmm" => {
            let b = generate::rmat_default(7, 1500, 27);
            let (n, m) = (b.dims()[0], b.dims()[1]);
            ctx.add_tensor("A", b.clone(), Format::blocked_csr())
                .unwrap();
            ctx.add_tensor("B", b, Format::nonzero_csr()).unwrap();
            ctx.add_tensor(
                "C",
                dense_matrix(n, WIDTH, generate::dense_buffer(n, WIDTH, 28)),
                Format::staged_dense_matrix(),
            )
            .unwrap();
            ctx.add_tensor(
                "D",
                dense_matrix(WIDTH, m, generate::dense_buffer(WIDTH, m, 29)),
                Format::staged_dense_matrix(),
            )
            .unwrap();
            let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
            let stmt = assign(
                "A",
                &[i, j],
                access("B", &[i, j]) * access("C", &[i, k]) * access("D", &[k, j]),
            );
            let sched =
                schedule_nonzero(&mut ctx, &stmt, "B", 2, nodes, ParallelUnit::CpuThread).unwrap();
            (stmt, sched)
        }
        "spttv_row" | "spttv_nonzero" => {
            let b = generate::tensor3_skewed([40, 30, 35], 2500, 0.9, 31);
            let nonzero = kernel == "spttv_nonzero";
            let fmt = if nonzero {
                Format::nonzero_csf3()
            } else {
                Format::blocked_csf3()
            };
            ctx.add_tensor("B", b.clone(), fmt).unwrap();
            let fibers = spdistal_repro::spdistal::kernels::tensor3::spttv_output(
                &b,
                vec![0.0; spdistal_repro::spdistal::level_funcs::entry_counts(&b)[1] as usize],
            );
            ctx.add_tensor("A", fibers, Format::blocked_csr()).unwrap();
            ctx.add_tensor(
                "c",
                dense_vector(generate::dense_vec(35, 32)),
                Format::replicated_dense_vec(),
            )
            .unwrap();
            let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
            let stmt = assign("A", &[i, j], access("B", &[i, j, k]) * access("c", &[k]));
            let sched = if nonzero {
                schedule_nonzero(&mut ctx, &stmt, "B", 3, nodes, ParallelUnit::CpuThread).unwrap()
            } else {
                schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread)
            };
            (stmt, sched)
        }
        "spmttkrp" => {
            let b = generate::tensor3_uniform([40, 35, 45], 2200, 33);
            ctx.add_tensor("B", b, Format::blocked_csf3()).unwrap();
            ctx.add_tensor(
                "A",
                dense_matrix(40, WIDTH, vec![0.0; 40 * WIDTH]),
                Format::blocked_dense_matrix(),
            )
            .unwrap();
            ctx.add_tensor(
                "C",
                dense_matrix(35, WIDTH, generate::dense_buffer(35, WIDTH, 34)),
                Format::replicated_dense_matrix(),
            )
            .unwrap();
            ctx.add_tensor(
                "D",
                dense_matrix(45, WIDTH, generate::dense_buffer(45, WIDTH, 35)),
                Format::replicated_dense_matrix(),
            )
            .unwrap();
            let [i, l, j, k] = ctx.fresh_vars(["i", "l", "j", "k"]);
            let stmt = assign(
                "A",
                &[i, l],
                access("B", &[i, j, k]) * access("C", &[j, l]) * access("D", &[k, l]),
            );
            let sched = schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread);
            (stmt, sched)
        }
        other => panic!("unknown kernel {other}"),
    };
    ctx.compile_and_run(&stmt, &sched).unwrap()
}

const KERNELS: [&str; 8] = [
    "spmv_row",
    "spmv_nonzero",
    "spmm",
    "spadd3",
    "sddmm",
    "spttv_row",
    "spttv_nonzero",
    "spmttkrp",
];

#[test]
fn parallel_is_bit_identical_to_serial_on_every_kernel() {
    for kernel in KERNELS {
        let serial = run_kernel(kernel, ExecMode::Serial, 6, SplitPolicy::Auto);
        for threads in [2usize, 4, 8] {
            // Auto is the default: parallel runs split on their own.
            let parallel = run_kernel(kernel, ExecMode::Parallel(threads), 6, SplitPolicy::Auto);
            assert_bit_identical(kernel, &serial.output, &parallel.output);
            // Simulated time is the cost model and must not depend on the
            // real executor at all.
            assert_eq!(
                serial.time, parallel.time,
                "{kernel}: simulated time must not depend on ExecMode"
            );
        }
    }
}

/// Splitting a color's leaf kernel into spans is invisible: forcing spans
/// (`SplitPolicy::Spans`) under Serial and Parallel execution reproduces
/// the unsplit serial output bit-for-bit, and simulated time stays put.
#[test]
fn split_is_bit_identical_to_unsplit_on_every_kernel() {
    for kernel in KERNELS {
        let reference = run_kernel(kernel, ExecMode::Serial, 6, SplitPolicy::Off);
        for (mode, split) in [
            (ExecMode::Serial, SplitPolicy::Spans(3)),
            (ExecMode::Parallel(2), SplitPolicy::Spans(5)),
            (ExecMode::Parallel(4), SplitPolicy::Spans(3)),
        ] {
            let split_run = run_kernel(kernel, mode, 6, split);
            assert_bit_identical(kernel, &reference.output, &split_run.output);
            assert_eq!(
                reference.time, split_run.time,
                "{kernel}: simulated time must not depend on splitting"
            );
            assert!(
                split_run.sched.spans > split_run.sched.tasks,
                "{kernel}: forcing spans must actually split some color \
                 ({} spans over {} tasks)",
                split_run.sched.spans,
                split_run.sched.tasks
            );
        }
    }
}

#[test]
fn executor_report_reflects_launch_shape() {
    let nodes = 6;
    let serial = run_kernel("spmm", ExecMode::Serial, nodes, SplitPolicy::Auto);
    assert_eq!(serial.sched.tasks, nodes);
    assert_eq!(serial.sched.threads, 1);
    assert_eq!(serial.sched.steals, 0);
    // Serial + Auto never splits: one span per color.
    assert_eq!(serial.sched.spans, nodes);
    assert_eq!(serial.sched.split_tasks, 0);
    assert!(serial.wall_time > 0.0);
    assert!(serial.sched.critical_task_seconds > 0.0);
    assert!(serial.sched.critical_task_seconds <= serial.sched.busy_seconds);

    let parallel = run_kernel("spmm", ExecMode::Parallel(3), nodes, SplitPolicy::Auto);
    assert_eq!(parallel.sched.tasks, nodes);
    assert_eq!(parallel.sched.threads, 3);
    assert!(parallel.wall_time > 0.0);
    // Row-blocked SpMM point tasks are independent: no dependence edges.
    assert_eq!(parallel.sched.edges, 0);
    assert_eq!(parallel.sched.critical_path, 1);
    // Auto under parallel splits colors into spans the pool can steal.
    assert!(parallel.sched.spans >= parallel.sched.tasks);
}
