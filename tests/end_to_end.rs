//! Cross-crate integration tests: full pipeline (formats + TDN + schedule →
//! compile → simulated distributed execution) for every evaluation kernel,
//! checked against the serial oracles at several machine sizes.

use spdistal_repro::ir::Assignment;
use spdistal_repro::sparse::{
    dense_matrix, dense_vector, generate, reference, CooTensor, LevelFormat, SpTensor,
};
use spdistal_repro::spdistal::prelude::*;

const NODE_COUNTS: [usize; 3] = [1, 3, 8];
const WIDTH: usize = 8;

fn cpu_ctx(nodes: usize) -> Context {
    Context::new(Machine::grid1d(nodes, MachineProfile::lassen_cpu()))
}

#[test]
fn spmv_row_based_all_node_counts() {
    let b = generate::rmat_default(9, 6000, 1);
    let n = b.dims()[0];
    let c = generate::dense_vec(n, 2);
    let expect = reference::spmv(&b, &c);
    for nodes in NODE_COUNTS {
        let mut ctx = cpu_ctx(nodes);
        ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
            .unwrap();
        ctx.add_tensor("B", b.clone(), Format::blocked_csr())
            .unwrap();
        ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec())
            .unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
        let sched = schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread);
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        assert!(
            reference::approx_eq(r.output.as_tensor().unwrap().vals(), &expect, 1e-12),
            "nodes={nodes}"
        );
    }
}

#[test]
fn spmv_nonzero_all_node_counts() {
    let b = generate::rmat_default(9, 6000, 3);
    let n = b.dims()[0];
    let c = generate::dense_vec(n, 4);
    let expect = reference::spmv(&b, &c);
    for nodes in NODE_COUNTS {
        let mut ctx = cpu_ctx(nodes);
        ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
            .unwrap();
        ctx.add_tensor("B", b.clone(), Format::nonzero_csr())
            .unwrap();
        ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec())
            .unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
        let sched =
            schedule_nonzero(&mut ctx, &stmt, "B", 2, nodes, ParallelUnit::CpuThread).unwrap();
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        assert!(
            reference::approx_eq(r.output.as_tensor().unwrap().vals(), &expect, 1e-12),
            "nodes={nodes}"
        );
    }
}

#[test]
fn spmm_matches_reference() {
    let b = generate::uniform(300, 250, 4000, 5);
    let c = generate::dense_buffer(250, WIDTH, 6);
    let expect = reference::spmm(&b, &c, WIDTH);
    for nodes in NODE_COUNTS {
        let mut ctx = cpu_ctx(nodes);
        ctx.add_tensor(
            "A",
            dense_matrix(300, WIDTH, vec![0.0; 300 * WIDTH]),
            Format::blocked_dense_matrix(),
        )
        .unwrap();
        ctx.add_tensor("B", b.clone(), Format::blocked_csr())
            .unwrap();
        ctx.add_tensor(
            "C",
            dense_matrix(250, WIDTH, c.clone()),
            Format::replicated_dense_matrix(),
        )
        .unwrap();
        let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
        let stmt = assign("A", &[i, j], access("B", &[i, k]) * access("C", &[k, j]));
        let sched = schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread);
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        assert!(
            reference::approx_eq(r.output.as_tensor().unwrap().vals(), &expect, 1e-12),
            "nodes={nodes}"
        );
    }
}

#[test]
fn spadd3_assembles_union_pattern() {
    let b = generate::uniform(200, 180, 2500, 7);
    let c = generate::shift_last_dim(&b, 3);
    let d = generate::shift_last_dim(&b, 11);
    let expect = reference::spadd3(&b, &c, &d);
    for nodes in NODE_COUNTS {
        let mut ctx = cpu_ctx(nodes);
        for (name, t) in [("B", &b), ("C", &c), ("D", &d)] {
            ctx.add_tensor(name, t.clone(), Format::blocked_csr())
                .unwrap();
        }
        ctx.add_tensor(
            "A",
            spdistal_repro::spdistal::plan::empty_csr(200, 180),
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
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        assert!(
            reference::tensors_approx_eq(r.output.as_tensor().unwrap(), &expect, 1e-12),
            "nodes={nodes}"
        );
        // Two launches: symbolic + numeric assembly (Section V-B).
        assert_eq!(r.records.len(), 2, "nodes={nodes}");
        assert!(r.records[0].name.ends_with(":symbolic"));
        assert!(r.records[1].name.ends_with(":numeric"));
    }
}

#[test]
fn sddmm_nonzero_schedule() {
    let b = generate::rmat_default(8, 2500, 9);
    let (n, m) = (b.dims()[0], b.dims()[1]);
    let c = generate::dense_buffer(n, WIDTH, 10);
    let d = generate::dense_buffer(WIDTH, m, 11);
    let expect = reference::sddmm(&b, &c, &d, WIDTH);
    for nodes in NODE_COUNTS {
        let mut ctx = cpu_ctx(nodes);
        ctx.add_tensor("A", b.clone(), Format::blocked_csr())
            .unwrap();
        ctx.add_tensor("B", b.clone(), Format::nonzero_csr())
            .unwrap();
        ctx.add_tensor(
            "C",
            dense_matrix(n, WIDTH, c.clone()),
            Format::staged_dense_matrix(),
        )
        .unwrap();
        ctx.add_tensor(
            "D",
            dense_matrix(WIDTH, m, d.clone()),
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
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        assert!(
            reference::approx_eq(r.output.as_tensor().unwrap().vals(), expect.vals(), 1e-12),
            "nodes={nodes}"
        );
    }
}

#[test]
fn spttv_both_schedules() {
    let b = generate::tensor3_skewed([60, 40, 50], 5000, 0.9, 13);
    let c = generate::dense_vec(50, 14);
    let expect = spdistal_repro::sparse::convert::to_dense(&reference::spttv(&b, &c));
    for (nonzero, nodes) in [(false, 4), (true, 4), (false, 8), (true, 8)] {
        let mut ctx = cpu_ctx(nodes);
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
        ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec())
            .unwrap();
        let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
        let stmt = assign("A", &[i, j], access("B", &[i, j, k]) * access("c", &[k]));
        let sched = if nonzero {
            schedule_nonzero(&mut ctx, &stmt, "B", 3, nodes, ParallelUnit::CpuThread).unwrap()
        } else {
            schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread)
        };
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        let got = spdistal_repro::sparse::convert::to_dense(r.output.as_tensor().unwrap());
        assert!(
            reference::approx_eq(&got, &expect, 1e-12),
            "nonzero={nonzero} nodes={nodes}"
        );
    }
}

#[test]
fn spmttkrp_matches_reference() {
    let b = generate::tensor3_uniform([50, 45, 55], 4000, 17);
    let c = generate::dense_buffer(45, WIDTH, 18);
    let d = generate::dense_buffer(55, WIDTH, 19);
    let expect = reference::spmttkrp(&b, &c, &d, WIDTH);
    for nodes in NODE_COUNTS {
        let mut ctx = cpu_ctx(nodes);
        ctx.add_tensor("B", b.clone(), Format::blocked_csf3())
            .unwrap();
        ctx.add_tensor(
            "A",
            dense_matrix(50, WIDTH, vec![0.0; 50 * WIDTH]),
            Format::blocked_dense_matrix(),
        )
        .unwrap();
        ctx.add_tensor(
            "C",
            dense_matrix(45, WIDTH, c.clone()),
            Format::replicated_dense_matrix(),
        )
        .unwrap();
        ctx.add_tensor(
            "D",
            dense_matrix(55, WIDTH, d.clone()),
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
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        assert!(
            reference::approx_eq(r.output.as_tensor().unwrap().vals(), &expect, 1e-12),
            "nodes={nodes}"
        );
    }
}

/// COO ({Compressed, Singleton}) matrices work through the whole pipeline:
/// a non-zero (position-space) distribution over the COO entries.
#[test]
fn coo_format_spmv_nonzero_distribution() {
    use spdistal_repro::ir::Distribution;
    use spdistal_repro::sparse::LevelFormat;
    let csr = generate::rmat_default(8, 3000, 29);
    let b = spdistal_repro::sparse::convert::to_coo_format(&csr);
    let n = b.dims()[0];
    let c = generate::dense_vec(n, 30);
    let expect = reference::spmv(&csr, &c);
    for nodes in [1usize, 4, 6] {
        let mut ctx = cpu_ctx(nodes);
        ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
            .unwrap();
        // COO with a fused non-zero distribution: B xy (xy->f) -> ~f M.
        ctx.add_tensor(
            "B",
            b.clone(),
            Format::new(
                vec![LevelFormat::Compressed, LevelFormat::Singleton],
                Distribution::new("xy", "~f")
                    .unwrap()
                    .with_fusion("xy", 'f'),
            ),
        )
        .unwrap();
        ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec())
            .unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
        let sched =
            schedule_nonzero(&mut ctx, &stmt, "B", 2, nodes, ParallelUnit::CpuThread).unwrap();
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        assert!(
            reference::approx_eq(r.output.as_tensor().unwrap().vals(), &expect, 1e-12),
            "nodes={nodes}"
        );
    }
}

#[test]
fn dds_patents_layout_end_to_end() {
    use spdistal_repro::sparse::LevelFormat;
    let b = generate::tensor3_uniform_fmt(
        [8, 16, 200],
        3000,
        23,
        &[
            LevelFormat::Dense,
            LevelFormat::Dense,
            LevelFormat::Compressed,
        ],
    );
    let c = generate::dense_buffer(16, WIDTH, 24);
    let d = generate::dense_buffer(200, WIDTH, 25);
    let expect = reference::spmttkrp(&b, &c, &d, WIDTH);
    let mut ctx = cpu_ctx(4);
    // {Dense, Dense, Compressed} with slice distribution.
    ctx.add_tensor(
        "B",
        b.clone(),
        Format::new(
            vec![
                LevelFormat::Dense,
                LevelFormat::Dense,
                LevelFormat::Compressed,
            ],
            spdistal_repro::ir::Distribution::new("xyz", "x").unwrap(),
        ),
    )
    .unwrap();
    ctx.add_tensor(
        "A",
        dense_matrix(8, WIDTH, vec![0.0; 8 * WIDTH]),
        Format::blocked_dense_matrix(),
    )
    .unwrap();
    ctx.add_tensor(
        "C",
        dense_matrix(16, WIDTH, c.clone()),
        Format::replicated_dense_matrix(),
    )
    .unwrap();
    ctx.add_tensor(
        "D",
        dense_matrix(200, WIDTH, d.clone()),
        Format::replicated_dense_matrix(),
    )
    .unwrap();
    let [i, l, j, k] = ctx.fresh_vars(["i", "l", "j", "k"]);
    let stmt = assign(
        "A",
        &[i, l],
        access("B", &[i, j, k]) * access("C", &[j, l]) * access("D", &[k, l]),
    );
    let sched = schedule_outer_dim(&mut ctx, &stmt, 4, ParallelUnit::CpuThread);
    let r = ctx.compile_and_run(&stmt, &sched).unwrap();
    assert!(reference::approx_eq(
        r.output.as_tensor().unwrap().vals(),
        &expect,
        1e-12
    ));
}

/// Run a program whose answer is a `rows`×0 dense matrix through every
/// write-back it can take — a first run, a cached run and an incremental
/// merge — and check the answer and the registration after each.
fn zero_width_answers(mut p: CompiledProgram, rows: usize) {
    for pass in ["run", "cached run", "run_incremental"] {
        match pass {
            "run_incremental" => p.run_incremental(),
            _ => p.run(),
        }
        .unwrap_or_else(|e| panic!("{pass}: {e}"));
        let got = p.value(0).unwrap().as_tensor().unwrap();
        assert_eq!(got.dims(), [rows, 0], "{pass}");
        assert!(got.vals().is_empty(), "{pass}");
        assert_eq!(p.context().tensor("A").unwrap().data, *got, "{pass}");
    }
}

/// A zero-width dense operand (a 0-column `C`, a rank-0 factorization)
/// answers an n×0 matrix, for 16 rows on 4 pieces and 0 rows on 2: the
/// write-back takes the rows from the registered output, not from the
/// empty buffer.
#[test]
fn a_zero_width_dense_operand_answers_an_empty_matrix() {
    let csr = [LevelFormat::Dense, LevelFormat::Compressed];
    let csf = [
        LevelFormat::Dense,
        LevelFormat::Compressed,
        LevelFormat::Compressed,
    ];
    let machine = |pieces| Machine::grid1d(pieces, MachineProfile::lassen_cpu());
    let empty = |dims: Vec<usize>, fmt: &[LevelFormat]| CooTensor::new(dims).build(fmt);
    for (rows, pieces) in [(16, 4), (0, 2)] {
        let b = match rows {
            0 => empty(vec![0, 8], &csr),
            _ => generate::uniform(rows, 8, 40, 3),
        };
        let spmm = Program::on(machine(pieces))
            .tensor(
                "A",
                Format::blocked_dense_matrix(),
                dense_matrix(rows, 0, vec![]),
            )
            .tensor("B", Format::blocked_csr(), b)
            .tensor(
                "C",
                Format::replicated_dense_matrix(),
                dense_matrix(8, 0, vec![]),
            )
            .stmt("A(i,j) = B(i,k) * C(k,j)")
            .schedule(ScheduleSpec::outer_dim())
            .build()
            .unwrap();
        zero_width_answers(spmm, rows);

        let b = match rows {
            0 => empty(vec![0, 5, 6], &csf),
            _ => generate::tensor3_uniform([rows, 5, 6], 60, 4),
        };
        let spmttkrp = Program::on(machine(pieces))
            .tensor(
                "A",
                Format::blocked_dense_matrix(),
                dense_matrix(rows, 0, vec![]),
            )
            .tensor("B", Format::blocked_csf3(), b)
            .tensor(
                "C",
                Format::replicated_dense_matrix(),
                dense_matrix(5, 0, vec![]),
            )
            .tensor(
                "D",
                Format::replicated_dense_matrix(),
                dense_matrix(6, 0, vec![]),
            )
            .stmt("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)")
            .schedule(ScheduleSpec::outer_dim())
            .build()
            .unwrap();
        zero_width_answers(spmttkrp, rows);
    }
}

/// SpAdd3's sum registered on four colors: `A = B + C + D`.
fn spadd3_ctx(b: &SpTensor, c: &SpTensor, d: &SpTensor) -> (Context, Assignment) {
    let mut ctx = cpu_ctx(4);
    for (name, t) in [("B", b), ("C", c), ("D", d)] {
        ctx.add_tensor(name, t.clone(), Format::blocked_csr())
            .unwrap();
    }
    let (rows, cols) = (b.dims()[0], b.dims()[1]);
    ctx.add_tensor(
        "A",
        spdistal_repro::spdistal::plan::empty_csr(rows, cols),
        Format::blocked_csr(),
    )
    .unwrap();
    let [i, j] = ctx.fresh_vars(["i", "j"]);
    let stmt = assign(
        "A",
        &[i, j],
        access("B", &[i, j]) + access("C", &[i, j]) + access("D", &[i, j]),
    );
    (ctx, stmt)
}

/// A non-zero split of B's positions cuts rows between colors and gives
/// the rows B does not store to no color: SpAdd3 would assemble the first
/// twice and drop C's and D's entries in the second, so it does not
/// compile, and the error names SpAdd3 and the split.
#[test]
fn spadd3_under_a_nonzero_split_is_refused() {
    let cut = generate::rmat_default(9, 6000, 1);
    // Rows 40–63 of B are empty; C stores one entry in every row.
    let mut top = CooTensor::new(vec![64, 64]);
    generate::uniform(40, 64, 400, 2).for_each(|coord, v| top.push(coord, v));
    let mut every_row = CooTensor::new(vec![64, 64]);
    for i in 0..64 {
        every_row.push(&[i, (7 * i) % 64], 1.0 + i as f64);
    }
    let csr = [LevelFormat::Dense, LevelFormat::Compressed];
    let empty_rows = (top.build(&csr), every_row.build(&csr));
    for (b, c) in [(cut.clone(), cut), empty_rows] {
        let d = generate::shift_last_dim(&b, 5);
        let (mut ctx, stmt) = spadd3_ctx(&b, &c, &d);
        let sched = schedule_nonzero(&mut ctx, &stmt, "B", 2, 4, ParallelUnit::CpuThread).unwrap();
        match ctx.compile(&stmt, &sched) {
            Err(Error::Unsupported(msg)) => {
                assert!(msg.contains("SpAdd3"), "{msg}");
                assert!(msg.contains("split"), "{msg}");
            }
            other => panic!("SpAdd3 under a non-zero split must be refused: {other:?}"),
        }
    }
}

/// `ScheduleSpec::Auto` on a clustered input moves most statements to the
/// non-zero split; SpAdd3 stays on outer-dim, says why, and matches the
/// reference.
#[test]
fn auto_keeps_spadd3_on_outer_dim() {
    let b = generate::rmat_clustered(9, 6000, 0.95, 7);
    let c = generate::shift_last_dim(&b, 3);
    let d = generate::shift_last_dim(&b, 11);
    let expect = reference::spadd3(&b, &c, &d);
    let (rows, cols) = (b.dims()[0], b.dims()[1]);
    let mut p = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu()))
        .tensor("B", Format::blocked_csr(), b)
        .tensor("C", Format::blocked_csr(), c)
        .tensor("D", Format::blocked_csr(), d)
        .tensor(
            "A",
            Format::blocked_csr(),
            spdistal_repro::spdistal::plan::empty_csr(rows, cols),
        )
        .stmt("A(i,j) = B(i,j) + C(i,j) + D(i,j)")
        .auto()
        .build()
        .unwrap();
    p.run_iters(2).unwrap();
    let report = p.report();
    assert_eq!(report.stmts[0].schedule_kind, "outer-dim");
    let first = report.decisions_for(0).next().expect("a static decision");
    assert_eq!(first.choice, "outer-dim");
    assert!(first.reason.contains("SpAdd3"), "{}", first.reason);
    assert!(report.decisions_for(0).all(|d| d.choice == "outer-dim"));
    let got = p.value(0).unwrap().as_tensor().unwrap();
    assert!(reference::tensors_approx_eq(got, &expect, 1e-12));
}
