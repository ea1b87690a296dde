//! Property-based tests (proptest) over the core invariants:
//!
//! * format round-trips preserve sparse tensors exactly;
//! * the Table I partition derivations cover every stored entry exactly
//!   once at the leaf level for disjoint initial partitions;
//! * image/preimage adjointness on tensor pos/crd pairs;
//! * the compiled distributed SpMV equals the serial oracle for arbitrary
//!   sparse matrices, schedules (row/non-zero) and machine sizes;
//! * the compiled distributed SpAdd3 equals the serial oracle likewise.

use proptest::prelude::*;

use spdistal_repro::ir;
use spdistal_repro::runtime::{image_rects, preimage_rects, Partition};
use spdistal_repro::sparse::{
    convert, dense_vector, reference, CooTensor, Level, LevelFormat, SpTensor,
};
use spdistal_repro::spdistal::level_funcs::{
    equal_coord_bounds, nonzero_partition, partition_tensor, universe_partition,
};
use spdistal_repro::spdistal::prelude::*;
use spdistal_repro::spdistal::{access, assign, schedule_nonzero, schedule_outer_dim};

/// Strategy: an arbitrary small sparse matrix in CSR.
fn arb_matrix() -> impl Strategy<Value = SpTensor> {
    (2usize..40, 2usize..40, 0usize..120).prop_flat_map(|(rows, cols, n)| {
        proptest::collection::vec(
            (0..rows as i64, 0..cols as i64, -5.0f64..5.0),
            n.min(rows * cols),
        )
        .prop_map(move |triplets| {
            let mut coo = CooTensor::new(vec![rows, cols]);
            for (i, j, v) in triplets {
                // Avoid exact-zero stored values for pattern stability.
                coo.push(&[i, j], if v == 0.0 { 1.0 } else { v });
            }
            coo.build(&[LevelFormat::Dense, LevelFormat::Compressed])
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn format_roundtrips_preserve_tensor(m in arb_matrix()) {
        let csc = convert::to_csc(&m);
        prop_assert_eq!(&convert::to_csc(&csc), &m);
        let dcsr = convert::to_dcsr(&m);
        prop_assert_eq!(dcsr.to_coo(), m.to_coo());
        let back = convert::to_csr(&convert::with_formats(
            &m,
            &[LevelFormat::Compressed, LevelFormat::Compressed],
        ));
        prop_assert_eq!(&back, &m);
    }

    #[test]
    fn partitions_cover_leaves_exactly_once(
        m in arb_matrix(),
        colors in 1usize..7,
        nonzero in proptest::bool::ANY,
    ) {
        let init = if nonzero {
            nonzero_partition(&m, 1, colors)
        } else {
            universe_partition(&m, 0, &equal_coord_bounds(m.dims()[0], colors))
        };
        let level = if nonzero { 1 } else { 0 };
        let tp = partition_tensor(&m, level, init);
        // Leaf (vals) partition is disjoint & complete for both initial
        // partitions: each stored value is computed exactly once.
        prop_assert!(tp.vals().is_disjoint());
        prop_assert!(tp.vals().is_complete());
        // The crd level is complete; the row level must cover every row
        // that has stored children (empty rows need no color under a
        // non-zero partition).
        prop_assert!(tp.entries[1].is_complete());
        let Level::Compressed { pos, .. } = m.level(1) else { unreachable!() };
        let mut row_union = spdistal_repro::runtime::IntervalSet::new();
        for c in 0..colors {
            row_union = row_union.union(tp.entries[0].subset(c));
        }
        for (row, r) in pos.iter().enumerate() {
            if !r.is_empty() {
                prop_assert!(row_union.contains(row as i64), "row {row} uncovered");
            }
        }
    }

    #[test]
    fn image_preimage_adjoint(m in arb_matrix(), colors in 1usize..6) {
        let Level::Compressed { pos, crd } = m.level(1) else { unreachable!() };
        let p = Partition::equal(pos.len() as u64, colors);
        let img = image_rects(pos, &p, crd.len() as u64);
        let back = preimage_rects(pos, &img);
        for c in 0..colors {
            // Adjointness: rows with children keep their color.
            for i in p.subset(c).iter_points() {
                if !pos[i as usize].is_empty() {
                    prop_assert!(back.subset(c).contains(i));
                }
            }
        }
    }

    #[test]
    fn distributed_spmv_equals_oracle(
        m in arb_matrix(),
        nodes in 1usize..6,
        nonzero in proptest::bool::ANY,
    ) {
        prop_assume!(m.nnz() > 0);
        let n = m.dims()[0];
        let cols = m.dims()[1];
        let c: Vec<f64> = (0..cols).map(|k| (k as f64 * 0.37).sin() + 1.5).collect();
        let expect = reference::spmv(&m, &c);

        let mut ctx = Context::new(Machine::grid1d(nodes, MachineProfile::test_profile()));
        let fmt = if nonzero { Format::nonzero_csr() } else { Format::blocked_csr() };
        ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec()).unwrap();
        ctx.add_tensor("B", m.clone(), fmt).unwrap();
        ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec()).unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
        let sched = if nonzero {
            schedule_nonzero(&mut ctx, &stmt, "B", 2, nodes, ParallelUnit::CpuThread).unwrap()
        } else {
            schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread)
        };
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        prop_assert!(reference::approx_eq(
            r.output.as_tensor().unwrap().vals(), &expect, 1e-10));
    }

    #[test]
    fn spadd3_distributed_equals_oracle(m in arb_matrix(), nodes in 1usize..5) {
        prop_assume!(m.nnz() > 0);
        let c = spdistal_repro::sparse::generate::shift_last_dim(&m, 1);
        let d = spdistal_repro::sparse::generate::shift_last_dim(&m, 2);
        let expect = reference::spadd3(&m, &c, &d);
        let (rows, cols) = (m.dims()[0], m.dims()[1]);
        let mut ctx = Context::new(Machine::grid1d(nodes, MachineProfile::test_profile()));
        for (name, t) in [("B", &m), ("C", &c), ("D", &d)] {
            ctx.add_tensor(name, t.clone(), Format::blocked_csr()).unwrap();
        }
        ctx.add_tensor("A", spdistal_repro::spdistal::plan::empty_csr(rows, cols),
            Format::blocked_csr()).unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("A", &[i, j],
            access("B", &[i, j]) + access("C", &[i, j]) + access("D", &[i, j]));
        let sched = schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread);
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        prop_assert!(reference::tensors_approx_eq(
            r.output.as_tensor().unwrap(), &expect, 1e-10));
    }

    #[test]
    fn tdn_parse_resolve_never_panics(
        dims in "[a-e]{1,3}",
        machine in "~?[a-g]",
    ) {
        let input = format!("T {dims} -> {machine} M");
        if let Ok(stmt) = ir::tdn::parse(&input) {
            let _ = stmt.dist.resolve(dims.len());
        }
    }
}
