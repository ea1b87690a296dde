//! The specialized-kernel bit-identity bar: for every blessed
//! `(kernel, format)` pair [`specialized::lookup`] resolves, the blessed
//! kernel must produce **bit-identical** output values and **exactly
//! equal** op counts to the generic partitioned walker — across driver
//! formats, partition kinds (outer-dim row blocks and mid-row non-zero
//! position splits), every `SplitPolicy`, and both uniform and skewed
//! (R-MAT / Zipf) inputs.
//!
//! The sweep drives the leaf functions directly, span by span, exactly as
//! `PreparedPlan::run_point` does — the crispest form of the contract,
//! with no plan-level machinery between the two implementations. Every
//! row-keyed pair runs through one shared row walker and every COO pair
//! through one shared run walker, so a degenerate-driver sweep (no
//! entries, no rows, no columns, more colors than rows, empty rows around
//! color boundaries, width-1 dense operands) covers all 12 pairs too.
//! Random pattern coverage rides on a proptest sweep at the bottom.

use proptest::prelude::*;

use spdistal_repro::sparse::{convert, generate, CooTensor, LevelFormat, SpTensor};
use spdistal_repro::spdistal::kernels::specialized::{self, SpecializedKernel};
use spdistal_repro::spdistal::kernels::split::color_weight;
use spdistal_repro::spdistal::kernels::{
    color_spans, matrix, tensor3, KernelSpan, LeafKernel, OutVals,
};
use spdistal_repro::spdistal::level_funcs::{
    equal_coord_bounds, nonzero_partition, partition_tensor, universe_partition, TensorPartition,
};
use spdistal_repro::spdistal::prelude::{ExecMode, SplitPolicy};

const POLICIES: [SplitPolicy; 3] = [
    SplitPolicy::Off,
    SplitPolicy::Spans(3),
    SplitPolicy::Spans(5),
];

type LeafRun<'a> =
    dyn Fn(&SpTensor, &TensorPartition, usize, Option<&KernelSpan>, &OutVals) -> f64 + 'a;

/// Both partition kinds real schedules produce for driver `t`: outer-dim
/// coordinate blocks on level 0 and an equal non-zero position split of
/// the leaf (the one that cuts mid-row, exercising the partial-row path).
fn both_partitions(t: &SpTensor) -> Vec<(&'static str, TensorPartition)> {
    let leaf = t.order() - 1;
    vec![
        (
            "outer-dim",
            partition_tensor(
                t,
                0,
                universe_partition(t, 0, &equal_coord_bounds(t.dims()[0], 4)),
            ),
        ),
        (
            "non-zero",
            partition_tensor(t, leaf, nonzero_partition(t, leaf, 3)),
        ),
    ]
}

/// Run generic and specialized span-by-span over every color of every
/// partition under every split policy, asserting bitwise-equal outputs
/// and exactly equal op counts.
fn assert_leaf_identical(
    t: &SpTensor,
    kernel: &LeafKernel,
    out_len: usize,
    generic: &LeafRun,
    special: &LeafRun,
    label: &str,
) {
    for (pname, part) in &both_partitions(t) {
        for policy in POLICIES {
            let colors = part.num_colors();
            let total: u64 = (0..colors).map(|c| color_weight(part, c)).sum();
            let mut g = vec![0.0; out_len];
            let mut s = vec![0.0; out_len];
            let (mut gops, mut sops) = (0.0, 0.0);
            let mut spans_seen = 0usize;
            for color in 0..colors {
                for span in color_spans(t, part, kernel, color, policy, ExecMode::Serial, total) {
                    gops += generic(t, part, color, span.as_ref(), &OutVals::new(&mut g));
                    sops += special(t, part, color, span.as_ref(), &OutVals::new(&mut s));
                    spans_seen += 1;
                }
            }
            assert!(spans_seen >= colors, "{label}: no spans ran");
            assert_eq!(
                gops.to_bits(),
                sops.to_bits(),
                "{label} [{pname}, {policy:?}]: op counts differ ({gops} vs {sops})"
            );
            for (i, (a, b)) in g.iter().zip(&s).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{label} [{pname}, {policy:?}]: value {i} differs ({a} vs {b})"
                );
            }
        }
    }
}

/// The three blessed matrix layouts of `base` (built in CSR).
fn matrix_formats(base: &SpTensor) -> Vec<(&'static str, SpTensor)> {
    vec![
        ("csr", convert::to_csr(base)),
        ("dcsr", convert::to_dcsr(base)),
        ("coo", convert::to_coo_format(base)),
    ]
}

/// Look up the blessed entry for `kernel` on `t` — it must exist and its
/// variant extractor must match, or the table itself regressed.
fn blessed(kernel: &LeafKernel, t: &SpTensor, label: &str) -> SpecializedKernel {
    let sig = specialized::storage_signature(t);
    specialized::lookup(kernel, &sig).unwrap_or_else(|| {
        panic!(
            "{label}: ({}, {sig}) not blessed",
            specialized::kernel_name(kernel)
        )
    })
}

fn matrix_inputs() -> Vec<(&'static str, SpTensor)> {
    vec![
        ("uniform", generate::uniform(48, 40, 320, 11)),
        ("rmat", generate::rmat_clustered(6, 520, 0.57, 12)),
        ("banded", generate::banded(40, 3, 13)),
    ]
}

#[test]
fn spmv_specialized_matches_walker_all_formats() {
    for (iname, base) in matrix_inputs() {
        let c = generate::dense_vec(base.dims()[1], 7);
        for (fname, t) in matrix_formats(&base) {
            let SpecializedKernel::SpMv(f) = blessed(&LeafKernel::SpMv, &t, fname) else {
                panic!("SpMv {fname}: wrong table variant");
            };
            assert_leaf_identical(
                &t,
                &LeafKernel::SpMv,
                t.dims()[0],
                &|t, p, col, sp, o| matrix::spmv_color(t, p, col, sp, &c, o),
                &|t, p, col, sp, o| f(t, p, col, sp, &c, o),
                &format!("SpMv {iname}/{fname}"),
            );
        }
    }
}

#[test]
fn spmm_specialized_matches_walker_all_formats() {
    let jdim = 6;
    for (iname, base) in matrix_inputs() {
        let c = generate::dense_vec(base.dims()[1] * jdim, 17);
        for (fname, t) in matrix_formats(&base) {
            let SpecializedKernel::SpMm(f) = blessed(&LeafKernel::SpMm { jdim }, &t, fname) else {
                panic!("SpMm {fname}: wrong table variant");
            };
            assert_leaf_identical(
                &t,
                &LeafKernel::SpMm { jdim },
                t.dims()[0] * jdim,
                &|t, p, col, sp, o| matrix::spmm_color(t, p, col, sp, &c, jdim, o),
                &|t, p, col, sp, o| f(t, p, col, sp, &c, jdim, o),
                &format!("SpMm {iname}/{fname}"),
            );
        }
    }
}

#[test]
fn sddmm_specialized_matches_walker_all_formats() {
    let kdim = 5;
    for (iname, base) in matrix_inputs() {
        let (rows, cols) = (base.dims()[0], base.dims()[1]);
        let c = generate::dense_vec(rows * kdim, 19);
        let d = generate::dense_vec(kdim * cols, 23);
        for (fname, t) in matrix_formats(&base) {
            let SpecializedKernel::Sddmm(f) = blessed(&LeafKernel::Sddmm { kdim }, &t, fname)
            else {
                panic!("Sddmm {fname}: wrong table variant");
            };
            assert_leaf_identical(
                &t,
                &LeafKernel::Sddmm { kdim },
                t.num_stored(),
                &|t, p, col, sp, o| matrix::sddmm_color(t, p, col, sp, &c, &d, kdim, cols, o),
                &|t, p, col, sp, o| f(t, p, col, sp, &c, &d, kdim, cols, o),
                &format!("Sddmm {iname}/{fname}"),
            );
        }
    }
}

#[test]
fn spmttkrp_specialized_matches_walker_all_formats() {
    let ldim = 5;
    let inputs = vec![
        ("uniform", generate::tensor3_uniform([20, 18, 16], 600, 31)),
        (
            "skewed",
            generate::tensor3_skewed([24, 16, 12], 700, 1.3, 37),
        ),
    ];
    for (iname, base) in inputs {
        let c = generate::dense_vec(base.dims()[1] * ldim, 41);
        let d = generate::dense_vec(base.dims()[2] * ldim, 43);
        let formats = vec![
            ("csf", base.clone()),
            (
                "dcsf",
                convert::with_formats(&base, &[LevelFormat::Compressed; 3]),
            ),
            ("coo3", convert::to_coo_format(&base)),
        ];
        for (fname, t) in formats {
            let SpecializedKernel::SpMttkrp(f) = blessed(&LeafKernel::SpMttkrp { ldim }, &t, fname)
            else {
                panic!("SpMttkrp {fname}: wrong table variant");
            };
            assert_leaf_identical(
                &t,
                &LeafKernel::SpMttkrp { ldim },
                t.dims()[0] * ldim,
                &|t, p, col, sp, o| tensor3::spmttkrp_color(t, p, col, sp, &c, &d, ldim, o),
                &|t, p, col, sp, o| f(t, p, col, sp, &c, &d, ldim, o),
                &format!("SpMttkrp {iname}/{fname}"),
            );
        }
    }
}

/// A driver of shape `dims` holding exactly `entries`, built in the
/// dense-top row-keyed layout (CSR / CSF).
fn driver(dims: &[usize], entries: &[&[i64]]) -> SpTensor {
    let mut coo = CooTensor::new(dims.to_vec());
    for (n, coords) in entries.iter().enumerate() {
        coo.push(coords, 0.5 + n as f64);
    }
    let mut formats = vec![LevelFormat::Compressed; dims.len()];
    formats[0] = LevelFormat::Dense;
    coo.build(&formats)
}

/// All three matrix kernels × all three blessed layouts of `base`, at the
/// given dense-operand widths.
fn assert_matrix_pairs_identical(label: &str, base: &SpTensor, jdim: usize, kdim: usize) {
    let (rows, cols) = (base.dims()[0], base.dims()[1]);
    let cv = generate::dense_vec(cols, 3);
    let cm = generate::dense_vec(cols * jdim, 5);
    let cs = generate::dense_vec(rows * kdim, 7);
    let ds = generate::dense_vec(kdim * cols, 9);
    for (fname, t) in matrix_formats(base) {
        let SpecializedKernel::SpMv(fv) = blessed(&LeafKernel::SpMv, &t, fname) else {
            panic!("SpMv {fname}: wrong table variant");
        };
        assert_leaf_identical(
            &t,
            &LeafKernel::SpMv,
            rows,
            &|t, p, col, sp, o| matrix::spmv_color(t, p, col, sp, &cv, o),
            &|t, p, col, sp, o| fv(t, p, col, sp, &cv, o),
            &format!("SpMv {label}/{fname}"),
        );
        let SpecializedKernel::SpMm(fm) = blessed(&LeafKernel::SpMm { jdim }, &t, fname) else {
            panic!("SpMm {fname}: wrong table variant");
        };
        assert_leaf_identical(
            &t,
            &LeafKernel::SpMm { jdim },
            rows * jdim,
            &|t, p, col, sp, o| matrix::spmm_color(t, p, col, sp, &cm, jdim, o),
            &|t, p, col, sp, o| fm(t, p, col, sp, &cm, jdim, o),
            &format!("SpMm {label}/{fname}"),
        );
        let SpecializedKernel::Sddmm(fs) = blessed(&LeafKernel::Sddmm { kdim }, &t, fname) else {
            panic!("Sddmm {fname}: wrong table variant");
        };
        assert_leaf_identical(
            &t,
            &LeafKernel::Sddmm { kdim },
            t.num_stored(),
            &|t, p, col, sp, o| matrix::sddmm_color(t, p, col, sp, &cs, &ds, kdim, cols, o),
            &|t, p, col, sp, o| fs(t, p, col, sp, &cs, &ds, kdim, cols, o),
            &format!("Sddmm {label}/{fname}"),
        );
    }
}

/// SpMTTKRP × all three blessed order-3 layouts of `base`.
fn assert_tensor3_pairs_identical(label: &str, base: &SpTensor, ldim: usize) {
    let c = generate::dense_vec(base.dims()[1] * ldim, 41);
    let d = generate::dense_vec(base.dims()[2] * ldim, 43);
    let formats = vec![
        ("csf", base.clone()),
        (
            "dcsf",
            convert::with_formats(base, &[LevelFormat::Compressed; 3]),
        ),
        ("coo3", convert::to_coo_format(base)),
    ];
    for (fname, t) in formats {
        let SpecializedKernel::SpMttkrp(f) = blessed(&LeafKernel::SpMttkrp { ldim }, &t, fname)
        else {
            panic!("SpMttkrp {fname}: wrong table variant");
        };
        assert_leaf_identical(
            &t,
            &LeafKernel::SpMttkrp { ldim },
            t.dims()[0] * ldim,
            &|t, p, col, sp, o| tensor3::spmttkrp_color(t, p, col, sp, &c, &d, ldim, o),
            &|t, p, col, sp, o| f(t, p, col, sp, &c, &d, ldim, o),
            &format!("SpMttkrp {label}/{fname}"),
        );
    }
}

/// Degenerate drivers through all 12 pairs (× both partition kinds × every
/// split policy, via `assert_leaf_identical`). `both_partitions` cuts
/// level 0 into 4 coordinate blocks and the leaf into 3 position blocks,
/// so "more colors than rows" needs fewer than 3 rows and entries, and the
/// 8-row drivers put empty rows on both sides of the 1|2 and 3|4 block
/// boundaries and on one side of 5|6.
#[test]
fn degenerate_drivers_match_walker_all_pairs() {
    let matrices = [
        ("no-entries", driver(&[6, 5], &[])),
        ("no-rows", driver(&[0, 5], &[])),
        ("no-cols", driver(&[6, 0], &[])),
        ("colors>rows", driver(&[2, 5], &[&[0, 3], &[1, 1]])),
        ("one-entry", driver(&[1, 1], &[&[0, 0]])),
        (
            "empty-rows-at-boundaries",
            driver(
                &[8, 6],
                &[&[0, 1], &[0, 4], &[5, 0], &[5, 2], &[5, 5], &[7, 3]],
            ),
        ),
    ];
    for (name, base) in &matrices {
        for width in [1, 3] {
            assert_matrix_pairs_identical(&format!("{name}/w{width}"), base, width, width);
        }
    }
    let tensors = [
        ("no-entries", driver(&[6, 4, 3], &[])),
        ("no-slices", driver(&[0, 4, 3], &[])),
        ("no-fibers", driver(&[6, 0, 3], &[])),
        ("no-leaves", driver(&[6, 4, 0], &[])),
        (
            "colors>slices",
            driver(&[2, 4, 3], &[&[0, 1, 2], &[1, 3, 0]]),
        ),
        (
            "empty-slices-at-boundaries",
            driver(
                &[8, 4, 3],
                &[
                    &[0, 1, 0],
                    &[0, 1, 2],
                    &[0, 3, 1],
                    &[5, 0, 0],
                    &[5, 2, 1],
                    &[7, 3, 2],
                ],
            ),
        ),
    ];
    for (name, base) in &tensors {
        for width in [1, 3] {
            assert_tensor3_pairs_identical(&format!("{name}/w{width}"), base, width);
        }
    }
    // Width-1 dense operands over ordinary inputs.
    assert_matrix_pairs_identical("uniform/w1", &generate::uniform(48, 40, 320, 11), 1, 1);
    assert_tensor3_pairs_identical(
        "uniform/w1",
        &generate::tensor3_uniform([20, 18, 16], 600, 31),
        1,
    );
}

/// Strategy: an arbitrary small sparse matrix in CSR (mirrors
/// `tests/properties.rs`).
fn arb_matrix() -> impl Strategy<Value = SpTensor> {
    (2usize..32, 2usize..32, 0usize..100).prop_flat_map(|(rows, cols, n)| {
        proptest::collection::vec(
            (0..rows as i64, 0..cols as i64, -5.0f64..5.0),
            n.min(rows * cols),
        )
        .prop_map(move |triplets| {
            let mut coo = CooTensor::new(vec![rows, cols]);
            for (i, j, v) in triplets {
                coo.push(&[i, j], if v == 0.0 { 1.0 } else { v });
            }
            coo.build(&[LevelFormat::Dense, LevelFormat::Compressed])
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random-pattern sweep of all three matrix kernels across all three
    /// blessed layouts: specialized output stays bit-identical to the
    /// walker for arbitrary sparsity patterns, including empty matrices,
    /// empty rows, and single-entry rows.
    #[test]
    fn specialized_matches_walker_on_random_matrices(base in arb_matrix()) {
        let (rows, cols) = (base.dims()[0], base.dims()[1]);
        let jdim = 4;
        let kdim = 3;
        let cv = generate::dense_vec(cols, 3);
        let cm = generate::dense_vec(cols * jdim, 5);
        let cs = generate::dense_vec(rows * kdim, 7);
        let ds = generate::dense_vec(kdim * cols, 9);
        for (fname, t) in matrix_formats(&base) {
            let SpecializedKernel::SpMv(fv) = blessed(&LeafKernel::SpMv, &t, fname) else {
                panic!("SpMv {fname}: wrong table variant");
            };
            assert_leaf_identical(
                &t, &LeafKernel::SpMv, rows,
                &|t, p, col, sp, o| matrix::spmv_color(t, p, col, sp, &cv, o),
                &|t, p, col, sp, o| fv(t, p, col, sp, &cv, o),
                &format!("SpMv random/{fname}"),
            );
            let SpecializedKernel::SpMm(fm) = blessed(&LeafKernel::SpMm { jdim }, &t, fname) else {
                panic!("SpMm {fname}: wrong table variant");
            };
            assert_leaf_identical(
                &t, &LeafKernel::SpMm { jdim }, rows * jdim,
                &|t, p, col, sp, o| matrix::spmm_color(t, p, col, sp, &cm, jdim, o),
                &|t, p, col, sp, o| fm(t, p, col, sp, &cm, jdim, o),
                &format!("SpMm random/{fname}"),
            );
            let SpecializedKernel::Sddmm(fs) = blessed(&LeafKernel::Sddmm { kdim }, &t, fname) else {
                panic!("Sddmm {fname}: wrong table variant");
            };
            assert_leaf_identical(
                &t, &LeafKernel::Sddmm { kdim }, t.num_stored(),
                &|t, p, col, sp, o| matrix::sddmm_color(t, p, col, sp, &cs, &ds, kdim, cols, o),
                &|t, p, col, sp, o| fs(t, p, col, sp, &cs, &ds, kdim, cols, o),
                &format!("Sddmm random/{fname}"),
            );
        }
    }
}
