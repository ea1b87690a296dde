//! The specialized-kernel bit-identity bar: for every blessed
//! `(kernel, format)` pair [`specialized::lookup`] resolves, the blessed
//! kernel must produce **bit-identical** output values and **exactly
//! equal** op counts to its oracle — the generic partitioned walker, and
//! for SpAdd3 the per-row merge it replaced (kept below) — across driver
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
//! color boundaries, width-1 dense operands) covers all 18 pairs too.
//! Random pattern coverage rides on proptest sweeps at the bottom.
//!
//! The row walker decides once per row whether a task owns the row whole
//! (a straight slice loop) or the clamp cuts it (a per-piece search). The
//! striped partitions below interleave the two inside one run of the level
//! above, so every row-keyed body meets owned rows before, between and
//! after cut ones.

use proptest::prelude::*;

use spdistal_repro::runtime::{IntervalSet, Partition, Rect1};
use spdistal_repro::sparse::{convert, generate, CooTensor, Level, LevelFormat, SpTensor};
use spdistal_repro::spdistal::kernels::specialized::{self, SpecializedKernel};
use spdistal_repro::spdistal::kernels::split::color_weight;
use spdistal_repro::spdistal::kernels::{
    color_spans, matrix, tensor3, KernelSpan, LeafKernel, OutVals,
};
use spdistal_repro::spdistal::level_funcs::{
    entry_counts, equal_coord_bounds, nonzero_partition, partition_from_parent, partition_tensor,
    universe_partition, LevelClamps, TensorPartition,
};
use spdistal_repro::spdistal::prelude::*;

const POLICIES: [SplitPolicy; 3] = [
    SplitPolicy::Off,
    SplitPolicy::Spans(3),
    SplitPolicy::Spans(5),
];

type LeafRun<'a> =
    dyn Fn(&SpTensor, &TensorPartition, usize, Option<&KernelSpan>, &OutVals) -> f64 + 'a;

/// Both partition kinds real schedules produce for driver `t`: outer-dim
/// coordinate blocks on level 0 and an equal non-zero position split of
/// the leaf (the one that cuts mid-row, exercising the partial-row path) —
/// and for an order-3 driver the split of level 1 too (the fused `(i,j)`
/// split the auto-scheduler's default depth makes). Then a
/// [`striped_partition`] of every level below the top.
fn both_partitions(t: &SpTensor) -> Vec<(&'static str, TensorPartition)> {
    let leaf = t.order() - 1;
    let mut parts = vec![
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
    ];
    if t.order() == 3 {
        let split = partition_tensor(t, 1, nonzero_partition(t, 1, 3));
        parts.push(("non-zero-fibers", split));
        parts.push(("striped-fibers", striped_partition(t, 1)));
    }
    parts.push(("striped-leaf", striped_partition(t, leaf)));
    parts
}

/// Two colors striped over the entries of `level` in fifths: color 0 holds
/// the first, third and fifth, color 1 the second and fourth. Both colors
/// see every entry of the levels above, and the levels below follow
/// `level`. So each color's clamp at `level` is two or three disjoint runs
/// inside one run of the level above: a row the task owns whole can sit
/// before, between and after rows a stripe boundary cuts, and rows wholly
/// inside the other color's stripe are in the task's level-0 clamp but
/// not in its clamp at `level`.
fn striped_partition(t: &SpTensor, level: usize) -> TensorPartition {
    let counts = entry_counts(t);
    let n = counts[level] as i64;
    let cut = |k: i64| n * k / 5;
    let stripe = |ks: &[i64]| {
        IntervalSet::from_rects(
            ks.iter()
                .map(|&k| Rect1::new(cut(k), cut(k + 1) - 1))
                .collect(),
        )
    };
    let mut entries: Vec<Partition> = counts[..level]
        .iter()
        .map(|&len| {
            let whole = IntervalSet::from_rect(Rect1::new(0, len as i64 - 1));
            Partition::new(len, vec![whole.clone(), whole])
        })
        .collect();
    entries.push(Partition::new(
        n as u64,
        vec![stripe(&[0, 2, 4]), stripe(&[1, 3])],
    ));
    for below in level + 1..t.order() {
        entries.push(partition_from_parent(t, below, &entries[below - 1]));
    }
    TensorPartition { entries }
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
        for (fname, t) in tensor3_formats(&base) {
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

/// The four blessed order-3 layouts of `base` (built in CSF).
fn tensor3_formats(base: &SpTensor) -> Vec<(&'static str, SpTensor)> {
    use LevelFormat::{Compressed, Dense};
    vec![
        ("csf", base.clone()),
        ("dcsf", convert::with_formats(base, &[Compressed; 3])),
        ("coo3", convert::to_coo_format(base)),
        (
            "ddc",
            convert::with_formats(base, &[Dense, Dense, Compressed]),
        ),
    ]
}

/// SpTTV's blessed kernel on `t` against the walker: one output slot per
/// level-1 fiber.
fn assert_spttv_identical(label: &str, t: &SpTensor, c: &[f64]) {
    let SpecializedKernel::SpTtv(f) = blessed(&LeafKernel::SpTtv, t, label) else {
        panic!("SpTtv {label}: wrong table variant");
    };
    assert_leaf_identical(
        t,
        &LeafKernel::SpTtv,
        entry_counts(t)[1] as usize,
        &|t, p, col, sp, o| tensor3::spttv_color(t, p, col, sp, c, o),
        &|t, p, col, sp, o| f(t, p, col, sp, c, o),
        &format!("SpTtv {label}"),
    );
}

#[test]
fn spttv_specialized_matches_walker_all_formats() {
    // One long fiber the 3-color leaf split cuts twice mid-fiber, next to
    // a short fiber one color owns whole.
    let mut long_fiber: Vec<Vec<i64>> = (0..9).map(|k| vec![1, 2, k]).collect();
    long_fiber.insert(0, vec![0, 0, 4]);
    let long_fiber: Vec<&[i64]> = long_fiber.iter().map(Vec::as_slice).collect();
    let inputs = vec![
        ("uniform", generate::tensor3_uniform([20, 18, 16], 600, 31)),
        (
            "skewed",
            generate::tensor3_skewed([24, 16, 12], 700, 1.3, 37),
        ),
        ("cut-mid-fiber", driver(&[2, 3, 9], &long_fiber)),
    ];
    for (iname, base) in inputs {
        let c = generate::dense_vec(base.dims()[2], 47);
        for (fname, t) in tensor3_formats(&base) {
            assert_spttv_identical(&format!("{iname}/{fname}"), &t, &c);
        }
    }
}

/// SpAdd3's oracle: the per-row merge and the row-sorting assembly the
/// blessed merge replaced, kept verbatim but for names.
mod spadd3_oracle {
    use super::*;

    /// One assembled output row.
    pub struct AddRow {
        pub row: usize,
        pub cols: Vec<i64>,
        pub vals: Vec<f64>,
    }

    /// One `(color, span)` task: its assembled rows plus `(symbolic_ops,
    /// numeric_ops)`.
    pub fn spadd3_color(
        b: &SpTensor,
        c: &SpTensor,
        d: &SpTensor,
        row_part: &TensorPartition,
        color: usize,
        span: Option<&KernelSpan>,
    ) -> (Vec<AddRow>, f64, f64) {
        let rows_subset = LevelClamps::new(row_part, color, span).level(0);
        let mut out = Vec::new();
        let mut sym_ops = 0u64;
        let mut num_ops = 0u64;
        for row in rows_subset.iter_points() {
            let segs: Vec<(&[i64], &[f64])> = [b, c, d]
                .iter()
                .map(|t| row_segment(t, row as usize))
                .collect();
            sym_ops += segs.iter().map(|(cr, _)| cr.len() as u64).sum::<u64>();
            let merged = merge3(&segs);
            num_ops += merged.0.len() as u64;
            if !merged.0.is_empty() {
                out.push(AddRow {
                    row: row as usize,
                    cols: merged.0,
                    vals: merged.1,
                });
            }
        }
        (out, sym_ops as f64, num_ops as f64)
    }

    fn row_segment(t: &SpTensor, row: usize) -> (&[i64], &[f64]) {
        match t.level(1) {
            Level::Compressed { pos, crd } => {
                let r: Rect1 = pos[row];
                if r.is_empty() {
                    (&[], &[])
                } else {
                    (
                        &crd[r.lo as usize..=r.hi as usize],
                        &t.vals()[r.lo as usize..=r.hi as usize],
                    )
                }
            }
            _ => unreachable!("SpAdd3 over CSR operands only"),
        }
    }

    /// Three-way sorted merge, summing values for equal columns.
    fn merge3(segs: &[(&[i64], &[f64])]) -> (Vec<i64>, Vec<f64>) {
        let mut idx = [0usize; 3];
        let cap = segs.iter().map(|(c, _)| c.len()).sum();
        let mut cols = Vec::with_capacity(cap);
        let mut vals = Vec::with_capacity(cap);
        loop {
            let mut min: Option<i64> = None;
            for (s, seg) in segs.iter().enumerate() {
                if let Some(&c) = seg.0.get(idx[s]) {
                    min = Some(min.map_or(c, |m: i64| m.min(c)));
                }
            }
            let Some(m) = min else { break };
            let mut v = 0.0;
            for (s, seg) in segs.iter().enumerate() {
                while idx[s] < seg.0.len() && seg.0[idx[s]] == m {
                    v += seg.1[idx[s]];
                    idx[s] += 1;
                }
            }
            cols.push(m);
            vals.push(v);
        }
        (cols, vals)
    }

    /// Assemble rows (from all colors) into a CSR tensor.
    pub fn assemble_rows(rows: usize, cols: usize, mut parts: Vec<AddRow>) -> SpTensor {
        parts.sort_by_key(|r| r.row);
        let mut pos = vec![Rect1::empty(); rows];
        let mut crd = Vec::new();
        let mut vals = Vec::new();
        for r in parts {
            let lo = crd.len() as i64;
            crd.extend_from_slice(&r.cols);
            vals.extend_from_slice(&r.vals);
            if crd.len() as i64 > lo {
                pos[r.row] = Rect1::new(lo, crd.len() as i64 - 1);
            }
        }
        SpTensor::from_parts(
            vec![rows, cols],
            vec![Level::Dense { size: rows }, Level::Compressed { pos, crd }],
            vals,
        )
    }
}

/// SpAdd3's second and third operands for driver `base`: `C` stores one
/// entry in *every* row — rows `base` leaves empty included — and `D` is
/// `base` shifted by two columns.
fn spadd3_operands(base: &SpTensor) -> (SpTensor, SpTensor) {
    let (rows, cols) = (base.dims()[0], base.dims()[1]);
    let mut c = CooTensor::new(vec![rows, cols]);
    if cols > 0 {
        for i in 0..rows as i64 {
            c.push(&[i, (3 * i + 1) % cols as i64], -0.25 - i as f64);
        }
    }
    let c = c.build(&[LevelFormat::Dense, LevelFormat::Compressed]);
    (c, generate::shift_last_dim(base, 2))
}

/// SpAdd3's identity bar, task by task: for every `(color, span)` of both
/// partitions under every split policy, the blessed merge's buffer holds
/// the oracle's rows in order — exact `(row, len)`s and columns, value
/// bits — and both op counts agree exactly.
fn assert_spadd3_identical(label: &str, b: &SpTensor, c: &SpTensor, d: &SpTensor) {
    let SpecializedKernel::SpAdd3(merge) = blessed(&LeafKernel::SpAdd3, b, label) else {
        panic!("SpAdd3 {label}: wrong table variant");
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (pname, part) in &both_partitions(b) {
        for policy in POLICIES {
            let colors = part.num_colors();
            let total: u64 = (0..colors).map(|c| color_weight(part, c)).sum();
            for color in 0..colors {
                let kernel = LeafKernel::SpAdd3;
                for span in color_spans(b, part, &kernel, color, policy, ExecMode::Serial, total) {
                    let at = format!("SpAdd3 {label} [{pname}, {policy:?}, color {color}]");
                    let (want, wsym, wnum) =
                        spadd3_oracle::spadd3_color(b, c, d, part, color, span.as_ref());
                    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
                    let span = span.as_ref();
                    let (sym, num) =
                        merge(b, c, d, part, color, span, &mut rows, &mut cols, &mut vals);
                    assert_eq!(sym.to_bits(), wsym.to_bits(), "{at}: symbolic ops");
                    assert_eq!(num.to_bits(), wnum.to_bits(), "{at}: numeric ops");
                    let want_rows: Vec<(usize, usize)> =
                        want.iter().map(|r| (r.row, r.cols.len())).collect();
                    assert_eq!(rows, want_rows, "{at}: rows");
                    let want_cols: Vec<i64> = want.iter().flat_map(|r| r.cols.clone()).collect();
                    assert_eq!(cols, want_cols, "{at}: columns");
                    let want_vals: Vec<f64> = want.iter().flat_map(|r| r.vals.clone()).collect();
                    assert_eq!(bits(&vals), bits(&want_vals), "{at}: values");
                }
            }
        }
    }
}

#[test]
fn spadd3_specialized_matches_merge_oracle() {
    // Rows 40–63 of B are empty; C stores one entry in every row.
    let top_rows = generate::uniform(40, 64, 300, 59);
    let mut b = CooTensor::new(vec![64, 64]);
    top_rows.for_each(|coord, v| b.push(coord, v));
    let mut inputs = matrix_inputs();
    inputs.push((
        "empty-bottom-rows",
        b.build(&[LevelFormat::Dense, LevelFormat::Compressed]),
    ));
    for (iname, base) in inputs {
        let (c, d) = spadd3_operands(&base);
        assert_spadd3_identical(iname, &base, &c, &d);
        let (c, d) = (
            generate::shift_last_dim(&base, 3),
            generate::shift_last_dim(&base, 7),
        );
        assert_spadd3_identical(&format!("{iname}/shifted"), &base, &c, &d);
    }
}

/// Through the whole plan — outer-dim, several machine sizes, split and
/// unsplit, serial and parallel — the assembled SpAdd3 tensor is the
/// oracle's: exact `pos`/`crd`, value bits, and the same total op count.
#[test]
fn spadd3_plan_assembles_what_the_oracle_assembles() {
    let b = generate::rmat_clustered(7, 1800, 0.8, 61);
    let (c, d) = spadd3_operands(&b);
    let (rows, cols) = (b.dims()[0], b.dims()[1]);
    for nodes in [1usize, 3, 8] {
        let part = partition_tensor(
            &b,
            0,
            universe_partition(&b, 0, &equal_coord_bounds(rows, nodes)),
        );
        let (mut want_rows, mut want_ops) = (Vec::new(), 0.0);
        for color in 0..nodes {
            let (r, sym, num) = spadd3_oracle::spadd3_color(&b, &c, &d, &part, color, None);
            want_rows.extend(r);
            want_ops += sym + num;
        }
        let want = spadd3_oracle::assemble_rows(rows, cols, want_rows);
        for (mode, split) in [
            (ExecMode::Serial, SplitPolicy::Off),
            (ExecMode::Serial, SplitPolicy::Spans(3)),
            (ExecMode::Parallel(2), SplitPolicy::Spans(5)),
        ] {
            let mut ctx = Context::new(Machine::grid1d(nodes, MachineProfile::lassen_cpu()))
                .with_exec_mode(mode)
                .with_split_policy(split);
            for (name, t) in [("B", &b), ("C", &c), ("D", &d)] {
                ctx.add_tensor(name, t.clone(), Format::blocked_csr())
                    .unwrap();
            }
            let empty = spdistal_repro::spdistal::plan::empty_csr(rows, cols);
            ctx.add_tensor("A", empty, Format::blocked_csr()).unwrap();
            let [i, j] = ctx.fresh_vars(["i", "j"]);
            let stmt = assign(
                "A",
                &[i, j],
                access("B", &[i, j]) + access("C", &[i, j]) + access("D", &[i, j]),
            );
            let sched = schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread);
            let r = ctx.compile_and_run(&stmt, &sched).unwrap();
            let got = r.output.as_tensor().unwrap();
            let at = format!("nodes {nodes}, {mode:?}, {split:?}");
            assert_eq!(got.levels(), want.levels(), "{at}: pos/crd");
            let bits = |t: &SpTensor| t.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "{at}: values");
            assert_eq!(r.ops.to_bits(), want_ops.to_bits(), "{at}: op count");
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

/// SpMTTKRP and SpTTV × all four blessed order-3 layouts of `base`.
fn assert_tensor3_pairs_identical(label: &str, base: &SpTensor, ldim: usize) {
    let c = generate::dense_vec(base.dims()[1] * ldim, 41);
    let d = generate::dense_vec(base.dims()[2] * ldim, 43);
    let ck = generate::dense_vec(base.dims()[2], 47);
    for (fname, t) in tensor3_formats(base) {
        assert_spttv_identical(&format!("{label}/{fname}"), &t, &ck);
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

/// Degenerate drivers through all 18 pairs (× both partition kinds × every
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
        let (c, d) = spadd3_operands(base);
        assert_spadd3_identical(name, base, &c, &d);
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

/// The stripes of [`striped_partition`] on a hand-built driver, where
/// they fall exactly where the owned/cut split is easiest to get wrong.
/// The 13×8 matrix stores 20 entries with row lengths
/// `2 0 2 0 2 3 2 2 0 2 3 2 0`, so the leaf stripes at positions 4, 8, 12
/// and 16 give color 0 `[0,3] [8,11] [16,19]` and color 1 `[4,7] [12,15]`:
/// color 0 owns rows 0 and 2 (empty rows 1 and 3 at its first run's ends),
/// row 6 between cut rows 5 and 7, and row 11 before the empty last row;
/// color 1 owns rows 4 and 9 and cuts rows 5, 7 and 10 with the other.
/// CSR, DCSR and COO run it through every matrix pair. The order-3 driver
/// stacks the same pattern under level 1 (slices of 2, 3 and 1 fibers,
/// one slice empty) so level 1 and level 2 each carry stripes.
#[test]
fn striped_clamps_interleave_owned_and_cut_rows_in_every_row_keyed_body() {
    let matrix = striped_matrix();
    let part = striped_partition(&matrix, 1);
    let runs = |c: usize| part.entries[1].subset(c).rects().to_vec();
    let r = |lo, hi| Rect1::new(lo, hi);
    assert_eq!(runs(0), [r(0, 3), r(8, 11), r(16, 19)]);
    assert_eq!(runs(1), [r(4, 7), r(12, 15)]);
    assert_eq!(part.entries[0].subset(1).rects(), [r(0, 12)]);
    for width in [1, 4] {
        assert_matrix_pairs_identical(&format!("striped/w{width}"), &matrix, width, width);
    }
    let (c, d) = spadd3_operands(&matrix);
    assert_spadd3_identical("striped", &matrix, &c, &d);
    let tensor = striped_tensor();
    for width in [1, 3] {
        assert_tensor3_pairs_identical(&format!("striped/w{width}"), &tensor, width);
    }
}

/// Row lengths of [`striped_matrix`], and of the fibers of
/// [`striped_tensor`].
const STRIPED_LENS: [i64; 13] = [2, 0, 2, 0, 2, 3, 2, 2, 0, 2, 3, 2, 0];

/// The 13×8 matrix of the striped test: 20 entries, row lengths
/// [`STRIPED_LENS`].
fn striped_matrix() -> SpTensor {
    let mut coords: Vec<Vec<i64>> = Vec::new();
    for (i, &len) in STRIPED_LENS.iter().enumerate() {
        for k in 0..len {
            coords.push(vec![i as i64, (3 * k + i as i64) % 8]);
        }
    }
    assert_eq!(coords.len(), 20);
    let entries: Vec<&[i64]> = coords.iter().map(Vec::as_slice).collect();
    driver(&[13, 8], &entries)
}

/// The striped matrix stacked under level 1: slice `i` holds fibers `j` of
/// the matrix's rows `slice_rows[i]`, so the fibers' leaf ranges are the
/// matrix rows' (empty fibers dropped).
fn striped_tensor() -> SpTensor {
    let slice_rows: [&[usize]; 5] = [&[0, 1, 2], &[3, 4, 5], &[], &[6, 7, 8, 9], &[10, 11, 12]];
    let mut coords3: Vec<Vec<i64>> = Vec::new();
    for (i, rows) in slice_rows.iter().enumerate() {
        for (j, &row) in rows.iter().enumerate() {
            for k in 0..STRIPED_LENS[row] {
                coords3.push(vec![i as i64, j as i64, (3 * k + row as i64) % 8]);
            }
        }
    }
    let entries3: Vec<&[i64]> = coords3.iter().map(Vec::as_slice).collect();
    driver(&[5, 4, 8], &entries3)
}

/// The widths SpMM's and SpMTTKRP's row loops are vectorized over: 4 and
/// 8 fill whole AVX vectors, 32 is the benchmark's `WIDTH`, and 33 leaves
/// a one-lane remainder. Each runs every matrix pair and every order-3
/// pair over ordinary inputs under all partitions (the striped ones
/// included); then an order-3 driver whose fibers hold 1 to 7 entries, so
/// SpMTTKRP's 4-entry fold meets every remainder, owned and cut; and at
/// width 32 the hand-built striped drivers.
#[test]
fn row_loops_match_walker_at_lane_widths() {
    let matrix = generate::rmat_clustered(6, 520, 0.57, 12);
    let tensors = [
        ("uniform", generate::tensor3_uniform([20, 18, 16], 600, 31)),
        (
            "skewed",
            generate::tensor3_skewed([24, 16, 12], 700, 1.3, 37),
        ),
    ];
    for width in [4, 8, 32, 33] {
        assert_matrix_pairs_identical(&format!("rmat/w{width}"), &matrix, width, width);
        for (name, base) in &tensors {
            assert_tensor3_pairs_identical(&format!("{name}/w{width}"), base, width);
        }
    }

    // Fiber (i,j) holds 1 + (8i + j) % 7 entries: every length 1 to 7, in
    // every slice.
    let mut coords: Vec<Vec<i64>> = Vec::new();
    for i in 0..6i64 {
        for j in 0..8i64 {
            for t in 0..1 + (8 * i + j) % 7 {
                coords.push(vec![i, j, (3 * t + j) % 16]);
            }
        }
    }
    let entries: Vec<&[i64]> = coords.iter().map(Vec::as_slice).collect();
    let fibers = driver(&[6, 8, 16], &entries);
    for width in [1, 4, 33] {
        assert_tensor3_pairs_identical(&format!("fibers-1-to-7/w{width}"), &fibers, width);
    }

    assert_matrix_pairs_identical("striped/w32", &striped_matrix(), 32, 32);
    assert_tensor3_pairs_identical("striped/w32", &striped_tensor(), 32);
}

/// SDDMM's row-keyed body takes a row's positions (or a cut piece's) 8 at
/// a time and the rest one by one. Rows of 1, 7, 8, 9 and 17 entries give
/// a lone leftover, leftovers without a group, one group, a group and a
/// leftover, and two groups and a leftover. The 3-color non-zero split
/// cuts the 8-entry row after 6 entries and the 17-entry row after 3, so
/// a cut piece meets both arms as well; the striped split cuts the
/// 17-entry row into 8 and 9.
#[test]
fn sddmm_rows_meet_every_arm_of_the_chained_dot() {
    const LENS: [i64; 5] = [1, 7, 8, 9, 17];
    let mut coords: Vec<Vec<i64>> = Vec::new();
    for (i, &len) in LENS.iter().enumerate() {
        for k in 0..len {
            coords.push(vec![i as i64, (5 * k + i as i64) % 24]);
        }
    }
    let entries: Vec<&[i64]> = coords.iter().map(Vec::as_slice).collect();
    let matrix = driver(&[5, 24], &entries);
    let split = nonzero_partition(&matrix, 1, 3);
    let r = |lo, hi| Rect1::new(lo, hi);
    let cuts: Vec<Rect1> = (0..3).map(|c| split.subset(c).bounding_rect()).collect();
    assert_eq!(cuts, [r(0, 13), r(14, 27), r(28, 41)]);
    for width in [1, 3, 32] {
        assert_matrix_pairs_identical(&format!("rows-1-to-17/w{width}"), &matrix, width, width);
    }
    // Every term of the 17-entry row's dots is `-0.0`: a lane seeded with
    // anything but `+0.0` stores `-0.0`·v where the walker stores `+0.0`.
    let kdim = 3;
    let mut c = generate::dense_vec(5 * kdim, 7);
    c[4 * kdim..].fill(-0.0);
    let d: Vec<f64> = generate::dense_vec(kdim * 24, 9)
        .iter()
        .map(|x| x.abs() + 0.5)
        .collect();
    for (fname, t) in matrix_formats(&matrix) {
        let SpecializedKernel::Sddmm(f) = blessed(&LeafKernel::Sddmm { kdim }, &t, fname) else {
            panic!("Sddmm {fname}: wrong table variant");
        };
        assert_leaf_identical(
            &t,
            &LeafKernel::Sddmm { kdim },
            t.num_stored(),
            &|t, p, col, sp, o| matrix::sddmm_color(t, p, col, sp, &c, &d, kdim, 24, o),
            &|t, p, col, sp, o| f(t, p, col, sp, &c, &d, kdim, 24, o),
            &format!("Sddmm negative-zero row/{fname}"),
        );
    }
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
        // SpAdd3 reads CSR only: `base` is CSR.
        let (c, d) = spadd3_operands(&base);
        assert_spadd3_identical("random", &base, &c, &d);
    }

    /// Random-pattern sweep of SpTTV across all four blessed order-3
    /// layouts, empty slices and fibers included.
    #[test]
    fn spttv_matches_walker_on_random_tensors(base in arb_tensor3()) {
        let c = generate::dense_vec(base.dims()[2], 11);
        for (fname, t) in tensor3_formats(&base) {
            assert_spttv_identical(&format!("random/{fname}"), &t, &c);
        }
    }
}

/// Strategy: an arbitrary small order-3 sparse tensor in CSF.
fn arb_tensor3() -> impl Strategy<Value = SpTensor> {
    (1usize..10, 1usize..8, 1usize..12, 0usize..80).prop_flat_map(|(d0, d1, d2, n)| {
        proptest::collection::vec(
            (0..d0 as i64, 0..d1 as i64, 0..d2 as i64, -5.0f64..5.0),
            n.min(d0 * d1 * d2),
        )
        .prop_map(move |entries| {
            let mut coo = CooTensor::new(vec![d0, d1, d2]);
            for (i, j, k, v) in entries {
                coo.push(&[i, j, k], if v == 0.0 { 1.0 } else { v });
            }
            coo.build(&[
                LevelFormat::Dense,
                LevelFormat::Compressed,
                LevelFormat::Compressed,
            ])
        })
    })
}
