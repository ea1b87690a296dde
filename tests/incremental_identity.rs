//! The incremental-recompute bit-identity bar: for every blessed
//! `(kernel, format)` pair, `CompiledProgram::run_incremental` after a
//! batch of coordinate deltas must produce **bit-identical** output values
//! to a from-scratch full recompute over the post-delta data — across
//! `SplitPolicy::{Off, Spans}` and insert / overwrite / delete / mixed
//! delta batches.
//!
//! Overwrite-only batches confined to low rows must additionally take the
//! fast path (no fallback) and skip at least one clean color's spans;
//! structural batches (inserts/deletes) must fall back, recompile the
//! plan against the new pattern, and still match bit-for-bit. The sweep
//! also pins that a value-only batch carries the driver's memoised pattern
//! hash across the update. A proptest sweep over random delta batches rides
//! at the bottom.

use std::collections::BTreeSet;

use proptest::prelude::*;

use spdistal_repro::ir::Distribution;
use spdistal_repro::sparse::{
    convert, dense_matrix, dense_vector, generate, CooTensor, LevelFormat, SpTensor,
};
use spdistal_repro::spdistal::prelude::*;

const PIECES: usize = 4;
const WIDTH: usize = 6;
const POLICIES: [SplitPolicy; 2] = [SplitPolicy::Off, SplitPolicy::Spans(3)];

fn machine() -> Machine {
    Machine::grid1d(PIECES, MachineProfile::lassen_cpu())
}

fn bits(p: &CompiledProgram, k: usize) -> Vec<u64> {
    p.value(k)
        .unwrap()
        .as_tensor()
        .unwrap()
        .vals()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Value-only deltas over the lexicographically first stored coordinates —
/// confined to low rows, so under a 4-piece row distribution at least one
/// color stays clean.
fn overwrite_deltas(t: &SpTensor, k: usize) -> Vec<CoordDelta> {
    t.to_coo()
        .into_iter()
        .take(k)
        .map(|(c, v)| CoordDelta::overwrite(c, v * 1.5 + 0.25))
        .collect()
}

/// Structural deletes of the lexicographically last stored coordinates.
fn delete_deltas(t: &SpTensor, k: usize) -> Vec<CoordDelta> {
    let coo = t.to_coo();
    coo.iter()
        .rev()
        .take(k)
        .map(|(c, _)| CoordDelta::delete(c.clone()))
        .collect()
}

/// Structural inserts at the first `k` absent coordinates (odometer scan).
fn insert_deltas(t: &SpTensor, k: usize) -> Vec<CoordDelta> {
    let present: BTreeSet<Vec<i64>> = t.to_coo().into_iter().map(|(c, _)| c).collect();
    let dims = t.dims().to_vec();
    let mut out = Vec::new();
    let mut coord = vec![0i64; dims.len()];
    'scan: while out.len() < k {
        if !present.contains(&coord) {
            out.push(CoordDelta::insert(coord.clone(), 0.75 + out.len() as f64));
        }
        let mut d = dims.len();
        loop {
            if d == 0 {
                break 'scan;
            }
            d -= 1;
            coord[d] += 1;
            if (coord[d] as usize) < dims[d] {
                break;
            }
            coord[d] = 0;
        }
    }
    out
}

/// The four batch shapes every pair is swept through. The bool marks
/// value-only batches that must take the fast path.
fn delta_mixes(t: &SpTensor) -> Vec<(&'static str, Vec<CoordDelta>, bool)> {
    let mut mixed = overwrite_deltas(t, 1);
    mixed.extend(insert_deltas(t, 1));
    mixed.extend(delete_deltas(t, 1));
    vec![
        ("overwrite", overwrite_deltas(t, 3), true),
        ("insert", insert_deltas(t, 2), false),
        ("delete", delete_deltas(t, 2), false),
        ("mixed", mixed, false),
    ]
}

/// Sweep one `(kernel, format)` pair: for each policy × delta mix, run →
/// update → run_incremental, then compare bit-for-bit against a fresh
/// program built over the post-delta data. `also_update` names tensors
/// that must receive the same deltas as the driver (SDDMM's output shares
/// the driver's pattern).
fn check_pair(
    label: &str,
    build: &dyn Fn(SpTensor, SplitPolicy) -> CompiledProgram,
    b: &SpTensor,
    also_update: &[&str],
) {
    for policy in POLICIES {
        for (mix, deltas, value_only) in delta_mixes(b) {
            let tag = format!("{label} [{policy:?}, {mix}]");
            let mut p = build(b.clone(), policy);
            p.run().unwrap();
            let memo = |p: &CompiledProgram| p.context().tensor("B").unwrap().data.pattern_memo();
            let hashed = memo(&p);
            assert!(
                hashed.is_some(),
                "{tag}: the run keys its plan on B's pattern"
            );
            let rep = p.update_batch("B", &deltas).unwrap();
            assert_eq!(rep.structural, !value_only, "{tag}: structure flag");
            // A value-only batch keeps the registered pattern and with it
            // the memoised hash (re-hashing the coordinate tree per batch
            // was PR 15's 1.9x `run_incremental` regression); a structural
            // batch registers a new pattern, hashed when a run next asks.
            let expect = if value_only { hashed } else { None };
            assert_eq!(memo(&p), expect, "{tag}: pattern memo after the batch");
            if !value_only {
                for name in also_update {
                    p.update_batch(name, &deltas).unwrap();
                }
            }
            p.run_incremental().unwrap();
            let stats = p.last_incremental(0).unwrap().clone();
            if value_only {
                assert!(
                    !stats.fallback,
                    "{tag}: unexpected fallback: {}",
                    stats.reason
                );
                assert!(stats.spans_skipped > 0, "{tag}: no spans skipped");
            } else {
                assert!(stats.fallback, "{tag}: structural batch must fall back");
            }
            let b2 = p.context().tensor("B").unwrap().data.clone();
            let mut full = build(b2, policy);
            full.run().unwrap();
            assert_eq!(bits(&p, 0), bits(&full, 0), "{tag}: bits diverged");
        }
    }
}

/// The three blessed matrix layouts of `base` (built in CSR).
fn matrix_formats(base: &SpTensor) -> Vec<(&'static str, Format, SpTensor)> {
    vec![
        ("csr", Format::blocked_csr(), convert::to_csr(base)),
        ("dcsr", Format::blocked_dcsr(), convert::to_dcsr(base)),
        ("coo", Format::blocked_coo(), convert::to_coo_format(base)),
    ]
}

fn matrix_base() -> SpTensor {
    generate::uniform(48, 40, 320, 11)
}

#[test]
fn spmv_incremental_identity_all_formats() {
    let base = matrix_base();
    let c = generate::dense_vec(base.dims()[1], 7);
    for (fname, fmt, t) in matrix_formats(&base) {
        let c = c.clone();
        let build = move |b: SpTensor, policy: SplitPolicy| {
            let n = b.dims()[0];
            Program::on(machine())
                .split_policy(policy)
                .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
                .tensor("B", fmt.clone(), b)
                .tensor("c", Format::replicated_dense_vec(), dense_vector(c.clone()))
                .stmt("a(i) = B(i,j) * c(j)")
                .schedule(ScheduleSpec::outer_dim())
                .build()
                .unwrap()
        };
        check_pair(&format!("SpMv/{fname}"), &build, &t, &[]);
    }
}

#[test]
fn spmm_incremental_identity_all_formats() {
    let base = matrix_base();
    let (rows, cols) = (base.dims()[0], base.dims()[1]);
    let c = generate::dense_buffer(cols, WIDTH, 17);
    for (fname, fmt, t) in matrix_formats(&base) {
        let c = c.clone();
        let build = move |b: SpTensor, policy: SplitPolicy| {
            Program::on(machine())
                .split_policy(policy)
                .tensor(
                    "A",
                    Format::blocked_dense_matrix(),
                    dense_matrix(rows, WIDTH, vec![0.0; rows * WIDTH]),
                )
                .tensor("B", fmt.clone(), b)
                .tensor(
                    "C",
                    Format::replicated_dense_matrix(),
                    dense_matrix(cols, WIDTH, c.clone()),
                )
                .stmt("A(i,j) = B(i,k) * C(k,j)")
                .schedule(ScheduleSpec::outer_dim())
                .build()
                .unwrap()
        };
        check_pair(&format!("SpMm/{fname}"), &build, &t, &[]);
    }
}

#[test]
fn sddmm_incremental_identity_all_formats() {
    let base = matrix_base();
    let (rows, cols) = (base.dims()[0], base.dims()[1]);
    let c = generate::dense_buffer(rows, WIDTH, 19);
    let d = generate::dense_buffer(WIDTH, cols, 23);
    for (fname, fmt, t) in matrix_formats(&base) {
        let (c, d) = (c.clone(), d.clone());
        let build = move |b: SpTensor, policy: SplitPolicy| {
            Program::on(machine())
                .split_policy(policy)
                // The output shares the driver's pattern (values ignored).
                .tensor("A", fmt.clone(), b.clone())
                .tensor("B", fmt.clone(), b)
                .tensor(
                    "C",
                    Format::staged_dense_matrix(),
                    dense_matrix(rows, WIDTH, c.clone()),
                )
                .tensor(
                    "D",
                    Format::staged_dense_matrix(),
                    dense_matrix(WIDTH, cols, d.clone()),
                )
                .stmt("A(i,j) = B(i,j) * C(i,k) * D(k,j)")
                .schedule(ScheduleSpec::outer_dim())
                .build()
                .unwrap()
        };
        // Structural batches must land on A too: its pattern mirrors B's.
        check_pair(&format!("Sddmm/{fname}"), &build, &t, &["A"]);
    }
}

#[test]
fn spmttkrp_incremental_identity_all_formats() {
    let base = generate::tensor3_uniform([20, 18, 16], 600, 31);
    let dcsf3 = Format::new(
        vec![LevelFormat::Compressed; 3],
        Distribution::new("xyz", "x").unwrap(),
    );
    let formats: Vec<(&'static str, Format, SpTensor)> = vec![
        ("csf3", Format::blocked_csf3(), base.clone()),
        (
            "dcsf3",
            dcsf3,
            convert::with_formats(&base, &[LevelFormat::Compressed; 3]),
        ),
        (
            "coo3",
            Format::blocked_coo3(),
            convert::to_coo_format(&base),
        ),
    ];
    let (jd, kd) = (base.dims()[1], base.dims()[2]);
    let rows = base.dims()[0];
    let c = generate::dense_buffer(jd, WIDTH, 41);
    let d = generate::dense_buffer(kd, WIDTH, 43);
    for (fname, fmt, t) in formats {
        let (c, d) = (c.clone(), d.clone());
        let build = move |b: SpTensor, policy: SplitPolicy| {
            Program::on(machine())
                .split_policy(policy)
                .tensor("B", fmt.clone(), b)
                .tensor(
                    "A",
                    Format::blocked_dense_matrix(),
                    dense_matrix(rows, WIDTH, vec![0.0; rows * WIDTH]),
                )
                .tensor(
                    "C",
                    Format::replicated_dense_matrix(),
                    dense_matrix(jd, WIDTH, c.clone()),
                )
                .tensor(
                    "D",
                    Format::replicated_dense_matrix(),
                    dense_matrix(kd, WIDTH, d.clone()),
                )
                .stmt("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)")
                .schedule(ScheduleSpec::outer_dim())
                .build()
                .unwrap()
        };
        check_pair(&format!("SpMttkrp/{fname}"), &build, &t, &[]);
    }
}

/// Two statements over one driver that neither reads the other's output:
/// `a = B * c` and `d = B * e`.
fn two_independent_spmvs(b: SpTensor, policy: SplitPolicy, pipelined: bool) -> CompiledProgram {
    let (n, cols) = (b.dims()[0], b.dims()[1]);
    let zeros = || dense_vector(vec![0.0; n]);
    let input = |seed: u64| dense_vector(generate::dense_vec(cols, seed));
    let program = Program::on(machine())
        .split_policy(policy)
        .tensor("a", Format::blocked_dense_vec(), zeros())
        .tensor("d", Format::blocked_dense_vec(), zeros())
        .tensor("B", Format::blocked_csr(), b)
        .tensor("c", Format::replicated_dense_vec(), input(7))
        .tensor("e", Format::replicated_dense_vec(), input(9))
        .stmt("a(i) = B(i,j) * c(j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("d(i) = B(i,j) * e(j)")
        .schedule(ScheduleSpec::outer_dim());
    let program = if pipelined {
        program
    } else {
        program.launch_at_a_time()
    };
    program.build().unwrap()
}

/// Incremental passes go through the same session as full ones: two
/// independent statements both merge, and share one batch when pipelined.
#[test]
fn independent_statements_merge_and_pipeline_like_a_full_pass() {
    let b = convert::to_csr(&matrix_base());
    for policy in POLICIES {
        for pipelined in [true, false] {
            let tag = format!("[{policy:?}, pipelined={pipelined}]");
            let mut p = two_independent_spmvs(b.clone(), policy, pipelined);
            p.run().unwrap();
            p.update_batch("B", &overwrite_deltas(&b, 3)).unwrap();
            let batches_before = p.report().batches;
            p.run_incremental().unwrap();
            let batches = p.report().batches - batches_before;
            assert_eq!(batches, if pipelined { 1 } else { 2 }, "{tag}: batches");
            let b2 = p.context().tensor("B").unwrap().data.clone();
            let mut full = two_independent_spmvs(b2, policy, pipelined);
            full.run().unwrap();
            for k in 0..2 {
                let stats = p.last_incremental(k).unwrap();
                assert!(!stats.fallback, "{tag} stmt {k}: {}", stats.reason);
                assert!(stats.spans_skipped > 0, "{tag} stmt {k}: no spans skipped");
                assert_eq!(bits(&p, k), bits(&full, k), "{tag} stmt {k}: bits diverged");
            }
        }
    }
}

/// A pass that fails part-way leaves no result for the statement that did
/// not finish, and nothing to merge into: once the cause is repaired the
/// next incremental pass falls back and matches a fresh program.
#[test]
fn failed_pass_leaves_no_result_and_the_next_one_falls_back() {
    let b = convert::to_csr(&matrix_base());
    let n = b.dims()[0];
    let mut p = two_independent_spmvs(b.clone(), SplitPolicy::Off, true);
    p.run().unwrap();
    p.update_batch("B", &overwrite_deltas(&b, 3)).unwrap();
    // Statement 1's output no longer has the extent its plan computes, so
    // its write-back is refused — after statement 0 already finished.
    let resize_d = |p: &mut CompiledProgram, len: usize| {
        let d = dense_vector(vec![0.0; len]);
        p.context_mut()
            .add_tensor("d", d, Format::blocked_dense_vec())
            .unwrap();
    };
    resize_d(&mut p, n + 1);
    assert!(p.run_incremental().is_err());
    assert!(p.result(0).is_some(), "statement 0 finished");
    assert!(p.result(1).is_none(), "statement 1 did not");

    resize_d(&mut p, n);
    p.run_incremental().unwrap();
    let b2 = p.context().tensor("B").unwrap().data.clone();
    let mut full = two_independent_spmvs(b2, SplitPolicy::Off, true);
    full.run().unwrap();
    for k in 0..2 {
        assert!(p.last_incremental(k).unwrap().fallback, "stmt {k}");
        assert_eq!(bits(&p, k), bits(&full, k), "stmt {k}: bits diverged");
    }
}

/// Strategy: a small CSR matrix plus an arbitrary delta batch over its
/// coordinate space (ops and coordinates unconstrained beyond bounds).
fn arb_matrix_and_deltas() -> impl Strategy<Value = (SpTensor, Vec<CoordDelta>)> {
    (4usize..24, 4usize..24, 1usize..60).prop_flat_map(|(rows, cols, n)| {
        let tensor = proptest::collection::vec(
            (0..rows as i64, 0..cols as i64, -5.0f64..5.0),
            n.min(rows * cols),
        )
        .prop_map(move |triplets| {
            let mut coo = CooTensor::new(vec![rows, cols]);
            for (i, j, v) in triplets {
                coo.push(&[i, j], if v == 0.0 { 1.0 } else { v });
            }
            coo.build(&[LevelFormat::Dense, LevelFormat::Compressed])
        });
        let deltas = proptest::collection::vec(
            (0..rows as i64, 0..cols as i64, -3.0f64..3.0, 0u32..3),
            0..12,
        )
        .prop_map(|raw| {
            raw.into_iter()
                .map(|(i, j, v, op)| match op {
                    0 => CoordDelta::insert(vec![i, j], v),
                    1 => CoordDelta::overwrite(vec![i, j], v),
                    _ => CoordDelta::delete(vec![i, j]),
                })
                .collect::<Vec<_>>()
        });
        (tensor, deltas)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random delta batches over random patterns: `run_incremental` stays
    /// bit-identical to a fresh full recompute whether the batch turns out
    /// value-only (fast path) or structural (fallback + recompile),
    /// including batches that empty the matrix or insert into empty rows.
    #[test]
    fn incremental_matches_full_on_random_delta_batches(
        (b, deltas) in arb_matrix_and_deltas()
    ) {
        let n = b.dims()[0];
        let cols = b.dims()[1];
        let c = generate::dense_vec(cols, 3);
        let build = |data: SpTensor| {
            Program::on(machine())
                .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
                .tensor("B", Format::blocked_csr(), data)
                .tensor("c", Format::replicated_dense_vec(), dense_vector(c.clone()))
                .stmt("a(i) = B(i,j) * c(j)")
                .schedule(ScheduleSpec::outer_dim())
                .build()
                .unwrap()
        };
        let mut p = build(b);
        p.run().unwrap();
        p.update_batch("B", &deltas).unwrap();
        p.run_incremental().unwrap();
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let mut full = build(b2);
        full.run().unwrap();
        prop_assert_eq!(bits(&p, 0), bits(&full, 0));
    }
}
