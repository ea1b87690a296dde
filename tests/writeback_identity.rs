//! The registered output is the value, always.
//!
//! A program's write-back has two arms: it re-registers a freshly built
//! output when the registered one has another pattern (a first run of
//! SpTTV or SpAdd3, an assembled pattern that moved), or it moves the
//! computed values into the registration already there — every value, or
//! after a merge over its own last write only the colors that re-ran.
//! Whichever arm ran, after every `run` and `run_incremental` the tensor
//! registered under the output's name must equal the statement's
//! `value(k)` bit for bit (`to_bits` of the values, exact dims and
//! levels), and the machine model must see a new tensor state: the
//! output's version goes up, every processor holds what the initial
//! distribution places there, and a pass written back by value renews the
//! output's regions in place, under the `RegionId`s it had.
//!
//! Covered outputs: dense (SpMV, SpMM), reduction (SpMV under a non-zero
//! split), pattern-aligned (SDDMM, SpTTV) and assembled (SpAdd3). Covered
//! transitions: a value-only merge, `tensor_data_mut` on the output between
//! passes, `set_tensor_format` on the output, a structural batch that keeps
//! the driver's nnz, a schedule change that re-keys the plan, two
//! statements writing one output with a third reading it between them, and
//! a pass that errors.
//!
//! And the value is not a second copy: after a cached pass each statement's
//! value shares its values buffer with the registration, an SDDMM output
//! shares its driver's pattern arrays, and a value held across later
//! passes and writes keeps its bits (copy-on-write).

use spdistal_repro::runtime::RegionId;
use spdistal_repro::sparse::{dense_matrix, dense_vector, generate, Level, SpTensor};
use spdistal_repro::spdistal::plan::empty_csr;
use spdistal_repro::spdistal::prelude::*;

const PIECES: usize = 4;
const WIDTH: usize = 4;

fn machine() -> Machine {
    Machine::grid1d(PIECES, MachineProfile::lassen_cpu())
}

/// A clustered R-MAT on which `Auto` starts on outer-dim and moves to
/// non-zero after the warm-up run, so the second pass runs a re-keyed plan.
fn moderate_skew() -> SpTensor {
    for alpha in [0.45, 0.5, 0.55, 0.6, 0.65, 0.7] {
        let b = generate::rmat_clustered(9, 6000, alpha, 11);
        let mut p = program("spmv", &b, ScheduleSpec::Auto).build().unwrap();
        p.run().unwrap();
        let decisions = &p.report().decisions;
        if decisions
            .iter()
            .map(|d| d.choice)
            .eq(["outer-dim", "non-zero"])
        {
            return b;
        }
    }
    panic!("no alpha moved Auto after the warm-up run");
}

/// Statement `kind` writing `A` from driver `B`, under `spec`.
fn program(kind: &str, b: &SpTensor, spec: ScheduleSpec) -> Program {
    let (n, m) = (b.dims()[0], b.dims()[1]);
    let p = Program::on(machine()).trace(Trace::enabled());
    let csr = Format::blocked_csr();
    let matrix =
        |rows, cols, seed| dense_matrix(rows, cols, generate::dense_buffer(rows, cols, seed));
    let p = match kind {
        "spmv" | "spmv reduction" => p
            .tensor("A", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
            .tensor("B", csr, b.clone())
            .tensor(
                "c",
                Format::replicated_dense_vec(),
                dense_vector(generate::dense_vec(m, 5)),
            )
            .stmt("A(i) = B(i,j) * c(j)"),
        "spmm" => p
            .tensor(
                "A",
                Format::blocked_dense_matrix(),
                dense_matrix(n, WIDTH, vec![0.0; n * WIDTH]),
            )
            .tensor("B", csr, b.clone())
            .tensor("C", Format::replicated_dense_matrix(), matrix(m, WIDTH, 6))
            .stmt("A(i,j) = B(i,k) * C(k,j)"),
        "sddmm" => p
            .tensor("A", csr.clone(), empty_csr(n, m))
            .tensor("B", csr, b.clone())
            .tensor("C", Format::replicated_dense_matrix(), matrix(n, WIDTH, 7))
            .tensor("D", Format::replicated_dense_matrix(), matrix(WIDTH, m, 8))
            .stmt("A(i,j) = B(i,j) * C(i,k) * D(k,j)"),
        "spttv" => p
            // Registered with the pattern of another tensor: the first
            // write-back must replace it with the driver's fibers.
            .tensor("A", csr, empty_csr(n, m))
            .tensor("B", Format::blocked_csf3(), b.clone())
            .tensor(
                "c",
                Format::replicated_dense_vec(),
                dense_vector(generate::dense_vec(b.dims()[2], 9)),
            )
            .stmt("A(i,j) = B(i,j,k) * c(k)"),
        "spadd3" => p
            .tensor("A", csr.clone(), empty_csr(n, m))
            .tensor("B", csr.clone(), b.clone())
            .tensor("C", csr.clone(), generate::shift_last_dim(b, 3))
            .tensor("D", csr, generate::shift_last_dim(b, 11))
            .stmt("A(i,j) = B(i,j) + C(i,j) + D(i,j)"),
        other => panic!("unknown kind {other}"),
    };
    p.schedule(spec)
}

fn driver(kind: &str) -> SpTensor {
    match kind {
        "spttv" => generate::tensor3_uniform([48, 20, 24], 3000, 13),
        _ => generate::uniform(96, 80, 1500, 12),
    }
}

fn spec(kind: &str) -> ScheduleSpec {
    match kind {
        "spmv reduction" => ScheduleSpec::nonzero(),
        _ => ScheduleSpec::outer_dim(),
    }
}

const KINDS: [&str; 6] = ["spmv", "spmm", "spmv reduction", "sddmm", "spttv", "spadd3"];

/// The registered tensor `out` against statement `k`'s value, bit for bit.
fn assert_registered_is_value(p: &CompiledProgram, k: usize, out: &str, what: &str) {
    let value = p.value(k).unwrap_or_else(|| panic!("{what}: no value"));
    let value = value.as_tensor().unwrap();
    let registered = &p.context().tensor(out).unwrap().data;
    assert_eq!(registered.dims(), value.dims(), "{what}: dims");
    assert_eq!(registered.levels(), value.levels(), "{what}: levels");
    let bits = |t: &SpTensor| t.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(registered), bits(value), "{what}: values");
}

/// What a pass starts from: the output's regions and version, and the
/// write-back arms counted so far (0 on an untraced program).
struct Before {
    ids: Vec<RegionId>,
    version: u64,
    arms: (u64, u64),
}

fn before(p: &CompiledProgram, out: &str) -> Before {
    Before {
        ids: p.context().tensor(out).unwrap().regions.ids(),
        version: p.context().tensor_version(out),
        arms: arms(p),
    }
}

/// `(writeback.reregistered, writeback.by_value)` so far.
fn arms(p: &CompiledProgram) -> (u64, u64) {
    p.trace().metrics().map_or((0, 0), |m| {
        let count = |name: &str| m.counter(name).get();
        (count("writeback.reregistered"), count("writeback.by_value"))
    })
}

/// The model sees a new state of `out`: its version went up, a pass that
/// wrote back by value (and re-registered nothing) kept the regions it had
/// before the pass, and every processor holds what a fresh registration of
/// the same data under the same format places there.
fn assert_new_state(p: &CompiledProgram, out: &str, before: &Before, what: &str) {
    let ctx = p.context();
    let t = ctx.tensor(out).unwrap();
    let ids = t.regions.ids();
    assert!(
        ctx.tensor_version(out) > before.version,
        "{what}: version kept"
    );
    let (reregistered, by_value) = arms(p);
    if reregistered == before.arms.0 && by_value > before.arms.1 {
        assert_eq!(ids, before.ids, "{what}: a by-value pass changed the ids");
    }
    let mut fresh = Context::new(ctx.machine().clone());
    fresh
        .add_tensor(out, t.data.clone(), t.format.clone())
        .unwrap();
    let placed = fresh.tensor(out).unwrap().regions.ids();
    assert_eq!(ids.len(), placed.len(), "{what}: region count");
    for proc in 0..ctx.machine().num_procs() {
        for (&id, &initial) in ids.iter().zip(&placed) {
            assert_eq!(
                ctx.runtime().valid_in(id, proc),
                fresh.runtime().valid_in(initial, proc),
                "{what}: {} on processor {proc}",
                ctx.runtime().region(id).name
            );
        }
    }
}

/// One pass of `p`, then both assertions on statement `k`'s output.
fn pass(p: &mut CompiledProgram, incremental: bool, k: usize, out: &str, what: &str) {
    let before = before(p, out);
    let ran = if incremental {
        p.run_incremental()
    } else {
        p.run()
    };
    ran.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_registered_is_value(p, k, out, what);
    assert_new_state(p, out, &before, what);
}

/// Overwrites of the driver's first two stored entries: a value-only
/// batch confined to the first rows.
fn value_batch(p: &CompiledProgram, round: u32) -> Vec<CoordDelta> {
    let b = &p.context().tensor("B").unwrap().data;
    let stored = b.to_coo();
    let at = |k: usize| stored[k].0.clone();
    let v = 1.5 + round as f64;
    vec![
        CoordDelta::overwrite(at(0), v),
        CoordDelta::overwrite(at(1), -v),
    ]
}

/// A delete and an insert in the driver's first row: the pattern moves
/// and the nnz stays.
fn same_nnz_structural_batch(p: &CompiledProgram) -> Vec<CoordDelta> {
    let b = &p.context().tensor("B").unwrap().data;
    let stored = b.to_coo();
    let gone = stored[0].0.clone();
    let last = gone.len() - 1;
    let fresh = (0..b.dims()[last] as i64)
        .map(|x| {
            let mut coord = gone.clone();
            coord[last] = x;
            coord
        })
        .find(|coord| stored.iter().all(|(present, _)| present != coord))
        .expect("the first fiber is full");
    vec![CoordDelta::delete(gone), CoordDelta::insert(fresh, 2.25)]
}

#[test]
fn every_output_kind_through_every_transition() {
    for kind in KINDS {
        let b = driver(kind);
        let mut p = program(kind, &b, spec(kind)).build().unwrap();
        let step = |p: &mut CompiledProgram, incremental: bool, what: &str| {
            pass(p, incremental, 0, "A", &format!("{kind}, {what}"));
        };
        step(&mut p, false, "first run");
        step(&mut p, false, "cached run");

        let batch = value_batch(&p, 0);
        p.update_batch("B", &batch).unwrap();
        step(&mut p, true, "value-only merge");
        let stats = p.last_incremental(0).unwrap();
        let merges = !matches!(kind, "spmv reduction" | "spadd3");
        assert_eq!(!stats.fallback, merges, "{kind}: {}", stats.reason);
        if merges {
            assert!(stats.spans_skipped > 0, "{kind}: a merge skips colors");
        }

        // Values written behind the plan's back: the merge must not keep
        // them in the colors it skips.
        p.tensor_data_mut("A").unwrap().fill(-7.25);
        let batch = value_batch(&p, 1);
        p.update_batch("B", &batch).unwrap();
        step(&mut p, true, "merge after tensor_data_mut on the output");
        assert_eq!(!p.last_incremental(0).unwrap().fallback, merges, "{kind}");
        step(&mut p, true, "merge after that");

        let other = match kind {
            "spmv" | "spmv reduction" => Format::replicated_dense_vec(),
            "spmm" => Format::replicated_dense_matrix(),
            _ => Format::nonzero_csr(),
        };
        p.set_tensor_format("A", other).unwrap();
        let batch = value_batch(&p, 2);
        p.update_batch("B", &batch).unwrap();
        step(&mut p, true, "after set_tensor_format on the output");
        assert!(p.last_incremental(0).unwrap().fallback, "{kind}: re-keyed");
        let batch = value_batch(&p, 3);
        p.update_batch("B", &batch).unwrap();
        step(&mut p, true, "merge under the new format");

        let batch = same_nnz_structural_batch(&p);
        p.update_batch("B", &batch).unwrap();
        step(&mut p, true, "structural batch keeping nnz");
        assert!(
            p.last_incremental(0).unwrap().fallback,
            "{kind}: structural"
        );
        let batch = value_batch(&p, 4);
        p.update_batch("B", &batch).unwrap();
        step(&mut p, true, "merge over the new pattern");
        step(&mut p, false, "full run over the new pattern");
    }
}

/// `Auto` moves the statement to the non-zero split after the warm-up run:
/// the second pass runs a re-keyed plan (for SpMV a reduction), and the
/// third the re-keyed plan cached.
#[test]
fn a_schedule_change_that_rekeys_the_plan() {
    let b = moderate_skew();
    for kind in ["spmv", "spmm", "sddmm"] {
        let mut p = program(kind, &b, ScheduleSpec::Auto).build().unwrap();
        let what = |s: &str| format!("{kind}, {s}");
        pass(&mut p, false, 0, "A", &what("warm-up run"));
        pass(&mut p, false, 0, "A", &what("re-keyed run"));
        assert_eq!(p.report().stmts[0].schedule_kind, "non-zero", "{kind}");
        assert_eq!(p.report().compiles, 2, "{kind}: one compile per selection");
        let batch = value_batch(&p, 0);
        p.update_batch("B", &batch).unwrap();
        pass(&mut p, true, 0, "A", &what("incremental under the new key"));
        pass(&mut p, false, 0, "A", &what("cached run under the new key"));
    }
}

/// `A` is written by statements 0 and 2, and statement 1 reads it between
/// them, in every pass. Each writer finds the other's values registered,
/// so neither may copy only the colors it re-ran: the check is made at the
/// write-back, not at pass start (when `A` still holds what statement 2
/// left), and a merge moves its whole buffer in instead. The pattern never
/// moves, so every write-back goes by value and keeps `A`'s regions.
#[test]
fn two_writers_of_one_output_with_a_reader_between() {
    let b = generate::uniform(96, 96, 1500, 21);
    let d = generate::uniform(96, 96, 1500, 22);
    let c = generate::dense_vec(96, 23);
    let zeros = || dense_vector(vec![0.0; 96]);
    let mut p = Program::on(machine())
        .trace(Trace::enabled())
        .tensor("A", Format::blocked_dense_vec(), zeros())
        .tensor("y", Format::blocked_dense_vec(), zeros())
        .tensor("B", Format::blocked_csr(), b.clone())
        .tensor("D", Format::blocked_csr(), d)
        .tensor("c", Format::replicated_dense_vec(), dense_vector(c.clone()))
        .stmt("A(i) = B(i,j) * c(j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("y(i) = B(i,j) * A(j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("A(i) = D(i,j) * c(j)")
        .schedule(ScheduleSpec::outer_dim())
        .build()
        .unwrap();
    let check = |p: &CompiledProgram, what: &str| {
        assert_registered_is_value(p, 2, "A", what);
        assert_registered_is_value(p, 1, "y", what);
        let first = p.value(0).unwrap().as_tensor().unwrap().vals();
        let expect = spdistal_repro::sparse::reference::spmv(&b, first);
        let y = p.value(1).unwrap().as_tensor().unwrap().vals();
        assert!(
            spdistal_repro::sparse::reference::approx_eq(y, &expect, 1e-12),
            "{what}"
        );
    };
    let mut reregistered = None;
    for round in 0..3 {
        pass(&mut p, false, 2, "A", &format!("run {round}"));
        let was = *reregistered.get_or_insert(arms(&p).0);
        assert_eq!(arms(&p).0, was, "run {round} re-registered");
        check(&p, &format!("run {round}"));
        let d = &p.context().tensor("D").unwrap().data;
        let first = d.to_coo().swap_remove(0).0;
        let batch = [CoordDelta::overwrite(first, 3.5 + round as f64)];
        p.update_batch("D", &batch).unwrap();
        pass(&mut p, true, 2, "A", &format!("incremental {round}"));
        check(&p, &format!("incremental {round}"));
        let stats = p.last_incremental(2).unwrap();
        assert!(
            !stats.fallback && stats.spans_skipped > 0,
            "{}",
            stats.reason
        );
        assert_eq!(arms(&p).0, was, "incremental {round} re-registered");
    }
    assert_eq!(arms(&p), (0, 18), "every write-back over six passes");
}

/// A pass that fails at its second statement's write-back: the first
/// statement's output is still its value, and the next passes — which
/// have no retention proof to go by — stay exact. The arm asks the
/// registered pattern, not the proof: both outputs keep the dims they
/// had, so they are written by value.
#[test]
fn a_pass_that_errors() {
    let b = generate::uniform(96, 80, 1500, 31);
    let n = b.dims()[0];
    let mut p = Program::on(machine())
        .tensor("A", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
        .tensor("z", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
        .tensor("B", Format::blocked_csr(), b)
        .tensor(
            "c",
            Format::replicated_dense_vec(),
            dense_vector(generate::dense_vec(80, 5)),
        )
        .stmt("A(i) = B(i,j) * c(j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("z(i) = B(i,j) * c(j)")
        .schedule(ScheduleSpec::outer_dim())
        .trace(Trace::enabled())
        .build()
        .unwrap();
    pass(&mut p, false, 0, "A", "first run");
    pass(&mut p, false, 1, "z", "cached run");

    // `z` re-registered one element longer: the plan still computes n
    // values, and their write-back refuses the dims.
    let ctx = p.context_mut();
    ctx.add_tensor(
        "z",
        dense_vector(vec![0.0; n + 1]),
        Format::blocked_dense_vec(),
    )
    .unwrap();
    let before = before(&p, "A");
    assert!(
        p.run().is_err(),
        "a write-back into the wrong dims must fail"
    );
    assert_registered_is_value(&p, 0, "A", "statement 0 of the failed pass");
    assert_new_state(&p, "A", &before, "statement 0 of the failed pass");
    assert!(p.value(1).is_none(), "statement 1 did not finish");

    let ctx = p.context_mut();
    ctx.add_tensor("z", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    let reregistered = |p: &CompiledProgram| {
        let m = p.trace().metrics().unwrap();
        m.counter("writeback.reregistered").get()
    };
    let was = reregistered(&p);
    pass(&mut p, true, 0, "A", "incremental pass after the failure");
    assert_registered_is_value(&p, 1, "z", "incremental pass after the failure");
    assert_eq!(reregistered(&p), was, "the dims held: both by value");
    let batch = value_batch(&p, 0);
    p.update_batch("B", &batch).unwrap();
    pass(&mut p, true, 0, "A", "merge after recovery");
    pass(&mut p, true, 1, "z", "merge after recovery, z");
}

/// The six leaves side by side, each writing its own output: A0 SpMM, a1
/// SpMV, A2 SDDMM (over B0's pattern), A3 SpMTTKRP, A4 SpTTV, A5 SpAdd3.
fn sweep() -> CompiledProgram {
    let b = generate::uniform(96, 80, 1500, 41);
    let b3 = generate::tensor3_uniform([48, 20, 24], 3000, 42);
    let (n, m) = (b.dims()[0], b.dims()[1]);
    let [i3, j3, k3] = [b3.dims()[0], b3.dims()[1], b3.dims()[2]];
    let matrix =
        |rows, cols, seed| dense_matrix(rows, cols, generate::dense_buffer(rows, cols, seed));
    let zeros = |rows, cols| dense_matrix(rows, cols, vec![0.0; rows * cols]);
    let (csr, dense) = (Format::blocked_csr(), Format::replicated_dense_matrix());
    let outer = ScheduleSpec::outer_dim;
    Program::on(machine())
        .tensor("A0", Format::blocked_dense_matrix(), zeros(n, WIDTH))
        .tensor(
            "a1",
            Format::blocked_dense_vec(),
            dense_vector(vec![0.0; n]),
        )
        .tensor("A2", csr.clone(), empty_csr(n, m))
        .tensor("A3", Format::blocked_dense_matrix(), zeros(i3, WIDTH))
        .tensor("A4", csr.clone(), empty_csr(i3, j3))
        .tensor("A5", csr.clone(), empty_csr(n, m))
        .tensor("B0", csr.clone(), b.clone())
        .tensor("B3", Format::blocked_csf3(), b3)
        .tensor("C0", dense.clone(), matrix(m, WIDTH, 43))
        .tensor(
            "c1",
            Format::replicated_dense_vec(),
            dense_vector(generate::dense_vec(m, 44)),
        )
        .tensor("C2", dense.clone(), matrix(n, WIDTH, 45))
        .tensor("D2", dense.clone(), matrix(WIDTH, m, 46))
        .tensor("C3", dense.clone(), matrix(j3, WIDTH, 47))
        .tensor("D3", dense, matrix(k3, WIDTH, 48))
        .tensor(
            "c4",
            Format::replicated_dense_vec(),
            dense_vector(generate::dense_vec(k3, 49)),
        )
        .tensor("C5", csr.clone(), generate::shift_last_dim(&b, 3))
        .tensor("D5", csr, generate::shift_last_dim(&b, 11))
        .stmt("A0(i,j) = B0(i,k) * C0(k,j)")
        .schedule(outer())
        .stmt("a1(i) = B0(i,j) * c1(j)")
        .schedule(outer())
        .stmt("A2(i,j) = B0(i,j) * C2(i,k) * D2(k,j)")
        .schedule(outer())
        .stmt("A3(i,l) = B3(i,j,k) * C3(j,l) * D3(k,l)")
        .schedule(outer())
        .stmt("A4(i,j) = B3(i,j,k) * c4(k)")
        .schedule(outer())
        .stmt("A5(i,j) = B0(i,j) + C5(i,j) + D5(i,j)")
        .schedule(outer())
        .build()
        .unwrap()
}

const SWEEP_OUTPUTS: [&str; 6] = ["A0", "a1", "A2", "A3", "A4", "A5"];

fn value(p: &CompiledProgram, k: usize) -> &SpTensor {
    p.value(k).unwrap().as_tensor().unwrap()
}

fn bits(t: &SpTensor) -> Vec<u64> {
    t.vals().iter().map(|v| v.to_bits()).collect()
}

/// Where a CSR matrix's column coordinates live.
fn csr_crd(t: &SpTensor) -> *const i64 {
    let Level::Compressed { crd, .. } = t.level(1) else {
        panic!("not CSR");
    };
    crd.as_ptr()
}

#[test]
fn a_cached_pass_leaves_one_copy_of_each_output() {
    let mut p = sweep();
    p.run().unwrap();
    p.run().unwrap();
    for (k, out) in SWEEP_OUTPUTS.into_iter().enumerate() {
        assert_registered_is_value(&p, k, out, out);
        let registered = &p.context().tensor(out).unwrap().data;
        assert_eq!(
            value(&p, k).vals().as_ptr(),
            registered.vals().as_ptr(),
            "{out}: the value is the registration's buffer"
        );
    }
    let driver = &p.context().tensor("B0").unwrap().data;
    assert_eq!(csr_crd(value(&p, 2)), csr_crd(driver), "SDDMM: B0's crd");

    // Held across a pass that computes new values, then across a write to
    // each registration: the held values never move.
    let held: Vec<SpTensor> = (0..6).map(|k| value(&p, k).clone()).collect();
    let held_bits: Vec<Vec<u64>> = held.iter().map(bits).collect();
    for driver in ["B0", "B3"] {
        let batch: Vec<CoordDelta> = p.context().tensor(driver).unwrap().data.to_coo()[..2]
            .iter()
            .map(|(coord, v)| CoordDelta::overwrite(coord.clone(), 2.0 * v + 1.0))
            .collect();
        p.update_batch(driver, &batch).unwrap();
    }
    p.run().unwrap();
    let third: Vec<Vec<u64>> = (0..6).map(|k| bits(value(&p, k))).collect();
    for (k, out) in SWEEP_OUTPUTS.into_iter().enumerate() {
        assert_eq!(bits(&held[k]), held_bits[k], "{out}: held through pass 3");
        assert_ne!(third[k], held_bits[k], "{out}: pass 3 computed new values");
        p.tensor_data_mut(out).unwrap().fill(-7.25);
        assert_eq!(bits(&held[k]), held_bits[k], "{out}: held through a write");
        assert_eq!(bits(value(&p, k)), third[k], "{out}: pass 3's value too");
    }
}

/// `A = B + C + D` over the given operands, outer-dim, traced.
fn spadd3(b: &SpTensor, c: &SpTensor, d: &SpTensor) -> CompiledProgram {
    let (n, m) = (b.dims()[0], b.dims()[1]);
    let csr = Format::blocked_csr();
    Program::on(machine())
        .trace(Trace::enabled())
        .tensor("A", csr.clone(), empty_csr(n, m))
        .tensor("B", csr.clone(), b.clone())
        .tensor("C", csr.clone(), c.clone())
        .tensor("D", csr, d.clone())
        .stmt("A(i,j) = B(i,j) + C(i,j) + D(i,j)")
        .schedule(ScheduleSpec::outer_dim())
        .build()
        .unwrap()
}

/// SpAdd3's assembled output is written by value while its pattern cannot
/// have moved — the registration is what the last write-back left, and B,
/// C and D still hold the very pattern arrays it merged — and re-registered
/// otherwise. A cached pass and a value-only batch on C keep the by-value
/// arm (every region renewed, the value the registration's own buffer); a
/// structural batch on C that keeps C's nnz and the output's re-registers,
/// and so does C re-registered around equal but newly built arrays. After
/// every pass the output is a fresh program's, pattern and bits.
#[test]
fn spadd3_writes_an_unchanged_pattern_by_value() {
    let b = driver("spadd3");
    let (c, d) = (
        generate::shift_last_dim(&b, 3),
        generate::shift_last_dim(&b, 11),
    );
    let mut p = spadd3(&b, &c, &d);
    let arms = |p: &CompiledProgram| {
        let m = p.trace().metrics().unwrap();
        let count = |name: &str| m.counter(name).get();
        (count("writeback.reregistered"), count("writeback.by_value"))
    };
    let operand = |p: &CompiledProgram, name: &str| p.context().tensor(name).unwrap().data.clone();
    let step = |p: &mut CompiledProgram, arms_after: (u64, u64), what: &str| {
        pass(p, false, 0, "A", what);
        assert_eq!(arms(p), arms_after, "{what}: write-back arms");
        let got = value(p, 0);
        let registered = &p.context().tensor("A").unwrap().data;
        assert_eq!(got.vals().as_ptr(), registered.vals().as_ptr(), "{what}");
        let mut fresh = spadd3(&operand(p, "B"), &operand(p, "C"), &operand(p, "D"));
        fresh.run().unwrap();
        assert_eq!(got.levels(), value(&fresh, 0).levels(), "{what}: pattern");
        assert_eq!(bits(got), bits(value(&fresh, 0)), "{what}: values");
    };
    step(&mut p, (1, 0), "first run");
    step(&mut p, (1, 1), "cached run");

    let stored = operand(&p, "C").to_coo();
    let batch: Vec<CoordDelta> = stored[..2]
        .iter()
        .map(|(coord, v)| CoordDelta::overwrite(coord.clone(), 2.0 * v - 1.0))
        .collect();
    assert!(!p.update_batch("C", &batch).unwrap().structural);
    step(&mut p, (1, 2), "value-only batch on C");

    // Move one of C's entries to a column no operand stores in its row: C's
    // nnz and the output's stay, the output's pattern moves.
    let present = |t: &SpTensor, at: &[i64]| t.locate(at).is_some();
    let lone = |at: &[i64]| !present(&b, at) && !present(&d, at);
    let (gone, _) = stored
        .iter()
        .find(|(at, _)| lone(at))
        .expect("C stores an entry no other operand does");
    let moved = (0..b.dims()[1] as i64)
        .map(|col| vec![gone[0], col])
        .find(|at| lone(at) && !present(&c, at))
        .expect("a free column in the row");
    let nnz = value(&p, 0).num_stored();
    let batch = [
        CoordDelta::delete(gone.clone()),
        CoordDelta::insert(moved, 0.75),
    ];
    let report = p.update_batch("C", &batch).unwrap();
    assert!(report.structural && operand(&p, "C").num_stored() == c.num_stored());
    step(&mut p, (2, 2), "structural batch on C keeping nnz");
    assert_eq!(value(&p, 0).num_stored(), nnz, "the output's nnz stayed");
    step(&mut p, (2, 3), "cached run over the new pattern");

    // Equal pattern, new arrays: not the arrays the last write merged.
    let now = operand(&p, "C");
    let rebuilt = SpTensor::from_parts(
        now.dims().to_vec(),
        now.levels().to_vec(),
        now.vals().to_vec(),
    );
    let ctx = p.context_mut();
    ctx.add_tensor("C", rebuilt, Format::blocked_csr()).unwrap();
    step(&mut p, (3, 3), "C re-registered around new arrays");
    step(&mut p, (3, 4), "cached run after that");
}
