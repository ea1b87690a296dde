//! Pins the machine *model*, not just the computed values: the simulated
//! time, traffic and per-launch [`ModelTiming`] of two small programs must
//! equal, bit for bit, what the commit before the O(runs touched) coherence
//! rewrite produced. The constants below were recorded from that parent
//! commit; any change that moves them changed the paper's cost model.
//!
//! A second test runs the chain 2 000 times and checks that the runtime's
//! state is bounded by the program rather than by its age, and that from
//! the third iteration on the model replays every launch.

use spdistal_repro::sparse::{convert, dense_matrix, dense_vector, generate};
use spdistal_repro::spdistal::prelude::*;

const PIECES: usize = 8;
const ITERS: usize = 5;
const WIDTH: usize = 8;

fn machine() -> Machine {
    Machine::grid1d(PIECES, MachineProfile::lassen_cpu())
}

fn zeros(n: usize) -> spdistal_repro::sparse::SpTensor {
    dense_vector(vec![0.0; n])
}

/// `x1 = B·x0; x2 = B·x1; x3 = B·x2` over an R-MAT matrix on 8 pieces (the
/// shape of the benchmark's `iter_small`).
fn chain(scale: u32, nnz: usize) -> CompiledProgram {
    let b = generate::rmat_default(scale, nnz, 31);
    let n = b.dims()[0];
    Program::on(machine())
        .tensor("B", Format::blocked_csr(), b)
        .tensor(
            "x0",
            Format::replicated_dense_vec(),
            dense_vector(generate::dense_vec(n, 32)),
        )
        .tensor("x1", Format::blocked_dense_vec(), zeros(n))
        .tensor("x2", Format::blocked_dense_vec(), zeros(n))
        .tensor("x3", Format::blocked_dense_vec(), zeros(n))
        .stmt("x1(i) = B(i,j) * x0(j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("x2(i) = B(i,j) * x1(j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("x3(i) = B(i,j) * x2(j)")
        .schedule(ScheduleSpec::outer_dim())
        .build()
        .unwrap()
}

/// The six evaluation kernels as independent statements (the shape of the
/// benchmark's `iter_heavy`/`compile_cold`, at a size a debug build runs in
/// well under a second): in-place and assembled outputs, row and non-zero
/// schedules, staged and replicated operands, one shared driver.
fn sweep() -> CompiledProgram {
    let scale = 8;
    let n = 1usize << scale;
    let skewed = |seed: u64, nnz: usize| generate::rmat_clustered(scale, nnz, 0.9, seed);
    let mat = |rows: usize, cols: usize, seed: u64| {
        dense_matrix(rows, cols, generate::dense_buffer(rows, cols, seed))
    };
    let b2 = skewed(43, 3000);
    let dims3 = [n / 4, 16, 16];
    let b3 = generate::tensor3_skewed(dims3, 3000, 1.1, 44);
    let b5 = skewed(45, 3000);
    let a2_format = Format::new(
        Format::blocked_csr().levels.clone(),
        spdistal_repro::ir::Distribution::new("xy", "x").unwrap(),
    );
    let a4 = spdistal_repro::spdistal::kernels::tensor3::spttv_output(
        &b3,
        vec![0.0; spdistal_repro::spdistal::level_funcs::entry_counts(&b3)[1] as usize],
    );
    Program::on(machine())
        .tensor(
            "A0",
            Format::blocked_dense_matrix(),
            dense_matrix(n, WIDTH, vec![0.0; n * WIDTH]),
        )
        .tensor("B0", Format::blocked_csr(), skewed(41, 3000))
        .tensor("C0", Format::replicated_dense_matrix(), mat(n, WIDTH, 51))
        .tensor("a1", Format::blocked_dense_vec(), zeros(n))
        .tensor(
            "B1",
            Format::blocked_dcsr(),
            convert::to_dcsr(&skewed(42, 3000)),
        )
        .tensor(
            "c1",
            Format::replicated_dense_vec(),
            dense_vector(generate::dense_vec(n, 52)),
        )
        .tensor("A2", a2_format, b2.clone())
        .tensor("B2", Format::nonzero_csr(), b2)
        .tensor("C2", Format::staged_dense_matrix(), mat(n, WIDTH, 53))
        .tensor("D2", Format::staged_dense_matrix(), mat(WIDTH, n, 54))
        .tensor(
            "A3",
            Format::blocked_dense_matrix(),
            dense_matrix(dims3[0], WIDTH, vec![0.0; dims3[0] * WIDTH]),
        )
        .tensor("B3", Format::blocked_csf3(), b3)
        .tensor(
            "C3",
            Format::replicated_dense_matrix(),
            mat(dims3[1], WIDTH, 55),
        )
        .tensor(
            "D3",
            Format::replicated_dense_matrix(),
            mat(dims3[2], WIDTH, 56),
        )
        .tensor("A4", Format::blocked_csr(), a4)
        .tensor(
            "c4",
            Format::replicated_dense_vec(),
            dense_vector(generate::dense_vec(dims3[2], 57)),
        )
        .tensor(
            "A5",
            Format::blocked_csr(),
            spdistal_repro::spdistal::plan::empty_csr(n, n),
        )
        .tensor(
            "C5",
            Format::blocked_csr(),
            generate::shift_last_dim(&b5, 1),
        )
        .tensor(
            "D5",
            Format::blocked_csr(),
            generate::shift_last_dim(&b5, 2),
        )
        .tensor("B5", Format::blocked_csr(), b5)
        .stmt("A0(i,j) = B0(i,k) * C0(k,j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("a1(i) = B1(i,j) * c1(j)")
        .schedule(ScheduleSpec::nonzero())
        .stmt("A2(i,j) = B2(i,j) * C2(i,k) * D2(k,j)")
        .schedule(ScheduleSpec::nonzero())
        .stmt("A3(i,l) = B3(i,j,k) * C3(j,l) * D3(k,l)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("A4(i,j) = B3(i,j,k) * c4(k)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("A5(i,j) = B5(i,j) + C5(i,j) + D5(i,j)")
        .schedule(ScheduleSpec::outer_dim())
        .build()
        .unwrap()
}

/// What one iteration's model phase reported, folded to a few words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Iteration {
    /// Σ over statements of `ExecResult::time`, as `to_bits` of the sum.
    time_bits: u64,
    comm_bytes: u64,
    messages: u64,
    /// FNV-1a over every statement's `time`/`comm_bytes`/`messages` and
    /// every issued launch's traffic, `clock_after` and [`ModelTiming`].
    digest: u64,
}

fn fold(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h = (*h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn observe(program: &CompiledProgram) -> Iteration {
    let mut it = Iteration {
        time_bits: 0,
        comm_bytes: 0,
        messages: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let mut time = 0.0f64;
    for k in 0..program.stmt_count() {
        let r = program.result(k).expect("every statement ran");
        time += r.time;
        it.comm_bytes += r.comm_bytes;
        it.messages += r.messages;
        let h = &mut it.digest;
        fold(h, r.time.to_bits());
        fold(h, r.comm_bytes);
        fold(h, r.messages);
        for rec in &r.records {
            fold(h, rec.comm_bytes);
            fold(h, rec.messages);
            fold(h, rec.clock_after.to_bits());
            for v in [
                rec.model.issue,
                rec.model.start,
                rec.model.finish,
                rec.model.seq_span,
            ] {
                fold(h, v.to_bits());
            }
        }
        for l in &r.launches {
            fold(h, l.model.finish.to_bits());
            fold(h, l.model.seq_span.to_bits());
        }
    }
    it.time_bits = time.to_bits();
    it
}

fn run_and_observe(mut program: CompiledProgram) -> Vec<Iteration> {
    (0..ITERS)
        .map(|_| {
            program.run().unwrap();
            observe(&program)
        })
        .collect()
}

const fn it(time_bits: u64, comm_bytes: u64, messages: u64, digest: u64) -> Iteration {
    Iteration {
        time_bits,
        comm_bytes,
        messages,
        digest,
    }
}

// Recorded from the parent commit (4383da6) with this very file.
const CHAIN: [Iteration; ITERS] = [
    it(0x3f52048aaa9ba60a, 0xa3b0, 0xd46, 0x14ce8f99ff8f2c0e),
    it(0x3f52048aaa9ba60a, 0xa3b0, 0xd46, 0xbf1c68350c656007),
    it(0x3f52048aaa9ba60a, 0xa3b0, 0xd46, 0x34f67771bd9bef55),
    it(0x3f52048aaa9ba60a, 0xa3b0, 0xd46, 0xed3ea012016b9711),
    it(0x3f52048aaa9ba608, 0xa3b0, 0xd46, 0xb3b3aaaa809ba9a7),
];
const SWEEP: [Iteration; ITERS] = [
    it(0x3f52f5002ac6cacf, 0x12d00, 0xa6b, 0x5ab5025d70e5ff95),
    it(0x3f37c8c04101e1b0, 0x30, 0x7, 0x0dfa1fa364914848),
    it(0x3f37c8c04101e1b0, 0x30, 0x7, 0x95d1fec51ad450fe),
    it(0x3f37c8c04101e1a4, 0x30, 0x7, 0x1866b99e3aab4bdd),
    it(0x3f37c8c04101e1b0, 0x30, 0x7, 0x2b863713a4f7bcb9),
];

#[test]
fn chain_model_matches_the_parent_commit() {
    assert_eq!(run_and_observe(chain(10, 12_000)), CHAIN);
}

#[test]
fn sweep_model_matches_the_parent_commit() {
    assert_eq!(run_and_observe(sweep()), SWEEP);
}

/// What must not depend on how many iterations came before.
#[derive(Debug, PartialEq)]
struct Steady {
    live_regions: usize,
    /// Every registered tensor's region ids: a write-back by value renews
    /// coherence under the ids a tensor has.
    ids: Vec<Vec<spdistal_repro::runtime::RegionId>>,
    resident: Vec<u64>,
    comm_bytes: u64,
    messages: u64,
    /// Each statement's `seq_span` (`to_bits`): per-launch serialized task
    /// time from a synchronized start, so it is independent of the clocks.
    seq_spans: Vec<u64>,
}

/// 2 000 iterations of the chain: every run registers an output region and
/// retires it, and writes its output tensor back by value under the
/// regions it has (the first run re-registers it), so the runtime's region
/// table, every tensor's region ids and residency at iteration 2 000 are
/// those of iteration 10, and from iteration 3 on (plans cached, schedules settled)
/// every iteration costs the model the same — so from then on the model
/// replays every launch from its record instead of costing it again. `ExecResult::time` is a
/// difference of the ever-growing canonical clock, so it repeats to
/// rounding (last bits move with the clock's magnitude, as they did at the
/// parent commit — see `CHAIN[4]`), not bit for bit; what it is made of
/// (`seq_span`, traffic) does repeat exactly.
#[test]
fn a_long_lived_program_stays_the_size_of_its_program() {
    let mut program = chain(8, 2_500);
    let steady_at = |program: &CompiledProgram| {
        let ctx = program.context();
        let rt = ctx.runtime();
        let results = (0..program.stmt_count()).map(|k| program.result(k).unwrap());
        Steady {
            live_regions: rt.live_regions(),
            ids: ctx
                .tensor_names()
                .into_iter()
                .map(|name| ctx.tensor(name).unwrap().regions.ids())
                .collect(),
            resident: (0..PIECES).map(|p| rt.resident_bytes(p)).collect(),
            comm_bytes: results.clone().map(|r| r.comm_bytes).sum(),
            messages: results.clone().map(|r| r.messages).sum(),
            seq_spans: results
                .flat_map(|r| r.records.iter().map(|rec| rec.model.seq_span.to_bits()))
                .collect(),
        }
    };
    let time = |program: &CompiledProgram| -> f64 {
        (0..program.stmt_count())
            .map(|k| program.result(k).unwrap().time)
            .sum()
    };
    // Every iteration from the third on equals the third — so in particular
    // iteration 2 000 equals iteration 10.
    let mut third = None;
    let counts = |program: &CompiledProgram| {
        let stats = program.context().runtime().stats();
        (stats.launches, stats.replayed)
    };
    for i in 1..=2000 {
        let (launches, replayed) = counts(&program);
        program.run().unwrap();
        if i < 3 {
            continue;
        }
        let (launches_now, replayed_now) = counts(&program);
        assert_eq!(
            replayed_now - replayed,
            launches_now - launches,
            "iteration {i} costed a launch again"
        );
        let (now, t) = (steady_at(&program), time(&program));
        let (reference, t3) = third.get_or_insert_with(|| (steady_at(&program), t));
        assert_eq!(&now, reference, "iteration {i} differs from iteration 3");
        assert!(
            (t - *t3).abs() <= 1e-9 * *t3,
            "iteration {i} modeled {t} s, iteration 3 modeled {t3} s"
        );
    }
    assert!(third.is_some_and(|(s, _)| s.messages > 0 && s.live_regions > 0));
}
