//! The in-process workloads: what one *op* is, how it is warmed, and how
//! each op's output is verified.
//!
//! Owns: the `Client`/`Workload` contract the measuring loop drives, and
//! `iter_small`, `iter_heavy`, `compile_cold`, `stream_delta`
//! (`serve_closed` lives in `serve`).
//! Does not own: timing, statistics, metric names (`measure`).
//!
//! Every client calls only public functions of the program under test and
//! wraps each call in a benchmark-side span.

use spdistal::prelude::*;
use spdistal_sparse::{reference, SpTensor};

use crate::host::Pid;
use crate::spans::SpanRecorder;
use crate::spec::{
    self, check_program, program_checksum, Checksum, Expected, ProgramSpec, TOLERANCE, WIDTH,
};

/// One closed-loop caller. For every op the measuring loop calls `prepare`
/// (untimed), `op` (timed), then — untimed — `account` and `check`.
pub trait Client: Send {
    /// Untimed work an op needs but a user would not wait for.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One op. Its latency excludes `prepare` and `check`.
    fn op(&mut self, rec: &mut SpanRecorder) -> Result<(), String>;

    /// Bookkeeping after an op that returned `Ok`, exactly once per op.
    fn account(&mut self);

    /// Verify the op that just ran: always its checksum against the
    /// expected bit pattern, and with `full` its values against the serial
    /// reference. Verifies only — calling it twice changes nothing.
    fn check(&mut self, full: bool) -> Result<(), String>;

    /// Counts gathered while the ops ran, for the traced pass.
    fn counts(&self) -> LayerCounts {
        LayerCounts::default()
    }

    /// The in-process program whose last run the per-layer table reads
    /// (`None` for a client that talks to a server).
    fn program(&self) -> Option<&CompiledProgram> {
        None
    }
}

/// A set-up workload: its clients, the process to charge, its program.
pub trait Workload {
    fn clients(&mut self) -> Vec<&mut dyn Client>;

    /// The process whose peak memory (and CPU) this workload is charged.
    fn pid(&self) -> Pid {
        Pid::Own
    }

    fn spec(&self) -> &ProgramSpec;

    /// Workload-specific per-layer metrics measured after the window
    /// (`name`, value), probing with this workload's own inputs.
    fn probe(&mut self, _rec: &mut SpanRecorder) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }

    /// Stop whatever set-up started and wait for it.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Counts a client keeps per timed op, summed over its ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub ops: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub spans: u64,
    pub steals: u64,
    /// Ops refused with `queue_full` (serving only).
    pub refused: u64,
    /// `run_incremental` passes that fell back to a full recompute.
    pub fallbacks: u64,
    /// Seconds the server reported executing (serving only).
    pub server_exec_seconds: f64,
}

impl LayerCounts {
    pub fn merge(&mut self, o: &LayerCounts) {
        self.ops += o.ops;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.spans += o.spans;
        self.steals += o.steals;
        self.refused += o.refused;
        self.fallbacks += o.fallbacks;
        self.server_exec_seconds += o.server_exec_seconds;
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Cumulative counters of a program, to difference around an op.
#[derive(Clone, Copy, Default)]
struct Cumulative {
    hits: u64,
    misses: u64,
    spans: u64,
    steals: u64,
}

impl Cumulative {
    fn of(p: &CompiledProgram) -> Cumulative {
        Cumulative {
            hits: p.plan_cache().hits(),
            misses: p.plan_cache().misses(),
            spans: p.report().spans as u64,
            steals: p.report().steals as u64,
        }
    }

    fn charge(&self, now: &Cumulative, counts: &mut LayerCounts) {
        counts.cache_hits += now.hits - self.hits;
        counts.cache_misses += now.misses - self.misses;
        counts.spans += now.spans - self.spans;
        counts.steals += now.steals - self.steals;
    }
}

/// The correctness gate of a program whose every op must produce the same
/// output: the first op's checksum, and the oracle's expectation (computed
/// when first needed).
#[derive(Default)]
struct Gate {
    first_sum: Option<Checksum>,
    expected: Option<Vec<Expected>>,
}

impl Gate {
    /// Every op: bit-identical to the first. With `full`: against the
    /// serial reference too.
    fn check(
        &mut self,
        program: &CompiledProgram,
        spec: &ProgramSpec,
        full: bool,
    ) -> Result<(), String> {
        program_checksum(program).same_as_first(&mut self.first_sum)?;
        if full {
            let expected = self.expected.get_or_insert_with(|| spec::oracle(spec));
            check_program(program, expected)?;
        }
        Ok(())
    }
}

// ---- iter_small / iter_heavy --------------------------------------------

/// Ops one compiled program serves before it is rebuilt (untimed).
///
/// A cached iteration gets slower the longer its program lives (every run
/// registers new regions with the runtime model, later runs scan them, and
/// the heap ages: `iter_small` goes from 5.7 ms raw to 7.5 ms by iteration
/// 2 500), so "the latency of an iteration" depends on how many came
/// before. A fixed lifetime makes the op stationary: every window samples
/// iterations 1..=256 of a program, however fast the machine is or long
/// the window.
pub const PROGRAM_LIFETIME: u64 = 256;

/// Untimed iterations after a build: the first compiles every plan, the
/// second lets the auto-scheduler's warm-up feedback settle.
const WARMUP_RUNS: usize = 2;

/// `iter_small` / `iter_heavy`: one cached `CompiledProgram::run()`.
pub struct IterWorkload {
    spec: ProgramSpec,
    client: IterClient,
}

struct IterClient {
    spec: ProgramSpec,
    trace: Trace,
    program: CompiledProgram,
    gate: Gate,
    ops_in_life: u64,
    before: Cumulative,
    counts: LayerCounts,
}

fn build_warm(spec: &ProgramSpec, trace: &Trace) -> Result<CompiledProgram, String> {
    let mut program = spec.build(trace).map_err(err)?;
    program.run_iters(WARMUP_RUNS).map_err(err)?;
    Ok(program)
}

impl IterWorkload {
    pub fn setup(spec: ProgramSpec, trace: Trace) -> Result<IterWorkload, String> {
        let program = build_warm(&spec, &trace)?;
        Ok(IterWorkload {
            client: IterClient {
                spec: spec.clone(),
                trace,
                program,
                gate: Gate::default(),
                ops_in_life: 0,
                before: Cumulative::default(),
                counts: LayerCounts::default(),
            },
            spec,
        })
    }
}

impl Client for IterClient {
    fn prepare(&mut self) -> Result<(), String> {
        if self.ops_in_life == PROGRAM_LIFETIME {
            self.program = build_warm(&self.spec, &self.trace)?;
            self.ops_in_life = 0;
        }
        self.before = Cumulative::of(&self.program);
        Ok(())
    }

    fn op(&mut self, rec: &mut SpanRecorder) -> Result<(), String> {
        let program = &mut self.program;
        rec.span("program.run", || program.run().map(|_| ()))
            .map_err(err)
    }

    fn account(&mut self) {
        self.ops_in_life += 1;
        self.counts.ops += 1;
        self.before
            .charge(&Cumulative::of(&self.program), &mut self.counts);
    }

    fn check(&mut self, full: bool) -> Result<(), String> {
        self.gate.check(&self.program, &self.spec, full)
    }

    fn counts(&self) -> LayerCounts {
        self.counts
    }

    fn program(&self) -> Option<&CompiledProgram> {
        Some(&self.program)
    }
}

impl Workload for IterWorkload {
    fn clients(&mut self) -> Vec<&mut dyn Client> {
        vec![&mut self.client]
    }

    fn spec(&self) -> &ProgramSpec {
        &self.spec
    }
}

// ---- compile_cold -------------------------------------------------------

/// `compile_cold`: `Program::build()` plus the first `run()` against a
/// fresh plan cache, so every statement misses, compiles and inserts.
pub struct ColdWorkload {
    spec: ProgramSpec,
    client: ColdClient,
}

struct ColdClient {
    spec: ProgramSpec,
    trace: Trace,
    /// Inputs cloned by `prepare`, consumed by `op`.
    inputs: Option<Vec<(String, Format, SpTensor)>>,
    program: Option<CompiledProgram>,
    gate: Gate,
    counts: LayerCounts,
}

impl ColdWorkload {
    pub fn setup(spec: ProgramSpec, trace: Trace) -> Result<ColdWorkload, String> {
        let mut client = ColdClient {
            spec: spec.clone(),
            trace,
            inputs: None,
            program: None,
            gate: Gate::default(),
            counts: LayerCounts::default(),
        };
        // Warm-up: one whole op, so allocator and page-cache state match
        // the timed ones.
        client.prepare()?;
        client.op(&mut SpanRecorder::new(false, std::time::Instant::now(), 0))?;
        Ok(ColdWorkload { spec, client })
    }
}

impl Client for ColdClient {
    fn prepare(&mut self) -> Result<(), String> {
        // Freeing the previous program and cloning the inputs are the
        // benchmark's costs, not the compiler's.
        self.program = None;
        self.inputs = Some(self.spec.cloned_tensors());
        Ok(())
    }

    fn op(&mut self, rec: &mut SpanRecorder) -> Result<(), String> {
        let inputs = self.inputs.take().ok_or("op without prepare")?;
        let (spec, trace) = (&self.spec, &self.trace);
        let declared = rec.span("program.declare", || spec.declare(inputs, trace));
        let mut program = rec
            .span("program.build", || declared.build())
            .map_err(err)?;
        rec.span("program.first_run", || program.run().map(|_| ()))
            .map_err(err)?;
        self.program = Some(program);
        Ok(())
    }

    fn account(&mut self) {
        self.counts.ops += 1;
        if let Some(program) = &self.program {
            Cumulative::default().charge(&Cumulative::of(program), &mut self.counts);
        }
    }

    fn check(&mut self, full: bool) -> Result<(), String> {
        let program = self.program.as_ref().ok_or("op left no program")?;
        self.gate.check(program, &self.spec, full)
    }

    fn counts(&self) -> LayerCounts {
        self.counts
    }

    fn program(&self) -> Option<&CompiledProgram> {
        self.program.as_ref()
    }
}

impl Workload for ColdWorkload {
    fn clients(&mut self) -> Vec<&mut dyn Client> {
        vec![&mut self.client]
    }

    fn spec(&self) -> &ProgramSpec {
        &self.spec
    }
}

// ---- stream_delta -------------------------------------------------------

/// Distinct delta batches; ops cycle through them.
const STREAM_BATCHES: usize = 8;

/// `stream_delta`: `update_batch` + `run_incremental`, ingestion inside
/// the timed op.
///
/// Every batch overwrites the *same* 1 % of rows (one stored entry per
/// row — the diagonal — inside a single color, at a seed-derived place)
/// with its own values, so the tensor after batch `k` depends on `k`
/// alone and every op's output bits can be checked against the first time
/// batch `k` was applied, which in turn was checked against the serial
/// reference and a fresh full program.
pub struct StreamWorkload {
    spec: ProgramSpec,
    client: StreamClient,
}

struct StreamClient {
    spec: ProgramSpec,
    trace: Trace,
    program: CompiledProgram,
    /// The benchmark's own copy of `B` with every batch applied — the
    /// oracle's input, never read back from the program.
    mirror: SpTensor,
    /// Position in `mirror.vals()` of each overwritten coordinate.
    positions: Vec<usize>,
    batches: Vec<Vec<CoordDelta>>,
    next: usize,
    applied: usize,
    sums: Vec<Option<Checksum>>,
    ops_in_life: u64,
    counts: LayerCounts,
}

/// The rows every batch dirties: 1 % of the rows, contiguous, inside one
/// color, placed by the seed.
fn stream_rows(seed: u64) -> std::ops::Range<usize> {
    let per_color = spec::STREAM_ROWS / spec::STREAM_PIECES;
    let count = spec::STREAM_ROWS / 100;
    let color = (spec::sub_seed(seed, 32) % spec::STREAM_PIECES as u64) as usize;
    let offset = (spec::sub_seed(seed, 33) % (per_color - count) as u64) as usize;
    let start = color * per_color + offset;
    start..start + count
}

impl StreamWorkload {
    pub fn setup(spec: ProgramSpec, seed: u64, trace: Trace) -> Result<StreamWorkload, String> {
        let rows = stream_rows(seed);
        let mirror = spec.tensor("B").clone();
        let (pos, crd, _) = mirror.csr_views().ok_or("stream driver is not CSR")?;
        let positions: Vec<usize> = rows
            .clone()
            .map(|r| {
                let (lo, hi) = (pos[r].lo as usize, pos[r].hi as usize);
                (lo..=hi)
                    .find(|&p| crd[p] == r as i64)
                    .ok_or_else(|| format!("row {r} stores no diagonal"))
            })
            .collect::<Result<_, _>>()?;
        let batches = (0..STREAM_BATCHES)
            .map(|k| {
                let vals = spdistal_sparse::generate::dense_vec(
                    rows.len(),
                    spec::sub_seed(seed, 50 + k as u64),
                );
                rows.clone()
                    .zip(vals)
                    .map(|(r, v)| CoordDelta::overwrite(vec![r as i64, r as i64], v))
                    .collect()
            })
            .collect();
        let mut program = spec.build(&trace).map_err(err)?;
        program.run().map_err(err)?;
        let mut client = StreamClient {
            spec: spec.clone(),
            trace,
            program,
            mirror,
            positions,
            batches,
            next: 0,
            applied: 0,
            sums: vec![None; STREAM_BATCHES],
            ops_in_life: 0,
            counts: LayerCounts::default(),
        };
        // Warm-up: one whole untimed op (verified when its batch comes
        // round again inside the window).
        client.op(&mut SpanRecorder::new(false, std::time::Instant::now(), 0))?;
        client.account();
        client.counts = LayerCounts::default();
        client.ops_in_life = 0;
        Ok(StreamWorkload { spec, client })
    }
}

impl StreamClient {
    fn apply_to_mirror(&mut self, k: usize) {
        let vals = self.mirror.vals_mut();
        for (p, d) in self.positions.iter().zip(&self.batches[k]) {
            vals[*p] = d.val;
        }
    }

    /// The program's output against the serial reference over the mirror,
    /// and bit-for-bit against a fresh full program over the mirror.
    fn full_check(&self) -> Result<(), String> {
        let got = self.program.value(0).ok_or("no output")?;
        let c = self.spec.tensor("C").vals();
        let expected = reference::spmm(&self.mirror, c, WIDTH);
        if !reference::approx_eq(spec::vals_of(got), &expected, TOLERANCE) {
            return Err("incremental output differs from the serial reference".to_string());
        }
        let mut fresh_spec = self.spec.clone();
        *fresh_spec.tensor_mut("B") = self.mirror.clone();
        let mut fresh = fresh_spec.build(&Trace::disabled()).map_err(err)?;
        fresh.run().map_err(err)?;
        if program_checksum(&fresh) != program_checksum(&self.program) {
            return Err("incremental output bits differ from a fresh full program's".to_string());
        }
        Ok(())
    }
}

impl Client for StreamClient {
    fn prepare(&mut self) -> Result<(), String> {
        if self.ops_in_life == PROGRAM_LIFETIME {
            // Rebuild over the mirror: the new program continues the
            // stream where the old one stopped.
            let mut spec = self.spec.clone();
            *spec.tensor_mut("B") = self.mirror.clone();
            let mut program = spec.build(&self.trace).map_err(err)?;
            program.run().map_err(err)?;
            self.program = program;
            self.ops_in_life = 0;
        }
        Ok(())
    }

    fn op(&mut self, rec: &mut SpanRecorder) -> Result<(), String> {
        let k = self.next;
        let (program, batch) = (&mut self.program, &self.batches[k]);
        rec.span("streaming.update_batch", || {
            program.update_batch("B", batch).map(|_| ())
        })
        .map_err(err)?;
        rec.span("streaming.run_incremental", || {
            program.run_incremental().map(|_| ())
        })
        .map_err(err)?;
        self.applied = k;
        self.next = (k + 1) % STREAM_BATCHES;
        Ok(())
    }

    fn account(&mut self) {
        self.apply_to_mirror(self.applied);
        self.ops_in_life += 1;
        self.counts.ops += 1;
        if self.program.last_incremental(0).is_some_and(|s| s.fallback) {
            self.counts.fallbacks += 1;
        }
    }

    fn check(&mut self, full: bool) -> Result<(), String> {
        let k = self.applied;
        let sum = program_checksum(&self.program);
        match self.sums[k] {
            Some(first) if first != sum => {
                return Err(format!(
                    "output bits differ from the first time batch {k} was applied"
                ))
            }
            Some(_) if !full => return Ok(()),
            _ => {}
        }
        // First sight of batch `k`, or a scheduled full check.
        self.full_check()?;
        self.sums[k] = Some(sum);
        Ok(())
    }

    fn counts(&self) -> LayerCounts {
        self.counts
    }

    fn program(&self) -> Option<&CompiledProgram> {
        Some(&self.program)
    }
}

impl Workload for StreamWorkload {
    fn clients(&mut self) -> Vec<&mut dyn Client> {
        vec![&mut self.client]
    }

    fn spec(&self) -> &ProgramSpec {
        &self.spec
    }

    /// The streaming layer's other paths on the same program: a full
    /// `run()` over the mutated tensor, and a structural batch (a delete
    /// and its re-insert) with the full recompute it forces.
    fn probe(&mut self, rec: &mut SpanRecorder) -> Result<Vec<(&'static str, f64)>, String> {
        const REPS: usize = 5;
        let c = &mut self.client;
        let mut full_us = Vec::new();
        let mut structural_us = Vec::new();
        let coord = c.batches[0][0].coord.clone();
        let kept = c.mirror.vals()[c.positions[0]];
        for _ in 0..REPS {
            let t0 = std::time::Instant::now();
            let program = &mut c.program;
            rec.span("streaming.full_run", || program.run().map(|_| ()))
                .map_err(err)?;
            full_us.push(t0.elapsed().as_secs_f64() * 1e6);

            let t0 = std::time::Instant::now();
            rec.span("streaming.structural", || {
                program.update_batch("B", &[CoordDelta::delete(coord.clone())])?;
                program.update_batch("B", &[CoordDelta::insert(coord.clone(), kept)])?;
                program.run_incremental().map(|_| ())
            })
            .map_err(err)?;
            structural_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        c.full_check()?;
        Ok(vec![
            ("streaming.full_run_us", crate::stats::median(&full_us)),
            (
                "streaming.structural_us",
                crate::stats::median(&structural_us),
            ),
        ])
    }
}
