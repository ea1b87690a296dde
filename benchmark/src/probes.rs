//! Layer probes of the traced pass: each layer's public functions called
//! directly, from outside, on the workload's own inputs.
//!
//! A cached `CompiledProgram::run()` is one public call, so its inside is
//! measured by replaying what it does through the lower public layers —
//! `parse_tin`, `ir::lower`, `Context::{add_tensor, compile, run}`,
//! `PlanCache::lookup`, `Session::{submit, flush}`, the executor, the
//! leaf kernels — each under a benchmark-side span.
//!
//! Owns: the probes that apply to every workload's program.
//! Does not own: probes of one workload's private path (`workloads`,
//! `serve`), or anything reported end to end.

use std::time::Instant;

use spdistal::kernels::specialized::{self, SpecializedKernel};
use spdistal::kernels::{matrix, tensor3, LeafKernel};
use spdistal::level_funcs::{equal_coord_bounds, partition_tensor, universe_partition};
use spdistal::prelude::*;
use spdistal::{AdmissionQueue, OutVals, Plan};
use spdistal_client::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use spdistal_client::proto::{tensor_to_wire, Event, Request, StmtSpec};
use spdistal_ir::{parse_tin, Assignment, Schedule};
use spdistal_runtime::{Executor, TaskGraph};
use spdistal_sparse::CooTensor;

use crate::spans::SpanRecorder;
use crate::spec::{Kern, ProgramSpec, Sched, WIDTH};
use crate::stats::median;

pub type Metric = (String, f64);

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Median microseconds of `reps` calls of `f`, each under a span.
fn time_us<T>(
    rec: &mut SpanRecorder,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(rec.span(name, &mut f));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// What the compile-side replay produced, for the run-side probes.
struct Compiled {
    ctx: Context,
    plans: Vec<Plan>,
    keys: Vec<PlanKey>,
}

/// One replay of what `Program::build` + the first `run` do before
/// executing: register tensors, parse, schedule, lower, compile. Returns
/// the per-layer microseconds of this replay.
fn compile_replay(
    spec: &ProgramSpec,
    kinds: &[Sched],
    rec: &mut SpanRecorder,
) -> Result<(Compiled, [f64; 4]), String> {
    let mut ctx = Context::new(spec.machine())
        .with_exec_mode(spec.mode)
        .with_split_policy(spec.split);
    let inputs = spec.cloned_tensors();
    let t0 = Instant::now();
    for (name, format, data) in inputs {
        rec.span("codegen.add_tensor", || ctx.add_tensor(&name, data, format))
            .map_err(err)?;
    }
    let add_tensor_us = t0.elapsed().as_secs_f64() * 1e6;

    let (mut parse_us, mut lower_us, mut compile_us) = (0.0, 0.0, 0.0);
    let mut plans = Vec::new();
    let mut keys = Vec::new();
    for (s, kind) in spec.stmts.iter().zip(kinds) {
        let t0 = Instant::now();
        let stmt: Assignment = rec
            .span("ir.parse_tin", || parse_tin(&s.tin, ctx.vars_mut()))
            .map_err(err)?;
        parse_us += t0.elapsed().as_secs_f64() * 1e6;

        let unit = ParallelUnit::CpuThread;
        let schedule: Schedule = match kind {
            Sched::Nonzero => {
                let driver = s.kern.driver();
                let depth = spec.tensor(driver).order().min(2);
                spdistal::schedule_nonzero(&mut ctx, &stmt, driver, depth, spec.pieces, unit)
                    .map_err(err)?
            }
            Sched::OuterDim | Sched::Auto => {
                spdistal::schedule_outer_dim(&mut ctx, &stmt, spec.pieces, unit)
            }
        };

        let t0 = Instant::now();
        rec.span("ir.lower", || {
            spdistal_ir::lower(&stmt, &schedule, ctx.vars()).map(|nest| {
                std::hint::black_box(&nest);
            })
        })
        .map_err(err)?;
        lower_us += t0.elapsed().as_secs_f64() * 1e6;

        let t0 = Instant::now();
        let plan = rec
            .span("codegen.compile", || ctx.compile(&stmt, &schedule))
            .map_err(err)?;
        compile_us += t0.elapsed().as_secs_f64() * 1e6;

        let formats: Vec<String> = stmt
            .tensor_names()
            .iter()
            .map(|n| {
                ctx.tensor(n)
                    .map(|t| format!("{n}={}", t.format.signature()))
                    .map_err(err)
            })
            .collect::<Result<_, _>>()?;
        keys.push(PlanKey::new(
            stmt.to_string(),
            schedule.to_string(),
            formats.join("; "),
        ));
        plans.push(plan);
    }
    Ok((
        Compiled { ctx, plans, keys },
        [parse_us, lower_us, add_tensor_us, compile_us],
    ))
}

/// The probes every workload's program gets. `kinds` are the schedule
/// kinds the workload's real program settled on (an `Auto` statement is
/// replayed with what the auto-scheduler chose).
pub fn probe_program(
    spec: &ProgramSpec,
    kinds: &[Sched],
    rec: &mut SpanRecorder,
) -> Result<Vec<Metric>, String> {
    const REPS: usize = 5;
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    // sparse: unpack and re-pack the first statement's driver.
    let driver = spec.tensor(spec.stmts[0].kern.driver());
    put("sparse.driver_nnz", driver.nnz() as f64);
    put(
        "sparse.to_coo_us",
        time_us(rec, "sparse.to_coo", 3, || driver.to_coo()),
    );
    let mut coo = CooTensor::new(driver.dims().to_vec());
    for (coord, v) in driver.to_coo() {
        coo.push(&coord, v);
    }
    let formats = driver.formats();
    put(
        "sparse.pack_us",
        time_us(rec, "sparse.pack", 3, || coo.build(&formats)),
    );

    // ir + core.codegen: three replays, medians; the last one is kept.
    let mut replays = Vec::new();
    let mut compiled = None;
    for _ in 0..3 {
        let (c, us) = compile_replay(spec, kinds, rec)?;
        replays.push(us);
        compiled = Some(c);
    }
    let Compiled {
        mut ctx,
        plans,
        keys,
    } = compiled.ok_or("no compile replay ran")?;
    let column = |k: usize| median(&replays.iter().map(|r| r[k]).collect::<Vec<_>>());
    put("ir.parse_us", column(0));
    put("ir.lower_us", column(1));
    put("codegen.add_tensor_us", column(2));
    put("codegen.compile_us", column(3));
    put(
        "codegen.colors",
        plans.iter().map(|p| p.colors).sum::<usize>() as f64,
    );

    // core.engine: key construction + a hit, per lookup.
    let cache = PlanCache::new();
    for (key, plan) in keys.iter().zip(&plans) {
        cache.insert(key.clone(), plan.clone(), None);
    }
    const LOOKUPS: usize = 2000;
    let off = Trace::disabled();
    let t0 = Instant::now();
    rec.span("engine.lookup", || {
        for k in 0..LOOKUPS {
            let key = &keys[k % keys.len()];
            let key = PlanKey::new(
                key.stmt.as_str(),
                key.schedule.as_str(),
                key.format_sig.as_str(),
            );
            std::hint::black_box(cache.lookup(&key, &off, None));
        }
    });
    put(
        "engine.lookup_hit_ns",
        t0.elapsed().as_secs_f64() * 1e9 / LOOKUPS as f64,
    );

    // core.plan: every statement's plan run launch-at-a-time.
    let (mut run_us, mut drain_us) = (Vec::new(), Vec::new());
    let mut model = (0.0, 0u64, 0u64, 0.0);
    let mut result_vals: Vec<f64> = Vec::new();
    for _ in 0..REPS {
        let (mut run, mut drain) = (0.0, 0.0);
        model = (0.0, 0, 0, 0.0);
        for (k, plan) in plans.iter().enumerate() {
            let t0 = Instant::now();
            let r = rec.span("plan.ctx_run", || ctx.run(plan)).map_err(err)?;
            run += t0.elapsed().as_secs_f64() * 1e6;
            drain += r.wall_time * 1e6;
            model.0 += r.time;
            model.1 += r.comm_bytes;
            model.2 += r.messages;
            model.3 += r.ops;
            if k == 0 {
                result_vals = crate::spec::vals_of(&r.output).to_vec();
            }
        }
        run_us.push(run);
        drain_us.push(drain);
    }
    let (run, drain) = (median(&run_us), median(&drain_us));
    put("plan.ctx_run_us", run);
    put("plan.drain_us", drain);
    put("plan.overhead_us", run - drain);
    // The model is deterministic: the last repetition is every repetition.
    put("probe.model_op_us", model.0 * 1e6);
    put("probe.model_comm_bytes", model.1 as f64);
    put("probe.model_messages", model.2 as f64);
    put("probe.kernel_ops", model.3);

    // core.session: the same plans through one deferred flush.
    put(
        "session.flush_us",
        time_us(rec, "session.flush", REPS, || {
            let mut session = Session::new(&mut ctx);
            for plan in &plans {
                session.submit(plan);
            }
            session.flush().map(|r| r.batches)
        }),
    );

    // runtime.sched: what a drain costs with nothing to do.
    let graph = TaskGraph::independent(spec.pieces);
    let executor = Executor::new(ExecMode::Parallel(2));
    put(
        "sched.drain_empty_us",
        time_us(rec, "sched.drain_empty", 200, || {
            executor.run(&graph, |_, _| {})
        }),
    );

    // core.admission: one job through the queue.
    let queue: AdmissionQueue<u64> = AdmissionQueue::new(64);
    const JOBS: u64 = 10_000;
    let t0 = Instant::now();
    rec.span("admission.roundtrip", || {
        for job in 0..JOBS {
            queue.submit("tenant", job).expect("queue has room");
            std::hint::black_box(queue.next());
        }
    });
    put(
        "admission.roundtrip_ns",
        t0.elapsed().as_secs_f64() * 1e9 / JOBS as f64,
    );

    // client: codec and framing on this program's payloads.
    let submit = Request::Submit {
        stmts: spec
            .stmts
            .iter()
            .map(|s| StmtSpec {
                tin: s.tin.clone(),
                schedule: s.sched.wire_name().to_string(),
            })
            .collect(),
        iters: 1,
        pipelined: true,
    };
    put(
        "proto.encode_submit_us",
        time_us(rec, "proto.encode_submit", 200, || submit.to_json()),
    );
    let result = Event::Result {
        stmt: 0,
        vals: result_vals,
    }
    .to_json();
    put("proto.result_bytes", result.len() as f64);
    put(
        "proto.decode_result_us",
        time_us(rec, "proto.decode_result", 20, || {
            Event::parse(result.as_bytes()).map(|_| ())
        }),
    );
    let (coords, vals) = tensor_to_wire(driver);
    let register = Request::Register {
        name: spec.stmts[0].kern.driver().to_string(),
        format: "blocked_csr".to_string(),
        dims: driver.dims().to_vec(),
        coords,
        vals,
    }
    .to_json();
    put("proto.register_bytes", register.len() as f64);
    let mut wire: Vec<u8> = Vec::with_capacity(result.len() + 4);
    put(
        "frame.roundtrip_us",
        time_us(rec, "frame.roundtrip", 20, || {
            wire.clear();
            write_frame(&mut wire, result.as_bytes()).expect("writing to memory");
            read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).map(|p| p.len())
        }),
    );

    // core.kernels: blessed pairs, monomorphized kernel vs generic walker.
    for s in &spec.stmts {
        if let Some((name, spec_us, walk_us)) = probe_kernel(spec, &s.kern, rec)? {
            put(&format!("kernels.{name}.spec_us"), spec_us);
            put(&format!("kernels.{name}.walk_us"), walk_us);
        }
    }
    Ok(out)
}

/// One statement's leaf work through the specialized kernel and through
/// the generic walker, over an outer-dimension partition into the spec's
/// colors. `None` for pairs the kernel table does not bless.
fn probe_kernel(
    spec: &ProgramSpec,
    kern: &Kern,
    rec: &mut SpanRecorder,
) -> Result<Option<(String, f64, f64)>, String> {
    const REPS: usize = 5;
    let b = spec.tensor(kern.driver());
    let colors = spec.pieces;
    let sig = specialized::storage_signature(b);
    let fmt = match sig.as_str() {
        "{Dense,Compressed}" => "csr",
        "{Compressed,Compressed}" => "dcsr",
        "{Dense,Compressed,Compressed}" => "csf",
        _ => return Ok(None),
    };
    // The walker's universe partition needs a dense top level; DCSR's
    // compressed rows partition by position instead.
    let part = match b.level(0) {
        spdistal_sparse::Level::Dense { .. } => partition_tensor(
            b,
            0,
            universe_partition(b, 0, &equal_coord_bounds(b.dims()[0], colors)),
        ),
        _ => partition_tensor(b, 0, spdistal::level_funcs::nonzero_partition(b, 0, colors)),
    };
    let name = format!("{}_{fmt}", kern.label());
    let (n, m) = (b.dims()[0], b.dims()[1]);
    let (spec_us, walk_us) = match kern {
        Kern::SpMv { c, .. } => {
            let Some(SpecializedKernel::SpMv(f)) = specialized::lookup(&LeafKernel::SpMv, &sig)
            else {
                return Ok(None);
            };
            let c = spec.tensor(c).vals();
            let mut out = vec![0.0; n];
            let fast = time_us(rec, "kernels.spec", REPS, || {
                out.fill(0.0);
                let o = OutVals::new(&mut out);
                (0..colors)
                    .map(|col| f(b, &part, col, None, c, &o))
                    .sum::<f64>()
            });
            let slow = time_us(rec, "kernels.walk", REPS, || {
                out.fill(0.0);
                let o = OutVals::new(&mut out);
                (0..colors)
                    .map(|col| matrix::spmv_color(b, &part, col, None, c, &o))
                    .sum::<f64>()
            });
            (fast, slow)
        }
        Kern::SpMm { c, .. } => {
            let Some(SpecializedKernel::SpMm(f)) =
                specialized::lookup(&LeafKernel::SpMm { jdim: WIDTH }, &sig)
            else {
                return Ok(None);
            };
            let c = spec.tensor(c).vals();
            let mut out = vec![0.0; n * WIDTH];
            let fast = time_us(rec, "kernels.spec", REPS, || {
                out.fill(0.0);
                let o = OutVals::new(&mut out);
                (0..colors)
                    .map(|col| f(b, &part, col, None, c, WIDTH, &o))
                    .sum::<f64>()
            });
            let slow = time_us(rec, "kernels.walk", REPS, || {
                out.fill(0.0);
                let o = OutVals::new(&mut out);
                (0..colors)
                    .map(|col| matrix::spmm_color(b, &part, col, None, c, WIDTH, &o))
                    .sum::<f64>()
            });
            (fast, slow)
        }
        Kern::Sddmm { c, d, .. } => {
            let Some(SpecializedKernel::Sddmm(f)) =
                specialized::lookup(&LeafKernel::Sddmm { kdim: WIDTH }, &sig)
            else {
                return Ok(None);
            };
            let (c, d) = (spec.tensor(c).vals(), spec.tensor(d).vals());
            let mut out = vec![0.0; b.vals().len()];
            let fast = time_us(rec, "kernels.spec", REPS, || {
                let o = OutVals::new(&mut out);
                (0..colors)
                    .map(|col| f(b, &part, col, None, c, d, WIDTH, m, &o))
                    .sum::<f64>()
            });
            let slow = time_us(rec, "kernels.walk", REPS, || {
                let o = OutVals::new(&mut out);
                (0..colors)
                    .map(|col| matrix::sddmm_color(b, &part, col, None, c, d, WIDTH, m, &o))
                    .sum::<f64>()
            });
            (fast, slow)
        }
        Kern::SpMttkrp { c, d, .. } => {
            let Some(SpecializedKernel::SpMttkrp(f)) =
                specialized::lookup(&LeafKernel::SpMttkrp { ldim: WIDTH }, &sig)
            else {
                return Ok(None);
            };
            let (c, d) = (spec.tensor(c).vals(), spec.tensor(d).vals());
            let mut out = vec![0.0; n * WIDTH];
            let fast = time_us(rec, "kernels.spec", REPS, || {
                out.fill(0.0);
                let o = OutVals::new(&mut out);
                (0..colors)
                    .map(|col| f(b, &part, col, None, c, d, WIDTH, &o))
                    .sum::<f64>()
            });
            let slow = time_us(rec, "kernels.walk", REPS, || {
                out.fill(0.0);
                let o = OutVals::new(&mut out);
                (0..colors)
                    .map(|col| tensor3::spmttkrp_color(b, &part, col, None, c, d, WIDTH, &o))
                    .sum::<f64>()
            });
            (fast, slow)
        }
        // SpTTV and SpAdd3 have no specialized kernel (`kernel.fallback`).
        Kern::SpTtv { .. } | Kern::SpAdd3 { .. } => return Ok(None),
    };
    Ok(Some((name, spec_us, walk_us)))
}
