//! # spdistal-bench — the paper's evaluation
//!
//! Shared machinery for the figure/table binaries (`src/bin/*`) that
//! regenerate every table and figure of the paper's evaluation
//! (Section VI). Wall-clock performance is not measured here: that is
//! the repo benchmark's job (`BENCHMARK.json`, `docs/benchmarking.md`).
//!
//! The drivers run each (system, kernel, dataset, processor-count)
//! configuration and reports *simulated* time from the shared machine
//! model: SpDISTAL through the compiler + Legion-like runtime, the
//! baselines through their bulk-synchronous models. "DNC" (does not
//! complete) arises from modeled memory capacity, exactly as in Figure 11.

use spdistal::prelude::*;
use spdistal_baselines::{ctf, petsc, trilinos, BaselineResult};
use spdistal_ir::Format;
use spdistal_runtime::ProcKind;
use spdistal_sparse::{dense_matrix, dense_vector, generate, SpTensor};

/// The six evaluation kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kern {
    SpMv,
    SpMm,
    SpAdd3,
    Sddmm,
    SpTtv,
    SpMttkrp,
}

impl Kern {
    pub fn name(&self) -> &'static str {
        match self {
            Kern::SpMv => "SpMV",
            Kern::SpMm => "SpMM",
            Kern::SpAdd3 => "SpAdd3",
            Kern::Sddmm => "SDDMM",
            Kern::SpTtv => "SpTTV",
            Kern::SpMttkrp => "SpMTTKRP",
        }
    }

    /// Kernels over matrices (vs 3-tensors).
    pub fn is_matrix_kernel(&self) -> bool {
        matches!(self, Kern::SpMv | Kern::SpMm | Kern::SpAdd3 | Kern::Sddmm)
    }
}

/// Dense operand width for SpMM/SDDMM/SpMTTKRP (the paper's evaluation
/// uses a fixed small rank for factor matrices).
pub const DENSE_WIDTH: usize = 32;

/// GPU memory capacity scale: datasets are ~1/3000 of the paper's, so the
/// 16 GiB V100 capacity co-scales to preserve the OOM pattern of Fig. 11.
pub const GPU_CAPACITY_SCALE: f64 = 1.0 / 3000.0;

/// Modeled CPU node memory (256 GiB, dataset-scaled) for CTF's documented
/// OOMs on small node counts (Figure 10 caption).
pub const CPU_NODE_MEM_SCALED: u64 = (256.0 * 1073741824.0 / 3000.0) as u64;

/// Dataset scale factor, overridable with `SPDISTAL_SCALE`.
pub fn dataset_scale() -> f64 {
    std::env::var("SPDISTAL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5)
}

/// Total time-constant scale relative to the paper's full-size runs: the
/// dataset registry is ~1/3000 of Table II at scale 1.0, and
/// `dataset_scale()` shrinks it further. Fixed overheads (task launch,
/// link latency) are scaled by the same factor so that overhead-to-work
/// ratios match the full-size system (see
/// [`MachineProfile::time_scaled`]).
pub fn time_scale() -> f64 {
    dataset_scale() / 3000.0
}

/// The Lassen CPU profile with overheads scaled to the dataset size.
pub fn cpu_profile() -> MachineProfile {
    MachineProfile::lassen_cpu().time_scaled(time_scale())
}

/// The Lassen GPU profile with overheads and memory capacity scaled to the
/// dataset size.
pub fn gpu_profile() -> MachineProfile {
    MachineProfile::lassen_gpu(GPU_CAPACITY_SCALE * dataset_scale()).time_scaled(time_scale())
}

/// Prepared inputs for one kernel run.
pub struct Inputs {
    pub b: SpTensor,
    pub vec: Option<Vec<f64>>,
    pub cmat: Option<Vec<f64>>,
    pub dmat: Option<Vec<f64>>,
    pub csp: Option<SpTensor>,
    pub dsp: Option<SpTensor>,
}

/// Build the operand bundle for a kernel from a dataset tensor, following
/// the paper's methodology (extra sparse operands by shifting the last
/// dimension, per Henry & Hsu et al.).
pub fn make_inputs(kern: Kern, b: &SpTensor) -> Inputs {
    let mut inputs = Inputs {
        b: b.clone(),
        vec: None,
        cmat: None,
        dmat: None,
        csp: None,
        dsp: None,
    };
    match kern {
        Kern::SpMv => inputs.vec = Some(generate::dense_vec(b.dims()[1], 7)),
        Kern::SpMm => inputs.cmat = Some(generate::dense_buffer(b.dims()[1], DENSE_WIDTH, 7)),
        Kern::SpAdd3 => {
            inputs.csp = Some(generate::shift_last_dim(b, 1));
            inputs.dsp = Some(generate::shift_last_dim(b, 2));
        }
        Kern::Sddmm => {
            inputs.cmat = Some(generate::dense_buffer(b.dims()[0], DENSE_WIDTH, 7));
            inputs.dmat = Some(generate::dense_buffer(DENSE_WIDTH, b.dims()[1], 8));
        }
        Kern::SpTtv => inputs.vec = Some(generate::dense_vec(b.dims()[2], 7)),
        Kern::SpMttkrp => {
            inputs.cmat = Some(generate::dense_buffer(b.dims()[1], DENSE_WIDTH, 7));
            inputs.dmat = Some(generate::dense_buffer(b.dims()[2], DENSE_WIDTH, 8));
        }
    }
    inputs
}

/// Run SpDISTAL on a kernel: builds the context, declares tensors with the
/// appropriate formats/distributions, compiles the schedule, executes, and
/// returns the modeled result. `nonzero` selects the non-zero-based
/// schedule + data distribution (Section II-D) over the outer-dimension one.
pub fn run_spdistal(
    kern: Kern,
    inputs: &Inputs,
    procs: usize,
    profile: &MachineProfile,
    nonzero: bool,
) -> Result<BaselineResult, String> {
    let mut ctx = Context::new(Machine::grid1d(procs, profile.clone()));
    let b = &inputs.b;
    let unit = match profile.proc.kind {
        ProcKind::Cpu => ParallelUnit::CpuThread,
        ProcKind::Gpu => ParallelUnit::GpuThread,
    };
    let b_format = match (b.order(), nonzero) {
        (2, false) => Format::blocked_csr(),
        (2, true) => Format::nonzero_csr(),
        (3, false) => Format::blocked_csf3(),
        (3, true) => Format::nonzero_csf3(),
        _ => return Err("unsupported order".into()),
    };
    let add = |ctx: &mut Context, name: &str, t: SpTensor, f: Format| {
        ctx.add_tensor(name, t, f).map_err(stringify_err)
    };

    add(&mut ctx, "B", b.clone(), b_format.clone())?;
    let stmt = match kern {
        Kern::SpMv => {
            let n = b.dims()[0];
            add(
                &mut ctx,
                "a",
                dense_vector(vec![0.0; n]),
                Format::blocked_dense_vec(),
            )?;
            add(
                &mut ctx,
                "c",
                dense_vector(inputs.vec.clone().unwrap()),
                Format::replicated_dense_vec(),
            )?;
            let [i, j] = ctx.fresh_vars(["i", "j"]);
            spdistal::assign(
                "a",
                &[i],
                spdistal::access("B", &[i, j]) * spdistal::access("c", &[j]),
            )
        }
        Kern::SpMm => {
            let (n, m) = (b.dims()[0], b.dims()[1]);
            add(
                &mut ctx,
                "A",
                dense_matrix(n, DENSE_WIDTH, vec![0.0; n * DENSE_WIDTH]),
                Format::blocked_dense_matrix(),
            )?;
            add(
                &mut ctx,
                "C",
                dense_matrix(m, DENSE_WIDTH, inputs.cmat.clone().unwrap()),
                Format::replicated_dense_matrix(),
            )?;
            let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
            spdistal::assign(
                "A",
                &[i, j],
                spdistal::access("B", &[i, k]) * spdistal::access("C", &[k, j]),
            )
        }
        Kern::SpAdd3 => {
            add(
                &mut ctx,
                "C",
                inputs.csp.clone().unwrap(),
                Format::blocked_csr(),
            )?;
            add(
                &mut ctx,
                "D",
                inputs.dsp.clone().unwrap(),
                Format::blocked_csr(),
            )?;
            add(
                &mut ctx,
                "A",
                spdistal::plan::empty_csr(b.dims()[0], b.dims()[1]),
                Format::blocked_csr(),
            )?;
            let [i, j] = ctx.fresh_vars(["i", "j"]);
            spdistal::assign(
                "A",
                &[i, j],
                spdistal::access("B", &[i, j])
                    + spdistal::access("C", &[i, j])
                    + spdistal::access("D", &[i, j]),
            )
        }
        Kern::Sddmm => {
            // SDDMM uses a non-zero based algorithm *and* data distribution
            // (Section VI-A): the dense factors are staged and pre-placed to
            // match the computation's partition, not replicated.
            let (n, m) = (b.dims()[0], b.dims()[1]);
            // A shares B's pattern, so it keeps B's level layout (under
            // the blocked distribution regardless of B's schedule).
            let a_fmt = Format::new(
                b_format.levels.clone(),
                spdistal_ir::Distribution::new("xy", "x").map_err(|e| format!("{e:?}"))?,
            );
            add(&mut ctx, "A", b.clone(), a_fmt)?;
            add(
                &mut ctx,
                "C",
                dense_matrix(n, DENSE_WIDTH, inputs.cmat.clone().unwrap()),
                Format::staged_dense_matrix(),
            )?;
            add(
                &mut ctx,
                "D",
                dense_matrix(DENSE_WIDTH, m, inputs.dmat.clone().unwrap()),
                Format::staged_dense_matrix(),
            )?;
            let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
            spdistal::assign(
                "A",
                &[i, j],
                spdistal::access("B", &[i, j])
                    * spdistal::access("C", &[i, k])
                    * spdistal::access("D", &[k, j]),
            )
        }
        Kern::SpTtv => {
            let fibers = spdistal::kernels::tensor3::spttv_output(
                b,
                vec![0.0; spdistal::level_funcs::entry_counts(b)[1] as usize],
            );
            add(&mut ctx, "A", fibers, Format::blocked_csr())?;
            add(
                &mut ctx,
                "c",
                dense_vector(inputs.vec.clone().unwrap()),
                Format::replicated_dense_vec(),
            )?;
            let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
            spdistal::assign(
                "A",
                &[i, j],
                spdistal::access("B", &[i, j, k]) * spdistal::access("c", &[k]),
            )
        }
        Kern::SpMttkrp => {
            let n = b.dims()[0];
            add(
                &mut ctx,
                "A",
                dense_matrix(n, DENSE_WIDTH, vec![0.0; n * DENSE_WIDTH]),
                Format::blocked_dense_matrix(),
            )?;
            add(
                &mut ctx,
                "C",
                dense_matrix(b.dims()[1], DENSE_WIDTH, inputs.cmat.clone().unwrap()),
                Format::replicated_dense_matrix(),
            )?;
            add(
                &mut ctx,
                "D",
                dense_matrix(b.dims()[2], DENSE_WIDTH, inputs.dmat.clone().unwrap()),
                Format::replicated_dense_matrix(),
            )?;
            let [i, l, j, k] = ctx.fresh_vars(["i", "l", "j", "k"]);
            spdistal::assign(
                "A",
                &[i, l],
                spdistal::access("B", &[i, j, k])
                    * spdistal::access("C", &[j, l])
                    * spdistal::access("D", &[k, l]),
            )
        }
    };

    let sched = if nonzero {
        let depth = if b.order() == 2 { 2 } else { 3 };
        spdistal::schedule_nonzero(&mut ctx, &stmt, "B", depth, procs, unit)
            .map_err(stringify_err)?
    } else {
        spdistal::schedule_outer_dim(&mut ctx, &stmt, procs, unit)
    };
    let plan = ctx.compile(&stmt, &sched).map_err(stringify_err)?;
    if nonzero {
        // Matched data + computation distribution: pre-place each color's
        // planned sub-tensors (Section II-D).
        ctx.prestage(&plan).map_err(stringify_err)?;
    }
    let result = ctx.run(&plan).map_err(stringify_err)?;
    Ok(BaselineResult {
        time: result.time,
        comm_bytes: result.comm_bytes,
        messages: result.messages,
        ops: result.ops,
    })
}

/// Memory-conserving batched SpMM with the smallest round count that fits
/// GPU memory (more rounds = smaller resident chunks, more communication).
pub fn run_spdistal_spmm_batched_auto(
    inputs: &Inputs,
    procs: usize,
    profile: &MachineProfile,
) -> Result<BaselineResult, String> {
    for rounds in [2usize, 4, 8, 16, 32] {
        match run_spdistal_spmm_batched(inputs, procs, profile, rounds) {
            Ok(r) => return Ok(r),
            Err(_) => continue,
        }
    }
    Err("OOM".into())
}

/// The memory-conserving "SpDISTAL-Batched" SpMM schedule (Figure 11):
/// partitions the dense operand's columns too and streams them between
/// processors in rounds, trading communication for peak memory.
pub fn run_spdistal_spmm_batched(
    inputs: &Inputs,
    procs: usize,
    profile: &MachineProfile,
    rounds: usize,
) -> Result<BaselineResult, String> {
    let machine = Machine::grid1d(procs, profile.clone());
    let b = &inputs.b;
    let c_bytes = (inputs.cmat.as_ref().unwrap().len() * 8) as u64;
    let out_bytes = (b.dims()[0] * DENSE_WIDTH * 8) as u64;
    // Peak per-proc memory: B block + two C chunks (double buffer) + output
    // block.
    let peak = b.bytes() / procs as u64 + 2 * c_bytes / rounds as u64 + out_bytes / procs as u64;
    if peak > profile.proc.mem_capacity {
        return Err("OOM".into());
    }
    let mut bsp = spdistal_baselines::BspModel::new(&machine);
    let per_round_ops: Vec<f64> =
        spdistal_baselines::common::row_block_ops(b, procs, 1, DENSE_WIDTH as f64 / rounds as f64);
    for _ in 0..rounds {
        bsp.exchange_phase(&vec![c_bytes / rounds as u64; procs], 2);
        bsp.compute_phase(&per_round_ops);
    }
    Ok(bsp.finish())
}

/// Run a baseline system. Returns `None` if the system does not support
/// the kernel on this processor kind, `Err("OOM")` for modeled OOMs.
pub fn run_baseline(
    system: &str,
    kern: Kern,
    inputs: &Inputs,
    machine: &Machine,
) -> Option<Result<BaselineResult, String>> {
    let b = &inputs.b;
    let kind = machine.profile().proc.kind;
    match (system, kern) {
        ("petsc", Kern::SpMv) => Some(Ok(petsc::spmv(machine, b, inputs.vec.as_ref().unwrap()).0)),
        ("petsc", Kern::SpMm) => Some(Ok(petsc::spmm(
            machine,
            b,
            inputs.cmat.as_ref().unwrap(),
            DENSE_WIDTH,
        )
        .0)),
        ("petsc", Kern::SpAdd3) if petsc::supports("spadd3", kind) => Some(Ok(petsc::spadd3(
            machine,
            b,
            inputs.csp.as_ref().unwrap(),
            inputs.dsp.as_ref().unwrap(),
        )
        .0)),
        ("trilinos", Kern::SpMv) => {
            Some(Ok(
                trilinos::spmv(machine, b, inputs.vec.as_ref().unwrap()).0
            ))
        }
        ("trilinos", Kern::SpMm) => Some(Ok(trilinos::spmm(
            machine,
            b,
            inputs.cmat.as_ref().unwrap(),
            DENSE_WIDTH,
        )
        .0)),
        ("trilinos", Kern::SpAdd3) => Some(Ok(trilinos::spadd3(
            machine,
            b,
            inputs.csp.as_ref().unwrap(),
            inputs.dsp.as_ref().unwrap(),
        )
        .0)),
        ("ctf", _) if kind == ProcKind::Gpu => None, // no usable GPU backend
        ("ctf", k) => {
            // CTF OOM model: redistribution buffers on top of operands.
            let operand_bytes = b.nnz() as u64 * 24 * if b.order() == 3 { 2 } else { 1 };
            if ctf::peak_bytes_per_proc(machine, operand_bytes * 3) > CPU_NODE_MEM_SCALED {
                return Some(Err("OOM".into()));
            }
            let r = match k {
                Kern::SpMv => ctf::spmv(machine, b, inputs.vec.as_ref().unwrap()).0,
                Kern::SpMm => ctf::spmm(machine, b, inputs.cmat.as_ref().unwrap(), DENSE_WIDTH).0,
                Kern::SpAdd3 => {
                    ctf::spadd3(
                        machine,
                        b,
                        inputs.csp.as_ref().unwrap(),
                        inputs.dsp.as_ref().unwrap(),
                    )
                    .0
                }
                Kern::Sddmm => {
                    ctf::sddmm(
                        machine,
                        b,
                        inputs.cmat.as_ref().unwrap(),
                        inputs.dmat.as_ref().unwrap(),
                        DENSE_WIDTH,
                    )
                    .0
                }
                Kern::SpTtv => ctf::spttv(machine, b, inputs.vec.as_ref().unwrap()).0,
                Kern::SpMttkrp => {
                    ctf::spmttkrp(
                        machine,
                        b,
                        inputs.cmat.as_ref().unwrap(),
                        inputs.dmat.as_ref().unwrap(),
                        DENSE_WIDTH,
                    )
                    .0
                }
            };
            Some(Ok(r))
        }
        _ => None,
    }
}

fn stringify_err(e: spdistal::Error) -> String {
    match e {
        spdistal::Error::Runtime(spdistal_runtime::RuntimeError::Oom { .. }) => "OOM".into(),
        other => format!("{other}"),
    }
}

/// Median of a slice (NaN-free input assumed).
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdistal_sparse::dataset;

    #[test]
    fn spdistal_runs_every_kernel_on_small_data() {
        let mat = dataset::by_name("kmer_A2a").unwrap().generate(0.05);
        let t3 = dataset::by_name("nell-2").unwrap().generate(0.05);
        let prof = MachineProfile::lassen_cpu();
        for kern in [Kern::SpMv, Kern::SpMm, Kern::SpAdd3, Kern::Sddmm] {
            let inputs = make_inputs(kern, &mat);
            let nonzero = kern == Kern::Sddmm;
            let r = run_spdistal(kern, &inputs, 4, &prof, nonzero)
                .unwrap_or_else(|e| panic!("{}: {e}", kern.name()));
            assert!(r.time > 0.0, "{}", kern.name());
        }
        for kern in [Kern::SpTtv, Kern::SpMttkrp] {
            let inputs = make_inputs(kern, &t3);
            let r = run_spdistal(kern, &inputs, 4, &prof, false)
                .unwrap_or_else(|e| panic!("{}: {e}", kern.name()));
            assert!(r.time > 0.0, "{}", kern.name());
        }
    }

    #[test]
    fn gpu_oom_reported_for_oversized_replication() {
        let mat = dataset::by_name("sk-2005").unwrap().generate(0.5);
        let inputs = make_inputs(Kern::SpMm, &mat);
        // Tiny GPU memory: the replicated dense operand cannot fit.
        let prof = MachineProfile::lassen_gpu(1e-7);
        let r = run_spdistal(Kern::SpMm, &inputs, 4, &prof, true);
        assert_eq!(r.unwrap_err(), "OOM");
        // Batched variant also OOMs at this capacity, but with real
        // capacity it fits.
        let r2 = run_spdistal_spmm_batched(&inputs, 4, &prof, 4);
        assert!(r2.is_err());
        let r3 = run_spdistal_spmm_batched(&inputs, 4, &MachineProfile::lassen_gpu(1.0), 4);
        assert!(r3.is_ok());
    }

    #[test]
    fn baselines_dispatch() {
        let mat = dataset::by_name("nlpkkt240").unwrap().generate(0.05);
        let inputs = make_inputs(Kern::SpMv, &mat);
        let m = Machine::grid1d(2, MachineProfile::lassen_cpu());
        assert!(run_baseline("petsc", Kern::SpMv, &inputs, &m)
            .unwrap()
            .is_ok());
        assert!(run_baseline("trilinos", Kern::SpMv, &inputs, &m)
            .unwrap()
            .is_ok());
        assert!(run_baseline("ctf", Kern::SpMv, &inputs, &m)
            .unwrap()
            .is_ok());
        assert!(run_baseline("petsc", Kern::Sddmm, &inputs, &m).is_none());
        let gm = Machine::grid1d(2, MachineProfile::lassen_gpu(1.0));
        assert!(run_baseline("ctf", Kern::SpMv, &inputs, &gm).is_none());
    }

    #[test]
    fn median_works() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }
}
