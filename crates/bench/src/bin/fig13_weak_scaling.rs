//! Figure 13: SpMV weak scaling on synthetic banded matrices, 1-64 nodes
//! (4-256 GPUs), versus PETSc.
//!
//! Plots throughput per node (iterations/second) at a fixed per-node
//! problem size; flat lines are perfect weak scaling. The paper finds
//! PETSc perfectly flat, SpDISTAL-CPU at 90-92% of PETSc, and
//! SpDISTAL-GPU 1.05-1.29x over PETSc-GPU (credited to Legion's
//! asynchronous execution avoiding the bulk-synchronous sync per
//! iteration).

use spdistal_bench::{
    cpu_profile, make_inputs, run_baseline, run_spdistal, time_scale, Kern, GPU_CAPACITY_SCALE,
};
use spdistal_runtime::{Machine, MachineProfile};
use spdistal_sparse::generate;

/// Non-zeros per CPU node / per GPU (paper: 7e8 per node; scaled ~1/3000).
/// The GPU band is kept wide so the replicated dense vector stays small
/// relative to the matrix blocks within the scaled V100 capacity, matching
/// the paper's matrix-dominated working set.
const NNZ_PER_CPU_NODE: usize = 240_000;
const CPU_BAND: usize = 9;
const NNZ_PER_GPU: usize = 200_000;
const GPU_BAND: usize = 199;

const NODES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn main() {
    println!("Figure 13: SpMV weak scaling on synthetic banded matrices");
    println!("throughput per node (iterations/second); flat = perfect weak scaling\n");
    println!(
        "{:<16}{:>14}{:>14}{:>16}{:>16}",
        "nodes (GPUs)", "SpDISTAL", "PETSc", "SpDISTAL-GPU", "PETSc-GPU"
    );

    let cpu = cpu_profile();
    // Fig. 13 sizes its own problems (not Table II), so give the scaled
    // V100 a matching capacity headroom.
    let gpu = MachineProfile::lassen_gpu(2.0 * GPU_CAPACITY_SCALE).time_scaled(time_scale());

    for &nodes in &NODES {
        // CPU problem: fixed nnz per node.
        let n_cpu = nodes * NNZ_PER_CPU_NODE / CPU_BAND;
        let b_cpu = generate::banded(n_cpu, CPU_BAND, 13);
        let inputs_cpu = make_inputs(Kern::SpMv, &b_cpu);
        let t_spd = run_spdistal(Kern::SpMv, &inputs_cpu, nodes, &cpu, false)
            .expect("cpu weak scaling")
            .time;
        let t_petsc = run_baseline(
            "petsc",
            Kern::SpMv,
            &inputs_cpu,
            &Machine::grid1d(nodes, cpu.clone()),
        )
        .unwrap()
        .unwrap()
        .time;

        // GPU problem: fixed nnz per GPU, 4 GPUs per node.
        let gpus = 4 * nodes;
        let n_gpu = gpus * NNZ_PER_GPU / GPU_BAND;
        let b_gpu = generate::banded(n_gpu, GPU_BAND, 14);
        let inputs_gpu = make_inputs(Kern::SpMv, &b_gpu);
        let t_spd_gpu = run_spdistal(Kern::SpMv, &inputs_gpu, gpus, &gpu, false)
            .map(|r| r.time)
            .ok();
        let t_petsc_gpu = run_baseline(
            "petsc",
            Kern::SpMv,
            &inputs_gpu,
            &Machine::grid1d(gpus, gpu.clone()),
        )
        .unwrap()
        .map(|r| r.time)
        .ok();

        let tput = |t: f64| 1.0 / t;
        println!(
            "{:<16}{:>14.1}{:>14.1}{:>16}{:>16}",
            format!("{nodes} ({gpus})"),
            tput(t_spd),
            tput(t_petsc),
            t_spd_gpu.map_or("DNC".to_string(), |t| format!("{:.1}", tput(t))),
            t_petsc_gpu.map_or("DNC".to_string(), |t| format!("{:.1}", tput(t))),
        );
    }
    println!("\n(Each row uses a freshly generated banded matrix with the per-node/per-GPU size held fixed.)");
}
