//! Figure 11: GPU strong scaling heatmaps for SpMV, SpMM, SpAdd3, SDDMM.
//!
//! For every (dataset, GPU count) cell, prints each system's time in
//! milliseconds (or DNC on modeled OOM) and marks the fastest — the same
//! information the paper's heatmaps encode. Shapes to look for:
//!
//! * SpMV: SpDISTAL wins most cells (paper: 28/38), medians 1.07x/1.65x
//!   over PETSc/Trilinos.
//! * SpMM: the load-balanced SpDISTAL schedule wins when data fits;
//!   SpDISTAL-Batched rescues configurations where the replicated dense
//!   operand OOMs; Trilinos completes some cells via UVM paging.
//! * SpAdd3: SpDISTAL wins nearly everywhere (paper: 32/34) by fusing.
//! * SDDMM: SpDISTAL-GPU vs SpDISTAL-CPU (no GPU comparison target).

use spdistal_bench::{
    cpu_profile, dataset_scale, gpu_profile, make_inputs, run_baseline, run_spdistal,
    run_spdistal_spmm_batched_auto, time_scale, Kern,
};
use spdistal_runtime::Machine;
use spdistal_sparse::dataset;

fn main() {
    let scale = dataset_scale();
    let gpu = gpu_profile();
    let cpu = cpu_profile();
    println!("Figure 11: GPU strong scaling heatmaps (full-scale-equivalent ms; * marks fastest; DNC = does not complete)");
    println!(
        "dataset scale = {scale}, GPU memory = {} MiB (scaled V100)\n",
        gpu.proc.mem_capacity / (1 << 20)
    );

    let matrices = dataset::matrices();

    // --- SpMV: row-based, short runtimes, scale to 8 GPUs ---------------
    heatmap("SpMV", &matrices, &[1, 2, 4, 8], scale, |inputs, gpus| {
        let machine = Machine::grid1d(gpus, gpu.clone());
        vec![
            (
                "SpDISTAL",
                run_spdistal(Kern::SpMv, inputs, gpus, &gpu, false),
            ),
            (
                "PETSc",
                flatten(run_baseline("petsc", Kern::SpMv, inputs, &machine)),
            ),
            (
                "Trilinos",
                flatten(run_baseline("trilinos", Kern::SpMv, inputs, &machine)),
            ),
        ]
    });

    // --- SpMM: non-zero (replicates C) vs batched vs baselines ----------
    heatmap(
        "SpMM",
        &matrices,
        &[4, 8, 16, 32, 64],
        scale,
        |inputs, gpus| {
            let machine = Machine::grid1d(gpus, gpu.clone());
            vec![
                (
                    "SpDISTAL",
                    run_spdistal(Kern::SpMm, inputs, gpus, &gpu, true),
                ),
                (
                    "SpD-Batched",
                    run_spdistal_spmm_batched_auto(inputs, gpus, &gpu),
                ),
                (
                    "PETSc",
                    flatten(run_baseline("petsc", Kern::SpMm, inputs, &machine)),
                ),
                (
                    "Trilinos",
                    flatten(run_baseline("trilinos", Kern::SpMm, inputs, &machine)),
                ),
            ]
        },
    );

    // --- SpAdd3: row-based vs Trilinos (PETSc has no GPU SpAdd) ---------
    heatmap(
        "SpAdd3",
        &matrices,
        &[4, 8, 16, 32, 64],
        scale,
        |inputs, gpus| {
            let machine = Machine::grid1d(gpus, gpu.clone());
            vec![
                (
                    "SpDISTAL",
                    run_spdistal(Kern::SpAdd3, inputs, gpus, &gpu, false),
                ),
                (
                    "Trilinos",
                    flatten(run_baseline("trilinos", Kern::SpAdd3, inputs, &machine)),
                ),
            ]
        },
    );

    // --- SDDMM: GPU non-zero schedule vs SpDISTAL's CPU kernel ----------
    heatmap(
        "SDDMM",
        &matrices,
        &[4, 8, 16, 32, 64],
        scale,
        |inputs, gpus| {
            let cpu_nodes = (gpus / 4).max(1);
            vec![
                (
                    "SpDISTAL",
                    run_spdistal(Kern::Sddmm, inputs, gpus, &gpu, true),
                ),
                (
                    "SpD-CPU",
                    run_spdistal(Kern::Sddmm, inputs, cpu_nodes, &cpu, true),
                ),
            ]
        },
    );
}

type SysResult = Result<spdistal_baselines::BaselineResult, String>;

fn flatten(r: Option<SysResult>) -> SysResult {
    r.unwrap_or_else(|| Err("unsupported".into()))
}

fn heatmap(
    title: &str,
    specs: &[spdistal_sparse::dataset::DatasetSpec],
    gpu_counts: &[usize],
    scale: f64,
    mut run: impl FnMut(&spdistal_bench::Inputs, usize) -> Vec<(&'static str, SysResult)>,
) {
    println!("=== {title} ===");
    let kern = match title {
        "SpMV" => Kern::SpMv,
        "SpMM" => Kern::SpMm,
        "SpAdd3" => Kern::SpAdd3,
        _ => Kern::Sddmm,
    };
    let mut wins: std::collections::BTreeMap<&str, usize> = Default::default();
    let mut cells = 0usize;
    for spec in specs {
        let inputs = make_inputs(kern, &spec.generate(scale));
        print!("{:<16}", spec.name);
        for &gpus in gpu_counts {
            let results = run(&inputs, gpus);
            let best = results
                .iter()
                .filter_map(|(n, r)| r.as_ref().ok().map(|x| (*n, x.time)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let cell = match best {
                Some((name, t)) => {
                    *wins.entry(name).or_default() += 1;
                    cells += 1;
                    format!("{}*{:.1}", initials(name), t * 1e3 / time_scale())
                }
                None => "DNC".to_string(),
            };
            print!(" {cell:>12}");
        }
        println!();
    }
    print!("  [{} GPUs: {:?}] fastest-system wins: ", title, gpu_counts);
    for (n, w) in &wins {
        print!("{n} {w}/{cells}  ");
    }
    println!("\n");
}

fn initials(name: &str) -> &str {
    match name {
        "SpDISTAL" => "S",
        "SpD-Batched" => "B",
        "SpD-CPU" => "C",
        "PETSc" => "P",
        "Trilinos" => "T",
        other => other,
    }
}
