//! Figure 10: CPU strong scaling for the six kernels, 1-16 nodes.
//!
//! For each kernel, prints the median speedup (over all datasets) of every
//! system, normalized to SpDISTAL on one node — the quantity Figure 10
//! plots. The paper's headline shapes to look for:
//!
//! * SpMV/SpMM: SpDISTAL, PETSc and Trilinos cluster near ideal; CTF sits
//!   orders of magnitude below (2^-5..2^-7 on SpMV).
//! * SpAdd3: SpDISTAL's fused kernel opens a >10x gap over the pairwise
//!   baselines.
//! * SDDMM: SpDISTAL's non-zero schedule scales near-ideally; CTF's
//!   special kernel trails (15.3x median in the paper).
//! * SpMTTKRP: CTF's special kernel is competitive (paper: SpDISTAL at a
//!   median 97% of CTF).

use spdistal_bench::{
    cpu_profile, dataset_scale, make_inputs, median, run_baseline, run_spdistal, Kern,
};
use spdistal_runtime::Machine;
use spdistal_sparse::dataset;

const NODES: [usize; 5] = [1, 2, 4, 8, 16];

fn main() {
    let scale = dataset_scale();
    let profile = cpu_profile();
    println!("Figure 10: CPU strong scaling (speedup over SpDISTAL @ 1 node)");
    println!("dataset scale = {scale}\n");

    let kernels: [(Kern, bool, &[&str]); 6] = [
        (Kern::SpMv, false, &["petsc", "trilinos", "ctf"]),
        (Kern::SpMm, false, &["petsc", "trilinos", "ctf"]),
        (Kern::SpAdd3, false, &["petsc", "trilinos", "ctf"]),
        (Kern::Sddmm, true, &["ctf"]),
        (Kern::SpTtv, false, &["ctf"]),
        (Kern::SpMttkrp, false, &["ctf"]),
    ];

    for (kern, nonzero, systems) in kernels {
        let specs = if kern.is_matrix_kernel() {
            dataset::matrices()
        } else {
            dataset::tensors3()
        };
        let data: Vec<_> = specs
            .iter()
            .map(|s| (s.name, make_inputs(kern, &s.generate(scale))))
            .collect();

        // SpDISTAL single-node baselines per dataset.
        let base: Vec<f64> = data
            .iter()
            .map(|(name, inputs)| {
                run_spdistal(kern, inputs, 1, &profile, nonzero)
                    .unwrap_or_else(|e| panic!("{} {name} @1: {e}", kern.name()))
                    .time
            })
            .collect();

        println!(
            "--- Figure 10{}: {} ({} schedule) ---",
            (b'a' + kernels.iter().position(|(k, _, _)| *k == kern).unwrap() as u8) as char,
            kern.name(),
            if nonzero { "non-zero" } else { "row/slice" }
        );
        print!("{:<8}{:>12}", "nodes", "SpDISTAL");
        for s in systems {
            print!("{:>12}", s);
        }
        println!("{:>8}", "(ideal)");

        for &nodes in &NODES {
            let mut spd: Vec<f64> = Vec::new();
            let mut sys_speedups: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
            let mut oom_counts = vec![0usize; systems.len()];
            for (ds_idx, (_, inputs)) in data.iter().enumerate() {
                let t = run_spdistal(kern, inputs, nodes, &profile, nonzero)
                    .expect("spdistal CPU run")
                    .time;
                spd.push(base[ds_idx] / t);
                let machine = Machine::grid1d(nodes, profile.clone());
                for (si, s) in systems.iter().enumerate() {
                    match run_baseline(s, kern, inputs, &machine) {
                        Some(Ok(r)) => sys_speedups[si].push(base[ds_idx] / r.time),
                        Some(Err(_)) => oom_counts[si] += 1,
                        None => {}
                    }
                }
            }
            print!("{:<8}{:>12.3}", nodes, median(&mut spd));
            for (si, _) in systems.iter().enumerate() {
                let m = median(&mut sys_speedups[si]);
                if m.is_nan() {
                    print!("{:>12}", "-");
                } else if oom_counts[si] > 0 {
                    print!("{:>9.3}+{}O", m, oom_counts[si]);
                } else {
                    print!("{:>12.3}", m);
                }
            }
            println!("{:>8}", nodes);
        }
        println!();
    }
}
