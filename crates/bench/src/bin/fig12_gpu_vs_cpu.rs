//! Figure 12: GPU vs CPU strong scaling for SpTTV and SpMTTKRP.
//!
//! No distributed GPU comparison target exists for these kernels, so the
//! paper compares SpDISTAL's GPU kernels (non-zero-based schedules) to
//! SpDISTAL's own CPU kernels on the same number of nodes. Each cell shows
//! the speedup of the faster system over the slower (G = GPU faster,
//! C = CPU faster), as in the paper's heatmap. Expected shape: GPU wins
//! with ~2x medians once data fits, growing with scale on SpMTTKRP thanks
//! to the load-balanced non-zero schedule; small tensors at large GPU
//! counts can flip to CPU (launch overhead dominates).

use spdistal_bench::{cpu_profile, dataset_scale, gpu_profile, make_inputs, run_spdistal, Kern};
use spdistal_sparse::dataset;

const NODES: [usize; 5] = [1, 2, 4, 8, 16];

fn main() {
    let scale = dataset_scale();
    let gpu = gpu_profile();
    let cpu = cpu_profile();
    println!("Figure 12: SpDISTAL GPU vs CPU on SpTTV / SpMTTKRP");
    println!("cells: (faster)x(speedup); G = GPU kernel faster, C = CPU kernel faster\n");

    for kern in [Kern::SpTtv, Kern::SpMttkrp] {
        println!("=== {} ===", kern.name());
        print!("{:<18}", "tensor \\ nodes");
        for n in NODES {
            print!("{:>12}", format!("{n} ({} GPU)", 4 * n));
        }
        println!();
        let mut gpu_wins = 0;
        let mut total = 0;
        for spec in dataset::tensors3() {
            let inputs = make_inputs(kern, &spec.generate(scale));
            print!("{:<18}", spec.name);
            for nodes in NODES {
                // GPU: non-zero-based schedule on 4 GPUs per node.
                let tg = run_spdistal(kern, &inputs, 4 * nodes, &gpu, true);
                // CPU: slice-based schedule, one processor per node.
                let tc = run_spdistal(kern, &inputs, nodes, &cpu, false);
                let cell = match (tg, tc) {
                    (Ok(g), Ok(c)) => {
                        total += 1;
                        if g.time < c.time {
                            gpu_wins += 1;
                            format!("G x{:.2}", c.time / g.time)
                        } else {
                            format!("C x{:.2}", g.time / c.time)
                        }
                    }
                    (Err(_), Ok(_)) => "C (G-DNC)".to_string(),
                    (Ok(_), Err(_)) => "G (C-DNC)".to_string(),
                    _ => "DNC".to_string(),
                };
                print!("{cell:>12}");
            }
            println!();
        }
        println!("  GPU kernel faster in {gpu_wins}/{total} cells\n");
    }
}
