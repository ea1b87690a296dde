//! Table II: the evaluation datasets.
//!
//! Prints the paper's dataset inventory next to the synthetic stand-ins
//! actually generated (name, domain, paper non-zeros, synthetic non-zeros,
//! dimensions, structure class). Run with `SPDISTAL_SCALE=<f>` to change
//! the synthetic scale.

use spdistal_bench::dataset_scale;
use spdistal_sparse::dataset;

fn main() {
    let scale = dataset_scale();
    println!("Table II: tensors and matrices considered in the experiments");
    println!("(synthetic stand-ins at scale {scale}; see DESIGN.md for the substitution)\n");
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>22} {:<14}",
        "Tensor name", "Domain", "Paper nnz", "Synth nnz", "Synth dims", "Structure"
    );
    println!("{}", "-".repeat(100));
    for spec in dataset::all() {
        let t = spec.generate(scale);
        let dims = format!("{:?}", t.dims());
        println!(
            "{:<18} {:<18} {:>12.2e} {:>12} {:>22} {:<14}",
            spec.name,
            spec.domain,
            spec.paper_nnz,
            t.nnz(),
            dims,
            format!("{:?}", spec.class),
        );
    }
}
