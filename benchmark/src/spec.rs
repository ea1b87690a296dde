//! The programs the workloads run, built from `--seed` alone, and the
//! oracle their outputs are held to.
//!
//! Owns: input generation (every tensor comes from
//! `spdistal_sparse::generate` with a seed derived from `--seed`), the
//! program descriptions, the serial-reference oracle, output checksums.
//! Does not own: how a program is driven or timed (`workloads`, `measure`).
//!
//! The oracle is `spdistal_sparse::reference` — independent serial loops
//! over the coordinate tree — never the compiler's own output.

use std::collections::BTreeMap;

use spdistal::prelude::*;
use spdistal::OutputValue;
use spdistal_ir::Distribution;
use spdistal_sparse::{convert, dense_matrix, dense_vector, generate, reference, SpTensor};

/// Dense operand width / factor rank of SpMM, SDDMM and SpMTTKRP (the
/// paper's evaluation fixes a small rank).
pub const WIDTH: usize = 32;

/// Sub-seed `k` of the run's seed (splitmix64), so every generated tensor
/// draws from its own stream.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The six evaluation kernels, with the names of their operands in the
/// order the reference kernels take them.
#[derive(Clone, Debug)]
pub enum Kern {
    SpMv { b: String, c: String },
    SpMm { b: String, c: String },
    SpAdd3 { b: String, c: String, d: String },
    Sddmm { b: String, c: String, d: String },
    SpTtv { b: String, c: String },
    SpMttkrp { b: String, c: String, d: String },
}

impl Kern {
    /// The sparse operand that drives iteration.
    pub fn driver(&self) -> &str {
        match self {
            Kern::SpMv { b, .. }
            | Kern::SpMm { b, .. }
            | Kern::SpAdd3 { b, .. }
            | Kern::Sddmm { b, .. }
            | Kern::SpTtv { b, .. }
            | Kern::SpMttkrp { b, .. } => b,
        }
    }

    /// Lower-case kernel name as the per-layer metric names spell it.
    pub fn label(&self) -> &'static str {
        match self {
            Kern::SpMv { .. } => "spmv",
            Kern::SpMm { .. } => "spmm",
            Kern::SpAdd3 { .. } => "spadd3",
            Kern::Sddmm { .. } => "sddmm",
            Kern::SpTtv { .. } => "spttv",
            Kern::SpMttkrp { .. } => "spmttkrp",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sched {
    OuterDim,
    Nonzero,
    Auto,
}

impl Sched {
    pub fn spec(self) -> ScheduleSpec {
        match self {
            Sched::OuterDim => ScheduleSpec::outer_dim(),
            Sched::Nonzero => ScheduleSpec::nonzero(),
            Sched::Auto => ScheduleSpec::Auto,
        }
    }

    /// The wire protocol's schedule name.
    pub fn wire_name(self) -> &'static str {
        match self {
            Sched::OuterDim => "outer-dim",
            Sched::Nonzero => "non-zero",
            Sched::Auto => "auto",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Stmt {
    pub tin: String,
    pub out: String,
    pub kern: Kern,
    pub sched: Sched,
}

#[derive(Clone, Debug)]
pub struct TensorDecl {
    pub name: String,
    pub format: Format,
    /// The wire protocol's name for `format` (serving registers by name).
    pub format_name: &'static str,
    pub data: SpTensor,
}

/// One program: machine size, execution mode, tensors, statements.
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    pub pieces: usize,
    pub mode: ExecMode,
    pub split: SplitPolicy,
    pub tensors: Vec<TensorDecl>,
    pub stmts: Vec<Stmt>,
}

impl ProgramSpec {
    pub fn machine(&self) -> Machine {
        Machine::grid1d(self.pieces, MachineProfile::lassen_cpu())
    }

    pub fn tensor(&self, name: &str) -> &SpTensor {
        &self
            .tensors
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("spec declares no tensor '{name}'"))
            .data
    }

    pub fn tensor_mut(&mut self, name: &str) -> &mut SpTensor {
        &mut self
            .tensors
            .iter_mut()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("spec declares no tensor '{name}'"))
            .data
    }

    /// Deep copies of every tensor, in declaration order — what a program
    /// build consumes. Cloned outside any timed region.
    pub fn cloned_tensors(&self) -> Vec<(String, Format, SpTensor)> {
        self.tensors
            .iter()
            .map(|t| (t.name.clone(), t.format.clone(), t.data.clone()))
            .collect()
    }

    /// The `Program` builder chain over already-cloned tensors.
    pub fn declare(&self, tensors: Vec<(String, Format, SpTensor)>, trace: &Trace) -> Program {
        let mut p = Program::on(self.machine())
            .exec_mode(self.mode)
            .split_policy(self.split)
            .trace(trace.clone());
        for (name, format, data) in tensors {
            p = p.tensor(&name, format, data);
        }
        for s in &self.stmts {
            p = p.stmt(&s.tin).schedule(s.sched.spec());
        }
        p
    }

    pub fn build(&self, trace: &Trace) -> Result<CompiledProgram, spdistal::Error> {
        self.declare(self.cloned_tensors(), trace).build()
    }

    /// Non-zeros of every statement's driver, summed.
    pub fn driver_nnz(&self) -> usize {
        self.stmts
            .iter()
            .map(|s| self.tensor(s.kern.driver()).nnz())
            .sum()
    }

    /// Bytes one pass must touch at least once: every statement's operands
    /// and its output, computed from the inputs' sizes (not measured).
    pub fn bytes_computed(&self) -> u64 {
        self.stmts
            .iter()
            .map(|s| {
                let mut names: Vec<&str> = vec![&s.out];
                match &s.kern {
                    Kern::SpMv { b, c } | Kern::SpMm { b, c } | Kern::SpTtv { b, c } => {
                        names.extend([b.as_str(), c.as_str()])
                    }
                    Kern::SpAdd3 { b, c, d }
                    | Kern::Sddmm { b, c, d }
                    | Kern::SpMttkrp { b, c, d } => {
                        names.extend([b.as_str(), c.as_str(), d.as_str()])
                    }
                }
                names.iter().map(|n| self.tensor(n).bytes()).sum::<u64>()
            })
            .sum()
    }
}

/// What the oracle expects of one statement.
pub enum Expected {
    /// Values in the output's storage order (dense outputs, and SDDMM,
    /// whose output shares its driver's pattern).
    Vals(Vec<f64>),
    /// An assembled sparse output (SpAdd3, SpTTV).
    Tensor(SpTensor),
}

/// Evaluate every statement with the serial reference kernels, feeding
/// each output to the statements after it (RAW chains).
pub fn oracle(spec: &ProgramSpec) -> Vec<Expected> {
    let mut env: BTreeMap<&str, SpTensor> = spec
        .tensors
        .iter()
        .map(|t| (t.name.as_str(), t.data.clone()))
        .collect();
    let mut out = Vec::with_capacity(spec.stmts.len());
    for s in &spec.stmts {
        let expected = match &s.kern {
            Kern::SpMv { b, c } => Expected::Vals(reference::spmv(&env[&**b], env[&**c].vals())),
            Kern::SpMm { b, c } => {
                Expected::Vals(reference::spmm(&env[&**b], env[&**c].vals(), WIDTH))
            }
            Kern::SpAdd3 { b, c, d } => {
                Expected::Tensor(reference::spadd3(&env[&**b], &env[&**c], &env[&**d]))
            }
            Kern::Sddmm { b, c, d } => Expected::Vals(
                reference::sddmm(&env[&**b], env[&**c].vals(), env[&**d].vals(), WIDTH)
                    .vals()
                    .to_vec(),
            ),
            Kern::SpTtv { b, c } => {
                Expected::Tensor(reference::spttv(&env[&**b], env[&**c].vals()))
            }
            Kern::SpMttkrp { b, c, d } => Expected::Vals(reference::spmttkrp(
                &env[&**b],
                env[&**c].vals(),
                env[&**d].vals(),
                WIDTH,
            )),
        };
        // A later statement may read this output as a dense operand.
        if let Expected::Vals(v) = &expected {
            if let Some(t) = env.get_mut(s.out.as_str()) {
                if t.vals().len() == v.len() {
                    t.vals_mut().copy_from_slice(v);
                }
            }
        }
        out.push(expected);
    }
    out
}

/// Relative tolerance against the oracle: the compiled kernels sum each
/// row in a different order than the reference's coordinate walk.
pub const TOLERANCE: f64 = 1e-9;

pub fn vals_of(value: &OutputValue) -> &[f64] {
    match value {
        OutputValue::Dense(v) => v,
        OutputValue::Tensor(t) => t.vals(),
    }
}

/// Compare one statement's output with what the oracle expects.
pub fn matches_oracle(got: &OutputValue, expected: &Expected) -> bool {
    match expected {
        Expected::Vals(v) => reference::approx_eq(vals_of(got), v, TOLERANCE),
        Expected::Tensor(t) => match got {
            // Assembled outputs may store explicit zeros the reference
            // drops; compare as dense matrices.
            OutputValue::Tensor(g) => {
                g.dims() == t.dims()
                    && reference::approx_eq(&convert::to_dense(g), &convert::to_dense(t), TOLERANCE)
            }
            OutputValue::Dense(_) => false,
        },
    }
}

/// Order-sensitive fold of every value's bit pattern (FNV-1a over 64-bit
/// words). Equal checksums mean bit-identical outputs, op after op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checksum(pub u64);

impl Checksum {
    pub fn new() -> Checksum {
        Checksum(0xCBF2_9CE4_8422_2325)
    }

    pub fn fold(&mut self, vals: &[f64]) {
        let mut h = self.0;
        for v in vals {
            h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Length too: [a] then [b] must differ from [a, b].
        self.0 = (h ^ vals.len() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

impl Checksum {
    /// Hold this op's checksum to the first op's (`first` remembers it).
    pub fn same_as_first(self, first: &mut Option<Checksum>) -> Result<(), String> {
        match *first.get_or_insert(self) {
            f if f == self => Ok(()),
            _ => Err("output bits differ from the first op's".to_string()),
        }
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

/// Checksum of every statement's output of the program's last run.
pub fn program_checksum(program: &CompiledProgram) -> Checksum {
    let mut sum = Checksum::new();
    for k in 0..program.stmt_count() {
        match program.value(k) {
            Some(v) => sum.fold(vals_of(v)),
            None => sum.fold(&[f64::NAN]),
        }
    }
    sum
}

/// Check every statement of the program's last run against the oracle.
pub fn check_program(program: &CompiledProgram, expected: &[Expected]) -> Result<(), String> {
    for (k, e) in expected.iter().enumerate() {
        let got = program
            .value(k)
            .ok_or_else(|| format!("statement {k} produced no output"))?;
        if !matches_oracle(got, e) {
            return Err(format!("statement {k} differs from the serial reference"));
        }
    }
    Ok(())
}

fn decl(name: &str, format: Format, format_name: &'static str, data: SpTensor) -> TensorDecl {
    TensorDecl {
        name: name.to_string(),
        format,
        format_name,
        data,
    }
}

fn dense_vec_decl(name: &str, n: usize, seed: Option<u64>, replicated: bool) -> TensorDecl {
    let vals = match seed {
        Some(s) => generate::dense_vec(n, s),
        None => vec![0.0; n],
    };
    if replicated {
        decl(
            name,
            Format::replicated_dense_vec(),
            "replicated_dense_vec",
            dense_vector(vals),
        )
    } else {
        decl(
            name,
            Format::blocked_dense_vec(),
            "blocked_dense_vec",
            dense_vector(vals),
        )
    }
}

fn dense_mat_decl(
    name: &str,
    rows: usize,
    cols: usize,
    seed: Option<u64>,
    format: Format,
    format_name: &'static str,
) -> TensorDecl {
    let vals = match seed {
        Some(s) => generate::dense_buffer(rows, cols, s),
        None => vec![0.0; rows * cols],
    };
    decl(name, format, format_name, dense_matrix(rows, cols, vals))
}

/// `iter_small`: the 3-statement RAW chain `x1=B·x0; x2=B·x1; x3=B·x2`.
/// Kernels are a few percent of an iteration; the fixed per-iteration
/// cost (plan lookup, plan preparation, one pool drain per statement,
/// model replay, result clone, session batch cuts) is the rest.
pub fn iter_small(seed: u64) -> ProgramSpec {
    let b = generate::rmat_default(12, 50_000, sub_seed(seed, 0));
    let n = b.dims()[0];
    let mut tensors = vec![
        decl("B", Format::blocked_csr(), "blocked_csr", b),
        dense_vec_decl("x0", n, Some(sub_seed(seed, 1)), true),
    ];
    for x in ["x1", "x2", "x3"] {
        tensors.push(dense_vec_decl(x, n, None, false));
    }
    let stmts = [("x1", "x0"), ("x2", "x1"), ("x3", "x2")]
        .iter()
        .map(|(out, input)| Stmt {
            tin: format!("{out}(i) = B(i,j) * {input}(j)"),
            out: out.to_string(),
            kern: Kern::SpMv {
                b: "B".to_string(),
                c: input.to_string(),
            },
            sched: Sched::OuterDim,
        })
        .collect();
    ProgramSpec {
        pieces: 8,
        mode: ExecMode::Parallel(2),
        split: SplitPolicy::Auto,
        tensors,
        stmts,
    }
}

/// Samples drawn for each driver of the sweep (stored non-zeros are fewer:
/// duplicates merge).
pub struct SweepSize {
    /// Matrices are `2^scale` square; the 3-tensor is `2^scale / 4 x 64 x 64`.
    pub scale: u32,
    pub spmm: usize,
    pub spmv: usize,
    pub sddmm: usize,
    pub tensor: usize,
    pub spadd: usize,
}

/// The 6-statement independent sweep behind `iter_heavy` and
/// `compile_cold`: all six evaluation kernels, specialized and fallback
/// leaf kernels, in-place and assembled outputs, skewed inputs.
/// `auto_first` leaves the SpMM schedule to the auto-scheduler.
pub fn sweep(seed: u64, size: &SweepSize, mode: ExecMode, auto_first: bool) -> ProgramSpec {
    let scale = size.scale;
    let n = 1usize << scale;
    let skewed = |k: u64, nnz: usize| generate::rmat_clustered(scale, nnz, 0.9, sub_seed(seed, k));
    let b0 = skewed(10, size.spmm);
    let b1 = convert::to_dcsr(&skewed(11, size.spmv));
    let b2 = skewed(12, size.sddmm);
    let dims3 = [n / 4, 64, 64];
    let b3 = generate::tensor3_skewed(dims3, size.tensor, 1.1, sub_seed(seed, 13));
    let b5 = skewed(15, size.spadd);
    let c5 = generate::shift_last_dim(&b5, 1);
    let d5 = generate::shift_last_dim(&b5, 2);
    // SDDMM's output shares B2's pattern and level layout under the
    // blocked distribution; SpTTV's is B3's (i,j) fibers.
    let a2_format = Format::new(
        Format::blocked_csr().levels.clone(),
        Distribution::new("xy", "x").expect("static TDN text"),
    );
    let a4 = spdistal::kernels::tensor3::spttv_output(
        &b3,
        vec![0.0; spdistal::level_funcs::entry_counts(&b3)[1] as usize],
    );
    let tensors = vec![
        // 0: SpMM / CSR
        dense_mat_decl(
            "A0",
            n,
            WIDTH,
            None,
            Format::blocked_dense_matrix(),
            "blocked_dense_matrix",
        ),
        decl("B0", Format::blocked_csr(), "blocked_csr", b0),
        dense_mat_decl(
            "C0",
            n,
            WIDTH,
            Some(sub_seed(seed, 20)),
            Format::replicated_dense_matrix(),
            "replicated_dense_matrix",
        ),
        // 1: SpMV / DCSR
        dense_vec_decl("a1", n, None, false),
        decl("B1", Format::blocked_dcsr(), "blocked_dcsr", b1),
        dense_vec_decl("c1", n, Some(sub_seed(seed, 21)), true),
        // 2: SDDMM / CSR
        decl("A2", a2_format, "blocked_csr", b2.clone()),
        decl("B2", Format::nonzero_csr(), "nonzero_csr", b2),
        dense_mat_decl(
            "C2",
            n,
            WIDTH,
            Some(sub_seed(seed, 22)),
            Format::staged_dense_matrix(),
            "staged_dense_matrix",
        ),
        dense_mat_decl(
            "D2",
            WIDTH,
            n,
            Some(sub_seed(seed, 23)),
            Format::staged_dense_matrix(),
            "staged_dense_matrix",
        ),
        // 3: SpMTTKRP / CSF, 4: SpTTV / CSF (both read B3)
        dense_mat_decl(
            "A3",
            dims3[0],
            WIDTH,
            None,
            Format::blocked_dense_matrix(),
            "blocked_dense_matrix",
        ),
        decl("B3", Format::blocked_csf3(), "blocked_csf3", b3),
        dense_mat_decl(
            "C3",
            dims3[1],
            WIDTH,
            Some(sub_seed(seed, 24)),
            Format::replicated_dense_matrix(),
            "replicated_dense_matrix",
        ),
        dense_mat_decl(
            "D3",
            dims3[2],
            WIDTH,
            Some(sub_seed(seed, 25)),
            Format::replicated_dense_matrix(),
            "replicated_dense_matrix",
        ),
        decl("A4", Format::blocked_csr(), "blocked_csr", a4),
        dense_vec_decl("c4", dims3[2], Some(sub_seed(seed, 26)), true),
        // 5: SpAdd3 / CSR
        decl(
            "A5",
            Format::blocked_csr(),
            "blocked_csr",
            spdistal::plan::empty_csr(n, n),
        ),
        decl("B5", Format::blocked_csr(), "blocked_csr", b5),
        decl("C5", Format::blocked_csr(), "blocked_csr", c5),
        decl("D5", Format::blocked_csr(), "blocked_csr", d5),
    ];
    let s = |x: &str| x.to_string();
    let stmts = vec![
        Stmt {
            tin: s("A0(i,j) = B0(i,k) * C0(k,j)"),
            out: s("A0"),
            kern: Kern::SpMm {
                b: s("B0"),
                c: s("C0"),
            },
            sched: if auto_first {
                Sched::Auto
            } else {
                Sched::OuterDim
            },
        },
        Stmt {
            tin: s("a1(i) = B1(i,j) * c1(j)"),
            out: s("a1"),
            kern: Kern::SpMv {
                b: s("B1"),
                c: s("c1"),
            },
            sched: Sched::Nonzero,
        },
        Stmt {
            tin: s("A2(i,j) = B2(i,j) * C2(i,k) * D2(k,j)"),
            out: s("A2"),
            kern: Kern::Sddmm {
                b: s("B2"),
                c: s("C2"),
                d: s("D2"),
            },
            sched: Sched::Nonzero,
        },
        Stmt {
            tin: s("A3(i,l) = B3(i,j,k) * C3(j,l) * D3(k,l)"),
            out: s("A3"),
            kern: Kern::SpMttkrp {
                b: s("B3"),
                c: s("C3"),
                d: s("D3"),
            },
            sched: Sched::OuterDim,
        },
        Stmt {
            tin: s("A4(i,j) = B3(i,j,k) * c4(k)"),
            out: s("A4"),
            kern: Kern::SpTtv {
                b: s("B3"),
                c: s("c4"),
            },
            sched: Sched::OuterDim,
        },
        Stmt {
            tin: s("A5(i,j) = B5(i,j) + C5(i,j) + D5(i,j)"),
            out: s("A5"),
            kern: Kern::SpAdd3 {
                b: s("B5"),
                c: s("C5"),
                d: s("D5"),
            },
            sched: Sched::OuterDim,
        },
    ];
    ProgramSpec {
        pieces: 8,
        mode,
        split: SplitPolicy::Auto,
        tensors,
        stmts,
    }
}

/// `iter_heavy`: the sweep at a size where leaf kernels, span splitting,
/// stealing and the output fold are most of an iteration. Each statement
/// is sized to 1-4 ms of kernel time; SDDMM (non-zero schedule) and SpAdd3
/// (assembled output) carry a per-non-zero cost outside their kernels, so
/// they get fewer non-zeros than the kernels that write in place.
pub fn iter_heavy(seed: u64) -> ProgramSpec {
    let size = SweepSize {
        scale: 13,
        spmm: 1_000_000,
        spmv: 1_000_000,
        sddmm: 40_000,
        tensor: 1_000_000,
        spadd: 80_000,
    };
    sweep(seed, &size, ExecMode::Parallel(2), false)
}

/// `compile_cold`: the same six statements at ~60 k non-zeros per driver,
/// serial, one schedule left to the auto-scheduler.
pub fn compile_cold(seed: u64) -> ProgramSpec {
    let size = SweepSize {
        scale: 12,
        spmm: 60_000,
        spmv: 60_000,
        sddmm: 60_000,
        tensor: 60_000,
        spadd: 60_000,
    };
    sweep(seed, &size, ExecMode::Serial, true)
}

/// Rows of `stream_delta`'s banded matrix and how they split into colors.
pub const STREAM_ROWS: usize = 12_288;
pub const STREAM_PIECES: usize = 16;
pub const STREAM_BAND: usize = 21;

/// `stream_delta`: SpMM (32-wide) over a banded CSR matrix on 16 pieces,
/// serial — the program streamed deltas are applied to.
pub fn stream_delta(seed: u64) -> ProgramSpec {
    let n = STREAM_ROWS;
    let b = generate::banded(n, STREAM_BAND, sub_seed(seed, 30));
    ProgramSpec {
        pieces: STREAM_PIECES,
        mode: ExecMode::Serial,
        split: SplitPolicy::Auto,
        tensors: vec![
            dense_mat_decl(
                "A",
                n,
                WIDTH,
                None,
                Format::blocked_dense_matrix(),
                "blocked_dense_matrix",
            ),
            decl("B", Format::blocked_csr(), "blocked_csr", b),
            dense_mat_decl(
                "C",
                n,
                WIDTH,
                Some(sub_seed(seed, 31)),
                Format::replicated_dense_matrix(),
                "replicated_dense_matrix",
            ),
        ],
        stmts: vec![Stmt {
            tin: "A(i,j) = B(i,k) * C(k,j)".to_string(),
            out: "A".to_string(),
            kern: Kern::SpMm {
                b: "B".to_string(),
                c: "C".to_string(),
            },
            sched: Sched::OuterDim,
        }],
    }
}

/// `serve_closed`: the SpMV every request submits. `pieces` and `mode`
/// are the server's defaults (4 pieces, serial) — the in-process replay
/// that yields the modelled time uses them.
pub fn serve_closed(seed: u64) -> ProgramSpec {
    let b = generate::rmat_default(12, 50_000, sub_seed(seed, 40));
    let n = b.dims()[0];
    ProgramSpec {
        pieces: 4,
        mode: ExecMode::Serial,
        split: SplitPolicy::Auto,
        tensors: vec![
            dense_vec_decl("a", n, None, false),
            decl("B", Format::blocked_csr(), "blocked_csr", b),
            dense_vec_decl("c", n, Some(sub_seed(seed, 41)), true),
        ],
        stmts: vec![Stmt {
            tin: "a(i) = B(i,j) * c(j)".to_string(),
            out: "a".to_string(),
            kern: Kern::SpMv {
                b: "B".to_string(),
                c: "c".to_string(),
            },
            sched: Sched::OuterDim,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (iter_small(7), iter_small(7));
        assert_eq!(a.tensor("B").vals(), b.tensor("B").vals());
        assert_eq!(a.tensor("x0").vals(), b.tensor("x0").vals());
        assert_ne!(a.tensor("x0").vals(), iter_small(8).tensor("x0").vals());
    }

    #[test]
    fn checksum_is_order_and_length_sensitive() {
        let fold = |parts: &[&[f64]]| {
            let mut c = Checksum::new();
            for p in parts {
                c.fold(p);
            }
            c
        };
        assert_eq!(fold(&[&[1.0, 2.0]]), fold(&[&[1.0, 2.0]]));
        assert_ne!(fold(&[&[1.0, 2.0]]), fold(&[&[2.0, 1.0]]));
        assert_ne!(fold(&[&[1.0], &[2.0]]), fold(&[&[1.0, 2.0]]));
        assert_ne!(
            fold(&[&[0.0]]),
            fold(&[&[-0.0]]),
            "bit patterns, not values"
        );
    }

    #[test]
    fn oracle_chains_outputs_into_later_statements() {
        let spec = iter_small(3);
        let expected = oracle(&spec);
        let b = spec.tensor("B");
        let x1 = reference::spmv(b, spec.tensor("x0").vals());
        let x2 = reference::spmv(b, &x1);
        match (&expected[0], &expected[1]) {
            (Expected::Vals(e1), Expected::Vals(e2)) => {
                assert_eq!(e1, &x1);
                assert_eq!(e2, &x2);
            }
            _ => panic!("SpMV outputs are dense"),
        }
    }
}
