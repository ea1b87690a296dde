//! The specialized kernel layer: span-aware leaf loops over the flat
//! `pos`/`crd`/`vals` slices of blessed driver layouts, written once per
//! *kernel body* and instantiated per *level kind*.
//!
//! | | |
//! |---|---|
//! | **Owns** | the blessed leaf loops (`matrix`, `tensor3`) — SpAdd3's merge among them, its only implementation — the two walkers they share (`for_rows`, `for_coo_runs`), the `Owner` cursor by which the row walkers decide row ownership once per row run and the one cut-row path (`cut`), the `TopLevel` and `MidLevel` level kinds, the one row fold of SpMM and SpMTTKRP (`RowFold`: the layer's one output-row borrow and its one AVX entry point, taken under the `Avx` proof), and the one table of blessed `(kernel, stored signature)` pairs behind [`lookup`] and the compile-time refusal |
//! | **Does not own** | when the lookup happens — once per describe (`plan::Described`, reused by a program's cached passes) in `plan.rs`, keyed by the driver's [`storage_signature`] (the arrays the kernel reads), never by its declared format |
//! | **Does not own** | partition bounds — every loop reads them through [`LevelClamps`](crate::level_funcs::LevelClamps) |
//! | **Does not own** | span shapes — which level a kernel splits at and how a color is chunked is [`crate::kernels::split`] |
//! | **Does not own** | output aliasing and assembly — shared buffer vs. per-color partials, and SpAdd3's span buffers into one tensor, are `plan.rs`; a kernel only sees the [`OutVals`] or the buffer it is handed |
//! | **Does not own** | the generic walker (`kernels::{matrix,tensor3}::*_color`) — the identity suites' oracle and the benchmark's baseline, no longer a dispatch path: an unblessed layout does not compile |
//!
//! ## Kernel bodies × level kinds
//!
//! A format is a list of level kinds, and the blessed layouts differ only
//! in how level 0 yields `(row coordinate, child position range)`:
//!
//! * **row-keyed** drivers (CSR, DCSR, CSF, doubly-compressed CSF) have a
//!   compressed level 1 under a dense or compressed level 0. One source
//!   per kernel, generic over `TopLevel`, driven by `for_rows`, which
//!   tells the body whether it owns each row whole (a straight slice) or
//!   the clamp cuts it (`cut`); the compiler emits the `DenseTop` and
//!   `CompressedTop` variants. The order-3 sources are generic over a
//!   `MidLevel` instead: compressed (`CompressedMid<T>`, driven by
//!   `for_rows::<T>`) or dense under a dense level 0 (`DenseMid`, the
//!   patents layout `{Dense,Dense,Compressed}`, whose level-1 fibers are a
//!   fused dense `(i,j)` dimension).
//! * **COO** drivers (`{Compressed,Singleton,..}`) share one entry index
//!   across all levels. One source per kernel, driven by
//!   `for_coo_runs`; a row is a run of equal level-0 coordinates
//!   (`equal_runs`).
//!
//! ## One row fold
//!
//! SpMM and SpMTTKRP add dense factor rows into a dense output row, and
//! every layout of both does it through one primitive, `RowFold::row`: it
//! borrows output row `i` once (`OutVals::row_mut`) and folds the row's
//! runs of stored entries into it four entries per step with `out[l]` in a
//! register (the tail entry by entry). A kernel hands it the runs — each
//! stored positions with the clamp that cuts them, if any — and their
//! `Terms`: SpMM's `v·C[k,l]` (`Scaled`, which prefetches `C` rows ahead),
//! SpMTTKRP's `(v·C[j,l])·D[k,l]` for one fiber's `j` (`Fiber`). Where
//! the `Avx` proof is present the fold runs under
//! `#[target_feature(enable = "avx")]` (`RowFold::wide`), the layer's one
//! such function; with no closure between it and the fold loop, the loop
//! is compiled with the wider lanes. The update is element-wise with no
//! FMA, so both arms keep the walker's bits.
//!
//! | kernel     | `{Dense,Compressed}` (CSR) | `{Compressed,Compressed}` (DCSR) | `{Compressed,Singleton}` (COO) |
//! |------------|----------------------------|----------------------------------|--------------------------------|
//! | `SpMv`     | `spmv::<DenseTop>`         | `spmv::<CompressedTop>`          | `spmv_coo`                     |
//! | `SpMm`     | `spmm::<DenseTop>`         | `spmm::<CompressedTop>`          | `spmm_coo`                     |
//! | `Sddmm`    | `sddmm::<DenseTop>`        | `sddmm::<CompressedTop>`         | `sddmm_coo`                    |
//!
//! plus the order-3 analogues for `SpMttkrp` and `SpTtv`:
//! `spmttkrp::<CompressedMid<DenseTop>>` / `spttv::<..>` on CSF
//! `{Dense,Compressed,Compressed}`, the `CompressedMid<CompressedTop>`
//! instances on `{Compressed,Compressed,Compressed}`, the `DenseMid`
//! instances on `{Dense,Dense,Compressed}`, and `spmttkrp_coo` /
//! `spttv_coo` on `{Compressed,Singleton,Singleton}`; and `spadd3` on CSR.
//! That is 18 pairs, and every other `(kernel, stored signature)` is
//! refused at compile by `recognize`.
//!
//! ## Contract
//!
//! Every kernel here is **bit-identical** to its generic counterpart
//! (`matrix::*_color` / `tensor3::*_color`; for SpAdd3, the per-row merge
//! it replaced, kept as the oracle of `tests/specialized_identity.rs`) for
//! every partition, color, and [`KernelSpan`]: it resolves its iteration
//! bounds through `LevelClamps`, visits stored entries in the same
//! ascending order, and performs the same per-element floating-point
//! accumulation sequence. It also returns the same exact integer op count,
//! so the discrete-event cost model cannot observe which path ran. See
//! `docs/kernels.md` for how to add a kernel body or a level kind and the
//! identity bar it must clear.

mod matrix;
mod tensor3;

use spdistal_runtime::{IntervalSet, Rect1};
use spdistal_sparse::{Level, LevelFormat, SpTensor};

use super::{KernelSpan, LeafKernel, OutVals};
use crate::level_funcs::{LevelClamps, TensorPartition};

/// A blessed leaf implementation, same contract as the generic `*_color`
/// walkers: compute one `(color, span)` task's contribution and return the
/// modeled op count.
pub type SpMvFn =
    fn(&SpTensor, &TensorPartition, usize, Option<&KernelSpan>, &[f64], &OutVals) -> f64;
pub type SpMmFn =
    fn(&SpTensor, &TensorPartition, usize, Option<&KernelSpan>, &[f64], usize, &OutVals) -> f64;
pub type SddmmFn = fn(
    &SpTensor,
    &TensorPartition,
    usize,
    Option<&KernelSpan>,
    &[f64],
    &[f64],
    usize,
    usize,
    &OutVals,
) -> f64;
pub type SpMttkrpFn = fn(
    &SpTensor,
    &TensorPartition,
    usize,
    Option<&KernelSpan>,
    &[f64],
    &[f64],
    usize,
    &OutVals,
) -> f64;
pub type SpTtvFn =
    fn(&SpTensor, &TensorPartition, usize, Option<&KernelSpan>, &[f64], &OutVals) -> f64;
/// SpAdd3 over `(B, C, D)`: appends the task's merged rows to one flat
/// buffer — `(row, len)` per non-empty row in ascending order, then the
/// rows' columns and values back to back — and returns the (symbolic,
/// numeric) op counts.
pub type SpAdd3Fn = fn(
    &SpTensor,
    &SpTensor,
    &SpTensor,
    &TensorPartition,
    usize,
    Option<&KernelSpan>,
    &mut Vec<(usize, usize)>,
    &mut Vec<i64>,
    &mut Vec<f64>,
) -> (f64, f64);

/// One resolved `(kernel, signature)` pair: the kernel-shaped function
/// pointer `PreparedPlan::new` binds into the plan's leaf.
#[derive(Clone, Copy)]
pub enum SpecializedKernel {
    SpMv(SpMvFn),
    SpMm(SpMmFn),
    Sddmm(SddmmFn),
    SpMttkrp(SpMttkrpFn),
    SpTtv(SpTtvFn),
    SpAdd3(SpAdd3Fn),
}

/// How a row-keyed driver's level 0 yields row coordinates — the one thing
/// CSR and DCSR (CSF and doubly-compressed CSF) loops differ in. The
/// implementors are zero-sized; the methods are associated functions so a
/// kernel instantiated at one of them is still a plain `fn` item.
trait TopLevel {
    /// The level-0 entries under the root, and the level's stored
    /// coordinate array (empty when coordinates are implicit).
    fn open(t: &SpTensor) -> (Rect1, &[i64]);
    /// The row coordinate of level-0 entry `entry`, given `open`'s array.
    fn coord(crd: &[i64], entry: i64) -> usize;
}

/// Dense level 0: every row is an entry, and the entry *is* the coordinate.
struct DenseTop;
/// Compressed level 0: one entry per stored row, coordinates in `crd`.
struct CompressedTop;

impl TopLevel for DenseTop {
    #[inline(always)]
    fn open(t: &SpTensor) -> (Rect1, &[i64]) {
        (Rect1::new(0, t.dims()[0] as i64 - 1), &[])
    }
    #[inline(always)]
    fn coord(_: &[i64], entry: i64) -> usize {
        entry as usize
    }
}

impl TopLevel for CompressedTop {
    #[inline(always)]
    fn open(t: &SpTensor) -> (Rect1, &[i64]) {
        let (pos, crd) = compressed(t, 0);
        (pos[0], crd)
    }
    #[inline(always)]
    fn coord(crd: &[i64], entry: i64) -> usize {
        crd[entry as usize] as usize
    }
}

/// The row walker every row-keyed kernel shares: visit the level-0
/// entries of `b` inside the clamp `rows` in ascending order, skip rows
/// with no stored children, and hand `row(coordinate, level-1 position
/// range, owned)` to the kernel body. Returns the sum of the body's
/// results (its stored-entry counts).
///
/// Ownership is decided here, once per row run: `owned` says the range
/// lies inside one run of `cols`, the next level's clamp, and comes from
/// an [`Owner`] cursor that moves forward with the rows. An owned row is
/// one straight slice for the body; any other row goes through [`cut`].
///
/// While a row streams, the head of the next row's level-1 `crd` block
/// (and of its values, when level 1 is the leaf) is prefetched: row-keyed
/// drivers jump between discontiguous blocks, and the lookahead hides the
/// first-line miss of each.
#[inline(always)]
fn for_rows<T: TopLevel>(
    b: &SpTensor,
    rows: &IntervalSet,
    cols: &IntervalSet,
    mut row: impl FnMut(usize, Rect1, bool) -> u64,
) -> u64 {
    let (root, crd0) = T::open(b);
    let (pos1, crd1) = compressed(b, 1);
    let leaf_vals = if b.order() == 2 { b.vals() } else { &[] };
    let mut owner = Owner::new(cols);
    let mut n = 0u64;
    for rr in rows.intersect_rect(root) {
        for e in rr.lo..=rr.hi {
            if e < rr.hi {
                let next = pos1[(e + 1) as usize];
                if !next.is_empty() {
                    prefetch_read(crd1, next.lo as usize);
                    prefetch_read(leaf_vals, next.lo as usize);
                }
            }
            let children = pos1[e as usize];
            if !children.is_empty() {
                n += row(T::coord(crd0, e), children, owner.owns(children));
            }
        }
    }
    n
}

/// Whether a position range lies inside one run of a clamp, answered by a
/// cursor that only moves forward over the clamp's runs: a query skips
/// the runs that end before it and then compares against one run, with no
/// binary search and no iterator. Queried in ascending order, as the row
/// walkers do, it answers exactly "`range` ⊆ clamp" (a canonical set's
/// runs never touch, so a contiguous subset lies in one of them). A query
/// behind the cursor answers `false`, which only sends that row through
/// [`cut`]: correctness never depends on the order.
struct Owner<'a> {
    /// The clamp's runs from the first one that may still hold a query.
    runs: &'a [Rect1],
}

impl<'a> Owner<'a> {
    fn new(clamp: &'a IntervalSet) -> Self {
        Owner {
            runs: clamp.rects(),
        }
    }

    /// Does `range` lie inside one run of the clamp? `false` when `range`
    /// is empty.
    #[inline(always)]
    fn owns(&mut self, range: Rect1) -> bool {
        while let [run, rest @ ..] = self.runs {
            if run.hi >= range.lo {
                return range.hi <= run.hi && run.lo <= range.lo && range.lo <= range.hi;
            }
            self.runs = rest;
        }
        false
    }
}

/// The one cut-row path: the runs of `range ∩ clamp`, ascending (none
/// for a range outside the clamp). The only per-row clamp search a
/// row-keyed body makes.
#[inline(always)]
fn cut(range: Rect1, clamp: &IntervalSet) -> impl Iterator<Item = Rect1> + '_ {
    clamp.intersect_rect(range)
}

/// Sum `piece` over the part of `range` a task computes: `range` whole
/// when the walker found it `owned`, else each run of its [`cut`] against
/// `clamp`.
#[inline(always)]
fn pieces(
    range: Rect1,
    owned: bool,
    clamp: &IntervalSet,
    mut piece: impl FnMut(Rect1) -> u64,
) -> u64 {
    if owned {
        piece(range)
    } else {
        cut(range, clamp).map(piece).sum()
    }
}

/// The run walker every COO kernel shares. Singleton levels reuse the
/// level-0 entry index, so all per-level clamps compose into one set
/// intersected with the root range: `run(lo, hi)` receives each maximal
/// contiguous entry run (inclusive), in ascending order — one flat pass
/// over the stored tuples. A COO row is a run of equal level-0
/// coordinates ([`equal_runs`]). Returns the entries visited.
#[inline(always)]
fn for_coo_runs(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    mut run: impl FnMut(usize, usize),
) -> u64 {
    let clamps = LevelClamps::new(part, color, span);
    let mut all = clamps.level(0).intersect(clamps.level(1));
    for level in 2..b.order() {
        all = all.intersect(clamps.level(level));
    }
    let mut n = 0u64;
    for r in all.intersect_rect(compressed(b, 0).0[0]) {
        run(r.lo as usize, r.hi as usize);
        n += r.len();
    }
    n
}

/// The runs of equal coordinate in `crd[lo..=hi]`, ascending: each
/// coordinate with the stored positions it holds. A COO row (level 0) or a
/// COO fiber inside a row (level 1) is one such run.
#[inline(always)]
fn equal_runs(crd: &[i64], lo: usize, hi: usize) -> impl Iterator<Item = (usize, Rect1)> + '_ {
    crd[lo..=hi].chunk_by(|a, b| a == b).scan(lo, |at, run| {
        let positions = Rect1::new(*at as i64, (*at + run.len() - 1) as i64);
        *at += run.len();
        Some((run[0] as usize, positions))
    })
}

/// The kernel's name in `kernel-dispatch` trace events and refusals.
pub fn kernel_name(kernel: &LeafKernel) -> &'static str {
    match kernel {
        LeafKernel::SpMv => "SpMv",
        LeafKernel::SpMm { .. } => "SpMm",
        LeafKernel::SpAdd3 => "SpAdd3",
        LeafKernel::Sddmm { .. } => "Sddmm",
        LeafKernel::SpTtv => "SpTtv",
        LeafKernel::SpMttkrp { .. } => "SpMttkrp",
    }
}

/// The blessed storage signatures, as `Format::levels_signature()` spells
/// them.
const CSR: &str = "{Dense,Compressed}";
const DCSR: &str = "{Compressed,Compressed}";
const COO: &str = "{Compressed,Singleton}";
const CSF: &str = "{Dense,Compressed,Compressed}";
const DCSF: &str = "{Compressed,Compressed,Compressed}";
const COO3: &str = "{Compressed,Singleton,Singleton}";
const DDC: &str = "{Dense,Dense,Compressed}";

/// The blessed `(kernel name, stored signature, kernel)` triples: the one
/// table behind [`lookup`] and behind the refusal that lists what a kernel
/// runs over.
const BLESSED: [(&str, &str, SpecializedKernel); 18] = {
    use tensor3::{spmttkrp, spttv, CompressedMid as Mid, DenseMid};
    use SpecializedKernel as K;
    [
        ("SpMv", CSR, K::SpMv(matrix::spmv::<DenseTop>)),
        ("SpMv", DCSR, K::SpMv(matrix::spmv::<CompressedTop>)),
        ("SpMv", COO, K::SpMv(matrix::spmv_coo)),
        ("SpMm", CSR, K::SpMm(matrix::spmm::<DenseTop>)),
        ("SpMm", DCSR, K::SpMm(matrix::spmm::<CompressedTop>)),
        ("SpMm", COO, K::SpMm(matrix::spmm_coo)),
        ("Sddmm", CSR, K::Sddmm(matrix::sddmm::<DenseTop>)),
        ("Sddmm", DCSR, K::Sddmm(matrix::sddmm::<CompressedTop>)),
        ("Sddmm", COO, K::Sddmm(matrix::sddmm_coo)),
        ("SpMttkrp", CSF, K::SpMttkrp(spmttkrp::<Mid<DenseTop>>)),
        (
            "SpMttkrp",
            DCSF,
            K::SpMttkrp(spmttkrp::<Mid<CompressedTop>>),
        ),
        ("SpMttkrp", COO3, K::SpMttkrp(tensor3::spmttkrp_coo)),
        ("SpMttkrp", DDC, K::SpMttkrp(spmttkrp::<DenseMid>)),
        ("SpTtv", CSF, K::SpTtv(spttv::<Mid<DenseTop>>)),
        ("SpTtv", DCSF, K::SpTtv(spttv::<Mid<CompressedTop>>)),
        ("SpTtv", COO3, K::SpTtv(tensor3::spttv_coo)),
        ("SpTtv", DDC, K::SpTtv(spttv::<DenseMid>)),
        ("SpAdd3", CSR, K::SpAdd3(matrix::spadd3)),
    ]
};

/// Look up the blessed implementation of `(kernel, levels_signature)`,
/// where `levels_signature` is the driver's [`storage_signature`] — the
/// arrays the kernel will read. `None`: not blessed, and nothing runs it
/// ([`crate::kernels::recognize`] refuses the statement at compile).
pub fn lookup(kernel: &LeafKernel, levels_signature: &str) -> Option<SpecializedKernel> {
    let name = kernel_name(kernel);
    BLESSED
        .iter()
        .find(|(k, sig, _)| *k == name && *sig == levels_signature)
        .map(|&(.., f)| f)
}

/// Why `kernel` does not run over operand `operand` stored `signature`:
/// the refusal names the kernel, the stored signature and every signature
/// the kernel is blessed over.
pub(crate) fn refusal(kernel: &LeafKernel, operand: &str, signature: &str) -> String {
    let name = kernel_name(kernel);
    let blessed: Vec<&str> = BLESSED
        .iter()
        .filter(|(k, ..)| *k == name)
        .map(|&(_, sig, _)| sig)
        .collect();
    format!(
        "leaf {name}: operand '{operand}' must be stored {}; it is stored {signature}",
        blessed.join(" or ")
    )
}

/// Level kinds in the notation of `Format::levels_signature()`.
pub(crate) fn kinds_signature(kinds: &[LevelFormat]) -> String {
    let kinds: Vec<String> = kinds.iter().map(|k| format!("{k:?}")).collect();
    format!("{{{}}}", kinds.join(","))
}

/// The storage signature of a tensor's *actual* levels, in the same
/// notation as `Format::levels_signature()`.
pub fn storage_signature(t: &SpTensor) -> String {
    kinds_signature(&t.formats())
}

/// `pos`/`crd` views of a compressed level. Callers are blessed-dispatch
/// paths: [`lookup`] was keyed by the driver's stored level kinds.
fn compressed(t: &SpTensor, level: usize) -> (&[spdistal_runtime::Rect1], &[i64]) {
    match t.level(level) {
        Level::Compressed { pos, crd } => (pos, crd),
        _ => unreachable!("blessed dispatch: level {level} is compressed"),
    }
}

/// `crd` view of a singleton level (see [`compressed`]).
fn singleton(t: &SpTensor, level: usize) -> &[i64] {
    match t.level(level) {
        Level::Singleton { crd } => crd,
        _ => unreachable!("blessed dispatch: level {level} is singleton"),
    }
}

/// Proof that the running CPU has 256-bit AVX, made only by
/// [`Avx::detect`]: a [`RowFold`] that holds one folds through its
/// `#[target_feature(enable = "avx")]` arm, [`RowFold::wide`].
#[derive(Clone, Copy)]
struct Avx(());

impl Avx {
    /// `Some` when AVX was detected at run time (never off x86-64, and
    /// never in a unit test that asked for the baseline arm).
    #[inline(always)]
    fn detect() -> Option<Avx> {
        #[cfg(test)]
        if tests::BASELINE.get() {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            return Some(Avx(()));
        }
        None
    }
}

/// Stored entries folded per unrolled step of [`RowFold::run`].
const CHUNK: usize = 4;

/// How many stored entries ahead of the current one a fold prefetches the
/// factor row for (far enough to beat a memory round-trip, near enough to
/// still be resident when the loop arrives).
const PF_DIST: usize = 4;

/// `f64`s per 64-byte cache line, the stride between prefetch hints.
const FLOATS_PER_LINE: usize = 8;

/// Where each stored entry's factor term comes from, for [`RowFold`]: the
/// entry of value `v` at stored coordinate `k` adds `term(v, l, x)` to
/// `out[l]`, where `x` is element `l` of row `k` of `factor()`. SpMM's
/// term is `v·C[k,l]`, SpMTTKRP's `(v·C[j,l])·D[k,l]` for the fiber's `j`.
trait Terms: Copy {
    /// Whether the fold hints each entry's factor row `PF_DIST` entries
    /// ahead.
    const PREFETCH: bool;
    /// The width of a factor row, and of the output row.
    fn width(&self) -> usize;
    /// The row-major factor a stored coordinate picks its row of.
    fn factor(&self) -> &[f64];
    /// Entry `v`'s term at column `l`, `x` being its factor row's `l`-th
    /// element.
    fn term(&self, v: f64, l: usize, x: f64) -> f64;
}

/// A run of stored positions for [`RowFold`], with its terms and the clamp
/// that cuts it — `None` when the walker found it owned.
type Run<'c, F> = (F, Rect1, Option<&'c IntervalSet>);

/// The one row fold of SpMM and SpMTTKRP, over every driver layout: a
/// task's stored values and the coordinate each entry picks its factor row
/// by (level 1 for SpMM, level 2 for SpMTTKRP), and whether the CPU has AVX.
#[derive(Clone, Copy)]
struct RowFold<'a> {
    vals: &'a [f64],
    crd: &'a [i64],
    avx: Option<Avx>,
}

impl<'a> RowFold<'a> {
    fn new(vals: &'a [f64], crd: &'a [i64]) -> Self {
        RowFold {
            vals,
            crd,
            avx: Avx::detect(),
        }
    }

    /// Fold every run `runs` yields into output row `i` of `out` (`width`
    /// wide), in order: a run is stored positions with their terms, taken
    /// whole when it comes with no clamp (the walker found it owned), else
    /// each piece of its [`cut`] against the clamp. The row is borrowed
    /// once, here, through [`OutVals::row_mut`] — one bounds check and a
    /// noalias `&mut` row the compiler keeps in vector registers. Returns
    /// the entries folded.
    #[inline(always)]
    fn row<F: Terms>(
        &self,
        out: &OutVals,
        i: usize,
        width: usize,
        runs: impl IntoIterator<Item = Run<'a, F>>,
    ) -> u64 {
        // SAFETY: the dependence graph serializes tasks whose output rows
        // overlap and concurrent tasks touch disjoint elements (the OutVals
        // contract; a reduction plan gives each color its own partial), so
        // this task is the row's only accessor. Under AddressSanitizer:
        // `tests/parallel_identity.rs::parallel_is_bit_identical_to_serial_on_every_kernel`.
        let out_row = unsafe { out.row_mut(i * width, width) };
        #[cfg(target_arch = "x86_64")]
        if self.avx.is_some() {
            // SAFETY: an `Avx` exists only where AVX support was detected.
            // Under AddressSanitizer:
            // `tests/specialized_identity.rs::row_loops_match_walker_at_lane_widths`.
            return unsafe { self.wide(out_row, runs) };
        }
        self.runs(out_row, runs)
    }

    /// [`RowFold::runs`] recompiled with 256-bit AVX enabled (the baseline
    /// x86-64 target is SSE2, two `f64` lanes). The update is purely
    /// element-wise — each `out[l] += term` is a multiply (two for
    /// SpMTTKRP) then an add, with no cross-lane reduction and no FMA
    /// contraction (`fma` stays disabled) — so widening the lanes changes
    /// which elements share an instruction, never any element's op
    /// sequence.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    fn wide<F: Terms>(
        &self,
        out_row: &mut [f64],
        runs: impl IntoIterator<Item = Run<'a, F>>,
    ) -> u64 {
        self.runs(out_row, runs)
    }

    /// Fold each of `runs` into `out_row` in turn. No closure stands
    /// between [`RowFold::wide`] and [`RowFold::run`]: a closure LLVM
    /// declines to inline is compiled without the widened features.
    #[inline(always)]
    fn runs<F: Terms>(
        &self,
        out_row: &mut [f64],
        runs: impl IntoIterator<Item = Run<'a, F>>,
    ) -> u64 {
        let mut n = 0;
        for (f, range, clamp) in runs {
            match clamp {
                None => n += self.run(out_row, f, range),
                Some(clamp) => {
                    for r in cut(range, clamp) {
                        n += self.run(out_row, f, r);
                    }
                }
            }
        }
        n
    }

    /// Fold stored positions `r` into `out_row`, four entries per step:
    /// `out[l] += a; out[l] += b; ...` is the element-wise fold
    /// `(((out[l] + a) + b) + c) + d`, so keeping `out[l]` in a register
    /// across the chunk preserves the walker's per-element op sequence
    /// while quartering the output row's load/store traffic; the tail goes
    /// entry by entry. Returns the entry count.
    #[inline(always)]
    fn run<F: Terms>(&self, out_row: &mut [f64], f: F, r: Rect1) -> u64 {
        let (w, m) = (f.width(), f.factor());
        let out_row = &mut out_row[..w];
        let (lo, hi) = (r.lo as usize, r.hi as usize);
        let (vs, ks) = (&self.vals[lo..=hi], &self.crd[lo..=hi]);
        let mut idx = 0;
        while idx + CHUNK <= vs.len() {
            if F::PREFETCH {
                if let Some(&k) = ks.get(idx + PF_DIST) {
                    // A factor row spans several cache lines (w * 8
                    // bytes); hint every line, not just the first.
                    let base = k as usize * w;
                    let mut off = 0;
                    while off < w {
                        prefetch_read(m, base + off);
                        off += FLOATS_PER_LINE;
                    }
                }
            }
            let (v0, v1, v2, v3) = (vs[idx], vs[idx + 1], vs[idx + 2], vs[idx + 3]);
            let r0 = &m[ks[idx] as usize * w..][..w];
            let r1 = &m[ks[idx + 1] as usize * w..][..w];
            let r2 = &m[ks[idx + 2] as usize * w..][..w];
            let r3 = &m[ks[idx + 3] as usize * w..][..w];
            for l in 0..w {
                let mut t = out_row[l];
                t += f.term(v0, l, r0[l]);
                t += f.term(v1, l, r1[l]);
                t += f.term(v2, l, r2[l]);
                t += f.term(v3, l, r3[l]);
                out_row[l] = t;
            }
            idx += CHUNK;
        }
        for (&v, &k) in vs[idx..].iter().zip(&ks[idx..]) {
            let row = &m[k as usize * w..][..w];
            for l in 0..w {
                out_row[l] += f.term(v, l, row[l]);
            }
        }
        vs.len() as u64
    }
}

/// Hint the prefetcher at `slice[index]` (a pure cache hint: no-op when
/// out of range, and off x86-64).
#[inline(always)]
fn prefetch_read<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < slice.len() {
        // SAFETY: `_mm_prefetch` is a pure cache hint, valid for any
        // address; the pointer is in-bounds by the check above. Under
        // AddressSanitizer:
        // `tests/specialized_identity.rs::specialized_matches_walker_on_random_matrices`.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                slice.as_ptr().add(index) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;

    thread_local! {
        /// Set by a test that wants the row fold's baseline arm on an AVX
        /// host: [`Avx::detect`] then answers `None` on that thread.
        pub(super) static BASELINE: Cell<bool> = const { Cell::new(false) };
    }

    /// `range` ⊆ `clamp`, by the clamp search the cut path makes.
    fn inside(clamp: &IntervalSet, range: Rect1) -> bool {
        clamp.intersect_rect(range).next() == Some(range)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Queried with ascending starts, as the walkers query it, the
        /// cursor's `owned` is exactly "`range` ⊆ clamp" — empty ranges
        /// and ranges over a gap or across two runs included. Queried in
        /// any order, it never claims a range the clamp does not hold.
        #[test]
        fn owner_answers_range_within_clamp(
            runs in proptest::collection::vec((0i64..64, 0i64..6), 0..8),
            queries in proptest::collection::vec((0i64..72, -1i64..8), 0..32),
        ) {
            let rect = |&(lo, len): &(i64, i64)| Rect1::new(lo, lo + len);
            let clamp = IntervalSet::from_rects(runs.iter().map(rect).collect());
            let mut ascending: Vec<Rect1> = queries.iter().map(rect).collect();
            ascending.sort_by_key(|r| r.lo);
            let mut owner = Owner::new(&clamp);
            for &r in &ascending {
                prop_assert_eq!(owner.owns(r), inside(&clamp, r), "{r:?} in {clamp:?}");
            }
            let mut owner = Owner::new(&clamp);
            for r in queries.iter().map(rect) {
                prop_assert!(!owner.owns(r) || inside(&clamp, r), "{r:?} in {clamp:?}");
            }
        }
    }

    /// One `(color, span)` task of a leaf over a fixed driver and operands.
    type Task<'a> = dyn Fn(&TensorPartition, usize, Option<&KernelSpan>, &OutVals) -> f64 + 'a;

    /// Runs `walker` and `body` span by span over every color of an
    /// outer-dim, a leaf non-zero and a level-1 non-zero partition of `t`,
    /// unsplit and in three spans, and asserts equal output bits and op
    /// counts.
    fn assert_same_as_walker(
        label: &str,
        t: &SpTensor,
        kernel: &LeafKernel,
        out_len: usize,
        walker: &Task<'_>,
        body: &Task<'_>,
    ) {
        use crate::kernels::{color_spans, split::color_weight};
        use crate::level_funcs::{
            equal_coord_bounds, nonzero_partition, partition_tensor, universe_partition,
        };
        use spdistal_runtime::sched::{ExecMode, SplitPolicy};

        let leaf = t.order() - 1;
        let rows = universe_partition(t, 0, &equal_coord_bounds(t.dims()[0], 4));
        let parts = [
            partition_tensor(t, 0, rows),
            partition_tensor(t, leaf, nonzero_partition(t, leaf, 3)),
            partition_tensor(t, 1, nonzero_partition(t, 1, 3)),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (p, part) in parts.iter().enumerate() {
            for policy in [SplitPolicy::Off, SplitPolicy::Spans(3)] {
                let colors = part.num_colors();
                let total = (0..colors).map(|c| color_weight(part, c)).sum();
                let (mut want, mut got) = (vec![0.0; out_len], vec![0.0; out_len]);
                let (mut want_ops, mut got_ops) = (0.0f64, 0.0f64);
                for color in 0..colors {
                    let mode = ExecMode::Serial;
                    for span in color_spans(t, part, kernel, color, policy, mode, total) {
                        let span = span.as_ref();
                        want_ops += walker(part, color, span, &OutVals::new(&mut want));
                        got_ops += body(part, color, span, &OutVals::new(&mut got));
                    }
                }
                let at = format!("{label} [partition {p}, {policy:?}]");
                assert_eq!(got_ops.to_bits(), want_ops.to_bits(), "{at}: ops");
                assert_eq!(bits(&got), bits(&want), "{at}: values");
            }
        }
    }

    /// The baseline arm of the row fold — what SpMM and SpMTTKRP run where
    /// AVX is absent — against the walker, bit for bit, over every blessed
    /// layout of both kernels, COO included. On an AVX host the kernels
    /// take the widened arm unless this thread asks for the baseline, so
    /// this is the one place the baseline runs.
    #[test]
    fn baseline_row_loops_match_the_walker() {
        use crate::kernels::{matrix as walk2, tensor3 as walk3};
        use spdistal_sparse::convert::{to_dcsr, with_formats};
        use spdistal_sparse::generate;
        use LevelFormat::{Compressed, Dense, Singleton};

        BASELINE.set(true);
        let csr = generate::rmat_clustered(6, 520, 0.57, 12);
        let csf = generate::tensor3_skewed([24, 16, 12], 700, 1.3, 37);
        let matrices = [
            to_dcsr(&csr),
            with_formats(&csr, &[Compressed, Singleton]),
            csr,
        ];
        let tensors = [
            with_formats(&csf, &[Compressed; 3]),
            with_formats(&csf, &[Dense, Dense, Compressed]),
            with_formats(&csf, &[Compressed, Singleton, Singleton]),
            csf,
        ];
        for width in [1, 4, 33] {
            for t in &matrices {
                let c = generate::dense_vec(t.dims()[1] * width, 17);
                let kernel = LeafKernel::SpMm { jdim: width };
                let layout = storage_signature(t);
                let Some(SpecializedKernel::SpMm(spmm)) = lookup(&kernel, &layout) else {
                    panic!("SpMm over {layout} is blessed");
                };
                assert_same_as_walker(
                    &format!("SpMm {layout}/w{width}"),
                    t,
                    &kernel,
                    t.dims()[0] * width,
                    &|p, col, sp, o| walk2::spmm_color(t, p, col, sp, &c, width, o),
                    &|p, col, sp, o| spmm(t, p, col, sp, &c, width, o),
                );
            }
            for t in &tensors {
                let c = generate::dense_vec(t.dims()[1] * width, 41);
                let d = generate::dense_vec(t.dims()[2] * width, 43);
                let kernel = LeafKernel::SpMttkrp { ldim: width };
                let layout = storage_signature(t);
                let Some(SpecializedKernel::SpMttkrp(spmttkrp)) = lookup(&kernel, &layout) else {
                    panic!("SpMttkrp over {layout} is blessed");
                };
                assert_same_as_walker(
                    &format!("SpMttkrp {layout}/w{width}"),
                    t,
                    &kernel,
                    t.dims()[0] * width,
                    &|p, col, sp, o| walk3::spmttkrp_color(t, p, col, sp, &c, &d, width, o),
                    &|p, col, sp, o| spmttkrp(t, p, col, sp, &c, &d, width, o),
                );
            }
        }
    }

    #[test]
    fn lookup_blesses_exactly_eighteen_pairs() {
        let kernels = [
            LeafKernel::SpMv,
            LeafKernel::SpMm { jdim: 4 },
            LeafKernel::SpAdd3,
            LeafKernel::Sddmm { kdim: 4 },
            LeafKernel::SpTtv,
            LeafKernel::SpMttkrp { ldim: 4 },
        ];
        let kinds = ["Dense", "Compressed", "Singleton"];
        let mut blessed = 0;
        for k in &kernels {
            for a in kinds {
                for b in kinds {
                    blessed += lookup(k, &format!("{{{a},{b}}}")).is_some() as usize;
                    for c in kinds {
                        blessed += lookup(k, &format!("{{{a},{b},{c}}}")).is_some() as usize;
                    }
                }
            }
        }
        assert_eq!(blessed, 18);
    }

    #[test]
    fn lookup_hits_blessed_and_misses_unblessed() {
        assert!(lookup(&LeafKernel::SpMv, "{Dense,Compressed}").is_some());
        assert!(lookup(&LeafKernel::SpMm { jdim: 4 }, "{Compressed,Singleton}").is_some());
        assert!(lookup(
            &LeafKernel::SpMttkrp { ldim: 4 },
            "{Dense,Compressed,Compressed}"
        )
        .is_some());
        assert!(matches!(
            lookup(&LeafKernel::SpTtv, "{Compressed,Singleton,Singleton}"),
            Some(SpecializedKernel::SpTtv(_))
        ));
        assert!(matches!(
            lookup(&LeafKernel::SpAdd3, "{Dense,Compressed}"),
            Some(SpecializedKernel::SpAdd3(_))
        ));
        assert!(matches!(
            lookup(&LeafKernel::SpTtv, "{Dense,Dense,Compressed}"),
            Some(SpecializedKernel::SpTtv(_))
        ));
        assert!(matches!(
            lookup(
                &LeafKernel::SpMttkrp { ldim: 4 },
                "{Dense,Dense,Compressed}"
            ),
            Some(SpecializedKernel::SpMttkrp(_))
        ));
        // Unblessed layouts miss: `recognize` refuses them at compile.
        assert!(lookup(&LeafKernel::SpMv, "{Dense,Dense}").is_none());
        assert!(lookup(&LeafKernel::SpTtv, "{Compressed,Dense,Compressed}").is_none());
        assert!(lookup(&LeafKernel::SpAdd3, "{Compressed,Compressed}").is_none());
    }
}
