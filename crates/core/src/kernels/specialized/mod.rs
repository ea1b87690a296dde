//! The specialized kernel layer: span-aware leaf loops over the flat
//! `pos`/`crd`/`vals` slices of blessed driver layouts, written once per
//! *kernel body* and instantiated per *level kind*.
//!
//! | | |
//! |---|---|
//! | **Owns** | the blessed leaf loops (`matrix`, `tensor3`) — SpAdd3's merge among them, its only implementation — the two walkers they share (`for_rows`, `for_coo_runs`), the `TopLevel` and `MidLevel` level kinds, and the one table of blessed `(kernel, stored signature)` pairs behind [`lookup`] and the compile-time refusal |
//! | **Does not own** | when the lookup happens — once per prepared plan in `plan.rs`, keyed by the driver's [`storage_signature`] (the arrays the kernel reads), never by its declared format |
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
//!   per kernel, generic over `TopLevel`, driven by `for_rows`; the
//!   compiler emits the `DenseTop` and `CompressedTop` variants. The
//!   order-3 sources are generic over a `MidLevel` instead: compressed
//!   (`CompressedMid<T>`, driven by `for_rows::<T>`) or dense under a
//!   dense level 0 (`DenseMid`, the patents layout
//!   `{Dense,Dense,Compressed}`, whose level-1 fibers are a fused dense
//!   `(i,j)` dimension).
//! * **COO** drivers (`{Compressed,Singleton,..}`) share one entry index
//!   across all levels. One source per kernel, driven by
//!   `for_coo_runs`.
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
/// range)` to the kernel body. Returns the sum of the body's results (its
/// stored-entry counts).
///
/// While a row streams, the head of the next row's level-1 `crd` block
/// (and of its values, when level 1 is the leaf) is prefetched: row-keyed
/// drivers jump between discontiguous blocks, and the lookahead hides the
/// first-line miss of each.
#[inline(always)]
fn for_rows<T: TopLevel>(
    b: &SpTensor,
    rows: &IntervalSet,
    mut row: impl FnMut(usize, Rect1) -> u64,
) -> u64 {
    let (root, crd0) = T::open(b);
    let (pos1, crd1) = compressed(b, 1);
    let leaf_vals = if b.order() == 2 { b.vals() } else { &[] };
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
                n += row(T::coord(crd0, e), children);
            }
        }
    }
    n
}

/// The run walker every COO kernel shares. Singleton levels reuse the
/// level-0 entry index, so all per-level clamps compose into one set
/// intersected with the root range: `run(lo, hi)` receives each maximal
/// contiguous entry run (inclusive), in ascending order — one flat pass
/// over the stored tuples. COO rows repeat per stored entry, so COO
/// kernels always update per entry. Returns the entries visited.
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

/// Hint the prefetcher at `slice[index]` (a pure cache hint: no-op when
/// out of range, and off x86-64).
#[inline(always)]
fn prefetch_read<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < slice.len() {
        // SAFETY: `_mm_prefetch` is a pure cache hint, valid for any
        // address; the pointer is in-bounds by the check above.
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
    use super::*;

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
