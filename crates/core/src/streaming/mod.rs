//! Streaming tensors: delta ingestion, dirty-region tracking, and the
//! bookkeeping behind incremental recompute.
//!
//! The paper's separation of scheduling from generated code lets one
//! compiled plan be reused across executions; this module extends the reuse
//! across *input mutations*. [`Context::update_batch`](crate::Context::update_batch)
//! applies a batch of [`CoordDelta`]s to a registered tensor and maintains a
//! per-row-block [`DirtyMap`] of which driver rows changed;
//! [`CompiledProgram::run_incremental`](crate::CompiledProgram::run_incremental)
//! then consults that map against the prepared plan's color → row mapping
//! and re-executes only the affected colors, merging their output into the
//! previous pass's output buffer.
//!
//! This module owns the *state* — versions, dirty maps, the telemetry
//! types — and, in `ingest`, what a batch *means*: deltas resolved in
//! order into report counts and one net edit per coordinate. Where entries
//! live and how a tensor is re-packed is `spdistal_sparse`'s
//! (`SpTensor::locate`, `SpTensor::with_edits`); regions and the two arms
//! are `Context::update_batch`'s. The *rule* that reads the state (which
//! statements may merge, and why not) is `program::exec`'s `eligibility`
//! function; the *mechanism* (seeding the output, the per-color `rerun`
//! mask) is [`plan`](crate::plan)'s.
//!
//! ## Correctness model
//!
//! The incremental fast path is taken only when *every* observable input of
//! a statement is provably unchanged except for value-only (`overwrite`)
//! deltas on the driver, tracked here. Each registered tensor carries a
//! monotonically increasing **version** (bumped on any registration,
//! replacement, or mutable-data access); every pass records, per statement,
//! the versions of all tensors it read. At `run_incremental` time a
//! statement is eligible only if every non-driver input version matches and
//! the driver's changes are exactly the tracked dirty set (same version
//! lineage, no structural inserts/deletes). Anything else — format
//! re-registration, untracked mutation, a chained statement rewriting an
//! operand — falls back to a full run, which is trivially bit-identical.
//!
//! Re-executed colors are zeroed before running (the dense leaf kernels
//! accumulate into a zero-initialized buffer), so each re-run color
//! reproduces exactly the bits a full run would produce; skipped colors keep
//! retained bits that a full run would reproduce from their unchanged rows.

use std::collections::BTreeMap;

pub use spdistal_sparse::{CoordDelta, DeltaOp};

pub(crate) mod ingest;

/// Rows per dirty-bitmap block: one `u64` word of the bitmap covers one
/// block, so block-granular queries are single-word tests.
pub const DIRTY_BLOCK_ROWS: usize = 64;

/// Above this fraction of dirty rows an incremental run stops paying the
/// merge bookkeeping and falls back to a full recompute.
pub const FALLBACK_DIRTY_RATIO: f64 = 0.5;

/// A per-row-block dirty bitmap over one tensor's leading dimension: one
/// bit per row, stored in [`DIRTY_BLOCK_ROWS`]-row blocks (one `u64` per
/// block), plus an exact dirty-row count.
#[derive(Clone, Debug, Default)]
pub struct DirtyMap {
    rows: usize,
    blocks: Vec<u64>,
    dirty_rows: usize,
}

impl DirtyMap {
    pub fn new(rows: usize) -> DirtyMap {
        DirtyMap {
            rows,
            blocks: vec![0; rows.div_ceil(DIRTY_BLOCK_ROWS)],
            dirty_rows: 0,
        }
    }

    /// Extent of the tracked dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Exact number of distinct dirty rows.
    pub fn dirty_rows(&self) -> usize {
        self.dirty_rows
    }

    /// Fraction of rows dirty (`0.0` for a zero-row map).
    pub fn ratio(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.dirty_rows as f64 / self.rows as f64
        }
    }

    /// Mark one row dirty. Out-of-range rows are ignored (callers validate
    /// coordinates before marking).
    pub fn mark(&mut self, row: i64) {
        if row < 0 || row as usize >= self.rows {
            return;
        }
        let (block, bit) = (
            row as usize / DIRTY_BLOCK_ROWS,
            row as usize % DIRTY_BLOCK_ROWS,
        );
        if self.blocks[block] & (1u64 << bit) == 0 {
            self.blocks[block] |= 1u64 << bit;
            self.dirty_rows += 1;
        }
    }

    pub fn is_dirty(&self, row: i64) -> bool {
        if row < 0 || row as usize >= self.rows {
            return false;
        }
        self.blocks[row as usize / DIRTY_BLOCK_ROWS] & (1u64 << (row as usize % DIRTY_BLOCK_ROWS))
            != 0
    }

    /// Does the closed row range `[lo, hi]` contain any dirty row?
    pub fn intersects_range(&self, lo: i64, hi: i64) -> bool {
        if self.dirty_rows == 0 || hi < lo {
            return false;
        }
        let lo = lo.max(0) as usize;
        let hi = (hi.min(self.rows as i64 - 1)).max(-1);
        if hi < 0 {
            return false;
        }
        let hi = hi as usize;
        if lo > hi {
            return false;
        }
        let (b0, b1) = (lo / DIRTY_BLOCK_ROWS, hi / DIRTY_BLOCK_ROWS);
        for b in b0..=b1 {
            let mut word = self.blocks[b];
            if b == b0 {
                word &= !0u64 << (lo % DIRTY_BLOCK_ROWS);
            }
            if b == b1 && (hi % DIRTY_BLOCK_ROWS) != DIRTY_BLOCK_ROWS - 1 {
                word &= (1u64 << (hi % DIRTY_BLOCK_ROWS + 1)) - 1;
            }
            if word != 0 {
                return true;
            }
        }
        false
    }
}

/// The tracked dirty state of one registered tensor, kept between
/// `update_batch` calls and consumed (cleared) by the next program run that
/// observes the tensor.
#[derive(Clone, Debug)]
pub struct TensorDirty {
    /// Which leading-dimension rows changed since the state was created.
    pub map: DirtyMap,
    /// Any delta changed the sparsity structure (a genuine insert or
    /// delete) — value positions moved, so retained outputs keyed to the
    /// old structure cannot be merged into.
    pub structural: bool,
    /// Tensor version *before* the first tracked delta: a retained output
    /// recorded at this version plus the tracked dirty rows reconstructs
    /// the current data.
    pub from_version: u64,
    /// Tensor version after the last tracked delta. A current version
    /// beyond this means an untracked mutation slipped in between.
    pub tracked_version: u64,
    /// Total deltas applied into this state (for drift reporting).
    pub deltas_applied: u64,
}

/// What one `update_batch` call did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateReport {
    /// Deltas that inserted a previously absent coordinate.
    pub inserted: usize,
    /// Deltas that replaced the value of an existing coordinate.
    pub overwritten: usize,
    /// Deltas that removed an existing coordinate.
    pub deleted: usize,
    /// Deltas that were no-ops (deleting an absent coordinate).
    pub ignored: usize,
    /// The batch changed the sparsity structure.
    pub structural: bool,
    /// Distinct dirty rows accumulated on the tensor (all batches since
    /// the last run, not just this one).
    pub rows_dirty: usize,
}

impl UpdateReport {
    /// Deltas that changed the tensor.
    pub fn applied(&self) -> usize {
        self.inserted + self.overwritten + self.deleted
    }
}

/// Per-statement telemetry of one `run_incremental` pass.
#[derive(Clone, Debug)]
pub struct IncrementalStats {
    pub stmt: usize,
    /// Dirty driver rows the pass observed (0 when nothing was tracked).
    pub rows_dirty: usize,
    /// Leaf spans re-executed (on the fast path) or total spans (fallback).
    pub spans_reexecuted: usize,
    /// Leaf spans served from the previous output without running.
    pub spans_skipped: usize,
    /// The statement fell back to a full recompute.
    pub fallback: bool,
    /// Why the fast path was or wasn't taken (human-readable).
    pub reason: String,
}

/// Versions and dirty state of a context's tensors — one side table, owned
/// by [`crate::Context`].
#[derive(Clone, Debug, Default)]
pub(crate) struct StreamingState {
    versions: BTreeMap<String, u64>,
    dirty: BTreeMap<String, TensorDirty>,
}

impl StreamingState {
    /// The tensor's current version (0 before first registration).
    pub fn version(&self, name: &str) -> u64 {
        self.versions.get(name).copied().unwrap_or(0)
    }

    /// Bump on any mutation: registration, replacement, data access.
    pub fn bump_version(&mut self, name: &str) -> u64 {
        let v = self.versions.entry(name.to_string()).or_insert(0);
        *v += 1;
        *v
    }

    pub fn dirty(&self, name: &str) -> Option<&TensorDirty> {
        self.dirty.get(name)
    }

    /// Remove and return tracked dirty state (any re-registration drops
    /// it; `update_batch` extends what it got back and re-installs it).
    pub fn take_dirty(&mut self, name: &str) -> Option<TensorDirty> {
        self.dirty.remove(name)
    }

    pub fn set_dirty(&mut self, name: &str, state: TensorDirty) {
        self.dirty.insert(name.to_string(), state);
    }

    pub fn clear_all_dirty(&mut self) {
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_map_marks_and_counts() {
        let mut m = DirtyMap::new(200);
        assert_eq!(m.dirty_rows(), 0);
        assert!(!m.intersects_range(0, 199));
        m.mark(5);
        m.mark(5);
        m.mark(130);
        assert_eq!(m.dirty_rows(), 2);
        assert!(m.is_dirty(5) && m.is_dirty(130));
        assert!(!m.is_dirty(6));
        assert!((m.ratio() - 0.01).abs() < 1e-12);
        // Out-of-range marks are ignored.
        m.mark(-1);
        m.mark(200);
        assert_eq!(m.dirty_rows(), 2);
    }

    #[test]
    fn range_queries_hit_exact_words() {
        let mut m = DirtyMap::new(300);
        m.mark(63);
        m.mark(64);
        m.mark(257);
        assert!(m.intersects_range(0, 63));
        assert!(!m.intersects_range(0, 62));
        assert!(m.intersects_range(64, 64));
        assert!(!m.intersects_range(65, 256));
        assert!(m.intersects_range(65, 257));
        assert!(m.intersects_range(200, 10_000)); // clamps to extent
        assert!(!m.intersects_range(258, 299));
        assert!(!m.intersects_range(10, 5)); // inverted range
        assert!(!m.intersects_range(-10, -1));
    }

    #[test]
    fn versions_bump_monotonically() {
        let mut s = StreamingState::default();
        assert_eq!(s.version("B"), 0);
        assert_eq!(s.bump_version("B"), 1);
        assert_eq!(s.bump_version("B"), 2);
        assert_eq!(s.version("B"), 2);
        assert_eq!(s.version("C"), 0);
    }
}
