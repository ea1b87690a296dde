//! Distributed tensors and the compilation context.
//!
//! A [`DistTensor`] pairs the actual tensor data (shared-memory ground truth
//! for correctness) with the logical regions registered in the runtime
//! simulator (what the machine model sees) and the tensor's format +
//! distribution. Creating a tensor materializes its initial data
//! distribution: the TDN statement is resolved, the Table I level functions
//! build a full coordinate-tree partition, and each color's sub-regions are
//! attached to the owning processors' memories — the state the paper's
//! methodology establishes before the timed region.
//!
//! | `dist_tensor` owns | `dist_tensor` does not own |
//! |---|---|
//! | The tensor table: each name's data, format, regions and initial distribution, and whether a schedule's initial partition is that distribution's (`DistTensor::partition`, which then hands out the registered tree) | What a dirty map and a batch mean ([`DirtyMap`], [`TensorDirty`], [`UpdateReport`]): [`streaming`](crate::streaming) |
//! | Versions and tracked dirty rows: each registration carries its own | Locating a batch's deltas and merging them into the stored entries: `streaming::ingest`, [`SpTensor::with_edits`] |
//! | The one registration entry (`swap_registration`) behind `add_tensor`, `replace_tensor_data`, `set_tensor_format` and a structural `update_batch` | Which statements may merge into their previous output, given those versions: `program::exec`'s `eligibility` |
//! | What a color touches of a tensor ([`TensorRegions::footprint`]) and where the initial distribution places it | The coordinate-tree partitions themselves: [`level_funcs`](crate::level_funcs) |
//! | A tensor's regions, for its life: a re-registration of the same region layout keeps the ids (new ones only for a new layout), and every registration, write-back and value-only batch renews them in place ([`Runtime::renew`]) — the first two with the old copies still counted, the batch releasing them first — so a re-registration and a write-back by value leave the model in the same state | Which write-back arm runs (whether the registered pattern is the computed one's) and which ranges a merge copies: [`plan`](crate::plan) |
//! | Where a registration's values live (the storage rule below) | Costing a requirement, coherence, memory: `spdistal_runtime` |
//!
//! **Storage: one copy of each tensor.** A registration owns its values:
//! the registration entry makes them unique — copying them only if the
//! caller still shares them ([`SpTensor::vals_mut`] is copy-on-write) — so
//! a value-only batch writes where they stand and nothing the caller holds
//! changes. Level arrays are never written, so any clone may share them (an
//! SDDMM output shares its driver's). A plain write-back moves the computed
//! buffer in as the values, and the statement's result is a clone sharing
//! them; a merging write-back copies the ranges it re-ran into them. Any
//! later write to either side copies first.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::LazyLock;

use spdistal_ir::tdn::DistSpec;
use spdistal_ir::{Format, IndexVar, SchedError, TdnError, VarCtx};
use spdistal_runtime::{
    ExecMode, IntervalSet, Machine, Rect1, RegionId, Runtime, RuntimeError, SplitPolicy, Trace,
};
use spdistal_sparse::{CoordDelta, Level, LevelFormat, SpTensor};

use crate::level_funcs::{
    nonzero_tree_partition, outer_dim_partition, replicated_partition, TensorPartition,
};
use crate::streaming::{ingest, DirtyMap, TensorDirty, UpdateReport};

/// Bytes per element of each region kind: `pos` stores `(lo, hi)` tuples,
/// `crd` stores coordinates, `vals` stores doubles.
pub const POS_BYTES: u64 = 16;
pub const CRD_BYTES: u64 = 8;
pub const VAL_BYTES: u64 = 8;

/// Errors surfaced by the compiler.
#[derive(Debug)]
pub enum Error {
    Tdn(TdnError),
    Sched(SchedError),
    Runtime(RuntimeError),
    /// A TIN statement failed to parse (the `Program` text front-end).
    Parse(spdistal_ir::ParseError),
    UnknownTensor(String),
    /// A machine dimension has no processors along it — nothing can own a
    /// color there (plan execution and pre-staging both need an owner).
    EmptyMachineDim(usize),
    Unsupported(String),
    /// A deferred execution never ran because an earlier queued plan in
    /// the same session failed; the message names the original failure.
    Aborted(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Tdn(e) => write!(f, "{e}"),
            Error::Sched(e) => write!(f, "{e}"),
            Error::Runtime(e) => write!(f, "{e}"),
            Error::Parse(e) => write!(f, "{e}"),
            Error::UnknownTensor(t) => write!(f, "unknown tensor '{t}'"),
            Error::EmptyMachineDim(d) => {
                write!(f, "machine dimension {d} has no processors")
            }
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Aborted(m) => write!(f, "deferred execution aborted: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<TdnError> for Error {
    fn from(e: TdnError) -> Self {
        Error::Tdn(e)
    }
}

impl From<spdistal_ir::ParseError> for Error {
    fn from(e: spdistal_ir::ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<SchedError> for Error {
    fn from(e: SchedError) -> Self {
        Error::Sched(e)
    }
}

impl From<RuntimeError> for Error {
    fn from(e: RuntimeError) -> Self {
        Error::Runtime(e)
    }
}

/// Runtime regions backing one level of a tensor.
#[derive(Clone, Debug, PartialEq)]
pub enum LevelRegions {
    /// Dense levels are implicit; only their entry space matters.
    Dense,
    /// Compressed levels own `pos` and `crd` regions.
    Compressed { pos: RegionId, crd: RegionId },
    /// Singleton levels own a `crd` region only.
    Singleton { crd: RegionId },
}

/// Regions backing a whole tensor.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorRegions {
    pub levels: Vec<LevelRegions>,
    pub vals: RegionId,
}

impl TensorRegions {
    /// Every region, in registration order: `pos` then `crd` level by
    /// level, `vals` last.
    pub fn ids(&self) -> Vec<RegionId> {
        let mut ids = Vec::with_capacity(2 * self.levels.len() + 1);
        for lr in &self.levels {
            match *lr {
                LevelRegions::Dense => {}
                LevelRegions::Singleton { crd } => ids.push(crd),
                LevelRegions::Compressed { pos, crd } => ids.extend([pos, crd]),
            }
        }
        ids.push(self.vals);
        ids
    }

    /// What `color` touches of this tensor under `part`: one
    /// `(region, subset)` per region, in [`TensorRegions::ids`] order. A
    /// level's `crd` and the `vals` follow the partition of their own
    /// entries; a compressed level's `pos` has one element per *parent*
    /// entry, so it follows the level above — and level 0's `pos` is the
    /// single root entry, which every color reads. This is the one place
    /// that knows it: requirements, the initial placement and pre-staging
    /// all read a color's sub-regions from here.
    pub fn footprint<'a>(
        &'a self,
        part: &'a TensorPartition,
        color: usize,
    ) -> impl Iterator<Item = (RegionId, &'a IntervalSet)> + 'a {
        static ROOT: LazyLock<IntervalSet> =
            LazyLock::new(|| IntervalSet::from_rect(Rect1::new(0, 0)));
        let entries = move |k: usize| part.entries[k].subset(color);
        let levels = self.levels.iter().enumerate().flat_map(move |(k, lr)| {
            let parents = if k == 0 { &*ROOT } else { entries(k - 1) };
            let (pos, crd) = match *lr {
                LevelRegions::Dense => (None, None),
                LevelRegions::Singleton { crd } => (None, Some((crd, entries(k)))),
                LevelRegions::Compressed { pos, crd } => {
                    (Some((pos, parents)), Some((crd, entries(k))))
                }
            };
            pos.into_iter().chain(crd)
        });
        levels.chain([(self.vals, part.vals().subset(color))])
    }
}

/// A tensor registered with the compiler: data + format + regions +
/// the initial distribution's coordinate-tree partition, and the run state
/// that lives with them — as a Legion logical region carries its own.
#[derive(Debug)]
pub struct DistTensor {
    pub name: String,
    pub data: SpTensor,
    pub format: Format,
    pub regions: TensorRegions,
    /// The initial data distribution, if the tensor is partitioned (None
    /// means fully replicated by a distribution with no shared names).
    pub dist_part: TensorPartition,
    pub dist_spec: DistSpec,
    /// Bumped by every registration under this name (one more than the
    /// entry it replaced), `tensor_data_mut`, write-back and applied batch.
    version: u64,
    /// Rows the batches since the last program run touched; any new
    /// registration drops them.
    dirty: Option<TensorDirty>,
}

/// The compilation context: machine + runtime + tensor table + variables.
pub struct Context {
    runtime: Runtime,
    tensors: BTreeMap<String, DistTensor>,
    vars: VarCtx,
    exec_mode: ExecMode,
    split: SplitPolicy,
    trace: Trace,
}

impl Context {
    pub fn new(machine: Machine) -> Self {
        Context {
            runtime: Runtime::new(machine),
            tensors: BTreeMap::new(),
            vars: VarCtx::new(),
            exec_mode: ExecMode::Serial,
            split: SplitPolicy::Auto,
            trace: Trace::disabled(),
        }
    }

    /// How leaf kernels execute: the serial reference path, or the
    /// dependence-driven work-stealing pool
    /// ([`ExecMode::Parallel`]`(n_threads)`). Either way the discrete-event
    /// simulator stays the cost model; the executor only changes how the
    /// real compute phase runs (and reports its wall-clock time).
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// Builder-style variant of [`Context::set_exec_mode`].
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// How splittable leaf kernels are chunked into spans (nested
    /// intra-color parallelism). [`SplitPolicy::Auto`] (the default) sizes
    /// spans to the execution mode — serial execution never splits — and
    /// outputs stay bit-identical under every policy.
    pub fn split_policy(&self) -> SplitPolicy {
        self.split
    }

    pub fn set_split_policy(&mut self, policy: SplitPolicy) {
        self.split = policy;
    }

    /// Builder-style variant of [`Context::set_split_policy`].
    pub fn with_split_policy(mut self, policy: SplitPolicy) -> Self {
        self.split = policy;
        self
    }

    /// The observability sink every layer below this context records into
    /// (disabled by default: recording helpers become inlined no-ops).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// This context, recording into `trace`.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    pub fn machine(&self) -> &Machine {
        self.runtime.machine()
    }

    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    pub fn vars(&self) -> &VarCtx {
        &self.vars
    }

    pub fn vars_mut(&mut self) -> &mut VarCtx {
        &mut self.vars
    }

    /// Declare fresh index variables (Figure 1's `IndexVar i, j;`).
    pub fn fresh_vars<const N: usize>(&mut self, names: [&str; N]) -> [IndexVar; N] {
        self.vars.fresh_n(names)
    }

    pub fn tensor(&self, name: &str) -> Result<&DistTensor, Error> {
        self.tensors
            .get(name)
            .ok_or_else(|| Error::UnknownTensor(name.to_string()))
    }

    pub fn tensor_names(&self) -> Vec<&str> {
        self.tensors.keys().map(String::as_str).collect()
    }

    /// Mutable access to a tensor's values (e.g. to zero an output), and
    /// to nothing else: the pattern stays the one the registration's
    /// regions and partition describe (change it with
    /// [`Context::replace_tensor_data`] or [`Context::update_batch`]).
    /// Counts as an untracked mutation: the tensor's version is bumped, so
    /// retained incremental state keyed to the old version is invalidated.
    pub fn tensor_data_mut(&mut self, name: &str) -> Result<&mut [f64], Error> {
        let t = self
            .tensors
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTensor(name.to_string()))?;
        t.version += 1;
        Ok(t.data.vals_mut())
    }

    /// Replace a tensor's data wholesale, under the same dims and format.
    /// Data of the same region layout keeps the tensor's regions, renewed
    /// in place at the new lengths; other data gets new ones and the
    /// replaced registration's are retired once those are in place. Either
    /// way the new copies are charged beside the old ones, so peak
    /// residency is what it always was and nothing accumulates across
    /// replacements; a replacement that fails (e.g. out of memory) leaves
    /// the tensor as it was.
    pub fn replace_tensor_data(&mut self, name: &str, data: SpTensor) -> Result<(), Error> {
        let t = self.tensor(name)?;
        if t.data.dims() != data.dims() {
            return Err(Error::Unsupported(format!(
                "replace_tensor_data for '{name}' with different dims"
            )));
        }
        let format = t.format.clone();
        self.swap_registration(name, data, format).map(drop)
    }

    /// Write a plan's computed values `vals` into the tensor registered
    /// under `name`, by value, and return the statement's result: the dims,
    /// levels, pattern hash, initial distribution and regions all stay. A
    /// plain pass (`merged` is `None`) moves `vals` in as the
    /// registration's values and the result is a clone sharing them. A
    /// merging pass hands `merged` the computed buffer and the registered
    /// values to copy the ranges it re-ran into; the result keeps `vals`, so
    /// it stays the only owner of the next merge seed. The machine model
    /// sees a new tensor state: the regions are renewed in place
    /// ([`Runtime::renew`]) to the kept distribution's placement, charged
    /// as [`Context::replace_tensor_data`] charges — the old copies still
    /// count while the new ones attach. (The value-only arm of
    /// [`Context::update_batch`] releases first; a write-back must not, or a
    /// processor's modelled peak residency — and with it an out-of-memory
    /// fallback of the figures — would move.) The version is bumped and any
    /// tracked dirty state dropped, as by any re-registration. A renewal
    /// that does not fit leaves the tensor and the runtime as they were,
    /// and nothing is written.
    pub(crate) fn write_back(
        &mut self,
        name: &str,
        vals: Vec<f64>,
        merged: Option<impl FnOnce(&[f64], &mut [f64])>,
    ) -> Result<SpTensor, Error> {
        let t = self
            .tensors
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTensor(name.to_string()))?;
        renew(&mut self.runtime, t, true)?;
        let output = match merged {
            None => {
                t.data = t.data.with_vals(vals);
                t.data.clone()
            }
            Some(copy) => {
                copy(&vals, t.data.vals_mut());
                t.data.with_vals(vals)
            }
        };
        t.version += 1;
        t.dirty = None;
        Ok(output)
    }

    /// Apply a batch of coordinate deltas to a registered tensor and track
    /// the touched leading-dimension rows in its per-row-block dirty bitmap
    /// (see [`crate::streaming`]). The accumulated dirty state survives
    /// across batches until the next program run consumes it.
    ///
    /// Deltas apply in order. Inserts of absent coordinates and deletes of
    /// present ones are *structural* (value positions move), which bars the
    /// incremental fast path for the affected statements until a full run
    /// re-baselines them. Overwrites of stored coordinates keep the
    /// structure — the case incremental recompute consumes. Deleting an
    /// absent coordinate is ignored; inserting over a present one degrades
    /// to an overwrite.
    ///
    /// The cost follows the batch, not the tensor: each coordinate is
    /// located by bisection. A batch that nets no insert and no delete
    /// writes the stored values in place — level arrays, the memoised
    /// pattern hash, the initial distribution and the regions stay, and the
    /// regions' coherence is renewed in place ([`Runtime::renew`]), so the
    /// machine model sees a new tensor state. Unlike
    /// [`Context::replace_tensor_data`] and [`Context::write_back`], which
    /// charge the new copies with the old ones still counted, this arm
    /// releases the old copies first, so a batch needs room for one
    /// registration, not two. Any
    /// other batch is merged into the stored entries in one linear pass
    /// and re-registered. Either way a batch is all or nothing: a rejected
    /// one (bad coordinate, out of memory) leaves the tensor, its version,
    /// its dirty state and the runtime as they were.
    pub fn update_batch(
        &mut self,
        name: &str,
        deltas: &[CoordDelta],
    ) -> Result<UpdateReport, Error> {
        let t0 = std::time::Instant::now();
        let t = self.tensor(name)?;
        let dims = t.data.dims();
        let order = dims.len();
        for d in deltas {
            if d.coord.len() != order {
                return Err(Error::Unsupported(format!(
                    "delta coordinate order {} != tensor '{name}' order {order}",
                    d.coord.len()
                )));
            }
            for (k, &c) in d.coord.iter().enumerate() {
                if c < 0 || c as usize >= dims[k] {
                    return Err(Error::Unsupported(format!(
                        "delta coordinate {c} out of bounds for dimension {k} of '{name}' (extent {})",
                        dims[k]
                    )));
                }
            }
        }
        if deltas.is_empty() {
            return Ok(UpdateReport {
                rows_dirty: t.dirty.as_ref().map_or(0, |d| d.map.dirty_rows()),
                ..UpdateReport::default()
            });
        }
        let rows = dims[0];
        let batch = ingest::resolve(&t.data, deltas);
        let in_place = batch.value_only();
        let version = t.version;
        // Either arm hands back the dirty state the tensor carried (any new
        // tensor state drops it); this batch extends it below.
        let prev = if in_place {
            let t = self.tensors.get_mut(name).expect("looked up above");
            renew(&mut self.runtime, t, false)?;
            let vals = t.data.vals_mut();
            for e in &batch.edits {
                if let (Some(at), Some(now)) = (e.at, e.now) {
                    vals[at] = now;
                }
            }
            t.version += 1;
            t.dirty.take()
        } else {
            let edits: Vec<_> = batch.edits.iter().map(|e| (e.coord, e.now)).collect();
            let (data, format) = (t.data.with_edits(&edits), t.format.clone());
            self.swap_registration(name, data, format)?
        };
        let from_version = prev.as_ref().map_or(version, |p| p.from_version);
        let prev_structural = prev.as_ref().is_some_and(|p| p.structural);
        let prev_deltas = prev.as_ref().map_or(0, |p| p.deltas_applied);
        let mut map = prev.map_or_else(|| DirtyMap::new(rows), |p| p.map);
        for &r in &batch.touched_rows {
            map.mark(r);
        }
        let mut report = batch.report;
        report.rows_dirty = map.dirty_rows();
        let t = self.tensors.get_mut(name).expect("registered above");
        t.dirty = Some(TensorDirty {
            map,
            structural: report.structural || prev_structural,
            from_version,
            tracked_version: t.version,
            deltas_applied: prev_deltas + report.applied() as u64,
        });
        self.trace.ingest_batch(
            deltas.len() as u64,
            report.ignored as u64,
            !in_place,
            t0.elapsed().as_nanos() as u64,
        );
        Ok(report)
    }

    /// The tensor's current version: bumped on every registration,
    /// replacement, mutable-data access, write-back or applied batch, and
    /// kept by a failed one. 0 before first registration.
    pub fn tensor_version(&self, name: &str) -> u64 {
        self.tensors.get(name).map_or(0, |t| t.version)
    }

    /// The tracked dirty state accumulated on a tensor since the last run,
    /// if any.
    pub fn dirty_state(&self, name: &str) -> Option<&TensorDirty> {
        self.tensors.get(name)?.dirty.as_ref()
    }

    /// Drop every tensor's tracked dirty state (a program run brought all
    /// consumers up to date).
    pub fn clear_all_dirty(&mut self) {
        self.tensors.values_mut().for_each(|t| t.dirty = None);
    }

    /// Re-register a tensor under a new format (keeping its data): the old
    /// registration is dropped and the new distribution is materialized,
    /// exactly as if the tensor had been added with `format` originally.
    /// Plans compiled against the old registration stay valid for their own
    /// partitions but callers caching plans by format signature (the
    /// `Program` front-end) will rightly miss and recompile. A rejected
    /// format leaves the context as it was.
    pub fn set_tensor_format(&mut self, name: &str, format: Format) -> Result<(), Error> {
        let data = self.tensor(name)?.data.clone();
        self.swap_registration(name, data, format).map(drop)
    }

    /// Register a tensor with its format and materialize its initial
    /// distribution (Figure 1 lines 18-22).
    pub fn add_tensor(&mut self, name: &str, data: SpTensor, format: Format) -> Result<(), Error> {
        self.swap_registration(name, data, format).map(drop)
    }

    /// The one way a registration enters the tensor table. A tensor keeps
    /// its regions for its life: when `name` holds a registration of the
    /// same region layout (the same level kinds, level by level) the new
    /// one takes its ids, else it gets new ones and the replaced regions
    /// are retired. Either way the regions are renewed to the new
    /// distribution's placement with the old copies still counted, so a
    /// processor briefly holds both registrations. A failure (bad format,
    /// out of memory) retires any region it created and returns before the
    /// table, the version, the dirty state or a kept region is touched, so
    /// the old registration stays whole. On success the dirty state the
    /// replaced registration carried is handed back — any (re-)registration
    /// is a new tensor state, which is what makes retained incremental
    /// buffers invalid after it; `update_batch` is the one caller that
    /// extends and re-installs it. The new registration owns its values
    /// (`data`'s levels may stay shared with a clone the caller holds; see
    /// the module's storage rule).
    fn swap_registration(
        &mut self,
        name: &str,
        data: SpTensor,
        format: Format,
    ) -> Result<Option<TensorDirty>, Error> {
        format.validate(data.order())?;
        let spec = format.dist.resolve(data.order())?;
        let dist_part = self.initial_partition(&data, &spec)?;
        let old = self.tensors.get(name).map(|t| &t.regions);
        let keep = old.is_some_and(|old| same_layout(old, &data));
        let regions = match old {
            Some(old) if keep => old.clone(),
            _ => create_regions(&mut self.runtime, name, &data),
        };
        let mut new = DistTensor {
            name: name.to_string(),
            regions,
            data,
            format,
            dist_part,
            dist_spec: spec,
            version: self.tensor_version(name) + 1,
            dirty: None,
        };
        let renewed = renew(&mut self.runtime, &new, true);
        // Regions created here: retired if they did not fit, else the ones
        // they replace are.
        if !keep {
            let replaced = self.tensors.get(name).map(|t| &t.regions);
            let failed = renewed.is_err().then_some(&new.regions);
            let retired = failed.or(replaced).map_or(Vec::new(), TensorRegions::ids);
            retired
                .into_iter()
                .for_each(|r| self.runtime.retire_region(r));
        }
        renewed?;
        // A registration owns its values: copied here if the caller still
        // shares them, so a value-only batch writes where they stand.
        new.data.vals_mut();
        let old = self.tensors.insert(name.to_string(), new);
        Ok(old.and_then(|old| old.dirty))
    }

    /// Build the coordinate-tree partition implied by the TDN statement.
    fn initial_partition(
        &self,
        data: &SpTensor,
        spec: &DistSpec,
    ) -> Result<TensorPartition, Error> {
        Ok(match distributed_by(spec)? {
            None => replicated_partition(data, self.machine().num_procs()),
            Some((md, initial)) => initial.tree(data, self.machine().dim(md)),
        })
    }
}

impl DistTensor {
    /// The coordinate tree that `initial` into `colors` colors along
    /// machine dimension `md` derives for this tensor: the registered
    /// distribution's own partition when it is that very one — a partition
    /// depends only on the pattern, which a registration keeps — else one
    /// derived afresh. Every level partition is derived once from an
    /// initial partition (Table I), so a schedule that distributes a
    /// tensor the way its data already is pays nothing for it.
    pub(crate) fn partition(
        &self,
        md: usize,
        initial: Initial,
        colors: usize,
    ) -> Cow<'_, TensorPartition> {
        let registered =
            matches!(distributed_by(&self.dist_spec), Ok(Some(d)) if d == (md, initial));
        if registered && self.dist_part.num_colors() == colors {
            Cow::Borrowed(&self.dist_part)
        } else {
            Cow::Owned(initial.tree(&self.data, colors))
        }
    }
}

/// An initial level partition, from which every other level partition of
/// a tensor is derived (Table I): equal coordinate ranges of the outermost
/// dimension, or equal position ranges of one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Initial {
    Universe,
    NonZero { level: usize },
}

impl Initial {
    /// The full coordinate tree of `t` this initial partition into
    /// `colors` colors derives.
    pub(crate) fn tree(self, t: &SpTensor, colors: usize) -> TensorPartition {
        match self {
            Initial::Universe => outer_dim_partition(t, colors),
            Initial::NonZero { level } => nonzero_tree_partition(t, level, colors),
        }
    }
}

/// The one machine dimension `spec` partitions a tensor along, and the
/// initial partition it distributes by: `None` for a tensor no machine
/// dimension partitions (replicated or staged).
fn distributed_by(spec: &DistSpec) -> Result<Option<(usize, Initial)>, Error> {
    let mapped: Vec<(usize, usize, bool)> = spec
        .map
        .iter()
        .enumerate()
        .filter_map(|(md, ld)| ld.map(|l| (md, l, spec.nonzero[md])))
        .collect();
    match mapped.as_slice() {
        [] => Ok(None),
        [(md, ld, nonzero)] => {
            let group = &spec.logical_dims[*ld];
            if *nonzero {
                // Non-zero partition of the deepest fused level.
                let level = *group.last().unwrap();
                return Ok(Some((*md, Initial::NonZero { level })));
            }
            if group.len() != 1 {
                return Err(Error::Unsupported(
                    "universe partition of a fused dimension group".into(),
                ));
            }
            if group[0] != 0 {
                return Err(Error::Unsupported(
                    "universe data distribution below the outermost dimension".into(),
                ));
            }
            Ok(Some((*md, Initial::Universe)))
        }
        _ => Err(Error::Unsupported(
            "more than one partitioned machine dimension".into(),
        )),
    }
}

/// Renew `t`'s regions in place to the lengths its data gives them and
/// what its distribution places where ([`Runtime::renew`]), with its old
/// copies still charged while the new ones attach (`old_counted`) or
/// released first.
fn renew(runtime: &mut Runtime, t: &DistTensor, old_counted: bool) -> Result<(), RuntimeError> {
    let placed = placements(runtime.machine(), &t.regions, &t.dist_part, &t.dist_spec);
    runtime.renew(&sized(&t.regions, &t.data), placed, old_counted)
}

/// Whether `regions` back `data`'s levels: the same kind, level by level.
fn same_layout(regions: &TensorRegions, data: &SpTensor) -> bool {
    let kind = |r: &LevelRegions| match r {
        LevelRegions::Dense => LevelFormat::Dense,
        LevelRegions::Compressed { .. } => LevelFormat::Compressed,
        LevelRegions::Singleton { .. } => LevelFormat::Singleton,
    };
    let kinds = regions.levels.iter().map(kind);
    kinds.eq(data.levels().iter().map(Level::format))
}

/// Every region of `regions`, which back `data`, with the length `data`
/// gives it, in [`TensorRegions::ids`] order: a level's `pos` has one
/// element per parent entry, its `crd` one per entry.
fn sized(regions: &TensorRegions, data: &SpTensor) -> Vec<(RegionId, u64)> {
    let (mut out, mut parents) = (Vec::with_capacity(2 * data.order() + 1), 1);
    for (lr, level) in regions.levels.iter().zip(data.levels()) {
        let entries = level.num_entries(parents);
        match *lr {
            LevelRegions::Dense => {}
            LevelRegions::Singleton { crd } => out.push((crd, entries as u64)),
            LevelRegions::Compressed { pos, crd } => {
                out.extend([(pos, parents as u64), (crd, entries as u64)])
            }
        }
        parents = entries;
    }
    out.push((regions.vals, data.num_stored() as u64));
    out
}

/// Create `data`'s regions, empty and valid nowhere until
/// [`Runtime::renew`] sizes and places them.
fn create_regions(runtime: &mut Runtime, name: &str, data: &SpTensor) -> TensorRegions {
    let mut create =
        |what: String, elem_bytes| runtime.create_region(&format!("{name}.{what}"), 0, elem_bytes);
    let levels = data.levels().iter().enumerate();
    let levels = levels.map(|(k, level)| match level {
        Level::Dense { .. } => LevelRegions::Dense,
        Level::Singleton { .. } => LevelRegions::Singleton {
            crd: create(format!("crd{k}"), CRD_BYTES),
        },
        Level::Compressed { .. } => LevelRegions::Compressed {
            pos: create(format!("pos{k}"), POS_BYTES),
            crd: create(format!("crd{k}"), CRD_BYTES),
        },
    });
    let levels = levels.collect();
    let vals = create("vals".to_string(), VAL_BYTES);
    TensorRegions { levels, vals }
}

/// What the initial distribution places where: `(processor, slot, subset)`
/// for each color's sub-regions on the processors owning the color
/// (replicating along unpartitioned machine dimensions), `slot` indexing
/// [`TensorRegions::ids`].
fn placements(
    machine: &Machine,
    regions: &TensorRegions,
    part: &TensorPartition,
    spec: &DistSpec,
) -> Vec<(usize, usize, IntervalSet)> {
    let mut placed = Vec::new();
    // A distribution with no machine dimensions at all is *staged*: the
    // data stays in staging memory and the computation's plan pulls (or
    // pre-stages) exactly what each processor needs.
    if spec.map.is_empty() {
        return placed;
    }
    let md = spec
        .map
        .iter()
        .enumerate()
        .find_map(|(md, ld)| ld.map(|_| md));
    for color in 0..part.num_colors() {
        for p in procs_for_color(machine, md, color) {
            let footprint = regions.footprint(part, color).enumerate();
            placed.extend(footprint.map(|(slot, (_, set))| (p, slot, set.clone())));
        }
    }
    placed
}

/// The processors owning `color` along machine dimension `md` (all
/// processors when the tensor is replicated, i.e. `md == None`).
pub fn procs_for_color(
    machine: &Machine,
    md: Option<usize>,
    color: usize,
) -> impl Iterator<Item = usize> + '_ {
    (0..machine.num_procs())
        .filter(move |&p| md.is_none_or(|md| grid_coord(machine, p, md) == color))
}

/// Decompose a linearized (row-major) processor index into its coordinate
/// along machine dimension `md`.
pub fn grid_coord(machine: &Machine, proc: usize, md: usize) -> usize {
    let dims = machine.dims();
    let mut rest = proc;
    let mut coord = 0;
    for d in 0..dims.len() {
        let stride: usize = dims[d + 1..].iter().product();
        coord = rest / stride;
        rest %= stride;
        if d == md {
            return coord;
        }
    }
    coord
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdistal_runtime::{MachineProfile, Partition};
    use spdistal_sparse::{dense_vector, generate};

    fn ctx(procs: usize) -> Context {
        Context::new(Machine::grid1d(procs, MachineProfile::test_profile()))
    }

    #[test]
    fn blocked_csr_attaches_row_blocks() {
        let mut c = ctx(4);
        let b = generate::uniform(64, 64, 500, 1);
        let nnz = b.nnz();
        c.add_tensor("B", b, Format::blocked_csr()).unwrap();
        let t = c.tensor("B").unwrap();
        // Every proc holds some vals; the union covers all of them.
        let mut total = 0;
        for p in 0..4 {
            let v = c.runtime().valid_in(t.regions.vals, p);
            total += v.total_len();
        }
        assert_eq!(total, nnz as u64);
        assert!(t.dist_part.vals().is_disjoint());
    }

    #[test]
    fn replicated_vector_everywhere() {
        let mut c = ctx(3);
        c.add_tensor(
            "c",
            dense_vector(vec![1.0; 100]),
            Format::replicated_dense_vec(),
        )
        .unwrap();
        let t = c.tensor("c").unwrap();
        for p in 0..3 {
            assert_eq!(c.runtime().valid_in(t.regions.vals, p).total_len(), 100);
        }
    }

    #[test]
    fn nonzero_csr_balances() {
        let mut c = ctx(4);
        let b = generate::rmat_default(8, 2000, 2);
        c.add_tensor("B", b, Format::nonzero_csr()).unwrap();
        let t = c.tensor("B").unwrap();
        assert!(t.dist_part.vals().imbalance() < 1.05);
        // Rows are aliased at boundaries: pos partition may overlap.
        assert!(t.dist_part.vals().is_complete());
    }

    #[test]
    fn unknown_tensor_error() {
        let c = ctx(2);
        assert!(matches!(c.tensor("Z"), Err(Error::UnknownTensor(_))));
    }

    #[test]
    fn format_order_mismatch_rejected() {
        let mut c = ctx(2);
        let b = generate::uniform(8, 8, 20, 3);
        assert!(c.add_tensor("B", b, Format::blocked_dense_vec()).is_err());
    }

    #[test]
    fn grid_coords() {
        let m = Machine::new(vec![2, 3], MachineProfile::test_profile());
        assert_eq!(grid_coord(&m, 0, 0), 0);
        assert_eq!(grid_coord(&m, 5, 0), 1);
        assert_eq!(grid_coord(&m, 5, 1), 2);
        assert_eq!(procs_for_color(&m, Some(1), 2).collect::<Vec<_>>(), [2, 5]);
        assert_eq!(procs_for_color(&m, None, 0).count(), 6);
    }

    /// The six stored layouts the leaves read, over a tensor of `rows`
    /// outermost coordinates.
    fn layouts(rows: usize) -> Vec<(&'static str, SpTensor)> {
        use spdistal_sparse::convert::{to_coo_format, to_dcsr};
        use spdistal_sparse::LevelFormat::{Compressed as C, Dense as D, Singleton as S};
        let csr = generate::uniform(rows, 16, 5 * rows, 1);
        let t3 = |fmt: &[_]| generate::tensor3_uniform_fmt([rows, 4, 8], 9 * rows, 2, fmt);
        vec![
            ("CSR", csr.clone()),
            ("DCSR", to_dcsr(&csr)),
            ("COO", to_coo_format(&csr)),
            ("COO3", t3(&[C, S, S])),
            ("CSF", t3(&[C, C, C])),
            ("DDS", t3(&[D, D, C])),
        ]
    }

    /// The three partition families a plan or a distribution puts a tensor
    /// under.
    fn partitions(t: &SpTensor, colors: usize) -> Vec<(&'static str, TensorPartition)> {
        vec![
            ("outer-dim", outer_dim_partition(t, colors)),
            ("non-zero", nonzero_tree_partition(t, t.order() - 1, colors)),
            ("replicated", replicated_partition(t, colors)),
        ]
    }

    #[test]
    fn footprint_names_every_region_once_in_ids_order() {
        const COLORS: usize = 4;
        let root = IntervalSet::from_rect(Rect1::new(0, 0));
        for (layout, t) in layouts(24) {
            let mut rt = Runtime::new(Machine::grid1d(COLORS, MachineProfile::test_profile()));
            let regions = create_regions(&mut rt, "T", &t);
            let ids = regions.ids();
            for (family, part) in partitions(&t, COLORS) {
                let what = format!("{layout} under {family}");
                let mut unions = vec![IntervalSet::new(); ids.len()];
                for color in 0..COLORS {
                    let footprint: Vec<_> = regions.footprint(&part, color).collect();
                    let named: Vec<RegionId> = footprint.iter().map(|&(r, _)| r).collect();
                    assert_eq!(named, ids, "{what}, color {color}");
                    // Level 0's `pos` is the root entry, whoever asks.
                    if let LevelRegions::Compressed { pos, .. } = regions.levels[0] {
                        assert_eq!(footprint[0], (pos, &root), "{what}, color {color}");
                    }
                    for (union, (_, subset)) in unions.iter_mut().zip(footprint) {
                        union.union_with(subset);
                    }
                }
                // `pos` follows the level above, `crd` and `vals` their own
                // entries: together the colors cover what the partition does,
                // and a region is as long as `sized` makes it.
                let complete = part.entries.iter().all(Partition::is_complete);
                assert!(complete || family == "non-zero", "{what} must be complete");
                for (&(r, len), union) in sized(&regions, &t).iter().zip(&unions) {
                    let whole = IntervalSet::from_rect(Rect1::new(0, len as i64 - 1));
                    assert!(whole.contains_set(union), "{what}: {}", rt.region(r).name);
                    if complete {
                        assert_eq!(union, &whole, "{what}: {}", rt.region(r).name);
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_color_touches_nothing_but_the_root() {
        // Two outermost coordinates over four colors: the last two own none.
        for (layout, t) in layouts(2) {
            let mut rt = Runtime::new(Machine::grid1d(4, MachineProfile::test_profile()));
            let regions = create_regions(&mut rt, "T", &t);
            let part = outer_dim_partition(&t, 4);
            for color in [2, 3] {
                // A requirement is made of a non-empty subset only.
                let touched = regions.footprint(&part, color);
                let touched: Vec<_> = touched.filter(|(_, s)| !s.is_empty()).collect();
                match regions.levels[0] {
                    LevelRegions::Compressed { pos, .. } => {
                        assert_eq!(touched.len(), 1, "{layout}, color {color}");
                        assert_eq!(touched[0].0, pos, "{layout}, color {color}");
                    }
                    _ => assert!(touched.is_empty(), "{layout}, color {color}: {touched:?}"),
                }
            }
        }
    }

    #[test]
    fn set_tensor_format_rejects_without_corrupting() {
        let mut c = ctx(2);
        let b = generate::uniform(16, 16, 40, 5);
        c.add_tensor("B", b, Format::blocked_csr()).unwrap();
        // A vector format on a matrix must fail ...
        assert!(c
            .set_tensor_format("B", Format::blocked_dense_vec())
            .is_err());
        // ... and leave the tensor registered and usable.
        assert_eq!(
            c.tensor("B").unwrap().format.levels,
            Format::blocked_csr().levels
        );
        // A valid re-declaration still works afterwards.
        c.set_tensor_format("B", Format::nonzero_csr()).unwrap();
        assert!(c.tensor("B").unwrap().dist_part.vals().imbalance() < 1.05);
    }

    /// Everything a failed re-registration must leave as it found it.
    fn observe(c: &Context, name: &str) -> (Vec<f64>, u64, Option<usize>, usize, Vec<u64>) {
        (
            c.tensor(name).unwrap().data.vals().to_vec(),
            c.tensor_version(name),
            c.dirty_state(name).map(|d| d.map.dirty_rows()),
            c.runtime().live_regions(),
            (0..c.machine().num_procs())
                .map(|p| c.runtime().resident_bytes(p))
                .collect(),
        )
    }

    #[test]
    fn reregistration_retires_what_it_replaces() {
        let mut c = ctx(4);
        let b = generate::uniform(64, 64, 500, 1);
        c.add_tensor("B", b.clone(), Format::blocked_csr()).unwrap();
        let (.., live, resident) = observe(&c, "B");
        for flip in 0..100 {
            let fmt = if flip % 2 == 0 {
                Format::nonzero_csr()
            } else {
                Format::blocked_csr()
            };
            c.set_tensor_format("B", fmt).unwrap();
        }
        c.replace_tensor_data("B", b.clone()).unwrap();
        c.add_tensor("B", b, Format::blocked_csr()).unwrap();
        let (.., live_after, resident_after) = observe(&c, "B");
        assert_eq!(live_after, live, "live regions after 100 format flips");
        assert_eq!(resident_after, resident, "resident bytes per processor");
    }

    #[test]
    fn failed_reregistration_changes_nothing() {
        // B fits a processor's memory twice over — a swap attaches the new
        // registration beside the old one — and `big`, same dims, not once.
        let mut c = Context::new(Machine::grid1d(
            4,
            MachineProfile::test_profile_with_capacity(6000),
        ));
        let b = generate::uniform(64, 64, 400, 1);
        let big = generate::uniform(64, 64, 3000, 2);
        let n = b.dims()[0];
        let x = generate::dense_vec(n, 2);
        c.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
            .unwrap();
        c.add_tensor("B", b.clone(), Format::blocked_csr()).unwrap();
        c.add_tensor("x", dense_vector(x.clone()), Format::replicated_dense_vec())
            .unwrap();
        // A batch that lands, so there is dirty state to lose.
        let first = b.to_coo().swap_remove(0).0;
        c.update_batch("B", &[CoordDelta::overwrite(first, 9.0)])
            .unwrap();
        let before = observe(&c, "B");
        assert_eq!(before.2, Some(1));

        let oom = |r: Result<(), Error>| {
            assert!(matches!(r, Err(Error::Runtime(RuntimeError::Oom { .. }))));
        };
        oom(c.replace_tensor_data("B", big.clone()));
        assert_eq!(observe(&c, "B"), before, "after a failed replace");
        let grow: Vec<CoordDelta> = big
            .to_coo()
            .into_iter()
            .map(|(coord, v)| CoordDelta::insert(coord, v))
            .collect();
        oom(c.update_batch("B", &grow).map(drop));
        assert_eq!(observe(&c, "B"), before, "after a failed update_batch");
        // A bad coordinate at the end of a batch rejects the deltas before
        // it too, in either arm.
        let stored = b.to_coo();
        for lead in [
            CoordDelta::overwrite(stored[1].0.clone(), -1.0),
            CoordDelta::delete(stored[1].0.clone()),
        ] {
            let batch = [lead, CoordDelta::overwrite(vec![0, 64], 1.0)];
            let rejected = c.update_batch("B", &batch);
            assert!(matches!(rejected, Err(Error::Unsupported(_))));
            assert_eq!(observe(&c, "B"), before, "after a rejected batch");
        }

        // The registration that survived still computes.
        let [i, j] = c.fresh_vars(["i", "j"]);
        let stmt = crate::assign(
            "a",
            &[i],
            crate::access("B", &[i, j]) * crate::access("x", &[j]),
        );
        let sched =
            crate::schedule_outer_dim(&mut c, &stmt, 4, spdistal_ir::ParallelUnit::CpuThread);
        let r = c.compile_and_run(&stmt, &sched).unwrap();
        let expect = spdistal_sparse::reference::spmv(&c.tensor("B").unwrap().data, &x);
        assert_eq!(r.output.as_tensor().unwrap().vals(), expect);
    }

    #[test]
    fn value_only_batch_needs_room_for_one_registration_not_two() {
        let b = generate::uniform(64, 64, 400, 1);
        let register = |capacity: u64| {
            let profile = MachineProfile::test_profile_with_capacity(capacity);
            let mut c = Context::new(Machine::grid1d(4, profile));
            c.add_tensor("B", b.clone(), Format::blocked_csr()).unwrap();
            c
        };
        let oom = |r: Result<(), Error>| {
            assert!(matches!(r, Err(Error::Runtime(RuntimeError::Oom { .. }))));
        };
        // B's largest share of a processor, and a memory that holds it once.
        let unbounded = register(u64::MAX);
        let share = (0..4).map(|p| unbounded.runtime().resident_bytes(p)).max();
        let capacity = share.unwrap() * 3 / 2;
        let mut c = register(capacity);
        oom(c.replace_tensor_data("B", b.clone()));

        // The batch keeps the distribution, so its regions release before
        // they attach.
        let first = b.to_coo().swap_remove(0).0;
        let before = observe(&c, "B");
        c.update_batch("B", &[CoordDelta::overwrite(first.clone(), 9.0)])
            .unwrap();
        let after = observe(&c, "B");
        assert_eq!(after.0[0], 9.0);
        assert_eq!(after.1, before.1 + 1, "version");
        assert_eq!((after.3, &after.4), (before.3, &before.4), "regions, bytes");

        // Unless the release frees less than the distribution needs: every
        // processor lost its copy of the values and the room went elsewhere.
        let vals = c.tensor("B").unwrap().regions.vals;
        for p in 0..4 {
            let held = c.runtime().valid_in(vals, p).clone();
            c.runtime_mut().evict(vals, p, &held);
        }
        let free = (0..4)
            .map(|p| capacity - c.runtime().resident_bytes(p))
            .min();
        let pad = vec![0.0; 4 * (free.unwrap() / VAL_BYTES) as usize];
        c.add_tensor("pad", dense_vector(pad), Format::blocked_dense_vec())
            .unwrap();
        let before = observe(&c, "B");
        oom(c
            .update_batch("B", &[CoordDelta::overwrite(first, 7.0)])
            .map(drop));
        assert_eq!(observe(&c, "B"), before, "after a refresh that cannot fit");
    }

    #[test]
    fn write_back_needs_room_for_two_registrations() {
        let b = generate::uniform(64, 64, 400, 1);
        let register = |capacity: u64| {
            let profile = MachineProfile::test_profile_with_capacity(capacity);
            let mut c = Context::new(Machine::grid1d(4, profile));
            c.add_tensor("B", b.clone(), Format::blocked_csr()).unwrap();
            c
        };
        // A memory that holds B's largest share of a processor once.
        let unbounded = register(u64::MAX);
        let share = (0..4).map(|p| unbounded.runtime().resident_bytes(p)).max();
        let mut c = register(share.unwrap() * 3 / 2);
        let coherence = |c: &Context| {
            let ids = c.tensor("B").unwrap().regions.ids();
            let sets = ids.iter().flat_map(|&r| (0..4).map(move |p| (r, p)));
            let sets: Vec<_> = sets
                .map(|(r, p)| c.runtime().valid_in(r, p).clone())
                .collect();
            (ids, sets)
        };

        // A write-back charges the new copies with the old ones still
        // counted, as a re-registration does.
        let (before, held) = (observe(&c, "B"), coherence(&c));
        let vals = vec![9.0; b.num_stored()];
        let r = c.write_back("B", vals, None::<fn(&[f64], &mut [f64])>);
        assert!(matches!(r, Err(Error::Runtime(RuntimeError::Oom { .. }))));
        assert_eq!(
            observe(&c, "B"),
            before,
            "after a write-back that cannot fit"
        );
        assert_eq!(coherence(&c), held, "regions and copies");

        // A value-only batch releases them first, so it fits.
        let first = b.to_coo().swap_remove(0).0;
        c.update_batch("B", &[CoordDelta::overwrite(first, 9.0)])
            .unwrap();
        assert_eq!(observe(&c, "B").1, before.1 + 1, "version");
    }

    /// What a row expects of the observed tensor's tracked dirty state.
    #[derive(Clone, Copy, Debug)]
    enum Dirty {
        /// None after the call.
        Absent,
        /// Exactly what it was before the call.
        Kept,
        /// Extended by a batch: its `from_version` is the one it had (or
        /// the version before the call if there was none), its
        /// `tracked_version` the version after, with `rows` dirty rows.
        Extended { rows: usize, structural: bool },
    }

    type Call = Box<dyn Fn(&mut crate::CompiledProgram) -> Result<(), Error>>;

    /// Every entry point that changes a registration, one row each, on one
    /// program's context: the observed tensor's version moves by `bump`
    /// (1 on success, 0 on a failed call) and its dirty state as the row
    /// says. A cached `run` writes its output back by value.
    #[test]
    fn every_registration_change_moves_version_and_dirty_state() {
        let machine = Machine::grid1d(4, MachineProfile::lassen_cpu());
        let b = generate::uniform(64, 64, 400, 1);
        let stored = b.to_coo();
        let at_row = |r: i64| stored.iter().find(|(c, _)| c[0] == r).unwrap().0.clone();
        let absent = (0..64).find(|&j| b.locate(&[2, j]).is_none()).unwrap();
        let mut p = crate::Program::on(machine)
            .tensor(
                "a",
                Format::blocked_dense_vec(),
                dense_vector(vec![0.0; 64]),
            )
            .tensor("B", Format::blocked_csr(), b.clone())
            .tensor(
                "c",
                Format::replicated_dense_vec(),
                dense_vector(vec![1.0; 64]),
            )
            .stmt("a(i) = B(i,j) * c(j)")
            .schedule(crate::ScheduleSpec::outer_dim())
            .trace(crate::Trace::enabled())
            .build()
            .unwrap();
        p.run().unwrap();
        assert_eq!(p.context().tensor_version("never"), 0, "unregistered");

        let batch = |deltas: Vec<CoordDelta>| -> Call {
            Box::new(move |p| p.update_batch("B", &deltas).map(drop))
        };
        let overwrite = |r: i64| batch(vec![CoordDelta::overwrite(at_row(r), 9.0 + r as f64)]);
        let z = || dense_vector(vec![1.0; 8]);
        let b2 = b.clone();
        use Dirty::*;
        #[rustfmt::skip]
        let rows: Vec<(&str, &str, bool, u64, Dirty, Call)> = vec![
            ("add_tensor, new name", "Z", true, 1, Absent,
             Box::new(move |p| p.context_mut().add_tensor("Z", z(), Format::blocked_dense_vec()))),
            ("add_tensor over a registration", "Z", true, 1, Absent,
             Box::new(move |p| p.context_mut().add_tensor("Z", z(), Format::blocked_dense_vec()))),
            ("cached run writes its output", "a", true, 1, Absent, Box::new(|p| p.run().map(drop))),
            ("value-only batch", "B", true, 1, Extended { rows: 1, structural: false }, overwrite(0)),
            ("cached run reads the driver", "B", true, 0, Absent, Box::new(|p| p.run().map(drop))),
            ("value-only batch", "B", true, 1, Extended { rows: 1, structural: false }, overwrite(0)),
            ("second value-only batch", "B", true, 1, Extended { rows: 2, structural: false }, overwrite(1)),
            ("structural batch", "B", true, 1, Extended { rows: 3, structural: true },
             batch(vec![CoordDelta::insert(vec![2, absent], 1.5)])),
            ("tensor_data_mut", "B", true, 1, Kept, Box::new(|p| p.tensor_data_mut("B").map(drop))),
            ("rejected batch", "B", false, 0, Kept,
             batch(vec![CoordDelta::overwrite(at_row(3), 1.0), CoordDelta::overwrite(vec![0, 64], 1.0)])),
            ("failed replace", "B", false, 0, Kept,
             Box::new(|p| p.context_mut().replace_tensor_data("B", generate::uniform(65, 64, 10, 2)))),
            ("failed set_tensor_format", "B", false, 0, Kept,
             Box::new(|p| p.set_tensor_format("B", Format::blocked_dense_vec()))),
            ("write-back by value", "B", true, 1, Absent, Box::new(|p| {
                let vals = p.context().tensor("B")?.data.vals().to_vec();
                p.context_mut().write_back("B", vals, None::<fn(&[f64], &mut [f64])>).map(drop)
            })),
            ("value-only batch", "B", true, 1, Extended { rows: 1, structural: false }, overwrite(4)),
            ("replace_tensor_data", "B", true, 1, Absent,
             Box::new(move |p| p.context_mut().replace_tensor_data("B", b2.clone()))),
            ("value-only batch", "B", true, 1, Extended { rows: 1, structural: false }, overwrite(5)),
            ("set_tensor_format", "B", true, 1, Absent,
             Box::new(|p| p.set_tensor_format("B", Format::nonzero_csr()))),
            ("value-only batch", "B", true, 1, Extended { rows: 1, structural: false }, overwrite(6)),
            ("add_tensor over a tracked registration", "B", true, 1, Absent,
             Box::new(move |p| p.context_mut().add_tensor("B", b.clone(), Format::blocked_csr()))),
            ("value-only batch", "B", true, 1, Extended { rows: 1, structural: false }, overwrite(7)),
            ("clear_all_dirty", "B", true, 0, Absent, Box::new(|p| {
                p.context_mut().clear_all_dirty();
                Ok(())
            })),
        ];
        let snapshot = |d: &TensorDirty| {
            let counts = (d.map.dirty_rows(), d.structural, d.deltas_applied);
            (d.from_version, d.tracked_version, counts)
        };
        for (what, name, ok, bump, dirty, call) in rows {
            let ctx = p.context();
            let (version, before) = (
                ctx.tensor_version(name),
                ctx.dirty_state(name).map(snapshot),
            );
            assert_eq!(call(&mut p).is_ok(), ok, "{what}: outcome");
            let ctx = p.context();
            let now = ctx.tensor_version(name);
            assert_eq!(now, version + bump, "{what}: version");
            let after = ctx.dirty_state(name);
            match dirty {
                Absent => assert!(after.is_none(), "{what}: dirty state kept"),
                Kept => assert_eq!(after.map(snapshot), before, "{what}: dirty state"),
                Extended { rows, structural } => {
                    let d = after.unwrap_or_else(|| panic!("{what}: no dirty state"));
                    let from = before.map_or(version, |(from, ..)| from);
                    assert_eq!((d.from_version, d.tracked_version), (from, now), "{what}");
                    assert_eq!(
                        (d.map.dirty_rows(), d.structural),
                        (rows, structural),
                        "{what}"
                    );
                }
            }
        }
        let m = p.trace().metrics().unwrap();
        let arms = (
            m.counter("writeback.reregistered").get(),
            m.counter("writeback.by_value").get(),
        );
        assert_eq!(
            arms,
            (0, 3),
            "every run writes into a registered output of the same dims by value"
        );
    }

    #[test]
    fn replace_tensor_data_checks_dims() {
        let mut c = ctx(2);
        c.add_tensor(
            "a",
            dense_vector(vec![0.0; 10]),
            Format::blocked_dense_vec(),
        )
        .unwrap();
        assert!(c
            .replace_tensor_data("a", dense_vector(vec![0.0; 11]))
            .is_err());
        c.replace_tensor_data("a", dense_vector(vec![1.0; 10]))
            .unwrap();
        assert_eq!(c.tensor("a").unwrap().data.vals()[0], 1.0);
    }
}
