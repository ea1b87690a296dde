//! The runtime core: region registry, instance coherence, and the
//! discrete-event execution model.
//!
//! The simulator plays the role Legion plays for SpDISTAL. The compiler
//! (crate `spdistal`) creates regions and partitions, then issues *index
//! launches* — one point task per color of a distributed loop. The runtime:
//!
//! 1. tracks, per logical region, which intervals are *valid* in each
//!    processor's memory (the coherence state Legion maintains for physical
//!    instances);
//! 2. infers communication: a task reading a subset that is not valid in its
//!    processor's memory pays `latency × messages + bytes / bandwidth` on the
//!    link from a source copy, and the bytes become resident (possibly
//!    exceeding a GPU's capacity → [`RuntimeError::Oom`]);
//! 3. advances a per-processor clock. Tasks of one index launch run
//!    concurrently across processors; Legion's deferred execution is modeled
//!    by *not* synchronizing processors between launches — each processor's
//!    timeline advances independently, and only true data movement couples
//!    them. (The bulk-synchronous baselines, PETSc/Trilinos/CTF-like, cost
//!    their phases and barriers in a model of their own,
//!    `spdistal_baselines`' `BspModel`.)
//!
//! The model reports *simulated* time; the real kernels execute separately
//! (in crate `spdistal`) for correctness, and their operation counts feed
//! [`crate::task::TaskSpec::ops`].
//!
//! ## What one launch costs
//!
//! Beside the per-processor `valid` sets the runtime keeps, per region, the
//! exact set `somewhere = sys_valid ∪ ⋃ₚ valid[p]` of elements that hold
//! data in *some* memory. Costing one requirement is then one subtract, one
//! allocation-free counting walk and a union or two, whatever the machine
//! size: `need = subset ∖ valid[p]` (two binary searches and a copy when
//! one run of `valid[p]` is all that cuts it — an owner's block; nothing
//! built when that run covers `subset` — a replicated input), the length
//! and runs of `need ∩ somewhere` counted without building it (what must
//! move; the rest of `need` is fresh and only allocated; no merge when one
//! run of `somewhere` spans `need`), an early-exit scan of the *same-node*
//! peers only to pick the link — [`Machine::link`] tells nothing else
//! apart, so a one-processor-per-node machine scans none — and the unions
//! that record the new copy (a one-run side spliced in, not merged).
//! `somewhere` only grows, except in [`Runtime::evict`] (rebuilt),
//! [`Runtime::renew`] (reset) and [`Runtime::clear_region`] (cleared; also
//! by [`Runtime::retire_region`]). See `docs/model.md`.
//!
//! ## Launch-graph-ordered replay
//!
//! The per-processor clocks above are the *canonical* timeline: they decide
//! [`Runtime::now`] and every launch's incremental simulated time, and they
//! are deliberately left exactly as launch-at-a-time replay charges them, so
//! a program's modeled time never depends on how its launches were driven.
//!
//! On top of that, the runtime keeps a second, **pipelined** timeline that
//! models Legion's deferred execution at launch granularity. Every launch is
//! issued against it with an explicit predecessor set, through the one issue
//! API [`Runtime::index_launch_after`]: each task starts at
//! `max(pred finish times, processor availability)`, so launches no data
//! dependence orders overlap (coupled only by processor contention), while
//! dependent launches pipeline behind their predecessors' finish. A
//! launch-at-a-time issue names [`Runtime::model_fence_launch`] — the launch
//! with the latest finish — as its one predecessor: a global serialization
//! point, which is what non-deferred replay means.
//!
//! Each launch's [`ModelTiming`] records its modeled issue/start/finish on
//! the pipelined timeline plus its `seq_span` — the makespan the launch
//! would have from a globally synchronized start, i.e. what launch-at-a-time
//! replay charges for it. `sum(seq_span) / (graph-ordered makespan)` is the
//! modeled-overlap ratio deferred execution buys: 1 for a dependence chain
//! (every launch gates on its predecessor, so spans tile), > 1 when
//! independent launches with different critical processors overlap.
//!
//! ## Launch replay
//!
//! A cached program pass issues the same launches in the same coherence
//! state as the pass before it, so — as Legion's dynamic tracing replays a
//! recorded loop body — the runtime keeps one record per launch name: what
//! the last costed launch of that name saw and did. **The key** is every
//! task's processor and requirements (region, privilege, subset); every
//! named region's `len`, `elem_bytes`, `valid[·]`, `sys_valid` and
//! `somewhere` at launch begin; and the `resident` vector. Neither `ops`
//! nor `preds` is in it: both only feed the clocks, which a replay charges
//! afresh. A launch whose key equals the record is **replayed**: each task
//! advances the clocks by its recorded communication time plus its own
//! compute, through `run_task`, the code the slow path charges with; the
//! moving combines rendezvous again; the recorded end state and residency
//! are installed. Anything else is costed and re-recorded; a failed launch
//! never is.
//!
//! **Regions are named by id.** A tensor keeps its regions for its life:
//! a write-back, a value-only batch and a re-registration with the same
//! region layout renew them in place ([`Runtime::renew`]), and a
//! statement's output region, which its pass record creates once, is
//! cleared around each run's launches ([`Runtime::clear_region`]). Only a
//! layout change creates new ids, and its launches are costed afresh. An id
//! [`Runtime::create_region`] hands out again can match a record only in a
//! state equal to the recorded one.
//!
//! **A replay is bit-identical**: the slow path's state, residency and
//! traffic are functions of the key, and the clocks advance by the same
//! terms in the same order. The key is cheap to compare because
//! [`IntervalSet`]s share their runs: the plan's subsets and the installed
//! end state are clones of what the record holds, and equal allocations
//! compare at once. See `docs/model.md`, "Launch replay".

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::geometry::IntervalSet;
use crate::machine::{LinkProfile, Machine};
use crate::task::{Privilege, RegionId, RegionReq, TaskSpec};

/// Metadata for a logical region.
#[derive(Clone, Debug)]
pub struct RegionMeta {
    pub name: String,
    pub len: u64,
    pub elem_bytes: u64,
}

/// Errors surfaced by the execution model.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// A processor's memory capacity was exceeded. Maps to the "DNC" cells
    /// of Figure 11.
    Oom {
        proc: usize,
        region: String,
        resident: u64,
        requested: u64,
        capacity: u64,
    },
    /// A task named a processor outside the machine grid.
    BadProc { proc: usize, num_procs: usize },
    /// A predecessor [`LaunchId`] this runtime never issued (e.g. an id
    /// taken from a different [`Runtime`] instance).
    UnknownLaunch { launch: usize, issued: usize },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Oom {
                proc,
                region,
                resident,
                requested,
                capacity,
            } => write!(
                f,
                "OOM on proc {proc}: {requested} bytes of region '{region}' \
                 (resident {resident}, capacity {capacity})"
            ),
            RuntimeError::BadProc { proc, num_procs } => {
                write!(f, "task mapped to proc {proc} of {num_procs}")
            }
            RuntimeError::UnknownLaunch { launch, issued } => {
                write!(
                    f,
                    "predecessor launch {launch} was never issued here ({issued} launches known)"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Aggregate statistics of a run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Total bytes moved between memories.
    pub comm_bytes: u64,
    /// Total point-to-point messages.
    pub messages: u64,
    /// Total modeled compute operations.
    pub total_ops: f64,
    /// Number of index launches executed.
    pub launches: u64,
    /// Number of point tasks executed.
    pub tasks: u64,
    /// Launches answered from the record of an earlier launch of the same
    /// name instead of costed again (module docs, "Launch replay").
    pub replayed: u64,
}

/// Record of one index launch.
#[derive(Clone, Debug)]
pub struct LaunchRecord {
    pub name: String,
    pub tasks: usize,
    pub comm_bytes: u64,
    pub messages: u64,
    /// Simulated makespan (max processor clock) after the launch completed.
    pub clock_after: f64,
    /// Identity of this launch on the pipelined model timeline; later
    /// launches may name it as a predecessor in
    /// [`Runtime::index_launch_after`].
    pub id: LaunchId,
    /// Modeled milestones on the pipelined (launch-graph-ordered) timeline.
    pub model: ModelTiming,
}

/// Handle to an issued launch, usable as a predecessor for later launches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LaunchId(pub(crate) usize);

/// Modeled milestones of one launch on the pipelined timeline (simulated
/// seconds on the runtime's model clock).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModelTiming {
    /// When the launch became eligible: the max of its predecessors' modeled
    /// finish times (for a launch gated on [`Runtime::model_fence_launch`],
    /// the finish of every launch issued before it).
    pub issue: f64,
    /// When its first task started (`>= issue`; later when the task's
    /// processor was still busy with an earlier launch).
    pub start: f64,
    /// When its last task (and any reduction combine) completed.
    pub finish: f64,
    /// The launch's *sequential* span: its makespan from a globally
    /// synchronized start — per-processor serialized task time, with any
    /// reduction combine replayed as the rendezvous it is — i.e. what
    /// launch-at-a-time replay charges for this launch. Summing `seq_span`
    /// over launches gives the sequential modeled total the graph-ordered
    /// makespan is compared against.
    pub seq_span: f64,
}

impl ModelTiming {
    /// The launch's modeled active window on the pipelined timeline.
    pub fn span(&self) -> f64 {
        (self.finish - self.start).max(0.0)
    }
}

/// A launch's bookkeeping on the pipelined timeline while its tasks are
/// charged: when it was issued, its first task start, its last completion,
/// and the per-processor serialized load a synchronized start would
/// observe (the launch's sequential span).
struct LaunchClock {
    issue: f64,
    start: f64,
    finish: f64,
    seq_load: Vec<f64>,
}

impl LaunchClock {
    fn new(issue: f64, procs: usize) -> Self {
        LaunchClock {
            issue,
            start: f64::INFINITY,
            finish: issue,
            seq_load: vec![0.0; procs],
        }
    }
}

/// One region's size and coherence state, as a [`LaunchMemo`] keeps it:
/// clones that share the runtime's runs.
struct RegionState {
    id: RegionId,
    len: u64,
    elem_bytes: u64,
    valid: Vec<IntervalSet>,
    sys_valid: IntervalSet,
    somewhere: IntervalSet,
}

/// What the last costed launch of one name saw and did (module docs,
/// "Launch replay"). `begin` and `end` hold every region the requirements
/// name, once each, in id order.
struct LaunchMemo {
    /// Each task's processor and requirements.
    tasks: Vec<(usize, Vec<RegionReq>)>,
    begin: Vec<RegionState>,
    resident: Vec<u64>,
    charged: Charged,
    /// `(comm_bytes, messages)` the launch added.
    traffic: (u64, u64),
    end: Vec<RegionState>,
    end_resident: Vec<u64>,
}

/// What a costed launch charged the clocks, so a replay can charge them
/// again.
struct Charged {
    /// Each task's communication time, in task order.
    comm_times: Vec<f64>,
    /// Each combine that moved data: its contributors and duration.
    combines: Vec<(Vec<usize>, f64)>,
}

/// The staging memory as [`Runtime::find_source`] names it.
#[cfg(test)]
const SYS_MEM: usize = usize::MAX;

/// The runtime: machine + regions + coherence state + clocks.
pub struct Runtime {
    machine: Machine,
    regions: Vec<RegionMeta>,
    /// `valid[r.0][p]`: intervals of region `r` valid in proc `p`'s memory.
    valid: Vec<Vec<IntervalSet>>,
    /// Intervals valid in the unbounded staging (system) memory.
    sys_valid: Vec<IntervalSet>,
    /// `somewhere[r.0] == sys_valid[r.0] ∪ ⋃ₚ valid[r.0][p]`, exactly:
    /// grown wherever a copy appears, rebuilt by `evict`, reset by `renew`,
    /// cleared by `clear_region`. What `fetch` intersects instead of
    /// every processor.
    somewhere: Vec<IntervalSet>,
    /// Retired region slots, reused by `create_region`.
    free: Vec<RegionId>,
    /// Resident bytes per processor memory.
    resident: Vec<u64>,
    /// Per-processor simulated clock (seconds) — the canonical timeline.
    proc_ready: Vec<f64>,
    /// Per-processor clock on the pipelined (launch-graph-ordered) model
    /// timeline. Advances with the same per-task durations as `proc_ready`
    /// but gates each launch's tasks behind its predecessors' finishes
    /// instead of behind everything previously issued.
    model_ready: Vec<f64>,
    /// Modeled finish time of every issued launch, indexed by [`LaunchId`].
    model_finishes: Vec<f64>,
    /// The latest issued launch with the max modeled finish (None before
    /// any launch was issued): the global serialization point.
    fence_launch: Option<LaunchId>,
    stats: RunStats,
    /// The last costed launch of each name, for replay.
    memos: HashMap<String, Arc<LaunchMemo>>,
    /// Route `fetch` through [`Runtime::transfer_per_proc`] (the oracle).
    #[cfg(test)]
    per_proc_oracle: bool,
    /// Cost every launch, as if no launch ever repeated (the replay oracle).
    #[cfg(test)]
    replay_off: bool,
}

impl Runtime {
    pub fn new(machine: Machine) -> Self {
        let p = machine.num_procs();
        Runtime {
            machine,
            regions: Vec::new(),
            valid: Vec::new(),
            sys_valid: Vec::new(),
            somewhere: Vec::new(),
            free: Vec::new(),
            resident: vec![0; p],
            proc_ready: vec![0.0; p],
            model_ready: vec![0.0; p],
            model_finishes: Vec::new(),
            fence_launch: None,
            stats: RunStats::default(),
            memos: HashMap::new(),
            #[cfg(test)]
            per_proc_oracle: false,
            #[cfg(test)]
            replay_off: false,
        }
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Register a logical region of `len` elements of `elem_bytes` each.
    /// Reuses the slot (and id) of a retired region when there is one.
    pub fn create_region(&mut self, name: &str, len: u64, elem_bytes: u64) -> RegionId {
        let meta = RegionMeta {
            name: name.to_string(),
            len,
            elem_bytes,
        };
        if let Some(id) = self.free.pop() {
            self.regions[id.0 as usize] = meta;
            return id;
        }
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(meta);
        self.valid
            .push(vec![IntervalSet::new(); self.machine.num_procs()]);
        self.sys_valid.push(IntervalSet::new());
        self.somewhere.push(IntervalSet::new());
        id
    }

    /// Put region `r` in the state [`Runtime::create_region`] gives a
    /// region of `len` elements, under the id and name it has: every
    /// processor's copy is dropped (releasing its resident bytes), the
    /// staging copy too, and the sets are freed. A statement's output
    /// region is cleared this way around each run's launches.
    pub fn clear_region(&mut self, r: RegionId, len: u64) {
        let ri = r.0 as usize;
        let elem_bytes = self.regions[ri].elem_bytes;
        for (p, v) in self.valid[ri].iter_mut().enumerate() {
            let bytes = std::mem::take(v).total_len() * elem_bytes;
            self.resident[p] = self.resident[p].saturating_sub(bytes);
        }
        self.sys_valid[ri] = IntervalSet::new();
        self.somewhere[ri] = IntervalSet::new();
        self.regions[ri].len = len;
    }

    /// Retire region `r`: clear it ([`Runtime::clear_region`]) and free its
    /// slot. Nothing may name `r` afterwards — the id is handed out again
    /// by a later [`Runtime::create_region`]. Retiring twice is a no-op.
    pub fn retire_region(&mut self, r: RegionId) {
        if self.free.contains(&r) {
            return;
        }
        self.clear_region(r, self.regions[r.0 as usize].len);
        self.free.push(r);
    }

    /// Regions created and not yet retired.
    pub fn live_regions(&self) -> usize {
        self.regions.len() - self.free.len()
    }

    pub fn region(&self, r: RegionId) -> &RegionMeta {
        &self.regions[r.0 as usize]
    }

    /// Mark `subset` of `r` valid in processor `proc`'s memory without
    /// modeled cost — the initial data distribution, staged before timing.
    /// Still consumes memory capacity (so oversized initial placements OOM,
    /// as in Figure 11).
    pub fn attach(
        &mut self,
        r: RegionId,
        proc: usize,
        subset: IntervalSet,
    ) -> Result<(), RuntimeError> {
        self.check_proc(proc)?;
        let have = &self.valid[r.0 as usize][proc];
        let new = subset.subtract(have);
        let bytes = new.total_len() * self.regions[r.0 as usize].elem_bytes;
        self.charge_memory(proc, r, bytes)?;
        self.add_copy(r, proc, &subset);
        Ok(())
    }

    /// Mark the whole region valid in the unbounded staging memory (e.g.
    /// freshly built input data before distribution).
    pub fn attach_sys(&mut self, r: RegionId) {
        let len = self.regions[r.0 as usize].len;
        let all = IntervalSet::from_rect(crate::geometry::Rect1::new(0, len as i64 - 1));
        self.somewhere[r.0 as usize].union_with(&all);
        self.sys_valid[r.0 as usize] = all;
    }

    /// Give each `(region, len)` of `sized` the state a registration has,
    /// under the id it has: the region becomes `len` elements long, each
    /// processor holds exactly its placement — the union of the
    /// `(proc, slot, subset)`s of `placed` for `sized[slot]` — the staging
    /// memory the whole region ([`Runtime::attach_sys`]), and `resident[p]`
    /// trades the old copies' bytes for the new ones'. Every registration
    /// renews its regions through it — a new tensor's created empty, a
    /// re-registration's kept when the layout is — and so does a
    /// write-back or a value-only batch. Whether the placement fits is
    /// decided first, per processor, with the old copies still charged
    /// while the new ones attach (`old_counted`, as when a registration
    /// replaces another) or released first; a refusal is an
    /// [`RuntimeError::Oom`] that changes nothing, the lengths included.
    pub fn renew(
        &mut self,
        sized: &[(RegionId, u64)],
        placed: Vec<(usize, usize, IntervalSet)>,
        old_counted: bool,
    ) -> Result<(), RuntimeError> {
        let ids = || sized.iter().map(|&(r, _)| r);
        let procs = self.machine.num_procs();
        let mut sets = vec![vec![IntervalSet::new(); procs]; sized.len()];
        for (p, slot, set) in placed {
            self.check_proc(p)?;
            sets[slot][p].union_with(&set);
        }
        let bytes = |r: RegionId, set: &IntervalSet| {
            set.total_len() * self.regions[r.0 as usize].elem_bytes
        };
        let capacity = self.machine.profile().proc.mem_capacity;
        let mut resident = self.resident.clone();
        for (p, now) in resident.iter_mut().enumerate() {
            let held: u64 = ids().map(|r| bytes(r, self.valid_in(r, p))).sum();
            let requested: u64 = ids().zip(&sets).map(|(r, s)| bytes(r, &s[p])).sum();
            let released = now.saturating_sub(held);
            let charged = if old_counted { *now } else { released };
            if charged.saturating_add(requested) > capacity {
                let names: Vec<&str> = ids().map(|r| self.region(r).name.as_str()).collect();
                return Err(RuntimeError::Oom {
                    proc: p,
                    region: names.join(", "),
                    resident: charged,
                    requested,
                    capacity,
                });
            }
            *now = released + requested;
        }
        self.resident = resident;
        for (&(r, len), sets) in sized.iter().zip(sets) {
            let ri = r.0 as usize;
            self.regions[ri].len = len;
            self.somewhere[ri] = IntervalSet::new();
            self.attach_sys(r);
            for set in &sets {
                self.somewhere[ri].union_with(set);
            }
            self.valid[ri] = sets;
        }
        Ok(())
    }

    /// Drop `proc`'s copy of `subset` of `r`, releasing memory. Only tests
    /// call it: the coherence and launch-replay oracles, and a
    /// `dist_tensor` test's setup. (SpDISTAL-Batched SpMM does not: its
    /// rounds are costed in `BspModel` by `run_spdistal_spmm_batched`.)
    pub fn evict(&mut self, r: RegionId, proc: usize, subset: &IntervalSet) {
        let v = &mut self.valid[r.0 as usize][proc];
        let (dropped, _) = v.intersect_count(subset);
        let bytes = dropped * self.regions[r.0 as usize].elem_bytes;
        *v = v.subtract(subset);
        v.shrink_to_fit();
        self.resident[proc] = self.resident[proc].saturating_sub(bytes);
        // The one operation that can shrink `somewhere`: rebuild it.
        let ri = r.0 as usize;
        let mut somewhere = self.sys_valid[ri].clone();
        for v in &self.valid[ri] {
            somewhere = somewhere.union(v);
        }
        somewhere.shrink_to_fit();
        self.somewhere[ri] = somewhere;
    }

    /// Intervals of `r` currently valid in `proc`'s memory.
    pub fn valid_in(&self, r: RegionId, proc: usize) -> &IntervalSet {
        &self.valid[r.0 as usize][proc]
    }

    /// Resident bytes in `proc`'s memory.
    pub fn resident_bytes(&self, proc: usize) -> u64 {
        self.resident[proc]
    }

    /// Current simulated time: the max over all processor clocks.
    pub fn now(&self) -> f64 {
        self.proc_ready.iter().copied().fold(0.0, f64::max)
    }

    /// Per-processor clock (for tests and load-balance inspection).
    pub fn proc_clock(&self, p: usize) -> f64 {
        self.proc_ready[p]
    }

    /// Modeled finish time of an issued launch on the pipelined timeline
    /// (`None` for a [`LaunchId`] this runtime never issued).
    pub fn model_finish(&self, id: LaunchId) -> Option<f64> {
        self.model_finishes.get(id.0).copied()
    }

    /// The launch holding the current model fence (the max modeled finish),
    /// if anything was issued yet. Deferred drivers starting a fresh launch
    /// graph on a used runtime gate their first launches behind it, so
    /// their modeled windows begin after everything already issued; naming
    /// it as a launch's one predecessor is a launch-at-a-time issue.
    pub fn model_fence_launch(&self) -> Option<LaunchId> {
        self.fence_launch
    }

    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Execute one index launch in **launch-graph order**: all `tasks` run
    /// concurrently (subject to per-processor serialization), each first
    /// paying for the communication its region requirements imply, and
    /// start at `max(predecessor finish times, processor availability)` on
    /// the pipelined model timeline, so launches none of `preds` orders
    /// overlap. The canonical per-processor clocks (and hence
    /// [`Runtime::now`] and every incremental launch time) never observe
    /// `preds` — only the pipelined timeline and the returned
    /// [`ModelTiming`] see the dependence structure.
    ///
    /// An empty `preds` set means the launch is ready at time zero of the
    /// model timeline (it still waits for its processors).
    ///
    /// A launch that repeats the last costed launch of the same `name` —
    /// same tasks, same state of every region they name, same residency —
    /// is replayed from its record instead (module docs, "Launch replay"),
    /// with the same result to the bit.
    pub fn index_launch_after(
        &mut self,
        name: &str,
        tasks: Vec<TaskSpec<'_>>,
        preds: &[LaunchId],
    ) -> Result<LaunchRecord, RuntimeError> {
        let mut clock = LaunchClock::new(self.issue_time(preds)?, self.machine.num_procs());
        let traffic0 = (self.stats.comm_bytes, self.stats.messages);
        let memo = self.memos.get(name);
        if let Some(memo) = memo.filter(|m| self.repeats(m, &tasks)).cloned() {
            self.replay(&memo, &tasks, &mut clock);
            return Ok(self.close_launch(name, tasks.len(), clock, traffic0));
        }

        // Not a repeat: cost it, then record it.
        let reqs = tasks.iter().flat_map(|t| t.reqs.iter());
        let named: BTreeSet<RegionId> = reqs.map(|r| r.region).collect();
        let begin: Vec<RegionState> = named.into_iter().map(|r| self.region_state(r)).collect();
        let resident = self.resident.clone();
        let charged = self.issue_tasks(&tasks, &mut clock)?;
        let record = self.close_launch(name, tasks.len(), clock, traffic0);
        let end = begin.iter().map(|s| self.region_state(s.id)).collect();
        let tasks = tasks.into_iter().map(|t| (t.proc, t.reqs.into_owned()));
        let memo = LaunchMemo {
            tasks: tasks.collect(),
            begin,
            resident,
            charged,
            traffic: (record.comm_bytes, record.messages),
            end,
            end_resident: self.resident.clone(),
        };
        self.memos.insert(name.to_string(), Arc::new(memo));
        Ok(record)
    }

    /// When a launch gated on `preds` becomes eligible: the latest of their
    /// modeled finishes (0 for none).
    fn issue_time(&self, preds: &[LaunchId]) -> Result<f64, RuntimeError> {
        let mut issue = 0.0f64;
        for id in preds {
            let finish = self.model_finishes.get(id.0).copied().ok_or({
                RuntimeError::UnknownLaunch {
                    launch: id.0,
                    issued: self.model_finishes.len(),
                }
            })?;
            issue = issue.max(finish);
        }
        Ok(issue)
    }

    /// The slow path: cost every requirement of every task against the
    /// coherence state, apply the launch's writes and reductions, and
    /// return what a replay needs to charge the same clocks again.
    fn issue_tasks(
        &mut self,
        tasks: &[TaskSpec],
        clock: &mut LaunchClock,
    ) -> Result<Charged, RuntimeError> {
        // Group reduce requirements for the post-launch combine pass, in
        // first-named order (the combines advance clocks, so their order
        // must not depend on a hash seed).
        let mut reduces: Vec<(RegionId, Vec<(usize, IntervalSet)>)> = Vec::new();
        // Deferred write invalidations (applied after all comm is costed, so
        // sibling tasks in this launch can still source reads from old copies).
        let mut writes: Vec<(RegionId, usize, IntervalSet)> = Vec::new();
        let mut comm_times = Vec::with_capacity(tasks.len());

        for task in tasks {
            self.check_proc(task.proc)?;
            let p = task.proc;
            let mut comm_time = 0.0;
            for req in task.reqs.iter() {
                match req.privilege {
                    Privilege::Read | Privilege::ReadWrite => {
                        comm_time += self.fetch(req, p)?;
                        if req.privilege == Privilege::ReadWrite {
                            writes.push((req.region, p, req.subset.clone()));
                        }
                    }
                    Privilege::Reduce => {
                        // Local partial buffer; no inbound copy.
                        let bytes =
                            req.subset.total_len() * self.regions[req.region.0 as usize].elem_bytes;
                        self.charge_memory(p, req.region, bytes)?;
                        let contrib = (p, req.subset.clone());
                        match reduces.iter_mut().find(|(r, _)| *r == req.region) {
                            Some((_, contribs)) => contribs.push(contrib),
                            None => reduces.push((req.region, vec![contrib])),
                        }
                    }
                }
            }
            self.run_task(p, comm_time, task.ops, clock);
            comm_times.push(comm_time);
        }

        // Apply write coherence: writer's copy is the only valid one. Only
        // copies the write actually overlaps are rewritten.
        for (r, p, subset) in writes {
            let ri = r.0 as usize;
            let elem_bytes = self.regions[ri].elem_bytes;
            for (q, v) in self.valid[ri].iter_mut().enumerate() {
                if q != p && v.overlaps(&subset) {
                    let mut kept = v.subtract(&subset);
                    kept.shrink_to_fit();
                    let bytes = (v.total_len() - kept.total_len()) * elem_bytes;
                    self.resident[q] = self.resident[q].saturating_sub(bytes);
                    *v = kept;
                }
            }
            if self.sys_valid[ri].overlaps(&subset) {
                self.sys_valid[ri] = self.sys_valid[ri].subtract(&subset);
                self.sys_valid[ri].shrink_to_fit();
            }
            // The writer fetched `subset`, so `somewhere` already holds it;
            // its own copy is re-merged because an aliased sibling write
            // applied just before may have dropped part of it.
            self.valid[ri][p].union_with(&subset);
        }

        // Combine reduction partials: elements produced by more than one
        // task must be exchanged and summed.
        let combines = reduces
            .into_iter()
            .filter_map(|(r, contribs)| self.combine_reductions(r, contribs, clock))
            .collect();
        Ok(Charged {
            comm_times,
            combines,
        })
    }

    /// Charge one task that spends `comm_time` fetching and then computes
    /// `ops`: on the canonical clock, on the pipelined timeline behind the
    /// launch's issue, and in the launch's synchronized-start loads.
    fn run_task(&mut self, p: usize, comm_time: f64, ops: f64, clock: &mut LaunchClock) {
        let prof = &self.machine.profile().proc;
        let compute = prof.task_overhead + ops / prof.throughput;
        let dur = comm_time + compute;
        self.proc_ready[p] += dur;
        // Pipelined timeline: wait for predecessors, then the processor.
        let start = self.model_ready[p].max(clock.issue);
        self.model_ready[p] = start + dur;
        clock.start = clock.start.min(start);
        clock.finish = clock.finish.max(start + dur);
        clock.seq_load[p] += dur;
        self.stats.total_ops += ops;
        self.stats.tasks += 1;
    }

    /// Replay a launch [`Runtime::repeats`] matched against `memo`: every
    /// task's clocks advance by the recorded communication time plus its
    /// own compute, the moving combines rendezvous again, and the coherence
    /// state and residency become the recorded end state.
    fn replay(&mut self, memo: &LaunchMemo, tasks: &[TaskSpec], clock: &mut LaunchClock) {
        for (task, &comm_time) in tasks.iter().zip(&memo.charged.comm_times) {
            self.run_task(task.proc, comm_time, task.ops, clock);
        }
        for (procs, dur) in &memo.charged.combines {
            self.rendezvous(procs, *dur, clock);
        }
        self.stats.comm_bytes += memo.traffic.0;
        self.stats.messages += memo.traffic.1;
        for end in &memo.end {
            let ri = end.id.0 as usize;
            self.valid[ri].clone_from(&end.valid);
            self.sys_valid[ri] = end.sys_valid.clone();
            self.somewhere[ri] = end.somewhere.clone();
        }
        self.resident.copy_from_slice(&memo.end_resident);
        self.stats.replayed += 1;
    }

    /// Whether a launch of `tasks` would do exactly what `memo` recorded:
    /// the same tasks on the same processors with the same requirements,
    /// the same residency, and every region they name of the same size in
    /// the same coherence state. Shared runs answer each comparison at once.
    fn repeats(&self, memo: &LaunchMemo, tasks: &[TaskSpec]) -> bool {
        #[cfg(test)]
        if self.replay_off {
            return false;
        }
        let same_task = |now: &TaskSpec, (proc, reqs): &(usize, Vec<RegionReq>)| {
            now.proc == *proc && *now.reqs == **reqs
        };
        tasks.len() == memo.tasks.len()
            && tasks.iter().zip(&memo.tasks).all(|(t, m)| same_task(t, m))
            && self.resident == memo.resident
            && memo.begin.iter().all(|then| self.holds(then))
    }

    /// Whether the region `state` names is now of its size and in its
    /// coherence state.
    fn holds(&self, state: &RegionState) -> bool {
        let ri = state.id.0 as usize;
        let meta = &self.regions[ri];
        meta.len == state.len
            && meta.elem_bytes == state.elem_bytes
            && self.valid[ri] == state.valid
            && self.sys_valid[ri] == state.sys_valid
            && self.somewhere[ri] == state.somewhere
    }

    /// Region `r`'s size and coherence state, sharing the runtime's runs.
    fn region_state(&self, r: RegionId) -> RegionState {
        let ri = r.0 as usize;
        RegionState {
            id: r,
            len: self.regions[ri].len,
            elem_bytes: self.regions[ri].elem_bytes,
            valid: self.valid[ri].clone(),
            sys_valid: self.sys_valid[ri].clone(),
            somewhere: self.somewhere[ri].clone(),
        }
    }

    /// The bookkeeping both paths share once the tasks are charged: the
    /// launch's [`ModelTiming`], its id, the fence and the traffic it added
    /// since `traffic0`.
    fn close_launch(
        &mut self,
        name: &str,
        ntasks: usize,
        clock: LaunchClock,
        traffic0: (u64, u64),
    ) -> LaunchRecord {
        let seq_span = clock.seq_load.iter().copied().fold(0.0, f64::max);
        let model = ModelTiming {
            issue: clock.issue,
            start: if clock.start.is_finite() {
                clock.start
            } else {
                clock.issue
            },
            finish: clock.finish,
            seq_span,
        };
        let id = LaunchId(self.model_finishes.len());
        if self
            .fence_launch
            .is_none_or(|f| model.finish >= self.model_finishes[f.0])
        {
            self.fence_launch = Some(id);
        }
        self.model_finishes.push(model.finish);

        self.stats.launches += 1;
        LaunchRecord {
            name: name.to_string(),
            tasks: ntasks,
            comm_bytes: self.stats.comm_bytes - traffic0.0,
            messages: self.stats.messages - traffic0.1,
            clock_after: self.now(),
            id,
            model,
        }
    }

    /// Copy the missing part of `req.subset` into `proc`'s memory, returning
    /// the modeled transfer time. Intervals that are valid *nowhere* (fresh
    /// regions being written for the first time) are allocated, not copied:
    /// they consume memory but move no bytes.
    fn fetch(&mut self, req: &RegionReq, proc: usize) -> Result<f64, RuntimeError> {
        let r = req.region;
        let need = req.subset.subtract(&self.valid[r.0 as usize][proc]);
        if need.is_empty() {
            return Ok(0.0);
        }
        let elem_bytes = self.regions[r.0 as usize].elem_bytes;
        let (moved, msgs, link) = self.transfer(r, &need, proc);
        #[cfg(test)]
        let (moved, msgs, link) = if self.per_proc_oracle {
            self.transfer_per_proc(r, &need, proc)
        } else {
            (moved, msgs, link)
        };
        let time = if moved == 0 {
            0.0
        } else {
            let bytes = moved * elem_bytes;
            self.stats.comm_bytes += bytes;
            self.stats.messages += msgs as u64;
            link.latency * msgs as f64 + bytes as f64 / link.bandwidth
        };
        let need_len = need.total_len();
        self.charge_memory(proc, r, need_len * elem_bytes)?;
        self.valid[r.0 as usize][proc].union_with(&need);
        // What moved is a part of `need`: all of it means `need` was already
        // held somewhere, and `somewhere` does not change.
        if moved < need_len {
            self.somewhere[r.0 as usize].union_with(&need);
        }
        Ok(time)
    }

    /// What fetching `need` (disjoint from `valid[proc]`) into `proc` moves:
    /// the elements and runs of `need ∩ somewhere` — counted, not built; it
    /// equals `(sys ∩ need) ∪ ⋃_{q≠proc}(valid[q] ∩ need)` run for run —
    /// and the link they cross. [`Machine::link`] tells only same-node from
    /// not, and staging memory is charged inter-node, so the link is
    /// intra-node iff a same-node peer's copy overlaps `need` (the same
    /// answer as overlapping what moves, since `valid[q] ⊆ somewhere`): no
    /// scan on a one-processor-per-node machine.
    fn transfer(&self, r: RegionId, need: &IntervalSet, proc: usize) -> (u64, usize, LinkProfile) {
        let ri = r.0 as usize;
        let (moved, msgs) = need.intersect_count(&self.somewhere[ri]);
        let profile = self.machine.profile();
        let first = proc - proc % profile.procs_per_node;
        let last = (first + profile.procs_per_node).min(self.machine.num_procs());
        let same_node =
            moved > 0 && (first..last).any(|q| q != proc && self.valid[ri][q].overlaps(need));
        let link = if same_node {
            profile.intra_link
        } else {
            profile.inter_link
        };
        (moved, msgs, link)
    }

    /// Record that `subset` of `r` is now valid in `proc`'s memory.
    fn add_copy(&mut self, r: RegionId, proc: usize, subset: &IntervalSet) {
        self.valid[r.0 as usize][proc].union_with(subset);
        self.somewhere[r.0 as usize].union_with(subset);
    }

    /// [`Runtime::transfer`] as it was before `somewhere`: what moves is
    /// built by one intersect-and-union per processor, and the link is the
    /// one from the source [`Runtime::find_source`] picks. Kept as the
    /// oracle the coherence sweep replays every sequence through.
    #[cfg(test)]
    fn transfer_per_proc(
        &self,
        r: RegionId,
        need: &IntervalSet,
        proc: usize,
    ) -> (u64, usize, LinkProfile) {
        let existing = self.existing_per_proc(r, need, proc);
        let link = match self.find_source(r, &existing, proc) {
            SYS_MEM => self.machine.profile().inter_link,
            s => self.machine.link(s, proc),
        };
        (existing.total_len(), existing.num_runs(), link)
    }

    #[cfg(test)]
    fn existing_per_proc(&self, r: RegionId, need: &IntervalSet, proc: usize) -> IntervalSet {
        let mut existing = self.sys_valid[r.0 as usize].intersect(need);
        for (q, v) in self.valid[r.0 as usize].iter().enumerate() {
            if q != proc {
                existing = existing.union(&v.intersect(need));
            }
        }
        existing
    }

    /// Find a memory holding some valid copy overlapping `need`. Prefers a
    /// same-node processor, then any processor, then the staging memory.
    #[cfg(test)]
    fn find_source(&self, r: RegionId, need: &IntervalSet, dst: usize) -> usize {
        let vs = &self.valid[r.0 as usize];
        let mut any: Option<usize> = None;
        for (p, v) in vs.iter().enumerate() {
            if p != dst && v.overlaps(need) {
                if self.machine.node_of(p) == self.machine.node_of(dst) {
                    return p;
                }
                any.get_or_insert(p);
            }
        }
        any.unwrap_or(SYS_MEM)
    }

    /// Charge `bytes` to `proc`'s memory, failing with OOM if over capacity.
    fn charge_memory(&mut self, proc: usize, r: RegionId, bytes: u64) -> Result<(), RuntimeError> {
        let cap = self.machine.profile().proc.mem_capacity;
        let new = self.resident[proc].saturating_add(bytes);
        if new > cap {
            return Err(RuntimeError::Oom {
                proc,
                region: self.regions[r.0 as usize].name.clone(),
                resident: self.resident[proc],
                requested: bytes,
                capacity: cap,
            });
        }
        self.resident[proc] = new;
        Ok(())
    }

    /// Model the combine phase for reduction privileges: the elements
    /// assigned to multiple contributors (aliased partials) are exchanged
    /// over the interconnect and summed in a log-depth tree, a rendezvous
    /// of the contributors ([`Runtime::rendezvous`]). Returns the
    /// contributors and the combine's duration when anything moved.
    fn combine_reductions(
        &mut self,
        r: RegionId,
        contribs: Vec<(usize, IntervalSet)>,
        clock: &mut LaunchClock,
    ) -> Option<(Vec<usize>, f64)> {
        if contribs.len() <= 1 {
            if let Some((p, s)) = contribs.into_iter().next() {
                self.add_copy(r, p, &s);
            }
            return None;
        }
        let elem_bytes = self.regions[r.0 as usize].elem_bytes;
        // Excess = total assigned − union: the replicated elements that must
        // move and be combined.
        let mut union = IntervalSet::new();
        let mut total: u64 = 0;
        for (_, s) in &contribs {
            total += s.total_len();
            union = union.union(s);
        }
        let excess = total - union.total_len();
        let mut moved = None;
        if excess > 0 {
            let link = self.machine.profile().inter_link;
            let k = contribs.len() as f64;
            let bytes = excess * elem_bytes;
            let t_comm = link.latency * k.log2().ceil() + bytes as f64 / link.bandwidth;
            let t_compute = excess as f64 / self.machine.profile().proc.throughput;
            let dur = t_comm + t_compute;
            let procs: Vec<usize> = contribs.iter().map(|(p, _)| *p).collect();
            self.rendezvous(&procs, dur, clock);
            self.stats.comm_bytes += bytes;
            self.stats.messages += contribs.len() as u64 - 1;
            moved = Some((procs, dur));
        }
        for (p, s) in contribs {
            self.add_copy(r, p, &s);
        }
        moved
    }

    /// A combine of duration `dur` among `procs`: it completes `dur` after
    /// the slowest contributor, and is charged on all three clock sets —
    /// the canonical clocks, the pipelined model clocks, and the launch's
    /// synchronized-start loads — so `seq_span` stays exactly the launch's
    /// standalone makespan: the combine overlaps a busier non-contributing
    /// processor instead of extending it serially.
    fn rendezvous(&mut self, procs: &[usize], dur: f64, clock: &mut LaunchClock) {
        let after = |clocks: &[f64]| procs.iter().map(|&p| clocks[p]).fold(0.0, f64::max) + dur;
        let end = after(&self.proc_ready);
        let model_end = after(&self.model_ready);
        let seq_end = after(&clock.seq_load);
        for &p in procs {
            self.proc_ready[p] = end;
            self.model_ready[p] = model_end;
            clock.seq_load[p] = seq_end;
        }
        clock.finish = clock.finish.max(model_end);
    }

    fn check_proc(&self, p: usize) -> Result<(), RuntimeError> {
        if p >= self.machine.num_procs() {
            return Err(RuntimeError::BadProc {
                proc: p,
                num_procs: self.machine.num_procs(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect1;
    use crate::machine::MachineProfile;

    fn rt(procs: usize) -> Runtime {
        Runtime::new(Machine::grid1d(procs, MachineProfile::test_profile()))
    }

    /// A launch-at-a-time issue: gated on the launch with the latest
    /// finish, i.e. on everything issued before it.
    fn launch(
        r: &mut Runtime,
        name: &str,
        tasks: Vec<TaskSpec>,
    ) -> Result<LaunchRecord, RuntimeError> {
        let fence = r.model_fence_launch();
        r.index_launch_after(name, tasks, fence.as_slice())
    }

    #[test]
    fn read_req_copies_once() {
        let mut r = rt(2);
        let reg = r.create_region("x", 1000, 8);
        r.attach(reg, 0, IntervalSet::from_rect(Rect1::new(0, 999)))
            .unwrap();
        // Task on proc 1 reads the first half: 500 * 8 bytes move.
        let t = TaskSpec::new(1, 0.0).with_req(RegionReq::read(
            reg,
            IntervalSet::from_rect(Rect1::new(0, 499)),
        ));
        let rec = launch(&mut r, "l1", vec![t.clone()]).unwrap();
        assert_eq!(rec.comm_bytes, 4000);
        // Second identical launch: data already valid, no traffic.
        let rec2 = launch(&mut r, "l2", vec![t]).unwrap();
        assert_eq!(rec2.comm_bytes, 0);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut r = rt(2);
        let reg = r.create_region("x", 100, 8);
        r.attach(reg, 0, IntervalSet::from_rect(Rect1::new(0, 99)))
            .unwrap();
        let w = TaskSpec::new(1, 0.0).with_req(RegionReq::write(
            reg,
            IntervalSet::from_rect(Rect1::new(0, 49)),
        ));
        launch(&mut r, "w", vec![w]).unwrap();
        assert!(r.valid_in(reg, 0).contains(50));
        assert!(!r.valid_in(reg, 0).contains(0));
        assert!(r.valid_in(reg, 1).contains(0));
        // Proc 0 reading back the written half pays communication.
        let rd = TaskSpec::new(0, 0.0).with_req(RegionReq::read(
            reg,
            IntervalSet::from_rect(Rect1::new(0, 49)),
        ));
        let rec = launch(&mut r, "r", vec![rd]).unwrap();
        assert_eq!(rec.comm_bytes, 400);
    }

    #[test]
    fn clocks_advance_independently_without_barrier() {
        let mut r = rt(2);
        // Proc 0 runs 1e6 ops (1ms at 1e9 ops/s); proc 1 runs 1e3 ops.
        launch(
            &mut r,
            "skew",
            vec![TaskSpec::new(0, 1.0e6), TaskSpec::new(1, 1.0e3)],
        )
        .unwrap();
        assert!(r.proc_clock(0) > r.proc_clock(1));
        // Without a barrier, proc 1 keeps its early clock.
        launch(&mut r, "more", vec![TaskSpec::new(1, 1.0e3)]).unwrap();
        assert!(r.proc_clock(1) < r.proc_clock(0));
    }

    #[test]
    fn oom_reported() {
        let m = Machine::grid1d(1, MachineProfile::test_profile_with_capacity(100));
        let mut r = Runtime::new(m);
        let reg = r.create_region("big", 1000, 8);
        r.attach_sys(reg);
        let t = TaskSpec::new(0, 0.0).with_req(RegionReq::read(
            reg,
            IntervalSet::from_rect(Rect1::new(0, 999)),
        ));
        let err = launch(&mut r, "oom", vec![t]).unwrap_err();
        assert!(matches!(err, RuntimeError::Oom { .. }));
    }

    #[test]
    fn attach_respects_capacity() {
        let m = Machine::grid1d(1, MachineProfile::test_profile_with_capacity(100));
        let mut r = Runtime::new(m);
        let reg = r.create_region("big", 1000, 8);
        assert!(r
            .attach(reg, 0, IntervalSet::from_rect(Rect1::new(0, 999)))
            .is_err());
        assert!(r
            .attach(reg, 0, IntervalSet::from_rect(Rect1::new(0, 9)))
            .is_ok());
        assert_eq!(r.resident_bytes(0), 80);
    }

    #[test]
    fn evict_releases_memory() {
        let m = Machine::grid1d(1, MachineProfile::test_profile_with_capacity(800));
        let mut r = Runtime::new(m);
        let reg = r.create_region("x", 100, 8);
        r.attach(reg, 0, IntervalSet::from_rect(Rect1::new(0, 99)))
            .unwrap();
        assert_eq!(r.resident_bytes(0), 800);
        r.evict(reg, 0, &IntervalSet::from_rect(Rect1::new(0, 49)));
        assert_eq!(r.resident_bytes(0), 400);
        assert!(!r.valid_in(reg, 0).contains(0));
        assert!(r.valid_in(reg, 0).contains(50));
    }

    #[test]
    fn reduction_overlap_charged() {
        let mut r = rt(2);
        let reg = r.create_region("a", 100, 8);
        // Both procs reduce into overlapping [40,59]: 20 elements excess.
        let mk = |p: usize, lo: i64, hi: i64| {
            TaskSpec::new(p, 100.0).with_req(RegionReq::reduce(
                reg,
                IntervalSet::from_rect(Rect1::new(lo, hi)),
            ))
        };
        let rec = launch(&mut r, "red", vec![mk(0, 0, 59), mk(1, 40, 99)]).unwrap();
        assert_eq!(rec.comm_bytes, 20 * 8);
        // Disjoint reduction: no traffic.
        let mut r2 = rt(2);
        let reg2 = r2.create_region("a", 100, 8);
        let mk2 = |p: usize, lo: i64, hi: i64| {
            TaskSpec::new(p, 100.0).with_req(RegionReq::reduce(
                reg2,
                IntervalSet::from_rect(Rect1::new(lo, hi)),
            ))
        };
        let rec2 = launch(&mut r2, "red", vec![mk2(0, 0, 49), mk2(1, 50, 99)]).unwrap();
        assert_eq!(rec2.comm_bytes, 0);
    }

    /// Two GPU nodes (procs 0–3 and 4–7); proc 5 reads `[0, 999]` of a
    /// region whose copies are `held` (and, if `staged`, in staging memory).
    /// Returns proc 5's clock and what the read costs on each link: one run,
    /// 8 000 bytes.
    fn read_on_proc_5(held: &[(usize, Rect1)], staged: bool) -> (f64, [f64; 2]) {
        let profile = MachineProfile::lassen_gpu(1.0);
        let mut r = Runtime::new(Machine::grid1d(8, profile.clone()));
        let reg = r.create_region("x", 4000, 8);
        if staged {
            r.attach_sys(reg);
        }
        for &(p, run) in held {
            r.attach(reg, p, IntervalSet::from_rect(run)).unwrap();
        }
        let need = IntervalSet::from_rect(Rect1::new(0, 999));
        let t = TaskSpec::new(5, 0.0).with_req(RegionReq::read(reg, need));
        launch(&mut r, "l", vec![t]).unwrap();
        let charged = |link: LinkProfile| {
            let comm = 0.0 + (link.latency * 1.0 + 8000.0 / link.bandwidth);
            comm + (profile.proc.task_overhead + 0.0 / profile.proc.throughput)
        };
        let costs = [charged(profile.intra_link), charged(profile.inter_link)];
        (r.proc_clock(5), costs)
    }

    /// A same-node copy makes the whole fetch intra-node, even when a
    /// remote processor holds more of it.
    #[test]
    fn a_same_node_copy_is_fetched_over_the_intra_node_link() {
        let whole = Rect1::new(0, 999);
        for held in [
            vec![(0, whole), (4, whole)],
            vec![(0, whole), (6, Rect1::new(900, 1999))],
        ] {
            let (clock, [intra, _]) = read_on_proc_5(&held, true);
            assert_eq!(clock.to_bits(), intra.to_bits(), "{held:?}");
        }
    }

    /// No same-node copy of what is read — a remote copy, staging memory,
    /// or a same-node copy of *other* elements — means the inter-node link.
    #[test]
    fn a_remote_or_staged_copy_is_fetched_over_the_inter_node_link() {
        let whole = Rect1::new(0, 999);
        for (held, staged) in [
            (vec![(0, whole)], false),
            (vec![], true),
            (vec![(0, whole), (4, Rect1::new(1000, 2999))], true),
        ] {
            let (clock, [_, inter]) = read_on_proc_5(&held, staged);
            assert_eq!(clock.to_bits(), inter.to_bits(), "{held:?} staged {staged}");
        }
    }

    /// A launch whose reduction combine finishes while a non-contributing
    /// processor is still computing: the combine must not extend `seq_span`
    /// serially — the sequential span is exactly the launch's standalone
    /// makespan, so a chain of such launches still tiles to ratio 1.
    #[test]
    fn seq_span_is_standalone_makespan_with_reduction_combine() {
        let mut r = rt(4);
        let reg = r.create_region("a", 100, 8);
        let mk = |p: usize| {
            TaskSpec::new(p, 1.0e3).with_req(RegionReq::reduce(
                reg,
                IntervalSet::from_rect(Rect1::new(0, 99)),
            ))
        };
        // Heavy compute on proc 0; two light aliased reducers on procs 1/2.
        let rec = launch(&mut r, "red", vec![TaskSpec::new(0, 5.0e8), mk(1), mk(2)]).unwrap();
        assert!(rec.comm_bytes > 0, "aliased partials must move");
        assert!(
            (rec.model.seq_span - (rec.model.finish - rec.model.issue)).abs() < 1e-15,
            "seq_span {} must equal the standalone makespan {}",
            rec.model.seq_span,
            rec.model.finish - rec.model.issue
        );
    }

    #[test]
    fn foreign_launch_id_rejected() {
        let mut a = rt(2);
        let rec = launch(&mut a, "x", vec![TaskSpec::new(0, 1.0)]).unwrap();
        // `rec.id` belongs to runtime `a`; a fresh runtime must reject it
        // rather than index out of bounds or silently mis-gate.
        let mut b = rt(2);
        let err = b
            .index_launch_after("y", vec![TaskSpec::new(0, 1.0)], &[rec.id])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownLaunch { .. }));
    }

    #[test]
    fn bad_proc_rejected() {
        let mut r = rt(2);
        let err = launch(&mut r, "x", vec![TaskSpec::new(5, 0.0)]).unwrap_err();
        assert!(matches!(err, RuntimeError::BadProc { .. }));
    }

    /// Two launches with opposite skew: a deferred (pred-free) issue
    /// overlaps them on the model timeline, while a launch-at-a-time issue
    /// serializes behind the fence — and the canonical clocks are identical
    /// either way.
    #[test]
    fn deferred_issue_overlaps_independent_launches() {
        // proc 0 heavy in launch a, proc 1 heavy in launch b.
        let a = vec![TaskSpec::new(0, 8.0e6), TaskSpec::new(1, 1.0e6)];
        let b = vec![TaskSpec::new(0, 1.0e6), TaskSpec::new(1, 8.0e6)];

        let mut seq = rt(2);
        let sa = launch(&mut seq, "a", a.clone()).unwrap();
        let sb = launch(&mut seq, "b", b.clone()).unwrap();
        // Launch-at-a-time: spans tile, makespan == sum of seq spans.
        assert!(sb.model.issue >= sa.model.finish);
        let seq_sum = sa.model.seq_span + sb.model.seq_span;
        assert!((sb.model.finish - seq_sum).abs() < 1e-12);

        let mut ovl = rt(2);
        let oa = ovl.index_launch_after("a", a, &[]).unwrap();
        let ob = ovl.index_launch_after("b", b, &[]).unwrap();
        // Graph-ordered: b starts while a's critical proc is still busy.
        assert!(ob.model.start < oa.model.finish);
        let makespan = oa.model.finish.max(ob.model.finish);
        assert!(
            makespan < seq_sum,
            "independent skewed launches must overlap: {makespan} vs {seq_sum}"
        );
        // The canonical timeline never observes the issue order.
        assert_eq!(seq.now(), ovl.now());
        assert_eq!(seq.proc_clock(0), ovl.proc_clock(0));
        assert_eq!(seq.proc_clock(1), ovl.proc_clock(1));
    }

    /// A dependence chain gates every launch at its predecessor's finish:
    /// modeled spans tile exactly, so the graph-ordered makespan equals the
    /// sequential sum.
    #[test]
    fn chained_launches_tile_exactly() {
        let mut r = rt(2);
        let mut prev: Option<LaunchId> = None;
        let mut seq_sum = 0.0;
        let mut last_finish = 0.0;
        for (k, ops) in [(0usize, 4.0e6), (1, 2.0e6), (0, 1.0e6)].iter().enumerate() {
            let tasks = vec![
                TaskSpec::new(ops.0, ops.1),
                TaskSpec::new(1 - ops.0, ops.1 / 4.0),
            ];
            let preds: Vec<LaunchId> = prev.into_iter().collect();
            let rec = r
                .index_launch_after(&format!("l{k}"), tasks, &preds)
                .unwrap();
            if let Some(p) = prev {
                assert_eq!(rec.model.issue, r.model_finish(p).unwrap());
                assert_eq!(rec.model.start, rec.model.issue, "chain gates globally");
            }
            seq_sum += rec.model.seq_span;
            last_finish = rec.model.finish;
            prev = Some(rec.id);
        }
        assert!(
            (last_finish - seq_sum).abs() <= 1e-12 * seq_sum,
            "chain must tile: makespan {last_finish} vs seq sum {seq_sum}"
        );
    }

    #[test]
    fn retire_region_releases_memory_and_recycles_the_slot() {
        let mut r = rt(2);
        let keep = r.create_region("keep", 100, 8);
        let gone = r.create_region("gone", 100, 8);
        r.attach(keep, 0, IntervalSet::from_rect(Rect1::new(0, 9)))
            .unwrap();
        r.attach(gone, 0, IntervalSet::from_rect(Rect1::new(0, 49)))
            .unwrap();
        r.attach(gone, 1, IntervalSet::from_rect(Rect1::new(25, 74)))
            .unwrap();
        r.attach_sys(gone);
        assert_eq!((r.resident_bytes(0), r.resident_bytes(1)), (480, 400));
        assert_eq!(r.live_regions(), 2);

        r.retire_region(gone);
        r.retire_region(gone); // idempotent
        assert_eq!((r.resident_bytes(0), r.resident_bytes(1)), (80, 0));
        assert_eq!(r.live_regions(), 1);
        assert!(r.valid_in(gone, 0).is_empty() && r.somewhere[gone.0 as usize].is_empty());

        // The slot comes back empty under a new name: reading it is a fresh
        // allocation, not a copy of the retired region's data.
        let again = r.create_region("again", 10, 4);
        assert_eq!(again, gone);
        assert_eq!(
            (r.region(again).name.as_str(), r.live_regions()),
            ("again", 2)
        );
        let t = TaskSpec::new(1, 0.0).with_req(RegionReq::read(
            again,
            IntervalSet::from_rect(Rect1::new(0, 9)),
        ));
        assert_eq!(launch(&mut r, "fresh", vec![t]).unwrap().comm_bytes, 0);
        assert_eq!(r.resident_bytes(1), 40);
    }

    /// Every length, set and count a fresh registration decides, for `ids`.
    type Coherence = (
        Vec<u64>,
        Vec<Vec<IntervalSet>>,
        Vec<IntervalSet>,
        Vec<IntervalSet>,
        Vec<u64>,
    );

    fn coherence(rt: &Runtime, ids: &[RegionId]) -> Coherence {
        let at = |sets: &Vec<IntervalSet>| ids.iter().map(|r| sets[r.0 as usize].clone()).collect();
        let valid = ids.iter().map(|r| rt.valid[r.0 as usize].clone()).collect();
        (
            ids.iter().map(|&r| rt.region(r).len).collect(),
            valid,
            at(&rt.sys_valid),
            at(&rt.somewhere),
            rt.resident.clone(),
        )
    }

    /// A renewal in place at new lengths after copies came and went leaves
    /// what a fresh registration of the same placement leaves; one that
    /// does not fit changes nothing, and the old copies count only when
    /// asked to.
    #[test]
    fn renew_in_place_is_a_fresh_registration() {
        let profile = MachineProfile::test_profile_with_capacity(1500);
        let mut r = Runtime::new(Machine::grid1d(2, profile.clone()));
        let ids = [r.create_region("x", 100, 8), r.create_region("y", 20, 16)];
        let run = |lo, hi| IntervalSet::from_rect(Rect1::new(lo, hi));
        r.attach(ids[0], 0, run(0, 49)).unwrap();
        r.attach(ids[0], 1, run(50, 99)).unwrap();
        r.attach(ids[1], 1, run(0, 19)).unwrap();
        r.evict(ids[0], 1, &run(60, 69));
        let read = TaskSpec::new(1, 0.0).with_req(RegionReq::read(ids[0], run(0, 79)));
        launch(&mut r, "fetch", vec![read]).unwrap();
        assert_eq!(r.resident_bytes(1), 8 * 100 + 16 * 20);
        let placed = vec![
            (0, 0, run(0, 49)),
            (1, 0, run(50, 99)),
            (0, 1, run(0, 9)),
            (0, 1, run(5, 14)),
            (1, 1, run(10, 19)),
        ];

        // Processor 1 holds 1 120 bytes and is placed 560 more: beside its
        // old copies that is over 1 500, in place of them it fits.
        let before = coherence(&r, &ids);
        let lens = [120, 24];
        let sized = [(ids[0], lens[0]), (ids[1], lens[1])];
        let refused = r.renew(&sized, placed.clone(), true);
        assert!(
            matches!(refused, Err(RuntimeError::Oom { proc: 1, .. })),
            "{refused:?}"
        );
        assert_eq!(
            coherence(&r, &ids),
            before,
            "a refused renewal changes nothing"
        );
        r.renew(&sized, placed.clone(), false).unwrap();

        let mut fresh = Runtime::new(Machine::grid1d(2, profile));
        let made = [
            fresh.create_region("x", lens[0], 8),
            fresh.create_region("y", lens[1], 16),
        ];
        for &m in &made {
            fresh.attach_sys(m);
        }
        for (p, slot, set) in placed {
            fresh.attach(made[slot], p, set).unwrap();
        }
        assert_eq!(coherence(&r, &ids), coherence(&fresh, &made));
        assert_eq!((r.resident_bytes(0), r.resident_bytes(1)), (640, 560));
        assert_eq!(r.live_regions(), 2);
    }

    /// xorshift64*: the sweep below needs reproducible choices, not quality.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
        }

        /// 1–3 runs inside `[0, len)`: disjoint blocks or aliased windows.
        fn subset(&mut self, len: u64) -> IntervalSet {
            (0..1 + self.below(3))
                .map(|_| {
                    let lo = self.below(len) as i64;
                    Rect1::new(lo, (lo + self.below(len / 3) as i64).min(len as i64 - 1))
                })
                .collect()
        }
    }

    /// The coherence oracle: random `attach` / `attach_sys` / `evict` /
    /// `retire_region` / launch sequences replayed through the
    /// `somewhere`-based fetch — counted, with its link from same-node
    /// peers — and through the per-processor loop and `find_source` it
    /// replaced, on one processor per node (`lassen_cpu`) and four
    /// (`lassen_gpu`, up to two nodes). After every step both runtimes agree
    /// on every observable (traffic, clocks, `ModelTiming` by `to_bits`,
    /// validity, residency) and `somewhere` is exactly
    /// `sys_valid ∪ ⋃ valid[p]`.
    #[test]
    fn somewhere_fetch_matches_the_per_processor_oracle() {
        const LEN: u64 = 120;
        let profiles = [
            MachineProfile::lassen_cpu(),
            MachineProfile::lassen_gpu(1.0),
        ];
        for (seed, profile) in (1..=120u64).zip(profiles.iter().cycle()) {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let procs = 1 + rng.below(8) as usize;
            let mut new = Runtime::new(Machine::grid1d(procs, profile.clone()));
            let mut old = Runtime::new(Machine::grid1d(procs, profile.clone()));
            old.per_proc_oracle = true;
            let mut regions: Vec<RegionId> = (0..3)
                .map(|k| {
                    old.create_region(&format!("r{k}"), LEN, 8);
                    new.create_region(&format!("r{k}"), LEN, 8)
                })
                .collect();
            for step in 0..80 {
                let r = regions[rng.below(3) as usize];
                let p = rng.below(procs as u64) as usize;
                match rng.below(10) {
                    0 => {
                        let s = rng.subset(LEN);
                        assert_eq!(new.attach(r, p, s.clone()), old.attach(r, p, s));
                    }
                    1 => {
                        new.attach_sys(r);
                        old.attach_sys(r);
                    }
                    2 => {
                        let s = rng.subset(LEN);
                        new.evict(r, p, &s);
                        old.evict(r, p, &s);
                    }
                    3 if step % 4 == 0 => {
                        for rt in [&mut new, &mut old] {
                            rt.retire_region(r);
                            let again = rt.create_region("again", LEN, 8);
                            assert_eq!(again, r, "a retired slot is reused first");
                        }
                    }
                    _ => {
                        // One launch: a few tasks, each with 1–2 requirements
                        // of one privilege kind per region (Legion forbids
                        // mixing reduce with read/write inside a launch).
                        let reduce = rng.below(4) == 0;
                        let tasks: Vec<TaskSpec> = (0..1 + rng.below(4))
                            .map(|_| {
                                let proc = rng.below(procs as u64) as usize;
                                let mut t = TaskSpec::new(proc, rng.below(1000) as f64);
                                for _ in 0..1 + rng.below(2) {
                                    let region = regions[rng.below(3) as usize];
                                    let subset = rng.subset(LEN);
                                    t = t.with_req(match (reduce, rng.below(2)) {
                                        (true, _) => RegionReq::reduce(region, subset),
                                        (false, 0) => RegionReq::read(region, subset),
                                        (false, _) => RegionReq::write(region, subset),
                                    });
                                }
                                t
                            })
                            .collect();
                        let a = launch(&mut new, "l", tasks.clone()).unwrap();
                        let b = launch(&mut old, "l", tasks).unwrap();
                        assert_eq!((a.comm_bytes, a.messages), (b.comm_bytes, b.messages));
                        assert_eq!(a.clock_after.to_bits(), b.clock_after.to_bits());
                        for (x, y) in [
                            (a.model.issue, b.model.issue),
                            (a.model.start, b.model.start),
                            (a.model.finish, b.model.finish),
                            (a.model.seq_span, b.model.seq_span),
                        ] {
                            assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} step {step}");
                        }
                    }
                }
                regions.rotate_left(1);
                for &r in &regions {
                    let ri = r.0 as usize;
                    let mut all = new.sys_valid[ri].clone();
                    for q in 0..procs {
                        assert_eq!(new.valid_in(r, q), old.valid_in(r, q));
                        all = all.union(new.valid_in(r, q));
                    }
                    assert_eq!(new.somewhere[ri], all, "seed {seed} step {step}");
                    assert_eq!(new.sys_valid[ri], old.sys_valid[ri]);
                }
                for q in 0..procs {
                    assert_eq!(new.resident_bytes(q), old.resident_bytes(q));
                    assert_eq!(new.proc_clock(q).to_bits(), old.proc_clock(q).to_bits());
                }
                assert_eq!(new.stats().comm_bytes, old.stats().comm_bytes);
                assert_eq!(new.stats().messages, old.stats().messages);
            }
        }
    }

    /// A launch's observables, floats by `to_bits`.
    type Observed = (u64, u64, u64, [u64; 4], LaunchId);

    fn observed(rec: &LaunchRecord) -> Observed {
        let m = &rec.model;
        let model = [m.issue, m.start, m.finish, m.seq_span].map(f64::to_bits);
        (
            rec.comm_bytes,
            rec.messages,
            rec.clock_after.to_bits(),
            model,
            rec.id,
        )
    }

    /// A runtime that replays and one that costs every launch, driven alike.
    struct Pair([Runtime; 2]);

    impl Pair {
        fn new(procs: usize, profile: &MachineProfile) -> Pair {
            let mut pair = [0, 1].map(|_| Runtime::new(Machine::grid1d(procs, profile.clone())));
            pair[1].replay_off = true;
            Pair(pair)
        }

        /// Apply `step` to both runtimes; both must answer the same.
        fn both<T: PartialEq + std::fmt::Debug>(&mut self, step: impl Fn(&mut Runtime) -> T) -> T {
            let [fast, slow] = &mut self.0;
            let answer = step(fast);
            assert_eq!(answer, step(slow));
            answer
        }

        /// Issue `tasks` as `name` on both, launch-at-a-time, and say
        /// whether the replaying runtime replayed it.
        fn launch(&mut self, name: &str, tasks: &[TaskSpec]) -> bool {
            let before = self.0[0].stats().replayed;
            let issued = self.both(|rt| launch(rt, name, tasks.to_vec()).map(|rec| observed(&rec)));
            self.assert_same();
            issued.is_ok() && self.0[0].stats().replayed > before
        }

        /// Every observable of the two runtimes agrees, floats by `to_bits`.
        fn assert_same(&self) {
            let [a, b] = &self.0;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&a.proc_ready), bits(&b.proc_ready));
            assert_eq!(bits(&a.model_ready), bits(&b.model_ready));
            assert_eq!(bits(&a.model_finishes), bits(&b.model_finishes));
            assert_eq!(a.fence_launch, b.fence_launch);
            assert_eq!(a.resident, b.resident);
            let (sa, sb) = (a.stats(), b.stats());
            assert_eq!(
                (sa.comm_bytes, sa.messages, sa.tasks, sa.launches),
                (sb.comm_bytes, sb.messages, sb.tasks, sb.launches)
            );
            assert_eq!(sa.total_ops.to_bits(), sb.total_ops.to_bits());
            assert_eq!(a.live_regions(), b.live_regions());
            for ri in 0..a.regions.len() {
                assert_eq!(a.regions[ri].len, b.regions[ri].len, "region {ri}");
                assert_eq!(a.valid[ri], b.valid[ri], "region {ri}");
                assert_eq!(a.sys_valid[ri], b.sys_valid[ri], "region {ri}");
                assert_eq!(a.somewhere[ri], b.somewhere[ri], "region {ri}");
            }
        }
    }

    /// Replace `old` by a new region holding what it holds (its staging
    /// copy only when that is the whole region), created before `old` is
    /// retired — a renewal under another id, as a re-registration that
    /// changes the layout gives.
    fn renew(rt: &mut Runtime, old: RegionId) -> Result<RegionId, RuntimeError> {
        let RegionMeta {
            len, elem_bytes, ..
        } = *rt.region(old);
        let new = rt.create_region("renewed", len, elem_bytes);
        for q in 0..rt.machine().num_procs() {
            rt.attach(new, q, rt.valid_in(old, q).clone())?;
        }
        if rt.sys_valid[old.0 as usize].total_len() == len {
            rt.attach_sys(new);
        }
        rt.retire_region(old);
        Ok(new)
    }

    /// Per task a processor and requirements (region index, privilege,
    /// subset).
    type Template = Vec<(usize, Vec<(usize, Privilege, IntervalSet)>)>;

    /// The replay oracle: a few named launch templates re-issued between
    /// random `attach` / `attach_sys` / `evict` / renewal (in place, at the
    /// same or a new length, or under another id) / `retire_region` +
    /// `create_region` steps, on a runtime that replays
    /// and on one that costs every launch — one processor per node, four,
    /// and a memory small enough to run out. After every step both agree
    /// on every observable ([`Pair::assert_same`]); launches replayed and
    /// launches costed again both occur.
    #[test]
    fn replay_matches_a_runtime_that_costs_every_launch() {
        const LEN: u64 = 120;
        let profiles = [
            MachineProfile::lassen_cpu(),
            MachineProfile::lassen_gpu(1.0),
            MachineProfile::test_profile_with_capacity(2000),
        ];
        let (mut replayed, mut costed) = (0, 0);
        for (seed, profile) in (1..=90u64).zip(profiles.iter().cycle()) {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let procs = 1 + rng.below(8) as usize;
            let mut pair = Pair::new(procs, profile);
            let mut regions: Vec<RegionId> = (0..3)
                .map(|k| pair.both(|rt| rt.create_region(&format!("r{k}"), LEN, 8)))
                .collect();
            // Three templates of 1–4 tasks with 1–2 requirements each, one
            // privilege kind per launch for reductions (Legion forbids
            // mixing them).
            let templates: Vec<Template> = (0..3)
                .map(|_| {
                    let reduce = rng.below(4) == 0;
                    (0..1 + rng.below(4))
                        .map(|_| {
                            let proc = rng.below(procs as u64) as usize;
                            let reqs = (0..1 + rng.below(2))
                                .map(|_| {
                                    let privilege = match (reduce, rng.below(2)) {
                                        (true, _) => Privilege::Reduce,
                                        (false, 0) => Privilege::Read,
                                        (false, _) => Privilege::ReadWrite,
                                    };
                                    (rng.below(3) as usize, privilege, rng.subset(LEN))
                                })
                                .collect();
                            (proc, reqs)
                        })
                        .collect()
                })
                .collect();
            for step in 0..80 {
                let k = rng.below(3) as usize;
                let r = regions[k];
                let p = rng.below(procs as u64) as usize;
                match rng.below(12) {
                    0 => {
                        let s = rng.subset(LEN);
                        // An out-of-memory error is an answer too.
                        let _ = pair.both(|rt| rt.attach(r, p, s.clone()));
                    }
                    1 => pair.both(|rt| rt.attach_sys(r)),
                    2 => {
                        let s = rng.subset(LEN);
                        pair.both(|rt| rt.evict(r, p, &s));
                    }
                    3 => {
                        if let Ok(new) = pair.both(|rt| renew(rt, r)) {
                            regions[k] = new;
                        }
                    }
                    5 => {
                        // A renewal in place, beside the old copies or
                        // instead of them, at the length the region has or
                        // at another, as a same-layout re-registration.
                        let placed: Vec<_> = (0..1 + rng.below(2))
                            .map(|_| (rng.below(procs as u64) as usize, 0, rng.subset(LEN)))
                            .collect();
                        let old_counted = rng.below(2) == 0;
                        let len = [LEN, 2 * LEN][rng.below(2) as usize];
                        let _ = pair.both(|rt| rt.renew(&[(r, len)], placed.clone(), old_counted));
                    }
                    4 if step % 4 == 0 => {
                        // Sometimes with other element sizes, in the same
                        // (empty) state.
                        let elem_bytes = 8 >> rng.below(2);
                        pair.both(|rt| {
                            rt.retire_region(r);
                            assert_eq!(rt.create_region("again", LEN, elem_bytes), r);
                        })
                    }
                    _ => {
                        // One template, issued one to three times in a row
                        // with fresh operation counts (not part of the key);
                        // some runs renew what it reduces into before each
                        // issue, as a program's per-run output region is.
                        let t = rng.below(3) as usize;
                        let fresh_outputs = rng.below(3) == 0;
                        for _ in 0..1 + rng.below(3) {
                            for (_, reqs) in &templates[t] {
                                for (k, privilege, _) in reqs {
                                    if fresh_outputs && *privilege == Privilege::Reduce {
                                        let r = regions[*k];
                                        pair.both(|rt| {
                                            rt.retire_region(r);
                                            assert_eq!(rt.create_region("out", LEN, 8), r);
                                        });
                                    }
                                }
                            }
                            let mut tasks: Vec<TaskSpec> = templates[t]
                                .iter()
                                .map(|(proc, reqs)| TaskSpec {
                                    proc: *proc,
                                    ops: rng.below(1000) as f64,
                                    reqs: reqs
                                        .iter()
                                        .map(|(k, privilege, subset)| RegionReq {
                                            region: regions[*k],
                                            subset: subset.clone(),
                                            privilege: *privilege,
                                        })
                                        .collect(),
                                })
                                .collect();
                            // A near-hit: one requirement's subset or
                            // region differs.
                            if rng.below(4) == 0 {
                                let task = rng.below(tasks.len() as u64) as usize;
                                let reqs = tasks[task].reqs.to_mut();
                                let k = rng.below(reqs.len() as u64) as usize;
                                let req = &mut reqs[k];
                                match (rng.below(3), req.privilege) {
                                    (0, _) => req.subset = rng.subset(LEN),
                                    (1, _) => req.region = regions[rng.below(3) as usize],
                                    (_, Privilege::Read) => req.privilege = Privilege::ReadWrite,
                                    (_, Privilege::ReadWrite) => req.privilege = Privilege::Read,
                                    (_, Privilege::Reduce) => {}
                                }
                            }
                            match pair.launch(&format!("t{t}"), &tasks) {
                                true => replayed += 1,
                                false => costed += 1,
                            }
                        }
                    }
                }
                pair.assert_same();
            }
        }
        assert!(
            replayed > 100 && costed > 100,
            "{replayed} replayed, {costed} costed"
        );
    }

    /// The near-hits a replay must refuse — a changed residency, an evicted
    /// run, another processor, another region in the same state — and the
    /// repeats it must accept: the same content in other allocations, other
    /// operation counts.
    #[test]
    fn replay_rejects_near_hits_and_accepts_equal_copies() {
        let mut pair = Pair::new(2, &MachineProfile::test_profile());
        let x = pair.both(|rt| rt.create_region("x", 100, 8));
        let y = pair.both(|rt| rt.create_region("y", 100, 8));
        let whole = IntervalSet::from_rect(Rect1::new(0, 99));
        pair.both(|rt| rt.attach(x, 0, whole.clone())).unwrap();
        let read = |x: RegionId, proc: usize, ops: f64| {
            let half = IntervalSet::from_rect(Rect1::new(0, 49));
            vec![TaskSpec::new(proc, ops).with_req(RegionReq::read(x, half))]
        };
        // New name; proc 1 has fetched since; then a repeat whose read
        // subset is a fresh allocation of the same runs.
        assert!(!pair.launch("r", &read(x, 1, 10.0)));
        assert!(!pair.launch("r", &read(x, 1, 10.0)));
        assert!(pair.launch("r", &read(x, 1, 20.0)));

        // Another region's copy changes proc 0's residency: refused once.
        pair.both(|rt| rt.attach(y, 0, whole.clone())).unwrap();
        assert!(!pair.launch("r", &read(x, 1, 10.0)));
        assert!(pair.launch("r", &read(x, 1, 10.0)));

        // A run of x evicted from proc 0: refused once.
        let tail = IntervalSet::from_rect(Rect1::new(90, 99));
        pair.both(|rt| rt.evict(x, 0, &tail));
        assert!(!pair.launch("r", &read(x, 1, 10.0)));
        assert!(pair.launch("r", &read(x, 1, 10.0)));

        // Re-attaching what proc 1 holds rebuilds its set and `somewhere`
        // as other allocations of the same runs: still a repeat.
        let held = pair.0[0].valid_in(x, 1).rects().as_ptr();
        let half = IntervalSet::from_rect(Rect1::new(0, 49));
        pair.both(|rt| rt.attach(x, 1, half.clone())).unwrap();
        assert_ne!(pair.0[0].valid_in(x, 1).rects().as_ptr(), held);
        assert!(pair.launch("r", &read(x, 1, 10.0)));

        // Renewed under another id, in the same state: another key, costed
        // once, then a repeat.
        let renewed = pair.both(|rt| renew(rt, x)).unwrap();
        assert_ne!(renewed, x);
        assert!(!pair.launch("r", &read(renewed, 1, 10.0)));
        assert!(pair.launch("r", &read(renewed, 1, 10.0)));

        // The same requirement from the other processor: refused.
        assert!(!pair.launch("r", &read(renewed, 0, 10.0)));

        // Aliased partials combine; a renewed output region in the same
        // state replays the combine's rendezvous.
        let z = pair.both(|rt| rt.create_region("z", 100, 8));
        let reduce = |p: usize, lo: i64, ops: f64| {
            let part = IntervalSet::from_rect(Rect1::new(lo, lo + 59));
            TaskSpec::new(p, ops).with_req(RegionReq::reduce(z, part))
        };
        for (ops, replays) in [(5.0e5, false), (1.0e3, true), (7.0e4, true)] {
            pair.both(|rt| {
                rt.retire_region(z);
                assert_eq!(rt.create_region("z", 100, 8), z);
            });
            let tasks = [reduce(0, 0, ops), reduce(1, 40, 2.0 * ops)];
            assert_eq!(pair.launch("sum", &tasks), replays);
        }
        assert_eq!(pair.0[0].stats().replayed, 7);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = rt(2);
        let reg = r.create_region("x", 100, 8);
        r.attach_sys(reg);
        for i in 0..3 {
            let t = TaskSpec::new(i % 2, 50.0).with_req(RegionReq::read(
                reg,
                IntervalSet::from_rect(Rect1::new(0, 99)),
            ));
            launch(&mut r, "l", vec![t]).unwrap();
        }
        assert_eq!(r.stats().launches, 3);
        assert_eq!(r.stats().tasks, 3);
        assert_eq!(r.stats().total_ops, 150.0);
        // Two copies (one per proc), then cached.
        assert_eq!(r.stats().comm_bytes, 2 * 800);
    }
}
