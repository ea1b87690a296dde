//! The shareable engine core: a typed, thread-safe plan cache plus the
//! machine and trace handles every tenant of a process shares.
//!
//! [`CompiledProgram`](crate::CompiledProgram) used to own its plan cache
//! as a private `HashMap<String, Plan>`, so the compile-once/run-many
//! payoff died with the program. This module splits that state out:
//!
//! - [`PlanKey`] — the typed cache key `(statement, schedule, format
//!   signature)`. Its `Display` form is exactly the legacy string key, so
//!   trace output (`plan_cache_hit`/`plan_cache_miss` events) is
//!   unchanged.
//! - [`PlanCache`] — an `RwLock`-protected map from [`PlanKey`] to
//!   `Arc<Plan>`, shareable across threads and across tenants. Lookups
//!   record tenant-attributed cache traffic on the trace
//!   (`plan_cache.{hit,miss}`, `tenant.<name>.plan_cache.*`,
//!   `plan_cache.hit.cross_tenant`).
//! - [`Engine`] — the cheap-clone bundle of machine + shared cache +
//!   trace that a server hands to every tenant;
//!   [`Engine::program`]/[`Engine::tenant`] mint pre-wired
//!   [`Program`](crate::Program) builders.
//!
//! Sharing plans across [`Context`](crate::Context)s is sound because a
//! [`Plan`] holds no runtime region handles — a describe resolves every
//! tensor *by name* against the executing context — and
//! because the key a [`Program`] builds carries, for every tensor the
//! statement reads, its dims and a hash of its sparsity pattern (the
//! [program docs](crate::program)' caching caveat): a cached plan embeds
//! partitions derived from that pattern, so only tenants whose data agrees
//! on it share an entry; anyone else compiles their own.
//!
//! ```
//! use spdistal::prelude::*;
//! use spdistal_sparse::{dense_vector, generate};
//!
//! let engine = Engine::new(Machine::grid1d(4, MachineProfile::lassen_cpu()));
//! let build = |e: &Engine, tenant: &str| {
//!     e.tenant(tenant)
//!         .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; 64]))
//!         .tensor("B", Format::blocked_csr(), generate::banded(64, 5, 0))
//!         .tensor("c", Format::replicated_dense_vec(), dense_vector(vec![1.0; 64]))
//!         .stmt("a(i) = B(i,j) * c(j)")
//!         .schedule(ScheduleSpec::outer_dim())
//!         .build()
//!         .unwrap()
//! };
//! build(&engine, "t1").run().unwrap();
//! let mut p2 = build(&engine, "t2");
//! p2.run().unwrap();
//! // Tenant 2 reused the plan tenant 1 compiled.
//! assert_eq!(p2.report().compiles, 0);
//! assert_eq!(p2.report().cache_hits, 1);
//! assert_eq!(engine.plan_cache().cross_tenant_hits(), 1);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use spdistal_runtime::{Machine, Tenant, Trace};

use crate::codegen::Plan;
use crate::program::Program;

/// The typed plan-cache key: what has to match for a compiled [`Plan`] to
/// be reusable. The `Display` form is the legacy string key
/// (`"<stmt> | <schedule> | <formats>"`), so trace events keyed on it are
/// byte-identical to the pre-typed cache.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The statement, in TIN syntax.
    pub stmt: String,
    /// The concrete schedule, in scheduling-language syntax
    /// (`"<unselected>"` before selection).
    pub schedule: String,
    /// `name=<levels signature> <dist>` for every referenced tensor,
    /// `"; "`-joined in statement order. The [`Program`] front-end appends
    /// ` @<dims>#<pattern hash>` for each tensor the statement reads.
    pub format_sig: String,
}

impl PlanKey {
    pub fn new(
        stmt: impl Into<String>,
        schedule: impl Into<String>,
        format_sig: impl Into<String>,
    ) -> PlanKey {
        PlanKey {
            stmt: stmt.into(),
            schedule: schedule.into(),
            format_sig: format_sig.into(),
        }
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | {} | {}", self.stmt, self.schedule, self.format_sig)
    }
}

struct CacheEntry {
    plan: Arc<Plan>,
    /// The key's `Display` form, rendered once at insert for the trace's
    /// hit events.
    text: String,
    /// The tenant whose compile populated this entry (`None` for an
    /// untenanted program) — the attribution source for
    /// `plan_cache.hit.cross_tenant`.
    owner: Option<String>,
}

/// A thread-safe plan cache shared by every tenant of an [`Engine`].
///
/// Lookups and inserts take `&self`; clone the owning `Arc` to share.
/// First-writer-wins on racing inserts for the same key, so every tenant
/// observes one canonical `Arc<Plan>` per key.
#[derive(Default)]
pub struct PlanCache {
    entries: RwLock<HashMap<PlanKey, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    cross_tenant_hits: AtomicU64,
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// A fresh cache behind an `Arc`, ready to hand to
    /// [`Program::plan_cache`](crate::Program::plan_cache) or an
    /// [`Engine`].
    pub fn shared() -> Arc<PlanCache> {
        Arc::new(PlanCache::new())
    }

    /// Look `key` up, recording the outcome on `trace` attributed to
    /// `tenant` (hit/miss events keyed on the legacy key text — a hit's
    /// rendered once, when its entry was inserted — the namespaced
    /// counters, and cross-tenant attribution when the entry was compiled
    /// by a different tenant).
    pub fn lookup(
        &self,
        key: &PlanKey,
        trace: &Trace,
        tenant: Option<&Tenant>,
    ) -> Option<Arc<Plan>> {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        match entries.get(key) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let cross = entry.owner.as_deref() != tenant.map(Tenant::name);
                if cross {
                    self.cross_tenant_hits.fetch_add(1, Ordering::Relaxed);
                }
                trace.plan_cache_lookup(&entry.text, tenant, true, cross);
                Some(Arc::clone(&entry.plan))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if trace.is_enabled() {
                    trace.plan_cache_lookup(&key.to_string(), tenant, false, false);
                }
                None
            }
        }
    }

    /// Look `key` up without recording anything — for feedback paths that
    /// inspect a cached plan (e.g. the auto-scheduler's warm-up pass)
    /// rather than admit a lookup.
    pub fn peek(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        entries.get(key).map(|e| Arc::clone(&e.plan))
    }

    /// Insert `plan` under `key` on behalf of `tenant` and return the
    /// canonical entry. If another tenant raced us to the same key, their
    /// plan wins and ours is dropped — both compiles were deterministic
    /// over the same declarations, so either is valid; keeping the first
    /// makes attribution stable.
    pub fn insert(&self, key: PlanKey, plan: Plan, tenant: Option<&str>) -> Arc<Plan> {
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        let text = key.to_string();
        let entry = entries.entry(key).or_insert_with(|| CacheEntry {
            plan: Arc::new(plan),
            text,
            owner: tenant.map(str::to_string),
        });
        Arc::clone(&entry.plan)
    }

    /// Cached plans.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan. Affects every program sharing this cache —
    /// see [`CompiledProgram::clear_plan_cache`](crate::CompiledProgram::clear_plan_cache).
    pub fn clear(&self) {
        self.entries
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Recorded lookups that found an entry (lifetime total).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Recorded lookups that missed (lifetime total).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits whose entry was compiled by a different tenant than the one
    /// looking up.
    pub fn cross_tenant_hits(&self) -> u64 {
        self.cross_tenant_hits.load(Ordering::Relaxed)
    }
}

struct EngineInner {
    machine: Machine,
    cache: Arc<PlanCache>,
    trace: Trace,
}

/// The shareable engine core: machine + shared [`PlanCache`] + trace.
///
/// Cloning is cheap (one `Arc` bump); every clone sees the same cache and
/// metrics. `Engine` is `Send + Sync` (compile-time asserted below), so a
/// server can hold one and mint per-tenant [`Program`]s from any thread.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// An engine on `machine` with a fresh shared cache and a disabled
    /// trace.
    pub fn new(machine: Machine) -> Engine {
        Engine::with_trace(machine, Trace::disabled())
    }

    /// An engine recording cache traffic, flushes, and decisions into
    /// `trace`.
    pub fn with_trace(machine: Machine, trace: Trace) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                machine,
                cache: PlanCache::shared(),
                trace,
            }),
        }
    }

    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.inner.cache
    }

    pub fn trace(&self) -> &Trace {
        &self.inner.trace
    }

    /// A [`Program`] builder pre-wired to this engine's machine, shared
    /// plan cache, and trace.
    pub fn program(&self) -> Program {
        Program::on(self.inner.machine.clone())
            .trace(self.inner.trace.clone())
            .plan_cache(Arc::clone(&self.inner.cache))
    }

    /// [`Engine::program`] labeled with a tenant name: the program's cache
    /// traffic shows up under `tenant.<name>.plan_cache.*` in run reports,
    /// and its compiles are attributed for cross-tenant hit accounting.
    pub fn tenant(&self, name: &str) -> Program {
        self.program().tenant(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_tensor::Context;
    use crate::kernels::OutVals;
    use crate::plan::PreparedPlan;
    use crate::program::{CompiledProgram, ScheduleSpec};
    use crate::session::Session;
    use spdistal_ir::Format;
    use spdistal_runtime::MachineProfile;
    use spdistal_sparse::{dense_vector, generate, SpTensor};

    /// Compile-time Send/Sync audit of the shared engine core. `Context`
    /// and `Session` must be `Send` (a server executes tenant programs on
    /// worker threads); the shared state (`Engine`, `PlanCache`) must also
    /// be `Sync`.
    mod assert_send_sync {
        use super::*;

        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}

        #[test]
        fn engine_core_is_send_clean() {
            assert_send::<Context>();
            assert_send::<Session<'static>>();
            assert_send::<CompiledProgram>();
            assert_send::<PreparedPlan>();
            assert_send::<OutVals<'static>>();
            assert_send_sync::<Engine>();
            assert_send_sync::<PlanCache>();
            assert_send_sync::<PlanKey>();
            assert_send_sync::<Plan>();
            assert_send_sync::<Trace>();
        }
    }

    fn engine() -> Engine {
        Engine::with_trace(
            Machine::grid1d(4, MachineProfile::lassen_cpu()),
            Trace::enabled(),
        )
    }

    fn spmv(e: &Engine, tenant: &str) -> CompiledProgram {
        spmv_over(e, tenant, generate::banded(64, 5, 0))
    }

    fn spmv_over(e: &Engine, tenant: &str, b: SpTensor) -> CompiledProgram {
        let (rows, cols) = (b.dims()[0], b.dims()[1]);
        e.tenant(tenant)
            .tensor(
                "a",
                Format::blocked_dense_vec(),
                dense_vector(vec![0.0; rows]),
            )
            .tensor("B", Format::blocked_csr(), b)
            .tensor(
                "c",
                Format::replicated_dense_vec(),
                dense_vector(vec![1.0; cols]),
            )
            .stmt("a(i) = B(i,j) * c(j)")
            .schedule(ScheduleSpec::outer_dim())
            .build()
            .unwrap()
    }

    /// Tenant t1 runs SpMV over `first`, tenant t2 over `second`, on one
    /// engine: t2 must compile its own plan (the shared one embeds t1's
    /// partitions) and match a solo engine bit for bit.
    fn second_tenant_is_not_served_the_first_ones_plan(first: SpTensor, second: SpTensor) {
        let bits = |p: &CompiledProgram| -> Vec<u64> {
            let vals = p.value(0).unwrap().as_tensor().unwrap().vals();
            vals.iter().map(|v| v.to_bits()).collect()
        };
        let e = engine();
        spmv_over(&e, "t1", first).run().unwrap();
        let mut shared = spmv_over(&e, "t2", second.clone());
        shared.run().unwrap();
        assert_eq!(shared.report().compiles, 1, "t2 must not reuse t1's plan");
        assert_eq!(shared.report().cache_hits, 0);
        assert_eq!(e.plan_cache().len(), 2);
        let mut solo = spmv_over(&engine(), "t2", second);
        solo.run().unwrap();
        assert_eq!(bits(&shared), bits(&solo));
    }

    #[test]
    fn tenants_with_different_dims_do_not_share_a_plan() {
        second_tenant_is_not_served_the_first_ones_plan(
            generate::banded(64, 5, 0),
            generate::banded(256, 5, 0),
        );
    }

    #[test]
    fn tenants_with_different_patterns_do_not_share_a_plan() {
        second_tenant_is_not_served_the_first_ones_plan(
            generate::uniform(128, 128, 900, 1),
            generate::uniform(128, 128, 900, 2),
        );
    }

    #[test]
    fn plan_key_display_is_the_legacy_text() {
        let key = PlanKey::new(
            "a(i) = B(i,j) * c(j)",
            "sched",
            "B={Dense,Compressed} xy -> x",
        );
        assert_eq!(
            key.to_string(),
            "a(i) = B(i,j) * c(j) | sched | B={Dense,Compressed} xy -> x"
        );
    }

    #[test]
    fn second_tenant_hits_the_shared_cache() {
        let e = engine();
        let mut p1 = spmv(&e, "t1");
        p1.run().unwrap();
        assert_eq!(p1.report().compiles, 1);
        assert_eq!(e.plan_cache().len(), 1);

        let mut p2 = spmv(&e, "t2");
        p2.run().unwrap();
        assert_eq!(p2.report().compiles, 0, "t2 must reuse t1's plan");
        assert_eq!(p2.report().cache_hits, 1);
        assert_eq!(e.plan_cache().len(), 1);
        assert_eq!(e.plan_cache().misses(), 1);
        assert_eq!(e.plan_cache().hits(), 1);
        assert_eq!(e.plan_cache().cross_tenant_hits(), 1);

        // Results are identical regardless of who compiled.
        let v1 = p1.value(0).unwrap().as_tensor().unwrap().vals().to_vec();
        let v2 = p2.value(0).unwrap().as_tensor().unwrap().vals().to_vec();
        assert_eq!(v1, v2);

        // Layer-4 attribution lands in the engine's metrics.
        let m = e.trace().metrics().unwrap();
        assert_eq!(m.counter("plan_cache.miss").get(), 1);
        assert_eq!(m.counter("plan_cache.hit").get(), 1);
        assert_eq!(m.counter("plan_cache.hit.cross_tenant").get(), 1);
        assert_eq!(m.counter("tenant.t1.plan_cache.miss").get(), 1);
        assert_eq!(m.counter("tenant.t2.plan_cache.hit").get(), 1);
    }

    #[test]
    fn same_tenant_rerun_is_not_cross_tenant() {
        let e = engine();
        let mut p = spmv(&e, "t1");
        p.run_iters(3).unwrap();
        assert_eq!(e.plan_cache().hits(), 2);
        assert_eq!(e.plan_cache().cross_tenant_hits(), 0);
    }

    #[test]
    fn concurrent_lookups_compile_exactly_one_canonical_plan() {
        let e = engine();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let e = e.clone();
                std::thread::spawn(move || {
                    let mut p = spmv(&e, &format!("t{i}"));
                    p.run().unwrap();
                    p.value(0).unwrap().as_tensor().unwrap().vals().to_vec()
                })
            })
            .collect();
        let vals: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for v in &vals[1..] {
            assert_eq!(v, &vals[0]);
        }
        // Racing compiles may each miss, but the cache keeps one entry.
        assert_eq!(e.plan_cache().len(), 1);
        let hits = e.plan_cache().hits();
        let misses = e.plan_cache().misses();
        assert_eq!(hits + misses, 4);
        assert!(misses >= 1);
    }

    #[test]
    fn clear_affects_every_sharer() {
        let e = engine();
        let mut p1 = spmv(&e, "t1");
        p1.run().unwrap();
        let mut p2 = spmv(&e, "t2");
        p2.clear_plan_cache();
        assert!(e.plan_cache().is_empty());
        p2.run().unwrap();
        assert_eq!(p2.report().compiles, 1, "cleared cache recompiles");
    }
}
