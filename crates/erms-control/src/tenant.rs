//! The multi-tenant registry: many applications sharing one
//! microservice pool, each with its own profiling → planning → fallback
//! loop.
//!
//! # Locking
//!
//! The registry map itself sits behind the server's outer lock, held
//! only long enough to resolve an id to its tenant handle; each tenant's
//! mutable state lives under its **own** [`Mutex`], so two tenants'
//! replans and span ingests proceed concurrently. The lock hierarchy is
//! strictly *outer lock → tenant lock* (never the reverse, and
//! registry-wide operations such as snapshots acquire tenant locks in id
//! order via `Registry::lock_tenants`), which makes deadlock
//! impossible by construction. A panicked round poisons only its own
//! tenant; the registry and all other tenants keep serving.
//!
//! A tenant lock is held for work on the tenant's state and for nothing
//! else: never while rendering, parsing, writing a socket or fitting.
//! Request bodies are decoded before the lock is taken, and a replan over
//! HTTP fits a copy of the profiler's window with no lock held
//! (`replan_published`).
//!
//! The applied plan, the one large reply and the most read one, is served
//! with no tenant lock at all. Beside each tenant handle the registry keeps
//! a `PlanSlot`: a cell holding the `Published` entry of the plan applied
//! last (its plan epoch, the plan as an `Arc`, and its text, written once).
//! The slot is current whenever this crate releases a tenant lock: every
//! critical section it opens on a tenant ends in `PlanSlot::publish`, which
//! swaps in a new entry if the manager's plan epoch moved, before the guard
//! drops. A plan reader clones the entry under the cell's own lock, held
//! for a pointer copy, and takes the text outside it. The lock order is
//! *outer → tenant → cell*; nothing waits for another lock while holding a
//! cell. A section opened on a handle from [`Registry::tenant`] or
//! [`Registry::create`] is its caller's, and is published at the next
//! section this crate opens on the tenant.
//!
//! # Tenant isolation
//!
//! Every tenant plans against its **own** [`ClusterState`] view,
//! instantiated from the shared pool template. This is deliberate, not an
//! approximation: `MicroserviceId`s are dense per-application indices, so
//! two tenants' microservice 0 would collide in a shared host container
//! map, and — more importantly — a shared state would let one tenant's
//! placements shift another tenant's `average_interference` and therefore
//! its plan *bits*. With per-tenant views, a tenant's plan is a pure
//! function of its own telemetry and workloads; the registry still
//! accounts for the **aggregate** pool usage across tenants and surfaces
//! over-subscription as a gauge and a warning flag, without ever touching
//! plan arithmetic. The snapshot-equivalence and isolation tests pin both
//! properties.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use erms_core::app::{App, WorkloadVector};
use erms_core::autoscaler::ScalingPlan;
use erms_core::ids::MicroserviceId;
use erms_core::latency::LatencyProfile;
use erms_core::provisioning::{ClusterState, Host};
use erms_core::resilience::{ResilienceConfig, ResilientManager, HISTORY_LIMIT};
use erms_profilers::dataset::Sample;
use erms_telemetry::metrics::{record_planner_metrics, record_resilience, MetricsRegistry};
use erms_telemetry::online::{install, OnlineProfiler};

use crate::codec::{plan_text, SpanBatch};

/// One entry of a tenant's scaling-decision history — the audit record the
/// `GET /v1/tenants/{id}/history` endpoint serves.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Controller round the decision was made in (1-based).
    pub round: u64,
    /// Scheme name of the applied plan.
    pub scheme: String,
    /// Total containers the plan requested.
    pub total_containers: u64,
    /// How many microservice profiles were re-fitted before planning.
    pub refitted: usize,
    /// Fallback-ladder actions taken this round (debug-rendered).
    pub actions: Vec<String>,
    /// Errors absorbed by the ladder this round (rendered).
    pub errors: Vec<String>,
    /// Whether any fallback rung fired.
    pub degraded: bool,
    /// Whether the round was skipped outright (cluster left untouched).
    pub skipped: bool,
}

/// One tenant: an application, its telemetry-driven profiler, its
/// resilient planning loop, and its private view of the pool.
#[derive(Debug)]
pub struct Tenant {
    /// Tenant identifier (the `{id}` path segment).
    pub id: String,
    /// Current application model (its profiles patched in place on refit).
    pub app: App,
    /// Online profiler accumulating windowed span observations.
    pub profiler: OnlineProfiler,
    /// The resilient planning loop.
    pub manager: ResilientManager,
    /// This tenant's view of the shared pool.
    pub cluster: ClusterState,
    /// Most recent per-service request rates.
    pub workloads: WorkloadVector,
    /// Scaling-decision audit trail, oldest first: the records of the most
    /// recent [`HISTORY_LIMIT`] rounds.
    pub history: VecDeque<DecisionRecord>,
    /// Raw spans accepted over the API.
    pub spans_ingested: u64,
    /// Windowed samples actually added to the profiler.
    pub samples_ingested: u64,
}

impl Tenant {
    /// Creates a tenant planning against a fresh pool view.
    pub fn new(id: impl Into<String>, app: App, pool: &[Host]) -> Self {
        Self {
            id: id.into(),
            app,
            profiler: OnlineProfiler::new(),
            manager: ResilientManager::new(ResilienceConfig::default()),
            cluster: ClusterState::new(pool.to_vec()),
            workloads: WorkloadVector::new(),
            history: VecDeque::new(),
            spans_ingested: 0,
            samples_ingested: 0,
        }
    }

    /// The last applied plan, if any round has produced one.
    pub fn plan(&self) -> Option<&ScalingPlan> {
        self.manager.last_applied()
    }

    /// Ingests one span batch into the profiler. When the batch does not
    /// carry its own deployment map, the containers of the last applied
    /// plan are used (the common steady-state case: the DES runs the plan
    /// the control plane just produced).
    ///
    /// # Errors
    ///
    /// Rejects a batch with no usable deployment (no containers in the
    /// batch and no plan applied yet) — γ would be undefined — and a batch
    /// whose spans or `containers` name a microservice the tenant's app
    /// does not have (the error names it). A rejected batch changes
    /// nothing.
    pub fn ingest(&mut self, batch: &SpanBatch) -> Result<usize, String> {
        let named = batch.containers.keys().copied();
        for ms in named.chain(batch.spans.iter().map(|span| span.microservice)) {
            if let Err(e) = self.app.microservice(ms) {
                return Err(format!("span batch: {e}"));
            }
        }
        let containers: BTreeMap<_, _> = if batch.containers.is_empty() {
            match self.plan() {
                Some(plan) => plan.iter().collect(),
                None => return Err(
                    "no deployment known: send `containers` with the batch or apply a plan first"
                        .into(),
                ),
            }
        } else {
            batch.containers.clone()
        };
        let itf = self.cluster.average_interference(&self.app);
        let added =
            self.profiler
                .ingest_spans(batch.spans.iter(), &containers, itf, batch.sampling);
        self.spans_ingested += batch.spans.len() as u64;
        self.samples_ingested += added as u64;
        Ok(added)
    }

    /// Runs one control round: re-fit profiles from accumulated telemetry,
    /// write the fitted ones into the application model in place, then
    /// plan/apply through the resilience ladder. Returns the history record
    /// of the round.
    ///
    /// The install ([`install`]) writes exactly the profiles fitted this
    /// round and touches nothing else of `app`; a round that fits nothing
    /// leaves `app` as it was, bit for bit. The fits are a pure function of
    /// the window, so a restored tenant replaying this method from
    /// snapshotted samples walks exactly the same app sequence as the
    /// uninterrupted process.
    ///
    /// Everything here runs under whatever lock the caller holds on the
    /// tenant, the fit included. The daemon's `POST …/replan` fits a copy of
    /// the window with no lock held instead (`replan_published`) and ends
    /// where this method would have.
    pub fn replan(&mut self) -> &DecisionRecord {
        let fits = self.profiler.fit();
        self.finish_round(fits)
    }

    /// Phase 3 of `replan_published`: installs `fits`, made from
    /// `window`, when this tenant's window is still bit for bit what was
    /// fitted, and runs the rest of the round; otherwise the window moved
    /// since the copy and the round is [`Tenant::replan`].
    fn replan_with_fits(
        &mut self,
        window: &OnlineProfiler,
        fits: BTreeMap<MicroserviceId, LatencyProfile>,
    ) -> &DecisionRecord {
        if same_window(self.profiler.samples(), window.samples()) {
            self.finish_round(fits)
        } else {
            self.replan()
        }
    }

    /// The round after the fit, shared by both doors: install the fits into
    /// `app`, plan/apply through the ladder, and record the decision.
    fn finish_round(&mut self, fits: BTreeMap<MicroserviceId, LatencyProfile>) -> &DecisionRecord {
        let refitted = install(&mut self.app, fits).refitted.len();
        let outcome = self
            .manager
            .run_round(&self.app, &mut self.cluster, &self.workloads);
        let (scheme, total_containers) = match &outcome.plan {
            Some(plan) => (plan.scheme.clone(), plan.total_containers()),
            None => ("none".to_string(), 0),
        };
        let record = DecisionRecord {
            round: outcome.report.round,
            scheme,
            total_containers,
            refitted,
            actions: outcome
                .report
                .actions
                .iter()
                .map(|a| format!("{a:?}"))
                .collect(),
            errors: outcome
                .report
                .errors
                .iter()
                .map(|e| e.to_string())
                .collect(),
            degraded: outcome.report.degraded(),
            skipped: outcome.report.skipped(),
        };
        self.history.push_back(record);
        let excess = self.history.len().saturating_sub(HISTORY_LIMIT);
        self.history.drain(..excess);
        self.history.back().expect("just pushed")
    }

    /// Mirrors this tenant's planner/resilience counters into a metrics
    /// registry (standard `planner.*` / `resilience.*` names; the server
    /// adds the tenant label when rendering).
    pub(crate) fn record_metrics(&self, registry: &mut MetricsRegistry) {
        record_planner_metrics(
            registry,
            &self.manager.planner_metrics(),
            Some(self.manager.plan_cache()),
        );
        record_resilience(registry, self.manager.history());
        registry.set_counter("control.spans_ingested", self.spans_ingested);
        registry.set_counter("control.samples_ingested", self.samples_ingested);
        registry.set_gauge(
            "control.plan_containers",
            self.plan().map_or(0.0, |p| p.total_containers() as f64),
        );
        registry.set_gauge(
            "control.cluster_containers",
            self.cluster.total_containers() as f64,
        );
    }
}

/// The applied plan as readers that take no tenant lock see it: the plan
/// epoch it was applied at, the plan itself, and its compact JSON, the
/// bytes of `plan_to_json(plan).render()`.
#[derive(Debug)]
pub(crate) struct Published {
    epoch: u64,
    plan: Arc<ScalingPlan>,
    text: OnceLock<String>,
}

impl Published {
    /// The plan epoch this entry was published at.
    #[cfg(test)]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The plan's compact JSON. The first caller writes it with [`plan_text`]
    /// (0.44 ms for the 92 KB plan of a 1000-microservice tenant, on one
    /// core of a 2-vCPU VM) with no lock held; a caller that arrives
    /// meanwhile waits for those bytes, and every later one gets them.
    pub(crate) fn text(&self) -> &str {
        self.text.get_or_init(|| plan_text(&self.plan))
    }
}

/// A tenant's publication cell: the entry of the plan applied last, or
/// `None` while no plan is applied. Kept beside the tenant's handle in the
/// [`Registry`]; see the module docs for when it is current.
#[derive(Debug, Default)]
pub(crate) struct PlanSlot(Mutex<Option<Arc<Published>>>);

impl PlanSlot {
    /// The entry published last. Takes no tenant lock, and serves through a
    /// poisoned one: the cell only ever holds a whole `Arc`, so a panic
    /// elsewhere cannot leave it half written.
    pub(crate) fn current(&self) -> Option<Arc<Published>> {
        self.cell().clone()
    }

    fn cell(&self) -> MutexGuard<'_, Option<Arc<Published>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes the slot current with `tenant`, whose lock the caller holds
    /// (or which it owns): a new entry when the manager's plan epoch is not
    /// the published one, a reference count otherwise. Returns the entry
    /// that is current now. The text is left for [`Published::text`] to
    /// write outside the lock.
    pub(crate) fn publish(&self, tenant: &Tenant) -> Option<Arc<Published>> {
        let epoch = tenant.manager.plan_epoch();
        let applied = tenant.manager.last_applied_shared();
        let mut cell = self.cell();
        if cell.as_ref().map(|entry| entry.epoch) != applied.map(|_| epoch) {
            *cell = applied.map(|plan| {
                Arc::new(Published {
                    epoch,
                    plan: Arc::clone(plan),
                    text: OnceLock::new(),
                })
            });
        }
        cell.clone()
    }
}

/// Runs `f` under the tenant's lock, publishes the applied plan into `slot`
/// before the lock drops, and returns what `f` returned beside the entry
/// current at that instant — the plan `f` left applied, whatever later
/// sections publish.
///
/// # Panics
///
/// Panics if the tenant's lock is poisoned.
pub(crate) fn with_published<R>(
    handle: &Mutex<Tenant>,
    slot: &PlanSlot,
    f: impl FnOnce(&mut Tenant) -> R,
) -> (R, Option<Arc<Published>>) {
    let mut tenant = handle.lock().expect("tenant poisoned");
    let result = f(&mut tenant);
    let published = slot.publish(&tenant);
    (result, published)
}

/// Runs one [`Tenant::replan`] with the fit outside the tenant's lock, and
/// returns its record beside the entry its own round published, as
/// [`with_published`] does.
///
/// 1. Under the lock: copy the profiler.
/// 2. With no lock held: fit the copy.
/// 3. Under the lock: if the window still equals the copy, install the fits
///    and run the rest of the round; if an ingest moved it in between, run
///    [`Tenant::replan`], which fits again under the lock.
///
/// The outcome is the one a serial execution gives. The fit reads the
/// window and nothing else, and the rest of the round reads `app`,
/// `cluster` and `workloads` under the second lock; so when the compare
/// holds, the result is that of `Tenant::replan` run at the instant the
/// second lock was taken. Two replans that overlap fit equal windows and
/// install equal apps.
///
/// # Panics
///
/// Panics if the tenant's lock is poisoned.
pub(crate) fn replan_published(
    handle: &Mutex<Tenant>,
    slot: &PlanSlot,
) -> (DecisionRecord, Option<Arc<Published>>) {
    let (window, _) = with_published(handle, slot, |tenant| tenant.profiler.clone());
    let fits = window.fit();
    with_published(handle, slot, |tenant| {
        tenant.replan_with_fits(&window, fits).clone()
    })
}

/// Whether two windows hold the same samples, bit for bit: what a fit
/// reads of them. (`==` would take a latency of `-0.0` for `0.0`.)
fn same_window(
    a: &BTreeMap<MicroserviceId, Vec<Sample>>,
    b: &BTreeMap<MicroserviceId, Vec<Sample>>,
) -> bool {
    let bits = |s: &Sample| [s.latency_ms, s.gamma, s.cpu, s.mem].map(f64::to_bits);
    a.len() == b.len()
        && a.iter().zip(b).all(|((ma, sa), (mb, sb))| {
            ma == mb && sa.len() == sb.len() && sa.iter().zip(sb).all(|(x, y)| bits(x) == bits(y))
        })
}

/// Aggregate pool accounting across tenants. Purely observational: the
/// planner never sees these numbers, so they cannot perturb plan bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PoolUsage {
    /// CPU cores requested by all tenants' current plans together.
    pub requested_cpu: f64,
    /// Memory (MB) requested by all tenants' current plans together.
    pub requested_mem: f64,
    /// CPU capacity of the shared pool.
    pub capacity_cpu: f64,
    /// Memory capacity of the shared pool.
    pub capacity_mem: f64,
}

impl PoolUsage {
    /// Nothing requested yet of a pool of `hosts`.
    pub(crate) fn of_pool(hosts: &[Host]) -> Self {
        Self {
            requested_cpu: 0.0,
            requested_mem: 0.0,
            capacity_cpu: hosts.iter().map(|h| h.cpu_capacity).sum(),
            capacity_mem: hosts.iter().map(|h| h.mem_capacity).sum(),
        }
    }

    /// Adds the resources `tenant`'s applied plan requests.
    pub(crate) fn add(&mut self, tenant: &Tenant) {
        if let Some(plan) = tenant.plan() {
            for (ms, count) in plan.iter() {
                if let Ok(micro) = tenant.app.microservice(ms) {
                    self.requested_cpu += micro.resources.cpu * f64::from(count);
                    self.requested_mem += micro.resources.memory_mb * f64::from(count);
                }
            }
        }
    }

    /// Mirrors the usage into `metrics`: the `pool.*` gauges plus an
    /// `oversubscribed` 0/1 gauge.
    pub(crate) fn record(&self, metrics: &mut MetricsRegistry) {
        metrics.set_gauge("pool.requested_cpu_cores", self.requested_cpu);
        metrics.set_gauge("pool.requested_mem_mb", self.requested_mem);
        metrics.set_gauge("pool.capacity_cpu_cores", self.capacity_cpu);
        metrics.set_gauge("pool.capacity_mem_mb", self.capacity_mem);
        metrics.set_gauge(
            "pool.oversubscribed",
            if self.oversubscribed() { 1.0 } else { 0.0 },
        );
    }

    /// Whether the tenants together over-subscribe the physical pool.
    pub(crate) fn oversubscribed(&self) -> bool {
        self.requested_cpu > self.capacity_cpu || self.requested_mem > self.capacity_mem
    }
}

/// The tenant registry: an id → tenant-handle map plus the shared pool
/// template. The map is guarded by the server's short-held outer lock;
/// each [`Tenant`] is guarded by its own `Mutex`, and its applied plan is
/// published in a cell beside it (see the module docs for the lock
/// hierarchy and the publication rule).
#[derive(Debug)]
pub struct Registry {
    pool: Vec<Host>,
    tenants: BTreeMap<String, Entry>,
    /// Control-plane-level counters and gauges, rendered by `GET /metrics`
    /// beside the pool gauges it computes.
    pub metrics: MetricsRegistry,
}

/// One registered tenant: its handle and its plan's publication cell.
#[derive(Debug)]
struct Entry {
    tenant: Arc<Mutex<Tenant>>,
    slot: Arc<PlanSlot>,
}

impl Registry {
    /// Creates a registry over a pool template. Every tenant created later
    /// receives a fresh view of exactly these hosts.
    pub fn new(pool: Vec<Host>) -> Self {
        Self {
            pool,
            tenants: BTreeMap::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// A registry over the paper's 20-host cluster (§6.1).
    pub fn paper_pool() -> Self {
        let mut hosts = Vec::with_capacity(20);
        for _ in 0..20 {
            hosts.push(Host::paper_host());
        }
        Self::new(hosts)
    }

    /// The pool template.
    pub(crate) fn pool(&self) -> &[Host] {
        &self.pool
    }

    /// Registers a tenant, returning its handle.
    ///
    /// # Errors
    ///
    /// Rejects an id that is already registered or empty.
    pub fn create(&mut self, id: &str, app: App) -> Result<Arc<Mutex<Tenant>>, String> {
        if id.is_empty() {
            return Err("tenant id must be non-empty".into());
        }
        if self.tenants.contains_key(id) {
            return Err(format!("tenant `{id}` already exists"));
        }
        let tenant = Arc::new(Mutex::new(Tenant::new(id, app, &self.pool)));
        let entry = Entry {
            tenant: Arc::clone(&tenant),
            slot: Arc::default(),
        };
        self.tenants.insert(id.to_string(), entry);
        Ok(tenant)
    }

    /// Inserts an already-built tenant (snapshot restore path), publishing
    /// the plan it carries. Replaces any existing tenant with the same id.
    pub(crate) fn insert(&mut self, tenant: Tenant) {
        let slot = Arc::new(PlanSlot::default());
        slot.publish(&tenant);
        let id = tenant.id.clone();
        let entry = Entry {
            tenant: Arc::new(Mutex::new(tenant)),
            slot,
        };
        self.tenants.insert(id, entry);
    }

    /// Removes a tenant, returning whether it existed. A handler still
    /// holding the tenant's handle finishes its request against the
    /// detached state; the registry simply stops resolving the id.
    pub fn remove(&mut self, id: &str) -> bool {
        self.tenants.remove(id).is_some()
    }

    /// The handle of a tenant: clone it out under the brief outer lock,
    /// drop the registry guard, then lock the tenant itself.
    pub fn tenant(&self, id: &str) -> Option<Arc<Mutex<Tenant>>> {
        self.tenants.get(id).map(|entry| Arc::clone(&entry.tenant))
    }

    /// A tenant's handle and plan slot, cloned out under the brief outer
    /// lock.
    pub(crate) fn entry(&self, id: &str) -> Option<(Arc<Mutex<Tenant>>, Arc<PlanSlot>)> {
        let entry = self.tenants.get(id)?;
        Some((Arc::clone(&entry.tenant), Arc::clone(&entry.slot)))
    }

    /// Runs `f` against one locked tenant (convenience over
    /// [`Registry::tenant`] for callers already holding the outer lock —
    /// the hierarchy *outer → tenant* makes this safe), and publishes the
    /// plan `f` leaves applied before the lock drops.
    ///
    /// # Panics
    ///
    /// Panics if the tenant's lock is poisoned.
    pub fn with_tenant<R>(&self, id: &str, f: impl FnOnce(&mut Tenant) -> R) -> Option<R> {
        let entry = self.tenants.get(id)?;
        Some(with_published(&entry.tenant, &entry.slot, f).0)
    }

    /// Publishes every tenant's applied plan: for tenants worked on through
    /// their handles before a server took the registry over. A poisoned
    /// tenant keeps what its slot holds.
    pub(crate) fn publish_all(&self) {
        for entry in self.tenants.values() {
            if let Ok(tenant) = entry.tenant.lock() {
                entry.slot.publish(&tenant);
            }
        }
    }

    /// Every tenant's handle, in id order, cloned out under the outer lock:
    /// a caller that releases it and then locks the tenants one at a time
    /// stalls no request for another tenant.
    pub(crate) fn handles(&self) -> Vec<Arc<Mutex<Tenant>>> {
        self.tenants
            .values()
            .map(|entry| Arc::clone(&entry.tenant))
            .collect()
    }

    /// Locks every tenant in id order and returns the guards — a
    /// consistent cut across the registry for snapshots. The fixed order
    /// keeps concurrent whole-registry operations deadlock-free against
    /// each other.
    ///
    /// # Panics
    ///
    /// Panics if any tenant's lock is poisoned.
    pub(crate) fn lock_tenants(&self) -> Vec<MutexGuard<'_, Tenant>> {
        self.tenants
            .values()
            .map(|entry| entry.tenant.lock().expect("tenant poisoned"))
            .collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::plan_to_json;
    use crate::snapshot::{self, registry_from_text};
    use erms_core::app::{AppBuilder, RequestRate, Sla};
    use erms_core::ids::ServiceId;
    use erms_core::resources::Resources;
    use erms_sim::telemetry::SpanRecord;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn tiny_app(name: &str) -> App {
        let mut b = AppBuilder::new(name);
        let m = b.microservice(
            "m",
            LatencyProfile::kneed(0.002, 3.0, 0.02, 9000.0),
            Resources::new(0.1, 200.0),
        );
        b.service("s", Sla::p95_ms(100.0), |g| {
            g.entry(m);
        });
        b.build().unwrap()
    }

    #[test]
    fn tenants_are_isolated_views_of_one_pool() {
        let mut registry = Registry::paper_pool();
        registry.create("a", tiny_app("a")).unwrap();
        registry.create("b", tiny_app("b")).unwrap();
        assert!(registry.create("a", tiny_app("a2")).is_err());

        let rate = RequestRate::per_minute(30_000.0);
        for id in ["a", "b"] {
            registry
                .with_tenant(id, |t| {
                    t.workloads = WorkloadVector::uniform(&t.app, rate);
                    let record = t.replan();
                    assert!(!record.skipped, "{id}: {record:?}");
                })
                .unwrap();
        }
        // Solo run of the same app against a fresh registry must produce
        // the same plan bits: tenants cannot interfere.
        let mut solo = Registry::paper_pool();
        solo.create("a", tiny_app("a")).unwrap();
        solo.with_tenant("a", |t| {
            t.workloads = WorkloadVector::uniform(&t.app, rate);
            t.replan();
        })
        .unwrap();
        assert_eq!(
            solo.with_tenant("a", |t| t.plan().cloned()).unwrap(),
            registry.with_tenant("a", |t| t.plan().cloned()).unwrap()
        );
    }

    #[test]
    fn tenant_locks_allow_concurrent_rounds() {
        let mut registry = Registry::paper_pool();
        let a = registry.create("a", tiny_app("a")).unwrap();
        let b = registry.create("b", tiny_app("b")).unwrap();
        let rate = RequestRate::per_minute(30_000.0);
        // Both tenants replan from separate threads through their own
        // locks; neither blocks the other and both histories land intact.
        std::thread::scope(|s| {
            for handle in [&a, &b] {
                s.spawn(move || {
                    for _ in 0..5 {
                        let mut t = handle.lock().unwrap();
                        t.workloads = WorkloadVector::uniform(&t.app, rate);
                        t.replan();
                    }
                });
            }
        });
        assert_eq!(registry.with_tenant("a", |t| t.history.len()), Some(5));
        assert_eq!(registry.with_tenant("b", |t| t.history.len()), Some(5));
    }

    /// The decision records and the manager's reports keep the newest
    /// `HISTORY_LIMIT` rounds, and a snapshot carries and restores them so.
    #[test]
    fn histories_keep_the_most_recent_rounds() {
        let mut registry = Registry::paper_pool();
        let handle = registry.create("a", tiny_app("a")).unwrap();
        let rounds = HISTORY_LIMIT as u64 + 6;
        {
            let mut t = handle.lock().unwrap();
            for round in 0..rounds {
                let rate = 20_000.0 + 1_000.0 * (round % 5) as f64;
                t.workloads = WorkloadVector::uniform(&t.app, RequestRate::per_minute(rate));
                t.replan();
            }
            let first = rounds - HISTORY_LIMIT as u64 + 1;
            let held: Vec<u64> = t.history.iter().map(|r| r.round).collect();
            assert_eq!(held, (first..=rounds).collect::<Vec<_>>());
            let reports: Vec<u64> = t.manager.history().iter().map(|r| r.round).collect();
            assert_eq!(reports, held);
        }
        let restored = registry_from_text(&snapshot::text(&registry)).unwrap();
        let restored = restored.with_tenant("a", |t| t.history.clone()).unwrap();
        assert_eq!(restored, handle.lock().unwrap().history);
    }

    #[test]
    fn ingest_requires_a_known_deployment() {
        let mut registry = Registry::paper_pool();
        let handle = registry.create("a", tiny_app("a")).unwrap();
        let mut tenant = handle.lock().unwrap();
        let batch = SpanBatch {
            sampling: 1.0,
            containers: BTreeMap::new(),
            spans: Vec::new(),
        };
        assert!(tenant.ingest(&batch).is_err());
    }

    #[test]
    fn ingest_refuses_microservices_the_tenant_does_not_have() {
        let pool = Registry::paper_pool();
        let mut tenant = Tenant::new("a", tiny_app("a"), pool.pool());
        let foreign = MicroserviceId::new(4_000_000_000);
        let known = MicroserviceId::new(0);
        let spans = |ms| -> Vec<SpanRecord> {
            (0..8)
                .map(|i| SpanRecord {
                    service: ServiceId::new(0),
                    microservice: ms,
                    container: 0,
                    priority_class: 0,
                    start_ms: f64::from(i) * 100.0,
                    end_ms: f64::from(i) * 100.0 + 4.0,
                })
                .collect()
        };
        let batch = |containers: &[MicroserviceId], spans_of| SpanBatch {
            sampling: 1.0,
            containers: containers.iter().map(|&ms| (ms, 1)).collect(),
            spans: spans(spans_of),
        };
        for foreign_in in [batch(&[known, foreign], known), batch(&[known], foreign)] {
            let why = tenant
                .ingest(&foreign_in)
                .expect_err("a foreign microservice");
            assert!(why.contains("4000000000"), "{why}");
        }
        assert!(tenant.profiler.samples().is_empty());
        assert_eq!((tenant.spans_ingested, tenant.samples_ingested), (0, 0));
        assert_eq!(tenant.ingest(&batch(&[known], known)), Ok(1));
    }

    #[test]
    fn pool_usage_flags_oversubscription() {
        // Plan against the full paper pool, then re-home the tenant into
        // a registry whose pool template is one tiny host: the requested
        // resources now exceed capacity and the flag must trip.
        let mut registry = Registry::paper_pool();
        registry.create("a", tiny_app("a")).unwrap();
        registry
            .with_tenant("a", |t| {
                t.workloads = WorkloadVector::uniform(&t.app, RequestRate::per_minute(60_000.0));
                t.replan();
            })
            .unwrap();
        let usage = |registry: &Registry| {
            let mut usage = PoolUsage::of_pool(registry.pool());
            for tenant in registry.lock_tenants() {
                usage.add(&tenant);
            }
            usage
        };
        assert!(usage(&registry).requested_cpu > 0.0);
        assert!(!usage(&registry).oversubscribed());

        let mut cramped = Registry::new(vec![Host::new(0.05, 10.0)]);
        let filler = Tenant::new("x", tiny_app("x"), registry.pool());
        let tenant = registry
            .with_tenant("a", |t| std::mem::replace(t, filler))
            .unwrap();
        cramped.insert(tenant);
        let cramped_usage = usage(&cramped);
        assert!(cramped_usage.oversubscribed());
        let mut metrics = MetricsRegistry::new();
        cramped_usage.record(&mut metrics);
        assert_eq!(metrics.gauge("pool.oversubscribed"), Some(1.0));
    }

    /// What a plan read gets through the tenant's slot, against a fresh
    /// render of the plan that is applied right now, and the slot's epoch
    /// against the manager's. Reads the tenant through its raw handle, which
    /// publishes nothing.
    fn slot_is_current(registry: &Registry, id: &str) -> Result<(), String> {
        let published = registry.entry(id).expect("registered").1.current();
        let handle = registry.tenant(id).expect("registered");
        let tenant = handle.lock().unwrap();
        let fresh = tenant.plan().map(|plan| plan_to_json(plan).render());
        let applied = tenant.plan().map(|_| tenant.manager.plan_epoch());
        let text = published.as_ref().map(|entry| entry.text());
        if text != fresh.as_deref() {
            return Err(format!("served {text:?}, the plan renders as {fresh:?}"));
        }
        match published.map(|entry| entry.epoch) {
            epoch if epoch == applied => Ok(()),
            epoch => Err(format!("slot at epoch {epoch:?}, manager at {applied:?}")),
        }
    }

    /// The first reply's text is written after a second round has
    /// published its own plan: each reply still carries its own round's
    /// plan, and the slot the newer one.
    #[test]
    fn overlapping_replans_reply_with_their_own_rounds_plans() {
        let pool = Registry::paper_pool();
        let handle = Mutex::new(Tenant::new("a", tiny_app("a"), pool.pool()));
        let slot = PlanSlot::default();
        let replan_at = |rate: f64| {
            with_published(&handle, &slot, |t| {
                t.workloads = WorkloadVector::uniform(&t.app, RequestRate::per_minute(rate));
            });
            let (record, published) = replan_published(&handle, &slot);
            let applied = plan_to_json(handle.lock().unwrap().plan().expect("applied")).render();
            (record, published.expect("published"), applied)
        };
        let (first, first_entry, first_plan) = replan_at(10_000.0);
        let (second, second_entry, second_plan) = replan_at(90_000.0);
        assert_ne!(first_plan, second_plan, "the two rounds applied one plan");
        assert!(first_entry.text.get().is_none(), "written before the reply");
        assert_eq!(first_entry.text(), first_plan);
        assert_eq!(second_entry.text(), second_plan);
        assert_eq!(
            (first.total_containers, second.total_containers),
            (
                first_entry.plan.total_containers(),
                second_entry.plan.total_containers()
            )
        );
        let current = slot.current().expect("published");
        assert!(Arc::ptr_eq(&current, &second_entry));
    }

    /// Two microservices in a chain, so that a round plans both.
    fn chain_app() -> App {
        let mut b = AppBuilder::new("chain");
        let front = b.microservice(
            "front",
            LatencyProfile::kneed(0.002, 3.0, 0.02, 9000.0),
            Resources::new(0.1, 200.0),
        );
        let back = b.microservice(
            "back",
            LatencyProfile::kneed(0.004, 2.0, 0.03, 6000.0),
            Resources::new(0.1, 200.0),
        );
        b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(front);
            g.call_seq(root, back);
        });
        b.build().unwrap()
    }

    /// `windows` whole 1 s windows from window `first` on, each adding one
    /// sample per microservice of [`chain_app`]: 8 spans a cell, or with
    /// `two_levels` 8 and 24 in turn, so that the fitter scans for a knee.
    /// Latency grows with the cell's load, jittered by `salt`.
    fn window_batch(
        first: u32,
        windows: u32,
        two_levels: bool,
        containers: bool,
        salt: u64,
    ) -> SpanBatch {
        let mut spans = Vec::new();
        for window in first..first + windows {
            let per_cell = if two_levels && window % 2 == 1 { 24 } else { 8 };
            for ms in 0..2u32 {
                for i in 0..per_cell {
                    let start = f64::from(window) * 1_000.0 + f64::from(i) * 37.0;
                    let jitter = (salt ^ u64::from(window * 97 + ms * 31 + i))
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        >> 54;
                    let latency = (2.0 + f64::from(ms))
                        * (1.0 + f64::from(per_cell) / 16.0)
                        * (0.97 + jitter as f64 / 20_000.0);
                    spans.push(SpanRecord {
                        service: ServiceId::new(0),
                        microservice: MicroserviceId::new(ms),
                        container: 0,
                        priority_class: 0,
                        start_ms: start,
                        end_ms: start + latency,
                    });
                }
            }
        }
        let containers = if containers {
            (0..2).map(|ms| (MicroserviceId::new(ms), 1)).collect()
        } else {
            BTreeMap::new()
        };
        SpanBatch {
            sampling: 1.0,
            containers,
            spans,
        }
    }

    fn chain_tenant(pool: &[Host]) -> Tenant {
        let mut tenant = Tenant::new("a", chain_app(), pool);
        tenant.workloads = WorkloadVector::uniform(&tenant.app, RequestRate::per_minute(20_000.0));
        tenant
    }

    /// An ingest between the copy of the window and the install: the round
    /// must be the one the tenant would have run had it ingested first and
    /// replanned after, fits made under the lock included.
    #[test]
    fn an_ingest_between_copy_and_install_gives_the_serial_round() {
        let pool = Registry::paper_pool();
        let mut refitted = 0;
        // Windows before the copy, windows ingested after it, two levels.
        for (early, late, two_levels) in [(6, 6, false), (12, 12, true), (12, 0, true)] {
            let mut tenant = chain_tenant(pool.pool());
            let mut twin = chain_tenant(pool.pool());
            let early = window_batch(0, early, two_levels, true, 1);
            let late = window_batch(100, late, two_levels, true, 2);
            tenant.ingest(&early).unwrap();
            twin.ingest(&early).unwrap();
            // Phases 1 and 2 by hand, then the ingest, then phase 3.
            let window = tenant.profiler.clone();
            let fits = window.fit();
            tenant.ingest(&late).unwrap();
            let record = tenant.replan_with_fits(&window, fits).clone();
            twin.ingest(&late).unwrap();
            assert_eq!(&record, twin.replan());
            assert_eq!(tenant.app, twin.app);
            assert_eq!(tenant.cluster, twin.cluster);
            assert_eq!(tenant.plan(), twin.plan());
            refitted += record.refitted;
        }
        assert!(refitted > 0, "no round refitted anything");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The daemon's three-phase replan ends where `Tenant::replan` does,
        /// round after round: windows below, at and above the fitter's
        /// 12-sample minimum, one load level or two, batches with and
        /// without `containers`.
        #[test]
        fn daemon_replan_equals_tenant_replan(
            rounds in prop::collection::vec((0u32..=8, any::<bool>()), 1..7),
            two_levels in any::<bool>(),
        ) {
            let pool = Registry::paper_pool();
            let daemon = Mutex::new(chain_tenant(pool.pool()));
            let twin = Mutex::new(chain_tenant(pool.pool()));
            let (daemon_slot, twin_slot) = (PlanSlot::default(), PlanSlot::default());
            let mut first = 0;
            for (round, &(windows, containers)) in rounds.iter().enumerate() {
                let batch = window_batch(first, windows, two_levels, containers, round as u64);
                first += windows;
                let ingested = daemon.lock().unwrap().ingest(&batch);
                prop_assert_eq!(ingested, twin.lock().unwrap().ingest(&batch));
                let (record, published) = replan_published(&daemon, &daemon_slot);
                let (serial, serial_published) =
                    with_published(&twin, &twin_slot, |t| t.replan().clone());
                prop_assert_eq!(record, serial);
                let text = |entry: Option<Arc<Published>>| entry.map(|e| e.text().to_owned());
                prop_assert_eq!(text(published), text(serial_published));
                let (a, b) = (daemon.lock().unwrap(), twin.lock().unwrap());
                prop_assert_eq!(&a.app, &b.app);
                prop_assert_eq!(&a.cluster, &b.cluster);
                prop_assert_eq!(&a.history, &b.history);
            }
        }

        /// (iv) A plan read through the slot gets the applied plan's
        /// rendering, and the slot holds the manager's plan epoch, after
        /// every way the applied plan can change: `Tenant::replan`, a round
        /// run on the public `manager` field behind the tenant's back and a
        /// state restored into the manager in place, each in a section
        /// `with_published` or `Registry::with_tenant` opens, and a
        /// snapshot restore.
        #[test]
        fn plan_text_follows_the_applied_plan(
            steps in prop::collection::vec((0u8..4, 2_000.0f64..90_000.0), 1..10),
        ) {
            let mut registry = Registry::paper_pool();
            registry.create("a", tiny_app("a")).unwrap();
            let unplanned = registry.entry("a").unwrap().1.current();
            prop_assert!(unplanned.is_none(), "text without a plan: {unplanned:?}");
            // A second tenant's manager state, to restore over the first's.
            let donor = {
                let mut t = Tenant::new("donor", tiny_app("a"), registry.pool());
                t.workloads = WorkloadVector::uniform(&t.app, RequestRate::per_minute(48_000.0));
                t.replan();
                t.manager.export_state()
            };
            for (kind, rate) in steps {
                let rate = RequestRate::per_minute(rate);
                match kind {
                    0 => {
                        let (handle, slot) = registry.entry("a").unwrap();
                        let (skipped, published) = with_published(&handle, &slot, |t| {
                            t.workloads = WorkloadVector::uniform(&t.app, rate);
                            t.replan().skipped
                        });
                        prop_assert!(!skipped && published.is_some());
                    }
                    1 => registry
                        .with_tenant("a", |t| {
                            let workloads = WorkloadVector::uniform(&t.app, rate);
                            t.manager.run_round(&t.app, &mut t.cluster, &workloads);
                        })
                        .unwrap(),
                    2 => registry
                        .with_tenant("a", |t| t.manager.restore_state(donor.clone()))
                        .unwrap(),
                    _ => {
                        let text = snapshot::text(&registry);
                        registry = registry_from_text(&text).map_err(TestCaseError::Fail)?;
                        let kept = registry.entry("a").unwrap().1.current();
                        let written = kept.as_ref().and_then(|entry| entry.text.get());
                        prop_assert!(written.is_none(), "a restore rendered eagerly: {written:?}");
                    }
                }
                slot_is_current(&registry, "a").map_err(TestCaseError::Fail)?;
                // And once more: the same entry, its text written once.
                let (_, slot) = registry.entry("a").unwrap();
                match (slot.current(), slot.current()) {
                    (Some(a), Some(b)) => prop_assert!(
                        Arc::ptr_eq(&a, &b) && std::ptr::eq(a.text(), b.text()),
                        "rendered twice"
                    ),
                    (None, None) => {}
                    other => prop_assert!(false, "{other:?}"),
                }
            }
        }
    }
}
