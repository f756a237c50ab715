//! Incremental planning: dirty-subtree re-merge and re-distribution over
//! the arena-backed merge trees of [`crate::merge`].
//!
//! [`IncrementalPlanner`] holds the full intermediate state of one
//! [`erms_plan_cached`](crate::manager::erms_plan_cached) run — per-service
//! leaf parameters, merged arenas, per-slot budgets, targets, effective
//! workloads and priority orders — and, on the next round, recomputes only
//! what a change can actually reach. The hard guarantee is that the
//! incremental plan is **bit-identical** to a cold full re-plan: every
//! reuse decision is gated on exact `f64::to_bits` equality of the reused
//! value's inputs, never on provenance prediction.
//!
//! # How dirtiness is detected
//!
//! There is no hint API: every round the planner recomputes the
//! planner-visible projection of each input and bit-compares it against
//! the stored copy:
//!
//! * per microservice: both piecewise segments' `(a, b)` at the current
//!   interference, the cutoff, the knee latency and the dominant resource
//!   share — exactly the values the cold planner reads;
//! * per service: the workload rate and the SLA threshold (bits), and the
//!   dependency graph (structural equality; any topology change triggers
//!   a full rebuild).
//!
//! Bit-equal projections imply the cold planner would produce bit-equal
//! output, so skipping is provably safe; a changed projection dirties the
//! owning microservice. [`IncrementalPlanner::invalidate`] forces a cold
//! rebuild.
//!
//! # What is reused
//!
//! Within a dirty service, leaf parameters are recomputed (cheap flops)
//! and bit-compared; only ancestors of changed leaves are re-folded
//! (ascending arena order — the same fold order as a cold build), and the
//! top-down Eq. (5) distribution only descends into subtrees whose
//! incoming budget bits changed or that contain a changed leaf. Across
//! services, the second Latency Target Computation pass is skipped
//! entirely when a service's rate, SLA, profiles and effective workloads
//! are all bit-unchanged.

use std::collections::BTreeMap;

use crate::app::{App, Service, WorkloadVector};
use crate::autoscaler::ScalingPlan;
use crate::cache::PlanCache;
use crate::error::{Error, Result};
use crate::graph::DependencyGraph;
use crate::ids::{MicroserviceId, NodeId, ServiceId};
use crate::latency::{Interference, Interval};
use crate::manager::{container_count, SchedulingMode};
use crate::merge::{ArenaKind, MergedGraph, VirtualParams};
use crate::scaling::{containers_for_profile, EffectiveWorkloads, ScalerConfig, ServicePlan};

/// Cumulative work counters of an [`IncrementalPlanner`].
///
/// `services_reused` vs `services_replanned` is the headline ratio: how
/// many second-pass service plans were carried over bit-identically
/// without touching their merge trees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerMetrics {
    /// Planning rounds completed.
    pub rounds: u64,
    /// Rounds that rebuilt all state from scratch (first round, topology
    /// change, config/mode change, [`IncrementalPlanner::invalidate`], or
    /// recovery after an error).
    pub full_builds: u64,
    /// First-pass (own-workload) per-service solves executed.
    pub initial_replans: u64,
    /// Second-pass per-service solves executed.
    pub services_replanned: u64,
    /// Second-pass per-service solves skipped because every input was
    /// bit-unchanged.
    pub services_reused: u64,
    /// Leaf parameter slots whose recomputed value changed bits.
    pub dirty_leaves: u64,
    /// Arena nodes re-folded (ancestors of dirty leaves).
    pub remerged_nodes: u64,
    /// Arena nodes visited by the incremental top-down distribution.
    pub redistributed_nodes: u64,
    /// Merge arenas built cold (new pass depth or full rebuild).
    pub cold_passes: u64,
    /// Priority re-sorts performed at shared microservices.
    pub priority_resorts: u64,
}

/// Bit-level projection of everything the planner reads from one
/// microservice: low/high segment `(a, b)`, cutoff, knee latency and
/// dominant resource share.
type MsProjection = [u64; 7];

fn project(
    app: &App,
    ms: MicroserviceId,
    itf: Interference,
    config: &ScalerConfig,
) -> MsProjection {
    let m = app.microservice(ms).expect("projected microservice exists");
    let lo = m.profile.params(Interval::Low, itf);
    let hi = m.profile.params(Interval::High, itf);
    [
        lo.a.to_bits(),
        lo.b.to_bits(),
        hi.a.to_bits(),
        hi.b.to_bits(),
        m.profile.cutoff_at(itf).to_bits(),
        m.profile.knee_latency(itf).to_bits(),
        m.resources.dominant_share(&config.capacity).to_bits(),
    ]
}

/// Static (topology-derived) per-service data, computed once per rebuild.
#[derive(Debug, Clone)]
struct ServiceStatics {
    /// Distinct microservices, in graph first-appearance order.
    members: Vec<MicroserviceId>,
    /// Member indices sorted by microservice id (BTreeMap iteration
    /// order of the cold planner's per-member maps).
    members_sorted: Vec<u32>,
    /// `calls_per_request` per member, aligned with `members`.
    calls: Vec<f64>,
    /// Effective multiplicity per graph node.
    mults: Vec<f64>,
    /// Member index of each graph node.
    member_of_node: Vec<u32>,
    /// Call-site node ids per member, ascending.
    member_sites: Vec<Vec<u32>>,
    /// Indices into `PlannerState::shared` for members that are shared.
    shared_members: Vec<u32>,
}

impl ServiceStatics {
    fn build(graph: &DependencyGraph) -> Self {
        let members = graph.microservices();
        let index: BTreeMap<MicroserviceId, u32> = members
            .iter()
            .enumerate()
            .map(|(i, &ms)| (ms, i as u32))
            .collect();
        let calls = members
            .iter()
            .map(|&ms| graph.calls_per_request(ms))
            .collect();
        let mults = graph.effective_multiplicities();
        let mut member_of_node = Vec::with_capacity(graph.len());
        let mut member_sites = vec![Vec::new(); members.len()];
        for (id, node) in graph.iter() {
            let mi = index[&node.microservice];
            member_of_node.push(mi);
            member_sites[mi as usize].push(id.index() as u32);
        }
        let mut members_sorted: Vec<u32> = (0..members.len() as u32).collect();
        members_sorted.sort_unstable_by_key(|&mi| members[mi as usize]);
        Self {
            members,
            members_sorted,
            calls,
            mults,
            member_of_node,
            member_sites,
            shared_members: Vec::new(),
        }
    }
}

/// One Latency Target Computation pass of one service, kept internally
/// consistent: `budgets`/`node_targets`/`ms_targets` are always exactly
/// what a full distribution over `arena`'s current parameters produces.
#[derive(Debug, Clone)]
struct PassState {
    leaf_params: Vec<VirtualParams>,
    arena: MergedGraph,
    budgets: Vec<f64>,
    node_targets: Vec<f64>,
    /// Per-member minimum per-call target, aligned with
    /// `ServiceStatics::members`.
    ms_targets: Vec<f64>,
}

/// Reusable scratch of one solver (no allocations on the warm path).
#[derive(Debug, Clone, Default)]
struct Scratch {
    params: Vec<VirtualParams>,
    frontier: Vec<u32>,
    subtree_stamp: Vec<u64>,
    budget_stamp: Vec<u64>,
    member_stamp: Vec<u64>,
    stamp: u64,
}

/// The per-service incremental solver mirroring
/// [`plan_service_cached`](crate::scaling::plan_service_cached).
#[derive(Debug, Clone, Default)]
struct Solver {
    passes: Vec<PassState>,
    final_pass: usize,
    idle: bool,
    intervals: Vec<Interval>,
    scratch: Scratch,
}

/// Shared-microservice priority bookkeeping.
#[derive(Debug, Clone)]
struct SharedState {
    ms: MicroserviceId,
    /// `app.services_using(ms)` — the unsorted id-order user list the
    /// cold sort starts from.
    users: Vec<ServiceId>,
    /// Current priority order (lower initial target first).
    order: Vec<ServiceId>,
}

#[derive(Debug, Clone)]
struct ServiceEntry {
    statics: ServiceStatics,
    initial: Solver,
    final_: Solver,
}

/// Everything carried between rounds.
#[derive(Debug, Clone)]
struct PlannerState {
    graphs: Vec<DependencyGraph>,
    services: Vec<ServiceEntry>,
    calls_maps: Vec<BTreeMap<MicroserviceId, f64>>,
    own_effs: Vec<EffectiveWorkloads>,
    final_effs: Vec<EffectiveWorkloads>,
    initial_plans: BTreeMap<ServiceId, ServicePlan>,
    shared: Vec<SharedState>,
    shared_of: Vec<Option<u32>>,
    plan: ScalingPlan,
    // Stored projections (updated in place each round).
    rates: Vec<f64>,
    sla_bits: Vec<u64>,
    ms_proj: Vec<MsProjection>,
    // Per-round flags (reused).
    rate_changed: Vec<bool>,
    sla_changed: Vec<bool>,
    ms_dirty: Vec<bool>,
    member_dirty: Vec<bool>,
    initial_changed: Vec<bool>,
    order_changed: Vec<bool>,
    eff_cand: Vec<bool>,
    demand: Vec<f64>,
    demand_set: Vec<bool>,
    sort_scratch: Vec<ServiceId>,
}

/// Immutable planning context threaded through the solver helpers.
struct Ctx<'a> {
    app: &'a App,
    itf: Interference,
    config: &'a ScalerConfig,
    cache: Option<&'a PlanCache>,
}

/// One service's round inputs.
struct SvcView<'a> {
    sid: ServiceId,
    svc: &'a Service,
    rate: f64,
    eff: &'a EffectiveWorkloads,
}

/// An incremental Erms planner producing plans bit-identical to
/// [`erms_plan_cached`](crate::manager::erms_plan_cached) while only
/// recomputing what changed since the previous round.
///
/// ```
/// use erms_core::app::{AppBuilder, RequestRate, Sla, WorkloadVector};
/// use erms_core::incremental::IncrementalPlanner;
/// use erms_core::latency::{Interference, LatencyProfile};
/// use erms_core::manager::{erms_plan, SchedulingMode};
/// use erms_core::resources::Resources;
/// use erms_core::scaling::ScalerConfig;
///
/// let mut b = AppBuilder::new("demo");
/// let m = b.microservice("m", LatencyProfile::linear(0.05, 4.0), Resources::default());
/// let s = b.service("s", Sla::p95_ms(200.0), |g| {
///     g.entry(m);
/// });
/// let app = b.build().unwrap();
/// let itf = Interference::default();
/// let mut w = WorkloadVector::new();
/// w.set(s, RequestRate::per_minute(10_000.0));
///
/// let mut planner = IncrementalPlanner::new(ScalerConfig::default(), SchedulingMode::Priority);
/// let warm = planner.replan_auto(&app, &w, itf, None).unwrap().clone();
/// let cold = erms_plan(&app, &w, itf, &ScalerConfig::default(), SchedulingMode::Priority).unwrap();
/// assert_eq!(warm, cold);
///
/// w.set(s, RequestRate::per_minute(12_000.0));
/// let warm = planner.replan_auto(&app, &w, itf, None).unwrap().clone();
/// let cold = erms_plan(&app, &w, itf, &ScalerConfig::default(), SchedulingMode::Priority).unwrap();
/// assert_eq!(warm, cold);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalPlanner {
    config: ScalerConfig,
    mode: SchedulingMode,
    metrics: PlannerMetrics,
    state: Option<PlannerState>,
}

impl Default for IncrementalPlanner {
    fn default() -> Self {
        Self::new(ScalerConfig::default(), SchedulingMode::Priority)
    }
}

impl IncrementalPlanner {
    /// Creates a planner with the given configuration and scheduling
    /// mode. No state is built until the first
    /// [`replan_auto`](Self::replan_auto).
    #[must_use]
    pub fn new(config: ScalerConfig, mode: SchedulingMode) -> Self {
        Self {
            config,
            mode,
            metrics: PlannerMetrics::default(),
            state: None,
        }
    }

    /// The scaler configuration in force.
    #[must_use]
    pub fn config(&self) -> &ScalerConfig {
        &self.config
    }

    /// The scheduling mode in force.
    #[must_use]
    pub fn mode(&self) -> SchedulingMode {
        self.mode
    }

    /// Work counters accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> PlannerMetrics {
        self.metrics
    }

    /// Drops all carried state; the next round rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.state = None;
    }

    /// Adopts a (possibly different) configuration/mode, invalidating the
    /// carried state when either differs from what the state was built
    /// under.
    pub(crate) fn ensure_config(&mut self, config: &ScalerConfig, mode: SchedulingMode) {
        if self.config != *config || self.mode != mode {
            self.config = config.clone();
            self.mode = mode;
            self.state = None;
        }
    }

    /// Computes the plan for the current inputs, reusing every piece of
    /// the previous round whose inputs are bit-unchanged. The result is
    /// bit-identical to
    /// [`erms_plan_cached`](crate::manager::erms_plan_cached) on the same
    /// inputs.
    ///
    /// On any planning error the carried state is dropped (the next call
    /// rebuilds cold), and the same error the cold planner would produce
    /// is returned.
    ///
    /// # Errors
    ///
    /// * [`Error::SlaInfeasible`] when a service's SLA is below its
    ///   latency floor;
    /// * [`Error::EmptyGraph`] for services without call nodes;
    /// * [`Error::InvalidParameter`] when a microservice's demand is not a
    ///   finite container count.
    pub fn replan_auto(
        &mut self,
        app: &App,
        workloads: &WorkloadVector,
        itf: Interference,
        cache: Option<&PlanCache>,
    ) -> Result<&ScalingPlan> {
        let fresh = match &self.state {
            None => true,
            Some(state) => !signature_matches(state, app),
        };
        let ctx = Ctx {
            app,
            itf,
            config: &self.config,
            cache,
        };
        if fresh {
            self.metrics.full_builds += 1;
            self.state = None;
            let mut state = build_skeleton(app, self.mode)?;
            run_round(
                &mut state,
                &ctx,
                workloads,
                true,
                self.mode,
                &mut self.metrics,
            )?;
            self.state = Some(state);
        } else {
            let state = self.state.as_mut().expect("warm state");
            if let Err(err) = run_round(state, &ctx, workloads, false, self.mode, &mut self.metrics)
            {
                self.state = None;
                return Err(err);
            }
        }
        self.metrics.rounds += 1;
        Ok(&self.state.as_ref().expect("state after round").plan)
    }
}

/// Whether the carried state still describes this app's topology.
fn signature_matches(state: &PlannerState, app: &App) -> bool {
    if state.graphs.len() != app.service_count() || state.ms_proj.len() != app.microservice_count()
    {
        return false;
    }
    app.services()
        .all(|(sid, svc)| state.graphs[sid.index()] == svc.graph)
}

fn build_skeleton(app: &App, mode: SchedulingMode) -> Result<PlannerState> {
    let nsvc = app.service_count();
    let nms = app.microservice_count();
    let mut plan = ScalingPlan::new(match mode {
        SchedulingMode::Priority => "erms",
        SchedulingMode::Fcfs => "erms-fcfs",
    });
    let mut initial_plans = BTreeMap::new();
    let mut services = Vec::with_capacity(nsvc);
    let mut calls_maps = Vec::with_capacity(nsvc);
    let mut graphs = Vec::with_capacity(nsvc);
    for (sid, svc) in app.services() {
        let skeleton = ServicePlan::idle(app, sid)?;
        initial_plans.insert(sid, skeleton.clone());
        plan.set_service_plan(skeleton);
        let statics = ServiceStatics::build(&svc.graph);
        calls_maps.push(
            statics
                .members
                .iter()
                .copied()
                .zip(statics.calls.iter().copied())
                .collect(),
        );
        graphs.push(svc.graph.clone());
        services.push(ServiceEntry {
            statics,
            initial: Solver::default(),
            final_: Solver::default(),
        });
    }
    let mut shared = Vec::new();
    let mut shared_of = vec![None; nms];
    for ms in app.shared_microservices() {
        let users = app.services_using(ms);
        shared_of[ms.index()] = Some(shared.len() as u32);
        shared.push(SharedState {
            ms,
            order: users.clone(),
            users,
        });
    }
    for entry in &mut services {
        for &ms in &entry.statics.members {
            if let Some(si) = shared_of[ms.index()] {
                entry.statics.shared_members.push(si);
            }
        }
    }
    Ok(PlannerState {
        graphs,
        services,
        calls_maps,
        own_effs: vec![EffectiveWorkloads::new(); nsvc],
        final_effs: vec![EffectiveWorkloads::new(); nsvc],
        initial_plans,
        shared_of,
        order_changed: vec![false; shared.len()],
        shared,
        plan,
        rates: vec![0.0; nsvc],
        sla_bits: vec![0; nsvc],
        ms_proj: vec![[0; 7]; nms],
        rate_changed: vec![false; nsvc],
        sla_changed: vec![false; nsvc],
        ms_dirty: vec![false; nms],
        member_dirty: vec![false; nsvc],
        initial_changed: vec![false; nsvc],
        eff_cand: vec![false; nsvc],
        demand: vec![0.0; nms],
        demand_set: vec![false; nms],
        sort_scratch: Vec::new(),
    })
}

fn run_round(
    state: &mut PlannerState,
    ctx: &Ctx<'_>,
    workloads: &WorkloadVector,
    fresh: bool,
    mode: SchedulingMode,
    metrics: &mut PlannerMetrics,
) -> Result<()> {
    let nsvc = state.services.len();
    detect_changes(state, ctx, workloads, fresh);

    // ---- Pass 1: per-service targets under own workloads.
    for sid_idx in 0..nsvc {
        let member_dirty = state.services[sid_idx]
            .statics
            .members
            .iter()
            .any(|ms| state.ms_dirty[ms.index()]);
        state.member_dirty[sid_idx] = member_dirty;
        state.initial_changed[sid_idx] = false;
        if !(state.rate_changed[sid_idx] || state.sla_changed[sid_idx] || member_dirty) {
            continue;
        }
        let sid = ServiceId::new(sid_idx as u32);
        let svc = ctx.app.service(sid)?;
        if state.rate_changed[sid_idx] {
            update_own_eff(
                &mut state.own_effs[sid_idx],
                &state.services[sid_idx].statics,
                state.rates[sid_idx],
            );
        }
        let view = SvcView {
            sid,
            svc,
            rate: state.rates[sid_idx],
            eff: &state.own_effs[sid_idx],
        };
        let entry = &mut state.services[sid_idx];
        let sp = state.initial_plans.get_mut(&sid).expect("initial skeleton");
        metrics.initial_replans += 1;
        state.initial_changed[sid_idx] =
            replan_solver(&mut entry.initial, &entry.statics, ctx, &view, sp, metrics)?;
    }

    // ---- Priority assignment at shared microservices (§5.3.2).
    if matches!(mode, SchedulingMode::Priority) {
        for si in 0..state.shared.len() {
            state.order_changed[si] = false;
            let need = fresh
                || state.shared[si]
                    .users
                    .iter()
                    .any(|u| state.initial_changed[u.index()]);
            if !need {
                continue;
            }
            metrics.priority_resorts += 1;
            let ms = state.shared[si].ms;
            state.sort_scratch.clear();
            state
                .sort_scratch
                .extend_from_slice(&state.shared[si].users);
            sort_by_initial_target(&mut state.sort_scratch, &state.initial_plans, ms);
            if fresh || state.sort_scratch != state.shared[si].order {
                let sh = &mut state.shared[si];
                sh.order.clear();
                sh.order.extend_from_slice(&state.sort_scratch);
                state.order_changed[si] = true;
                state.plan.set_priority_order(ms, sh.order.clone());
            }
        }
    }

    // ---- Effective-workload candidates: services whose second-pass
    // workloads can have moved (own rate, a sharing peer's rate, or a
    // changed priority order).
    for flag in &mut state.eff_cand {
        *flag = false;
    }
    if fresh {
        for flag in &mut state.eff_cand {
            *flag = true;
        }
    } else {
        for sid_idx in 0..nsvc {
            if !state.rate_changed[sid_idx] {
                continue;
            }
            state.eff_cand[sid_idx] = true;
            for &si in &state.services[sid_idx].statics.shared_members {
                for user in &state.shared[si as usize].users {
                    state.eff_cand[user.index()] = true;
                }
            }
        }
        for si in 0..state.shared.len() {
            if state.order_changed[si] {
                for user in &state.shared[si].users {
                    state.eff_cand[user.index()] = true;
                }
            }
        }
    }

    // ---- Pass 2: targets and container demands under modified
    // workloads.
    let mut any_final_changed = fresh;
    for sid_idx in 0..nsvc {
        let sid = ServiceId::new(sid_idx as u32);
        let mut eff_changed = false;
        if state.eff_cand[sid_idx] {
            eff_changed = update_final_eff(
                &mut state.final_effs[sid_idx],
                &state.services[sid_idx].statics,
                sid,
                &state.rates,
                &state.calls_maps,
                &state.shared,
                &state.shared_of,
                mode,
            );
        }
        let need = fresh
            || state.rate_changed[sid_idx]
            || state.sla_changed[sid_idx]
            || state.member_dirty[sid_idx]
            || eff_changed;
        if !need {
            metrics.services_reused += 1;
            continue;
        }
        metrics.services_replanned += 1;
        let svc = ctx.app.service(sid)?;
        let view = SvcView {
            sid,
            svc,
            rate: state.rates[sid_idx],
            eff: &state.final_effs[sid_idx],
        };
        let entry = &mut state.services[sid_idx];
        let sp = state
            .plan
            .service_plan_mut(sid)
            .expect("service-plan skeleton");
        any_final_changed |=
            replan_solver(&mut entry.final_, &entry.statics, ctx, &view, sp, metrics)?;
    }

    // ---- Max container demand per microservice, rounded up (§7).
    if any_final_changed {
        for flag in &mut state.demand_set {
            *flag = false;
        }
        for sid_idx in 0..nsvc {
            let sp = state
                .plan
                .service_plan(ServiceId::new(sid_idx as u32))
                .expect("service plan");
            for (&ms, &n) in &sp.ms_containers {
                let i = ms.index();
                if state.demand_set[i] {
                    let d = state.demand[i];
                    state.demand[i] = d.max(n);
                } else {
                    state.demand[i] = n;
                    state.demand_set[i] = true;
                }
            }
        }
        for i in 0..state.demand.len() {
            if !state.demand_set[i] {
                continue;
            }
            let ms = MicroserviceId::new(i as u32);
            let count = container_count(ms, state.demand[i])?;
            if state.plan.get(ms) != Some(count) {
                state.plan.set_containers(ms, count);
            }
        }
    }
    Ok(())
}

/// Updates stored input projections in place and flags what changed bits.
fn detect_changes(
    state: &mut PlannerState,
    ctx: &Ctx<'_>,
    workloads: &WorkloadVector,
    fresh: bool,
) {
    let mut nonfinite = false;
    for sid_idx in 0..state.services.len() {
        let new = workloads
            .rate(ServiceId::new(sid_idx as u32))
            .as_per_minute();
        let old = state.rates[sid_idx];
        let changed = fresh || new.to_bits() != old.to_bits();
        if changed && !(new.is_finite() && old.is_finite()) {
            // A non-finite rate multiplied into another service's zero
            // call count is NaN, not zero — the sparse peer-marking below
            // would be unsound, so dirty every service.
            nonfinite = true;
        }
        state.rates[sid_idx] = new;
        state.rate_changed[sid_idx] = changed;
    }
    if nonfinite {
        for flag in &mut state.rate_changed {
            *flag = true;
        }
    }
    for (ms, _) in ctx.app.microservices() {
        let proj = project(ctx.app, ms, ctx.itf, ctx.config);
        let i = ms.index();
        state.ms_dirty[i] = fresh || proj != state.ms_proj[i];
        state.ms_proj[i] = proj;
    }
    for (sid, svc) in ctx.app.services() {
        let bits = svc.sla.threshold_ms.to_bits();
        let i = sid.index();
        state.sla_changed[i] = fresh || bits != state.sla_bits[i];
        state.sla_bits[i] = bits;
    }
}

/// In-place [`crate::scaling::own_workloads`] (same products, stored
/// call counts).
fn update_own_eff(eff: &mut EffectiveWorkloads, st: &ServiceStatics, rate: f64) {
    for (mi, &ms) in st.members.iter().enumerate() {
        let value = rate * st.calls[mi];
        eff.insert(ms, value);
    }
}

/// In-place [`crate::multiplexing::cumulative_workloads`] /
/// [`crate::multiplexing::total_workloads`], returning whether any value
/// changed bits.
#[allow(clippy::too_many_arguments)]
fn update_final_eff(
    eff: &mut EffectiveWorkloads,
    st: &ServiceStatics,
    sid: ServiceId,
    rates: &[f64],
    calls_maps: &[BTreeMap<MicroserviceId, f64>],
    shared: &[SharedState],
    shared_of: &[Option<u32>],
    mode: SchedulingMode,
) -> bool {
    let own_rate = rates[sid.index()];
    let mut changed = false;
    for (mi, &ms) in st.members.iter().enumerate() {
        let value = match mode {
            SchedulingMode::Priority => {
                let own = own_rate * st.calls[mi];
                match shared_of[ms.index()] {
                    Some(si) => {
                        // Sum over services ordered before (and
                        // including) this one, in priority order.
                        let mut acc = 0.0;
                        for &other in &shared[si as usize].order {
                            acc += rates[other.index()]
                                * calls_maps[other.index()].get(&ms).copied().unwrap_or(0.0);
                            if other == sid {
                                break;
                            }
                        }
                        acc
                    }
                    None => own,
                }
            }
            SchedulingMode::Fcfs => {
                // Total over all services in id order, including the
                // zero terms of non-users (`microservice_workload`).
                let mut acc = 0.0;
                for (other_idx, &rate) in rates.iter().enumerate() {
                    acc += rate * calls_maps[other_idx].get(&ms).copied().unwrap_or(0.0);
                }
                acc
            }
        };
        match eff.get_mut(&ms) {
            Some(slot) => {
                if slot.to_bits() != value.to_bits() {
                    *slot = value;
                    changed = true;
                }
            }
            None => {
                eff.insert(ms, value);
                changed = true;
            }
        }
    }
    changed
}

/// Stable insertion sort with the cold planner's comparator (lower
/// initial target first, service id tiebreak). A stable sort's output is
/// unique, so this matches `slice::sort_by` bit-for-bit without its
/// allocation.
fn sort_by_initial_target(
    users: &mut [ServiceId],
    initial_plans: &BTreeMap<ServiceId, ServicePlan>,
    ms: MicroserviceId,
) {
    let target = |sid: ServiceId| -> f64 {
        initial_plans
            .get(&sid)
            .and_then(|p| p.ms_targets_ms.get(&ms))
            .copied()
            .unwrap_or(f64::INFINITY)
    };
    for i in 1..users.len() {
        let mut j = i;
        while j > 0 {
            let (x, y) = (users[j - 1], users[j]);
            let before = target(x)
                .partial_cmp(&target(y))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.cmp(&y));
            if before == std::cmp::Ordering::Greater {
                users.swap(j - 1, j);
                j -= 1;
            } else {
                break;
            }
        }
    }
}

/// Incremental mirror of
/// [`plan_service_cached`](crate::scaling::plan_service_cached): same
/// control flow, with each pass's merge and distribution updated
/// diff-wise. Writes the outcome into `sp` field-by-field (bit compares)
/// and reports whether anything changed.
fn replan_solver(
    solver: &mut Solver,
    st: &ServiceStatics,
    ctx: &Ctx<'_>,
    view: &SvcView<'_>,
    sp: &mut ServicePlan,
    metrics: &mut PlannerMetrics,
) -> Result<bool> {
    let svc = view.svc;
    if svc.graph.is_empty() {
        return Err(Error::EmptyGraph { service: view.sid });
    }
    let gamma_svc = view.rate;
    if gamma_svc <= 0.0 {
        solver.idle = true;
        return Ok(write_idle_plan(sp, st, svc));
    }
    solver.idle = false;

    let initial_iv = ctx.config.interval_override.unwrap_or(Interval::High);
    solver.intervals.clear();
    solver.intervals.resize(st.members.len(), initial_iv);
    if solver.scratch.member_stamp.len() < st.members.len() {
        solver.scratch.member_stamp.resize(st.members.len(), 0);
    }

    let mut pass = 0usize;
    loop {
        compute_leaf_params(solver, st, ctx, view, gamma_svc)?;
        if pass >= solver.passes.len() {
            build_pass_cold(solver, st, ctx, view, metrics)?;
        } else {
            update_pass(solver, pass, st, view, metrics)?;
        }

        // §5.3.1 interval check, in microservice-id order (the cold
        // planner iterates its per-member BTreeMap).
        let ps = &solver.passes[pass];
        let mut changed = false;
        if ctx.config.interval_override.is_none() && pass < ctx.config.interval_recomputations {
            for &mi in &st.members_sorted {
                let mi = mi as usize;
                if solver.intervals[mi] == Interval::High {
                    let ms = st.members[mi];
                    let knee = ctx.app.microservice(ms)?.profile.knee_latency(ctx.itf);
                    if ps.ms_targets[mi] < knee {
                        solver.intervals[mi] = Interval::Low;
                        changed = true;
                    }
                }
            }
        }
        if changed {
            pass += 1;
            continue;
        }
        solver.final_pass = pass;
        break;
    }
    write_active_plan(sp, solver, st, ctx, view, gamma_svc)
}

/// Recomputes the folded per-node parameters into the solver scratch —
/// the exact expression sequence of the cold planner's per-pass loop.
fn compute_leaf_params(
    solver: &mut Solver,
    st: &ServiceStatics,
    ctx: &Ctx<'_>,
    view: &SvcView<'_>,
    gamma_svc: f64,
) -> Result<()> {
    solver.scratch.params.clear();
    for (id, node) in view.svc.graph.iter() {
        let ms = node.microservice;
        let m = ctx.app.microservice(ms)?;
        let mi = st.member_of_node[id.index()] as usize;
        let p = m.profile.params(solver.intervals[mi], ctx.itf);
        let gamma_eff = view
            .eff
            .get(&ms)
            .copied()
            .unwrap_or_else(|| gamma_svc * st.calls[mi]);
        let mult = st.mults[id.index()];
        let a_fold = p.a * mult * (gamma_eff / gamma_svc);
        solver.scratch.params.push(VirtualParams::new(
            a_fold,
            p.b * mult,
            m.resources.dominant_share(&ctx.config.capacity),
        ));
    }
    Ok(())
}

/// Builds the next pass cold: full merge (via the [`PlanCache`] when
/// present) and full distribution.
fn build_pass_cold(
    solver: &mut Solver,
    st: &ServiceStatics,
    ctx: &Ctx<'_>,
    view: &SvcView<'_>,
    metrics: &mut PlannerMetrics,
) -> Result<()> {
    metrics.cold_passes += 1;
    let leaf_params = solver.scratch.params.clone();
    let arena = match ctx.cache {
        Some(cache) => (*cache.merged(&view.svc.graph, &leaf_params)).clone(),
        None => MergedGraph::merge(&view.svc.graph, &leaf_params),
    };
    let sla_ms = view.svc.sla.threshold_ms;
    let floor = arena.floor_ms();
    if !(sla_ms.is_finite() && sla_ms > floor) {
        return Err(Error::SlaInfeasible {
            service: view.sid,
            sla_ms,
            floor_ms: floor,
        });
    }
    let mut budgets = vec![0.0f64; arena.arena_len()];
    let mut node_targets = vec![f64::NAN; view.svc.graph.len()];
    arena.distribute_all(sla_ms, &mut budgets, &mut node_targets);
    let alen = arena.arena_len();
    if solver.scratch.subtree_stamp.len() < alen {
        solver.scratch.subtree_stamp.resize(alen, 0);
        solver.scratch.budget_stamp.resize(alen, 0);
    }
    let mut ps = PassState {
        leaf_params,
        arena,
        budgets,
        node_targets,
        ms_targets: Vec::new(),
    };
    ps.ms_targets = st
        .member_sites
        .iter()
        .map(|sites| member_min_target(&ps, st, sites))
        .collect();
    solver.passes.push(ps);
    Ok(())
}

/// Diff-driven update of an existing pass: bit-compare recomputed leaf
/// params, re-fold only ancestors of dirty leaves (ascending arena
/// order), re-distribute only where budgets or parameters changed bits.
fn update_pass(
    solver: &mut Solver,
    pass: usize,
    st: &ServiceStatics,
    view: &SvcView<'_>,
    metrics: &mut PlannerMetrics,
) -> Result<()> {
    let sc = &mut solver.scratch;
    let ps = &mut solver.passes[pass];
    sc.stamp += 1;
    let stamp = sc.stamp;
    let arena = &mut ps.arena;

    // 1. Leaf diffs + ancestor set.
    sc.frontier.clear();
    for node_idx in 0..ps.leaf_params.len() {
        let newp = sc.params[node_idx];
        if newp.bits_eq(&ps.leaf_params[node_idx]) {
            continue;
        }
        metrics.dirty_leaves += 1;
        ps.leaf_params[node_idx] = newp;
        let node = NodeId::new(node_idx as u32);
        arena.set_leaf_params(node, newp);
        let leaf = arena.leaf_index(node);
        sc.subtree_stamp[leaf] = stamp;
        let mut cur = leaf;
        while let Some(parent) = arena.parent_of(cur) {
            if sc.subtree_stamp[parent] == stamp {
                break;
            }
            sc.subtree_stamp[parent] = stamp;
            sc.frontier.push(parent as u32);
            cur = parent;
        }
    }
    if !sc.frontier.is_empty() {
        // Ascending arena order = children before parents (post-order).
        sc.frontier.sort_unstable();
        for &i in &sc.frontier {
            arena.refold(i as usize);
        }
        metrics.remerged_nodes += sc.frontier.len() as u64;
    }

    // 2. Feasibility against the (possibly re-folded) root.
    let sla_ms = view.svc.sla.threshold_ms;
    let floor = arena.floor_ms();
    if !(sla_ms.is_finite() && sla_ms > floor) {
        return Err(Error::SlaInfeasible {
            service: view.sid,
            sla_ms,
            floor_ms: floor,
        });
    }

    // 3. Top-down distribution, skipping clean subtrees wholesale. A
    //    subtree is clean when its incoming budget bits are unchanged and
    //    no leaf inside changed — every stored value within is then the
    //    output of the same computation on bit-equal inputs.
    let root = arena.root_index();
    if ps.budgets[root].to_bits() != sla_ms.to_bits() {
        ps.budgets[root] = sla_ms;
        sc.budget_stamp[root] = stamp;
    }
    let mut i = root as isize;
    while i >= 0 {
        let idx = i as usize;
        if sc.budget_stamp[idx] != stamp && sc.subtree_stamp[idx] != stamp {
            i -= arena.subtree_size(idx) as isize;
            continue;
        }
        metrics.redistributed_nodes += 1;
        let budget = ps.budgets[idx];
        match arena.kind(idx) {
            ArenaKind::Leaf(node) => {
                if ps.node_targets[node.index()].to_bits() != budget.to_bits() {
                    ps.node_targets[node.index()] = budget;
                    sc.member_stamp[st.member_of_node[node.index()] as usize] = stamp;
                }
            }
            ArenaKind::Parallel => {
                for &c in arena.children_of(idx) {
                    let c = c as usize;
                    if ps.budgets[c].to_bits() != budget.to_bits() {
                        ps.budgets[c] = budget;
                        sc.budget_stamp[c] = stamp;
                    }
                }
            }
            ArenaKind::Sequential => {
                let totals = arena.seq_totals(idx);
                for &c in arena.children_of(idx) {
                    let c = c as usize;
                    let nb = arena.seq_child_budget(c, budget, totals);
                    if ps.budgets[c].to_bits() != nb.to_bits() {
                        ps.budgets[c] = nb;
                        sc.budget_stamp[c] = stamp;
                    }
                }
            }
        }
        i -= 1;
    }

    // 4. Per-member minima, only for members with a changed site target.
    for (mi, sites) in st.member_sites.iter().enumerate() {
        if sc.member_stamp[mi] != stamp {
            continue;
        }
        ps.ms_targets[mi] = member_min_target(ps, st, sites);
    }
    Ok(())
}

/// The cold planner's per-member fold: first site's per-call target, then
/// `min` with each later site in node-id order.
fn member_min_target(ps: &PassState, st: &ServiceStatics, sites: &[u32]) -> f64 {
    let per_call = |site: u32| {
        let i = site as usize;
        ps.node_targets[i] / st.mults[i]
    };
    let mut acc = per_call(sites[0]);
    for &site in &sites[1..] {
        acc = acc.min(per_call(site));
    }
    acc
}

/// Writes the idle (zero-workload) plan values, mirroring
/// `ServicePlan::idle`, and reports whether anything changed.
fn write_idle_plan(sp: &mut ServicePlan, st: &ServiceStatics, svc: &Service) -> bool {
    let sla = svc.sla.threshold_ms;
    let mut changed = false;
    for slot in &mut sp.node_targets_ms {
        if slot.to_bits() != sla.to_bits() {
            *slot = sla;
            changed = true;
        }
    }
    for &ms in &st.members {
        changed |= write_f64(sp.ms_targets_ms.get_mut(&ms), sla);
        changed |= write_f64(sp.ms_containers.get_mut(&ms), 0.0);
        let iv = sp.ms_intervals.get_mut(&ms).expect("interval slot");
        if *iv != Interval::Low {
            *iv = Interval::Low;
            changed = true;
        }
    }
    changed
}

fn write_f64(slot: Option<&mut f64>, value: f64) -> bool {
    let slot = slot.expect("plan slot");
    if slot.to_bits() != value.to_bits() {
        *slot = value;
        return true;
    }
    false
}

/// Copies the final pass into the stored [`ServicePlan`] field-by-field
/// (bit compares), recomputing container demands from the final targets
/// exactly as the cold planner does.
fn write_active_plan(
    sp: &mut ServicePlan,
    solver: &Solver,
    st: &ServiceStatics,
    ctx: &Ctx<'_>,
    view: &SvcView<'_>,
    gamma_svc: f64,
) -> Result<bool> {
    let ps = &solver.passes[solver.final_pass];
    let mut changed = false;
    for (slot, &target) in sp.node_targets_ms.iter_mut().zip(&ps.node_targets) {
        if slot.to_bits() != target.to_bits() {
            *slot = target;
            changed = true;
        }
    }
    for (mi, &ms) in st.members.iter().enumerate() {
        let target = ps.ms_targets[mi];
        changed |= write_f64(sp.ms_targets_ms.get_mut(&ms), target);
        let iv = solver.intervals[mi];
        let slot = sp.ms_intervals.get_mut(&ms).expect("interval slot");
        if *slot != iv {
            *slot = iv;
            changed = true;
        }
        let m = ctx.app.microservice(ms)?;
        let gamma_eff = view
            .eff
            .get(&ms)
            .copied()
            .unwrap_or_else(|| gamma_svc * st.calls[mi]);
        let n = containers_for_profile(&m.profile, iv, ctx.itf, gamma_eff, target);
        changed |= write_f64(sp.ms_containers.get_mut(&ms), n);
    }
    Ok(changed)
}
