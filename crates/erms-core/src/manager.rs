//! The Erms controller (§3, Fig. 6): Online Scaling plus Resource
//! Provisioning.
//!
//! [`ErmsScaler`] implements the Online Scaling module. In
//! [`SchedulingMode::Priority`] (the full Erms design) it:
//!
//! 1. computes *initial* latency targets per service with each service's
//!    own workloads ([`plan_service`](crate::scaling::plan_service));
//! 2. derives service priorities at every shared microservice from those
//!    targets ([`assign_priorities`]);
//! 3. recomputes targets per service with the priority-modified cumulative
//!    workloads (`cumulative_workloads`), calling Latency Target
//!    Computation exactly twice per dependency graph as in §5.3.3;
//! 4. sizes each microservice to the maximum per-service container demand
//!    and rounds up (§7).
//!
//! [`SchedulingMode::Fcfs`] is the Latency-Target-Computation-only variant
//! evaluated in Fig. 14(a): no priorities, every service models the total
//! arrival stream at shared microservices (Eq. 16).
//!
//! One round of the periodic controller is
//! [`ResilientManager::run_round`](crate::resilience::ResilientManager::run_round):
//! it reads the cluster-average interference, plans, and provisions.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::app::{App, WorkloadVector};
use crate::autoscaler::{Autoscaler, ScalingContext, ScalingPlan};
use crate::cache::PlanCache;
use crate::error::{Error, Result};
use crate::ids::{MicroserviceId, ServiceId};
use crate::incremental::IncrementalPlanner;
use crate::latency::Interference;
use crate::multiplexing::{assign_priorities, cumulative_workloads, total_workloads};
use crate::scaling::{own_workloads, plan_service_cached, ScalerConfig, ServicePlan};

/// How requests from different services are ordered at shared
/// microservices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingMode {
    /// Erms priority scheduling (§4.3/§5.3.2) — the full design.
    #[default]
    Priority,
    /// First-come-first-serve at shared microservices; latency targets are
    /// still computed optimally (the Fig. 14(a) ablation).
    Fcfs,
}

/// The Erms Online Scaling module bound to an application.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct ErmsScaler<'a> {
    app: &'a App,
    config: ScalerConfig,
    mode: SchedulingMode,
}

impl<'a> ErmsScaler<'a> {
    /// Creates a scaler in full priority mode with default configuration.
    pub fn new(app: &'a App) -> Self {
        Self {
            app,
            config: ScalerConfig::default(),
            mode: SchedulingMode::Priority,
        }
    }

    /// Overrides the scheduling mode.
    #[must_use]
    pub fn with_mode(mut self, mode: SchedulingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the configuration.
    #[must_use]
    pub fn with_config(mut self, config: ScalerConfig) -> Self {
        self.config = config;
        self
    }

    /// Computes a scaling plan for the observed workloads and cluster
    /// interference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SlaInfeasible`] when a
    /// service's SLA cannot be met by any allocation, and
    /// [`Error::InvalidParameter`] when a
    /// microservice's demand is not a finite container count.
    pub fn plan(&self, workloads: &WorkloadVector, itf: Interference) -> Result<ScalingPlan> {
        erms_plan(self.app, workloads, itf, &self.config, self.mode)
    }
}

/// Computes an Erms scaling plan (free-function form used by the
/// [`Autoscaler`] implementation).
pub fn erms_plan(
    app: &App,
    workloads: &WorkloadVector,
    itf: Interference,
    config: &ScalerConfig,
    mode: SchedulingMode,
) -> Result<ScalingPlan> {
    erms_plan_cached(app, workloads, itf, config, mode, None)
}

/// [`erms_plan`] with an optional [`PlanCache`] memoizing the graph merges
/// of both Latency Target Computation passes.
///
/// The cache only short-circuits Alg. 1 (merge-tree construction) on exact
/// input equality, so the returned plan is bit-identical to the uncached
/// one; repeated controller rounds over the same app stop re-deriving the
/// same merge trees.
pub fn erms_plan_cached(
    app: &App,
    workloads: &WorkloadVector,
    itf: Interference,
    config: &ScalerConfig,
    mode: SchedulingMode,
    cache: Option<&PlanCache>,
) -> Result<ScalingPlan> {
    let mut plan = ScalingPlan::new(match mode {
        SchedulingMode::Priority => "erms",
        SchedulingMode::Fcfs => "erms-fcfs",
    });

    // First Latency Target Computation pass: per-service targets with each
    // service's own workloads.
    let mut initial: BTreeMap<ServiceId, ServicePlan> = BTreeMap::new();
    for (sid, _) in app.services() {
        let rate = workloads.rate(sid);
        let eff = own_workloads(app, sid, rate)?;
        initial.insert(
            sid,
            plan_service_cached(app, sid, rate, &eff, itf, config, cache)?,
        );
    }

    // Priority assignment at shared microservices (§5.3.2).
    let priorities = match mode {
        SchedulingMode::Priority => assign_priorities(app, &initial),
        SchedulingMode::Fcfs => BTreeMap::new(),
    };

    // Second pass with modified workloads; track the max demand per
    // microservice across services.
    let mut demand: BTreeMap<MicroserviceId, f64> = BTreeMap::new();
    for (sid, _) in app.services() {
        let rate = workloads.rate(sid);
        let eff = match mode {
            SchedulingMode::Priority => cumulative_workloads(app, sid, workloads, &priorities)?,
            SchedulingMode::Fcfs => total_workloads(app, sid, workloads)?,
        };
        let sp = plan_service_cached(app, sid, rate, &eff, itf, config, cache)?;
        for (&ms, &n) in &sp.ms_containers {
            demand.entry(ms).and_modify(|d| *d = d.max(n)).or_insert(n);
        }
        plan.set_service_plan(sp);
    }

    // Round up to integral containers (§7). The zero-vs-missing semantics
    // here are deliberate and load-bearing for provisioning:
    //
    // * a microservice on some service's call path always gets an entry —
    //   an *explicit* 0 when its demand is zero this round (scale to
    //   zero), and at least 1 for any positive demand, however small, so
    //   demand-shedding (which scales workloads down, never to zero)
    //   can never deallocate a service's whole path;
    // * a microservice on no call path gets *no* entry, and
    //   `provision` leaves its current deployment untouched.
    for (ms, n) in demand {
        plan.set_containers(ms, container_count(ms, n)?);
    }
    for (ms, order) in priorities {
        plan.set_priority_order(ms, order);
    }
    Ok(plan)
}

/// Rounds a microservice's container demand up to a whole count (§7): 0
/// for no demand, at least 1 for any positive demand. Both planners round
/// through here, so they agree on every count and every refusal.
///
/// # Errors
///
/// [`Error::InvalidParameter`] naming `ms` when the demand is not finite or
/// rounds above `u32::MAX`: a cast would saturate it to a count no cluster
/// can place.
pub(crate) fn container_count(ms: MicroserviceId, demand: f64) -> Result<u32> {
    let rounded = demand.ceil();
    if !demand.is_finite() || rounded > f64::from(u32::MAX) {
        return Err(Error::InvalidParameter(format!(
            "container demand {demand} of microservice {ms} is not a finite count \
             within u32"
        )));
    }
    Ok(if demand <= 0.0 {
        0
    } else {
        rounded.max(1.0) as u32
    })
}

/// Erms as an [`Autoscaler`] for scheme comparisons.
///
/// Carries an [`IncrementalPlanner`] across rounds: a repeated `plan`
/// call whose inputs barely changed (the fig13 per-window loop, sweep
/// steps) re-plans only the dirty services. Plans stay bit-identical to
/// [`erms_plan_cached`] on the same inputs — incrementality is purely a
/// performance property.
#[derive(Debug, Clone, Default)]
pub struct Erms {
    /// Scheduling mode at shared microservices.
    pub mode: SchedulingMode,
    cache: Option<Arc<PlanCache>>,
    planner: IncrementalPlanner,
}

impl Erms {
    /// Full Erms (priority scheduling).
    pub fn new() -> Self {
        Self::default()
    }

    /// The Latency-Target-Computation-only ablation (FCFS at shared
    /// microservices, Fig. 14a).
    pub fn fcfs() -> Self {
        Self {
            mode: SchedulingMode::Fcfs,
            ..Self::default()
        }
    }

    /// Shares a [`PlanCache`] memoizing graph merges across planning
    /// rounds. Plans are bit-identical with or without a cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }
}

impl Autoscaler for Erms {
    fn name(&self) -> &str {
        match self.mode {
            SchedulingMode::Priority => "erms",
            SchedulingMode::Fcfs => "erms-fcfs",
        }
    }

    fn plan(&mut self, ctx: &ScalingContext<'_>) -> Result<ScalingPlan> {
        self.planner.ensure_config(ctx.config, self.mode);
        self.planner
            .replan_auto(
                ctx.app,
                ctx.workloads,
                ctx.interference,
                self.cache.as_deref(),
            )
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, RequestRate, Sla};
    use crate::evaluate::plan_meets_slas;
    use crate::latency::LatencyProfile;
    use crate::provisioning::{provision, ClusterState, PlacementPolicy};
    use crate::resources::Resources;

    fn sharing_app() -> (App, [MicroserviceId; 3], [ServiceId; 2]) {
        let mut b = AppBuilder::new("fig5");
        let u = b.microservice("U", LatencyProfile::linear(0.08, 3.0), Resources::default());
        let h = b.microservice("H", LatencyProfile::linear(0.02, 3.0), Resources::default());
        let p = b.microservice("P", LatencyProfile::linear(0.03, 2.0), Resources::default());
        let s1 = b.service("svc1", Sla::p95_ms(300.0), |g| {
            let root = g.entry(u);
            g.call_seq(root, p);
        });
        let s2 = b.service("svc2", Sla::p95_ms(300.0), |g| {
            let root = g.entry(h);
            g.call_seq(root, p);
        });
        (b.build().unwrap(), [u, h, p], [s1, s2])
    }

    #[test]
    fn priority_plan_meets_slas_in_model() {
        let (app, _, _) = sharing_app();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(40_000.0));
        let plan = ErmsScaler::new(&app)
            .plan(&w, Interference::default())
            .unwrap();
        assert!(plan_meets_slas(&app, &plan, &w, &Interference::default()).unwrap());
        assert!(plan.has_priorities());
    }

    #[test]
    fn fcfs_plan_meets_slas_in_model() {
        let (app, _, _) = sharing_app();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(40_000.0));
        let plan = ErmsScaler::new(&app)
            .with_mode(SchedulingMode::Fcfs)
            .plan(&w, Interference::default())
            .unwrap();
        assert!(plan_meets_slas(&app, &plan, &w, &Interference::default()).unwrap());
        assert!(!plan.has_priorities());
    }

    #[test]
    fn priority_saves_resources_over_fcfs() {
        // The §2.3 observation: priority scheduling needs fewer containers
        // than FCFS sharing for the same SLAs.
        let (app, _, _) = sharing_app();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(40_000.0));
        let itf = Interference::default();
        let prio = ErmsScaler::new(&app).plan(&w, itf).unwrap();
        let fcfs = ErmsScaler::new(&app)
            .with_mode(SchedulingMode::Fcfs)
            .plan(&w, itf)
            .unwrap();
        assert!(
            prio.total_containers() <= fcfs.total_containers(),
            "priority {} vs fcfs {}",
            prio.total_containers(),
            fcfs.total_containers()
        );
    }

    #[test]
    fn zero_workload_plans_zero_containers() {
        let (app, [u, _, p], _) = sharing_app();
        let w = WorkloadVector::new();
        let plan = ErmsScaler::new(&app)
            .plan(&w, Interference::default())
            .unwrap();
        assert_eq!(plan.containers(u), 0);
        assert_eq!(plan.containers(p), 0);
        assert_eq!(plan.total_containers(), 0);
    }

    #[test]
    fn autoscaler_trait_round_trip() {
        let (app, _, _) = sharing_app();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(10_000.0));
        let config = ScalerConfig::default();
        let ctx = ScalingContext {
            app: &app,
            workloads: &w,
            interference: Interference::default(),
            config: &config,
        };
        let mut erms = Erms::new();
        assert_eq!(erms.name(), "erms");
        let plan = Autoscaler::plan(&mut erms, &ctx).unwrap();
        assert!(plan.total_containers() > 0);
        let mut fcfs = Erms::fcfs();
        assert_eq!(fcfs.name(), "erms-fcfs");
        assert!(Autoscaler::plan(&mut fcfs, &ctx).is_ok());
    }

    #[test]
    fn manager_round_places_containers() {
        let (app, _, _) = sharing_app();
        let mut state = ClusterState::paper_cluster();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(20_000.0));
        let config = ScalerConfig::default();
        let round = |state: &mut ClusterState, w: &WorkloadVector| {
            let itf = state.average_interference(&app);
            let plan = erms_plan(&app, w, itf, &config, SchedulingMode::Priority).unwrap();
            let report = provision(state, &app, &plan, PlacementPolicy::default()).unwrap();
            (plan, report)
        };
        let (plan, report) = round(&mut state, &w);
        assert!(report.placed > 0);
        assert_eq!(
            plan.total_containers(),
            state
                .hosts()
                .iter()
                .map(|h| h.container_count() as u64)
                .sum::<u64>()
        );
        // Scale down on a second round with lower workload.
        let w2 = WorkloadVector::uniform(&app, RequestRate::per_minute(2_000.0));
        let (_, report2) = round(&mut state, &w2);
        assert!(report2.released > 0);
    }

    #[test]
    fn idle_service_path_gets_explicit_zero_not_missing() {
        // H is only on svc2's path; with svc2 idle its demand is zero, and
        // the plan must say so *explicitly* (scale-to-zero), not omit it.
        let (app, [u, h, p], [s1, s2]) = sharing_app();
        let mut w = WorkloadVector::new();
        w.set(s1, RequestRate::per_minute(20_000.0));
        w.set(s2, RequestRate::per_minute(0.0));
        let plan = ErmsScaler::new(&app)
            .plan(&w, Interference::default())
            .unwrap();
        assert_eq!(plan.get(h), Some(0), "idle path: explicit zero");
        assert!(plan.get(h).is_some());
        assert!(plan.containers(u) >= 1);
        assert!(plan.containers(p) >= 1);
    }

    #[test]
    fn tiny_positive_demand_rounds_up_to_one_container() {
        // Any positive demand, however small, keeps at least one container
        // — the guarantee that demand-shedding (which scales workloads
        // down, never to zero) cannot deallocate a service's path.
        let (app, [_, h, _], [s1, s2]) = sharing_app();
        let mut w = WorkloadVector::new();
        w.set(s1, RequestRate::per_minute(20_000.0));
        w.set(s2, RequestRate::per_minute(1.0));
        let plan = ErmsScaler::new(&app)
            .plan(&w, Interference::default())
            .unwrap();
        assert!(plan.containers(h) >= 1);
    }

    #[test]
    fn unplaceable_demand_is_refused_not_saturated() {
        // A rate of +∞ or 1e300 asks for more containers than a u32 holds:
        // both planners refuse it, with the same error, rather than round
        // it to u32::MAX. The warm planner is checked after a finite round,
        // so the refusal comes from its incremental path.
        let (app, _, _) = sharing_app();
        let config = ScalerConfig::default();
        let itf = Interference::default();
        let finite = WorkloadVector::uniform(&app, RequestRate::per_minute(20_000.0));
        for rate in [f64::INFINITY, 1e300] {
            let w = WorkloadVector::uniform(&app, RequestRate::per_minute(rate));
            let cold = erms_plan(&app, &w, itf, &config, SchedulingMode::Priority);
            assert!(
                matches!(&cold, Err(Error::InvalidParameter(msg)) if msg.contains("microservice")),
                "rate {rate}: {cold:?}"
            );
            let mut planner = IncrementalPlanner::new(config.clone(), SchedulingMode::Priority);
            planner.replan_auto(&app, &finite, itf, None).unwrap();
            let warm = planner.replan_auto(&app, &w, itf, None).cloned();
            assert_eq!(warm, cold, "rate {rate}");
        }
    }

    #[test]
    fn unused_microservice_is_missing_and_left_unprovisioned() {
        // A microservice on no service's call path gets no plan entry, and
        // provisioning leaves whatever deployment it already has alone.
        let mut b = AppBuilder::new("extra");
        let u = b.microservice("U", LatencyProfile::linear(0.08, 3.0), Resources::default());
        let x = b.microservice("X", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let s = b.service("svc", Sla::p95_ms(300.0), |g| {
            g.entry(u);
        });
        let app = b.build().unwrap();
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(10_000.0));
        let plan = ErmsScaler::new(&app)
            .plan(&w, Interference::default())
            .unwrap();
        assert!(plan.get(x).is_none());
        assert_eq!(plan.get(x), None);

        let mut state = ClusterState::paper_cluster();
        let mut pre = ScalingPlan::new("manual");
        pre.set_containers(x, 3);
        provision(&mut state, &app, &pre, PlacementPolicy::default()).unwrap();
        assert_eq!(state.containers_of(x), 3);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        assert_eq!(state.containers_of(x), 3, "uncovered deployment untouched");
    }
}
