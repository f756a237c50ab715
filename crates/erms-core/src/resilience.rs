//! Self-healing control loop: bounded retries, a degradation ladder, and
//! plan hysteresis for the periodic Erms controller.
//!
//! The happy-path round is three calls: observe
//! ([`ClusterState::average_interference`]) → plan
//! ([`erms_plan`](crate::manager::erms_plan)) → place
//! ([`provision`](crate::provisioning::provision)), each propagating its
//! failure to the caller and leaving the cluster untouched on error
//! (provisioning is transactional). On a real cluster the world breaks
//! mid-round — containers crash, hosts drain, an operator pushes an SLA
//! below the latency floor, refitted profiles go bad — and a controller
//! that simply errors out stops managing exactly when it is needed most.
//! FIRM (Qiu et al., OSDI '20) frames SLO mitigation *under anomalies* as
//! the core problem; [`ResilientManager`] is this reproduction's answer.
//!
//! Every round runs the same ladder:
//!
//! 1. **Plan.** Compute the Erms plan. If planning fails (e.g.
//!    [`Error::SlaInfeasible`] after a bad profile refit), fall back to the
//!    last-known-good plan, bounded by
//!    [`ResilienceConfig::staleness_bound`] rounds; beyond the bound the
//!    round is skipped rather than applying an arbitrarily stale plan.
//! 2. **Hysteresis.** Suppress per-microservice rescalings smaller than a
//!    minimum delta, and direction flips within a cooldown window, so
//!    noise in the observed interference cannot flap the deployment
//!    between rounds. Explicit scale-to-zero is always honoured.
//! 3. **Evacuate.** (Spot-aware rung.) When any host carries a pending
//!    spot-reclamation notice, drain its containers *before* the grace
//!    deadline so the subsequent provisioning pass re-places them on
//!    surviving capacity — losing nothing when the provider takes the host
//!    back. Disabled by [`ResilienceConfig::spot_aware`] `= false`, which
//!    reproduces the PR-1 reactive ladder.
//! 4. **Provision.** Apply the plan transactionally. On
//!    [`Error::InsufficientCapacity`], first retry with a relaxed
//!    placement policy (whole-cluster instead of POP groups), then —
//!    resize-before-shed — vertically squeeze every container by
//!    [`ResilienceConfig::resize_step`] per attempt down to
//!    [`ResilienceConfig::min_resize`], and only when squeezed containers
//!    still do not fit, proportionally shed the demand of the
//!    lowest-priority services (loosest SLA first) and re-plan, up to
//!    [`ResilienceConfig::max_shed_attempts`] times.
//!
//! Every fallback taken is recorded in a [`ResilienceReport`] so
//! experiments can audit exactly which rounds ran degraded and why. A round
//! that cannot make safe progress is *skipped* — the transactional
//! provisioner guarantees the cluster is left exactly as it was — and the
//! skip itself is reported. `run_round` therefore never returns an error
//! and never panics; the worst case is an honest no-op.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::app::{App, WorkloadVector};
use crate::autoscaler::ScalingPlan;
use crate::cache::PlanCache;
use crate::error::Error;
use crate::ids::{MicroserviceId, ServiceId};
use crate::incremental::{IncrementalPlanner, PlannerMetrics};
use crate::latency::Interference;
use crate::manager::SchedulingMode;
use crate::provisioning::{provision_with_resize, ClusterState, PlacementPolicy, ProvisionReport};
use crate::scaling::ScalerConfig;

/// How many rounds of history a manager keeps, newest last
/// ([`ResilientManager::history`]). The daemon bounds a tenant's decision
/// records by the same number. A constant, not an option: it is memory
/// kept, and no decision reads it.
pub const HISTORY_LIMIT: usize = 1_024;

/// Tunables of the degradation ladder and the hysteresis filter.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Scaler configuration forwarded to planning.
    pub scaler: ScalerConfig,
    /// Scheduling mode forwarded to planning.
    pub mode: SchedulingMode,
    /// Preferred placement policy; the ladder relaxes it on capacity
    /// failures before shedding demand.
    pub placement: PlacementPolicy,
    /// Maximum demand-shedding attempts per round before the round is
    /// skipped.
    pub max_shed_attempts: usize,
    /// Fraction of demand removed from each shed service per attempt
    /// (attempt `k` sheds the `k` lowest-priority services to
    /// `(1 − shed_step)^k` of their observed rate).
    pub shed_step: f64,
    /// Maximum age, in rounds, of a last-known-good plan that may substitute
    /// for a failed planning pass.
    pub staleness_bound: u64,
    /// Minimum absolute container delta an applied rescaling must have;
    /// smaller proposals keep the previous count.
    pub min_delta: u32,
    /// Minimum relative container delta (fraction of the previous count);
    /// the effective threshold is `max(min_delta, ceil(frac · previous))`.
    pub min_delta_fraction: f64,
    /// Rounds after a rescaling during which an opposite-direction
    /// rescaling of the same microservice is suppressed.
    pub cooldown_rounds: u64,
    /// Whether the spot-aware rungs run: evacuate hosts with pending
    /// reclamation notices before provisioning, and vertically squeeze
    /// containers (resize-in-place) before shedding demand. `false`
    /// reproduces the original reactive ladder.
    pub spot_aware: bool,
    /// Fraction by which the resize rung shrinks container requests per
    /// squeeze step (`factor ← factor · (1 − resize_step)`).
    pub resize_step: f64,
    /// Floor of the vertical-scaling factor; below this the ladder stops
    /// squeezing and starts shedding demand instead.
    pub min_resize: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            scaler: ScalerConfig::default(),
            mode: SchedulingMode::Priority,
            placement: PlacementPolicy::default(),
            max_shed_attempts: 3,
            shed_step: 0.25,
            staleness_bound: 3,
            min_delta: 2,
            min_delta_fraction: 0.1,
            cooldown_rounds: 1,
            spot_aware: true,
            resize_step: 0.15,
            min_resize: 0.6,
        }
    }
}

/// One fallback the ladder took during a round. The order of actions in a
/// [`ResilienceReport`] is the order they happened.
#[derive(Debug, Clone, PartialEq)]
pub enum FallbackAction {
    /// Planning failed and the last-known-good plan was applied instead.
    StalePlanApplied {
        /// How many rounds old the substituted plan is.
        age_rounds: u64,
    },
    /// A sub-minimum-delta rescaling was suppressed; the previous count
    /// stays in force.
    HysteresisHold {
        /// The affected microservice.
        ms: MicroserviceId,
        /// The container count the plan proposed.
        proposed: u32,
        /// The container count that was kept.
        kept: u32,
    },
    /// An opposite-direction rescaling inside the cooldown window was
    /// suppressed.
    CooldownHold {
        /// The affected microservice.
        ms: MicroserviceId,
        /// The container count the plan proposed.
        proposed: u32,
        /// The container count that was kept.
        kept: u32,
    },
    /// Placement failed and was retried with a relaxed policy.
    RelaxedPlacement {
        /// The policy that failed.
        from: PlacementPolicy,
        /// The policy retried with.
        to: PlacementPolicy,
    },
    /// Hosts with pending spot-reclamation notices were drained so their
    /// containers could be re-placed on surviving capacity inside the
    /// grace window.
    SpotEvacuation {
        /// Number of reclaiming hosts drained.
        hosts: usize,
        /// Containers drained (and re-placed by the provisioning pass).
        containers: u32,
    },
    /// Containers were vertically squeezed (resize-in-place) to fit a
    /// capacity crunch before any demand was shed.
    ResizeInPlace {
        /// The uniform vertical-scaling factor now in effect (< 1).
        factor: f64,
    },
    /// A service's demand was proportionally shed before re-planning.
    ShedDemand {
        /// The shed service.
        service: ServiceId,
        /// The factor its observed rate was multiplied by (< 1).
        factor: f64,
    },
    /// The round made no change to the cluster; the reason explains why.
    RoundSkipped {
        /// Human-readable reason for the skip.
        reason: String,
    },
}

/// Audit record of one [`ResilientManager::run_round`]: every fallback
/// taken and every error absorbed, in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceReport {
    /// The 1-based round number this report belongs to.
    pub round: u64,
    /// Fallbacks taken, in order.
    pub actions: Vec<FallbackAction>,
    /// Errors the ladder absorbed (planning and placement failures).
    pub errors: Vec<Error>,
}

impl ResilienceReport {
    fn new(round: u64) -> Self {
        Self {
            round,
            ..Self::default()
        }
    }

    /// Whether this round deviated from the happy path in any way.
    pub fn degraded(&self) -> bool {
        !self.actions.is_empty() || !self.errors.is_empty()
    }

    /// Whether the round was skipped entirely (no plan applied).
    pub fn skipped(&self) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, FallbackAction::RoundSkipped { .. }))
    }
}

/// The outcome of one resilient controller round.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientOutcome {
    /// The plan that was applied, or `None` when the round was skipped.
    pub plan: Option<ScalingPlan>,
    /// The interference observed before scaling.
    pub observed_interference: Interference,
    /// Placement summary, or `None` when the round was skipped.
    pub provision: Option<ProvisionReport>,
    /// Audit record of fallbacks and absorbed errors.
    pub report: ResilienceReport,
}

impl ResilientOutcome {
    /// Whether a plan was actually applied this round.
    pub fn applied(&self) -> bool {
        self.provision.is_some()
    }
}

/// Portable snapshot of a [`ResilientManager`]'s decision-shaping state,
/// produced by [`ResilientManager::export_state`] and consumed by
/// [`ResilientManager::restore_state`]. Everything in here feeds future
/// rounds: the round counter drives staleness/cooldown arithmetic, the
/// last applied plan is the hysteresis baseline, the last-known-good plan
/// backs the stale-plan rung, and the direction map backs the cooldown
/// rung.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ManagerState {
    /// Rounds run so far (the next round is `round + 1`).
    pub round: u64,
    /// The last plan that was successfully applied, shared with the
    /// manager it was exported from.
    pub last_applied: Option<Arc<ScalingPlan>>,
    /// The last freshly planned (not stale-substituted) applied plan and
    /// the round it was planned in.
    pub last_good: Option<(Arc<ScalingPlan>, u64)>,
    /// Per-microservice last rescaling: (+1 up / −1 down, round it
    /// happened).
    pub directions: BTreeMap<MicroserviceId, (i8, u64)>,
}

/// The self-healing wrapper around the Erms controller round.
///
/// `ResilientManager` takes the application per round: the production
/// loop refits profiles (and hence rebuilds the app) between rounds, and
/// a bad refit is precisely one of the faults the ladder must absorb.
///
/// # Example
///
/// ```
/// use erms_core::prelude::*;
/// use erms_core::resilience::{ResilienceConfig, ResilientManager};
///
/// let mut b = AppBuilder::new("demo");
/// let m = b.microservice("m", LatencyProfile::linear(0.01, 1.0), Resources::new(0.5, 512.0));
/// b.service("s", Sla::p95_ms(100.0), |g| { g.entry(m); });
/// let app = b.build()?;
///
/// let mut state = ClusterState::paper_cluster();
/// let mut manager = ResilientManager::new(ResilienceConfig::default());
/// let w = WorkloadVector::uniform(&app, RequestRate::per_minute(10_000.0));
/// let outcome = manager.run_round(&app, &mut state, &w);
/// assert!(outcome.applied());
/// assert!(!outcome.report.degraded());
/// # Ok::<(), erms_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResilientManager {
    config: ResilienceConfig,
    round: u64,
    /// The applied plan. A fresh commit shares this allocation with
    /// `last_good`, and a reader of [`Self::last_applied_shared`] keeps it
    /// for the price of a reference count.
    last_applied: Option<Arc<ScalingPlan>>,
    /// Which assignment set `last_applied` (see [`Self::plan_epoch`]).
    plan_epoch: u64,
    last_good: Option<(Arc<ScalingPlan>, u64)>,
    /// Per-microservice last rescaling: (+1 up / −1 down, round it happened).
    directions: BTreeMap<MicroserviceId, (i8, u64)>,
    history: Vec<ResilienceReport>,
    /// Merge-tree memo shared by every planning attempt (rung 0 and shed
    /// re-plans). The app's graphs never change between rounds, so after
    /// the first round every rung replays cached merges — `Default` gives
    /// each manager its own empty cache, and `Clone` shares it.
    cache: Arc<PlanCache>,
    /// Incremental planning engine: carries last round's plan state so a
    /// round whose inputs barely changed re-plans only the dirty services
    /// (bit-identical to a cold plan by construction). Errors drop its
    /// state, so ladder behaviour is unchanged — a failed plan is retried
    /// cold next round.
    planner: IncrementalPlanner,
}

/// Source of [`ResilientManager::plan_epoch`] values. One counter for the
/// process, not one per manager: a manager swapped for another (a restore
/// builds a fresh one) must not repeat an epoch its predecessor handed out.
/// `Relaxed` suffices, the value publishes no other data.
fn next_plan_epoch() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    LAST.fetch_add(1, Ordering::Relaxed) + 1
}

impl ResilientManager {
    /// Creates a manager with the given ladder configuration.
    pub fn new(config: ResilienceConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The ladder configuration.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// The merge-tree memo used by every planning attempt, exposing
    /// hit/miss counters for observability and tests.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Work counters of the incremental planning engine backing rung 0
    /// (full builds, services replanned vs. reused, re-merged nodes).
    pub fn planner_metrics(&self) -> PlannerMetrics {
        self.planner.metrics()
    }

    /// Drops the incremental planner's carried state; the next round plans
    /// from scratch (the merge-tree memo is unaffected).
    pub fn invalidate_planner(&mut self) {
        self.planner.invalidate();
    }

    /// Reports of the most recent rounds, at most [`HISTORY_LIMIT`], oldest
    /// first — the audit trail of degraded rounds. Older reports are
    /// dropped, so a manager that runs for ever holds a bounded trail.
    pub fn history(&self) -> &[ResilienceReport] {
        let held = self.history.len();
        &self.history[held.saturating_sub(HISTORY_LIMIT)..]
    }

    /// The last plan that was successfully applied, if any.
    pub fn last_applied(&self) -> Option<&ScalingPlan> {
        self.last_applied.as_deref()
    }

    /// The allocation behind [`last_applied`](Self::last_applied): a
    /// holder keeps the plan as it stands after the manager has moved on.
    pub fn last_applied_shared(&self) -> Option<&Arc<ScalingPlan>> {
        self.last_applied.as_ref()
    }

    /// Identifies the assignment that set [`last_applied`](Self::last_applied):
    /// 0 until a plan is applied or restored, then a value no other
    /// assignment in this process shares, whichever manager made it. Whoever
    /// derives something costly from the plan (the daemon keeps its rendered
    /// JSON) holds it while the epoch stands still. A clone carries the plan
    /// and its epoch together; the epoch is not part of the exported state and
    /// feeds no decision.
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch
    }

    /// Exports the mutable controller state that shapes *future* rounds —
    /// the round counter, the hysteresis baseline (last applied plan and
    /// rescaling directions) and the last-known-good fallback plan — so a
    /// restarted process can resume with bit-identical decisions. The audit
    /// history is deliberately excluded (it never feeds back into
    /// decisions), and so is the incremental planner's carried state: a
    /// restored manager replans cold on its first round, which the
    /// planner's own invariant guarantees is bit-identical to the warm
    /// re-plan the uninterrupted manager would have produced. The plans are
    /// shared, not copied.
    pub fn export_state(&self) -> ManagerState {
        ManagerState {
            round: self.round,
            last_applied: self.last_applied.clone(),
            last_good: self.last_good.clone(),
            directions: self.directions.clone(),
        }
    }

    /// Restores state captured by [`export_state`](Self::export_state),
    /// dropping any carried planner state so the next round plans cold.
    pub fn restore_state(&mut self, state: ManagerState) {
        self.round = state.round;
        let applied = state.last_applied;
        self.last_good = state.last_good.map(|(plan, round)| match &applied {
            Some(shared) if **shared == *plan => (Arc::clone(shared), round),
            _ => (plan, round),
        });
        self.last_applied = applied;
        self.plan_epoch = next_plan_epoch();
        self.directions = state.directions;
        self.planner.invalidate();
    }

    /// Runs one resilient controller round. Never panics and never returns
    /// an error: a round that cannot make safe progress is skipped (the
    /// cluster is left exactly as it was) and the skip is recorded in the
    /// returned report.
    pub fn run_round(
        &mut self,
        app: &App,
        state: &mut ClusterState,
        workloads: &WorkloadVector,
    ) -> ResilientOutcome {
        self.round += 1;
        let round = self.round;
        let mut report = ResilienceReport::new(round);
        let itf = state.average_interference(app);

        // Rung 0: plan, or fall back to the last-known-good plan. A stale
        // plan is applied but does NOT refresh the last-known-good round —
        // it was never re-validated — so the staleness bound genuinely
        // limits how long a broken planner can coast.
        let mut fresh = true;
        self.planner
            .ensure_config(&self.config.scaler, self.config.mode);
        let mut plan = match self
            .planner
            .replan_auto(app, workloads, itf, Some(&self.cache))
            .cloned()
        {
            Ok(plan) => plan,
            Err(err) => {
                report.errors.push(err);
                match &self.last_good {
                    Some((plan, good_round))
                        if round - good_round <= self.config.staleness_bound =>
                    {
                        report.actions.push(FallbackAction::StalePlanApplied {
                            age_rounds: round - good_round,
                        });
                        fresh = false;
                        ScalingPlan::clone(plan)
                    }
                    Some((_, good_round)) => {
                        return self.skip(
                            itf,
                            report,
                            format!(
                                "planning failed and the last-known-good plan is {} rounds \
                                 stale (bound {})",
                                round - good_round,
                                self.config.staleness_bound
                            ),
                        );
                    }
                    None => {
                        return self.skip(
                            itf,
                            report,
                            "planning failed and no last-known-good plan exists".to_string(),
                        );
                    }
                }
            }
        };

        self.apply_hysteresis(round, &mut plan, &mut report);

        // Everything below mutates a working copy of the cluster and commits
        // only on success, so a skipped round — even one that evacuated spot
        // hosts or squeezed containers along the way — leaves `state`
        // exactly as it was.
        let mut working = state.clone();

        // Spot-aware rung: hosts with pending reclamation notices are
        // drained now, so the provisioning pass below re-places their
        // containers on surviving capacity inside the grace window. The
        // reactive ladder (spot_aware = false) leaves them in place and
        // loses them when the provider executes the reclamation.
        if self.config.spot_aware {
            let (hosts, containers) = working.evacuate_reclaiming();
            if hosts > 0 {
                report
                    .actions
                    .push(FallbackAction::SpotEvacuation { hosts, containers });
            }
        }

        // Remaining rungs: provision; on capacity failure relax placement,
        // then squeeze containers (resize-before-shed), then shed demand
        // and re-plan.
        let mut policy = self.config.placement;
        let mut relaxed = false;
        let mut attempt = 0usize;
        let mut resize_factor = 1.0f64;
        loop {
            match provision_with_resize(&mut working, app, &plan, policy, resize_factor) {
                Ok(prov) => {
                    *state = working;
                    self.commit(round, &plan, fresh);
                    self.record(&report);
                    return ResilientOutcome {
                        plan: Some(plan),
                        observed_interference: itf,
                        provision: Some(prov),
                        report,
                    };
                }
                Err(err @ Error::InsufficientCapacity { .. }) => {
                    report.errors.push(err);
                    if !relaxed {
                        relaxed = true;
                        if let Some(next) = relax(policy) {
                            report.actions.push(FallbackAction::RelaxedPlacement {
                                from: policy,
                                to: next,
                            });
                            policy = next;
                            continue;
                        }
                    }
                    // Resize-before-shed: shrink every container's request
                    // until the floor, keeping all replicas (and hence all
                    // demand) alive at reduced per-container capacity.
                    if self.config.spot_aware
                        && self.config.resize_step > 0.0
                        && resize_factor > self.config.min_resize + 1e-9
                    {
                        resize_factor = (resize_factor * (1.0 - self.config.resize_step))
                            .max(self.config.min_resize);
                        report.actions.push(FallbackAction::ResizeInPlace {
                            factor: resize_factor,
                        });
                        continue;
                    }
                    attempt += 1;
                    if attempt > self.config.max_shed_attempts {
                        return self.skip(
                            itf,
                            report,
                            format!(
                                "insufficient capacity after {} shed attempts",
                                self.config.max_shed_attempts
                            ),
                        );
                    }
                    let shed = self.shed_workloads(app, workloads, attempt, &mut report);
                    match self
                        .planner
                        .replan_auto(app, &shed, itf, Some(&self.cache))
                        .cloned()
                    {
                        Ok(replanned) => {
                            plan = replanned;
                            self.apply_hysteresis(round, &mut plan, &mut report);
                        }
                        Err(err) => {
                            report.errors.push(err);
                            return self.skip(
                                itf,
                                report,
                                "re-planning after demand shedding failed".to_string(),
                            );
                        }
                    }
                }
                Err(err) => {
                    report.errors.push(err);
                    return self.skip(itf, report, "placement failed unrecoverably".to_string());
                }
            }
        }
    }

    /// Suppresses sub-threshold rescalings and cooldown-window direction
    /// flips against the last applied plan. Explicit scale-to-zero and
    /// microservices the previous plan did not govern pass through
    /// untouched.
    fn apply_hysteresis(&self, round: u64, plan: &mut ScalingPlan, report: &mut ResilienceReport) {
        let Some(prev) = &self.last_applied else {
            return;
        };
        let proposals: Vec<(MicroserviceId, u32)> = plan.iter().collect();
        for (ms, proposed) in proposals {
            let Some(kept) = prev.get(ms) else {
                continue;
            };
            if proposed == kept || proposed == 0 {
                continue;
            }
            let delta = proposed.abs_diff(kept);
            let threshold = self
                .config
                .min_delta
                .max((kept as f64 * self.config.min_delta_fraction).ceil() as u32);
            if delta < threshold {
                plan.set_containers(ms, kept);
                report
                    .actions
                    .push(FallbackAction::HysteresisHold { ms, proposed, kept });
                continue;
            }
            let dir: i8 = if proposed > kept { 1 } else { -1 };
            if let Some(&(last_dir, last_round)) = self.directions.get(&ms) {
                if last_dir != dir && round - last_round <= self.config.cooldown_rounds {
                    plan.set_containers(ms, kept);
                    report
                        .actions
                        .push(FallbackAction::CooldownHold { ms, proposed, kept });
                }
            }
        }
    }

    /// Sheds demand for attempt `k`: the `k` lowest-priority services
    /// (loosest SLA first — the least latency-critical traffic goes first)
    /// are scaled to `(1 − shed_step)^k` of their observed rate. Rates stay
    /// strictly positive, so — by the explicit plan semantics of
    /// [`erms_plan`](crate::manager::erms_plan) — a shed service's
    /// microservices are never deallocated
    /// outright.
    fn shed_workloads(
        &self,
        app: &App,
        workloads: &WorkloadVector,
        attempt: usize,
        report: &mut ResilienceReport,
    ) -> WorkloadVector {
        let mut order: Vec<(ServiceId, f64)> = app
            .services()
            .map(|(sid, svc)| (sid, svc.sla.threshold_ms))
            .collect();
        // Loosest SLA = lowest priority = shed first.
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let factor = (1.0 - self.config.shed_step).powi(attempt as i32);
        let mut shed = workloads.clone();
        for &(sid, _) in order.iter().take(attempt) {
            let rate = workloads.rate(sid);
            if rate.as_per_minute() <= 0.0 {
                continue;
            }
            shed.set(sid, rate.scaled(factor));
            report.actions.push(FallbackAction::ShedDemand {
                service: sid,
                factor,
            });
        }
        shed
    }

    /// Records a successful application: the last-applied plan, the
    /// rescaling-direction map used by the cooldown and — only for freshly
    /// planned (not stale-substituted) plans — the last-known-good plan,
    /// which then shares the applied plan's allocation.
    fn commit(&mut self, round: u64, plan: &ScalingPlan, fresh: bool) {
        if let Some(prev) = &self.last_applied {
            for (ms, count) in plan.iter() {
                if let Some(old) = prev.get(ms) {
                    if count > old {
                        self.directions.insert(ms, (1, round));
                    } else if count < old {
                        self.directions.insert(ms, (-1, round));
                    }
                }
            }
        }
        let applied = Arc::new(plan.clone());
        if fresh {
            self.last_good = Some((Arc::clone(&applied), round));
        }
        self.last_applied = Some(applied);
        self.plan_epoch = next_plan_epoch();
    }

    /// Appends a round's report to the history. The oldest reports go in
    /// chunks of a quarter of [`HISTORY_LIMIT`], so a round moves no
    /// reports on most calls; [`history`](Self::history) shows the newest
    /// `HISTORY_LIMIT` of what is held.
    fn record(&mut self, report: &ResilienceReport) {
        self.history.push(report.clone());
        if self.history.len() > HISTORY_LIMIT + HISTORY_LIMIT / 4 {
            let excess = self.history.len() - HISTORY_LIMIT;
            self.history.drain(..excess);
        }
    }

    /// Finishes a round without touching the cluster.
    fn skip(
        &mut self,
        itf: Interference,
        mut report: ResilienceReport,
        reason: String,
    ) -> ResilientOutcome {
        report.actions.push(FallbackAction::RoundSkipped { reason });
        self.record(&report);
        ResilientOutcome {
            plan: None,
            observed_interference: itf,
            provision: None,
            report,
        }
    }
}

/// One relaxation step of the placement policy: POP groups collapse to a
/// whole-cluster solve; an already-relaxed policy has nowhere to go.
fn relax(policy: PlacementPolicy) -> Option<PlacementPolicy> {
    match policy {
        PlacementPolicy::InterferenceAware { groups } if groups > 1 => {
            Some(PlacementPolicy::InterferenceAware { groups: 1 })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, RequestRate, Sla};
    use crate::latency::LatencyProfile;
    use crate::provisioning::Host;
    use crate::resources::Resources;

    fn two_service_app(sla1_ms: f64, sla2_ms: f64) -> App {
        let mut b = AppBuilder::new("resilience");
        let u = b.microservice(
            "U",
            LatencyProfile::linear(0.08, 3.0),
            Resources::new(0.5, 512.0),
        );
        let h = b.microservice(
            "H",
            LatencyProfile::linear(0.02, 3.0),
            Resources::new(0.5, 512.0),
        );
        let p = b.microservice(
            "P",
            LatencyProfile::linear(0.03, 2.0),
            Resources::new(0.5, 512.0),
        );
        b.service("tight", Sla::p95_ms(sla1_ms), |g| {
            let root = g.entry(u);
            g.call_seq(root, p);
        });
        b.service("loose", Sla::p95_ms(sla2_ms), |g| {
            let root = g.entry(h);
            g.call_seq(root, p);
        });
        b.build().unwrap()
    }

    fn workloads(app: &App, per_minute: f64) -> WorkloadVector {
        WorkloadVector::uniform(app, RequestRate::per_minute(per_minute))
    }

    #[test]
    fn clean_round_is_not_degraded() {
        let app = two_service_app(300.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        let outcome = mgr.run_round(&app, &mut state, &workloads(&app, 20_000.0));
        assert!(outcome.applied());
        assert!(!outcome.report.degraded());
        assert_eq!(mgr.history().len(), 1);
    }

    /// The history shows the newest `HISTORY_LIMIT` rounds, before, at and
    /// after the rounds where the oldest reports are dropped.
    #[test]
    fn history_keeps_the_most_recent_rounds() {
        let app = two_service_app(300.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        let w = workloads(&app, 20_000.0);
        let last = 2 * HISTORY_LIMIT as u64 + 3;
        for round in 1..=last {
            mgr.run_round(&app, &mut state, &w);
            let shown: Vec<u64> = mgr.history().iter().map(|r| r.round).collect();
            let first = round.saturating_sub(HISTORY_LIMIT as u64) + 1;
            assert_eq!(shown.first(), Some(&first), "round {round}");
            assert_eq!(shown.len() as u64, round - first + 1, "round {round}");
            assert!(mgr.history.len() <= HISTORY_LIMIT + HISTORY_LIMIT / 4);
        }
    }

    #[test]
    fn infeasible_sla_falls_back_to_last_known_good_within_bound() {
        let good = two_service_app(300.0, 300.0);
        // Same topology, but the tight service's SLA sits below the 5 ms
        // intercept floor — e.g. an operator pushed a bad SLA, or profiles
        // were refit from corrupted traces.
        let bad = two_service_app(1.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let cfg = ResilienceConfig {
            staleness_bound: 2,
            ..ResilienceConfig::default()
        };
        let mut mgr = ResilientManager::new(cfg);
        let w = workloads(&good, 20_000.0);

        let prime = mgr.run_round(&good, &mut state, &w);
        assert!(prime.applied() && !prime.report.degraded());
        let good_plan = prime.plan.clone().unwrap();

        // Rounds 2 and 3: infeasible planning, stale plan substitutes.
        for expected_age in 1..=2u64 {
            let outcome = mgr.run_round(&bad, &mut state, &w);
            assert!(outcome.applied(), "stale plan should still apply");
            assert_eq!(outcome.plan.as_ref().unwrap(), &good_plan);
            assert!(outcome
                .report
                .actions
                .iter()
                .any(|a| matches!(a, FallbackAction::StalePlanApplied { age_rounds } if *age_rounds == expected_age)));
            assert!(matches!(
                outcome.report.errors[0],
                Error::SlaInfeasible { .. }
            ));
        }
        // Round 4: the plan is now 3 rounds stale, beyond the bound of 2 —
        // the round is skipped rather than coasting on it forever.
        let outcome = mgr.run_round(&bad, &mut state, &w);
        assert!(!outcome.applied());
        assert!(outcome.report.skipped());
        // Recovery: a feasible app plans normally again and refreshes the
        // last-known-good plan.
        let recovered = mgr.run_round(&good, &mut state, &w);
        assert!(recovered.applied());
        assert!(recovered.report.errors.is_empty());
    }

    #[test]
    fn infeasible_sla_with_no_history_skips_round() {
        let bad = two_service_app(1.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let before = state.clone();
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        let outcome = mgr.run_round(&bad, &mut state, &workloads(&bad, 20_000.0));
        assert!(!outcome.applied());
        assert!(outcome.report.skipped());
        assert_eq!(state, before, "a skipped round must not touch the cluster");
    }

    #[test]
    fn capacity_failure_sheds_lowest_priority_demand() {
        let app = two_service_app(300.0, 600.0);
        // Two small hosts: the full plan cannot fit, a shed plan can.
        let mut state = ClusterState::new(vec![Host::new(8.0, 16_384.0), Host::new(8.0, 16_384.0)]);
        // spot_aware = false: this test pins the *reactive* shed path, with
        // the resize-before-shed rung out of the way.
        let mut mgr = ResilientManager::new(ResilienceConfig {
            max_shed_attempts: 8,
            shed_step: 0.5,
            spot_aware: false,
            ..ResilienceConfig::default()
        });
        let outcome = mgr.run_round(&app, &mut state, &workloads(&app, 60_000.0));
        assert!(
            outcome
                .report
                .errors
                .iter()
                .any(|e| matches!(e, Error::InsufficientCapacity { .. })),
            "expected a capacity error to be absorbed: {:?}",
            outcome.report
        );
        let shed_services: Vec<ServiceId> = outcome
            .report
            .actions
            .iter()
            .filter_map(|a| match a {
                FallbackAction::ShedDemand { service, .. } => Some(*service),
                _ => None,
            })
            .collect();
        assert!(!shed_services.is_empty(), "demand must have been shed");
        // The loose-SLA service (id 1) is shed first.
        assert_eq!(shed_services[0], app.service_by_name("loose").unwrap());
        if outcome.applied() {
            // Whatever was applied fits the cluster.
            for host in state.hosts() {
                let (cpu, mem) = host.utilization(&app);
                assert!(cpu <= 1.0 + 1e-9 && mem <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn hopeless_capacity_skips_round_and_leaves_state() {
        let app = two_service_app(300.0, 600.0);
        let mut state = ClusterState::new(vec![Host::new(0.25, 256.0)]);
        let before = state.clone();
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        let outcome = mgr.run_round(&app, &mut state, &workloads(&app, 60_000.0));
        assert!(!outcome.applied());
        assert!(outcome.report.skipped());
        assert_eq!(state, before);
    }

    #[test]
    fn hysteresis_holds_small_deltas_and_honours_zero() {
        let app = two_service_app(300.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let mut mgr = ResilientManager::new(ResilienceConfig {
            min_delta: 1_000,
            min_delta_fraction: 0.0,
            ..ResilienceConfig::default()
        });
        let w1 = workloads(&app, 20_000.0);
        let first = mgr.run_round(&app, &mut state, &w1);
        let first_plan = first.plan.clone().unwrap();
        // Slightly different workload: every proposed delta is far below the
        // absurd min_delta, so the applied plan must equal the first.
        let w2 = workloads(&app, 21_000.0);
        let second = mgr.run_round(&app, &mut state, &w2);
        assert!(second.applied());
        assert_eq!(
            second.plan.as_ref().unwrap().total_containers(),
            first_plan.total_containers()
        );
        assert!(second
            .report
            .actions
            .iter()
            .any(|a| matches!(a, FallbackAction::HysteresisHold { .. })));
        // Zero workload: explicit scale-to-zero bypasses the hold.
        let w0 = WorkloadVector::new();
        let third = mgr.run_round(&app, &mut state, &w0);
        assert!(third.applied());
        assert_eq!(third.plan.as_ref().unwrap().total_containers(), 0);
    }

    #[test]
    fn cooldown_suppresses_direction_flip() {
        let app = two_service_app(300.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let mut mgr = ResilientManager::new(ResilienceConfig {
            min_delta: 1,
            min_delta_fraction: 0.0,
            cooldown_rounds: 1,
            ..ResilienceConfig::default()
        });
        let low = workloads(&app, 10_000.0);
        let high = workloads(&app, 60_000.0);
        mgr.run_round(&app, &mut state, &low);
        let up = mgr.run_round(&app, &mut state, &high); // direction: up
        assert!(up.applied());
        let up_plan = up.plan.unwrap();
        // Immediately back down: inside the cooldown window the flip must be
        // suppressed for every microservice that just scaled up.
        let down = mgr.run_round(&app, &mut state, &low);
        assert!(down.applied());
        let down_plan = down.plan.unwrap();
        assert_eq!(down_plan.total_containers(), up_plan.total_containers());
        assert!(down
            .report
            .actions
            .iter()
            .any(|a| matches!(a, FallbackAction::CooldownHold { .. })));
        // One round later the flip is allowed.
        let settled = mgr.run_round(&app, &mut state, &low);
        assert!(settled.applied());
        assert!(settled.plan.unwrap().total_containers() < up_plan.total_containers());
    }

    #[test]
    fn resize_rung_runs_before_any_shedding() {
        let app = two_service_app(300.0, 600.0);
        let mut state = ClusterState::new(vec![Host::new(8.0, 16_384.0), Host::new(8.0, 16_384.0)]);
        let mut mgr = ResilientManager::new(ResilienceConfig {
            max_shed_attempts: 8,
            shed_step: 0.5,
            ..ResilienceConfig::default()
        });
        let outcome = mgr.run_round(&app, &mut state, &workloads(&app, 60_000.0));
        let first_resize = outcome
            .report
            .actions
            .iter()
            .position(|a| matches!(a, FallbackAction::ResizeInPlace { .. }));
        let first_shed = outcome
            .report
            .actions
            .iter()
            .position(|a| matches!(a, FallbackAction::ShedDemand { .. }));
        assert!(
            first_resize.is_some(),
            "the capacity crunch must trigger the resize rung: {:?}",
            outcome.report
        );
        if let Some(shed) = first_shed {
            assert!(
                first_resize.unwrap() < shed,
                "resize must be attempted before shedding: {:?}",
                outcome.report.actions
            );
        }
        if outcome.applied() {
            for host in state.hosts() {
                let (cpu, mem) = host.utilization(&app);
                assert!(cpu <= 1.0 + 1e-9 && mem <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn resize_alone_absorbs_a_mild_capacity_crunch() {
        let app = two_service_app(300.0, 600.0);
        // Find a rate whose full-size plan does not fit two 8-core hosts
        // but whose 0.85×-squeezed plan does: first plan on a huge cluster
        // to learn the demand curve, then pick the crunch point.
        let mut crunch_rate = None;
        for rate in (10_000..60_000).step_by(2_000) {
            let mut probe_state = ClusterState::paper_cluster();
            let mut probe = ResilientManager::new(ResilienceConfig::default());
            let outcome = probe.run_round(&app, &mut probe_state, &workloads(&app, rate as f64));
            let plan = outcome.plan.expect("paper cluster fits everything");
            let cpu: f64 = plan.iter().map(|(_, c)| 0.5 * c as f64).sum();
            if cpu > 16.0 && cpu * 0.85 <= 16.0 * 0.98 {
                crunch_rate = Some(rate as f64);
                break;
            }
        }
        let rate = crunch_rate.expect("some rate lands in the resize-recoverable band");
        let mut state = ClusterState::new(vec![Host::new(8.0, 16_384.0), Host::new(8.0, 16_384.0)]);
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        let outcome = mgr.run_round(&app, &mut state, &workloads(&app, rate));
        assert!(
            outcome.applied(),
            "squeezed plan fits: {:?}",
            outcome.report
        );
        assert!(outcome
            .report
            .actions
            .iter()
            .any(|a| matches!(a, FallbackAction::ResizeInPlace { .. })));
        assert!(
            !outcome
                .report
                .actions
                .iter()
                .any(|a| matches!(a, FallbackAction::ShedDemand { .. })),
            "no demand shed when the squeeze suffices: {:?}",
            outcome.report.actions
        );
    }

    #[test]
    fn spot_evacuation_saves_containers_from_reclamation() {
        use crate::provisioning::HostLifecycle;
        let app = two_service_app(300.0, 300.0);
        let spot = Host::paper_host().with_lifecycle(HostLifecycle::Spot);
        let mut state =
            ClusterState::new(vec![Host::paper_host(), Host::paper_host(), spot.clone()]);
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        let w = workloads(&app, 20_000.0);
        let first = mgr.run_round(&app, &mut state, &w);
        assert!(first.applied());
        let plan = first.plan.unwrap();

        // Provider posts a notice due at round 4; the next manager round
        // evacuates and re-places inside the grace window.
        assert_eq!(state.post_spot_reclamations(1, 4), 1);
        let second = mgr.run_round(&app, &mut state, &w);
        assert!(second.applied());
        assert!(second
            .report
            .actions
            .iter()
            .any(|a| matches!(a, FallbackAction::SpotEvacuation { hosts: 1, .. })));
        let spot_index = state.reclaiming_hosts()[0];
        assert_eq!(state.hosts()[spot_index].container_count(), 0);

        // Reclamation executes: the host leaves empty, the plan still holds.
        let (gone, lost) = state.execute_due_reclamations(4);
        assert_eq!((gone, lost), (1, 0));
        for (ms, target) in plan.iter() {
            assert_eq!(state.containers_of(ms), target);
        }
    }

    #[test]
    fn reactive_ladder_loses_containers_to_reclamation() {
        use crate::provisioning::HostLifecycle;
        let app = two_service_app(300.0, 300.0);
        let spot = Host::paper_host().with_lifecycle(HostLifecycle::Spot);
        let mut state = ClusterState::new(vec![Host::paper_host(), Host::paper_host(), spot]);
        let mut mgr = ResilientManager::new(ResilienceConfig {
            spot_aware: false,
            ..ResilienceConfig::default()
        });
        let w = workloads(&app, 20_000.0);
        mgr.run_round(&app, &mut state, &w);
        let on_spot = state.hosts()[2].container_count();
        assert!(on_spot > 0, "the spot host should carry containers");
        state.post_spot_reclamations(1, 4);
        let second = mgr.run_round(&app, &mut state, &w);
        assert!(second.applied());
        assert!(
            !second
                .report
                .actions
                .iter()
                .any(|a| matches!(a, FallbackAction::SpotEvacuation { .. })),
            "reactive ladder must not evacuate"
        );
        // The notice was ignored, so the reclamation destroys live replicas.
        let (gone, lost) = state.execute_due_reclamations(4);
        assert_eq!(gone, 1);
        assert!(lost > 0, "unevacuated containers are lost");
    }

    #[test]
    fn exported_state_resumes_bit_identically() {
        let app = two_service_app(300.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        let low = workloads(&app, 10_000.0);
        let high = workloads(&app, 60_000.0);
        mgr.run_round(&app, &mut state, &low);
        mgr.run_round(&app, &mut state, &high);

        // Fork: the uninterrupted manager vs a fresh one restored from the
        // export. The very next round scales back down, which exercises the
        // cooldown rung — state that only survives through the export.
        let snapshot = mgr.export_state();
        let mut restored = ResilientManager::new(ResilienceConfig::default());
        restored.restore_state(snapshot.clone());
        assert_eq!(restored.export_state(), snapshot);

        let mut cluster_b = state.clone();
        let a = mgr.run_round(&app, &mut state, &low);
        let b = restored.run_round(&app, &mut cluster_b, &low);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.report.actions, b.report.actions);
        assert!(a
            .report
            .actions
            .iter()
            .any(|x| matches!(x, FallbackAction::CooldownHold { .. })));
    }

    #[test]
    fn plan_epoch_moves_exactly_when_the_applied_plan_is_assigned() {
        let good = two_service_app(300.0, 300.0);
        let bad = two_service_app(1.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        let w = workloads(&good, 20_000.0);
        assert_eq!(mgr.plan_epoch(), 0);
        // A skipped round applies nothing.
        assert!(mgr.run_round(&bad, &mut state, &w).report.skipped());
        assert_eq!(mgr.plan_epoch(), 0);
        assert!(mgr.run_round(&good, &mut state, &w).applied());
        let first = mgr.plan_epoch();
        assert_ne!(first, 0);
        // Re-applying an equal plan is still an assignment.
        assert!(mgr.run_round(&good, &mut state, &w).applied());
        let second = mgr.plan_epoch();
        assert_ne!(second, first);
        // A clone carries plan and epoch together; a restore takes a new
        // epoch, and never one another manager has handed out.
        let twin = mgr.clone();
        assert_eq!(twin.plan_epoch(), second);
        let mut restored = ResilientManager::new(ResilienceConfig::default());
        restored.restore_state(mgr.export_state());
        assert!(![0, first, second].contains(&restored.plan_epoch()));
    }

    /// A fresh commit keeps one copy of the plan for the applied and the
    /// last-known-good plan, and so does a restore of a state where the
    /// two are equal.
    #[test]
    fn applied_and_last_good_plans_share_one_allocation() {
        let app = two_service_app(300.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        assert!(mgr
            .run_round(&app, &mut state, &workloads(&app, 20_000.0))
            .applied());
        let shared = |m: &ResilientManager| {
            let (good, _) = m.last_good.as_ref().expect("a fresh plan");
            Arc::ptr_eq(m.last_applied_shared().expect("applied"), good)
        };
        assert!(shared(&mgr));
        let mut restored = ResilientManager::new(ResilienceConfig::default());
        restored.restore_state(mgr.export_state());
        assert!(shared(&restored));
        assert_eq!(restored.export_state(), mgr.export_state());
    }

    #[test]
    fn crash_replacement_is_not_a_rescaling() {
        // Losing containers to a crash and re-placing them keeps the plan
        // unchanged, so hysteresis must not interfere and the report stays
        // clean (the *cluster* changed, the *plan* did not).
        let app = two_service_app(300.0, 300.0);
        let mut state = ClusterState::paper_cluster();
        let mut mgr = ResilientManager::new(ResilienceConfig::default());
        let w = workloads(&app, 20_000.0);
        let first = mgr.run_round(&app, &mut state, &w);
        let plan = first.plan.unwrap();
        let ms = app.microservice_by_name("P").unwrap();
        let lost = state.crash_containers(&app, ms, 2);
        assert_eq!(lost, 2);
        let second = mgr.run_round(&app, &mut state, &w);
        assert!(second.applied());
        assert_eq!(state.containers_of(ms), plan.containers(ms));
        assert!(
            second.provision.unwrap().placed >= 2,
            "crashed containers re-placed"
        );
    }
}
