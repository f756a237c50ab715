//! Latency-target computation and container scaling (§4.1–§4.2, §5.3.1).
//!
//! Given a service's merged dependency graph, the optimal latency target of
//! each (virtual) microservice follows the closed-form KKT solution of
//! Eq. (5):
//!
//! ```text
//! target_i = b_i + √(a_i·γ_i·R_i) / Σ_j √(a_j·γ_j·R_j) · (SLA − Σ_j b_j)
//! n_i      = a_i·γ_i / (target_i − b_i)
//! ```
//!
//! [`plan_service`] runs the full per-service pipeline: resolve piecewise
//! parameters at the observed interference, merge the graph
//! ([`MergedGraph`]), distribute targets, and apply the *two-interval
//! selection rule* of §5.3.1 — start from the high-workload interval, then
//! recompute once with low-interval parameters for microservices whose
//! allocated target falls below their knee latency. The dependency graph is
//! processed at most twice, as in the paper.

use std::collections::BTreeMap;

use crate::app::{App, RequestRate};
use crate::cache::PlanCache;
use crate::error::{Error, Result};
use crate::ids::{MicroserviceId, ServiceId};
use crate::latency::{Interference, Interval};
use crate::merge::{MergedGraph, VirtualParams};
use crate::resources::ClusterCapacity;

/// One microservice of a sequential chain, for direct use of Eq. (5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainItem {
    /// Latency slope `a` (ms per call/min per container).
    pub a: f64,
    /// Latency intercept `b` (ms).
    pub b: f64,
    /// Dominant resource demand `R` of one container.
    pub r: f64,
    /// Workload γ in calls per minute.
    pub gamma: f64,
}

impl ChainItem {
    /// Creates a chain item.
    pub fn new(a: f64, b: f64, r: f64, gamma: f64) -> Self {
        Self { a, b, r, gamma }
    }
}

/// Optimal latency targets for a sequential chain (Eq. 5).
///
/// Returns `None` when `sla_ms` does not exceed the intercept sum (the
/// latency floor).
///
/// ```
/// use erms_core::scaling::{allocate_chain, ChainItem};
///
/// // The more workload-sensitive microservice receives the larger target.
/// let chain = [
///     ChainItem::new(0.08, 3.0, 0.1, 10_000.0), // steep
///     ChainItem::new(0.02, 1.0, 0.1, 10_000.0), // flat
/// ];
/// let targets = allocate_chain(&chain, 100.0).expect("feasible");
/// assert!(targets[0] > targets[1]);
/// assert!((targets.iter().sum::<f64>() - 100.0).abs() < 1e-9);
/// ```
pub fn allocate_chain(items: &[ChainItem], sla_ms: f64) -> Option<Vec<f64>> {
    if items.is_empty() {
        return Some(Vec::new());
    }
    let floor: f64 = items.iter().map(|i| i.b).sum();
    if !(sla_ms.is_finite() && sla_ms > floor) {
        return None;
    }
    let weights: Vec<f64> = items
        .iter()
        .map(|i| (i.a * i.gamma * i.r).max(0.0).sqrt())
        .collect();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        // Degenerate chain (all slopes/workloads zero): split slack evenly.
        let share = (sla_ms - floor) / items.len() as f64;
        return Some(items.iter().map(|i| i.b + share).collect());
    }
    Some(
        items
            .iter()
            .zip(&weights)
            .map(|(i, w)| i.b + w / total * (sla_ms - floor))
            .collect(),
    )
}

/// Container count implied by a latency target: `n = a·γ / (target − b)`.
///
/// Returns `f64::INFINITY` when the target does not exceed the intercept.
pub fn containers_for_target(a: f64, gamma: f64, b: f64, target_ms: f64) -> f64 {
    let slack = target_ms - b;
    if slack <= 0.0 {
        return f64::INFINITY;
    }
    (a * gamma / slack).max(0.0)
}

/// Container count needed so a microservice meets a per-call latency
/// target in the chosen interval of its piecewise profile.
///
/// In the low interval the count must additionally keep the per-container
/// workload at or below the knee σ (`n ≥ γ/σ`), otherwise the container
/// would spill into the queueing regime and the low-interval latency
/// prediction would not hold.
pub fn containers_for_profile(
    profile: &crate::latency::LatencyProfile,
    interval: Interval,
    itf: Interference,
    gamma: f64,
    target_ms: f64,
) -> f64 {
    let p = profile.params(interval, itf);
    let base = containers_for_target(p.a, gamma, p.b, target_ms);
    match interval {
        Interval::High => base,
        Interval::Low => {
            let sigma = profile.cutoff_at(itf);
            if sigma.is_finite() && sigma > 0.0 {
                base.max(gamma / sigma)
            } else {
                base
            }
        }
    }
}

/// Minimal container count such that the *true* piecewise latency
/// `profile.eval(γ/n, itf)` stays at or below `target_ms` — i.e. the exact
/// inversion of the measured latency curve ("scale until under target").
///
/// Baseline schemes use this back-end so that scheme comparisons differ
/// only in how latency *targets* are chosen, exactly as in the paper's
/// evaluation. Returns `f64::INFINITY` when the target is below the
/// zero-load latency.
pub fn invert_profile(
    profile: &crate::latency::LatencyProfile,
    itf: Interference,
    gamma: f64,
    target_ms: f64,
) -> f64 {
    if gamma <= 0.0 {
        return 0.0;
    }
    let sigma = profile.cutoff_at(itf);
    let high = profile.params(Interval::High, itf);
    // Try the post-knee branch: valid when the implied per-container load
    // sits at or above the knee.
    if sigma.is_finite() {
        let g_high = (target_ms - high.b) / high.a;
        if g_high >= sigma && g_high > 0.0 {
            return gamma / g_high;
        }
    } else {
        let g = (target_ms - high.b) / high.a;
        return if g > 0.0 { gamma / g } else { f64::INFINITY };
    }
    // Pre-knee branch, capped at the knee.
    let low = profile.params(Interval::Low, itf);
    let g_low = ((target_ms - low.b) / low.a).min(sigma);
    if g_low > 0.0 {
        gamma / g_low
    } else {
        f64::INFINITY
    }
}

/// Optimal total resource usage of a sequential chain:
/// `(Σ√(a·γ·R))² / (SLA − Σb)` — the quantity compared in Theorem 1.
///
/// Returns `None` when the SLA is infeasible.
pub fn chain_resource_usage(items: &[ChainItem], sla_ms: f64) -> Option<f64> {
    let targets = allocate_chain(items, sla_ms)?;
    Some(
        items
            .iter()
            .zip(&targets)
            .map(|(i, t)| containers_for_target(i.a, i.gamma, i.b, *t) * i.r)
            .sum(),
    )
}

/// Configuration of the Erms scaler.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalerConfig {
    /// Cluster capacity used to normalise dominant resource demands (Eq. 3).
    pub capacity: ClusterCapacity,
    /// Maximum number of recomputations for the two-interval rule of
    /// §5.3.1. The paper processes each graph at most twice, i.e. one
    /// recomputation.
    pub interval_recomputations: usize,
    /// Ablation hook: force every microservice onto one interval instead
    /// of applying the §5.3.1 selection rule. `None` (the default) runs
    /// the real algorithm.
    pub interval_override: Option<Interval>,
}

impl Default for ScalerConfig {
    fn default() -> Self {
        Self {
            capacity: ClusterCapacity::paper_cluster(),
            interval_recomputations: 1,
            interval_override: None,
        }
    }
}

/// The outcome of latency-target computation for one service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePlan {
    /// The planned service.
    pub service: ServiceId,
    /// Folded latency target per graph node (indexed by `NodeId`), in ms.
    /// A node invoked `m` times per request carries an `m`-fold target.
    pub node_targets_ms: Vec<f64>,
    /// Per-call latency target for each microservice this service uses
    /// (minimum over its call sites), in ms.
    pub ms_targets_ms: BTreeMap<MicroserviceId, f64>,
    /// Fractional container demand per microservice implied by this
    /// service's targets and effective workloads.
    pub ms_containers: BTreeMap<MicroserviceId, f64>,
    /// The piecewise interval each microservice's parameters were drawn
    /// from after the §5.3.1 selection rule.
    pub ms_intervals: BTreeMap<MicroserviceId, Interval>,
}

impl ServicePlan {
    /// An all-zero plan for an idle service (zero workload).
    pub(crate) fn idle(app: &App, service: ServiceId) -> Result<Self> {
        let svc = app.service(service)?;
        let node_count = svc.graph.len();
        let mut ms_targets = BTreeMap::new();
        let mut ms_containers = BTreeMap::new();
        let mut ms_intervals = BTreeMap::new();
        for ms in svc.graph.microservices() {
            ms_targets.insert(ms, svc.sla.threshold_ms);
            ms_containers.insert(ms, 0.0);
            ms_intervals.insert(ms, Interval::Low);
        }
        Ok(Self {
            service,
            node_targets_ms: vec![svc.sla.threshold_ms; node_count],
            ms_targets_ms: ms_targets,
            ms_containers,
            ms_intervals,
        })
    }
}

/// The effective workload (calls per minute) each microservice must absorb
/// *ahead of or together with* one service's requests.
///
/// * Under exclusive use this is the service's own call rate at the
///   microservice.
/// * Under FCFS sharing it is still the service's own rate for *target*
///   computation (targets are allocated per service, §2.3), while container
///   sizing uses the total rate.
/// * Under priority scheduling it is the cumulative rate
///   `Σ_{l ≤ k} γ_{l,i}` of all services with equal or higher priority
///   (§5.3.2).
pub(crate) type EffectiveWorkloads = BTreeMap<MicroserviceId, f64>;

/// Builds the default effective-workload map of one service: its own call
/// rate at every microservice it uses.
pub fn own_workloads(
    app: &App,
    service: ServiceId,
    rate: RequestRate,
) -> Result<EffectiveWorkloads> {
    let svc = app.service(service)?;
    Ok(svc
        .graph
        .microservices()
        .into_iter()
        .map(|ms| (ms, rate.as_per_minute() * svc.graph.calls_per_request(ms)))
        .collect())
}

/// Computes latency targets and container demands for one service
/// (§5.3.1), given the effective workload its requests experience at every
/// microservice.
///
/// # Errors
///
/// * [`Error::SlaInfeasible`] when the SLA is below the latency floor;
/// * [`Error::UnknownService`] / [`Error::UnknownMicroservice`] for foreign
///   ids.
pub fn plan_service(
    app: &App,
    service: ServiceId,
    rate: RequestRate,
    eff_workloads: &EffectiveWorkloads,
    itf: Interference,
    config: &ScalerConfig,
) -> Result<ServicePlan> {
    plan_service_cached(app, service, rate, eff_workloads, itf, config, None)
}

/// [`plan_service`] with an optional [`PlanCache`] memoizing the graph
/// merge (Alg. 1).
///
/// With `Some(cache)` the merge tree for each `(graph, folded params)` pair
/// is computed once and replayed on subsequent rounds; the replay is
/// bit-identical to the cold computation (the cache hits only on exact
/// input equality), so plans are unchanged. With `None` this is exactly
/// [`plan_service`].
pub(crate) fn plan_service_cached(
    app: &App,
    service: ServiceId,
    rate: RequestRate,
    eff_workloads: &EffectiveWorkloads,
    itf: Interference,
    config: &ScalerConfig,
    cache: Option<&PlanCache>,
) -> Result<ServicePlan> {
    let svc = app.service(service)?;
    if svc.graph.is_empty() {
        return Err(Error::EmptyGraph { service });
    }
    let gamma_svc = rate.as_per_minute();
    if gamma_svc <= 0.0 {
        return ServicePlan::idle(app, service);
    }

    let mults = svc.graph.effective_multiplicities();
    let ms_list = svc.graph.microservices();
    // §5.3.1: start from the high-workload interval — it corresponds to
    // less resource consumption — then recompute with low-interval
    // parameters where the allocated target proves to sit below the knee.
    // (`interval_override` forces a single interval, for ablations.)
    let initial = config.interval_override.unwrap_or(Interval::High);
    let mut intervals: BTreeMap<MicroserviceId, Interval> =
        ms_list.iter().map(|&ms| (ms, initial)).collect();

    let mut pass = 0usize;
    loop {
        // Resolve folded per-node parameters at the chosen intervals.
        let mut node_params = Vec::with_capacity(svc.graph.len());
        for (id, node) in svc.graph.iter() {
            let ms = node.microservice;
            let m = app.microservice(ms)?;
            let p = m.profile.params(intervals[&ms], itf);
            let gamma_eff = eff_workloads
                .get(&ms)
                .copied()
                .unwrap_or_else(|| gamma_svc * svc.graph.calls_per_request(ms));
            let mult = mults[id.index()];
            // Folded slope: the node's latency is m·(a·γ_eff/n + b)
            //             = (a·m·γ_eff/γ_svc)·(γ_svc/n) + m·b.
            let a_fold = p.a * mult * (gamma_eff / gamma_svc);
            node_params.push(VirtualParams::new(
                a_fold,
                p.b * mult,
                m.resources.dominant_share(&config.capacity),
            ));
        }

        let (floor_ms, node_targets) = match cache {
            Some(cache) => {
                let merged = cache.merged(&svc.graph, &node_params);
                (
                    merged.floor_ms(),
                    merged.assign_targets(svc.sla.threshold_ms),
                )
            }
            None => {
                let merged = MergedGraph::merge(&svc.graph, &node_params);
                (
                    merged.floor_ms(),
                    merged.assign_targets(svc.sla.threshold_ms),
                )
            }
        };
        let node_targets = node_targets.ok_or(Error::SlaInfeasible {
            service,
            sla_ms: svc.sla.threshold_ms,
            floor_ms,
        })?;

        // Per-call targets: minimum over call sites, unfolded by the
        // effective multiplicity.
        let mut ms_targets: BTreeMap<MicroserviceId, f64> = BTreeMap::new();
        for (id, node) in svc.graph.iter() {
            let per_call = node_targets[id.index()] / mults[id.index()];
            ms_targets
                .entry(node.microservice)
                .and_modify(|t| *t = t.min(per_call))
                .or_insert(per_call);
        }

        // §5.3.1 interval check: a target below the knee latency means the
        // microservice actually operates in the low interval.
        let mut changed = false;
        if config.interval_override.is_none() && pass < config.interval_recomputations {
            for (&ms, &target) in &ms_targets {
                if intervals[&ms] == Interval::High {
                    let knee = app.microservice(ms)?.profile.knee_latency(itf);
                    if target < knee {
                        intervals.insert(ms, Interval::Low);
                        changed = true;
                    }
                }
            }
        }
        if changed {
            pass += 1;
            continue;
        }

        // Container demands from the final targets.
        let mut ms_containers = BTreeMap::new();
        for &ms in &ms_list {
            let m = app.microservice(ms)?;
            let gamma_eff = eff_workloads
                .get(&ms)
                .copied()
                .unwrap_or_else(|| gamma_svc * svc.graph.calls_per_request(ms));
            let n =
                containers_for_profile(&m.profile, intervals[&ms], itf, gamma_eff, ms_targets[&ms]);
            ms_containers.insert(ms, n);
        }

        return Ok(ServicePlan {
            service,
            node_targets_ms: node_targets,
            ms_targets_ms: ms_targets,
            ms_containers,
            ms_intervals: intervals,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, Sla};
    use crate::latency::LatencyProfile;
    use crate::resources::Resources;

    fn linear_app(slopes: &[(f64, f64)], sla: f64) -> (App, Vec<MicroserviceId>, ServiceId) {
        let mut b = AppBuilder::new("chain");
        let mss: Vec<_> = slopes
            .iter()
            .enumerate()
            .map(|(i, &(a, b_ms))| {
                b.microservice(
                    format!("m{i}"),
                    LatencyProfile::linear(a, b_ms),
                    Resources::default(),
                )
            })
            .collect();
        let svc = b.service("chain", Sla::p95_ms(sla), |g| {
            let mut prev = g.entry(mss[0]);
            for &ms in &mss[1..] {
                prev = g.call_seq(prev, ms);
            }
        });
        (b.build().unwrap(), mss, svc)
    }

    #[test]
    fn allocate_chain_matches_eq5() {
        let items = [
            ChainItem::new(0.08, 3.0, 0.1, 1000.0),
            ChainItem::new(0.02, 1.0, 0.1, 1000.0),
        ];
        let sla = 100.0;
        let targets = allocate_chain(&items, sla).unwrap();
        let w0 = (0.08f64 * 1000.0 * 0.1).sqrt();
        let w1 = (0.02f64 * 1000.0 * 0.1).sqrt();
        let slack = sla - 4.0;
        assert!((targets[0] - (3.0 + w0 / (w0 + w1) * slack)).abs() < 1e-9);
        assert!((targets[1] - (1.0 + w1 / (w0 + w1) * slack)).abs() < 1e-9);
        // Targets sum to the SLA.
        assert!((targets.iter().sum::<f64>() - sla).abs() < 1e-9);
    }

    #[test]
    fn allocate_chain_infeasible() {
        let items = [ChainItem::new(0.1, 60.0, 0.1, 100.0)];
        assert!(allocate_chain(&items, 50.0).is_none());
        assert!(allocate_chain(&items, 60.0).is_none());
        assert!(allocate_chain(&items, 61.0).is_some());
    }

    #[test]
    fn allocate_chain_empty_and_degenerate() {
        assert_eq!(allocate_chain(&[], 100.0), Some(vec![]));
        // Zero workload -> even slack split.
        let items = [
            ChainItem::new(0.1, 2.0, 0.1, 0.0),
            ChainItem::new(0.2, 4.0, 0.1, 0.0),
        ];
        let t = allocate_chain(&items, 26.0).unwrap();
        assert!((t[0] - 12.0).abs() < 1e-9);
        assert!((t[1] - 14.0).abs() < 1e-9);
    }

    #[test]
    fn chain_resource_usage_closed_form() {
        let items = [
            ChainItem::new(0.08, 3.0, 0.1, 1000.0),
            ChainItem::new(0.02, 1.0, 0.2, 1000.0),
        ];
        let sla = 100.0;
        let ru = chain_resource_usage(&items, sla).unwrap();
        let s: f64 = items.iter().map(|i| (i.a * i.gamma * i.r).sqrt()).sum();
        let expected = s * s / (sla - 4.0);
        assert!((ru - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn containers_infinite_below_intercept() {
        assert_eq!(containers_for_target(0.1, 100.0, 5.0, 5.0), f64::INFINITY);
        assert_eq!(containers_for_target(0.1, 100.0, 5.0, 4.0), f64::INFINITY);
        assert!(containers_for_target(0.1, 100.0, 5.0, 10.0).is_finite());
    }

    #[test]
    fn invert_profile_matches_eval() {
        let profile = LatencyProfile::kneed(0.002, 2.0, 0.05, 500.0);
        let itf = Interference::default();
        let gamma = 10_000.0;
        for target in [2.5, 3.0, 5.0, 20.0, 60.0] {
            let n = invert_profile(&profile, itf, gamma, target);
            assert!(n.is_finite(), "target {target}");
            let achieved = profile.eval(gamma / n, itf);
            assert!(
                achieved <= target + 1e-6,
                "target {target}: achieved {achieved} with n {n}"
            );
            // Minimality: slightly fewer containers would violate.
            let worse = profile.eval(gamma / (n * 0.98), itf);
            assert!(worse > target - 1e-6, "target {target} not minimal");
        }
        // Below the zero-load latency: impossible.
        assert_eq!(invert_profile(&profile, itf, gamma, 1.9), f64::INFINITY);
        // Zero workload: no containers needed.
        assert_eq!(invert_profile(&profile, itf, 0.0, 10.0), 0.0);
    }

    #[test]
    fn invert_profile_single_interval() {
        let profile = LatencyProfile::linear(0.01, 2.0);
        let itf = Interference::default();
        let n = invert_profile(&profile, itf, 1000.0, 12.0);
        assert!((n - 1.0).abs() < 1e-9, "{n}");
    }

    #[test]
    fn plan_service_sensitive_ms_gets_higher_target() {
        // Fig. 4: U's latency grows faster with workload than P's, so U is
        // given a higher latency target.
        let (app, mss, svc) = linear_app(&[(0.08, 3.0), (0.02, 2.0)], 300.0);
        let rate = RequestRate::per_minute(40_000.0);
        let eff = own_workloads(&app, svc, rate).unwrap();
        let plan = plan_service(
            &app,
            svc,
            rate,
            &eff,
            Interference::default(),
            &ScalerConfig::default(),
        )
        .unwrap();
        assert!(plan.ms_targets_ms[&mss[0]] > plan.ms_targets_ms[&mss[1]]);
        // Targets sum to the SLA for a chain.
        let sum: f64 = plan.node_targets_ms.iter().sum();
        assert!((sum - 300.0).abs() < 1e-6);
    }

    #[test]
    fn plan_service_meets_sla_in_model() {
        let (app, mss, svc) = linear_app(&[(0.08, 3.0), (0.02, 2.0), (0.05, 1.0)], 200.0);
        let rate = RequestRate::per_minute(20_000.0);
        let eff = own_workloads(&app, svc, rate).unwrap();
        let plan = plan_service(
            &app,
            svc,
            rate,
            &eff,
            Interference::default(),
            &ScalerConfig::default(),
        )
        .unwrap();
        // Evaluate the model latency at the allocated containers.
        let mut total = 0.0;
        for &ms in &mss {
            let m = app.microservice(ms).unwrap();
            let n = plan.ms_containers[&ms];
            let gamma = eff[&ms];
            total += m.profile.eval(gamma / n, Interference::default());
        }
        assert!(total <= 200.0 + 1e-6, "end-to-end {total}");
    }

    #[test]
    fn plan_service_idle_workload() {
        let (app, mss, svc) = linear_app(&[(0.08, 3.0), (0.02, 2.0)], 300.0);
        let plan = plan_service(
            &app,
            svc,
            RequestRate::per_minute(0.0),
            &BTreeMap::new(),
            Interference::default(),
            &ScalerConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.ms_containers[&mss[0]], 0.0);
    }

    #[test]
    fn plan_service_infeasible_sla() {
        let (app, _, svc) = linear_app(&[(0.08, 30.0), (0.02, 30.0)], 50.0);
        let rate = RequestRate::per_minute(1000.0);
        let eff = own_workloads(&app, svc, rate).unwrap();
        let err = plan_service(
            &app,
            svc,
            rate,
            &eff,
            Interference::default(),
            &ScalerConfig::default(),
        )
        .unwrap_err();
        match err {
            Error::SlaInfeasible { floor_ms, .. } => assert!((floor_ms - 60.0).abs() < 1e-9),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn two_interval_rule_switches_to_low() {
        // A kneed profile with a knee at 500 calls/min/container whose knee
        // latency is 0.002·500 + 2 = 3 ms. An SLA of 2.5 ms forces a target
        // below the knee latency, so the scaler must fall back to the
        // low-interval parameters and keep per-container workload at or
        // below the knee.
        let mut b = AppBuilder::new("kneed");
        let profile = LatencyProfile::kneed(0.002, 2.0, 0.05, 500.0);
        let ms = b.microservice("kneed", profile, Resources::default());
        let svc = b.service("s", Sla::p95_ms(2.5), |g| {
            g.entry(ms);
        });
        let app = b.build().unwrap();
        let rate = RequestRate::per_minute(1_000.0);
        let eff = own_workloads(&app, svc, rate).unwrap();
        let plan = plan_service(
            &app,
            svc,
            rate,
            &eff,
            Interference::default(),
            &ScalerConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.ms_intervals[&ms], Interval::Low);
        // Resulting per-container workload is at or below the knee.
        let per_container = eff[&ms] / plan.ms_containers[&ms];
        assert!(per_container <= 500.0 + 1e-6, "{per_container}");
    }

    #[test]
    fn own_workloads_counts_multiplicity() {
        let mut b = AppBuilder::new("mult");
        let a = b.microservice("a", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let c = b.microservice("c", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let svc = b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(a);
            g.call_seq_n(root, c, 3.0);
        });
        let app = b.build().unwrap();
        let eff = own_workloads(&app, svc, RequestRate::per_minute(100.0)).unwrap();
        assert!((eff[&c] - 300.0).abs() < 1e-9);
        assert!((eff[&a] - 100.0).abs() < 1e-9);
    }
}
