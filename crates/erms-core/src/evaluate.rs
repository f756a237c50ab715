//! Model-based end-to-end latency evaluation of a scaling plan.
//!
//! Given container counts, per-service workloads and interference, this
//! module composes the piecewise-linear microservice latencies (Eq. 15)
//! through each service's dependency graph — sequential stages add up,
//! parallel calls contribute their maximum — to predict the tail end-to-end
//! latency `latency_k(n⃗)` of Eq. (2) and check SLAs.
//!
//! The effective per-container workload at a microservice honours the
//! plan's scheduling policy: under FCFS every service's requests wait
//! behind the total arrival stream; under priority scheduling service `k`
//! waits only behind services with equal or higher priority (Eqs. 13–14).

use std::collections::BTreeMap;

use crate::app::{App, WorkloadVector};
use crate::autoscaler::ScalingPlan;
use crate::error::Result;
use crate::ids::{MicroserviceId, NodeId, ServiceId};
use crate::latency::Interference;

/// Interference as experienced per microservice (containers of different
/// microservices can sit on differently-loaded hosts, §5.4).
pub trait InterferenceMap {
    /// The interference experienced by the containers of `ms`.
    fn at(&self, ms: MicroserviceId) -> Interference;
}

impl InterferenceMap for Interference {
    fn at(&self, _: MicroserviceId) -> Interference {
        *self
    }
}

impl InterferenceMap for BTreeMap<MicroserviceId, Interference> {
    fn at(&self, ms: MicroserviceId) -> Interference {
        self.get(&ms).copied().unwrap_or_default()
    }
}

impl<F: Fn(MicroserviceId) -> Interference> InterferenceMap for F {
    fn at(&self, ms: MicroserviceId) -> Interference {
        self(ms)
    }
}

/// The workload (calls/min) whose processing delays requests of `service`
/// at microservice `ms`, given the plan's scheduling policy.
pub(crate) fn effective_workload(
    app: &App,
    plan: &ScalingPlan,
    workloads: &WorkloadVector,
    service: ServiceId,
    ms: MicroserviceId,
) -> Result<f64> {
    match plan.priority_order(ms) {
        Some(order) => {
            let mut acc = 0.0;
            for &other in order {
                let other_svc = app.service(other)?;
                acc +=
                    workloads.rate(other).as_per_minute() * other_svc.graph.calls_per_request(ms);
                if other == service {
                    return Ok(acc);
                }
            }
            // Service not in the recorded order (e.g. newly added): it is
            // effectively lowest priority and waits behind everything.
            Ok(app.microservice_workload(ms, workloads))
        }
        None => Ok(app.microservice_workload(ms, workloads)),
    }
}

/// Predicted tail latency of one microservice as experienced by `service`
/// under the plan. Returns `f64::INFINITY` when the microservice has load
/// but no containers.
pub fn microservice_latency(
    app: &App,
    plan: &ScalingPlan,
    workloads: &WorkloadVector,
    service: ServiceId,
    ms: MicroserviceId,
    itf: &impl InterferenceMap,
) -> Result<f64> {
    let gamma = effective_workload(app, plan, workloads, service, ms)?;
    let n = plan.containers(ms);
    let m = app.microservice(ms)?;
    if n == 0 {
        return Ok(if gamma > 0.0 { f64::INFINITY } else { 0.0 });
    }
    Ok(m.profile.eval(gamma / n as f64, itf.at(ms)))
}

/// Predicted tail end-to-end latency of a service under a plan (the
/// `latency_k(n⃗)` of Eq. 2), composing per-microservice latencies through
/// the dependency graph.
pub fn service_latency(
    app: &App,
    plan: &ScalingPlan,
    workloads: &WorkloadVector,
    service: ServiceId,
    itf: &impl InterferenceMap,
) -> Result<f64> {
    let svc = app.service(service)?;
    // Per-microservice latency is deployment-wide; memoise per ms.
    let mut cache: BTreeMap<MicroserviceId, f64> = BTreeMap::new();
    for ms in svc.graph.microservices() {
        let l = microservice_latency(app, plan, workloads, service, ms, itf)?;
        cache.insert(ms, l);
    }
    Ok(subtree_latency(svc, svc.graph.root(), &cache))
}

fn subtree_latency(
    svc: &crate::app::Service,
    node_id: NodeId,
    ms_latency: &BTreeMap<MicroserviceId, f64>,
) -> f64 {
    let node = svc.graph.node(node_id);
    let own = ms_latency[&node.microservice];
    let downstream: f64 = node
        .stages
        .iter()
        .map(|stage| {
            stage
                .iter()
                .map(|&child| subtree_latency(svc, child, ms_latency))
                .fold(0.0, f64::max)
        })
        .sum();
    node.multiplicity * (own + downstream)
}

/// Predicted end-to-end latencies for all services.
pub fn all_service_latencies(
    app: &App,
    plan: &ScalingPlan,
    workloads: &WorkloadVector,
    itf: &impl InterferenceMap,
) -> Result<BTreeMap<ServiceId, f64>> {
    app.services()
        .map(|(id, _)| service_latency(app, plan, workloads, id, itf).map(|l| (id, l)))
        .collect()
}

/// Workload sensitivity of a service under a plan: the derivative of its
/// end-to-end latency with respect to a *uniform relative* workload
/// increase (`dL/dε` at `γ' = γ·(1+ε)`), decomposed per microservice.
///
/// This is the quantity an operator needs to judge how fragile a plan is
/// to intra-window bursts: a microservice whose contribution dominates the
/// total is the one that blows up first when traffic spikes. Within the
/// linear model, each microservice's term is `slope·γ_eff/n` — the latency
/// it *already* spends above its intercept — scaled by its path
/// multiplicity, so balanced plans (Erms') spread the sensitivity while
/// skewed target splits concentrate it.
///
/// Returns `(total, per_microservice)`; the per-microservice map contains
/// every microservice on the service's worst (most sensitive) path.
pub fn workload_sensitivity(
    app: &App,
    plan: &ScalingPlan,
    workloads: &WorkloadVector,
    service: ServiceId,
    itf: &impl InterferenceMap,
) -> Result<(f64, BTreeMap<MicroserviceId, f64>)> {
    let svc = app.service(service)?;
    // Per-microservice marginal latency under a 1.0-relative increase:
    // slope at the operating point times the effective per-container load.
    let mut marginal: BTreeMap<MicroserviceId, f64> = BTreeMap::new();
    for ms in svc.graph.microservices() {
        let gamma = effective_workload(app, plan, workloads, service, ms)?;
        let n = plan.containers(ms);
        let m = app.microservice(ms)?;
        let value = if n == 0 {
            if gamma > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            let per_container = gamma / n as f64;
            let local_itf = itf.at(ms);
            let sigma = m.profile.cutoff_at(local_itf);
            let slope = if per_container <= sigma {
                m.profile.low.slope(local_itf)
            } else {
                m.profile.high.slope(local_itf)
            };
            slope.max(0.0) * per_container
        };
        marginal.insert(ms, value);
    }
    // Compose through the graph, following the *most sensitive* child per
    // stage (the path that will breach first under a burst).
    fn walk(
        svc: &crate::app::Service,
        node: NodeId,
        marginal: &BTreeMap<MicroserviceId, f64>,
        out: &mut BTreeMap<MicroserviceId, f64>,
    ) -> f64 {
        let n = svc.graph.node(node);
        let own = marginal[&n.microservice];
        let mut downstream = 0.0;
        let mut picks: Vec<NodeId> = Vec::new();
        for stage in &n.stages {
            let mut best: Option<(f64, NodeId)> = None;
            for &child in stage {
                let mut probe = BTreeMap::new();
                let v = walk(svc, child, marginal, &mut probe);
                if best.is_none_or(|(b, _)| v > b) {
                    best = Some((v, child));
                }
            }
            if let Some((v, child)) = best {
                downstream += v;
                picks.push(child);
            }
        }
        for child in picks {
            walk(svc, child, marginal, out);
        }
        out.entry(n.microservice)
            .and_modify(|v| *v += n.multiplicity * own)
            .or_insert(n.multiplicity * own);
        n.multiplicity * (own + downstream)
    }
    let mut contributions = BTreeMap::new();
    let total = walk(svc, svc.graph.root(), &marginal, &mut contributions);
    Ok((total, contributions))
}

/// Checks every service's predicted latency against its SLA.
pub fn plan_meets_slas(
    app: &App,
    plan: &ScalingPlan,
    workloads: &WorkloadVector,
    itf: &impl InterferenceMap,
) -> Result<bool> {
    for (id, svc) in app.services() {
        let latency = service_latency(app, plan, workloads, id, itf)?;
        if latency > svc.sla.threshold_ms + 1e-6 {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, RequestRate, Sla};
    use crate::latency::LatencyProfile;
    use crate::resources::Resources;

    fn fixture() -> (App, [MicroserviceId; 3], [ServiceId; 2]) {
        let mut b = AppBuilder::new("eval");
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

    fn rates(app: &App, r: f64) -> WorkloadVector {
        WorkloadVector::uniform(app, RequestRate::per_minute(r))
    }

    #[test]
    fn fcfs_latency_uses_total_workload() {
        let (app, [u, _, p], [s1, _]) = fixture();
        let mut plan = ScalingPlan::new("test");
        plan.set_containers(u, 10);
        plan.set_containers(MicroserviceId::new(1), 10);
        plan.set_containers(p, 10);
        let w = rates(&app, 1000.0);
        // P sees 2000 calls/min over 10 containers -> 200/container.
        let lp = microservice_latency(&app, &plan, &w, s1, p, &Interference::default()).unwrap();
        let expected = 0.03 * 200.0 + 2.0;
        assert!((lp - expected).abs() < 1e-9);
        // End-to-end = U latency + P latency.
        let lu = microservice_latency(&app, &plan, &w, s1, u, &Interference::default()).unwrap();
        let e2e = service_latency(&app, &plan, &w, s1, &Interference::default()).unwrap();
        assert!((e2e - (lu + lp)).abs() < 1e-9);
    }

    #[test]
    fn priority_reduces_high_priority_latency() {
        let (app, [_, _, p], [s1, s2]) = fixture();
        let mut fcfs = ScalingPlan::new("fcfs");
        for (id, _) in app.microservices() {
            fcfs.set_containers(id, 10);
        }
        let mut prio = fcfs.clone();
        prio.set_priority_order(p, vec![s1, s2]);
        let w = rates(&app, 1000.0);
        let itf = Interference::default();
        let l_fcfs = microservice_latency(&app, &fcfs, &w, s1, p, &itf).unwrap();
        let l_prio = microservice_latency(&app, &prio, &w, s1, p, &itf).unwrap();
        assert!(l_prio < l_fcfs, "prio {l_prio} vs fcfs {l_fcfs}");
        // Lowest-priority service still sees the total workload.
        let l2_fcfs = microservice_latency(&app, &fcfs, &w, s2, p, &itf).unwrap();
        let l2_prio = microservice_latency(&app, &prio, &w, s2, p, &itf).unwrap();
        assert!((l2_fcfs - l2_prio).abs() < 1e-9);
    }

    #[test]
    fn zero_containers_means_infinite_latency_under_load() {
        let (app, [u, _, _], [s1, _]) = fixture();
        let plan = ScalingPlan::new("empty");
        let w = rates(&app, 100.0);
        let l = microservice_latency(&app, &plan, &w, s1, u, &Interference::default()).unwrap();
        assert!(l.is_infinite());
        // And zero latency with zero load.
        let l0 = microservice_latency(
            &app,
            &plan,
            &WorkloadVector::new(),
            s1,
            u,
            &Interference::default(),
        )
        .unwrap();
        assert_eq!(l0, 0.0);
    }

    #[test]
    fn parallel_stage_takes_max() {
        let mut b = AppBuilder::new("par");
        let root_ms = b.microservice(
            "root",
            LatencyProfile::linear(0.0, 1.0),
            Resources::default(),
        );
        let fast = b.microservice(
            "fast",
            LatencyProfile::linear(0.0, 2.0),
            Resources::default(),
        );
        let slow = b.microservice(
            "slow",
            LatencyProfile::linear(0.0, 9.0),
            Resources::default(),
        );
        let svc = b.service("s", Sla::p95_ms(100.0), |g| {
            let r = g.entry(root_ms);
            g.call_par(r, &[fast, slow]);
        });
        let app = b.build().unwrap();
        let mut plan = ScalingPlan::new("t");
        for (id, _) in app.microservices() {
            plan.set_containers(id, 1);
        }
        let w = rates(&app, 10.0);
        let e2e = service_latency(&app, &plan, &w, svc, &Interference::default()).unwrap();
        assert!((e2e - (1.0 + 9.0)).abs() < 1e-9);
    }

    #[test]
    fn multiplicity_scales_subtree() {
        let mut b = AppBuilder::new("mult");
        let a = b.microservice("a", LatencyProfile::linear(0.0, 1.0), Resources::default());
        let c = b.microservice("c", LatencyProfile::linear(0.0, 4.0), Resources::default());
        let svc = b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(a);
            g.call_seq_n(root, c, 3.0);
        });
        let app = b.build().unwrap();
        let mut plan = ScalingPlan::new("t");
        for (id, _) in app.microservices() {
            plan.set_containers(id, 1);
        }
        let w = rates(&app, 10.0);
        let e2e = service_latency(&app, &plan, &w, svc, &Interference::default()).unwrap();
        assert!((e2e - (1.0 + 3.0 * 4.0)).abs() < 1e-9);
    }

    #[test]
    fn sensitivity_decomposes_the_burst_exposure() {
        let (app, [u, _, p], [s1, _]) = fixture();
        let mut plan = ScalingPlan::new("t");
        for (id, _) in app.microservices() {
            plan.set_containers(id, 10);
        }
        let w = rates(&app, 1000.0);
        let itf = Interference::default();
        let (total, contributions) = workload_sensitivity(&app, &plan, &w, s1, &itf).unwrap();
        // U: slope 0.08, per-container load 100 -> 8.0; P (shared, 2000
        // calls over 10 containers): slope 0.03 * 200 -> 6.0.
        assert!((contributions[&u] - 8.0).abs() < 1e-9, "{contributions:?}");
        assert!((contributions[&p] - 6.0).abs() < 1e-9);
        assert!((total - 14.0).abs() < 1e-9);
        // Halving U's containers doubles its exposure.
        plan.set_containers(u, 5);
        let (total2, _) = workload_sensitivity(&app, &plan, &w, s1, &itf).unwrap();
        assert!(total2 > total);
    }

    #[test]
    fn sensitivity_is_infinite_without_containers() {
        let (app, _, [s1, _]) = fixture();
        let plan = ScalingPlan::new("empty");
        let w = rates(&app, 100.0);
        let (total, _) =
            workload_sensitivity(&app, &plan, &w, s1, &Interference::default()).unwrap();
        assert!(total.is_infinite());
    }

    #[test]
    fn per_microservice_interference_map() {
        let (app, [u, _, _], [s1, _]) = fixture();
        let mut plan = ScalingPlan::new("t");
        for (id, _) in app.microservices() {
            plan.set_containers(id, 10);
        }
        let w = rates(&app, 1000.0);
        let mut map = BTreeMap::new();
        map.insert(u, Interference::new(0.9, 0.9));
        // Flat profiles ignore interference, so just exercise the paths.
        let a = service_latency(&app, &plan, &w, s1, &map).unwrap();
        let b2 = service_latency(&app, &plan, &w, s1, &Interference::default()).unwrap();
        assert!((a - b2).abs() < 1e-9);
        assert!(plan_meets_slas(&app, &plan, &w, &Interference::default()).unwrap());
    }
}
