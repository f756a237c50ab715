//! Weight-proportional latency-target distribution — the shared skeleton
//! of GrandSLAm and Rhythm.
//!
//! Both baselines split a service's SLA across its microservices in
//! proportion to fixed per-microservice weights (mean latency for
//! GrandSLAm; the mean·variance·correlation product for Rhythm). The split
//! walks the dependency graph: sequential components divide a budget in
//! proportion to their subtree weights, parallel components each receive
//! the full stage budget.

use std::collections::BTreeMap;

use erms_core::app::Service;
use erms_core::autoscaler::{ScalingContext, ScalingPlan};
use erms_core::error::Result;
use erms_core::ids::{MicroserviceId, NodeId, ServiceId};
use erms_core::latency::Interval;
use erms_core::multiplexing::assign_priorities;
use erms_core::scaling::{invert_profile, ServicePlan};

/// Subtree weight: own weight plus, per stage, the maximum child subtree
/// weight (parallel calls overlap, so only the heaviest matters for the
/// budget split).
fn subtree_weight(svc: &Service, node: NodeId, weights: &BTreeMap<MicroserviceId, f64>) -> f64 {
    let n = svc.graph.node(node);
    let own = weights.get(&n.microservice).copied().unwrap_or(0.0);
    let downstream: f64 = n
        .stages
        .iter()
        .map(|stage| {
            stage
                .iter()
                .map(|&c| subtree_weight(svc, c, weights))
                .fold(0.0, f64::max)
        })
        .sum();
    n.multiplicity * (own.max(1e-9) + downstream)
}

fn distribute(
    svc: &Service,
    node: NodeId,
    budget: f64,
    weights: &BTreeMap<MicroserviceId, f64>,
    out: &mut BTreeMap<MicroserviceId, f64>,
) {
    let n = svc.graph.node(node);
    let total = subtree_weight(svc, node, weights) / n.multiplicity;
    let own = weights
        .get(&n.microservice)
        .copied()
        .unwrap_or(0.0)
        .max(1e-9);
    let per_invocation = budget / n.multiplicity;
    let own_target = per_invocation * own / total;
    out.entry(n.microservice)
        .and_modify(|t| *t = t.min(own_target))
        .or_insert(own_target);
    for stage in &n.stages {
        let stage_weight = stage
            .iter()
            .map(|&c| subtree_weight(svc, c, weights))
            .fold(0.0, f64::max);
        let stage_budget = per_invocation * stage_weight / total;
        for &child in stage {
            distribute(svc, child, stage_budget, weights, out);
        }
    }
}

/// Splits a service's SLA into per-microservice latency targets in
/// proportion to the given weights (minimum across call sites when a
/// microservice appears several times).
pub(crate) fn targets_by_weight(
    svc: &Service,
    weights: &BTreeMap<MicroserviceId, f64>,
) -> BTreeMap<MicroserviceId, f64> {
    let mut out = BTreeMap::new();
    distribute(
        svc,
        svc.graph.root(),
        svc.sla.threshold_ms,
        weights,
        &mut out,
    );
    out
}

/// Builds a complete scaling plan from per-(service, microservice)
/// targets: the final target of a shared microservice is the minimum
/// across services (§2.3), containers come from exact inversion of the
/// measured latency curve, and targets below the zero-load latency are
/// clamped just above it (the real systems cannot allocate infinite
/// containers; the shortfall surfaces as SLA violations, as in Figs. 11–12).
pub(crate) fn plan_from_targets(
    ctx: &ScalingContext<'_>,
    scheme: &str,
    per_service_targets: &BTreeMap<ServiceId, BTreeMap<MicroserviceId, f64>>,
    priority_scheduling: bool,
    believed_itf: erms_core::latency::Interference,
) -> Result<ScalingPlan> {
    let app = ctx.app;
    // The statistics-driven baselines size containers against the latency
    // curves they last profiled — at `believed_itf`, the cluster's average
    // interference during their (infrequent, offline) profiling runs. They
    // are not interference-aware (§2.2), so when the live utilisation in
    // `ctx.interference` exceeds the profiled level the true curves are
    // steeper than believed and the allocation undershoots; that gap is
    // the main source of their SLA violations in Fig. 12.
    let itf = believed_itf;
    let mut plan = ScalingPlan::new(scheme);

    // Record per-service plans (targets only; container demand filled
    // below) so priority assignment can reuse the standard rule.
    let mut service_plans: BTreeMap<ServiceId, ServicePlan> = BTreeMap::new();
    for (sid, svc) in app.services() {
        let targets = per_service_targets.get(&sid).cloned().unwrap_or_default();
        service_plans.insert(
            sid,
            ServicePlan {
                service: sid,
                node_targets_ms: vec![0.0; svc.graph.len()],
                ms_targets_ms: targets,
                ms_containers: BTreeMap::new(),
                ms_intervals: BTreeMap::new(),
            },
        );
    }

    let priorities = if priority_scheduling {
        assign_priorities(app, &service_plans)
    } else {
        BTreeMap::new()
    };

    // Demand per microservice.
    let mut demand: BTreeMap<MicroserviceId, f64> = BTreeMap::new();
    for (ms, m) in app.microservices() {
        let zero_load = m.profile.params(Interval::Low, itf).b.max(0.0);
        let users = app.services_using(ms);
        if users.is_empty() {
            continue;
        }
        let total_gamma = app.microservice_workload(ms, ctx.workloads);
        if total_gamma <= 0.0 {
            demand.insert(ms, 0.0);
            continue;
        }
        // Feedback scale-out stops when adding containers no longer moves
        // the needle: below ~25% of the knee load, latency is within a few
        // percent of the zero-load floor, so the schemes stop there and
        // accept the (violating) latency — they cannot buy below-floor
        // latency with containers.
        let sigma = m.profile.cutoff_at(itf);
        let n_cap = if sigma.is_finite() && sigma > 0.0 {
            total_gamma / (0.25 * sigma)
        } else {
            f64::INFINITY
        };
        let n = if let Some(order) = priorities.get(&ms) {
            // Priority variant: service k's constraint sees the cumulative
            // workload of higher-or-equal-priority services at its own
            // target.
            let mut acc_gamma = 0.0;
            let mut worst: f64 = 0.0;
            for &svc in order {
                let svc_graph = &app.service(svc)?.graph;
                acc_gamma +=
                    ctx.workloads.rate(svc).as_per_minute() * svc_graph.calls_per_request(ms);
                let target = service_plans[&svc]
                    .ms_targets_ms
                    .get(&ms)
                    .copied()
                    .unwrap_or(f64::INFINITY)
                    .max(zero_load * 1.02 + 0.01);
                worst = worst.max(invert_profile(&m.profile, itf, acc_gamma, target));
            }
            worst
        } else {
            let min_target = users
                .iter()
                .filter_map(|svc| service_plans[svc].ms_targets_ms.get(&ms))
                .fold(f64::INFINITY, |a, &b| a.min(b))
                .max(zero_load * 1.02 + 0.01);
            invert_profile(&m.profile, itf, total_gamma, min_target)
        };
        demand.insert(ms, n.min(n_cap));
    }

    for (ms, n) in demand {
        let count = if n <= 0.0 {
            0
        } else if n.is_finite() {
            n.ceil().max(1.0) as u32
        } else {
            // Clamping above should prevent this; cap defensively.
            u32::MAX / 2
        };
        plan.set_containers(ms, count);
    }
    for (ms, order) in priorities {
        plan.set_priority_order(ms, order);
    }
    // Record each service's believed fractional demand (its own target at
    // the total workload) for glass-box inspection.
    for (_, sp) in service_plans.iter_mut() {
        let targets: Vec<(MicroserviceId, f64)> =
            sp.ms_targets_ms.iter().map(|(&ms, &t)| (ms, t)).collect();
        for (ms, target) in targets {
            if let Ok(m) = app.microservice(ms) {
                let gamma = app.microservice_workload(ms, ctx.workloads);
                let zero_load = m.profile.params(Interval::Low, itf).b.max(0.0);
                let n = invert_profile(&m.profile, itf, gamma, target.max(zero_load * 1.02 + 0.01));
                sp.ms_containers.insert(ms, n);
            }
        }
    }
    for (_, sp) in service_plans {
        plan.set_service_plan(sp);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::{AppBuilder, Sla};
    use erms_core::latency::LatencyProfile;
    use erms_core::resources::Resources;

    #[test]
    fn weights_split_budget_proportionally_on_a_chain() {
        let mut b = AppBuilder::new("w");
        let x = b.microservice("x", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let y = b.microservice("y", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let svc = b.service("s", Sla::p95_ms(90.0), |g| {
            let root = g.entry(x);
            g.call_seq(root, y);
        });
        let app = b.build().unwrap();
        let weights: BTreeMap<_, _> = [(x, 2.0), (y, 1.0)].into_iter().collect();
        let targets = targets_by_weight(app.service(svc).unwrap(), &weights);
        assert!((targets[&x] - 60.0).abs() < 1e-9, "{targets:?}");
        assert!((targets[&y] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_children_share_the_stage_budget() {
        let mut b = AppBuilder::new("w");
        let root_ms = b.microservice("r", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let p1 = b.microservice(
            "p1",
            LatencyProfile::linear(0.01, 1.0),
            Resources::default(),
        );
        let p2 = b.microservice(
            "p2",
            LatencyProfile::linear(0.01, 1.0),
            Resources::default(),
        );
        let svc = b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(root_ms);
            g.call_par(root, &[p1, p2]);
        });
        let app = b.build().unwrap();
        let weights: BTreeMap<_, _> = [(root_ms, 1.0), (p1, 1.0), (p2, 1.0)].into_iter().collect();
        let targets = targets_by_weight(app.service(svc).unwrap(), &weights);
        // Subtree weight = 1 + max(1,1) = 2: root 50, each parallel child
        // the full 50 of the stage.
        assert!((targets[&root_ms] - 50.0).abs() < 1e-9);
        assert!((targets[&p1] - 50.0).abs() < 1e-9);
        assert!((targets[&p2] - 50.0).abs() < 1e-9);
    }
}
