//! Seeded DES cross-validation of analytic plans.
//!
//! The replication-heavy figures (Fig. 12 SLA violations, Fig. 13 dynamic
//! workload, Fig. 16 trace-driven) validate their analytically planned
//! allocations by *simulating* the plan N times with independently seeded
//! replications and reducing the results in replication order. All of them
//! go through [`erms_sim::replicate()`], so the replications run in parallel
//! on multi-core hosts while staying bit-identical to a serial loop
//! (seed = base ⊕ index, ordered reduction — see `erms-sim/src/replicate.rs`).

use std::collections::BTreeMap;

use erms_core::app::{App, WorkloadVector};
use erms_core::autoscaler::ScalingPlan;
use erms_core::latency::Interference;
use erms_sim::replicate;
use erms_sim::runtime::{SimConfig, SimResult, Simulation};
use erms_sim::service_time::derive_from_profile;

/// How a plan is simulated: window length, warm-up, replication count.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationConfig {
    /// Simulated window per replication, ms.
    pub duration_ms: f64,
    /// Warm-up excluded from statistics, ms.
    pub warmup_ms: f64,
    /// Number of seeded replications.
    pub replications: usize,
    /// Base seed; replication `i` runs at `base_seed ^ i`.
    pub base_seed: u64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            duration_ms: 20_000.0,
            warmup_ms: 2_000.0,
            replications: 8,
            base_seed: 12,
        }
    }
}

/// Simulates `plan` under `workloads` once per replication (in parallel,
/// deterministically) and returns the per-replication results in
/// replication order.
///
/// Service-time models and thread counts are derived from each
/// microservice's fitted latency profile ([`derive_from_profile`]), the
/// same closing-the-loop derivation the DES micro-bench uses; container
/// counts and priority orders come from the plan itself.
pub fn simulate_plan_replications(
    app: &App,
    plan: &ScalingPlan,
    workloads: &WorkloadVector,
    itf: Interference,
    cfg: ReplicationConfig,
) -> Vec<SimResult> {
    let containers: BTreeMap<_, _> = app
        .microservices()
        .map(|(ms, _)| (ms, plan.containers(ms).max(1)))
        .collect();
    let mut priorities = BTreeMap::new();
    for ms in app.shared_microservices() {
        if let Some(order) = plan.priority_order(ms) {
            priorities.insert(ms, order.to_vec());
        }
    }
    replicate(cfg.base_seed, cfg.replications, |seed, _| {
        let mut sim = Simulation::new(
            app,
            SimConfig {
                duration_ms: cfg.duration_ms,
                warmup_ms: cfg.warmup_ms,
                seed,
                trace_sampling: 0.0,
                ..SimConfig::default()
            },
        );
        for (ms, m) in app.microservices() {
            let (model, threads) = derive_from_profile(&m.profile, itf, 0.75);
            sim.set_service_time(ms, model);
            sim.set_threads(ms, threads);
        }
        sim.set_uniform_interference(itf);
        sim.run(workloads, &containers, &priorities)
            .expect("replication simulates")
    })
}

/// Mean simulated SLA-violation rate and mean simulated-P95/SLA ratio
/// across all services and replications.
///
/// Services without completed requests in a replication (e.g. zero
/// workload) are skipped, matching how the analytic sweep averages only
/// over planned services.
pub fn replication_summary(app: &App, results: &[SimResult]) -> (f64, f64) {
    let mut violation = 0.0;
    let mut ratio = 0.0;
    let mut count = 0usize;
    for result in results {
        for (sid, svc) in app.services() {
            let Some(latencies) = result.service_latencies.get(&sid) else {
                continue;
            };
            if latencies.is_empty() {
                continue;
            }
            let sla = svc.sla.threshold_ms;
            violation += result.violation_rate(sid, sla);
            ratio += (result.latency_percentile(sid, 0.95) / sla).min(10.0);
            count += 1;
        }
    }
    let n = count.max(1) as f64;
    (violation / n, ratio / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::RequestRate;
    use erms_core::manager::ErmsScaler;
    use erms_sim::replicate_serial;
    use erms_workload::apps::fig5_app;

    /// The figure harnesses' replication path is bit-identical to a serial
    /// loop and distinct seeds genuinely vary the results.
    #[test]
    fn plan_replications_match_serial_and_vary_by_seed() {
        let (app, _, [s1, s2]) = fig5_app(300.0);
        let itf = Interference::new(0.3, 0.3);
        let mut w = WorkloadVector::new();
        w.set(s1, RequestRate::per_minute(12_000.0));
        w.set(s2, RequestRate::per_minute(12_000.0));
        let plan = ErmsScaler::new(&app).plan(&w, itf).expect("feasible");
        let cfg = ReplicationConfig {
            duration_ms: 2_000.0,
            warmup_ms: 200.0,
            replications: 4,
            base_seed: 5,
        };
        let parallel = simulate_plan_replications(&app, &plan, &w, itf, cfg);
        let serial: Vec<_> = replicate_serial(cfg.base_seed, cfg.replications, |seed, _| {
            let one = ReplicationConfig {
                replications: 1,
                base_seed: seed,
                ..cfg
            };
            simulate_plan_replications(&app, &plan, &w, itf, one)
                .pop()
                .expect("one replication")
        });
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.generated, s.generated);
            assert_eq!(p.completed, s.completed);
            assert_eq!(p.service_latencies, s.service_latencies);
        }
        assert!(
            parallel.windows(2).any(|w| w[0].generated != w[1].generated
                || w[0].service_latencies != w[1].service_latencies),
            "distinct seeds should produce distinct replications"
        );
        let (violation, ratio) = replication_summary(&app, &parallel);
        assert!((0.0..=1.0).contains(&violation));
        assert!(ratio > 0.0);
    }
}
