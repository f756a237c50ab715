//! Rhythm \[45\]: component-distinguishable latency-target allocation.
//!
//! Rhythm scores each microservice by the *normalised product* of its mean
//! latency, its latency variance, and the correlation coefficient between
//! its latency and the end-to-end service latency (§6.1), then splits the
//! SLA in proportion to those contributions. Like GrandSLAm, the scores
//! are static statistics and do not follow the live workload.

use std::collections::BTreeMap;

use erms_core::autoscaler::{Autoscaler, ScalingContext, ScalingPlan};
use erms_core::error::Result;
use erms_core::ids::{MicroserviceId, ServiceId};

use crate::stats;
use crate::targets::{plan_from_targets, targets_by_weight};

/// The Rhythm autoscaler.
#[derive(Debug, Clone)]
pub struct Rhythm {
    priority_scheduling: bool,
    /// The interference level the scheme profiled at (Rhythm is not
    /// interference-aware, §2.2).
    pub reference_interference: erms_core::latency::Interference,
}

impl Default for Rhythm {
    fn default() -> Self {
        Self {
            priority_scheduling: false,
            reference_interference: erms_core::latency::Interference::new(0.30, 0.28),
        }
    }
}

impl Rhythm {
    /// Standard Rhythm (FCFS at shared microservices).
    pub fn new() -> Self {
        Self::default()
    }

    /// The Fig. 14(b) variant with priority scheduling bolted on.
    pub fn with_priority_scheduling() -> Self {
        Self {
            priority_scheduling: true,
            ..Self::default()
        }
    }
}

impl Autoscaler for Rhythm {
    fn name(&self) -> &str {
        if self.priority_scheduling {
            "rhythm+prio"
        } else {
            "rhythm"
        }
    }

    fn plan(&mut self, ctx: &ScalingContext<'_>) -> Result<ScalingPlan> {
        let table = stats::derive(ctx.app, self.reference_interference);
        let mut per_service: BTreeMap<ServiceId, BTreeMap<MicroserviceId, f64>> = BTreeMap::new();
        for (sid, svc) in ctx.app.services() {
            let raw: BTreeMap<MicroserviceId, f64> = svc
                .graph
                .microservices()
                .into_iter()
                .map(|ms| {
                    let s = table.get(sid, ms);
                    (ms, s.mean * s.variance * s.correlation.max(0.0))
                })
                .collect();
            // Normalise so the weights are comparable across services and
            // degenerate (all-zero) cases fall back to uniform weights.
            let max = raw.values().copied().fold(0.0, f64::max);
            let weights: BTreeMap<MicroserviceId, f64> = raw
                .into_iter()
                .map(|(ms, w)| (ms, if max > 0.0 { (w / max).max(1e-6) } else { 1.0 }))
                .collect();
            per_service.insert(sid, targets_by_weight(svc, &weights));
        }
        plan_from_targets(
            ctx,
            self.name(),
            &per_service,
            self.priority_scheduling,
            self.reference_interference,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::{AppBuilder, RequestRate, Sla, WorkloadVector};
    use erms_core::latency::{Interference, LatencyProfile};
    use erms_core::resources::Resources;
    use erms_core::scaling::ScalerConfig;

    #[test]
    fn plans_and_differs_from_uniform() {
        let mut b = AppBuilder::new("rhythm");
        let hot = b.microservice(
            "hot",
            LatencyProfile::kneed(0.02, 6.0, 0.1, 500.0),
            Resources::default(),
        );
        let cold = b.microservice(
            "cold",
            LatencyProfile::kneed(0.001, 1.0, 0.004, 1500.0),
            Resources::default(),
        );
        let svc = b.service("s", Sla::p95_ms(120.0), |g| {
            let root = g.entry(hot);
            g.call_seq(root, cold);
        });
        let app = b.build().unwrap();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(15_000.0));
        let config = ScalerConfig::default();
        let ctx = ScalingContext {
            app: &app,
            workloads: &w,
            interference: Interference::default(),
            config: &config,
        };
        let plan = Rhythm::new().plan(&ctx).unwrap();
        let sp = plan.service_plan(svc).unwrap();
        // The volatile, correlated microservice receives most of the SLA.
        assert!(sp.ms_targets_ms[&hot] > 3.0 * sp.ms_targets_ms[&cold]);
        assert!(plan.containers(hot) > 0 && plan.containers(cold) > 0);
    }

    #[test]
    fn priority_variant_sets_orders() {
        let mut b = AppBuilder::new("rhythm-prio");
        let u = b.microservice(
            "u",
            LatencyProfile::kneed(0.02, 4.0, 0.1, 500.0),
            Resources::default(),
        );
        let h = b.microservice(
            "h",
            LatencyProfile::kneed(0.002, 2.0, 0.01, 1200.0),
            Resources::default(),
        );
        let p = b.microservice(
            "p",
            LatencyProfile::kneed(0.005, 2.0, 0.02, 900.0),
            Resources::default(),
        );
        b.service("s1", Sla::p95_ms(200.0), |g| {
            let root = g.entry(u);
            g.call_seq(root, p);
        });
        b.service("s2", Sla::p95_ms(200.0), |g| {
            let root = g.entry(h);
            g.call_seq(root, p);
        });
        let app = b.build().unwrap();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(10_000.0));
        let config = ScalerConfig::default();
        let ctx = ScalingContext {
            app: &app,
            workloads: &w,
            interference: Interference::default(),
            config: &config,
        };
        let plan = Rhythm::with_priority_scheduling().plan(&ctx).unwrap();
        assert!(plan.has_priorities());
        assert_eq!(plan.scheme, "rhythm+prio");
        assert!(plan.priority_order(p).is_some());
    }
}
