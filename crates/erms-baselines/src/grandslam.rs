//! GrandSLAm \[22\]: latency targets proportional to mean microservice
//! latency.
//!
//! GrandSLAm "computes latency targets for each service such that it is
//! proportional to its average latency under different workloads" (§6.1).
//! The targets are fixed statistics — they do not react to the current
//! workload or interference, which is exactly the limitation Fig. 4
//! demonstrates.

use std::collections::BTreeMap;

use erms_core::autoscaler::{Autoscaler, ScalingContext, ScalingPlan};
use erms_core::error::Result;
use erms_core::ids::{MicroserviceId, ServiceId};

use crate::stats;
use crate::targets::{plan_from_targets, targets_by_weight};

/// The GrandSLAm autoscaler.
#[derive(Debug, Clone)]
pub struct GrandSlam {
    priority_scheduling: bool,
    /// The interference level the scheme profiled at. GrandSLAm is not
    /// interference-aware (§2.2): its statistics and capacity estimates
    /// are anchored here no matter what the cluster currently looks like.
    pub reference_interference: erms_core::latency::Interference,
}

impl Default for GrandSlam {
    fn default() -> Self {
        Self {
            priority_scheduling: false,
            reference_interference: erms_core::latency::Interference::new(0.30, 0.28),
        }
    }
}

impl GrandSlam {
    /// Standard GrandSLAm (FCFS at shared microservices).
    pub fn new() -> Self {
        Self::default()
    }

    /// The Fig. 14(b) variant: GrandSLAm targets with Erms-style priority
    /// scheduling bolted on at shared microservices.
    pub fn with_priority_scheduling() -> Self {
        Self {
            priority_scheduling: true,
            ..Self::default()
        }
    }
}

impl Autoscaler for GrandSlam {
    fn name(&self) -> &str {
        if self.priority_scheduling {
            "grandslam+prio"
        } else {
            "grandslam"
        }
    }

    fn plan(&mut self, ctx: &ScalingContext<'_>) -> Result<ScalingPlan> {
        let table = stats::derive(ctx.app, self.reference_interference);
        let mut per_service: BTreeMap<ServiceId, BTreeMap<MicroserviceId, f64>> = BTreeMap::new();
        for (sid, svc) in ctx.app.services() {
            let weights: BTreeMap<MicroserviceId, f64> = svc
                .graph
                .microservices()
                .into_iter()
                .map(|ms| (ms, table.get(sid, ms).mean))
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

    fn fixture() -> (erms_core::app::App, [MicroserviceId; 2]) {
        let mut b = AppBuilder::new("gs");
        let u = b.microservice(
            "u",
            LatencyProfile::kneed(0.01, 4.0, 0.05, 600.0),
            Resources::default(),
        );
        let p = b.microservice(
            "p",
            LatencyProfile::kneed(0.002, 1.5, 0.01, 1200.0),
            Resources::default(),
        );
        b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(u);
            g.call_seq(root, p);
        });
        (b.build().unwrap(), [u, p])
    }

    #[test]
    fn allocates_containers_for_load() {
        let (app, [u, p]) = fixture();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(20_000.0));
        let config = ScalerConfig::default();
        let ctx = ScalingContext {
            app: &app,
            workloads: &w,
            interference: Interference::default(),
            config: &config,
        };
        let plan = GrandSlam::new().plan(&ctx).unwrap();
        assert!(plan.containers(u) > 0);
        assert!(plan.containers(p) > 0);
        assert!(!plan.has_priorities());
        assert_eq!(plan.scheme, "grandslam");
    }

    #[test]
    fn targets_follow_mean_latency_not_sensitivity() {
        // u has both the larger mean AND the larger sensitivity here; the
        // target ratio should match the mean ratio, not the √(aγR) ratio.
        let (app, [u, p]) = fixture();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(20_000.0));
        let config = ScalerConfig::default();
        let ctx = ScalingContext {
            app: &app,
            workloads: &w,
            interference: Interference::default(),
            config: &config,
        };
        let plan = GrandSlam::new().plan(&ctx).unwrap();
        let sp = plan
            .service_plan(erms_core::ids::ServiceId::new(0))
            .unwrap();
        let tu = sp.ms_targets_ms[&u];
        let tp = sp.ms_targets_ms[&p];
        assert!((tu + tp - 100.0).abs() < 1e-6, "targets fill the SLA");
        assert!(tu > tp, "u has the larger mean latency");
    }

    #[test]
    fn zero_workload_zero_containers() {
        let (app, [u, _]) = fixture();
        let w = WorkloadVector::new();
        let config = ScalerConfig::default();
        let ctx = ScalingContext {
            app: &app,
            workloads: &w,
            interference: Interference::default(),
            config: &config,
        };
        let plan = GrandSlam::new().plan(&ctx).unwrap();
        assert_eq!(plan.containers(u), 0);
    }
}
