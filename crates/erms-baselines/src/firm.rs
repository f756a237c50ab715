//! Firm \[35\]: critical-component localisation plus an incremental
//! (RL-style) resource tuner.
//!
//! Firm first identifies, per critical path, the microservice with the
//! heaviest impact on end-to-end latency, then lets a reinforcement-
//! learning agent adjust that microservice's resources step by step. We
//! reproduce the *control behaviour* the paper compares against:
//!
//! * state persists across scaling rounds (the RL policy refines an
//!   existing allocation instead of re-solving);
//! * each round applies a bounded number of scaling actions, so reaction
//!   to workload spikes is delayed (the "late detection of bottleneck
//!   microservices" of §6.3.2);
//! * only the detected critical microservice is tuned per action, so
//!   secondary bottlenecks surface one at a time and the scheme tends to
//!   over-provision the bottleneck while leaving imbalances elsewhere
//!   (the long resource tail of Fig. 11a).

use std::collections::BTreeMap;

use erms_core::app::App;
use erms_core::autoscaler::{Autoscaler, ScalingContext, ScalingPlan};
use erms_core::error::Result;
use erms_core::evaluate::{microservice_latency, service_latency};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::Interval;

/// The Firm autoscaler.
#[derive(Debug, Clone)]
pub struct Firm {
    /// Maximum scaling actions per round (RL step budget).
    pub steps_per_round: usize,
    /// Multiplicative scale-up per action.
    pub up_factor: f64,
    /// Latency-to-SLA ratio below which the agent reclaims resources
    /// (the resource-cost term of its reward; higher = more aggressive
    /// reclaim, running closer to the SLO).
    pub down_threshold: f64,
    state: BTreeMap<MicroserviceId, u32>,
}

impl Firm {
    /// Creates a Firm tuner with the default step budget (12 actions per
    /// round).
    pub fn new() -> Self {
        Self {
            steps_per_round: 12,
            up_factor: 1.25,
            down_threshold: 0.7,
            state: BTreeMap::new(),
        }
    }

    /// Overrides the per-round action budget.
    #[must_use]
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps_per_round = steps;
        self
    }

    /// Overrides the latency-headroom threshold below which resources are
    /// reclaimed (higher = more eager down-scaling).
    #[must_use]
    pub fn with_down_threshold(mut self, threshold: f64) -> Self {
        self.down_threshold = threshold;
        self
    }

    /// Clears learned state (fresh deployment).
    pub fn reset(&mut self) {
        self.state.clear();
    }

    fn as_plan(&self) -> ScalingPlan {
        let mut plan = ScalingPlan::new("firm");
        for (&ms, &n) in &self.state {
            plan.set_containers(ms, n);
        }
        plan
    }

    /// Initial allocation for newly-seen microservices: a utilisation-
    /// driven default that lands *past* the latency knee (classic
    /// CPU-utilisation autoscaling sits at ~70-80% utilisation, which in
    /// latency terms is beyond the cut-off) — the RL agent is expected to
    /// fix whatever turns out to be critical.
    fn ensure_initialised(&mut self, ctx: &ScalingContext<'_>) -> Result<()> {
        for (ms, m) in ctx.app.microservices() {
            let gamma = ctx.app.microservice_workload(ms, ctx.workloads);
            let entry = self.state.entry(ms).or_insert(0);
            if *entry == 0 && gamma > 0.0 {
                let sigma = m.profile.cutoff_at(ctx.interference);
                let per_container = if sigma.is_finite() {
                    sigma * 1.25
                } else {
                    1000.0
                };
                *entry = (gamma / per_container).ceil().max(1.0) as u32;
            }
        }
        Ok(())
    }

    /// The critical microservice of a service: the one contributing the
    /// most latency along the service's critical (max-latency) path.
    fn critical_microservice(
        &self,
        app: &App,
        plan: &ScalingPlan,
        ctx: &ScalingContext<'_>,
        service: ServiceId,
    ) -> Result<Option<MicroserviceId>> {
        let svc = app.service(service)?;
        let mut best: Option<(f64, MicroserviceId)> = None;
        for ms in svc.graph.microservices() {
            let l = microservice_latency(app, plan, ctx.workloads, service, ms, &ctx.interference)?;
            if best.is_none_or(|(bl, _)| l > bl) {
                best = Some((l, ms));
            }
        }
        Ok(best.map(|(_, ms)| ms))
    }
}

impl Default for Firm {
    fn default() -> Self {
        Self::new()
    }
}

impl Autoscaler for Firm {
    fn name(&self) -> &str {
        "firm"
    }

    fn plan(&mut self, ctx: &ScalingContext<'_>) -> Result<ScalingPlan> {
        self.ensure_initialised(ctx)?;
        let app = ctx.app;
        for _ in 0..self.steps_per_round {
            let plan = self.as_plan();
            // Worst latency-to-SLA ratio across active services.
            let mut worst: Option<(f64, ServiceId)> = None;
            for (sid, svc) in app.services() {
                if ctx.workloads.rate(sid).as_per_minute() <= 0.0 {
                    continue;
                }
                let latency = service_latency(app, &plan, ctx.workloads, sid, &ctx.interference)?;
                let ratio = latency / svc.sla.threshold_ms;
                if worst.is_none_or(|(r, _)| ratio > r) {
                    worst = Some((ratio, sid));
                }
            }
            let Some((worst_ratio, sid)) = worst else {
                break;
            };
            if worst_ratio > 1.0 {
                // SLO violated: scale up the critical microservice of the
                // worst service.
                if let Some(ms) = self.critical_microservice(app, &plan, ctx, sid)? {
                    let n = self.state.entry(ms).or_insert(1);
                    let bumped = ((*n as f64) * self.up_factor).ceil() as u32;
                    *n = bumped.max(*n + 1);
                } else {
                    break;
                }
            } else if worst_ratio < self.down_threshold {
                // Ample headroom: the RL agent's resource-cost term kicks
                // in and reclaims from the least-utilised microservice —
                // driving the system right up against the SLO, which is
                // why Firm is fragile at workload peaks (§6.3.2).
                let mut candidate: Option<(f64, MicroserviceId)> = None;
                for (ms, m) in app.microservices() {
                    let n = self.state.get(&ms).copied().unwrap_or(0);
                    if n <= 1 {
                        continue;
                    }
                    let gamma = app.microservice_workload(ms, ctx.workloads);
                    let sigma = m.profile.cutoff_at(ctx.interference);
                    let capacity = if sigma.is_finite() { sigma } else { 1000.0 };
                    let utilisation = gamma / (n as f64 * capacity);
                    if candidate.is_none_or(|(u, _)| utilisation < u) {
                        candidate = Some((utilisation, ms));
                    }
                }
                match candidate {
                    Some((_, ms)) => {
                        let n = self.state.get_mut(&ms).expect("candidate exists");
                        *n = (*n - (*n / 6).max(1)).max(1);
                    }
                    None => break,
                }
            } else {
                break; // within the comfort band
            }
        }
        // Drop allocations for idle microservices.
        for (ms, _) in app.microservices() {
            if app.microservice_workload(ms, ctx.workloads) <= 0.0 {
                self.state.insert(ms, 0);
            }
        }
        let mut plan = self.as_plan();
        plan.scheme = "firm".into();
        // Record the interval each microservice effectively operates in —
        // informational only.
        let _ = Interval::High;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::{AppBuilder, RequestRate, Sla, WorkloadVector};
    use erms_core::evaluate::plan_meets_slas;
    use erms_core::latency::{Interference, LatencyProfile};
    use erms_core::resources::Resources;
    use erms_core::scaling::ScalerConfig;

    fn fixture() -> erms_core::app::App {
        let mut b = AppBuilder::new("firm");
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
        b.service("s", Sla::p95_ms(60.0), |g| {
            let root = g.entry(u);
            g.call_seq(root, p);
        });
        b.build().unwrap()
    }

    fn ctx<'a>(
        app: &'a erms_core::app::App,
        w: &'a WorkloadVector,
        config: &'a ScalerConfig,
    ) -> ScalingContext<'a> {
        ScalingContext {
            app,
            workloads: w,
            interference: Interference::default(),
            config,
        }
    }

    #[test]
    fn converges_to_sla_on_static_load() {
        let app = fixture();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(20_000.0));
        let config = ScalerConfig::default();
        let mut firm = Firm::new();
        // Several rounds of the controller loop.
        let mut plan = firm.plan(&ctx(&app, &w, &config)).unwrap();
        for _ in 0..10 {
            plan = firm.plan(&ctx(&app, &w, &config)).unwrap();
        }
        assert!(
            plan_meets_slas(&app, &plan, &w, &Interference::default()).unwrap(),
            "Firm should eventually satisfy a static workload"
        );
    }

    #[test]
    fn reacts_slowly_to_spikes() {
        let app = fixture();
        let config = ScalerConfig::default();
        let low = WorkloadVector::uniform(&app, RequestRate::per_minute(2_000.0));
        let mut firm = Firm::new().with_steps(2); // tight action budget
        for _ in 0..5 {
            firm.plan(&ctx(&app, &low, &config)).unwrap();
        }
        // Sudden 20x spike: a single round with few steps cannot recover.
        let high = WorkloadVector::uniform(&app, RequestRate::per_minute(40_000.0));
        let plan = firm.plan(&ctx(&app, &high, &config)).unwrap();
        let ok = plan_meets_slas(&app, &plan, &high, &Interference::default()).unwrap();
        assert!(!ok, "Firm with a tight step budget should lag the spike");
        // But repeated rounds recover.
        let mut plan = plan;
        for _ in 0..30 {
            plan = firm.plan(&ctx(&app, &high, &config)).unwrap();
        }
        assert!(plan_meets_slas(&app, &plan, &high, &Interference::default()).unwrap());
    }

    #[test]
    fn reclaims_when_load_drops() {
        let app = fixture();
        let config = ScalerConfig::default();
        let high = WorkloadVector::uniform(&app, RequestRate::per_minute(40_000.0));
        let mut firm = Firm::new();
        let mut high_plan = firm.plan(&ctx(&app, &high, &config)).unwrap();
        for _ in 0..20 {
            high_plan = firm.plan(&ctx(&app, &high, &config)).unwrap();
        }
        let low = WorkloadVector::uniform(&app, RequestRate::per_minute(2_000.0));
        let mut low_plan = firm.plan(&ctx(&app, &low, &config)).unwrap();
        for _ in 0..60 {
            low_plan = firm.plan(&ctx(&app, &low, &config)).unwrap();
        }
        assert!(
            low_plan.total_containers() < high_plan.total_containers(),
            "Firm should slowly reclaim: {} vs {}",
            low_plan.total_containers(),
            high_plan.total_containers()
        );
    }

    #[test]
    fn idle_microservices_release_everything() {
        let app = fixture();
        let config = ScalerConfig::default();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(10_000.0));
        let mut firm = Firm::new();
        firm.plan(&ctx(&app, &w, &config)).unwrap();
        let idle = WorkloadVector::new();
        let plan = firm.plan(&ctx(&app, &idle, &config)).unwrap();
        assert_eq!(plan.total_containers(), 0);
    }
}
