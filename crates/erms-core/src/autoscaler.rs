//! The autoscaler abstraction shared by Erms and the baseline schemes, and
//! the [`ScalingPlan`] they produce.

use std::collections::BTreeMap;

use crate::app::{App, WorkloadVector};
use crate::error::Result;
use crate::ids::{MicroserviceId, ServiceId};
use crate::latency::Interference;
use crate::scaling::{ScalerConfig, ServicePlan};

/// Everything an autoscaler may observe when making a decision.
#[derive(Debug, Clone, Copy)]
pub struct ScalingContext<'a> {
    /// The managed application.
    pub app: &'a App,
    /// Current per-service request rates.
    pub workloads: &'a WorkloadVector,
    /// Cluster-average host interference (§5.3.1 feeds the average host
    /// utilisation into the profiling model).
    pub interference: Interference,
    /// Scaler configuration (capacity normalisation, interval passes).
    pub config: &'a ScalerConfig,
}

/// A resource-scaling decision: container counts per microservice, plus the
/// latency targets and (optionally) the service priorities that produced
/// them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScalingPlan {
    /// Name of the scheme that produced this plan (e.g. `"erms"`).
    pub scheme: String,
    containers: BTreeMap<MicroserviceId, u32>,
    priorities: BTreeMap<MicroserviceId, Vec<ServiceId>>,
    service_plans: BTreeMap<ServiceId, ServicePlan>,
}

impl ScalingPlan {
    /// Creates an empty plan for a scheme.
    pub fn new(scheme: impl Into<String>) -> Self {
        Self {
            scheme: scheme.into(),
            ..Self::default()
        }
    }

    /// Sets the container count of a microservice (rounding up happens at
    /// the caller; counts are integers per §7 "Erms rounds up the number of
    /// containers per microservice").
    pub fn set_containers(&mut self, ms: MicroserviceId, count: u32) {
        self.containers.insert(ms, count);
    }

    /// Container count of a microservice (zero if the plan does not cover
    /// it).
    ///
    /// Note the zero is ambiguous: an *explicit* 0 entry is an instruction
    /// to scale the deployment to zero, while a *missing* entry means the
    /// plan does not govern the microservice at all and provisioning leaves
    /// its current containers untouched. Use [`ScalingPlan::get`] when the
    /// distinction matters (it does for degraded-mode demand shedding).
    pub fn containers(&self, ms: MicroserviceId) -> u32 {
        self.containers.get(&ms).copied().unwrap_or(0)
    }

    /// The container count of a microservice, distinguishing the two zero
    /// cases [`ScalingPlan::containers`] conflates: `Some(0)` is an explicit
    /// scale-to-zero decision (the microservice served zero workload this
    /// round), `None` means the plan does not cover the microservice —
    /// [`provision`](crate::provisioning::provision) will not touch its
    /// deployment.
    pub fn get(&self, ms: MicroserviceId) -> Option<u32> {
        self.containers.get(&ms).copied()
    }

    /// Whether the plan governs this microservice (even with an explicit
    /// zero count).
    pub fn covers(&self, ms: MicroserviceId) -> bool {
        self.containers.contains_key(&ms)
    }

    /// Iterates over `(microservice, containers)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (MicroserviceId, u32)> + '_ {
        self.containers.iter().map(|(&m, &c)| (m, c))
    }

    /// Total number of containers across all microservices — the paper's
    /// primary resource-usage metric (§6.3).
    pub fn total_containers(&self) -> u64 {
        self.containers.values().map(|&c| c as u64).sum()
    }

    /// Records the priority order (highest first) of services at a shared
    /// microservice.
    pub fn set_priority_order(&mut self, ms: MicroserviceId, order: Vec<ServiceId>) {
        self.priorities.insert(ms, order);
    }

    /// The priority order at a shared microservice, highest priority first.
    /// `None` means FCFS (no prioritisation).
    pub fn priority_order(&self, ms: MicroserviceId) -> Option<&[ServiceId]> {
        self.priorities.get(&ms).map(Vec::as_slice)
    }

    /// Whether the plan prioritises any shared microservice.
    pub fn has_priorities(&self) -> bool {
        !self.priorities.is_empty()
    }

    /// Records the per-service latency-target plan that backed this
    /// decision.
    pub fn set_service_plan(&mut self, plan: ServicePlan) {
        self.service_plans.insert(plan.service, plan);
    }

    /// The per-service latency-target plan, if recorded.
    pub fn service_plan(&self, service: ServiceId) -> Option<&ServicePlan> {
        self.service_plans.get(&service)
    }

    /// Iterates over every recorded per-service plan in service-id order
    /// (used by snapshot export; the set may be empty for baseline
    /// schemes that do not compute latency targets).
    pub fn service_plans(&self) -> impl Iterator<Item = &ServicePlan> + '_ {
        self.service_plans.values()
    }

    /// Mutable access to a per-service plan (used by the incremental
    /// planner to update stored plans in place).
    pub fn service_plan_mut(&mut self, service: ServiceId) -> Option<&mut ServicePlan> {
        self.service_plans.get_mut(&service)
    }

    /// Microservices covered by this plan.
    pub fn microservices(&self) -> impl Iterator<Item = MicroserviceId> + '_ {
        self.containers.keys().copied()
    }
}

/// A microservice autoscaler: Erms itself, or one of the baseline schemes
/// (GrandSLAm, Rhythm, Firm).
///
/// Implementations take `&mut self` so learning-based schemes (Firm's RL
/// tuner) can carry state across scaling rounds.
pub trait Autoscaler {
    /// A short scheme name used in result tables (e.g. `"erms"`).
    fn name(&self) -> &str;

    /// Computes a scaling plan for the observed workloads.
    ///
    /// # Errors
    ///
    /// Implementations return [`Error::SlaInfeasible`](crate::Error::SlaInfeasible)
    /// when no allocation can satisfy a service's SLA, and propagate id
    /// lookup failures.
    fn plan(&mut self, ctx: &ScalingContext<'_>) -> Result<ScalingPlan>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_accounting() {
        let m = MicroserviceId::new(0);
        let mut plan = ScalingPlan::new("test");
        plan.set_containers(m, 7);
        assert_eq!(plan.containers(m), 7);
        assert_eq!(plan.total_containers(), 7);
        assert_eq!(plan.containers(MicroserviceId::new(9)), 0);
    }

    #[test]
    fn priorities_default_to_fcfs() {
        let m = MicroserviceId::new(0);
        let mut plan = ScalingPlan::new("test");
        assert!(plan.priority_order(m).is_none());
        assert!(!plan.has_priorities());
        plan.set_priority_order(m, vec![ServiceId::new(1), ServiceId::new(0)]);
        assert_eq!(
            plan.priority_order(m),
            Some(&[ServiceId::new(1), ServiceId::new(0)][..])
        );
        assert!(plan.has_priorities());
    }
}
