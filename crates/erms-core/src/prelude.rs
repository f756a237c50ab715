//! Convenient re-exports of the most commonly used types.
//!
//! ```
//! use erms_core::prelude::*;
//! ```

pub use crate::app::{App, AppBuilder, Microservice, RequestRate, Service, Sla, WorkloadVector};
pub use crate::autoscaler::{Autoscaler, ScalingContext, ScalingPlan};
pub use crate::cache::PlanCache;
pub use crate::error::{Error, Result};
pub use crate::evaluate::{
    all_service_latencies, plan_meets_slas, service_latency, workload_sensitivity,
};
pub use crate::graph::{DependencyGraph, GraphBuilder, Node};
pub use crate::ids::{MicroserviceId, NodeId, ServiceId};
pub use crate::incremental::{IncrementalPlanner, PlannerMetrics};
pub use crate::latency::{
    CutoffModel, Interference, Interval, LatencyProfile, LinearParams, Segment,
};
pub use crate::manager::{Erms, ErmsScaler, SchedulingMode};
pub use crate::merge::{MergedGraph, VirtualParams};
pub use crate::multiplexing::{SchemeComparison, SharingScenario};
pub use crate::provisioning::{ClusterState, FailureDomain, Host, HostLifecycle, PlacementPolicy};
pub use crate::resilience::{
    FallbackAction, ResilienceConfig, ResilienceReport, ResilientManager, ResilientOutcome,
};
pub use crate::resources::{ClusterCapacity, HostClass, Resources};
pub use crate::scaling::{
    allocate_chain, chain_resource_usage, containers_for_profile, containers_for_target,
    invert_profile, ChainItem, ScalerConfig, ServicePlan,
};
