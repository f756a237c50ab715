//! Discrete-event cluster and microservice runtime simulator.
//!
//! This crate is the experimental substrate of the Erms reproduction: it
//! stands in for the paper's 20-host Kubernetes cluster running
//! DeathStarBench (§6.1). Requests arrive as Poisson streams, traverse
//! tree-shaped dependency graphs (sequential stages of parallel calls),
//! and contend for the finite thread pools of each microservice's
//! containers. Queueing behind those thread pools is precisely the
//! mechanism that produces the piecewise-linear tail-latency curves of
//! Fig. 3, so the profiling and scaling pipeline built on top of this
//! simulator exercises the same code paths as the real system.
//!
//! * [`runtime`] — the event-driven engine, FCFS and δ-probabilistic
//!   priority scheduling (§5.3.2), span emission;
//! * [`faults`] — seeded, deterministic fault injection: container
//!   crashes, host failures, cold starts, request drops, deadlines and
//!   span loss for single runs ([`FaultPlan`]), plus round-granularity
//!   cluster faults for controller-loop experiments
//!   ([`ClusterFaultPlan`]);
//! * [`service_time`] — lognormal, interference-sensitive service times;
//! * [`telemetry`] — zero-cost-when-disabled [`TelemetrySink`] hooks
//!   feeding the `erms-telemetry` observability pipeline.
//!
//! # Example
//!
//! ```
//! use std::collections::BTreeMap;
//! use erms_core::prelude::*;
//! use erms_sim::runtime::{SimConfig, Simulation};
//! use erms_sim::service_time::ServiceTimeModel;
//!
//! let mut b = AppBuilder::new("demo");
//! let front = b.microservice("front", LatencyProfile::linear(0.01, 2.0), Resources::default());
//! let back = b.microservice("back", LatencyProfile::linear(0.01, 2.0), Resources::default());
//! let svc = b.service("read", Sla::p95_ms(50.0), |g| {
//!     let root = g.entry(front);
//!     g.call_seq(root, back);
//! });
//! let app = b.build()?;
//!
//! let mut sim = Simulation::new(&app, SimConfig {
//!     duration_ms: 10_000.0,
//!     warmup_ms: 1_000.0,
//!     ..SimConfig::default()
//! });
//! sim.set_service_time(front, ServiceTimeModel::new(1.0, 0.3, 1.0, 0.5));
//!
//! let mut workloads = WorkloadVector::new();
//! workloads.set(svc, RequestRate::per_minute(3_000.0));
//! let containers: BTreeMap<_, _> = [(front, 2), (back, 2)].into_iter().collect();
//! let result = sim.run(&workloads, &containers, &BTreeMap::new())?;
//! assert!(result.completed > 0);
//! println!("P95 = {:.2} ms", result.latency_percentile(svc, 0.95));
//! # Ok::<(), erms_core::Error>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod deployment;
pub mod equeue;
pub mod faults;
pub mod partition;
pub mod reference;
pub mod replicate;
pub mod runtime;
pub mod service_time;
pub mod shard;
mod tables;
pub mod telemetry;
pub mod timekey;

pub use faults::{ClusterFault, ClusterFaultPlan, FaultError, FaultPlan, SpotReclamation};
pub use partition::Partition;
pub use replicate::{replicate, replicate_serial, replication_seed};
pub use runtime::{Scheduling, SimConfig, SimResult, Simulation};
pub use service_time::ServiceTimeModel;
pub use shard::{shard_of, ShardStats};
pub use telemetry::{NullSink, RequestRecord, SpanRecord, TelemetrySink};
