//! Core algorithms of the Erms reproduction.
//!
//! This crate implements the primary contribution of *Erms: Efficient
//! Resource Management for Shared Microservices with SLA Guarantees*
//! (ASPLOS 2023):
//!
//! * [`latency`] — the piecewise-linear tail-latency model of §2.2/§5.2
//!   (Eq. 15), parameterised by workload and host interference;
//! * [`graph`] / [`app`] — microservice dependency graphs with sequential and
//!   parallel call stages, services, SLAs and workloads (§2.1, Fig. 1);
//! * [`merge`] — the dependency-merge procedure of §4.2 (Algorithm 1,
//!   Eqs. 6–12) that collapses an arbitrary tree-shaped graph into virtual
//!   microservices with sequential dependency only;
//! * [`scaling`] — the closed-form KKT latency-target allocation of Eq. (5)
//!   and the two-interval parameter selection of §5.3.1;
//! * [`multiplexing`] — the shared-microservice priority model of §4.3/§5.3.2
//!   and the Theorem-1 resource-usage comparisons;
//! * [`evaluate`] — a model-based end-to-end latency evaluator used to check
//!   plans against SLAs;
//! * [`provisioning`] — interference-aware container placement (§5.4) with
//!   POP-style host grouping;
//! * [`manager`] — the Erms controller that ties the above together (§3);
//! * [`resilience`] — the self-healing wrapper around the controller round:
//!   bounded retries, a degradation ladder (relaxed placement, demand
//!   shedding, last-known-good fallback) and plan hysteresis, with every
//!   fallback audited in a `ResilienceReport`;
//! * [`incremental`] / [`cache`] — dirty-subtree re-planning over the merge
//!   arenas, and memoized merges for repeated rounds;
//! * [`autoscaler`] — the [`Autoscaler`](autoscaler::Autoscaler) trait the
//!   baselines share with Erms, and the
//!   [`ScalingPlan`](autoscaler::ScalingPlan) they produce;
//! * [`resources`], [`ids`], [`stats`], [`error`] — container sizes and
//!   cluster capacities, typed ids, the workspace's one percentile
//!   implementation, error types.
//!
//! # Example
//!
//! Build the two-service sharing scenario of Fig. 5 and compute an
//! SLA-optimal scaling plan with priority scheduling:
//!
//! ```
//! use erms_core::prelude::*;
//!
//! let mut app = AppBuilder::new("sharing-demo");
//! let u = app.microservice("userTimeline", LatencyProfile::linear(0.08, 3.0),
//!                          Resources::new(0.1, 200.0));
//! let h = app.microservice("homeTimeline", LatencyProfile::linear(0.02, 3.0),
//!                          Resources::new(0.1, 200.0));
//! let p = app.microservice("postStorage", LatencyProfile::linear(0.03, 2.0),
//!                          Resources::new(0.1, 200.0));
//! let s1 = app.service("svc1", Sla::p95_ms(300.0), |g| {
//!     let root = g.entry(u);
//!     g.call_seq(root, p);
//! });
//! let s2 = app.service("svc2", Sla::p95_ms(300.0), |g| {
//!     let root = g.entry(h);
//!     g.call_seq(root, p);
//! });
//! let app = app.build()?;
//!
//! let mut w = WorkloadVector::new();
//! w.set(s1, RequestRate::per_minute(40_000.0));
//! w.set(s2, RequestRate::per_minute(40_000.0));
//!
//! let plan = ErmsScaler::new(&app).plan(&w, Interference::default())?;
//! assert!(plan.containers(p) >= 1);
//! // The more latency-sensitive service gets priority at the shared node.
//! assert_eq!(plan.priority_order(p), Some(&[s1, s2][..]));
//! # Ok::<(), erms_core::Error>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod app;
pub mod autoscaler;
pub mod cache;
pub mod error;
pub mod evaluate;
pub mod graph;
pub mod ids;
pub mod incremental;
pub mod latency;
pub mod manager;
pub mod merge;
pub mod multiplexing;
pub mod prelude;
pub mod provisioning;
pub mod resilience;
pub mod resources;
pub mod scaling;
pub mod stats;

pub use crate::error::{Error, Result};
