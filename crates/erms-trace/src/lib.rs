//! Tracing Coordinator substrate (§3 ①, §5.1) and synthetic Alibaba-like
//! trace generation (§6.5).
//!
//! The paper's Tracing Coordinator sits on top of Jaeger (application-level
//! spans) and Prometheus (host metrics). This crate rebuilds the pieces the
//! Erms algorithms actually consume:
//!
//! * [`span`] — two spans per call (client side and server side), exactly
//!   the information Jaeger records (§5.1);
//! * [`store`] — a sampled trace store (Jaeger samples 10 % of requests);
//! * [`extract`] — dependency-graph extraction (overlapping client spans ⇒
//!   parallel calls) and per-microservice latency derivation via Eq. (1);
//! * [`aggregate`] — per-minute profiling observations
//!   `(P95 latency, calls/container, C, M)` feeding the offline profiler
//!   (§5.2);
//! * [`alibaba`] — a synthetic generator of Alibaba-scale application
//!   topologies calibrated to the published statistics (Fig. 2 sharing CDF,
//!   Taobao-scale services) used for the trace-driven simulations of §6.5;
//! * [`synth`] — deterministic synthetic applications of a chosen size and
//!   shape for the planner scalability runs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod alibaba;
pub mod extract;
pub mod span;
pub mod store;
pub mod synth;
