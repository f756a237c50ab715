//! In-simulation observability pipeline and online re-profiling loop.
//!
//! The deployed Erms system (§5.1, Fig. 9) is *online*: Jaeger spans and
//! Prometheus metrics flow into the Profiling module, which continuously
//! re-fits the piecewise-linear latency models that Scheduling and
//! Deployment consume. This crate closes that loop for the simulator:
//!
//! * [`collector`] — [`TelemetryCollector`], a
//!   [`TelemetrySink`](erms_sim::telemetry::TelemetrySink) that samples
//!   engine spans into a preallocated ring buffer
//!   ([`SpanRing`]) with a deterministic splitmix64 coin (never the
//!   simulation RNG, never a wall clock) and folds latencies into
//!   mergeable sketches;
//! * [`sketch`] — [`QuantileSketch`], a DDSketch-style log-bucketed
//!   quantile sketch with a fixed relative-error guarantee, whose merge
//!   is exact on counts and safe for `erms_sim::replicate`'s ordered
//!   reduction;
//! * [`metrics`] — [`MetricsRegistry`], the name-keyed (Prometheus-shaped)
//!   cold export surface for counters, gauges and sketches;
//! * [`online`] — [`OnlineProfiler`], which windows sampled spans into
//!   `(workload, tail-latency)` observations, re-fits per-microservice
//!   profiles via `erms_profilers`, and writes them into the planners'
//!   `App` in place ([`online::install`]), or into a copy of it
//!   ([`RefitOutcome`]).
//!
//! # Example: observe a run, then re-fit
//!
//! ```
//! use std::collections::BTreeMap;
//! use erms_core::prelude::*;
//! use erms_sim::runtime::{SimConfig, Simulation};
//! use erms_telemetry::{OnlineProfiler, TelemetryCollector, TelemetryConfig};
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
//! let sim = Simulation::new(&app, SimConfig {
//!     duration_ms: 10_000.0,
//!     warmup_ms: 1_000.0,
//!     ..SimConfig::default()
//! });
//! let mut workloads = WorkloadVector::new();
//! workloads.set(svc, RequestRate::per_minute(6_000.0));
//! let containers: BTreeMap<_, _> = [(front, 2), (back, 2)].into_iter().collect();
//!
//! let mut collector = TelemetryCollector::for_app(&app, TelemetryConfig {
//!     sampling: 1.0,
//!     ..TelemetryConfig::default()
//! });
//! let result = sim.run_with_sink(&workloads, &containers, &BTreeMap::new(), &mut collector)?;
//! // The sink observes exactly the post-warm-up completions.
//! assert_eq!(collector.requests_seen() as usize, result.service_latencies[&svc].len());
//!
//! let mut profiler = OnlineProfiler::new();
//! profiler.ingest(&collector, &containers, Interference::new(0.2, 0.2));
//! let refit = profiler.refit(&app);
//! assert_eq!(refit.app.microservice_count(), app.microservice_count());
//! # Ok::<(), erms_core::Error>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod collector;
pub mod metrics;
pub mod online;
pub mod sketch;

pub use collector::{SpanRing, TelemetryCollector, TelemetryConfig};
pub use metrics::{record_planner_metrics, record_resilience, MetricsRegistry};
pub use online::{window_samples, OnlineProfiler, RefitOutcome, WindowConfig};
pub use sketch::{QuantileSketch, DEFAULT_MAX_BINS, DEFAULT_RELATIVE_ERROR};
