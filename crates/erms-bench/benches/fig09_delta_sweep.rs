//! Fig. 9 — response time of high- and low-priority requests at a shared
//! microservice under various δ (the probabilistic-priority parameter of
//! §5.3.2).
//!
//! Paper: raising δ from 0 to 0.05 degrades the P95 of high-priority
//! requests by at most ~5 % while improving low-priority requests by more
//! than 20 %; Erms therefore sets δ = 0.05.

use std::collections::BTreeMap;

use erms_bench::table;
use erms_core::app::{RequestRate, WorkloadVector};
use erms_core::latency::Interference;
use erms_sim::runtime::{Scheduling, SimConfig, Simulation};
use erms_sim::service_time::ServiceTimeModel;
use erms_sim::stats;
use erms_sim::telemetry::{FnSink, SpanRecord};
use erms_workload::apps::fig5_app;

fn main() {
    let (app, [u, h, p], [s1, s2]) = fig5_app(300.0);
    let deltas = [0.0, 0.01, 0.05, 0.1, 0.2];

    // P is the contended microservice: 3 containers with one thread each,
    // combined load ~85% of capacity.
    let containers: BTreeMap<_, _> = [(u, 8u32), (h, 8), (p, 3)].into_iter().collect();
    let mut priorities = BTreeMap::new();
    priorities.insert(p, vec![s1, s2]);
    let mut w = WorkloadVector::new();
    // ~90% utilisation at P (3 containers x 1 thread x 1/1.7ms).
    w.set(s1, RequestRate::per_minute(47_000.0));
    w.set(s2, RequestRate::per_minute(47_000.0));

    let mut rows = Vec::new();
    let mut high_p95 = Vec::new();
    let mut low_p95 = Vec::new();
    for &delta in &deltas {
        let mut sim = Simulation::new(
            &app,
            SimConfig {
                duration_ms: 150_000.0,
                warmup_ms: 30_000.0,
                seed: 99,
                trace_sampling: 0.0,
                scheduling: Scheduling::Priority { delta },
                default_threads: 1,
                ..SimConfig::default()
            },
        );
        for ms in [u, h, p] {
            sim.set_service_time(ms, ServiceTimeModel::new(1.7, 0.4, 0.0, 0.0));
        }
        sim.set_uniform_interference(Interference::new(0.2, 0.2));
        // Own latencies at the shared microservice, per service.
        let (mut high, mut low): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        let sink = FnSink::spans(|s: &SpanRecord| {
            if s.microservice == p {
                let v = if s.service == s1 { &mut high } else { &mut low };
                v.push(s.latency_ms());
            }
        });
        sim.run_with_sink(&w, &containers, &priorities, sink)
            .unwrap();
        let hi = stats::percentile(&high, 0.95);
        let lo = stats::percentile(&low, 0.95);
        high_p95.push(hi);
        low_p95.push(lo);
        rows.push(vec![
            format!("{delta:.2}"),
            format!("{hi:.2}"),
            format!("{lo:.2}"),
        ]);
    }

    table::print(
        "Fig. 9: P95 latency at the shared microservice vs delta",
        &["delta", "high-priority P95 (ms)", "low-priority P95 (ms)"],
        &rows,
    );

    // delta = 0 vs 0.05 (indices 0 and 2).
    let high_cost = (high_p95[2] - high_p95[0]) / high_p95[0].max(1e-9);
    let low_gain = (low_p95[0] - low_p95[2]) / low_p95[0].max(1e-9);
    table::claim(
        "cost to high-priority P95 when delta 0 -> 0.05",
        "<= ~5%",
        &format!("{:.1}%", high_cost * 100.0),
        high_cost <= 0.15,
    );
    table::claim(
        "gain for low-priority requests when delta 0 -> 0.05",
        "> 20% (paper, worst case)",
        &format!("{:.1}%", low_gain * 100.0),
        low_gain > 0.0,
    );
    table::claim(
        "strict priority (delta=0) starves low-priority most",
        "low-priority latency is maximal at delta=0",
        &format!("{:.2} ms at 0 vs {:.2} ms at 0.2", low_p95[0], low_p95[4]),
        low_p95[0] >= low_p95[4],
    );
}
