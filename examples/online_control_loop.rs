//! The online observability → re-profiling → re-planning loop (§5.1,
//! Fig. 9) running against a live service-time drift.
//!
//! The shared `postStorage` tier of the Fig. 5 app silently gets 8×
//! slower (a cold cache, a degraded disk). The plan computed from the
//! offline profiles keeps the old container counts and blows through the
//! SLA. A `TelemetryCollector` attached to the simulator observes the
//! drifted system, an `OnlineProfiler` re-fits the piecewise-linear
//! latency models from the sampled spans alone, and each re-plan is
//! itself observed — after a couple of rounds the loop lands back under
//! the SLA.
//!
//! Run with: `cargo run --release --example online_control_loop`

use std::collections::BTreeMap;

use erms::core::prelude::*;
use erms::sim::runtime::{SimConfig, Simulation};
use erms::sim::service_time::{derive_from_profile, ServiceTimeModel};
use erms::telemetry::metrics::{record_planner_metrics, record_resilience};
use erms::telemetry::{
    MetricsRegistry, OnlineProfiler, TelemetryCollector, TelemetryConfig, WindowConfig,
};
use erms::workload::apps::fig5_app;

const SLA_MS: f64 = 300.0;
const RATE_PER_MIN: f64 = 30_000.0;
const DRIFT_FACTOR: f64 = 8.0;

type Mechanics = BTreeMap<MicroserviceId, (ServiceTimeModel, usize)>;

fn simulation<'a>(
    app: &'a App,
    mechanics: &Mechanics,
    itf: Interference,
    seed: u64,
    duration_ms: f64,
) -> Simulation<'a> {
    let mut sim = Simulation::new(
        app,
        SimConfig {
            duration_ms,
            warmup_ms: duration_ms * 0.1,
            seed,
            trace_sampling: 0.0,
            ..SimConfig::default()
        },
    );
    for (&ms, &(model, threads)) in mechanics {
        sim.set_service_time(ms, model);
        sim.set_threads(ms, threads);
    }
    sim.set_uniform_interference(itf);
    sim
}

fn plan_inputs(
    app: &App,
    plan: &ScalingPlan,
) -> (
    BTreeMap<MicroserviceId, u32>,
    BTreeMap<MicroserviceId, Vec<ServiceId>>,
) {
    let containers = app
        .microservices()
        .map(|(ms, _)| (ms, plan.containers(ms)))
        .collect();
    let mut priorities = BTreeMap::new();
    for ms in app.shared_microservices() {
        if let Some(order) = plan.priority_order(ms) {
            priorities.insert(ms, order.to_vec());
        }
    }
    (containers, priorities)
}

fn main() {
    let (app, [_u, _h, p], [s1, s2]) = fig5_app(SLA_MS);
    let itf = Interference::new(0.3, 0.3);
    let mut w = WorkloadVector::new();
    w.set(s1, RequestRate::per_minute(RATE_PER_MIN));
    w.set(s2, RequestRate::per_minute(RATE_PER_MIN));

    // Ground truth the simulator runs: postStorage drifted 8×.
    let mut truth: Mechanics = app
        .microservices()
        .map(|(ms, m)| (ms, derive_from_profile(&m.profile, itf, 0.75)))
        .collect();
    let (model, threads) = truth[&p];
    truth.insert(
        p,
        (
            ServiceTimeModel::new(
                model.base_ms * DRIFT_FACTOR,
                model.cv,
                model.cpu_sensitivity,
                model.mem_sensitivity,
            ),
            threads,
        ),
    );

    let worst_p95 = |result: &erms::sim::SimResult| {
        app.services()
            .map(|(sid, _)| result.latency_percentile(sid, 0.95))
            .fold(0.0f64, f64::max)
    };

    println!("=== Online control loop under an {DRIFT_FACTOR}x postStorage drift ===\n");
    println!(
        "{:<22} {:>12} {:>14} {:>8}",
        "round", "p-containers", "worst P95 (ms)", "SLA ok"
    );

    // Round 0: the stale offline plan against the drifted truth.
    let stale_plan = ErmsScaler::new(&app).plan(&w, itf).expect("stale plan");
    let (mut containers, mut priorities) = plan_inputs(&app, &stale_plan);
    let mut profiler = OnlineProfiler::new().with_window(WindowConfig::default());

    let stale = simulation(&app, &truth, itf, 7, 60_000.0)
        .run(&w, &containers, &priorities)
        .unwrap();
    println!(
        "{:<22} {:>12} {:>14.1} {:>8}",
        "stale plan",
        containers[&p],
        worst_p95(&stale),
        if worst_p95(&stale) <= SLA_MS {
            "yes"
        } else {
            "NO"
        }
    );

    // Observation sweep: watch the drifted system at several workload
    // levels so the profiler sees γ on both sides of the drifted knee.
    for (round, scale) in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6].into_iter().enumerate() {
        let mut w_obs = WorkloadVector::new();
        w_obs.set(s1, RequestRate::per_minute(RATE_PER_MIN * scale));
        w_obs.set(s2, RequestRate::per_minute(RATE_PER_MIN * scale));
        let mut collector = TelemetryCollector::for_app(
            &app,
            TelemetryConfig {
                sampling: 1.0,
                ring_capacity: 262_144,
                seed: 0xD21F ^ round as u64,
                relative_error: 0.01,
            },
        );
        simulation(&app, &truth, itf, 100 + round as u64, 30_000.0)
            .run_with_sink(&w_obs, &containers, &priorities, &mut collector)
            .unwrap();
        profiler.ingest(&collector, &containers, itf);
    }

    // Closed loop: re-fit, re-plan incrementally, observe the new
    // deployment, repeat. The planner bit-compares every profile it reads,
    // so each re-plan touches only the services calling a re-fitted
    // microservice — while staying bit-identical to a cold plan.
    let mut planner = IncrementalPlanner::new(ScalerConfig::default(), SchedulingMode::Priority);
    let cache = PlanCache::new();
    let mut refit = profiler.refit(&app);
    for round in 1..=3u64 {
        let plan = match planner.replan_auto(&refit.app, &w, itf, Some(&cache)) {
            Ok(plan) => plan.clone(),
            Err(e) => {
                println!("round {round}: planning failed ({e}); keeping deployment");
                break;
            }
        };
        (containers, priorities) = plan_inputs(&refit.app, &plan);
        let mut collector = TelemetryCollector::for_app(
            &app,
            TelemetryConfig {
                sampling: 1.0,
                ring_capacity: 262_144,
                seed: 0xC0FF ^ round,
                relative_error: 0.01,
            },
        );
        let result = simulation(&app, &truth, itf, 200 + round, 60_000.0)
            .run_with_sink(&w, &containers, &priorities, &mut collector)
            .unwrap();
        let p95 = worst_p95(&result);
        println!(
            "{:<22} {:>12} {:>14.1} {:>8}",
            format!("refit round {round}"),
            containers[&p],
            p95,
            if p95 <= SLA_MS { "yes" } else { "NO" }
        );
        if p95 <= SLA_MS {
            println!("\nSLA restored by the online loop in {round} re-plan round(s).");
            print_planner_report(&planner, &cache);
            resilience_demo(&app, &w);
            return;
        }
        profiler.ingest(&collector, &containers, itf);
        refit = profiler.refit(&app);
    }
    println!("\nloop budget exhausted without restoring the SLA");
    print_planner_report(&planner, &cache);
    resilience_demo(&app, &w);
}

/// Runs the spot-aware fallback ladder through a reclamation notice on a
/// mixed on-demand/spot cluster and mirrors the rung transitions into the
/// metrics registry — the observability half of the recovery ladder.
fn resilience_demo(app: &App, w: &WorkloadVector) {
    println!("\n=== Spot-aware recovery ladder under a reclamation notice ===\n");
    let mut state = ClusterState::new(vec![
        Host::paper_host(),
        Host::paper_host(),
        Host::paper_host().with_lifecycle(HostLifecycle::Spot),
    ]);
    let mut manager = ResilientManager::new(ResilienceConfig::default());
    for round in 1..=4u64 {
        // The provider posts a notice on the spot host ahead of round 2,
        // due two rounds later; the spot-aware ladder evacuates it and
        // re-places the containers on the on-demand survivors.
        if round == 2 {
            state.post_spot_reclamations(1, round + 2);
        }
        if round == 4 {
            state.execute_due_reclamations(round);
        }
        let outcome = manager.run_round(app, &mut state, w);
        let rungs: Vec<String> = outcome
            .report
            .actions
            .iter()
            .map(|a| format!("{a:?}"))
            .collect();
        println!(
            "round {round}: hosts={} spot={} reclaiming={} rungs=[{}]",
            state.hosts().len(),
            state.spot_host_count(),
            state.reclaiming_hosts().len(),
            rungs.join(", ")
        );
    }
    let mut registry = MetricsRegistry::new();
    record_resilience(&mut registry, manager.history());
    println!("\nresilience telemetry:");
    for (name, value) in registry.counters() {
        println!("  {name:<32} {value}");
    }
    for (name, value) in registry.gauges() {
        println!("  {name:<32} {value:.3}");
    }
}

/// Mirrors the planner work counters into a telemetry registry and prints
/// them — the observability half of the incremental-planning loop.
fn print_planner_report(planner: &IncrementalPlanner, cache: &PlanCache) {
    let mut registry = MetricsRegistry::new();
    record_planner_metrics(&mut registry, &planner.metrics(), Some(cache));
    println!("\nplanner telemetry:");
    for (name, value) in registry.counters() {
        println!("  {name:<28} {value}");
    }
    for (name, value) in registry.gauges() {
        println!("  {name:<28} {value:.3}");
    }
}
