//! Minute-by-minute autoscaling under a dynamic, Alibaba-shaped workload
//! (§6.3.2): the controller observes last minute's rate, replans, and
//! provisions against the simulated cluster.
//!
//! Run with `cargo run --release --example dynamic_autoscaling`.

use erms::core::manager::erms_plan;
use erms::core::prelude::*;
use erms::core::provisioning::provision;
use erms::workload::apps::hotel_reservation;
use erms::workload::dynamic::DynamicWorkload;
use erms::workload::interference::{inject, InterferenceLevel};

fn main() -> Result<()> {
    let bench = hotel_reservation(150.0);
    let app = &bench.app;

    // A cluster with batch jobs on half the hosts.
    let mut cluster = ClusterState::paper_cluster();
    inject(&mut cluster, InterferenceLevel::CpuModerate, 0.5);

    let config = ScalerConfig::default();
    let placement = PlacementPolicy::InterferenceAware { groups: 4 };
    let series = DynamicWorkload {
        base: 15_000.0,
        amplitude: 0.5,
        period_min: 30.0,
        ..DynamicWorkload::default()
    }
    .series(46);

    println!(
        "{:>6} {:>12} {:>11} {:>8} {:>9} {:>11}",
        "minute", "req/min", "containers", "placed", "released", "P95 (ms)"
    );
    for minute in 1..=45 {
        // Observe last minute's workload, replan, and provision.
        let observed = WorkloadVector::uniform(app, series[minute - 1]);
        let itf = cluster.average_interference(app);
        let plan = erms_plan(app, &observed, itf, &config, SchedulingMode::Priority)?;
        let report = provision(&mut cluster, app, &plan, placement)?;
        // What actually happens this minute.
        let actual = WorkloadVector::uniform(app, series[minute]);
        let worst = app
            .services()
            .map(|(sid, _)| {
                service_latency(app, &plan, &actual, sid, &itf).unwrap_or(f64::INFINITY)
            })
            .fold(0.0f64, f64::max);
        if minute % 3 == 0 {
            println!(
                "{:>6} {:>12.0} {:>11} {:>8} {:>9} {:>9.1}",
                minute,
                series[minute].as_per_minute(),
                plan.total_containers(),
                report.placed,
                report.released,
                worst
            );
        }
    }
    println!(
        "\nfinal cluster unbalance: {:.4} (interference-aware placement keeps hosts even)",
        cluster.unbalance(app)
    );
    Ok(())
}
