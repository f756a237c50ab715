//! §6.5.2 — scaling overhead of Erms.
//!
//! Paper (Python prototype on an Intel Xeon): Latency Target Computation
//! averages 15 ms per dependency graph and 300 ms for the largest
//! 1000+-microservice graph; resource provisioning averages 200 ms for
//! ~1 000 containers over 5 000 hosts. This Rust implementation is much
//! faster in absolute terms; what must reproduce is the *shape* — both
//! costs scale roughly linearly (O(|V|+|E|) per graph, §5.3.3).
//!
//! Also includes the POP-partitioning ablation (whole-cluster vs grouped
//! placement) called out in DESIGN.md.
//!
//! Each case runs 2 warm-up iterations, then reports the mean wall time of
//! 10 measured ones. Run with `cargo bench -p erms-bench --bench scalability`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use erms_bench::table;
use erms_core::app::{RequestRate, WorkloadVector};
use erms_core::latency::Interference;
use erms_core::manager::ErmsScaler;
use erms_core::provisioning::{provision, ClusterState, Host, PlacementPolicy};
use erms_core::scaling::{own_workloads, plan_service, ScalerConfig};
use erms_trace::alibaba::{generate, AlibabaConfig};

const WARMUP_ITERS: u32 = 2;
const MEASURE_ITERS: u32 = 10;

/// Mean wall time of `routine` over the measured iterations, each fed a
/// fresh `setup` output built outside the timed region.
fn time_batched<I, O>(mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) -> Duration {
    for _ in 0..WARMUP_ITERS {
        black_box(routine(setup()));
    }
    let mut total = Duration::ZERO;
    for _ in 0..MEASURE_ITERS {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        total += start.elapsed();
    }
    total / MEASURE_ITERS
}

/// [`time_batched`] without a per-iteration input.
fn time<O>(mut routine: impl FnMut() -> O) -> Duration {
    time_batched(|| (), |()| routine())
}

fn row(group: &str, case: impl ToString, mean: Duration) -> Vec<String> {
    let ms = mean.as_secs_f64() * 1e3;
    let mean = if ms >= 1.0 {
        format!("{ms:.3} ms")
    } else {
        format!("{:.1} us", ms * 1e3)
    };
    vec![group.to_string(), case.to_string(), mean]
}

/// Latency Target Computation time vs dependency-graph size.
fn latency_target_computation(rows: &mut Vec<Vec<String>>) {
    for nodes in [50usize, 200, 1000] {
        let generated = generate(&AlibabaConfig {
            services: 1,
            microservice_pool: nodes + 10,
            avg_nodes_per_service: nodes,
            max_depth: 12,
            seed: 17,
            ..AlibabaConfig::default()
        });
        let app = &generated.app;
        let sid = app.services().next().expect("one service").0;
        let rate = RequestRate::per_minute(10_000.0);
        let eff = own_workloads(app, sid, rate).expect("workloads");
        let config = ScalerConfig::default();
        let mean = time(|| {
            plan_service(app, sid, rate, &eff, Interference::default(), &config).expect("feasible")
        });
        rows.push(row("latency_target_computation", nodes, mean));
    }
}

/// Full Online-Scaling round (two LTC passes + priorities) on a
/// multi-service app.
fn online_scaling(rows: &mut Vec<Vec<String>>) {
    let generated = generate(&AlibabaConfig {
        services: 50,
        microservice_pool: 400,
        avg_nodes_per_service: 30,
        seed: 23,
        ..AlibabaConfig::default()
    });
    let app = &generated.app;
    let w = WorkloadVector::uniform(app, RequestRate::per_minute(5_000.0));
    let scaler = ErmsScaler::new(app);
    let mean = time(|| scaler.plan(&w, Interference::default()).expect("feasible"));
    rows.push(row("online_scaling", "50_services", mean));
}

/// Provisioning ~1000 containers across 5000 hosts (the paper's 200 ms
/// claim), whole-cluster vs POP-partitioned.
fn provisioning(rows: &mut Vec<Vec<String>>) {
    let generated = generate(&AlibabaConfig {
        services: 20,
        microservice_pool: 150,
        avg_nodes_per_service: 25,
        seed: 31,
        ..AlibabaConfig::default()
    });
    let app = &generated.app;
    let w = WorkloadVector::uniform(app, RequestRate::per_minute(4_000.0));
    let plan = ErmsScaler::new(app)
        .plan(&w, Interference::default())
        .expect("feasible");
    println!(
        "provisioning bench places {} containers",
        plan.total_containers()
    );
    for (label, policy) in [
        (
            "whole_cluster",
            PlacementPolicy::InterferenceAware { groups: 1 },
        ),
        (
            "pop_16_groups",
            PlacementPolicy::InterferenceAware { groups: 16 },
        ),
        ("k8s_default", PlacementPolicy::KubernetesDefault),
    ] {
        let mean = time_batched(
            || ClusterState::new((0..5_000).map(|_| Host::paper_host()).collect()),
            |mut state| provision(&mut state, app, &plan, policy).expect("fits"),
        );
        rows.push(row("provisioning_5000_hosts", label, mean));
    }
}

fn main() {
    let mut rows = Vec::new();
    latency_target_computation(&mut rows);
    online_scaling(&mut rows);
    provisioning(&mut rows);
    table::print(
        "§6.5.2 scaling overhead (mean of 10 iterations after 2 warm-up)",
        &["group", "case", "mean / iter"],
        &rows,
    );
}
