//! §6.5.2 — scaling overhead of Erms (Criterion benchmarks).
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

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use erms_core::app::{RequestRate, WorkloadVector};
use erms_core::latency::Interference;
use erms_core::manager::ErmsScaler;
use erms_core::provisioning::{provision, ClusterState, Host, PlacementPolicy};
use erms_core::scaling::{own_workloads, plan_service, ScalerConfig};
use erms_trace::alibaba::{generate, AlibabaConfig};

/// Latency Target Computation time vs dependency-graph size.
fn bench_latency_target_computation(c: &mut Criterion) {
    let mut group = c.benchmark_group("latency_target_computation");
    for &nodes in &[50usize, 200, 1000] {
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
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| {
                plan_service(app, sid, rate, &eff, Interference::default(), &config)
                    .expect("feasible")
            })
        });
    }
    group.finish();
}

/// Full Online-Scaling round (two LTC passes + priorities) on a
/// multi-service app.
fn bench_online_scaling(c: &mut Criterion) {
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
    c.bench_function("online_scaling_50_services", |b| {
        b.iter(|| scaler.plan(&w, Interference::default()).expect("feasible"))
    });
}

/// Provisioning ~1000 containers across 5000 hosts (the paper's 200 ms
/// claim), whole-cluster vs POP-partitioned.
fn bench_provisioning(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("provisioning_5000_hosts");
    group.sample_size(10);
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
        group.bench_function(label, |b| {
            b.iter_batched(
                || ClusterState::new((0..5_000).map(|_| Host::paper_host()).collect()),
                |mut state| provision(&mut state, app, &plan, policy).expect("fits"),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_latency_target_computation,
    bench_online_scaling,
    bench_provisioning
);
criterion_main!(benches);
