//! Property test: sharded runs are bit-identical to unsharded across
//! random (app, rate, fault plan, seed, K, thread count) tuples.
//!
//! The deterministic suite (`shard_determinism.rs`) sweeps a fixed
//! matrix; this one drives the same oracle — `run_sharded(K) ==
//! run_sharded(1)`, field for field, `f64` bit for `f64` bit — from
//! randomly grown dependency trees with random call multiplicities
//! (including fractional ones), random workloads and random fault plans.
//! Everything lives in one `#[test]`: `RAYON_NUM_THREADS` is
//! process-global state and cases mutate it.

mod common;

use std::collections::BTreeMap;

use common::{digest, observe_modulo};
use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::LatencyProfile;
use erms_core::resources::Resources;
use erms_sim::faults::FaultPlan;
use erms_sim::runtime::{SimConfig, Simulation};
use erms_sim::service_time::ServiceTimeModel;
use proptest::prelude::*;

/// Growth instructions for a random two-service app over a shared pool of
/// microservices: each instruction hangs a child (sequential, parallel
/// pair, or fractional / multi-call) off an existing node.
#[derive(Debug, Clone)]
struct AppSpec {
    instructions: Vec<(u16, u8)>,
    rate_per_min: f64,
    with_faults: bool,
    seed: u64,
    shards: usize,
    threads: u8,
}

fn app_spec() -> impl Strategy<Value = AppSpec> {
    (
        prop::collection::vec((any::<u16>(), 0u8..4), 0..8),
        100.0f64..6_000.0,
        any::<bool>(),
        any::<u64>(),
        1usize..=8,
        1u8..=4,
    )
        .prop_map(
            |(instructions, rate_per_min, with_faults, seed, shards, threads)| AppSpec {
                instructions,
                rate_per_min,
                with_faults,
                seed,
                shards,
                threads,
            },
        )
}

/// Builds the app described by a spec: two services sharing one
/// microservice pool, so requests routinely cross shard boundaries.
fn build_app(spec: &AppSpec) -> (App, Vec<MicroserviceId>, Vec<ServiceId>) {
    let mut b = AppBuilder::new("shard-prop");
    let pool: Vec<MicroserviceId> = (0..6)
        .map(|i| {
            b.microservice(
                format!("m{i}"),
                LatencyProfile::linear(0.01, 1.0),
                Resources::default(),
            )
        })
        .collect();
    let mut services = Vec::new();
    for (si, root_ms) in [(0usize, pool[0]), (1, pool[1])] {
        let instructions = spec.instructions.clone();
        let pool = pool.clone();
        services.push(b.service(format!("s{si}"), Sla::p95_ms(200.0), move |g| {
            let root = g.entry(root_ms);
            let mut nodes = vec![root];
            for (sel, kind) in instructions {
                let parent = nodes[(sel as usize) % nodes.len()];
                let ms = pool[(sel as usize / 7) % pool.len()];
                match kind {
                    0 => nodes.push(g.call_seq(parent, ms)),
                    1 => {
                        let other = pool[(sel as usize / 11) % pool.len()];
                        nodes.extend(g.call_par(parent, &[ms, other]));
                    }
                    2 => nodes.push(g.call_seq_n(parent, ms, 2.0)),
                    _ => nodes.push(g.call_seq_n(parent, ms, 0.4)),
                }
            }
        }));
    }
    (b.build().unwrap(), pool, services)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_sharded_runs_match_unsharded(spec in app_spec()) {
        std::env::set_var("RAYON_NUM_THREADS", spec.threads.to_string());
        let (app, pool, services) = build_app(&spec);
        let mut sim = Simulation::new(&app, SimConfig {
            duration_ms: 6_000.0,
            warmup_ms: 500.0,
            seed: spec.seed,
            trace_sampling: 0.2,
            ..SimConfig::default()
        });
        for &ms in &pool {
            sim.set_service_time(ms, ServiceTimeModel::new(1.0, 0.3, 1.0, 0.5));
        }
        if spec.with_faults {
            let mut losses = BTreeMap::new();
            losses.insert(pool[2], 1u32);
            losses.insert(pool[3], 1u32);
            sim.set_fault_plan(
                FaultPlan::new()
                    .crash(pool[0], 3_000.0, 1)
                    .host_failure(4_000.0, losses)
                    .with_drop_probability(0.02)
                    .with_span_loss(0.05)
                    .with_deadline_ms(400.0),
            );
        }
        let containers: BTreeMap<_, _> = pool.iter().map(|&ms| (ms, 2u32)).collect();
        let mut w = WorkloadVector::new();
        for &sid in &services {
            w.set(sid, RequestRate::per_minute(spec.rate_per_min));
        }
        // The sinks feed the own-latency rows into the digest.
        let observe = |k| observe_modulo(&sim, &app, &w, &containers, &BTreeMap::new(), k);
        let (got, want) = (digest(&observe(spec.shards)), digest(&observe(1)));
        prop_assert!(
            got == want,
            "K={} threads={} diverged from K=1 ({got:#x} vs {want:#x})",
            spec.shards,
            spec.threads
        );
    }
}
