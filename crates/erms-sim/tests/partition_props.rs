//! Property tests for the topology-aware partitioner and the
//! partition-generalized adaptive-window engine.
//!
//! Two oracles:
//!
//! 1. **Partitioner invariants** — for random synthetic topologies and
//!    workloads, every [`Partition::topology_aware`] table is *total*
//!    (covers every microservice, every entry in range), *balanced*
//!    (max shard weight within the documented envelope
//!    `max(avg × (1 + tol), avg + w_max)`), and *deterministic*
//!    (repeated calls are equal — it is a pure function, so equality is
//!    exact, not approximate).
//! 2. **Bit-identity** — a partitioned run, observed through per-shard
//!    sinks, equals the K=1 run
//!    field for field, `f64` bit for `f64` bit, for random apps ×
//!    partition kinds (modulo, topology-aware, arbitrary random tables) ×
//!    fault plans × thread counts, exercising the adaptive window
//!    widening under partitions the fixed-window goldens never see.
//!
//! Everything lives in one `#[test]` per oracle: `RAYON_NUM_THREADS` is
//! process-global state and cases mutate it.

mod common;

use std::collections::BTreeMap;

use common::{digest, observe_modulo, observe_sharded};
use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::LatencyProfile;
use erms_core::resources::Resources;
use erms_sim::faults::FaultPlan;
use erms_sim::partition::Partition;
use erms_sim::runtime::{SimConfig, Simulation};
use erms_sim::service_time::ServiceTimeModel;
use erms_trace::synth::{generate, SynthConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct AppSpec {
    instructions: Vec<(u16, u8)>,
    rate_per_min: f64,
    with_faults: bool,
    seed: u64,
    shards: usize,
    threads: u8,
    /// 0 = modulo, 1 = topology-aware, 2+ = random assignment (the value
    /// seeds the table).
    partition_kind: u8,
}

fn app_spec() -> impl Strategy<Value = AppSpec> {
    (
        prop::collection::vec((any::<u16>(), 0u8..4), 0..8),
        100.0f64..6_000.0,
        any::<bool>(),
        any::<u64>(),
        1usize..=8,
        1u8..=4,
        0u8..8,
    )
        .prop_map(
            |(instructions, rate_per_min, with_faults, seed, shards, threads, partition_kind)| {
                AppSpec {
                    instructions,
                    rate_per_min,
                    with_faults,
                    seed,
                    shards,
                    threads,
                    partition_kind,
                }
            },
        )
}

/// Builds the app described by a spec: two services sharing one
/// microservice pool, so requests routinely cross shard boundaries.
fn build_app(spec: &AppSpec) -> (App, Vec<MicroserviceId>, Vec<ServiceId>) {
    let mut b = AppBuilder::new("partition-prop");
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

/// The partition under test for a spec: modulo, topology-aware, or an
/// arbitrary (but deterministic) random-looking table — bit-identity must
/// hold under *any* partition, not just the ones the partitioner emits.
fn build_partition(spec: &AppSpec, app: &App, workloads: &WorkloadVector) -> Partition {
    let n = app.microservice_count();
    match spec.partition_kind {
        0 => Partition::modulo(n, spec.shards),
        1 => Partition::topology_aware(app, workloads, spec.shards),
        k => {
            let mix = |i: usize| {
                let mut z = (i as u64)
                    .wrapping_add(u64::from(k))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ spec.seed;
                z ^= z >> 31;
                (z % spec.shards as u64) as u32
            };
            Partition::from_assignment((0..n).map(mix).collect(), spec.shards).unwrap()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn topology_aware_partitions_are_total_balanced_and_pure(
        ms_count in 8usize..200,
        topo_seed in any::<u64>(),
        rate_per_min in 1.0f64..100_000.0,
        shards in 1usize..=8,
    ) {
        let g = generate(&SynthConfig::scaled(ms_count, topo_seed));
        let mut w = WorkloadVector::new();
        for (sid, _) in g.app.services() {
            w.set(sid, RequestRate::per_minute(rate_per_min));
        }
        let p = Partition::topology_aware(&g.app, &w, shards);
        // Total: one entry per microservice, all in range.
        prop_assert_eq!(p.len(), g.app.microservice_count());
        prop_assert!(p.assignment().iter().all(|&s| (s as usize) < shards));
        // Balanced: within the documented envelope on the exact weights
        // the partitioner used.
        let (load, limit) = p.balance_report(&g.app, &w);
        let max = load.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(
            max <= limit * (1.0 + 1e-9),
            "K={shards}: max load {max} over envelope {limit} ({load:?})"
        );
        // Pure: repeated runs produce the identical table.
        prop_assert_eq!(p, Partition::topology_aware(&g.app, &w, shards));
    }

    #[test]
    fn partitioned_adaptive_runs_match_unsharded(spec in app_spec()) {
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
        let partition = build_partition(&spec, &app, &w);
        let base = observe_modulo(&sim, &app, &w, &containers, &BTreeMap::new(), 1);
        let (sharded, stats) =
            observe_sharded(&sim, &w, &containers, &BTreeMap::new(), &partition);
        let (got, want) = (digest(&sharded), digest(&base));
        prop_assert!(
            got == want,
            "kind={} K={} threads={} diverged from K=1 ({got:#x} vs {want:#x}; stats {stats:?})",
            spec.partition_kind,
            spec.shards,
            spec.threads
        );
        // A cut-free partition must collapse to (at most) one window.
        if stats.cut_edges == 0 {
            prop_assert!(
                stats.windows <= 1 && stats.messages == 0,
                "cut-free partition still synchronized: {stats:?}"
            );
        }
    }
}
