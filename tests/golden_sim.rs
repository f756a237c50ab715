//! Golden-seed bit-identity suite for the dense-state DES engine.
//!
//! The dense engine (`Simulation::run`) must reproduce the pre-refactor
//! map-based engine (`Simulation::run_reference`, kept verbatim in
//! `erms-sim/src/reference.rs`) *exactly* — same counters, same latency
//! samples float bit for float bit, same span counts — across a matrix of
//! (app, rate, fault plan, seed) configurations; and the spans a sink sees
//! on the dense engine must be, row for row, the own-latency rows the
//! reference records. Any divergence means the
//! refactor changed simulation semantics, not just its speed.
//!
//! A compact digest (FNV-1a over counters and every latency bit pattern)
//! of one fixed configuration is additionally pinned as a constant
//! captured from the pre-refactor engine, so the suite still fails if
//! both engines ever drift *together*.

use std::collections::BTreeMap;

use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::{Interference, LatencyProfile};
use erms_core::resources::Resources;
use erms_sim::faults::FaultPlan;
use erms_sim::runtime::{Scheduling, SimConfig, SimResult, Simulation};
use erms_sim::service_time::ServiceTimeModel;
use erms_sim::telemetry::{FnSink, SpanRecord};

/// Chain app: s → a → c (sequential).
fn chain_app() -> (App, Vec<MicroserviceId>, Vec<ServiceId>) {
    let mut b = AppBuilder::new("golden-chain");
    let a = b.microservice("a", LatencyProfile::linear(0.01, 2.0), Resources::default());
    let c = b.microservice("c", LatencyProfile::linear(0.01, 2.0), Resources::default());
    let s = b.service("s", Sla::p95_ms(100.0), |g| {
        let root = g.entry(a);
        g.call_seq(root, c);
    });
    (b.build().unwrap(), vec![a, c], vec![s])
}

/// Shared app: two services contending for one prioritised microservice,
/// with a parallel fan-out stage.
fn shared_app() -> (App, Vec<MicroserviceId>, Vec<ServiceId>) {
    let mut b = AppBuilder::new("golden-shared");
    let u = b.microservice("u", LatencyProfile::linear(0.01, 1.0), Resources::default());
    let h = b.microservice("h", LatencyProfile::linear(0.01, 1.0), Resources::default());
    let p = b.microservice("p", LatencyProfile::linear(0.01, 1.0), Resources::default());
    let q = b.microservice("q", LatencyProfile::linear(0.01, 1.0), Resources::default());
    let s1 = b.service("s1", Sla::p95_ms(100.0), |g| {
        let root = g.entry(u);
        g.call_par(root, &[p, q]);
    });
    let s2 = b.service("s2", Sla::p95_ms(100.0), |g| {
        let root = g.entry(h);
        g.call_seq(root, p);
    });
    (b.build().unwrap(), vec![u, h, p, q], vec![s1, s2])
}

fn containers_for(app: &App, n: u32) -> BTreeMap<MicroserviceId, u32> {
    app.microservices().map(|(ms, _)| (ms, n)).collect()
}

/// Own-latency rows by microservice: `(arrival, own latency, service)` in
/// completion order — the form `run_reference` returns.
type OwnRows = BTreeMap<MicroserviceId, Vec<(f64, f64, ServiceId)>>;

/// The dense engine's own-latency rows: a second, sink-observed pass of the
/// same configuration (the unobserved `run()` stays the subject of every
/// other comparison; `golden_digest_unchanged_with_telemetry_sink` pins
/// that the two passes agree).
fn dense_own_rows(
    sim: &Simulation<'_>,
    w: &WorkloadVector,
    cs: &BTreeMap<MicroserviceId, u32>,
    priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
) -> OwnRows {
    let mut rows = OwnRows::new();
    let sink = FnSink::spans(|s: &SpanRecord| {
        rows.entry(s.microservice)
            .or_default()
            .push((s.start_ms, s.latency_ms(), s.service));
    });
    sim.run_with_sink(w, cs, priorities, sink).unwrap();
    rows
}

/// Strict bit-level equality of a dense run (result and sink-observed
/// rows) with a reference run.
fn assert_bit_identical(
    dense: &SimResult,
    dense_rows: &OwnRows,
    (reference, reference_rows): &(SimResult, OwnRows),
    label: &str,
) {
    assert_eq!(dense.generated, reference.generated, "{label}: generated");
    assert_eq!(dense.completed, reference.completed, "{label}: completed");
    assert_eq!(dense.dropped, reference.dropped, "{label}: dropped");
    assert_eq!(dense.timed_out, reference.timed_out, "{label}: timed_out");
    assert_eq!(
        dense.crash_violations, reference.crash_violations,
        "{label}: crash_violations"
    );
    assert_eq!(
        dense.crashed_containers, reference.crashed_containers,
        "{label}: crashed_containers"
    );
    assert_eq!(
        dense.lost_spans, reference.lost_spans,
        "{label}: lost_spans"
    );
    assert_eq!(dense.events, reference.events, "{label}: events");
    assert_eq!(
        dense.trace_store.trace_count(),
        reference.trace_store.trace_count(),
        "{label}: trace count"
    );
    assert_eq!(
        dense.trace_store.span_count(),
        reference.trace_store.span_count(),
        "{label}: span count"
    );

    let d_keys: Vec<_> = dense.service_latencies.keys().collect();
    let r_keys: Vec<_> = reference.service_latencies.keys().collect();
    assert_eq!(d_keys, r_keys, "{label}: service-latency key sets");
    for (sid, d_lat) in &dense.service_latencies {
        let r_lat = &reference.service_latencies[sid];
        assert_eq!(d_lat.len(), r_lat.len(), "{label}: {sid} sample count");
        for (i, (d, r)) in d_lat.iter().zip(r_lat).enumerate() {
            assert_eq!(
                d.to_bits(),
                r.to_bits(),
                "{label}: {sid} latency sample {i} diverged ({d} vs {r})"
            );
        }
    }

    let d_keys: Vec<_> = dense_rows.keys().collect();
    let r_keys: Vec<_> = reference_rows.keys().collect();
    assert_eq!(d_keys, r_keys, "{label}: own-latency key sets");
    for (ms, d_rows) in dense_rows {
        let r_rows = &reference_rows[ms];
        assert_eq!(d_rows.len(), r_rows.len(), "{label}: {ms} row count");
        for (i, (d, r)) in d_rows.iter().zip(r_rows).enumerate() {
            assert_eq!(d.0.to_bits(), r.0.to_bits(), "{label}: {ms} row {i} at_ms");
            assert_eq!(d.1.to_bits(), r.1.to_bits(), "{label}: {ms} row {i} own");
            assert_eq!(d.2, r.2, "{label}: {ms} row {i} service");
        }
    }
}

/// FNV-1a digest over counters and every latency bit pattern — the
/// "golden digest" form pinned against engine drift.
fn digest(result: &SimResult) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(result.generated);
    eat(result.completed);
    eat(result.dropped);
    eat(result.timed_out);
    eat(result.crash_violations);
    eat(result.crashed_containers);
    eat(result.lost_spans);
    eat(result.events);
    eat(result.trace_store.trace_count() as u64);
    eat(result.trace_store.span_count() as u64);
    for (sid, latencies) in &result.service_latencies {
        eat(sid.index() as u64);
        // Sorted per-service samples: the digest pins the distribution.
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        for l in sorted {
            eat(l.to_bits());
        }
    }
    h
}

fn base_config(seed: u64) -> SimConfig {
    SimConfig {
        duration_ms: 20_000.0,
        warmup_ms: 2_000.0,
        seed,
        trace_sampling: 0.1,
        ..SimConfig::default()
    }
}

fn fault_plan(ms: MicroserviceId) -> FaultPlan {
    FaultPlan::new()
        .crash(ms, 9_000.0, 1)
        .cold_start(ms, 1, 2_500.0)
        .with_drop_probability(0.05)
        .with_span_loss(0.1)
        .with_deadline_ms(250.0)
}

#[test]
fn dense_engine_matches_reference_on_golden_matrix() {
    type AppBuild = fn() -> (App, Vec<MicroserviceId>, Vec<ServiceId>);
    let apps: [(&str, AppBuild); 2] = [("chain", chain_app), ("shared", shared_app)];
    for (app_name, build) in apps {
        let (app, ms_ids, services) = build();
        let cs = containers_for(&app, 2);
        for rate in [600.0, 9_000.0] {
            for with_faults in [false, true] {
                for seed in [7u64, 1234] {
                    let mut sim = Simulation::new(&app, base_config(seed));
                    for &ms in &ms_ids {
                        sim.set_service_time(ms, ServiceTimeModel::new(1.5, 0.4, 1.0, 0.5));
                    }
                    sim.set_uniform_interference(Interference::new(0.3, 0.25));
                    if with_faults {
                        sim.set_fault_plan(fault_plan(*ms_ids.last().unwrap()));
                    }
                    let mut w = WorkloadVector::new();
                    for &sid in &services {
                        w.set(sid, RequestRate::per_minute(rate));
                    }
                    // Prioritise the first service at every shared
                    // microservice so the priority-class path is covered.
                    let mut priorities = BTreeMap::new();
                    if services.len() > 1 {
                        priorities.insert(ms_ids[2], services.clone());
                    }
                    let label = format!("{app_name} rate={rate} faults={with_faults} seed={seed}");
                    let dense = sim.run(&w, &cs, &priorities).unwrap();
                    let dense_rows = dense_own_rows(&sim, &w, &cs, &priorities);
                    let reference = sim.run_reference(&w, &cs, &priorities).unwrap();
                    assert_bit_identical(&dense, &dense_rows, &reference, &label);
                }
            }
        }
    }
}

#[test]
fn dense_engine_matches_reference_under_fcfs_and_host_failure() {
    let (app, ms_ids, services) = shared_app();
    let cs = containers_for(&app, 3);
    let mut config = base_config(99);
    config.scheduling = Scheduling::Fcfs;
    config.trace_sampling = 1.0;
    let mut sim = Simulation::new(&app, config);
    let mut losses = BTreeMap::new();
    losses.insert(ms_ids[0], 1u32);
    losses.insert(ms_ids[2], 2u32);
    sim.set_fault_plan(FaultPlan::new().host_failure(8_000.0, losses));
    let mut w = WorkloadVector::new();
    for &sid in &services {
        w.set(sid, RequestRate::per_minute(6_000.0));
    }
    let dense = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
    let dense_rows = dense_own_rows(&sim, &w, &cs, &BTreeMap::new());
    let reference = sim.run_reference(&w, &cs, &BTreeMap::new()).unwrap();
    assert_bit_identical(&dense, &dense_rows, &reference, "fcfs host-failure");
    assert!(dense.crashed_containers == 3);
}

/// The pinned digest: captured from the pre-refactor engine on this exact
/// configuration. Guards against the dense engine and the in-repo
/// reference drifting in lockstep.
#[test]
fn golden_digest_is_pinned() {
    let (app, ms_ids, services) = chain_app();
    let cs = containers_for(&app, 2);
    let mut sim = Simulation::new(&app, base_config(42));
    for &ms in &ms_ids {
        sim.set_service_time(ms, ServiceTimeModel::new(2.0, 0.3, 1.0, 0.5));
    }
    sim.set_uniform_interference(Interference::new(0.2, 0.2));
    let mut w = WorkloadVector::new();
    w.set(services[0], RequestRate::per_minute(3_000.0));
    let dense = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
    let (reference, _) = sim.run_reference(&w, &cs, &BTreeMap::new()).unwrap();
    assert_eq!(digest(&dense), digest(&reference));
    // Captured from the pre-refactor engine (see file docs). If this
    // fails, the engines changed semantics *together* — that is a
    // deliberate decision, not a refactor, and needs a new capture.
    assert_eq!(
        digest(&dense),
        GOLDEN_DIGEST,
        "pinned golden digest drifted"
    );
}

/// FNV-1a digest of the `golden_digest_is_pinned` configuration, captured
/// from the map-based reference engine. The value is a function of the
/// engines' shared RNG consumption, so it pins the sampling algorithms
/// too — it was re-captured when service-time sampling moved from
/// Box–Muller to the ziggurat (both engines changed together; the
/// dense == reference assertions above never drifted).
const GOLDEN_DIGEST: u64 = 4880943419187733637;

/// The sharded engine's own pinned digest, on the same configuration as
/// `golden_digest_is_pinned`. The sharded engine consumes entity-keyed
/// RNG streams instead of `run`'s single global stream, so its digest is
/// a *different* constant — pinned here so the whole K × thread matrix is
/// anchored to one captured value, not merely self-consistent.
#[test]
fn sharded_golden_digest_is_pinned() {
    let (app, ms_ids, services) = chain_app();
    let cs = containers_for(&app, 2);
    let mut sim = Simulation::new(&app, base_config(42));
    for &ms in &ms_ids {
        sim.set_service_time(ms, ServiceTimeModel::new(2.0, 0.3, 1.0, 0.5));
    }
    sim.set_uniform_interference(Interference::new(0.2, 0.2));
    let mut w = WorkloadVector::new();
    w.set(services[0], RequestRate::per_minute(3_000.0));
    let base = sim.run_sharded(&w, &cs, &BTreeMap::new(), 1).unwrap();
    assert_eq!(
        digest(&base),
        SHARDED_GOLDEN_DIGEST,
        "pinned sharded golden digest drifted"
    );
    for k in [2usize, 4] {
        let sharded = sim.run_sharded(&w, &cs, &BTreeMap::new(), k).unwrap();
        assert_eq!(
            digest(&sharded),
            SHARDED_GOLDEN_DIGEST,
            "K={k} diverged from the pinned sharded digest"
        );
    }
}

/// FNV-1a digest of the `sharded_golden_digest_is_pinned` configuration,
/// captured from `run_sharded(.., 1)` when the sharded engine landed.
const SHARDED_GOLDEN_DIGEST: u64 = 3806858764435182055;

/// The partition-aware adaptive-window entry point must land on the very
/// same pinned digest: topology-aware partitions (and the window widening
/// they enable) move *where* events execute, never what they compute.
#[test]
fn partitioned_runs_hit_the_pinned_sharded_digest() {
    let (app, ms_ids, services) = chain_app();
    let cs = containers_for(&app, 2);
    let mut sim = Simulation::new(&app, base_config(42));
    for &ms in &ms_ids {
        sim.set_service_time(ms, ServiceTimeModel::new(2.0, 0.3, 1.0, 0.5));
    }
    sim.set_uniform_interference(Interference::new(0.2, 0.2));
    let mut w = WorkloadVector::new();
    w.set(services[0], RequestRate::per_minute(3_000.0));
    for k in [2usize, 3] {
        let partition = erms_sim::Partition::topology_aware(&app, &w, k);
        let (result, stats) = sim
            .run_sharded_with_partition(&w, &cs, &BTreeMap::new(), &partition)
            .unwrap();
        assert_eq!(
            digest(&result),
            SHARDED_GOLDEN_DIGEST,
            "topology-aware K={k} diverged from the pinned sharded digest"
        );
        assert_eq!(stats.shards, k);
        assert_eq!(
            stats.cut_edges == 0,
            stats.messages == 0,
            "cut edges and message traffic must agree (stats {stats:?})"
        );
    }
}

/// The telemetry sink must be invisible to the simulation: its sampling
/// coin is a private counter-hash stream, never the engine RNG, so a
/// run observed by an enabled collector reproduces the pinned golden
/// digest bit for bit — while the collector itself sees real traffic.
#[test]
fn golden_digest_unchanged_with_telemetry_sink() {
    use erms_telemetry::{TelemetryCollector, TelemetryConfig};

    let (app, ms_ids, services) = chain_app();
    let cs = containers_for(&app, 2);
    let mut sim = Simulation::new(&app, base_config(42));
    for &ms in &ms_ids {
        sim.set_service_time(ms, ServiceTimeModel::new(2.0, 0.3, 1.0, 0.5));
    }
    sim.set_uniform_interference(Interference::new(0.2, 0.2));
    let mut w = WorkloadVector::new();
    w.set(services[0], RequestRate::per_minute(3_000.0));
    let mut collector = TelemetryCollector::for_app(
        &app,
        TelemetryConfig {
            sampling: 0.5,
            ring_capacity: 4_096,
            seed: 9,
            relative_error: 0.01,
        },
    );
    let observed = sim
        .run_with_sink(&w, &cs, &BTreeMap::new(), &mut collector)
        .unwrap();
    assert_eq!(
        digest(&observed),
        GOLDEN_DIGEST,
        "an enabled telemetry sink changed simulation results"
    );
    // And the collector really observed the run.
    assert!(collector.spans_seen() > 0, "sink saw no spans");
    assert!(collector.spans_sampled() > 0, "sampling selected nothing");
    assert!(
        collector.spans_sampled() < collector.spans_seen(),
        "0.5 sampling kept every span"
    );
    assert_eq!(
        collector.requests_seen() as usize,
        observed.service_latencies[&services[0]].len(),
        "sink must see exactly the post-warm-up completions"
    );
}
