//! Telemetry sink merge across simulation shards.
//!
//! `Simulation::run_sharded_with_sinks` attaches one sink per shard; each
//! sink observes exactly the spans and requests served by its shard's
//! microservices. The per-shard [`TelemetryCollector`]s are then folded
//! with [`TelemetryCollector::merge`]. This suite pins the contract:
//!
//! * attaching enabled collectors must not perturb the simulation — the
//!   observed K-shard run stays bit-identical to the unobserved K=1 run;
//! * every span/request is observed by exactly one shard (counters are
//!   partition-invariant);
//! * at sampling 1.0 the merged sketches hold the same multiset of
//!   latencies as a single K=1 collector, so quantile queries agree
//!   exactly; and
//! * the fold is order-invariant for counters and sketches (shard order
//!   and reverse order give identical quantiles).

use std::collections::BTreeMap;

use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::LatencyProfile;
use erms_core::resources::Resources;
use erms_sim::runtime::{SimConfig, Simulation};
use erms_sim::service_time::ServiceTimeModel;
use erms_sim::Partition;
use erms_telemetry::{TelemetryCollector, TelemetryConfig};

fn fanout_app() -> (App, Vec<MicroserviceId>, Vec<ServiceId>) {
    let mut b = AppBuilder::new("shard-merge");
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

fn telemetry_config() -> TelemetryConfig {
    TelemetryConfig {
        sampling: 1.0,
        ring_capacity: 65_536,
        seed: 0x7EEE,
        relative_error: 0.01,
    }
}

#[test]
fn shard_sinks_partition_the_stream_and_merge_cleanly() {
    let (app, ms_ids, services) = fanout_app();
    let mut sim = Simulation::new(
        &app,
        SimConfig {
            duration_ms: 20_000.0,
            warmup_ms: 2_000.0,
            seed: 21,
            trace_sampling: 0.1,
            ..SimConfig::default()
        },
    );
    for &ms in &ms_ids {
        sim.set_service_time(ms, ServiceTimeModel::new(1.5, 0.4, 1.0, 0.5));
    }
    let containers: BTreeMap<_, _> = ms_ids.iter().map(|&ms| (ms, 2u32)).collect();
    let mut w = WorkloadVector::new();
    for &sid in &services {
        w.set(sid, RequestRate::per_minute(6_000.0));
    }

    // Unobserved baseline and K=1 observed run.
    let unobserved = sim
        .run_sharded(&w, &containers, &BTreeMap::new(), 4)
        .unwrap();
    let mut single = vec![TelemetryCollector::for_app(&app, telemetry_config())];
    let modulo = |k| Partition::modulo(app.microservice_count(), k);
    let (observed_k1, _) = sim
        .run_sharded_with_sinks(&w, &containers, &BTreeMap::new(), &modulo(1), &mut single)
        .unwrap();
    let single = single.pop().unwrap();

    // K=4 observed run, one collector per shard.
    let mut shard_sinks: Vec<TelemetryCollector> = (0..4)
        .map(|_| TelemetryCollector::for_app(&app, telemetry_config()))
        .collect();
    let (observed_k4, _) = sim
        .run_sharded_with_sinks(
            &w,
            &containers,
            &BTreeMap::new(),
            &modulo(4),
            &mut shard_sinks,
        )
        .unwrap();

    // Sink invisibility on the sharded path: observing the run does not
    // change it, and neither does the shard count.
    for (got, want, label) in [
        (&observed_k1, &unobserved, "K=1 observed"),
        (&observed_k4, &unobserved, "K=4 observed"),
    ] {
        assert_eq!(got.generated, want.generated, "{label}: generated");
        assert_eq!(got.completed, want.completed, "{label}: completed");
        assert_eq!(got.events, want.events, "{label}: events");
        for (sid, g_lat) in &got.service_latencies {
            let w_lat = &want.service_latencies[sid];
            assert_eq!(g_lat.len(), w_lat.len(), "{label}: {sid} samples");
            for (g, w) in g_lat.iter().zip(w_lat) {
                assert_eq!(g.to_bits(), w.to_bits(), "{label}: {sid} latency bits");
            }
        }
    }

    // Every span and request lands on exactly one shard's sink.
    let seen: u64 = shard_sinks.iter().map(|c| c.spans_seen()).sum();
    assert_eq!(
        seen,
        single.spans_seen(),
        "span partition lost or duplicated"
    );
    let requests: u64 = shard_sinks.iter().map(|c| c.requests_seen()).sum();
    assert_eq!(requests, single.requests_seen(), "request partition");
    assert!(
        shard_sinks.iter().filter(|c| c.spans_seen() > 0).count() > 1,
        "expected spans on more than one shard"
    );

    // Fold in shard order and in reverse order.
    let mut forward = TelemetryCollector::for_app(&app, telemetry_config());
    for c in &shard_sinks {
        forward.merge(c).unwrap();
    }
    let mut backward = TelemetryCollector::for_app(&app, telemetry_config());
    for c in shard_sinks.iter().rev() {
        backward.merge(c).unwrap();
    }
    assert_eq!(forward.spans_seen(), single.spans_seen());
    assert_eq!(forward.spans_sampled(), single.spans_sampled());
    assert_eq!(forward.requests_seen(), single.requests_seen());

    // At sampling 1.0 the merged sketches hold the same latencies as the
    // single collector, bucket for bucket: quantiles agree exactly — and
    // the fold order is irrelevant.
    for &ms in &ms_ids {
        let (f, s) = (forward.ms_latency(ms), single.ms_latency(ms));
        match (f, s) {
            (Some(f), Some(s)) => {
                assert_eq!(f.count(), s.count(), "{ms}: sketch count");
                for q in [0.5, 0.95, 0.99] {
                    assert_eq!(
                        f.quantile(q).to_bits(),
                        s.quantile(q).to_bits(),
                        "{ms}: P{} diverged",
                        q * 100.0
                    );
                    let b = backward.ms_latency(ms).unwrap();
                    assert_eq!(
                        f.quantile(q).to_bits(),
                        b.quantile(q).to_bits(),
                        "{ms}: merge order changed P{}",
                        q * 100.0
                    );
                }
            }
            (None, None) => {}
            _ => panic!("{ms}: sketch presence differs between merged and single"),
        }
    }
    for &sid in &services {
        let f = forward.service_latency(sid).expect("service observed");
        let s = single.service_latency(sid).expect("service observed");
        assert_eq!(f.count(), s.count(), "{sid}: e2e sketch count");
        assert_eq!(f.quantile(0.95).to_bits(), s.quantile(0.95).to_bits());
    }
}
