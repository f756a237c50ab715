//! Golden bytes of the wire: span bodies, plans and snapshots.
//!
//! The daemon and every client render with the same writer, so a writer
//! that moved a byte would agree with itself and no round trip could see
//! it. These digests were taken from the `Display`-based writer the
//! current one replaced, and the snapshot's from the tree the streamed
//! `snapshot::save` replaced; a changed byte in any of the three documents
//! fails here.

use std::collections::BTreeMap;

use erms::control::codec::{plan_to_json, span_batch_to_json, SpanBatch};
use erms::control::snapshot;
use erms::control::{Registry, Tenant};
use erms::core::prelude::*;
use erms::sim::runtime::{SimConfig, Simulation};
use erms::sim::service_time::derive_from_profile;
use erms::sim::telemetry::{FnSink, SpanRecord};
use erms::trace::synth::{generate, SynthConfig};
use erms::workload::apps::fig5_app;

/// FNV-1a over the bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Seed 1 of the Fig. 5 app at 12 000 req/min per service, four
/// containers each, for 10 simulated seconds: what the DES ships.
fn des_batch() -> SpanBatch {
    let (app, _, [s1, s2]) = fig5_app(300.0);
    let itf = Interference::default();
    let mut sim = Simulation::new(
        &app,
        SimConfig {
            duration_ms: 10_000.0,
            warmup_ms: 1_000.0,
            seed: 1,
            trace_sampling: 0.0,
            ..SimConfig::default()
        },
    );
    for (ms, m) in app.microservices() {
        let (model, threads) = derive_from_profile(&m.profile, itf, 0.75);
        sim.set_service_time(ms, model);
        sim.set_threads(ms, threads);
    }
    sim.set_uniform_interference(itf);
    let containers: BTreeMap<MicroserviceId, u32> =
        app.microservices().map(|(ms, _)| (ms, 4)).collect();
    let mut w = WorkloadVector::new();
    w.set(s1, RequestRate::per_minute(12_000.0));
    w.set(s2, RequestRate::per_minute(12_000.0));
    let mut spans = Vec::new();
    {
        let mut sink = FnSink::spans(|s: &SpanRecord| spans.push(*s));
        sim.run_with_sink(&w, &containers, &BTreeMap::new(), &mut sink)
            .expect("DES run");
    }
    SpanBatch {
        sampling: 1.0,
        containers,
        spans,
    }
}

#[test]
fn span_body_bytes_are_pinned() {
    let batch = des_batch();
    let text = span_batch_to_json(&batch).render();
    assert_eq!(batch.spans.len(), 7_164);
    assert_eq!((text.len(), fnv1a(&text)), (331_771, 0xda18_71bd_edf5_f4a1));
}

#[test]
fn plan_bytes_are_pinned() {
    // The 1000-microservice tenant of the benchmark's `replan_churn`.
    let app = generate(&SynthConfig::scaled(1000, 42)).app;
    let pool: Vec<Host> = (0..200).map(|_| Host::paper_host()).collect();
    let mut tenant = Tenant::new("churn", app, &pool);
    tenant.workloads = tenant
        .app
        .services()
        .enumerate()
        .map(|(i, (sid, _))| (sid, RequestRate::per_minute(90.0 * (i % 37 + 1) as f64)))
        .collect();
    assert!(!tenant.replan().skipped);
    let text = plan_to_json(tenant.plan().expect("applied")).render();
    assert_eq!((text.len(), fnv1a(&text)), (92_674, 0x290d_f350_8711_1ec4));
}

#[test]
fn snapshot_bytes_are_pinned() {
    let (app, _, [s1, s2]) = fig5_app(300.0);
    let mut registry = Registry::new(vec![Host::paper_host(), Host::paper_host()]);
    registry.create("fig5", app).expect("create");
    let handle = registry.tenant("fig5").expect("tenant");
    {
        let mut tenant = handle.lock().unwrap();
        let mut w = WorkloadVector::new();
        w.set(s1, RequestRate::per_minute(9_000.0));
        w.set(s2, RequestRate::per_minute(7_000.0));
        tenant.workloads = w;
        assert!(!tenant.replan().skipped);
        tenant.ingest(&des_batch()).expect("ingest");
        tenant.replan();
    }
    let path =
        std::env::temp_dir().join(format!("erms-golden-snapshot-{}.json", std::process::id()));
    let written = snapshot::save(&registry, &path).expect("save");
    let text = std::fs::read_to_string(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    assert_eq!(written, text.len() as u64);
    assert_eq!((text.len(), fnv1a(&text)), (5_271, 0x7d8e_9c77_2b4b_6649));
}
