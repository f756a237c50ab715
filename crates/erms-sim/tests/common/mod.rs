//! Shared by the shard suites: a sharded run observed through per-shard
//! sinks, the only per-call observation path the engines have.

use std::collections::BTreeMap;

use erms_core::app::{App, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_sim::runtime::{SimResult, Simulation};
use erms_sim::telemetry::{FnSink, SpanRecord};
use erms_sim::{Partition, ShardStats};

/// The spans the sinks saw, by microservice, in completion order.
pub type OwnRows = BTreeMap<MicroserviceId, Vec<SpanRecord>>;

/// Runs `sim` under `partition` with one span-recording sink per shard and
/// groups the streams by microservice. Each microservice lives on one
/// shard, so its rows come from one stream and keep that shard's order.
pub fn observe_sharded(
    sim: &Simulation<'_>,
    workloads: &WorkloadVector,
    containers: &BTreeMap<MicroserviceId, u32>,
    priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
    partition: &Partition,
) -> ((SimResult, OwnRows), ShardStats) {
    let mut streams: Vec<Vec<SpanRecord>> = vec![Vec::new(); partition.shards()];
    let mut sinks: Vec<_> = streams
        .iter_mut()
        .map(|stream| FnSink::spans(move |s: &SpanRecord| stream.push(*s)))
        .collect();
    let (result, stats) = sim
        .run_sharded_with_sinks(workloads, containers, priorities, partition, &mut sinks)
        .unwrap();
    drop(sinks);
    let mut rows = OwnRows::new();
    for s in streams.iter().flatten() {
        rows.entry(s.microservice).or_default().push(*s);
    }
    ((result, rows), stats)
}

/// `run_sharded(.., k)` — the modulo partition — observed the same way
/// (`erms-telemetry`'s `shard_merge` suite pins that sinks do not perturb a
/// sharded run).
pub fn observe_modulo(
    sim: &Simulation<'_>,
    app: &App,
    workloads: &WorkloadVector,
    containers: &BTreeMap<MicroserviceId, u32>,
    priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
    k: usize,
) -> (SimResult, OwnRows) {
    let partition = Partition::modulo(app.microservice_count(), k);
    observe_sharded(sim, workloads, containers, priorities, &partition).0
}

/// Compact FNV-1a digest over every deterministic field of a result and
/// the own-latency rows its sinks saw.
// `shard_determinism` compares field by field and has no use for it.
#[allow(dead_code)]
pub fn digest((result, own_rows): &(SimResult, OwnRows)) -> u64 {
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
    for (sid, latencies) in &result.service_latencies {
        eat(sid.index() as u64);
        eat(latencies.len() as u64);
        for l in latencies {
            eat(l.to_bits());
        }
    }
    for (ms, rows) in own_rows {
        eat(ms.index() as u64);
        eat(rows.len() as u64);
        for s in rows {
            eat(s.start_ms.to_bits());
            eat(s.latency_ms().to_bits());
            eat(s.service.index() as u64);
        }
    }
    for (id, spans) in result.trace_store.iter() {
        eat(id.0);
        eat(spans.len() as u64);
        for s in spans {
            eat(s.span_id.0);
            eat(s.start_ms.to_bits());
            eat(s.end_ms.to_bits());
        }
    }
    h
}
