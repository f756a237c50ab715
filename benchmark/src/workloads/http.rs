//! What the three HTTP workloads share: the counting client, the daemon
//! start-up, the in-process shadow replay that splits an HTTP call's time
//! among the layers behind it, and the layer metrics read off the spans.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;

use erms::control::codec::{
    app_from_json, plan_from_json, plan_to_json, span_batch_from_json, workloads_from_json,
};
use erms::control::{Client, ControlPlane, ControlPlaneConfig, Json, Registry, Tenant};
use erms::core::prelude::MicroserviceId;
use erms::profilers::dataset::Sample;
use erms::profilers::piecewise::PiecewiseFitter;
use erms::telemetry::OnlineProfiler;

use super::Outcome;
use crate::stats;
use crate::trace::{self, Layer, Open, Span, Tracer};

/// Starts the daemon in this process with one worker per core, and two on
/// a single core: a worker serves one keep-alive connection at a time, and
/// `control_mix` holds two open. The harness never holds more.
pub fn start_plane(registry: Registry, snapshot_path: Option<PathBuf>) -> ControlPlane {
    let config = ControlPlaneConfig {
        workers: crate::host::nproc().max(2),
        snapshot_path,
        ..ControlPlaneConfig::default()
    };
    ControlPlane::start(config, registry).expect("start the control plane on loopback")
}

/// A keep-alive client that counts what it sends and what fails.
pub struct Wire {
    client: Client,
    pub attempted: u64,
    pub failed: u64,
    /// Request body bytes sent to the daemon.
    pub bytes_in: u64,
    /// Response body bytes it answered with.
    pub bytes_out: u64,
}

impl Wire {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            client: Client::new(addr).expect("loopback address resolves"),
            attempted: 0,
            failed: 0,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// One request under a `control.http` span. A transport error or a
    /// status other than `want` counts as a failed operation and yields no
    /// body. The span handle is for the shadow replay to hang children on.
    pub fn call(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        want: u16,
    ) -> (Open, Option<Vec<u8>>) {
        self.attempted += 1;
        let sent = body.map_or(0, <[u8]>::len);
        self.bytes_in += sent as u64;
        let open = tracer.begin(name, Layer::ControlHttp);
        let reply = self.client.request(method, path, body);
        tracer.end_with_bytes(
            open,
            (sent + reply.as_ref().map_or(0, |(_, b)| b.len())) as u64,
        );
        match reply {
            Ok((status, bytes)) if status == want => {
                self.bytes_out += bytes.len() as u64;
                (open, Some(bytes))
            }
            _ => {
                self.failed += 1;
                (open, None)
            }
        }
    }

    /// `GET /healthz` p50 in µs on this connection: what any request costs
    /// before the handler does anything.
    pub fn floor_us(&mut self, requests: usize) -> f64 {
        let samples: Vec<f64> = (0..requests)
            .map(|_| {
                let start = std::time::Instant::now();
                self.client
                    .request("GET", "/healthz", None)
                    .expect("healthz");
                start.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        stats::percentile(&samples, 0.50)
    }
}

/// Stops a daemon. Every client goes first: an idle keep-alive connection
/// makes `ControlPlane::stop` wait out the server's 5 s idle timeout.
pub fn shutdown(plane: ControlPlane, wire: Wire) {
    drop(wire);
    plane.stop();
}

pub fn utf8(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the daemon answers in UTF-8")
}

/// The shadow: a `Registry` in this process that is handed every payload
/// right after the daemon got it, through the public functions the daemon's
/// handlers call, one span each. Its plans must come out byte-identical to
/// the daemon's, which is what entitles its timings to stand for the
/// daemon's.
pub struct Replay {
    registry: Registry,
    /// Stand-in for the tenant's profiler when `ingest_spans` is timed on
    /// its own (the tenant's has already taken the batch).
    probe: OnlineProfiler,
    pub spans_ingested: u64,
    pub samples_added: u64,
    pub batches: u64,
}

impl Replay {
    pub fn new(registry: Registry) -> Self {
        Self {
            registry,
            probe: OnlineProfiler::new(),
            spans_ingested: 0,
            samples_added: 0,
            batches: 0,
        }
    }

    /// Samples the stand-in profiler has windowed so far.
    pub fn probe_samples(&self) -> &BTreeMap<MicroserviceId, Vec<Sample>> {
        self.probe.samples()
    }

    pub fn create(&mut self, t: &mut Tracer, of: Open, body: &str) {
        let block = t.begin_shadow(of);
        let json = t.time_bytes(
            "Json::parse",
            Layer::ControlJson,
            || Json::parse(body).expect("tenant body parses"),
            |_| body.len(),
        );
        let id = json.get("id").and_then(Json::as_str).expect("tenant id");
        let app = t.time("codec::app_from_json", Layer::ControlCodec, || {
            app_from_json(json.get("app").expect("tenant app")).expect("tenant app decodes")
        });
        t.time("Registry::create", Layer::ControlTenant, || {
            self.registry.create(id, app).expect("fresh tenant id");
        });
        t.end(block);
    }

    pub fn delete(&mut self, t: &mut Tracer, of: Open, id: &str) {
        let block = t.begin_shadow(of);
        t.time("Registry::remove", Layer::ControlTenant, || {
            self.registry.remove(id)
        });
        t.end(block);
    }

    pub fn workloads(&mut self, t: &mut Tracer, of: Open, id: &str, body: &str) {
        let block = t.begin_shadow(of);
        let json = t.time_bytes(
            "Json::parse",
            Layer::ControlJson,
            || Json::parse(body).expect("workloads body parses"),
            |_| body.len(),
        );
        let workloads = t.time("codec::workloads_from_json", Layer::ControlCodec, || {
            workloads_from_json(&json).expect("workloads decode")
        });
        self.registry
            .with_tenant(id, |tenant| tenant.workloads = workloads)
            .expect("shadow tenant exists");
        t.end(block);
    }

    /// Replays one span batch; returns the samples the shadow accepted.
    pub fn ingest(&mut self, t: &mut Tracer, of: Open, id: &str, body: &str) -> usize {
        let block = t.begin_shadow(of);
        let json = t.time_bytes(
            "Json::parse spans",
            Layer::ControlJson,
            || Json::parse(body).expect("span body parses"),
            |_| body.len(),
        );
        let batch = t.time("codec::span_batch_from_json", Layer::ControlCodec, || {
            span_batch_from_json(&json).expect("span batch decodes")
        });
        let probe = &mut self.probe;
        let added = self
            .registry
            .with_tenant(id, |tenant| {
                let ingest = t.begin("Tenant::ingest", Layer::ControlTenant);
                let added = tenant.ingest(&batch).expect("shadow ingest");
                t.end(ingest);
                // The same windowing once more, alone, as Tenant::ingest's
                // child: what is left of the parent is the tenant's own.
                let containers: BTreeMap<_, _> = if batch.containers.is_empty() {
                    tenant.plan().expect("a plan is applied").iter().collect()
                } else {
                    batch.containers.clone()
                };
                let itf = tenant.cluster.average_interference(&tenant.app);
                let inner = t.begin_shadow(ingest);
                t.time(
                    "OnlineProfiler::ingest_spans",
                    Layer::TelemetryOnline,
                    || probe.ingest_spans(batch.spans.iter(), &containers, itf, batch.sampling),
                );
                t.end(inner);
                added
            })
            .expect("shadow tenant exists");
        t.end(block);
        self.spans_ingested += batch.spans.len() as u64;
        self.samples_added += added as u64;
        self.batches += 1;
        added
    }

    /// Replays one control round; returns the shadow's rendered plan.
    pub fn replan(&mut self, t: &mut Tracer, of: Open, id: &str) -> String {
        let block = t.begin_shadow(of);
        let rendered = self
            .registry
            .with_tenant(id, |tenant| {
                let round = t.begin("Tenant::replan", Layer::CoreResilience);
                tenant.replan();
                t.end(round);
                // `refit` is `&self` and the samples are unchanged, so the
                // same fit can be timed again on its own as the round's
                // child; the rest of the round is `run_round`.
                let inner = t.begin_shadow(round);
                t.time("OnlineProfiler::refit", Layer::TelemetryOnline, || {
                    std::hint::black_box(tenant.profiler.refit(&tenant.app));
                });
                t.end(inner);
                let plan = tenant.plan().expect("the shadow round applied a plan");
                let json = t.time("codec::plan_to_json", Layer::ControlCodec, || {
                    plan_to_json(plan)
                });
                t.time_bytes(
                    "Json::render plan",
                    Layer::ControlJson,
                    || json.render(),
                    String::len,
                )
            })
            .expect("shadow tenant exists");
        t.end(block);
        rendered
    }
}

/// Splits a `GET plan` the way the daemon serves it: decodes the reply,
/// then times `plan_to_json` and `Json::render` on that plan as the call's
/// children. Returns whether the re-encoding gave the reply's bytes back.
pub fn replay_get_plan(t: &mut Tracer, of: Open, reply: &str) -> bool {
    let block = t.begin_shadow(of);
    let plan = Json::parse(reply)
        .ok()
        .and_then(|json| plan_from_json(&json).ok());
    let same = plan.is_some_and(|plan| {
        let json = t.time("codec::plan_to_json", Layer::ControlCodec, || {
            plan_to_json(&plan)
        });
        t.time_bytes(
            "Json::render plan",
            Layer::ControlJson,
            || json.render(),
            String::len,
        ) == reply
    });
    t.end(block);
    same
}

fn mean_ms(spans: &[Span], name: &str) -> f64 {
    stats::mean(&trace::durations_ms(spans, name))
}

/// Layer metrics that are plain readings of the traced repetition's spans.
pub fn span_layers(out: &mut Outcome, replay: &Replay) {
    let spans = std::mem::take(&mut out.spans);
    for (metric, name) in [
        ("control.json.render_mb_per_s.spans", "Json::render spans"),
        ("control.json.parse_mb_per_s.spans", "Json::parse spans"),
        ("control.json.render_mb_per_s.plan", "Json::render plan"),
        ("control.json.parse_mb_per_s.plan", "Json::parse plan"),
    ] {
        out.layer(metric, trace::mb_per_s(&spans, name));
    }
    for (metric, name) in [
        ("control.codec.span_encode_ms", "codec::span_batch_to_json"),
        (
            "control.codec.span_decode_ms",
            "codec::span_batch_from_json",
        ),
        ("control.codec.plan_encode_ms", "codec::plan_to_json"),
        ("control.codec.plan_decode_ms", "codec::plan_from_json"),
        ("control.tenant.ingest_ms", "Tenant::ingest"),
        ("control.tenant.replan_ms", "Tenant::replan"),
    ] {
        out.layer(metric, mean_ms(&spans, name));
    }
    let own = trace::self_times_ns(&spans);
    let posts: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "POST spans")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    out.layer("control.http.ingest_overhead_ms", stats::mean(&posts));
    let windowing_s: f64 = trace::durations_ms(&spans, "OnlineProfiler::ingest_spans")
        .iter()
        .sum::<f64>()
        / 1e3;
    if windowing_s > 0.0 {
        out.layer(
            "telemetry.online.ingest_spans_per_s",
            replay.spans_ingested as f64 / windowing_s,
        );
        out.layer(
            "telemetry.online.samples_per_batch",
            replay.samples_added as f64 / replay.batches as f64,
        );
    }
    // First against last refit of an operation: windows pile up in between.
    let mut refits: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "OnlineProfiler::refit") {
        refits.entry(s.op).or_default().push(s.dur_ms());
    }
    let firsts: Vec<f64> = refits.values().map(|v| v[0]).collect();
    let lasts: Vec<f64> = refits.values().map(|v| v[v.len() - 1]).collect();
    out.layer("telemetry.online.refit_ms.first", stats::mean(&firsts));
    out.layer("telemetry.online.refit_ms.last", stats::mean(&lasts));
    out.spans = spans;
}

/// What the daemon's own tenant counted: what its planner reused, what its
/// ladder did.
pub fn tenant_layers(out: &mut Outcome, tenant: &Tenant) {
    let m = tenant.manager.planner_metrics();
    let second_pass = (m.services_reused + m.services_replanned).max(1);
    out.layer(
        "core.planner.reuse_ratio",
        m.services_reused as f64 / second_pass as f64,
    );
    out.layer(
        "core.cache.hit_ratio",
        tenant.manager.plan_cache().hit_rate(),
    );
    let history = tenant.manager.history();
    out.layer(
        "core.resilience.degraded_rounds",
        history.iter().filter(|r| r.degraded()).count() as f64,
    );
    out.layer(
        "core.resilience.skipped_rounds",
        history.iter().filter(|r| r.skipped()).count() as f64,
    );
}

/// `PiecewiseFitter::fit` alone on one microservice's samples.
pub fn fit_probe(out: &mut Outcome, samples: &[Sample]) {
    let start = std::time::Instant::now();
    let fitted = PiecewiseFitter::default().fit(samples);
    out.layer(
        "profilers.piecewise.fit_us",
        start.elapsed().as_nanos() as f64 / 1e3,
    );
    out.gate(fitted.is_ok(), || {
        "the windowed samples do not fit".to_string()
    });
}
