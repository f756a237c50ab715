//! `control_mix`: span ingest beside plan queries on one tenant lock.
//!
//! The 1000-microservice tenant of `replan_churn`. A writer thread plays a
//! telemetry agent in a closed loop (it waits for each reply): pre-rendered
//! 2000-span batches, every 25th followed by `POST replan`. A reader thread
//! plays dashboards and autoscalers in an open loop at 500 requests/s,
//! timed from the instant each request was due: `GET plan`, every 50th slot
//! a `GET /metrics` instead. Each repetition ends with a snapshot and its
//! load. A change that speeds ingest by holding the tenant lock longer
//! shows as slower queries; the DES does nothing here.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use erms::control::codec::{plan_to_json, span_batch_to_json, SpanBatch};
use erms::control::{snapshot, Client, ControlPlane, Json, Registry};
use erms::core::prelude::{Interference, MicroserviceId};
use erms::sim::telemetry::SpanRecord;
use erms::telemetry::OnlineProfiler;

use super::http::{fit_probe, span_layers, start_plane, tenant_layers, utf8, Replay, Wire};
use super::replan_churn::{pool, SynthTenant};
use super::{derive_seed, drive, ms_since, Outcome, Params, Rep};
use crate::sched::{OpenLoop, Timing};
use crate::stats;
use crate::trace::{Layer, Tracer};

const TENANT: &str = "mix";
const BATCHES: usize = 600;
const SPANS_PER_BATCH: usize = 2_000;
const BODIES: usize = 64;
/// A re-plan holds the tenant lock for about 6 ms (refit, then the round),
/// so one per 25 batches stalls roughly a sixth of the queries: the median
/// query sees ingest contention only, the tail sees the re-plans.
const REPLAN_EVERY: usize = 25;
const QUERIES_PER_S: u64 = 200;
const METRICS_EVERY: u64 = 50;
/// Microservices the spans are spread over: the head of the shared pool.
/// Each keeps the profiler's cap of 2048 samples from the warm-up on, so
/// every re-plan refits the same amount of data.
const OBSERVED: usize = 8;
/// Spans per (microservice, 1 s window): the profiler's `min_samples`.
const PER_CELL: usize = 8;

/// One pre-rendered span batch and what the daemon must answer to it.
struct Body {
    text: String,
    samples: usize,
}

/// What the reader thread brings back from one repetition.
#[derive(Default)]
struct Queries {
    plan: Vec<Timing>,
    metrics_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

struct State {
    plane: ControlPlane,
    tenant: SynthTenant,
    bodies: Vec<Body>,
    snapshot_path: PathBuf,
    batches: usize,
    /// Shadow of a traced run: mirrors set-up and the traced repetition.
    replay: Option<Replay>,
    create_ms: f64,
    /// Of the last repetition: the registry loaded from its snapshot, and
    /// the probes' raw material.
    restored: Option<Registry>,
    /// Save ms, load ms and bytes of the last snapshot.
    snapshot: [f64; 3],
    batch_ms: Vec<f64>,
    queries: Queries,
    bytes: (u64, u64),
    gate_failures: Vec<String>,
}

/// Deterministic spans in the shape of `bench_control::batch`: eight per
/// microservice per 1 s window, so every whole window clears `min_samples`
/// and implies the same load. Latencies follow each microservice's own
/// profile at that load, within a salted ±3 %, so a refit stays close to
/// the profile the planner already has and no round fails. With one load
/// level the fitter stays on its single-segment path; its knee scan is
/// quadratic in the samples kept (about 0.2 s per microservice at the cap)
/// and would turn the workload into a measurement of that alone.
fn batch(
    tenant: &SynthTenant,
    observed: &[MicroserviceId],
    itf: Interference,
    salt: u64,
) -> SpanBatch {
    let sampling = 1.0;
    let gamma = PER_CELL as f64 / sampling * 60.0;
    let per_window = PER_CELL * observed.len();
    let spans = (0..SPANS_PER_BATCH)
        .map(|i| {
            let ms = observed[i % observed.len()];
            let window = (i / per_window) as f64;
            let start = window * 1_000.0 + (i as f64 * 13.7) % 990.0;
            let tail = tenant
                .app
                .microservice(ms)
                .expect("observed microservice exists")
                .profile
                .eval(gamma, itf);
            let jitter = (derive_seed(salt, i as u64) % 600) as f64 / 10_000.0;
            SpanRecord {
                service: tenant.services[i % tenant.services.len()],
                microservice: ms,
                container: (i % 3) as u32,
                priority_class: 0,
                start_ms: start,
                end_ms: start + tail.max(0.1) * (0.97 + jitter),
            }
        })
        .collect();
    SpanBatch {
        sampling,
        containers: observed.iter().map(|&ms| (ms, 1)).collect(),
        spans,
    }
}

impl State {
    fn new(params: &Params) -> Option<Self> {
        let tenant = SynthTenant::new();
        let snapshot_path =
            crate::host::out_dir().join(format!("snapshot-{}.json", std::process::id()));
        let plane = start_plane(Registry::new(pool()), Some(snapshot_path.clone()));
        let mut replay = params.trace.then(|| Replay::new(Registry::new(pool())));
        let off = &mut Tracer::off();
        let mut wire = Wire::new(plane.addr());
        let create_ms = register(&mut wire, &mut replay, &tenant, TENANT)?;

        let itf = plane.with_tenant(TENANT, |t| t.cluster.average_interference(&t.app))?;
        let observed: Vec<MicroserviceId> = plane.with_tenant(TENANT, |t| {
            let plan = t.plan().expect("the first round applied a plan");
            plan.iter()
                .filter(|&(_, n)| n > 0)
                .map(|(ms, _)| ms)
                .take(OBSERVED)
                .collect()
        })?;
        let bodies: Vec<Body> = (0..BODIES as u64)
            .map(|j| {
                let batch = batch(&tenant, &observed, itf, derive_seed(params.seed, 500 + j));
                // What a profiler makes of this batch does not depend on
                // what it has seen before, so one count per body does.
                let samples = OnlineProfiler::new().ingest_spans(
                    batch.spans.iter(),
                    &batch.containers,
                    itf,
                    batch.sampling,
                );
                Body {
                    text: span_batch_to_json(&batch).render(),
                    samples,
                }
            })
            .collect();
        // Warm-up: enough batches to fill the profiler to its cap, then a
        // refit round through the whole path.
        for body in bodies.iter().cycle().take(4 * REPLAN_EVERY) {
            let (http, reply) = wire.call(
                off,
                "POST spans",
                "POST",
                "/v1/tenants/mix/spans",
                Some(body.text.as_bytes()),
                200,
            );
            reply?;
            if let Some(replay) = &mut replay {
                replay.ingest(off, http, TENANT, &body.text);
            }
        }
        let (http, reply) = wire.call(
            off,
            "POST replan",
            "POST",
            "/v1/tenants/mix/replan",
            None,
            200,
        );
        reply?;
        if let Some(replay) = &mut replay {
            replay.replan(off, http, TENANT);
        }
        Some(Self {
            plane,
            tenant,
            bodies,
            snapshot_path,
            batches: params.sized(BATCHES),
            replay,
            create_ms,
            restored: None,
            snapshot: [0.0; 3],
            batch_ms: Vec::new(),
            queries: Queries::default(),
            bytes: (0, 0),
            gate_failures: Vec::new(),
        })
    }
}

/// Creates a tenant of the synthetic app, sets its base rates and runs its
/// first (cold) round. Returns the host ms `POST /v1/tenants` took.
fn register(
    wire: &mut Wire,
    replay: &mut Option<Replay>,
    tenant: &SynthTenant,
    id: &str,
) -> Option<f64> {
    let off = &mut Tracer::off();
    let body = tenant.create_body(id);
    let start = Instant::now();
    let (http, reply) = wire.call(
        off,
        "POST /v1/tenants",
        "POST",
        "/v1/tenants",
        Some(body.as_bytes()),
        201,
    );
    let create_ms = ms_since(start);
    reply?;
    if let Some(replay) = replay {
        replay.create(off, http, &body);
    }
    let body = tenant.rates_body(&tenant.base);
    let path = format!("/v1/tenants/{id}/workloads");
    let (http, reply) = wire.call(
        off,
        "POST workloads",
        "POST",
        &path,
        Some(body.as_bytes()),
        200,
    );
    reply?;
    if let Some(replay) = replay {
        replay.workloads(off, http, id, &body);
    }
    let path = format!("/v1/tenants/{id}/replan");
    let (http, reply) = wire.call(off, "POST replan", "POST", &path, None, 200);
    reply?;
    if let Some(replay) = replay {
        replay.replan(off, http, id);
    }
    Some(create_ms)
}

/// The open-loop reader: one request per slot until told to stop.
fn read_loop(addr: SocketAddr, stop: &AtomicBool) -> Queries {
    let mut client = Client::new(addr).expect("loopback address resolves");
    let mut out = Queries::default();
    let mut schedule = OpenLoop::per_second(QUERIES_PER_S);
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    while !stop.load(Ordering::SeqCst) {
        let slot = schedule.next(now_ns());
        if slot.wait_ns > 0 {
            std::thread::sleep(Duration::from_nanos(slot.wait_ns));
        }
        let metrics = slot.index % METRICS_EVERY == METRICS_EVERY - 1;
        let path = if metrics {
            "/metrics"
        } else {
            "/v1/tenants/mix/plan"
        };
        let sent_ns = now_ns();
        let reply = client.request("GET", path, None);
        let done_ns = now_ns();
        out.attempted += 1;
        if !matches!(reply, Ok((200, _))) {
            out.failed += 1;
        } else if metrics {
            out.metrics_us.push((done_ns - sent_ns) as f64 / 1e3);
        } else {
            out.plan.push(Timing {
                due_ns: slot.due_ns,
                sent_ns,
                done_ns,
            });
        }
    }
    out
}

/// The closed-loop writer: every batch, every 25th a re-plan after it.
/// Returns the samples the daemon reported and the batches it accepted.
fn write_loop(state: &mut State, wire: &mut Wire, tracer: &mut Tracer) -> (u64, u64) {
    let (mut added, mut accepted) = (0, 0);
    state.batch_ms.clear();
    for i in 0..state.batches {
        tracer.set_op(i as u64);
        let body = &state.bodies[i % state.bodies.len()];
        let start = Instant::now();
        let (http, reply) = wire.call(
            tracer,
            "POST spans",
            "POST",
            "/v1/tenants/mix/spans",
            Some(body.text.as_bytes()),
            200,
        );
        state.batch_ms.push(ms_since(start));
        let reported = reply
            .and_then(|bytes| Json::parse(&utf8(bytes)).ok())
            .and_then(|j| j.get("samples_added").and_then(Json::as_f64));
        if let Some(reported) = reported {
            added += reported as u64;
            accepted += 1;
        }
        if let Some(replay) = state.replay.as_mut().filter(|_| tracer.enabled()) {
            replay.ingest(tracer, http, TENANT, &body.text);
        }
        if (i + 1) % REPLAN_EVERY == 0 {
            let (http, reply) = wire.call(
                tracer,
                "POST replan",
                "POST",
                "/v1/tenants/mix/replan",
                None,
                200,
            );
            if let Some(replay) = state.replay.as_mut().filter(|_| tracer.enabled()) {
                let shadow = replay.replan(tracer, http, TENANT);
                let served = reply
                    .and_then(|bytes| Json::parse(&utf8(bytes)).ok())
                    .and_then(|j| j.get("plan").map(Json::render));
                if served.as_deref() != Some(&shadow) {
                    state.gate_failures.push(format!(
                        "batch {i}: the shadow's plan bytes differ from the daemon's"
                    ));
                }
            }
        }
    }
    (added, accepted)
}

fn repetition(state: &mut State, tracer: &mut Tracer) -> Rep {
    let addr = state.plane.addr();
    let stop = AtomicBool::new(false);
    let mut wire = Wire::new(addr);
    let start = Instant::now();
    let ((added, accepted), queries) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(addr, &stop));
        let written = write_loop(state, &mut wire, tracer);
        stop.store(true, Ordering::SeqCst);
        (written, reader.join().expect("the reader thread panicked"))
    });
    // The repetition ends with what a restart costs: snapshot, then load.
    let save = Instant::now();
    let (_, reply) = wire.call(
        tracer,
        "POST /v1/snapshot",
        "POST",
        "/v1/snapshot",
        None,
        200,
    );
    let save_ms = ms_since(save);
    let load = Instant::now();
    let restored = tracer.time("snapshot::load", Layer::ControlSnapshot, || {
        snapshot::load(&state.snapshot_path)
    });
    let load_ms = ms_since(load);
    let wall_s = start.elapsed().as_secs_f64();

    let bytes = reply
        .and_then(|b| Json::parse(&utf8(b)).ok())
        .and_then(|j| j.get("bytes").and_then(Json::as_f64));
    state.snapshot = [save_ms, load_ms, bytes.unwrap_or(0.0)];
    let expected: u64 = (0..state.batches)
        .map(|i| state.bodies[i % state.bodies.len()].samples as u64)
        .sum();
    if added != expected {
        state.gate_failures.push(format!(
            "the daemon added {added} samples, the shadow profiler {expected}"
        ));
    }
    let load_failed = restored.is_err();
    state.restored = restored.ok();
    state.bytes = (wire.bytes_in, wire.bytes_out);
    let rep = Rep {
        wall_s,
        op_ms: queries.plan.iter().map(Timing::latency_ms).collect(),
        work: (accepted * SPANS_PER_BATCH as u64) as f64,
        attempted: wire.attempted + queries.attempted + 1,
        failed: wire.failed + queries.failed + u64::from(load_failed),
    };
    state.queries = queries;
    rep
}

/// The restored registry and the live daemon, each driven one more round,
/// must hold byte-identical plans: the snapshot carried everything that
/// shapes a decision.
fn check_restored(state: &mut State) -> Option<f64> {
    let restored = state.restored.take()?;
    let cold = restored.with_tenant(TENANT, |t| {
        t.replan();
        t.plan().map(|p| plan_to_json(p).render())
    })??;
    let mut wire = Wire::new(state.plane.addr());
    let off = &mut Tracer::off();
    wire.call(
        off,
        "POST replan",
        "POST",
        "/v1/tenants/mix/replan",
        None,
        200,
    )
    .1?;
    let warm = utf8(
        wire.call(off, "GET plan", "GET", "/v1/tenants/mix/plan", None, 200)
            .1?,
    );
    if warm != cold {
        state
            .gate_failures
            .push("the loaded snapshot's next plan differs from the live daemon's".to_string());
    }
    state
        .plane
        .with_tenant(TENANT, |t| t.plan().map(|p| p.total_containers() as f64))?
}

pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    // Started first so its 5 s wait overlaps the run instead of adding to
    // it; a smoke run is over before it would be.
    let stall = (params.trace && !params.quick).then(|| std::thread::spawn(stop_idle_conn_ms));
    let mut state = drive(
        params,
        &mut out,
        || State::new(params).expect("set-up requests succeed"),
        repetition,
        teardown,
    );
    match check_restored(&mut state) {
        Some(containers) => out.plan_containers = containers,
        None => out.gate(false, || {
            "the snapshot could not be loaded and continued".to_string()
        }),
    }
    out.traced_ops = state.batches as u64;
    out.gate_failures.append(&mut state.gate_failures);
    if params.trace {
        probes(&mut state, &mut out);
    }
    if let Some(stall) = stall {
        out.layer(
            "control.http.stop_idle_conn_ms",
            stall.join().expect("the stall probe panicked"),
        );
    }
    teardown(state);
    out
}

fn probes(state: &mut State, out: &mut Outcome) {
    let replay = state.replay.take().expect("a traced run has a shadow");
    // The shadow replay runs on the writer thread and slows the closed
    // loop itself, and the operations timed here are the reader's.
    out.layer("trace.overhead_pct", 0.0);
    out.layer("trace.synth.generate_ms.1000", state.tenant.generate_ms);
    out.layer("control.tenant.create_ms", state.create_ms);
    out.layer("control.http.bytes_in", state.bytes.0 as f64);
    out.layer("control.http.bytes_out", state.bytes.1 as f64);
    let [save_ms, load_ms, bytes] = state.snapshot;
    out.layer("control.snapshot.save_ms", save_ms);
    out.layer("control.snapshot.load_ms", load_ms);
    out.layer("control.snapshot.bytes", bytes);
    out.layer(
        "control.ingest.batch_ms_p95",
        stats::percentile(&state.batch_ms, 0.95),
    );
    let late: Vec<f64> = state.queries.plan.iter().map(Timing::lateness_ms).collect();
    out.layer(
        "control.mix.gen_late_ms_p95",
        stats::percentile(&late, 0.95),
    );
    out.layer(
        "control.server.metrics_render_us",
        stats::percentile(&state.queries.metrics_us, 0.50),
    );
    span_layers(out, &replay);
    state.plane.with_tenant(TENANT, |t| {
        tenant_layers(out, t);
        // One observed microservice's fit, on what ingest left behind.
        if let Some(samples) = t.profiler.samples().values().next() {
            fit_probe(out, samples);
        }
    });
    out.layer(
        "control.http.floor_us",
        Wire::new(state.plane.addr()).floor_us(1_000),
    );
    out.layer(
        "control.tenant.lock_ratio",
        lock_ratio(state).unwrap_or(0.0),
    );
}

/// Two closed-loop writers on the same tenant against two on distinct
/// tenants: ingest throughput of the first as a share of the second. 1
/// would mean the tenant lock costs nothing; with two cores it cannot.
fn lock_ratio(state: &State) -> Option<f64> {
    let addr = state.plane.addr();
    register(&mut Wire::new(addr), &mut None, &state.tenant, "mix2")?;
    let batches = (state.batches / 5).max(10);
    let pair = |targets: [&str; 2]| {
        let start = Instant::now();
        std::thread::scope(|s| {
            for target in targets {
                s.spawn(move || {
                    let mut client = Client::new(addr).expect("loopback address resolves");
                    let path = format!("/v1/tenants/{target}/spans");
                    for i in 0..batches {
                        let body = state.bodies[i % state.bodies.len()].text.as_bytes();
                        let reply = client.request("POST", &path, Some(body));
                        assert!(matches!(reply, Ok((200, _))), "contention ingest failed");
                    }
                });
            }
        });
        (2 * batches) as f64 / start.elapsed().as_secs_f64()
    };
    let same = pair([TENANT, TENANT]);
    let distinct = pair([TENANT, "mix2"]);
    Some(same / distinct)
}

/// The shutdown trap, measured on purpose: `ControlPlane::stop` with an
/// idle keep-alive client still open waits out the server's idle timeout.
/// Everywhere else the harness drops its clients first.
fn stop_idle_conn_ms() -> f64 {
    let plane = start_plane(Registry::paper_pool(), None);
    let mut client = Client::new(plane.addr()).expect("loopback address resolves");
    client.request("GET", "/healthz", None).expect("healthz");
    let start = Instant::now();
    plane.stop();
    let ms = ms_since(start);
    drop(client);
    ms
}

/// No client outlives a repetition, so only the daemon and the snapshot
/// file are left.
fn teardown(state: State) {
    state.plane.stop();
    std::fs::remove_file(&state.snapshot_path).ok();
}
