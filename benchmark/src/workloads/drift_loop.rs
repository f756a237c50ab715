//! `drift_loop`: the whole pipeline on one critical path.
//!
//! The storyline of `tests/control_plane.rs` as a closed loop over loopback
//! HTTP. Per episode: register the Fig. 5 app as tenant `prod` beside a
//! cohabitant `shadow`, plan from the stale profiles at 30 000 req/min per
//! service, let `postStorage` drift 8x, observe the drifted system in six
//! 30 s DES slices whose spans are encoded and POSTed to `/spans`, then
//! replan, decode and validate in a 60 s DES until the worst service's P95
//! is back under the SLA, and delete the tenants. It is the only workload
//! where every layer sits on the path of one result, so it is the one whose
//! per-layer budget is checked to sum.

use std::collections::BTreeMap;
use std::time::Instant;

use erms::control::codec::{app_to_json, plan_from_json, span_batch_to_json, SpanBatch};
use erms::control::{ControlPlane, Json, Registry};
use erms::core::autoscaler::ScalingPlan;
use erms::core::prelude::{
    App, Interference, MicroserviceId, RequestRate, ServiceId, WorkloadVector,
};
use erms::sim::runtime::{SimConfig, SimResult, Simulation};
use erms::sim::service_time::{derive_from_profile, ServiceTimeModel};
use erms::sim::telemetry::{FnSink, SpanRecord};
use erms::workload::apps::fig5_app;

use super::http::{fit_probe, shutdown, span_layers, start_plane, utf8, Replay, Wire};
use super::{derive_seed, drive, ms_since, Outcome, Params, Rep};
use crate::stats;
use crate::trace::{Layer, Tracer};

const SLA_MS: f64 = 300.0;
const RATE_PER_MIN: f64 = 30_000.0;
const DRIFT_FACTOR: f64 = 8.0;
/// Observation loads as shares of the planned one: they straddle the
/// drifted saturation knee without sitting deep in overload (see the test).
const SCALES: [f64; 6] = [0.20, 0.30, 0.35, 0.40, 0.45, 0.50];
const EPISODES: usize = 10;
/// DES seeds derive from this and the episode, not from `--seed`. Whether an
/// episode needs one control round or two is a coin its DES seeds flip: the
/// planner provisions to the SLA, so the first validation lands within noise
/// of it. With 10 episodes a run, letting `--seed` flip those coins would
/// decide how many episodes take twice as long and which kind the p90 is.
/// `--seed` picks the order the episodes run in instead. In this set two
/// episodes of ten need a second round, so the median operation is a
/// one-round episode and the p90 a two-round one, neither near the edge.
const EPISODE_SET: u64 = 1;
const MAX_ROUNDS: usize = 3;
const TENANTS: [&str; 2] = ["prod", "shadow"];

type Mechanics = BTreeMap<MicroserviceId, (ServiceTimeModel, usize)>;
type Deployment = (
    BTreeMap<MicroserviceId, u32>,
    BTreeMap<MicroserviceId, Vec<ServiceId>>,
);

/// Simulated and model quantities of one repetition's episodes; they are
/// the same in every repetition.
#[derive(Default)]
struct Tally {
    recovery_rounds: Vec<f64>,
    plan_containers: Vec<f64>,
    over_sla: f64,
    validated: f64,
}

struct State {
    plane: ControlPlane,
    wire: Wire,
    app: App,
    victim: MicroserviceId,
    services: [ServiceId; 2],
    create_bodies: [String; 2],
    workloads_body: String,
    replay: Replay,
    seed: u64,
    episodes: usize,
    tally: Tally,
    gate_failures: Vec<String>,
}

fn deployment(app: &App, plan: &ScalingPlan) -> Deployment {
    let containers = app
        .microservices()
        .map(|(ms, _)| (ms, plan.containers(ms)))
        .collect();
    let priorities = app
        .shared_microservices()
        .into_iter()
        .filter_map(|ms| Some((ms, plan.priority_order(ms)?.to_vec())))
        .collect();
    (containers, priorities)
}

impl State {
    fn new(params: &Params) -> Self {
        let (app, [_, _, victim], services) = fig5_app(SLA_MS);
        let plane = start_plane(Registry::paper_pool(), None);
        let wire = Wire::new(plane.addr());
        let create_bodies = TENANTS
            .map(|id| Json::obj(vec![("id", Json::str(id)), ("app", app_to_json(&app))]).render());
        let workloads_body = format!(
            "[[{}, {RATE_PER_MIN}], [{}, {RATE_PER_MIN}]]",
            services[0].index(),
            services[1].index()
        );
        Self {
            plane,
            wire,
            app,
            victim,
            services,
            create_bodies,
            workloads_body,
            replay: Replay::new(Registry::paper_pool()),
            seed: params.seed,
            episodes: params.sized(EPISODES),
            tally: Tally::default(),
            gate_failures: Vec::new(),
        }
    }

    fn workload(&self, scale: f64) -> WorkloadVector {
        self.services
            .iter()
            .map(|&s| (s, RequestRate::per_minute(RATE_PER_MIN * scale)))
            .collect()
    }

    /// The truth the simulator plays: every microservice as profiled,
    /// except the victim, whose service time has grown.
    fn drifted(&self, itf: Interference) -> Mechanics {
        let mut out: Mechanics = self
            .app
            .microservices()
            .map(|(ms, m)| (ms, derive_from_profile(&m.profile, itf, 0.75)))
            .collect();
        let (model, threads) = out[&self.victim];
        let slowed = ServiceTimeModel::new(
            model.base_ms * DRIFT_FACTOR,
            model.cv,
            model.cpu_sensitivity,
            model.mem_sensitivity,
        );
        out.insert(self.victim, (slowed, threads));
        out
    }

    /// One DES run of the drifted truth with every span collected.
    #[allow(clippy::too_many_arguments)]
    fn simulate(
        &self,
        tracer: &mut Tracer,
        truth: &Mechanics,
        itf: Interference,
        w: &WorkloadVector,
        deployed: &Deployment,
        seed: u64,
        (duration_ms, warmup_ms): (f64, f64),
    ) -> Option<(SimResult, Vec<SpanRecord>)> {
        let mut sim = Simulation::new(
            &self.app,
            SimConfig {
                duration_ms,
                warmup_ms,
                seed,
                trace_sampling: 0.0,
                ..SimConfig::default()
            },
        );
        for (&ms, &(model, threads)) in truth {
            sim.set_service_time(ms, model);
            sim.set_threads(ms, threads);
        }
        sim.set_uniform_interference(itf);
        let mut spans = Vec::new();
        let result = tracer.time("Simulation::run_with_sink", Layer::SimRuntime, || {
            let mut sink = FnSink::spans(|s: &SpanRecord| spans.push(*s));
            sim.run_with_sink(w, &deployed.0, &deployed.1, &mut sink)
        });
        result.ok().map(|r| (r, spans))
    }

    /// Encodes, renders and POSTs one span batch; `None` when the daemon
    /// refused it. Returns the spans shipped.
    fn ship(
        &mut self,
        tracer: &mut Tracer,
        containers: &BTreeMap<MicroserviceId, u32>,
        spans: Vec<SpanRecord>,
    ) -> Option<usize> {
        let batch = SpanBatch {
            sampling: 1.0,
            containers: containers.clone(),
            spans,
        };
        let json = tracer.time("codec::span_batch_to_json", Layer::ControlCodec, || {
            span_batch_to_json(&batch)
        });
        let body = tracer.time_bytes(
            "Json::render spans",
            Layer::ControlJson,
            || json.render(),
            String::len,
        );
        let (http, reply) = self.wire.call(
            tracer,
            "POST spans",
            "POST",
            "/v1/tenants/prod/spans",
            Some(body.as_bytes()),
            200,
        );
        let reply = Json::parse(&utf8(reply?)).ok()?;
        let added = reply.get("samples_added").and_then(Json::as_f64)?;
        if tracer.enabled() {
            let shadow = self.replay.ingest(tracer, http, "prod", &body);
            if shadow as f64 != added {
                self.gate_failures
                    .push(format!("daemon added {added} samples, its shadow {shadow}"));
            }
        }
        Some(batch.spans.len())
    }

    /// `POST replan`, then parse and decode the plan in the reply.
    fn replan(&mut self, tracer: &mut Tracer, tenant: &str) -> Option<ScalingPlan> {
        let path = format!("/v1/tenants/{tenant}/replan");
        let (http, reply) = self
            .wire
            .call(tracer, "POST replan", "POST", &path, None, 200);
        let text = utf8(reply?);
        let reply = tracer.time_bytes(
            "Json::parse plan",
            Layer::ControlJson,
            || Json::parse(&text),
            |_| text.len(),
        );
        let reply = reply.ok()?;
        let plan_json = reply.get("plan").filter(|p| !p.is_null())?;
        let plan = tracer.time("codec::plan_from_json", Layer::ControlCodec, || {
            plan_from_json(plan_json)
        });
        if tracer.enabled() {
            let shadow = self.replay.replan(tracer, http, tenant);
            if shadow != plan_json.render() {
                self.gate_failures.push(format!(
                    "{tenant}: the shadow's plan bytes differ from the daemon's"
                ));
            }
        }
        plan.ok()
    }

    fn register(&mut self, tracer: &mut Tracer) -> Option<()> {
        for (i, id) in TENANTS.into_iter().enumerate() {
            let body = self.create_bodies[i].clone();
            let (http, reply) = self.wire.call(
                tracer,
                "POST /v1/tenants",
                "POST",
                "/v1/tenants",
                Some(body.as_bytes()),
                201,
            );
            reply?;
            if tracer.enabled() {
                self.replay.create(tracer, http, &body);
            }
            let body = self.workloads_body.clone();
            let path = format!("/v1/tenants/{id}/workloads");
            let (http, reply) = self.wire.call(
                tracer,
                "POST workloads",
                "POST",
                &path,
                Some(body.as_bytes()),
                200,
            );
            reply?;
            if tracer.enabled() {
                self.replay.workloads(tracer, http, id, &body);
            }
        }
        Some(())
    }

    fn unregister(&mut self, tracer: &mut Tracer) -> Option<()> {
        for id in TENANTS {
            let path = format!("/v1/tenants/{id}");
            let (http, reply) = self
                .wire
                .call(tracer, "DELETE tenant", "DELETE", &path, None, 200);
            reply?;
            if tracer.enabled() {
                self.replay.delete(tracer, http, id);
            }
        }
        Some(())
    }

    /// One drift-to-recovery episode. Returns the spans the daemon
    /// accepted, or `None` when an operation failed.
    fn episode(&mut self, tracer: &mut Tracer, episode: u64, des_runs: &mut u64) -> Option<f64> {
        let seed_of = move |k: u64| derive_seed(EPISODE_SET, 1_000 + episode * 16 + k);
        self.register(tracer)?;
        let stale = self.replan(tracer, "prod")?;
        self.replan(tracer, "shadow")?;
        // The simulated truth runs at the interference the service planned
        // under, as a real deployment feels what its placement creates.
        let itf = self
            .plane
            .with_tenant("prod", |t| t.cluster.average_interference(&t.app))?;
        let truth = self.drifted(itf);
        let stale_deployed = deployment(&self.app, &stale);

        let mut shipped = 0usize;
        for (slice, scale) in SCALES.into_iter().enumerate() {
            *des_runs += 1;
            let (_, spans) = self.simulate(
                tracer,
                &truth,
                itf,
                &self.workload(scale),
                &stale_deployed,
                seed_of(slice as u64),
                (30_000.0, 2_000.0),
            )?;
            shipped += self.ship(tracer, &stale_deployed.0, spans)?;
        }

        let full = self.workload(1.0);
        let mut recovered = None;
        for round in 0..MAX_ROUNDS {
            let plan = self.replan(tracer, "prod")?;
            let deployed = deployment(&self.app, &plan);
            *des_runs += 1;
            let (result, spans) = self.simulate(
                tracer,
                &truth,
                itf,
                &full,
                &deployed,
                seed_of(8 + round as u64),
                (60_000.0, 10_000.0),
            )?;
            let worst_p95 = self
                .services
                .iter()
                .map(|&s| result.latency_percentile(s, 0.95))
                .fold(0.0, f64::max);
            if worst_p95 <= SLA_MS {
                recovered = Some((round + 1, plan, result));
                break;
            }
            // Not yet: feed this deployment's observations back, and let
            // the cohabitant replan in the middle of prod's loop.
            shipped += self.ship(tracer, &deployed.0, spans)?;
            self.replan(tracer, "shadow")?;
        }
        self.unregister(tracer)?;

        match recovered {
            Some((rounds, plan, result)) => {
                if plan.containers(self.victim) <= stale.containers(self.victim) {
                    self.gate_failures.push(format!(
                        "episode {episode}: recovered without adding postStorage containers"
                    ));
                }
                self.tally.recovery_rounds.push(rounds as f64);
                self.tally
                    .plan_containers
                    .push(plan.total_containers() as f64);
                for (&sid, latencies) in &result.service_latencies {
                    self.tally.validated += latencies.len() as f64;
                    self.tally.over_sla +=
                        result.violation_rate(sid, SLA_MS) * latencies.len() as f64;
                }
            }
            None => self.gate_failures.push(format!(
                "episode {episode}: SLA not restored within {MAX_ROUNDS} rounds"
            )),
        }
        Some(shipped as f64)
    }
}

fn repetition(state: &mut State, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    state.tally = Tally::default();
    let (attempted, failed) = (state.wire.attempted, state.wire.failed);
    let mut des_runs = 0;
    let start = Instant::now();
    let (episodes, first) = (state.episodes as u64, state.seed);
    for episode in (0..episodes).map(|e| (e + first % episodes) % episodes) {
        tracer.set_op(episode);
        let op = Instant::now();
        let open = tracer.begin("episode", Layer::Harness);
        let shipped = state.episode(tracer, episode, &mut des_runs);
        tracer.end(open);
        rep.op_ms.push(ms_since(op));
        match shipped {
            Some(spans) => rep.work += spans,
            None => rep.failed += 1,
        }
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    rep.attempted = state.wire.attempted - attempted + des_runs;
    rep.failed += state.wire.failed - failed;
    rep
}

pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut state = drive(
        params,
        &mut out,
        || {
            let mut state = State::new(params);
            // Warm-up: one whole episode, so sockets, worker threads and
            // allocator arenas exist before the clock starts.
            let mut runs = 0;
            state
                .episode(&mut Tracer::off(), u64::MAX / 32, &mut runs)
                .expect("warm-up episode");
            state.gate_failures.clear();
            state
        },
        repetition,
        teardown,
    );
    out.plan_containers = stats::mean(&state.tally.plan_containers);
    out.traced_ops = state.episodes as u64;
    out.gate_failures.append(&mut state.gate_failures);
    if params.trace {
        out.layer(
            "model.recovery_rounds",
            stats::mean(&state.tally.recovery_rounds),
        );
        out.layer(
            "model.sla_violation_pct",
            state.tally.over_sla / state.tally.validated.max(1.0) * 100.0,
        );
        out.layer("control.http.bytes_in", state.wire.bytes_in as f64);
        out.layer("control.http.bytes_out", state.wire.bytes_out as f64);
        span_layers(&mut out, &state.replay);
        // The tenants are gone with their episodes; the stand-in profiler
        // the replay keeps has seen every batch of the repetition.
        if let Some(samples) = state.replay.probe_samples().get(&state.victim) {
            fit_probe(&mut out, samples);
        }
    }
    teardown(state);
    out
}

fn teardown(state: State) {
    shutdown(state.plane, state.wire);
}
