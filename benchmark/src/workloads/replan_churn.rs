//! `replan_churn`: the planner and provisioning behind the HTTP API, with
//! tiny payloads in and a large plan out.
//!
//! One tenant of `SynthConfig::scaled(1000, seed)` (1000 microservices, 100
//! services) over 200 paper hosts. A round is what an autoscaling client
//! does every control interval: `POST workloads` with new rates (a +7 %
//! toggle on a dirty set that cycles through 1 %, 10 % and 50 % of the
//! services), `POST replan`, `GET plan`, decode the plan. The DES and span
//! ingest do nothing here.

use std::time::Instant;

use erms::control::codec::{app_to_json, plan_from_json};
use erms::control::{ControlPlane, Json, Registry};
use erms::core::cache::PlanCache;
use erms::core::incremental::IncrementalPlanner;
use erms::core::manager::{erms_plan_cached, SchedulingMode};
use erms::core::prelude::{
    App, ClusterState, Host, RequestRate, ResilienceConfig, ResilientManager, ScalerConfig,
    ServiceId, WorkloadVector,
};
use erms::trace::synth::{generate, SynthConfig};

use super::http::{
    replay_get_plan, shutdown, span_layers, start_plane, tenant_layers, utf8, Replay, Wire,
};
use super::{drive, ms_since, Outcome, Params, Rep};
use crate::stats;
use crate::trace::{Layer, Open, Tracer};

const ROUNDS: usize = 150;
const WARMUP_ROUNDS: usize = 12;
/// Shares of the services whose rate changes in a round, cycled.
const DIRTY: [f64; 3] = [0.01, 0.10, 0.50];
/// Every this many rounds the plan's bytes are kept for the shadow gate.
const CHECK_EVERY: usize = 100;
pub const TENANT: &str = "churn";
/// Topology seed of the synthetic tenant (`bench_planner`'s). `--seed` moves
/// where the dirty set starts and salts the spans of `control_mix`; a
/// different topology is a different plan size and a different round cost.
const TOPOLOGY: u64 = 42;

/// 200 paper hosts: room for the ~4000 containers the tenant plans.
pub fn pool() -> Vec<Host> {
    (0..200).map(|_| Host::paper_host()).collect()
}

/// The 1000-microservice tenant `replan_churn` and `control_mix` share.
pub struct SynthTenant {
    pub app: App,
    pub services: Vec<ServiceId>,
    /// Base rate of each service, req/min: `90·(i mod 37 + 1)`.
    pub base: Vec<f64>,
    pub generate_ms: f64,
}

impl SynthTenant {
    pub fn new() -> Self {
        let start = Instant::now();
        let app = generate(&SynthConfig::scaled(1000, TOPOLOGY)).app;
        let generate_ms = ms_since(start);
        let services: Vec<ServiceId> = app.services().map(|(sid, _)| sid).collect();
        let base = (0..services.len())
            .map(|i| 90.0 * (i % 37 + 1) as f64)
            .collect();
        Self {
            app,
            services,
            base,
            generate_ms,
        }
    }

    pub fn create_body(&self, id: &str) -> String {
        Json::obj(vec![("id", Json::str(id)), ("app", app_to_json(&self.app))]).render()
    }

    /// The `POST workloads` body for the given rates.
    pub fn rates_body(&self, rates: &[f64]) -> String {
        let pairs: Vec<String> = self
            .services
            .iter()
            .zip(rates)
            .map(|(sid, rate)| format!("[{},{rate}]", sid.index()))
            .collect();
        format!("[{}]", pairs.join(","))
    }

    pub fn workloads(&self, rates: &[f64]) -> WorkloadVector {
        self.services
            .iter()
            .zip(rates)
            .map(|(&sid, &rate)| (sid, RequestRate::per_minute(rate)))
            .collect()
    }
}

struct State {
    plane: ControlPlane,
    wire: Wire,
    tenant: SynthTenant,
    rates: Vec<f64>,
    /// Rounds driven so far; picks the dirty share.
    round: usize,
    /// First service of every dirty set, from `--seed`.
    first: usize,
    rounds: usize,
    /// Live shadow of a traced run; parked in `finished` once the traced
    /// repetition is over, so the reference repetition runs without it.
    replay: Option<Replay>,
    finished: Option<Replay>,
    /// Untraced run: every workloads body sent from tenant creation to the
    /// end of the first repetition, and the plans kept along the way as
    /// (bodies sent so far, plan bytes) — replayed into a shadow afterwards.
    recording: bool,
    log: Vec<String>,
    kept: Vec<(usize, String)>,
    create_body: String,
    create_ms: f64,
    plan_containers: f64,
    gate_failures: Vec<String>,
}

impl State {
    fn new(params: &Params) -> Option<Self> {
        let tenant = SynthTenant::new();
        let plane = start_plane(Registry::new(pool()), None);
        let mut wire = Wire::new(plane.addr());
        let create_body = tenant.create_body(TENANT);
        let off = &mut Tracer::off();
        let start = Instant::now();
        let (http, reply) = wire.call(
            off,
            "POST /v1/tenants",
            "POST",
            "/v1/tenants",
            Some(create_body.as_bytes()),
            201,
        );
        let create_ms = ms_since(start);
        reply?;
        let mut replay = params.trace.then(|| Replay::new(Registry::new(pool())));
        if let Some(replay) = &mut replay {
            replay.create(off, http, &create_body);
        }
        let mut state = Self {
            plane,
            wire,
            rates: tenant.base.clone(),
            tenant,
            round: 0,
            first: (params.seed % 97) as usize,
            rounds: params.sized(ROUNDS),
            replay,
            finished: None,
            recording: !params.trace,
            log: Vec::new(),
            kept: Vec::new(),
            create_body,
            create_ms,
            plan_containers: 0.0,
            gate_failures: Vec::new(),
        };
        // The first plan is the cold one; a dozen rounds then warm the
        // incremental planner, the merge cache and the connection.
        state.exchange(off)?;
        for _ in 0..WARMUP_ROUNDS {
            state.next_rates();
            state.exchange(off)?;
        }
        Some(state)
    }

    /// Flips the +7 % bump on this round's dirty set. The sets are nested
    /// and start at the same service every time, so the rates — and with
    /// them what the planner's hysteresis holds back — repeat every six
    /// rounds. Sets that wander across the services keep changing how many
    /// holds a round reports for a thousand rounds, and the round's cost
    /// with it.
    fn next_rates(&mut self) {
        let n = self.rates.len();
        let dirty = ((n as f64 * DIRTY[self.round % DIRTY.len()]).round() as usize).max(1);
        for i in 0..dirty {
            let at = (self.first + i) % n;
            let base = self.tenant.base[at];
            self.rates[at] = if self.rates[at] == base {
                base * 1.07
            } else {
                base
            };
        }
        self.round += 1;
    }

    /// Sends the current rates, replans, fetches and decodes the plan.
    fn exchange(&mut self, tracer: &mut Tracer) -> Option<()> {
        let body = self.tenant.rates_body(&self.rates);
        let (http, reply) = self.wire.call(
            tracer,
            "POST workloads",
            "POST",
            "/v1/tenants/churn/workloads",
            Some(body.as_bytes()),
            200,
        );
        reply?;
        if let Some(replay) = &mut self.replay {
            replay.workloads(tracer, http, TENANT, &body);
        }
        let (http, reply) = self.wire.call(
            tracer,
            "POST replan",
            "POST",
            "/v1/tenants/churn/replan",
            None,
            200,
        );
        reply?;
        let replanned = self
            .replay
            .as_mut()
            .map(|replay| replay.replan(tracer, http, TENANT));
        let (http, reply) = self.wire.call(
            tracer,
            "GET plan",
            "GET",
            "/v1/tenants/churn/plan",
            None,
            200,
        );
        let text = utf8(reply?);
        if let Some(replanned) = replanned {
            if !replay_get_plan(tracer, http, &text) || replanned != text {
                self.gate_failures.push(format!(
                    "round {}: the shadow's plan bytes differ from the daemon's",
                    self.round
                ));
            }
        }
        let json = tracer.time_bytes(
            "Json::parse plan",
            Layer::ControlJson,
            || Json::parse(&text),
            |_| text.len(),
        );
        let plan = tracer.time("codec::plan_from_json", Layer::ControlCodec, || {
            plan_from_json(&json.ok()?).ok()
        })?;
        self.plan_containers = plan.total_containers() as f64;
        if self.recording {
            self.log.push(body);
            if self.log.len().is_multiple_of(CHECK_EVERY) {
                self.kept.push((self.log.len(), text));
            }
        }
        Some(())
    }

    /// The untraced run's shadow gate: a tenant driven in-process through
    /// the logged bodies must hold, at every kept round, the plan bytes the
    /// daemon served.
    fn check_against_shadow(&mut self) {
        let off = &mut Tracer::off();
        let mut replay = Replay::new(Registry::new(pool()));
        replay.create(off, Open::NONE, &self.create_body);
        let mut kept = self.kept.iter().peekable();
        for (i, body) in self.log.iter().enumerate() {
            replay.workloads(off, Open::NONE, TENANT, body);
            let plan = replay.replan(off, Open::NONE, TENANT);
            if kept
                .next_if(|(at, _)| *at == i + 1)
                .is_some_and(|(_, served)| *served != plan)
            {
                self.gate_failures.push(format!(
                    "exchange {}: the shadow tenant's plan bytes differ from the daemon's",
                    i + 1
                ));
            }
        }
    }
}

fn repetition(state: &mut State, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let (attempted, failed) = (state.wire.attempted, state.wire.failed);
    let start = Instant::now();
    for round in 0..state.rounds {
        tracer.set_op(round as u64);
        state.next_rates();
        let op = Instant::now();
        let open = tracer.begin("round", Layer::Harness);
        let done = state.exchange(tracer);
        tracer.end(open);
        rep.op_ms.push(ms_since(op));
        if done.is_some() {
            rep.work += 1.0;
        }
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    // One decode per round rides on the three requests; a round that did
    // not complete lost a request or the decode.
    rep.attempted = state.wire.attempted - attempted + state.rounds as u64;
    rep.failed = (state.wire.failed - failed).max(state.rounds as u64 - rep.work as u64);
    // The shadow gate covers set-up and the first repetition.
    state.recording = false;
    if tracer.enabled() {
        state.finished = state.replay.take();
    }
    rep
}

pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut state = drive(
        params,
        &mut out,
        || State::new(params).expect("set-up exchanges succeed"),
        repetition,
        teardown,
    );
    if !params.trace {
        state.check_against_shadow();
    }
    out.plan_containers = state.plan_containers;
    out.traced_ops = state.rounds as u64;
    out.gate_failures.append(&mut state.gate_failures);
    if params.trace {
        probes(&mut state, &mut out);
    }
    teardown(state);
    out
}

fn probes(state: &mut State, out: &mut Outcome) {
    out.layer("trace.synth.generate_ms.1000", state.tenant.generate_ms);
    out.layer("control.tenant.create_ms", state.create_ms);
    out.layer("control.http.bytes_in", state.wire.bytes_in as f64);
    out.layer("control.http.bytes_out", state.wire.bytes_out as f64);
    out.layer("control.http.floor_us", state.wire.floor_us(1_000));
    span_layers(
        out,
        state.finished.as_ref().expect("a traced run has a shadow"),
    );

    state.plane.with_tenant(TENANT, |t| tenant_layers(out, t));
    planner_probes(&state.tenant, out);
}

/// The planner alone, then inside a controller round, on the same inputs.
fn planner_probes(tenant: &SynthTenant, out: &mut Outcome) {
    let app = &tenant.app;
    let config = ScalerConfig::default();
    let mode = SchedulingMode::Priority;
    let mut cluster = ClusterState::new(pool());
    let itf = cluster.average_interference(app);
    let mut rates = tenant.base.clone();

    let cache = PlanCache::new();
    let start = Instant::now();
    let cold = erms_plan_cached(
        app,
        &tenant.workloads(&rates),
        itf,
        &config,
        mode,
        Some(&cache),
    );
    out.layer("core.planner.cold_ms", ms_since(start));
    out.gate(cold.is_ok(), || "the cold plan is infeasible".to_string());

    // Toggle the first `dirty` services and time the re-plan, nine times;
    // an even count of flips would leave the rates where they started.
    let mut planner = IncrementalPlanner::new(config, mode);
    let mut manager = ResilientManager::new(ResilienceConfig::default());
    let toggle = |rates: &mut Vec<f64>, dirty: usize| {
        for (rate, &base) in rates.iter_mut().zip(&tenant.base).take(dirty) {
            *rate = if *rate == base { base * 1.07 } else { base };
        }
    };
    let _ = planner.replan_auto(app, &tenant.workloads(&rates), itf, Some(&cache));
    manager.run_round(app, &mut cluster, &tenant.workloads(&rates));
    let mut planner_d10 = 0.0;
    for (name, share) in [
        ("core.planner.warm_ms.d01", DIRTY[0]),
        ("core.planner.warm_ms.d10", DIRTY[1]),
        ("core.planner.warm_ms.d50", DIRTY[2]),
    ] {
        let dirty = ((rates.len() as f64 * share).round() as usize).max(1);
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                toggle(&mut rates, dirty);
                let w = tenant.workloads(&rates);
                let start = Instant::now();
                let ok = planner.replan_auto(app, &w, itf, Some(&cache)).is_ok();
                let ms = ms_since(start);
                assert!(ok, "warm re-plan failed");
                ms
            })
            .collect();
        out.layer(name, stats::median(&samples));
        if share == DIRTY[1] {
            planner_d10 = stats::median(&samples);
        }
    }

    // A whole controller round at the 10 % dirty share. What it costs over
    // the planner alone is hysteresis plus provisioning: an estimate, since
    // the two were timed on separate calls.
    let dirty = ((rates.len() as f64 * DIRTY[1]).round() as usize).max(1);
    let mut moved = 0.0;
    let rounds: Vec<f64> = (0..9)
        .map(|_| {
            toggle(&mut rates, dirty);
            let w = tenant.workloads(&rates);
            let start = Instant::now();
            let outcome = manager.run_round(app, &mut cluster, &w);
            let ms = ms_since(start);
            if let Some(p) = outcome.provision {
                moved += f64::from(p.placed + p.released);
            }
            ms
        })
        .collect();
    let round_ms = stats::median(&rounds);
    out.layer("core.resilience.round_ms", round_ms);
    out.layer(
        "core.provisioning.apply_ms",
        (round_ms - planner_d10).max(0.0),
    );
    out.layer(
        "core.provisioning.containers_moved",
        moved / rounds.len() as f64,
    );
}

fn teardown(state: State) {
    shutdown(state.plane, state.wire);
}
