//! `des_hot` and `des_taobao`: the sequential DES engine alone.
//!
//! Both time `Simulation::run` and nothing else; they differ in what the
//! engine's tables look like. `des_hot` is the Social Network app under its
//! own Erms plan — 36 microservices, a few hundred containers, priority
//! scheduling at the shared ones — and stays in cache. `des_taobao` is the
//! `bench_shard` scenario on the sequential engine: 5000 microservices with
//! one container each, FCFS, deep queues, tables that do not fit in cache.
//! A per-event saving should show on both, a footprint saving only on the
//! second.

use std::collections::BTreeMap;
use std::time::Instant;

use erms::core::manager::ErmsScaler;
use erms::core::prelude::{
    App, Interference, MicroserviceId, RequestRate, ServiceId, WorkloadVector,
};
use erms::sim::equeue::{CalendarQueue, Popped};
use erms::sim::runtime::{SimConfig, SimResult, Simulation};
use erms::sim::service_time::{derive_from_profile, ServiceTimeModel};
use erms::sim::timekey::{key_time, time_key};
use erms::sim::Partition;
use erms::telemetry::{QuantileSketch, TelemetryCollector, TelemetryConfig};
use erms::trace::synth::{generate, SynthConfig};
use erms::workload::apps::social_network;

use super::{derive_seed, drive, ms_since, Outcome, Params, Rep};
use crate::trace::{Layer, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Taobao,
}

/// Topology seed of `des_taobao`, the one `bench_shard` uses. `--seed`
/// drives the DES seeds only: graph shapes differ enough between topology
/// seeds to move every metric by more than the host's noise.
const TAOBAO_TOPOLOGY: u64 = 17;

/// `SimResult` digests of `--seed 1` at full size, one per run of a
/// repetition. A change here means the simulation computes something else,
/// not that it got faster or slower.
const PINNED_HOT: [u64; 1] = [9734536168750954831];
const PINNED_TAOBAO: [u64; 2] = [18149316331002929167, 17880058779703423302];

struct Scenario {
    app: App,
    workloads: WorkloadVector,
    containers: BTreeMap<MicroserviceId, u32>,
    priorities: BTreeMap<MicroserviceId, Vec<ServiceId>>,
    mechanics: Vec<(MicroserviceId, ServiceTimeModel, Option<usize>)>,
    itf: Interference,
    duration_ms: f64,
    network_delay_ms: f64,
    /// Simulated horizon of the sharded-engine probes. Much shorter than a
    /// run: with Social Network's 0.1 ms network delay as lookahead, four
    /// shards open ten thousand windows per simulated second and take sixty
    /// times as long as the sequential engine.
    shard_probe_ms: f64,
    /// DES seeds of one repetition.
    seeds: Vec<u64>,
    /// Host ms `generate` took, for `trace.synth.generate_ms.5000`.
    generate_ms: f64,
}

impl Scenario {
    fn hot(params: &Params) -> Self {
        let app = social_network(200.0).app;
        let itf = Interference::new(0.3, 0.3);
        let workloads = WorkloadVector::uniform(&app, RequestRate::per_minute(20_000.0));
        let plan = ErmsScaler::new(&app)
            .plan(&workloads, itf)
            .expect("the Social Network plan is feasible");
        let containers = app
            .microservices()
            .map(|(ms, _)| (ms, plan.containers(ms)))
            .collect();
        let priorities = app
            .shared_microservices()
            .into_iter()
            .filter_map(|ms| Some((ms, plan.priority_order(ms)?.to_vec())))
            .collect();
        let mechanics = app
            .microservices()
            .map(|(ms, m)| {
                let (model, threads) = derive_from_profile(&m.profile, itf, 0.75);
                (ms, model, Some(threads))
            })
            .collect();
        Self {
            app,
            workloads,
            containers,
            priorities,
            mechanics,
            itf,
            // 570 s, not a round 600: at 600 the engine's per-call tables end
            // within a thousandth of 2^22 entries, and which side of that
            // doubling a DES seed lands on moves the peak RSS by a quarter.
            duration_ms: params.sized(570_000) as f64,
            shard_probe_ms: params.sized(5_700) as f64,
            network_delay_ms: SimConfig::default().network_delay_ms,
            seeds: vec![derive_seed(params.seed, 100)],
            generate_ms: 0.0,
        }
    }

    fn taobao(params: &Params) -> Self {
        let start = Instant::now();
        let app = generate(&SynthConfig::taobao_scale(TAOBAO_TOPOLOGY)).app;
        let generate_ms = ms_since(start);
        let workloads = WorkloadVector::uniform(&app, RequestRate::per_minute(600.0));
        let containers = app.microservices().map(|(ms, _)| (ms, 1)).collect();
        let model = ServiceTimeModel::new(1.0, 0.3, 1.0, 0.5);
        let mechanics = app
            .microservices()
            .map(|(ms, _)| (ms, model, None))
            .collect();
        Self {
            app,
            workloads,
            containers,
            priorities: BTreeMap::new(),
            mechanics,
            itf: Interference::new(0.2, 0.2),
            duration_ms: params.sized(15_000) as f64,
            shard_probe_ms: params.sized(3_000) as f64,
            network_delay_ms: 1.0,
            seeds: (0..2).map(|i| derive_seed(params.seed, 100 + i)).collect(),
            generate_ms,
        }
    }

    fn simulation(&self, seed: u64, duration_ms: f64) -> Simulation<'_> {
        let mut sim = Simulation::new(
            &self.app,
            SimConfig {
                duration_ms,
                warmup_ms: 0.0,
                seed,
                trace_sampling: 0.0,
                network_delay_ms: self.network_delay_ms,
                ..SimConfig::default()
            },
        );
        for &(ms, model, threads) in &self.mechanics {
            sim.set_service_time(ms, model);
            if let Some(threads) = threads {
                sim.set_threads(ms, threads);
            }
        }
        sim.set_uniform_interference(self.itf);
        sim
    }

    fn run(&self, seed: u64) -> erms::core::Result<SimResult> {
        self.simulation(seed, self.duration_ms).run(
            &self.workloads,
            &self.containers,
            &self.priorities,
        )
    }
}

/// What the gates and probes need of one run. The `SimResult` itself goes
/// as soon as these are taken: it holds every microservice-level latency
/// and would put hundreds of MB of the harness's own into `peak_rss_mb`.
struct RunSummary {
    digest: u64,
    events: u64,
    completed: u64,
}

impl RunSummary {
    fn of(result: &SimResult) -> Self {
        Self {
            digest: digest(result),
            events: result.events,
            completed: result.completed,
        }
    }
}

struct State {
    scenario: Scenario,
    /// The runs of the last repetition.
    runs: Vec<RunSummary>,
    mismatched: Vec<String>,
    /// End-to-end latencies of the last repetition's first run, which the
    /// sketch probe inserts.
    latencies: Vec<f64>,
}

/// FNV-1a over the counters and the sorted latency distribution — the form
/// `tests/golden_sim.rs` and `bench_shard` pin.
pub fn digest(result: &SimResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for counter in [
        result.generated,
        result.completed,
        result.dropped,
        result.timed_out,
        result.crash_violations,
        result.crashed_containers,
        result.lost_spans,
        result.events,
        result.trace_store.trace_count() as u64,
        result.trace_store.span_count() as u64,
    ] {
        eat(counter);
    }
    for (sid, latencies) in &result.service_latencies {
        eat(sid.index() as u64);
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        for l in sorted {
            eat(l.to_bits());
        }
    }
    h
}

fn repetition(state: &mut State, tracer: &mut Tracer) -> Rep {
    let sc = &state.scenario;
    let mut rep = Rep::default();
    let mut runs = Vec::with_capacity(sc.seeds.len());
    for (i, &seed) in sc.seeds.iter().enumerate() {
        tracer.set_op(i as u64);
        let op = Instant::now();
        let result = tracer.time("Simulation::run", Layer::SimRuntime, || sc.run(seed));
        rep.op_ms.push(ms_since(op));
        rep.attempted += 1;
        // Untimed from here: digesting sorts every latency.
        match result {
            Ok(result) => {
                rep.work += result.completed as f64;
                runs.push(RunSummary::of(&result));
                if i == 0 {
                    state.latencies = result.service_latencies.into_values().flatten().collect();
                }
            }
            Err(_) => rep.failed += 1,
        }
    }
    // The runs alone: the checks between them are the harness's.
    rep.wall_s = rep.op_ms.iter().sum::<f64>() / 1e3;
    // Every repetition must compute what the previous one did.
    let digests = |runs: &[RunSummary]| runs.iter().map(|r| r.digest).collect::<Vec<_>>();
    if !state.runs.is_empty() && digests(&state.runs) != digests(&runs) {
        state.mismatched.push(format!(
            "{:?} then {:?}",
            digests(&state.runs),
            digests(&runs)
        ));
    }
    state.runs = runs;
    rep
}

pub fn run(kind: Kind, params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut state = drive(
        params,
        &mut out,
        || {
            let scenario = match kind {
                Kind::Hot => Scenario::hot(params),
                Kind::Taobao => Scenario::taobao(params),
            };
            // Warm-up: a tenth of a run faults in the allocator's pages.
            scenario
                .simulation(scenario.seeds[0], scenario.duration_ms / 10.0)
                .run(
                    &scenario.workloads,
                    &scenario.containers,
                    &scenario.priorities,
                )
                .expect("warm-up run");
            State {
                scenario,
                runs: Vec::new(),
                mismatched: Vec::new(),
                latencies: Vec::new(),
            }
        },
        repetition,
        drop,
    );
    out.plan_containers = state
        .scenario
        .containers
        .values()
        .map(|&c| f64::from(c))
        .sum();
    out.traced_ops = state.scenario.seeds.len() as u64;

    let mismatched = std::mem::take(&mut state.mismatched);
    out.gate(mismatched.is_empty(), || {
        format!("SimResult digests differ between repetitions: {mismatched:?}")
    });
    let complete = state.runs.len() == state.scenario.seeds.len();
    out.gate(complete, || "a simulation run failed".to_string());
    if params.seed == 1 && !params.quick {
        let pinned: &[u64] = match kind {
            Kind::Hot => &PINNED_HOT,
            Kind::Taobao => &PINNED_TAOBAO,
        };
        let digests: Vec<u64> = state.runs.iter().map(|r| r.digest).collect();
        out.gate(digests == pinned, || {
            format!("SimResult digests of --seed 1 are {digests:?}, pinned {pinned:?}")
        });
    }
    if params.trace && complete {
        probes(kind, params, &state, &mut out);
    }
    out
}

/// Layer probes on this workload's own inputs; the traced repetition's
/// runs are the sequential baseline every ratio is taken against.
fn probes(kind: Kind, params: &Params, state: &State, out: &mut Outcome) {
    let sc = &state.scenario;
    let traced_ms = out.reps[0].op_ms.clone();
    let run_ns = traced_ms.iter().sum::<f64>() * 1e6;
    let events: u64 = state.runs.iter().map(|r| r.events).sum();
    let completed: u64 = state.runs.iter().map(|r| r.completed).sum();
    out.layer("sim.runtime.events", events as f64);
    out.layer("sim.runtime.ns_per_event", run_ns / events as f64);
    out.layer(
        "sim.runtime.events_per_req",
        events as f64 / completed as f64,
    );
    if kind == Kind::Taobao {
        out.layer("trace.synth.generate_ms.5000", sc.generate_ms);
    }

    // Sink overhead: the same runs with a 1 % sampling collector attached,
    // best of two against the best of the traced and the reference
    // repetition, since any one run may have caught a slow second.
    let mut collector = TelemetryCollector::for_app(
        &sc.app,
        TelemetryConfig {
            sampling: 0.01,
            ring_capacity: 65_536,
            seed: 0xBE7C,
            relative_error: 0.01,
        },
    );
    let reference_ms = out.reference.as_ref().map(|r| r.op_ms.clone());
    let (mut on_ms, mut off_ms) = (0.0, 0.0);
    for (i, &seed) in sc.seeds.iter().enumerate() {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            let observed = sc
                .simulation(seed, sc.duration_ms)
                .run_with_sink(
                    &sc.workloads,
                    &sc.containers,
                    &sc.priorities,
                    &mut collector,
                )
                .expect("sink-on run");
            best = best.min(ms_since(start));
            let same = digest(&observed) == state.runs[i].digest;
            out.gate(same, || {
                "attaching a telemetry sink changed the SimResult".to_string()
            });
        }
        on_ms += best;
        off_ms += reference_ms
            .as_ref()
            .map_or(traced_ms[i], |r| r[i].min(traced_ms[i]));
    }
    out.layer(
        "sim.runtime.sink_overhead_pct",
        (on_ms - off_ms) / off_ms * 100.0,
    );
    out.layer(
        "telemetry.collector.spans_offered",
        collector.spans_seen() as f64,
    );
    out.layer(
        "telemetry.collector.spans_kept",
        collector.spans_sampled() as f64,
    );

    // Sharded engine against the sequential one, first seed, on a short
    // horizon. Wall per completed request, because the engines count
    // events differently.
    let sim = sc.simulation(sc.seeds[0], sc.shard_probe_ms);
    let start = Instant::now();
    let sequential = sim
        .run(&sc.workloads, &sc.containers, &sc.priorities)
        .expect("sequential probe run");
    let base = ms_since(start) / sequential.completed as f64;
    let ratio = |ms: f64, result: &SimResult| ms / result.completed as f64 / base;
    let nproc = crate::host::nproc();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let start = Instant::now();
    let k1 = sim
        .run_sharded(&sc.workloads, &sc.containers, &sc.priorities, 1)
        .expect("K=1 run");
    out.layer("sim.shard.k1_ratio", ratio(ms_since(start), &k1));
    let start = Instant::now();
    let partition = Partition::topology_aware(&sc.app, &sc.workloads, 4);
    out.layer("sim.partition.build_ms", ms_since(start));
    let start = Instant::now();
    let (k4, stats) = sim
        .run_sharded_with_partition(&sc.workloads, &sc.containers, &sc.priorities, &partition)
        .expect("K=4 serial run");
    out.layer("sim.shard.k4_serial_ratio", ratio(ms_since(start), &k4));
    out.layer("sim.shard.windows", stats.windows as f64);
    out.layer("sim.shard.messages", stats.messages as f64);
    out.layer("sim.shard.cut_fraction", stats.cut_edge_fraction());
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    let start = Instant::now();
    let (k4t, _) = sim
        .run_sharded_with_partition(&sc.workloads, &sc.containers, &sc.priorities, &partition)
        .expect("K=4 threaded run");
    out.layer("sim.shard.k4_threads_ratio", ratio(ms_since(start), &k4t));
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let sharded = digest(&k1);
    out.gate(digest(&k4) == sharded && digest(&k4t) == sharded, || {
        "sharded runs at K=4 differ from K=1".to_string()
    });

    // A quarter of the ops at the large occupancy: each costs fifty times
    // as much there.
    let ops = params.sized(1_000_000);
    out.layer(
        "sim.equeue.ns_per_op.occ256",
        hold_model_ns_per_op(256, ops),
    );
    out.layer(
        "sim.equeue.ns_per_op.occ64k",
        hold_model_ns_per_op(65_536, ops / 4),
    );

    // Sketch cost on the latencies this workload produced.
    let latencies = &state.latencies;
    let start = Instant::now();
    let mut sketch = QuantileSketch::new(0.01);
    for &l in latencies {
        sketch.insert(l);
    }
    let insert_ns = start.elapsed().as_nanos() as f64;
    out.layer(
        "telemetry.sketch.ns_per_insert",
        insert_ns / latencies.len() as f64,
    );
    let shards: Vec<QuantileSketch> = latencies
        .chunks(latencies.len().div_ceil(64))
        .map(|chunk| {
            let mut s = QuantileSketch::new(0.01);
            chunk.iter().for_each(|&l| s.insert(l));
            s
        })
        .collect();
    let start = Instant::now();
    let mut merged = QuantileSketch::new(0.01);
    for shard in &shards {
        merged.merge(shard).expect("same relative error");
    }
    out.layer(
        "telemetry.sketch.merge_us",
        start.elapsed().as_nanos() as f64 / 1e3 / shards.len() as f64,
    );
    out.gate(merged.count() == sketch.count(), || {
        "merged sketches lost samples".to_string()
    });
}

/// Hold-model replay of the event queue: pop the minimal same-key group,
/// reschedule each popped entry a pre-drawn gap later, at a constant
/// occupancy. Returns host ns per pop+push pair.
fn hold_model_ns_per_op(occupancy: u64, ops: usize) -> f64 {
    // Gaps are drawn before the clock starts, padded because the last
    // group may overshoot the op budget.
    let gaps: Vec<f64> = (0..ops as u64 + occupancy)
        .map(|i| 0.05 + (derive_seed(0xD15C, i) >> 11) as f64 / (1u64 << 53) as f64 * 4.0)
        .collect();
    let mut queue: CalendarQueue<u64, u32> = CalendarQueue::new();
    for i in 0..occupancy {
        queue.push(time_key(0.1 * (i + 1) as f64), i, 0);
    }
    let mut tie = occupancy;
    let mut group: Vec<(u64, u32)> = Vec::new();
    let mut popped = 0usize;
    let start = Instant::now();
    while popped < ops {
        group.clear();
        let key = match queue.pop_upto(u64::MAX, &mut group) {
            Popped::None => unreachable!("the hold model never empties"),
            Popped::One(key, t, item) => {
                group.push((t, item));
                key
            }
            Popped::Group(key) => key,
        };
        let now = key_time(key);
        for _ in 0..group.len() {
            tie += 1;
            queue.push(time_key(now + gaps[popped]), tie, 0);
            popped += 1;
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(queue.len());
    ns / popped as f64
}
