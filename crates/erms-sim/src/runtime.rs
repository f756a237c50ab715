//! The discrete-event microservice runtime.
//!
//! Requests arrive as Poisson streams per service, walk the service's
//! dependency graph (own processing first, then each stage's calls — calls
//! within a stage fan out in parallel, stages run sequentially), and queue
//! for the finite thread pools of the microservice's containers. Scheduling
//! at each container is FCFS or the δ-probabilistic priority policy of
//! §5.3.2. The simulator emits Jaeger-style spans (sampled) and raw
//! per-microservice latency observations for the profiling pipeline.
//!
//! The engine keeps *dense* state: every per-event lookup is a `Vec` index
//! on the dense `u32` ids (the internal `SimTables`), built once per run.
//! Deployment decisions come from `crate::deployment`, shared with
//! [`crate::shard`]; this engine owns the event order, its one global RNG
//! stream, span ids and the request state machine. The pre-refactor
//! map-based engine is kept verbatim in [`crate::reference`] and the
//! golden-seed suite asserts both produce bit-identical results.

use std::collections::BTreeMap;

use erms_core::app::{App, WorkloadVector};
use erms_core::error::{Error, Result};
use erms_core::ids::{MicroserviceId, NodeId, ServiceId};
use erms_core::latency::Interference;
use erms_core::stats;
use erms_trace::span::{Span, SpanId, SpanKind, TraceId};
use erms_trace::store::TraceStore;
use rand::Rng;
use rand::SeedableRng;

use crate::deployment::{Admission, Deployments, Ledger, Occupant, Release, Seat};
use crate::equeue::{CalendarQueue, Popped};
use crate::faults::FaultPlan;
use crate::service_time::ServiceTimeModel;
use crate::tables::SimTables;
use crate::telemetry::{NullSink, TelemetrySink};
use crate::timekey::{key_time, time_key};

/// Request scheduling policy at each container (§5.3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheduling {
    /// First-come-first-serve across all services.
    Fcfs,
    /// δ-probabilistic priority: when a thread frees up, the request from
    /// the service with the `l`-th highest priority is picked with
    /// probability `δ^(l−1)·(1−δ)`. The paper sets δ = 0.05.
    Priority {
        /// The starvation-avoidance parameter δ ∈ [0, 1).
        delta: f64,
    },
}

impl Default for Scheduling {
    fn default() -> Self {
        Scheduling::Priority { delta: 0.05 }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Simulated duration in ms (arrivals stop after this).
    pub duration_ms: f64,
    /// Warm-up period excluded from statistics.
    pub warmup_ms: f64,
    /// RNG seed (everything is deterministic given the seed).
    pub seed: u64,
    /// Fraction of traces recorded as spans (Jaeger uses 0.1, §5.1).
    pub trace_sampling: f64,
    /// Scheduling policy at containers.
    pub scheduling: Scheduling,
    /// One-way network delay per call, in ms.
    pub network_delay_ms: f64,
    /// Threads per container when no per-microservice override is set.
    pub default_threads: usize,
    /// Hard event-count cap (guards against accidental overload loops).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            duration_ms: 60_000.0,
            warmup_ms: 5_000.0,
            seed: 42,
            trace_sampling: 0.1,
            scheduling: Scheduling::default(),
            network_delay_ms: 0.1,
            default_threads: 4,
            max_events: 200_000_000,
        }
    }
}

/// A configured simulation bound to an application.
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    pub(crate) app: &'a App,
    pub(crate) config: SimConfig,
    pub(crate) service_times: BTreeMap<MicroserviceId, ServiceTimeModel>,
    pub(crate) threads: BTreeMap<MicroserviceId, usize>,
    pub(crate) uniform_itf: Interference,
    pub(crate) faults: FaultPlan,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation with default service times (2 ms mean) for all
    /// microservices.
    pub fn new(app: &'a App, config: SimConfig) -> Self {
        Self {
            app,
            config,
            service_times: BTreeMap::new(),
            threads: BTreeMap::new(),
            uniform_itf: Interference::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Sets the service-time model of a microservice.
    pub fn set_service_time(&mut self, ms: MicroserviceId, model: ServiceTimeModel) -> &mut Self {
        self.service_times.insert(ms, model);
        self
    }

    /// Sets the per-container thread count of a microservice.
    pub fn set_threads(&mut self, ms: MicroserviceId, threads: usize) -> &mut Self {
        self.threads.insert(ms, threads.max(1));
        self
    }

    /// Sets the interference every microservice experiences.
    pub fn set_uniform_interference(&mut self, itf: Interference) -> &mut Self {
        self.uniform_itf = itf;
        self
    }

    /// Injects a fault scenario into the next [`Simulation::run`].
    ///
    /// An empty plan (the default) leaves runs bit-for-bit identical to a
    /// simulation without one.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = plan;
        self
    }

    /// Runs the simulation.
    ///
    /// `containers` gives the deployment size per microservice;
    /// `priorities` the service order (highest first) at prioritised
    /// microservices — pass an empty map for FCFS everywhere.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations before any event is processed:
    ///
    /// * [`Error::UnknownService`] / [`Error::UnknownMicroservice`] — a
    ///   workload or container entry names an id the app does not have;
    /// * [`Error::ZeroContainers`] — a microservice on the call path of a
    ///   service with positive workload is deployed with zero containers
    ///   (an explicit scale-to-zero next to live demand is a configuration
    ///   error; *losing* all containers mid-run is not — that surfaces as
    ///   [`SimResult::dropped`]);
    /// * [`Error::InvalidParameter`] — non-finite or negative rates,
    ///   service-time parameters, network delay or fault-plan
    ///   probabilities, or a priority δ outside `[0, 1)`.
    pub fn run(
        &self,
        workloads: &WorkloadVector,
        containers: &BTreeMap<MicroserviceId, u32>,
        priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
    ) -> Result<SimResult> {
        self.run_with_sink(workloads, containers, priorities, NullSink)
    }

    /// Runs the simulation with a [`TelemetrySink`] observing every
    /// post-warm-up span and request completion.
    ///
    /// `run` is exactly this with [`NullSink`]: the sink's
    /// [`ENABLED`](TelemetrySink::ENABLED) constant compiles the hooks
    /// out, and an enabled sink never touches the engine's RNG, so the
    /// [`SimResult`] is bit-identical either way. Pass `&mut collector`
    /// to keep access to the sink after the run.
    ///
    /// # Errors
    ///
    /// Same validation failures as [`run`](Self::run).
    pub fn run_with_sink<S: TelemetrySink>(
        &self,
        workloads: &WorkloadVector,
        containers: &BTreeMap<MicroserviceId, u32>,
        priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
        sink: S,
    ) -> Result<SimResult> {
        self.validate(workloads, containers)?;
        let tables = SimTables::build(self, workloads, priorities);
        Ok(Engine::new(self, &tables, containers, sink).run())
    }

    /// Checks everything user-supplied before the engine starts, so the
    /// event loop itself only ever sees internally-consistent state.
    pub(crate) fn validate(
        &self,
        workloads: &WorkloadVector,
        containers: &BTreeMap<MicroserviceId, u32>,
    ) -> Result<()> {
        for &ms in containers.keys() {
            self.app.microservice(ms)?;
        }
        for (&ms, model) in &self.service_times {
            self.app.microservice(ms)?;
            let ok = model.base_ms.is_finite()
                && model.base_ms > 0.0
                && model.cv.is_finite()
                && model.cv >= 0.0
                && model.cpu_sensitivity.is_finite()
                && model.mem_sensitivity.is_finite();
            if !ok {
                return Err(Error::InvalidParameter(format!(
                    "service-time model for {ms} has non-finite or non-positive parameters"
                )));
            }
        }
        for (sid, rate) in workloads.iter() {
            let lambda = rate.as_per_ms();
            if !lambda.is_finite() || lambda < 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "request rate for service {sid} must be finite and non-negative, got {lambda}/ms"
                )));
            }
            if lambda == 0.0 {
                continue;
            }
            let svc = self.app.service(sid)?;
            for ms in svc.graph.microservices() {
                if containers.get(&ms).copied().unwrap_or(0) == 0 {
                    return Err(Error::ZeroContainers { microservice: ms });
                }
            }
        }
        let p = &self.faults;
        if !(0.0..=1.0).contains(&p.drop_probability) || !(0.0..=1.0).contains(&p.span_loss) {
            return Err(Error::InvalidParameter(
                "fault probabilities must lie in [0, 1]".into(),
            ));
        }
        if let Some(d) = p.deadline_ms {
            if !d.is_finite() || d <= 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "request deadline must be finite and positive, got {d} ms"
                )));
            }
        }
        for crash in &p.container_crashes {
            self.app.microservice(crash.ms)?;
            non_negative("crash time", crash.at_ms)?;
        }
        for failure in &p.host_failures {
            non_negative("host-failure time", failure.at_ms)?;
            for &ms in failure.losses.keys() {
                self.app.microservice(ms)?;
            }
        }
        for cold in &p.cold_starts {
            self.app.microservice(cold.ms)?;
            non_negative("cold-start delay", cold.delay_ms)?;
        }
        for sr in &p.spot_reclamations {
            self.app.microservice(sr.ms)?;
            non_negative("spot-reclamation notice", sr.at_ms)?;
            non_negative("spot-reclamation grace", sr.grace_ms)?;
        }
        // A δ outside [0, 1) (NaN included) would run as strict priority,
        // and a negative delay would schedule children in the past.
        if let Scheduling::Priority { delta } = self.config.scheduling {
            if !(0.0..1.0).contains(&delta) {
                return Err(Error::InvalidParameter(format!(
                    "priority δ must lie in [0, 1), got {delta}"
                )));
            }
        }
        non_negative("network delay", self.config.network_delay_ms)
    }
}

/// Refuses a time or a delay that is negative or not finite.
fn non_negative(what: &str, ms: f64) -> Result<()> {
    if ms.is_finite() && ms >= 0.0 {
        Ok(())
    } else {
        Err(Error::InvalidParameter(format!(
            "{what} must be finite and non-negative, got {ms} ms"
        )))
    }
}

/// Aggregated output of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end latencies per service (post-warm-up completions).
    pub service_latencies: BTreeMap<ServiceId, Vec<f64>>,
    /// Sampled spans (Jaeger stand-in).
    pub trace_store: TraceStore,
    /// Requests generated (arrivals).
    pub generated: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped: front-door drops
    /// ([`FaultPlan::drop_probability`]) plus calls that found no live
    /// container (all crashed mid-run).
    pub dropped: u64,
    /// Requests that completed past the [`FaultPlan::deadline_ms`]
    /// deadline; excluded from `completed` and the latency statistics.
    pub timed_out: u64,
    /// Calls disrupted by a container crash — queued on or being served by
    /// a container at the moment it died. Each is an SLA violation the
    /// latency percentiles cannot see.
    pub crash_violations: u64,
    /// Containers lost to crashes and host failures over the run.
    pub crashed_containers: u64,
    /// Containers taken back by spot reclamations
    /// ([`FaultPlan::spot_reclamations`]) after their grace window — the
    /// elastic-capacity counterpart of `crashed_containers`.
    pub reclaimed_containers: u64,
    /// Spans dropped before reaching the trace store
    /// ([`FaultPlan::span_loss`]).
    pub lost_spans: u64,
    /// Discrete events processed by the engine (arrivals, ready, done and
    /// fault firings) — the denominator of events/sec throughput figures.
    pub events: u64,
}

impl SimResult {
    /// Tail latency of a service (nearest-rank percentile).
    pub fn latency_percentile(&self, service: ServiceId, p: f64) -> f64 {
        self.service_latencies
            .get(&service)
            .map(|v| stats::percentile(v, p))
            .unwrap_or(0.0)
    }

    /// Fraction of a service's requests exceeding `threshold_ms`.
    pub fn violation_rate(&self, service: ServiceId, threshold_ms: f64) -> f64 {
        self.service_latencies
            .get(&service)
            .map(|v| stats::fraction_above(v, threshold_ms))
            .unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Next Poisson arrival of a service.
    Arrival(ServiceId),
    /// A call reaches its deployment and tries to grab a thread.
    Ready(u32),
    /// A call's own processing finished on its container thread.
    Done(u32),
    /// A scheduled fault fires (index into the engine's fault schedule).
    Fault(u32),
}

/// What a scheduled fault does when it fires. Shared with the sharded
/// engine ([`crate::shard`]), which lowers the same `FaultPlan` through
/// [`lower_fault_schedule`] so both engines fire identical schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineFaultKind {
    /// Kill containers outright: drain queues, void in-service calls.
    Crash,
    /// Spot-reclamation notice: mark containers draining — they keep
    /// serving queued work but accept nothing new.
    Drain,
    /// Spot-reclamation execution: kill containers still draining,
    /// through the crash path.
    Reclaim,
}

/// A fault lowered into engine form: host failures become a batch of
/// per-microservice losses so crash-style kinds share one path, and each
/// spot reclamation lowers to a `Drain`/`Reclaim` pair bracketing its
/// grace window.
#[derive(Debug, Clone)]
pub(crate) struct EngineFault {
    pub(crate) at_ms: f64,
    pub(crate) kind: EngineFaultKind,
    pub(crate) losses: Vec<(MicroserviceId, u32)>,
}

/// Lowers a [`FaultPlan`](crate::FaultPlan) into the engine-event schedule,
/// sorted by fire time. Used by both the sequential engine and the sharded
/// engine so a given plan produces the same schedule in both.
pub(crate) fn lower_fault_schedule(sim: &Simulation<'_>) -> Vec<EngineFault> {
    // Crash-style faults become ordinary events in the heap, so they
    // interleave with arrivals and completions deterministically.
    let mut fault_schedule: Vec<EngineFault> = sim
        .faults
        .container_crashes
        .iter()
        .filter(|c| c.at_ms <= sim.config.duration_ms)
        .map(|c| EngineFault {
            at_ms: c.at_ms,
            kind: EngineFaultKind::Crash,
            losses: vec![(c.ms, c.count)],
        })
        .chain(
            sim.faults
                .host_failures
                .iter()
                .filter(|h| h.at_ms <= sim.config.duration_ms)
                .map(|h| EngineFault {
                    at_ms: h.at_ms,
                    kind: EngineFaultKind::Crash,
                    losses: h.losses.iter().map(|(&m, &c)| (m, c)).collect(),
                }),
        )
        .collect();
    // Each spot reclamation lowers to a notice (`Drain`) at `at_ms` and,
    // when the grace window closes inside the horizon, an execution
    // (`Reclaim`) at `at_ms + grace_ms`. A notice whose execution falls
    // past the horizon still drains: real providers post notices
    // regardless of when the experiment ends.
    for sr in &sim.faults.spot_reclamations {
        if sr.at_ms > sim.config.duration_ms {
            continue;
        }
        fault_schedule.push(EngineFault {
            at_ms: sr.at_ms,
            kind: EngineFaultKind::Drain,
            losses: vec![(sr.ms, sr.count)],
        });
        let exec_at = sr.at_ms + sr.grace_ms;
        if exec_at <= sim.config.duration_ms {
            fault_schedule.push(EngineFault {
                at_ms: exec_at,
                kind: EngineFaultKind::Reclaim,
                losses: vec![(sr.ms, sr.count)],
            });
        }
    }
    fault_schedule.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
    fault_schedule
}

// `Copy` is load-bearing for the hot path: `complete()` reads the call out
// of the arena by value, with no per-event heap traffic.
#[derive(Debug, Clone, Copy)]
struct Call {
    service: ServiceId,
    node: NodeId,
    ms: MicroserviceId,
    parent: Option<u32>,
    seat: Seat,
    client_start: f64,
    stage: u32,
    pending: u32,
    root_start: f64,
    trace: Option<(TraceId, SpanId)>,
    in_use: bool,
}

impl Occupant for Call {
    fn at(&self) -> (MicroserviceId, ServiceId) {
        (self.ms, self.service)
    }
    fn seat(&mut self) -> &mut Seat {
        &mut self.seat
    }
}

/// The services' pending Poisson arrivals (see `Engine::arrivals`), with
/// a tournament tree over them so the earliest is found in O(log services)
/// after each one is armed or consumed.
struct Arrivals {
    /// Each service's armed arrival time.
    times: Vec<f64>,
    /// Leaf `width + i` is service `i`'s `(key, seq, i)`, `(u64::MAX,
    /// u64::MAX, i)` while unarmed; each inner node is the lesser of its
    /// two children, so node 1 is the minimum, ties going to the lower
    /// index as a scan in index order would have it.
    tree: Vec<(u64, u64, u32)>,
    width: usize,
}

impl Arrivals {
    fn new(services: usize) -> Self {
        let width = services.next_power_of_two();
        let mut tree = vec![(u64::MAX, u64::MAX, 0); 2 * width];
        for (i, leaf) in tree[width..].iter_mut().enumerate() {
            leaf.2 = i as u32;
        }
        for node in (1..width).rev() {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }
        Self {
            times: vec![0.0; services],
            tree,
            width,
        }
    }

    /// The earliest armed arrival as `(key, seq, service index)`;
    /// `(u64::MAX, u64::MAX, _)` when none is.
    fn min(&self) -> (u64, u64, u32) {
        self.tree[1]
    }

    fn set(&mut self, i: usize, key: u64, seq: u64) {
        let mut node = self.width + i;
        self.tree[node] = (key, seq, i as u32);
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }

    /// Disarms service `i`'s slot and returns the time it was armed for.
    fn take(&mut self, i: usize) -> f64 {
        self.set(i, u64::MAX, u64::MAX);
        self.times[i]
    }
}

struct Engine<'e, S: TelemetrySink> {
    /// Future events keyed by packed time ([`time_key`]) with the
    /// monotone push counter `seq` as tiebreak — the calendar queue pops
    /// in exactly the `(time_key, seq)` total order the old binary heap
    /// produced (golden digests pin this end to end).
    queue: CalendarQueue<u64, Event>,
    seq: u64,
    /// The same-instant group being dispatched. `pop_batch` proves every
    /// queued event with `batch_key` is already in this buffer, and `seq`
    /// is monotone, so an event pushed *at* the dispatched instant (the
    /// common `Ready`-now case) is a plain append here — no queue touch —
    /// and still pops in exactly the old heap's `(time_key, seq)` order.
    batch_items: Vec<(u64, Event)>,
    /// Packed key of the live batch; `u64::MAX` when idle (a real packed
    /// time key of a finite event time can never equal it).
    batch_key: u64,
    /// Per-service next Poisson arrival, kept out of the calendar queue:
    /// each service's stream is time-monotone, so one slot per service
    /// replaces a third of all queue traffic. `key == u64::MAX` marks an
    /// exhausted stream. `seq` is assigned at schedule time exactly as a
    /// queue push would be, so merging their minimum against the queue
    /// front by `(key, seq)` reproduces the heap's total order.
    arrivals: Arrivals,
    /// Hot configuration scalars copied out of `sim` at setup, so the
    /// event loop reads engine-local fields instead of chasing the
    /// `&Simulation` reference per event.
    max_events: u64,
    duration_ms: f64,
    net_ms: f64,
    calls: Vec<Call>,
    free: Vec<u32>,
    /// Immutable dense lookup tables (rates, threads, classes, samplers,
    /// flattened graphs). Borrowed so handlers can copy the `&` out and
    /// iterate table spans while mutating the rest of the engine.
    tables: &'e SimTables,
    deps: Deployments,
    rng: rand::rngs::StdRng,
    next_trace: u64,
    next_span: u64,
    ledger: Ledger,
    fault_schedule: Vec<EngineFault>,
    /// Telemetry observer; [`NullSink`] (the `run` path) compiles every
    /// hook out via `S::ENABLED`.
    sink: S,
}

impl<'e, S: TelemetrySink> Engine<'e, S> {
    fn new(
        sim: &'e Simulation<'e>,
        tables: &'e SimTables,
        containers: &BTreeMap<MicroserviceId, u32>,
        sink: S,
    ) -> Self {
        let fault_schedule = lower_fault_schedule(sim);
        let service_count = sim.app.service_count();
        // Reserve the result tables near their Poisson-expected sizes so
        // steady-state pushes never trigger a doubling memcpy mid-run;
        // contents are unaffected. Capped so a mis-sized config cannot
        // balloon the reservation.
        let horizon_ms = (sim.config.duration_ms - sim.config.warmup_ms).max(0.0);
        let result_latencies: Vec<Vec<f64>> = tables
            .hot
            .rate_per_ms
            .iter()
            .map(|rate| Vec::with_capacity(((rate * horizon_ms) as usize + 16).min(1 << 21)))
            .collect();
        Self {
            queue: CalendarQueue::new(),
            batch_items: Vec::new(),
            batch_key: u64::MAX,
            arrivals: Arrivals::new(service_count),
            seq: 0,
            max_events: sim.config.max_events,
            duration_ms: sim.config.duration_ms,
            net_ms: sim.config.network_delay_ms,
            calls: Vec::new(),
            free: Vec::new(),
            tables,
            deps: Deployments::new(sim, tables, containers, |_| true),
            rng: rand::rngs::StdRng::seed_from_u64(sim.config.seed),
            next_trace: 1,
            next_span: 1,
            ledger: Ledger::new(sim, result_latencies),
            fault_schedule,
            sink,
        }
    }

    fn push(&mut self, time: f64, event: Event) {
        self.seq += 1;
        let key = time_key(time);
        if key == self.batch_key {
            // Scheduled at the instant being dispatched: joins the live
            // batch. `seq` is monotone, so this is always an append.
            self.batch_items.push((self.seq, event));
        } else {
            self.queue.push(key, self.seq, event);
        }
    }

    /// Arms service `sid`'s arrival slot for `time` — the arrival-stream
    /// equivalent of [`Self::push`], consuming one `seq` at the same
    /// point so the merged total order is the heap's.
    fn push_arrival(&mut self, sid: ServiceId, time: f64) {
        self.seq += 1;
        self.arrivals.times[sid.index()] = time;
        self.arrivals.set(sid.index(), time_key(time), self.seq);
    }

    fn alloc_call(&mut self, call: Call) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.calls[idx as usize] = call;
            idx
        } else {
            self.calls.push(call);
            (self.calls.len() - 1) as u32
        }
    }

    fn release_call(&mut self, idx: u32) {
        self.calls[idx as usize].in_use = false;
        self.free.push(idx);
    }

    fn next_span_id(&mut self) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        id
    }

    /// Dispatches the live batch (which may grow while it runs) in tie
    /// order; returns `false` when the event budget is exhausted.
    #[inline(always)]
    fn drain_batch(&mut self, time: f64, events: &mut u64) -> bool {
        let mut i = 0;
        while i < self.batch_items.len() {
            let (_, event) = self.batch_items[i];
            i += 1;
            *events += 1;
            if *events > self.max_events {
                return false;
            }
            self.dispatch(event, time);
        }
        self.batch_key = u64::MAX;
        true
    }

    #[inline(always)]
    fn dispatch(&mut self, event: Event, time: f64) {
        match event {
            Event::Arrival(sid) => self.on_arrival(sid, time),
            Event::Ready(call) => self.on_ready(call, time),
            Event::Done(call) => self.on_done(call, time),
            Event::Fault(i) => self.on_fault(i as usize),
        }
    }

    fn run(mut self) -> SimResult {
        // Seed one arrival per active service. Index order equals the id
        // order of the old `WorkloadVector` iteration, so RNG consumption
        // matches the reference engine draw for draw.
        for i in 0..self.tables.hot.rate_per_ms.len() {
            let lambda = self.tables.hot.rate_per_ms[i];
            if lambda > 0.0 {
                let dt = exp_sample(lambda, &mut self.rng);
                self.push_arrival(ServiceId::new(i as u32), dt);
            }
        }
        for i in 0..self.fault_schedule.len() {
            let at = self.fault_schedule[i].at_ms;
            self.push(at, Event::Fault(i as u32));
        }
        let mut events = 0u64;
        // Outer loop: one queue touch per same-instant group — the
        // key→time decode is paid once per batch, not per event. The
        // arrival streams merge in at the top by `(key, seq)`; events
        // pushed at the current instant mid-batch append to
        // `batch_items` and `drain_batch` picks them up by index.
        'run: loop {
            let (akey, aseq, asid) = self.arrivals.min();
            self.batch_items.clear();
            // A queue group with key strictly below the next arrival
            // dispatches first; an exact key tie also pops the group, and
            // the arrival is seq-interleaved into it below, so equal-key
            // pushes landing mid-batch still follow every queued peer.
            match self.queue.pop_upto(akey, &mut self.batch_items) {
                Popped::One(key, seq, event) => {
                    self.batch_key = key;
                    let time = key_time(key);
                    if akey == key {
                        // An arrival whose packed key exactly ties the
                        // popped entry: order the pair by `seq`
                        // (measure-zero with continuous draws, but the
                        // order contract is exact).
                        let arr = (aseq, Event::Arrival(ServiceId::new(asid)));
                        if aseq < seq {
                            self.batch_items.push(arr);
                            self.batch_items.push((seq, event));
                        } else {
                            self.batch_items.push((seq, event));
                            self.batch_items.push(arr);
                        }
                        self.arrivals.take(asid as usize);
                        if !self.drain_batch(time, &mut events) {
                            break 'run;
                        }
                        continue 'run;
                    }
                    // Dominant case: a lone event at this instant.
                    // Dispatch it straight off the queue; same-instant
                    // pushes from its handler land in `batch_items` and
                    // `drain_batch` sweeps them up.
                    events += 1;
                    if events > self.max_events {
                        break 'run;
                    }
                    self.dispatch(event, time);
                    if !self.drain_batch(time, &mut events) {
                        break 'run;
                    }
                }
                Popped::Group(key) => {
                    self.batch_key = key;
                    if akey == key {
                        // Same tie contract as above, for a multi-entry
                        // group: insert at the arrival's `seq` position.
                        let at = self.batch_items.partition_point(|&(s, _)| s < aseq);
                        self.batch_items
                            .insert(at, (aseq, Event::Arrival(ServiceId::new(asid))));
                        self.arrivals.take(asid as usize);
                    }
                    if !self.drain_batch(key_time(key), &mut events) {
                        break 'run;
                    }
                }
                Popped::None if akey != u64::MAX => {
                    // Next arrival precedes everything queued: dispatch
                    // it straight from its slot — no queue pop and no
                    // batch materialization on this path.
                    let time = self.arrivals.take(asid as usize);
                    self.batch_key = akey;
                    events += 1;
                    if events > self.max_events {
                        break 'run;
                    }
                    self.on_arrival(ServiceId::new(asid), time);
                    if !self.drain_batch(time, &mut events) {
                        break 'run;
                    }
                }
                Popped::None => break 'run,
            }
        }
        self.ledger.into_result(events)
    }

    /// Fires one scheduled fault (see [`Deployments::fire`]) and unwinds
    /// the calls that were queued on the containers it failed. Victims are
    /// found through the per-container lists, so a fault costs O(victims),
    /// independent of the size of the call arena.
    fn on_fault(&mut self, index: usize) {
        let fault = &self.fault_schedule[index];
        let queued = self
            .deps
            .fire(fault, |_| true, &mut self.calls, &mut self.ledger);
        for idx in queued {
            self.abandon(idx);
        }
    }

    fn on_arrival(&mut self, sid: ServiceId, time: f64) {
        // Schedule the next arrival while inside the horizon.
        let lambda = self.tables.hot.rate_per_ms[sid.index()];
        if lambda > 0.0 {
            let next = time + exp_sample(lambda, &mut self.rng);
            if next <= self.duration_ms {
                self.push_arrival(sid, next);
            }
        }
        if !self.ledger.admit_request(&mut self.rng) {
            return;
        }
        // `validate` established the service exists.
        let st = &self.tables.services[sid.index()];
        let (root_node, ms) = (st.root_node, st.root_ms);
        let trace = {
            let trace_id = TraceId(self.next_trace);
            self.next_trace += 1;
            if self.ledger.sampled(trace_id) {
                let span = self.next_span_id();
                Some((trace_id, span))
            } else {
                None
            }
        };
        let call = self.alloc_call(Call {
            service: sid,
            node: root_node,
            ms,
            parent: None,
            seat: Seat::default(),
            client_start: time,
            stage: 0,
            pending: 0,
            root_start: time,
            trace,
            in_use: true,
        });
        self.push(time, Event::Ready(call));
    }

    fn on_ready(&mut self, idx: u32, time: f64) {
        let (hot, rng) = (&self.tables.hot, &mut self.rng);
        match self.deps.admit(hot, &mut self.calls, idx, time, rng) {
            Admission::Started { done_at } => self.push(done_at, Event::Done(idx)),
            Admission::Queued => {}
            Admission::Refused => {
                // Zero configured containers (caught by `validate` for
                // loaded services) or every container lost mid-run: the
                // request is lost, not an error.
                self.ledger.result.dropped += 1;
                self.abandon(idx);
            }
        }
    }

    fn on_done(&mut self, idx: u32, time: f64) {
        let hot = &self.tables.hot;
        match self.deps.release(hot, &mut self.calls, idx, &mut self.rng) {
            Release::Void => return self.abandon(idx),
            Release::Next { call, service_ms } => self.push(time + service_ms, Event::Done(call)),
            Release::Idle => {}
        }
        let call = &mut self.calls[idx as usize];
        self.ledger.own_span(&mut self.sink, hot, call, time);
        // Fan out the first stage, or complete immediately.
        self.advance_stages(idx, time, 0);
    }

    /// Starts stage `stage` of `idx`'s node, or completes the call when all
    /// stages are done.
    fn advance_stages(&mut self, idx: u32, time: f64, stage: usize) {
        let (service, node_id, trace, root_start) = {
            let call = &self.calls[idx as usize];
            (call.service, call.node, call.trace, call.root_start)
        };
        // Copying the `&SimTables` out of `self` decouples the flattened
        // graph borrow from the `&mut self` calls below, so the stage's
        // child span is iterated in place instead of cloned per event.
        let tables = self.tables;
        let st = &tables.services[service.index()];
        let (stages_start, stages_count) = st.node_stages[node_id.index()];
        if stage >= stages_count as usize {
            self.complete(idx, time);
            return;
        }
        let mut spawned = 0usize;
        let net = self.net_ms;
        let (children_start, children_count) = st.stage_spans[stages_start as usize + stage];
        let child_span = children_start as usize..(children_start + children_count) as usize;
        for &child_node in &st.children[child_span] {
            // Fractional multiplicities spawn the extra copy
            // probabilistically; the RNG is consulted only when the
            // fractional part is non-zero.
            let ci = child_node.index();
            let frac = st.node_frac[ci];
            let copies =
                st.node_whole[ci] as usize + usize::from(frac > 0.0 && self.rng.gen_bool(frac));
            for _ in 0..copies {
                let child_ms = st.node_ms[ci];
                let trace = trace.map(|(trace_id, _)| (trace_id, self.next_span_id()));
                let child = self.alloc_call(Call {
                    service,
                    node: child_node,
                    ms: child_ms,
                    parent: Some(idx),
                    seat: Seat::default(),
                    client_start: time,
                    stage: 0,
                    pending: 0,
                    root_start,
                    trace,
                    in_use: true,
                });
                self.push(time + net, Event::Ready(child));
                spawned += 1;
            }
        }
        if spawned == 0 {
            // Empty stage (possible with probabilistic multiplicities):
            // move on immediately.
            self.advance_stages(idx, time, stage + 1);
            return;
        }
        let call = &mut self.calls[idx as usize];
        call.stage = stage as u32;
        call.pending = spawned as u32;
    }

    /// A call finished all its stages: emit spans, notify the parent or
    /// finish the request.
    fn complete(&mut self, idx: u32, time: f64) {
        // Only the routing scalars are read on the hot (untraced) path;
        // span emission re-reads the full call in its own (rare) branch
        // instead of copying the whole struct per completion.
        let (trace, parent, root_start, service) = {
            let call = &self.calls[idx as usize];
            (call.trace, call.parent, call.root_start, call.service)
        };
        // Server span: arrival at this microservice to response sent.
        if let Some((trace_id, span_id)) = trace {
            let call = self.calls[idx as usize];
            let parent_span = call
                .parent
                .and_then(|p| self.calls[p as usize].trace.map(|(_, s)| s));
            let span = Span {
                trace_id,
                span_id,
                parent: parent_span,
                microservice: call.ms,
                service: call.service,
                kind: SpanKind::Server,
                start_ms: call.seat.arrive,
                end_ms: time,
            };
            self.ledger.record_span(span, &mut self.rng);
        }
        let net = self.net_ms;
        match parent {
            None => {
                self.ledger
                    .finish(&mut self.sink, service, root_start, time);
                self.release_call(idx);
            }
            Some(parent) => {
                // Client span at the parent side.
                if let (Some((trace_id, _)), Some((_, parent_server))) =
                    (trace, self.calls[parent as usize].trace)
                {
                    let call = self.calls[idx as usize];
                    let client_span = self.next_span_id();
                    let span = Span {
                        trace_id,
                        span_id: client_span,
                        parent: Some(parent_server),
                        microservice: call.ms,
                        service: call.service,
                        kind: SpanKind::Client,
                        start_ms: call.client_start,
                        end_ms: time + net,
                    };
                    self.ledger.record_span(span, &mut self.rng);
                }
                self.release_call(idx);
                let parent_call = &mut self.calls[parent as usize];
                debug_assert!(parent_call.in_use);
                parent_call.pending -= 1;
                let next_stage = parent_call.stage as usize + 1;
                if parent_call.pending == 0 {
                    self.advance_stages(parent, time + net, next_stage);
                }
            }
        }
    }

    /// A call that cannot be served (no container, or its container
    /// failed under it): release it and take it off its parent's count of
    /// outstanding children without advancing the parent. This stops the
    /// request only when this call is the last child of its stage to land,
    /// and then the parent is never advanced or released. When a sibling
    /// lands after it, that sibling advances the stage and the request
    /// completes, counted beside this drop (DESIGN §6.1).
    fn abandon(&mut self, idx: u32) {
        let parent = self.calls[idx as usize].parent;
        self.release_call(idx);
        if let Some(p) = parent {
            let parent_call = &mut self.calls[p as usize];
            parent_call.pending = parent_call.pending.saturating_sub(1);
        }
    }
}

/// Exponential inter-arrival sample with rate `lambda` (per ms).
pub(crate) fn exp_sample(lambda: f64, rng: &mut impl Rng) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{FnSink, SpanRecord};
    use erms_core::app::{AppBuilder, RequestRate, Sla};
    use erms_core::latency::LatencyProfile;
    use erms_core::resources::Resources;
    use std::collections::BTreeSet;

    fn chain_app() -> (App, [MicroserviceId; 2], ServiceId) {
        let mut b = AppBuilder::new("sim");
        let a = b.microservice("a", LatencyProfile::linear(0.01, 2.0), Resources::default());
        let c = b.microservice("c", LatencyProfile::linear(0.01, 2.0), Resources::default());
        let s = b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(a);
            g.call_seq(root, c);
        });
        (b.build().unwrap(), [a, c], s)
    }

    fn containers(pairs: &[(MicroserviceId, u32)]) -> BTreeMap<MicroserviceId, u32> {
        pairs.iter().copied().collect()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            duration_ms: 30_000.0,
            warmup_ms: 2_000.0,
            seed: 7,
            trace_sampling: 1.0,
            network_delay_ms: 0.1,
            ..SimConfig::default()
        }
    }

    #[test]
    fn light_load_latency_near_service_time_sum() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.0, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(3.0, 0.0, 0.0, 0.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0)); // 10/s, far below capacity
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert!(result.completed > 100);
        assert_eq!(result.dropped, 0);
        let p50 = result.latency_percentile(s, 0.5);
        // 2 + 3 ms service + 2 network hops (0.1 each way on the inner
        // call) ≈ 5.2 ms with no queueing.
        assert!((p50 - 5.2).abs() < 0.5, "p50 {p50}");
    }

    #[test]
    fn queueing_grows_latency_beyond_knee() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.default_threads = 1;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        // One container, one thread -> capacity 500 req/s... rate per ms:
        // capacity = 1/2ms = 0.5/ms = 30000/min. Light: 6000/min; heavy:
        // 27000/min (90% utilisation).
        let mut light = WorkloadVector::new();
        light.set(s, RequestRate::per_minute(6_000.0));
        let mut heavy = WorkloadVector::new();
        heavy.set(s, RequestRate::per_minute(27_000.0));
        let cs = containers(&[(a, 1), (c, 1)]);
        let r_light = sim.run(&light, &cs, &BTreeMap::new()).unwrap();
        let r_heavy = sim.run(&heavy, &cs, &BTreeMap::new()).unwrap();
        let p95_light = r_light.latency_percentile(s, 0.95);
        let p95_heavy = r_heavy.latency_percentile(s, 0.95);
        assert!(
            p95_heavy > 2.0 * p95_light,
            "queueing should dominate: light {p95_light}, heavy {p95_heavy}"
        );
    }

    #[test]
    fn priority_scheduling_protects_high_priority_service() {
        // Two services share microservice P; service 0 gets priority.
        let mut b = AppBuilder::new("share");
        let u = b.microservice("u", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let h = b.microservice("h", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let p = b.microservice("p", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let s1 = b.service("s1", Sla::p95_ms(100.0), |g| {
            let root = g.entry(u);
            g.call_seq(root, p);
        });
        let s2 = b.service("s2", Sla::p95_ms(100.0), |g| {
            let root = g.entry(h);
            g.call_seq(root, p);
        });
        let app = b.build().unwrap();
        let mut config = quick_config();
        config.default_threads = 1;
        config.scheduling = Scheduling::Priority { delta: 0.05 };
        let mut sim = Simulation::new(&app, config.clone());
        for ms in [u, h, p] {
            sim.set_service_time(ms, ServiceTimeModel::new(1.5, 0.3, 0.0, 0.0));
        }
        // P is the bottleneck: 3 containers serving both services.
        let mut w = WorkloadVector::new();
        w.set(s1, RequestRate::per_minute(30_000.0));
        w.set(s2, RequestRate::per_minute(30_000.0));
        let cs = containers(&[(u, 2), (h, 2), (p, 3)]);
        let mut priorities = BTreeMap::new();
        priorities.insert(p, vec![s1, s2]);
        // P95 of s1's own latency at P, collected through the sink. The
        // same pass checks every span's labels: its container is one of
        // its microservice's deployed containers, and its priority class
        // is its service's position in that microservice's priority order
        // (0 where there is none).
        let own_p95 = |priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>| -> f64 {
            let mut v: Vec<f64> = Vec::new();
            let (mut containers_at_p, mut classes_at_p) = (BTreeSet::new(), BTreeSet::new());
            let sink = FnSink::spans(|s: &SpanRecord| {
                assert!(
                    s.container < cs[&s.microservice],
                    "container out of range: {s:?}"
                );
                let class = priorities
                    .get(&s.microservice)
                    .and_then(|order| order.iter().position(|&sid| sid == s.service))
                    .unwrap_or(0);
                assert_eq!(s.priority_class as usize, class, "priority class: {s:?}");
                if s.microservice == p {
                    containers_at_p.insert(s.container);
                    classes_at_p.insert(s.priority_class);
                }
                if s.microservice == p && s.service == s1 {
                    v.push(s.latency_ms());
                }
            });
            sim.run_with_sink(&w, &cs, priorities, sink).unwrap();
            assert_eq!(containers_at_p, BTreeSet::from([0, 1, 2]));
            assert_eq!(classes_at_p.len(), priorities.get(&p).map_or(1, Vec::len));
            stats::percentile(&v, 0.95)
        };
        let prio_high = own_p95(&priorities);
        let fcfs_high = own_p95(&BTreeMap::new());
        assert!(
            prio_high < fcfs_high,
            "priority should cut the high-priority service's P latency: {prio_high} vs {fcfs_high}"
        );
    }

    #[test]
    fn spans_reconstruct_the_graph() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.trace_sampling = 1.0;
        config.duration_ms = 5_000.0;
        config.warmup_ms = 0.0;
        let sim = Simulation::new(&app, config);
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new())
            .unwrap();
        assert!(result.trace_store.trace_count() > 10);
        let (_, spans) = result.trace_store.iter().next().unwrap();
        let extracted = erms_trace::extract::extract_trace_graph(spans).unwrap();
        assert_eq!(extracted.graph.len(), 2);
        assert_eq!(extracted.graph.node(extracted.graph.root()).microservice, a);
        let _ = c;
    }

    #[test]
    fn zero_containers_for_loaded_service_is_config_error() {
        let (app, [a, c], s) = chain_app();
        let sim = Simulation::new(&app, quick_config());
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let err = sim
            .run(&w, &containers(&[(a, 1), (c, 0)]), &BTreeMap::new())
            .unwrap_err();
        assert_eq!(err, Error::ZeroContainers { microservice: c });
        // A zero-rate service tolerates zero containers on its path.
        let idle = WorkloadVector::new();
        assert!(sim
            .run(&idle, &containers(&[(a, 1), (c, 0)]), &BTreeMap::new())
            .is_ok());
    }

    #[test]
    fn unknown_ids_and_bad_rates_are_rejected() {
        let (app, [a, c], s) = chain_app();
        let sim = Simulation::new(&app, quick_config());
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let mut cs = containers(&[(a, 1), (c, 1)]);
        cs.insert(MicroserviceId::new(99), 1);
        assert_eq!(
            sim.run(&w, &cs, &BTreeMap::new()).unwrap_err(),
            Error::UnknownMicroservice(MicroserviceId::new(99))
        );
        // NaN is sanitised to zero by `RequestRate::per_minute`; infinity
        // survives it and must be caught here.
        let mut bad = WorkloadVector::new();
        bad.set(s, RequestRate::per_minute(f64::INFINITY));
        assert!(matches!(
            sim.run(&bad, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new()),
            Err(Error::InvalidParameter(_))
        ));
        // A δ outside [0, 1) and a negative or non-finite network delay are
        // refused too; δ = 0 and a zero delay stay valid.
        let cs = containers(&[(a, 1), (c, 1)]);
        let with = |scheduling, network_delay_ms| SimConfig {
            scheduling,
            network_delay_ms,
            duration_ms: 1_000.0,
            warmup_ms: 0.0,
            ..quick_config()
        };
        for (scheduling, net) in [
            (Scheduling::Priority { delta: f64::NAN }, 0.1),
            (Scheduling::Priority { delta: 1.0 }, 0.1),
            (Scheduling::Priority { delta: 2.0 }, 0.1),
            (Scheduling::Priority { delta: -0.05 }, 0.1),
            (Scheduling::Fcfs, f64::NAN),
            (Scheduling::Fcfs, -1.0),
            (Scheduling::Fcfs, f64::INFINITY),
        ] {
            let sim = Simulation::new(&app, with(scheduling, net));
            assert!(
                matches!(
                    sim.run(&w, &cs, &BTreeMap::new()),
                    Err(Error::InvalidParameter(_))
                ),
                "{scheduling:?} with a {net} ms delay must be refused"
            );
        }
        for (scheduling, net) in [
            (Scheduling::Priority { delta: 0.0 }, 0.0),
            (Scheduling::Priority { delta: 0.99 }, 0.1),
        ] {
            let sim = Simulation::new(&app, with(scheduling, net));
            assert!(sim.run(&w, &cs, &BTreeMap::new()).is_ok());
        }
    }

    #[test]
    fn crash_to_zero_drops_instead_of_erroring() {
        // Losing every container mid-run is a fault, not a config error:
        // requests after the crash are dropped, ones before it complete.
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(FaultPlan::new().crash(c, 10_000.0, 1));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new())
            .unwrap();
        assert!(result.completed > 0, "pre-crash traffic completes");
        assert!(result.dropped > 0, "post-crash traffic is dropped");
        assert_eq!(result.crashed_containers, 1);
    }

    #[test]
    fn crash_counts_violations_and_reduces_capacity() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.default_threads = 1;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        // Load c to ~80% of its 4-container capacity, then kill 3 of the 4
        // mid-run: queued and in-flight work is disrupted and the survivor
        // saturates.
        sim.set_fault_plan(FaultPlan::new().crash(c, 15_000.0, 3));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(48_000.0));
        let cs = containers(&[(a, 4), (c, 4)]);
        let faulty = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(faulty.crashed_containers, 3);
        assert!(
            faulty.crash_violations > 0,
            "a loaded deployment must have calls disrupted by the crash"
        );
        sim.set_fault_plan(FaultPlan::new());
        let clean = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert!(
            faulty.latency_percentile(s, 0.95) > clean.latency_percentile(s, 0.95),
            "post-crash queueing must raise the tail"
        );
    }

    #[test]
    fn host_failure_takes_correlated_losses() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        let mut losses = BTreeMap::new();
        losses.insert(a, 1u32);
        losses.insert(c, 1u32);
        sim.set_fault_plan(FaultPlan::new().host_failure(10_000.0, losses));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert_eq!(result.crashed_containers, 2);
        assert!(result.completed > 0, "survivors keep serving");
    }

    #[test]
    fn spot_reclamation_drains_then_takes_the_container() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        // One of c's two containers gets a notice at 10 s and is taken
        // back at 12 s; the survivor carries the rest of the run.
        sim.set_fault_plan(FaultPlan::new().spot_reclamation(c, 10_000.0, 1, 2_000.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert_eq!(result.reclaimed_containers, 1);
        assert_eq!(result.crashed_containers, 0, "a reclaim is not a crash");
        assert!(result.completed > 0, "the on-demand survivor keeps serving");
    }

    #[test]
    fn reclamation_grace_window_lets_queued_work_finish() {
        // Under light load a draining container empties its queue well
        // inside a generous grace window, so the execution finds nothing
        // in flight and no calls are disrupted.
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(FaultPlan::new().spot_reclamation(c, 10_000.0, 1, 5_000.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert_eq!(result.reclaimed_containers, 1);
        assert_eq!(
            result.crash_violations, 0,
            "an idle draining container dies empty"
        );
    }

    #[test]
    fn zero_grace_reclamation_disrupts_like_a_crash() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.default_threads = 1;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        // No advance notice: the execution lands the same instant as the
        // drain, so loaded containers die with work on board.
        sim.set_fault_plan(FaultPlan::new().spot_reclamation(c, 15_000.0, 3, 0.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(48_000.0));
        let result = sim
            .run(&w, &containers(&[(a, 4), (c, 4)]), &BTreeMap::new())
            .unwrap();
        assert_eq!(result.reclaimed_containers, 3);
        assert!(
            result.crash_violations > 0,
            "zero-grace reclamation must disrupt in-flight work"
        );
    }

    #[test]
    fn reclamations_beyond_horizon_leave_runs_bit_identical() {
        let (app, [a, c], s) = chain_app();
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        let clean = Simulation::new(&app, quick_config())
            .run(&w, &cs, &BTreeMap::new())
            .unwrap();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(FaultPlan::new().spot_reclamation(c, 1e9, 1, 100.0));
        let unfired = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(clean.events, unfired.events);
        assert_eq!(clean.generated, unfired.generated);
        assert_eq!(clean.completed, unfired.completed);
        assert_eq!(clean.service_latencies, unfired.service_latencies);
        assert_eq!(unfired.reclaimed_containers, 0);
    }

    #[test]
    fn cold_start_delays_early_requests() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.default_threads = 1;
        config.warmup_ms = 0.0;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.0, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.0, 0.0, 0.0));
        // One of c's two containers serves nothing for the first 5 s; with
        // round-robin routing, early requests landing on it wait.
        sim.set_fault_plan(FaultPlan::new().cold_start(c, 1, 5_000.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let cold = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        sim.set_fault_plan(FaultPlan::new());
        let warm = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert!(
            cold.latency_percentile(s, 0.99) > warm.latency_percentile(s, 0.99),
            "cold-start waits must show in the tail"
        );
    }

    #[test]
    fn drops_and_deadline_are_accounted() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(
            FaultPlan::new()
                .with_drop_probability(0.2)
                .with_deadline_ms(4.0), // below the ~5.2 ms typical e2e
        );
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(&w, &containers(&[(a, 2), (c, 2)]), &BTreeMap::new())
            .unwrap();
        assert!(result.dropped > 0, "front-door drops");
        assert!(result.timed_out > 0, "deadline violations");
        let frac = result.dropped as f64 / result.generated as f64;
        assert!((frac - 0.2).abs() < 0.05, "drop fraction {frac}");
    }

    #[test]
    fn crashing_an_idle_deployment_costs_only_its_victims() {
        // Regression test for the fault handler's victim scan: the old
        // engine walked the entire call arena on every crash, so killing
        // an idle deployment cost O(live calls). The engine now keeps a
        // per-container in-service index and must find exactly zero
        // victims here without touching the (large) population of calls
        // queued on the busy deployments.
        let mut b = AppBuilder::new("idle-crash");
        let a = b.microservice("a", LatencyProfile::linear(0.01, 2.0), Resources::default());
        let c = b.microservice("c", LatencyProfile::linear(0.01, 2.0), Resources::default());
        let idle = b.microservice(
            "idle",
            LatencyProfile::linear(0.01, 2.0),
            Resources::default(),
        );
        let s = b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(a);
            g.call_seq(root, c);
        });
        let _idle_svc = b.service("s-idle", Sla::p95_ms(100.0), |g| {
            g.entry(idle);
        });
        let app = b.build().unwrap();
        let mut config = quick_config();
        config.default_threads = 1;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.3, 0.0, 0.0));
        sim.set_fault_plan(FaultPlan::new().crash(idle, 15_000.0, 2));
        // Heavy traffic on s keeps many calls live in the arena; s-idle
        // gets no workload, so idle's containers hold nothing to disrupt.
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(48_000.0));
        let cs = containers(&[(a, 4), (c, 4), (idle, 2)]);
        let result = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(result.crashed_containers, 2, "both idle containers die");
        assert_eq!(
            result.crash_violations, 0,
            "an idle crash must not claim victims from other deployments"
        );
        assert!(result.completed > 0, "the busy service is unaffected");
    }

    #[test]
    fn span_loss_thins_the_trace_store() {
        let (app, [a, c], s) = chain_app();
        let mut config = quick_config();
        config.duration_ms = 10_000.0;
        config.warmup_ms = 0.0;
        let mut sim = Simulation::new(&app, config);
        sim.set_fault_plan(FaultPlan::new().with_span_loss(0.5));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let lossy = sim
            .run(&w, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new())
            .unwrap();
        assert!(lossy.lost_spans > 0);
        sim.set_fault_plan(FaultPlan::new());
        let clean = sim
            .run(&w, &containers(&[(a, 1), (c, 1)]), &BTreeMap::new())
            .unwrap();
        assert!(clean.trace_store.span_count() > lossy.trace_store.span_count());
        assert_eq!(clean.lost_spans, 0);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let (app, [a, c], s) = chain_app();
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(3_000.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        let plain = Simulation::new(&app, quick_config())
            .run(&w, &cs, &BTreeMap::new())
            .unwrap();
        let mut with_plan = Simulation::new(&app, quick_config());
        with_plan.set_fault_plan(FaultPlan::new());
        let planned = with_plan.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(plain.completed, planned.completed);
        assert_eq!(plain.service_latencies, planned.service_latencies);
    }

    #[test]
    fn faulty_runs_are_deterministic_given_seed() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_fault_plan(
            FaultPlan::new()
                .crash(c, 8_000.0, 1)
                .with_drop_probability(0.1)
                .with_span_loss(0.2),
        );
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(3_000.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        let r1 = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        let r2 = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.dropped, r2.dropped);
        assert_eq!(r1.crash_violations, r2.crash_violations);
        assert_eq!(r1.service_latencies, r2.service_latencies);
    }

    #[test]
    fn deterministic_given_seed() {
        let (app, [a, c], s) = chain_app();
        let sim = Simulation::new(&app, quick_config());
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(3_000.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        let r1 = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        let r2 = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(
            r1.latency_percentile(s, 0.95),
            r2.latency_percentile(s, 0.95)
        );
    }

    #[test]
    fn interference_slows_everything_down() {
        let (app, [a, c], s) = chain_app();
        let mut sim = Simulation::new(&app, quick_config());
        sim.set_service_time(a, ServiceTimeModel::new(2.0, 0.2, 1.0, 0.5));
        sim.set_service_time(c, ServiceTimeModel::new(2.0, 0.2, 1.0, 0.5));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(2_000.0));
        let cs = containers(&[(a, 2), (c, 2)]);
        sim.set_uniform_interference(Interference::new(0.1, 0.1));
        let calm = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        sim.set_uniform_interference(Interference::new(0.9, 0.9));
        let busy = sim.run(&w, &cs, &BTreeMap::new()).unwrap();
        assert!(
            busy.latency_percentile(s, 0.95) > calm.latency_percentile(s, 0.95),
            "interference must slow the service"
        );
    }

    #[test]
    fn parallel_stage_joins_before_next() {
        let mut b = AppBuilder::new("par");
        let root_ms = b.microservice("r", LatencyProfile::linear(0.0, 1.0), Resources::default());
        let x = b.microservice("x", LatencyProfile::linear(0.0, 1.0), Resources::default());
        let y = b.microservice("y", LatencyProfile::linear(0.0, 1.0), Resources::default());
        let s = b.service("s", Sla::p95_ms(100.0), |g| {
            let r = g.entry(root_ms);
            g.call_par(r, &[x, y]);
        });
        let app = b.build().unwrap();
        let mut config = quick_config();
        config.duration_ms = 10_000.0;
        config.warmup_ms = 0.0;
        let mut sim = Simulation::new(&app, config);
        sim.set_service_time(root_ms, ServiceTimeModel::new(1.0, 0.0, 0.0, 0.0));
        sim.set_service_time(x, ServiceTimeModel::new(2.0, 0.0, 0.0, 0.0));
        sim.set_service_time(y, ServiceTimeModel::new(8.0, 0.0, 0.0, 0.0));
        let mut w = WorkloadVector::new();
        w.set(s, RequestRate::per_minute(600.0));
        let result = sim
            .run(
                &w,
                &containers(&[(root_ms, 2), (x, 2), (y, 2)]),
                &BTreeMap::new(),
            )
            .unwrap();
        // E2E ≈ root 1ms + max(2, 8) + 2 network hops = ~9.2.
        let p50 = result.latency_percentile(s, 0.5);
        assert!((p50 - 9.2).abs() < 0.5, "p50 {p50}");
    }
}
