//! The pre-dense-state DES engine, kept verbatim as a reference.
//!
//! This module preserves the map-based engine exactly as it ran before the
//! dense-table refactor of [`runtime`](crate::runtime): every per-event
//! lookup goes through a `BTreeMap` keyed on `MicroserviceId`/`ServiceId`,
//! service times are re-parameterised per sample, and crash faults scan
//! the whole call arena for victims. It exists for one job, mirroring
//! `static_sweep_serial` in `erms-bench`: the golden-seed bit-identity
//! suite runs both engines on a matrix of (app, rate, faults, seed)
//! configurations and asserts the dense engine reproduces this one's
//! [`SimResult`] exactly, float bit for float bit.
//!
//! Do not "improve" this file; its value is that it does not change.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use erms_core::app::WorkloadVector;
use erms_core::error::Result;
use erms_core::ids::{MicroserviceId, NodeId, ServiceId};
use erms_core::latency::Interference;
use erms_trace::span::{Span, SpanId, SpanKind, TraceId};
use erms_trace::store::TraceStore;
use rand::Rng;
use rand::SeedableRng;

use crate::runtime::{Scheduling, SimResult, Simulation};
use crate::service_time::ServiceTimeModel;

impl<'a> Simulation<'a> {
    /// Runs the simulation on the pre-refactor reference engine.
    ///
    /// Identical validation and semantics to [`Simulation::run`]; the
    /// output must be bit-identical (the golden-seed suite holds the dense
    /// engine to that). This path is O(log n) per event and exists only
    /// for comparison — use [`Simulation::run`] for real work.
    ///
    /// Beside the result it returns the own-latency rows it records per
    /// microservice, `(arrival time, own latency, service)` in completion
    /// order — what a [`TelemetrySink`](crate::telemetry::TelemetrySink)
    /// on the dense engine sees as spans.
    ///
    /// # Errors
    ///
    /// Exactly the configuration errors of [`Simulation::run`].
    pub fn run_reference(
        &self,
        workloads: &WorkloadVector,
        containers: &BTreeMap<MicroserviceId, u32>,
        priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
    ) -> Result<(SimResult, OwnRows)> {
        self.validate(workloads, containers)?;
        Ok(RefEngine::new(self, workloads, containers, priorities).run())
    }
}

/// Own-latency rows by microservice: `(arrival, own latency, service)`.
type OwnRows = BTreeMap<MicroserviceId, Vec<(f64, f64, ServiceId)>>;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival(ServiceId),
    Ready(u32),
    Done(u32),
    Fault(u32),
}

#[derive(Debug, Clone)]
struct EngineFault {
    at_ms: f64,
    losses: Vec<(MicroserviceId, u32)>,
}

#[derive(Debug)]
struct HeapItem {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone, Copy)]
struct Call {
    service: ServiceId,
    node: NodeId,
    ms: MicroserviceId,
    parent: Option<u32>,
    container: u32,
    arrive: f64,
    service_end: f64,
    client_start: f64,
    stage: usize,
    pending: usize,
    root_start: f64,
    trace: Option<(TraceId, SpanId)>,
    in_use: bool,
    in_service: bool,
    killed: bool,
}

#[derive(Debug)]
struct Container {
    busy: usize,
    queues: Vec<VecDeque<u32>>,
    failed: bool,
    available_from: f64,
}

#[derive(Debug)]
struct Deployment {
    threads: usize,
    class_of: BTreeMap<ServiceId, usize>,
    n_classes: usize,
    containers: Vec<Container>,
    rr: usize,
    model: ServiceTimeModel,
    itf: Interference,
}

struct RefEngine<'s, 'a> {
    sim: &'s Simulation<'a>,
    workloads: &'s WorkloadVector,
    heap: BinaryHeap<HeapItem>,
    seq: u64,
    calls: Vec<Call>,
    free: Vec<u32>,
    deployments: BTreeMap<MicroserviceId, Deployment>,
    rng: rand::rngs::StdRng,
    store: TraceStore,
    next_trace: u64,
    next_span: u64,
    result_latencies: BTreeMap<ServiceId, Vec<f64>>,
    result_own: BTreeMap<MicroserviceId, Vec<(f64, f64, ServiceId)>>,
    generated: u64,
    completed: u64,
    dropped: u64,
    timed_out: u64,
    crash_violations: u64,
    crashed_containers: u64,
    lost_spans: u64,
    fault_schedule: Vec<EngineFault>,
}

impl<'s, 'a> RefEngine<'s, 'a> {
    fn new(
        sim: &'s Simulation<'a>,
        workloads: &'s WorkloadVector,
        containers: &BTreeMap<MicroserviceId, u32>,
        priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
    ) -> Self {
        let mut deployments = BTreeMap::new();
        for (ms, _) in sim.app.microservices() {
            let n = containers.get(&ms).copied().unwrap_or(0) as usize;
            let (class_of, n_classes) = match (sim.config.scheduling, priorities.get(&ms)) {
                (Scheduling::Priority { .. }, Some(order)) if !order.is_empty() => {
                    let map: BTreeMap<ServiceId, usize> = order
                        .iter()
                        .enumerate()
                        .map(|(rank, &svc)| (svc, rank))
                        .collect();
                    let classes = order.len() + 1; // +1 catch-all lowest class
                    (map, classes)
                }
                _ => (BTreeMap::new(), 1),
            };
            let threads = sim
                .threads
                .get(&ms)
                .copied()
                .unwrap_or(sim.config.default_threads)
                .max(1);
            deployments.insert(
                ms,
                Deployment {
                    threads,
                    class_of,
                    n_classes,
                    containers: (0..n)
                        .map(|_| Container {
                            busy: 0,
                            queues: (0..n_classes).map(|_| VecDeque::new()).collect(),
                            failed: false,
                            available_from: 0.0,
                        })
                        .collect(),
                    rr: 0,
                    model: sim.service_times.get(&ms).copied().unwrap_or_default(),
                    itf: sim.uniform_itf,
                },
            );
        }
        // Cold starts gate the *newest* containers of a deployment.
        for cold in &sim.faults.cold_starts {
            if let Some(dep) = deployments.get_mut(&cold.ms) {
                let n = dep.containers.len();
                let first = n.saturating_sub(cold.count as usize);
                for container in &mut dep.containers[first..] {
                    container.available_from = container.available_from.max(cold.delay_ms);
                }
            }
        }
        let mut fault_schedule: Vec<EngineFault> = sim
            .faults
            .container_crashes
            .iter()
            .filter(|c| c.at_ms <= sim.config.duration_ms)
            .map(|c| EngineFault {
                at_ms: c.at_ms,
                losses: vec![(c.ms, c.count)],
            })
            .chain(
                sim.faults
                    .host_failures
                    .iter()
                    .filter(|h| h.at_ms <= sim.config.duration_ms)
                    .map(|h| EngineFault {
                        at_ms: h.at_ms,
                        losses: h.losses.iter().map(|(&m, &c)| (m, c)).collect(),
                    }),
            )
            .collect();
        fault_schedule.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        Self {
            sim,
            workloads,
            heap: BinaryHeap::new(),
            seq: 0,
            calls: Vec::new(),
            free: Vec::new(),
            deployments,
            rng: rand::rngs::StdRng::seed_from_u64(sim.config.seed),
            store: TraceStore::with_sampling(sim.config.trace_sampling, sim.config.seed ^ 0xA5A5),
            next_trace: 1,
            next_span: 1,
            result_latencies: BTreeMap::new(),
            result_own: BTreeMap::new(),
            generated: 0,
            completed: 0,
            dropped: 0,
            timed_out: 0,
            crash_violations: 0,
            crashed_containers: 0,
            lost_spans: 0,
            fault_schedule,
        }
    }

    fn push(&mut self, time: f64, event: Event) {
        self.seq += 1;
        self.heap.push(HeapItem {
            time,
            seq: self.seq,
            event,
        });
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

    fn run(mut self) -> (SimResult, OwnRows) {
        for (sid, rate) in self.workloads.iter() {
            let lambda = rate.as_per_ms();
            if lambda > 0.0 {
                let dt = exp_sample(lambda, &mut self.rng);
                self.push(dt, Event::Arrival(sid));
            }
        }
        for i in 0..self.fault_schedule.len() {
            let at = self.fault_schedule[i].at_ms;
            self.push(at, Event::Fault(i as u32));
        }
        let mut events = 0u64;
        while let Some(HeapItem { time, event, .. }) = self.heap.pop() {
            events += 1;
            if events > self.sim.config.max_events {
                break;
            }
            match event {
                Event::Arrival(sid) => self.on_arrival(sid, time),
                Event::Ready(call) => self.on_ready(call, time),
                Event::Done(call) => self.on_done(call, time),
                Event::Fault(i) => self.on_fault(i as usize),
            }
        }
        let result = SimResult {
            service_latencies: self.result_latencies,
            trace_store: self.store,
            generated: self.generated,
            completed: self.completed,
            dropped: self.dropped,
            timed_out: self.timed_out,
            crash_violations: self.crash_violations,
            crashed_containers: self.crashed_containers,
            // The reference engine predates spot reclamations; the golden
            // matrix never schedules any, so zero always matches.
            reclaimed_containers: 0,
            lost_spans: self.lost_spans,
            events,
        };
        (result, self.result_own)
    }

    /// The O(all-calls) victim scan the dense engine replaced: every crash
    /// walks the entire call arena looking for in-service victims.
    fn on_fault(&mut self, index: usize) {
        let losses = std::mem::take(&mut self.fault_schedule[index].losses);
        for (ms, count) in losses {
            let Some(dep) = self.deployments.get_mut(&ms) else {
                continue;
            };
            let mut to_fail = Vec::new();
            for (c_idx, container) in dep.containers.iter_mut().enumerate() {
                if to_fail.len() == count as usize {
                    break;
                }
                if container.failed {
                    continue;
                }
                container.failed = true;
                to_fail.push(c_idx as u32);
            }
            self.crashed_containers += to_fail.len() as u64;
            let mut victims: Vec<u32> = Vec::new();
            for &c_idx in &to_fail {
                let container = &mut self
                    .deployments
                    .get_mut(&ms)
                    .expect("deployment exists")
                    .containers[c_idx as usize];
                container.busy = 0;
                for queue in &mut container.queues {
                    victims.extend(queue.drain(..));
                }
            }
            for call in &mut self.calls {
                if call.in_use
                    && call.in_service
                    && call.ms == ms
                    && to_fail.contains(&call.container)
                {
                    call.killed = true;
                    self.crash_violations += 1;
                }
            }
            for idx in victims {
                self.crash_violations += 1;
                self.abandon(idx);
            }
        }
    }

    fn on_arrival(&mut self, sid: ServiceId, time: f64) {
        let lambda = self.workloads.rate(sid).as_per_ms();
        if lambda > 0.0 {
            let next = time + exp_sample(lambda, &mut self.rng);
            if next <= self.sim.config.duration_ms {
                self.push(next, Event::Arrival(sid));
            }
        }
        self.generated += 1;
        let drop_p = self.sim.faults.drop_probability;
        if drop_p > 0.0 && self.rng.gen_bool(drop_p) {
            self.dropped += 1;
            return;
        }
        let svc = self.sim.app.service(sid).expect("validated service");
        let root_node = svc.graph.root();
        let ms = svc.graph.node(root_node).microservice;
        let trace = {
            let trace_id = TraceId(self.next_trace);
            self.next_trace += 1;
            if self.store.is_sampled(trace_id) {
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
            container: 0,
            arrive: time,
            service_end: 0.0,
            client_start: time,
            stage: 0,
            pending: 0,
            root_start: time,
            trace,
            in_use: true,
            in_service: false,
            killed: false,
        });
        self.push(time, Event::Ready(call));
    }

    fn on_ready(&mut self, idx: u32, time: f64) {
        let (ms, service) = {
            let call = &self.calls[idx as usize];
            (call.ms, call.service)
        };
        let Some(dep) = self.deployments.get_mut(&ms) else {
            self.dropped += 1;
            self.abandon(idx);
            return;
        };
        let n = dep.containers.len();
        let mut c_idx = None;
        for step in 1..=n {
            let cand = (dep.rr + step) % n.max(1);
            if n > 0 && !dep.containers[cand].failed {
                c_idx = Some(cand);
                break;
            }
        }
        let Some(c_idx) = c_idx else {
            self.dropped += 1;
            self.abandon(idx);
            return;
        };
        dep.rr = c_idx;
        self.calls[idx as usize].container = c_idx as u32;
        self.calls[idx as usize].arrive = time;
        let threads = dep.threads;
        let class = dep
            .class_of
            .get(&service)
            .copied()
            .unwrap_or(dep.n_classes - 1);
        let container = &mut dep.containers[c_idx];
        if container.busy < threads {
            container.busy += 1;
            let start = time.max(container.available_from);
            let dt = dep.model.sample(dep.itf, &mut self.rng);
            self.calls[idx as usize].in_service = true;
            self.push(start + dt, Event::Done(idx));
        } else {
            container.queues[class].push_back(idx);
        }
    }

    fn on_done(&mut self, idx: u32, time: f64) {
        if self.calls[idx as usize].killed {
            self.abandon(idx);
            return;
        }
        self.calls[idx as usize].in_service = false;
        let (ms, container_idx) = {
            let call = &self.calls[idx as usize];
            (call.ms, call.container as usize)
        };
        let next_start = {
            let dep = self.deployments.get_mut(&ms).expect("deployment exists");
            let delta = match self.sim.config.scheduling {
                Scheduling::Priority { delta } => delta,
                Scheduling::Fcfs => 0.0,
            };
            let container = &mut dep.containers[container_idx];
            if container.failed {
                None
            } else {
                let picked = pick_next(&mut container.queues, delta, &mut self.rng);
                match picked {
                    Some(next) => {
                        let dt = dep.model.sample(dep.itf, &mut self.rng);
                        Some((next, dt))
                    }
                    None => {
                        container.busy -= 1;
                        None
                    }
                }
            }
        };
        if let Some((next, dt)) = next_start {
            self.calls[next as usize].in_service = true;
            self.push(time + dt, Event::Done(next));
        }

        {
            let call = &mut self.calls[idx as usize];
            call.service_end = time;
            let own = time - call.arrive;
            let (at, svc) = (call.arrive, call.service);
            if at >= self.sim.config.warmup_ms {
                self.result_own.entry(ms).or_default().push((at, own, svc));
            }
        }

        self.advance_stages(idx, time, 0);
    }

    fn advance_stages(&mut self, idx: u32, time: f64, stage: usize) {
        let (service, node_id) = {
            let call = &self.calls[idx as usize];
            (call.service, call.node)
        };
        let sim = self.sim;
        let svc = sim.app.service(service).expect("validated service");
        let node = svc.graph.node(node_id);
        if stage >= node.stages.len() {
            self.complete(idx, time);
            return;
        }
        let mut spawned = 0usize;
        let net = sim.config.network_delay_ms;
        for &child_node in &node.stages[stage] {
            let copies = self.multiplicity_copies(svc, child_node);
            for _ in 0..copies {
                let child_ms = svc.graph.node(child_node).microservice;
                let trace = self.calls[idx as usize]
                    .trace
                    .map(|(trace_id, _)| (trace_id, self.next_span_id()));
                let root_start = self.calls[idx as usize].root_start;
                let child = self.alloc_call(Call {
                    service,
                    node: child_node,
                    ms: child_ms,
                    parent: Some(idx),
                    container: 0,
                    arrive: time + net,
                    service_end: 0.0,
                    client_start: time,
                    stage: 0,
                    pending: 0,
                    root_start,
                    trace,
                    in_use: true,
                    in_service: false,
                    killed: false,
                });
                self.push(time + net, Event::Ready(child));
                spawned += 1;
            }
        }
        if spawned == 0 {
            self.advance_stages(idx, time, stage + 1);
            return;
        }
        let call = &mut self.calls[idx as usize];
        call.stage = stage;
        call.pending = spawned;
    }

    fn multiplicity_copies(&mut self, svc: &erms_core::app::Service, node: NodeId) -> usize {
        let m = svc.graph.node(node).multiplicity;
        let whole = m.floor() as usize;
        let frac = m - m.floor();
        whole + usize::from(frac > 0.0 && self.rng.gen_bool(frac.clamp(0.0, 1.0)))
    }

    fn complete(&mut self, idx: u32, time: f64) {
        let call = self.calls[idx as usize];
        if let Some((trace_id, span_id)) = call.trace {
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
                start_ms: call.arrive,
                end_ms: time,
            };
            self.record_span(span);
        }
        let net = self.sim.config.network_delay_ms;
        match call.parent {
            None => {
                let e2e = time - call.root_start;
                if self
                    .sim
                    .faults
                    .deadline_ms
                    .is_some_and(|deadline| e2e > deadline)
                {
                    self.timed_out += 1;
                } else {
                    self.completed += 1;
                    if call.root_start >= self.sim.config.warmup_ms {
                        self.result_latencies
                            .entry(call.service)
                            .or_default()
                            .push(e2e);
                    }
                }
                self.release_call(idx);
            }
            Some(parent) => {
                if let (Some((trace_id, _)), Some((_, parent_server))) =
                    (call.trace, self.calls[parent as usize].trace)
                {
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
                    self.record_span(span);
                }
                self.release_call(idx);
                let parent_call = &mut self.calls[parent as usize];
                debug_assert!(parent_call.in_use);
                parent_call.pending -= 1;
                let next_stage = parent_call.stage + 1;
                if parent_call.pending == 0 {
                    self.advance_stages(parent, time + net, next_stage);
                }
            }
        }
    }

    fn record_span(&mut self, span: Span) {
        let loss = self.sim.faults.span_loss;
        if loss > 0.0 && self.rng.gen_bool(loss) {
            self.lost_spans += 1;
        } else {
            self.store.record(span);
        }
    }

    fn abandon(&mut self, idx: u32) {
        let parent = self.calls[idx as usize].parent;
        self.release_call(idx);
        if let Some(p) = parent {
            let parent_call = &mut self.calls[p as usize];
            parent_call.pending = parent_call.pending.saturating_sub(1);
        }
    }
}

fn pick_next(queues: &mut [VecDeque<u32>], delta: f64, rng: &mut impl Rng) -> Option<u32> {
    let first_non_empty = queues.iter().position(|q| !q.is_empty())?;
    if delta > 0.0 {
        for queue in queues.iter_mut().skip(first_non_empty) {
            if queue.is_empty() {
                continue;
            }
            if rng.gen_bool(1.0 - delta) {
                return queue.pop_front();
            }
        }
    }
    queues[first_non_empty].pop_front()
}

fn exp_sample(lambda: f64, rng: &mut impl Rng) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / lambda
}
