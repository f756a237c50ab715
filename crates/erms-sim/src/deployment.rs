//! The container pools of a run: every decision the two DES engines make
//! about a deployment, written once for both.
//!
//! This module builds each microservice's pool, with cold starts gating
//! the newest containers; routes a call round robin over the containers
//! neither failed nor draining; gives it a free thread, never before its
//! container's cold start ends, or queues it by priority class; takes it
//! off its thread in O(1) and picks the next call by the δ-probabilistic
//! priority rule (§5.3.2); marks containers draining or failed when a
//! fault fires; and keeps the run's outcome [`Ledger`].
//!
//! What differs between the engines by design stays with each, pinned by
//! its own golden digest: event keys and their tie order, where randomness
//! comes from (the sequential engine's one stream, the sharded engine's
//! per-entity streams; each hands its own in here as `&mut impl Rng`, in
//! the same draw order), span ids, and how a settled child reaches its
//! parent (a direct decrement, or a `Join` event at `+net`). The oracle,
//! [`crate::reference`], keeps its own copy of all of this.

use std::collections::{BTreeMap, VecDeque};

use erms_core::ids::{MicroserviceId, ServiceId};
use erms_trace::span::{Span, TraceId};
use erms_trace::store::TraceStore;
use rand::Rng;

use crate::runtime::{EngineFault, EngineFaultKind, Scheduling, SimResult, Simulation};
use crate::tables::{HotTables, SimTables};
use crate::telemetry::{RequestRecord, SpanRecord, TelemetrySink};

/// `Seat::pos` of a call whose container failed while it held a thread:
/// its pending `Done` is void.
const VOID: u32 = u32::MAX;

/// Where a call sits in its deployment.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Seat {
    /// When the call reached the deployment.
    pub(crate) arrive: f64,
    /// The container it was routed to.
    container: u32,
    /// While it holds a thread, its slot in the container's in-service
    /// list, so leaving is O(1); [`VOID`] once the container failed under
    /// it; stale, and never read, while it is queued.
    pos: u32,
}

/// An engine's call record, as a deployment sees it.
pub(crate) trait Occupant {
    /// The microservice serving the call and the service it belongs to.
    fn at(&self) -> (MicroserviceId, ServiceId);
    fn seat(&mut self) -> &mut Seat;
}

#[derive(Debug)]
struct Container {
    /// Queued calls, one FIFO per priority class (0 = highest).
    queues: Vec<VecDeque<u32>>,
    /// Calls holding one of the threads: its length is the busy-thread
    /// count, and a crash finds its victims here in O(threads).
    in_service: Vec<u32>,
    /// Crashed or reclaimed. Kept in place, since in-flight calls hold
    /// container indices.
    failed: bool,
    /// Under a spot-reclamation notice: takes no new calls but serves its
    /// queues until the grace window closes.
    draining: bool,
    /// Cold-start gate: processing cannot begin before this time.
    available_from: f64,
}

impl Container {
    fn accepts(&self) -> bool {
        !self.failed && !self.draining
    }

    /// Gives call `idx` a thread.
    fn enter<C: Occupant>(&mut self, idx: u32, calls: &mut [C]) {
        calls[idx as usize].seat().pos = self.in_service.len() as u32;
        self.in_service.push(idx);
    }

    /// Takes call `idx` off its thread: a swap-remove of its slot, and the
    /// call moved into the slot learns its new position.
    fn leave<C: Occupant>(&mut self, idx: u32, calls: &mut [C]) {
        let pos = calls[idx as usize].seat().pos;
        debug_assert_eq!(self.in_service.get(pos as usize), Some(&idx));
        self.in_service.swap_remove(pos as usize);
        if let Some(&moved) = self.in_service.get(pos as usize) {
            calls[moved as usize].seat().pos = pos;
        }
    }
}

/// One microservice's containers.
#[derive(Debug)]
struct DeploymentState {
    containers: Vec<Container>,
    /// The container routed to last.
    rr: usize,
}

impl DeploymentState {
    fn new(containers: usize, classes: usize) -> Self {
        let container = || Container {
            queues: vec![VecDeque::new(); classes],
            in_service: Vec::new(),
            failed: false,
            draining: false,
            available_from: 0.0,
        };
        Self {
            containers: (0..containers).map(|_| container()).collect(),
            rr: 0,
        }
    }

    /// Round robin: the first container after the one routed to last that
    /// accepts calls.
    fn route(&mut self) -> Option<usize> {
        let n = self.containers.len();
        // Conditional wrap instead of `%`: `rr < n` always holds, so each
        // candidate stays in range with no division on the hot path.
        let mut cand = self.rr;
        for _ in 0..n {
            cand += 1;
            if cand >= n {
                cand = 0;
            }
            if self.containers[cand].accepts() {
                self.rr = cand;
                return Some(cand);
            }
        }
        None
    }

    /// A reclamation notice: up to `count` accepting containers start
    /// draining, newest first (spot capacity is what a scale-up added
    /// last).
    fn drain(&mut self, count: u32) {
        let accepting = self.containers.iter_mut().rev().filter(|c| c.accepts());
        for container in accepting.take(count as usize) {
            container.draining = true;
        }
    }

    /// Fails up to `count` containers, oldest first: any live one, or
    /// under `reclaim` only draining ones. Their queued and in-service
    /// calls go to `victims.0` and `victims.1`. Returns how many failed;
    /// asking for more than there are fails them all.
    fn fail(&mut self, count: u32, reclaim: bool, victims: &mut (Vec<u32>, Vec<u32>)) -> u32 {
        let takeable = |c: &&mut Container| !c.failed && (c.draining || !reclaim);
        let (mut failed, n) = (0, count as usize);
        for container in self.containers.iter_mut().filter(takeable).take(n) {
            container.failed = true;
            failed += 1;
            for queue in &mut container.queues {
                victims.0.extend(queue.drain(..));
            }
            victims.1.append(&mut container.in_service);
        }
        failed
    }
}

/// What became of a call that reached its deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Admission {
    /// No container accepts calls: none was deployed, or all are lost.
    Refused,
    Queued,
    /// It holds a thread until `done_at`.
    Started {
        done_at: f64,
    },
}

/// What a call's `Done` leaves behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Release {
    /// Its container failed under it: the crash counted it, and the
    /// finished work is void.
    Void,
    /// Its thread is free; nothing was queued.
    Idle,
    /// The queued `call` took the thread, for `service_ms`.
    Next { call: u32, service_ms: f64 },
}

/// Every deployment of a run, indexed by `MicroserviceId::index()`.
#[derive(Debug)]
pub(crate) struct Deployments {
    states: Vec<DeploymentState>,
    /// δ of priority scheduling; 0 under FCFS, where [`pick_next`] takes
    /// the front of the first queue and draws nothing.
    delta: f64,
}

impl Deployments {
    /// Lays out the pools of the microservices `owned` selects (the others
    /// get none) and applies the cold starts.
    pub(crate) fn new(
        sim: &Simulation<'_>,
        tables: &SimTables,
        containers: &BTreeMap<MicroserviceId, u32>,
        owned: impl Fn(MicroserviceId) -> bool,
    ) -> Self {
        let mut states: Vec<DeploymentState> = sim
            .app
            .microservices()
            .map(|(ms, _)| {
                let n = containers.get(&ms).copied().filter(|_| owned(ms));
                let classes = tables.cold.n_classes[ms.index()];
                DeploymentState::new(n.unwrap_or(0) as usize, classes as usize)
            })
            .collect();
        // Cold starts gate the newest containers: the ones a scale-up added.
        for cold in &sim.faults.cold_starts {
            if let Some(dep) = states.get_mut(cold.ms.index()) {
                let first = dep.containers.len().saturating_sub(cold.count as usize);
                for container in &mut dep.containers[first..] {
                    container.available_from = container.available_from.max(cold.delay_ms);
                }
            }
        }
        let delta = match sim.config.scheduling {
            Scheduling::Priority { delta } => delta,
            Scheduling::Fcfs => 0.0,
        };
        Self { states, delta }
    }

    /// Call `idx` reaches its deployment at `time`: route it, then give it
    /// a free thread (its service time drawn from `rng`) or queue it by
    /// its service's priority class.
    #[inline]
    pub(crate) fn admit<C: Occupant>(
        &mut self,
        hot: &HotTables,
        calls: &mut [C],
        idx: u32,
        time: f64,
        rng: &mut impl Rng,
    ) -> Admission {
        let (ms, service) = calls[idx as usize].at();
        let mi = ms.index();
        let dep = &mut self.states[mi];
        let Some(c) = dep.route() else {
            return Admission::Refused;
        };
        let seat = calls[idx as usize].seat();
        (seat.arrive, seat.container) = (time, c as u32);
        let container = &mut dep.containers[c];
        if container.in_service.len() < hot.threads(mi) {
            container.enter(idx, calls);
            let start = time.max(container.available_from);
            let done_at = start + hot.samplers[mi].sample(rng);
            Admission::Started { done_at }
        } else {
            container.queues[hot.class(mi, service)].push_back(idx);
            Admission::Queued
        }
    }

    /// Call `idx`'s own processing finished: it leaves its thread, and the
    /// next queued call, picked by the δ rule with `rng`, takes it.
    #[inline]
    pub(crate) fn release<C: Occupant>(
        &mut self,
        hot: &HotTables,
        calls: &mut [C],
        idx: u32,
        rng: &mut impl Rng,
    ) -> Release {
        let (ms, _) = calls[idx as usize].at();
        let seat = *calls[idx as usize].seat();
        if seat.pos == VOID {
            return Release::Void;
        }
        let mi = ms.index();
        let container = &mut self.states[mi].containers[seat.container as usize];
        debug_assert!(!container.failed, "a failed container voids its calls");
        container.leave(idx, calls);
        let Some(next) = pick_next(&mut container.queues, self.delta, rng) else {
            return Release::Idle;
        };
        container.enter(next, calls);
        let service_ms = hot.samplers[mi].sample(rng);
        Release::Next {
            call: next,
            service_ms,
        }
    }

    /// Fires a lowered fault at the deployments `owned` selects. `Drain`
    /// marks containers; `Crash` fails any live container and `Reclaim`
    /// only draining ones, voiding the calls they serve. Counts the lost
    /// containers and every disrupted call in `ledger`, and returns the
    /// calls queued on them, in container and queue order, for the engine
    /// to unwind. Draws no randomness.
    pub(crate) fn fire<C: Occupant>(
        &mut self,
        fault: &EngineFault,
        owned: impl Fn(MicroserviceId) -> bool,
        calls: &mut [C],
        ledger: &mut Ledger,
    ) -> Vec<u32> {
        let mut victims = (Vec::new(), Vec::new());
        let out = &mut ledger.result;
        for &(ms, count) in fault.losses.iter().filter(|&&(ms, _)| owned(ms)) {
            let Some(dep) = self.states.get_mut(ms.index()) else {
                continue;
            };
            let (lost, reclaim) = match fault.kind {
                EngineFaultKind::Drain => {
                    dep.drain(count);
                    continue;
                }
                EngineFaultKind::Crash => (&mut out.crashed_containers, false),
                EngineFaultKind::Reclaim => (&mut out.reclaimed_containers, true),
            };
            *lost += u64::from(dep.fail(count, reclaim, &mut victims));
        }
        let (queued, serving) = victims;
        for &idx in &serving {
            calls[idx as usize].seat().pos = VOID;
        }
        out.crash_violations += (queued.len() + serving.len()) as u64;
        queued
    }
}

/// Picks the next queued call according to the δ-probabilistic priority
/// rule (§5.3.2): walk classes from highest priority; pick a non-empty
/// class with probability `1−δ`, otherwise move on; wrap to the first
/// non-empty class if all were skipped.
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

/// The outcome of a run, or of one shard of it.
#[derive(Debug)]
pub(crate) struct Ledger {
    /// End-to-end latencies by `ServiceId::index()`.
    latencies: Vec<Vec<f64>>,
    /// The counters and the sampled spans, already in their public form.
    pub(crate) result: SimResult,
    warmup_ms: f64,
    deadline_ms: Option<f64>,
    drop_p: f64,
    span_loss: f64,
}

impl Ledger {
    /// An empty ledger with one (possibly pre-sized) latency row per
    /// service.
    pub(crate) fn new(sim: &Simulation<'_>, latencies: Vec<Vec<f64>>) -> Self {
        let (config, faults) = (&sim.config, &sim.faults);
        let result = SimResult {
            service_latencies: BTreeMap::new(),
            trace_store: TraceStore::with_sampling(config.trace_sampling, config.seed ^ 0xA5A5),
            generated: 0,
            completed: 0,
            dropped: 0,
            timed_out: 0,
            crash_violations: 0,
            crashed_containers: 0,
            reclaimed_containers: 0,
            lost_spans: 0,
            events: 0,
        };
        Self {
            latencies,
            result,
            warmup_ms: config.warmup_ms,
            deadline_ms: faults.deadline_ms,
            drop_p: faults.drop_probability,
            span_loss: faults.span_loss,
        }
    }

    /// A request reaches the front door; `false` when the load balancer
    /// drops it. The coin comes from `rng` only when drops are armed.
    #[inline]
    pub(crate) fn admit_request(&mut self, rng: &mut impl Rng) -> bool {
        self.result.generated += 1;
        let dropped = self.drop_p > 0.0 && rng.gen_bool(self.drop_p);
        self.result.dropped += u64::from(dropped);
        !dropped
    }

    #[inline]
    pub(crate) fn sampled(&self, trace: TraceId) -> bool {
        self.result.trace_store.is_sampled(trace)
    }

    /// Records a span unless the fault plan loses it on the way to the
    /// collector; the coin comes from `rng` only when span loss is armed.
    pub(crate) fn record_span(&mut self, span: Span, rng: &mut impl Rng) {
        if self.span_loss > 0.0 && rng.gen_bool(self.span_loss) {
            self.result.lost_spans += 1;
        } else {
            self.result.trace_store.record(span);
        }
    }

    /// Hands a call's own latency (queueing plus processing) to the sink,
    /// unless the call arrived in the warm-up.
    #[inline]
    pub(crate) fn own_span<S: TelemetrySink>(
        &self,
        sink: &mut S,
        hot: &HotTables,
        call: &mut impl Occupant,
        time: f64,
    ) {
        let ((ms, service), seat) = (call.at(), *call.seat());
        if S::ENABLED && seat.arrive >= self.warmup_ms {
            sink.on_span(&SpanRecord {
                service,
                microservice: ms,
                container: seat.container,
                priority_class: hot.class(ms.index(), service) as u32,
                start_ms: seat.arrive,
                end_ms: time,
            });
        }
    }

    /// A root call started at `root_start` finished all its stages at
    /// `time`: a completion, unless the client gave up before (deadline
    /// exceeded) and it is a timeout, invisible to the percentiles.
    /// Requests begun in the warm-up record no latency.
    #[inline]
    pub(crate) fn finish<S: TelemetrySink>(
        &mut self,
        sink: &mut S,
        service: ServiceId,
        root_start: f64,
        time: f64,
    ) {
        let e2e = time - root_start;
        if self.deadline_ms.is_some_and(|deadline| e2e > deadline) {
            self.result.timed_out += 1;
            return;
        }
        self.result.completed += 1;
        if root_start >= self.warmup_ms {
            self.latencies[service.index()].push(e2e);
            if S::ENABLED {
                let (start_ms, end_ms) = (root_start, time);
                let request = RequestRecord {
                    service,
                    start_ms,
                    end_ms,
                };
                sink.on_request(&request);
            }
        }
    }

    /// Adds a shard's outcome. A service's latencies live wholly in the
    /// shard that owns its root, so no row interleaves two shards.
    pub(crate) fn absorb(&mut self, other: Ledger) {
        for (mine, theirs) in self.latencies.iter_mut().zip(other.latencies) {
            mine.extend(theirs);
        }
        let (out, theirs) = (&mut self.result, other.result);
        out.trace_store.absorb(theirs.trace_store);
        out.generated += theirs.generated;
        out.completed += theirs.completed;
        out.dropped += theirs.dropped;
        out.timed_out += theirs.timed_out;
        out.crash_violations += theirs.crash_violations;
        out.crashed_containers += theirs.crashed_containers;
        out.reclaimed_containers += theirs.reclaimed_containers;
        out.lost_spans += theirs.lost_spans;
    }

    /// The public result. Only services with at least one sample get a
    /// latency entry, as the map-based engine created entries on first
    /// push.
    pub(crate) fn into_result(self, events: u64) -> SimResult {
        let rows = self.latencies.into_iter().enumerate();
        let service_latencies = rows
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, v)| (ServiceId::new(i as u32), v))
            .collect();
        SimResult {
            service_latencies,
            events,
            ..self.result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestCall(Seat);

    impl Occupant for TestCall {
        fn at(&self) -> (MicroserviceId, ServiceId) {
            (MicroserviceId::new(0), ServiceId::new(0))
        }
        fn seat(&mut self) -> &mut Seat {
            &mut self.0
        }
    }

    fn flags(dep: &DeploymentState) -> Vec<(bool, bool)> {
        dep.containers
            .iter()
            .map(|c| (c.failed, c.draining))
            .collect()
    }

    #[test]
    fn routing_wraps_from_the_last_pick_and_skips_failed_and_draining() {
        let mut dep = DeploymentState::new(4, 1);
        // The first call goes to the container after `rr = 0`.
        assert_eq!(dep.route(), Some(1));
        dep.containers[2].failed = true;
        dep.containers[3].draining = true;
        assert_eq!(dep.route(), Some(0), "wraps past 2 and 3");
        assert_eq!(dep.route(), Some(1));
        assert_eq!(dep.route(), Some(0));
        dep.containers[0].draining = true;
        dep.containers[1].failed = true;
        assert_eq!(dep.route(), None);
        assert_eq!(DeploymentState::new(0, 1).route(), None);
    }

    #[test]
    fn failing_more_than_are_live_fails_them_all() {
        let mut dep = DeploymentState::new(3, 2);
        dep.containers[1].failed = true;
        dep.containers[0].queues[1].push_back(7);
        dep.containers[2].queues[0].push_back(8);
        dep.containers[2].in_service.push(9);
        let mut victims = (Vec::new(), Vec::new());
        assert_eq!(dep.fail(5, false, &mut victims), 2);
        assert!(dep.containers.iter().all(|c| c.failed));
        assert_eq!(victims, (vec![7, 8], vec![9]));
        assert!(dep.containers.iter().all(|c| c.in_service.is_empty()));
        assert_eq!(dep.fail(1, false, &mut victims), 0);
    }

    #[test]
    fn crashes_take_the_oldest_and_reclaims_only_draining_containers() {
        let mut dep = DeploymentState::new(4, 1);
        dep.containers[2].draining = true;
        let mut victims = (Vec::new(), Vec::new());
        assert_eq!(dep.fail(3, true, &mut victims), 1);
        assert_eq!(
            flags(&dep),
            [(false, false), (false, false), (true, true), (false, false)]
        );
        assert_eq!(dep.fail(1, false, &mut victims), 1);
        assert!(dep.containers[0].failed && !dep.containers[1].failed);
    }

    #[test]
    fn drains_mark_the_newest_accepting_containers() {
        let mut dep = DeploymentState::new(5, 1);
        dep.containers[4].failed = true;
        dep.containers[3].draining = true;
        dep.drain(2);
        assert_eq!(
            flags(&dep),
            [
                (false, false),
                (false, true),
                (false, true),
                (false, true),
                (true, false)
            ]
        );
        dep.drain(9);
        assert!(dep.containers[0].draining);
    }

    #[test]
    fn leaving_service_reseats_the_call_swapped_into_the_slot() {
        let mut calls: Vec<TestCall> = (0..4).map(|_| TestCall(Seat::default())).collect();
        let mut dep = DeploymentState::new(1, 1);
        let container = &mut dep.containers[0];
        for idx in [0, 1, 2, 3] {
            container.enter(idx, &mut calls);
        }
        container.leave(1, &mut calls);
        assert_eq!(container.in_service, [0, 3, 2]);
        assert_eq!(calls[3].0.pos, 1);
        container.leave(2, &mut calls);
        assert_eq!(container.in_service, [0, 3]);
        container.leave(0, &mut calls);
        assert_eq!(container.in_service, [3]);
        assert_eq!(calls[3].0.pos, 0);
        container.leave(3, &mut calls);
        assert!(container.in_service.is_empty());
    }
}
