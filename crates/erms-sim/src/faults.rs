//! Deterministic fault injection for the simulator and the controller loop.
//!
//! The paper's controller runs on a real 20-host cluster where containers
//! crash, hosts drain and traces go missing. This module gives the
//! reproduction the same hostile environment, at two levels:
//!
//! * [`FaultPlan`] — request-granularity faults injected into one
//!   [`Simulation`](crate::runtime::Simulation) run: container crashes
//!   (capacity lost mid-run, queued and in-flight requests disrupted),
//!   correlated host failures, cold-start delays on newly scaled-up
//!   containers, front-door request drops, an end-to-end deadline, and
//!   trace-span loss. Crash-style faults become events in the
//!   discrete-event engine; per-request faults draw from the engine's
//!   seeded RNG, so every run is reproducible.
//! * [`ClusterFaultPlan`] — round-granularity faults applied to a
//!   [`ClusterState`] between controller rounds, for driving
//!   [`ResilientManager`](erms_core::resilience::ResilientManager)
//!   experiments: container crashes, whole-host failures, host
//!   replacements and background (batch) load swings.
//!
//! Both plans can be authored explicitly (builder methods) or generated
//! from a seed.

use std::collections::BTreeMap;

use erms_core::app::App;
use erms_core::ids::MicroserviceId;
use erms_core::provisioning::{ClusterState, Host};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A structural defect in a fault plan, caught at construction time by
/// [`FaultPlan::validate`] / [`ClusterFaultPlan::validate`] instead of
/// silently simulating nonsense.
///
/// The simulator itself stays permissive where it always was (e.g. events
/// past the horizon are filtered, bad indices no-op), so validation is an
/// opt-in contract for harnesses that *author* plans — the chaos bench and
/// the property tests call it on every generated schedule.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// A fault targets a microservice the app does not contain.
    UnknownMicroservice {
        /// Which fault kind referenced it.
        what: &'static str,
        /// The unknown id.
        ms: MicroserviceId,
    },
    /// A time field is not finite and non-negative.
    InvalidTime {
        /// Which fault kind carries the bad time.
        what: &'static str,
        /// The offending value.
        at: f64,
    },
    /// An event is scheduled past the simulation horizon and can never
    /// fire.
    BeyondHorizon {
        /// Which fault kind is out of range.
        what: &'static str,
        /// The scheduled time (ms) or round.
        at: f64,
        /// The horizon it exceeds.
        horizon: f64,
    },
    /// A probability lies outside `[0, 1]`.
    InvalidProbability {
        /// Which knob holds the bad probability.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The request deadline is not finite and positive.
    InvalidDeadline {
        /// The offending value.
        deadline_ms: f64,
    },
    /// A window (cold-start delay, reclamation grace) has zero or negative
    /// duration — the event pair would collapse to one instant.
    ZeroDurationWindow {
        /// Which fault kind carries the empty window.
        what: &'static str,
    },
    /// A fault's container count is zero — it could never do anything.
    ZeroCount {
        /// Which fault kind has the empty count.
        what: &'static str,
    },
    /// Two host failures are scheduled at the same instant; author one
    /// failure with merged losses instead (the correlated-loss semantics
    /// of a single [`HostFailure`]).
    OverlappingHostFailures {
        /// The shared timestamp.
        at_ms: f64,
    },
    /// A cluster fault is scheduled for round 0; rounds are 1-based, so it
    /// would never fire.
    InvalidRound,
    /// Two faults in the same round target the same host index; the second
    /// would silently hit a *different* host (indices shift on removal).
    DuplicateHostTarget {
        /// The round with the collision.
        round: u64,
        /// The host index targeted twice.
        index: usize,
    },
    /// A host capacity or background-load value is not finite and
    /// non-negative.
    InvalidCapacity {
        /// Which fault kind carries the bad value.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownMicroservice { what, ms } => {
                write!(f, "{what} targets unknown microservice {ms}")
            }
            Self::InvalidTime { what, at } => {
                write!(f, "{what} has a non-finite or negative time ({at})")
            }
            Self::BeyondHorizon { what, at, horizon } => {
                write!(f, "{what} at {at} lies beyond the horizon {horizon}")
            }
            Self::InvalidProbability { what, value } => {
                write!(f, "{what} probability {value} outside [0, 1]")
            }
            Self::InvalidDeadline { deadline_ms } => {
                write!(f, "deadline {deadline_ms} ms is not finite and positive")
            }
            Self::ZeroDurationWindow { what } => {
                write!(f, "{what} has a zero-duration window")
            }
            Self::ZeroCount { what } => write!(f, "{what} has a zero container count"),
            Self::OverlappingHostFailures { at_ms } => {
                write!(f, "two host failures overlap at {at_ms} ms")
            }
            Self::InvalidRound => write!(
                f,
                "cluster fault scheduled for round 0 (rounds are 1-based)"
            ),
            Self::DuplicateHostTarget { round, index } => {
                write!(f, "round {round} targets host {index} twice")
            }
            Self::InvalidCapacity { what, value } => {
                write!(f, "{what} has a non-finite or negative value ({value})")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A container-crash fault: at `at_ms`, up to `count` containers of `ms`
/// are lost. Requests queued on or being served by a crashed container are
/// disrupted (counted as crash-induced violations in
/// [`SimResult`](crate::runtime::SimResult)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerCrash {
    /// The microservice losing containers.
    pub ms: MicroserviceId,
    /// Simulated time of the crash, in ms.
    pub at_ms: f64,
    /// Number of containers lost.
    pub count: u32,
}

/// A host failure: at `at_ms`, every listed deployment loses the given
/// number of containers *simultaneously* — the correlated-loss pattern that
/// distinguishes a host failure from independent container crashes.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFailure {
    /// Simulated time of the failure, in ms.
    pub at_ms: f64,
    /// Containers lost per microservice (the host's residents).
    pub losses: BTreeMap<MicroserviceId, u32>,
}

/// A cold-start delay: `count` containers of `ms` (of the configured
/// deployment) only begin serving `delay_ms` into the run — the scale-up
/// lag of pulling an image and warming a runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdStart {
    /// The microservice whose new containers start cold.
    pub ms: MicroserviceId,
    /// Number of containers starting cold.
    pub count: u32,
    /// Time until they become available, in ms.
    pub delay_ms: f64,
}

/// A spot-instance reclamation inside one simulation run: at `at_ms` the
/// provider posts an advance notice on `count` containers of `ms` — they
/// stop accepting *new* work (draining) but keep serving their queues —
/// and at `at_ms + grace_ms` the capacity is taken back, destroying
/// whatever is still queued or in flight on them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotReclamation {
    /// The microservice losing spot capacity.
    pub ms: MicroserviceId,
    /// Simulated time the notice is posted, in ms.
    pub at_ms: f64,
    /// Number of containers reclaimed.
    pub count: u32,
    /// Advance-notice grace window, in ms (must be positive: a notice and
    /// its execution at the same instant is a zero-duration window).
    pub grace_ms: f64,
}

/// A seeded, deterministic fault scenario for one simulation run.
///
/// An empty (default) plan injects nothing and leaves the simulation's
/// behaviour bit-for-bit identical to a run without a plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Container crashes, by time.
    pub container_crashes: Vec<ContainerCrash>,
    /// Correlated host failures, by time.
    pub host_failures: Vec<HostFailure>,
    /// Cold-start delays applied at run start.
    pub cold_starts: Vec<ColdStart>,
    /// Spot reclamations (advance notice + grace window), by time.
    pub spot_reclamations: Vec<SpotReclamation>,
    /// Probability an arriving request is dropped at the front door
    /// (connection refused / load-balancer error).
    pub drop_probability: f64,
    /// End-to-end deadline: completions beyond it count as timed out and
    /// are excluded from the latency statistics (the client gave up).
    pub deadline_ms: Option<f64>,
    /// Probability each emitted span is lost before reaching the trace
    /// store (collector back-pressure, agent restarts).
    pub span_loss: f64,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a container crash.
    #[must_use]
    pub fn crash(mut self, ms: MicroserviceId, at_ms: f64, count: u32) -> Self {
        self.container_crashes
            .push(ContainerCrash { ms, at_ms, count });
        self
    }

    /// Adds a correlated host failure.
    #[must_use]
    pub fn host_failure(mut self, at_ms: f64, losses: BTreeMap<MicroserviceId, u32>) -> Self {
        self.host_failures.push(HostFailure { at_ms, losses });
        self
    }

    /// Marks `count` containers of `ms` as cold for `delay_ms`.
    #[must_use]
    pub fn cold_start(mut self, ms: MicroserviceId, count: u32, delay_ms: f64) -> Self {
        self.cold_starts.push(ColdStart {
            ms,
            count,
            delay_ms,
        });
        self
    }

    /// Adds a spot reclamation: a notice at `at_ms` draining `count`
    /// containers of `ms`, executed (capacity destroyed) `grace_ms` later.
    #[must_use]
    pub fn spot_reclamation(
        mut self,
        ms: MicroserviceId,
        at_ms: f64,
        count: u32,
        grace_ms: f64,
    ) -> Self {
        self.spot_reclamations.push(SpotReclamation {
            ms,
            at_ms,
            count,
            grace_ms,
        });
        self
    }

    /// Sets the front-door drop probability.
    #[must_use]
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the end-to-end request deadline.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Sets the span-loss probability.
    #[must_use]
    pub fn with_span_loss(mut self, p: f64) -> Self {
        self.span_loss = p.clamp(0.0, 1.0);
        self
    }

    /// Structurally validates the plan against `app` and a simulation
    /// horizon of `horizon_ms`: unknown microservices, non-finite or
    /// negative times, events beyond the horizon, zero-duration grace /
    /// cold-start windows, zero counts, out-of-range probabilities, and
    /// overlapping (same-instant) host failures are all typed errors.
    ///
    /// Returns the first defect found. The simulator does *not* call this —
    /// it keeps its historical permissive behaviour — so existing plans
    /// keep running; harnesses that generate plans should validate at
    /// construction.
    pub fn validate(&self, app: &App, horizon_ms: f64) -> Result<(), FaultError> {
        if !horizon_ms.is_finite() || horizon_ms <= 0.0 {
            return Err(FaultError::InvalidTime {
                what: "horizon",
                at: horizon_ms,
            });
        }
        let known = |ms: MicroserviceId| app.microservice(ms).is_ok();
        let time_ok = |at: f64| at.is_finite() && at >= 0.0;
        for c in &self.container_crashes {
            if !known(c.ms) {
                return Err(FaultError::UnknownMicroservice {
                    what: "container crash",
                    ms: c.ms,
                });
            }
            if !time_ok(c.at_ms) {
                return Err(FaultError::InvalidTime {
                    what: "container crash",
                    at: c.at_ms,
                });
            }
            if c.at_ms > horizon_ms {
                return Err(FaultError::BeyondHorizon {
                    what: "container crash",
                    at: c.at_ms,
                    horizon: horizon_ms,
                });
            }
            if c.count == 0 {
                return Err(FaultError::ZeroCount {
                    what: "container crash",
                });
            }
        }
        for (i, hf) in self.host_failures.iter().enumerate() {
            if !time_ok(hf.at_ms) {
                return Err(FaultError::InvalidTime {
                    what: "host failure",
                    at: hf.at_ms,
                });
            }
            if hf.at_ms > horizon_ms {
                return Err(FaultError::BeyondHorizon {
                    what: "host failure",
                    at: hf.at_ms,
                    horizon: horizon_ms,
                });
            }
            for (&ms, &count) in &hf.losses {
                if !known(ms) {
                    return Err(FaultError::UnknownMicroservice {
                        what: "host failure",
                        ms,
                    });
                }
                if count == 0 {
                    return Err(FaultError::ZeroCount {
                        what: "host failure",
                    });
                }
            }
            if self.host_failures[..i]
                .iter()
                .any(|other| other.at_ms.to_bits() == hf.at_ms.to_bits())
            {
                return Err(FaultError::OverlappingHostFailures { at_ms: hf.at_ms });
            }
        }
        for cs in &self.cold_starts {
            if !known(cs.ms) {
                return Err(FaultError::UnknownMicroservice {
                    what: "cold start",
                    ms: cs.ms,
                });
            }
            if !time_ok(cs.delay_ms) {
                return Err(FaultError::InvalidTime {
                    what: "cold start",
                    at: cs.delay_ms,
                });
            }
            if cs.delay_ms <= 0.0 {
                return Err(FaultError::ZeroDurationWindow { what: "cold start" });
            }
            if cs.count == 0 {
                return Err(FaultError::ZeroCount { what: "cold start" });
            }
        }
        for sr in &self.spot_reclamations {
            if !known(sr.ms) {
                return Err(FaultError::UnknownMicroservice {
                    what: "spot reclamation",
                    ms: sr.ms,
                });
            }
            if !time_ok(sr.at_ms) {
                return Err(FaultError::InvalidTime {
                    what: "spot reclamation",
                    at: sr.at_ms,
                });
            }
            if sr.at_ms > horizon_ms {
                return Err(FaultError::BeyondHorizon {
                    what: "spot reclamation",
                    at: sr.at_ms,
                    horizon: horizon_ms,
                });
            }
            if !sr.grace_ms.is_finite() || sr.grace_ms <= 0.0 {
                return Err(FaultError::ZeroDurationWindow {
                    what: "spot reclamation grace",
                });
            }
            if sr.count == 0 {
                return Err(FaultError::ZeroCount {
                    what: "spot reclamation",
                });
            }
        }
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(FaultError::InvalidProbability {
                what: "front-door drop",
                value: self.drop_probability,
            });
        }
        if !(0.0..=1.0).contains(&self.span_loss) {
            return Err(FaultError::InvalidProbability {
                what: "span loss",
                value: self.span_loss,
            });
        }
        if let Some(d) = self.deadline_ms {
            if !d.is_finite() || d <= 0.0 {
                return Err(FaultError::InvalidDeadline { deadline_ms: d });
            }
        }
        Ok(())
    }
}

/// One cluster-level fault applied between controller rounds.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterFault {
    /// Crash up to `count` containers of `ms` (most-loaded hosts first).
    CrashContainers {
        /// The microservice losing containers.
        ms: MicroserviceId,
        /// Containers to crash.
        count: u32,
    },
    /// Remove host `index`; every resident container is lost.
    FailHost {
        /// Index into the cluster's host list.
        index: usize,
    },
    /// Add a replacement host with the given capacity.
    AddHost {
        /// CPU capacity in cores.
        cpu: f64,
        /// Memory capacity in MB.
        mem: f64,
    },
    /// Set the background (batch) load of host `index`.
    SetBackground {
        /// Index into the cluster's host list.
        index: usize,
        /// Background CPU in cores.
        cpu: f64,
        /// Background memory in MB.
        mem: f64,
    },
    /// Fail every host in a failure domain at once — a whole rack, or a
    /// whole zone when `rack` is `None`. The correlated outage pattern
    /// (shared switch / power feed) that independent `FailHost` events
    /// cannot express.
    FailDomain {
        /// The availability zone.
        zone: u32,
        /// The rack within the zone, or `None` for the entire zone.
        rack: Option<u32>,
    },
    /// The provider posts reclamation notices on up to `count` spot hosts
    /// (lowest index first); the hosts are taken back — with any resident
    /// containers — before round `round + grace_rounds`. `count` many
    /// notices at once is a reclamation *burst*.
    SpotReclamation {
        /// Number of spot hosts reclaimed.
        count: usize,
        /// Rounds of advance notice before the capacity disappears.
        grace_rounds: u64,
    },
}

/// A round-indexed schedule of [`ClusterFault`]s for controller-loop
/// experiments: each fault fires *before* the controller round with the
/// same (1-based) number.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterFaultPlan {
    faults: BTreeMap<u64, Vec<ClusterFault>>,
}

impl ClusterFaultPlan {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a fault before round `round` (1-based).
    #[must_use]
    pub fn at_round(mut self, round: u64, fault: ClusterFault) -> Self {
        self.faults.entry(round).or_default().push(fault);
        self
    }

    /// The last round with a scheduled fault, if any.
    pub fn last_fault_round(&self) -> Option<u64> {
        self.faults.keys().next_back().copied()
    }

    /// Applies every fault scheduled for `round` to the cluster, returning
    /// how many fired. Out-of-range host indices and microservices with no
    /// containers degrade to no-ops — a fault plan can never make the
    /// injection itself panic.
    ///
    /// Reclamation notices posted by earlier [`ClusterFault::SpotReclamation`]
    /// events whose grace window ends at or before `round` are *executed*
    /// here (the provider takes the hosts back), even on rounds with no
    /// newly scheduled faults; each reclaimed host counts as one fired
    /// fault.
    pub fn apply(&self, round: u64, state: &mut ClusterState, app: &App) -> usize {
        // Grace windows expire regardless of what else is scheduled.
        let (reclaimed, _lost) = state.execute_due_reclamations(round);
        let mut fired = reclaimed;
        let Some(faults) = self.faults.get(&round) else {
            return fired;
        };
        for fault in faults {
            match fault {
                ClusterFault::CrashContainers { ms, count } => {
                    fired += usize::from(state.crash_containers(app, *ms, *count) > 0);
                }
                ClusterFault::FailHost { index } => {
                    fired += usize::from(state.fail_host(*index).is_some());
                }
                ClusterFault::AddHost { cpu, mem } => {
                    state.add_host(Host::new(*cpu, *mem));
                    fired += 1;
                }
                ClusterFault::SetBackground { index, cpu, mem } => {
                    if let Some(host) = state.hosts_mut().get_mut(*index) {
                        host.background_cpu = *cpu;
                        host.background_mem = *mem;
                        fired += 1;
                    }
                }
                ClusterFault::FailDomain { zone, rack } => {
                    fired += usize::from(state.fail_domain(*zone, *rack).0 > 0);
                }
                ClusterFault::SpotReclamation {
                    count,
                    grace_rounds,
                } => {
                    fired +=
                        usize::from(state.post_spot_reclamations(*count, round + grace_rounds) > 0);
                }
            }
        }
        fired
    }

    /// Generates a random schedule over `rounds` controller rounds:
    /// each faulty round crashes 1–3 containers of a random microservice,
    /// and with lower probability fails or restores a host. Deterministic
    /// given the seed.
    pub fn random(seed: u64, app: &App, rounds: u64, fault_probability: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ms_ids: Vec<MicroserviceId> = app.microservices().map(|(id, _)| id).collect();
        let mut plan = Self::new();
        if ms_ids.is_empty() {
            return plan;
        }
        let p = fault_probability.clamp(0.0, 1.0);
        let mut failed_hosts = 0usize;
        for round in 1..=rounds {
            if p <= 0.0 || !rng.gen_bool(p) {
                continue;
            }
            let ms = ms_ids[rng.gen_range(0..ms_ids.len())];
            let count = rng.gen_range(1..=3u32);
            plan = plan.at_round(round, ClusterFault::CrashContainers { ms, count });
            if rng.gen_bool(0.25) {
                plan = plan.at_round(round, ClusterFault::FailHost { index: 0 });
                failed_hosts += 1;
            } else if failed_hosts > 0 && rng.gen_bool(0.5) {
                plan = plan.at_round(
                    round,
                    ClusterFault::AddHost {
                        cpu: 32.0,
                        mem: 64.0 * 1024.0,
                    },
                );
                failed_hosts -= 1;
            }
        }
        plan
    }

    /// Generates a chaos schedule over `rounds` controller rounds mixing
    /// every fault class: container crashes, spot-reclamation *bursts*
    /// (several hosts at once, `grace_rounds` of notice), correlated
    /// rack/zone failures across `zones` zones, background-load swings and
    /// occasional replacement hosts. `intensity` in `[0, 1]` scales how
    /// often each round is hostile. Deterministic given the seed.
    pub fn chaos(seed: u64, app: &App, rounds: u64, zones: u32, intensity: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ms_ids: Vec<MicroserviceId> = app.microservices().map(|(id, _)| id).collect();
        let mut plan = Self::new();
        if ms_ids.is_empty() || rounds == 0 {
            return plan;
        }
        let p = intensity.clamp(0.0, 1.0);
        // Leave the first rounds quiet so the manager establishes a
        // deployment before the chaos starts, and the last rounds quiet so
        // recovery is measurable.
        let first = 3u64.min(rounds);
        let last = rounds.saturating_sub(2).max(first);
        for round in first..=last {
            if !rng.gen_bool(0.8 * p) {
                continue;
            }
            match rng.gen_range(0..10u32) {
                // Reclamation bursts dominate: the scenario this schedule
                // exists to stress.
                0..=3 => {
                    let count = rng.gen_range(1..=3usize);
                    let grace_rounds = rng.gen_range(2..=3u64);
                    plan = plan.at_round(
                        round,
                        ClusterFault::SpotReclamation {
                            count,
                            grace_rounds,
                        },
                    );
                }
                4..=5 => {
                    let ms = ms_ids[rng.gen_range(0..ms_ids.len())];
                    let count = rng.gen_range(1..=4u32);
                    plan = plan.at_round(round, ClusterFault::CrashContainers { ms, count });
                }
                6 => {
                    let zone = rng.gen_range(0..zones.max(1));
                    let rack = if rng.gen_bool(0.8) {
                        Some(rng.gen_range(0..2u32))
                    } else {
                        None
                    };
                    plan = plan.at_round(round, ClusterFault::FailDomain { zone, rack });
                    // A replacement host arrives a few rounds later.
                    let back = (round + rng.gen_range(2..=4u64)).min(last);
                    plan = plan.at_round(
                        back,
                        ClusterFault::AddHost {
                            cpu: 32.0,
                            mem: 64.0 * 1024.0,
                        },
                    );
                }
                7..=8 => {
                    let index = rng.gen_range(0..24usize);
                    let cpu = rng.gen_range(0.0..12.0f64);
                    plan = plan.at_round(
                        round,
                        ClusterFault::SetBackground {
                            index,
                            cpu,
                            mem: cpu * 1024.0,
                        },
                    );
                }
                _ => {
                    let index = rng.gen_range(0..24usize);
                    plan = plan.at_round(round, ClusterFault::FailHost { index });
                }
            }
        }
        plan
    }

    /// Structurally validates the schedule against `app` and a horizon of
    /// `horizon_rounds` controller rounds: round-0 events (rounds are
    /// 1-based), events beyond the horizon, zero counts, duplicate host
    /// targets within one round, unknown microservices and non-finite
    /// capacities are all typed errors. Like [`FaultPlan::validate`], this
    /// is a construction-time contract — [`ClusterFaultPlan::apply`] stays
    /// permissive.
    pub fn validate(&self, app: &App, horizon_rounds: u64) -> Result<(), FaultError> {
        for (&round, faults) in &self.faults {
            if round == 0 {
                return Err(FaultError::InvalidRound);
            }
            if round > horizon_rounds {
                return Err(FaultError::BeyondHorizon {
                    what: "cluster fault",
                    at: round as f64,
                    horizon: horizon_rounds as f64,
                });
            }
            let mut host_targets: Vec<usize> = Vec::new();
            for fault in faults {
                match fault {
                    ClusterFault::CrashContainers { ms, count } => {
                        if app.microservice(*ms).is_err() {
                            return Err(FaultError::UnknownMicroservice {
                                what: "cluster container crash",
                                ms: *ms,
                            });
                        }
                        if *count == 0 {
                            return Err(FaultError::ZeroCount {
                                what: "cluster container crash",
                            });
                        }
                    }
                    ClusterFault::FailHost { index } => {
                        if host_targets.contains(index) {
                            return Err(FaultError::DuplicateHostTarget {
                                round,
                                index: *index,
                            });
                        }
                        host_targets.push(*index);
                    }
                    ClusterFault::AddHost { cpu, mem } => {
                        for &(what, v) in &[("added host CPU", *cpu), ("added host memory", *mem)] {
                            if !v.is_finite() || v <= 0.0 {
                                return Err(FaultError::InvalidCapacity { what, value: v });
                            }
                        }
                    }
                    ClusterFault::SetBackground { index, cpu, mem } => {
                        if host_targets.contains(index) {
                            return Err(FaultError::DuplicateHostTarget {
                                round,
                                index: *index,
                            });
                        }
                        for &(what, v) in &[("background CPU", *cpu), ("background memory", *mem)] {
                            if !v.is_finite() || v < 0.0 {
                                return Err(FaultError::InvalidCapacity { what, value: v });
                            }
                        }
                    }
                    ClusterFault::FailDomain { .. } => {}
                    ClusterFault::SpotReclamation { count, .. } => {
                        if *count == 0 {
                            return Err(FaultError::ZeroCount {
                                what: "spot reclamation burst",
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::{AppBuilder, Sla};
    use erms_core::latency::LatencyProfile;
    use erms_core::resources::Resources;

    fn tiny_app() -> (App, MicroserviceId) {
        let mut b = AppBuilder::new("f");
        let m = b.microservice(
            "m",
            LatencyProfile::linear(0.01, 1.0),
            Resources::new(1.0, 1024.0),
        );
        b.service("s", Sla::p95_ms(100.0), |g| {
            g.entry(m);
        });
        (b.build().unwrap(), m)
    }

    #[test]
    fn cluster_plan_applies_and_survives_bad_indices() {
        let (app, ms) = tiny_app();
        let mut state = ClusterState::paper_cluster();
        let plan = ClusterFaultPlan::new()
            .at_round(1, ClusterFault::FailHost { index: 5 })
            .at_round(1, ClusterFault::FailHost { index: 999 }) // no-op
            .at_round(2, ClusterFault::CrashContainers { ms, count: 2 }) // no containers: no-op
            .at_round(
                3,
                ClusterFault::AddHost {
                    cpu: 32.0,
                    mem: 65_536.0,
                },
            )
            .at_round(
                3,
                ClusterFault::SetBackground {
                    index: 0,
                    cpu: 8.0,
                    mem: 0.0,
                },
            );
        assert_eq!(plan.last_fault_round(), Some(3));
        assert_eq!(plan.apply(1, &mut state, &app), 1);
        assert_eq!(state.len(), 19);
        assert_eq!(plan.apply(2, &mut state, &app), 0);
        assert_eq!(plan.apply(3, &mut state, &app), 2);
        assert_eq!(state.len(), 20);
        assert_eq!(state.hosts()[0].background_cpu, 8.0);
        assert_eq!(plan.apply(4, &mut state, &app), 0, "no faults scheduled");
    }

    #[test]
    fn spot_reclamation_round_trips_through_apply() {
        use erms_core::provisioning::HostLifecycle;
        let (app, _) = tiny_app();
        let spot = Host::new(32.0, 65_536.0).with_lifecycle(HostLifecycle::Spot);
        let mut state = ClusterState::new(vec![Host::new(32.0, 65_536.0), spot.clone(), spot]);
        let plan = ClusterFaultPlan::new().at_round(
            2,
            ClusterFault::SpotReclamation {
                count: 2,
                grace_rounds: 2,
            },
        );
        assert_eq!(plan.apply(1, &mut state, &app), 0);
        assert_eq!(plan.apply(2, &mut state, &app), 1, "notices posted");
        assert_eq!(state.reclaiming_hosts().len(), 2);
        assert_eq!(state.len(), 3, "grace window still open");
        assert_eq!(plan.apply(3, &mut state, &app), 0, "still open at round 3");
        assert_eq!(plan.apply(4, &mut state, &app), 2, "both hosts reclaimed");
        assert_eq!(state.len(), 1);
    }

    #[test]
    fn fail_domain_fault_takes_the_rack() {
        use erms_core::provisioning::FailureDomain;
        let (app, _) = tiny_app();
        let mk = |z, r| Host::new(32.0, 65_536.0).with_domain(FailureDomain::new(z, r));
        let mut state = ClusterState::new(vec![mk(0, 0), mk(0, 0), mk(0, 1), mk(1, 0)]);
        let plan = ClusterFaultPlan::new().at_round(
            1,
            ClusterFault::FailDomain {
                zone: 0,
                rack: Some(0),
            },
        );
        assert_eq!(plan.apply(1, &mut state, &app), 1);
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn chaos_plans_are_deterministic_and_valid() {
        let (app, _) = tiny_app();
        for seed in 0..20u64 {
            let a = ClusterFaultPlan::chaos(seed, &app, 40, 2, 0.8);
            let b = ClusterFaultPlan::chaos(seed, &app, 40, 2, 0.8);
            assert_eq!(a, b);
            a.validate(&app, 40).expect("chaos plans validate clean");
        }
        let a = ClusterFaultPlan::chaos(1, &app, 40, 2, 0.8);
        let b = ClusterFaultPlan::chaos(2, &app, 40, 2, 0.8);
        assert_ne!(a, b);
    }

    #[test]
    fn fault_plan_validation_catches_defects() {
        let (app, m) = tiny_app();
        let bogus = MicroserviceId::new(77);
        let h = 10_000.0;
        assert!(FaultPlan::new().validate(&app, h).is_ok());
        assert!(matches!(
            FaultPlan::new().crash(bogus, 1.0, 1).validate(&app, h),
            Err(FaultError::UnknownMicroservice { .. })
        ));
        assert!(matches!(
            FaultPlan::new().crash(m, -1.0, 1).validate(&app, h),
            Err(FaultError::InvalidTime { .. })
        ));
        assert!(matches!(
            FaultPlan::new().crash(m, 20_000.0, 1).validate(&app, h),
            Err(FaultError::BeyondHorizon { .. })
        ));
        assert!(matches!(
            FaultPlan::new().crash(m, 1.0, 0).validate(&app, h),
            Err(FaultError::ZeroCount { .. })
        ));
        assert!(matches!(
            FaultPlan::new()
                .spot_reclamation(m, 1.0, 1, 0.0)
                .validate(&app, h),
            Err(FaultError::ZeroDurationWindow { .. })
        ));
        assert!(matches!(
            FaultPlan::new().cold_start(m, 1, 0.0).validate(&app, h),
            Err(FaultError::ZeroDurationWindow { .. })
        ));
        let losses: BTreeMap<_, _> = [(m, 1u32)].into_iter().collect();
        assert!(matches!(
            FaultPlan::new()
                .host_failure(5.0, losses.clone())
                .host_failure(5.0, losses)
                .validate(&app, h),
            Err(FaultError::OverlappingHostFailures { .. })
        ));
        let mut bad = FaultPlan::new();
        bad.drop_probability = 1.5;
        assert!(matches!(
            bad.validate(&app, h),
            Err(FaultError::InvalidProbability { .. })
        ));
        assert!(matches!(
            FaultPlan::new().with_deadline_ms(0.0).validate(&app, h),
            Err(FaultError::InvalidDeadline { .. })
        ));
        // A valid composite plan passes.
        FaultPlan::new()
            .crash(m, 100.0, 2)
            .spot_reclamation(m, 200.0, 1, 500.0)
            .cold_start(m, 1, 250.0)
            .with_drop_probability(0.05)
            .with_deadline_ms(300.0)
            .validate(&app, h)
            .unwrap();
    }

    #[test]
    fn cluster_plan_validation_catches_defects() {
        let (app, m) = tiny_app();
        assert!(ClusterFaultPlan::new().validate(&app, 10).is_ok());
        assert!(matches!(
            ClusterFaultPlan::new()
                .at_round(0, ClusterFault::FailHost { index: 0 })
                .validate(&app, 10),
            Err(FaultError::InvalidRound)
        ));
        assert!(matches!(
            ClusterFaultPlan::new()
                .at_round(11, ClusterFault::FailHost { index: 0 })
                .validate(&app, 10),
            Err(FaultError::BeyondHorizon { .. })
        ));
        assert!(matches!(
            ClusterFaultPlan::new()
                .at_round(2, ClusterFault::FailHost { index: 3 })
                .at_round(2, ClusterFault::FailHost { index: 3 })
                .validate(&app, 10),
            Err(FaultError::DuplicateHostTarget { round: 2, index: 3 })
        ));
        assert!(matches!(
            ClusterFaultPlan::new()
                .at_round(
                    1,
                    ClusterFault::SpotReclamation {
                        count: 0,
                        grace_rounds: 2
                    }
                )
                .validate(&app, 10),
            Err(FaultError::ZeroCount { .. })
        ));
        assert!(matches!(
            ClusterFaultPlan::new()
                .at_round(
                    1,
                    ClusterFault::AddHost {
                        cpu: f64::NAN,
                        mem: 1024.0
                    }
                )
                .validate(&app, 10),
            Err(FaultError::InvalidCapacity { .. })
        ));
        ClusterFaultPlan::new()
            .at_round(1, ClusterFault::CrashContainers { ms: m, count: 2 })
            .at_round(
                2,
                ClusterFault::FailDomain {
                    zone: 0,
                    rack: None,
                },
            )
            .validate(&app, 10)
            .unwrap();
    }

    #[test]
    fn random_cluster_plan_is_deterministic() {
        let (app, _) = tiny_app();
        let a = ClusterFaultPlan::random(3, &app, 20, 0.5);
        let b = ClusterFaultPlan::random(3, &app, 20, 0.5);
        assert_eq!(a, b);
        assert!(a.last_fault_round().is_some());
        assert!(ClusterFaultPlan::random(3, &app, 20, 0.0)
            .last_fault_round()
            .is_none());
    }
}
