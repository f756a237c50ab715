//! Chaos experiment: seed-deterministic randomized fault schedules replayed
//! against the resilient controller, scored as SLA-violation-minutes and
//! MTTR per scheme.
//!
//! Usage (as a `harness = false` bench target):
//!
//! ```text
//! cargo bench -p erms-bench --bench bench_chaos            # full run
//! cargo bench -p erms-bench --bench bench_chaos -- --quick # CI smoke
//! ```
//!
//! Four schemes run the *same* chaos schedules (reclamation bursts,
//! correlated rack/zone outages, container crashes, background-load
//! swings — [`ClusterFaultPlan::chaos`]): the uniform on-demand cluster
//! vs. a heterogeneous spot-mixed cluster, each under the reactive
//! (PR-1) ladder and the spot-aware ladder. Every seed's replay is
//! asserted **bit-identical** between the rayon fan-out and a serial
//! loop before the table is printed, and the headline claim — the
//! spot-aware ladder loses fewer SLA-minutes than the reactive ladder
//! under reclamation pressure — is asserted, not assumed.

use erms_bench::table;
use erms_core::latency::Interference;
use erms_core::prelude::{
    App, ClusterState, FailureDomain, Host, RequestRate, ResilienceConfig, ResilientManager,
    WorkloadVector,
};
use erms_core::resilience::FallbackAction;
use erms_sim::faults::ClusterFaultPlan;
use erms_sim::{replicate, replicate_serial};
use erms_workload::apps::fig5_app;

const SLA_MS: f64 = 300.0;
const HOSTS: usize = 10;
const ZONES: u32 = 3;
const INTENSITY: f64 = 0.7;
/// Fraction of cluster CPU the tuned steady-state plan occupies, so a
/// zone outage or a reclamation burst is a real crunch, not a rounding
/// error.
const TARGET_UTIL: f64 = 0.6;

/// One scheme = a cluster shape × a ladder configuration.
#[derive(Clone, Copy)]
struct Scheme {
    cluster: &'static str,
    ladder: &'static str,
    heterogeneous: bool,
    spot_aware: bool,
}

const SCHEMES: [Scheme; 4] = [
    Scheme {
        cluster: "uniform",
        ladder: "reactive",
        heterogeneous: false,
        spot_aware: false,
    },
    Scheme {
        cluster: "uniform",
        ladder: "spot-aware",
        heterogeneous: false,
        spot_aware: true,
    },
    Scheme {
        cluster: "heterogeneous",
        ladder: "reactive",
        heterogeneous: true,
        spot_aware: false,
    },
    Scheme {
        cluster: "heterogeneous",
        ladder: "spot-aware",
        heterogeneous: true,
        spot_aware: true,
    },
];

/// Per-seed replay outcome. `PartialEq` over raw `u64`s makes the
/// parallel-vs-serial bit-identity assertion exact.
#[derive(Debug, Clone, PartialEq, Default)]
struct Score {
    violation_minutes: u64,
    episodes: u64,
    /// Total rounds spent inside violation episodes (onset → recovery).
    repair_rounds: u64,
    containers_lost: u64,
    spot_evacuations: u64,
    evacuated_containers: u64,
    resizes: u64,
    shed_demands: u64,
    skipped_rounds: u64,
}

fn cluster_for(scheme: &Scheme, seed: u64) -> ClusterState {
    if scheme.heterogeneous {
        erms_trace::synth::heterogeneous_cluster(HOSTS, 0.5, ZONES, seed)
    } else {
        // The PR-1 shape — identical on-demand paper hosts — but spread
        // over the same zone grid, so the domain-outage exposure is equal
        // and the comparison isolates the host/lifecycle mix.
        ClusterState::new(
            (0..HOSTS)
                .map(|i| {
                    Host::paper_host()
                        .with_domain(FailureDomain::new(i as u32 % ZONES, (i as u32 / ZONES) % 2))
                })
                .collect(),
        )
    }
}

/// Tunes per-service request rates so the steady-state plan occupies
/// `TARGET_UTIL` of the cluster's CPU. One probe plan plus a linear
/// correction (the piecewise targets are near-linear in rate at this
/// scale) — fully deterministic.
fn tuned_workload(app: &App, capacity_cpu: f64) -> WorkloadVector {
    let itf = Interference::new(0.3, 0.3);
    let services: Vec<_> = app.services().map(|(sid, _)| sid).collect();
    let mut rate = 6_000.0;
    for _ in 0..2 {
        let mut w = WorkloadVector::new();
        for &sid in &services {
            w.set(sid, RequestRate::per_minute(rate));
        }
        let plan = erms_core::manager::ErmsScaler::new(app)
            .plan(&w, itf)
            .expect("probe plan feasible");
        let cpu: f64 = app
            .microservices()
            .map(|(ms, m)| plan.containers(ms) as f64 * m.resources.cpu)
            .sum();
        if cpu <= 0.0 {
            break;
        }
        rate *= (TARGET_UTIL * capacity_cpu / cpu).clamp(0.1, 50.0);
    }
    let mut w = WorkloadVector::new();
    for &sid in &services {
        w.set(sid, RequestRate::per_minute(rate));
    }
    w
}

/// Replays one chaos schedule against one scheme.
///
/// A minute (= controller round) counts as an SLA violation when the
/// cluster enters the round short of the last applied plan (faults
/// destroyed planned-for containers) or when the ladder had to shed
/// demand or skip the round — in every case some planned-for demand is
/// not being served at its SLA target. An *episode* runs from the first
/// violating round to the next clean one; MTTR is the mean episode
/// length.
fn replay(app: &App, scheme: &Scheme, seed: u64, rounds: u64) -> Score {
    let mut state = cluster_for(scheme, seed);
    let capacity: f64 = state.hosts().iter().map(|h| h.cpu_capacity).sum();
    let w = tuned_workload(app, capacity);
    let faults = ClusterFaultPlan::chaos(seed, app, rounds, ZONES, INTENSITY);
    faults
        .validate(app, rounds)
        .expect("chaos schedules are valid by construction");
    let mut manager = ResilientManager::new(ResilienceConfig {
        spot_aware: scheme.spot_aware,
        ..ResilienceConfig::default()
    });

    let total_containers = |s: &ClusterState| -> u64 {
        s.hosts()
            .iter()
            .map(|h| u64::from(h.container_count()))
            .sum()
    };
    let mut score = Score::default();
    let mut in_episode = false;
    let mut onset = 0u64;
    for round in 1..=rounds {
        let before = total_containers(&state);
        faults.apply(round, &mut state, app);
        score.containers_lost += before.saturating_sub(total_containers(&state));
        // Deficit check against the last applied plan, *before* the
        // controller repairs: planned-for capacity the faults destroyed.
        let deficit = manager.last_applied().is_some_and(|plan| {
            app.microservices()
                .any(|(ms, _)| state.containers_of(ms) < plan.containers(ms))
        });
        let outcome = manager.run_round(app, &mut state, &w);
        let degraded_service = outcome.report.skipped()
            || outcome
                .report
                .actions
                .iter()
                .any(|a| matches!(a, FallbackAction::ShedDemand { .. }));
        let violated = deficit || degraded_service;
        if violated {
            score.violation_minutes += 1;
            if !in_episode {
                in_episode = true;
                onset = round;
                score.episodes += 1;
            }
        } else if in_episode {
            in_episode = false;
            score.repair_rounds += round - onset;
        }
    }
    if in_episode {
        score.repair_rounds += rounds + 1 - onset;
    }
    for report in manager.history() {
        score.skipped_rounds += u64::from(report.skipped());
        for action in &report.actions {
            match action {
                FallbackAction::SpotEvacuation { containers, .. } => {
                    score.spot_evacuations += 1;
                    score.evacuated_containers += u64::from(*containers);
                }
                FallbackAction::ResizeInPlace { .. } => score.resizes += 1,
                FallbackAction::ShedDemand { .. } => score.shed_demands += 1,
                _ => {}
            }
        }
    }
    score
}

/// Aggregate of one scheme across all seeds.
struct SchemeResult {
    scheme: Scheme,
    violation_minutes_total: u64,
    violation_minutes_mean: f64,
    mttr_rounds: f64,
    episodes: u64,
    containers_lost: u64,
    spot_evacuations: u64,
    evacuated_containers: u64,
    resizes: u64,
    shed_demands: u64,
    skipped_rounds: u64,
}

fn aggregate(scheme: Scheme, scores: &[Score]) -> SchemeResult {
    let sum = |f: fn(&Score) -> u64| scores.iter().map(f).sum::<u64>();
    let episodes = sum(|s| s.episodes);
    let repair = sum(|s| s.repair_rounds);
    SchemeResult {
        scheme,
        violation_minutes_total: sum(|s| s.violation_minutes),
        violation_minutes_mean: sum(|s| s.violation_minutes) as f64 / scores.len().max(1) as f64,
        mttr_rounds: repair as f64 / episodes.max(1) as f64,
        episodes,
        containers_lost: sum(|s| s.containers_lost),
        spot_evacuations: sum(|s| s.spot_evacuations),
        evacuated_containers: sum(|s| s.evacuated_containers),
        resizes: sum(|s| s.resizes),
        shed_demands: sum(|s| s.shed_demands),
        skipped_rounds: sum(|s| s.skipped_rounds),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let (seeds, rounds): (usize, u64) = if quick { (2, 16) } else { (8, 48) };
    let (app, _, _) = fig5_app(SLA_MS);
    println!(
        "bench_chaos: {seeds} seeds x {rounds} rounds, {HOSTS} hosts, {ZONES} zones, \
         intensity {INTENSITY}{}",
        if quick { ", quick mode" } else { "" }
    );

    // One replication = every scheme replayed at that seed. The rayon
    // fan-out must be bit-identical to the serial loop at any
    // RAYON_NUM_THREADS — the same determinism contract as the DES
    // replication harness.
    let run = |seed: u64, _i: usize| -> Vec<Score> {
        SCHEMES
            .iter()
            .map(|scheme| replay(&app, scheme, seed, rounds))
            .collect()
    };
    let parallel = replicate(0xC4A0, seeds, run);
    let serial = replicate_serial(0xC4A0, seeds, run);
    assert_eq!(
        parallel, serial,
        "chaos replay must be bit-identical between parallel and serial fan-out"
    );

    let results: Vec<SchemeResult> = SCHEMES
        .iter()
        .enumerate()
        .map(|(k, &scheme)| {
            let scores: Vec<Score> = parallel
                .iter()
                .map(|per_seed| per_seed[k].clone())
                .collect();
            aggregate(scheme, &scores)
        })
        .collect();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.scheme.cluster.to_string(),
                r.scheme.ladder.to_string(),
                r.violation_minutes_total.to_string(),
                format!("{:.1}", r.violation_minutes_mean),
                format!("{:.2}", r.mttr_rounds),
                r.episodes.to_string(),
                r.containers_lost.to_string(),
                format!("{} ({})", r.spot_evacuations, r.evacuated_containers),
                r.resizes.to_string(),
                r.shed_demands.to_string(),
                r.skipped_rounds.to_string(),
            ]
        })
        .collect();
    table::print(
        "Recovery under chaos",
        &[
            "cluster",
            "ladder",
            "violation-min",
            "mean/seed",
            "MTTR (rounds)",
            "episodes",
            "containers lost",
            "evacuations (ctrs)",
            "resizes",
            "sheds",
            "skips",
        ],
        &rows,
    );

    // The headline claim this harness exists to check: on the spot-mixed
    // cluster, the spot-aware ladder must lose fewer SLA-minutes than the
    // PR-1 reactive ladder under the same reclamation-heavy schedules.
    let reactive = results
        .iter()
        .find(|r| r.scheme.heterogeneous && !r.scheme.spot_aware)
        .expect("reactive hetero scheme");
    let aware = results
        .iter()
        .find(|r| r.scheme.heterogeneous && r.scheme.spot_aware)
        .expect("spot-aware hetero scheme");
    assert!(
        aware.violation_minutes_total < reactive.violation_minutes_total,
        "spot-aware ladder must beat the reactive ladder under reclamation bursts: \
         {} vs {} violation-minutes",
        aware.violation_minutes_total,
        reactive.violation_minutes_total
    );
}
