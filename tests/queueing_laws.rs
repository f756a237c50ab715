//! The DES against queueing theory.
//!
//! Digests show the engine does what it did before, and dense ≡ reference
//! shows two implementations agree; neither is a ground truth. Queueing
//! theory gives exact ones for a configuration the DES can express:
//!
//! * two Poisson classes, 0.35 requests/ms each, enter through a *front*
//!   microservice with a constant 1 µs service time and 64 containers, so
//!   they reach the shared microservice still Poisson (a constant shift);
//! * the shared microservice has one container with one thread and
//!   lognormal service times of mean 1 ms and CV 1: an M/G/1 server at
//!   ρ = 0.7. Class 0 is the first service, ahead of class 1 in the
//!   priority order.
//!
//! The laws, with `E[S^k] = m^k (1+c²)^(k(k−1)/2)` for the lognormal:
//!
//! * FCFS mean wait = Pollaczek–Khinchine, `W = λE[S²] / (2(1−ρ))`
//!   (2.333 ms);
//! * FCFS second moment = Takács, `E[W²] = 2W² + λE[S³] / (3(1−ρ))`,
//!   checked on the sojourn `T = W + S` as
//!   `E[T²] = E[W²] + 2W·E[S] + E[S²]` (23.78 ms²);
//! * at δ = 0 each class has Cobham's non-preemptive priority wait
//!   `W_k = (λE[S²]/2) / ((1−σ_{k−1})(1−σ_k))` (1.077 / 3.590 ms), with
//!   `λ` the total rate and `σ_k` the load of classes 1..=k; the law is
//!   also checked with the same load split over three and four classes
//!   (0.913 / 1.712 / 4.375 ms and 0.848 / 1.305 / 2.267 / 4.912 ms);
//! * for every δ the scheduler conserves work (Kleinrock):
//!   `Σ ρ_k W_k = ρ W_FCFS` (1.633 ms);
//! * the δ rule itself (§5.3.2): when a thread frees up with both classes
//!   waiting, the low class is picked with probability `δ(1−δ)` (its coin
//!   after the high class's failed one), read off the order the spans
//!   complete in.
//!
//! Mean laws cannot see the order *within* a class (non-preemptive LIFO
//! has FCFS's mean wait), so Takács' second moment is the law that
//! catches a queue served from the wrong end. Conservation holds for any
//! order that ignores service times, so it cannot see a δ coin drawn for
//! the wrong class; the pick rule does.
//!
//! **Tolerance.** Each estimate is the mean over `erms_sim::replicate`
//! replicas (seed `BASE_SEED ^ i`), and a law holds when the estimate lies
//! within [`Z`] standard errors of the replica mean: the seed spread, not
//! a guessed percentage. With 12 replicas a correct engine misses a
//! 4-standard-error bound with probability ≈ 0.2 % per law (Student's t,
//! 11 degrees of freedom). So that a noisy run cannot pass by widening its
//! own bound, each law's bound must also stay under [`MAX_REL_TOLERANCE`]
//! of the law's value.
//!
//! The tier-1 form (12 replicas × 50 s simulated per policy, ≈ 17 000
//! calls per class per replica with two classes) runs in about 3 s of a
//! debug `cargo test`; there the bound comes to ≈ 5 % of each mean law and
//! ≈ 12 % of Takács'.
//! The `#[ignore]`d long form, `cargo test --release --test queueing_laws
//! -- --ignored`, runs 32 replicas × 400 s, for bounds of ≈ 0.5–2.5 %.

use std::collections::BTreeMap;

use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::LatencyProfile;
use erms_core::resources::Resources;
use erms_sim::replicate;
use erms_sim::runtime::{Scheduling, SimConfig, Simulation};
use erms_sim::service_time::ServiceTimeModel;
use erms_sim::telemetry::{FnSink, SpanRecord};

/// Arrival rate of each of two classes at the shared microservice, per ms.
const LAMBDA: f64 = 0.35;
/// Mean and coefficient of variation of the shared service time, ms.
const MEAN: f64 = 1.0;
const CV: f64 = 1.0;
/// Standard errors of the replica mean a law may miss by.
const Z: f64 = 4.0;
/// A bound wider than this share of the law's value proves nothing.
const MAX_REL_TOLERANCE: f64 = 0.25;
const BASE_SEED: u64 = 0x5EED_0001;
/// Calls that reach the shared microservice before this are left out of
/// the waiting-time laws (the queue starts empty).
const WARMUP_MS: f64 = 1_000.0;

/// `E[S^k]` of the lognormal service time.
fn moment(k: i32) -> f64 {
    MEAN.powi(k) * (1.0 + CV * CV).powi(k * (k - 1) / 2)
}

fn rho() -> f64 {
    2.0 * LAMBDA * MEAN
}

/// Arrival rate of each of `classes` classes that share the two classes'
/// load (so ρ stays 0.7), per ms.
fn class_rate(classes: usize) -> f64 {
    2.0 * LAMBDA / classes as f64
}

/// Pollaczek–Khinchine mean wait under FCFS.
fn pk_wait() -> f64 {
    2.0 * LAMBDA * moment(2) / (2.0 * (1.0 - rho()))
}

/// Takács' FCFS second moment, on the sojourn time.
fn takacs_sojourn_second_moment() -> f64 {
    let w = pk_wait();
    let w2 = 2.0 * w * w + 2.0 * LAMBDA * moment(3) / (3.0 * (1.0 - rho()));
    w2 + 2.0 * w * MEAN + moment(2)
}

/// Cobham's non-preemptive mean wait of class `k` (0 = highest) of
/// `classes` equal classes.
fn cobham_wait(classes: usize, k: usize) -> f64 {
    let lambda = class_rate(classes);
    let w0 = classes as f64 * lambda * moment(2) / 2.0;
    let sigma = |j: usize| j as f64 * lambda * MEAN;
    w0 / ((1.0 - sigma(k)) * (1.0 - sigma(k + 1)))
}

/// The front-then-shared app: one service per class, highest priority
/// first, and one shared M/G/1 server.
fn app(classes: usize) -> (App, MicroserviceId, MicroserviceId, Vec<ServiceId>) {
    let mut b = AppBuilder::new("mg1");
    let profile = LatencyProfile::linear(0.0, 1.0);
    let front = b.microservice("front", profile.clone(), Resources::default());
    let shared = b.microservice("shared", profile, Resources::default());
    let mut service = |name: &str| {
        b.service(name, Sla::p95_ms(100.0), |g| {
            let root = g.entry(front);
            g.call_seq(root, shared);
        })
    };
    let classes = (0..classes)
        .map(|k| service(&format!("class{k}")))
        .collect();
    (b.build().unwrap(), front, shared, classes)
}

/// What one run shows at the shared microservice.
#[derive(Debug, Clone)]
struct Replica {
    /// Per class, over calls arriving after the warm-up: `(count, ΣT, ΣT²)`
    /// of the sojourn time `T`.
    sums: Vec<(f64, f64, f64)>,
    /// Thread hand-overs with classes 0 and 1 both waiting, and how many of
    /// them went to class 1.
    contested: f64,
    low_picks: f64,
}

fn run(seed: u64, duration_ms: f64, scheduling: Scheduling, classes: usize) -> Replica {
    let (app, front, shared, classes) = app(classes);
    let mut sim = Simulation::new(
        &app,
        SimConfig {
            duration_ms,
            // The sink sees every call; the laws pick their own window.
            warmup_ms: 0.0,
            seed,
            trace_sampling: 0.0,
            scheduling,
            ..SimConfig::default()
        },
    );
    sim.set_service_time(front, ServiceTimeModel::new(0.001, 0.0, 0.0, 0.0));
    sim.set_service_time(shared, ServiceTimeModel::new(MEAN, CV, 0.0, 0.0));
    sim.set_threads(shared, 1);
    let mut w = WorkloadVector::new();
    for &sid in &classes {
        w.set(
            sid,
            RequestRate::per_minute(class_rate(classes.len()) * 60_000.0),
        );
    }
    let containers: BTreeMap<_, _> = [(front, 64), (shared, 1)].into_iter().collect();
    let priorities: BTreeMap<_, _> = [(shared, classes.to_vec())].into_iter().collect();
    // `(arrival, completion, class)` in completion order: one thread
    // serves them one at a time.
    let mut served: Vec<(f64, f64, usize)> = Vec::new();
    let sink = FnSink::spans(|s: &SpanRecord| {
        if s.microservice == shared {
            let class = classes.iter().position(|&c| c == s.service).unwrap();
            served.push((s.start_ms, s.end_ms, class));
        }
    });
    sim.run_with_sink(&w, &containers, &priorities, sink)
        .unwrap();
    observe(&served, classes.len())
}

/// Reads the laws' observables off the served calls.
fn observe(served: &[(f64, f64, usize)], classes: usize) -> Replica {
    let mut r = Replica {
        sums: vec![(0.0, 0.0, 0.0); classes],
        contested: 0.0,
        low_picks: 0.0,
    };
    for &(arrive, end, class) in served {
        if arrive >= WARMUP_MS {
            let t = end - arrive;
            let sums = &mut r.sums[class];
            sums.0 += 1.0;
            sums.1 += t;
            sums.2 += t * t;
        }
    }
    // Walk the completions: after call `j` leaves, every call that has
    // arrived and not yet left is queued, and call `j + 1` is the one the
    // scheduler picked.
    let mut arrivals: Vec<(f64, usize)> = served.iter().map(|&(a, _, c)| (a, c)).collect();
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut present, mut next_arrival) = (vec![0u32; classes], 0);
    for pair in served.windows(2) {
        let ((_, end, class), (_, _, picked)) = (pair[0], pair[1]);
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 < end {
            present[arrivals[next_arrival].1] += 1;
            next_arrival += 1;
        }
        present[class] -= 1;
        if present[0] > 0 && present[1] > 0 {
            r.contested += 1.0;
            if picked == 1 {
                r.low_picks += 1.0;
            }
        }
    }
    r
}

/// Asserts that `estimate(replica)`, averaged over the replicas, matches
/// `theory` within `Z` standard errors, and that the bound is tight enough
/// to mean something.
fn check(law: &str, replicas: &[Replica], theory: f64, estimate: impl Fn(&Replica) -> f64) {
    let xs: Vec<f64> = replicas.iter().map(estimate).collect();
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let tolerance = Z * (var / n).sqrt();
    assert!(
        tolerance <= MAX_REL_TOLERANCE * theory,
        "{law}: seed spread too wide to test anything (±{tolerance:.4} around {theory:.4})"
    );
    assert!(
        (mean - theory).abs() <= tolerance,
        "{law}: measured {mean:.4}, theory {theory:.4}, tolerance ±{tolerance:.4}"
    );
}

/// Mean wait of class `k`: mean sojourn less the mean service time.
fn wait(r: &Replica, k: usize) -> f64 {
    r.sums[k].1 / r.sums[k].0 - MEAN
}

fn pooled(r: &Replica, moment: impl Fn(&(f64, f64, f64)) -> f64) -> f64 {
    r.sums.iter().map(moment).sum::<f64>() / r.sums.iter().map(|s| s.0).sum::<f64>()
}

/// `Σ ρ_k W_k`.
fn weighted_wait(r: &Replica) -> f64 {
    let classes = r.sums.len();
    class_rate(classes) * MEAN * (0..classes).map(|k| wait(r, k)).sum::<f64>()
}

fn check_laws(replicas: usize, duration_ms: f64) {
    let runs = |scheduling, classes| {
        replicate(BASE_SEED, replicas, |seed, _| {
            run(seed, duration_ms, scheduling, classes)
        })
    };
    let fcfs = runs(Scheduling::Fcfs, 2);
    check("Pollaczek–Khinchine", &fcfs, pk_wait(), |r| {
        pooled(r, |s| s.1) - MEAN
    });
    check("Takács", &fcfs, takacs_sojourn_second_moment(), |r| {
        pooled(r, |s| s.2)
    });
    let conserved = rho() * pk_wait();
    check("conservation, FCFS", &fcfs, conserved, weighted_wait);
    for delta in [0.0, 0.05, 0.2, 0.5] {
        let prio = runs(Scheduling::Priority { delta }, 2);
        if delta == 0.0 {
            check("Cobham, high class", &prio, cobham_wait(2, 0), |r| {
                wait(r, 0)
            });
            check("Cobham, low class", &prio, cobham_wait(2, 1), |r| {
                wait(r, 1)
            });
        }
        check(
            &format!("conservation, δ = {delta}"),
            &prio,
            conserved,
            weighted_wait,
        );
        check(
            &format!("pick rule, δ = {delta}"),
            &prio,
            delta * (1.0 - delta),
            |r| r.low_picks / r.contested,
        );
    }
    for classes in [3, 4] {
        let prio = runs(Scheduling::Priority { delta: 0.0 }, classes);
        for k in 0..classes {
            check(
                &format!("Cobham, class {k} of {classes}"),
                &prio,
                cobham_wait(classes, k),
                |r| wait(r, k),
            );
        }
    }
}

#[test]
fn theory_values_are_the_textbook_ones() {
    let close = |a: f64, b: f64| (a - b).abs() < 5e-4;
    assert!(close(pk_wait(), 2.3333));
    assert!(close(cobham_wait(2, 0), 1.0769));
    assert!(close(cobham_wait(2, 1), 3.5897));
    for (k, w) in [0.9130, 1.7120, 4.3750].into_iter().enumerate() {
        assert!(close(cobham_wait(3, k), w));
    }
    for (k, w) in [0.8485, 1.3054, 2.2672, 4.9123].into_iter().enumerate() {
        assert!(close(cobham_wait(4, k), w));
    }
    assert!(close(rho() * pk_wait(), 1.6333));
    assert!(close(takacs_sojourn_second_moment(), 23.7778));
}

#[test]
fn the_des_obeys_mg1_laws() {
    check_laws(12, 50_000.0);
}

#[test]
#[ignore = "long form: run in release"]
fn the_des_obeys_mg1_laws_long() {
    check_laws(32, 400_000.0);
}
