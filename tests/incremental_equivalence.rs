//! Bit-identity of the incremental planner against cold re-planning.
//!
//! The contract of [`IncrementalPlanner`] is that after *any* sequence of
//! input mutations — workload edits, latency-profile drift, SLA changes,
//! services going idle and coming back — the incrementally maintained plan
//! is **bit-identical** (exact `f64::to_bits` equality, not approximate)
//! to what a cold full re-plan over the same inputs produces. These tests
//! drive scripted (golden) and randomized (proptest) mutation sequences
//! and compare against [`erms_plan_cached`] after every single step.

use erms::core::incremental::IncrementalPlanner;
use erms::core::manager::erms_plan_cached;
use erms::core::prelude::*;
use erms::trace::alibaba::{generate, AlibabaConfig};
use proptest::prelude::*;

/// Asserts exact equality of two plans, comparing every floating-point
/// field through `to_bits` — `PartialEq` on `f64` is *not* bit identity
/// (`-0.0 == 0.0`, `NaN != NaN`), so the derived `PartialEq` of
/// `ScalingPlan` is insufficient here.
fn assert_plans_bit_identical(app: &App, warm: &ScalingPlan, cold: &ScalingPlan) {
    assert_eq!(warm.scheme, cold.scheme, "scheme differs");
    let wc: Vec<(MicroserviceId, u32)> = warm.iter().collect();
    let cc: Vec<(MicroserviceId, u32)> = cold.iter().collect();
    assert_eq!(wc, cc, "container counts differ");
    assert_eq!(
        warm.has_priorities(),
        cold.has_priorities(),
        "priority presence differs"
    );
    for (ms, _) in app.microservices() {
        assert_eq!(
            warm.priority_order(ms),
            cold.priority_order(ms),
            "priority order differs at {ms:?}"
        );
    }
    for (sid, _) in app.services() {
        let wp = warm
            .service_plan(sid)
            .unwrap_or_else(|| panic!("warm plan missing service {sid:?}"));
        let cp = cold
            .service_plan(sid)
            .unwrap_or_else(|| panic!("cold plan missing service {sid:?}"));
        assert_eq!(wp.service, cp.service);
        assert_eq!(
            wp.node_targets_ms.len(),
            cp.node_targets_ms.len(),
            "node target count differs for {sid:?}"
        );
        for (i, (w, c)) in wp
            .node_targets_ms
            .iter()
            .zip(&cp.node_targets_ms)
            .enumerate()
        {
            assert_eq!(
                w.to_bits(),
                c.to_bits(),
                "node target {i} of {sid:?} differs: warm={w} cold={c}"
            );
        }
        assert_eq!(
            wp.ms_targets_ms.keys().collect::<Vec<_>>(),
            cp.ms_targets_ms.keys().collect::<Vec<_>>(),
            "ms target keys differ for {sid:?}"
        );
        for (ms, w) in &wp.ms_targets_ms {
            let c = cp.ms_targets_ms[ms];
            assert_eq!(
                w.to_bits(),
                c.to_bits(),
                "ms target of {ms:?} in {sid:?} differs: warm={w} cold={c}"
            );
        }
        assert_eq!(
            wp.ms_containers.keys().collect::<Vec<_>>(),
            cp.ms_containers.keys().collect::<Vec<_>>(),
            "ms container keys differ for {sid:?}"
        );
        for (ms, w) in &wp.ms_containers {
            let c = cp.ms_containers[ms];
            assert_eq!(
                w.to_bits(),
                c.to_bits(),
                "ms containers of {ms:?} in {sid:?} differ: warm={w} cold={c}"
            );
        }
        assert_eq!(
            wp.ms_intervals, cp.ms_intervals,
            "interval selection differs for {sid:?}"
        );
    }
}

/// Runs one incremental step and checks it against a cold plan of the same
/// inputs: both succeed bit-identically, or both fail with the same error.
fn check_step(
    planner: &mut IncrementalPlanner,
    app: &App,
    w: &WorkloadVector,
    cache: Option<&PlanCache>,
) {
    let itf = Interference::default();
    let cold = erms_plan_cached(app, w, itf, planner.config(), planner.mode(), None);
    let config = planner.config().clone();
    let mode = planner.mode();
    match (planner.replan_auto(app, w, itf, cache), cold) {
        (Ok(warm), Ok(cold)) => assert_plans_bit_identical(app, warm, &cold),
        (Err(warm), Err(cold)) => {
            assert_eq!(warm, cold, "warm and cold fail with different errors")
        }
        (warm, cold) => panic!(
            "warm/cold disagree on success ({config:?}, {mode:?}): warm={warm:?} cold={cold:?}"
        ),
    }
}

/// Rebuilds an [`App`] with the same ids but edited profiles / SLAs —
/// apps are immutable, so mutations are modelled as fresh builds (exactly
/// how the online re-profiling loop feeds refitted models back).
fn rebuild_app(
    app: &App,
    mut edit_profile: impl FnMut(MicroserviceId, &mut LatencyProfile),
    mut edit_sla: impl FnMut(ServiceId, &mut Sla),
) -> App {
    let mut b = AppBuilder::new(app.name());
    for (id, m) in app.microservices() {
        let mut profile = m.profile.clone();
        edit_profile(id, &mut profile);
        b.microservice(m.name.clone(), profile, m.resources);
    }
    for (id, s) in app.services() {
        let mut sla = s.sla;
        edit_sla(id, &mut sla);
        b.raw_service(s.name.clone(), sla, s.graph.clone());
    }
    b.build().expect("rebuilt app stays valid")
}

/// Scales the latency intercepts of one microservice's profile — enough
/// to change its planner-visible projection in both intervals.
fn drift_profile(app: &App, ms: MicroserviceId, factor: f64) -> App {
    rebuild_app(
        app,
        |id, profile| {
            if id == ms {
                profile.low.b *= factor;
                profile.high.b *= factor;
            }
        },
        |_, _| {},
    )
}

/// Scales one service's SLA threshold.
fn scale_sla(app: &App, svc: ServiceId, factor: f64) -> App {
    rebuild_app(
        app,
        |_, _| {},
        |id, sla| {
            if id == svc {
                sla.threshold_ms *= factor;
            }
        },
    )
}

/// A three-service sharing app in the spirit of Fig. 5: two timeline
/// services and a search service all sharing `postStorage`, two of them
/// additionally sharing `mediaStore`.
fn sharing_app() -> (App, Vec<ServiceId>, Vec<MicroserviceId>) {
    let mut b = AppBuilder::new("golden-sharing");
    let u = b.microservice(
        "userTimeline",
        LatencyProfile::kneed(0.08, 3.0, 0.15, 900.0),
        Resources::new(0.1, 200.0),
    );
    let h = b.microservice(
        "homeTimeline",
        LatencyProfile::linear(0.02, 3.0),
        Resources::new(0.1, 200.0),
    );
    let p = b.microservice(
        "postStorage",
        LatencyProfile::kneed(0.03, 2.0, 0.09, 1200.0),
        Resources::new(0.2, 300.0),
    );
    let m = b.microservice(
        "mediaStore",
        LatencyProfile::linear(0.05, 4.0),
        Resources::new(0.4, 500.0),
    );
    let q = b.microservice(
        "searchIndex",
        LatencyProfile::linear(0.01, 1.5),
        Resources::new(0.1, 150.0),
    );
    let s1 = b.service("userTl", Sla::p95_ms(250.0), |g| {
        let root = g.entry(u);
        g.call_seq(root, p);
        g.call_seq(root, m);
    });
    let s2 = b.service("homeTl", Sla::p95_ms(300.0), |g| {
        let root = g.entry(h);
        g.call_par(root, &[p, m]);
    });
    let s3 = b.service("search", Sla::p95_ms(150.0), |g| {
        let root = g.entry(q);
        g.call_seq(root, p);
    });
    (b.build().unwrap(), vec![s1, s2, s3], vec![u, h, p, m, q])
}

fn run_golden_sequence(mode: SchedulingMode, use_cache: bool) {
    let (mut app, svcs, mss) = sharing_app();
    let cache = PlanCache::new();
    let cache_ref = use_cache.then_some(&cache);
    let mut planner = IncrementalPlanner::new(ScalerConfig::default(), mode);
    let mut w = WorkloadVector::new();
    for (i, &sid) in svcs.iter().enumerate() {
        w.set(sid, RequestRate::per_minute(20_000.0 + 7_000.0 * i as f64));
    }

    // Cold build.
    check_step(&mut planner, &app, &w, cache_ref);
    // Steady state: nothing changed — must still be bit-identical, and
    // the planner must have reused every service.
    let reused_before = planner.metrics().services_reused;
    check_step(&mut planner, &app, &w, cache_ref);
    assert_eq!(
        planner.metrics().services_reused - reused_before,
        svcs.len() as u64,
        "steady-state round must reuse every service"
    );
    // Single-service rate bump.
    w.set(svcs[0], RequestRate::per_minute(55_000.0));
    check_step(&mut planner, &app, &w, cache_ref);
    // All rates change at once.
    for (i, &sid) in svcs.iter().enumerate() {
        w.set(sid, RequestRate::per_minute(31_000.0 + 11_000.0 * i as f64));
    }
    check_step(&mut planner, &app, &w, cache_ref);
    // A service goes idle...
    w.set(svcs[1], RequestRate::per_minute(0.0));
    check_step(&mut planner, &app, &w, cache_ref);
    // ...and comes back.
    w.set(svcs[1], RequestRate::per_minute(44_000.0));
    check_step(&mut planner, &app, &w, cache_ref);
    // Profile drift at the most-shared microservice (postStorage): found
    // by re-projection alone.
    app = drift_profile(&app, mss[2], 1.35);
    check_step(&mut planner, &app, &w, cache_ref);
    // The same inputs again: still bit-identical.
    check_step(&mut planner, &app, &w, cache_ref);
    // SLA tightens.
    app = scale_sla(&app, svcs[2], 0.6);
    check_step(&mut planner, &app, &w, cache_ref);
    // SLA becomes infeasible: warm and cold must fail identically, and the
    // planner must drop its state...
    let feasible = app.clone();
    app = scale_sla(&app, svcs[2], 1e-4);
    check_step(&mut planner, &app, &w, cache_ref);
    // ...so the recovery round is a full cold rebuild that again matches.
    let full_builds_before = planner.metrics().full_builds;
    app = feasible;
    check_step(&mut planner, &app, &w, cache_ref);
    assert_eq!(
        planner.metrics().full_builds,
        full_builds_before + 1,
        "recovery after a planning error must rebuild cold"
    );
    // Forced full invalidation rebuilds cold and matches too.
    let full_builds_before = planner.metrics().full_builds;
    planner.invalidate();
    check_step(&mut planner, &app, &w, cache_ref);
    assert_eq!(
        planner.metrics().full_builds,
        full_builds_before + 1,
        "an invalidated planner must rebuild cold"
    );
}

#[test]
fn golden_sequence_priority_cached() {
    run_golden_sequence(SchedulingMode::Priority, true);
}

#[test]
fn golden_sequence_priority_uncached() {
    run_golden_sequence(SchedulingMode::Priority, false);
}

#[test]
fn golden_sequence_fcfs_cached() {
    run_golden_sequence(SchedulingMode::Fcfs, true);
}

#[test]
fn golden_sequence_fcfs_uncached() {
    run_golden_sequence(SchedulingMode::Fcfs, false);
}

/// A scripted sequence over a generated Alibaba-like topology — dozens of
/// services with heavy-tailed sharing, i.e. the regime the incremental
/// planner exists for.
#[test]
fn golden_sequence_generated_topology() {
    let config = AlibabaConfig {
        services: 24,
        microservice_pool: 70,
        avg_nodes_per_service: 7,
        hot_pool: 8,
        hot_mass: 0.5,
        seed: 42,
        ..AlibabaConfig::default()
    };
    let mut app = generate(&config).app;
    let n = app.service_count();
    let cache = PlanCache::new();
    let mut w = WorkloadVector::new();
    let sids: Vec<ServiceId> = app.services().map(|(sid, _)| sid).collect();
    for (i, &sid) in sids.iter().enumerate() {
        w.set(sid, RequestRate::per_minute(150.0 + 40.0 * i as f64));
    }
    for mode in [SchedulingMode::Priority, SchedulingMode::Fcfs] {
        let mut planner = IncrementalPlanner::new(ScalerConfig::default(), mode);
        check_step(&mut planner, &app, &w, Some(&cache));
        // Sparse rate churn: ~10% of services change each round.
        for round in 0..4u32 {
            for (i, &sid) in sids.iter().enumerate() {
                if (i as u32).wrapping_add(round) % 10 == 0 {
                    let bump = 1.0 + 0.2 * (round + 1) as f64;
                    w.set(
                        sid,
                        RequestRate::per_minute((150.0 + 40.0 * i as f64) * bump),
                    );
                }
            }
            check_step(&mut planner, &app, &w, Some(&cache));
        }
        // One microservice's model drifts (the online-profiler path).
        let shared = app
            .shared_microservices()
            .first()
            .copied()
            .expect("generated app has sharing");
        app = drift_profile(&app, shared, 1.2);
        check_step(&mut planner, &app, &w, Some(&cache));
        // Half the services go idle, then everything comes back.
        for &sid in sids.iter().take(n / 2) {
            w.set(sid, RequestRate::per_minute(0.0));
        }
        check_step(&mut planner, &app, &w, Some(&cache));
        for (i, &sid) in sids.iter().enumerate() {
            w.set(sid, RequestRate::per_minute(200.0 + 35.0 * i as f64));
        }
        check_step(&mut planner, &app, &w, Some(&cache));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random mutation sequences: after every step the incremental plan is
    /// bit-identical to a cold re-plan (or both fail identically).
    #[test]
    fn incremental_matches_cold_under_random_mutations(
        seed in 0u64..500,
        steps in prop::collection::vec((any::<u8>(), any::<u16>(), 0.55f64..1.6), 1..10),
    ) {
        let config = AlibabaConfig {
            services: 6 + (seed % 5) as usize,
            microservice_pool: 24,
            avg_nodes_per_service: 5,
            hot_pool: 4,
            hot_mass: 0.4,
            max_depth: 4,
            seed,
            ..AlibabaConfig::default()
        };
        let mut app = generate(&config).app;
        let sids: Vec<ServiceId> = app.services().map(|(sid, _)| sid).collect();
        let ms_count = app.microservice_count();
        let cache = PlanCache::new();
        let mut w = WorkloadVector::new();
        let mut rates: Vec<f64> = (0..sids.len()).map(|i| 120.0 * (i + 1) as f64).collect();
        for (i, &sid) in sids.iter().enumerate() {
            w.set(sid, RequestRate::per_minute(rates[i]));
        }
        let mut planners = [
            IncrementalPlanner::new(ScalerConfig::default(), SchedulingMode::Priority),
            IncrementalPlanner::new(ScalerConfig::default(), SchedulingMode::Fcfs),
        ];
        for planner in &mut planners {
            check_step(planner, &app, &w, Some(&cache));
        }
        for &(kind, idx, factor) in &steps {
            match kind % 5 {
                0 => {
                    // Rate scale on one service.
                    let i = idx as usize % sids.len();
                    rates[i] *= factor;
                    w.set(sids[i], RequestRate::per_minute(rates[i]));
                }
                1 => {
                    // Service goes idle.
                    let i = idx as usize % sids.len();
                    rates[i] = 0.0;
                    w.set(sids[i], RequestRate::per_minute(0.0));
                }
                2 => {
                    // Latency-model drift on one microservice.
                    let ms = MicroserviceId::new((idx as usize % ms_count) as u32);
                    app = drift_profile(&app, ms, factor);
                }
                3 => {
                    // SLA change (may go infeasible — both sides must agree).
                    let i = idx as usize % sids.len();
                    app = scale_sla(&app, sids[i], factor);
                }
                _ => {
                    // Rate reset to a fresh value (idle services come back).
                    let i = idx as usize % sids.len();
                    rates[i] = 60.0 * ((idx % 50) + 1) as f64;
                    w.set(sids[i], RequestRate::per_minute(rates[i]));
                }
            }
            for planner in &mut planners {
                check_step(planner, &app, &w, Some(&cache));
            }
        }
    }
}
