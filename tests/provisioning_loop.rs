//! Integration: the full controller loop (plan → place → observe) against
//! a simulated cluster with background interference.

use erms::core::manager::erms_plan;
use erms::core::prelude::*;
use erms::core::provisioning::{provision, ProvisionReport};
use erms::workload::apps::hotel_reservation;
use erms::workload::interference::{inject, InterferenceLevel};

/// One controller round: observe the cluster-average interference, plan,
/// place.
fn round(
    app: &App,
    state: &mut ClusterState,
    w: &WorkloadVector,
    policy: PlacementPolicy,
) -> Result<(ScalingPlan, ProvisionReport)> {
    let itf = state.average_interference(app);
    let plan = erms_plan(
        app,
        w,
        itf,
        &ScalerConfig::default(),
        SchedulingMode::Priority,
    )?;
    let report = provision(state, app, &plan, policy)?;
    Ok((plan, report))
}

#[test]
fn manager_rounds_converge_and_balance() {
    let bench = hotel_reservation(150.0);
    let app = &bench.app;
    let mut state = ClusterState::paper_cluster();
    inject(&mut state, InterferenceLevel::CpuModerate, 0.5);
    let policy = PlacementPolicy::default();
    let w = WorkloadVector::uniform(app, RequestRate::per_minute(20_000.0));

    let (_, first) = round(app, &mut state, &w, policy).expect("round 1");
    assert!(first.placed > 0);
    // Second round with the same workload should be a near no-op.
    let (_, second) = round(app, &mut state, &w, policy).expect("round 2");
    assert!(
        second.placed + second.released <= first.placed / 5 + 2,
        "steady state should not churn: {second:?}"
    );
    // Interference-aware placement keeps hosts closer to the mean than the
    // naive spread.
    let mut naive = ClusterState::paper_cluster();
    inject(&mut naive, InterferenceLevel::CpuModerate, 0.5);
    round(app, &mut naive, &w, PlacementPolicy::KubernetesDefault).expect("k8s round");
    assert!(
        state.unbalance(app) <= naive.unbalance(app) + 1e-9,
        "erms unbalance {} vs k8s {}",
        state.unbalance(app),
        naive.unbalance(app)
    );
}

#[test]
fn scale_down_releases_containers_on_load_drop() {
    let bench = hotel_reservation(200.0);
    let app = &bench.app;
    let mut state = ClusterState::paper_cluster();
    let policy = PlacementPolicy::default();
    let high = WorkloadVector::uniform(app, RequestRate::per_minute(60_000.0));
    let low = WorkloadVector::uniform(app, RequestRate::per_minute(3_000.0));
    let (big, _) = round(app, &mut state, &high, policy).expect("high round");
    let (small, report) = round(app, &mut state, &low, policy).expect("low round");
    assert!(report.released > 0);
    assert!(small.total_containers() < big.total_containers() / 2);
    let placed: u32 = state.hosts().iter().map(|h| h.container_count()).sum();
    assert_eq!(placed as u64, small.total_containers());
}

#[test]
fn pop_grouping_matches_whole_cluster_quality_approximately() {
    let bench = hotel_reservation(150.0);
    let app = &bench.app;
    let w = WorkloadVector::uniform(app, RequestRate::per_minute(30_000.0));

    let run = |policy: PlacementPolicy| {
        let mut state = ClusterState::paper_cluster();
        inject(&mut state, InterferenceLevel::Mixed, 0.3);
        round(app, &mut state, &w, policy).expect("round");
        state.unbalance(app)
    };
    let whole = run(PlacementPolicy::InterferenceAware { groups: 1 });
    let pop = run(PlacementPolicy::InterferenceAware { groups: 4 });
    // POP trades a bounded amount of balance quality for speed (§5.4).
    assert!(
        pop <= whole * 4.0 + 0.01,
        "POP unbalance {pop} should stay within a small factor of whole-cluster {whole}"
    );
}
