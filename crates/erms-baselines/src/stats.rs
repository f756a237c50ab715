//! Latency statistics consumed by the baseline heuristics.
//!
//! GrandSLAm and Rhythm allocate latency targets from *statistics* of
//! microservice latency — mean, variance and correlation with end-to-end
//! latency — "regardless of the workload and interference" (§2.2). This
//! module derives those statistics the way the baselines would measure
//! them: by observing each service across a sweep of load levels. The
//! numeric primitives (mean, variance, Pearson correlation) come from the
//! shared [`erms_core::stats`] module.

use std::collections::BTreeMap;

use erms_core::app::{App, Service};
use erms_core::ids::{MicroserviceId, NodeId, ServiceId};
use erms_core::latency::Interference;
use erms_core::stats::{mean, pearson, variance};

/// Summary statistics of one microservice's latency across workloads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct MicroserviceStats {
    /// Mean latency across the load sweep, ms.
    pub mean: f64,
    /// Variance of latency across the sweep.
    pub variance: f64,
    /// Pearson correlation between the microservice's latency and the
    /// service's end-to-end latency across the sweep.
    pub correlation: f64,
}

/// Per-(service, microservice) statistics for one application.
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsTable {
    entries: BTreeMap<(ServiceId, MicroserviceId), MicroserviceStats>,
}

impl StatsTable {
    /// Statistics of a microservice within a service (zeros if absent).
    pub(crate) fn get(&self, service: ServiceId, ms: MicroserviceId) -> MicroserviceStats {
        self.entries
            .get(&(service, ms))
            .copied()
            .unwrap_or_default()
    }
}

/// Relative load levels of the observation sweep (fractions of each
/// microservice's knee).
fn load_grid() -> Vec<f64> {
    (1..=15).map(|i| 0.1 * i as f64).collect()
}

/// End-to-end latency of a service when every microservice runs at
/// relative load `f` (fraction of its knee).
fn e2e_at(app: &App, svc: &Service, node: NodeId, f: f64, itf: Interference) -> f64 {
    let n = svc.graph.node(node);
    let own = ms_latency_at(app, n.microservice, f, itf);
    let downstream: f64 = n
        .stages
        .iter()
        .map(|stage| {
            stage
                .iter()
                .map(|&c| e2e_at(app, svc, c, f, itf))
                .fold(0.0, f64::max)
        })
        .sum();
    n.multiplicity * (own + downstream)
}

fn ms_latency_at(app: &App, ms: MicroserviceId, f: f64, itf: Interference) -> f64 {
    let profile = &app.microservice(ms).expect("valid ms").profile;
    let sigma = profile.cutoff_at(itf);
    let knee = if sigma.is_finite() { sigma } else { 1000.0 };
    profile.eval(f * knee, itf)
}

/// Derives the statistics table for an application by sweeping load
/// levels, as the baseline schemes would observe in their profiling runs.
pub(crate) fn derive(app: &App, itf: Interference) -> StatsTable {
    let grid = load_grid();
    let mut entries = BTreeMap::new();
    for (sid, svc) in app.services() {
        // End-to-end series across the sweep.
        let e2e: Vec<f64> = grid
            .iter()
            .map(|&f| e2e_at(app, svc, svc.graph.root(), f, itf))
            .collect();
        for ms in svc.graph.microservices() {
            let series: Vec<f64> = grid
                .iter()
                .map(|&f| ms_latency_at(app, ms, f, itf))
                .collect();
            let mean = mean(&series);
            let variance = variance(&series);
            let correlation = pearson(&series, &e2e);
            entries.insert(
                (sid, ms),
                MicroserviceStats {
                    mean,
                    variance,
                    correlation,
                },
            );
        }
    }
    StatsTable { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::{AppBuilder, Sla};
    use erms_core::latency::LatencyProfile;
    use erms_core::resources::Resources;

    fn app() -> (App, [MicroserviceId; 2], ServiceId) {
        let mut b = AppBuilder::new("stats");
        let fast = b.microservice(
            "fast",
            LatencyProfile::kneed(0.001, 1.0, 0.005, 1000.0),
            Resources::default(),
        );
        let slow = b.microservice(
            "slow",
            LatencyProfile::kneed(0.01, 5.0, 0.06, 600.0),
            Resources::default(),
        );
        let svc = b.service("s", Sla::p95_ms(100.0), |g| {
            let root = g.entry(fast);
            g.call_seq(root, slow);
        });
        (b.build().unwrap(), [fast, slow], svc)
    }

    #[test]
    fn slower_microservice_has_higher_mean_and_variance() {
        let (app, [fast, slow], svc) = app();
        let table = derive(&app, Interference::default());
        let f = table.get(svc, fast);
        let s = table.get(svc, slow);
        assert!(s.mean > f.mean);
        assert!(s.variance > f.variance);
    }

    #[test]
    fn correlation_is_high_for_dominant_component() {
        let (app, [_, slow], svc) = app();
        let table = derive(&app, Interference::default());
        assert!(table.get(svc, slow).correlation > 0.9);
    }

    #[test]
    fn absent_entries_are_zero() {
        let (app, _, svc) = app();
        let table = derive(&app, Interference::default());
        let stats = table.get(svc, MicroserviceId::new(99));
        assert_eq!(stats.mean, 0.0);
    }
}
