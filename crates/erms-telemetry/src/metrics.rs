//! Name-keyed metrics registry: counters and gauges.
//!
//! This is the Prometheus-shaped surface of the control loop: the planner,
//! the plan cache and the resilience ladder own their accumulations, and
//! [`MetricsRegistry`] is the *cold* export format they are mirrored into
//! at scrape/report time — string lookups happen per report, never per
//! event.

use std::collections::BTreeMap;

/// A named bag of counters (monotone `u64`) and gauges (last-write `f64`).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(test)]
    /// Current value of counter `name` (0 when absent).
    #[must_use]
    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets counter `name` to an absolute value. For mirroring an
    /// externally accumulated monotone counter (planner metrics, cache
    /// hit/miss totals) into the registry at report time: the source owns
    /// the accumulation, the registry snapshots it.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// Mirrors incremental-planner and merge-memo counters into `registry`
/// under the `planner.*` / `plan_cache.*` namespaces, so control-loop
/// reports carry planning-work telemetry next to latency sketches.
///
/// Uses [`MetricsRegistry::set_counter`]: the planner and cache own the
/// accumulation; calling this repeatedly snapshots their latest totals.
pub fn record_planner_metrics(
    registry: &mut MetricsRegistry,
    metrics: &erms_core::incremental::PlannerMetrics,
    cache: Option<&erms_core::cache::PlanCache>,
) {
    registry.set_counter("planner.rounds", metrics.rounds);
    registry.set_counter("planner.full_builds", metrics.full_builds);
    registry.set_counter("planner.initial_replans", metrics.initial_replans);
    registry.set_counter("planner.services_replanned", metrics.services_replanned);
    registry.set_counter("planner.services_reused", metrics.services_reused);
    registry.set_counter("planner.dirty_leaves", metrics.dirty_leaves);
    registry.set_counter("planner.remerged_nodes", metrics.remerged_nodes);
    registry.set_counter("planner.redistributed_nodes", metrics.redistributed_nodes);
    registry.set_counter("planner.cold_passes", metrics.cold_passes);
    registry.set_counter("planner.priority_resorts", metrics.priority_resorts);
    if let Some(cache) = cache {
        registry.set_counter("plan_cache.hits", cache.hits());
        registry.set_counter("plan_cache.misses", cache.misses());
        registry.set_counter("plan_cache.evictions", cache.evictions());
        registry.set_gauge("plan_cache.len", cache.len() as f64);
        registry.set_gauge("plan_cache.hit_rate", cache.hit_rate());
    }
}

/// Mirrors the fallback-ladder history of a resilient controller into
/// `registry` under the `resilience.*` namespace: one counter per rung, so
/// operators can see *which* degradations carried a run (spot evacuations
/// vs. vertical squeezes vs. outright shedding) next to the planner and
/// latency telemetry.
///
/// Like [`record_planner_metrics`] this snapshots via
/// [`MetricsRegistry::set_counter`]: pass the full report history each
/// time and the registry always reflects its latest totals. A
/// `ResilientManager` holds the reports of its most recent
/// [`HISTORY_LIMIT`](erms_core::resilience::HISTORY_LIMIT) rounds, so past
/// that many rounds the totals are those of the rounds it still holds.
pub fn record_resilience(
    registry: &mut MetricsRegistry,
    reports: &[erms_core::resilience::ResilienceReport],
) {
    use erms_core::resilience::FallbackAction;

    let mut degraded = 0u64;
    let mut skipped = 0u64;
    let mut errors = 0u64;
    let mut stale = 0u64;
    let mut hysteresis = 0u64;
    let mut cooldown = 0u64;
    let mut relaxed = 0u64;
    let mut evacuations = 0u64;
    let mut evacuated_containers = 0u64;
    let mut resizes = 0u64;
    let mut sheds = 0u64;
    let mut last_resize = 1.0f64;
    for report in reports {
        degraded += u64::from(report.degraded());
        skipped += u64::from(report.skipped());
        errors += report.errors.len() as u64;
        for action in &report.actions {
            match action {
                FallbackAction::StalePlanApplied { .. } => stale += 1,
                FallbackAction::HysteresisHold { .. } => hysteresis += 1,
                FallbackAction::CooldownHold { .. } => cooldown += 1,
                FallbackAction::RelaxedPlacement { .. } => relaxed += 1,
                FallbackAction::SpotEvacuation { containers, .. } => {
                    evacuations += 1;
                    evacuated_containers += u64::from(*containers);
                }
                FallbackAction::ResizeInPlace { factor } => {
                    resizes += 1;
                    last_resize = *factor;
                }
                FallbackAction::ShedDemand { .. } => sheds += 1,
                FallbackAction::RoundSkipped { .. } => {}
            }
        }
    }
    registry.set_counter("resilience.rounds", reports.len() as u64);
    registry.set_counter("resilience.degraded_rounds", degraded);
    registry.set_counter("resilience.skipped_rounds", skipped);
    registry.set_counter("resilience.absorbed_errors", errors);
    registry.set_counter("resilience.stale_plans", stale);
    registry.set_counter("resilience.hysteresis_holds", hysteresis);
    registry.set_counter("resilience.cooldown_holds", cooldown);
    registry.set_counter("resilience.relaxed_placements", relaxed);
    registry.set_counter("resilience.spot_evacuations", evacuations);
    registry.set_counter("resilience.evacuated_containers", evacuated_containers);
    registry.set_counter("resilience.resizes", resizes);
    registry.set_counter("resilience.shed_demands", sheds);
    registry.set_gauge("resilience.last_resize_factor", last_resize);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut r = MetricsRegistry::new();
        r.set_counter("spans", 3);
        r.set_counter("spans", 5);
        r.set_gauge("sampling", 0.01);
        assert_eq!(r.counter("spans"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("sampling"), Some(0.01));
        assert_eq!(r.gauge("absent"), None);
    }

    #[test]
    fn planner_metrics_mirror_into_registry() {
        use erms_core::cache::PlanCache;
        use erms_core::incremental::PlannerMetrics;

        let mut r = MetricsRegistry::new();
        let mut m = PlannerMetrics {
            rounds: 4,
            services_reused: 9,
            dirty_leaves: 3,
            ..Default::default()
        };
        let cache = PlanCache::new();
        record_planner_metrics(&mut r, &m, Some(&cache));
        assert_eq!(r.counter("planner.rounds"), 4);
        assert_eq!(r.counter("planner.services_reused"), 9);
        assert_eq!(r.counter("planner.dirty_leaves"), 3);
        assert_eq!(r.counter("plan_cache.evictions"), 0);
        assert_eq!(r.gauge("plan_cache.len"), Some(0.0));

        // Snapshot semantics: a second mirror overwrites, not adds.
        m.rounds = 5;
        record_planner_metrics(&mut r, &m, Some(&cache));
        assert_eq!(r.counter("planner.rounds"), 5);
    }

    #[test]
    fn resilience_reports_mirror_into_registry() {
        use erms_core::resilience::{FallbackAction, ResilienceReport};

        let clean = ResilienceReport {
            round: 1,
            ..Default::default()
        };
        let degraded = ResilienceReport {
            round: 2,
            actions: vec![
                FallbackAction::SpotEvacuation {
                    hosts: 2,
                    containers: 5,
                },
                FallbackAction::ResizeInPlace { factor: 0.85 },
                FallbackAction::RoundSkipped {
                    reason: "test".into(),
                },
            ],
            ..Default::default()
        };
        let mut r = MetricsRegistry::new();
        record_resilience(&mut r, &[clean.clone(), degraded.clone()]);
        assert_eq!(r.counter("resilience.rounds"), 2);
        assert_eq!(r.counter("resilience.degraded_rounds"), 1);
        assert_eq!(r.counter("resilience.skipped_rounds"), 1);
        assert_eq!(r.counter("resilience.spot_evacuations"), 1);
        assert_eq!(r.counter("resilience.evacuated_containers"), 5);
        assert_eq!(r.counter("resilience.resizes"), 1);
        assert_eq!(r.counter("resilience.shed_demands"), 0);
        assert_eq!(r.gauge("resilience.last_resize_factor"), Some(0.85));

        // Snapshot semantics: re-mirroring the same history overwrites.
        record_resilience(&mut r, &[clean, degraded]);
        assert_eq!(r.counter("resilience.rounds"), 2);
    }
}
