//! Name-keyed metrics registry: counters, gauges and quantile sketches.
//!
//! This is the Prometheus-shaped surface of the pipeline: the hot path
//! (the [`TelemetryCollector`](crate::collector::TelemetryCollector)
//! sink) records into dense index-addressed structures, and
//! [`MetricsRegistry`] is the *cold* export format those structures fold
//! into at scrape/report time — string lookups happen per report, never
//! per event. Registries merge the same way sketches do, so per-replica
//! reports reduce deterministically.

use std::collections::BTreeMap;

use erms_core::error::Result;

use crate::sketch::QuantileSketch;

/// A named bag of counters (monotone `u64`), gauges (last-write `f64`)
/// and mergeable [`QuantileSketch`] histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    sketches: BTreeMap<String, QuantileSketch>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name`, creating it at zero first.
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_owned(), by);
        }
    }

    /// Current value of counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets counter `name` to an absolute value. For mirroring an
    /// externally accumulated monotone counter (planner metrics, cache
    /// hit/miss totals) into the registry at report time: the source owns
    /// the accumulation, the registry snapshots it. Merging registries
    /// still *adds* counters, so mirror each source into only one replica.
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

    /// Records `value` into sketch `name`, creating the sketch with
    /// `relative_error` on first use.
    pub fn observe(&mut self, name: &str, value: f64, relative_error: f64) {
        if let Some(s) = self.sketches.get_mut(name) {
            s.insert(value);
        } else {
            let mut s = QuantileSketch::new(relative_error);
            s.insert(value);
            self.sketches.insert(name.to_owned(), s);
        }
    }

    /// Installs a pre-built sketch under `name`, replacing any existing
    /// one. Used when folding dense collector state into the registry.
    pub fn install_sketch(&mut self, name: &str, sketch: QuantileSketch) {
        self.sketches.insert(name.to_owned(), sketch);
    }

    /// The sketch registered under `name`.
    #[must_use]
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates sketches in name order.
    pub fn sketches(&self) -> impl Iterator<Item = (&str, &QuantileSketch)> {
        self.sketches.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value (it is the later write in an ordered reduction), sketches
    /// merge bucket-wise.
    ///
    /// # Errors
    ///
    /// Propagates [`QuantileSketch::merge`] mismatched-α failures.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        for (name, &v) in &other.counters {
            self.inc(name, v);
        }
        for (name, &v) in &other.gauges {
            self.gauges.insert(name.clone(), v);
        }
        for (name, sketch) in &other.sketches {
            if let Some(mine) = self.sketches.get_mut(name) {
                mine.merge(sketch)?;
            } else {
                self.sketches.insert(name.clone(), sketch.clone());
            }
        }
        Ok(())
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
    fn counters_gauges_sketches_round_trip() {
        let mut r = MetricsRegistry::new();
        r.inc("spans", 3);
        r.inc("spans", 2);
        r.set_gauge("sampling", 0.01);
        r.observe("latency_ms", 10.0, 0.01);
        r.observe("latency_ms", 20.0, 0.01);
        assert_eq!(r.counter("spans"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("sampling"), Some(0.01));
        assert_eq!(r.sketch("latency_ms").unwrap().count(), 2);
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

    #[test]
    fn merge_adds_counters_and_sketches() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("spans", 1);
        b.inc("spans", 4);
        b.set_gauge("round", 2.0);
        a.observe("l", 1.0, 0.01);
        b.observe("l", 100.0, 0.01);
        b.observe("only_b", 7.0, 0.01);
        a.merge(&b).unwrap();
        assert_eq!(a.counter("spans"), 5);
        assert_eq!(a.gauge("round"), Some(2.0));
        assert_eq!(a.sketch("l").unwrap().count(), 2);
        assert_eq!(a.sketch("only_b").unwrap().count(), 1);
    }
}
