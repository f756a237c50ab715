//! Per-minute profiling observations (§5.2).
//!
//! The Offline Profiling module consumes, for every microservice, one
//! sample per minute: the tail latency of all calls in that minute, the
//! number of calls processed per deployed container, and the average host
//! CPU/memory utilisation. This module aggregates raw
//! [`LatencyObservation`]s into exactly that shape.

use std::collections::BTreeMap;

use crate::extract::LatencyObservation;
use erms_core::ids::MicroserviceId;
use erms_core::latency::Interference;

/// One per-minute profiling observation for a microservice — the
/// `d = (L, γ, C, M)` sample of §5.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinuteObservation {
    /// The microservice observed.
    pub microservice: MicroserviceId,
    /// Minute index since the start of the observation window.
    pub minute: u64,
    /// Tail (P95) latency of the calls in this minute, in ms.
    pub p95_ms: f64,
    /// Calls per minute per deployed container (γ).
    pub calls_per_container: f64,
    /// Average host CPU utilisation during the minute.
    pub cpu: f64,
    /// Average host memory utilisation during the minute.
    pub mem: f64,
    /// Number of calls contributing to the percentile.
    pub samples: usize,
}

/// The percentile of a mutable sample slice (nearest-rank).
///
/// Delegates to the shared [`erms_core::stats`] quantile definition; the
/// slice is left sorted ascending as before, so callers may issue
/// follow-up `_sorted` queries on it.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    erms_core::stats::sort_samples(values);
    erms_core::stats::percentile_sorted(values, p)
}

/// Aggregates raw latency observations into per-minute samples, given the
/// deployed container count per microservice and the interference level
/// that prevailed during the window.
///
/// Observations of microservices missing from `containers` (or with zero
/// containers) are skipped — without a deployment size, γ per container is
/// undefined.
pub fn per_minute_observations(
    observations: &[LatencyObservation],
    containers: &BTreeMap<MicroserviceId, u32>,
    interference: Interference,
    percentile_p: f64,
) -> Vec<MinuteObservation> {
    let mut buckets: BTreeMap<(MicroserviceId, u64), Vec<f64>> = BTreeMap::new();
    for obs in observations {
        let minute = (obs.at_ms / 60_000.0).floor().max(0.0) as u64;
        buckets
            .entry((obs.microservice, minute))
            .or_default()
            .push(obs.latency_ms);
    }
    let mut out = Vec::with_capacity(buckets.len());
    for ((ms, minute), mut latencies) in buckets {
        let Some(&n) = containers.get(&ms) else {
            continue;
        };
        if n == 0 {
            continue;
        }
        let samples = latencies.len();
        let p95 = percentile(&mut latencies, percentile_p);
        out.push(MinuteObservation {
            microservice: ms,
            minute,
            p95_ms: p95,
            calls_per_container: samples as f64 / n as f64,
            cpu: interference.cpu,
            mem: interference.memory,
            samples,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::ids::ServiceId;

    fn obs(ms: u32, at_ms: f64, latency: f64) -> LatencyObservation {
        LatencyObservation {
            microservice: MicroserviceId::new(ms),
            service: ServiceId::new(0),
            at_ms,
            latency_ms: latency,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&mut v, 0.95), 95.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn groups_by_minute_and_microservice() {
        let observations: Vec<_> = (0..120)
            .map(|i| obs(0, i as f64 * 1000.0, 10.0 + (i % 5) as f64))
            .collect();
        let containers: BTreeMap<_, _> = [(MicroserviceId::new(0), 4u32)].into_iter().collect();
        let out = per_minute_observations(
            &observations,
            &containers,
            Interference::new(0.4, 0.3),
            0.95,
        );
        assert_eq!(out.len(), 2, "two minutes of data");
        assert_eq!(out[0].samples, 60);
        assert!((out[0].calls_per_container - 15.0).abs() < 1e-9);
        assert_eq!(out[0].cpu, 0.4);
        assert!(out[0].p95_ms >= 13.0);
    }

    #[test]
    fn skips_microservices_without_deployment_size() {
        let observations = vec![obs(0, 0.0, 1.0), obs(1, 0.0, 2.0)];
        let containers: BTreeMap<_, _> = [(MicroserviceId::new(0), 1u32)].into_iter().collect();
        let out =
            per_minute_observations(&observations, &containers, Interference::default(), 0.95);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].microservice, MicroserviceId::new(0));
    }
}
