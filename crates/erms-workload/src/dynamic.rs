//! Alibaba-shaped dynamic workloads (§6.3.2).
//!
//! The paper replays production workloads from Alibaba clusters, which are
//! dominated by a diurnal pattern with sharp request spikes. This module
//! generates per-minute request-rate series with that shape: a sinusoidal
//! base load, multiplicative noise, and occasional short bursts.

use erms_core::app::RequestRate;
use rand::Rng;
use rand::SeedableRng;

/// Configuration of the dynamic workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicWorkload {
    /// Mean request rate (req/min).
    pub base: f64,
    /// Diurnal amplitude as a fraction of `base` (0–1).
    pub amplitude: f64,
    /// Diurnal period in minutes (1440 = one day).
    pub period_min: f64,
    /// Multiplicative noise level (lognormal-ish, fraction of the rate).
    pub noise: f64,
    /// Per-minute probability of starting a burst.
    pub burst_prob: f64,
    /// Burst magnitude as a multiple of the current rate.
    pub burst_scale: f64,
    /// Burst duration in minutes.
    pub burst_minutes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DynamicWorkload {
    fn default() -> Self {
        Self {
            base: 20_000.0,
            amplitude: 0.6,
            period_min: 1_440.0,
            noise: 0.08,
            burst_prob: 0.02,
            burst_scale: 1.8,
            burst_minutes: 3,
            seed: 11,
        }
    }
}

impl DynamicWorkload {
    /// Generates a per-minute rate series of the given length.
    pub fn series(&self, minutes: usize) -> Vec<RequestRate> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut burst_left = 0usize;
        (0..minutes)
            .map(|m| {
                let phase = 2.0 * std::f64::consts::PI * (m as f64) / self.period_min;
                let diurnal = 1.0 + self.amplitude * phase.sin();
                let noise = 1.0 + self.noise * (rng.gen::<f64>() * 2.0 - 1.0);
                if burst_left > 0 {
                    burst_left -= 1;
                } else if rng.gen_bool(self.burst_prob.clamp(0.0, 1.0)) {
                    burst_left = self.burst_minutes;
                }
                let burst = if burst_left > 0 {
                    self.burst_scale
                } else {
                    1.0
                };
                RequestRate::per_minute((self.base * diurnal * noise * burst).max(0.0))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_has_diurnal_swing() {
        let w = DynamicWorkload {
            burst_prob: 0.0,
            noise: 0.0,
            period_min: 100.0,
            ..DynamicWorkload::default()
        };
        let series = w.series(100);
        let max = series.iter().map(|r| r.as_per_minute()).fold(0.0, f64::max);
        let min = series
            .iter()
            .map(|r| r.as_per_minute())
            .fold(f64::INFINITY, f64::min);
        assert!(max > 1.5 * min, "max {max} min {min}");
    }

    #[test]
    fn bursts_exceed_envelope() {
        let base = DynamicWorkload {
            burst_prob: 0.0,
            ..DynamicWorkload::default()
        };
        let bursty = DynamicWorkload {
            burst_prob: 0.1,
            burst_scale: 3.0,
            ..DynamicWorkload::default()
        };
        let calm_max = base
            .series(500)
            .iter()
            .map(|r| r.as_per_minute())
            .fold(0.0, f64::max);
        let burst_max = bursty
            .series(500)
            .iter()
            .map(|r| r.as_per_minute())
            .fold(0.0, f64::max);
        assert!(burst_max > 1.5 * calm_max);
    }

    #[test]
    fn deterministic_and_non_negative() {
        let w = DynamicWorkload::default();
        let a = w.series(200);
        let b = w.series(200);
        assert_eq!(a, b);
        assert!(a.iter().all(|r| r.as_per_minute() >= 0.0));
    }
}
