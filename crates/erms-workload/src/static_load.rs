//! Static workload levels and SLA settings of the paper's evaluation
//! (§6.1): per-service request rates from 600 (low) to 100 000 (high)
//! requests per minute, and P95 SLA targets from 50 ms (low) to 200 ms
//! (high).

use erms_core::app::RequestRate;

/// The static workload sweep of §6.3.1, in requests per minute.
pub fn workload_levels() -> Vec<RequestRate> {
    [
        600.0, 2_000.0, 6_000.0, 12_000.0, 25_000.0, 40_000.0, 60_000.0, 100_000.0,
    ]
    .into_iter()
    .map(RequestRate::per_minute)
    .collect()
}

/// The SLA sweep of §6.1, in milliseconds (P95 end-to-end latency).
pub fn sla_levels() -> Vec<f64> {
    vec![50.0, 100.0, 150.0, 200.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_range() {
        let levels = workload_levels();
        assert_eq!(levels.first().unwrap().as_per_minute(), 600.0);
        assert_eq!(levels.last().unwrap().as_per_minute(), 100_000.0);
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sla_levels_match_paper() {
        assert_eq!(sla_levels(), vec![50.0, 100.0, 150.0, 200.0]);
    }
}
