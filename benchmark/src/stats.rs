//! Order statistics the report is built from: nearest-rank percentiles,
//! the "at least ten samples beyond" tail picker, and the quartile spread
//! used as every host-time metric's noise floor.

/// Tail percentiles a latency may be reported at, highest first. P95 is the
/// paper's SLA percentile, so nothing above it is ever reported.
pub const TAIL_LADDER: [f64; 3] = [0.95, 0.90, 0.50];

/// Samples a tail percentile needs beyond it before it is worth reporting.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least a share `p` of all samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile of unsorted samples; 0 when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when none does.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= rank(n, p) + MIN_BEYOND)
        .unwrap_or(0.50)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the acceptance driver computes its
/// spreads that way, so the noise floor printed here is comparable.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 when fewer
/// than two values exist or the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.90), 90.0);
        assert_eq!(percentile_sorted(&v, 0.95), 95.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        // Nearest rank never interpolates: 5 samples, p50 is the third.
        assert_eq!(percentile(&[9.0, 1.0, 7.0, 3.0, 5.0], 0.50), 5.0);
        assert_eq!(percentile(&[9.0, 1.0, 7.0, 3.0, 5.0], 0.61), 7.0);
        assert_eq!(percentile(&[4.0], 0.95), 4.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        // n = 100: p95 leaves 5 beyond, p90 exactly 10.
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(99), 0.50);
        // n = 200 is the first size where p95 leaves 10 beyond.
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(2500), 0.95);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(10), 0.50);
        assert_eq!(tail_percentile(25), 0.50);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(spread(&ten), 5.5 / 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
