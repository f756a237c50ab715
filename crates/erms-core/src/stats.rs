//! The workspace's single statistics implementation.
//!
//! Percentiles, means, variances and correlations used to be computed by
//! three near-identical private copies (`erms-sim`, `erms-baselines`,
//! `erms-profilers`) plus a fourth in `erms-trace`. They now all delegate
//! here, so every crate answers "what is the p95?" with the same element
//! of the same order.
//!
//! # Quantile definition
//!
//! All percentiles are **nearest-rank**: for a sample of size `n` sorted
//! ascending, the `p`-quantile (with `p` clamped to `[0, 1]`) is the
//! element at index `max(1, ceil(p · n)) − 1`, clamped to `n − 1`. This
//! always returns an actual sample (never an interpolated value),
//! `p = 0` returns the minimum, `p = 1` the maximum, and a single-sample
//! input returns that sample for every `p`. Empty inputs return 0 from
//! every function here — simulation code treats "no observations" as
//! zero latency rather than an error.
//!
//! Ordering is [`f64::total_cmp`]; the simulator only produces finite
//! values, so this matters only in that it keeps sorting well-defined.
//!
//! Two access patterns are served:
//!
//! * one-shot queries over unsorted samples — [`percentile`] selects the
//!   nearest-rank element in O(n) with `select_nth_unstable_by`, without
//!   sorting the whole slice;
//! * repeated queries over the same samples — sort once with
//!   [`sort_samples`], then answer any number of [`percentile_sorted`] /
//!   [`fraction_above_sorted`] queries in O(1) / O(log n).
//!
//! Cross-crate agreement (including the empty and single-sample edge
//! cases) is pinned by `tests/stats_agreement.rs` at the workspace root.

use std::cmp::Ordering;

/// Index of the nearest-rank percentile element in a `len`-element sample
/// (`len` ≥ 1): the rank every percentile here selects, for a caller that
/// selects it in place.
pub fn nearest_rank(len: usize, p: f64) -> usize {
    let rank = ((p.clamp(0.0, 1.0) * len as f64).ceil() as usize).max(1) - 1;
    rank.min(len - 1)
}

/// Nearest-rank percentile of an unsorted slice (0 for empty input).
///
/// Copies the input once and selects the rank element in O(n); the input
/// itself is left untouched. Prefer [`percentile_sorted`] when querying
/// several percentiles of the same sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut scratch = values.to_vec();
    let rank = nearest_rank(scratch.len(), p);
    let (_, element, _) = scratch.select_nth_unstable_by(rank, f64::total_cmp);
    *element
}

/// Sorts a sample ascending for use with the `_sorted` query helpers.
///
/// Total order: finite values ascend as usual; the simulator only produces
/// finite latencies, so NaN placement is irrelevant but well-defined.
pub fn sort_samples(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending-sorted slice (0 for empty
/// input). O(1).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p)]
}

/// Arithmetic mean (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance (0 for empty input).
pub fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|x| (x - m).powi(2)).sum::<f64>() / values.len() as f64
}

/// Pearson correlation of two equal-length series.
///
/// Returns 0 when either series has zero variance (including empty and
/// single-sample inputs, where correlation is undefined).
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let ma = mean(a);
    let mb = mean(b);
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Fraction of values strictly above a threshold.
pub fn fraction_above(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v > threshold).count() as f64 / values.len() as f64
}

/// Fraction of an ascending-sorted slice strictly above a threshold.
/// O(log n) via binary search.
pub fn fraction_above_sorted(sorted: &[f64], threshold: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // First index whose value is strictly greater than the threshold.
    let above_from = sorted
        .partition_point(|&v| matches!(v.total_cmp(&threshold), Ordering::Less | Ordering::Equal));
    (sorted.len() - above_from) as f64 / sorted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_agrees_with_full_sort_on_shuffled_input() {
        // Deterministic pseudo-shuffle; the selection-based percentile must
        // equal the historical copy+sort implementation for every p.
        let mut v: Vec<f64> = (0..257).map(|i| ((i * 7919) % 263) as f64 * 0.5).collect();
        for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let via_select = percentile(&v, p);
            let mut sorted = v.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
            assert_eq!(via_select, sorted[rank.min(sorted.len() - 1)], "p={p}");
        }
        sort_samples(&mut v);
        for p in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(percentile_sorted(&v, p), percentile(&v, p), "p={p}");
        }
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&[3.25], p), 3.25, "p={p}");
            assert_eq!(percentile_sorted(&[3.25], p), 3.25, "p={p}");
        }
    }

    #[test]
    fn mean_variance_and_fraction() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), 2.5);
        assert_eq!(variance(&v), 1.25);
        assert_eq!(fraction_above(&v, 2.5), 0.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(fraction_above(&[], 1.0), 0.0);
    }

    #[test]
    fn pearson_of_identical_series_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&a, &a) - 1.0).abs() < 1e-12);
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson(&a, &b) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn sorted_fraction_matches_linear_scan() {
        let mut v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let linear: Vec<f64> = [0.5, 1.0, 2.0, 4.0, 9.0, 10.0]
            .iter()
            .map(|&t| fraction_above(&v, t))
            .collect();
        sort_samples(&mut v);
        for (i, &t) in [0.5, 1.0, 2.0, 4.0, 9.0, 10.0].iter().enumerate() {
            assert_eq!(fraction_above_sorted(&v, t), linear[i], "t={t}");
        }
        assert_eq!(fraction_above_sorted(&[], 1.0), 0.0);
    }
}
