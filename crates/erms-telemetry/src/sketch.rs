//! Mergeable log-bucketed quantile sketch with a fixed relative-error
//! guarantee (DDSketch-style).
//!
//! # Error model
//!
//! For a configured relative error `α`, values are bucketed on a
//! logarithmic grid with base `γ = (1 + α) / (1 − α)`: value `x > 0`
//! lands in bucket `k = ⌈ln x / ln γ⌉`, which covers `(γ^(k−1), γ^k]`.
//! A bucket is summarised by its multiplicative midpoint
//! `2·γ^k / (γ + 1)`, so any value in the bucket is reported within
//! relative error `α`. Quantiles use the same nearest-rank definition as
//! `erms_core::stats::percentile` (1-based rank `max(1, ⌈q·n⌉)`), walk
//! the cumulative bucket counts to that rank, and therefore return the
//! *exact* sample's bucket midpoint: the estimate is within `α·x` of the
//! exact nearest-rank answer `x` (property-tested against
//! `erms_core::stats` in `tests/sketch_accuracy.rs`).
//!
//! # Merge
//!
//! Two sketches with the same `α` share a grid, so merging is bucket-wise
//! count addition — associative and commutative up to the usual `f64`
//! summation caveat on the tracked `sum` (bucket counts are integers and
//! merge exactly). This is what makes the sketch safe for
//! `erms_sim::replicate`'s ordered reduction: merging per-replica
//! sketches in replica order is bit-deterministic for any thread count.
//!
//! # Memory
//!
//! Buckets are a dense `Vec<u64>` offset by the lowest occupied key —
//! latency distributions occupy a contiguous log-range, so this is both
//! smaller and faster than a hash map. When the span of occupied keys
//! exceeds [`DEFAULT_MAX_BINS`], the *lowest* buckets collapse into one, which
//! degrades accuracy only for the smallest values — tail quantiles, the
//! quantity Erms plans against, keep the full guarantee.

use erms_core::error::{Error, Result};

/// Default relative error (1%).
pub const DEFAULT_RELATIVE_ERROR: f64 = 0.01;

/// Cap on the number of buckets. At α = 1%, 1 600 buckets span
/// more than 13 decades — far beyond any latency range the simulator
/// produces — while bounding memory at ~13 KiB per sketch.
pub const DEFAULT_MAX_BINS: usize = 1_600;

/// Values below this are counted as zeros (the log grid cannot hold 0).
const MIN_TRACKABLE: f64 = 1e-9;

/// A mergeable quantile sketch over non-negative `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    gamma: f64,
    ln_gamma: f64,
    /// Key of `buckets[0]`; meaningful only when `buckets` is non-empty.
    min_key: i32,
    buckets: Vec<u64>,
    /// Samples below [`MIN_TRACKABLE`] (including exact zeros).
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_RELATIVE_ERROR)
    }
}

impl QuantileSketch {
    /// Creates a sketch guaranteeing the given relative error on
    /// quantiles. `relative_error` is clamped to `[1e-4, 0.4]`.
    #[must_use]
    pub fn new(relative_error: f64) -> Self {
        let alpha = if relative_error.is_finite() {
            relative_error.clamp(1e-4, 0.4)
        } else {
            DEFAULT_RELATIVE_ERROR
        };
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            min_key: 0,
            buckets: Vec::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of samples inserted.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no sample was inserted yet.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (exact up to `f64` accumulation order).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (exact); `0.0` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (exact); `0.0` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The non-empty buckets as `(key, count)` pairs, lowest key first.
    /// Integer state — used by determinism tests to compare sketches
    /// exactly regardless of `f64` summation order.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<(i32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.min_key + i as i32, c))
            .collect()
    }

    /// Inserts one sample. Negative, NaN and infinite values are
    /// ignored (latencies are non-negative by construction; a sketch
    /// must never poison itself on garbage input).
    #[inline]
    pub fn insert(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value < MIN_TRACKABLE {
            self.zero_count += 1;
            return;
        }
        let key = self.key_of(value);
        self.bump(key, 1);
        if self.buckets.len() > DEFAULT_MAX_BINS {
            self.enforce_bins();
        }
    }

    /// Merges `other` into `self`: bucket-wise count addition on the
    /// shared grid. Commutative and associative on all integer state
    /// (counts, buckets, min/max bits); the tracked `sum` commutes but —
    /// like any `f64` accumulation — is only approximately associative.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when the sketches were configured
    /// with different relative errors (their grids are incompatible).
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.alpha.to_bits() != other.alpha.to_bits() {
            return Err(Error::InvalidParameter(format!(
                "cannot merge quantile sketches with different relative errors \
                 ({} vs {})",
                self.alpha, other.alpha
            )));
        }
        if other.count == 0 {
            return Ok(());
        }
        self.count += other.count;
        self.sum += other.sum;
        self.zero_count += other.zero_count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (i, &c) in other.buckets.iter().enumerate() {
            if c > 0 {
                self.bump(other.min_key + i as i32, c);
            }
        }
        self.enforce_bins();
        Ok(())
    }

    /// Returns a merged copy of `self` and `other`.
    ///
    /// # Errors
    ///
    /// Same as [`merge`](Self::merge).
    pub fn merged(&self, other: &Self) -> Result<Self> {
        let mut out = self.clone();
        out.merge(other)?;
        Ok(out)
    }

    /// The nearest-rank `q`-quantile estimate, within relative error α
    /// of the exact answer (`erms_core::stats::percentile` on the same
    /// samples). Returns `0.0` on an empty sketch.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Same 1-based rank as erms_core::stats::nearest_rank.
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64)
            .max(1)
            .min(self.count);
        if rank <= self.zero_count {
            return 0.0;
        }
        let mut cumulative = self.zero_count;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let key = self.min_key + i as i32;
                // Clamping to the observed extremes can only move the
                // estimate toward the exact sample, never past it.
                return self.value_of(key).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Bucket key of a trackable (≥ [`MIN_TRACKABLE`]) value.
    #[inline]
    fn key_of(&self, value: f64) -> i32 {
        (value.ln() / self.ln_gamma).ceil() as i32
    }

    /// Midpoint estimate `2·γ^k / (γ + 1)` of bucket `k`, computed in
    /// log space so extreme keys cannot overflow.
    #[inline]
    fn value_of(&self, key: i32) -> f64 {
        (self.ln_gamma * f64::from(key)).exp() * 2.0 / (self.gamma + 1.0)
    }

    /// Adds `n` to bucket `key`, growing the dense range as needed.
    /// Growth is the cold path: once a latency range is seen, inserts
    /// touch existing slots only.
    fn bump(&mut self, key: i32, n: u64) {
        if self.buckets.is_empty() {
            self.min_key = key;
            self.buckets.push(n);
            return;
        }
        if key < self.min_key {
            let grow = (self.min_key - key) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.min_key = key;
        } else {
            let idx = (key - self.min_key) as usize;
            if idx >= self.buckets.len() {
                self.buckets.resize(idx + 1, 0);
            }
        }
        self.buckets[(key - self.min_key) as usize] += n;
    }

    /// Collapses the lowest buckets into one until the span fits
    /// [`DEFAULT_MAX_BINS`] (low — not tail — quantiles may then exceed the
    /// α bound). One pass, so a far-below-range outlier cannot cause
    /// quadratic work.
    fn enforce_bins(&mut self) {
        if self.buckets.len() <= DEFAULT_MAX_BINS {
            return;
        }
        let excess = self.buckets.len() - DEFAULT_MAX_BINS;
        let merged: u64 = self.buckets[..=excess].iter().sum();
        self.buckets.drain(..excess);
        self.buckets[0] = merged;
        self.min_key += excess as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_is_zeroed() {
        let s = QuantileSketch::new(0.01);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_value_round_trips_within_alpha() {
        let mut s = QuantileSketch::new(0.01);
        s.insert(42.0);
        for q in [0.0, 0.5, 0.95, 1.0] {
            let est = s.quantile(q);
            assert!((est - 42.0).abs() <= 0.01 * 42.0 + 1e-9, "q={q}: {est}");
        }
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn zeros_and_garbage_are_handled() {
        let mut s = QuantileSketch::new(0.02);
        s.insert(0.0);
        s.insert(0.0);
        s.insert(f64::NAN);
        s.insert(-3.0);
        s.insert(f64::INFINITY);
        s.insert(10.0);
        assert_eq!(s.count(), 3); // two zeros + 10.0
        assert_eq!(s.quantile(0.5), 0.0);
        let p99 = s.quantile(0.99);
        assert!((p99 - 10.0).abs() <= 0.02 * 10.0 + 1e-9, "{p99}");
    }

    #[test]
    fn collapse_keeps_tail_accuracy() {
        let mut s = QuantileSketch::new(0.01);
        // Sixteen decades of values, every bucket hit, force a collapse at
        // the 1 600 bins that span about 13.9 decades at α = 1 %.
        for i in 0..16_000u32 {
            s.insert(1e-8 * 10f64.powf(f64::from(i) / 1_000.0));
        }
        s.insert(5e8);
        assert!(s.bucket_counts().len() <= DEFAULT_MAX_BINS);
        let p100 = s.quantile(1.0);
        assert!((p100 - 5e8).abs() <= 0.01 * 5e8, "{p100}");
    }

    #[test]
    fn merge_rejects_mismatched_alpha() {
        let a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.05);
        assert!(a.merged(&b).is_err());
    }

    #[test]
    fn merge_is_count_exact() {
        let mut a = QuantileSketch::new(0.01);
        let mut b = QuantileSketch::new(0.01);
        for i in 1..=100 {
            a.insert(f64::from(i));
            b.insert(f64::from(i) * 10.0);
        }
        let m = a.merged(&b).unwrap();
        assert_eq!(m.count(), 200);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 1_000.0);
        // p100 of the merge is b's max.
        assert!((m.quantile(1.0) - 1_000.0).abs() <= 10.0 + 1e-9);
    }
}
