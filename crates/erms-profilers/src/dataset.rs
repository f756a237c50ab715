//! Profiling datasets: one sample per microservice per minute (§5.2).

use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One profiling observation `d = (L, γ, C, M)` (§5.2): the tail latency of
/// all calls in one minute, the per-container call rate, and the average
/// host CPU/memory utilisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Observed tail latency in milliseconds.
    pub latency_ms: f64,
    /// Calls per minute per container.
    pub gamma: f64,
    /// Host CPU utilisation in `[0, 1]`.
    pub cpu: f64,
    /// Host memory utilisation in `[0, 1]`.
    pub mem: f64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(latency_ms: f64, gamma: f64, cpu: f64, mem: f64) -> Self {
        Self {
            latency_ms,
            gamma,
            cpu,
            mem,
        }
    }

    /// The regression feature row `[γ, C, M]`.
    pub(crate) fn features(&self) -> Vec<f64> {
        vec![self.gamma, self.cpu, self.mem]
    }
}

/// A set of profiling samples with train/test utilities.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Creates a dataset from samples.
    pub fn new(samples: Vec<Sample>) -> Self {
        Self { samples }
    }

    /// Feature matrix (`[γ, C, M]` rows) and target vector.
    pub fn xy(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        (
            self.samples.iter().map(Sample::features).collect(),
            self.samples.iter().map(|s| s.latency_ms).collect(),
        )
    }

    /// Chronological split: the first `fraction` of samples for training,
    /// the rest for testing — mirroring the paper's "first 22 hours train,
    /// remaining test" protocol (§6.2).
    pub fn split_chronological(&self, fraction: f64) -> (Dataset, Dataset) {
        let cut = ((self.samples.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let cut = cut.min(self.samples.len());
        (
            Dataset::new(self.samples[..cut].to_vec()),
            Dataset::new(self.samples[cut..].to_vec()),
        )
    }

    /// Deterministically shuffled copy (for subsampling experiments like
    /// Fig. 10b).
    #[must_use]
    pub fn shuffled(&self, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut samples = self.samples.clone();
        samples.shuffle(&mut rng);
        Dataset::new(samples)
    }

    /// The first `fraction` of the dataset (use after
    /// [`shuffled`](Self::shuffled) for random subsampling).
    #[must_use]
    pub fn take_fraction(&self, fraction: f64) -> Dataset {
        let n = ((self.samples.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        Dataset::new(self.samples[..n.min(self.samples.len())].to_vec())
    }
}

impl FromIterator<Sample> for Dataset {
    fn from_iter<T: IntoIterator<Item = Sample>>(iter: T) -> Self {
        Dataset::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        (0..n)
            .map(|i| Sample::new(i as f64, i as f64 * 2.0, 0.5, 0.5))
            .collect()
    }

    #[test]
    fn chronological_split_keeps_order() {
        let d = toy(10);
        let (train, test) = d.split_chronological(0.7);
        assert_eq!(train.samples.len(), 7);
        assert_eq!(test.samples.len(), 3);
        assert_eq!(train.samples[6].latency_ms, 6.0);
        assert_eq!(test.samples[0].latency_ms, 7.0);
    }

    #[test]
    fn shuffle_is_deterministic() {
        let d = toy(20);
        let a = d.shuffled(42);
        let b = d.shuffled(42);
        assert_eq!(a, b);
        assert_ne!(a.samples, d.samples);
    }

    #[test]
    fn take_fraction_truncates() {
        let d = toy(10);
        assert_eq!(d.take_fraction(0.5).samples.len(), 5);
        assert_eq!(d.take_fraction(2.0).samples.len(), 10);
        assert_eq!(d.take_fraction(0.0).samples.len(), 0);
    }

    #[test]
    fn xy_layout() {
        let d = toy(3);
        let (x, y) = d.xy();
        assert_eq!(x.len(), 3);
        assert_eq!(x[1], vec![2.0, 0.5, 0.5]);
        assert_eq!(y, vec![0.0, 1.0, 2.0]);
    }
}
