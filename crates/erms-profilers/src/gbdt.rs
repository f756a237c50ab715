//! Gradient-boosted regression trees — the "XGBoost" baseline of Fig. 10.
//!
//! Squared-error boosting: each round fits a shallow CART tree to the
//! current residuals and adds it with a shrinkage factor. This reproduces
//! the qualitative behaviour the paper reports for XGBoost (high accuracy
//! with enough data, competitive with the piecewise-linear fit).

use crate::tree::{RegressionTree, TreeConfig};
use crate::Regressor;

/// Hyper-parameters of the booster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GbdtConfig {
    /// Number of boosting rounds.
    pub rounds: usize,
    /// Shrinkage (learning rate) applied to each tree.
    pub learning_rate: f64,
    /// Weak-learner tree configuration.
    pub tree: TreeConfig,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            rounds: 60,
            learning_rate: 0.15,
            tree: TreeConfig {
                max_depth: 3,
                min_samples_split: 8,
                candidate_thresholds: 12,
            },
        }
    }
}

/// A gradient-boosted tree ensemble for regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Gbdt {
    config: GbdtConfig,
    base: f64,
    trees: Vec<RegressionTree>,
}

impl Gbdt {
    /// Creates an unfitted booster.
    pub(crate) fn new(config: GbdtConfig) -> Self {
        Self {
            config,
            base: 0.0,
            trees: Vec::new(),
        }
    }
}

impl Default for Gbdt {
    fn default() -> Self {
        Self::new(GbdtConfig::default())
    }
}

impl Regressor for Gbdt {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "row/target count mismatch");
        self.trees.clear();
        if y.is_empty() {
            self.base = 0.0;
            return;
        }
        self.base = y.iter().sum::<f64>() / y.len() as f64;
        let mut residuals: Vec<f64> = y.iter().map(|v| v - self.base).collect();
        for _ in 0..self.config.rounds {
            let mut tree = RegressionTree::new(self.config.tree);
            tree.fit(x, &residuals);
            for (i, row) in x.iter().enumerate() {
                residuals[i] -= self.config.learning_rate * tree.predict(row);
            }
            self.trees.push(tree);
            // Early stop once residuals are negligible.
            let sse: f64 = residuals.iter().map(|r| r * r).sum();
            if sse / (y.len() as f64) < 1e-10 {
                break;
            }
        }
    }

    fn predict(&self, row: &[f64]) -> f64 {
        self.base
            + self.config.learning_rate * self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    #[test]
    fn fits_nonlinear_curve() {
        let x: Vec<Vec<f64>> = (1..300).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| (r[0] / 30.0).sin() * 10.0 + 20.0)
            .collect();
        let mut model = Gbdt::default();
        model.fit(&x, &y);
        let preds = model.predict_batch(&x);
        assert!(accuracy(&y, &preds) > 0.95, "{}", accuracy(&y, &preds));
    }

    #[test]
    fn empty_fit_is_safe() {
        let mut model = Gbdt::default();
        model.fit(&[], &[]);
        assert_eq!(model.predict(&[1.0]), 0.0);
    }

    #[test]
    fn constant_target_early_stops() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 50];
        let mut model = Gbdt::default();
        model.fit(&x, &y);
        assert!(model.trees.len() <= 2, "{}", model.trees.len());
        assert!((model.predict(&[10.0]) - 7.0).abs() < 1e-6);
    }
}
