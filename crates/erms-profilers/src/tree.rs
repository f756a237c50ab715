//! A CART regression tree, used directly (cut-off model of §5.2) and as
//! the weak learner of the GBDT baseline.

use crate::Regressor;

/// Hyper-parameters of a regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate thresholds examined per feature (quantiles).
    pub candidate_thresholds: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_samples_split: 8,
            candidate_thresholds: 16,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum TreeNode {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART regression tree (piecewise-constant prediction).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegressionTree {
    config: TreeConfig,
    nodes: Vec<TreeNode>,
}

impl RegressionTree {
    /// Creates an unfitted tree with the given configuration (predicts 0
    /// until [`Regressor::fit`] is called).
    pub(crate) fn new(config: TreeConfig) -> Self {
        Self {
            config,
            nodes: vec![TreeNode::Leaf(0.0)],
        }
    }

    /// Exposes the tree as `(feature, threshold, left, right)` splits and
    /// leaf values, for export into
    /// [`erms_core::latency::CutoffTree`]-style structures.
    pub(crate) fn export(&self) -> Vec<ExportedNode> {
        self.nodes
            .iter()
            .map(|n| match n {
                TreeNode::Leaf(v) => ExportedNode::Leaf(*v),
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => ExportedNode::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
            })
            .collect()
    }

    fn build(&mut self, x: &[Vec<f64>], y: &[f64], indices: &[usize], depth: usize) -> usize {
        let mean = mean_of(y, indices);
        let node_id = self.nodes.len();
        self.nodes.push(TreeNode::Leaf(mean));
        if depth >= self.config.max_depth
            || indices.len() < self.config.min_samples_split
            || variance_of(y, indices, mean) < 1e-12
        {
            return node_id;
        }
        let Some((feature, threshold)) = self.best_split(x, y, indices) else {
            return node_id;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| x[i][feature] < threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return node_id;
        }
        let left = self.build(x, y, &left_idx, depth + 1);
        let right = self.build(x, y, &right_idx, depth + 1);
        self.nodes[node_id] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }

    // Index loop: `feature` indexes the *inner* vec of every row, not a
    // single slice, and is also part of the returned split.
    #[allow(clippy::needless_range_loop)]
    fn best_split(&self, x: &[Vec<f64>], y: &[f64], indices: &[usize]) -> Option<(usize, f64)> {
        let d = x.first()?.len();
        let total_sum: f64 = indices.iter().map(|&i| y[i]).sum();
        let total_count = indices.len() as f64;
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for feature in 0..d {
            let mut values: Vec<f64> = indices.iter().map(|&i| x[i][feature]).collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            let step =
                (values.len() as f64 / (self.config.candidate_thresholds + 1) as f64).max(1.0);
            let mut k = step;
            while (k as usize) < values.len() {
                let threshold = 0.5 * (values[k as usize - 1] + values[k as usize]);
                // Score: reduction in SSE = maximise Σl²/nl + Σr²/nr.
                let mut left_sum = 0.0;
                let mut left_count = 0.0;
                for &i in indices {
                    if x[i][feature] < threshold {
                        left_sum += y[i];
                        left_count += 1.0;
                    }
                }
                let right_sum = total_sum - left_sum;
                let right_count = total_count - left_count;
                if left_count > 0.0 && right_count > 0.0 {
                    let score =
                        left_sum * left_sum / left_count + right_sum * right_sum / right_count;
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((feature, threshold, score));
                    }
                }
                k += step;
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

/// A tree node in exported form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ExportedNode {
    /// Leaf with predicted value.
    Leaf(f64),
    /// Internal split.
    Split {
        /// Feature index.
        feature: usize,
        /// `feature < threshold` goes left.
        threshold: f64,
        /// Left child node index.
        left: usize,
        /// Right child node index.
        right: usize,
    },
}

impl Default for RegressionTree {
    fn default() -> Self {
        Self::new(TreeConfig::default())
    }
}

impl Regressor for RegressionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "row/target count mismatch");
        self.nodes.clear();
        if x.is_empty() {
            self.nodes.push(TreeNode::Leaf(0.0));
            return;
        }
        let indices: Vec<usize> = (0..x.len()).collect();
        self.build(x, y, &indices, 0);
    }

    fn predict(&self, row: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                TreeNode::Leaf(v) => return *v,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row.get(*feature).copied().unwrap_or(0.0) < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

fn mean_of(y: &[f64], indices: &[usize]) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64
}

fn variance_of(y: &[f64], indices: &[usize], mean: f64) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    indices.iter().map(|&i| (y[i] - mean).powi(2)).sum::<f64>() / indices.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_step_function_exactly() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let mut tree = RegressionTree::default();
        tree.fit(&x, &y);
        assert!((tree.predict(&[10.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[90.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let mut tree = RegressionTree::new(TreeConfig {
            max_depth: 2,
            ..TreeConfig::default()
        });
        tree.fit(&x, &y);
        // Depth 2 -> at most 7 nodes.
        assert!(tree.nodes.len() <= 7, "{}", tree.nodes.len());
    }

    #[test]
    fn two_feature_interaction() {
        // y depends on feature 1 only.
        let x: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 7) as f64, (i / 100) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[1] * 10.0).collect();
        let mut tree = RegressionTree::default();
        tree.fit(&x, &y);
        assert!((tree.predict(&[3.0, 0.0]) - 0.0).abs() < 1e-6);
        assert!((tree.predict(&[3.0, 1.0]) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut tree = RegressionTree::default();
        tree.fit(&[], &[]);
        assert_eq!(tree.predict(&[1.0]), 0.0);
    }

    #[test]
    fn constant_target_single_leaf() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y = vec![3.5; 50];
        let mut tree = RegressionTree::default();
        tree.fit(&x, &y);
        assert_eq!(tree.nodes.len(), 1);
        assert!((tree.predict(&[7.0]) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn export_round_trip() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let mut tree = RegressionTree::default();
        tree.fit(&x, &y);
        let exported = tree.export();
        assert_eq!(exported.len(), tree.nodes.len());
        assert!(matches!(exported[0], ExportedNode::Split { .. }));
    }
}
