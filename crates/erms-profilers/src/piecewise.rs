//! Segmented (piecewise-linear) latency fitting — Erms' profiling model
//! (§5.2, Eq. 15).
//!
//! The fitter scans candidate knee positions σ over the workload quantiles;
//! for each candidate it fits both sides by least squares on the design
//! `L ≈ α·(C·γ) + β·(M·γ) + c·γ + b` and keeps the σ with the smallest
//! total squared error. A single-segment fit is also considered, so
//! microservices without a visible knee degenerate gracefully. The knee's
//! dependence on interference (§2.2: "interference forces the cut-off point
//! to move forward") is then learned by estimating a per-interference-bin
//! knee and fitting a CART tree over `(C, M)`, exported as the profile's
//! [`CutoffModel::Tree`].

use erms_core::latency::{CutoffModel, CutoffNode, CutoffTree, LatencyProfile, Segment};

use crate::dataset::Sample;
use crate::linreg::least_squares;
use crate::tree::{ExportedNode, RegressionTree, TreeConfig};
use crate::{FitError, Regressor};

/// Configuration of the piecewise fitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiecewiseFitter {
    /// Number of candidate knee positions scanned (workload quantiles).
    pub candidate_cutoffs: usize,
    /// Minimum samples required on each side of a candidate knee.
    pub min_segment_samples: usize,
    /// Two-segment fits must reduce the SSE by at least this factor over a
    /// single segment to be preferred (guards against spurious knees).
    pub knee_gain_threshold: f64,
    /// Side length of the interference grid used to estimate per-bin knees.
    pub interference_bins: usize,
    /// Configuration of the cut-off decision tree (§5.2 uses a decision
    /// tree to learn σ from interference).
    pub cutoff_tree: TreeConfig,
}

impl Default for PiecewiseFitter {
    fn default() -> Self {
        Self {
            candidate_cutoffs: 24,
            min_segment_samples: 6,
            knee_gain_threshold: 0.97,
            interference_bins: 4,
            cutoff_tree: TreeConfig {
                max_depth: 3,
                min_samples_split: 2,
                candidate_thresholds: 8,
            },
        }
    }
}

/// Design row for one sample: `[C·γ, M·γ, γ, 1]`.
fn design_row(s: &Sample) -> [f64; 4] {
    [s.cpu * s.gamma, s.mem * s.gamma, s.gamma, 1.0]
}

fn fit_segment(samples: &[&Sample]) -> Result<(Segment, f64), FitError> {
    let x: Vec<[f64; 4]> = samples.iter().map(|s| design_row(s)).collect();
    let y: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let beta = match least_squares(&x, &y) {
        Ok(beta) => beta,
        Err(FitError::Singular) => {
            // Degenerate design (e.g. constant workload): fall back to a
            // flat segment at the mean latency.
            let mean = y.iter().sum::<f64>() / y.len().max(1) as f64;
            let seg = Segment::new(0.0, 0.0, 0.0, mean);
            let sse = y.iter().map(|v| (v - mean).powi(2)).sum();
            return Ok((seg, sse));
        }
        Err(e) => return Err(e),
    };
    let seg = Segment::new(beta[0], beta[1], beta[2], beta[3]);
    let sse = x
        .iter()
        .zip(&y)
        .map(|(row, &target)| {
            let pred: f64 = row.iter().zip(&beta).map(|(a, b)| a * b).sum();
            (pred - target).powi(2)
        })
        .sum();
    Ok((seg, sse))
}

impl PiecewiseFitter {
    /// Fits a full [`LatencyProfile`] to profiling samples.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::TooFewSamples`] when fewer than
    /// `2·min_segment_samples` samples are supplied.
    pub fn fit(&self, samples: &[Sample]) -> Result<LatencyProfile, FitError> {
        let need = 2 * self.min_segment_samples;
        if samples.len() < need {
            return Err(FitError::TooFewSamples {
                got: samples.len(),
                need,
            });
        }
        let mut by_gamma: Vec<&Sample> = samples.iter().collect();
        by_gamma.sort_by(|a, b| {
            a.gamma
                .partial_cmp(&b.gamma)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // Single-segment reference fit.
        let (single_seg, single_sse) = fit_segment(&by_gamma)?;

        // Scan candidate knees over workload quantiles.
        let mut best: Option<(f64, Segment, Segment, f64)> = None; // (sigma, low, high, sse)
        for k in 1..=self.candidate_cutoffs {
            let pos = k * by_gamma.len() / (self.candidate_cutoffs + 1);
            if pos < self.min_segment_samples || by_gamma.len() - pos < self.min_segment_samples {
                continue;
            }
            let sigma = by_gamma[pos].gamma;
            // Skip duplicate candidates.
            if let Some((prev, ..)) = best {
                if (sigma - prev).abs() < f64::EPSILON {
                    continue;
                }
            }
            let low: Vec<&Sample> = by_gamma[..pos].to_vec();
            let high: Vec<&Sample> = by_gamma[pos..].to_vec();
            let Ok((low_seg, low_sse)) = fit_segment(&low) else {
                continue;
            };
            let Ok((high_seg, high_sse)) = fit_segment(&high) else {
                continue;
            };
            let sse = low_sse + high_sse;
            if best.as_ref().is_none_or(|(_, _, _, s)| sse < *s) {
                best = Some((sigma, low_seg, high_seg, sse));
            }
        }

        match best {
            Some((sigma, low, high, sse)) if sse < self.knee_gain_threshold * single_sse => {
                // Two candidate cut-off models: the interference-dependent
                // tree (§5.2) and a constant knee. Each is refined EM-style
                // and the one with the smaller squared error on the
                // training samples wins — noisy per-bin knee estimates must
                // not degrade the model below the constant-knee baseline.
                let tree = self
                    .fit_cutoff_model(samples, sigma)
                    .unwrap_or(CutoffModel::Constant(sigma));
                let candidates = [
                    self.refine(samples, LatencyProfile::new(low, high, tree)),
                    self.refine(
                        samples,
                        LatencyProfile::new(low, high, CutoffModel::Constant(sigma)),
                    ),
                ];
                let best_profile = candidates
                    .into_iter()
                    .min_by(|a, b| {
                        profile_sse(samples, a)
                            .partial_cmp(&profile_sse(samples, b))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("two candidates");
                Ok(best_profile)
            }
            _ => Ok(LatencyProfile::new(
                single_seg,
                single_seg,
                CutoffModel::Constant(f64::INFINITY),
            )),
        }
    }

    /// EM-style refinement: reassign each sample to a segment by the
    /// profile's (interference-dependent) cut-off and refit both segments;
    /// the initial segments were fitted against a single global γ-split,
    /// so samples past the knee of a busy interference bin can contaminate
    /// the low segment.
    fn refine(&self, samples: &[Sample], mut profile: LatencyProfile) -> LatencyProfile {
        for _ in 0..2 {
            let mut low_side: Vec<&Sample> = Vec::new();
            let mut high_side: Vec<&Sample> = Vec::new();
            for s in samples {
                let sigma_s = profile
                    .cutoff
                    .eval(erms_core::latency::Interference::new(s.cpu, s.mem));
                if s.gamma <= sigma_s {
                    low_side.push(s);
                } else {
                    high_side.push(s);
                }
            }
            if low_side.len() < self.min_segment_samples
                || high_side.len() < self.min_segment_samples
            {
                break;
            }
            let (Ok((low_seg, _)), Ok((high_seg, _))) =
                (fit_segment(&low_side), fit_segment(&high_side))
            else {
                break;
            };
            profile.low = low_seg;
            profile.high = high_seg;
        }
        profile
    }

    /// Learns the interference-dependent knee: estimate a knee per
    /// interference bin, then fit a decision tree over `(C, M)`.
    fn fit_cutoff_model(&self, samples: &[Sample], global_sigma: f64) -> Option<CutoffModel> {
        let bins = self.interference_bins.max(1);
        let bin_of = |v: f64| ((v * bins as f64) as usize).min(bins - 1);
        let mut grouped: std::collections::BTreeMap<(usize, usize), Vec<&Sample>> =
            std::collections::BTreeMap::new();
        for s in samples {
            grouped
                .entry((bin_of(s.cpu), bin_of(s.mem)))
                .or_default()
                .push(s);
        }
        let mut x = Vec::new();
        let mut y = Vec::new();
        for group in grouped.values() {
            if group.len() < 2 * self.min_segment_samples {
                continue;
            }
            if let Some(sigma) = knee_scan(group, self.min_segment_samples) {
                let cpu = group.iter().map(|s| s.cpu).sum::<f64>() / group.len() as f64;
                let mem = group.iter().map(|s| s.mem).sum::<f64>() / group.len() as f64;
                x.push(vec![cpu, mem]);
                y.push(sigma);
            }
        }
        if x.len() < 2 {
            return Some(CutoffModel::Constant(global_sigma));
        }
        let mut tree = RegressionTree::new(self.cutoff_tree);
        tree.fit(&x, &y);
        let nodes: Vec<CutoffNode> = tree
            .export()
            .into_iter()
            .map(|n| match n {
                ExportedNode::Leaf(v) => CutoffNode::Leaf(v.max(0.0)),
                ExportedNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => CutoffNode::Split {
                    feature: feature as u8,
                    threshold,
                    left: left as u32,
                    right: right as u32,
                },
            })
            .collect();
        Some(CutoffModel::Tree(CutoffTree { nodes }))
    }
}

/// Training squared error of a fitted profile.
fn profile_sse(samples: &[Sample], profile: &LatencyProfile) -> f64 {
    samples
        .iter()
        .map(|s| {
            let pred = profile.eval(s.gamma, erms_core::latency::Interference::new(s.cpu, s.mem));
            (pred - s.latency_ms).powi(2)
        })
        .sum()
}

/// Simple per-bin knee estimation: scan split points of a 1-D `L ~ γ`
/// two-segment fit (interference is approximately constant within a bin)
/// and return the split minimising SSE, or `None` when no split beats the
/// single line.
fn knee_scan(group: &[&Sample], min_side: usize) -> Option<f64> {
    let mut sorted: Vec<&Sample> = group.to_vec();
    sorted.sort_by(|a, b| {
        a.gamma
            .partial_cmp(&b.gamma)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Returns (sse, slope) of a 1-D line fit.
    let line_fit = |part: &[&Sample]| -> (f64, f64) {
        let x: Vec<[f64; 2]> = part.iter().map(|s| [s.gamma, 1.0]).collect();
        let y: Vec<f64> = part.iter().map(|s| s.latency_ms).collect();
        match least_squares(&x, &y) {
            Ok(beta) => (
                x.iter()
                    .zip(&y)
                    .map(|(row, &t)| (row[0] * beta[0] + beta[1] - t).powi(2))
                    .sum(),
                beta[0],
            ),
            Err(_) => {
                let mean = y.iter().sum::<f64>() / y.len().max(1) as f64;
                (y.iter().map(|v| (v - mean).powi(2)).sum(), 0.0)
            }
        }
    };
    let (single, _) = line_fit(&sorted);
    let mut best: Option<(f64, f64)> = None;
    for pos in min_side..sorted.len().saturating_sub(min_side) {
        let (low_sse, low_slope) = line_fit(&sorted[..pos]);
        let (high_sse, high_slope) = line_fit(&sorted[pos..]);
        // A knee bends *upward*: queueing makes the post-knee side steeper
        // (§2.2). Splits without that signature are noise.
        if high_slope <= low_slope.max(0.0) * 1.2 {
            continue;
        }
        let sse = low_sse + high_sse;
        if best.is_none_or(|(_, s)| sse < s) {
            best = Some((sorted[pos].gamma, sse));
        }
    }
    match best {
        Some((sigma, sse)) if sse < 0.9 * single => Some(sigma),
        _ => None,
    }
}

/// A [`Regressor`] adapter over the piecewise profile, for head-to-head
/// comparison with the GBDT/MLP baselines in Fig. 10. Feature layout is
/// `[γ, C, M]` as produced by `Sample::features`.
#[derive(Debug, Clone, Default)]
pub struct PiecewiseRegressor {
    fitter: PiecewiseFitter,
    profile: Option<LatencyProfile>,
}

impl Regressor for PiecewiseRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        let samples: Vec<Sample> = x
            .iter()
            .zip(y)
            .map(|(row, &latency)| Sample::new(latency, row[0], row[1], row[2]))
            .collect();
        self.profile = self.fitter.fit(&samples).ok();
    }

    fn predict(&self, row: &[f64]) -> f64 {
        match &self.profile {
            Some(p) => p.eval(
                row[0],
                erms_core::latency::Interference::new(row[1], row[2]),
            ),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use erms_core::latency::Interference;

    fn kneed_samples(knee: f64, itf: (f64, f64)) -> Vec<Sample> {
        (1..=300)
            .map(|i| {
                let gamma = i as f64 * 5.0;
                let latency = if gamma <= knee {
                    0.01 * gamma + 2.0
                } else {
                    0.06 * gamma + 2.0 - 0.05 * knee
                };
                Sample::new(latency, gamma, itf.0, itf.1)
            })
            .collect()
    }

    #[test]
    fn recovers_knee_position() {
        let samples = kneed_samples(750.0, (0.4, 0.3));
        let profile = PiecewiseFitter::default().fit(&samples).unwrap();
        let itf = Interference::new(0.4, 0.3);
        let sigma = profile.cutoff_at(itf);
        assert!(
            (sigma - 750.0).abs() < 120.0,
            "estimated knee {sigma}, expected ~750"
        );
        // Slopes bracket the truth.
        let low_slope = profile.low.slope(itf);
        let high_slope = profile.high.slope(itf);
        assert!((low_slope - 0.01).abs() < 0.005, "low slope {low_slope}");
        assert!((high_slope - 0.06).abs() < 0.01, "high slope {high_slope}");
    }

    #[test]
    fn straight_line_degenerates_to_single_segment() {
        let samples: Vec<Sample> = (1..=100)
            .map(|i| Sample::new(0.02 * i as f64 + 1.0, i as f64, 0.5, 0.5))
            .collect();
        let profile = PiecewiseFitter::default().fit(&samples).unwrap();
        assert_eq!(
            profile.cutoff_at(Interference::new(0.5, 0.5)),
            f64::INFINITY
        );
    }

    #[test]
    fn too_few_samples_error() {
        let samples = vec![Sample::new(1.0, 1.0, 0.5, 0.5); 3];
        assert!(matches!(
            PiecewiseFitter::default().fit(&samples),
            Err(FitError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn constant_workload_falls_back_to_mean() {
        let samples: Vec<Sample> = (0..50)
            .map(|i| Sample::new(10.0 + (i % 3) as f64, 100.0, 0.5, 0.5))
            .collect();
        let profile = PiecewiseFitter::default().fit(&samples).unwrap();
        let pred = profile.eval(100.0, Interference::new(0.5, 0.5));
        assert!((pred - 11.0).abs() < 1.0, "{pred}");
    }

    #[test]
    fn interference_term_is_learned() {
        // Slope = 0.05*C + 0.01: samples at two interference levels.
        let mut samples = Vec::new();
        for &cpu in &[0.2, 0.8] {
            for i in 1..=150 {
                let gamma = i as f64 * 4.0;
                let slope = 0.05 * cpu + 0.01;
                samples.push(Sample::new(slope * gamma + 3.0, gamma, cpu, 0.3));
            }
        }
        let profile = PiecewiseFitter::default().fit(&samples).unwrap();
        let lo = profile.eval(400.0, Interference::new(0.2, 0.3));
        let hi = profile.eval(400.0, Interference::new(0.8, 0.3));
        let expect_lo = (0.05 * 0.2 + 0.01) * 400.0 + 3.0;
        let expect_hi = (0.05 * 0.8 + 0.01) * 400.0 + 3.0;
        assert!((lo - expect_lo).abs() < 0.5, "lo {lo} vs {expect_lo}");
        assert!((hi - expect_hi).abs() < 0.5, "hi {hi} vs {expect_hi}");
    }

    #[test]
    fn cutoff_tree_moves_knee_with_interference() {
        // Knee at 1000 when calm, at 500 when CPU-busy.
        let mut samples = Vec::new();
        for &(cpu, knee) in &[(0.2, 1000.0), (0.9, 500.0)] {
            for i in 1..=200 {
                let gamma = i as f64 * 7.5;
                let latency = if gamma <= knee {
                    0.01 * gamma + 2.0
                } else {
                    0.08 * gamma + 2.0 - 0.07 * knee
                };
                samples.push(Sample::new(latency, gamma, cpu, 0.3));
            }
        }
        let profile = PiecewiseFitter::default().fit(&samples).unwrap();
        let calm = profile.cutoff_at(Interference::new(0.2, 0.3));
        let busy = profile.cutoff_at(Interference::new(0.9, 0.3));
        assert!(
            busy < calm,
            "knee should move forward with interference: busy {busy} vs calm {calm}"
        );
    }

    #[test]
    fn regressor_adapter_is_accurate() {
        let samples = kneed_samples(750.0, (0.4, 0.3));
        let x: Vec<Vec<f64>> = samples.iter().map(Sample::features).collect();
        let y: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let mut reg = PiecewiseRegressor::default();
        reg.fit(&x, &y);
        let acc = accuracy(&y, &reg.predict_batch(&x));
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(reg.profile.is_some());
    }
}
