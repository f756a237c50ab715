//! The piecewise-linear microservice tail-latency model (§2.2, §5.2).
//!
//! Erms models the tail (e.g. P95) latency of a microservice as a
//! *piecewise-linear* function of its per-container workload γ (calls per
//! minute per container), with the slope depending on host resource
//! interference (Eq. 15 of the paper):
//!
//! ```text
//! L(γ) = (α₁·C + β₁·M + c₁)·γ + b₁   for γ ≤ σ(C, M)   (low interval)
//! L(γ) = (α₂·C + β₂·M + c₂)·γ + b₂   for γ > σ(C, M)   (high interval)
//! ```
//!
//! where `C` and `M` are the host CPU and memory utilisation in `[0, 1]`.
//! The cut-off point σ — where queueing in the container's finite thread
//! pool starts to dominate — itself moves with interference, and is learned
//! with a decision tree (§5.2); [`CutoffModel`] covers the constant, affine
//! and tree-structured forms.

/// Host-level resource interference observed by a container (§2.2).
///
/// Both components are utilisations in `[0, 1]`. The paper shows that CPU
/// and memory utilisation alone are sufficient to profile microservice
/// latency accurately (§5.2, Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interference {
    /// Host CPU utilisation in `[0, 1]`.
    pub cpu: f64,
    /// Host memory utilisation in `[0, 1]`.
    pub memory: f64,
}

impl Interference {
    /// Creates an interference point, clamping both utilisations to `[0, 1]`.
    pub fn new(cpu: f64, memory: f64) -> Self {
        Self {
            cpu: cpu.clamp(0.0, 1.0),
            memory: memory.clamp(0.0, 1.0),
        }
    }
}

impl Default for Interference {
    /// A lightly-loaded host: 20 % CPU, 30 % memory.
    fn default() -> Self {
        Self {
            cpu: 0.2,
            memory: 0.3,
        }
    }
}

/// Which interval of the piecewise model parameters are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interval {
    /// The pre-knee interval (`γ ≤ σ`): latency grows slowly.
    Low,
    /// The post-knee interval (`γ > σ`): queueing dominates and latency
    /// grows quickly.
    High,
}

/// One linear segment of the piecewise model: `L = (α·C + β·M + c)·γ + b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// CPU-interference coefficient α of the slope.
    pub alpha: f64,
    /// Memory-interference coefficient β of the slope.
    pub beta: f64,
    /// Interference-independent slope component c.
    pub c: f64,
    /// Latency intercept b, in milliseconds.
    pub b: f64,
}

impl Segment {
    /// Creates a segment from its four coefficients.
    pub const fn new(alpha: f64, beta: f64, c: f64, b: f64) -> Self {
        Self { alpha, beta, c, b }
    }

    /// A segment with an interference-independent slope.
    pub const fn flat(slope: f64, intercept: f64) -> Self {
        Self::new(0.0, 0.0, slope, intercept)
    }

    /// The slope `a = α·C + β·M + c` at a given interference level.
    pub fn slope(&self, itf: Interference) -> f64 {
        self.alpha * itf.cpu + self.beta * itf.memory + self.c
    }

    /// Evaluates the segment at per-container workload `gamma`.
    pub fn eval(&self, gamma: f64, itf: Interference) -> f64 {
        self.slope(itf) * gamma + self.b
    }

    fn is_valid(&self) -> bool {
        // Negative intercepts are legal for the post-knee segment: a steep
        // line fitted to the queueing regime often crosses the y-axis below
        // zero while staying positive on its own interval.
        [self.alpha, self.beta, self.c, self.b]
            .iter()
            .all(|v| v.is_finite())
    }
}

/// A node of a [`CutoffTree`]: either an internal split on CPU or memory
/// utilisation, or a leaf holding a cut-off value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CutoffNode {
    /// Internal split: `if feature < threshold { left } else { right }`,
    /// where `feature` 0 is CPU utilisation and 1 is memory utilisation, and
    /// the child fields are indices into [`CutoffTree::nodes`].
    Split {
        /// 0 = CPU utilisation, 1 = memory utilisation.
        feature: u8,
        /// Split threshold in `[0, 1]`.
        threshold: f64,
        /// Index of the subtree taken when `feature < threshold`.
        left: u32,
        /// Index of the subtree taken otherwise.
        right: u32,
    },
    /// Leaf: the predicted cut-off (calls/min per container).
    Leaf(f64),
}

/// A small regression tree mapping interference to the cut-off point σ,
/// as learned by the decision-tree model of §5.2.
///
/// Trees are produced by the `erms-profilers` crate but evaluated here so
/// that a [`LatencyProfile`] is self-contained.
#[derive(Debug, Clone, PartialEq)]
pub struct CutoffTree {
    /// Tree nodes; index 0 is the root. Must be non-empty.
    pub nodes: Vec<CutoffNode>,
}

impl CutoffTree {
    /// Evaluates the tree at an interference point.
    ///
    /// Returns the leaf value reached, or `0.0` for an empty tree (which
    /// [`LatencyProfile::validate`] rejects).
    pub fn eval(&self, itf: Interference) -> f64 {
        let mut idx = 0usize;
        loop {
            match self.nodes.get(idx) {
                Some(CutoffNode::Leaf(v)) => return *v,
                Some(CutoffNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                }) => {
                    let value = if *feature == 0 { itf.cpu } else { itf.memory };
                    idx = if value < *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
                None => return 0.0,
            }
        }
    }

    fn is_valid(&self) -> bool {
        !self.nodes.is_empty()
            && self.nodes.iter().all(|n| match n {
                CutoffNode::Leaf(v) => v.is_finite() && *v >= 0.0,
                CutoffNode::Split {
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    threshold.is_finite()
                        && (*left as usize) < self.nodes.len()
                        && (*right as usize) < self.nodes.len()
                }
            })
    }
}

/// How the knee of the piecewise model moves with interference.
#[derive(Debug, Clone, PartialEq)]
pub enum CutoffModel {
    /// Interference-independent cut-off.
    Constant(f64),
    /// Affine cut-off `σ = base − k_cpu·C − k_mem·M`, clamped at `min`.
    ///
    /// The paper observes that "resource interference forces the cut-off
    /// point to move forward" (§2.2) — higher interference, earlier knee —
    /// which an affine model with non-negative `k` coefficients captures.
    Affine {
        /// Cut-off at zero interference.
        base: f64,
        /// Reduction per unit of CPU utilisation.
        k_cpu: f64,
        /// Reduction per unit of memory utilisation.
        k_mem: f64,
        /// Lower clamp for the cut-off.
        min: f64,
    },
    /// Decision-tree model (§5.2), as learned by `erms-profilers`.
    Tree(CutoffTree),
}

impl CutoffModel {
    /// Evaluates the cut-off at an interference level, in calls/min per
    /// container.
    pub fn eval(&self, itf: Interference) -> f64 {
        match self {
            CutoffModel::Constant(v) => *v,
            CutoffModel::Affine {
                base,
                k_cpu,
                k_mem,
                min,
            } => (base - k_cpu * itf.cpu - k_mem * itf.memory).max(*min),
            CutoffModel::Tree(tree) => tree.eval(itf),
        }
    }

    fn is_valid(&self) -> bool {
        match self {
            // An infinite cut-off is legal: it degenerates the model to a
            // single interval (see [`LatencyProfile::linear`]).
            CutoffModel::Constant(v) => !v.is_nan() && *v >= 0.0,
            CutoffModel::Affine {
                base,
                k_cpu,
                k_mem,
                min,
            } => {
                [base, k_cpu, k_mem, min].iter().all(|v| v.is_finite())
                    && *base >= 0.0
                    && *min >= 0.0
            }
            CutoffModel::Tree(tree) => tree.is_valid(),
        }
    }
}

/// Interference-resolved linear parameters `L = a·(γ_total/n) + b` used by
/// the scaling model of §4.1.
///
/// `a` already folds in the interference level (`a = α·C + β·M + c`), so the
/// closed-form results of §4.2 can treat it as a constant for one scaling
/// round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearParams {
    /// Effective slope `a` (milliseconds per call/min per container).
    pub a: f64,
    /// Intercept `b` in milliseconds.
    pub b: f64,
}

impl LinearParams {
    /// Creates resolved linear parameters.
    pub const fn new(a: f64, b: f64) -> Self {
        Self { a, b }
    }

    /// Latency at per-container workload `gamma`.
    pub fn eval(&self, gamma: f64) -> f64 {
        self.a * gamma + self.b
    }
}

/// The full piecewise-linear latency profile of one microservice (Eq. 15).
///
/// ```
/// use erms_core::latency::{Interference, LatencyProfile};
///
/// // 2 ms zero-load latency, knee at 500 calls/min/container, 5x slope
/// // past the knee.
/// let p = LatencyProfile::kneed(0.002, 2.0, 0.01, 500.0);
/// let itf = Interference::default();
/// assert!(p.eval(250.0, itf) < p.eval(750.0, itf));
/// // Continuous at the knee.
/// assert!((p.eval(499.9, itf) - p.eval(500.1, itf)).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyProfile {
    /// Parameters of the pre-knee interval (`γ ≤ σ`).
    pub low: Segment,
    /// Parameters of the post-knee interval (`γ > σ`).
    pub high: Segment,
    /// The interference-dependent cut-off σ.
    pub cutoff: CutoffModel,
}

impl LatencyProfile {
    /// Creates a profile from its segments and cut-off model.
    pub fn new(low: Segment, high: Segment, cutoff: CutoffModel) -> Self {
        Self { low, high, cutoff }
    }

    /// A single-interval, interference-independent profile `L = a·γ + b`.
    ///
    /// Useful for analytic examples (Figs. 4–5 of the paper) where
    /// interference is held constant. `slope` is in ms per (call/min per
    /// container); `intercept_ms` is the zero-load latency.
    pub fn linear(slope: f64, intercept_ms: f64) -> Self {
        let seg = Segment::flat(slope, intercept_ms);
        Self::new(seg, seg, CutoffModel::Constant(f64::INFINITY))
    }

    /// A two-interval interference-independent profile with knee at
    /// `cutoff` calls/min/container. The high segment is constructed to be
    /// continuous at the knee: `b₂ = b₁ + (a₁ − a₂)·σ`.
    pub fn kneed(slope_low: f64, intercept_ms: f64, slope_high: f64, cutoff: f64) -> Self {
        let low = Segment::flat(slope_low, intercept_ms);
        let b2 = intercept_ms + (slope_low - slope_high) * cutoff;
        let high = Segment::flat(slope_high, b2);
        Self::new(low, high, CutoffModel::Constant(cutoff))
    }

    /// The cut-off (calls/min per container) at an interference level.
    pub fn cutoff_at(&self, itf: Interference) -> f64 {
        self.cutoff.eval(itf)
    }

    /// Evaluates tail latency at per-container workload `gamma` (calls/min
    /// per container) under interference `itf`.
    pub fn eval(&self, gamma: f64, itf: Interference) -> f64 {
        if gamma <= self.cutoff_at(itf) {
            self.low.eval(gamma, itf)
        } else {
            self.high.eval(gamma, itf)
        }
    }

    /// Resolves the interval's linear parameters at an interference level,
    /// clamping the slope to a small positive value so the closed-form
    /// allocation (which divides by √a) stays well-defined.
    pub fn params(&self, interval: Interval, itf: Interference) -> LinearParams {
        let seg = match interval {
            Interval::Low => &self.low,
            Interval::High => &self.high,
        };
        LinearParams::new(seg.slope(itf).max(1e-9), seg.b)
    }

    /// Latency at the cut-off point — the threshold used by the two-interval
    /// selection rule of §5.3.1 (targets below this value mean the
    /// microservice actually operates in the low interval).
    pub fn knee_latency(&self, itf: Interference) -> f64 {
        let sigma = self.cutoff_at(itf);
        if sigma.is_finite() {
            self.high.eval(sigma, itf)
        } else {
            f64::INFINITY
        }
    }

    /// Checks structural invariants; returns a human-readable reason on
    /// failure. Used by [`AppBuilder::build`](crate::app::AppBuilder::build).
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !self.low.is_valid() {
            return Err("low segment has non-finite or negative parameters".into());
        }
        if !self.high.is_valid() {
            return Err("high segment has non-finite or negative parameters".into());
        }
        if !self.cutoff.is_valid() {
            return Err("cut-off model is invalid".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITF: Interference = Interference {
        cpu: 0.5,
        memory: 0.4,
    };

    #[test]
    fn linear_profile_evaluates() {
        let p = LatencyProfile::linear(0.1, 5.0);
        assert!((p.eval(100.0, ITF) - 15.0).abs() < 1e-9);
        assert!((p.eval(0.0, ITF) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn kneed_profile_is_continuous_at_knee() {
        let p = LatencyProfile::kneed(0.01, 2.0, 0.08, 500.0);
        let before = p.eval(499.999, ITF);
        let after = p.eval(500.001, ITF);
        assert!((before - after).abs() < 0.01, "{before} vs {after}");
        // Post-knee grows faster.
        assert!(p.eval(1000.0, ITF) - p.eval(500.0, ITF) > p.eval(500.0, ITF) - p.eval(0.0, ITF));
    }

    #[test]
    fn interference_raises_slope() {
        let seg = Segment::new(0.05, 0.03, 0.01, 1.0);
        let calm = Interference::new(0.1, 0.1);
        let busy = Interference::new(0.9, 0.9);
        assert!(seg.slope(busy) > seg.slope(calm));
    }

    #[test]
    fn affine_cutoff_moves_forward_with_interference() {
        let cut = CutoffModel::Affine {
            base: 1000.0,
            k_cpu: 400.0,
            k_mem: 300.0,
            min: 100.0,
        };
        let calm = cut.eval(Interference::new(0.1, 0.1));
        let busy = cut.eval(Interference::new(0.9, 0.9));
        assert!(busy < calm);
        assert!(busy >= 100.0);
    }

    #[test]
    fn cutoff_tree_eval() {
        // if cpu < 0.5 { 800 } else { if mem < 0.5 { 500 } else { 300 } }
        let tree = CutoffTree {
            nodes: vec![
                CutoffNode::Split {
                    feature: 0,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                CutoffNode::Leaf(800.0),
                CutoffNode::Split {
                    feature: 1,
                    threshold: 0.5,
                    left: 3,
                    right: 4,
                },
                CutoffNode::Leaf(500.0),
                CutoffNode::Leaf(300.0),
            ],
        };
        assert_eq!(tree.eval(Interference::new(0.2, 0.9)), 800.0);
        assert_eq!(tree.eval(Interference::new(0.7, 0.2)), 500.0);
        assert_eq!(tree.eval(Interference::new(0.7, 0.8)), 300.0);
    }

    #[test]
    fn params_clamps_slope_positive() {
        let p = LatencyProfile::new(
            Segment::flat(-5.0, 1.0),
            Segment::flat(0.0, 1.0),
            CutoffModel::Constant(10.0),
        );
        assert!(p.params(Interval::Low, ITF).a > 0.0);
        assert!(p.params(Interval::High, ITF).a > 0.0);
    }

    #[test]
    fn validate_rejects_nan() {
        let mut p = LatencyProfile::linear(0.1, 1.0);
        p.low.c = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn knee_latency_uses_high_segment() {
        let p = LatencyProfile::kneed(0.01, 2.0, 0.08, 500.0);
        let knee = p.knee_latency(ITF);
        assert!((knee - p.high.eval(500.0, ITF)).abs() < 1e-9);
    }

    #[test]
    fn interference_is_clamped() {
        let itf = Interference::new(3.0, -2.0);
        assert_eq!(itf.cpu, 1.0);
        assert_eq!(itf.memory, 0.0);
    }
}
