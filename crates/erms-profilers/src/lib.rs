//! Microservice latency profilers (§5.2, Fig. 10).
//!
//! Erms learns, for every microservice, a piecewise-linear model of tail
//! latency as a function of per-container workload and host interference
//! (Eq. 15), with the knee position learned by a decision tree. The paper
//! compares this against XGBoost and a three-layer neural network. This
//! crate implements all of them from scratch:
//!
//! * [`dataset`] — profiling samples `(L, γ, C, M)` collected per minute
//!   (§5.2) and train/test splitting;
//! * [`linreg`] — ordinary least squares (normal equations), the building
//!   block of the segmented fit;
//! * [`piecewise`] — the segmented regression that produces an
//!   [`erms_core::latency::LatencyProfile`], including the decision-tree
//!   cut-off model;
//! * [`tree`] — a CART regression tree;
//! * [`gbdt`] — gradient-boosted regression trees (the "XGBoost" baseline);
//! * [`mlp`] — a small multi-layer perceptron (the "NN" baseline);
//! * [`metrics`] — the profiling-accuracy metric reported in Fig. 10.
//!
//! # Example
//!
//! ```
//! use erms_core::latency::Interference;
//! use erms_profilers::dataset::Sample;
//! use erms_profilers::piecewise::PiecewiseFitter;
//!
//! // Synthetic samples from a kneed latency curve.
//! let samples: Vec<Sample> = (1..200)
//!     .map(|i| {
//!         let gamma = i as f64 * 10.0;
//!         let latency = if gamma <= 1000.0 { 0.01 * gamma + 2.0 } else { 0.05 * gamma - 38.0 };
//!         Sample::new(latency, gamma, 0.4, 0.3)
//!     })
//!     .collect();
//! let profile = PiecewiseFitter::default().fit(&samples)?;
//! let itf = Interference::new(0.4, 0.3);
//! assert!((profile.eval(500.0, itf) - 7.0).abs() < 0.5);
//! # Ok::<(), erms_profilers::FitError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod dataset;
pub mod gbdt;
pub mod linreg;
pub mod metrics;
pub mod mlp;
pub mod piecewise;
pub mod tree;

use std::fmt;

/// A regression model over fixed-width feature vectors.
///
/// The latency-profiling feature layout used throughout this crate is
/// `[γ, C, M]` (per-container workload, host CPU utilisation, host memory
/// utilisation); see `dataset::Sample::features`.
pub trait Regressor {
    /// Fits the model to rows `x` with targets `y`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x` and `y` have different lengths or
    /// rows have inconsistent widths — these are programming errors.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]);

    /// Predicts the target for one feature row.
    fn predict(&self, row: &[f64]) -> f64;

    /// Predicts targets for many rows.
    fn predict_batch(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|row| self.predict(row)).collect()
    }
}

/// Errors produced when fitting latency models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FitError {
    /// Not enough samples to fit the requested model.
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// The design matrix was singular and could not be solved.
    Singular,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { got, need } => {
                write!(f, "too few samples: got {got}, need at least {need}")
            }
            FitError::Singular => write!(f, "design matrix is singular"),
        }
    }
}

impl std::error::Error for FitError {}
