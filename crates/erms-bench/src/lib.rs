//! Shared machinery for the figure/table reproduction harnesses.
//!
//! Every bench target in this crate regenerates one table or figure of the
//! paper and prints a `paper vs measured` comparison. The helpers here
//! cover scheme instantiation, tail-latency → violation-probability
//! conversion, and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod replication;
pub mod sweep;

use erms_core::app::{App, WorkloadVector};
use erms_core::autoscaler::{Autoscaler, ScalingContext, ScalingPlan};
use erms_core::error::Result;
use erms_core::latency::Interference;
use erms_core::scaling::ScalerConfig;

/// Runs one scheme to convergence on a static workload: learning-based
/// schemes (Firm) get `rounds` controller iterations, one-shot schemes
/// plan once.
///
/// # Errors
///
/// Propagates planning failures (e.g. infeasible SLAs).
pub fn plan_static(
    scheme: &mut dyn Autoscaler,
    app: &App,
    workloads: &WorkloadVector,
    itf: Interference,
    rounds: usize,
) -> Result<ScalingPlan> {
    let config = ScalerConfig::default();
    let ctx = ScalingContext {
        app,
        workloads,
        interference: itf,
        config: &config,
    };
    let mut plan = scheme.plan(&ctx)?;
    for _ in 1..rounds.max(1) {
        plan = scheme.plan(&ctx)?;
    }
    Ok(plan)
}

/// Converts a modelled tail latency into an SLA-violation probability by
/// assuming per-request end-to-end latency is lognormal with the given
/// coefficient of variation and a P95 equal to `p95_ms`.
///
/// This mirrors how the paper's measured violation probabilities relate to
/// the tail latency: if the modelled P95 sits exactly at the SLA the
/// violation probability is 5 %, above it grows smoothly toward 1.
pub(crate) fn violation_probability(p95_ms: f64, sla_ms: f64, cv: f64) -> f64 {
    if !(p95_ms.is_finite() && p95_ms > 0.0) {
        return 1.0;
    }
    if sla_ms <= 0.0 {
        return 1.0;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let sigma = sigma2.sqrt().max(1e-9);
    // P95 = exp(mu + 1.6449*sigma)
    let mu = p95_ms.ln() - 1.644_853_6 * sigma;
    let z = (sla_ms.ln() - mu) / sigma;
    1.0 - normal_cdf(z)
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ≈ 1.5e-7).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Plain-text table rendering for harness output.
pub mod table {
    /// Prints a titled table with aligned columns.
    pub fn print(title: &str, headers: &[&str], rows: &[Vec<String>]) {
        println!("\n=== {title} ===");
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let header_line: Vec<String> = headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
            .collect();
        println!("{}", header_line.join("  "));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(8)))
                .collect();
            println!("{}", line.join("  "));
        }
    }

    /// Prints a `paper vs measured` summary line.
    pub fn claim(label: &str, paper: &str, measured: &str, holds: bool) {
        let status = if holds { "OK " } else { "DIFF" };
        println!("[{status}] {label}: paper = {paper}, measured = {measured}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_probability_is_5pct_at_the_sla() {
        let p = violation_probability(200.0, 200.0, 0.3);
        assert!((p - 0.05).abs() < 0.002, "{p}");
    }

    #[test]
    fn violation_probability_monotone_in_p95() {
        let lo = violation_probability(100.0, 200.0, 0.3);
        let hi = violation_probability(300.0, 200.0, 0.3);
        assert!(lo < 0.05 && hi > 0.05);
        assert_eq!(violation_probability(f64::INFINITY, 200.0, 0.3), 1.0);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.6449) - 0.95).abs() < 1e-3);
        assert!((normal_cdf(-1.0) + normal_cdf(1.0) - 1.0).abs() < 1e-7);
    }
}
