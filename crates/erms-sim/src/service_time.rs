//! Per-call service-time models for the discrete-event simulator.
//!
//! A container's finite thread pool plus stochastic service times is the
//! *mechanism* behind the piecewise-linear latency curves of Fig. 3: below
//! the knee, requests rarely queue and tail latency grows slowly; past it,
//! queueing dominates and latency climbs steeply. Interference slows the
//! service time itself (CPU contention, memory compaction, §5.2), which
//! both steepens the curve and moves the knee forward.

use erms_core::latency::{Interference, LatencyProfile};
use rand::Rng;

/// Lognormal service-time model of one microservice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceTimeModel {
    /// Mean service time at zero interference, in ms.
    pub base_ms: f64,
    /// Coefficient of variation of the lognormal service time.
    pub cv: f64,
    /// Relative slowdown per unit of host CPU utilisation.
    pub cpu_sensitivity: f64,
    /// Relative slowdown per unit of host memory utilisation.
    pub mem_sensitivity: f64,
}

impl ServiceTimeModel {
    /// Creates a model, clamping each parameter to its valid range
    /// (`base_ms ≥ 1 µs`, the rest non-negative). NaN collapses to the
    /// clamp floor (`f64::max` returns the non-NaN operand), but infinity
    /// survives it, and the public fields allow writing any value
    /// directly — [`Simulation::run`](crate::runtime::Simulation::run)
    /// therefore re-validates every configured model and rejects
    /// non-finite parameters with
    /// [`Error::InvalidParameter`](erms_core::Error::InvalidParameter)
    /// before any event is processed, rather than silently producing
    /// non-finite latencies.
    pub fn new(base_ms: f64, cv: f64, cpu_sensitivity: f64, mem_sensitivity: f64) -> Self {
        Self {
            base_ms: base_ms.max(1e-3),
            cv: cv.max(0.0),
            cpu_sensitivity: cpu_sensitivity.max(0.0),
            mem_sensitivity: mem_sensitivity.max(0.0),
        }
    }

    /// Mean service time under interference.
    pub fn mean_ms(&self, itf: Interference) -> f64 {
        self.base_ms * (1.0 + self.cpu_sensitivity * itf.cpu + self.mem_sensitivity * itf.memory)
    }

    /// Draws one service time (lognormal with the configured mean and CV).
    pub fn sample(&self, itf: Interference, rng: &mut impl Rng) -> f64 {
        let mean = self.mean_ms(itf);
        if self.cv <= 1e-9 {
            return mean;
        }
        // Lognormal parameterised by mean m and CV c:
        // σ² = ln(1+c²), μ = ln(m) − σ²/2.
        let sigma2 = (1.0 + self.cv * self.cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * standard_normal(rng)).exp()
    }
}

impl Default for ServiceTimeModel {
    /// A typical light-weight microservice: 2 ms mean, CV 0.5, moderate
    /// interference sensitivity.
    fn default() -> Self {
        Self::new(2.0, 0.5, 1.0, 0.8)
    }
}

/// Standard normal via the Marsaglia–Tsang ziggurat (the `rand` crate
/// alone has no normal distribution; `rand_distr` is intentionally not a
/// dependency).
///
/// Service-time sampling is one of the largest per-event costs of the
/// simulator's inner loop, and Box–Muller pays a logarithm and a cosine
/// per draw. The ziggurat covers the density with 128 horizontal strips
/// whose boundaries are precomputed once (`ZIG`): ~98.8% of draws take
/// one 64-bit RNG word, a table compare and one multiply, touching no
/// transcendental at all; the remainder fall through to an exact
/// edge/tail rejection step, so the sampled distribution is still the
/// exact standard normal. Every draw is a pure function of the RNG
/// stream, preserving the seeded determinism the engine relies on.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let zig = ZIG.get_or_init(ZigTables::build);
    loop {
        // One word supplies the layer index (low 7 bits), the sign (bit
        // 7) and a 52-bit uniform magnitude (the top bits — 52 so the
        // integer is exactly representable in an f64).
        let word = rng.gen::<u64>();
        let iz = (word & 127) as usize;
        let neg = word & 128 != 0;
        let mag = word >> 12;
        if mag < zig.kn[iz] {
            // The sample lies strictly inside layer `iz`: accept.
            let x = mag as f64 * zig.wn[iz];
            return if neg { -x } else { x };
        }
        if iz == 0 {
            // Base strip beyond R: Marsaglia's exact exponential-majorant
            // rejection, returning a draw from the normal tail.
            loop {
                let e1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let e2: f64 = rng.gen_range(f64::EPSILON..1.0);
                let tx = -e1.ln() / ZIG_R;
                let ty = -e2.ln();
                if ty + ty > tx * tx {
                    return if neg { -(ZIG_R + tx) } else { ZIG_R + tx };
                }
            }
        }
        // Wedge between the layer's rectangle and the curve: accept
        // against the exact density.
        let x = mag as f64 * zig.wn[iz];
        let u: f64 = rng.gen_range(0.0f64..1.0);
        if zig.fx[iz] + u * (zig.fx[iz - 1] - zig.fx[iz]) < (-0.5 * x * x).exp() {
            return if neg { -x } else { x };
        }
    }
}

/// Right edge of the ziggurat's base layer for the 128-strip normal
/// ziggurat (Marsaglia & Tsang, 2000).
const ZIG_R: f64 = 3.442619855899;
/// Area of each strip (the base strip includes the tail mass).
const ZIG_V: f64 = 9.91256303526217e-3;

/// Precomputed ziggurat strip tables; built once on first use.
struct ZigTables {
    /// Acceptance threshold per layer, against the 52-bit magnitude.
    kn: [u64; 128],
    /// Scale from the 52-bit magnitude to `x` per layer.
    wn: [f64; 128],
    /// Density at each layer boundary.
    fx: [f64; 128],
}

static ZIG: std::sync::OnceLock<ZigTables> = std::sync::OnceLock::new();

impl ZigTables {
    /// The table recurrence of Marsaglia & Tsang's `zigset`, with the
    /// integer scale `m` adapted from their 32-bit draws to this module's
    /// 52-bit magnitudes.
    fn build() -> Self {
        let m = (1u64 << 52) as f64;
        let f = |x: f64| (-0.5 * x * x).exp();
        let mut kn = [0u64; 128];
        let mut wn = [0.0; 128];
        let mut fx = [0.0; 128];
        let mut dn = ZIG_R;
        let mut tn = dn;
        let q = ZIG_V / f(dn);
        kn[0] = ((dn / q) * m) as u64;
        kn[1] = 0;
        wn[0] = q / m;
        wn[127] = dn / m;
        fx[0] = 1.0;
        fx[127] = f(dn);
        for i in (1..=126).rev() {
            dn = (-2.0 * (ZIG_V / dn + f(dn)).ln()).sqrt();
            kn[i + 1] = ((dn / tn) * m) as u64;
            tn = dn;
            fx[i] = f(dn);
            wn[i] = dn / m;
        }
        Self { kn, wn, fx }
    }
}

/// Derives an approximate service-time model and thread count from a
/// fitted latency profile, closing the loop profile → simulator.
///
/// The zero-load intercept `b` of the low interval is the (tail) service
/// time; the knee σ is where the container saturates, so with `t` threads
/// and mean service `s̄`, capacity `t/s̄` calls/ms should sit slightly above
/// `σ/60000`:  `t = ceil(σ·s̄/60000/ρ)` at target utilisation `ρ`.
pub fn derive_from_profile(
    profile: &LatencyProfile,
    itf: Interference,
    target_utilisation: f64,
) -> (ServiceTimeModel, usize) {
    let b = profile.low.b.max(0.1);
    // Tail (P95) of a lognormal ≈ mean·exp(1.645σ−σ²/2); with CV 0.5 the
    // mean is roughly b/1.9.
    let mean = b / 1.9;
    let model = ServiceTimeModel::new(mean, 0.5, 1.0, 0.8);
    let sigma = profile.cutoff_at(itf);
    let threads = if sigma.is_finite() {
        ((sigma / 60_000.0) * mean / target_utilisation.clamp(0.1, 0.99)).ceil() as usize
    } else {
        4
    };
    (model, threads.clamp(1, 64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_mean_matches_target() {
        let model = ServiceTimeModel::new(5.0, 0.5, 0.0, 0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let itf = Interference::default();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| model.sample(itf, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "sample mean {mean}");
    }

    #[test]
    fn interference_slows_service() {
        let model = ServiceTimeModel::new(2.0, 0.0, 1.0, 0.5);
        let calm = model.mean_ms(Interference::new(0.0, 0.0));
        let busy = model.mean_ms(Interference::new(0.8, 0.8));
        assert_eq!(calm, 2.0);
        assert!((busy - 2.0 * (1.0 + 0.8 + 0.4)).abs() < 1e-12);
    }

    #[test]
    fn zero_cv_is_deterministic() {
        let model = ServiceTimeModel::new(3.0, 0.0, 0.0, 0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(model.sample(Interference::default(), &mut rng), 3.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn derive_threads_scales_with_knee() {
        let flat = LatencyProfile::kneed(0.002, 4.0, 0.02, 600.0);
        let (model, threads) = derive_from_profile(&flat, Interference::default(), 0.75);
        assert!(model.base_ms > 0.0);
        assert!(threads >= 1);
        let steeper_knee = LatencyProfile::kneed(0.002, 4.0, 0.02, 6000.0);
        let (_, threads2) = derive_from_profile(&steeper_knee, Interference::default(), 0.75);
        assert!(threads2 >= threads);
    }
}
