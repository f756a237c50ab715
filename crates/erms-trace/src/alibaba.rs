//! Synthetic Alibaba-like application topologies (§2.1 Fig. 2, §6.5).
//!
//! The real Alibaba microservice traces (cluster-trace-microservices-v2021)
//! are not available in this environment, so this module generates
//! applications calibrated to the statistics the paper actually relies on:
//!
//! * microservice *sharing* follows a heavy-tailed (Zipf) popularity, so a
//!   large fraction of referenced microservices is shared by many services
//!   (Fig. 2 shows ~40 % of microservices shared by >100 services);
//! * dependency graphs behave like trees \[26\], built here as random trees
//!   with mixed sequential/parallel stages;
//! * the Taobao application used for the trace-driven simulations has
//!   500+ services averaging ~50 microservices each with 300+ shared
//!   microservices (§6.5).
//!
//! Latency profiles are drawn from the ranges observed in Fig. 3
//! (millisecond-scale intercepts, knees at a few hundred calls/min per
//! container, post-knee slopes several times the pre-knee slope, slopes
//! increasing with interference).

use erms_core::app::{App, AppBuilder, Sla};
use erms_core::graph::GraphBuilder;
use erms_core::ids::{MicroserviceId, NodeId};
use erms_core::latency::{CutoffModel, LatencyProfile, Segment};
use erms_core::resources::Resources;
use rand::Rng;
use rand::SeedableRng;

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct AlibabaConfig {
    /// Number of online services.
    pub services: usize,
    /// Size of the microservice pool services draw from.
    pub microservice_pool: usize,
    /// Average dependency-graph size (nodes per service).
    pub avg_nodes_per_service: usize,
    /// Zipf exponent of microservice popularity (higher = more sharing
    /// concentration).
    pub zipf_exponent: f64,
    /// Size of the "hot" pool: infrastructure-style microservices (user,
    /// auth, storage front ends) that most services depend on. Their
    /// popularity is uniform and they absorb [`hot_mass`](Self::hot_mass)
    /// of all references; `0` disables the tier (pure Zipf).
    ///
    /// A two-tier popularity is required to reproduce the Fig. 2 sharing
    /// CDF: with 1 000 services of ~40 microservices each there are only
    /// ~40 000 service→microservice references, so a large *fraction* of
    /// referenced microservices can only exceed 100 sharing services if
    /// the effective catalogue is small and reused — a smooth Zipf tail
    /// dilutes the denominator with rarely-referenced microservices.
    pub hot_pool: usize,
    /// Fraction of references going to the hot pool.
    pub hot_mass: f64,
    /// Probability that a new stage is parallel (2–3 calls) rather than a
    /// single sequential call.
    pub parallel_prob: f64,
    /// Maximum graph depth.
    pub max_depth: usize,
    /// SLA headroom: the SLA is the latency floor times a factor drawn
    /// uniformly from this range.
    pub sla_headroom: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlibabaConfig {
    fn default() -> Self {
        Self {
            services: 100,
            microservice_pool: 1000,
            avg_nodes_per_service: 20,
            zipf_exponent: 1.1,
            hot_pool: 0,
            hot_mass: 0.0,
            parallel_prob: 0.35,
            max_depth: 6,
            sla_headroom: (4.0, 8.0),
            seed: 2023,
        }
    }
}

impl AlibabaConfig {
    /// The Taobao-scale preset of §6.5: 500+ services, ~50 microservices
    /// each, 300+ shared microservices.
    pub fn taobao(seed: u64) -> Self {
        Self {
            services: 500,
            microservice_pool: 2500,
            avg_nodes_per_service: 50,
            zipf_exponent: 1.05,
            hot_pool: 150,
            hot_mass: 0.6,
            parallel_prob: 0.35,
            max_depth: 8,
            sla_headroom: (4.0, 8.0),
            seed,
        }
    }

    /// A Fig. 2-scale preset: 1000 services over a 20 000-microservice
    /// pool (only sharing statistics matter at this scale, not scaling
    /// runs).
    pub fn fig2(seed: u64) -> Self {
        Self {
            services: 1000,
            microservice_pool: 20_000,
            avg_nodes_per_service: 40,
            zipf_exponent: 1.2,
            hot_pool: 320,
            hot_mass: 0.93,
            parallel_prob: 0.35,
            max_depth: 7,
            sla_headroom: (4.0, 8.0),
            seed,
        }
    }
}

/// Draws a random latency profile in the Fig. 3 ranges.
pub fn random_profile(rng: &mut impl Rng) -> LatencyProfile {
    let slope_low = rng.gen_range(0.001..0.012);
    let knee = rng.gen_range(300.0..1500.0);
    let steepness = rng.gen_range(3.0..8.0);
    let intercept = rng.gen_range(0.5..5.0);
    // Interference coefficients: slopes grow with host utilisation; the
    // constant c keeps the zero-interference slope positive.
    let alpha_low = slope_low * rng.gen_range(0.3..1.2);
    let beta_low = slope_low * rng.gen_range(0.2..1.0);
    let slope_high = slope_low * steepness;
    let alpha_high = alpha_low * steepness;
    let beta_high = beta_low * steepness;
    let b_high = intercept + (slope_low - slope_high) * knee;
    LatencyProfile::new(
        Segment::new(alpha_low, beta_low, slope_low, intercept),
        Segment::new(alpha_high, beta_high, slope_high, b_high),
        CutoffModel::Affine {
            base: knee,
            k_cpu: knee * rng.gen_range(0.1..0.4),
            k_mem: knee * rng.gen_range(0.1..0.3),
            min: knee * 0.3,
        },
    )
}

/// A generated application plus sharing statistics.
#[derive(Debug, Clone)]
pub struct GeneratedApp {
    /// The application (microservices + services with SLAs).
    pub app: App,
    /// For every microservice that is referenced at all, the number of
    /// services referencing it.
    pub sharing_counts: Vec<usize>,
}

impl GeneratedApp {
    /// The cumulative distribution of Fig. 2: fraction of (referenced)
    /// microservices shared by at most `x` services, evaluated at the
    /// given thresholds.
    pub fn sharing_cdf(&self, thresholds: &[usize]) -> Vec<(usize, f64)> {
        let total = self.sharing_counts.len().max(1) as f64;
        thresholds
            .iter()
            .map(|&t| {
                let below = self.sharing_counts.iter().filter(|&&c| c <= t).count();
                (t, below as f64 / total)
            })
            .collect()
    }

    /// Number of microservices referenced by ≥2 services.
    pub fn shared_count(&self) -> usize {
        self.sharing_counts.iter().filter(|&&c| c >= 2).count()
    }
}

/// Generates a synthetic Alibaba-like application.
pub fn generate(config: &AlibabaConfig) -> GeneratedApp {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut builder = AppBuilder::new("alibaba-synthetic");

    // Microservice pool with Zipf popularity.
    let pool: Vec<MicroserviceId> = (0..config.microservice_pool)
        .map(|i| {
            builder.microservice(
                format!("ms-{i}"),
                random_profile(&mut rng),
                Resources::default(),
            )
        })
        .collect();
    let hot = config.hot_pool.min(config.microservice_pool);
    let hot_mass = if hot > 0 {
        config.hot_mass.clamp(0.0, 1.0)
    } else {
        0.0
    };
    // Two-tier popularity: a uniform hot pool absorbing `hot_mass` of all
    // references, and a Zipf tail over the remaining catalogue.
    let tail_raw: Vec<f64> = (1..=(config.microservice_pool - hot))
        .map(|rank| 1.0 / (rank as f64).powf(config.zipf_exponent))
        .collect();
    let tail_sum: f64 = tail_raw.iter().sum::<f64>().max(1e-12);
    let mut weights: Vec<f64> = Vec::with_capacity(config.microservice_pool);
    for _ in 0..hot {
        weights.push(hot_mass / hot as f64);
    }
    for w in &tail_raw {
        weights.push((1.0 - hot_mass) * w / tail_sum);
    }
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cumulative.push(acc);
    }
    let total_weight = acc;
    let draw_ms = |rng: &mut rand::rngs::StdRng| -> MicroserviceId {
        let x = rng.gen_range(0.0..total_weight);
        let idx = cumulative.partition_point(|&c| c < x);
        pool[idx.min(pool.len() - 1)]
    };

    let mut service_specs = Vec::with_capacity(config.services);
    for s in 0..config.services {
        // Build the random tree structure first, as (ms, stages) nodes.
        let target_nodes = ((config.avg_nodes_per_service as f64) * rng.gen_range(0.5..1.5))
            .round()
            .max(1.0) as usize;
        let mut g = GraphBuilder::new();
        let root = g.entry(draw_ms(&mut rng));
        let mut frontier: Vec<(NodeId, usize)> = vec![(root, 0)];
        let mut node_count = 1usize;
        while node_count < target_nodes && !frontier.is_empty() {
            let pick = rng.gen_range(0..frontier.len());
            let (parent, depth) = frontier[pick];
            if depth + 1 >= config.max_depth {
                frontier.swap_remove(pick);
                continue;
            }
            let parallel = rng.gen_bool(config.parallel_prob);
            let width = if parallel { rng.gen_range(2..=3) } else { 1 };
            let width = width.min(target_nodes - node_count).max(1);
            let mss: Vec<MicroserviceId> = (0..width).map(|_| draw_ms(&mut rng)).collect();
            let children = if width == 1 {
                vec![g.call_seq(parent, mss[0])]
            } else {
                g.call_par(parent, &mss)
            };
            node_count += width;
            for c in children {
                frontier.push((c, depth + 1));
            }
            // Occasionally retire the parent so trees stay bushy but finite.
            if rng.gen_bool(0.4) {
                frontier.swap_remove(pick);
            }
        }
        let graph = g.build().expect("entry node declared");
        service_specs.push((format!("service-{s}"), graph));
    }

    // Compute worst-path intercept floors to set feasible SLAs, then add
    // services to the builder.
    let headroom_range = config.sla_headroom;
    let mut sharing: std::collections::BTreeMap<MicroserviceId, usize> = Default::default();
    for (name, graph) in service_specs {
        for ms in graph.microservices() {
            *sharing.entry(ms).or_insert(0) += 1;
        }
        let floor = worst_path_intercept(&builder, &graph);
        let headroom = rng.gen_range(headroom_range.0..headroom_range.1);
        let sla = Sla::p95_ms((floor * headroom).max(10.0));
        builder.raw_service(name, sla, graph);
    }

    let app = builder.build().expect("generated app is valid");
    GeneratedApp {
        sharing_counts: sharing.values().copied().collect(),
        app,
    }
}

/// Worst-path sum of low-interval intercepts — a lower bound on achievable
/// end-to-end latency used to pick feasible SLAs.
pub(crate) fn worst_path_intercept(
    builder: &AppBuilder,
    graph: &erms_core::graph::DependencyGraph,
) -> f64 {
    fn walk(builder: &AppBuilder, graph: &erms_core::graph::DependencyGraph, node: NodeId) -> f64 {
        let n = graph.node(node);
        let own = builder
            .microservice_profile(n.microservice)
            .map(|p| p.low.b.max(p.high.b))
            .unwrap_or(0.0);
        let downstream: f64 = n
            .stages
            .iter()
            .map(|stage| {
                stage
                    .iter()
                    .map(|&c| walk(builder, graph, c))
                    .fold(0.0, f64::max)
            })
            .sum();
        n.multiplicity * (own + downstream)
    }
    walk(builder, graph, graph.root())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_scale() {
        let config = AlibabaConfig {
            services: 50,
            microservice_pool: 300,
            avg_nodes_per_service: 10,
            ..AlibabaConfig::default()
        };
        let generated = generate(&config);
        assert_eq!(generated.app.service_count(), 50);
        assert_eq!(generated.app.microservice_count(), 300);
        // Graph sizes hover around the target.
        let sizes: Vec<usize> = generated
            .app
            .services()
            .map(|(_, s)| s.graph.len())
            .collect();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((5.0..20.0).contains(&avg), "avg graph size {avg}");
    }

    #[test]
    fn sharing_is_heavy_tailed() {
        let generated = generate(&AlibabaConfig::default());
        assert!(generated.shared_count() > 10);
        // The CDF is monotone and reaches 1 at the max count.
        let cdf = generated.sharing_cdf(&[1, 2, 5, 10, 50, 100, 1000]);
        for pair in cdf.windows(2) {
            assert!(pair[0].1 <= pair[1].1 + 1e-12);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        // A noticeable fraction of referenced microservices is shared.
        let shared_frac = generated.shared_count() as f64 / generated.sharing_counts.len() as f64;
        assert!(shared_frac > 0.2, "shared fraction {shared_frac}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate(&AlibabaConfig::default());
        let b = generate(&AlibabaConfig::default());
        assert_eq!(a.app, b.app);
    }

    #[test]
    fn slas_are_feasible_headroom() {
        let generated = generate(&AlibabaConfig {
            services: 20,
            microservice_pool: 100,
            avg_nodes_per_service: 8,
            ..AlibabaConfig::default()
        });
        for (_, svc) in generated.app.services() {
            assert!(svc.sla.threshold_ms >= 10.0);
        }
    }

    #[test]
    fn random_profile_is_valid_and_kneed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = random_profile(&mut rng);
            assert!(p.validate().is_ok());
            let itf = erms_core::latency::Interference::new(0.5, 0.5);
            // Post-knee slope exceeds pre-knee slope.
            assert!(p.high.slope(itf) > p.low.slope(itf));
            // Continuity at the knee within tolerance at zero interference.
            let itf0 = erms_core::latency::Interference::new(0.0, 0.0);
            let sigma = p.cutoff_at(itf0);
            assert!(sigma > 0.0);
        }
    }

    #[test]
    fn taobao_preset_has_many_shared_microservices() {
        let generated = generate(&AlibabaConfig {
            // Scaled-down Taobao for test speed; the bench uses the full
            // preset.
            services: 120,
            microservice_pool: 600,
            avg_nodes_per_service: 30,
            ..AlibabaConfig::taobao(7)
        });
        assert!(
            generated.shared_count() > 100,
            "{}",
            generated.shared_count()
        );
    }
}
