//! Deterministic synthetic applications for planner scalability runs.
//!
//! The Alibaba generator ([`crate::alibaba`]) reproduces the *statistics*
//! of the paper's production traces (Zipf sharing, Fig. 2 CDF). The
//! planner scalability harness needs something slightly different: a dial
//! that sweeps total application size from ~10 up to several thousand
//! microservices while holding the *shape* — sharing fraction, fan-out,
//! graph depth — fixed, so cold-plan vs. incremental-re-plan timings are
//! comparable across scale points.
//!
//! [`SynthConfig`] therefore controls sharing *structurally* instead of
//! statistically: the microservice pool is split into a shared segment
//! (drawn by every service with probability [`sharing`](SynthConfig::sharing))
//! and per-service private slices (drawn otherwise), so the number of
//! shared microservices and the per-service graph size scale linearly and
//! predictably with the pool. Generation is fully deterministic in the
//! seed — two calls with equal configs produce equal apps, which the
//! benchmarks rely on when asserting incremental plans bit-identical to
//! cold plans.

use erms_core::app::{App, Sla, WorkloadVector};
use erms_core::graph::GraphBuilder;
use erms_core::ids::{MicroserviceId, NodeId};
use erms_core::prelude::AppBuilder;
use erms_core::provisioning::{ClusterState, FailureDomain, Host, HostLifecycle};
use erms_core::resources::{HostClass, Resources};
use rand::Rng;
use rand::SeedableRng;

use crate::alibaba::{random_profile, worst_path_intercept, GeneratedApp};

/// Configuration of the scalability generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Total microservice pool (the scale axis: 10 → several thousand).
    pub microservices: usize,
    /// Number of online services.
    pub services: usize,
    /// Target dependency-graph size per service (exact node budget; the
    /// realised size can fall short only when the depth cap binds).
    pub nodes_per_service: usize,
    /// Size of the shared segment of the pool; every service draws from
    /// it with probability [`sharing`](Self::sharing). The rest of the
    /// pool is split into per-service private slices.
    pub shared_pool: usize,
    /// Probability that a call-graph node targets the shared segment.
    pub sharing: f64,
    /// Probability that a new stage is parallel (fan-out > 1).
    pub parallel_prob: f64,
    /// Maximum fan-out of a parallel stage.
    pub max_fanout: usize,
    /// Maximum graph depth.
    pub max_depth: usize,
    /// SLA = worst-path latency floor × this factor (deterministic, so
    /// every generated service is feasible by construction).
    pub sla_headroom: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            microservices: 100,
            services: 10,
            nodes_per_service: 12,
            shared_pool: 10,
            sharing: 0.3,
            parallel_prob: 0.35,
            max_fanout: 3,
            max_depth: 6,
            sla_headroom: 6.0,
            seed: 7,
        }
    }
}

impl SynthConfig {
    /// The canonical scale sweep point: an application with a pool of
    /// `microservices`, services and sharing derived so the shape stays
    /// fixed as the pool grows.
    pub fn scaled(microservices: usize, seed: u64) -> Self {
        Self {
            microservices,
            services: (microservices / 10).max(2),
            shared_pool: (microservices / 10).max(1),
            seed,
            ..Self::default()
        }
    }

    /// The Taobao-scale preset driving the shard-scaling benchmark: 500
    /// online services over a 5000-microservice pool with deep (~24-node)
    /// dependency graphs — the cluster scale of the Alibaba
    /// elastic-provisioning trace, far beyond the DeathStarBench apps of
    /// the paper's own testbed.
    ///
    /// The preset is *shard-aware* by construction: microservice ids are
    /// assigned densely in creation order, so the `id % K` shard partition
    /// used by `erms-sim::shard_of` splits the pool into near-equal shards
    /// for every practical `K` (the bench sweeps K ≤ 8), and the shared
    /// segment — the ids every service calls into — is itself spread
    /// evenly across shards, which keeps per-shard event load balanced
    /// instead of concentrating the hot shared tier on one shard.
    pub fn taobao_scale(seed: u64) -> Self {
        Self {
            microservices: 5_000,
            services: 500,
            nodes_per_service: 24,
            shared_pool: 500,
            sharing: 0.4,
            parallel_prob: 0.35,
            max_fanout: 4,
            max_depth: 8,
            sla_headroom: 6.0,
            seed,
        }
    }
}

/// Generates a deterministic synthetic application per `config`.
pub fn generate(config: &SynthConfig) -> GeneratedApp {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut builder = AppBuilder::new("synth-scalability");

    let pool: Vec<MicroserviceId> = (0..config.microservices.max(1))
        .map(|i| {
            builder.microservice(
                format!("ms-{i}"),
                random_profile(&mut rng),
                Resources::default(),
            )
        })
        .collect();
    let shared = config.shared_pool.clamp(1, pool.len());
    let private = &pool[shared..];
    let services = config.services.max(1);

    let mut service_specs = Vec::with_capacity(services);
    for s in 0..services {
        // The private slice of service `s`: an even, contiguous cut of the
        // non-shared pool (empty when the pool is all shared).
        let slice_len = private.len() / services;
        let slice = if slice_len == 0 {
            &pool[..shared]
        } else {
            &private[s * slice_len..(s + 1) * slice_len]
        };
        let draw = |rng: &mut rand::rngs::StdRng| -> MicroserviceId {
            if rng.gen_bool(config.sharing.clamp(0.0, 1.0)) {
                pool[rng.gen_range(0..shared)]
            } else {
                slice[rng.gen_range(0..slice.len())]
            }
        };
        let mut g = GraphBuilder::new();
        let root = g.entry(draw(&mut rng));
        let mut frontier: Vec<(NodeId, usize)> = vec![(root, 0)];
        let mut node_count = 1usize;
        while node_count < config.nodes_per_service && !frontier.is_empty() {
            let pick = rng.gen_range(0..frontier.len());
            let (parent, depth) = frontier[pick];
            if depth + 1 >= config.max_depth.max(2) {
                frontier.swap_remove(pick);
                continue;
            }
            let width = if rng.gen_bool(config.parallel_prob.clamp(0.0, 1.0)) {
                rng.gen_range(2..=config.max_fanout.max(2))
            } else {
                1
            };
            let width = width.min(config.nodes_per_service - node_count).max(1);
            let mss: Vec<MicroserviceId> = (0..width).map(|_| draw(&mut rng)).collect();
            let children = if width == 1 {
                vec![g.call_seq(parent, mss[0])]
            } else {
                g.call_par(parent, &mss)
            };
            node_count += width;
            for c in children {
                frontier.push((c, depth + 1));
            }
            if rng.gen_bool(0.4) {
                frontier.swap_remove(pick);
            }
        }
        service_specs.push((format!("service-{s}"), g.build().expect("entry declared")));
    }

    let mut sharing_counts: std::collections::BTreeMap<MicroserviceId, usize> = Default::default();
    for (name, graph) in service_specs {
        for ms in graph.microservices() {
            *sharing_counts.entry(ms).or_insert(0) += 1;
        }
        let floor = worst_path_intercept(&builder, &graph);
        let sla = Sla::p95_ms((floor * config.sla_headroom.max(1.5)).max(10.0));
        builder.raw_service(name, sla, graph);
    }

    GeneratedApp {
        sharing_counts: sharing_counts.values().copied().collect(),
        app: builder.build().expect("generated app is valid"),
    }
}

/// Expected call rate over one merged dependency edge: how often, per
/// millisecond, any service's requests traverse `parent → child`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRate {
    /// The calling (parent) microservice.
    pub parent: MicroserviceId,
    /// The called (child) microservice.
    pub child: MicroserviceId,
    /// Expected calls per millisecond, summed across all services.
    pub calls_per_ms: f64,
}

/// Workload-weighted rate hints over the merged dependency graphs of all
/// services — the input a topology-aware shard partitioner needs: edge
/// weights (expected calls/s over each parent→child microservice pair)
/// and node weights (expected call arrivals at each microservice, a
/// proxy for DES event load, since every call costs a constant handful
/// of events).
#[derive(Debug, Clone, PartialEq)]
pub struct RateHints {
    /// Expected call arrivals per millisecond at each microservice,
    /// indexed densely by `MicroserviceId`.
    pub node_calls_per_ms: Vec<f64>,
    /// Merged per-edge expected call rates, sorted by `(parent, child)`
    /// with duplicates summed. Self-edges (a node calling a child on the
    /// same microservice) are kept: they carry load but can never be cut.
    pub edges: Vec<EdgeRate>,
}

/// Computes [`RateHints`] for an application under a workload vector.
///
/// Expected instance counts come from
/// [`effective multiplicities`](erms_core::graph::DependencyGraph::effective_multiplicities):
/// a node of effective multiplicity `m` in service `s` is invoked
/// `rate(s) × m` times per millisecond in expectation (fractional
/// multiplicities are Bernoulli extra-copy coins, so the expectation is
/// exact). The output is a pure function of `(app, workloads)` — no RNG,
/// `BTreeMap`-ordered aggregation — so two callers always derive the
/// same hints. Services with zero rate still contribute their edges, at
/// weight zero.
#[must_use]
pub fn rate_hints(app: &App, workloads: &WorkloadVector) -> RateHints {
    let mut node_calls_per_ms = vec![0.0f64; app.microservice_count()];
    let mut merged: std::collections::BTreeMap<(u32, u32), f64> = Default::default();
    for (sid, svc) in app.services() {
        let rate = workloads.rate(sid).as_per_ms();
        let mult = svc.graph.effective_multiplicities();
        for (nid, node) in svc.graph.iter() {
            node_calls_per_ms[node.microservice.index()] += rate * mult[nid.index()];
            for stage in &node.stages {
                for &child in stage {
                    let child_ms = svc.graph.node(child).microservice;
                    let key = (node.microservice.index() as u32, child_ms.index() as u32);
                    *merged.entry(key).or_insert(0.0) += rate * mult[child.index()];
                }
            }
        }
    }
    RateHints {
        node_calls_per_ms,
        edges: merged
            .into_iter()
            .map(|((p, c), calls_per_ms)| EdgeRate {
                parent: MicroserviceId::new(p),
                child: MicroserviceId::new(c),
                calls_per_ms,
            })
            .collect(),
    }
}

/// Generates a deterministic heterogeneous cluster: a seeded mix of the
/// three standard [`HostClass`]es, a `spot_fraction` of which are spot
/// instances, spread round-robin over `zones` failure zones of two racks
/// each.
///
/// Chaos experiments need clusters whose host mix, lifecycle mix and
/// domain layout are reproducible from a seed alone — the same contract
/// as [`generate`] for applications. Class draws are weighted towards the
/// paper's standard 32-core/64-GB shape (§6.1) so a `spot_fraction` of
/// zero with one zone degrades to something close to the uniform
/// evaluation cluster.
pub fn heterogeneous_cluster(
    hosts: usize,
    spot_fraction: f64,
    zones: u32,
    seed: u64,
) -> ClusterState {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC1A5);
    let zones = zones.max(1);
    let spot_fraction = spot_fraction.clamp(0.0, 1.0);
    let classes = [
        HostClass::standard(),
        HostClass::large(),
        HostClass::small(),
    ];
    let mut built = Vec::with_capacity(hosts.max(1));
    for i in 0..hosts.max(1) {
        // 50% standard, 25% large, 25% small.
        let class = match rng.gen_range(0..4u32) {
            0 | 1 => &classes[0],
            2 => &classes[1],
            _ => &classes[2],
        };
        let lifecycle = if rng.gen_bool(spot_fraction) {
            HostLifecycle::Spot
        } else {
            HostLifecycle::OnDemand
        };
        let domain = FailureDomain::new(i as u32 % zones, (i as u32 / zones) % 2);
        built.push(
            Host::from_class(class)
                .with_lifecycle(lifecycle)
                .with_domain(domain),
        );
    }
    ClusterState::new(built)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_to_requested_pool() {
        let g = generate(&SynthConfig::scaled(1000, 3));
        assert_eq!(g.app.microservice_count(), 1000);
        assert_eq!(g.app.service_count(), 100);
        assert!(
            g.shared_count() >= 10,
            "shared pool must actually be shared"
        );
        for (_, svc) in g.app.services() {
            assert!(!svc.graph.microservices().is_empty());
            assert!(svc.sla.threshold_ms.is_finite() && svc.sla.threshold_ms > 0.0);
        }
    }

    #[test]
    fn taobao_scale_is_shard_balanced() {
        let g = generate(&SynthConfig::taobao_scale(5));
        assert_eq!(g.app.microservice_count(), 5_000);
        assert_eq!(g.app.service_count(), 500);
        // The `id % K` partition must stay near-balanced in *graph nodes*
        // (a proxy for event load) for every bench shard count.
        for k in [2usize, 4, 8] {
            let mut load = vec![0usize; k];
            for (_, svc) in g.app.services() {
                for (_, node) in svc.graph.iter() {
                    load[node.microservice.index() % k] += 1;
                }
            }
            let (min, max) = (*load.iter().min().unwrap(), *load.iter().max().unwrap());
            assert!(
                max as f64 <= min as f64 * 1.25,
                "K={k} shard node-load imbalance: {load:?}"
            );
        }
    }

    #[test]
    fn tiny_scale_works() {
        let g = generate(&SynthConfig::scaled(10, 1));
        assert_eq!(g.app.microservice_count(), 10);
        assert!(g.app.service_count() >= 2);
    }

    #[test]
    fn deterministic_in_the_seed() {
        let a = generate(&SynthConfig::scaled(120, 9));
        let b = generate(&SynthConfig::scaled(120, 9));
        assert_eq!(a.app, b.app);
        let c = generate(&SynthConfig::scaled(120, 10));
        assert_ne!(a.app, c.app, "different seeds must differ");
    }

    #[test]
    fn heterogeneous_cluster_is_deterministic_and_mixed() {
        let a = heterogeneous_cluster(24, 0.4, 3, 11);
        let b = heterogeneous_cluster(24, 0.4, 3, 11);
        assert_eq!(a, b, "same seed must reproduce the cluster exactly");
        assert_eq!(a.hosts().len(), 24);
        let spot = a.spot_host_count();
        assert!(spot > 0 && spot < 24, "fraction 0.4 must mix lifecycles");
        let mut zones: std::collections::BTreeSet<u32> = Default::default();
        let mut shapes: std::collections::BTreeSet<u64> = Default::default();
        for h in a.hosts() {
            zones.insert(h.domain.zone);
            shapes.insert(h.cpu_capacity.to_bits());
        }
        assert_eq!(zones.len(), 3, "hosts must cover every zone");
        assert!(shapes.len() > 1, "host classes must actually differ");
        let none = heterogeneous_cluster(24, 0.0, 1, 11);
        assert_eq!(none.spot_host_count(), 0);
    }

    #[test]
    fn rate_hints_are_exact_on_a_known_tree() {
        use erms_core::app::RequestRate;
        use erms_core::latency::LatencyProfile;
        use erms_core::resources::Resources;
        let mut b = AppBuilder::new("hints");
        let a = b.microservice("a", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let c = b.microservice("c", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let d = b.microservice("d", LatencyProfile::linear(0.01, 1.0), Resources::default());
        let svc = b.service("s", Sla::p95_ms(100.0), move |g| {
            let root = g.entry(a);
            let mid = g.call_seq_n(root, c, 2.0);
            g.call_seq_n(mid, d, 0.5);
        });
        let app = b.build().unwrap();
        let mut w = WorkloadVector::new();
        w.set(svc, RequestRate::per_minute(60_000.0)); // 1 req/ms
        let hints = rate_hints(&app, &w);
        // Node weights: root 1/ms, c at multiplicity 2, d at 2 × 0.5 = 1.
        assert_eq!(hints.node_calls_per_ms, vec![1.0, 2.0, 1.0]);
        // Edges sorted by (parent, child), weights = child call rates.
        assert_eq!(hints.edges.len(), 2);
        assert_eq!((hints.edges[0].parent, hints.edges[0].child), (a, c));
        assert_eq!(hints.edges[0].calls_per_ms, 2.0);
        assert_eq!((hints.edges[1].parent, hints.edges[1].child), (c, d));
        assert_eq!(hints.edges[1].calls_per_ms, 1.0);
        // Zero workload keeps the structure, at weight zero.
        let zero = rate_hints(&app, &WorkloadVector::new());
        assert_eq!(zero.edges.len(), 2);
        assert!(zero.node_calls_per_ms.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rate_hints_are_deterministic_and_merged_at_scale() {
        use erms_core::app::RequestRate;
        let g = generate(&SynthConfig::scaled(400, 13));
        let mut w = WorkloadVector::new();
        for (sid, _) in g.app.services() {
            w.set(sid, RequestRate::per_minute(600.0));
        }
        let x = rate_hints(&g.app, &w);
        let y = rate_hints(&g.app, &w);
        assert_eq!(x, y, "hints must be a pure function of (app, workloads)");
        // Sorted, duplicate-free edge list.
        for pair in x.edges.windows(2) {
            let a = (pair[0].parent.index(), pair[0].child.index());
            let b = (pair[1].parent.index(), pair[1].child.index());
            assert!(a < b, "edges must be strictly sorted: {a:?} vs {b:?}");
        }
        assert!(x.node_calls_per_ms.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn sharing_dial_controls_shared_count() {
        let none = generate(&SynthConfig {
            sharing: 0.0,
            ..SynthConfig::scaled(200, 5)
        });
        let heavy = generate(&SynthConfig {
            sharing: 0.8,
            ..SynthConfig::scaled(200, 5)
        });
        assert!(heavy.shared_count() > none.shared_count());
    }
}
