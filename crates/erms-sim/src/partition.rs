//! Deterministic, seed-free topology-aware shard partitioning.
//!
//! [`Partition`] is the lookup table the sharded engine
//! ([`crate::shard`]) consults for microservice ownership: a dense
//! `Vec<u32>` of microservice → shard. Two constructors matter:
//!
//! * [`Partition::modulo`] — the PR-7 default, `ms.index() % K`. It
//!   ignores the call graph, so on topologies with per-service private
//!   microservice slices (the Taobao-scale synthetic preset, real
//!   Alibaba-style pools) most parent→child edges cross shards and every
//!   call pays a mailbox hop.
//! * [`Partition::topology_aware`] — a greedy multilevel partitioner over
//!   the merged dependency graphs of all services. Edge weights are the
//!   expected calls/ms over each parent→child microservice pair and node
//!   weights the expected call arrivals per microservice (a proxy for
//!   event load), both from [`erms_trace::synth::rate_hints`]. The
//!   pipeline is the classic multilevel shape: **coarsen** by
//!   heavy-edge matching (never growing a coarse vertex past the
//!   per-shard average), **greedy balanced initial assignment** of
//!   coarse vertices in descending weight order, **projection** to the
//!   full graph, a bounded **rebalance** pass restoring the balance
//!   envelope, and KL/FM-style **boundary refinement** that moves a
//!   microservice to the neighboring shard with the highest adjacency
//!   gain while staying inside the envelope.
//!
//! # Determinism
//!
//! The partitioner is a *pure function of `(topology, workloads, K)`*:
//! no RNG, no `HashMap` iteration, every `f64` comparison via
//! [`f64::total_cmp`], and every tie broken by `MicroserviceId` (or the
//! smallest member id of a coarse vertex). Repeated calls return equal
//! tables, which is what lets benchmarks and tests pin results produced
//! under a topology-aware partition just as hard as the modulo goldens.
//!
//! # Balance envelope
//!
//! Let `total` be the summed node weight, `avg = total / K` and `w_max`
//! the heaviest single microservice. Every phase respects the envelope
//! `limit = max(avg × (1 + BALANCE_TOLERANCE), avg + w_max)` and the
//! rebalance pass enforces it, so the final partition always satisfies
//! `max shard weight ≤ limit` — the classic greedy bound, pinned by the
//! `partition_props` suite. When all workload rates are zero the node
//! weights degenerate; [`Partition::topology_aware`] then falls back to
//! uniform per-service rates so the structure still drives the cut.

use std::collections::BTreeMap;

use erms_core::app::{App, RequestRate, WorkloadVector};
use erms_core::error::{Error, Result};
use erms_core::ids::MicroserviceId;
use erms_trace::synth::{rate_hints, RateHints};

/// A microservice → shard lookup table for the sharded DES engine.
///
/// Construct via [`Partition::modulo`], [`Partition::topology_aware`] or
/// [`Partition::from_assignment`]; consume via
/// [`Simulation::run_sharded_with_partition`](crate::runtime::Simulation::run_sharded_with_partition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assign: Vec<u32>,
    shards: usize,
}

/// Rate hints with the zero-workload fallback applied: when every
/// service rate is zero the weights carry no signal, so a uniform
/// 1-request-per-second rate per service stands in — keeping the
/// partitioner (and the balance property tests, which must see the same
/// weights) structure-driven instead of degenerate.
#[must_use]
pub(crate) fn partition_rate_hints(app: &App, workloads: &WorkloadVector) -> RateHints {
    let total: f64 = app
        .services()
        .map(|(sid, _)| workloads.rate(sid).as_per_ms())
        .sum();
    if total > 0.0 {
        rate_hints(app, workloads)
    } else {
        let mut uniform = WorkloadVector::new();
        for (sid, _) in app.services() {
            uniform.set(sid, RequestRate::per_second(1.0));
        }
        rate_hints(app, &uniform)
    }
}

impl Partition {
    /// Relative slack over the perfectly balanced per-shard node weight
    /// that every partitioning phase is allowed to use.
    pub(crate) const BALANCE_TOLERANCE: f64 = 0.10;

    /// The PR-7 default partition: `ms.index() % shards`.
    #[must_use]
    pub fn modulo(ms_count: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            assign: (0..ms_count).map(|i| (i % shards) as u32).collect(),
            shards,
        }
    }

    /// Wraps an arbitrary assignment table (property tests, external
    /// partitioners).
    ///
    /// # Errors
    ///
    /// Rejects `shards == 0` and any entry `>= shards`.
    pub fn from_assignment(assign: Vec<u32>, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidParameter(
                "partition shard count must be at least 1".into(),
            ));
        }
        if let Some(bad) = assign.iter().find(|&&s| s as usize >= shards) {
            return Err(Error::InvalidParameter(format!(
                "partition assigns shard {bad} but only {shards} shard(s) exist"
            )));
        }
        Ok(Self { assign, shards })
    }

    /// Builds a topology-aware partition of `app`'s microservices into
    /// `shards` shards (see the module docs for the algorithm). Output
    /// is a pure function of `(app, workloads, shards)`.
    #[must_use]
    pub fn topology_aware(app: &App, workloads: &WorkloadVector, shards: usize) -> Self {
        let n = app.microservice_count();
        let k = shards.max(1);
        if k == 1 || n == 0 {
            return Self {
                assign: vec![0; n],
                shards: k,
            };
        }
        let hints = partition_rate_hints(app, workloads);
        let node_w = hints.node_calls_per_ms;
        // Undirected merged edge weights, excluding self-edges (uncuttable).
        let mut edge_w: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for e in &hints.edges {
            let (a, b) = (e.parent.index() as u32, e.child.index() as u32);
            if a == b {
                continue;
            }
            *edge_w.entry((a.min(b), a.max(b))).or_insert(0.0) += e.calls_per_ms;
        }
        let total_w: f64 = node_w.iter().sum();
        let avg = total_w / k as f64;
        let w_max = node_w.iter().copied().fold(0.0f64, f64::max);
        let limit = (avg * (1.0 + Self::BALANCE_TOLERANCE)).max(avg + w_max);

        // --- Phase 1: coarsen by heavy-edge matching. -------------------
        let mut members: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i]).collect();
        let mut vert_w = node_w.clone();
        let mut edges = edge_w.clone();
        let target = (k * 8).max(32);
        while members.len() > target {
            let nv = members.len();
            let mut by_weight: Vec<((u32, u32), f64)> =
                edges.iter().map(|(&key, &w)| (key, w)).collect();
            by_weight.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            let mut matched = vec![false; nv];
            // Partner of the lower endpoint of each contracted pair.
            let mut partner: Vec<Option<u32>> = vec![None; nv];
            let mut pairs = 0usize;
            for ((a, b), _) in by_weight {
                let (a, b) = (a as usize, b as usize);
                if matched[a] || matched[b] || vert_w[a] + vert_w[b] > avg {
                    continue;
                }
                matched[a] = true;
                matched[b] = true;
                partner[a] = Some(b as u32);
                pairs += 1;
            }
            if pairs == 0 {
                break;
            }
            // Contract: old vertex v maps to the new id of itself or of
            // its lower-id partner; new ids are dense in old-id order.
            let mut map = vec![u32::MAX; nv];
            let mut absorbed = vec![false; nv];
            for (a, p) in partner.iter().enumerate() {
                if let Some(b) = p {
                    absorbed[*b as usize] = true;
                    debug_assert!(a < *b as usize, "edge keys are (min, max)");
                }
            }
            let mut new_members: Vec<Vec<u32>> = Vec::with_capacity(nv - pairs);
            let mut new_w: Vec<f64> = Vec::with_capacity(nv - pairs);
            for v in 0..nv {
                if absorbed[v] {
                    continue;
                }
                let id = new_members.len() as u32;
                map[v] = id;
                let mut group = std::mem::take(&mut members[v]);
                let mut w = vert_w[v];
                if let Some(b) = partner[v] {
                    group.extend(std::mem::take(&mut members[b as usize]));
                    group.sort_unstable();
                    w += vert_w[b as usize];
                }
                new_members.push(group);
                new_w.push(w);
            }
            for v in 0..nv {
                if absorbed[v] {
                    // An absorbed vertex shares its absorber's new id.
                    let a = partner
                        .iter()
                        .position(|p| *p == Some(v as u32))
                        .expect("absorbed vertex has an absorber");
                    map[v] = map[a];
                }
            }
            let mut new_edges: BTreeMap<(u32, u32), f64> = BTreeMap::new();
            for ((a, b), w) in edges {
                let (na, nb) = (map[a as usize], map[b as usize]);
                if na == nb {
                    continue;
                }
                *new_edges.entry((na.min(nb), na.max(nb))).or_insert(0.0) += w;
            }
            members = new_members;
            vert_w = new_w;
            edges = new_edges;
        }

        // --- Phase 2: greedy balanced initial assignment. ---------------
        let nv = members.len();
        let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nv];
        for (&(a, b), &w) in &edges {
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        }
        let min_member: Vec<u32> = members.iter().map(|g| g[0]).collect();
        let mut order: Vec<u32> = (0..nv as u32).collect();
        order.sort_by(|&x, &y| {
            vert_w[y as usize]
                .total_cmp(&vert_w[x as usize])
                .then(min_member[x as usize].cmp(&min_member[y as usize]))
        });
        let mut vassign = vec![u32::MAX; nv];
        let mut load = vec![0.0f64; k];
        let mut aff = vec![0.0f64; k];
        for &v in &order {
            let v = v as usize;
            aff.iter_mut().for_each(|a| *a = 0.0);
            for &(u, w) in &adj[v] {
                let s = vassign[u as usize];
                if s != u32::MAX {
                    aff[s as usize] += w;
                }
            }
            // Highest affinity among shards with room; ties prefer the
            // lighter shard, then the lower index. Fallback: lightest.
            let mut best: Option<usize> = None;
            for s in 0..k {
                if load[s] + vert_w[v] > limit {
                    continue;
                }
                best = Some(match best {
                    None => s,
                    Some(b) => {
                        if aff[s]
                            .total_cmp(&aff[b])
                            .then(load[b].total_cmp(&load[s]))
                            .is_gt()
                        {
                            s
                        } else {
                            b
                        }
                    }
                });
            }
            let s = best.unwrap_or_else(|| lightest(&load));
            vassign[v] = s as u32;
            load[s] += vert_w[v];
        }

        // --- Phase 3: project, rebalance, refine on the full graph. -----
        let mut assign = vec![0u32; n];
        for (v, group) in members.iter().enumerate() {
            for &m in group {
                assign[m as usize] = vassign[v];
            }
        }
        let mut load = vec![0.0f64; k];
        for (m, &s) in assign.iter().enumerate() {
            load[s as usize] += node_w[m];
        }
        // Rebalance: while a shard exceeds the envelope, move its
        // lightest positive-weight member to the lightest shard. Moves
        // never create a new violator (`min load + w ≤ avg + w_max ≤
        // limit`), so at most one pass over the members is needed; the
        // iteration cap is a pure backstop.
        for _ in 0..4 * n.max(1) {
            let h = heaviest(&load);
            if load[h] <= limit {
                break;
            }
            let l = lightest(&load);
            let m = (0..n)
                .filter(|&m| assign[m] as usize == h && node_w[m] > 0.0)
                .min_by(|&x, &y| node_w[x].total_cmp(&node_w[y]).then(x.cmp(&y)));
            let Some(m) = m else { break };
            assign[m] = l as u32;
            load[h] -= node_w[m];
            load[l] += node_w[m];
        }
        // FM-style boundary refinement: move a microservice to the
        // neighboring shard with the strictly highest adjacency gain,
        // inside the envelope. Each move strictly reduces the weighted
        // cut, so the loop terminates; passes are capped regardless.
        let mut full_adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (&(a, b), &w) in &edge_w {
            full_adj[a as usize].push((b, w));
            full_adj[b as usize].push((a, w));
        }
        let mut gain = vec![0.0f64; k];
        for _pass in 0..8 {
            let mut moved = false;
            for m in 0..n {
                if full_adj[m].is_empty() {
                    continue;
                }
                let cur = assign[m] as usize;
                gain.iter_mut().for_each(|g| *g = 0.0);
                for &(u, w) in &full_adj[m] {
                    gain[assign[u as usize] as usize] += w;
                }
                let mut best = cur;
                for s in 0..k {
                    if s == cur || load[s] + node_w[m] > limit {
                        continue;
                    }
                    if gain[s].total_cmp(&gain[best]).is_gt() {
                        best = s;
                    }
                }
                if best != cur {
                    assign[m] = best as u32;
                    load[cur] -= node_w[m];
                    load[best] += node_w[m];
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        Self { assign, shards: k }
    }

    /// The shard owning microservice `ms`.
    #[inline]
    #[must_use]
    pub(crate) fn shard_of(&self, ms: MicroserviceId) -> usize {
        self.assign[ms.index()] as usize
    }

    /// Number of shards the table partitions into.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of microservices covered by the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether the table covers no microservice.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// The raw assignment table, indexed by `MicroserviceId`.
    #[must_use]
    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }

    #[cfg(test)]
    /// Counts `(cut, total)` dependency-graph edges under this table,
    /// where an edge is cut when parent and child microservices live on
    /// different shards.
    #[must_use]
    pub(crate) fn cut_edges(&self, app: &App) -> (u64, u64) {
        let mut cut = 0u64;
        let mut total = 0u64;
        for (_, svc) in app.services() {
            for (_, node) in svc.graph.iter() {
                for stage in &node.stages {
                    for &child in stage {
                        total += 1;
                        let child_ms = svc.graph.node(child).microservice;
                        if self.shard_of(node.microservice) != self.shard_of(child_ms) {
                            cut += 1;
                        }
                    }
                }
            }
        }
        (cut, total)
    }

    /// Per-shard node weight under this table, plus the balance envelope
    /// `limit` that [`Partition::topology_aware`] guarantees — exposed so
    /// property tests assert against exactly the weights the partitioner
    /// used.
    #[must_use]
    pub fn balance_report(&self, app: &App, workloads: &WorkloadVector) -> (Vec<f64>, f64) {
        let node_w = partition_rate_hints(app, workloads).node_calls_per_ms;
        let mut load = vec![0.0f64; self.shards];
        for (m, &w) in node_w.iter().enumerate() {
            load[self.assign[m] as usize] += w;
        }
        let total: f64 = node_w.iter().sum();
        let avg = total / self.shards as f64;
        let w_max = node_w.iter().copied().fold(0.0f64, f64::max);
        let limit = (avg * (1.0 + Self::BALANCE_TOLERANCE)).max(avg + w_max);
        (load, limit)
    }
}

/// Index of the lightest shard, ties to the lowest index.
fn lightest(load: &[f64]) -> usize {
    let mut best = 0usize;
    for (s, w) in load.iter().enumerate().skip(1) {
        if w.total_cmp(&load[best]).is_lt() {
            best = s;
        }
    }
    best
}

/// Index of the heaviest shard, ties to the lowest index.
fn heaviest(load: &[f64]) -> usize {
    let mut best = 0usize;
    for (s, w) in load.iter().enumerate().skip(1) {
        if w.total_cmp(&load[best]).is_gt() {
            best = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::{AppBuilder, Sla};
    use erms_core::latency::LatencyProfile;
    use erms_core::resources::Resources;
    use erms_trace::synth::{generate, SynthConfig};

    fn uniform(app: &App, per_min: f64) -> WorkloadVector {
        let mut w = WorkloadVector::new();
        for (sid, _) in app.services() {
            w.set(sid, RequestRate::per_minute(per_min));
        }
        w
    }

    #[test]
    fn modulo_matches_the_engine_default() {
        let p = Partition::modulo(10, 4);
        for i in 0..10u32 {
            assert_eq!(p.shard_of(MicroserviceId::new(i)), i as usize % 4);
        }
        assert_eq!(p.shards(), 4);
        assert_eq!(Partition::modulo(3, 0).shards(), 1, "K=0 clamps to 1");
    }

    #[test]
    fn from_assignment_validates() {
        assert!(Partition::from_assignment(vec![0, 1, 2], 3).is_ok());
        assert!(Partition::from_assignment(vec![0, 3], 3).is_err());
        assert!(Partition::from_assignment(vec![], 0).is_err());
    }

    #[test]
    fn topology_aware_is_total_deterministic_and_single_shard_trivial() {
        let g = generate(&SynthConfig::scaled(300, 11));
        let w = uniform(&g.app, 600.0);
        for k in [1usize, 2, 3, 4, 8] {
            let p = Partition::topology_aware(&g.app, &w, k);
            assert_eq!(p.len(), 300);
            assert_eq!(p.shards(), k);
            assert!(p.assignment().iter().all(|&s| (s as usize) < k));
            assert_eq!(p, Partition::topology_aware(&g.app, &w, k));
        }
        let one = Partition::topology_aware(&g.app, &w, 1);
        assert!(one.assignment().iter().all(|&s| s == 0));
        assert_eq!(one.cut_edges(&g.app).0, 0);
    }

    #[test]
    fn topology_aware_respects_the_balance_envelope() {
        let g = generate(&SynthConfig::scaled(500, 3));
        let w = uniform(&g.app, 1_200.0);
        for k in [2usize, 4, 8] {
            let p = Partition::topology_aware(&g.app, &w, k);
            let (load, limit) = p.balance_report(&g.app, &w);
            let max = load.iter().copied().fold(0.0f64, f64::max);
            assert!(
                max <= limit * (1.0 + 1e-9),
                "K={k}: max shard load {max} exceeds envelope {limit} ({load:?})"
            );
        }
    }

    #[test]
    fn topology_aware_cuts_fewer_edges_than_modulo_on_sliced_pools() {
        // The synthetic preset gives every service a private contiguous
        // slice of the pool: a topology-aware partition keeps slices
        // together, the modulo partition shreds them.
        // The last row is the Taobao-scale bound: at K=4 the partitioner
        // cuts 52 % fewer edges than modulo there; at least 40 % is required.
        for (config, k, bound) in [
            (SynthConfig::scaled(800, 17), 2usize, 0.8),
            (SynthConfig::scaled(800, 17), 4, 0.8),
            (SynthConfig::taobao_scale(1), 4, 0.6),
        ] {
            let g = generate(&config);
            let w = uniform(&g.app, 600.0);
            let topo = Partition::topology_aware(&g.app, &w, k);
            let modulo = Partition::modulo(g.app.microservice_count(), k);
            let (tc, tt) = topo.cut_edges(&g.app);
            let (mc, mt) = modulo.cut_edges(&g.app);
            assert_eq!(tt, mt, "edge totals must agree");
            assert!(
                (tc as f64) <= bound * mc as f64,
                "K={k}: topology-aware cut {tc}/{tt} not within {bound} of modulo {mc}/{mt}"
            );
        }
    }

    #[test]
    fn zero_workloads_fall_back_to_structure() {
        let g = generate(&SynthConfig::scaled(120, 5));
        let p = Partition::topology_aware(&g.app, &WorkloadVector::new(), 4);
        let (load, limit) = p.balance_report(&g.app, &WorkloadVector::new());
        assert!(load.iter().sum::<f64>() > 0.0, "fallback weights are live");
        let max = load.iter().copied().fold(0.0f64, f64::max);
        assert!(max <= limit * (1.0 + 1e-9));
    }

    #[test]
    fn handles_degenerate_shapes() {
        // More shards than microservices, and a single-ms app.
        let mut b = AppBuilder::new("tiny");
        let m = b.microservice("m", LatencyProfile::linear(0.01, 1.0), Resources::default());
        b.service("s", Sla::p95_ms(50.0), |g| {
            g.entry(m);
        });
        let app = b.build().unwrap();
        let w = uniform(&app, 60.0);
        let p = Partition::topology_aware(&app, &w, 8);
        assert_eq!(p.len(), 1);
        assert_eq!(p.shards(), 8);
        assert_eq!(p.cut_edges(&app), (0, 0));
    }
}
