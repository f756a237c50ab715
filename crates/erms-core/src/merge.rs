//! Dependency merge: collapsing a general graph into sequential virtual
//! microservices (§4.2, Algorithm 1, Figs. 7–8).
//!
//! The latency-target allocation of Eq. (5) only applies to a *chain* of
//! sequentially-executed microservices. Erms therefore merges a tree-shaped
//! dependency graph bottom-up into *virtual microservices*:
//!
//! * **Sequential merge** (Eqs. 6–9): microservices executed one after
//!   another merge into a virtual microservice with
//!   `√(a*·R*) = Σ√(aᵢ·Rᵢ)`, `√(a*/R*) = Σ√(aᵢ/Rᵢ)` and `b* = Σ bᵢ`, chosen
//!   so the virtual node yields the same latency and the same resource usage
//!   as the optimally-provisioned originals.
//! * **Parallel merge** (Eqs. 10–12): parallel microservices must receive
//!   *equal* latency targets at the optimum, and merge into
//!   `a** = Σ aᵢ`, `b** = max bᵢ`, `R** = Σ nᵢRᵢ / Σ nᵢ` — since the
//!   container counts `nᵢ` are not known until targets are fixed, we use the
//!   optimal proportionality `nᵢ ∝ aᵢ` (exact when the intercepts are equal,
//!   the regime where the paper's `≈` in Eq. 10 is tight), giving
//!   `R** = Σ aᵢRᵢ / Σ aᵢ`.
//!
//! After merging, the whole graph is a single virtual microservice; targets
//! are then *distributed* back down the merge tree (Fig. 8): a sequential
//! merge splits its target among children by the closed-form weights of
//! Eq. (5), and a parallel merge hands every child the same target.
//!
//! Call multiplicities are folded into the per-node parameters before
//! merging (`ã = a·m²`, `b̃ = b·m` for a node invoked `m` times per request,
//! exact for sequential repeat calls); with `m = 1` everything reduces to
//! the paper's equations verbatim.
//!
//! # Arena representation
//!
//! [`MergedGraph`] stores the merge tree as a *post-order arena* — parallel
//! `Vec`s of kinds, parameters, child ranges into one flat child-index
//! array, parent links and subtree sizes — rather than `Box`-linked nodes.
//! Building a tree costs a constant number of allocations (each `Vec` is
//! sized exactly by a pre-pass), and both the bottom-up merge and the
//! top-down target distribution are flat index scans with no pointer
//! chasing. Two invariants make incremental re-planning
//! ([`crate::incremental`]) possible:
//!
//! * **post-order**: every node's children precede it, so an ascending
//!   index scan is a valid bottom-up merge order and a descending scan a
//!   valid top-down distribution order;
//! * **contiguity**: each subtree occupies the contiguous index range
//!   `root − subtree_size + 1 ..= root`, so an entire clean subtree can be
//!   skipped with one index jump.
//!
//! The arena is the tree's only form: its shape is read through
//! [`MergedGraph::root_index`], [`MergedGraph::kind`] and
//! [`MergedGraph::children_of`].

use crate::graph::DependencyGraph;
use crate::ids::NodeId;

/// Interference-resolved, multiplicity-folded parameters of one (real or
/// virtual) microservice used by the merge algebra: latency
/// `L = a·γ_svc/n + b` and per-container dominant resource demand `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualParams {
    /// Effective slope `ã` with respect to the *service* workload.
    pub a: f64,
    /// Effective intercept `b̃` in milliseconds.
    pub b: f64,
    /// Dominant resource demand of one container (Eq. 3).
    pub r: f64,
}

impl VirtualParams {
    /// Creates parameters, clamping `a` and `r` positive so the √-algebra
    /// below stays well-defined. Intercepts may be negative (a steep
    /// post-knee segment can cross the y-axis below zero).
    pub fn new(a: f64, b: f64, r: f64) -> Self {
        Self {
            a: a.max(1e-12),
            b,
            r: r.max(1e-12),
        }
    }

    /// Bitwise equality — the comparison the incremental planner uses for
    /// dirtiness: `-0.0 != 0.0` and `NaN == NaN`, so "unchanged" means
    /// "replays the cold computation exactly".
    #[must_use]
    pub fn bits_eq(&self, other: &VirtualParams) -> bool {
        self.a.to_bits() == other.a.to_bits()
            && self.b.to_bits() == other.b.to_bits()
            && self.r.to_bits() == other.r.to_bits()
    }

    /// Sequential merge of several microservices (Eqs. 7–9, n-ary form).
    pub fn merge_sequential(parts: &[VirtualParams]) -> VirtualParams {
        Self::merge_sequential_iter(parts.iter().copied())
    }

    /// Parallel merge of several microservices (Eqs. 11–12, with the
    /// `nᵢ ∝ aᵢ` weighting for `R**` described in the module docs).
    pub fn merge_parallel(parts: &[VirtualParams]) -> VirtualParams {
        Self::merge_parallel_iter(parts.iter().copied())
    }

    /// Iterator form of the sequential merge. The summation order of every
    /// accumulator follows the iterator order; callers that need
    /// bit-identical replays must present children in the same order.
    fn merge_sequential_iter(parts: impl Iterator<Item = VirtualParams> + Clone) -> VirtualParams {
        let sqrt_ar: f64 = parts.clone().map(|p| (p.a * p.r).sqrt()).sum();
        let sqrt_a_over_r: f64 = parts.clone().map(|p| (p.a / p.r).sqrt()).sum();
        let b: f64 = parts.map(|p| p.b).sum();
        VirtualParams::new(sqrt_ar * sqrt_a_over_r, b, sqrt_ar / sqrt_a_over_r)
    }

    /// Iterator form of the parallel merge (same ordering caveat).
    fn merge_parallel_iter(parts: impl Iterator<Item = VirtualParams> + Clone) -> VirtualParams {
        let a: f64 = parts.clone().map(|p| p.a).sum();
        let b: f64 = parts
            .clone()
            .map(|p| p.b)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(f64::MIN); // empty input degenerates safely
        let ar: f64 = parts.map(|p| p.a * p.r).sum();
        VirtualParams::new(a, b, ar / a.max(1e-12))
    }
}

/// Kind of one arena slot of a [`MergedGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaKind {
    /// A real call node of the original graph.
    Leaf(NodeId),
    /// A virtual sequential merge (Eqs. 7–9).
    Sequential,
    /// A virtual parallel merge (Eqs. 11–12).
    Parallel,
}

/// Sentinel parent index of the root.
const NO_PARENT: u32 = u32::MAX;

/// The result of merging one service's dependency graph, stored as a
/// post-order arena (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct MergedGraph {
    kinds: Vec<ArenaKind>,
    params: Vec<VirtualParams>,
    /// Parent arena index per node ([`NO_PARENT`] for the root).
    parent: Vec<u32>,
    /// Per node, the range `child_start..child_start + child_len` of
    /// `children` holding its direct children, in execution order.
    child_start: Vec<u32>,
    child_len: Vec<u32>,
    /// Arena size of each node's subtree (including itself); with the
    /// post-order layout the subtree is `i + 1 - subtree_size[i] ..= i`.
    subtree_size: Vec<u32>,
    /// Flat child-index array all `child_start` ranges point into.
    children: Vec<u32>,
    /// Arena index of the leaf for each graph node (indexed by `NodeId`).
    leaf_of: Vec<u32>,
    node_count: usize,
}

impl MergedGraph {
    /// Merges a dependency graph given per-node folded parameters
    /// (indexed by [`NodeId`]).
    ///
    /// Each node's subtree is the sequential merge of the node itself with
    /// the parallel merge of each of its stages, processed bottom-up exactly
    /// as Algorithm 1's `Merge` of two-tier invocations ("merge parallel
    /// calls first, sequential calls last"). The arena `Vec`s are sized by
    /// a pre-pass, so the whole build performs a constant number of
    /// allocations regardless of graph size.
    ///
    /// ```
    /// use erms_core::graph::GraphBuilder;
    /// use erms_core::ids::MicroserviceId;
    /// use erms_core::merge::{MergedGraph, VirtualParams};
    ///
    /// // Fig. 7: T calls Url and U in parallel, then C.
    /// let mut g = GraphBuilder::new();
    /// let t = g.entry(MicroserviceId::new(0));
    /// let par = g.call_par(t, &[MicroserviceId::new(1), MicroserviceId::new(2)]);
    /// let c = g.call_seq(t, MicroserviceId::new(3));
    /// let graph = g.build().unwrap();
    ///
    /// let params = vec![VirtualParams::new(0.02, 1.0, 0.1); 4];
    /// let merged = MergedGraph::merge(&graph, &params);
    /// let targets = merged.assign_targets(100.0).expect("feasible");
    /// // Parallel children receive equal targets (Eq. 10) and every
    /// // critical path sums exactly to the SLA.
    /// assert_eq!(targets[par[0].index()], targets[par[1].index()]);
    /// let path: f64 = targets[t.index()] + targets[par[0].index()] + targets[c.index()];
    /// assert!((path - 100.0).abs() < 1e-9);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the graph's node count.
    pub fn merge(graph: &DependencyGraph, params: &[VirtualParams]) -> Self {
        assert_eq!(
            params.len(),
            graph.len(),
            "one VirtualParams entry required per graph node"
        );
        // Pre-pass: exact arena and child-array sizes.
        let leaves = graph.len();
        let mut sequentials = 0usize;
        let mut parallels = 0usize;
        let mut child_slots = 0usize;
        for (_, node) in graph.iter() {
            if !node.stages.is_empty() {
                sequentials += 1;
                child_slots += 1 + node.stages.len();
                for stage in &node.stages {
                    if stage.len() > 1 {
                        parallels += 1;
                        child_slots += stage.len();
                    }
                }
            }
        }
        let total = leaves + sequentials + parallels;
        let mut merged = Self {
            kinds: Vec::with_capacity(total),
            params: Vec::with_capacity(total),
            parent: vec![NO_PARENT; total],
            child_start: Vec::with_capacity(total),
            child_len: Vec::with_capacity(total),
            subtree_size: Vec::with_capacity(total),
            children: Vec::with_capacity(child_slots),
            leaf_of: vec![0; leaves],
            node_count: leaves,
        };
        let mut scratch: Vec<u32> = Vec::with_capacity(child_slots.max(1));
        let root = merged.build_subtree(graph, graph.root(), params, &mut scratch);
        debug_assert_eq!(root as usize, total - 1, "root must be the last slot");
        merged
    }

    /// Appends one arena node whose children are `child_block`, returning
    /// its index. Parameters are folded from the children afterwards via
    /// [`refold`](Self::refold) so cold build and incremental recompute
    /// share one code path (and hence one floating-point op order).
    fn push_node(&mut self, kind: ArenaKind, size: u32, child_block: &[u32]) -> u32 {
        let idx = self.kinds.len() as u32;
        let start = self.children.len() as u32;
        self.children.extend_from_slice(child_block);
        for &c in child_block {
            self.parent[c as usize] = idx;
        }
        self.kinds.push(kind);
        // Placeholder until folded (leaves overwrite it directly).
        self.params.push(VirtualParams::new(1.0, 0.0, 1.0));
        self.child_start.push(start);
        self.child_len.push(child_block.len() as u32);
        self.subtree_size.push(size);
        idx
    }

    fn build_subtree(
        &mut self,
        graph: &DependencyGraph,
        id: NodeId,
        params: &[VirtualParams],
        scratch: &mut Vec<u32>,
    ) -> u32 {
        let node = graph.node(id);
        let leaf = self.push_node(ArenaKind::Leaf(id), 1, &[]);
        self.params[leaf as usize] = params[id.index()];
        self.leaf_of[id.index()] = leaf;
        if node.stages.is_empty() {
            return leaf;
        }
        // Merge parallel calls first (Algorithm 1, lines 24–27) ...
        let mark = scratch.len();
        scratch.push(leaf);
        let mut size = 1u32; // the own leaf
        for stage in &node.stages {
            if stage.len() == 1 {
                let child = self.build_subtree(graph, stage[0], params, scratch);
                size += self.subtree_size[child as usize];
                scratch.push(child);
            } else {
                let stage_mark = scratch.len();
                let mut stage_size = 1u32; // the parallel node itself
                for &gc in stage {
                    let child = self.build_subtree(graph, gc, params, scratch);
                    stage_size += self.subtree_size[child as usize];
                    scratch.push(child);
                }
                let par = {
                    let block = &scratch[stage_mark..];
                    // Split the borrow: the block lives in `scratch`, not
                    // in `self`, so push_node may mutate the arena.
                    let par = self.push_node(ArenaKind::Parallel, stage_size, block);
                    self.refold(par as usize);
                    par
                };
                scratch.truncate(stage_mark);
                scratch.push(par);
                size += stage_size;
            }
        }
        // ... then merge sequential calls (the node plus each stage).
        size += 1; // the sequential node itself
        let seq = self.push_node(ArenaKind::Sequential, size, &scratch[mark..]);
        self.refold(seq as usize);
        scratch.truncate(mark);
        seq
    }

    /// Recomputes node `i`'s parameters from its children (in child order)
    /// and stores them, returning the new value. The single source of the
    /// fold order for both cold builds and incremental re-merges.
    pub(crate) fn refold(&mut self, i: usize) -> VirtualParams {
        let folded = match self.kinds[i] {
            ArenaKind::Leaf(_) => self.params[i],
            ArenaKind::Sequential => VirtualParams::merge_sequential_iter(
                self.children_of(i).iter().map(|&c| self.params[c as usize]),
            ),
            ArenaKind::Parallel => VirtualParams::merge_parallel_iter(
                self.children_of(i).iter().map(|&c| self.params[c as usize]),
            ),
        };
        self.params[i] = folded;
        folded
    }

    /// Overwrites the folded parameters of the leaf standing for graph
    /// node `node`. Ancestors are stale until re-folded bottom-up.
    pub(crate) fn set_leaf_params(&mut self, node: NodeId, params: VirtualParams) {
        let leaf = self.leaf_of[node.index()] as usize;
        self.params[leaf] = params;
    }

    /// Number of arena slots (leaves + virtual merge nodes).
    pub fn arena_len(&self) -> usize {
        self.kinds.len()
    }

    /// Arena index of the root (always the last slot, by post-order).
    pub fn root_index(&self) -> usize {
        self.kinds.len() - 1
    }

    /// Kind of arena slot `i`.
    pub fn kind(&self, i: usize) -> ArenaKind {
        self.kinds[i]
    }

    /// Folded parameters of arena slot `i`.
    pub fn node_params(&self, i: usize) -> VirtualParams {
        self.params[i]
    }

    /// Direct children of arena slot `i`, in execution order.
    pub fn children_of(&self, i: usize) -> &[u32] {
        let start = self.child_start[i] as usize;
        &self.children[start..start + self.child_len[i] as usize]
    }

    /// Parent of arena slot `i`, or `None` for the root.
    pub fn parent_of(&self, i: usize) -> Option<usize> {
        let p = self.parent[i];
        (p != NO_PARENT).then_some(p as usize)
    }

    /// Size (in arena slots) of the subtree rooted at `i`, including `i`;
    /// the subtree occupies `i + 1 - subtree_size(i) ..= i`.
    pub fn subtree_size(&self, i: usize) -> usize {
        self.subtree_size[i] as usize
    }

    /// Arena index of the leaf standing for graph node `node`.
    pub fn leaf_index(&self, node: NodeId) -> usize {
        self.leaf_of[node.index()] as usize
    }

    /// The merged whole-graph parameters — a single virtual microservice
    /// standing for the entire service.
    pub fn params(&self) -> VirtualParams {
        self.params[self.root_index()]
    }

    /// The latency floor: the smallest end-to-end latency achievable with
    /// unbounded resources (the merged intercept, i.e. the worst path's
    /// intercept sum).
    pub fn floor_ms(&self) -> f64 {
        self.params().b
    }

    /// Sequential-split totals of node `i` (Eq. 5): `Σ bⱼ` over children
    /// and `Σ √(aⱼ·Rⱼ)` over children, each summed in child order.
    pub(crate) fn seq_totals(&self, i: usize) -> (f64, f64) {
        let total_b: f64 = self
            .children_of(i)
            .iter()
            .map(|&c| self.params[c as usize].b)
            .sum();
        let total_w: f64 = self
            .children_of(i)
            .iter()
            .map(|&c| {
                let p = self.params[c as usize];
                (p.a * p.r).sqrt()
            })
            .sum();
        (total_b, total_w)
    }

    /// Budget node `i` hands to child `c` given its own budget and the
    /// precomputed [`seq_totals`](Self::seq_totals). One expression shared
    /// by the full scan and the incremental scan, so both produce the same
    /// floating-point bits.
    pub(crate) fn seq_child_budget(&self, c: usize, budget: f64, totals: (f64, f64)) -> f64 {
        let (total_b, total_w) = totals;
        let slack = budget - total_b;
        let p = self.params[c];
        let w = (p.a * p.r).sqrt() / total_w;
        p.b + w * slack
    }

    /// Distributes an end-to-end latency budget over all real call nodes
    /// (Fig. 8), returning per-node targets indexed by [`NodeId`].
    ///
    /// Returns `None` when `sla_ms` does not exceed [`floor_ms`](Self::floor_ms)
    /// (no finite allocation can meet the SLA).
    ///
    /// The returned targets satisfy, within the linear model, that the sum
    /// of targets along every critical path is at most `sla_ms`, with
    /// equality on the binding path.
    pub fn assign_targets(&self, sla_ms: f64) -> Option<Vec<f64>> {
        if !(sla_ms.is_finite() && sla_ms > self.floor_ms()) {
            return None;
        }
        let mut targets = vec![f64::NAN; self.node_count];
        let mut budgets = vec![0.0f64; self.kinds.len()];
        self.distribute_all(sla_ms, &mut budgets, &mut targets);
        Some(targets)
    }

    /// Full top-down distribution: a descending index scan (parents before
    /// children, by post-order). `budgets` is per arena slot; `out` is per
    /// graph node.
    pub(crate) fn distribute_all(&self, root_budget: f64, budgets: &mut [f64], out: &mut [f64]) {
        budgets[self.root_index()] = root_budget;
        for i in (0..self.kinds.len()).rev() {
            let budget = budgets[i];
            match self.kinds[i] {
                ArenaKind::Leaf(node) => out[node.index()] = budget,
                // Optimal parallel targets are equal (Eq. 10).
                ArenaKind::Parallel => {
                    for &c in self.children_of(i) {
                        budgets[c as usize] = budget;
                    }
                }
                // Eq. (5): target_i = b_i + w_i · (budget − Σ b_j) with
                // w_i = √(a_i R_i) / Σ √(a_j R_j); the common workload γ
                // cancels out of the weights.
                ArenaKind::Sequential => {
                    let totals = self.seq_totals(i);
                    for &c in self.children_of(i) {
                        budgets[c as usize] = self.seq_child_budget(c as usize, budget, totals);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ids::MicroserviceId;

    fn ms(i: u32) -> MicroserviceId {
        MicroserviceId::new(i)
    }

    fn vp(a: f64, b: f64, r: f64) -> VirtualParams {
        VirtualParams::new(a, b, r)
    }

    #[test]
    fn sequential_merge_matches_eq7_to_eq9() {
        let u = vp(0.08, 3.0, 0.1);
        let c = vp(0.02, 1.0, 0.2);
        let m = VirtualParams::merge_sequential(&[u, c]);
        let sqrt_ar = (u.a * u.r).sqrt() + (c.a * c.r).sqrt();
        let sqrt_aor = (u.a / u.r).sqrt() + (c.a / c.r).sqrt();
        assert!((m.a - sqrt_ar * sqrt_aor).abs() < 1e-12);
        assert!((m.b - 4.0).abs() < 1e-12);
        assert!((m.r - sqrt_ar / sqrt_aor).abs() < 1e-12);
        // Invariant used by Eq. (5): √(a*R*) adds up.
        assert!(((m.a * m.r).sqrt() - sqrt_ar).abs() < 1e-12);
    }

    #[test]
    fn parallel_merge_matches_eq11() {
        let x = vp(0.05, 2.0, 0.1);
        let y = vp(0.03, 5.0, 0.3);
        let m = VirtualParams::merge_parallel(&[x, y]);
        assert!((m.a - 0.08).abs() < 1e-12);
        assert!((m.b - 5.0).abs() < 1e-12);
        let expected_r = (x.a * x.r + y.a * y.r) / (x.a + y.a);
        assert!((m.r - expected_r).abs() < 1e-12);
    }

    #[test]
    fn merge_preserves_resource_usage_of_optimal_chain() {
        // For a sequential chain at workload γ and SLA T, the optimal
        // resource usage is (Σ√(a_i γ R_i))² / (T − Σb). The merged single
        // virtual node must reproduce it: a*γR*/(T−b*) with
        // a*R* = (Σ√(a_iR_i))². Verify numerically.
        let parts = [vp(0.08, 3.0, 0.1), vp(0.02, 1.0, 0.2), vp(0.05, 2.0, 0.15)];
        let gamma = 1000.0;
        let sla = 120.0;
        let m = VirtualParams::merge_sequential(&parts);
        let direct: f64 = {
            let s: f64 = parts.iter().map(|p| (p.a * gamma * p.r).sqrt()).sum();
            let b: f64 = parts.iter().map(|p| p.b).sum();
            s * s / (sla - b)
        };
        let merged = m.a * gamma * m.r / (sla - m.b);
        assert!(
            (direct - merged).abs() / direct < 1e-9,
            "direct {direct} vs merged {merged}"
        );
    }

    /// Fig. 7 graph: T calls Url ∥ U, then C.
    fn fig7_graph() -> (DependencyGraph, [NodeId; 4]) {
        let mut g = GraphBuilder::new();
        let t = g.entry(ms(0));
        let par = g.call_par(t, &[ms(1), ms(2)]);
        let c = g.call_seq(t, ms(3));
        (g.build().unwrap(), [t, par[0], par[1], c])
    }

    fn fig7_params() -> Vec<VirtualParams> {
        vec![
            vp(0.02, 1.0, 0.1), // T
            vp(0.04, 2.0, 0.1), // Url
            vp(0.08, 3.0, 0.1), // U
            vp(0.03, 1.5, 0.1), // C
        ]
    }

    #[test]
    fn fig7_merge_structure() {
        let (graph, _) = fig7_graph();
        let merged = MergedGraph::merge(&graph, &fig7_params());
        // Root is a sequential merge of [T, parallel(Url, U), C].
        let root = merged.root_index();
        assert_eq!(merged.kind(root), ArenaKind::Sequential);
        let kinds: Vec<ArenaKind> = merged
            .children_of(root)
            .iter()
            .map(|&c| merged.kind(c as usize))
            .collect();
        assert!(matches!(
            kinds[..],
            [ArenaKind::Leaf(_), ArenaKind::Parallel, ArenaKind::Leaf(_)]
        ));
        let leaves = (0..merged.arena_len())
            .filter(|&i| matches!(merged.kind(i), ArenaKind::Leaf(_)))
            .count();
        assert_eq!(leaves, 4);
    }

    #[test]
    fn arena_is_post_order_and_contiguous() {
        let (graph, _) = fig7_graph();
        let merged = MergedGraph::merge(&graph, &fig7_params());
        // 4 leaves + 1 parallel + 1 sequential.
        assert_eq!(merged.arena_len(), 6);
        assert_eq!(merged.root_index(), 5);
        assert_eq!(merged.subtree_size(merged.root_index()), 6);
        for i in 0..merged.arena_len() {
            // Children precede their parent (post-order)...
            for &c in merged.children_of(i) {
                assert!((c as usize) < i, "child {c} of {i} must precede it");
                assert_eq!(merged.parent_of(c as usize), Some(i));
            }
            // ... and each subtree is a contiguous range ending at its
            // root: every slot inside (other than the root) has its parent
            // inside too.
            let lo = i + 1 - merged.subtree_size(i);
            for j in lo..i {
                let p = merged.parent_of(j).expect("non-root inside a subtree");
                assert!((lo..=i).contains(&p), "subtree {lo}..={i} leaks via {j}");
            }
        }
        // The root has no parent; every graph node maps to its leaf.
        assert_eq!(merged.parent_of(merged.root_index()), None);
        for (id, _) in graph.iter() {
            assert!(matches!(
                merged.kind(merged.leaf_index(id)),
                ArenaKind::Leaf(n) if n == id
            ));
        }
    }

    #[test]
    fn refold_is_idempotent_on_a_cold_build() {
        let (graph, _) = fig7_graph();
        let mut merged = MergedGraph::merge(&graph, &fig7_params());
        let before: Vec<VirtualParams> = (0..merged.arena_len())
            .map(|i| merged.node_params(i))
            .collect();
        for i in 0..merged.arena_len() {
            merged.refold(i);
        }
        for (i, b) in before.iter().enumerate() {
            assert!(
                merged.node_params(i).bits_eq(b),
                "refold changed bits at slot {i}"
            );
        }
    }

    #[test]
    fn fig7_targets_sum_to_sla_on_every_path() {
        let (graph, [t, url, u, c]) = fig7_graph();
        let merged = MergedGraph::merge(&graph, &fig7_params());
        let sla = 100.0;
        let targets = merged.assign_targets(sla).expect("feasible");
        // Parallel children share the same target.
        assert!((targets[url.index()] - targets[u.index()]).abs() < 1e-9);
        // Both critical paths hit the SLA exactly (parallel targets equal).
        let p1 = targets[t.index()] + targets[u.index()] + targets[c.index()];
        let p2 = targets[t.index()] + targets[url.index()] + targets[c.index()];
        assert!((p1 - sla).abs() < 1e-9, "path1 {p1}");
        assert!((p2 - sla).abs() < 1e-9, "path2 {p2}");
    }

    #[test]
    fn targets_exceed_intercepts() {
        let (graph, _) = fig7_graph();
        let params = fig7_params();
        let merged = MergedGraph::merge(&graph, &params);
        let targets = merged.assign_targets(50.0).expect("feasible");
        for (i, t) in targets.iter().enumerate() {
            assert!(
                *t > params[i].b,
                "target {t} must exceed intercept {}",
                params[i].b
            );
        }
    }

    #[test]
    fn infeasible_sla_returns_none() {
        let (graph, _) = fig7_graph();
        let merged = MergedGraph::merge(&graph, &fig7_params());
        // Floor = 1.0 + max(2.0, 3.0) + 1.5 = 5.5.
        assert!((merged.floor_ms() - 5.5).abs() < 1e-9);
        assert!(merged.assign_targets(5.5).is_none());
        assert!(merged.assign_targets(5.0).is_none());
        assert!(merged.assign_targets(f64::NAN).is_none());
        assert!(merged.assign_targets(5.6).is_some());
    }

    #[test]
    fn single_node_graph_gets_whole_sla() {
        let mut g = GraphBuilder::new();
        let root = g.entry(ms(0));
        let graph = g.build().unwrap();
        let merged = MergedGraph::merge(&graph, &[vp(0.1, 2.0, 0.1)]);
        let targets = merged.assign_targets(80.0).unwrap();
        assert!((targets[root.index()] - 80.0).abs() < 1e-12);
    }

    #[test]
    fn more_sensitive_microservice_gets_larger_share() {
        // Two-node chain; U has 4x the slope of P, equal R and b -> U's
        // target slack share should be twice P's (√4 = 2), per Eq. (5).
        let mut g = GraphBuilder::new();
        let u = g.entry(ms(0));
        let p = g.call_seq(u, ms(1));
        let graph = g.build().unwrap();
        let params = vec![vp(0.08, 0.0, 0.1), vp(0.02, 0.0, 0.1)];
        let merged = MergedGraph::merge(&graph, &params);
        let targets = merged.assign_targets(300.0).unwrap();
        assert!(
            (targets[u.index()] / targets[p.index()] - 2.0).abs() < 1e-9,
            "{targets:?}"
        );
    }
}
