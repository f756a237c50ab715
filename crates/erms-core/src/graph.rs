//! Microservice dependency graphs (§2.1, Fig. 1).
//!
//! A service's dependency graph is a rooted tree of *call nodes*. Each node
//! references a deployed microservice and organises its downstream calls
//! into sequential *stages*; the calls within one stage run in parallel,
//! and stages run one after another. This captures exactly the structures
//! the paper manipulates — e.g. Fig. 7, where `T` first calls `Url` and `U`
//! in parallel and then calls `C`:
//!
//! ```text
//! T: stages = [ [Url, U],  [C] ]
//! ```
//!
//! The end-to-end latency of a request is the latency of the root node plus,
//! for every stage, the maximum subtree latency among the stage's children —
//! equivalently, the longest *critical path* through the graph (§2.1).
//!
//! Production graphs behave like trees \[26\], and the merge algorithm of §4.2
//! operates on two-tier invocations of a tree, so this crate represents
//! graphs as trees; a microservice shared between several call sites simply
//! appears as several nodes referencing the same [`MicroserviceId`].

use crate::ids::{MicroserviceId, NodeId};

/// One call node in a dependency graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The microservice this node invokes.
    pub microservice: MicroserviceId,
    /// Average number of calls made to this node per service request
    /// (call multiplicity). Usually `1.0`.
    pub multiplicity: f64,
    /// Downstream call stages: stages execute sequentially, the calls inside
    /// one stage execute in parallel.
    pub stages: Vec<Vec<NodeId>>,
}

impl Node {
    fn new(microservice: MicroserviceId, multiplicity: f64) -> Self {
        Self {
            microservice,
            multiplicity,
            stages: Vec::new(),
        }
    }

    /// Iterates over all children in all stages.
    pub(crate) fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.stages.iter().flatten().copied()
    }
}

/// A rooted, tree-shaped dependency graph of one service.
///
/// Construct through [`GraphBuilder`], normally via
/// [`AppBuilder::service`](crate::app::AppBuilder::service).
#[derive(Debug, Clone, PartialEq)]
pub struct DependencyGraph {
    nodes: Vec<Node>,
    root: NodeId,
}

impl DependencyGraph {
    /// The entry node that receives user requests.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of call nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph; node ids are only
    /// produced by this graph's builder, so that is a programming error.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over `(NodeId, &Node)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i as u32), n))
    }

    /// The *effective* per-request call multiplicity of every node, indexed
    /// by node id: the product of multiplicities along the path from the
    /// root. A node with multiplicity 2 under a parent with multiplicity 3
    /// is invoked 6 times per service request.
    pub fn effective_multiplicities(&self) -> Vec<f64> {
        let mut mult = vec![0.0; self.nodes.len()];
        self.fill_multiplicity(self.root, 1.0, &mut mult);
        mult
    }

    fn fill_multiplicity(&self, id: NodeId, acc: f64, out: &mut [f64]) {
        let node = self.node(id);
        let eff = acc * node.multiplicity;
        out[id.index()] = eff;
        for child in node.children() {
            self.fill_multiplicity(child, eff, out);
        }
    }

    /// Enumerates all critical paths (root-to-leaf microservice sequences
    /// that could determine end-to-end latency, §2.1).
    ///
    /// For every stage, the path continues through *each* parallel child in
    /// turn (any of them can be the stage maximum), and sequential stages
    /// contribute their nodes jointly; a path is therefore a choice of one
    /// child per stage, recursively. The number of paths can grow
    /// combinatorially for very bushy graphs, so this is intended for
    /// analysis and tests, not the scaling fast path.
    pub fn critical_paths(&self) -> Vec<Vec<NodeId>> {
        self.paths_from(self.root)
    }

    fn paths_from(&self, id: NodeId) -> Vec<Vec<NodeId>> {
        let node = self.node(id);
        // Paths through this node: node itself plus, for each stage, one
        // choice of child-subtree path. Cartesian product across stages.
        let mut suffixes: Vec<Vec<NodeId>> = vec![Vec::new()];
        for stage in &node.stages {
            let mut stage_paths = Vec::new();
            for &child in stage {
                stage_paths.extend(self.paths_from(child));
            }
            if stage_paths.is_empty() {
                continue;
            }
            let mut next = Vec::with_capacity(suffixes.len() * stage_paths.len());
            for prefix in &suffixes {
                for sp in &stage_paths {
                    let mut joined = prefix.clone();
                    joined.extend_from_slice(sp);
                    next.push(joined);
                }
            }
            suffixes = next;
        }
        suffixes
            .into_iter()
            .map(|mut rest| {
                let mut path = vec![id];
                path.append(&mut rest);
                path
            })
            .collect()
    }

    /// The set of distinct microservices referenced by this graph, in first
    /// appearance order.
    pub fn microservices(&self) -> Vec<MicroserviceId> {
        let mut seen = Vec::new();
        for node in &self.nodes {
            if !seen.contains(&node.microservice) {
                seen.push(node.microservice);
            }
        }
        seen
    }

    /// A cheap structural content hash (FNV-1a over the root, every node's
    /// microservice, multiplicity bits and stage layout).
    ///
    /// Two graphs with equal hashes are *probably* identical; callers that
    /// need certainty (e.g. the [`PlanCache`](crate::cache::PlanCache)) must
    /// still compare the graphs with `==` on hash collision. Equal graphs
    /// always produce equal hashes, so the hash is a valid first-level cache
    /// key for anything that is a pure function of the graph structure.
    pub fn content_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |word: u64| {
            hash ^= word;
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        mix(self.root.index() as u64);
        mix(self.nodes.len() as u64);
        for node in &self.nodes {
            mix(node.microservice.index() as u64);
            mix(node.multiplicity.to_bits());
            mix(node.stages.len() as u64);
            for stage in &node.stages {
                mix(stage.len() as u64);
                for child in stage {
                    mix(child.index() as u64);
                }
            }
        }
        hash
    }

    /// Reassembles a graph from externally stored parts (the inverse of
    /// [`iter`](Self::iter) + [`root`](Self::root)), validating the tree
    /// shape a [`GraphBuilder`] guarantees by construction: every child id
    /// in bounds, the root reachable to every node, and each node having
    /// exactly one parent. Used by snapshot/restore codecs that persist
    /// graphs outside the process.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn from_parts(nodes: Vec<Node>, root: NodeId) -> Result<Self, String> {
        if nodes.is_empty() {
            return Err("graph has no nodes".to_string());
        }
        if root.index() >= nodes.len() {
            return Err(format!(
                "root {root} out of bounds for {} nodes",
                nodes.len()
            ));
        }
        let mut parents = vec![0usize; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            for child in node.children() {
                if child.index() >= nodes.len() {
                    return Err(format!("node {i} references out-of-bounds child {child}"));
                }
                if child.index() == root.index() {
                    return Err(format!("root {root} appears as a child of node {i}"));
                }
                parents[child.index()] += 1;
                if parents[child.index()] > 1 {
                    return Err(format!("node {child} has more than one parent"));
                }
            }
        }
        // Parent counts alone admit a cycle disconnected from the root
        // (each cycle member has exactly one parent — inside the cycle), so
        // walk from the root and require full coverage. The walk terminates
        // because a cycle *reachable* from the root would need a node with
        // two parents, which was rejected above.
        let mut visited = vec![false; nodes.len()];
        let mut stack = vec![root.index()];
        let mut seen = 0usize;
        while let Some(i) = stack.pop() {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            seen += 1;
            stack.extend(nodes[i].children().map(|c| c.index()));
        }
        if seen != nodes.len() {
            return Err(format!(
                "{} of {} nodes unreachable from the root",
                nodes.len() - seen,
                nodes.len()
            ));
        }
        Ok(Self { nodes, root })
    }

    /// Total calls per service request reaching microservice `ms`
    /// (the sum of effective multiplicities of nodes that reference it).
    pub fn calls_per_request(&self, ms: MicroserviceId) -> f64 {
        let mult = self.effective_multiplicities();
        self.iter()
            .filter(|(_, n)| n.microservice == ms)
            .map(|(id, _)| mult[id.index()])
            .sum()
    }
}

/// Incrementally builds a [`DependencyGraph`].
///
/// Obtained from [`AppBuilder::service`](crate::app::AppBuilder::service);
/// see the crate-level example.
#[derive(Debug)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    root: Option<NodeId>,
}

impl GraphBuilder {
    /// Creates an empty builder. Prefer building through
    /// [`AppBuilder::service`](crate::app::AppBuilder::service), which also
    /// validates microservice ids against the application.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            root: None,
        }
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Declares the entry microservice (the graph root). May only be called
    /// once per graph.
    ///
    /// # Panics
    ///
    /// Panics if an entry node already exists — a graph has exactly one
    /// entry microservice (§2.1).
    pub fn entry(&mut self, ms: MicroserviceId) -> NodeId {
        assert!(self.root.is_none(), "graph already has an entry node");
        let id = self.push(Node::new(ms, 1.0));
        self.root = Some(id);
        id
    }

    /// Appends a new sequential stage under `parent` containing a single
    /// call to `ms`, and returns the new node.
    pub fn call_seq(&mut self, parent: NodeId, ms: MicroserviceId) -> NodeId {
        self.call_seq_n(parent, ms, 1.0)
    }

    /// Like [`call_seq`](Self::call_seq) with an explicit call multiplicity
    /// (average calls per invocation of `parent`).
    pub fn call_seq_n(&mut self, parent: NodeId, ms: MicroserviceId, multiplicity: f64) -> NodeId {
        let id = self.push(Node::new(ms, multiplicity));
        self.nodes[parent.index()].stages.push(vec![id]);
        id
    }

    /// Appends a new stage under `parent` whose calls to `mss` execute in
    /// parallel; returns the new nodes in argument order.
    pub fn call_par(&mut self, parent: NodeId, mss: &[MicroserviceId]) -> Vec<NodeId> {
        let ids: Vec<NodeId> = mss
            .iter()
            .map(|&ms| self.push(Node::new(ms, 1.0)))
            .collect();
        self.nodes[parent.index()].stages.push(ids.clone());
        ids
    }

    /// Finalises the graph. Returns `None` if no entry node was declared.
    pub fn build(self) -> Option<DependencyGraph> {
        let root = self.root?;
        Some(DependencyGraph {
            nodes: self.nodes,
            root,
        })
    }
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(i: u32) -> MicroserviceId {
        MicroserviceId::new(i)
    }

    /// Builds the Fig. 7 graph: T -> [Url ∥ U] then -> C.
    fn fig7() -> (DependencyGraph, [NodeId; 4]) {
        let mut g = GraphBuilder::new();
        let t = g.entry(ms(0));
        let par = g.call_par(t, &[ms(1), ms(2)]);
        let c = g.call_seq(t, ms(3));
        let graph = g.build().unwrap();
        (graph, [t, par[0], par[1], c])
    }

    #[test]
    fn fig7_critical_paths() {
        let (g, [t, url, u, c]) = fig7();
        let mut paths = g.critical_paths();
        paths.sort();
        assert_eq!(paths.len(), 2);
        assert!(paths.contains(&vec![t, url, c]));
        assert!(paths.contains(&vec![t, u, c]));
    }

    #[test]
    fn effective_multiplicities_multiply_down_the_tree() {
        let mut g = GraphBuilder::new();
        let a = g.entry(ms(0));
        let b = g.call_seq_n(a, ms(1), 3.0);
        let c = g.call_seq_n(b, ms(2), 2.0);
        let graph = g.build().unwrap();
        let mult = graph.effective_multiplicities();
        assert_eq!(mult[a.index()], 1.0);
        assert_eq!(mult[b.index()], 3.0);
        assert_eq!(mult[c.index()], 6.0);
    }

    #[test]
    fn calls_per_request_sums_repeat_appearances() {
        // Root calls ms(1) twice in two different stages.
        let mut g = GraphBuilder::new();
        let root = g.entry(ms(0));
        g.call_seq(root, ms(1));
        g.call_seq_n(root, ms(1), 2.0);
        let graph = g.build().unwrap();
        assert_eq!(graph.calls_per_request(ms(1)), 3.0);
        assert_eq!(graph.calls_per_request(ms(0)), 1.0);
        assert_eq!(graph.microservices(), vec![ms(0), ms(1)]);
    }

    #[test]
    fn empty_builder_returns_none() {
        assert!(GraphBuilder::new().build().is_none());
    }

    #[test]
    #[should_panic]
    fn double_entry_panics() {
        let mut g = GraphBuilder::new();
        g.entry(ms(0));
        g.entry(ms(1));
    }

    #[test]
    fn from_parts_round_trips_a_built_graph() {
        let (g, _) = fig7();
        let nodes: Vec<Node> = g.iter().map(|(_, n)| n.clone()).collect();
        let rebuilt = DependencyGraph::from_parts(nodes, g.root()).unwrap();
        assert_eq!(rebuilt, g);
        assert_eq!(rebuilt.content_hash(), g.content_hash());
    }

    #[test]
    fn from_parts_rejects_malformed_shapes() {
        let leaf = |m: u32| Node {
            microservice: ms(m),
            multiplicity: 1.0,
            stages: Vec::new(),
        };
        let with_children = |m: u32, stages: Vec<Vec<NodeId>>| Node {
            microservice: ms(m),
            multiplicity: 1.0,
            stages,
        };
        // Empty and out-of-bounds root.
        assert!(DependencyGraph::from_parts(Vec::new(), NodeId::new(0)).is_err());
        assert!(DependencyGraph::from_parts(vec![leaf(0)], NodeId::new(1)).is_err());
        // Out-of-bounds child.
        let dangling = with_children(0, vec![vec![NodeId::new(7)]]);
        assert!(DependencyGraph::from_parts(vec![dangling], NodeId::new(0)).is_err());
        // Two parents for one node.
        let shared = with_children(0, vec![vec![NodeId::new(1)], vec![NodeId::new(1)]]);
        assert!(DependencyGraph::from_parts(vec![shared, leaf(1)], NodeId::new(0)).is_err());
        // Root as a child (cycle through the root).
        let back = with_children(0, vec![vec![NodeId::new(1)]]);
        let cyclic = with_children(1, vec![vec![NodeId::new(0)]]);
        assert!(DependencyGraph::from_parts(vec![back, cyclic], NodeId::new(0)).is_err());
        // A two-cycle disconnected from the root: every non-root node has
        // exactly one parent, so only the reachability walk catches it.
        let island_a = with_children(1, vec![vec![NodeId::new(2)]]);
        let island_b = with_children(2, vec![vec![NodeId::new(1)]]);
        assert!(
            DependencyGraph::from_parts(vec![leaf(0), island_a, island_b], NodeId::new(0)).is_err()
        );
    }

    #[test]
    fn single_node_graph_has_one_path() {
        let mut g = GraphBuilder::new();
        let root = g.entry(ms(0));
        let graph = g.build().unwrap();
        assert_eq!(graph.critical_paths(), vec![vec![root]]);
        assert_eq!(graph.len(), 1);
        assert!(!graph.is_empty());
    }
}
