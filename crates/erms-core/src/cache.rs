//! Plan caching: memoized dependency-graph merges (Alg. 1) for repeated
//! controller rounds.
//!
//! Merging a dependency graph into virtual microservices ([`MergedGraph`])
//! is a pure function of the graph structure and the per-node
//! [`VirtualParams`]. The graph never changes between controller rounds,
//! and the folded parameters are *workload-independent for Erms' first
//! planning pass* (the slope fold `ã = a·m²·(γ_eff/γ_svc)` cancels the rate
//! when the effective workload is proportional to the service workload), so
//! an autoscaler invoked every round — by the provisioning loop, the
//! [`ResilientManager`](crate::resilience::ResilientManager) degradation
//! ladder, or a benchmark sweep — keeps re-deriving the exact same merge
//! trees. [`PlanCache`] memoizes them.
//!
//! # Keying and invalidation
//!
//! An entry is keyed by the pair *(graph content, exact parameter bits)*:
//!
//! * the graph contributes [`DependencyGraph::content_hash`] — root, node
//!   microservices, multiplicity bits and stage layout;
//! * the parameters contribute the raw IEEE-754 bits of every
//!   `(a, b, r)` triple, so two parameter vectors hit the same entry only
//!   when they are bit-identical (no epsilon comparisons — a cache hit must
//!   reproduce the cold computation exactly).
//!
//! The two hashes are combined into one 64-bit key; on lookup the stored
//! graph and parameter vector are compared against the query so a hash
//! collision degrades to a miss, never to a wrong plan. There is no
//! time-based invalidation: entries are immutable values of a pure
//! function. Anything that changes the *inputs* — editing the graph
//! topology, re-fitting latency profiles, changing interference (which
//! rescales `a`), changing call multiplicities — changes the key, so stale
//! results are unreachable by construction. [`PlanCache::clear`] exists for
//! long-lived controllers that re-profile in place and want to drop dead
//! entries eagerly.
//!
//! # Bounded memory
//!
//! A long-lived controller facing continuous workload or profile drift
//! generates an unbounded stream of *distinct* keys (every second-pass
//! parameter vector embeds the effective workloads). To keep the memo
//! table from growing without bound, the cache holds at most
//! `capacity` entries (default
//! `PlanCache::DEFAULT_CAPACITY`); inserting past the cap evicts the
//! **oldest** entry first (FIFO by insertion) and bumps the
//! [`evictions`](PlanCache::evictions) counter. Oldest-first matches the
//! drift access pattern: entries keyed by superseded workloads are never
//! queried again, so recency-ordering buys nothing over insertion order.
//!
//! The cache is `Sync`: lookups take a read lock and bump atomic hit/miss
//! counters, so a parallel sweep can share one cache across worker threads.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::graph::DependencyGraph;
use crate::merge::{MergedGraph, VirtualParams};

/// A memo table of dependency-graph merges, shareable across threads.
///
/// See the [module docs](self) for the keying, invalidation and eviction
/// rules.
///
/// ```
/// use erms_core::cache::PlanCache;
/// use erms_core::graph::GraphBuilder;
/// use erms_core::ids::MicroserviceId;
/// use erms_core::merge::VirtualParams;
///
/// let mut g = GraphBuilder::new();
/// let root = g.entry(MicroserviceId::new(0));
/// g.call_seq(root, MicroserviceId::new(1));
/// let graph = g.build().unwrap();
/// let params = vec![VirtualParams::new(0.1, 3.0, 1.0); 2];
///
/// let cache = PlanCache::new();
/// let cold = cache.merged(&graph, &params);
/// let warm = cache.merged(&graph, &params);
/// assert_eq!(*cold, *warm);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct PlanCache {
    inner: RwLock<CacheInner>,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<u64, Vec<CacheEntry>>,
    /// Insertion order of live entries as `(key, seq)` pairs; the front is
    /// the oldest entry and the eviction victim.
    order: VecDeque<(u64, u64)>,
    next_seq: u64,
}

#[derive(Debug)]
struct CacheEntry {
    /// Full copies of the inputs, compared on lookup so a 64-bit hash
    /// collision can never alias two different merges. Graphs are tens of
    /// nodes, so the memory cost is negligible next to the merge tree.
    graph: DependencyGraph,
    params: Vec<VirtualParams>,
    merged: Arc<MergedGraph>,
    /// Monotone insertion stamp identifying this entry in the FIFO queue.
    seq: u64,
}

impl CacheEntry {
    fn matches(&self, graph: &DependencyGraph, params: &[VirtualParams]) -> bool {
        params_bit_eq(&self.params, params) && self.graph == *graph
    }
}

/// Bitwise equality of parameter vectors: `-0.0 != 0.0` and `NaN == NaN`
/// here, deliberately — a hit must replay the exact cold inputs.
fn params_bit_eq(a: &[VirtualParams], b: &[VirtualParams]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.a.to_bits() == y.a.to_bits()
                && x.b.to_bits() == y.b.to_bits()
                && x.r.to_bits() == y.r.to_bits()
        })
}

impl PlanCache {
    /// Default entry cap: generous for a whole-cluster controller (two
    /// merge trees per service per interval pass) while bounding a
    /// drift-heavy stream to a few thousand retained trees.
    pub(crate) const DEFAULT_CAPACITY: usize = 4096;

    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` entries.
    /// A capacity of zero disables memoization entirely (every lookup
    /// computes and nothing is retained).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: RwLock::new(CacheInner::default()),
            capacity: AtomicUsize::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The maximum number of retained entries.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    /// Changes the entry cap. Shrinking below the current size evicts
    /// oldest-first on the next insertion (not eagerly).
    pub(crate) fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
    }

    fn key(graph: &DependencyGraph, params: &[VirtualParams]) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = graph.content_hash();
        let mut mix = |word: u64| {
            hash ^= word;
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        mix(params.len() as u64);
        for p in params {
            mix(p.a.to_bits());
            mix(p.b.to_bits());
            mix(p.r.to_bits());
        }
        hash
    }

    /// Returns the merge of `graph` under `params`, computing and caching
    /// it on first use.
    ///
    /// The returned tree is shared ([`Arc`]); it is bit-identical to what
    /// [`MergedGraph::merge`] would produce, because a hit requires the
    /// stored inputs to equal the query exactly.
    ///
    /// # Panics
    ///
    /// Panics (like [`MergedGraph::merge`]) if `params.len()` differs from
    /// `graph.len()`.
    pub fn merged(&self, graph: &DependencyGraph, params: &[VirtualParams]) -> Arc<MergedGraph> {
        let key = Self::key(graph, params);
        if let Some(found) = self
            .inner
            .read()
            .expect("plan cache poisoned")
            .entries
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|e| e.matches(graph, params)))
            .map(|e| Arc::clone(&e.merged))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        let merged = Arc::new(MergedGraph::merge(graph, params));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let capacity = self.capacity();
        if capacity == 0 {
            return merged;
        }
        let mut inner = self.inner.write().expect("plan cache poisoned");
        // A racing thread may have inserted the same entry between our read
        // and write; prefer the incumbent so all callers share one Arc.
        if let Some(existing) = inner
            .entries
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|e| e.matches(graph, params)))
        {
            return Arc::clone(&existing.merged);
        }
        while inner.order.len() >= capacity {
            let (victim_key, victim_seq) =
                inner.order.pop_front().expect("order tracks live entries");
            if let Some(bucket) = inner.entries.get_mut(&victim_key) {
                bucket.retain(|e| e.seq != victim_seq);
                if bucket.is_empty() {
                    inner.entries.remove(&victim_key);
                }
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.order.push_back((key, seq));
        inner.entries.entry(key).or_default().push(CacheEntry {
            graph: graph.clone(),
            params: params.to_vec(),
            merged: Arc::clone(&merged),
            seq,
        });
        merged
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute a fresh merge.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries evicted to respect the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache (`0.0` when unused).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Number of distinct memoized merges.
    pub fn len(&self) -> usize {
        self.inner.read().expect("plan cache poisoned").order.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the hit/miss/eviction counters. The
    /// capacity is preserved.
    pub fn clear(&self) {
        let mut inner = self.inner.write().expect("plan cache poisoned");
        inner.entries.clear();
        inner.order.clear();
        drop(inner);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
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

    fn chain(n: u32) -> DependencyGraph {
        let mut g = GraphBuilder::new();
        let mut parent = g.entry(ms(0));
        for i in 1..n {
            parent = g.call_seq(parent, ms(i));
        }
        g.build().unwrap()
    }

    fn params(graph: &DependencyGraph, seed: f64) -> Vec<VirtualParams> {
        (0..graph.len())
            .map(|i| VirtualParams::new(0.05 + seed * i as f64, 2.0 + i as f64, 1.0 + seed))
            .collect()
    }

    #[test]
    fn warm_lookup_is_identical_and_counted() {
        let graph = chain(4);
        let p = params(&graph, 0.01);
        let cache = PlanCache::new();
        let cold = cache.merged(&graph, &p);
        let warm = cache.merged(&graph, &p);
        assert_eq!(*cold, MergedGraph::merge(&graph, &p));
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_params_miss() {
        let graph = chain(3);
        let cache = PlanCache::new();
        cache.merged(&graph, &params(&graph, 0.01));
        cache.merged(&graph, &params(&graph, 0.02));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn different_graphs_miss() {
        let g3 = chain(3);
        let g4 = chain(4);
        let cache = PlanCache::new();
        cache.merged(&g3, &params(&g3, 0.01));
        cache.merged(&g4, &params(&g4, 0.01));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn negative_zero_params_do_not_alias() {
        let graph = chain(2);
        let mut a = params(&graph, 0.01);
        let mut b = a.clone();
        a[0].b = 0.0;
        b[0].b = -0.0;
        let cache = PlanCache::new();
        cache.merged(&graph, &a);
        cache.merged(&graph, &b);
        assert_eq!(cache.misses(), 2, "-0.0 must not hit the 0.0 entry");
    }

    #[test]
    fn clear_resets_everything() {
        let graph = chain(3);
        let p = params(&graph, 0.01);
        let cache = PlanCache::new();
        cache.merged(&graph, &p);
        cache.merged(&graph, &p);
        cache.clear();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
        assert!(cache.is_empty());
        cache.merged(&graph, &p);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn content_hash_distinguishes_structure() {
        // Same node count and microservices, different stage layout.
        let mut g1 = GraphBuilder::new();
        let r1 = g1.entry(ms(0));
        g1.call_par(r1, &[ms(1), ms(2)]);
        let g1 = g1.build().unwrap();

        let mut g2 = GraphBuilder::new();
        let r2 = g2.entry(ms(0));
        g2.call_seq(r2, ms(1));
        g2.call_seq(r2, ms(2));
        let g2 = g2.build().unwrap();

        assert_ne!(g1.content_hash(), g2.content_hash());
        assert_eq!(g1.content_hash(), g1.clone().content_hash());
    }

    #[test]
    fn shared_across_threads() {
        let graph = chain(5);
        let p = params(&graph, 0.01);
        let cache = PlanCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..16 {
                        cache.merged(&graph, &p);
                    }
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 64);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capped_under_mutation_stream() {
        // A drift stream: every round re-merges under fresh parameters, so
        // every lookup is a distinct key. The cache must stay at its cap,
        // evicting oldest-first and counting every eviction.
        let graph = chain(4);
        let cache = PlanCache::with_capacity(8);
        assert_eq!(cache.capacity(), 8);
        let versions: Vec<Vec<VirtualParams>> = (0..50)
            .map(|i| params(&graph, 0.001 * (i + 1) as f64))
            .collect();
        for p in &versions {
            cache.merged(&graph, p);
        }
        assert_eq!(cache.len(), 8, "size must stay at the cap");
        assert_eq!(cache.misses(), 50);
        assert_eq!(cache.evictions(), 42);
        // The newest 8 versions survive; everything older was evicted.
        let hits_before = cache.hits();
        for p in &versions[42..] {
            cache.merged(&graph, p);
        }
        assert_eq!(cache.hits(), hits_before + 8, "newest entries must survive");
        cache.merged(&graph, &versions[0]);
        assert_eq!(
            cache.hits(),
            hits_before + 8,
            "oldest entry must have been evicted"
        );
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let graph = chain(3);
        let p = params(&graph, 0.01);
        let cache = PlanCache::with_capacity(0);
        let a = cache.merged(&graph, &p);
        let b = cache.merged(&graph, &p);
        assert_eq!(*a, *b);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn shrinking_capacity_applies_on_insert() {
        let graph = chain(4);
        let cache = PlanCache::with_capacity(16);
        for i in 0..10 {
            cache.merged(&graph, &params(&graph, 0.001 * (i + 1) as f64));
        }
        assert_eq!(cache.len(), 10);
        cache.set_capacity(4);
        // Not eager: shrink takes effect on the next insertion.
        assert_eq!(cache.len(), 10);
        cache.merged(&graph, &params(&graph, 0.5));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 7);
    }
}
