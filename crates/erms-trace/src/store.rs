//! A sampled trace store, standing in for the Jaeger backend.

use std::collections::BTreeMap;

use crate::span::{Span, TraceId};
use rand::Rng;
use rand::SeedableRng;

/// Stores spans grouped by trace, sampling whole traces at a fixed rate as
/// Jaeger does (the paper uses 10 %, §5.1).
#[derive(Debug, Clone)]
pub struct TraceStore {
    sampling: f64,
    seed: u64,
    traces: BTreeMap<TraceId, Vec<Span>>,
}

impl TraceStore {
    /// Creates a store sampling every trace (rate 1.0).
    pub(crate) fn new() -> Self {
        Self::with_sampling(1.0, 0)
    }

    /// Creates a store with a trace sampling rate in `[0, 1]`; the decision
    /// per trace id is deterministic given `seed`.
    pub fn with_sampling(sampling: f64, seed: u64) -> Self {
        Self {
            sampling: sampling.clamp(0.0, 1.0),
            seed,
            traces: BTreeMap::new(),
        }
    }

    /// Whether a trace id is sampled (head-based sampling: the whole trace
    /// is kept or dropped).
    pub fn is_sampled(&self, trace: TraceId) -> bool {
        if self.sampling >= 1.0 {
            return true;
        }
        if self.sampling <= 0.0 {
            return false;
        }
        // Deterministic per-trace coin flip.
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            self.seed ^ trace.0.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        rng.gen::<f64>() < self.sampling
    }

    /// Records a span if its trace is sampled. Returns whether it was kept.
    pub fn record(&mut self, span: Span) -> bool {
        if !self.is_sampled(span.trace_id) {
            return false;
        }
        self.traces.entry(span.trace_id).or_default().push(span);
        true
    }

    /// Number of stored traces.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Total stored spans.
    pub fn span_count(&self) -> usize {
        self.traces.values().map(Vec::len).sum()
    }

    /// Iterates over `(TraceId, spans)`.
    pub fn iter(&self) -> impl Iterator<Item = (TraceId, &[Span])> + '_ {
        self.traces
            .iter()
            .map(|(&id, spans)| (id, spans.as_slice()))
    }

    /// Moves every trace of `other` into `self`, appending spans when a
    /// trace exists in both — the merge step of sharded simulation, where
    /// one trace's spans are recorded across several per-shard stores.
    /// Sampling decisions are *not* re-checked: `other`'s spans were
    /// admitted under its own (identical, for shard stores) sampling
    /// configuration.
    pub fn absorb(&mut self, other: TraceStore) {
        for (id, spans) in other.traces {
            self.traces.entry(id).or_default().extend(spans);
        }
    }

    /// Sorts every trace's spans by span id, producing a canonical order
    /// independent of recording order. Sharded runs rely on span ids being
    /// unique within a trace, so this order is total and the canonical
    /// store is bit-identical at every shard count.
    pub fn sort_spans_by_id(&mut self) {
        for spans in self.traces.values_mut() {
            spans.sort_by_key(|s| s.span_id.0);
        }
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanId, SpanKind};
    use erms_core::ids::{MicroserviceId, ServiceId};

    fn span(trace: u64) -> Span {
        Span {
            trace_id: TraceId(trace),
            span_id: SpanId(1),
            parent: None,
            microservice: MicroserviceId::new(0),
            service: ServiceId::new(0),
            kind: SpanKind::Server,
            start_ms: 0.0,
            end_ms: 1.0,
        }
    }

    #[test]
    fn full_sampling_keeps_everything() {
        let mut store = TraceStore::new();
        for t in 0..100 {
            assert!(store.record(span(t)));
        }
        assert_eq!(store.trace_count(), 100);
        assert_eq!(store.span_count(), 100);
    }

    #[test]
    fn ten_percent_sampling_is_roughly_ten_percent() {
        let mut store = TraceStore::with_sampling(0.1, 7);
        for t in 0..10_000 {
            store.record(span(t));
        }
        let kept = store.trace_count();
        assert!((800..1200).contains(&kept), "kept {kept}");
    }

    #[test]
    fn sampling_decision_is_per_trace() {
        let mut store = TraceStore::with_sampling(0.5, 3);
        // All spans of the same trace share the fate.
        let keep = store.record(span(42));
        for _ in 0..5 {
            assert_eq!(store.record(span(42)), keep);
        }
    }

    #[test]
    fn zero_sampling_keeps_nothing() {
        let mut store = TraceStore::with_sampling(0.0, 1);
        assert!(!store.record(span(1)));
        assert_eq!(store.trace_count(), 0);
    }
}
