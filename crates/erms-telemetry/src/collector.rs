//! The in-sim telemetry agent: a [`TelemetrySink`] that samples spans
//! into a bounded ring buffer and folds latencies into mergeable
//! quantile sketches.
//!
//! # Determinism
//!
//! The sampling coin is a splitmix64 hash of the span's ordinal in the
//! collector's own stream, keyed by the configured seed — the same
//! counter-hash scheme `erms_trace::TraceStore` uses for trace
//! sampling. It never consumes the simulation's RNG and never reads a
//! wall clock, so (a) a run with the collector attached is bit-identical
//! to an uninstrumented run, and (b) replicated runs (`erms_sim::replicate`,
//! per-replica seeds) produce collectors whose ordered merge is
//! bit-deterministic for any thread count.
//!
//! # Memory and hot-path cost
//!
//! Everything the per-event path touches is preallocated or amortised:
//! the span ring is allocated once at construction
//! (`SpanRing::with_capacity`), per-microservice and per-service
//! sketches are preallocated by [`TelemetryCollector::for_app`], and an
//! unsampled span (the 99% case at the default 1% rate) costs one hash,
//! one compare and one counter increment. `tests/sim_allocations.rs`
//! bounds the marginal cost at under one allocation per engine event;
//! the benchmark reports the throughput overhead as
//! `sim.runtime.sink_overhead_pct`.

use erms_core::app::App;
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_sim::telemetry::{RequestRecord, SpanRecord, TelemetrySink};

use crate::sketch::{QuantileSketch, DEFAULT_RELATIVE_ERROR};

/// Configuration of a [`TelemetryCollector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Fraction of spans retained in the ring and own-latency sketches,
    /// and of request completions folded into the end-to-end sketches
    /// (requests draw from their own coin stream, so the two decisions
    /// are independent). Clamped to `[0, 1]`.
    pub sampling: f64,
    /// Capacity of the span ring buffer; when full, the oldest span is
    /// overwritten (and counted).
    pub ring_capacity: usize,
    /// Seed of the collector's private sampling stream. Replicated runs
    /// must derive this from the replica seed so samples differ across
    /// replicas but stay reproducible.
    pub seed: u64,
    /// Relative-error guarantee of every latency sketch.
    pub relative_error: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sampling: 0.01,
            ring_capacity: 65_536,
            seed: 0x7E1E_ACE5,
            relative_error: DEFAULT_RELATIVE_ERROR,
        }
    }
}

/// SplitMix64 finalizer — the sampling coin.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-capacity overwrite-oldest ring of [`SpanRecord`]s,
/// preallocated up front so pushes never allocate.
#[derive(Debug, Clone)]
pub struct SpanRing {
    buf: Vec<SpanRecord>,
    capacity: usize,
    /// Index of the oldest element once the ring is full.
    head: usize,
    overwritten: u64,
}

impl SpanRing {
    /// Creates a ring holding up to `capacity` spans (minimum 1),
    /// allocating the full backing store immediately.
    #[must_use]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            overwritten: 0,
        }
    }

    /// Appends a span, overwriting the oldest when full.
    #[inline]
    pub(crate) fn push(&mut self, record: SpanRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(record);
        } else {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Number of spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no span is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans evicted by overwrites.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Iterates retained spans oldest → newest.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// The telemetry sink: sampled span ring + per-microservice own-latency
/// sketches + per-service end-to-end sketches + flow counters.
#[derive(Debug, Clone)]
pub struct TelemetryCollector {
    config: TelemetryConfig,
    /// `sample iff splitmix64(seed ^ ordinal) < threshold`.
    threshold: u64,
    spans_seen: u64,
    spans_sampled: u64,
    requests_seen: u64,
    ring: SpanRing,
    /// Own-latency sketch per `MicroserviceId::index()`.
    ms_own: Vec<QuantileSketch>,
    /// End-to-end latency sketch per `ServiceId::index()`.
    service_e2e: Vec<QuantileSketch>,
}

impl Default for TelemetryCollector {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

impl TelemetryCollector {
    /// Creates a collector; sketches grow on demand as microservice and
    /// service indices appear. Prefer [`for_app`](Self::for_app) on hot
    /// paths so the per-index tables are preallocated.
    #[must_use]
    pub(crate) fn new(mut config: TelemetryConfig) -> Self {
        config.sampling = if config.sampling.is_finite() {
            config.sampling.clamp(0.0, 1.0)
        } else {
            0.0
        };
        // `(1.0 * 2^64) as u64` saturates at u64::MAX, which together
        // with the `>= 1.0` fast path below makes sampling = 1.0 exact.
        let threshold = (config.sampling * (u64::MAX as f64)) as u64;
        Self {
            threshold,
            ring: SpanRing::with_capacity(config.ring_capacity),
            ms_own: Vec::new(),
            service_e2e: Vec::new(),
            spans_seen: 0,
            spans_sampled: 0,
            requests_seen: 0,
            config,
        }
    }

    /// Creates a collector with sketch tables preallocated for every
    /// microservice and service of `app` — no growth allocations on the
    /// event path.
    #[must_use]
    pub fn for_app(app: &App, config: TelemetryConfig) -> Self {
        let mut c = Self::new(config);
        let proto = QuantileSketch::new(c.config.relative_error);
        c.ms_own = vec![proto.clone(); app.microservice_count()];
        c.service_e2e = vec![proto; app.service_count()];
        c
    }

    /// The (clamped) configuration.
    #[must_use]
    pub(crate) fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Spans offered by the engine (sampled or not).
    #[must_use]
    pub fn spans_seen(&self) -> u64 {
        self.spans_seen
    }

    /// Spans that passed the sampling coin.
    #[must_use]
    pub fn spans_sampled(&self) -> u64 {
        self.spans_sampled
    }

    /// End-to-end request completions observed.
    #[must_use]
    pub fn requests_seen(&self) -> u64 {
        self.requests_seen
    }

    /// The span ring (sampled spans, oldest → newest).
    #[must_use]
    pub fn ring(&self) -> &SpanRing {
        &self.ring
    }

    /// Iterates the sampled spans, oldest → newest.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.ring.iter()
    }

    /// Own-latency sketch of one microservice, if it ever served a
    /// sampled span.
    #[must_use]
    pub fn ms_latency(&self, ms: MicroserviceId) -> Option<&QuantileSketch> {
        self.ms_own.get(ms.index()).filter(|s| !s.is_empty())
    }

    /// End-to-end latency sketch of one service, if a sampled request of
    /// it ever completed past warm-up.
    #[must_use]
    pub fn service_latency(&self, service: ServiceId) -> Option<&QuantileSketch> {
        self.service_e2e
            .get(service.index())
            .filter(|s| !s.is_empty())
    }

    /// Merges another collector (same sampling/α configuration) into
    /// this one: counters add, sketches merge, ring spans append in
    /// `other`'s order (overwriting oldest on overflow). This is the
    /// reduction step for `erms_sim::replicate`: folding per-replica
    /// collectors in replica order yields the same state for any thread
    /// count.
    ///
    /// # Errors
    ///
    /// [`erms_core::Error::InvalidParameter`] when the relative errors
    /// differ (sketch grids incompatible).
    pub fn merge(&mut self, other: &Self) -> erms_core::error::Result<()> {
        if self.ms_own.len() < other.ms_own.len() {
            self.ms_own.resize(
                other.ms_own.len(),
                QuantileSketch::new(self.config.relative_error),
            );
        }
        if self.service_e2e.len() < other.service_e2e.len() {
            self.service_e2e.resize(
                other.service_e2e.len(),
                QuantileSketch::new(self.config.relative_error),
            );
        }
        for (mine, theirs) in self.ms_own.iter_mut().zip(&other.ms_own) {
            mine.merge(theirs)?;
        }
        for (mine, theirs) in self.service_e2e.iter_mut().zip(&other.service_e2e) {
            mine.merge(theirs)?;
        }
        self.spans_seen += other.spans_seen;
        self.spans_sampled += other.spans_sampled;
        self.requests_seen += other.requests_seen;
        for span in other.spans() {
            self.ring.push(*span);
        }
        Ok(())
    }

    /// The deterministic sampling coin for span ordinal `ordinal`.
    #[inline]
    fn sampled(&self, ordinal: u64) -> bool {
        if self.config.sampling >= 1.0 {
            return true;
        }
        splitmix64(self.config.seed ^ ordinal) < self.threshold
    }

    #[inline]
    fn sketch_at(
        table: &mut Vec<QuantileSketch>,
        idx: usize,
        relative_error: f64,
    ) -> &mut QuantileSketch {
        if idx >= table.len() {
            table.resize(idx + 1, QuantileSketch::new(relative_error));
        }
        &mut table[idx]
    }

    /// The sampled-span slow path, outlined so the 99%-of-events
    /// "coin says no" path stays a handful of instructions inside the
    /// engine's event loop.
    #[cold]
    #[inline(never)]
    fn record_span(&mut self, span: &SpanRecord) {
        self.spans_sampled += 1;
        Self::sketch_at(
            &mut self.ms_own,
            span.microservice.index(),
            self.config.relative_error,
        )
        .insert(span.latency_ms());
        self.ring.push(*span);
    }

    /// The sampled-request slow path (see [`record_span`](Self::record_span)).
    #[cold]
    #[inline(never)]
    fn record_request(&mut self, request: &RequestRecord) {
        Self::sketch_at(
            &mut self.service_e2e,
            request.service.index(),
            self.config.relative_error,
        )
        .insert(request.latency_ms());
    }
}

impl TelemetrySink for TelemetryCollector {
    #[inline]
    fn on_span(&mut self, span: &SpanRecord) {
        self.spans_seen += 1;
        if self.sampled(self.spans_seen) {
            self.record_span(span);
        }
    }

    #[inline]
    fn on_request(&mut self, request: &RequestRecord) {
        self.requests_seen += 1;
        // High bit tags the request coin stream so span ordinal `k` and
        // request ordinal `k` flip independent coins.
        if self.sampled(self.requests_seen | (1 << 63)) {
            self.record_request(request);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::ids::{MicroserviceId, ServiceId};

    fn span(ms: u32, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            service: ServiceId::new(0),
            microservice: MicroserviceId::new(ms),
            container: 0,
            priority_class: 0,
            start_ms: start,
            end_ms: end,
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut ring = SpanRing::with_capacity(3);
        for i in 0..5 {
            ring.push(span(0, f64::from(i), f64::from(i) + 1.0));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overwritten(), 2);
        let starts: Vec<f64> = ring.iter().map(|s| s.start_ms).collect();
        assert_eq!(starts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn sampling_one_takes_everything_zero_takes_nothing() {
        let mut all = TelemetryCollector::new(TelemetryConfig {
            sampling: 1.0,
            ..TelemetryConfig::default()
        });
        let mut none = TelemetryCollector::new(TelemetryConfig {
            sampling: 0.0,
            ..TelemetryConfig::default()
        });
        for i in 0..100 {
            let s = span(0, f64::from(i), f64::from(i) + 2.0);
            all.on_span(&s);
            none.on_span(&s);
        }
        assert_eq!(all.spans_sampled(), 100);
        assert_eq!(none.spans_sampled(), 0);
        assert_eq!(all.spans_seen(), 100);
        assert_eq!(none.spans_seen(), 100);
    }

    #[test]
    fn sampling_rate_is_roughly_honored_and_deterministic() {
        let config = TelemetryConfig {
            sampling: 0.1,
            seed: 42,
            ..TelemetryConfig::default()
        };
        let mut a = TelemetryCollector::new(config);
        let mut b = TelemetryCollector::new(config);
        for i in 0..20_000 {
            let s = span(0, f64::from(i), f64::from(i) + 1.0);
            a.on_span(&s);
            b.on_span(&s);
        }
        assert_eq!(a.spans_sampled(), b.spans_sampled());
        let rate = a.spans_sampled() as f64 / a.spans_seen() as f64;
        assert!((rate - 0.1).abs() < 0.02, "sampling rate drifted: {rate}");
    }

    #[test]
    fn merge_adds_counts_and_sketches() {
        let config = TelemetryConfig {
            sampling: 1.0,
            ..TelemetryConfig::default()
        };
        let mut a = TelemetryCollector::new(config);
        let mut b = TelemetryCollector::new(config);
        a.on_span(&span(0, 0.0, 5.0));
        b.on_span(&span(1, 0.0, 7.0));
        b.on_request(&RequestRecord {
            service: ServiceId::new(0),
            start_ms: 0.0,
            end_ms: 12.0,
        });
        a.merge(&b).unwrap();
        assert_eq!(a.spans_seen(), 2);
        assert_eq!(a.spans_sampled(), 2);
        assert_eq!(a.requests_seen(), 1);
        assert!(a.ms_latency(MicroserviceId::new(0)).is_some());
        assert!(a.ms_latency(MicroserviceId::new(1)).is_some());
        assert!(a.service_latency(ServiceId::new(0)).is_some());
    }
}
