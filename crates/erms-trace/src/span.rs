//! Span records, mirroring what Jaeger collects (§5.1).
//!
//! For every call between a pair of microservices the tracer records two
//! spans: a *client* span (request sent → response received, at the caller)
//! and a *server* span (request received → response sent, at the callee).
//! The difference between the two is the transmission latency.

use erms_core::ids::{MicroserviceId, ServiceId};

/// Identifier of one end-to-end request's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifier of a span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// Which side of a call a span was recorded on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Recorded at the caller: send request → receive response.
    Client,
    /// Recorded at the callee: receive request → send response.
    Server,
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The trace (end-to-end request) this span belongs to.
    pub trace_id: TraceId,
    /// Unique id of this span within the trace.
    pub span_id: SpanId,
    /// The *server* span of the upstream call that caused this span, if
    /// any. The root server span has no parent.
    pub parent: Option<SpanId>,
    /// The microservice executing (server) or being called (client).
    pub microservice: MicroserviceId,
    /// The online service the traced request belongs to.
    pub service: ServiceId,
    /// Client or server side.
    pub kind: SpanKind,
    /// Start timestamp in ms (simulation time).
    pub start_ms: f64,
    /// End timestamp in ms.
    pub end_ms: f64,
}

impl Span {
    /// Span duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// Whether two spans overlap in time (used to detect parallel calls,
    /// §5.1).
    pub(crate) fn overlaps(&self, other: &Span) -> bool {
        self.start_ms < other.end_ms && other.start_ms < self.end_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64) -> Span {
        Span {
            trace_id: TraceId(1),
            span_id: SpanId(1),
            parent: None,
            microservice: MicroserviceId::new(0),
            service: ServiceId::new(0),
            kind: SpanKind::Client,
            start_ms: start,
            end_ms: end,
        }
    }

    #[test]
    fn duration() {
        assert_eq!(span(1.0, 4.5).duration_ms(), 3.5);
    }

    #[test]
    fn overlap_detection() {
        assert!(span(0.0, 10.0).overlaps(&span(5.0, 15.0)));
        assert!(span(5.0, 15.0).overlaps(&span(0.0, 10.0)));
        assert!(!span(0.0, 5.0).overlaps(&span(5.0, 10.0)));
        assert!(!span(0.0, 5.0).overlaps(&span(6.0, 10.0)));
        // Containment overlaps.
        assert!(span(0.0, 10.0).overlaps(&span(2.0, 3.0)));
    }
}
