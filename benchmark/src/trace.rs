//! In-memory span recorder for the traced run, and the self-time
//! arithmetic the per-layer budget is computed with.
//!
//! Every span is recorded from the benchmark's side of a public call into
//! the program. A span's *logical* parent is the span that caused it; for
//! the HTTP workloads the children of an HTTP call are measured on a shadow
//! replay that runs right after the call (see [`Tracer::begin_shadow`]), so
//! they lie outside their parent's interval and self time is taken as
//! duration minus the children's durations, not minus an overlap.

use std::collections::BTreeMap;
use std::time::Instant;

use erms::control::Json;

/// The module of the program (or of the benchmark) a span's self time is
/// charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    SimRuntime,
    TelemetryOnline,
    CoreResilience,
    ControlJson,
    ControlCodec,
    ControlHttp,
    ControlTenant,
    ControlSnapshot,
    /// The benchmark's own glue inside an operation: time no product layer
    /// accounts for.
    Harness,
    /// A shadow-replay block: excluded from every budget.
    Shadow,
}

impl Layer {
    /// Product layers, in pipeline order. `trace.<name>.self_ms` exists for
    /// exactly these plus `harness`.
    pub const BUDGET: [Layer; 9] = [
        Layer::SimRuntime,
        Layer::TelemetryOnline,
        Layer::CoreResilience,
        Layer::ControlJson,
        Layer::ControlCodec,
        Layer::ControlHttp,
        Layer::ControlTenant,
        Layer::ControlSnapshot,
        Layer::Harness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::SimRuntime => "sim.runtime",
            Layer::TelemetryOnline => "telemetry.online",
            Layer::CoreResilience => "core.resilience",
            Layer::ControlJson => "control.json",
            Layer::ControlCodec => "control.codec",
            Layer::ControlHttp => "control.http",
            Layer::ControlTenant => "control.tenant",
            Layer::ControlSnapshot => "control.snapshot",
            Layer::Harness => "harness",
            Layer::Shadow => "shadow",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation (episode, run, round, batch or query) the span belongs to.
    pub op: u64,
    /// Payload size for spans that move or transform bytes, else 0.
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

/// Handle of an open span, returned by `begin*` and consumed by `end`.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// No span: what `begin` returns with tracing off.
    pub const NONE: Open = Open(None);
}

/// Span recorder. When disabled every method is a branch and nothing else,
/// so the untraced repetitions run the same harness code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    /// Open spans: (span index, logical parent its children get).
    stack: Vec<(usize, usize)>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, layer: Layer, adopt: Option<usize>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let now = self.now_ns();
        // A shadow block hangs under the span it runs inside; everything
        // else under whatever that span's children are adopted by.
        let parent = self.stack.last().map(|&(open, children)| match adopt {
            Some(_) => open,
            None => children,
        });
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            op: self.op,
            bytes: 0,
        });
        self.stack.push((index, adopt.unwrap_or(index)));
        Open(Some(index))
    }

    pub fn begin(&mut self, name: &'static str, layer: Layer) -> Open {
        self.push(name, layer, None)
    }

    /// Opens a shadow-replay block for the already closed span `of`: spans
    /// begun inside it become logical children of `of`, while the block
    /// itself is charged to [`Layer::Shadow`] under the current parent.
    pub fn begin_shadow(&mut self, of: Open) -> Open {
        self.push("shadow replay", Layer::Shadow, of.0)
    }

    pub fn end(&mut self, open: Open) {
        self.end_with_bytes(open, 0);
    }

    pub fn end_with_bytes(&mut self, open: Open, bytes: u64) {
        let Some(index) = open.0 else { return };
        let now = self.now_ns();
        let (top, _) = self.stack.pop().expect("span stack underflow");
        assert_eq!(top, index, "spans must close innermost first");
        self.spans[index].end_ns = now;
        self.spans[index].bytes = bytes;
    }

    /// Records a leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, layer);
        let out = f();
        self.end(open);
        out
    }

    /// Like [`time`](Self::time), with the payload size taken from the
    /// result.
    pub fn time_bytes<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> usize,
    ) -> T {
        let open = self.begin(name, layer);
        let out = f();
        let n = bytes(&out) as u64;
        self.end_with_bytes(open, n);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus the
/// durations of the spans it caused. Shadow children are measured on a
/// replay, so they may add up to more than their parent; self time stops
/// at 0 then.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.dur_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, covered)| span.dur_ns().saturating_sub(covered))
        .collect()
}

/// Total self time per layer in milliseconds, [`Layer::Shadow`] included
/// (callers leave it out of budgets).
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.layer).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Durations (ms) of every span with the given name.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ms)
        .collect()
}

/// Megabytes per second over every span with the given name; 0 when the
/// name never occurs.
pub fn mb_per_s(spans: &[Span], name: &str) -> f64 {
    let (bytes, ns) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(b, t), s| (b + s.bytes, t + s.dur_ns()));
    if ns == 0 {
        0.0
    } else {
        bytes as f64 / 1e6 / (ns as f64 / 1e9)
    }
}

/// Renders the trace file: one object per span, parents by index.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj(vec![
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("layer", Json::str(s.layer.name())),
                ("op", Json::Num(s.op as f64)),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                ("bytes", Json::Num(s.bytes as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "fixture",
            layer,
            start_ns,
            end_ns,
            parent,
            op: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0, 100) ── http [10, 50) ── parse*, ingest* (shadow replay)
        //             ├─ shadow block [50, 80)
        //             └─ sim [80, 95)
        let spans = vec![
            span(Layer::Harness, 0, 100, None),
            span(Layer::ControlHttp, 10, 50, Some(0)),
            span(Layer::Shadow, 50, 80, Some(0)),
            span(Layer::ControlJson, 52, 62, Some(1)),
            span(Layer::ControlTenant, 62, 78, Some(1)),
            span(Layer::TelemetryOnline, 64, 70, Some(4)),
            span(Layer::SimRuntime, 80, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 14, 30, 10, 10, 6, 15]);
        let by_layer = layer_self_ms(&spans);
        let budget: f64 = Layer::BUDGET
            .iter()
            .map(|l| by_layer.get(l).copied().unwrap_or(0.0))
            .sum();
        // Everything but the shadow block adds up to the operation net of
        // the replay: 100 − 30 ns.
        assert!((budget - 70.0 / 1e6).abs() < 1e-15, "{budget}");
    }

    #[test]
    fn shadow_children_longer_than_their_parent_clamp_to_zero() {
        let spans = vec![
            span(Layer::ControlHttp, 0, 10, None),
            span(Layer::ControlJson, 20, 32, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 12]);
    }

    #[test]
    fn tracer_links_shadow_children_to_the_closed_span() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_op(7);
        let op = t.begin("op", Layer::Harness);
        let http = t.begin("POST", Layer::ControlHttp);
        t.end_with_bytes(http, 42);
        let block = t.begin_shadow(http);
        t.time("Json::parse", Layer::ControlJson, || ());
        let ingest = t.begin("Tenant::ingest", Layer::ControlTenant);
        t.time("ingest_spans", Layer::TelemetryOnline, || ());
        t.end(ingest);
        t.end(block);
        t.end(op);
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            vec![None, Some(0), Some(0), Some(1), Some(1), Some(4)]
        );
        assert_eq!(t.spans[1].bytes, 42);
        assert!(t.spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let open = t.begin("op", Layer::Harness);
        assert_eq!(t.time("x", Layer::SimRuntime, || 3), 3);
        t.end(open);
        assert!(t.spans.is_empty());
    }
}
