//! The control-plane HTTP service: routing, drain/reload, metrics
//! rendering.
//!
//! Locking is two-level (see the `tenant` module docs): a short-held
//! outer mutex guards the [`Registry`] map itself, and each tenant sits
//! behind its own `Arc<Mutex<Tenant>>`. Per-tenant endpoints (ingest,
//! replan, plan, history, …) resolve the handle under the outer lock,
//! *drop it*, and then lock only their tenant — so a slow replan for one
//! tenant no longer serializes every other tenant's traffic behind it.
//! Registry-shaped endpoints (create/delete/list/metrics/snapshot/reload)
//! still run under the outer lock; list/metrics/snapshot additionally take
//! every tenant lock in id order for a consistent cut. Per-tenant request
//! order remains the only source of nondeterminism, exactly as before.
//!
//! A tenant lock covers work on the tenant's state only. Bodies are decoded
//! before it is taken (`POST …/spans` straight from the bytes, with no tree),
//! replies are rendered after it is released, and the applied plan is served
//! from text rendered once per plan (`tenant::with_plan_text`). `POST
//! …/replan` fits the profiles outside the lock too: it copies the window
//! under the lock, fits the copy with no lock held, and locks again to
//! install the fits and plan (`tenant::replan_with_plan_text`), so a `GET
//! …/plan` that arrives meanwhile is answered from the kept text instead of
//! waiting for the profiler.
//!
//! Graceful reload: `POST /v1/reload` flips the draining flag (new
//! requests get 503), waits until it is the only request in flight, swaps
//! the registry for the one restored from the snapshot path, and lifts the
//! flag. In-flight requests finish against the old registry; nothing is
//! interrupted mid-plan.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use erms_telemetry::metrics::MetricsRegistry;

use crate::codec::{app_from_json, span_batch_from_text, workloads_from_json, DecodeError};
use crate::http::{Handler, Request, Response, Server};
use crate::json::Json;
use crate::snapshot;
use crate::tenant::{replan_with_plan_text, with_plan_text, Registry, Tenant};

/// Configuration of a control-plane instance.
#[derive(Debug, Clone)]
pub struct ControlPlaneConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Where `POST /v1/snapshot` writes and `POST /v1/reload` reads.
    /// `None` disables both endpoints (they answer 400).
    pub snapshot_path: Option<PathBuf>,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            snapshot_path: None,
        }
    }
}

struct Shared {
    registry: Mutex<Registry>,
    draining: AtomicBool,
    in_flight: AtomicU64,
    requests: AtomicU64,
    stop: AtomicBool,
    snapshot_path: Option<PathBuf>,
}

/// A running control-plane service.
pub struct ControlPlane {
    server: Server,
    shared: Arc<Shared>,
}

impl ControlPlane {
    /// Starts the service over an existing registry (usually
    /// [`Registry::paper_pool`] or a snapshot restore).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ControlPlaneConfig, registry: Registry) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            registry: Mutex::new(registry),
            draining: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            snapshot_path: config.snapshot_path,
        });
        let routed = Arc::clone(&shared);
        let handler: Handler = Arc::new(move |req: &Request| {
            routed.requests.fetch_add(1, Ordering::SeqCst);
            routed.in_flight.fetch_add(1, Ordering::SeqCst);
            let response = route(&routed, req);
            routed.in_flight.fetch_sub(1, Ordering::SeqCst);
            response
        });
        let server = Server::bind(&config.addr, config.workers, handler)?;
        Ok(Self { server, shared })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// Whether `POST /v1/shutdown` has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Runs until a shutdown request arrives, then stops the server
    /// gracefully (in-flight requests finish). This is what `erms-cli
    /// serve` blocks on.
    pub fn wait(self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.server.shutdown();
    }

    /// Stops immediately (tests and benches).
    pub fn stop(self) {
        self.server.shutdown();
    }

    /// Direct access to the registry, bypassing HTTP — used by benches to
    /// seed state without paying the wire cost. Holds the outer lock for
    /// the duration of `f`; prefer [`Self::with_tenant`] for tenant work.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned (a handler panicked).
    pub fn with_registry<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut registry = self.shared.registry.lock().expect("registry poisoned");
        f(&mut registry)
    }

    /// Direct access to one tenant, bypassing HTTP. Resolves the handle
    /// under the outer lock, releases it, then runs `f` under the tenant's
    /// own lock — the same discipline the per-tenant handlers follow.
    /// Returns `None` if the tenant does not exist.
    ///
    /// # Panics
    ///
    /// Panics if the registry or tenant lock is poisoned.
    pub fn with_tenant<R>(&self, id: &str, f: impl FnOnce(&mut Tenant) -> R) -> Option<R> {
        locked(&self.shared, id, f).ok()
    }
}

/// Resolves a tenant's lock handle under a brief outer-lock hold.
fn tenant_handle(shared: &Shared, id: &str) -> Option<Arc<Mutex<Tenant>>> {
    shared
        .registry
        .lock()
        .expect("registry poisoned")
        .tenant(id)
}

/// Runs `f` under one tenant's lock and hands back what it returns, or the
/// 404 reply when there is no such tenant. The closure is the whole critical
/// section: handlers take out of it what their reply needs and render once
/// the lock is released.
fn locked<R>(shared: &Shared, id: &str, f: impl FnOnce(&mut Tenant) -> R) -> Result<R, Response> {
    let handle = tenant_handle(shared, id).ok_or_else(|| no_tenant(id))?;
    let mut tenant = handle.lock().expect("tenant poisoned");
    Ok(f(&mut tenant))
}

fn no_tenant(id: &str) -> Response {
    err_json(404, &format!("no tenant `{id}`"))
}

fn err_json(status: u16, message: &str) -> Response {
    let body = Json::obj(vec![("error", Json::str(message))]).render();
    Response::json(status, body)
}

fn ok_json(json: Json) -> Response {
    Response::json(200, json.render())
}

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let segments = req.segments();
    // The health probe and the reload endpoint must work while draining;
    // everything else is refused so the drain can converge.
    let draining_exempt = matches!(segments.as_slice(), ["healthz"] | ["v1", "reload"]);
    if shared.draining.load(Ordering::SeqCst) && !draining_exempt {
        return err_json(503, "draining: retry shortly");
    }
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => healthz(shared),
        ("GET", ["metrics"]) => metrics(shared),
        ("GET", ["v1", "tenants"]) => list_tenants(shared),
        ("POST", ["v1", "tenants"]) => create_tenant(shared, req),
        ("GET", ["v1", "tenants", id]) => tenant_status(shared, id),
        ("DELETE", ["v1", "tenants", id]) => delete_tenant(shared, id),
        ("POST", ["v1", "tenants", id, "spans"]) => ingest_spans(shared, id, req),
        ("POST", ["v1", "tenants", id, "workloads"]) => set_workloads(shared, id, req),
        ("GET", ["v1", "tenants", id, "plan"]) => get_plan(shared, id),
        ("POST", ["v1", "tenants", id, "replan"]) => replan(shared, id),
        ("GET", ["v1", "tenants", id, "history"]) => history(shared, id),
        ("POST", ["v1", "snapshot"]) => take_snapshot(shared),
        ("POST", ["v1", "reload"]) => reload(shared),
        ("POST", ["v1", "shutdown"]) => {
            shared.stop.store(true, Ordering::SeqCst);
            ok_json(Json::obj(vec![("stopping", Json::Bool(true))]))
        }
        (_, ["healthz" | "metrics"]) | (_, ["v1", ..]) => {
            err_json(405, "method not allowed for this path")
        }
        _ => err_json(404, "no such route"),
    }
}

fn body_text(req: &Request) -> Result<&str, Response> {
    std::str::from_utf8(&req.body).map_err(|_| err_json(400, "body must be UTF-8 JSON"))
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    Json::parse(body_text(req)?).map_err(|e| err_json(400, &DecodeError::from(e)))
}

fn healthz(shared: &Arc<Shared>) -> Response {
    let tenants = shared.registry.lock().expect("registry poisoned").len();
    ok_json(Json::obj(vec![
        ("status", Json::str("ok")),
        ("tenants", Json::Num(tenants as f64)),
        (
            "requests",
            Json::Num(shared.requests.load(Ordering::SeqCst) as f64),
        ),
        (
            "draining",
            Json::Bool(shared.draining.load(Ordering::SeqCst)),
        ),
    ]))
}

fn sanitize_metric(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn metrics(shared: &Arc<Shared>) -> Response {
    let mut out = String::new();
    let mut registry = shared.registry.lock().expect("registry poisoned");
    registry.pool_usage(); // refresh pool gauges before rendering
    out.push_str(&format!(
        "erms_control_requests_total {}\n",
        shared.requests.load(Ordering::SeqCst)
    ));
    out.push_str(&format!("erms_control_tenants {}\n", registry.len()));
    for (name, value) in registry.metrics.counters() {
        out.push_str(&format!("erms_{} {value}\n", sanitize_metric(name)));
    }
    for (name, value) in registry.metrics.gauges() {
        out.push_str(&format!("erms_{} {value}\n", sanitize_metric(name)));
    }
    // One consistent cut under every tenant lock, formatted after release.
    let tenants: Vec<(String, MetricsRegistry)> = registry
        .lock_tenants()
        .iter()
        .map(|tenant| {
            let mut per_tenant = MetricsRegistry::new();
            tenant.record_metrics(&mut per_tenant);
            (tenant.id.clone(), per_tenant)
        })
        .collect();
    for (id, per_tenant) in &tenants {
        for (name, value) in per_tenant.counters() {
            out.push_str(&format!(
                "erms_{}{{tenant=\"{id}\"}} {value}\n",
                sanitize_metric(name),
            ));
        }
        for (name, value) in per_tenant.gauges() {
            out.push_str(&format!(
                "erms_{}{{tenant=\"{id}\"}} {value}\n",
                sanitize_metric(name),
            ));
        }
    }
    Response::text(200, out)
}

fn tenant_summary(t: &Tenant) -> Json {
    Json::obj(vec![
        ("id", Json::str(&t.id)),
        ("app", Json::str(t.app.name())),
        (
            "microservices",
            Json::Num(t.app.microservice_count() as f64),
        ),
        ("services", Json::Num(t.app.service_count() as f64)),
        ("rounds", Json::Num(t.history.len() as f64)),
        ("spans_ingested", Json::Num(t.spans_ingested as f64)),
        ("samples_ingested", Json::Num(t.samples_ingested as f64)),
        ("has_plan", Json::Bool(t.plan().is_some())),
        (
            "plan_containers",
            t.plan()
                .map_or(Json::Null, |p| Json::Num(p.total_containers() as f64)),
        ),
    ])
}

fn list_tenants(shared: &Arc<Shared>) -> Response {
    let registry = shared.registry.lock().expect("registry poisoned");
    let summaries = registry
        .lock_tenants()
        .iter()
        .map(|t| tenant_summary(t))
        .collect();
    ok_json(Json::Arr(summaries))
}

fn create_tenant(shared: &Arc<Shared>, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(e) => return e,
    };
    let Some(id) = body.get("id").and_then(Json::as_str) else {
        return err_json(400, "missing string field `id`");
    };
    let Some(app_json) = body.get("app") else {
        return err_json(400, "missing field `app`");
    };
    let app = match app_from_json(app_json) {
        Ok(app) => app,
        Err(e) => return err_json(400, &e),
    };
    let id = id.to_string();
    let mut registry = shared.registry.lock().expect("registry poisoned");
    match registry.create(&id, app) {
        Ok(handle) => {
            let summary = tenant_summary(&handle.lock().expect("tenant poisoned"));
            Response::json(201, summary.render())
        }
        Err(e) => err_json(409, &e),
    }
}

fn tenant_status(shared: &Arc<Shared>, id: &str) -> Response {
    match locked(shared, id, |t| tenant_summary(t)) {
        Ok(summary) => ok_json(summary),
        Err(not_found) => not_found,
    }
}

fn delete_tenant(shared: &Arc<Shared>, id: &str) -> Response {
    let mut registry = shared.registry.lock().expect("registry poisoned");
    if registry.remove(id) {
        ok_json(Json::obj(vec![("deleted", Json::str(id))]))
    } else {
        no_tenant(id)
    }
}

fn ingest_spans(shared: &Arc<Shared>, id: &str, req: &Request) -> Response {
    // Bytes to spans in one pass: no tree is built for a span body.
    let batch = match body_text(req).map(span_batch_from_text) {
        Ok(Ok(batch)) => batch,
        Ok(Err(e)) => return err_json(400, &e),
        Err(response) => return response,
    };
    match locked(shared, id, |t| t.ingest(&batch)) {
        Ok(Ok(added)) => ok_json(Json::obj(vec![
            ("spans", Json::Num(batch.spans.len() as f64)),
            ("samples_added", Json::Num(added as f64)),
        ])),
        Ok(Err(e)) => err_json(400, &e),
        Err(not_found) => not_found,
    }
}

fn set_workloads(shared: &Arc<Shared>, id: &str, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(e) => return e,
    };
    let workloads = match workloads_from_json(&body) {
        Ok(w) => w,
        Err(e) => return err_json(400, &e),
    };
    let count = workloads.iter().count();
    match locked(shared, id, |t| t.workloads = workloads) {
        Ok(()) => ok_json(Json::obj(vec![("services", Json::Num(count as f64))])),
        Err(not_found) => not_found,
    }
}

fn get_plan(shared: &Arc<Shared>, id: &str) -> Response {
    let Some(handle) = tenant_handle(shared, id) else {
        return no_tenant(id);
    };
    match with_plan_text(&handle, |_| ()).1 {
        Some(text) => Response::json(200, &*text),
        None => err_json(404, "no plan applied yet: run a replan first"),
    }
}

fn replan(shared: &Arc<Shared>, id: &str) -> Response {
    let Some(handle) = tenant_handle(shared, id) else {
        return no_tenant(id);
    };
    let (record, plan) = replan_with_plan_text(&handle);
    // The plan's text is spliced in as it stands; only the record is new.
    let decision = snapshot::record_to_json(&record).render();
    let plan = plan.as_deref().unwrap_or("null");
    Response::json(200, format!("{{\"decision\":{decision},\"plan\":{plan}}}"))
}

fn history(shared: &Arc<Shared>, id: &str) -> Response {
    match locked(shared, id, |t| {
        t.history.iter().map(snapshot::record_to_json).collect()
    }) {
        Ok(records) => ok_json(Json::Arr(records)),
        Err(not_found) => not_found,
    }
}

fn take_snapshot(shared: &Arc<Shared>) -> Response {
    let Some(path) = shared.snapshot_path.as_deref() else {
        return err_json(400, "no snapshot path configured (start with --snapshot)");
    };
    let registry = shared.registry.lock().expect("registry poisoned");
    match snapshot::save(&registry, path) {
        Ok(bytes) => ok_json(Json::obj(vec![
            ("bytes", Json::Num(bytes as f64)),
            ("path", Json::str(path.to_string_lossy())),
            ("tenants", Json::Num(registry.len() as f64)),
        ])),
        Err(e) => err_json(500, &format!("snapshot write failed: {e}")),
    }
}

fn reload(shared: &Arc<Shared>) -> Response {
    let Some(path) = shared.snapshot_path.as_deref() else {
        return err_json(400, "no snapshot path configured (start with --snapshot)");
    };
    if shared
        .draining
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return err_json(409, "a reload is already in progress");
    }
    // Drain: wait until this request is the only one in flight. New
    // requests are already being refused with 503.
    let mut spins = 0u32;
    while shared.in_flight.load(Ordering::SeqCst) > 1 {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        if spins > 30_000 {
            shared.draining.store(false, Ordering::SeqCst);
            return err_json(500, "drain timed out; reload aborted");
        }
    }
    let result = snapshot::load(path);
    let response = match result {
        Ok(restored) => {
            let tenants = restored.len();
            *shared.registry.lock().expect("registry poisoned") = restored;
            ok_json(Json::obj(vec![
                ("reloaded", Json::Bool(true)),
                ("tenants", Json::Num(tenants as f64)),
            ]))
        }
        Err(e) => err_json(500, &format!("reload failed, old state kept: {e}")),
    };
    shared.draining.store(false, Ordering::SeqCst);
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{app_to_json, plan_to_json};
    use crate::http::Client;
    use erms_core::app::{AppBuilder, RequestRate, Sla, WorkloadVector};
    use erms_core::latency::LatencyProfile;
    use erms_core::resources::Resources;
    use erms_profilers::dataset::Sample;
    use std::time::Instant;

    fn app_json() -> String {
        let mut b = AppBuilder::new("demo");
        let m = b.microservice(
            "m",
            LatencyProfile::kneed(0.002, 3.0, 0.02, 9000.0),
            Resources::new(0.1, 200.0),
        );
        b.service("s", Sla::p95_ms(100.0), |g| {
            g.entry(m);
        });
        let app = b.build().unwrap();
        Json::obj(vec![("id", Json::str("demo")), ("app", app_to_json(&app))]).render()
    }

    #[test]
    fn lifecycle_create_workload_replan_plan() {
        let plane = ControlPlane::start(ControlPlaneConfig::default(), Registry::paper_pool())
            .expect("start");
        let mut client = Client::new(plane.addr()).unwrap();

        let (status, _) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);

        let (status, _) = client
            .request("POST", "/v1/tenants", Some(app_json().as_bytes()))
            .unwrap();
        assert_eq!(status, 201);

        let (status, _) = client
            .request(
                "POST",
                "/v1/tenants/demo/workloads",
                Some(b"[[0, 30000.0]]"),
            )
            .unwrap();
        assert_eq!(status, 200);

        let (status, _) = client
            .request("GET", "/v1/tenants/demo/plan", None)
            .unwrap();
        assert_eq!(status, 404, "no plan before the first replan");

        let (status, body) = client
            .request("POST", "/v1/tenants/demo/replan", None)
            .unwrap();
        assert_eq!(status, 200);
        // Both replies carry the plan as kept text; the bytes are the ones
        // the tree codec renders.
        let (record, plan) = plane
            .with_tenant("demo", |t| {
                let plan = plan_to_json(t.plan().expect("applied"));
                (
                    snapshot::record_to_json(t.history.last().expect("one round")),
                    plan,
                )
            })
            .unwrap();
        let spliced = Json::obj(vec![("decision", record), ("plan", plan.clone())]).render();
        assert_eq!(String::from_utf8(body).unwrap(), spliced);

        let (status, body) = client
            .request("GET", "/v1/tenants/demo/plan", None)
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(String::from_utf8(body).unwrap(), plan.render());
        assert_eq!(plan.get("scheme").and_then(Json::as_str), Some("erms"));

        let (status, body) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(
            text.contains("erms_planner_rounds{tenant=\"demo\"}"),
            "{text}"
        );

        let (status, _) = client.request("DELETE", "/v1/tenants/demo", None).unwrap();
        assert_eq!(status, 200);
        let (status, _) = client.request("GET", "/v1/tenants/demo", None).unwrap();
        assert_eq!(status, 404);

        plane.stop();
    }

    /// A tenant of `MICROSERVICES` in a chain whose window holds `SAMPLES`
    /// observations each at two load levels: a fit that scans for knees
    /// over all of them, hundreds of milliseconds in a debug build.
    fn slow_to_fit(plane: &ControlPlane) {
        const MICROSERVICES: u32 = 4;
        const SAMPLES: usize = 400;
        let mut b = AppBuilder::new("slow");
        let ids: Vec<_> = (0..MICROSERVICES)
            .map(|i| {
                b.microservice(
                    format!("m{i}"),
                    LatencyProfile::kneed(0.002, 3.0, 0.02, 9000.0),
                    Resources::new(0.1, 200.0),
                )
            })
            .collect();
        b.service("s", Sla::p95_ms(200.0), |g| {
            let mut node = g.entry(ids[0]);
            for &ms in &ids[1..] {
                node = g.call_seq(node, ms);
            }
        });
        let app = b.build().unwrap();
        let window = ids
            .iter()
            .map(|&ms| {
                let samples = (0..SAMPLES)
                    .map(|i| {
                        let (gamma, latency) = if i % 2 == 0 {
                            (400.0, 4.0)
                        } else {
                            (1_600.0, 30.0)
                        };
                        let jitter = 1.0 + (i % 7) as f64 / 100.0;
                        Sample::new(latency * jitter, gamma * jitter, 0.1, 0.1)
                    })
                    .collect();
                (ms, samples)
            })
            .collect();
        plane.with_registry(|r| r.create("slow", app)).unwrap();
        plane.with_tenant("slow", |t| {
            t.workloads = WorkloadVector::uniform(&t.app, RequestRate::per_minute(6_000.0));
            assert!(!t.replan().skipped);
            t.profiler.restore_samples(window);
        });
    }

    /// `GET …/plan` sent while a `POST …/replan` fits is answered before the
    /// replan returns: the fit holds no lock.
    #[test]
    fn plan_reads_are_answered_while_a_replan_fits() {
        let plane = ControlPlane::start(ControlPlaneConfig::default(), Registry::paper_pool())
            .expect("start");
        slow_to_fit(&plane);
        let addr = plane.addr();
        let mut client = Client::new(addr).unwrap();
        // Every request the daemon has received, this one included.
        let mut received = || {
            let (_, body) = client.request("GET", "/healthz", None).unwrap();
            let health = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            health.get("requests").and_then(Json::as_f64).unwrap()
        };
        let mut last = received();
        let (answered, replanned) = std::thread::scope(|s| {
            let replan = s.spawn(move || {
                let mut writer = Client::new(addr).unwrap();
                let (status, _) = writer
                    .request("POST", "/v1/tenants/slow/replan", None)
                    .unwrap();
                assert_eq!(status, 200);
                Instant::now()
            });
            // Poll until the daemon has taken a request besides the polls.
            loop {
                let now = received();
                if now > last + 1.0 || replan.is_finished() {
                    break;
                }
                last = now;
            }
            let mut reader = Client::new(addr).unwrap();
            let answered: Vec<Instant> = (0..5)
                .map(|_| {
                    let (status, _) = reader
                        .request("GET", "/v1/tenants/slow/plan", None)
                        .unwrap();
                    assert_eq!(status, 200);
                    Instant::now()
                })
                .collect();
            (answered, replan.join().unwrap())
        });
        let waited = answered.iter().filter(|&&at| at > replanned).count();
        assert_eq!(waited, 0, "{waited} of 5 plan reads waited for the replan");
        plane.stop();
    }

    #[test]
    fn unknown_routes_and_methods_are_refused() {
        let plane = ControlPlane::start(ControlPlaneConfig::default(), Registry::paper_pool())
            .expect("start");
        let mut client = Client::new(plane.addr()).unwrap();
        let (status, _) = client.request("GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client.request("DELETE", "/healthz", None).unwrap();
        assert_eq!(status, 405);
        let (status, _) = client
            .request("POST", "/v1/tenants", Some(b"not json"))
            .unwrap();
        assert_eq!(status, 400);
        let (status, _) = client.request("POST", "/v1/snapshot", None).unwrap();
        assert_eq!(status, 400, "no snapshot path configured");
        plane.stop();
    }

    #[test]
    fn shutdown_endpoint_flags_the_server() {
        let plane = ControlPlane::start(ControlPlaneConfig::default(), Registry::paper_pool())
            .expect("start");
        let mut client = Client::new(plane.addr()).unwrap();
        assert!(!plane.shutdown_requested());
        let (status, _) = client.request("POST", "/v1/shutdown", None).unwrap();
        assert_eq!(status, 200);
        assert!(plane.shutdown_requested());
        plane.wait();
    }
}
