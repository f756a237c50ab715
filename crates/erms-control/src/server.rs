//! The control-plane HTTP service: routing, drain/reload, metrics
//! rendering.
//!
//! Locking is two-level (see the `tenant` module docs): a short-held
//! outer mutex guards the [`Registry`] map itself, and each tenant sits
//! behind its own `Arc<Mutex<Tenant>>`. Per-tenant endpoints (ingest,
//! workloads, replan, history, status) resolve the handle under the outer
//! lock, *drop it*, and then lock only their tenant — so a slow replan for
//! one tenant no longer serializes every other tenant's traffic behind it.
//! List and `/metrics` resolve every handle the same way and then lock the
//! tenants one at a time in id order, so a tenant section they wait for
//! stalls no request for another tenant; their replies are per-tenant
//! reads, not one instant. Create, delete and reload run under the outer
//! lock, and the snapshot takes every tenant lock in id order under it for
//! a consistent cut. Per-tenant request order remains the only source of
//! nondeterminism, exactly as before.
//!
//! A tenant lock covers work on the tenant's state only. Bodies are decoded
//! before it is taken (`POST …/spans` straight from the bytes, with no tree),
//! and replies are rendered after it is released. `POST …/replan` fits the
//! profiles outside the lock too: it copies the window under the lock, fits
//! the copy with no lock held, and locks again to install the fits and plan
//! (`tenant::replan_published`).
//!
//! `GET …/plan` takes no tenant lock. Every critical section this module
//! opens on a tenant (`locked`, both locked phases of a replan) publishes
//! the plan it leaves applied into the tenant's plan slot before the lock
//! drops, and [`ControlPlane::start`] publishes the tenants it is handed.
//! The read resolves the slot under the outer lock, clones the slot's entry,
//! and copies its text, written once per plan, into the reply. So a plan
//! read waits for no round, ingest or poisoned tenant (only for the brief
//! outer lock, which a snapshot holds while it takes the tenant locks), and
//! never returns a plan older than one an earlier reply reflected. The
//! replan reply carries the entry its own round published.
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
use crate::tenant::{replan_published, with_published, PlanSlot, PoolUsage, Registry, Tenant};

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

/// One request counted in flight for as long as it lives: it leaves the
/// count when dropped, also by a handler that panics, so a reload's drain
/// never waits for a request that is gone.
struct InFlight<'a>(&'a AtomicU64);

impl<'a> InFlight<'a> {
    fn enter(count: &'a AtomicU64) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        Self(count)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
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
        registry.publish_all();
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
            let _in_flight = InFlight::enter(&routed.in_flight);
            route(&routed, req)
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
    /// own lock, publishing the plan it leaves applied — the same discipline
    /// the per-tenant handlers follow.
    /// Returns `None` if the tenant does not exist.
    ///
    /// # Panics
    ///
    /// Panics if the registry or tenant lock is poisoned.
    pub fn with_tenant<R>(&self, id: &str, f: impl FnOnce(&mut Tenant) -> R) -> Option<R> {
        locked(&self.shared, id, f).ok()
    }
}

/// Resolves a tenant's lock handle and plan slot under a brief outer-lock
/// hold.
fn tenant_entry(shared: &Shared, id: &str) -> Option<(Arc<Mutex<Tenant>>, Arc<PlanSlot>)> {
    shared.registry.lock().expect("registry poisoned").entry(id)
}

/// Runs `f` under one tenant's lock, publishing the plan it leaves applied,
/// and hands back what it returns, or the 404 reply when there is no such
/// tenant. The closure is the whole critical section: handlers take out of
/// it what their reply needs and render once the lock is released.
fn locked<R>(shared: &Shared, id: &str, f: impl FnOnce(&mut Tenant) -> R) -> Result<R, Response> {
    let (handle, slot) = tenant_entry(shared, id).ok_or_else(|| no_tenant(id))?;
    Ok(with_published(&handle, &slot, f).0)
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
    let (handles, mut control, mut pool) = {
        let registry = shared.registry.lock().expect("registry poisoned");
        let pool = PoolUsage::of_pool(registry.pool());
        (registry.handles(), registry.metrics.clone(), pool)
    };
    // With the outer lock released, each tenant under its own lock, one at
    // a time in id order; the pool gauges sum those same reads.
    let tenants: Vec<(String, MetricsRegistry)> = handles
        .iter()
        .map(|handle| {
            let tenant = handle.lock().expect("tenant poisoned");
            pool.add(&tenant);
            let mut per_tenant = MetricsRegistry::new();
            tenant.record_metrics(&mut per_tenant);
            (tenant.id.clone(), per_tenant)
        })
        .collect();
    pool.record(&mut control);
    let mut out = String::new();
    out.push_str(&format!(
        "erms_control_requests_total {}\n",
        shared.requests.load(Ordering::SeqCst)
    ));
    out.push_str(&format!("erms_control_tenants {}\n", tenants.len()));
    for (name, value) in control.counters() {
        out.push_str(&format!("erms_{} {value}\n", sanitize_metric(name)));
    }
    for (name, value) in control.gauges() {
        out.push_str(&format!("erms_{} {value}\n", sanitize_metric(name)));
    }
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
        // The round of the newest record: the history keeps only the most
        // recent rounds, so its length stops counting them.
        (
            "rounds",
            Json::Num(t.history.back().map_or(0, |r| r.round) as f64),
        ),
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
    let handles = shared.registry.lock().expect("registry poisoned").handles();
    let summaries = handles
        .iter()
        .map(|handle| tenant_summary(&handle.lock().expect("tenant poisoned")))
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
    // Only services of the tenant's app: a foreign id would be kept and
    // planned for nothing, or for a service the app does not have.
    let set = |t: &mut Tenant| {
        for (service, _) in workloads.iter() {
            t.app
                .service(service)
                .map_err(|e| format!("workloads: {e}"))?;
        }
        t.workloads = workloads;
        Ok::<(), String>(())
    };
    match locked(shared, id, set) {
        Ok(Ok(())) => ok_json(Json::obj(vec![("services", Json::Num(count as f64))])),
        Ok(Err(e)) => err_json(400, &e),
        Err(not_found) => not_found,
    }
}

fn get_plan(shared: &Arc<Shared>, id: &str) -> Response {
    let Some((_, slot)) = tenant_entry(shared, id) else {
        return no_tenant(id);
    };
    match slot.current() {
        Some(published) => Response::json(200, published.text()),
        None => err_json(404, "no plan applied yet: run a replan first"),
    }
}

fn replan(shared: &Arc<Shared>, id: &str) -> Response {
    let Some((handle, slot)) = tenant_entry(shared, id) else {
        return no_tenant(id);
    };
    let (record, published) = replan_published(&handle, &slot);
    // The plan's text is spliced in as it stands; only the record is new.
    let decision = snapshot::record_to_json(&record).render();
    let plan = published
        .as_ref()
        .map_or("null", |published| published.text());
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
    use crate::codec::{app_to_json, plan_from_json, plan_to_json};
    use crate::http::Client;
    use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
    use erms_core::latency::LatencyProfile;
    use erms_core::resources::Resources;
    use erms_profilers::dataset::Sample;
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Instant;

    fn demo_app() -> App {
        let mut b = AppBuilder::new("demo");
        let m = b.microservice(
            "m",
            LatencyProfile::kneed(0.002, 3.0, 0.02, 9000.0),
            Resources::new(0.1, 200.0),
        );
        b.service("s", Sla::p95_ms(100.0), |g| {
            g.entry(m);
        });
        b.build().unwrap()
    }

    fn app_json(id: &str) -> String {
        let app = app_to_json(&demo_app());
        Json::obj(vec![("id", Json::str(id)), ("app", app)]).render()
    }

    #[test]
    fn lifecycle_create_workload_replan_plan() {
        let plane = ControlPlane::start(ControlPlaneConfig::default(), Registry::paper_pool())
            .expect("start");
        let mut client = Client::new(plane.addr()).unwrap();

        let (status, _) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);

        let (status, _) = client
            .request("POST", "/v1/tenants", Some(app_json("demo").as_bytes()))
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
                    snapshot::record_to_json(t.history.back().expect("one round")),
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

    /// A body naming a service twice, or a service the tenant's app does
    /// not have, is a 400 that leaves the tenant's workloads as they were.
    #[test]
    fn workloads_naming_a_service_twice_or_a_foreign_one_are_refused() {
        let plane = ControlPlane::start(ControlPlaneConfig::default(), Registry::paper_pool())
            .expect("start");
        let mut client = Client::new(plane.addr()).unwrap();
        let (status, _) = client
            .request("POST", "/v1/tenants", Some(app_json("demo").as_bytes()))
            .unwrap();
        assert_eq!(status, 201);
        let path = "/v1/tenants/demo/workloads";
        let (status, _) = client.request("POST", path, Some(b"[[0, 30000]]")).unwrap();
        assert_eq!(status, 200);
        let before = plane.with_tenant("demo", |t| t.workloads.clone()).unwrap();
        for (body, named) in [
            ("[[0,30000],[0,1]]", "0"),
            ("[[0,30000],[77,30000]]", "77"),
            ("[[0,30000],[4000000000,30000]]", "4000000000"),
        ] {
            let (status, reply) = client.request("POST", path, Some(body.as_bytes())).unwrap();
            let reply = String::from_utf8(reply).unwrap();
            assert_eq!(status, 400, "{body}: {reply}");
            assert!(reply.contains(named), "{body}: {reply}");
            let now = plane.with_tenant("demo", |t| t.workloads.clone()).unwrap();
            assert_eq!(now, before, "{body} changed the tenant");
        }
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

    /// Creates tenant `id` over HTTP, sets its workloads and replans it;
    /// returns the bytes `GET …/plan` then serves.
    fn planned(client: &mut Client, id: &str) -> Vec<u8> {
        let created = client.request("POST", "/v1/tenants", Some(app_json(id).as_bytes()));
        assert_eq!(created.unwrap().0, 201);
        let path = |tail: &str| format!("/v1/tenants/{id}/{tail}");
        let rates = client.request("POST", &path("workloads"), Some(b"[[0, 30000]]"));
        assert_eq!(rates.unwrap().0, 200);
        assert_eq!(
            client.request("POST", &path("replan"), None).unwrap().0,
            200
        );
        let (status, plan) = client.request("GET", &path("plan"), None).unwrap();
        assert_eq!(status, 200);
        plan
    }

    /// `GET …/plan` sent while another thread holds the tenant's lock is
    /// answered, with the applied plan's bytes, before the lock is released.
    #[test]
    fn plan_reads_are_answered_while_the_tenant_lock_is_held() {
        let plane = ControlPlane::start(ControlPlaneConfig::default(), Registry::paper_pool())
            .expect("start");
        let addr = plane.addr();
        let plan = planned(&mut Client::new(addr).unwrap(), "demo");
        let (held, holding) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let plane = &plane;
            s.spawn(move || {
                plane.with_tenant("demo", |_| {
                    held.send(()).unwrap();
                    released.recv().unwrap();
                })
            });
            holding.recv().unwrap();
            let (replied, reply) = mpsc::channel();
            s.spawn(move || {
                let mut reader = Client::new(addr).unwrap();
                replied.send(reader.request("GET", "/v1/tenants/demo/plan", None))
            });
            let answered = reply.recv_timeout(Duration::from_secs(5));
            release.send(()).unwrap();
            let (status, body) = answered
                .expect("the plan read waited for the tenant lock")
                .unwrap();
            assert_eq!((status, body), (200, plan));
        });
        plane.stop();
    }

    /// A `/metrics` that waits for one tenant's lock stalls no request
    /// that resolves a tenant: plan reads of that tenant and of another,
    /// and a span ingest into another, answer while the section is held.
    #[test]
    fn metrics_waiting_for_a_tenant_stalls_no_other_request() {
        let plane = ControlPlane::start(ControlPlaneConfig::default(), Registry::paper_pool())
            .expect("start");
        let addr = plane.addr();
        let mut client = Client::new(addr).unwrap();
        let plan = planned(&mut client, "demo");
        let other = planned(&mut client, "other");
        let spans = br#"{"sampling":1,"containers":[[0,1]],"spans":[[0,0,0,0,0,3]]}"#;
        let (held, holding) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let plane = &plane;
            s.spawn(move || {
                plane.with_tenant("demo", |_| {
                    held.send(()).unwrap();
                    released.recv().unwrap();
                })
            });
            holding.recv().unwrap();
            let before = plane.shared.requests.load(Ordering::SeqCst);
            let metrics = s.spawn(move || {
                let reply = Client::new(addr).unwrap().request("GET", "/metrics", None);
                reply.unwrap().0
            });
            while plane.shared.requests.load(Ordering::SeqCst) == before {
                std::thread::yield_now();
            }
            // Let the handler reach the tenant lock it waits for.
            std::thread::sleep(Duration::from_millis(100));
            let requests: [(&str, &str, Option<&'static [u8]>); 3] = [
                ("GET", "/v1/tenants/demo/plan", None),
                ("GET", "/v1/tenants/other/plan", None),
                ("POST", "/v1/tenants/other/spans", Some(spans)),
            ];
            let replies = requests.map(|(method, path, body)| {
                let (replied, reply) = mpsc::channel();
                s.spawn(move || {
                    let answer = Client::new(addr).unwrap().request(method, path, body);
                    replied.send(answer.expect("answered"))
                });
                reply
            });
            let deadline = Instant::now() + Duration::from_secs(1);
            let [demo, other_plan, ingest] = replies.map(|reply| {
                reply
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .ok()
            });
            release.send(()).unwrap();
            assert_eq!(demo, Some((200, plan)), "the plan read waited");
            assert_eq!(other_plan, Some((200, other)), "the other plan read waited");
            let ingest = ingest.expect("the other ingest waited");
            assert_eq!(ingest.0, 200);
            assert_eq!(metrics.join().unwrap(), 200);
        });
        plane.stop();
    }

    /// A round that panics poisons its tenant's lock. The tenant's plan is
    /// still served, by every worker, and the other tenants are untouched.
    #[test]
    fn a_poisoned_tenant_still_serves_its_plan() {
        let config = ControlPlaneConfig {
            workers: 2,
            ..ControlPlaneConfig::default()
        };
        let plane = ControlPlane::start(config, Registry::paper_pool()).expect("start");
        let addr = plane.addr();
        let mut client = Client::new(addr).unwrap();
        let plan = planned(&mut client, "demo");
        let other = planned(&mut client, "other");
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            plane.with_tenant("demo", |_| panic!("a round panics under the lock"))
        }));
        assert!(panicked.is_err());
        for read in 0..5 {
            let reply = Client::new(addr)
                .unwrap()
                .request("GET", "/v1/tenants/demo/plan", None);
            let (status, body) = reply.unwrap_or_else(|e| panic!("read {read}: {e}"));
            assert_eq!((status, &body), (200, &plan), "read {read}");
        }
        let mut client = Client::new(addr).unwrap();
        let replanned = client.request("POST", "/v1/tenants/other/replan", None);
        assert_eq!(replanned.unwrap().0, 200);
        let read = client.request("GET", "/v1/tenants/other/plan", None);
        assert_eq!(read.unwrap(), (200, other));
        plane.stop();
    }

    /// Requests whose handler panics (status reads of a poisoned tenant)
    /// are answered 500 at once, by every worker and one more time than
    /// there are workers, and a reload afterwards drains and succeeds.
    #[test]
    fn a_panicking_handler_answers_500_and_keeps_its_worker() {
        let snapshot = std::env::temp_dir().join(format!(
            "erms-panic-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let workers = 2;
        let config = ControlPlaneConfig {
            workers,
            snapshot_path: Some(snapshot.clone()),
            ..ControlPlaneConfig::default()
        };
        let plane = ControlPlane::start(config, Registry::paper_pool()).expect("start");
        let addr = plane.addr();
        let mut client = Client::new(addr).unwrap();
        planned(&mut client, "demo");
        let saved = client.request("POST", "/v1/snapshot", None);
        assert_eq!(saved.unwrap().0, 200);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            plane.with_tenant("demo", |_| panic!("a round panics under the lock"))
        }));
        assert!(panicked.is_err());
        for read in 0..=workers {
            let started = Instant::now();
            let reply = Client::new(addr)
                .unwrap()
                .request("GET", "/v1/tenants/demo", None);
            let (status, body) = reply.unwrap_or_else(|e| panic!("read {read}: {e}"));
            assert_eq!(status, 500, "read {read}");
            let body = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            assert!(
                body.get("error").and_then(Json::as_str).is_some(),
                "{body:?}"
            );
            assert!(started.elapsed() < Duration::from_secs(5), "read {read}");
        }
        let started = Instant::now();
        let (status, body) = client.request("POST", "/v1/reload", None).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert!(started.elapsed() < Duration::from_secs(5));
        let read = client.request("GET", "/v1/tenants/demo", None);
        assert_eq!(read.unwrap().0, 200);
        plane.stop();
        std::fs::remove_file(&snapshot).ok();
    }

    /// The epoch tenant `id`'s slot holds and the manager's, `None` without
    /// a plan. Reads the tenant through its raw handle, which publishes
    /// nothing.
    fn published_and_applied(plane: &ControlPlane, id: &str) -> (Option<u64>, Option<u64>) {
        let (handle, slot) = plane.with_registry(|r| r.entry(id)).expect("registered");
        let tenant = handle.lock().unwrap();
        let applied = tenant.plan().map(|_| tenant.manager.plan_epoch());
        (slot.current().map(|entry| entry.epoch()), applied)
    }

    /// The slot holds the manager's plan epoch after every kind of section
    /// the daemon opens on a tenant: a handler's (`locked`), a replan, a
    /// round run on the manager through `with_tenant`, a restored manager
    /// state, a reload, and for a tenant planned before the server started.
    #[test]
    fn the_slot_follows_every_section_the_daemon_opens() {
        let snapshot = std::env::temp_dir().join(format!(
            "erms-slot-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut registry = Registry::paper_pool();
        let early = registry.create("early", demo_app()).unwrap();
        {
            let mut t = early.lock().unwrap();
            t.workloads = WorkloadVector::uniform(&t.app, RequestRate::per_minute(30_000.0));
            assert!(!t.replan().skipped);
        }
        let config = ControlPlaneConfig {
            snapshot_path: Some(snapshot.clone()),
            ..ControlPlaneConfig::default()
        };
        let plane = ControlPlane::start(config, registry).expect("start");
        let follows = |step: &str| {
            let (published, applied) = published_and_applied(&plane, "demo");
            assert!(applied.is_some(), "{step}: no plan applied");
            assert_eq!(published, applied, "{step}");
        };
        let (published, applied) = published_and_applied(&plane, "early");
        assert!(applied.is_some());
        assert_eq!(published, applied, "planned before the server started");
        let mut client = Client::new(plane.addr()).unwrap();
        planned(&mut client, "demo");
        follows("replan");
        let rates = client.request("POST", "/v1/tenants/demo/workloads", Some(b"[[0, 90000]]"));
        assert_eq!(rates.unwrap().0, 200);
        follows("locked");
        let state = plane
            .with_tenant("demo", |t| {
                let state = t.manager.export_state();
                t.manager.run_round(&t.app, &mut t.cluster, &t.workloads);
                state
            })
            .unwrap();
        follows("run_round through with_tenant");
        plane.with_tenant("demo", |t| t.manager.restore_state(state));
        follows("restore_state");
        assert_eq!(client.request("POST", "/v1/snapshot", None).unwrap().0, 200);
        plane.with_tenant("demo", |t| {
            t.manager.run_round(&t.app, &mut t.cluster, &t.workloads);
        });
        assert_eq!(client.request("POST", "/v1/reload", None).unwrap().0, 200);
        follows("reload");
        plane.stop();
        std::fs::remove_file(&snapshot).unwrap();
    }

    /// Two readers loop on `GET …/plan` while a writer runs rounds of
    /// ingest, workloads and replan. Every plan read is one a replan reply
    /// carried, and no reader sees a plan older than one it saw before.
    #[test]
    #[ignore = "release stress test: cargo test --release -- --ignored plan_reads_under_churn"]
    fn plan_reads_under_churn() {
        const ROUNDS: usize = 500;
        const READERS: usize = 2;
        let plane = ControlPlane::start(ControlPlaneConfig::default(), Registry::paper_pool())
            .expect("start");
        let addr = plane.addr();
        let mut writer = Client::new(addr).unwrap();
        let created = writer.request("POST", "/v1/tenants", Some(app_json("churn").as_bytes()));
        assert_eq!(created.unwrap().0, 201);
        let stop = AtomicBool::new(false);
        let (replies, reads) = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut reader = Client::new(addr).unwrap();
                        let mut seen: Vec<String> = Vec::new();
                        while !stop.load(Ordering::SeqCst) {
                            let reply = reader.request("GET", "/v1/tenants/churn/plan", None);
                            match reply.unwrap() {
                                (200, body) => seen.push(String::from_utf8(body).unwrap()),
                                (404, _) if seen.is_empty() => {}
                                (status, body) => panic!("{status}: {body:?}"),
                            }
                        }
                        seen
                    })
                })
                .collect();
            let mut replies = Vec::with_capacity(ROUNDS);
            for round in 0..ROUNDS {
                let spans: Vec<String> = (0..8)
                    .map(|i| {
                        let start = round as f64 * 1_000.0 + f64::from(i) * 97.0;
                        let latency = 3.0 + (round % 5) as f64 + f64::from(i) / 8.0;
                        format!("[0,0,0,0,{start},{}]", start + latency)
                    })
                    .collect();
                let batch = format!(
                    r#"{{"sampling":1,"containers":[[0,1]],"spans":[{}]}}"#,
                    spans.join(",")
                );
                let ingest =
                    writer.request("POST", "/v1/tenants/churn/spans", Some(batch.as_bytes()));
                assert_eq!(ingest.unwrap().0, 200);
                let rate = format!("[[0, {}]]", 5_000 + 20_000 * (round % 5));
                let set =
                    writer.request("POST", "/v1/tenants/churn/workloads", Some(rate.as_bytes()));
                assert_eq!(set.unwrap().0, 200);
                let (status, body) = writer
                    .request("POST", "/v1/tenants/churn/replan", None)
                    .unwrap();
                assert_eq!(status, 200);
                let reply = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
                replies.push(reply.get("plan").expect("a plan member").render());
            }
            stop.store(true, Ordering::SeqCst);
            let reads: Vec<Vec<String>> = readers.into_iter().map(|r| r.join().unwrap()).collect();
            (replies, reads)
        });
        // Where each plan stands in the writer's order (equal plans share
        // their text, so one text may stand at several places).
        let mut at: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (place, text) in replies.iter().enumerate() {
            at.entry(text.as_str()).or_default().push(place);
        }
        assert!(at.len() > 1, "every round applied one plan");
        for (reader, seen) in reads.iter().enumerate() {
            assert!(!seen.is_empty(), "reader {reader} read no plan");
            let mut floor = 0;
            for text in seen {
                let json = Json::parse(text).expect("the plan parses");
                plan_from_json(&json).expect("the plan decodes");
                let places = at
                    .get(text.as_str())
                    .unwrap_or_else(|| panic!("reader {reader}: a plan no replan reply carried"));
                floor = *places
                    .iter()
                    .find(|&&place| place >= floor)
                    .unwrap_or_else(|| panic!("reader {reader}: a plan older than one seen"));
            }
        }
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
