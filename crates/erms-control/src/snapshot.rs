//! Versioned snapshot/restore of the whole registry.
//!
//! A snapshot carries, per tenant, exactly the state that feeds future
//! decisions: the current application model (post-refit), the profiler's
//! retained observation window, the manager's hysteresis state, the
//! tenant's cluster view, its workloads, and the audit history (its most
//! recent `HISTORY_LIMIT` records; a longer one, from a file written
//! before the bound, is cut to that on load). Restoring
//! yields a registry whose next `replan()` is **bit-identical** to the one
//! the uninterrupted process would have run:
//!
//! * the JSON number codec round-trips every finite `f64` exactly,
//! * every `restore_*` call is a verbatim transfer (no re-normalisation),
//! * the incremental planner's internals are deliberately *not* carried —
//!   a restored manager replans cold, and the planner invariant (pinned by
//!   `tests/incremental_equivalence.rs`) makes a cold replan bit-identical
//!   to the warm one.
//!
//! Writes are atomic: the snapshot is written to `<path>.tmp` and renamed
//! over the target, so a crash mid-write never corrupts the previous
//! snapshot. The format carries an explicit version; loading rejects
//! unknown versions instead of guessing.

use std::collections::VecDeque;
use std::path::Path;

use erms_core::provisioning::ClusterState;
use erms_core::resilience::{ResilienceConfig, ResilientManager, HISTORY_LIMIT};
use erms_telemetry::online::OnlineProfiler;

use crate::codec::{
    app_from_json, app_to_json, cluster_from_json, cluster_to_json, host_from_json, host_to_json,
    manager_state_from_json, manager_state_to_json, samples_from_json, samples_to_json,
    workloads_from_json, workloads_to_json,
};
use crate::json::Json;
use crate::tenant::{DecisionRecord, Registry, Tenant};

/// Current snapshot format version. Bump on any incompatible change and
/// keep a migration or an explicit rejection for older versions.
pub const SNAPSHOT_VERSION: u64 = 1;

/// The one encoding of a decision record: history replies and snapshots
/// both go through it.
pub(crate) fn record_to_json(r: &DecisionRecord) -> Json {
    Json::obj(vec![
        ("round", Json::Num(r.round as f64)),
        ("scheme", Json::str(&r.scheme)),
        ("total_containers", Json::Num(r.total_containers as f64)),
        ("refitted", Json::Num(r.refitted as f64)),
        (
            "actions",
            Json::Arr(r.actions.iter().map(Json::str).collect()),
        ),
        (
            "errors",
            Json::Arr(r.errors.iter().map(Json::str).collect()),
        ),
        ("degraded", Json::Bool(r.degraded)),
        ("skipped", Json::Bool(r.skipped)),
    ])
}

fn record_from_json(j: &Json) -> Result<DecisionRecord, String> {
    let ctx = "decision record";
    let strings = |key: &str| -> Result<Vec<String>, String> {
        j.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{ctx}: missing array `{key}`"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("{ctx}: `{key}` entries must be strings"))
            })
            .collect()
    };
    let uint = |key: &str| -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_f64)
            .filter(|v| *v >= 0.0 && v.fract() == 0.0)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{ctx}: missing integer `{key}`"))
    };
    Ok(DecisionRecord {
        round: uint("round")?,
        scheme: j
            .get("scheme")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing string `scheme`"))?
            .to_string(),
        total_containers: uint("total_containers")?,
        refitted: uint("refitted")? as usize,
        actions: strings("actions")?,
        errors: strings("errors")?,
        degraded: j
            .get("degraded")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{ctx}: missing bool `degraded`"))?,
        skipped: j
            .get("skipped")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{ctx}: missing bool `skipped`"))?,
    })
}

fn tenant_to_json(t: &Tenant) -> Json {
    Json::obj(vec![
        ("id", Json::str(&t.id)),
        ("app", app_to_json(&t.app)),
        ("samples", samples_to_json(t.profiler.samples())),
        ("manager", manager_state_to_json(&t.manager.export_state())),
        ("cluster", cluster_to_json(&t.cluster)),
        ("workloads", workloads_to_json(&t.workloads)),
        (
            "history",
            Json::Arr(t.history.iter().map(record_to_json).collect()),
        ),
        ("spans_ingested", Json::Num(t.spans_ingested as f64)),
        ("samples_ingested", Json::Num(t.samples_ingested as f64)),
    ])
}

fn tenant_from_json(j: &Json) -> Result<Tenant, String> {
    let ctx = "tenant";
    let id = j
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing string `id`"))?
        .to_string();
    let app = app_from_json(
        j.get("app")
            .ok_or_else(|| format!("{ctx} `{id}`: missing `app`"))?,
    )
    .map_err(|e| format!("tenant `{id}`: {e}"))?;
    let mut profiler = OnlineProfiler::new();
    profiler.restore_samples(
        samples_from_json(
            j.get("samples")
                .ok_or_else(|| format!("{ctx} `{id}`: missing `samples`"))?,
        )
        .map_err(|e| format!("tenant `{id}`: {e}"))?,
    );
    let mut manager = ResilientManager::new(ResilienceConfig::default());
    manager.restore_state(
        manager_state_from_json(
            j.get("manager")
                .ok_or_else(|| format!("{ctx} `{id}`: missing `manager`"))?,
        )
        .map_err(|e| format!("tenant `{id}`: {e}"))?,
    );
    let cluster: ClusterState = cluster_from_json(
        j.get("cluster")
            .ok_or_else(|| format!("{ctx} `{id}`: missing `cluster`"))?,
    )
    .map_err(|e| format!("tenant `{id}`: {e}"))?;
    let workloads = workloads_from_json(
        j.get("workloads")
            .ok_or_else(|| format!("{ctx} `{id}`: missing `workloads`"))?,
    )
    .map_err(|e| format!("tenant `{id}`: {e}"))?;
    let mut history = j
        .get("history")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx} `{id}`: missing array `history`"))?
        .iter()
        .map(record_from_json)
        .collect::<Result<VecDeque<_>, String>>()
        .map_err(|e| format!("tenant `{id}`: {e}"))?;
    // A file written before the history was bounded may hold more records
    // than a tenant keeps: every one is checked, the newest are kept.
    let excess = history.len().saturating_sub(HISTORY_LIMIT);
    history.drain(..excess);
    let uint = |key: &str| -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_f64)
            .filter(|v| *v >= 0.0 && v.fract() == 0.0)
            .map(|v| v as u64)
            .ok_or_else(|| format!("tenant `{id}`: missing integer `{key}`"))
    };
    Ok(Tenant {
        spans_ingested: uint("spans_ingested")?,
        samples_ingested: uint("samples_ingested")?,
        id,
        app,
        profiler,
        manager,
        cluster,
        workloads,
        history,
    })
}

/// Encodes the whole registry (tenants in id order; the control-plane
/// metrics registry is derived state and deliberately not carried).
/// Takes every tenant lock in id order for a consistent cut — no tenant
/// mutates between the first and last tenant's serialisation.
pub fn registry_to_json(registry: &Registry) -> Json {
    Json::obj(vec![
        ("version", Json::Num(SNAPSHOT_VERSION as f64)),
        (
            "pool",
            Json::Arr(registry.pool().iter().map(host_to_json).collect()),
        ),
        (
            "tenants",
            Json::Arr(
                registry
                    .lock_tenants()
                    .iter()
                    .map(|t| tenant_to_json(t))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a registry snapshot, rejecting unknown format versions.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn registry_from_json(j: &Json) -> Result<Registry, String> {
    let version = j
        .get("version")
        .and_then(Json::as_f64)
        .ok_or_else(|| "snapshot: missing `version`".to_string())?;
    if version != SNAPSHOT_VERSION as f64 {
        return Err(format!(
            "snapshot: unsupported version {version} (this build reads {SNAPSHOT_VERSION})"
        ));
    }
    let pool = j
        .get("pool")
        .and_then(Json::as_arr)
        .ok_or_else(|| "snapshot: missing array `pool`".to_string())?
        .iter()
        .map(host_from_json)
        .collect::<Result<Vec<_>, String>>()?;
    let mut registry = Registry::new(pool);
    for tenant in j
        .get("tenants")
        .and_then(Json::as_arr)
        .ok_or_else(|| "snapshot: missing array `tenants`".to_string())?
    {
        registry.insert(tenant_from_json(tenant)?);
    }
    Ok(registry)
}

/// Serialises the registry and writes it atomically (`<path>.tmp` +
/// rename). Returns the snapshot size in bytes.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn save(registry: &Registry, path: &Path) -> std::io::Result<u64> {
    let text = registry_to_json(registry).render();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text.as_bytes())?;
    std::fs::rename(&tmp, path)?;
    Ok(text.len() as u64)
}

/// Loads a snapshot from disk.
///
/// # Errors
///
/// Reports I/O, JSON and format errors as strings (the caller maps them
/// onto HTTP or CLI diagnostics).
pub fn load(path: &Path) -> Result<Registry, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("snapshot `{}`: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("snapshot `{}`: {e}", path.display()))?;
    registry_from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::{AppBuilder, RequestRate, Sla, WorkloadVector};
    use erms_core::latency::LatencyProfile;
    use erms_core::resources::Resources;

    fn app() -> erms_core::app::App {
        let mut b = AppBuilder::new("t");
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

    #[test]
    fn snapshot_round_trips_and_preserves_next_plan_bits() {
        let mut registry = Registry::paper_pool();
        registry.create("a", app()).unwrap();
        registry
            .with_tenant("a", |t| {
                t.workloads = WorkloadVector::uniform(&t.app, RequestRate::per_minute(30_000.0));
                t.replan();
                t.workloads = WorkloadVector::uniform(&t.app, RequestRate::per_minute(60_000.0));
            })
            .unwrap();

        let dir = std::env::temp_dir().join("erms-control-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("registry.json");
        let bytes = save(&registry, &path).unwrap();
        assert!(bytes > 0);
        let restored = load(&path).unwrap();

        // Continue both worlds identically: the next round must agree bit
        // for bit.
        let a = registry.with_tenant("a", |t| t.replan().clone()).unwrap();
        let b = restored.with_tenant("a", |t| t.replan().clone()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            registry.with_tenant("a", |t| t.plan().cloned()).unwrap(),
            restored.with_tenant("a", |t| t.plan().cloned()).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    /// A file written before the history was bounded loads with its newest
    /// `HISTORY_LIMIT` records.
    #[test]
    fn a_longer_history_on_file_loads_its_newest_records() {
        let mut registry = Registry::paper_pool();
        registry.create("a", app()).unwrap();
        let record = |round| DecisionRecord {
            round,
            scheme: "erms".into(),
            total_containers: 3,
            refitted: 0,
            actions: vec![],
            errors: vec![],
            degraded: false,
            skipped: false,
        };
        let written = HISTORY_LIMIT as u64 + 9;
        let long: Vec<Json> = (1..=written).map(|r| record_to_json(&record(r))).collect();
        let Json::Obj(mut members) = registry_to_json(&registry) else {
            panic!("a snapshot is an object");
        };
        let (_, Json::Arr(tenants)) = &mut members[2] else {
            panic!("the third member holds the tenants");
        };
        let Json::Obj(tenant) = &mut tenants[0] else {
            panic!("a tenant is an object");
        };
        let history = tenant.iter_mut().find(|(key, _)| key == "history").unwrap();
        history.1 = Json::Arr(long);
        let loaded = registry_from_json(&Json::Obj(members)).unwrap();
        let held = loaded.with_tenant("a", |t| t.history.clone()).unwrap();
        let first = written - HISTORY_LIMIT as u64 + 1;
        assert_eq!(held, (first..=written).map(record).collect::<VecDeque<_>>());
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let j = Json::parse("{\"version\":99,\"pool\":[],\"tenants\":[]}").unwrap();
        let err = registry_from_json(&j).unwrap_err();
        assert!(err.contains("unsupported version"), "{err}");
    }
}
