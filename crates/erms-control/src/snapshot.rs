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
//! Neither direction builds the document as a [`Json`] tree. [`save`]
//! writes the registry member by member into the file through the crate's
//! JSON writer, 64 KB at a time, so its heap does not grow with the
//! registry. [`load`] walks the file's text with the crate's parser: the
//! sample window, the largest member, becomes samples with no tree, and
//! every other member is decoded from its own subtree, one at a time, so
//! what a load holds beyond the text and the registry it builds is at most
//! one member's tree (the app's is the largest). The bytes are the ones the
//! tree form rendered, and the files accepted the ones it accepted; the
//! tree form is kept as the test oracle of both.
//!
//! Writes are atomic: the snapshot is written to `<path>.tmp` and renamed
//! over the target, so a crash mid-write never corrupts the previous
//! snapshot. The format carries an explicit version; loading rejects
//! unknown versions instead of guessing.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use erms_core::resilience::{ResilienceConfig, ResilientManager, HISTORY_LIMIT};
use erms_telemetry::online::OnlineProfiler;

use crate::codec::{
    app_from_json, cluster_from_json, host_from_json, manager_state_from_json, members,
    samples_from_text, workloads_from_json, write_app, write_cluster, write_host,
    write_manager_state, write_samples, write_workloads, DecodeError,
};
use crate::json::{Json, Parser, Writer};
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

/// Writes one tenant: the bytes of its tree form, member by member.
fn write_tenant(w: &mut Writer<'_>, t: &Tenant) {
    w.byte(b'{');
    w.key("id");
    w.string(&t.id);
    w.byte(b',');
    w.key("app");
    write_app(w, &t.app);
    w.byte(b',');
    w.key("samples");
    write_samples(w, t.profiler.samples());
    w.byte(b',');
    w.key("manager");
    write_manager_state(w, &t.manager.export_state());
    w.byte(b',');
    w.key("cluster");
    write_cluster(w, &t.cluster);
    w.byte(b',');
    w.key("workloads");
    write_workloads(w, &t.workloads);
    w.byte(b',');
    w.key("history");
    w.array(&t.history, |w, record| {
        w.json(&record_to_json(record));
        w.spill();
    });
    w.byte(b',');
    w.key("spans_ingested");
    w.number(t.spans_ingested as f64);
    w.byte(b',');
    w.key("samples_ingested");
    w.number(t.samples_ingested as f64);
    w.byte(b'}');
}

/// Writes the whole registry into `sink` (tenants in id order; the
/// control-plane metrics registry is derived state and deliberately not
/// carried) and returns the bytes written. Takes every tenant lock in id
/// order for a consistent cut — no tenant mutates between the first and
/// last tenant's serialisation.
///
/// # Errors
///
/// The sink's first error.
pub(crate) fn write_registry(registry: &Registry, sink: &mut dyn Write) -> io::Result<u64> {
    let mut w = Writer::to(sink);
    w.byte(b'{');
    w.key("version");
    w.number(SNAPSHOT_VERSION as f64);
    w.byte(b',');
    w.key("pool");
    w.array(registry.pool(), |w, host| {
        write_host(w, host);
        w.spill();
    });
    w.byte(b',');
    w.key("tenants");
    w.array(registry.lock_tenants().iter(), |w, t| write_tenant(w, t));
    w.byte(b'}');
    w.close()
}

/// Nesting of a tenant object: document → `tenants` → tenant.
const TENANT_DEPTH: usize = 2;

/// Decodes the `n`th tenant from the text at the parser.
fn tenant_from_text(p: &mut Parser<'_>, n: usize) -> Result<Tenant, DecodeError> {
    let subtree = |p: &mut Parser<'_>| p.value(TENANT_DEPTH + 1);
    let (mut app, mut samples, mut manager, mut cluster, mut workloads, mut history) =
        (None, None, None, None, None, None);
    let (mut id, mut spans_ingested, mut samples_ingested) = (None, None, None);
    members(p, TENANT_DEPTH, "expected an object", |p, key| {
        match key {
            "id" => id = Some(subtree(p)?),
            "app" => app = Some(app_from_json(&subtree(p)?)?),
            "samples" => samples = Some(samples_from_text(p)?),
            "manager" => manager = Some(manager_state_from_json(&subtree(p)?)?),
            "cluster" => cluster = Some(cluster_from_json(&subtree(p)?)?),
            "workloads" => workloads = Some(workloads_from_json(&subtree(p)?)?),
            "history" => history = Some(history_from_text(p)?),
            "spans_ingested" => spans_ingested = Some(subtree(p)?),
            "samples_ingested" => samples_ingested = Some(subtree(p)?),
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(|e| format!("tenant {n}: {e}"))?;
    let id = id
        .as_ref()
        .and_then(Json::as_str)
        .ok_or_else(|| format!("tenant {n}: missing string `id`"))?
        .to_string();
    let missing = |key: &str| format!("tenant `{id}`: missing `{key}`");
    let mut profiler = OnlineProfiler::new();
    profiler.restore_samples(samples.ok_or_else(|| missing("samples"))?);
    let mut restored = ResilientManager::new(ResilienceConfig::default());
    restored.restore_state(manager.ok_or_else(|| missing("manager"))?);
    let uint = |value: Option<Json>, key: &str| -> Result<u64, DecodeError> {
        value
            .as_ref()
            .and_then(Json::as_f64)
            .filter(|v| *v >= 0.0 && v.fract() == 0.0)
            .map(|v| v as u64)
            .ok_or_else(|| format!("tenant `{id}`: missing integer `{key}`"))
    };
    Ok(Tenant {
        app: app.ok_or_else(|| missing("app"))?,
        profiler,
        manager: restored,
        cluster: cluster.ok_or_else(|| missing("cluster"))?,
        workloads: workloads.ok_or_else(|| missing("workloads"))?,
        history: history.ok_or_else(|| missing("array `history`"))?,
        spans_ingested: uint(spans_ingested, "spans_ingested")?,
        samples_ingested: uint(samples_ingested, "samples_ingested")?,
        id,
    })
}

/// Decodes a tenant's history, one record's subtree at a time.
fn history_from_text(p: &mut Parser<'_>) -> Result<VecDeque<DecisionRecord>, DecodeError> {
    if !p.eat(b'[') {
        return Err("missing array `history`".into());
    }
    let mut history = VecDeque::new();
    p.sequence(b']', |p| {
        history.push_back(record_from_json(&p.value(TENANT_DEPTH + 2)?)?);
        // A file written before the history was bounded may hold more
        // records than a tenant keeps: every one is checked, the newest
        // are kept.
        if history.len() > HISTORY_LIMIT {
            history.pop_front();
        }
        Ok::<(), DecodeError>(())
    })?;
    Ok(history)
}

/// Decodes a snapshot from its text, rejecting unknown format versions. It
/// accepts exactly the documents `Json::parse` and the tree decoder accept,
/// and builds the same registry.
pub(crate) fn registry_from_text(text: &str) -> Result<Registry, DecodeError> {
    let p = &mut Parser::new(text);
    let (mut version, mut pool, mut tenants) = (false, None, None);
    p.skip_ws();
    members(p, 0, "snapshot: expected an object", |p, key| {
        match key {
            "version" => {
                let found = p.value(1)?.as_f64().ok_or("snapshot: missing `version`")?;
                if found != SNAPSHOT_VERSION as f64 {
                    return Err(format!(
                        "snapshot: unsupported version {found} \
                         (this build reads {SNAPSHOT_VERSION})"
                    ));
                }
                version = true;
            }
            "pool" => {
                if !p.eat(b'[') {
                    return Err("snapshot: missing array `pool`".into());
                }
                let hosts = pool.insert(Vec::new());
                p.sequence(b']', |p| {
                    hosts.push(host_from_json(&p.value(2)?, hosts.len())?);
                    Ok::<(), DecodeError>(())
                })?;
            }
            "tenants" => {
                if !p.eat(b'[') {
                    return Err("snapshot: missing array `tenants`".into());
                }
                let list = tenants.insert(Vec::new());
                p.sequence(b']', |p| {
                    list.push(tenant_from_text(p, list.len())?);
                    Ok::<(), DecodeError>(())
                })?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    p.finish()?;
    if !version {
        return Err("snapshot: missing `version`".into());
    }
    let mut registry = Registry::new(pool.ok_or("snapshot: missing array `pool`")?);
    for tenant in tenants.ok_or("snapshot: missing array `tenants`")? {
        registry.insert(tenant);
    }
    Ok(registry)
}

/// The snapshot text of `registry`: what [`save`] writes.
#[cfg(test)]
pub(crate) fn text(registry: &Registry) -> String {
    let mut bytes = Vec::new();
    write_registry(registry, &mut bytes).expect("a `Vec` takes every byte");
    String::from_utf8(bytes).expect("the writer emits UTF-8")
}

/// Writes the registry atomically (`<path>.tmp` + rename), streamed into
/// the file with no tree in between. Returns the snapshot size in bytes.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn save(registry: &Registry, path: &Path) -> io::Result<u64> {
    let tmp = path.with_extension("tmp");
    // The writer's 64 KB buffer is the file's: a `BufWriter` in front of
    // it would pass every spill straight through.
    let bytes = write_registry(registry, &mut File::create(&tmp)?)?;
    std::fs::rename(&tmp, path)?;
    Ok(bytes)
}

/// Loads a snapshot from disk, decoding it straight from the text.
///
/// # Errors
///
/// Reports I/O, JSON and format errors as strings (the caller maps them
/// onto HTTP or CLI diagnostics).
pub fn load(path: &Path) -> Result<Registry, String> {
    let at = |e: &dyn std::fmt::Display| format!("snapshot `{}`: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at(&e))?;
    registry_from_text(&text).map_err(|e| at(&e))
}

/// The tree form of the snapshot: the oracle the streamed writer and
/// reader are held to.
#[cfg(test)]
pub(crate) mod tree {
    use std::collections::VecDeque;

    use erms_core::provisioning::ClusterState;
    use erms_core::resilience::{ResilienceConfig, ResilientManager, HISTORY_LIMIT};
    use erms_telemetry::online::OnlineProfiler;

    use super::{record_from_json, record_to_json, SNAPSHOT_VERSION};
    use crate::codec::{
        app_from_json, app_to_json, cluster_from_json, cluster_to_json, host_from_json,
        host_to_json, manager_state_from_json, manager_state_to_json, samples_from_json,
        samples_to_json, workloads_from_json, workloads_to_json,
    };
    use crate::json::Json;
    use crate::tenant::{Registry, Tenant};

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
    pub(crate) fn registry_to_json(registry: &Registry) -> Json {
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
    pub(crate) fn registry_from_json(j: &Json) -> Result<Registry, String> {
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
            .enumerate()
            .map(|(i, h)| host_from_json(h, i))
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
}

#[cfg(test)]
mod tests {
    use super::tree::{registry_from_json, registry_to_json};
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
        let text = Json::Obj(members).render();
        let first = written - HISTORY_LIMIT as u64 + 1;
        let newest = (first..=written).map(record).collect::<VecDeque<_>>();
        for loaded in [
            registry_from_text(&text).unwrap(),
            registry_from_json(&Json::parse(&text).unwrap()).unwrap(),
        ] {
            let held = loaded.with_tenant("a", |t| t.history.clone()).unwrap();
            assert_eq!(held, newest);
        }
    }

    #[test]
    fn unknown_versions_are_rejected() {
        for text in [
            "{\"version\":99,\"pool\":[],\"tenants\":[]}",
            "{\"pool\":[],\"tenants\":[],\"version\":1.5}",
        ] {
            let err = registry_from_text(text).err().unwrap();
            assert!(err.contains("unsupported version"), "{err}");
            assert!(registry_from_json(&Json::parse(text).unwrap()).is_err());
        }
        let empty = "{\"version\":1e0,\"pool\":[],\"tenants\":[]}";
        assert!(registry_from_text(empty).unwrap().is_empty());
    }
}
