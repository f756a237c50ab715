//! Domain ↔ JSON codecs.
//!
//! Every number is written by the one number writer behind both
//! [`Json::render`] and the streamed writer, which emits the shortest
//! decimal that round-trips the exact `f64` bits, and read back by the one
//! parser — so a snapshot written and read back restores *bit-identical*
//! state (the foundation of the warm-restart equivalence test). The one
//! value JSON cannot carry is the infinite constant cut-off of
//! [`LatencyProfile::linear`]; it is encoded *structurally* as `null` and
//! decoded back to `f64::INFINITY`.
//!
//! Maps keyed by ids are encoded as arrays of pairs (ids are numbers and
//! JSON object keys must be strings); order follows the `BTreeMap`
//! iteration order, so encodings are canonical.
//!
//! Three kinds of codec live here. Tree codecs (`*_to_json`,
//! `*_from_json`) go through a [`Json`] value: request bodies, small
//! replies, the forms clients call, and a snapshot member's subtree on
//! load. Writers (`plan_text`, `write_*`) push the bytes the tree would
//! have rendered straight into the crate's JSON writer: the plan the daemon
//! serves and every member of a snapshot. Streamed readers
//! (`span_batch_from_text`, `samples_from_text`) build domain values
//! straight from the text: span bodies and a snapshot's sample window. Where
//! a writer or reader replaced a tree codec, the tree form is kept only as
//! its test oracle.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use erms_core::app::{App, AppBuilder, Microservice, RequestRate, Service, Sla, WorkloadVector};
use erms_core::autoscaler::ScalingPlan;
use erms_core::graph::{DependencyGraph, Node};
use erms_core::ids::{MicroserviceId, NodeId, ServiceId};
use erms_core::latency::{CutoffModel, CutoffNode, CutoffTree, Interval, LatencyProfile, Segment};
use erms_core::provisioning::{ClusterState, FailureDomain, Host, HostLifecycle};
use erms_core::resilience::ManagerState;
use erms_core::resources::Resources;
use erms_core::scaling::ServicePlan;
use erms_profilers::dataset::Sample;
use erms_sim::telemetry::SpanRecord;
use erms_telemetry::online::WindowConfig;

use crate::json::{exact_u32, Json, JsonError, Parser, Writer};

/// A decode failure: what was wrong, with a rough path for diagnostics.
pub(crate) type DecodeError = String;

/// Text that is not JSON fails a streamed decode with the parser's message.
impl From<JsonError> for DecodeError {
    fn from(e: JsonError) -> Self {
        format!("invalid JSON: {e}")
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn uint(v: u64) -> Json {
    // u64 values here are round counters and container counts, all far
    // below 2^53, so the f64 carriage is exact.
    Json::Num(v as f64)
}

fn get_f64(j: &Json, key: &str, ctx: &str) -> Result<f64, DecodeError> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: missing or non-numeric field `{key}`"))
}

fn get_u64(j: &Json, key: &str, ctx: &str) -> Result<u64, DecodeError> {
    let v = get_f64(j, key, ctx)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!(
            "{ctx}: field `{key}` must be a non-negative integer"
        ));
    }
    Ok(v as u64)
}

fn get_u32(j: &Json, key: &str, ctx: &str) -> Result<u32, DecodeError> {
    u32::try_from(get_u64(j, key, ctx)?).map_err(|_| format!("{ctx}: field `{key}` out of range"))
}

fn get_str<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a str, DecodeError> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing or non-string field `{key}`"))
}

fn get_arr<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], DecodeError> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: missing or non-array field `{key}`"))
}

fn pair<'a>(j: &'a Json, ctx: &str) -> Result<(&'a Json, &'a Json), DecodeError> {
    match j.as_arr() {
        Some([a, b]) => Ok((a, b)),
        _ => Err(format!("{ctx}: expected a two-element pair")),
    }
}

fn id_from(j: &Json, ctx: &str) -> Result<u32, DecodeError> {
    let v = j
        .as_f64()
        .ok_or_else(|| format!("{ctx}: expected a numeric id"))?;
    u32_from(v, ctx)
}

/// A wire number that has to be a `u32`: refused, never clamped, when it
/// is negative, fractional or too large.
fn u32_from(v: f64, ctx: &str) -> Result<u32, DecodeError> {
    u32_field(exact_u32(v), ctx)
}

/// An integer field as [`Parser::rows`] reads it: the `u32` it is, or the
/// error [`u32_from`] gives any other number.
#[inline(always)]
fn u32_field(v: Option<u32>, ctx: &str) -> Result<u32, DecodeError> {
    v.ok_or_else(|| format!("{ctx}: must be a non-negative integer below 2^32"))
}

// ---------------------------------------------------------------- profiles

/// Encodes one linear segment.
pub(crate) fn segment_to_json(s: &Segment) -> Json {
    Json::obj(vec![
        ("alpha", num(s.alpha)),
        ("beta", num(s.beta)),
        ("c", num(s.c)),
        ("b", num(s.b)),
    ])
}

/// Decodes one linear segment.
pub(crate) fn segment_from_json(j: &Json) -> Result<Segment, DecodeError> {
    Ok(Segment::new(
        get_f64(j, "alpha", "segment")?,
        get_f64(j, "beta", "segment")?,
        get_f64(j, "c", "segment")?,
        get_f64(j, "b", "segment")?,
    ))
}

/// Encodes a cut-off model. The infinite constant cut-off (single-interval
/// profiles) becomes `{"kind":"constant","value":null}`.
pub(crate) fn cutoff_to_json(c: &CutoffModel) -> Json {
    match c {
        CutoffModel::Constant(v) => Json::obj(vec![
            ("kind", Json::str("constant")),
            ("value", if v.is_finite() { num(*v) } else { Json::Null }),
        ]),
        CutoffModel::Affine {
            base,
            k_cpu,
            k_mem,
            min,
        } => Json::obj(vec![
            ("kind", Json::str("affine")),
            ("base", num(*base)),
            ("k_cpu", num(*k_cpu)),
            ("k_mem", num(*k_mem)),
            ("min", num(*min)),
        ]),
        CutoffModel::Tree(tree) => {
            let nodes = tree
                .nodes
                .iter()
                .map(|n| match n {
                    CutoffNode::Leaf(v) => Json::obj(vec![("leaf", num(*v))]),
                    CutoffNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => Json::obj(vec![
                        ("feature", uint(u64::from(*feature))),
                        ("threshold", num(*threshold)),
                        ("left", uint(u64::from(*left))),
                        ("right", uint(u64::from(*right))),
                    ]),
                })
                .collect();
            Json::obj(vec![
                ("kind", Json::str("tree")),
                ("nodes", Json::Arr(nodes)),
            ])
        }
    }
}

/// Decodes a cut-off model.
pub(crate) fn cutoff_from_json(j: &Json) -> Result<CutoffModel, DecodeError> {
    match get_str(j, "kind", "cutoff")? {
        "constant" => {
            let value = j
                .get("value")
                .ok_or_else(|| "cutoff: missing field `value`".to_string())?;
            if value.is_null() {
                Ok(CutoffModel::Constant(f64::INFINITY))
            } else {
                value
                    .as_f64()
                    .map(CutoffModel::Constant)
                    .ok_or_else(|| "cutoff: `value` must be a number or null".into())
            }
        }
        "affine" => Ok(CutoffModel::Affine {
            base: get_f64(j, "base", "cutoff")?,
            k_cpu: get_f64(j, "k_cpu", "cutoff")?,
            k_mem: get_f64(j, "k_mem", "cutoff")?,
            min: get_f64(j, "min", "cutoff")?,
        }),
        "tree" => {
            let nodes = get_arr(j, "nodes", "cutoff")?
                .iter()
                .map(|n| {
                    if let Some(v) = n.get("leaf").and_then(Json::as_f64) {
                        Ok(CutoffNode::Leaf(v))
                    } else {
                        Ok(CutoffNode::Split {
                            feature: u8::try_from(get_u64(n, "feature", "cutoff node")?)
                                .map_err(|_| "cutoff node: `feature` out of range".to_string())?,
                            threshold: get_f64(n, "threshold", "cutoff node")?,
                            left: get_u32(n, "left", "cutoff node")?,
                            right: get_u32(n, "right", "cutoff node")?,
                        })
                    }
                })
                .collect::<Result<Vec<_>, DecodeError>>()?;
            Ok(CutoffModel::Tree(CutoffTree { nodes }))
        }
        other => Err(format!("cutoff: unknown kind `{other}`")),
    }
}

/// Encodes a latency profile.
pub(crate) fn profile_to_json(p: &LatencyProfile) -> Json {
    Json::obj(vec![
        ("low", segment_to_json(&p.low)),
        ("high", segment_to_json(&p.high)),
        ("cutoff", cutoff_to_json(&p.cutoff)),
    ])
}

/// Decodes a latency profile.
pub(crate) fn profile_from_json(j: &Json) -> Result<LatencyProfile, DecodeError> {
    let low = segment_from_json(
        j.get("low")
            .ok_or_else(|| "profile: missing field `low`".to_string())?,
    )?;
    let high = segment_from_json(
        j.get("high")
            .ok_or_else(|| "profile: missing field `high`".to_string())?,
    )?;
    let cutoff = cutoff_from_json(
        j.get("cutoff")
            .ok_or_else(|| "profile: missing field `cutoff`".to_string())?,
    )?;
    Ok(LatencyProfile::new(low, high, cutoff))
}

// ---------------------------------------------------------------- app

fn graph_to_json(g: &DependencyGraph) -> Json {
    let nodes = g
        .iter()
        .map(|(_, n)| {
            let stages = n
                .stages
                .iter()
                .map(|stage| Json::Arr(stage.iter().map(|id| uint(id.index() as u64)).collect()))
                .collect();
            Json::obj(vec![
                ("microservice", uint(n.microservice.index() as u64)),
                ("multiplicity", num(n.multiplicity)),
                ("stages", Json::Arr(stages)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("root", uint(g.root().index() as u64)),
        ("nodes", Json::Arr(nodes)),
    ])
}

fn graph_from_json(j: &Json) -> Result<DependencyGraph, DecodeError> {
    let root = NodeId::new(get_u32(j, "root", "graph")?);
    let nodes = get_arr(j, "nodes", "graph")?
        .iter()
        .map(|n| {
            let stages = get_arr(n, "stages", "graph node")?
                .iter()
                .map(|stage| {
                    stage
                        .as_arr()
                        .ok_or_else(|| "graph node: stage must be an array".to_string())?
                        .iter()
                        .map(|id| Ok(NodeId::new(id_from(id, "graph node child")?)))
                        .collect::<Result<Vec<_>, DecodeError>>()
                })
                .collect::<Result<Vec<_>, DecodeError>>()?;
            Ok(Node {
                microservice: MicroserviceId::new(get_u32(n, "microservice", "graph node")?),
                multiplicity: get_f64(n, "multiplicity", "graph node")?,
                stages,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    DependencyGraph::from_parts(nodes, root).map_err(|e| format!("graph: {e}"))
}

/// Encodes a full application model (microservices with profiles, services
/// with SLAs and dependency graphs).
pub fn app_to_json(app: &App) -> Json {
    let microservices = app
        .microservices()
        .map(|(_, m): (_, &Microservice)| {
            Json::obj(vec![
                ("name", Json::str(&m.name)),
                ("profile", profile_to_json(&m.profile)),
                (
                    "resources",
                    Json::obj(vec![
                        ("cpu", num(m.resources.cpu)),
                        ("memory_mb", num(m.resources.memory_mb)),
                    ]),
                ),
            ])
        })
        .collect();
    let services = app
        .services()
        .map(|(_, s): (_, &Service)| {
            Json::obj(vec![
                ("name", Json::str(&s.name)),
                (
                    "sla",
                    Json::obj(vec![
                        ("percentile", num(s.sla.percentile)),
                        ("threshold_ms", num(s.sla.threshold_ms)),
                    ]),
                ),
                ("graph", graph_to_json(&s.graph)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("name", Json::str(app.name())),
        ("microservices", Json::Arr(microservices)),
        ("services", Json::Arr(services)),
    ])
}

/// Decodes an application model. Microservice and service ids are assigned
/// densely in array order, so an encode→decode round trip preserves every
/// id (and therefore every plan and snapshot that references them).
pub fn app_from_json(j: &Json) -> Result<App, DecodeError> {
    let name = get_str(j, "name", "app")?;
    let mut b = AppBuilder::new(name);
    for (i, m) in get_arr(j, "microservices", "app")?.iter().enumerate() {
        let ctx = format!("app microservice[{i}]");
        let ms_name = get_str(m, "name", &ctx)?;
        let profile = profile_from_json(
            m.get("profile")
                .ok_or_else(|| format!("{ctx}: missing field `profile`"))?,
        )?;
        let res = m
            .get("resources")
            .ok_or_else(|| format!("{ctx}: missing field `resources`"))?;
        let resources_cpu = get_f64(res, "cpu", &ctx)?;
        let resources_mem = get_f64(res, "memory_mb", &ctx)?;
        if !(resources_cpu.is_finite()
            && resources_cpu >= 0.0
            && resources_mem.is_finite()
            && resources_mem >= 0.0)
        {
            return Err(format!("{ctx}: resources must be finite and non-negative"));
        }
        b.microservice(
            ms_name,
            profile,
            Resources::new(resources_cpu, resources_mem),
        );
    }
    for (i, s) in get_arr(j, "services", "app")?.iter().enumerate() {
        let ctx = format!("app service[{i}]");
        let svc_name = get_str(s, "name", &ctx)?;
        let sla = s
            .get("sla")
            .ok_or_else(|| format!("{ctx}: missing field `sla`"))?;
        let sla = Sla {
            percentile: get_f64(sla, "percentile", &ctx)?,
            threshold_ms: get_f64(sla, "threshold_ms", &ctx)?,
        };
        let graph = graph_from_json(
            s.get("graph")
                .ok_or_else(|| format!("{ctx}: missing field `graph`"))?,
        )?;
        b.raw_service(svc_name, sla, graph);
    }
    b.build().map_err(|e| format!("app: {e}"))
}

/// Writes `app_to_json(app)`'s bytes with no app-sized tree in between —
/// each microservice's profile and each service's graph is a small tree,
/// rendered and dropped before the next spill: the snapshot's app writer,
/// held to `app_to_json` by a property test as [`plan_text`] is held to
/// `plan_to_json`.
pub(crate) fn write_app(w: &mut Writer<'_>, app: &App) {
    w.byte(b'{');
    w.key("name");
    w.string(app.name());
    w.byte(b',');
    w.key("microservices");
    w.array(app.microservices(), |w, (_, m)| {
        w.byte(b'{');
        w.key("name");
        w.string(&m.name);
        w.byte(b',');
        w.key("profile");
        w.json(&profile_to_json(&m.profile));
        w.byte(b',');
        w.key("resources");
        w.byte(b'{');
        w.key("cpu");
        w.number(m.resources.cpu);
        w.byte(b',');
        w.key("memory_mb");
        w.number(m.resources.memory_mb);
        w.byte(b'}');
        w.byte(b'}');
        w.spill();
    });
    w.byte(b',');
    w.key("services");
    w.array(app.services(), |w, (_, s)| {
        w.byte(b'{');
        w.key("name");
        w.string(&s.name);
        w.byte(b',');
        w.key("sla");
        w.byte(b'{');
        w.key("percentile");
        w.number(s.sla.percentile);
        w.byte(b',');
        w.key("threshold_ms");
        w.number(s.sla.threshold_ms);
        w.byte(b'}');
        w.byte(b',');
        w.key("graph");
        w.json(&graph_to_json(&s.graph));
        w.byte(b'}');
        w.spill();
    });
    w.byte(b'}');
}

// ---------------------------------------------------------------- workloads

/// Writes per-service request rates as `[[service, per_minute], ...]`.
pub(crate) fn write_workloads(w: &mut Writer<'_>, workloads: &WorkloadVector) {
    w.array(workloads.iter(), |w, (svc, rate)| {
        w.byte(b'[');
        w.number(svc.index() as f64);
        w.byte(b',');
        w.number(rate.as_per_minute());
        w.byte(b']');
    });
}

/// The tree form of [`write_workloads`], its oracle.
#[cfg(test)]
pub(crate) fn workloads_to_json(w: &WorkloadVector) -> Json {
    Json::Arr(
        w.iter()
            .map(|(svc, rate)| Json::Arr(vec![uint(svc.index() as u64), num(rate.as_per_minute())]))
            .collect(),
    )
}

/// Decodes per-service request rates. A service named twice is refused:
/// which of its rates was meant cannot be told from the body.
pub fn workloads_from_json(j: &Json) -> Result<WorkloadVector, DecodeError> {
    let arr = j
        .as_arr()
        .ok_or_else(|| "workloads: expected an array of pairs".to_string())?;
    let mut entries = BTreeMap::new();
    for item in arr {
        let (svc, rate) = pair(item, "workloads")?;
        let rate = rate
            .as_f64()
            .ok_or_else(|| "workloads: rate must be a number".to_string())?;
        if rate < 0.0 {
            return Err("workloads: rate must be non-negative".into());
        }
        let service = ServiceId::new(id_from(svc, "workloads service")?);
        if entries
            .insert(service, RequestRate::per_minute(rate))
            .is_some()
        {
            return Err(format!(
                "workloads: service {} is named twice",
                service.index()
            ));
        }
    }
    Ok(entries.into_iter().collect())
}

// ---------------------------------------------------------------- plans

fn interval_name(i: Interval) -> &'static str {
    match i {
        Interval::Low => "low",
        Interval::High => "high",
    }
}

fn interval_to_json(i: Interval) -> Json {
    Json::str(interval_name(i))
}

fn interval_from_json(j: &Json) -> Result<Interval, DecodeError> {
    match j.as_str() {
        Some("low") => Ok(Interval::Low),
        Some("high") => Ok(Interval::High),
        _ => Err("interval: expected \"low\" or \"high\"".into()),
    }
}

fn ms_f64_map_to_json(map: &BTreeMap<MicroserviceId, f64>) -> Json {
    Json::Arr(
        map.iter()
            .map(|(&ms, &v)| Json::Arr(vec![uint(ms.index() as u64), num(v)]))
            .collect(),
    )
}

fn ms_f64_map_from_json(j: &Json, ctx: &str) -> Result<BTreeMap<MicroserviceId, f64>, DecodeError> {
    let mut out = BTreeMap::new();
    for item in j
        .as_arr()
        .ok_or_else(|| format!("{ctx}: expected an array of pairs"))?
    {
        let (ms, v) = pair(item, ctx)?;
        let v = v
            .as_f64()
            .ok_or_else(|| format!("{ctx}: value must be a number"))?;
        out.insert(MicroserviceId::new(id_from(ms, ctx)?), v);
    }
    Ok(out)
}

fn service_plan_to_json(p: &ServicePlan) -> Json {
    Json::obj(vec![
        ("service", uint(p.service.index() as u64)),
        (
            "node_targets_ms",
            Json::Arr(p.node_targets_ms.iter().map(|&v| num(v)).collect()),
        ),
        ("ms_targets_ms", ms_f64_map_to_json(&p.ms_targets_ms)),
        ("ms_containers", ms_f64_map_to_json(&p.ms_containers)),
        (
            "ms_intervals",
            Json::Arr(
                p.ms_intervals
                    .iter()
                    .map(|(&ms, &i)| Json::Arr(vec![uint(ms.index() as u64), interval_to_json(i)]))
                    .collect(),
            ),
        ),
    ])
}

fn service_plan_from_json(j: &Json) -> Result<ServicePlan, DecodeError> {
    let ctx = "service plan";
    let node_targets_ms = get_arr(j, "node_targets_ms", ctx)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("{ctx}: node target must be a number"))
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let mut ms_intervals = BTreeMap::new();
    for item in get_arr(j, "ms_intervals", ctx)? {
        let (ms, i) = pair(item, ctx)?;
        ms_intervals.insert(
            MicroserviceId::new(id_from(ms, ctx)?),
            interval_from_json(i)?,
        );
    }
    Ok(ServicePlan {
        service: ServiceId::new(get_u32(j, "service", ctx)?),
        node_targets_ms,
        ms_targets_ms: ms_f64_map_from_json(
            j.get("ms_targets_ms")
                .ok_or_else(|| format!("{ctx}: missing `ms_targets_ms`"))?,
            ctx,
        )?,
        ms_containers: ms_f64_map_from_json(
            j.get("ms_containers")
                .ok_or_else(|| format!("{ctx}: missing `ms_containers`"))?,
            ctx,
        )?,
        ms_intervals,
    })
}

/// Encodes a scaling plan: container counts, priority orders and the
/// per-service latency-target plans that backed the decision.
pub fn plan_to_json(plan: &ScalingPlan) -> Json {
    let containers = plan
        .iter()
        .map(|(ms, c)| Json::Arr(vec![uint(ms.index() as u64), uint(u64::from(c))]))
        .collect();
    let priorities = plan
        .microservices()
        .filter_map(|ms| {
            plan.priority_order(ms).map(|order| {
                Json::Arr(vec![
                    uint(ms.index() as u64),
                    Json::Arr(order.iter().map(|s| uint(s.index() as u64)).collect()),
                ])
            })
        })
        .collect();
    let service_plans = plan.service_plans().map(service_plan_to_json).collect();
    Json::obj(vec![
        ("scheme", Json::str(&plan.scheme)),
        ("containers", Json::Arr(containers)),
        ("priorities", Json::Arr(priorities)),
        ("service_plans", Json::Arr(service_plans)),
    ])
}

/// The text of `plan_to_json(plan).render()`, written straight from the
/// plan: the same members in the same order through the same number and
/// string writers, with no tree built and dropped on the way. The daemon
/// serves a plan from this text; `plan_to_json` is the oracle it is held to.
///
/// # Panics
///
/// Panics on a non-finite number in the plan, as `render` does.
pub(crate) fn plan_text(plan: &ScalingPlan) -> String {
    let mut w = Writer::new();
    write_plan(&mut w, plan);
    w.finish()
}

/// Writes `plan_to_json(plan)`'s bytes: [`plan_text`] into a writer of the
/// caller's.
pub(crate) fn write_plan(w: &mut Writer<'_>, plan: &ScalingPlan) {
    w.byte(b'{');
    w.key("scheme");
    w.string(&plan.scheme);
    w.byte(b',');
    w.key("containers");
    w.array(plan.iter(), |w, (ms, count)| {
        w.byte(b'[');
        w.number(ms.index() as f64);
        w.byte(b',');
        w.number(f64::from(count));
        w.byte(b']');
    });
    w.byte(b',');
    w.key("priorities");
    let priorities = plan
        .microservices()
        .filter_map(|ms| plan.priority_order(ms).map(|order| (ms, order)));
    w.array(priorities, |w, (ms, order)| {
        w.byte(b'[');
        w.number(ms.index() as f64);
        w.byte(b',');
        w.array(order, |w, s| w.number(s.index() as f64));
        w.byte(b']');
    });
    w.byte(b',');
    w.key("service_plans");
    w.array(plan.service_plans(), write_service_plan);
    w.byte(b'}');
}

/// `service_plan_to_json(p)`'s bytes, for [`plan_text`].
fn write_service_plan(w: &mut Writer, p: &ServicePlan) {
    let ms_f64_map = |w: &mut Writer, map: &BTreeMap<MicroserviceId, f64>| {
        w.array(map, |w, (ms, &v)| {
            w.byte(b'[');
            w.number(ms.index() as f64);
            w.byte(b',');
            w.number(v);
            w.byte(b']');
        });
    };
    w.byte(b'{');
    w.key("service");
    w.number(p.service.index() as f64);
    w.byte(b',');
    w.key("node_targets_ms");
    w.array(&p.node_targets_ms, |w, &v| w.number(v));
    w.byte(b',');
    w.key("ms_targets_ms");
    ms_f64_map(w, &p.ms_targets_ms);
    w.byte(b',');
    w.key("ms_containers");
    ms_f64_map(w, &p.ms_containers);
    w.byte(b',');
    w.key("ms_intervals");
    w.array(&p.ms_intervals, |w, (ms, &interval)| {
        w.byte(b'[');
        w.number(ms.index() as f64);
        w.byte(b',');
        w.string(interval_name(interval));
        w.byte(b']');
    });
    w.byte(b'}');
}

/// Decodes a scaling plan.
pub fn plan_from_json(j: &Json) -> Result<ScalingPlan, DecodeError> {
    let mut plan = ScalingPlan::new(get_str(j, "scheme", "plan")?);
    for item in get_arr(j, "containers", "plan")? {
        let (ms, c) = pair(item, "plan containers")?;
        let count = c
            .as_f64()
            .filter(|v| *v >= 0.0 && v.fract() == 0.0 && *v <= f64::from(u32::MAX))
            .ok_or_else(|| "plan containers: count must be a non-negative integer".to_string())?;
        plan.set_containers(
            MicroserviceId::new(id_from(ms, "plan containers")?),
            count as u32,
        );
    }
    for item in get_arr(j, "priorities", "plan")? {
        let (ms, order) = pair(item, "plan priorities")?;
        let order = order
            .as_arr()
            .ok_or_else(|| "plan priorities: order must be an array".to_string())?
            .iter()
            .map(|s| Ok(ServiceId::new(id_from(s, "plan priorities")?)))
            .collect::<Result<Vec<_>, DecodeError>>()?;
        plan.set_priority_order(MicroserviceId::new(id_from(ms, "plan priorities")?), order);
    }
    for item in get_arr(j, "service_plans", "plan")? {
        plan.set_service_plan(service_plan_from_json(item)?);
    }
    Ok(plan)
}

// ---------------------------------------------------------------- manager

/// Writes the resilient manager's exported hysteresis state, its plans
/// through [`write_plan`], each into a drained buffer.
pub(crate) fn write_manager_state(w: &mut Writer<'_>, state: &ManagerState) {
    w.byte(b'{');
    w.key("round");
    w.number(state.round as f64);
    w.byte(b',');
    w.key("last_applied");
    match &state.last_applied {
        Some(plan) => {
            w.drain();
            write_plan(w, plan);
        }
        None => w.json(&Json::Null),
    }
    w.byte(b',');
    w.key("last_good");
    match &state.last_good {
        Some((plan, round)) => {
            w.byte(b'{');
            w.key("plan");
            w.drain();
            write_plan(w, plan);
            w.byte(b',');
            w.key("round");
            w.number(*round as f64);
            w.byte(b'}');
        }
        None => w.json(&Json::Null),
    }
    w.byte(b',');
    w.key("directions");
    w.array(&state.directions, |w, (ms, &(dir, round))| {
        w.byte(b'[');
        w.number(ms.index() as f64);
        w.byte(b',');
        w.number(f64::from(dir));
        w.byte(b',');
        w.number(round as f64);
        w.byte(b']');
    });
    w.byte(b'}');
}

/// The tree form of [`write_manager_state`], its oracle.
#[cfg(test)]
pub(crate) fn manager_state_to_json(state: &ManagerState) -> Json {
    let last_applied = state
        .last_applied
        .as_ref()
        .map_or(Json::Null, |plan| plan_to_json(plan));
    let last_good = state
        .last_good
        .as_ref()
        .map_or(Json::Null, |(plan, round)| {
            Json::obj(vec![("plan", plan_to_json(plan)), ("round", uint(*round))])
        });
    let directions = state
        .directions
        .iter()
        .map(|(&ms, &(dir, round))| {
            Json::Arr(vec![
                uint(ms.index() as u64),
                num(f64::from(dir)),
                uint(round),
            ])
        })
        .collect();
    Json::obj(vec![
        ("round", uint(state.round)),
        ("last_applied", last_applied),
        ("last_good", last_good),
        ("directions", Json::Arr(directions)),
    ])
}

/// Decodes the resilient manager's hysteresis state. The snapshot loader
/// hands it the `manager` member's subtree alone.
pub(crate) fn manager_state_from_json(j: &Json) -> Result<ManagerState, DecodeError> {
    let last_applied = match j.get("last_applied") {
        Some(Json::Null) | None => None,
        Some(p) => Some(Arc::new(plan_from_json(p)?)),
    };
    let last_good = match j.get("last_good") {
        Some(Json::Null) | None => None,
        Some(entry) => Some((
            Arc::new(plan_from_json(entry.get("plan").ok_or_else(|| {
                "manager state: `last_good` missing `plan`".to_string()
            })?)?),
            get_u64(entry, "round", "manager state last_good")?,
        )),
    };
    let mut directions = BTreeMap::new();
    for item in get_arr(j, "directions", "manager state")? {
        let triple = item
            .as_arr()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| "manager state: direction must be [ms, dir, round]".to_string())?;
        let ms = MicroserviceId::new(id_from(&triple[0], "manager state direction")?);
        let dir = triple[1]
            .as_f64()
            .filter(|v| *v == 1.0 || *v == -1.0)
            .ok_or_else(|| "manager state: direction must be ±1".to_string())?
            as i8;
        let round = triple[2]
            .as_f64()
            .filter(|v| *v >= 0.0 && v.fract() == 0.0)
            .ok_or_else(|| "manager state: direction round must be an integer".to_string())?
            as u64;
        directions.insert(ms, (dir, round));
    }
    Ok(ManagerState {
        round: get_u64(j, "round", "manager state")?,
        last_applied,
        last_good,
        directions,
    })
}

// ---------------------------------------------------------------- cluster

/// Writes `[[ms, value], ...]`.
fn write_ms_pairs<T>(w: &mut Writer<'_>, pairs: impl Iterator<Item = (MicroserviceId, T)>)
where
    f64: From<T>,
{
    w.array(pairs, |w, (ms, v)| {
        w.byte(b'[');
        w.number(ms.index() as f64);
        w.byte(b',');
        w.number(f64::from(v));
        w.byte(b']');
    });
}

fn ms_pairs_to_json<I: Iterator<Item = (MicroserviceId, u32)>>(iter: I) -> Json {
    Json::Arr(
        iter.map(|(ms, c)| Json::Arr(vec![uint(ms.index() as u64), uint(u64::from(c))]))
            .collect(),
    )
}

fn ms_pairs_from_json(j: &Json, ctx: &str) -> Result<Vec<(MicroserviceId, u32)>, DecodeError> {
    j.as_arr()
        .ok_or_else(|| format!("{ctx}: expected an array of pairs"))?
        .iter()
        .map(|item| {
            let (ms, c) = pair(item, ctx)?;
            let count = c
                .as_f64()
                .filter(|v| *v >= 0.0 && v.fract() == 0.0 && *v <= f64::from(u32::MAX))
                .ok_or_else(|| format!("{ctx}: count must be a non-negative integer"))?;
            Ok((MicroserviceId::new(id_from(ms, ctx)?), count as u32))
        })
        .collect()
}

#[cfg(test)]
fn resize_pairs_to_json<I: Iterator<Item = (MicroserviceId, f64)>>(iter: I) -> Json {
    Json::Arr(
        iter.map(|(ms, f)| Json::Arr(vec![uint(ms.index() as u64), num(f)]))
            .collect(),
    )
}

fn resize_pairs_from_json(j: &Json, ctx: &str) -> Result<Vec<(MicroserviceId, f64)>, DecodeError> {
    j.as_arr()
        .ok_or_else(|| format!("{ctx}: expected an array of pairs"))?
        .iter()
        .map(|item| {
            let (ms, f) = pair(item, ctx)?;
            let factor = f
                .as_f64()
                .ok_or_else(|| format!("{ctx}: factor must be a number"))?;
            Ok((MicroserviceId::new(id_from(ms, ctx)?), factor))
        })
        .collect()
}

/// Writes one host, including its placements and vertical-scaling bits.
pub(crate) fn write_host(w: &mut Writer<'_>, h: &Host) {
    w.byte(b'{');
    for (key, v) in [
        ("cpu_capacity", h.cpu_capacity),
        ("mem_capacity", h.mem_capacity),
        ("background_cpu", h.background_cpu),
        ("background_mem", h.background_mem),
    ] {
        w.key(key);
        w.number(v);
        w.byte(b',');
    }
    w.key("lifecycle");
    w.string(match h.lifecycle {
        HostLifecycle::OnDemand => "on_demand",
        HostLifecycle::Spot => "spot",
    });
    w.byte(b',');
    w.key("domain");
    w.byte(b'{');
    w.key("zone");
    w.number(f64::from(h.domain.zone));
    w.byte(b',');
    w.key("rack");
    w.number(f64::from(h.domain.rack));
    w.byte(b'}');
    w.byte(b',');
    w.key("interference_scale");
    w.number(h.interference_scale);
    w.byte(b',');
    w.key("reclaim_at_round");
    match h.reclaim_at_round {
        Some(round) => w.number(round as f64),
        None => w.json(&Json::Null),
    }
    w.byte(b',');
    w.key("placements");
    write_ms_pairs(w, h.placements());
    w.byte(b',');
    w.key("resize_factors");
    write_ms_pairs(w, h.resize_factors());
    w.byte(b'}');
}

/// The tree form of [`write_host`], its oracle.
#[cfg(test)]
pub(crate) fn host_to_json(h: &Host) -> Json {
    Json::obj(vec![
        ("cpu_capacity", num(h.cpu_capacity)),
        ("mem_capacity", num(h.mem_capacity)),
        ("background_cpu", num(h.background_cpu)),
        ("background_mem", num(h.background_mem)),
        (
            "lifecycle",
            Json::str(match h.lifecycle {
                HostLifecycle::OnDemand => "on_demand",
                HostLifecycle::Spot => "spot",
            }),
        ),
        (
            "domain",
            Json::obj(vec![
                ("zone", uint(u64::from(h.domain.zone))),
                ("rack", uint(u64::from(h.domain.rack))),
            ]),
        ),
        ("interference_scale", num(h.interference_scale)),
        (
            "reclaim_at_round",
            h.reclaim_at_round.map_or(Json::Null, uint),
        ),
        ("placements", ms_pairs_to_json(h.placements())),
        ("resize_factors", resize_pairs_to_json(h.resize_factors())),
    ])
}

/// Decodes the host at position `index` of its list, refusing one whose
/// placements add up to more containers than a host counts (`u32`).
pub(crate) fn host_from_json(j: &Json, index: usize) -> Result<Host, DecodeError> {
    let ctx = &format!("host {index}");
    let mut host = Host::new(
        get_f64(j, "cpu_capacity", ctx)?,
        get_f64(j, "mem_capacity", ctx)?,
    );
    host.background_cpu = get_f64(j, "background_cpu", ctx)?;
    host.background_mem = get_f64(j, "background_mem", ctx)?;
    host.lifecycle = match get_str(j, "lifecycle", ctx)? {
        "on_demand" => HostLifecycle::OnDemand,
        "spot" => HostLifecycle::Spot,
        other => return Err(format!("{ctx}: unknown lifecycle `{other}`")),
    };
    let domain = j
        .get("domain")
        .ok_or_else(|| format!("{ctx}: missing field `domain`"))?;
    host.domain = FailureDomain::new(get_u32(domain, "zone", ctx)?, get_u32(domain, "rack", ctx)?);
    host.interference_scale = get_f64(j, "interference_scale", ctx)?;
    host.reclaim_at_round = match j.get("reclaim_at_round") {
        Some(Json::Null) | None => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .ok_or_else(|| format!("{ctx}: `reclaim_at_round` must be an integer or null"))?
                as u64,
        ),
    };
    let placements = ms_pairs_from_json(
        j.get("placements")
            .ok_or_else(|| format!("{ctx}: missing field `placements`"))?,
        "host placements",
    )?;
    let resize = resize_pairs_from_json(
        j.get("resize_factors")
            .ok_or_else(|| format!("{ctx}: missing field `resize_factors`"))?,
        "host resize factors",
    )?;
    host.restore_placements(placements, resize);
    let total: u64 = host.placements().map(|(_, n)| u64::from(n)).sum();
    if total > u64::from(u32::MAX) {
        return Err(format!(
            "{ctx}: {total} containers placed, more than a host holds ({})",
            u32::MAX
        ));
    }
    Ok(host)
}

/// Writes the full cluster state: every host with its placements and
/// vertical-scaling factors, plus the cluster-level resize map.
pub(crate) fn write_cluster(w: &mut Writer<'_>, state: &ClusterState) {
    w.byte(b'{');
    w.key("hosts");
    w.array(state.hosts(), |w, host| {
        write_host(w, host);
        w.spill();
    });
    w.byte(b',');
    w.key("resize_factors");
    write_ms_pairs(w, state.resize_factors());
    w.byte(b'}');
}

/// The tree form of [`write_cluster`], its oracle.
#[cfg(test)]
pub(crate) fn cluster_to_json(state: &ClusterState) -> Json {
    Json::obj(vec![
        (
            "hosts",
            Json::Arr(state.hosts().iter().map(host_to_json).collect()),
        ),
        (
            "resize_factors",
            resize_pairs_to_json(state.resize_factors()),
        ),
    ])
}

/// Decodes cluster state. `decode ∘ write` is the identity on every field
/// that feeds planning (capacities, placements, resize bits), which the
/// snapshot equivalence test relies on. The snapshot loader hands it the
/// `cluster` member's subtree alone.
pub(crate) fn cluster_from_json(j: &Json) -> Result<ClusterState, DecodeError> {
    let hosts = get_arr(j, "hosts", "cluster")?
        .iter()
        .enumerate()
        .map(|(i, h)| host_from_json(h, i))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let mut state = ClusterState::new(hosts);
    let resize = resize_pairs_from_json(
        j.get("resize_factors")
            .ok_or_else(|| "cluster: missing field `resize_factors`".to_string())?,
        "cluster resize factors",
    )?;
    state.restore_resize_factors(resize);
    Ok(state)
}

// ---------------------------------------------------------------- telemetry

/// Writes the profiler's retained observation window as
/// `[[ms, [[latency, gamma, cpu, mem], ...]], ...]`, a chance to spill
/// after every sample.
pub(crate) fn write_samples(w: &mut Writer<'_>, samples: &BTreeMap<MicroserviceId, Vec<Sample>>) {
    w.array(samples, |w, (ms, bucket)| {
        w.byte(b'[');
        w.number(ms.index() as f64);
        w.byte(b',');
        w.array(bucket, |w, s| {
            w.byte(b'[');
            w.number(s.latency_ms);
            w.byte(b',');
            w.number(s.gamma);
            w.byte(b',');
            w.number(s.cpu);
            w.byte(b',');
            w.number(s.mem);
            w.byte(b']');
            w.spill();
        });
        w.byte(b']');
    });
}

/// Decodes the profiler's retained observation window straight from the
/// text at the parser, every bucket's rows through [`Parser::rows`], with
/// no tree. It accepts what `samples_from_json`, its oracle, accepts of the
/// parsed value, and refuses the rest.
pub(crate) fn samples_from_text(
    p: &mut Parser<'_>,
) -> Result<BTreeMap<MicroserviceId, Vec<Sample>>, DecodeError> {
    const PAIR: &str = "samples: expected a two-element pair";
    if !p.eat(b'[') {
        return Err("samples: expected an array".into());
    }
    let mut out = BTreeMap::new();
    p.sequence(b']', |p| {
        if !p.eat(b'[') {
            return Err(PAIR.into());
        }
        p.skip_ws();
        let ms = number_or(p, PAIR)?;
        p.skip_ws();
        if !p.eat(b',') {
            return Err(PAIR.into());
        }
        p.skip_ws();
        let mut bucket = Vec::new();
        p.rows(
            "samples: bucket must be an array",
            "samples: expected [latency, gamma, cpu, mem]",
            |[], [latency, gamma, cpu, mem]| {
                bucket.push(Sample::new(latency, gamma, cpu, mem));
                Ok::<(), DecodeError>(())
            },
        )?;
        p.skip_ws();
        if !p.eat(b']') {
            return Err(PAIR.into());
        }
        out.insert(MicroserviceId::new(u32_from(ms, "samples")?), bucket);
        Ok::<(), DecodeError>(())
    })?;
    Ok(out)
}

/// The tree form of [`write_samples`], its oracle.
#[cfg(test)]
pub(crate) fn samples_to_json(samples: &BTreeMap<MicroserviceId, Vec<Sample>>) -> Json {
    Json::Arr(
        samples
            .iter()
            .map(|(&ms, bucket)| {
                Json::Arr(vec![
                    uint(ms.index() as u64),
                    Json::Arr(
                        bucket
                            .iter()
                            .map(|s| {
                                Json::Arr(vec![
                                    num(s.latency_ms),
                                    num(s.gamma),
                                    num(s.cpu),
                                    num(s.mem),
                                ])
                            })
                            .collect(),
                    ),
                ])
            })
            .collect(),
    )
}

/// The tree form of [`samples_from_text`], its oracle.
#[cfg(test)]
pub(crate) fn samples_from_json(
    j: &Json,
) -> Result<BTreeMap<MicroserviceId, Vec<Sample>>, DecodeError> {
    let mut out = BTreeMap::new();
    for item in j
        .as_arr()
        .ok_or_else(|| "samples: expected an array".to_string())?
    {
        let (ms, bucket) = pair(item, "samples")?;
        let bucket = bucket
            .as_arr()
            .ok_or_else(|| "samples: bucket must be an array".to_string())?
            .iter()
            .map(|s| {
                let quad = s
                    .as_arr()
                    .filter(|a| a.len() == 4)
                    .ok_or_else(|| "samples: expected [latency, gamma, cpu, mem]".to_string())?;
                let field = |i: usize| {
                    quad[i]
                        .as_f64()
                        .ok_or_else(|| "samples: fields must be numbers".to_string())
                };
                Ok(Sample::new(field(0)?, field(1)?, field(2)?, field(3)?))
            })
            .collect::<Result<Vec<_>, DecodeError>>()?;
        out.insert(MicroserviceId::new(id_from(ms, "samples")?), bucket);
    }
    Ok(out)
}

/// Decodes one span-ingestion payload: the sampling rate the spans were
/// collected at, the deployment they ran under, and the spans themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanBatch {
    /// Sampling rate in `(0, 1]` the spans were collected at.
    pub sampling: f64,
    /// Deployment (containers per microservice) at observation time.
    /// Empty means "use the tenant's last applied plan".
    pub containers: BTreeMap<MicroserviceId, u32>,
    /// The observed spans.
    pub spans: Vec<SpanRecord>,
}

/// Encodes a span batch (used by the loopback DES driver and the tests).
pub fn span_batch_to_json(batch: &SpanBatch) -> Json {
    let spans = batch
        .spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                uint(s.service.index() as u64),
                uint(s.microservice.index() as u64),
                uint(u64::from(s.container)),
                uint(u64::from(s.priority_class)),
                num(s.start_ms),
                num(s.end_ms),
            ])
        })
        .collect();
    Json::obj(vec![
        ("sampling", num(batch.sampling)),
        (
            "containers",
            ms_pairs_to_json(batch.containers.iter().map(|(&m, &c)| (m, c))),
        ),
        ("spans", Json::Arr(spans)),
    ])
}

const SPAN_SHAPE: &str =
    "span batch: span must be six numbers [service, ms, container, class, start, end]";

/// A rate in `(0, 1]` that the profiler can divide a window's span count
/// by: the largest per-container rate `window_samples` can form from it —
/// `u32::MAX` spans in one window on one container — must be finite, or
/// the sample it becomes is one no snapshot can carry.
fn checked_sampling(sampling: f64) -> Result<f64, DecodeError> {
    let windows_per_min = 60_000.0 / WindowConfig::default().window_ms;
    let largest_rate = f64::from(u32::MAX) / sampling * windows_per_min;
    if sampling > 0.0 && sampling <= 1.0 && largest_rate.is_finite() {
        Ok(sampling)
    } else {
        Err(
            "span batch: `sampling` must be in (0, 1], and not so small \
             that a window's rate overflows"
                .into(),
        )
    }
}

/// One span from its six wire numbers, the four ids as [`Parser::rows`]
/// reads them. Both decoders end here, so what a span may hold is decided
/// once.
#[inline(always)]
fn span_from_fields(
    [service, ms, container, class]: [Option<u32>; 4],
    [start_ms, end_ms]: [f64; 2],
) -> Result<SpanRecord, DecodeError> {
    // Its latency goes into the fit as it is, and into snapshots, which
    // cannot carry an infinity: two finite ends far enough apart make one.
    if !(0.0..f64::INFINITY).contains(&(end_ms - start_ms)) {
        return Err("span batch: span `end_ms` must not precede `start_ms`, \
                    nor lie an infinity after it"
            .into());
    }
    Ok(SpanRecord {
        service: ServiceId::new(u32_field(service, "span `service`")?),
        microservice: MicroserviceId::new(u32_field(ms, "span `microservice`")?),
        container: u32_field(container, "span `container`")?,
        priority_class: u32_field(class, "span `priority_class`")?,
        start_ms,
        end_ms,
    })
}

/// Decodes a span batch from a parsed tree. The daemon decodes request
/// bodies with `span_batch_from_text`; this form is the oracle that one
/// is tested against, and what a caller already holding a tree uses.
pub fn span_batch_from_json(j: &Json) -> Result<SpanBatch, DecodeError> {
    let sampling = checked_sampling(get_f64(j, "sampling", "span batch")?)?;
    let containers = match j.get("containers") {
        Some(c) => ms_pairs_from_json(c, "span batch containers")?
            .into_iter()
            .collect(),
        None => BTreeMap::new(),
    };
    let wire = get_arr(j, "spans", "span batch")?;
    let mut spans = Vec::with_capacity(wire.len());
    for span in wire {
        let six = span.as_arr().filter(|a| a.len() == 6).ok_or(SPAN_SHAPE)?;
        let mut fields = [0.0; 6];
        for (field, value) in fields.iter_mut().zip(six) {
            *field = value.as_f64().ok_or(SPAN_SHAPE)?;
        }
        let [service, ms, container, class, start_ms, end_ms] = fields;
        let ids = [service, ms, container, class].map(exact_u32);
        spans.push(span_from_fields(ids, [start_ms, end_ms])?);
    }
    Ok(SpanBatch {
        sampling,
        containers,
        spans,
    })
}

/// The number at the parser's position, or `shape` when something else is.
fn number_or(p: &mut Parser<'_>, shape: &str) -> Result<f64, DecodeError> {
    if matches!(p.peek(), Some(b'-' | b'0'..=b'9')) {
        Ok(p.number()?)
    } else {
        Err(shape.into())
    }
}

/// Walks the object at the parser, whose value sits at nesting `depth`;
/// fails with `shape` when there is none. Each member goes to `take`, at
/// the first byte of its value: it decodes the members it wants from the
/// text, saying so, and answers `false` for the others, which are parsed
/// and dropped. A key that comes twice is refused, so no object passes here
/// that [`Json::parse`] refuses.
pub(crate) fn members(
    p: &mut Parser<'_>,
    depth: usize,
    shape: &str,
    mut take: impl FnMut(&mut Parser<'_>, &str) -> Result<bool, DecodeError>,
) -> Result<(), DecodeError> {
    if !p.eat(b'{') {
        return Err(shape.into());
    }
    let mut seen = HashSet::new();
    p.sequence(b'}', |p| {
        let key = p.key()?;
        if !seen.insert(key.clone()) {
            return Err(JsonError::DuplicateKey(key).into());
        }
        if !take(p, &key)? {
            p.value(depth + 1)?;
        }
        Ok::<(), DecodeError>(())
    })
}

/// Decodes a span batch straight from its JSON text, in one pass and with
/// no [`Json`] tree in between: a span becomes a 40-byte [`SpanRecord`]
/// instead of seven heap nodes that are read once and freed. This is the
/// decoder behind `POST …/spans`.
///
/// It accepts and rejects exactly what [`Json::parse`] followed by
/// [`span_batch_from_json`] does (a property test holds the two together):
/// the tokens come from the same parser, duplicate members of the batch
/// object are refused, and a member this decoder has no use for goes
/// through the tree parser and is dropped, so garbage inside it is still
/// garbage.
pub(crate) fn span_batch_from_text(text: &str) -> Result<SpanBatch, DecodeError> {
    let p = &mut Parser::new(text);
    let (mut sampling, mut containers, mut spans) = (None, None, None);
    let mut unknown = HashSet::new();
    p.skip_ws();
    if !p.eat(b'{') {
        return Err("span batch: expected an object".into());
    }
    p.sequence(b'}', |p| {
        let key = p.key()?;
        let duplicate = match key.as_str() {
            "sampling" => sampling.is_some(),
            "containers" => containers.is_some(),
            "spans" => spans.is_some(),
            _ => !unknown.insert(key.clone()),
        };
        if duplicate {
            return Err(JsonError::DuplicateKey(key).into());
        }
        match key.as_str() {
            "sampling" => {
                let value = number_or(p, "span batch: non-numeric field `sampling`")?;
                sampling = Some(checked_sampling(value)?);
            }
            "containers" => {
                let ctx = "span batch containers";
                let shape = "span batch containers: expected an array of pairs";
                let pairs = containers.insert(BTreeMap::new());
                p.rows(shape, shape, |[ms, count], []| {
                    pairs.insert(
                        MicroserviceId::new(u32_field(ms, ctx)?),
                        u32_field(count, ctx)?,
                    );
                    Ok::<(), DecodeError>(())
                })?;
            }
            "spans" => {
                // A span is seldom under 32 bytes of text, so this is as a
                // rule the only allocation; growing to 2000 spans by
                // doubling cost a quarter of the decode in page faults.
                let list = spans.insert(Vec::with_capacity(text.len() / 32));
                p.rows(
                    "span batch: non-array field `spans`",
                    SPAN_SHAPE,
                    |ids, ends| {
                        list.push(span_from_fields(ids, ends)?);
                        Ok::<(), DecodeError>(())
                    },
                )?;
            }
            _ => drop(p.value(1)?),
        }
        Ok::<(), DecodeError>(())
    })?;
    p.finish()?;
    Ok(SpanBatch {
        sampling: sampling.ok_or("span batch: missing field `sampling`")?,
        containers: containers.unwrap_or_default(),
        spans: spans.ok_or("span batch: missing field `spans`")?,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use erms_core::app::AppBuilder;
    use erms_core::latency::Interference;
    use proptest::prelude::*;

    use crate::wire_tests::Dice;

    fn fixture_app() -> App {
        let mut b = AppBuilder::new("social");
        let front = b.microservice(
            "frontend",
            LatencyProfile::kneed(0.002, 3.0, 0.02, 9000.0),
            Resources::new(0.1, 200.0),
        );
        let logic = b.microservice(
            "logic",
            LatencyProfile::new(
                Segment::new(1.0, 0.5, 0.001, 2.0),
                Segment::new(4.0, 2.0, 0.01, -5.0),
                CutoffModel::Affine {
                    base: 12000.0,
                    k_cpu: 3000.0,
                    k_mem: 1000.0,
                    min: 4000.0,
                },
            ),
            Resources::new(0.2, 300.0),
        );
        let store = b.microservice(
            "store",
            LatencyProfile::linear(0.004, 6.0),
            Resources::new(0.1, 200.0),
        );
        b.service("compose", Sla::p95_ms(200.0), |g| {
            let root = g.entry(front);
            let mid = g.call_seq(root, logic);
            g.call_seq_n(mid, store, 2.5);
        });
        b.service("read", Sla::p95_ms(120.0), |g| {
            let root = g.entry(front);
            g.call_par(root, &[logic, store]);
        });
        b.build().unwrap()
    }

    /// What a writer function writes, as text.
    fn written(write: impl FnOnce(&mut Writer<'_>)) -> String {
        let mut w = Writer::new();
        write(&mut w);
        w.finish()
    }

    #[test]
    fn app_round_trips_bit_identically() {
        let app = fixture_app();
        let encoded = written(|w| write_app(w, &app));
        assert_eq!(encoded, app_to_json(&app).render());
        let decoded = app_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.name(), app.name());
        assert_eq!(decoded.microservice_count(), app.microservice_count());
        for (ms, m) in app.microservices() {
            let d = decoded.microservice(ms).unwrap();
            assert_eq!(d.name, m.name);
            assert_eq!(d.profile, m.profile);
            assert_eq!(d.resources.cpu.to_bits(), m.resources.cpu.to_bits());
        }
        for (svc, s) in app.services() {
            let d = decoded.service(svc).unwrap();
            assert_eq!(d.sla.threshold_ms.to_bits(), s.sla.threshold_ms.to_bits());
            assert_eq!(d.graph.content_hash(), s.graph.content_hash());
        }
    }

    #[test]
    fn infinite_cutoff_survives_the_trip() {
        let profile = LatencyProfile::linear(0.01, 1.0);
        assert!(profile.cutoff.eval(Interference::default()).is_infinite());
        let text = profile_to_json(&profile).render();
        assert!(text.contains("\"value\":null"), "{text}");
        let back = profile_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn plan_round_trips_with_priorities_and_service_plans() {
        let ms0 = MicroserviceId::new(0);
        let ms1 = MicroserviceId::new(1);
        let s0 = ServiceId::new(0);
        let s1 = ServiceId::new(1);
        let mut plan = ScalingPlan::new("erms");
        plan.set_containers(ms0, 7);
        plan.set_containers(ms1, 0);
        plan.set_priority_order(ms0, vec![s1, s0]);
        plan.set_service_plan(ServicePlan {
            service: s0,
            node_targets_ms: vec![100.0, 55.5],
            ms_targets_ms: [(ms0, 55.5)].into_iter().collect(),
            ms_containers: [(ms0, 6.25)].into_iter().collect(),
            ms_intervals: [(ms0, Interval::High)].into_iter().collect(),
        });
        let text = plan_to_json(&plan).render();
        let back = plan_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.get(ms1), Some(0), "explicit zero must survive");
    }

    /// A target from signed zeros, subnormals, a huge value, 17-digit
    /// values and random bits.
    pub(crate) fn arbitrary_target(dice: &mut Dice) -> f64 {
        const TARGETS: [f64; 9] = [
            -0.0,
            0.0,
            5e-324,
            2.225_073_858_507_201e-308,
            1e300,
            0.300_000_000_000_000_04,
            123_456_789.123_456_78,
            -1.0 / 3.0,
            4.5,
        ];
        match dice.roll(3) {
            0 => Some(f64::from_bits(dice.roll(u64::MAX)))
                .filter(|v| v.is_finite())
                .unwrap_or(-7.25),
            _ => TARGETS[dice.roll(TARGETS.len() as u64) as usize],
        }
    }

    /// A plan drawn from `seed`: a scheme with escapes, sparse ids, counts
    /// up to `u32::MAX`, priorities at microservices with and without
    /// containers, both intervals, and each part empty in some draws.
    pub(crate) fn arbitrary_plan(seed: u64) -> ScalingPlan {
        const SCHEMES: [&str; 4] = ["erms", "", "a \"quoted\"\\ line\n\u{1}", "ünï"];
        let mut dice = Dice(seed);
        let id = |dice: &mut Dice| MicroserviceId::new(dice.roll(40) as u32 * 3);
        let ms_map = |dice: &mut Dice| -> BTreeMap<MicroserviceId, f64> {
            (0..dice.roll(5))
                .map(|_| (id(dice), arbitrary_target(dice)))
                .collect()
        };
        let mut plan = ScalingPlan::new(SCHEMES[dice.roll(4) as usize]);
        for _ in 0..dice.roll(12) {
            let count = match dice.roll(4) {
                0 => u32::MAX,
                1 => 0,
                _ => dice.roll(5_000) as u32,
            };
            plan.set_containers(id(&mut dice), count);
        }
        for _ in 0..dice.roll(4) {
            let order = (0..dice.roll(4))
                .map(|_| ServiceId::new(dice.roll(9) as u32))
                .collect();
            plan.set_priority_order(id(&mut dice), order);
        }
        for service in 0..dice.roll(4) {
            plan.set_service_plan(ServicePlan {
                service: ServiceId::new(service as u32 * 2),
                node_targets_ms: (0..dice.roll(6))
                    .map(|_| arbitrary_target(&mut dice))
                    .collect(),
                ms_targets_ms: ms_map(&mut dice),
                ms_containers: ms_map(&mut dice),
                ms_intervals: (0..dice.roll(5))
                    .map(|_| {
                        let interval = [Interval::Low, Interval::High][dice.roll(2) as usize];
                        (id(&mut dice), interval)
                    })
                    .collect(),
            });
        }
        plan
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The daemon's plan writer emits the tree's bytes.
        #[test]
        fn plan_text_is_the_rendered_tree(seed in any::<u64>()) {
            let plan = arbitrary_plan(seed);
            prop_assert_eq!(plan_text(&plan), plan_to_json(&plan).render());
        }
    }

    #[test]
    fn plan_text_of_plans_with_parts_missing_is_the_rendered_tree() {
        let mut plan = ScalingPlan::new("erms");
        assert_eq!(plan_text(&plan), plan_to_json(&plan).render());
        plan.set_containers(MicroserviceId::new(3), 2);
        assert_eq!(plan_text(&plan), plan_to_json(&plan).render());
        plan.set_service_plan(ServicePlan {
            service: ServiceId::new(0),
            node_targets_ms: vec![-0.0, 1e300],
            ms_targets_ms: BTreeMap::new(),
            ms_containers: [(MicroserviceId::new(3), 5e-324)].into(),
            ms_intervals: [(MicroserviceId::new(3), Interval::High)].into(),
        });
        assert_eq!(plan_text(&plan), plan_to_json(&plan).render());
        plan.set_priority_order(MicroserviceId::new(3), vec![]);
        assert_eq!(plan_text(&plan), plan_to_json(&plan).render());
    }

    #[test]
    #[should_panic(expected = "codec-produced JSON is finite")]
    fn plan_text_refuses_a_non_finite_target_as_render_does() {
        let mut plan = ScalingPlan::new("erms");
        plan.set_service_plan(ServicePlan {
            service: ServiceId::new(0),
            node_targets_ms: vec![f64::NAN],
            ms_targets_ms: BTreeMap::new(),
            ms_containers: BTreeMap::new(),
            ms_intervals: BTreeMap::new(),
        });
        let _ = plan_text(&plan);
    }

    #[test]
    fn manager_state_round_trips() {
        let mut plan = ScalingPlan::new("erms");
        plan.set_containers(MicroserviceId::new(0), 3);
        let plan = Arc::new(plan);
        let state = ManagerState {
            round: 17,
            last_applied: Some(Arc::clone(&plan)),
            last_good: Some((plan, 15)),
            directions: [(MicroserviceId::new(0), (-1i8, 16u64))]
                .into_iter()
                .collect(),
        };
        let text = written(|w| write_manager_state(w, &state));
        assert_eq!(text, manager_state_to_json(&state).render());
        let back = manager_state_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn cluster_round_trips_including_resize_bits() {
        let mut state = ClusterState::new(vec![
            Host::paper_host(),
            Host::new(16.0, 32768.0)
                .with_lifecycle(HostLifecycle::Spot)
                .with_domain(FailureDomain::new(1, 2)),
        ]);
        state.hosts_mut()[0].restore_placements(
            vec![(MicroserviceId::new(0), 4), (MicroserviceId::new(2), 1)],
            vec![(MicroserviceId::new(0), 0.85)],
        );
        state.hosts_mut()[1].reclaim_at_round = Some(9);
        state.hosts_mut()[1].background_cpu = 3.5;
        state.restore_resize_factors(vec![(MicroserviceId::new(0), 0.85)]);
        let text = written(|w| write_cluster(w, &state));
        assert_eq!(text, cluster_to_json(&state).render());
        let back = cluster_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, state);
        // The resize factor must survive with exact bits: it feeds
        // resource arithmetic inside provisioning.
        let factor = back.resize_factor(MicroserviceId::new(0));
        assert_eq!(factor.to_bits(), 0.85f64.to_bits());
    }

    #[test]
    fn workloads_and_samples_round_trip() {
        let w: WorkloadVector = [
            (ServiceId::new(0), RequestRate::per_minute(30000.0)),
            (ServiceId::new(1), RequestRate::per_minute(123.456)),
        ]
        .into_iter()
        .collect();
        let text = written(|writer| write_workloads(writer, &w));
        assert_eq!(text, workloads_to_json(&w).render());
        let back = workloads_from_json(&Json::parse(&text).unwrap()).unwrap();
        for (svc, rate) in w.iter() {
            assert_eq!(
                back.rate(svc).as_per_minute().to_bits(),
                rate.as_per_minute().to_bits()
            );
        }

        let samples: BTreeMap<MicroserviceId, Vec<Sample>> = [(
            MicroserviceId::new(3),
            vec![Sample::new(12.5, 4000.0, 0.31, 0.27)],
        )]
        .into_iter()
        .collect();
        let text = written(|w| write_samples(w, &samples));
        assert_eq!(text, samples_to_json(&samples).render());
        let back = samples_from_text(&mut Parser::new(&text)).unwrap();
        assert_eq!(back, samples);
        assert_eq!(
            samples_from_json(&Json::parse(&text).unwrap()).unwrap(),
            back
        );
    }

    #[test]
    fn span_batch_round_trips() {
        let batch = SpanBatch {
            sampling: 0.25,
            containers: [(MicroserviceId::new(0), 5)].into_iter().collect(),
            spans: vec![SpanRecord {
                service: ServiceId::new(1),
                microservice: MicroserviceId::new(0),
                container: 2,
                priority_class: 1,
                start_ms: 1000.25,
                end_ms: 1013.75,
            }],
        };
        let text = span_batch_to_json(&batch).render();
        let back = span_batch_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.sampling, batch.sampling);
        assert_eq!(back.containers, batch.containers);
        assert_eq!(back.spans, batch.spans);
    }

    #[test]
    fn malformed_payloads_are_rejected_with_context() {
        let err = app_from_json(&Json::parse("{\"name\":\"x\"}").unwrap()).unwrap_err();
        assert!(err.contains("microservices"), "{err}");
        let err = workloads_from_json(&Json::parse("[[0,-5.0]]").unwrap()).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = span_batch_from_json(
            &Json::parse("{\"sampling\":0.0,\"containers\":[],\"spans\":[]}").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("sampling"), "{err}");
    }
}
