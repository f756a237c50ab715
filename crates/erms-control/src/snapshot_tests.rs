//! Property tests of the snapshot: the streamed writer against the tree
//! render it replaced, and the streamed loader against `Json::parse` and
//! the tree decoder, on generated registries and on a mutation corpus of
//! their files.

use std::collections::{BTreeMap, VecDeque};

use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::{CutoffModel, CutoffNode, CutoffTree, LatencyProfile, Segment};
use erms_core::provisioning::{ClusterState, FailureDomain, Host, HostLifecycle};
use erms_core::resilience::{ManagerState, HISTORY_LIMIT};
use erms_core::resources::Resources;
use erms_profilers::dataset::Sample;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use crate::codec::plan_text;
use crate::codec::tests::{arbitrary_plan, arbitrary_target};
use crate::json::Json;
use crate::snapshot::tree::{registry_from_json, registry_to_json};
use crate::snapshot::{registry_from_text, text};
use crate::tenant::{DecisionRecord, Registry, Tenant};
use crate::wire_tests::{mutate, Dice};

/// Names and ids that need escapes, are empty, or are not ASCII.
const NAMES: [&str; 5] = [
    "a",
    "",
    "a \"quoted\"\\ name\n\u{1}",
    "ünï 🦀",
    "tab\there/",
];

fn name(dice: &mut Dice) -> &'static str {
    NAMES[dice.roll(NAMES.len() as u64) as usize]
}

/// A finite non-negative value: short, long or random digits.
fn positive(dice: &mut Dice) -> f64 {
    match dice.roll(3) {
        0 => [0.0, 0.5, 3.0, 9000.0][dice.roll(4) as usize],
        1 => dice.roll(1 << 40) as f64 / 7.0,
        _ => arbitrary_target(dice).abs(),
    }
}

/// A positive value of seventeen digits below 1 000, for what the planner
/// computes with: a profile, a rate.
fn moderate(dice: &mut Dice) -> f64 {
    (1 + dice.roll(1 << 40)) as f64 / (1u64 << 30) as f64
}

fn segment(dice: &mut Dice) -> Segment {
    Segment::new(
        moderate(dice),
        moderate(dice),
        moderate(dice),
        moderate(dice),
    )
}

/// A profile with each kind of cut-off: a finite constant, the infinite
/// one (`null` on the wire), affine, and a tree.
fn profile(dice: &mut Dice) -> LatencyProfile {
    match dice.roll(4) {
        0 => LatencyProfile::kneed(moderate(dice), moderate(dice), moderate(dice), 5000.5),
        1 => LatencyProfile::linear(moderate(dice), moderate(dice)),
        2 => LatencyProfile::new(
            segment(dice),
            segment(dice),
            CutoffModel::Affine {
                base: moderate(dice),
                k_cpu: moderate(dice),
                k_mem: moderate(dice),
                min: moderate(dice),
            },
        ),
        _ => LatencyProfile::new(
            segment(dice),
            segment(dice),
            CutoffModel::Tree(CutoffTree {
                nodes: vec![
                    CutoffNode::Split {
                        feature: dice.roll(2) as u8,
                        threshold: moderate(dice),
                        left: 1,
                        right: 2,
                    },
                    CutoffNode::Leaf(moderate(dice)),
                    CutoffNode::Leaf(moderate(dice)),
                ],
            }),
        ),
    }
}

fn app(dice: &mut Dice) -> App {
    let mut b = AppBuilder::new(name(dice));
    let microservices: Vec<MicroserviceId> = (0..=dice.roll(3))
        .map(|_| {
            let resources = Resources::new(moderate(dice), moderate(dice));
            b.microservice(name(dice), profile(dice), resources)
        })
        .collect();
    for _ in 0..=dice.roll(2) {
        let entry = microservices[dice.roll(microservices.len() as u64) as usize];
        let callee = microservices[dice.roll(microservices.len() as u64) as usize];
        let sla = Sla::p95_ms(50.0 + moderate(dice));
        let fan_out = dice.roll(2) == 0;
        b.service(name(dice), sla, |g| {
            let root = g.entry(entry);
            if fan_out {
                g.call_par(root, &[callee, entry]);
            } else {
                g.call_seq_n(root, callee, 2.5);
            }
        });
    }
    b.build().expect("generated apps are valid")
}

fn host(dice: &mut Dice) -> Host {
    let lifecycle = [HostLifecycle::OnDemand, HostLifecycle::Spot][dice.roll(2) as usize];
    let domain = FailureDomain::new(dice.roll(3) as u32, dice.roll(1 << 32) as u32);
    let mut host = Host::new(positive(dice), positive(dice))
        .with_lifecycle(lifecycle)
        .with_domain(domain);
    host.background_cpu = positive(dice);
    host.background_mem = positive(dice);
    host.interference_scale = arbitrary_target(dice);
    host.reclaim_at_round = (dice.roll(2) == 0).then(|| dice.roll(1 << 40));
    let ms = |dice: &mut Dice| MicroserviceId::new(dice.roll(6) as u32);
    let placements: Vec<_> = (0..dice.roll(4))
        // Counts a host holds: a replan walks them one container at a time
        // (evacuating a reclaimed host) and adds them up as `u32`.
        .map(|_| (ms(dice), dice.roll(5_000) as u32))
        .collect();
    let resize: Vec<_> = (0..dice.roll(3))
        .map(|_| (ms(dice), arbitrary_target(dice)))
        .collect();
    host.restore_placements(placements, resize);
    host
}

fn record(dice: &mut Dice, round: u64) -> DecisionRecord {
    DecisionRecord {
        round,
        scheme: name(dice).to_string(),
        total_containers: dice.roll(1 << 20),
        refitted: dice.roll(9) as usize,
        actions: (0..dice.roll(3)).map(|_| name(dice).to_string()).collect(),
        errors: (0..dice.roll(2)).map(|_| name(dice).to_string()).collect(),
        degraded: dice.roll(2) == 0,
        skipped: dice.roll(2) == 0,
    }
}

fn tenant(dice: &mut Dice, pool: &[Host]) -> Tenant {
    let mut tenant = Tenant::new(name(dice), app(dice), pool);
    let ms = |dice: &mut Dice| MicroserviceId::new(dice.roll(6) as u32);
    // Empty windows, empty buckets and full ones.
    let window: BTreeMap<MicroserviceId, Vec<Sample>> = (0..dice.roll(4))
        .map(|_| {
            let bucket = (0..dice.roll(5))
                .map(|_| {
                    let mut v = || arbitrary_target(dice);
                    Sample::new(v(), v(), v(), v())
                })
                .collect();
            (ms(dice), bucket)
        })
        .collect();
    tenant.profiler.restore_samples(window);
    let applied = (dice.roll(3) > 0).then(|| arbitrary_plan(dice.roll(u64::MAX)));
    let good = match dice.roll(3) {
        0 => None,
        1 => applied.clone().map(|plan| (plan, dice.roll(50))),
        _ => Some((arbitrary_plan(dice.roll(u64::MAX)), dice.roll(50))),
    };
    tenant.manager.restore_state(ManagerState {
        round: dice.roll(1 << 30),
        last_applied: applied,
        last_good: good,
        directions: (0..dice.roll(4))
            .map(|_| (ms(dice), ([1, -1][dice.roll(2) as usize], dice.roll(100))))
            .collect(),
    });
    let mut cluster = ClusterState::new((0..dice.roll(3)).map(|_| host(dice)).collect());
    cluster.restore_resize_factors((0..dice.roll(3)).map(|_| (ms(dice), positive(dice))));
    tenant.cluster = cluster;
    tenant.workloads = (0..dice.roll(4))
        .map(|_| {
            let service = ServiceId::new(dice.roll(5) as u32);
            (service, RequestRate::per_minute(100.0 * moderate(dice)))
        })
        .collect::<WorkloadVector>();
    // Histories empty, short, and at the limit.
    let length = [0, 1, 3, HISTORY_LIMIT as u64][dice.roll(4) as usize];
    tenant.history = (1..=length).map(|round| record(dice, round)).collect();
    tenant.spans_ingested = dice.roll(1 << 50);
    tenant.samples_ingested = dice.roll(1 << 30);
    tenant
}

/// A registry of 0, 1 or 3 tenants over a pool of up to three hosts.
fn registry(seed: u64) -> Registry {
    let mut dice = Dice(seed);
    let pool: Vec<Host> = (0..dice.roll(4)).map(|_| host(&mut dice)).collect();
    let mut registry = Registry::new(pool.clone());
    for _ in 0..[0, 1, 3][dice.roll(3) as usize] {
        registry.insert(tenant(&mut dice, &pool));
    }
    registry
}

/// The tree's verdict on a file: `Json::parse`, then the tree decoder.
fn tree_load(text: &str) -> Result<Registry, String> {
    registry_from_json(&Json::parse(text).map_err(|e| e.to_string())?)
}

/// What a loaded registry decides next: every tenant's next round, its
/// record and the bytes of the plan it applies.
fn next_rounds(registry: &Registry) -> Vec<(DecisionRecord, Option<String>)> {
    let ids: Vec<String> = registry
        .lock_tenants()
        .iter()
        .map(|t| t.id.clone())
        .collect();
    ids.iter()
        .map(|id| {
            registry
                .with_tenant(id, |t| (t.replan().clone(), t.plan().map(plan_text)))
                .expect("listed")
        })
        .collect()
}

/// The two loaders on one file: both refuse it, or both take it and build
/// registries the oracle renders alike and whose next rounds agree. Returns
/// whether it was taken.
fn judged_alike(text: &str) -> Result<bool, String> {
    match (registry_from_text(text), tree_load(text)) {
        (Err(_), Err(_)) => Ok(false),
        (Ok(streamed), Ok(tree)) => {
            let (a, b) = (registry_to_json(&streamed), registry_to_json(&tree));
            if a != b {
                return Err(format!("different registries from {text:?}"));
            }
            if next_rounds(&streamed) != next_rounds(&tree) {
                return Err(format!("different next rounds from {text:?}"));
            }
            Ok(true)
        }
        (streamed, tree) => Err(format!(
            "loaders disagree on {text:?}: streamed {:?}, tree {:?}",
            streamed.map(|r| r.len()),
            tree.map(|r| r.len())
        )),
    }
}

/// Paths (child indices) of every object in the tree.
fn objects(j: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Json> = match j {
        Json::Obj(members) => {
            out.push(path.clone());
            members.iter().map(|(_, v)| v).collect()
        }
        Json::Arr(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        objects(child, path, out);
        path.pop();
    }
}

fn at<'a>(j: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(j, |j, &i| match j {
        Json::Obj(members) => &mut members[i].1,
        Json::Arr(items) => &mut items[i],
        _ => unreachable!("paths lead through containers"),
    })
}

/// A value of another shape than most members hold.
fn stranger(dice: &mut Dice) -> Json {
    match dice.roll(7) {
        0 => Json::Null,
        1 => Json::Num(-1.0),
        2 => Json::Num(1.5),
        3 => Json::str("1"),
        4 => Json::Arr(vec![Json::Arr(vec![])]),
        5 => Json::obj([("plan", Json::Null)]),
        _ => Json::Bool(true),
    }
}

/// One structural mutant of a snapshot: an object somewhere in it with its
/// members reordered, one duplicated, one unknown added, one removed, or
/// one replaced by a value of another shape; or the version changed, or
/// data after the document.
fn structural(document: &Json, dice: &mut Dice) -> String {
    let mut tree = document.clone();
    let mut paths = Vec::new();
    objects(&tree, &mut Vec::new(), &mut paths);
    let path = &paths[dice.roll(paths.len() as u64) as usize];
    let Json::Obj(members) = at(&mut tree, path) else {
        unreachable!("a path to an object");
    };
    let len = members.len() as u64;
    let i = dice.roll(len.max(1)) as usize;
    match dice.roll(7) {
        0 if len > 1 => members.swap(i, (i + 1 + dice.roll(len - 1) as usize) % len as usize),
        1 if len > 0 => {
            let copy = members[i].clone();
            members.insert(dice.roll(len + 1) as usize, copy);
        }
        2 => {
            let unknown = (format!("x{}", dice.roll(3)), stranger(dice));
            members.insert(dice.roll(len + 1) as usize, unknown);
        }
        3 if len > 0 => drop(members.remove(i)),
        4 if len > 0 => members[i].1 = stranger(dice),
        5 => {
            let Json::Obj(top) = &mut tree else {
                unreachable!("a snapshot is an object");
            };
            let versions = [
                Json::Num(2.0),
                Json::Num(0.0),
                Json::Num(1.0),
                Json::str("1"),
                Json::Null,
            ];
            top[0].1 = versions[dice.roll(versions.len() as u64) as usize].clone();
        }
        _ => {
            let tail = [" ", "\n", "x", "{}", " 1", ","][dice.roll(6) as usize];
            return tree.render() + tail;
        }
    }
    tree.render()
}

/// The corpus of one registry's file: the file itself, truncations at
/// `cuts` offsets, byte flips, deletions and insertions, and `structural`
/// mutants. Fails on the first file the loaders judge differently;
/// returns how many were taken and how many judged.
fn judge_corpus(seed: u64, cuts: u64, mutants: u64) -> Result<(u64, u64), String> {
    let registry = registry(seed);
    let file = text(&registry);
    let mut dice = Dice(seed ^ 0x5A5A);
    let document = Json::parse(&file).map_err(|e| e.to_string())?;
    let mut corpus = vec![file.clone()];
    let boundaries: Vec<usize> = (0..=file.len())
        .filter(|&i| file.is_char_boundary(i))
        .collect();
    for _ in 0..cuts {
        corpus.push(file[..boundaries[dice.roll(boundaries.len() as u64) as usize]].to_string());
    }
    for _ in 0..mutants {
        corpus.push(structural(&document, &mut dice));
        if let Ok(text) = String::from_utf8(mutate(&file, &mut dice)) {
            corpus.push(text);
        }
    }
    let mut taken = 0;
    for (k, text) in corpus.iter().enumerate() {
        let verdict = judged_alike(text).map_err(|e| format!("seed {seed}, file {k}: {e}"))?;
        if k == 0 && !verdict {
            return Err(format!("seed {seed}: the file as saved was refused"));
        }
        taken += u64::from(verdict);
    }
    Ok((taken, corpus.len() as u64))
}

/// Runs `judge_corpus` on `cases` registries and checks that the mutants
/// landed on both sides of the line.
fn corpus_agrees(cases: u64, base: u64, cuts: u64, mutants: u64) {
    let (mut taken, mut judged) = (0, 0);
    for case in 0..cases {
        let (t, j) =
            judge_corpus(base.wrapping_add(case), cuts, mutants).unwrap_or_else(|e| panic!("{e}"));
        taken += t;
        judged += j;
    }
    let share = taken as f64 / judged as f64;
    assert!((0.05..0.95).contains(&share), "{taken} of {judged} taken");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streamed writer emits the tree's bytes, and the loader takes
    /// them back to a registry the tree renders the same.
    #[test]
    fn the_file_is_the_rendered_tree(seed in any::<u64>()) {
        let registry = registry(seed);
        let file = text(&registry);
        prop_assert_eq!(&file, &registry_to_json(&registry).render());
        let loaded = registry_from_text(&file).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(text(&loaded), file);
    }
}

/// The loaders agree on every file of the mutation corpus of 24
/// registries.
#[test]
fn mutated_files_are_judged_alike() {
    corpus_agrees(24, 0x5AFE, 12, 10);
}

/// The long form CI's `bench-smoke` job runs in release:
/// `cargo test -p erms-control --release -- --ignored snapshot_fuzz`.
#[test]
#[ignore = "≈ 60 000 files; run in release"]
fn snapshot_fuzz() {
    corpus_agrees(1_000, 0xF11E, 20, 20);
}

/// The corners mutation seldom reaches, one by one.
#[test]
fn loaders_agree_on_the_corner_cases() {
    let tenant =
        |members: &str| format!("{{\"version\":1,\"pool\":[],\"tenants\":[{{{members}}}]}}");
    let mut registry = Registry::new(vec![Host::paper_host()]);
    registry.insert(tenant_of(7));
    let file = text(&registry);
    let Json::Obj(document) = Json::parse(&file).unwrap() else {
        panic!("a snapshot is an object");
    };
    let (_, Json::Arr(tenants)) = &document[2] else {
        panic!("the third member holds the tenants");
    };
    let member = |key: &str| {
        let value = tenants[0].get(key).unwrap().render();
        format!("\"{key}\":{value}")
    };
    let all = [
        "id",
        "app",
        "samples",
        "manager",
        "cluster",
        "workloads",
        "history",
        "spans_ingested",
        "samples_ingested",
    ]
    .map(member);
    let without = |skip: usize| {
        let kept: Vec<&str> = all
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != skip)
            .map(|(_, m)| m.as_str())
            .collect();
        tenant(&kept.join(","))
    };
    let with = |extra: &str| tenant(&format!("{},{extra}", all.join(",")));
    let mut cases: Vec<(String, bool)> = vec![
        (file.clone(), true),
        (format!(" \n{file}\t "), true),
        (file.replacen("\"version\":1", "\"version\":1.0", 1), true),
        (file.replacen("\"version\":1", "\"version\":10e-1", 1), true),
        (file.replacen("\"version\":1", "\"version\":2", 1), false),
        (file.replacen("\"version\":1,", "", 1), false),
        (
            file.replacen("\"version\":1", "\"version\":\"1\"", 1),
            false,
        ),
        (format!("{file}{file}"), false),
        ("{\"version\":1,\"pool\":[],\"tenants\":[]}".into(), true),
        ("{\"tenants\":[],\"pool\":[],\"version\":1}".into(), true),
        (
            "{\"version\":1,\"pool\":[],\"tenants\":[],\"x\":[{}]}".into(),
            true,
        ),
        (
            "{\"version\":1,\"pool\":[],\"tenants\":[],\"x\":[1,]}".into(),
            false,
        ),
        (
            "{\"version\":1,\"version\":1,\"pool\":[],\"tenants\":[]}".into(),
            false,
        ),
        (
            "{\"version\":1,\"pool\":[],\"tenants\":[],\"x\":1,\"x\":1}".into(),
            false,
        ),
        ("{\"version\":1,\"pool\":{},\"tenants\":[]}".into(), false),
        ("{\"version\":1,\"pool\":[],\"tenants\":{}}".into(), false),
        ("{\"version\":1,\"pool\":[],\"tenants\":[1]}".into(), false),
        ("{\"version\":1,\"pool\":[]}".into(), false),
        ("[]".into(), false),
        ("".into(), false),
        (with("\"samples\":[]"), false),
        (with("\"history\":[]"), false),
        (with("\"note\":{\"a\":[null]}"), true),
        (with("\"note\":{\"a\":1,\"a\":2}"), false),
    ];
    for skip in 0..all.len() {
        cases.push((without(skip), false));
    }
    let samples = |window: &str| {
        let members: Vec<String> = all
            .iter()
            .map(|m| {
                if m.starts_with("\"samples\"") {
                    format!("\"samples\":{window}")
                } else {
                    m.clone()
                }
            })
            .collect();
        tenant(&members.join(","))
    };
    for (window, verdict) in [
        ("[]", true),
        ("[ [ 3 , [ ] ] , [0,[[1,2,3,4]]] ]", true),
        ("[[3,[]],[3,[[1,2,3,4]]]]", true),
        ("[[3.0,[[1e0,-0,3,4]]]]", true),
        ("[[-1,[]]]", false),
        ("[[3.5,[]]]", false),
        ("[[4294967296,[]]]", false),
        ("[[3]]", false),
        ("[[3,[],1]]", false),
        ("[[3,[[1,2,3]]]]", false),
        ("[[3,[[1,2,3,4,5]]]]", false),
        ("[[3,[[1,2,3,null]]]]", false),
        ("[[3,[[1,2,3,4],]]]", false),
        ("[[3,[[1,2,3,04]]]]", false),
        ("[[\"3\",[]]]", false),
        ("{}", false),
        ("null", false),
    ] {
        cases.push((samples(window), verdict));
    }
    for (text, verdict) in cases {
        let (streamed, tree) = (registry_from_text(&text), tree_load(&text));
        assert_eq!(
            streamed.is_ok(),
            verdict,
            "streamed, {text}: {:?}",
            streamed.err()
        );
        assert_eq!(tree.is_ok(), verdict, "tree, {text}: {:?}", tree.err());
        assert!(judged_alike(&text).is_ok(), "{text}");
    }
}

/// A small valid tenant for the corner cases: one record of history.
fn tenant_of(seed: u64) -> Tenant {
    let mut dice = Dice(seed);
    let mut t = tenant(&mut dice, &[Host::paper_host()]);
    t.id = "t".into();
    t.history = VecDeque::from([record(&mut dice, 1)]);
    t
}
