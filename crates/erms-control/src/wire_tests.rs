//! Property tests of the daemon's span path: the streamed decoder against
//! the tree decoder it replaced on the request path, on generated batches
//! and on byte-mutated bodies, in process and through a running daemon.

use std::collections::BTreeMap;

use erms_core::app::{App, AppBuilder, RequestRate, Sla, WorkloadVector};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::LatencyProfile;
use erms_core::provisioning::Host;
use erms_core::resources::Resources;
use erms_sim::telemetry::SpanRecord;
use proptest::prelude::*;

use crate::codec::{app_to_json, span_batch_from_json, span_batch_from_text, SpanBatch};
use crate::http::Client;
use crate::json::Json;
use crate::server::{ControlPlane, ControlPlaneConfig};
use crate::snapshot;
use crate::tenant::{Registry, Tenant};

/// A splitmix64 stream: the style and mutation choices of one case, drawn
/// from one generated seed.
pub(crate) struct Dice(pub(crate) u64);

impl Dice {
    pub(crate) fn roll(&mut self, sides: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % sides
    }
}

fn two_microservice_app() -> App {
    let mut b = AppBuilder::new("wire");
    let front = b.microservice(
        "front",
        LatencyProfile::kneed(0.002, 3.0, 0.02, 9000.0),
        Resources::new(0.1, 200.0),
    );
    let store = b.microservice(
        "store",
        LatencyProfile::linear(0.004, 6.0),
        Resources::new(0.1, 200.0),
    );
    b.service("s", Sla::p95_ms(200.0), |g| {
        let root = g.entry(front);
        g.call_seq(root, store);
    });
    b.build().unwrap()
}

/// A batch over the two microservices: spans crowded into three windows so
/// that some cells clear the profiler's `min_samples`.
fn batch_from(rows: &[(u32, u32, u32, f64, f64)], sampling: f64, deployed: &[u32]) -> SpanBatch {
    SpanBatch {
        sampling,
        containers: deployed
            .iter()
            .enumerate()
            .map(|(ms, &n)| (MicroserviceId::new(ms as u32), n))
            .collect(),
        spans: rows
            .iter()
            .map(|&(ms, container, class, start_ms, latency)| SpanRecord {
                service: ServiceId::new(0),
                microservice: MicroserviceId::new(ms),
                container,
                priority_class: class,
                start_ms,
                end_ms: start_ms + latency,
            })
            .collect(),
    }
}

/// An integer the way a foreign encoder might write it.
fn integer(v: u32, dice: &mut Dice) -> String {
    match dice.roll(8) {
        0 => format!("{v}.0"),
        1 => format!("{v}e0"),
        2 if v != 0 => format!("{v}0e-1"),
        3 if v == 0 => "-0".to_string(),
        _ => v.to_string(),
    }
}

/// Renders a batch as a valid body in a style the dice pick: whitespace
/// between tokens, members in any order, `containers` left out when empty,
/// members the decoder has no use for, integers in float clothing. The
/// compact rendering of `span_batch_to_json` is one point of this space.
fn body_of(batch: &SpanBatch, dice: &mut Dice) -> String {
    let gap = |dice: &mut Dice| [" ", "", "", "\n", "\t ", "\r\n"][dice.roll(6) as usize];
    let float = |v: f64| Json::Num(v).render();
    let mut members = vec![format!(
        "\"sampling\":{}{}",
        gap(dice),
        float(batch.sampling)
    )];
    if !batch.containers.is_empty() || dice.roll(2) == 0 {
        let pairs: Vec<String> = batch
            .containers
            .iter()
            .map(|(ms, &n)| {
                format!(
                    "[{}{},{}]",
                    gap(dice),
                    integer(ms.index() as u32, dice),
                    integer(n, dice)
                )
            })
            .collect();
        members.push(format!("\"containers\"{}:[{}]", gap(dice), pairs.join(",")));
    }
    let spans: Vec<String> = batch
        .spans
        .iter()
        .map(|s| {
            format!(
                "[{},{}{},{},{},{},{}{}]",
                integer(s.service.index() as u32, dice),
                gap(dice),
                integer(s.microservice.index() as u32, dice),
                integer(s.container, dice),
                integer(s.priority_class, dice),
                float(s.start_ms),
                float(s.end_ms),
                gap(dice),
            )
        })
        .collect();
    members.push(format!(
        "\"sp\\u0061ns\":{}[{}]",
        gap(dice),
        spans.join(",")
    ));
    if dice.roll(3) == 0 {
        members.push(r#""meta":{"agent":"x\"y","tags":[1,{"deep":null}],"ok":true}"#.to_string());
    }
    // A rotation is enough to put every member first and last.
    let turn = dice.roll(members.len() as u64) as usize;
    members.rotate_left(turn);
    format!(
        "{}{{{}{}{}}}{}",
        gap(dice),
        gap(dice),
        members.join(&format!("{},{}", gap(dice), gap(dice))),
        gap(dice),
        gap(dice)
    )
}

/// Flip, delete, insert or truncate at positions the dice pick. Inserted
/// and flipped-to bytes lean towards the ones the grammar cares about.
pub(crate) fn mutate(body: &str, dice: &mut Dice) -> Vec<u8> {
    const LOADED: &[u8] = b"[]{},:\"\\-+.eE0123456789 \n\x00\x7f\xc3\xff";
    let mut bytes = body.as_bytes().to_vec();
    for _ in 0..=dice.roll(3) {
        // A quarter of the positions hug an end of the body: that is where
        // the document's own brackets and whatever trails it sit.
        let len = bytes.len() as u64;
        let at = match dice.roll(8) {
            0 => dice.roll(len.min(8) + 1),
            1 => len - dice.roll(len.min(8) + 1),
            _ => dice.roll(len + 1),
        } as usize;
        let byte = if dice.roll(4) == 0 {
            dice.roll(256) as u8
        } else {
            LOADED[dice.roll(LOADED.len() as u64) as usize]
        };
        match dice.roll(4) {
            0 => bytes.insert(at, byte),
            1 => bytes.truncate(at),
            2 if at < bytes.len() => bytes[at] = byte,
            _ if at < bytes.len() => drop(bytes.remove(at)),
            _ => {}
        }
    }
    bytes
}

fn tree_decode(text: &str) -> Result<SpanBatch, String> {
    let tree = Json::parse(text).map_err(|e| e.to_string())?;
    span_batch_from_json(&tree)
}

fn batch_bits(b: &SpanBatch) -> (u64, Vec<(u32, u32)>, Vec<[u64; 6]>) {
    (
        b.sampling.to_bits(),
        b.containers
            .iter()
            .map(|(ms, &n)| (ms.index() as u32, n))
            .collect(),
        b.spans
            .iter()
            .map(|s| {
                [
                    s.service.index() as u64,
                    s.microservice.index() as u64,
                    u64::from(s.container),
                    u64::from(s.priority_class),
                    s.start_ms.to_bits(),
                    s.end_ms.to_bits(),
                ]
            })
            .collect(),
    )
}

/// A daemon with one tenant that has a plan (`planned`) and one that has
/// none (`bare`, which refuses a batch without `containers`), and a view of
/// everything a request could have changed.
struct Daemon {
    plane: ControlPlane,
    client: Client,
    /// The registry's snapshot JSON after the last request that was taken.
    state: String,
}

impl Daemon {
    fn start() -> Self {
        Self::start_with(ControlPlaneConfig::default())
    }

    fn start_with(config: ControlPlaneConfig) -> Self {
        // Two hosts: the pool is most of a small registry's snapshot, which
        // is rendered after every request.
        let pool = vec![Host::paper_host(), Host::paper_host()];
        let plane = ControlPlane::start(config, Registry::new(pool)).expect("start");
        let mut client = Client::new(plane.addr()).unwrap();
        for id in ["planned", "bare"] {
            let body = Json::obj(vec![
                ("id", Json::str(id)),
                ("app", app_to_json(&two_microservice_app())),
            ])
            .render();
            let (status, _) = client
                .request("POST", "/v1/tenants", Some(body.as_bytes()))
                .unwrap();
            assert_eq!(status, 201);
        }
        plane.with_tenant("planned", |t| {
            t.workloads = WorkloadVector::uniform(&t.app, RequestRate::per_minute(6_000.0));
            assert!(!t.replan().skipped);
        });
        let state = plane.with_registry(|r| snapshot::text(r));
        Self {
            plane,
            client,
            state,
        }
    }

    /// Posts a span body to one tenant. A 400 must leave every byte of the
    /// registry's snapshot JSON as it was; anything but 200 and 400 is an
    /// error. Returns the status and the reply.
    fn post(&mut self, id: &str, body: &[u8]) -> Result<(u16, String), String> {
        let (status, reply) = self
            .client
            .request("POST", &format!("/v1/tenants/{id}/spans"), Some(body))
            .map_err(|e| format!("the daemon dropped the request: {e}"))?;
        let reply = String::from_utf8_lossy(&reply).into_owned();
        let now = self.plane.with_registry(|r| snapshot::text(r));
        match status {
            200 => self.state = now,
            400 if now == self.state => {}
            400 => return Err(format!("a refused batch changed tenant `{id}`: {reply}")),
            other => return Err(format!("status {other}: {reply}")),
        }
        Ok((status, reply))
    }
}

/// Property (ii) on one mutated body: the two decoders agree on whether it
/// is a batch (and on the batch), and the daemon takes it exactly when they
/// do and it names only microservices of the tenants' app, leaving no trace
/// of a body it refused. Returns the verdict.
fn check_mutated(daemon: &mut Daemon, bytes: &[u8]) -> Result<bool, String> {
    let known = two_microservice_app().microservice_count();
    let accepted = match std::str::from_utf8(bytes) {
        Ok(text) => match (span_batch_from_text(text), tree_decode(text)) {
            (Ok(streamed), Ok(tree)) if batch_bits(&streamed) == batch_bits(&tree) => {
                let mut named = streamed.containers.keys().copied();
                let mut spans = streamed.spans.iter().map(|span| span.microservice);
                named.all(|ms| ms.index() < known) && spans.all(|ms| ms.index() < known)
            }
            (Err(_), Err(_)) => false,
            (streamed, tree) => {
                return Err(format!(
                    "decoders disagree on {text:?}: streamed {streamed:?}, tree {tree:?}"
                ))
            }
        },
        Err(_) => false,
    };
    daemon.post("bare", bytes)?;
    let taken = daemon.post("planned", bytes)?.0 == 200;
    if taken == accepted {
        Ok(accepted)
    } else {
        Err(format!(
            "decoders say {accepted}, the daemon said {taken}: {:?}",
            String::from_utf8_lossy(bytes)
        ))
    }
}

type Rows = Vec<(u32, u32, u32, f64, f64)>;

fn rows() -> impl Strategy<Value = Rows> {
    prop::collection::vec(
        (0u32..2, 0u32..4, 0u32..3, 0.0f64..3_000.0, 0.0f64..40.0),
        0..64,
    )
}

fn mutated_bodies(cases: u32, seed: u64) {
    let mut daemon = Daemon::start();
    let mut dice = Dice(seed);
    let template = {
        let rows: Rows = (0..12)
            .map(|i| (i % 2, i % 3, 0, f64::from(i) * 211.5, 3.25 + f64::from(i)))
            .collect();
        batch_from(&rows, 0.5, &[2, 1])
    };
    let mut accepted = 0;
    for case in 0..cases {
        let body = body_of(&template, &mut dice);
        let bytes = mutate(&body, &mut dice);
        match check_mutated(&mut daemon, &bytes) {
            Ok(verdict) => accepted += u32::from(verdict),
            Err(why) => panic!("case {case} of seed {seed}: {why}"),
        }
    }
    daemon.plane.stop();
    // The mutants have to land on both sides of the line to test it.
    let share = f64::from(accepted) / f64::from(cases);
    assert!(
        (0.05..0.95).contains(&share),
        "{accepted} of {cases} accepted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (i) Any valid body, however it is written, decodes to the same batch
    /// bits both ways and adds the same samples to a tenant.
    #[test]
    fn streamed_decode_equals_tree_decode(
        rows in rows(),
        sampling in 0.01f64..1.0,
        deployed in prop::collection::vec(0u32..4, 0..3),
        style in any::<u64>(),
    ) {
        let batch = batch_from(&rows, sampling, &deployed);
        let body = body_of(&batch, &mut Dice(style));
        let streamed = span_batch_from_text(&body);
        let tree = tree_decode(&body);
        prop_assert!(streamed.is_ok() && tree.is_ok(), "{streamed:?} / {tree:?} on {body}");
        let (streamed, tree) = (streamed.unwrap(), tree.unwrap());
        prop_assert_eq!(batch_bits(&streamed), batch_bits(&batch));
        prop_assert_eq!(batch_bits(&tree), batch_bits(&batch));

        let pool = Registry::paper_pool();
        let mut a = Tenant::new("a", two_microservice_app(), pool.pool());
        let mut b = Tenant::new("b", two_microservice_app(), pool.pool());
        prop_assert_eq!(a.ingest(&streamed), b.ingest(&tree));
        let sample_bits = |t: &Tenant| -> BTreeMap<MicroserviceId, Vec<[u64; 4]>> {
            t.profiler
                .samples()
                .iter()
                .map(|(&ms, bucket)| {
                    let bits = |s: &erms_profilers::dataset::Sample| {
                        [s.latency_ms, s.gamma, s.cpu, s.mem].map(f64::to_bits)
                    };
                    (ms, bucket.iter().map(bits).collect())
                })
                .collect()
        };
        prop_assert_eq!(sample_bits(&a), sample_bits(&b));
    }
}

/// (ii) Byte-mutated valid bodies: flip, delete, insert, truncate.
#[test]
fn mutated_bodies_are_judged_alike_and_leave_no_trace() {
    mutated_bodies(400, 0x5EED);
}

/// The long form of (ii) that CI's `bench-smoke` job runs in release:
/// `cargo test -p erms-control --release -- --ignored wire_fuzz`.
#[test]
#[ignore = "50 000 requests; run in release"]
fn wire_fuzz() {
    mutated_bodies(50_000, 0xF022);
}

/// The corners byte mutation seldom reaches, one by one: both decoders give
/// the stated verdict, and the same batch when they accept.
#[test]
fn decoders_agree_on_the_corner_cases() {
    let nested = |depth: usize| {
        format!(
            "{{\"sampling\":1,\"spans\":[],\"x\":{}{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    let cases: Vec<(String, bool)> = [
        (r#"{"sampling":1,"spans":[]}"#, true),
        (r#" { "spans" : [ ] , "sampling" : 1e0 } "#, true),
        (
            r#"{"sampling":1,"spans":[[0,0,0,0,1E0,2e+0]],"x":{"y":[null,"z"]}}"#,
            true,
        ),
        (
            r#"{"sampling":1,"containers":[[0,1],[0,3]],"spans":[]}"#,
            true,
        ),
        (r#"{"sampling":1,"spans":[],"sampling":1}"#, false),
        (r#"{"sampling":1,"spans":[],"spans":[]}"#, false),
        (r#"{"sampling":1,"spans":[],"x":1,"x":2}"#, false),
        (r#"{"sampling":1,"spans":[],"x":{"a":1,"a":2}}"#, false),
        (r#"{"sampling":1,"spans":[],"x":[1,]}"#, false),
        (r#"{"sampling":1,"spans":[],"x":"\ud800"}"#, false),
        (r#"{"sampling":1,"spans":[]} x"#, false),
        (r#"{"sampling":1,"spans":[]}}"#, false),
        (r#"{"sampling":1,"spans":[],}"#, false),
        ("", false),
        ("[]", false),
        ("null", false),
        (r#"{"spans":[]}"#, false),
        (r#"{"sampling":1}"#, false),
        (r#"{"sampling":0,"spans":[]}"#, false),
        (r#"{"sampling":1.5,"spans":[]}"#, false),
        (r#"{"sampling":"1","spans":[]}"#, false),
        (r#"{"sampling":1e400,"spans":[]}"#, false),
        (r#"{"sampling":1,"containers":null,"spans":[]}"#, false),
        (r#"{"sampling":1,"containers":[[0,1,2]],"spans":[]}"#, false),
        (r#"{"sampling":1,"containers":[[0,-1]],"spans":[]}"#, false),
        (r#"{"sampling":1,"spans":{}}"#, false),
        (r#"{"sampling":1,"spans":[[0,0,0,0,1]]}"#, false),
        (r#"{"sampling":1,"spans":[[0,0,0,0,1,2,3]]}"#, false),
        (r#"{"sampling":1,"spans":[[0,0,0,0,1,null]]}"#, false),
        (r#"{"sampling":1,"spans":[[0,0,0,0,01,2]]}"#, false),
        (r#"{"sampling":1,"spans":[[0,0,0,0,1,2],]}"#, false),
    ]
    .into_iter()
    .map(|(body, verdict)| (body.to_string(), verdict))
    .chain([(nested(100), true), (nested(200), false)])
    .chain(id_cases())
    .chain(end_cases().into_iter().map(|(start, end, verdict)| {
        (
            format!(r#"{{"sampling":1,"spans":[[0,0,0,0,{start},{end}]]}}"#),
            verdict,
        )
    }))
    .collect();
    for (body, verdict) in cases {
        let (streamed, tree) = (span_batch_from_text(&body), tree_decode(&body));
        assert_eq!(streamed.is_ok(), verdict, "streamed, {body}: {streamed:?}");
        assert_eq!(tree.is_ok(), verdict, "tree, {body}: {tree:?}");
        if let (Ok(streamed), Ok(tree)) = (streamed, tree) {
            assert_eq!(batch_bits(&streamed), batch_bits(&tree), "{body}");
        }
    }
}

/// Span bodies whose ids the row reader's integer path must judge as the
/// general reader does: integers written as other numbers, leading zeros,
/// the ends of the `u32` range, runs of ten digits, whitespace at every
/// separator.
fn id_cases() -> Vec<(String, bool)> {
    let body = |row: &str| format!(r#"{{"sampling":1,"containers":[[7,1]],"spans":[{row}]}}"#);
    let mut cases = Vec::new();
    for (id, verdict) in [
        ("3", true),
        ("3.0", true),
        ("3e0", true),
        ("30e-1", true),
        ("-0", true),
        ("-0.0", true),
        ("0", true),
        ("007", false),
        ("00", false),
        ("-3", false),
        ("3.5", false),
        ("123456789", true),
        ("999999999", true),
        ("1234567890", true),
        ("4294967295", true),
        ("4294967296", false),
        ("9999999999", false),
        ("12345678901", false),
        ("1e9", true),
        ("1e10", false),
    ] {
        for field in 0..4 {
            let mut ids = ["0"; 4];
            ids[field] = id;
            cases.push((body(&format!("[{},1,2]", ids.join(","))), verdict));
        }
    }
    let fields = ["1", "2", "3", "4", "5.5", "6.25"];
    for ws in [" ", "\n", "\t", "\r", " \n\t "] {
        for at in 0..=fields.len() {
            // Whitespace after the `[`, after field `at - 1`, or both
            // around one separator.
            let mut row = String::from("[");
            for (i, field) in fields.iter().enumerate() {
                if i == at {
                    row.push_str(ws);
                }
                row.push_str(field);
                if i + 1 == at {
                    row.push_str(ws);
                }
                row.push(if i + 1 == fields.len() { ']' } else { ',' });
            }
            cases.push((body(&row), true));
        }
        cases.push((
            body(&format!("[1,2,3,4,5.5,6.25]{ws},{ws}[1,2,3,4,5,6]")),
            true,
        ));
        cases.push((body(&format!("{ws}[1,2,3,4,5.5,6.25]{ws}")), true));
        cases.push((
            format!(r#"{{"sampling":1,"containers":[{ws}[{ws}7{ws},{ws}1{ws}]{ws}],"spans":[]}}"#),
            true,
        ));
    }
    cases
}

/// Ends the row reader's decimal path must read as `str::parse` does, or
/// leave to the general reader: more digits than a `u64` holds, exponents,
/// signed zeros, mantissas above 2^53. Each with the verdict on a span that
/// starts at the first and ends at the second.
fn end_cases() -> Vec<(&'static str, &'static str, bool)> {
    vec![
        // 17, 18 and 19 digits, above 2^53.
        ("123.45678901234567", "123.456789012345678", true),
        ("1234.567890123456789", "9999.999999999999999", true),
        ("9007199254740993", "9007199254740993.5", true),
        ("0.9007199254740993", "9.007199254740993", true),
        // Exactly 19 digits and 20: the second goes to `from_str`.
        ("1234567890.123456789", "12345678901.123456789", true),
        ("0.123456789012345678", "0.1234567890123456789", true),
        ("9999999999999999999", "99999999999999999999", true),
        // Signed zeros.
        ("-0.0", "0", true),
        ("-0", "-0.0", true),
        ("0.0", "-0.0", true),
        // Exponents.
        ("1.5e3", "15E2", true),
        ("15E-1", "2e+0", true),
        ("1e0", "1.0000000000000000001e0", true),
        ("1e-400", "1e-300", true),
        // Malformed.
        ("1.", "2", false),
        (".5", "2", false),
        ("1e", "2", false),
        ("1e+", "2", false),
        ("+1", "2", false),
        ("1", "2.5.1", false),
        ("1", "1e999", false),
    ]
}

/// A decimal of either span end decodes, through both decoders, to the
/// bits `str::parse` gives its text.
#[test]
fn span_ends_read_as_str_parse_reads_them() {
    for (start, end, verdict) in end_cases() {
        if !verdict {
            continue;
        }
        let body = format!(r#"{{"sampling":1,"spans":[[0,0,0,0,{start},{end}]]}}"#);
        for batch in [span_batch_from_text(&body), tree_decode(&body)] {
            let span = batch.expect("a valid span").spans[0];
            let expected = [start, end].map(|t| t.parse::<f64>().unwrap().to_bits());
            assert_eq!(
                [span.start_ms, span.end_ms].map(f64::to_bits),
                expected,
                "{body}"
            );
        }
    }
}

/// What `as u32` used to clamp, a span that ends before it starts, and a
/// sampling rate that overflows a window's rate are refused by both
/// decoders with a message naming the field, and by the daemon with a 400
/// that changes nothing — so the next snapshot still renders.
#[test]
fn clamped_span_fields_are_refused() {
    let snapshot_path =
        std::env::temp_dir().join(format!("erms-wire-tests-{}.json", std::process::id()));
    let mut daemon = Daemon::start_with(ControlPlaneConfig {
        snapshot_path: Some(snapshot_path.clone()),
        ..ControlPlaneConfig::default()
    });
    let span = |container: &str, class: &str, start: &str, end: &str| {
        format!(
            "{{\"sampling\":1,\"containers\":[[0,1]],\"spans\":[[0,0,{container},{class},{start},{end}]]}}"
        )
    };
    assert!(span_batch_from_text(&span("2", "1", "5", "5")).is_ok());
    for (body, field) in [
        (span("-1", "0", "1", "2"), "container"),
        (span("2.7", "0", "1", "2"), "container"),
        (span("1e99", "0", "1", "2"), "container"),
        (span("4294967296", "0", "1", "2"), "container"),
        (span("0", "-1", "1", "2"), "priority_class"),
        (span("0", "0.5", "1", "2"), "priority_class"),
        (span("0", "1e10", "1", "2"), "priority_class"),
        (span("0", "0", "2", "1"), "end_ms"),
        (span("0", "0", "-1", "-2"), "end_ms"),
        (span("0", "0", "-1e308", "1e308"), "end_ms"),
        // Eight spans fill a window: taken, 8 / 1e-320 is a rate of `inf`.
        (
            format!(
                "{{\"sampling\":1e-320,\"containers\":[[0,1]],\"spans\":[{}]}}",
                ["[0,0,0,0,1,2]"; 8].join(",")
            ),
            "sampling",
        ),
    ] {
        for decoded in [span_batch_from_text(&body), tree_decode(&body)] {
            let why = decoded.expect_err(&body);
            assert!(why.contains(field), "{body}: {why}");
        }
        let (status, reply) = daemon.post("planned", body.as_bytes()).unwrap();
        assert_eq!(status, 400, "{body}: {reply}");
        assert!(reply.contains(field), "{body}: {reply}");
    }
    let (status, reply) = daemon.client.request("POST", "/v1/snapshot", None).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    std::fs::remove_file(&snapshot_path).ok();
    daemon.plane.stop();
}
