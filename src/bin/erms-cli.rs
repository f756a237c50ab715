//! `erms-cli` — explore the Erms reproduction from the command line.
//!
//! ```console
//! erms-cli plan --app social-network --rate 40000 --sla 200 [--fcfs]
//! erms-cli compare --app hotel-reservation --rate 25000 --sla 150
//! erms-cli sharing --services 1000
//! erms-cli simulate --rate 40000 --sla 300 [--delta 0.05]
//! erms-cli serve --addr 127.0.0.1:7463 --workers 4 --snapshot state.json
//! erms-cli status --addr 127.0.0.1:7463
//! erms-cli snapshot --addr 127.0.0.1:7463
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency set to the approved offline crates.

use std::collections::BTreeMap;
use std::process::ExitCode;

use erms::baselines::{Firm, GrandSlam, Rhythm};
use erms::control::snapshot as control_snapshot;
use erms::control::{Client, ControlPlane, ControlPlaneConfig, Json, Registry};
use erms::core::prelude::*;
use erms::sim::runtime::{SimConfig, Simulation};
use erms::sim::service_time::derive_from_profile;
use erms::trace::alibaba::{generate, AlibabaConfig};
use erms::workload::apps::{self, BenchmarkApp};

/// Parsed `--key value` arguments.
struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Numeric options: `f64` ones must be finite and non-negative (a leading
/// `-` is a value here, not a flag: `--rate -5`).
const F64_KEYS: [&str; 5] = ["rate", "sla", "cpu", "mem", "delta"];
const USIZE_KEYS: [&str; 4] = ["services", "pool", "seed", "workers"];

impl Args {
    /// Splits `--key value` pairs from bare `--flag`s and rejects numeric
    /// options that do not parse, so no command ever runs on a default the
    /// user did not ask for.
    fn parse(raw: &[String]) -> std::result::Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            if let Some(key) = arg.strip_prefix("--") {
                if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                    values.insert(key.to_string(), raw[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        for (key, value) in &values {
            if F64_KEYS.contains(&key.as_str()) {
                if !value
                    .parse::<f64>()
                    .is_ok_and(|v| v.is_finite() && v >= 0.0)
                {
                    return Err(format!(
                        "--{key} {value:?} is not a finite non-negative number"
                    ));
                }
            } else if USIZE_KEYS.contains(&key.as_str()) && value.parse::<usize>().is_err() {
                return Err(format!("--{key} {value:?} is not a non-negative integer"));
            }
        }
        if let Some(key) = flags
            .iter()
            .find(|f| F64_KEYS.contains(&f.as_str()) || USIZE_KEYS.contains(&f.as_str()))
        {
            return Err(format!("--{key} needs a value"));
        }
        Ok(Self { values, flags })
    }

    fn f64(&self, key: &str, default: f64) -> f64 {
        debug_assert!(F64_KEYS.contains(&key));
        self.values
            .get(key)
            .map_or(default, |v| v.parse().expect("checked in Args::parse"))
    }

    fn usize(&self, key: &str, default: usize) -> usize {
        debug_assert!(USIZE_KEYS.contains(&key));
        self.values
            .get(key)
            .map_or(default, |v| v.parse().expect("checked in Args::parse"))
    }

    fn str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn benchmark_app(name: &str, sla: f64) -> Option<BenchmarkApp> {
    match name {
        "social-network" => Some(apps::social_network(sla)),
        "media-service" => Some(apps::media_service(sla)),
        "hotel-reservation" => Some(apps::hotel_reservation(sla)),
        _ => None,
    }
}

fn usage() {
    eprintln!(
        "usage: erms-cli <command> [--key value ...]\n\
         \n\
         commands:\n\
           plan      compute an Erms scaling plan\n\
                     --app social-network|media-service|hotel-reservation\n\
                     --rate <req/min> --sla <ms> --cpu <0..1> --mem <0..1> [--fcfs]\n\
           compare   compare Erms against Firm/GrandSLAm/Rhythm\n\
                     (same options as plan)\n\
           sharing   print the microservice-sharing CDF of a synthetic\n\
                     Alibaba-like topology  --services N --pool N --seed N\n\
           simulate  run the Fig. 5 sharing scenario in the discrete-event\n\
                     simulator  --rate <req/min> --sla <ms> --delta <0..1>\n\
           serve     run the erms-control HTTP control plane\n\
                     --addr host:port (default 127.0.0.1:0)\n\
                     --workers N --snapshot <path> [--restore]\n\
           status    query a running control plane\n\
                     --addr host:port\n\
           snapshot  ask a running control plane to write its snapshot\n\
                     --addr host:port"
    );
}

fn cmd_plan(args: &Args) -> Result<()> {
    let sla = args.f64("sla", 200.0);
    let app_name = args.str("app", "social-network");
    let Some(bench) = benchmark_app(&app_name, sla) else {
        eprintln!("unknown app {app_name:?}");
        return Ok(());
    };
    let app = &bench.app;
    let rate = args.f64("rate", 20_000.0);
    let itf = Interference::new(args.f64("cpu", 0.45), args.f64("mem", 0.40));
    let mode = if args.flag("fcfs") {
        SchedulingMode::Fcfs
    } else {
        SchedulingMode::Priority
    };
    let w = WorkloadVector::uniform(app, RequestRate::per_minute(rate));
    let plan = ErmsScaler::new(app).with_mode(mode).plan(&w, itf)?;
    println!(
        "{} @ {rate} req/min per service, SLA {sla} ms, interference ({:.0}%, {:.0}%):",
        app.name(),
        itf.cpu * 100.0,
        itf.memory * 100.0
    );
    let mut rows: Vec<(String, u32)> = app
        .microservices()
        .map(|(ms, m)| (m.name.clone(), plan.containers(ms)))
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, n) in rows.iter().take(12) {
        println!("  {name:<24} {n:>5}");
    }
    if rows.len() > 12 {
        println!("  ... {} more microservices", rows.len() - 12);
    }
    println!("  total: {} containers", plan.total_containers());
    for ms in app.shared_microservices() {
        if let Some(order) = plan.priority_order(ms) {
            let names: Vec<String> = order
                .iter()
                .map(|&s| app.service(s).map(|x| x.name.clone()).unwrap_or_default())
                .collect();
            println!(
                "  priority at {:<18} {}",
                app.microservice(ms)?.name,
                names.join(" > ")
            );
        }
    }
    let ok = plan_meets_slas(app, &plan, &w, &itf)?;
    println!("  SLAs satisfied in-model: {ok}");
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<()> {
    let sla = args.f64("sla", 200.0);
    let app_name = args.str("app", "social-network");
    let Some(bench) = benchmark_app(&app_name, sla) else {
        eprintln!("unknown app {app_name:?}");
        return Ok(());
    };
    let app = &bench.app;
    let rate = args.f64("rate", 20_000.0);
    let itf = Interference::new(args.f64("cpu", 0.45), args.f64("mem", 0.40));
    let w = WorkloadVector::uniform(app, RequestRate::per_minute(rate));
    let config = ScalerConfig::default();
    let ctx = ScalingContext {
        app,
        workloads: &w,
        interference: itf,
        config: &config,
    };
    let mut schemes: Vec<Box<dyn Autoscaler>> = vec![
        Box::new(Erms::new()),
        Box::new(Firm::new()),
        Box::new(GrandSlam::new()),
        Box::new(Rhythm::new()),
    ];
    println!("{:<12} {:>10} {:>14}", "scheme", "containers", "SLAs met");
    for scheme in &mut schemes {
        let rounds = if scheme.name() == "firm" { 8 } else { 1 };
        let mut plan = scheme.plan(&ctx)?;
        for _ in 1..rounds {
            plan = scheme.plan(&ctx)?;
        }
        let ok = plan_meets_slas(app, &plan, &w, &itf)?;
        println!(
            "{:<12} {:>10} {:>14}",
            scheme.name(),
            plan.total_containers(),
            ok
        );
    }
    Ok(())
}

fn cmd_sharing(args: &Args) {
    let config = AlibabaConfig {
        services: args.usize("services", 1000),
        microservice_pool: args.usize("pool", 20_000),
        seed: args.usize("seed", 2023) as u64,
        ..AlibabaConfig::fig2(2023)
    };
    let generated = generate(&config);
    println!(
        "{} services, {} referenced microservices, {} shared",
        config.services,
        generated.sharing_counts.len(),
        generated.shared_count()
    );
    for (t, cdf) in generated.sharing_cdf(&[1, 2, 5, 10, 50, 100, 200, 500]) {
        println!("  shared by <= {t:>4} services: {:>5.1}%", cdf * 100.0);
    }
}

fn cmd_simulate(args: &Args) -> Result<()> {
    let sla = args.f64("sla", 300.0);
    let rate = args.f64("rate", 40_000.0);
    let delta = args.f64("delta", 0.05);
    let (app, _, [s1, s2]) = apps::fig5_app(sla);
    let itf = Interference::new(args.f64("cpu", 0.45), args.f64("mem", 0.40));
    let mut w = WorkloadVector::new();
    w.set(s1, RequestRate::per_minute(rate));
    w.set(s2, RequestRate::per_minute(rate));
    let plan = ErmsScaler::new(&app).plan(&w, itf)?;
    println!(
        "plan: {} containers, running discrete-event validation (delta = {delta})...",
        plan.total_containers()
    );
    let mut sim = Simulation::new(
        &app,
        SimConfig {
            duration_ms: 90_000.0,
            warmup_ms: 15_000.0,
            scheduling: erms::sim::Scheduling::Priority { delta },
            ..SimConfig::default()
        },
    );
    for (ms, m) in app.microservices() {
        let (model, threads) = derive_from_profile(&m.profile, itf, 0.75);
        sim.set_service_time(ms, model);
        sim.set_threads(ms, threads);
    }
    sim.set_uniform_interference(itf);
    let containers: BTreeMap<_, _> = app
        .microservices()
        .map(|(ms, _)| (ms, plan.containers(ms)))
        .collect();
    let mut priorities = BTreeMap::new();
    for ms in app.shared_microservices() {
        if let Some(order) = plan.priority_order(ms) {
            priorities.insert(ms, order.to_vec());
        }
    }
    let result = sim.run(&w, &containers, &priorities)?;
    for (sid, svc) in app.services() {
        println!(
            "  {:<8} P95 = {:>7.1} ms  (SLA {sla} ms, violations {:.1}%)",
            svc.name,
            result.latency_percentile(sid, 0.95),
            result.violation_rate(sid, sla) * 100.0
        );
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> std::result::Result<(), String> {
    let snapshot_path = args.values.get("snapshot").map(std::path::PathBuf::from);
    let registry = match (&snapshot_path, args.flag("restore")) {
        (Some(path), true) => {
            let restored = control_snapshot::load(path)?;
            eprintln!(
                "restored {} tenant(s) from {}",
                restored.len(),
                path.display()
            );
            restored
        }
        _ => Registry::paper_pool(),
    };
    let config = ControlPlaneConfig {
        addr: args.str("addr", "127.0.0.1:0"),
        workers: args.usize("workers", 4),
        snapshot_path,
    };
    let plane = ControlPlane::start(config, registry).map_err(|e| format!("bind failed: {e}"))?;
    // The exact "listening on" line is the startup handshake: tools (and
    // the CLI smoke test) read it from stdout to learn the ephemeral port.
    println!("listening on {}", plane.addr());
    plane.wait();
    Ok(())
}

fn remote(args: &Args) -> std::result::Result<Client, String> {
    let addr = args
        .values
        .get("addr")
        .ok_or_else(|| "missing --addr host:port of a running `erms-cli serve`".to_string())?;
    Client::new(addr.as_str()).map_err(|e| format!("connect to {addr}: {e}"))
}

fn cmd_status(args: &Args) -> std::result::Result<(), String> {
    let mut client = remote(args)?;
    let (status, body) = client
        .request("GET", "/healthz", None)
        .map_err(|e| format!("healthz: {e}"))?;
    if status != 200 {
        return Err(format!("healthz returned HTTP {status}"));
    }
    let health = Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
    println!(
        "control plane: {} ({} requests served, draining: {})",
        health.get("status").and_then(Json::as_str).unwrap_or("?"),
        health.get("requests").and_then(Json::as_f64).unwrap_or(0.0),
        health
            .get("draining")
            .and_then(Json::as_bool)
            .unwrap_or(false)
    );
    let (status, body) = client
        .request("GET", "/v1/tenants", None)
        .map_err(|e| format!("tenants: {e}"))?;
    if status != 200 {
        return Err(format!("tenant listing returned HTTP {status}"));
    }
    let tenants = Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
    let tenants = tenants.as_arr().unwrap_or(&[]);
    println!("tenants: {}", tenants.len());
    for t in tenants {
        println!(
            "  {:<16} app {:<20} rounds {:>4}  spans {:>8}  containers {}",
            t.get("id").and_then(Json::as_str).unwrap_or("?"),
            t.get("app").and_then(Json::as_str).unwrap_or("?"),
            t.get("rounds").and_then(Json::as_f64).unwrap_or(0.0),
            t.get("spans_ingested")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            t.get("plan_containers")
                .and_then(Json::as_f64)
                .map_or("-".to_string(), |c| format!("{c}")),
        );
    }
    Ok(())
}

fn cmd_snapshot(args: &Args) -> std::result::Result<(), String> {
    let mut client = remote(args)?;
    let (status, body) = client
        .request("POST", "/v1/snapshot", None)
        .map_err(|e| format!("snapshot: {e}"))?;
    let text = String::from_utf8_lossy(&body).to_string();
    if status != 200 {
        let detail = Json::parse(&text)
            .ok()
            .and_then(|j| j.get("error").and_then(Json::as_str).map(str::to_string))
            .unwrap_or(text);
        return Err(format!("snapshot refused (HTTP {status}): {detail}"));
    }
    let reply = Json::parse(&text).map_err(|e| e.to_string())?;
    println!(
        "snapshot written: {} bytes, {} tenant(s) -> {}",
        reply.get("bytes").and_then(Json::as_f64).unwrap_or(0.0),
        reply.get("tenants").and_then(Json::as_f64).unwrap_or(0.0),
        reply.get("path").and_then(Json::as_str).unwrap_or("?"),
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        usage();
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&raw[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command.as_str() {
        "plan" => cmd_plan(&args),
        "compare" => cmd_compare(&args),
        "sharing" => {
            cmd_sharing(&args);
            Ok(())
        }
        "simulate" => cmd_simulate(&args),
        "serve" | "status" | "snapshot" => {
            let run = match command.as_str() {
                "serve" => cmd_serve(&args),
                "status" => cmd_status(&args),
                _ => cmd_snapshot(&args),
            };
            return match run {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        other => {
            eprintln!("error: unknown command {other:?}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
