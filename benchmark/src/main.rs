//! The pipeline benchmark of the Erms reproduction.
//!
//! ```text
//! erms-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                    [--quick] [--out FILE] [--list]
//! erms-benchmark aa  [--seed N] [--seconds S] [--quick]
//! ```
//!
//! `run --workload NAME` measures one workload in this process and ends its
//! output with the one-line JSON result the acceptance driver reads. `run`
//! without a workload measures all five, each in a child process of its own
//! (so `peak_rss_mb` is per workload), untraced and traced, and prints one
//! table. `aa` measures the untraced set twice on the same build and fails
//! when two runs of the same code disagree by more than a metric's bound.
//! See `benchmark/README.md` for every name printed.

mod catalogue;
mod host;
mod report;
mod sched;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use erms::control::Json;

use catalogue::{Better, END_TO_END, WORKLOADS};
use report::Report;
use workloads::{control_mix, des, drift_loop, replan_churn, Params};

/// The command `BENCHMARK.json` declares; the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Ten repetitions of about [`workloads::REP_SECONDS`] seconds each.
pub const RUN_SECONDS: u32 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    /// `None`: both modes when running all workloads.
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        quick: false,
        out: None,
        list: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--out" => parsed.out = Some(value()?.clone()),
            "--quick" => parsed.quick = true,
            "--list" => parsed.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &parsed.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(parsed)
}

/// Every workload and metric name with its unit, direction and bound, in
/// the very form `BENCHMARK.json` holds them.
fn list() {
    print!("{}", catalogue::benchmark_json(&COMMAND, RUN_SECONDS));
}

/// Measures one workload in this process.
fn run_one(workload: &str, args: &Args) -> Report {
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.unwrap_or(false),
        quick: args.quick,
    };
    // The sharded-engine probes widen this themselves.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let outcome = match workload {
        "drift_loop" => drift_loop::run(&params),
        "des_hot" => des::run(des::Kind::Hot, &params),
        "des_taobao" => des::run(des::Kind::Taobao, &params),
        "replan_churn" => replan_churn::run(&params),
        "control_mix" => control_mix::run(&params),
        other => unreachable!("{other} passed validation"),
    };
    if params.trace {
        let path = host::out_dir().join(format!("trace-{workload}.json"));
        let text = trace::to_json(workload, params.seed, &outcome.spans).render();
        std::fs::write(&path, text).expect("write the trace file");
        println!("trace: {} spans in {}", outcome.spans.len(), path.display());
    }
    Report::new(workload, &params, &outcome)
}

/// Measures one workload in a child process and reads its report back.
fn run_child(workload: &str, trace: bool, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut tail = stdout.lines().rev();
    let contract = tail.next().and_then(|l| Json::parse(l).ok());
    let detail = tail
        .next()
        .and_then(|l| l.strip_prefix("detail: "))
        .and_then(|l| Json::parse(l).ok());
    match (output.status.success(), detail, contract) {
        (true, Some(detail), Some(contract)) => {
            Report::parse(&detail, &contract).ok_or_else(|| format!("{workload}: malformed result"))
        }
        _ => Err(format!(
            "{workload}: child failed ({})\n{stdout}",
            output.status
        )),
    }
}

/// Measures every workload (or the one asked for), in children.
fn run_set(args: &Args, modes: &[bool]) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
    {
        for &trace in modes {
            let report = run_child(w.name, trace, args)?;
            report.print_text();
            reports.push(report);
        }
    }
    Ok(reports)
}

fn env_json(args: &Args, reports: &[Report]) -> Json {
    let noise = reports.iter().filter(|r| !r.trace).flat_map(|r| {
        r.lines
            .iter()
            .filter_map(move |l| Some((format!("{}.{}", r.workload, l.name), Json::Num(l.noise?))))
    });
    Json::obj(vec![
        ("nproc", Json::Num(host::nproc() as f64)),
        ("rustc", Json::str(host::rustc_version())),
        (
            "profile",
            Json::str("release: opt-level 3, fat LTO, codegen-units 1"),
        ),
        ("git_commit", Json::str(host::git_commit())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(f64::from(args.seconds))),
        ("quick", Json::Bool(args.quick)),
        ("noise_floor", Json::obj(noise)),
    ])
}

fn write_out(path: &str, args: &Args, reports: &[Report]) -> Result<(), String> {
    let runs = reports
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("detail", r.detail_json()),
                ("result", r.contract_json()),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("env", env_json(args, reports)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))
}

fn all_correct(reports: &[Report]) -> bool {
    reports.iter().all(|r| r.correct() && r.failed == 0)
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    if args.list {
        list();
        return Ok(true);
    }
    // One workload in one mode runs here; anything wider runs in children.
    let reports = match (&args.workload, args.trace) {
        (Some(workload), Some(_)) => {
            let report = run_one(workload, args);
            report.print_text();
            println!("detail: {}", report.detail_json().render());
            println!("{}", report.contract_json().render());
            vec![report]
        }
        (_, mode) => run_set(args, &mode.map_or(vec![false, true], |m| vec![m]))?,
    };
    if let Some(path) = &args.out {
        write_out(path, args, &reports)?;
    }
    Ok(all_correct(&reports))
}

/// Two sets on the same build: every end-to-end metric must agree within
/// its own bound, and exact (model) metrics must agree exactly.
fn cmd_aa(args: &Args) -> Result<bool, String> {
    println!("== set A");
    let a = run_set(args, &[false])?;
    println!("== set B");
    let b = run_set(args, &[false])?;
    println!("== disagreement (B against A)");
    let mut agree = all_correct(&a) && all_correct(&b);
    for (ra, rb) in a.iter().zip(&b) {
        for m in &END_TO_END {
            let (va, vb) = (
                ra.value(m.name).unwrap_or(0.0),
                rb.value(m.name).unwrap_or(0.0),
            );
            let worse = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let ok = if m.exact {
                va == vb
            } else {
                worse.abs() <= m.bound
            };
            agree &= ok;
            println!(
                "{:<12} {:<16} A {:>14.4}  B {:>14.4}  {:>+7.2}%  bound {:>4.0}%  {}",
                ra.workload,
                m.name,
                va,
                vb,
                worse * 100.0,
                if m.exact { 0.0 } else { m.bound * 100.0 },
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: use cargo run --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: erms-benchmark run|aa [options]; see benchmark/README.md");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "aa" => cmd_aa(&args),
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
