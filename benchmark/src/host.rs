//! What the benchmark reads from the host: core count, peak resident set,
//! toolchain and commit for the `env` block, and where its files go.

use std::path::PathBuf;
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process (`VmHWM`), in MB. Each workload runs
/// in a process of its own, so this is per workload.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// `unknown` outside a git checkout (the acceptance driver's is not one).
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

/// The benchmark package's directory: where `cargo run` says the manifest
/// is, else where it was when this binary was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `benchmark/out/`, created on demand: traces, snapshots and reports.
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}
