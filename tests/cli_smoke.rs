//! Smoke tests of the `erms-cli` binary: argument handling and the
//! `serve` lifecycle (spawn, startup handshake over stdout, HTTP
//! round-trip, graceful shutdown via the API).

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use erms::control::{Client, Json};

const BIN: &str = env!("CARGO_BIN_EXE_erms-cli");

#[test]
fn unknown_commands_fail_loudly() {
    let out = Command::new(BIN)
        .arg("frobnicate")
        .output()
        .expect("run erms-cli");
    assert!(!out.status.success(), "unknown command must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown command") && stderr.contains("frobnicate"),
        "stderr must name the bad command: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "stderr must include the usage text: {stderr}"
    );
}

#[test]
fn no_command_prints_usage_and_fails() {
    let out = Command::new(BIN).output().expect("run erms-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn bad_numeric_options_print_usage_and_fail() {
    for (command, key, value) in [
        ("plan", "--rate", "-5"),
        ("plan", "--rate", "abc"),
        ("plan", "--rate", "NaN"),
        ("plan", "--sla", "inf"),
        ("compare", "--cpu", "-0.1"),
        ("compare", "--mem", "lots"),
        ("simulate", "--delta", "-1"),
        ("sharing", "--services", "many"),
    ] {
        let out = Command::new(BIN)
            .args([command, key, value])
            .output()
            .expect("run erms-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{command} {key} {value} must exit non-zero"
        );
        assert!(
            stderr.contains(key) && stderr.contains(value) && stderr.contains("usage:"),
            "{command} {key} {value}: stderr must name the option and print usage: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{command} {key} {value} must not print a plan"
        );
    }
    // A valid value still plans.
    let out = Command::new(BIN)
        .args(["plan", "--rate", "30000"])
        .output()
        .expect("run erms-cli");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("total:"));
}

#[test]
fn status_without_addr_fails_with_a_message() {
    let out = Command::new(BIN)
        .arg("status")
        .output()
        .expect("run erms-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
}

#[test]
fn serve_lifecycle_over_the_wire() {
    let mut child = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn erms-cli serve");

    // Startup handshake: the first stdout line announces the bound port.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read handshake line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected handshake line: {line:?}"))
        .to_string();

    let mut client = Client::new(addr.as_str()).expect("connect to served addr");
    let (status, body) = client.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    let health = Json::parse(&String::from_utf8(body).unwrap()).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    let (status, _) = client
        .request("POST", "/v1/shutdown", None)
        .expect("shutdown");
    assert_eq!(status, 200);

    // The daemon drains and exits cleanly on its own.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(code) => {
                assert!(code.success(), "serve should exit 0, got {code:?}");
                break;
            }
            None if Instant::now() > deadline => {
                child.kill().ok();
                panic!("serve did not exit within 10s of /v1/shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}
