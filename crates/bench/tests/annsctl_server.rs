//! End-to-end exercise of the `annsctl` network-serving surface:
//! `server` as a real child process on an ephemeral loopback port,
//! `client` against it (happy path, throttle, unknown shard, shutdown
//! — each with its distinct exit code), `bench-server` recording the
//! multi-tenant workload (and exiting nonzero when the server refuses a
//! compliant tenant), `bench-gate` passing against its own artifact and
//! failing against a doctored one, and
//! `trace inspect --server-report` reconciling per-tenant trace events
//! with the drain report's accounting. This drives the binaries the
//! way the CI `server-gate` job does.

use std::io::Read;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use anns_bench::server_bench::BenchServerReport;
use anns_engine::testkit::TempDir;
use anns_server::ServerReport;
use common::doctor_metrics;

mod common;

fn annsctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_annsctl"))
}

fn tmp_dir(label: &str) -> TempDir {
    TempDir::new(&format!("annsctl-server-{label}"))
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn annsctl");
    assert!(
        out.status.success(),
        "{cmd:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Spawns `annsctl server` on an ephemeral port and waits for the
/// address file — the same readiness handshake the CI job uses.
fn spawn_server(args: &[&str], addr_file: &std::path::Path) -> (Child, String) {
    let child = annsctl()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn annsctl server");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(addr_file) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote its address file"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    (child, addr)
}

/// Joins the server child after a `client --shutdown`, asserting a
/// clean exit and returning its captured stderr for inspection.
fn join_server(mut child: Child) -> String {
    let status = child.wait().expect("server child joins");
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        pipe.read_to_string(&mut stderr)
            .expect("read server stderr");
    }
    assert!(status.success(), "server exited nonzero\nstderr: {stderr}");
    stderr
}

#[test]
fn server_client_exit_codes_and_trace_reconcile() {
    let dir = tmp_dir("codes");
    let addr_file = dir.file("addr.txt");
    let report = dir.file("server.json");
    let trace = dir.file("trace.jsonl");
    let (report_s, trace_s) = (report.to_str().unwrap(), trace.to_str().unwrap());

    // "miser" gets one token, ever — the deterministic throttle path.
    let (child, addr) = spawn_server(
        &[
            "server",
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--out",
            report_s,
            "--trace-out",
            trace_s,
            "--n",
            "128",
            "--d",
            "64",
            "--scheme",
            "alg1",
            "--tenants",
            "miser:0:1",
            "--adapt",
            "0",
        ],
        &addr_file,
    );

    // Happy path: exit 0, one row per served query.
    let out = run_ok(annsctl().args([
        "client", "--addr", &addr, "--tenant", "acme", "--count", "3", "--seed", "7",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(
        stdout.lines().filter(|l| l.contains("ticket")).count(),
        3,
        "one row per query:\n{stdout}"
    );

    // Throttle path: miser's first query spends the only token, the
    // second is refused typed — distinct exit code 5.
    let out = annsctl()
        .args([
            "client", "--addr", &addr, "--tenant", "miser", "--count", "2",
        ])
        .output()
        .expect("spawn client");
    assert_eq!(
        out.status.code(),
        Some(5),
        "throttled exit code\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Unknown shard: admitted, fails after the ticket — "other server
    // error", exit 7.
    let out = annsctl()
        .args(["client", "--addr", &addr, "--shard", "no-such-shard"])
        .output()
        .expect("spawn client");
    assert_eq!(
        out.status.code(),
        Some(7),
        "unknown-shard exit code\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Drain: one more served query, then shutdown — exit 0.
    let out = run_ok(annsctl().args(["client", "--addr", &addr, "--shutdown", "1"]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("shutdown: server drained"),
        "shutdown ack:\n{stdout}"
    );

    let stderr = join_server(child);
    assert!(
        stderr.contains("max_wait settled at"),
        "drain summary:\n{stderr}"
    );

    // The drain report reconciles with what the clients did.
    let json = std::fs::read_to_string(&report).expect("report written");
    let report: ServerReport = serde_json::from_str(&json).expect("report parses");
    let acme = report.tenant("acme").unwrap_or_else(|| panic!("{json}"));
    assert_eq!(acme.enqueued, 3, "{json}");
    assert_eq!(acme.served, 3, "{json}");
    // "default" carried the unknown-shard probe (admitted, failed
    // typed) and the pre-shutdown query (served).
    let default = report.tenant("default").unwrap_or_else(|| panic!("{json}"));
    assert_eq!(default.enqueued, 2, "{json}");
    assert_eq!(default.served, 1, "{json}");
    assert_eq!(default.failed, 1, "{json}");
    let miser = report.tenant("miser").unwrap_or_else(|| panic!("{json}"));
    assert_eq!(miser.enqueued, 1, "{json}");
    assert_eq!(miser.throttled, 1, "{json}");

    // Satellite 5: per-tenant trace event counts reconcile exactly
    // with the report's usage accounting.
    let out = run_ok(annsctl().args([
        "trace",
        "inspect",
        "--trace",
        trace_s,
        "--server-report",
        report_s,
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("tenant decisions reconcile exactly"),
        "reconciliation verdict:\n{stdout}"
    );
    assert!(stdout.contains("tenant_decision"), "event table:\n{stdout}");
}

#[test]
fn connection_cap_refusal_is_exit_code_overloaded() {
    let dir = tmp_dir("cap");
    let addr_file = dir.file("addr.txt");

    let (child, addr) = spawn_server(
        &[
            "server",
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--n",
            "128",
            "--d",
            "64",
            "--scheme",
            "alg1",
            "--max-conns",
            "1",
        ],
        &addr_file,
    );

    // A raw TCP connection occupies the only slot — the cap counts
    // accepted sockets, not completed handshakes.
    let hog = std::net::TcpStream::connect(&addr).expect("hog connects");

    // The real client binary is refused typed: exit code 3, the
    // scriptable Overloaded verdict.
    let out = annsctl()
        .args(["client", "--addr", &addr, "--tenant", "acme"])
        .output()
        .expect("spawn client");
    assert_eq!(
        out.status.code(),
        Some(3),
        "overloaded exit code\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("connection limit"),
        "typed message reaches the client\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Freeing the slot re-admits; the release is asynchronous, so
    // retry until the server notices the hangup.
    drop(hog);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let out = annsctl()
            .args(["client", "--addr", &addr, "--tenant", "acme"])
            .output()
            .expect("spawn client");
        if out.status.success() {
            break;
        }
        assert_eq!(out.status.code(), Some(3), "only overload retries");
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(25));
    }

    run_ok(annsctl().args(["client", "--addr", &addr, "--shutdown", "1"]));
    join_server(child);
}

#[test]
fn bench_server_and_gate_pipeline() {
    let dir = tmp_dir("gate");
    let addr_file = dir.file("addr.txt");
    let bench = dir.file("BENCH_server.json");
    let bench_s = bench.to_str().unwrap();

    // The CI shape: one hot tenant whose bucket never refills (burst 8,
    // rate 0 — refusals are count-exact, not timing-dependent) and two
    // compliant tenants whose offered load fits inside their burst.
    let (child, addr) = spawn_server(
        &[
            "server",
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--n",
            "128",
            "--d",
            "64",
            "--scheme",
            "alg1",
            "--tenants",
            "hot:0:8,tenant-a:1000:64,tenant-b:1000:64",
            "--queue-cap",
            "256",
        ],
        &addr_file,
    );

    let out = run_ok(
        annsctl()
            .args(["bench-server", "--addr", &addr, "--out", bench_s])
            .env("ANNS_QUICK", "1"),
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains(" hot |"), "tenant table:\n{stdout}");

    run_ok(annsctl().args(["client", "--addr", &addr, "--shutdown", "1"]));
    join_server(child);

    // Quick mode offers hot 40 against burst 8: exactly 32 throttles,
    // and the compliant tenants are served in full — deterministically.
    let json = std::fs::read_to_string(&bench).expect("bench artifact");
    let artifact: BenchServerReport = serde_json::from_str(&json).expect("artifact parses");
    let tenant = |name: &str| {
        artifact
            .tenant(name)
            .unwrap_or_else(|| panic!("no {name} row in {json}"))
    };
    assert_eq!(tenant("hot").throttled, 32, "{json}");
    assert_eq!(tenant("hot").served, 8, "{json}");
    assert_eq!(tenant("tenant-a").served, 12, "{json}");
    assert_eq!(tenant("tenant-a").throttled, 0, "{json}");
    assert_eq!(tenant("tenant-b").served, 12, "{json}");

    // The artifact gates cleanly against itself…
    let out = run_ok(annsctl().args(["bench-gate", "--current", bench_s, "--reference", bench_s]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("server.hot.throttled | exact |"),
        "gate rows:\n{stdout}"
    );
    assert!(
        stdout.contains("bench-gate: pass"),
        "self-gate must pass:\n{stdout}"
    );

    // …and a doctored current where a compliant tenant was refused once
    // fails the gate, exit 1, naming the row.
    let doctored_path = dir.file("doctored.json");
    doctor_metrics(
        &bench,
        &doctored_path,
        |key| key == "server.tenant-a.throttled",
        1.0,
    );
    let out = annsctl()
        .args([
            "bench-gate",
            "--current",
            doctored_path.to_str().unwrap(),
            "--reference",
            bench_s,
        ])
        .output()
        .expect("spawn bench-gate");
    assert_eq!(out.status.code(), Some(1), "regression must gate");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let row = stdout
        .lines()
        .find(|line| line.contains("server.tenant-a.throttled"))
        .unwrap_or_else(|| panic!("named row:\n{stdout}"));
    assert!(row.contains("REGRESSION"), "{stdout}");
}

#[test]
fn bench_server_exits_nonzero_when_a_compliant_tenant_is_refused() {
    let dir = tmp_dir("starved");
    let addr_file = dir.file("addr.txt");
    let bench = dir.file("BENCH_server.json");

    // tenant-a offers 12 against a bucket of 4 that never refills: the
    // server must throttle a compliant tenant 8 times.
    let (child, addr) = spawn_server(
        &[
            "server",
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--n",
            "128",
            "--d",
            "64",
            "--scheme",
            "alg1",
            "--tenants",
            "hot:0:8,tenant-a:0:4,tenant-b:1000:64",
            "--queue-cap",
            "256",
        ],
        &addr_file,
    );
    let out = annsctl()
        .args([
            "bench-server",
            "--addr",
            &addr,
            "--out",
            bench.to_str().unwrap(),
        ])
        .env("ANNS_QUICK", "1")
        .output()
        .expect("spawn bench-server");
    run_ok(annsctl().args(["client", "--addr", &addr, "--shutdown", "1"]));
    join_server(child);

    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("compliant tenant tenant-a was throttled 8 time(s)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        !stderr.contains("tenant tenant-b"),
        "tenant-b was served in full: {stderr}"
    );
    // The artifact is written before the verdict, so the run can be read.
    let json = std::fs::read_to_string(&bench).expect("artifact written");
    let artifact: BenchServerReport = serde_json::from_str(&json).expect("artifact parses");
    assert_eq!(artifact.tenant("tenant-a").unwrap().served, 4, "{json}");
}
