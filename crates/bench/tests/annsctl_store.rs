//! End-to-end exercise of the `annsctl` persistence surface: `save` →
//! `inspect` → `load` → `serve --from-store` → `bench-serve --from-store`
//! → `bench-gate`, and `build` → `query` / `lambda` / `stats`, driving the
//! real binary the way CI does. This is the
//! acceptance check that a stored instance warm-starts the serving stack
//! and that two runs of the same build agree on the perf gate's
//! deterministic rows.

use std::process::{Command, Output};

use anns_engine::testkit::TempDir;
use common::doctor_metrics;

mod common;

fn annsctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_annsctl"))
}

/// Per-test scratch directories: tests run in parallel and must not
/// share a tree; the testkit guard removes them on drop (pass or fail).
fn tmp_dir(label: &str) -> TempDir {
    TempDir::new(&format!("annsctl-store-{label}"))
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

#[test]
fn save_load_serve_gate_pipeline() {
    let dir = tmp_dir("pipeline");
    let store = dir.file("ci.anns");
    let store_s = store.to_str().unwrap();

    // save: tiny instance, every scheme family.
    let out = run_ok(annsctl().args([
        "save",
        "--n",
        "128",
        "--d",
        "128",
        "--seed",
        "5",
        "--scheme",
        "all,linear",
        "--out",
        store_s,
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("4 shard(s)"), "{stdout}");

    // inspect: header + checksummed sections + shard directory.
    let out = run_ok(annsctl().args(["inspect", "--store", store_s]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    for needle in [
        "format     : v3 bundle",
        "META",
        "IDXP",
        "SHRD",
        "alg1-k3",
        "linear-n128",
    ] {
        assert!(
            stdout.contains(needle),
            "inspect output missing {needle:?}:\n{stdout}"
        );
    }

    // load: summary + per-shard budget verification, on both backends.
    let out = run_ok(annsctl().args(["load", "--store", store_s, "--verify-queries", "3"]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("within budget = true"), "{stdout}");

    let out = run_ok(annsctl().args([
        "load",
        "--store",
        store_s,
        "--store-backend",
        "mmap",
        "--verify-queries",
        "3",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("within budget = true"), "{stdout}");
    assert!(stdout.contains("mmap backend"), "{stdout}");

    // serve --from-store: exits 0 with the audit passing.
    let out = run_ok(annsctl().args([
        "serve",
        "--from-store",
        store_s,
        "--requests",
        "32",
        "--batch",
        "8",
        "--threads",
        "2",
    ]));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("round-integrity audit passed"), "{stderr}");
    assert!(stderr.contains("warm start"), "{stderr}");

    // bench-serve --from-store twice (quick mode), then gate run b
    // against run a. Identical workloads must agree on every exact and
    // ratio row; wall rows compare two back-to-back runs on a possibly
    // loaded host, so neither they nor the overall verdict are asserted.
    let bench_a = dir.file("bench_a.json");
    let bench_b = dir.file("bench_b.json");
    for out_path in [&bench_a, &bench_b] {
        run_ok(
            annsctl()
                .args([
                    "bench-serve",
                    "--from-store",
                    store_s,
                    "--threads",
                    "2",
                    "--out",
                    out_path.to_str().unwrap(),
                ])
                .env("ANNS_QUICK", "1"),
        );
    }
    let out = annsctl()
        .args([
            "bench-gate",
            "--current",
            bench_b.to_str().unwrap(),
            "--reference",
            bench_a.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let deterministic: Vec<&str> = stdout
        .lines()
        .filter(|line| line.contains("| exact |") || line.contains("| ratio |"))
        .collect();
    assert!(
        deterministic.len() >= 5,
        "coalescing per width, traced and online, trace events:\n{stdout}"
    );
    for line in deterministic {
        assert!(line.trim_end().ends_with("ok |"), "{line}\n{stdout}");
    }

    // Gate regression path: demand an impossible coalescing improvement
    // by doctoring the reference ratios far below anything achievable.
    let doctored = dir.file("doctored.json");
    doctor_metrics(
        &bench_a,
        &doctored,
        |key| key.ends_with(".coalescing_ratio"),
        1e-6,
    );
    let out = annsctl()
        .args([
            "bench-gate",
            "--current",
            bench_b.to_str().unwrap(),
            "--reference",
            doctored.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "doctored gate must fail");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let coalescing = stdout
        .lines()
        .find(|line| line.contains("serve.engine.b16.coalescing_ratio"))
        .unwrap_or_else(|| panic!("row named:\n{stdout}"));
    assert!(coalescing.contains("REGRESSION"), "{stdout}");
}

#[test]
fn mount_and_hot_swap_pipeline() {
    let dir = tmp_dir("mount");
    let a = dir.file("a.anns");
    let b = dir.file("b.anns");
    // Same shard names, different seeds: a plausible "next build" pair.
    for (path, seed) in [(&a, "5"), (&b, "6")] {
        run_ok(annsctl().args([
            "save",
            "--n",
            "128",
            "--d",
            "128",
            "--seed",
            seed,
            "--scheme",
            "alg1,lambda",
            "--out",
            path.to_str().unwrap(),
        ]));
    }
    let mounts = format!("t0={},t1={}", a.display(), b.display());

    // mount: namespaced shards, manifests, per-shard verification.
    let out = run_ok(annsctl().args(["mount", "--mounts", &mounts, "--verify-queries", "2"]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    for needle in [
        "mounted 2 bundle(s), 4 shard(s)",
        "t0/alg1-k3",
        "t1/alg1-k3",
        "manifest verified",
        "within budget = true",
    ] {
        assert!(
            stdout.contains(needle),
            "mount output missing {needle:?}:\n{stdout}"
        );
    }

    // serve --mounts: the multi-bundle registry serves with the audit on.
    let out = run_ok(annsctl().args([
        "serve",
        "--mounts",
        &mounts,
        "--requests",
        "32",
        "--batch",
        "8",
        "--threads",
        "2",
    ]));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("round-integrity audit passed"), "{stderr}");

    // swap during active serving: zero failed queries, old mount retired
    // (the command itself exits nonzero otherwise — this is the
    // acceptance gate).
    let out = run_ok(annsctl().args([
        "swap",
        "--mounts",
        &mounts,
        "--swap",
        &format!("t0={}", b.display()),
        "--requests",
        "96",
        "--batch",
        "8",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("0 failed"), "{stdout}");
    assert!(stdout.contains("old mount retired = true"), "{stdout}");

    // swap of an unmounted namespace fails loudly.
    let out = annsctl()
        .args([
            "swap",
            "--mounts",
            &mounts,
            "--swap",
            &format!("nope={}", b.display()),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "swap of unmounted ns must fail");
}

#[test]
fn corrupted_store_fails_with_typed_error_and_nonzero_exit() {
    let dir = tmp_dir("corrupt");
    let store = dir.file("corrupt.anns");
    let store_s = store.to_str().unwrap();
    run_ok(annsctl().args([
        "save", "--n", "64", "--d", "64", "--seed", "2", "--scheme", "alg1", "--out", store_s,
    ]));
    let mut bytes = std::fs::read(&store).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&store, &bytes).unwrap();
    for subcmd in ["load", "inspect"] {
        let out = annsctl()
            .args([subcmd, "--store", store_s])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{subcmd} must fail on corruption");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            err.contains("checksum mismatch") || err.contains("truncated"),
            "{subcmd} stderr lacks a typed message: {err}"
        );
    }
    let out = annsctl()
        .args(["serve", "--from-store", store_s, "--requests", "8"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "serve must refuse a damaged store");
}

#[test]
fn version_skew_is_reported_as_such() {
    let dir = tmp_dir("skew");
    let store = dir.file("skew.anns");
    let store_s = store.to_str().unwrap();
    run_ok(annsctl().args([
        "save", "--n", "64", "--d", "64", "--seed", "2", "--scheme", "lambda", "--out", store_s,
    ]));
    let mut bytes = std::fs::read(&store).unwrap();
    bytes[4] = 9; // format version low byte
    std::fs::write(&store, &bytes).unwrap();
    let out = annsctl()
        .args(["load", "--store", store_s])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("version 9"), "stderr: {err}");
}

#[test]
fn online_serve_smoke_exits_clean_with_zero_shed() {
    let dir = tmp_dir("online");
    let store = dir.file("online.anns");
    let store_s = store.to_str().unwrap();
    run_ok(annsctl().args([
        "save", "--n", "128", "--d", "128", "--seed", "7", "--scheme", "alg1", "--out", store_s,
    ]));

    // Open-loop arrivals (--rate 0): the queue saturates and windows
    // fill-seal; capacity defaults to the request count, so a clean run
    // must shed nothing. The command exits nonzero on any shed arrival,
    // failed query, or budget violation — that exit code *is* the CI
    // smoke assertion.
    let out = run_ok(annsctl().args([
        "serve",
        "--online",
        "1",
        "--from-store",
        store_s,
        "--requests",
        "48",
        "--window",
        "8",
        "--rate",
        "0",
        "--threads",
        "2",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("\"shed\":0"), "{stdout}");
    assert!(stdout.contains("\"failed\":0"), "{stdout}");
    assert!(stdout.contains("\"budget_violations\":0"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("48 ok, 0 failed, 0 shed"), "{stderr}");

    // A capacity of 1 under open-loop arrivals must shed — and that is a
    // nonzero exit with the typed overload message on stderr, not a
    // panic.
    let out = annsctl()
        .args([
            "serve",
            "--online",
            "1",
            "--from-store",
            store_s,
            "--requests",
            "48",
            "--window",
            "8",
            "--rate",
            "0",
            "--queue-cap",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "shedding run must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("overloaded"), "{stderr}");
}

/// `build` → `query` → `lambda` → `stats`: the index commands share the
/// one-shard bundle `build` writes.
#[test]
fn build_query_lambda_stats_round_trip() {
    let dir = tmp_dir("roundtrip");
    let index = dir.file("idx.anns");
    let index_s = index.to_str().unwrap();
    let out = run_ok(annsctl().args(["build", "--n", "128", "--d", "128", "--out", index_s]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("1 shard(s)"), "{stdout}");
    assert!(stdout.contains("alg1-k3"), "{stdout}");

    let out = run_ok(annsctl().args(["query", "--store", index_s, "--k", "3", "--count", "4"]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    // A header and one row per query; each query is planted 8 flips from
    // a database point, so every answer is γ-ok.
    let rows: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(rows.len(), 4, "{stdout}");
    assert!(rows.iter().all(|r| r.ends_with("true")), "{stdout}");

    let out = run_ok(annsctl().args(["lambda", "--store", index_s, "--lambda", "6"]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("λ = 6") && stdout.contains("(1 probe)"),
        "{stdout}"
    );

    let out = run_ok(annsctl().args(["stats", "--store", index_s]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    for needle in ["n          : 128", "d          : 128", "scales     : "] {
        assert!(stdout.contains(needle), "missing {needle:?} in\n{stdout}");
    }
}

#[test]
fn stats_names_the_bytes_an_index_holds() {
    let dir = tmp_dir("stats");
    let index = dir.file("idx.anns");
    let index_s = index.to_str().unwrap();
    run_ok(annsctl().args(["build", "--n", "64", "--d", "128", "--out", index_s]));
    let out = run_ok(annsctl().args(["stats", "--store", index_s]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    // 64 rows: next_pow2(128) membership slots of 8 bytes; a heap load
    // borrows no slab.
    for needle in [
        "memory     : ",
        "  membership    : 1024 B",
        "  slabs_borrowed: 0 B",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in\n{stdout}");
    }
}

#[test]
fn build_refuses_a_shape_without_a_sketch_family() {
    let dir = tmp_dir("shape");
    let index = dir.file("idx.anns");
    let index_s = index.to_str().unwrap();
    for (n, d) in [("64", "1"), ("1", "64")] {
        let out = annsctl()
            .args(["build", "--n", n, "--d", d, "--out", index_s])
            .output()
            .expect("spawn annsctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--n {n} --d {d}: {stderr}");
        assert!(stderr.contains("must be at least 2"), "{stderr}");
        assert!(stderr.contains("usage: annsctl"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(!index.exists(), "no bundle for a refused shape");
    }
}

/// A missing file, a file that is not a bundle, and a truncated bundle:
/// every command that reads an index exits nonzero with a typed message.
#[test]
fn index_commands_refuse_bad_files_without_panicking() {
    let dir = tmp_dir("badfiles");
    let good = dir.file("good.anns");
    run_ok(annsctl().args([
        "build",
        "--n",
        "64",
        "--d",
        "64",
        "--out",
        good.to_str().unwrap(),
    ]));
    let bytes = std::fs::read(&good).unwrap();
    let garbage = dir.file("garbage.anns");
    std::fs::write(&garbage, b"{\"dataset\": \"not a bundle\"}").unwrap();
    let truncated = dir.file("truncated.anns");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let missing = dir.file("missing.anns");
    for file in [&missing, &garbage, &truncated] {
        let path = file.to_str().unwrap();
        for subcmd in ["query", "lambda", "stats"] {
            let out = annsctl()
                .args([subcmd, "--store", path])
                .output()
                .expect("spawn annsctl");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{subcmd} {path} must fail");
            assert!(stderr.contains("cannot load store"), "{subcmd}: {stderr}");
            assert!(!stderr.contains("panicked"), "{subcmd}: {stderr}");
        }
    }
}

/// `--index` named a JSON snapshot, a format that no longer exists.
/// Ignoring it like an unknown flag would serve or save a fresh random
/// index instead, so it is refused with a pointer to the bundle flags.
#[test]
fn retired_index_flag_fails_loudly() {
    let dir = tmp_dir("retired");
    let out_path = dir.file("out.anns");
    let out_s = out_path.to_str().unwrap();
    for args in [
        vec!["query", "--index", "idx.json"],
        vec!["serve", "--index", "idx.json", "--requests", "8"],
        vec!["save", "--index", "idx.json", "--out", out_s],
    ] {
        let out = annsctl().args(&args).output().expect("spawn annsctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--store"), "{args:?}: {stderr}");
        assert!(stderr.contains("--from-store"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(!out_path.exists(), "a refused save writes nothing");
}
