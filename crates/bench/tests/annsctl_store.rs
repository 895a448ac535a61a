//! End-to-end exercise of the `annsctl` persistence surface: `save` →
//! `inspect` → `load` → `serve --from-store` → `bench-serve --from-store`
//! → `bench-gate`, driving the real binary the way CI does. This is the
//! acceptance check that a stored instance warm-starts the serving stack
//! and that the perf gate passes against an artifact produced by the
//! same build.

use std::process::{Command, Output};

use anns_engine::testkit::TempDir;

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

    // bench-serve --from-store twice (quick mode), then gate one run
    // against the other: identical workloads must pass the gate.
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
    let out = run_ok(annsctl().args([
        "bench-gate",
        "--current",
        bench_b.to_str().unwrap(),
        "--reference",
        bench_a.to_str().unwrap(),
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("bench-gate: pass"), "{stdout}");

    // Gate regression path: demand an impossible coalescing improvement
    // by doctoring the reference ratios far below anything achievable.
    let doctored = dir.file("doctored.json");
    let json = std::fs::read_to_string(&bench_a).unwrap();
    let tightened = json.replace("\"coalescing_ratio\":1.0", "\"coalescing_ratio\":1e-6");
    assert_ne!(
        json, tightened,
        "expected a 1.0 coalescing ratio to tighten"
    );
    std::fs::write(&doctored, tightened).unwrap();
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
    assert!(stdout.contains("REGRESSION"), "{stdout}");
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

#[test]
fn stats_names_the_bytes_an_index_holds() {
    let dir = tmp_dir("stats");
    let index = dir.file("idx.json");
    let index_s = index.to_str().unwrap();
    run_ok(annsctl().args(["build", "--n", "64", "--d", "128", "--out", index_s]));
    let out = run_ok(annsctl().args(["stats", "--index", index_s]));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    // 64 rows: next_pow2(128) membership slots of 8 bytes; a built index
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
    let index = dir.file("idx.json");
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
        assert!(!index.exists(), "no snapshot for a refused shape");
    }
}
