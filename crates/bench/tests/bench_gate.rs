//! `annsctl bench-gate` over the committed `BENCH_*` references: each
//! gates cleanly against itself, a doctored copy fails with exit 1 and
//! names its row, and artifacts that cannot be compared (unreadable,
//! garbage, a different config, an old flag) are refused with exit 2
//! and no panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use anns_engine::testkit::TempDir;
use common::doctor_metrics;

mod common;

const REFERENCES: [&str; 7] = [
    "BENCH_serve_quick.json",
    "BENCH_serve.json",
    "BENCH_kernels_quick.json",
    "BENCH_obs_quick.json",
    "BENCH_server_quick.json",
    "BENCH_attack_quick.json",
    "BENCH_store_quick.json",
];

fn reference(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn gate(current: &Path, reference: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_annsctl"))
        .arg("bench-gate")
        .arg("--current")
        .arg(current)
        .arg("--reference")
        .arg(reference)
        .output()
        .expect("spawn annsctl")
}

#[test]
fn every_committed_reference_gates_against_itself() {
    for name in REFERENCES {
        let path = reference(name);
        let out = gate(&path, &path);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name}:\n{stdout}");
        assert!(stdout.contains("bench-gate: pass"), "{name}:\n{stdout}");
    }
}

#[test]
fn doctored_exact_rows_fail_and_name_their_key() {
    let dir = TempDir::new("bench-gate-doctored");
    for (name, key, value) in [
        (
            "BENCH_store_quick.json",
            "store.large.file_bytes",
            4_853_151.0,
        ),
        (
            "BENCH_attack_quick.json",
            "attack.lsh.hillclimb.failures",
            111.0,
        ),
    ] {
        let doctored = dir.file("doctored.json");
        doctor_metrics(&reference(name), &doctored, |k| k == key, value);
        let out = gate(&doctored, &reference(name));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{name}:\n{stdout}");
        let row = stdout
            .lines()
            .find(|line| line.contains(key))
            .unwrap_or_else(|| panic!("{key} named:\n{stdout}"));
        assert!(row.contains("REGRESSION"), "{row}");
        assert!(
            stdout.contains("bench-gate: REGRESSION (1 of"),
            "only the doctored row fails:\n{stdout}"
        );
    }
}

#[test]
fn artifacts_that_cannot_be_compared_exit_2_without_panicking() {
    let dir = TempDir::new("bench-gate-refused");
    let store = reference("BENCH_store_quick.json");
    let garbage = dir.file("garbage.json");
    std::fs::write(&garbage, "{\"config\": {\"small_n\": 5").unwrap();
    let no_metrics = dir.file("no-metrics.json");
    std::fs::write(&no_metrics, "{\"config\":{}}").unwrap();
    let cases = [
        (dir.file("missing.json"), store.clone(), "cannot read"),
        (garbage.clone(), store.clone(), "bad artifact"),
        (store.clone(), garbage, "bad artifact"),
        (
            store.clone(),
            reference("BENCH_obs_quick.json"),
            "configs differ",
        ),
        (
            reference("BENCH_serve_quick.json"),
            reference("BENCH_serve.json"),
            "configs differ",
        ),
        (no_metrics.clone(), no_metrics, "no metrics list"),
    ];
    for (current, reference, needle) in cases {
        let out = gate(&current, &reference);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{current:?} vs {reference:?}: {stderr}"
        );
        assert!(stderr.contains(needle), "{needle}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    // A retired per-family flag is refused, not silently ignored.
    let out = Command::new(env!("CARGO_BIN_EXE_annsctl"))
        .arg("bench-gate")
        .arg("--current")
        .arg(&store)
        .arg("--reference")
        .arg(&store)
        .arg("--store-current")
        .arg(&store)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("only --current and --reference"),
        "{stderr}"
    );
}
