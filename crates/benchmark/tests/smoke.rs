//! Every workload at smoke size, untraced and traced, through the real
//! binary: the run must pass its answer check, fail nothing, and print
//! every metric `BENCHMARK.json` lists for its mode.

use std::path::Path;
use std::process::Command;

use anns_benchmark::report::{field, number, string, Json};
use serde::Value;

fn parse(text: &str, what: &str) -> Value {
    serde_json::from_str::<Json>(text)
        .unwrap_or_else(|e| panic!("{what} is not JSON: {e}"))
        .0
}

fn listed(class: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text, "BENCHMARK.json");
    let Some(Value::Array(items)) = field(&doc, class) else {
        panic!("BENCHMARK.json has no {class} list");
    };
    items
        .iter()
        .map(|item| {
            field(item, "name")
                .and_then(string)
                .expect("every listed metric has a name")
                .to_string()
        })
        .collect()
}

fn smoke(workload: &str, trace: u8) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_anns-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "3",
            "--smoke",
        ])
        .args(["--trace", &trace.to_string(), "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = parse(
        stdout.lines().last().expect("a result line"),
        "the result line",
    );
    assert_eq!(
        field(&line, "correct"),
        Some(&Value::Bool(true)),
        "{stdout}"
    );
    assert_eq!(
        field(&line, "failed").and_then(number),
        Some(0.0),
        "{stdout}"
    );
    assert!(field(&line, "attempted")
        .and_then(number)
        .is_some_and(|n| n >= 1.0));
    let metrics = field(&line, "metrics").expect("a metrics object");
    let class = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    for name in listed(class) {
        let value = field(metrics, &name)
            .and_then(|m| field(m, "value"))
            .and_then(number);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} missing from\n{stdout}"
        );
        if trace == 0 {
            assert!(value.unwrap() > 0.0, "{workload}: end-to-end {name} is 0");
        }
    }
}

#[test]
fn hot_online() {
    smoke("hot-online", 0);
    smoke("hot-online", 1);
}

#[test]
fn unique_large() {
    smoke("unique-large", 0);
    smoke("unique-large", 1);
}

#[test]
fn tenant_wire() {
    smoke("tenant-wire", 0);
    smoke("tenant-wire", 1);
}

#[test]
fn swap_mixed() {
    smoke("swap-mixed", 0);
    smoke("swap-mixed", 1);
}
