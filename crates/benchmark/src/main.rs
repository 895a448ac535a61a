//! `anns-benchmark`: run one workload (or all, each in a fresh process),
//! or compare two sets of results.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use anns_benchmark::compare::compare;
use anns_benchmark::report::{result_line, Class};
use anns_benchmark::run::{run, write_result, Options};
use anns_benchmark::workload::Kind;

const USAGE: &str = "usage:
  anns-benchmark --workload <hot-online|unique-large|tenant-wire|swap-mixed|all>
                 [--seed N] [--seconds S] [--trace 0|1] [--traced] [--smoke] [--out DIR]
  anns-benchmark compare --a DIR --b DIR [--benchmark BENCHMARK.json]";

/// Parses `--key value` pairs; `switches` take no value.
fn parse(args: &[String], switches: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = if switches.contains(&key) {
            "1".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    flags.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}"))
    })
}

fn default_out() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("anns-benchmark")
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse(args, &[])?;
    for key in flags.keys() {
        if !["a", "b", "benchmark"].contains(&key.as_str()) {
            return Err(format!("compare: unknown flag --{key}"));
        }
    }
    let dir = |key: &str| {
        flags
            .get(key)
            .map(PathBuf::from)
            .ok_or_else(|| format!("compare needs --{key} <dir>"))
    };
    let benchmark = flags
        .get("benchmark")
        .map_or_else(|| PathBuf::from("BENCHMARK.json"), PathBuf::from);
    let pass = compare(&dir("a")?, &dir("b")?, &benchmark)?;
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse(args, &["traced", "smoke"])?;
    for key in flags.keys() {
        if ![
            "workload", "seed", "seconds", "trace", "traced", "smoke", "out",
        ]
        .contains(&key.as_str())
        {
            return Err(format!("unknown flag --{key}"));
        }
    }
    let workload = flags.get("workload").ok_or("--workload is required")?;
    let seconds: f64 = number(&flags, "seconds", 20.0)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => flags.contains_key("traced"),
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seed: u64 = number(&flags, "seed", 1)?;
    let out = flags.get("out").map_or_else(default_out, PathBuf::from);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    if workload == "all" {
        return run_all(args);
    }
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let opts = Options {
        kind,
        seed,
        seconds,
        trace,
        smoke: flags.contains_key("smoke"),
        out,
    };
    let result = match run(&opts) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("anns-benchmark: {} failed: {e}", kind.name());
            return Ok(ExitCode::from(2));
        }
    };
    println!(
        "== {} seed {} ({}, {seconds} s of traffic, {} cores) ==",
        kind.name(),
        seed,
        if trace { "traced" } else { "untraced" },
        anns_benchmark::workload::nproc()
    );
    for line in &result.summary {
        println!("{line}");
    }
    println!("{:<28} {:>14}  unit", "metric", "value");
    for m in &result.metrics {
        println!("{:<28} {:>14.4}  {}", m.name, m.value, m.unit);
    }
    let path = write_result(&opts, &result)?;
    println!("result file: {}", path.display());
    let class = if trace {
        Class::PerLayer
    } else {
        Class::EndToEnd
    };
    let listed: Vec<_> = result.metrics.iter().filter(|m| m.class == class).collect();
    println!(
        "{}",
        result_line(result.correct, result.attempted, result.failed, &listed)
    );
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in a fresh child process of this binary, one
/// after another, with the same flags.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--workload" {
            it.next();
        } else {
            rest.push(arg.clone());
        }
    }
    let mut ok = true;
    for kind in Kind::ALL {
        let status = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(kind.name())
            .args(&rest)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", kind.name()))?;
        if !status.success() {
            eprintln!("{} failed: {status}", kind.name());
            ok = false;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => cmd_run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("anns-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
