//! `compare`: two directories of result files, each end-to-end metric of
//! each workload judged against its bound in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::report::{field, number, string, Json};
use crate::stats::quartiles;
use crate::workload::Kind;

/// One gated metric from `BENCHMARK.json`.
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Unit, for display.
    pub unit: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str::<Json>(&text)
        .map(|j| j.0)
        .map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// The `end_to_end` list of a `BENCHMARK.json`.
pub fn gates(benchmark: &Path) -> Result<Vec<Gate>, String> {
    let doc = read_json(benchmark)?;
    let bad = |what: &str| format!("{}: {what}", benchmark.display());
    let Some(Value::Array(items)) = field(&doc, "end_to_end") else {
        return Err(bad("no end_to_end list"));
    };
    items
        .iter()
        .map(|item| {
            let text = |key| field(item, key).and_then(string).map(str::to_string);
            Ok(Gate {
                name: text("name").ok_or_else(|| bad("metric without a name"))?,
                unit: text("unit").unwrap_or_default(),
                lower_is_better: text("better").as_deref() == Some("lower"),
                bound: field(item, "bound")
                    .and_then(number)
                    .ok_or_else(|| bad("metric without a bound"))?,
            })
        })
        .collect()
}

/// Untraced results in `dir`: workload → metric → one value per run.
pub fn load_set(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut set: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
    {
        let doc = read_json(path)?;
        if field(&doc, "trace").and_then(number) != Some(0.0) {
            continue;
        }
        let workload = field(&doc, "workload")
            .and_then(string)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let Some(Value::Object(metrics)) = field(&doc, "metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        let row = set.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(v) = field(metric, "value").and_then(number) {
                row.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Prints the comparison table; returns whether every row passed. A row
/// passes when set B's median is no worse than set A's by more than the
/// bound and, except for `setup_s`, each set's spread is within it.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let gates = gates(benchmark)?;
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    println!(
        "{:<13} {:<12} {:>3} {:>10} {:>10} {:>10} {:>7} {:>3} {:>10} {:>10} {:>10} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "nA", "A.q1", "A.med", "A.q3", "A.iqr%", "nB", "B.q1", "B.med", "B.q3",
        "B.iqr%", "worse%", "bound%"
    );
    let mut all_pass = true;
    for kind in Kind::ALL {
        let w = kind.name();
        let (Some(ra), Some(rb)) = (set_a.get(w), set_b.get(w)) else {
            continue;
        };
        for gate in &gates {
            let empty = Vec::new();
            let (va, vb) = (
                ra.get(&gate.name).unwrap_or(&empty),
                rb.get(&gate.name).unwrap_or(&empty),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{w:<13} {:<12} missing in one set", gate.name);
                all_pass = false;
                continue;
            }
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let (sa, sb) = (spread(va), spread(vb));
            let worse = worsening(qa[1], qb[1], gate.lower_is_better);
            let spread_ok = gate.name == "setup_s" || (sa <= gate.bound && sb <= gate.bound);
            let pass = worse <= gate.bound && spread_ok;
            all_pass &= pass;
            println!(
                "{w:<13} {:<12} {:>3} {:>10.4} {:>10.4} {:>10.4} {:>7.2} {:>3} {:>10.4} {:>10.4} {:>10.4} {:>7.2} {:>7.2} {:>6.1}  {} ({})",
                gate.name,
                va.len(),
                qa[0],
                qa[1],
                qa[2],
                sa * 100.0,
                vb.len(),
                qb[0],
                qb[1],
                qb[2],
                sb * 100.0,
                worse * 100.0,
                gate.bound * 100.0,
                if pass { "pass" } else { "FAIL" },
                gate.unit,
            );
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(worsening(10.0, 11.0, true), 0.1);
        assert_eq!(worsening(10.0, 11.0, false), -0.1);
        assert_eq!(worsening(10.0, 9.0, false), 0.1);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[5.0; 10]), 0.0);
    }
}
