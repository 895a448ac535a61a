//! `annsctl bench-gate`: one comparator for every `BENCH_*` artifact.
//!
//! Each `bench-*` producer writes a flat `metrics` list beside its
//! payload, one [`Metric`] row per gated number:
//! `{key, value, class, better?, tol?}`. The gate knows no artifact
//! type. It refuses two artifacts whose `config` objects differ (the
//! attack report's `scenario` is its config), then holds every reference
//! row against the current row with the same key:
//!
//! - a key missing from the current artifact fails;
//! - an [`Class::Exact`] row (counts, bytes, fingerprints) must be equal;
//! - a [`Class::Ratio`] or [`Class::Wall`] row is banded by the
//!   *reference* row's own `better` and `tol`: at most
//!   `reference × (1 + tol)` when lower is better, at least
//!   `reference × (1 − tol)` when higher is better. An override lives in
//!   the reference artifact, not on the command line.
//!
//! Only comparisons of two runs live here. A check that needs one run
//! alone (budget violations, dropped trace events, an outcome partition)
//! belongs to the producer, which exits nonzero after writing its
//! artifact.
//!
//! # Example
//!
//! ```
//! use anns_bench::gate::{compare, with_metrics, Better, Metric};
//!
//! let payload = serde_json::from_str::<serde::Value>(r#"{"config":{"n":64}}"#).unwrap();
//! let run = |ratio: f64, probes: f64| {
//!     with_metrics(
//!         &payload,
//!         vec![
//!             Metric::ratio("serve.coalescing_ratio", ratio, Better::Lower, 0.10),
//!             Metric::exact("serve.probes", probes),
//!         ],
//!     )
//! };
//! let checks = compare(&run(0.26, 576.0), &run(0.25, 576.0)).unwrap();
//! assert!(checks.iter().all(|c| c.ok), "0.26 is inside 0.25 × 1.1");
//! let checks = compare(&run(0.25, 577.0), &run(0.25, 576.0)).unwrap();
//! assert!(!checks[1].ok, "exact rows must be equal");
//! ```

use serde::{obj_get, Deserialize, Error, Serialize, Value};

use crate::MarkdownTable;

/// What kind of number a metric row holds, which decides how it gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Deterministic in the config: counts, bytes, fingerprints. Gated by
    /// equality.
    Exact,
    /// A ratio of two measurements in one process (kernel speedup,
    /// coalescing). Banded.
    Ratio,
    /// Wall clock on a shared machine. Banded.
    Wall,
}

impl Class {
    /// The class's name in an artifact.
    pub fn name(self) -> &'static str {
        match self {
            Class::Exact => "exact",
            Class::Ratio => "ratio",
            Class::Wall => "wall",
        }
    }
}

/// Which direction of a banded metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One gated number in an artifact's `metrics` list.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted name, unique in its artifact: `serve.engine.b16.coalescing_ratio`.
    pub key: String,
    pub value: f64,
    pub class: Class,
    /// `better` and `tol` of a banded row; `None` exactly when the row is
    /// [`Class::Exact`].
    pub band: Option<(Better, f64)>,
}

impl Metric {
    /// A row that must reproduce exactly.
    pub fn exact(key: impl Into<String>, value: f64) -> Self {
        Metric {
            key: key.into(),
            value,
            class: Class::Exact,
            band: None,
        }
    }

    /// A same-process ratio, banded by `tol` in the `better` direction.
    pub fn ratio(key: impl Into<String>, value: f64, better: Better, tol: f64) -> Self {
        Metric {
            key: key.into(),
            value,
            class: Class::Ratio,
            band: Some((better, tol)),
        }
    }

    /// A wall-clock number, banded by `tol` in the `better` direction.
    pub fn wall(key: impl Into<String>, value: f64, better: Better, tol: f64) -> Self {
        Metric {
            key: key.into(),
            value,
            class: Class::Wall,
            band: Some((better, tol)),
        }
    }

    /// The bound this row, as a reference, sets on a current value, with
    /// its relation: `=`, `≤` or `≥`.
    pub fn bound(&self) -> (&'static str, f64) {
        match self.band {
            None => ("=", self.value),
            Some((Better::Lower, tol)) => ("≤", self.value * (1.0 + tol)),
            Some((Better::Higher, tol)) => ("≥", self.value * (1.0 - tol)),
        }
    }

    /// Whether `current` meets this reference row's bound.
    pub fn admits(&self, current: f64) -> bool {
        let (_, bound) = self.bound();
        match self.band {
            None => current == bound,
            Some((Better::Lower, _)) => current <= bound,
            Some((Better::Higher, _)) => current >= bound,
        }
    }
}

impl Serialize for Metric {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("key".to_string(), self.key.to_value()),
            ("value".to_string(), self.value.to_value()),
            ("class".to_string(), self.class.name().to_value()),
        ];
        if let Some((better, tol)) = self.band {
            fields.push(("better".to_string(), better.name().to_value()));
            fields.push(("tol".to_string(), tol.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Metric {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Value::Object(fields) = v else {
            return Err(Error::custom("a metric row must be an object"));
        };
        let key = String::from_value(obj_get(fields, "key")?)?;
        let text = |name: &str| -> Result<String, Error> {
            String::from_value(obj_get(fields, name)?)
                .map_err(|e| Error::custom(format!("metric {key}: {name}: {e}")))
        };
        let value = f64::from_value(obj_get(fields, "value")?)?;
        let class = match text("class")?.as_str() {
            "exact" => Class::Exact,
            "ratio" => Class::Ratio,
            "wall" => Class::Wall,
            other => {
                return Err(Error::custom(format!(
                    "metric {key}: unknown class {other:?}"
                )))
            }
        };
        let band = if class == Class::Exact {
            None
        } else {
            let better = match text("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => {
                    return Err(Error::custom(format!(
                        "metric {key}: better must be lower or higher, got {other:?}"
                    )))
                }
            };
            let tol = f64::from_value(obj_get(fields, "tol")?)?;
            if tol < 0.0 {
                return Err(Error::custom(format!("metric {key}: negative tol {tol}")));
            }
            Some((better, tol))
        };
        Ok(Metric {
            key,
            value,
            class,
            band,
        })
    }
}

/// `payload` with `metrics` beside it: the document every `bench-*`
/// producer writes.
///
/// # Panics
///
/// If `payload` does not serialize to a JSON object (every report is a
/// struct).
pub fn with_metrics(payload: &impl Serialize, metrics: Vec<Metric>) -> Value {
    let mut artifact = payload.to_value();
    let Value::Object(fields) = &mut artifact else {
        panic!("an artifact payload must serialize to an object");
    };
    fields.push(("metrics".to_string(), metrics.to_value()));
    artifact
}

/// Reads an artifact as an untyped JSON document.
pub fn read_artifact(path: &str) -> Result<Value, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("bad artifact {path}: {e}"))
}

/// One reference row held against the current artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub key: String,
    pub class: Class,
    pub reference: f64,
    /// `None` when the current artifact lacks the key.
    pub current: Option<f64>,
    /// `=`, `≤` or `≥`: how `current` must relate to `allowed`.
    pub relation: &'static str,
    pub allowed: f64,
    pub ok: bool,
}

/// Holds every metric row of `reference` against `current`.
///
/// Returns an error, not a failed check, when the two cannot be compared:
/// their configs differ, or either lacks a well-formed `metrics` list
/// (the reference's must be non-empty).
pub fn compare(current: &Value, reference: &Value) -> Result<Vec<Check>, String> {
    let current_config = config(current, "current")?;
    let reference_config = config(reference, "reference")?;
    if current_config != reference_config {
        return Err(format!(
            "configs differ (current {}, reference {}): refusing to compare artifacts from different workloads",
            render_json(current_config),
            render_json(reference_config)
        ));
    }
    let current = metrics(current, "current")?;
    let reference = metrics(reference, "reference")?;
    if reference.is_empty() {
        return Err("the reference artifact has no metric rows".to_string());
    }
    Ok(reference
        .iter()
        .map(|row| {
            let current = current.iter().find(|c| c.key == row.key).map(|c| c.value);
            let (relation, allowed) = row.bound();
            Check {
                key: row.key.clone(),
                class: row.class,
                reference: row.value,
                current,
                relation,
                allowed,
                ok: current.is_some_and(|value| row.admits(value)),
            }
        })
        .collect())
}

/// The diff summary: a markdown table (so CI step output renders it) and
/// a verdict line.
pub fn render(checks: &[Check]) -> String {
    let number = |class: Class, v: f64| match class {
        Class::Exact => format!("{v}"),
        Class::Ratio | Class::Wall => format!("{v:.4}"),
    };
    let mut table =
        MarkdownTable::new(&["key", "class", "reference", "current", "allowed", "verdict"]);
    for c in checks {
        table.row(vec![
            c.key.clone(),
            c.class.name().to_string(),
            number(c.class, c.reference),
            c.current
                .map_or_else(|| "missing".to_string(), |v| number(c.class, v)),
            format!("{} {}", c.relation, number(c.class, c.allowed)),
            if c.ok { "ok" } else { "REGRESSION" }.to_string(),
        ]);
    }
    let failed = checks.iter().filter(|c| !c.ok).count();
    let verdict = if failed == 0 {
        format!("bench-gate: pass ({} comparisons)", checks.len())
    } else {
        format!("bench-gate: REGRESSION ({failed} of {} rows)", checks.len())
    };
    format!("{}{verdict}\n", table.render())
}

fn field<'a>(artifact: &'a Value, key: &str) -> Option<&'a Value> {
    match artifact {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn config<'a>(artifact: &'a Value, side: &str) -> Result<&'a Value, String> {
    field(artifact, "config")
        .or_else(|| field(artifact, "scenario"))
        .ok_or_else(|| format!("the {side} artifact has no config object"))
}

fn metrics(artifact: &Value, side: &str) -> Result<Vec<Metric>, String> {
    let rows = field(artifact, "metrics").ok_or_else(|| {
        format!("the {side} artifact has no metrics list; regenerate it with its bench-* command")
    })?;
    let rows = Vec::<Metric>::from_value(rows)
        .map_err(|e| format!("the {side} artifact's metrics list is malformed: {e}"))?;
    let mut keys: Vec<&str> = rows.iter().map(|m| m.key.as_str()).collect();
    keys.sort_unstable();
    if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(format!(
            "the {side} artifact lists metric {} twice",
            pair[0]
        ));
    }
    Ok(rows)
}

fn render_json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| format!("{v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(config: &str, metrics: Vec<Metric>) -> Value {
        let payload: Value =
            serde_json::from_str(&format!(r#"{{"config":{config}}}"#)).expect("fixture parses");
        with_metrics(&payload, metrics)
    }

    /// Gates a one-row current artifact against a one-row reference.
    fn gate_one(current: Metric, reference: Metric) -> Check {
        let checks = compare(
            &artifact(r#"{"n":8}"#, vec![current]),
            &artifact(r#"{"n":8}"#, vec![reference]),
        )
        .expect("comparable");
        assert_eq!(checks.len(), 1);
        checks.into_iter().next().unwrap()
    }

    #[test]
    fn exact_rows_pass_only_when_equal() {
        let check = gate_one(
            Metric::exact("a.count", 32.0),
            Metric::exact("a.count", 32.0),
        );
        assert!(check.ok);
        assert_eq!((check.relation, check.allowed), ("=", 32.0));
        for drifted in [31.0, 33.0] {
            let check = gate_one(
                Metric::exact("a.count", drifted),
                Metric::exact("a.count", 32.0),
            );
            assert!(!check.ok, "{drifted} must not pass an exact 32");
        }
    }

    #[test]
    fn banded_rows_hold_their_bound_in_both_directions() {
        type Make = fn(&'static str, f64, Better, f64) -> Metric;
        let makers: [(Class, Make); 2] = [
            (Class::Ratio, |k, v, b, t| Metric::ratio(k, v, b, t)),
            (Class::Wall, |k, v, b, t| Metric::wall(k, v, b, t)),
        ];
        for (class, make) in makers {
            // Lower is better: up to reference × (1 + tol) passes.
            let reference = make("x", 2.0, Better::Lower, 0.5);
            let at_bound = gate_one(make("x", 3.0, Better::Lower, 0.5), reference.clone());
            assert!(at_bound.ok, "{class:?}: 3.0 is 2.0 × 1.5");
            assert_eq!((at_bound.class, at_bound.relation), (class, "≤"));
            let improved = gate_one(make("x", 0.1, Better::Lower, 0.5), reference.clone());
            assert!(improved.ok, "{class:?}: lower is better");
            let regressed = gate_one(make("x", 3.01, Better::Lower, 0.5), reference);
            assert!(!regressed.ok, "{class:?}: 3.01 is past 2.0 × 1.5");

            // Higher is better: down to reference × (1 − tol) passes.
            let reference = make("x", 2.0, Better::Higher, 0.25);
            let at_bound = gate_one(make("x", 1.5, Better::Higher, 0.25), reference.clone());
            assert!(at_bound.ok, "{class:?}: 1.5 is 2.0 × 0.75");
            assert_eq!(at_bound.relation, "≥");
            let improved = gate_one(make("x", 90.0, Better::Higher, 0.25), reference.clone());
            assert!(improved.ok, "{class:?}: higher is better");
            let regressed = gate_one(make("x", 1.49, Better::Higher, 0.25), reference);
            assert!(!regressed.ok, "{class:?}: 1.49 is under 2.0 × 0.75");
        }
    }

    #[test]
    fn the_reference_row_sets_the_band() {
        // A current artifact cannot widen its own band.
        let check = gate_one(
            Metric::wall("t", 100.0, Better::Lower, 1000.0),
            Metric::wall("t", 10.0, Better::Lower, 1.0),
        );
        assert!(!check.ok);
        assert_eq!(check.allowed, 20.0);
    }

    #[test]
    fn a_missing_key_fails_and_extra_keys_are_ignored() {
        let checks = compare(
            &artifact(
                "{}",
                vec![Metric::exact("b", 1.0), Metric::exact("extra", 5.0)],
            ),
            &artifact("{}", vec![Metric::exact("a", 1.0), Metric::exact("b", 1.0)]),
        )
        .unwrap();
        assert_eq!(checks.len(), 2, "one check per reference row");
        assert_eq!((checks[0].key.as_str(), checks[0].current), ("a", None));
        assert!(!checks[0].ok);
        assert!(checks[1].ok);
        let summary = render(&checks);
        assert!(summary.contains("missing"), "{summary}");
        assert!(
            summary.contains("bench-gate: REGRESSION (1 of 2 rows)"),
            "{summary}"
        );
    }

    #[test]
    fn differing_configs_are_refused() {
        let rows = || vec![Metric::exact("a", 1.0)];
        let err = compare(
            &artifact(r#"{"n":8}"#, rows()),
            &artifact(r#"{"n":9}"#, rows()),
        )
        .unwrap_err();
        assert!(err.contains("configs differ"), "{err}");
        // The attack report's scenario is its config.
        let scenario = |seed: u64| {
            let payload: Value =
                serde_json::from_str(&format!(r#"{{"scenario":{{"seed":{seed}}}}}"#)).unwrap();
            with_metrics(&payload, rows())
        };
        assert!(compare(&scenario(42), &scenario(42)).is_ok());
        assert!(compare(&scenario(42), &scenario(7)).is_err());
        let no_config = Value::Object(vec![("metrics".to_string(), rows().to_value())]);
        let err = compare(&no_config, &artifact("{}", rows())).unwrap_err();
        assert!(err.contains("no config"), "{err}");
    }

    #[test]
    fn malformed_metric_lists_are_refused() {
        let config_only: Value = serde_json::from_str(r#"{"config":{}}"#).unwrap();
        let good = artifact("{}", vec![Metric::exact("a", 1.0)]);
        let err = compare(&good, &config_only).unwrap_err();
        assert!(err.contains("no metrics list"), "{err}");
        let err = compare(&good, &artifact("{}", vec![])).unwrap_err();
        assert!(err.contains("no metric rows"), "{err}");
        let twice = artifact("{}", vec![Metric::exact("a", 1.0), Metric::exact("a", 2.0)]);
        assert!(compare(&good, &twice).unwrap_err().contains("twice"));
        for row in [
            r#"{"key":"a","value":1.0,"class":"ratio"}"#,
            r#"{"key":"a","value":1.0,"class":"wall","better":"sideways","tol":0.1}"#,
            r#"{"key":"a","value":1.0,"class":"wall","better":"lower","tol":-0.1}"#,
            r#"{"key":"a","value":1.0,"class":"fuzzy"}"#,
            r#"{"key":"a","value":"1.0","class":"exact"}"#,
        ] {
            let bad: Value =
                serde_json::from_str(&format!(r#"{{"config":{{}},"metrics":[{row}]}}"#)).unwrap();
            let err = compare(&good, &bad).unwrap_err();
            assert!(err.contains("malformed"), "{row}: {err}");
        }
    }

    #[test]
    fn metric_rows_round_trip_and_exact_rows_carry_no_band() {
        let rows = vec![
            Metric::exact("store.large.file_bytes", 4_853_150.0),
            Metric::ratio("k.speedup", 3.2, Better::Higher, 0.35),
            Metric::wall("t.ns", 1.5, Better::Lower, 4.0),
        ];
        let json = serde_json::to_string(&rows).unwrap();
        assert!(
            json.starts_with(
                r#"[{"key":"store.large.file_bytes","value":4853150.0,"class":"exact"}"#
            ),
            "{json}"
        );
        let back: Vec<Metric> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
        // Counts written as JSON integers read back as the same value.
        let int: Metric =
            serde_json::from_str(r#"{"key":"c","value":32,"class":"exact"}"#).unwrap();
        assert_eq!(int, Metric::exact("c", 32.0));
    }

    #[test]
    fn unreadable_or_garbage_files_are_errors() {
        let dir = std::env::temp_dir().join(format!("anns-gate-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.json");
        let err = read_artifact(missing.to_str().unwrap()).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{\"config\": [1, 2").unwrap();
        let err = read_artifact(garbage.to_str().unwrap()).unwrap_err();
        assert!(err.contains("bad artifact"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_summary_names_every_row_with_its_class() {
        let reference = artifact(
            "{}",
            vec![
                Metric::exact("a.count", 8.0),
                Metric::wall("a.wall_ms", 2.0, Better::Lower, 4.0),
            ],
        );
        let checks = compare(&reference, &reference).unwrap();
        let summary = render(&checks);
        assert!(summary.contains("| class |"), "{summary}");
        assert!(summary.contains("a.count"), "{summary}");
        assert!(summary.contains("| exact |"), "{summary}");
        assert!(summary.contains("≤ 10.0000"), "{summary}");
        assert!(
            summary.ends_with("bench-gate: pass (2 comparisons)\n"),
            "{summary}"
        );
    }
}
