//! Helpers shared by the `annsctl` integration tests.

use std::path::Path;

use anns_bench::gate::{self, Metric};
use serde::{Deserialize, Serialize, Value};

/// Copies the artifact at `path` to `out` with every metric row whose key
/// `pick` selects set to `value`.
///
/// # Panics
///
/// If the artifact cannot be read or `pick` selects no row.
pub fn doctor_metrics(path: &Path, out: &Path, pick: impl Fn(&str) -> bool, value: f64) {
    let mut artifact = gate::read_artifact(path.to_str().unwrap()).unwrap();
    let Value::Object(fields) = &mut artifact else {
        panic!("an artifact is an object");
    };
    let (_, rows) = fields.iter_mut().find(|(k, _)| k == "metrics").unwrap();
    let mut metrics = Vec::<Metric>::from_value(rows).unwrap();
    assert!(metrics.iter().any(|m| pick(&m.key)), "no row to doctor");
    metrics
        .iter_mut()
        .filter(|m| pick(&m.key))
        .for_each(|m| m.value = value);
    *rows = metrics.to_value();
    std::fs::write(out, serde_json::to_string(&artifact).unwrap()).unwrap();
}
