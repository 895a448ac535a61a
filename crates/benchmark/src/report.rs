//! Metrics as printed, as the one-line JSON result, and as the result
//! file `compare` reads back.

use serde::{Deserialize, Serialize, Value};

/// Which list of `BENCHMARK.json` a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Gated: what a user of the serving stack sees.
    EndToEnd,
    /// One layer's share of the work, from the traced run.
    PerLayer,
    /// Printed and stored, but not listed: defined on some workloads only.
    Extra,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::EndToEnd => "end_to_end",
            Class::PerLayer => "per_layer",
            Class::Extra => "extra",
        }
    }
}

/// One measured number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Dotted name, e.g. `p50_ms.low`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Listing class.
    pub class: Class,
}

/// A serde-shim [`Value`] tree, passed through `serde_json` unchanged.
/// The shim serializes maps as pair lists; the result format needs JSON
/// objects, so results are built as `Value`s directly.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

/// `{"value": v, "unit": u}` objects keyed by name, in order.
pub fn metrics_object(metrics: &[&Metric], with_class: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                if with_class {
                    fields.push(("class".to_string(), Value::Str(m.class.label().to_string())));
                }
                (m.name.clone(), Value::Object(fields))
            })
            .collect(),
    )
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(attempted.into())),
        ("failed".to_string(), Value::Int(failed.into())),
        ("metrics".to_string(), metrics_object(metrics, false)),
    ]);
    serde_json::to_string(&Json(line)).expect("finite metrics serialize")
}

/// Field `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// A JSON string.
pub fn string(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}
