//! The three things the benchmark does with the vendored `serde::Value`
//! beyond building documents: look a key up, and move float lists in and
//! out.

use serde::Value;

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub fn f64s(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_seq)
        .map(|s| s.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

pub fn floats(v: &[f64]) -> Value {
    Value::Seq(v.iter().map(|&x| Value::F64(x)).collect())
}
