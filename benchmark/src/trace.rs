//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Kept in memory, written once at the end as Chrome-trace JSON (open in
//! `chrome://tracing` or Perfetto). Spans inside the program are a later
//! change; these are the layer boundaries visible from outside.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Which timed unit the span belongs to.
    pub unit: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            unit: self.unit,
            name,
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_us = self.now_us();
        out
    }

    /// A top-level span for one timed unit; numbers the unit.
    pub fn unit<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.unit += 1;
        self.span(name, f)
    }

    /// Self time per span name, µs per unit: a span's duration minus the
    /// part its children cover, summed by name and divided by the units.
    pub fn self_us_per_unit(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p as usize] += s.dur_us();
            }
        }
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            *by_name.entry(s.name).or_insert(0.0) += s.dur_us() - child_us[s.id as usize];
        }
        let units = f64::from(self.unit.max(1));
        by_name.values_mut().for_each(|v| *v /= units);
        by_name
    }

    /// Total duration per span name, µs per unit.
    pub fn total_us_per_unit(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            *by_name.entry(s.name).or_insert(0.0) += s.dur_us();
        }
        let units = f64::from(self.unit.max(1));
        by_name.values_mut().for_each(|v| *v /= units);
        by_name
    }

    /// Write the spans as Chrome-trace "complete" events.
    pub fn write_chrome(&self, path: &Path, metadata: Value) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str("fpbench".into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::F64(s.start_us)),
                    ("dur".into(), Value::F64(s.dur_us())),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(1)),
                    (
                        "args".into(),
                        Value::Map(vec![
                            ("id".into(), Value::U64(u64::from(s.id))),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::U64(u64::from(p))),
                            ),
                            ("unit".into(), Value::U64(u64::from(s.unit))),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            ("traceEvents".into(), Value::Seq(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("metadata".into(), metadata),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, serde_json::to_string(&doc).expect("trace serializes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.unit("unit", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let own = t.self_us_per_unit();
        let total = t.total_us_per_unit();
        assert!(own["child"] >= 5_000.0);
        assert!(own["unit"] >= 2_000.0 && own["unit"] < total["unit"] - 4_000.0);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].unit, 1);
    }
}
