//! BENCHMARK.json, compiled in: the metric names and units this program
//! prints, and each workload's goodput latency limit, come from it.

use serde_json::Value;

const SPEC: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
}

pub struct Spec {
    root: Value,
}

impl Spec {
    pub fn load() -> Spec {
        Spec { root: serde_json::from_str(SPEC).expect("BENCHMARK.json is valid JSON") }
    }

    /// The metrics a run prints: `end_to_end`, or `per_layer` when traced.
    pub fn metrics(&self, traced: bool) -> Vec<Metric> {
        let key = if traced { "per_layer" } else { "end_to_end" };
        self.root
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| Metric {
                name: m.get("name").and_then(Value::as_str).expect("metric name").to_string(),
                unit: m.get("unit").and_then(Value::as_str).expect("metric unit").to_string(),
            })
            .collect()
    }

    /// The goodput latency limit of `workload` in µs, stated in its `why`
    /// as `goodput limit <n> <us|ms|s>`.
    pub fn limit_us(&self, workload: &str) -> f64 {
        let why = self
            .root
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))
            .and_then(|w| w.get("why").and_then(Value::as_str))
            .unwrap_or_else(|| panic!("BENCHMARK.json lists no workload {workload}"));
        let mut words = why
            .split("goodput limit ")
            .nth(1)
            .expect("why states a goodput limit")
            .split_whitespace();
        let n: f64 = words.next().and_then(|n| n.parse().ok()).expect("goodput limit number");
        let scale = match words.next().map(|u| u.trim_end_matches([',', ';', '.', ')'])) {
            Some("us") => 1.0,
            Some("ms") => 1e3,
            Some("s") => 1e6,
            other => panic!("unknown goodput limit unit {other:?}"),
        };
        n * scale
    }
}
