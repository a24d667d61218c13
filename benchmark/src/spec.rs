//! `BENCHMARK.json`: the declared workloads, metrics and bounds.

use serde_json::Value;
use std::path::PathBuf;

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this crate reads.
#[derive(Debug, Clone)]
pub struct Spec {
    /// `--seconds` of one driver run.
    pub run_seconds: f64,
    /// Workload names in declared order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// The repository root: this crate's parent directory.
pub fn repo_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string '{key}'"))
}

fn declared(v: &Value, key: &str) -> Result<Vec<Declared>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array '{key}'"))?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: text(m, "better")?,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// Load `BENCHMARK.json` from the repository root.
pub fn load() -> Result<Spec, String> {
    let path = repo_root().join("BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = v
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: missing array 'workloads'")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds: v
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: missing number 'run_seconds'")?,
        workloads,
        end_to_end: declared(&v, "end_to_end")?,
        per_layer: declared(&v, "per_layer")?,
    })
}
