//! One run, printed: every metric by name with its unit, the run's facts,
//! and the result line the driver reads.
//!
//! Names, units and their order come from `BENCHMARK.json`; a run that
//! produced a metric the file does not declare, or a value that is not a
//! number, is an error and prints no result.

use crate::spec::Declared;
use crate::workloads::Outcome;
use serde_json::Value;

/// Every output check passed: no failed call and the whole-run checks
/// (recovery, digests, populations) held.
pub fn correct(out: &Outcome) -> bool {
    out.failed == 0 && out.checks_ok && out.attempted > 0
}

/// Print the run. `declared` is the metric set of this kind of run
/// (end-to-end for a plain run, per-layer for a traced one). Every
/// workload produces every end-to-end metric; a per-layer metric is
/// produced by the workloads that reach its layer, and the `info` line
/// lists those under `reached`. The result line carries every declared
/// name, as the driver requires, with 0 for a layer not reached.
pub fn print(
    workload: &str,
    out: &Outcome,
    declared: &[Declared],
    trace: bool,
) -> Result<(), String> {
    for (name, value) in &out.metrics {
        if !declared.iter().any(|d| d.name == *name) {
            return Err(format!(
                "{workload}: metric '{name}' is not declared in BENCHMARK.json"
            ));
        }
        if !value.is_finite() {
            return Err(format!("{workload}: metric '{name}' is {value}"));
        }
    }
    if let Some(d) = declared
        .iter()
        .find(|d| !trace && !out.metrics.contains_key(d.name.as_str()))
    {
        return Err(format!(
            "{workload}: end-to-end metric '{}' was not produced",
            d.name
        ));
    }
    println!(
        "workload {workload} ({})",
        if trace { "traced" } else { "plain" }
    );
    let produced = |d: &Declared| out.metrics.get(d.name.as_str()).copied();
    for d in declared {
        if let Some(v) = produced(d) {
            println!("  {:<44} {v:>16.4} {}", d.name, d.unit);
        }
    }
    let mut info: Vec<(String, Value)> = out
        .info
        .iter()
        .map(|(k, v)| (k.to_string(), Value::F64(*v)))
        .collect();
    let reached: Vec<&str> = declared
        .iter()
        .filter(|d| produced(d).is_some())
        .map(|d| d.name.as_str())
        .collect();
    info.push(("reached".into(), serde_json::to_value(&reached)));
    println!("info {}", Value::Map(info).render(false));
    let metrics = Value::Map(
        declared
            .iter()
            .map(|d| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::F64(produced(d).unwrap_or(0.0))),
                    ("unit".into(), Value::Str(d.unit.clone())),
                ]);
                (d.name.clone(), entry)
            })
            .collect(),
    );
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct(out))),
        ("attempted".into(), Value::U64(out.attempted)),
        ("failed".into(), Value::U64(out.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.render(false));
    Ok(())
}
