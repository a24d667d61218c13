//! `gridbench run`: every workload in a fresh child process, one result
//! document.

use crate::spec::{repo_root, Spec};
use crate::stats::{median, spread};
use crate::{gen, workloads};
use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

/// What `gridbench run` was asked to do.
pub struct SuiteArgs {
    /// Workload seed, the same for every repeat: the spread between
    /// repeats is then the host's, not the inputs'.
    pub seed: u64,
    /// Shrinks op counts and populations (smoke runs).
    pub scale: f64,
    /// Only this workload.
    pub workload: Option<String>,
    /// Also make one traced run per workload.
    pub trace: bool,
    /// Plain runs per workload.
    pub repeats: u64,
    /// Where the result document goes (default `benchmark/out/result.json`).
    pub out: Option<PathBuf>,
}

/// One child's parsed output.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Name, value, unit of every metric the run reached.
    metrics: Vec<(String, f64, String)>,
    info: Vec<(String, f64)>,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fail = |why: &str| {
        format!(
            "{workload} (seed {seed}, trace {trace}): {why}\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        )
    };
    let last = stdout.lines().last().ok_or_else(|| fail("no output"))?;
    let v: Value = serde_json::from_str(last).map_err(|e| fail(&format!("result line: {e}")))?;
    let info_line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info "))
        .and_then(|l| serde_json::from_str::<Value>(l).ok())
        .ok_or_else(|| fail("no info line"))?;
    let reached: Vec<&str> = info_line
        .get("reached")
        .and_then(Value::as_array)
        .ok_or_else(|| fail("info line has no 'reached'"))?
        .iter()
        .filter_map(Value::as_str)
        .collect();
    let mut metrics = Vec::new();
    for (name, m) in v
        .get("metrics")
        .and_then(Value::as_map_slice)
        .ok_or_else(|| fail("result line has no metrics"))?
    {
        if !reached.contains(&name.as_str()) {
            continue;
        }
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| fail(&format!("{name} has no numeric value")))?;
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        metrics.push((name.clone(), value, unit.to_string()));
    }
    let info = info_line
        .as_map_slice()
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    let parsed = Child {
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: v.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: v.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics,
        info,
    };
    if !out.status.success() || !parsed.correct {
        return Err(fail("output checks failed"));
    }
    Ok(parsed)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Fold runs into `name → {unit, values, median, spread}`. Repeats of
/// one workload reach the same layers, so the first run's names are
/// everyone's.
fn fold(runs: &[Child]) -> Value {
    let Some(first) = runs.first() else {
        return Value::Map(Vec::new());
    };
    Value::Map(
        first
            .metrics
            .iter()
            .map(|(name, _, unit)| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.iter().find(|m| m.0 == *name).map(|m| m.1))
                    .collect();
                let entry = Value::Map(vec![
                    ("unit".into(), Value::Str(unit.clone())),
                    ("median".into(), Value::F64(median(&values))),
                    ("spread".into(), Value::F64(spread(&values))),
                    ("values".into(), serde_json::to_value(&values)),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

fn fold_info(runs: &[Child]) -> Value {
    let Some(first) = runs.first() else {
        return Value::Map(Vec::new());
    };
    Value::Map(
        first
            .info
            .iter()
            .map(|(name, _)| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.info.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                    .collect();
                (name.clone(), serde_json::to_value(&values))
            })
            .collect(),
    )
}

/// Run the suite; `Err` carries the failing child's output.
pub fn run(spec: &Spec, args: &SuiteArgs) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < gen::CLIENTS {
        eprintln!(
            "warning: {nproc} core(s) for {} clients: they will time-share",
            gen::CLIENTS
        );
    }
    let names: Vec<&str> = workloads::NAMES
        .into_iter()
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    if names.is_empty() {
        return Err(format!("no such workload; known: {:?}", workloads::NAMES));
    }
    let mut per_workload = Vec::new();
    for name in names {
        let mut plain = Vec::new();
        for _ in 0..args.repeats {
            plain.push(child(name, args.seed, spec.run_seconds, args.scale, false)?);
        }
        let traced = if args.trace {
            vec![child(name, args.seed, spec.run_seconds, args.scale, true)?]
        } else {
            Vec::new()
        };
        println!("{name}");
        for runs in [&plain, &traced] {
            if let Some(m) = fold(runs).as_map_slice() {
                for (metric, entry) in m {
                    println!(
                        "  {metric:<44} {:>16.4} {:<8} spread {:.4}",
                        entry["median"].as_f64().unwrap_or(0.0),
                        entry["unit"].as_str().unwrap_or(""),
                        entry["spread"].as_f64().unwrap_or(0.0),
                    );
                }
            }
        }
        let total = |f: fn(&Child) -> u64| plain.iter().chain(&traced).map(f).sum::<u64>();
        per_workload.push((
            name.to_string(),
            Value::Map(vec![
                ("attempted".into(), Value::U64(total(|c| c.attempted))),
                ("failed".into(), Value::U64(total(|c| c.failed))),
                ("info".into(), fold_info(&plain)),
                ("end_to_end".into(), fold(&plain)),
                ("per_layer".into(), fold(&traced)),
            ]),
        ));
    }

    // Read cost, write cost and space trade against each other: print
    // them side by side.
    let pick = |w: &str, section: &str, metric: &str| {
        per_workload
            .iter()
            .find(|(name, _)| name == w)
            .and_then(|(_, v)| v[section].get(metric).cloned())
    };
    let med = |v: Option<Value>| v.and_then(|e| e["median"].as_f64()).unwrap_or(0.0);
    let first = |v: Option<Value>| v.and_then(|e| e[0].as_f64()).unwrap_or(0.0);
    println!(
        "read / write / space: catalog_query latency_p50_us {:.1} | durable_ingest \
         throughput_ops_s {:.0} | log_bytes_per_op {:.0} | peak_rss_mb {:.0}",
        med(pick("catalog_query", "end_to_end", "latency_p50_us")),
        med(pick("durable_ingest", "end_to_end", "throughput_ops_s")),
        first(pick("durable_ingest", "info", "log_bytes_per_op")),
        med(pick("durable_ingest", "end_to_end", "peak_rss_mb")),
    );

    let doc = Value::Map(vec![
        (
            "meta".into(),
            Value::Map(vec![
                (
                    "commit".into(),
                    Value::Str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc".into(), Value::Str(command_line("rustc", &["-V"]))),
                ("nproc".into(), Value::U64(nproc as u64)),
                ("clients".into(), Value::U64(gen::CLIENTS as u64)),
                ("seed".into(), Value::U64(args.seed)),
                ("scale".into(), Value::F64(args.scale)),
                ("seconds".into(), Value::F64(spec.run_seconds)),
                ("repeats".into(), Value::U64(args.repeats)),
            ]),
        ),
        ("workloads".into(), Value::Map(per_workload)),
    ]);
    let text = doc.render(true);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| repo_root().join("benchmark/out/result.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{text}");
    Ok(())
}
