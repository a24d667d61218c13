//! A `--scale 0.01` run of every workload emits exactly the metric and
//! workload names `BENCHMARK.json` declares.

use gridbench::{spec, workloads};
use std::process::Command;

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn declared_names_are_well_formed() {
    let spec = spec::load().expect("BENCHMARK.json at the repository root");
    assert_eq!(spec.workloads, workloads::NAMES);
    for d in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(name_ok(&d.name), "bad metric name {:?}", d.name);
    }
    assert!(spec
        .end_to_end
        .iter()
        .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(spec
        .end_to_end
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

#[test]
fn smoke_run_emits_every_declared_metric() {
    let spec = spec::load().expect("BENCHMARK.json at the repository root");
    // Per-layer names some workload's traced run reached.
    let mut reached = std::collections::BTreeSet::new();
    for trace in ["0", "1"] {
        for workload in &spec.workloads {
            assert!(name_ok(workload));
            let out = Command::new(env!("CARGO_BIN_EXE_gridbench"))
                .args(["--workload", workload, "--seed", "5", "--seconds", "20"])
                .args(["--scale", "0.01", "--trace", trace])
                .output()
                .expect("spawn gridbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let v: serde_json::Value = serde_json::from_str(last).expect("result line is JSON");
            let keys: Vec<&str> = v
                .as_map_slice()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v["correct"], true, "{workload} trace {trace}: {last}");
            assert_eq!(v["failed"], 0);
            assert!(v["attempted"].as_u64().is_some_and(|n| n >= 1));
            let want = if trace == "1" {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            let got = v["metrics"].as_map_slice().expect("metrics object");
            let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            let want_names: Vec<&str> = want.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(got_names, want_names, "{workload} trace {trace}");
            for ((_, m), d) in got.iter().zip(want) {
                assert_eq!(m["unit"].as_str(), Some(d.unit.as_str()), "{}", d.name);
                let value = m["value"].as_f64().expect("numeric value");
                assert!(value.is_finite(), "{} = {value}", d.name);
                if trace == "0" {
                    assert!(value > 0.0, "{workload}: end-to-end {} is {value}", d.name);
                }
            }
            if trace == "1" {
                let info = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("info "))
                    .expect("an info line");
                let info: serde_json::Value = serde_json::from_str(info).expect("info is JSON");
                let names = info["reached"].as_array().expect("reached list");
                reached.extend(names.iter().filter_map(|n| n.as_str().map(str::to_string)));
            }
        }
    }
    // No declared layer metric is one that no workload reaches.
    let declared: std::collections::BTreeSet<String> =
        spec.per_layer.iter().map(|d| d.name.clone()).collect();
    assert_eq!(reached, declared);
}
