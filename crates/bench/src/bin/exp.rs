//! `exp <name> [--json] [--metrics-json]` runs one experiment of
//! DESIGN.md §5; `exp all` runs the suite. Without a flag the experiment's
//! tables are printed; `--json` / `--metrics-json` instead record its
//! `BENCH_*.json` artifact in the current directory.

use bench::experiments::{Artifact, Experiment, REGISTRY};
use std::process::ExitCode;

fn record((file, document): Artifact) -> Result<(), String> {
    let text = serde_json::to_string_pretty(&document()).map_err(|e| format!("{file}: {e}"))?;
    std::fs::write(file, text).map_err(|e| format!("failed to write {file}: {e}"))?;
    println!("wrote {file}");
    Ok(())
}

fn run(selected: &[&Experiment], suite: bool, json: bool, metrics: bool) -> Result<(), String> {
    if !(json || metrics) {
        for e in selected {
            for table in (e.tables)(suite) {
                table.print();
            }
        }
        return Ok(());
    }
    let wanted: Vec<Artifact> = selected
        .iter()
        .flat_map(|e| [e.json.filter(|_| json), e.metrics.filter(|_| metrics)])
        .flatten()
        .collect();
    if wanted.is_empty() {
        return Err("nothing selected records that artifact".into());
    }
    wanted.into_iter().try_for_each(record)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let suite = names[..] == ["all"];
    let selected: Vec<&Experiment> = match names[..] {
        [name] => REGISTRY
            .iter()
            .filter(|e| suite || e.name == name)
            .collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        eprintln!("usage: exp <name>|all [--json] [--metrics-json]\nexperiments:");
        for e in REGISTRY {
            eprintln!("  {}", e.name);
        }
        return ExitCode::from(2);
    }
    match run(&selected, suite, flag("--json"), flag("--metrics-json")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::FAILURE
        }
    }
}
