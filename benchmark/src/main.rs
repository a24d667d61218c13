//! `gridbench` command line.
//!
//! ```text
//! gridbench --workload W --seed N --seconds S --trace 0|1 [--scale F]
//! gridbench run [--seed N] [--scale F] [--workload W] [--trace] [--repeats K] [--out FILE]
//! gridbench compare A.json B.json
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of output is the result object. `run` makes one such run per
//! workload, each in a fresh child process, and writes one document;
//! `compare` judges two such documents against `BENCHMARK.json`'s bounds.

use gridbench::workloads::{self, Cfg};
use gridbench::{compare, report, spec, suite, trace};
use std::process::ExitCode;

const USAGE: &str = "usage:
  gridbench --workload W --seed N --seconds S --trace 0|1 [--scale F]
  gridbench run [--seed N] [--scale F] [--workload W] [--trace] [--repeats K] [--out FILE]
  gridbench compare A.json B.json";

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read '{v}'")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn one_run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or(USAGE)?;
    let cfg = Cfg {
        seed: args.parsed("--seed", 1)?,
        seconds: args.parsed("--seconds", workloads::BASE_SECONDS)?,
        scale: args.parsed("--scale", 1.0)?,
        trace: args.parsed::<u8>("--trace", 0)? != 0,
    };
    if !(cfg.seconds > 0.0 && cfg.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    let bench = spec::load()?;
    let declared = if cfg.trace {
        &bench.per_layer
    } else {
        &bench.end_to_end
    };
    let out = workloads::run(workload, &cfg)
        .ok_or_else(|| format!("no workload '{workload}'; known: {:?}", workloads::NAMES))?;
    if cfg.trace {
        let path = spec::repo_root().join(format!("benchmark/out/trace-{workload}.jsonl"));
        trace::write_jsonl(&path, &out.tracers).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    report::print(workload, &out, declared, cfg.trace)?;
    if report::correct(&out) {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "{workload}: output checks failed ({} of {} calls, whole-run checks {})",
            out.failed,
            out.attempted,
            if out.checks_ok { "passed" } else { "FAILED" }
        );
        Ok(ExitCode::from(2))
    }
}

fn suite_run(args: &Args) -> Result<ExitCode, String> {
    let spec = spec::load()?;
    let suite_args = suite::SuiteArgs {
        seed: args.parsed("--seed", 1)?,
        scale: args.parsed("--scale", 1.0)?,
        workload: args.value("--workload").map(str::to_string),
        trace: args.flag("--trace"),
        repeats: args.parsed("--repeats", 5)?,
        out: args.value("--out").map(Into::into),
    };
    suite::run(&spec, &suite_args)?;
    Ok(ExitCode::SUCCESS)
}

fn compare_docs(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.0.as_slice() else {
        return Err(USAGE.into());
    };
    let load = |path: &String| -> Result<serde_json::Value, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&raw).map_err(|e| format!("{path}: {e}"))
    };
    let worse = compare::compare(&spec::load()?, &load(a)?, &load(b)?)?;
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => suite_run(&Args(argv.split_off(1))),
        Some("compare") => compare_docs(&Args(argv.split_off(1))),
        Some(first) if first.starts_with("--") => one_run(&Args(argv)),
        _ => Err(USAGE.into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}
