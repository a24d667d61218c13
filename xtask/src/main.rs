//! Workspace automation: static analysis and the bench artifact gates.
//!
//! The compiler holds the workspace's source invariants where it can
//! (DESIGN.md §8.2): `clippy.toml` bans raw `std::sync` locks and
//! wall-clock reads, crate-root `clippy::unwrap_used`/`expect_used` (and
//! `panic`/`todo`/`unimplemented` in `srb-core`) ban unwraps and panics in
//! library code, the `CatalogKey` bound keeps user text off the id hasher,
//! serde's privacy keeps table rows on the paged image writer, and
//! `srb_obs::MetricName` makes a metric name that breaks the
//! `subsystem.name` scheme a build error. `render_allocs.rs` pins the
//! allocator calls of every MySRB page. The two checks neither can hold,
//! the storage door and the subject delete in `srb-core`, are findings of
//! `analyze`.
//!
//! - `cargo xtask analyze` — structure-aware static concurrency,
//!   determinism and reachability analysis (see `analyze.rs`):
//!   - `lock-order` / `lock-cycle` — the static lock-order graph checked
//!     against the `LockRank` hierarchy (up-rank edges, equal-rank cycles).
//!   - `guard-across-storage` — a ranked guard held across simulated
//!     storage or fan-out dispatch.
//!   - `hash-iter` — nondeterministic `HashMap`/`HashSet` iteration in
//!     snapshot/serialization functions.
//!   - `over-public` — a `pub` item under `crates/*/src` that nothing
//!     outside its unit (the crate's library, or one binary target) names:
//!     it could be `pub(crate)`, and rustc's `dead_code` then reports it
//!     if nothing uses it at all (`benchmark/src/` and `examples/` are
//!     read as references only).
//!   - `storage-door` — a raw driver call in `srb-core` outside a
//!     `storage_call(…)`, the door that draws faults and meters access.
//!   - `subject-delete` — `srb-core` dropping a dataset or collection row
//!     other than through `Mcat::remove_dataset`/`remove_collection`.
//!
//!   `--dot` regenerates `docs/lock-graph.dot`. The text summary ends with
//!   the ledger: non-test lines and `pub` items of each crate's `src/`,
//!   then of all of `crates/*/src`.
//!
//! - `cargo xtask benchcheck` — holds the committed `BENCH_*.json`
//!   artifacts to the bounds in one declarative gate table (see
//!   `benchcheck.rs`); each broken gate is a finding on its artifact.
//!
//! Both commands take `--json` (machine-readable findings) and
//! `--github` (GitHub Actions `::error` annotations for inline PR
//! comments), and exit 1 on any finding.
//!
//! `vendor/` (offline dependency stand-ins) and `xtask/` itself are out of
//! scope; everything under `crates/`, `src/`, and `tests/` is analyzed.

#![forbid(unsafe_code)]

mod analyze;
mod benchcheck;
mod lexer;
mod lockgraph;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DOT_FILE: &str = "docs/lock-graph.dot";

/// One finding: file, line, rule id, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

impl Violation {
    /// GitHub Actions workflow-command form: renders as an inline PR
    /// annotation when printed from CI.
    pub fn github_annotation(&self) -> String {
        // Messages are single-line; commas/colons are fine inside the
        // message part of a workflow command.
        format!(
            "::error file={},line={},title={}::{}",
            self.path, self.line, self.rule, self.msg
        )
    }

    /// Machine-readable form for `--json`.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "msg": self.msg,
        })
    }
}

/// Output flags shared by every command.
#[derive(Default)]
struct Output {
    json: bool,
    github: bool,
}

impl Output {
    /// Print findings in every requested form; human text is always
    /// printed unless `--json` is on (JSON replaces it so the output
    /// stays parseable).
    fn emit(&self, violations: &[Violation]) {
        if self.json {
            let arr: Vec<serde_json::Value> = violations.iter().map(|v| v.to_json()).collect();
            match serde_json::to_string_pretty(&arr) {
                Ok(s) => println!("{s}"),
                Err(e) => eprintln!("xtask: cannot serialize findings: {e}"),
            }
        } else {
            for v in violations {
                println!("{v}");
            }
        }
        if self.github {
            for v in violations {
                println!("{}", v.github_annotation());
            }
        }
    }

    /// Emit `found`, then (unless `--json`) a one-line summary: `clean`
    /// when there is nothing to report. Exit 1 on any finding.
    fn finish(&self, cmd: &str, found: &[Violation], clean: String) -> ExitCode {
        self.emit(found);
        if !self.json {
            match found.len() {
                0 => println!("xtask {cmd}: {clean}"),
                1 => println!("xtask {cmd}: 1 violation"),
                n => println!("xtask {cmd}: {n} violations"),
            }
        }
        if found.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = Output {
        json: args.iter().any(|a| a == "--json"),
        github: args.iter().any(|a| a == "--github"),
    };
    let root = match root_override(&args) {
        Some(r) => r,
        None => workspace_root(),
    };
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let dot = args.iter().any(|a| a == "--dot");
            run_analyze(&root, dot, &out)
        }
        Some("benchcheck") => {
            let (found, gates) = benchcheck::benchcheck(&root);
            out.finish("benchcheck", &found, format!("{gates} gates hold"))
        }
        _ => {
            eprintln!(
                "usage: cargo xtask analyze [--dot] [--json] [--github]\n\
                 \x20      cargo xtask benchcheck [--json] [--github]"
            );
            ExitCode::from(2)
        }
    }
}

/// `--root <dir>` points the analyzer at another tree (used by the fixture
/// tests to run the real binary over a corpus of seeded violations).
fn root_override(args: &[String]) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == "--root")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the manifest dir's parent is the root.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir)
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from(".")),
        Err(_) => PathBuf::from("."),
    }
}

/// All workspace-relative `.rs` paths in scope, sorted.
fn analyzed_files(root: &Path) -> Vec<String> {
    rs_files(root, &["crates", "src", "tests"])
}

/// Workspace-relative `.rs` paths under the `tops` directories, sorted.
fn rs_files(root: &Path, tops: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for top in tops {
        collect_rs(&root.join(top), root, &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" {
                continue;
            }
            collect_rs(&path, root, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                // Normalize to forward slashes so rules are
                // platform-independent.
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

fn run_analyze(root: &Path, dot: bool, out: &Output) -> ExitCode {
    let files = analyzed_files(root);
    if files.is_empty() {
        eprintln!(
            "xtask analyze: no source files found under {}",
            root.display()
        );
        return ExitCode::from(2);
    }
    // Names outside the analyzed tree still keep a `pub` item `pub`.
    let refs = rs_files(root, &["benchmark/src", "examples"]);
    let analysis = match analyze::analyze(root, &files, &refs) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if dot {
        let text = analysis.graph.emit_dot(&analysis.registry, &analysis.ranks);
        let path = root.join(DOT_FILE);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("xtask analyze: cannot write {DOT_FILE}: {e}");
            return ExitCode::from(2);
        }
        if !out.json {
            println!("xtask analyze: wrote {DOT_FILE}");
        }
    }
    let clean = format!(
        "clean — {} locks, {} acquired-before edges, {} files",
        analysis.registry.defs.len(),
        analysis.graph.edges.len(),
        files.len()
    );
    let code = out.finish("analyze", &analysis.violations, clean);
    if !out.json {
        let ledger = &analysis.ledger;
        let line = |part: &str, count: &analyze::Count| {
            println!(
                "xtask analyze: ledger — {part}: {} non-test lines, {} pub items",
                count.lines, count.pub_items
            );
        };
        for (krate, count) in &ledger.crates {
            line(&format!("crates/{krate}/src"), count);
        }
        line("crates/*/src", &ledger.total);
    }
    code
}

#[cfg(test)]
mod tests {
    use super::Violation;

    #[test]
    fn github_annotation_and_json_forms() {
        let v = Violation {
            path: "crates/x/src/a.rs".into(),
            line: 7,
            rule: "storage-door",
            msg: "nope".into(),
        };
        assert_eq!(
            v.github_annotation(),
            "::error file=crates/x/src/a.rs,line=7,title=storage-door::nope"
        );
        let j = serde_json::to_string(&v.to_json()).unwrap();
        assert!(j.contains("\"rule\":\"storage-door\""), "{j}");
    }
}
