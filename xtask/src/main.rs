//! Workspace automation: invariant linting and static analysis.
//!
//! - `cargo xtask lint` — source-level invariants rustc and clippy cannot
//!   express, because they are policies of *this* workspace:
//!   - `raw-lock` — every lock goes through `srb_types::sync` (ranked,
//!     deadlock-detected); raw `parking_lot` is confined to the wrapper.
//!   - `wall-clock` — `SystemTime`/`Instant`/`thread_rng` are confined to
//!     `srb-types/src/clock.rs` and the bench crate; the grid itself runs
//!     on the deterministic `SimClock`.
//!   - `no-unwrap` — no `.unwrap()`/`.expect(` in non-test library code.
//!   - `no-panic-ops` — `panic!`/`todo!`/`unimplemented!` are banned in
//!     `srb-core` op handlers, which execute untrusted client requests.
//!   - `metric-name` — literal metric registrations outside `srb-obs` must
//!     follow the `subsystem.name` scheme (`srb_obs::SUBSYSTEMS`); literal
//!     span names must be bare lowercase op idents.
//!
//! - `cargo xtask analyze` — structure-aware static concurrency and
//!   determinism analysis (see `analyze.rs`): the static lock-order graph
//!   checked against the `LockRank` hierarchy, ranked guards held across
//!   simulated storage / fan-out dispatch, and nondeterministic
//!   `HashMap`/`HashSet` iteration in snapshot/serialization functions.
//!   `--dot` regenerates `docs/lock-graph.dot`.
//!
//! Both commands take `--json` (machine-readable findings) and `--github`
//! (GitHub Actions `::error` annotations for inline PR comments).
//!
//! `vendor/` (offline dependency stand-ins) and `xtask/` itself are out of
//! scope; everything under `crates/`, `src/`, and `tests/` is linted.
//!
//! `cargo xtask benchcheck` validates the `BENCH_*.json` artifacts (see
//! `benchcheck.rs`).

mod analyze;
mod benchcheck;
mod lexer;
mod lockgraph;
mod rules;

use rules::Violation;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DOT_FILE: &str = "docs/lock-graph.dot";

/// Output flags shared by `lint` and `analyze`.
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
        Some("lint") => lint(&root, &out),
        Some("analyze") => {
            let dot = args.iter().any(|a| a == "--dot");
            run_analyze(&root, dot, &out)
        }
        Some("benchcheck") => benchcheck::benchcheck(&root),
        _ => {
            eprintln!(
                "usage: cargo xtask lint [--json] [--github]\n\
                 \x20      cargo xtask analyze [--dot] [--json] [--github]\n\
                 \x20      cargo xtask benchcheck"
            );
            ExitCode::from(2)
        }
    }
}

/// `--root <dir>` points the scanner at another tree (used by the fixture
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
fn lintable_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests"] {
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

fn lint(root: &Path, out: &Output) -> ExitCode {
    let files = lintable_files(root);
    if files.is_empty() {
        eprintln!("xtask lint: no source files found under {}", root.display());
        return ExitCode::from(2);
    }

    let mut violations: Vec<Violation> = Vec::new();

    for rel in &files {
        let Ok(src) = std::fs::read_to_string(root.join(rel)) else {
            eprintln!("xtask lint: unreadable file {rel}");
            return ExitCode::from(2);
        };
        let lexed = lexer::Lexed::new(&src);
        violations.extend(rules::raw_lock(rel, &lexed));
        violations.extend(rules::wall_clock(rel, &lexed));
        violations.extend(rules::panic_ops(rel, &lexed));
        violations.extend(rules::metric_names(rel, &lexed));
        violations.extend(rules::unwraps(rel, &lexed));
    }

    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.emit(&violations);
    if violations.is_empty() {
        if !out.json {
            println!("xtask lint: {} files clean", files.len());
        }
        ExitCode::SUCCESS
    } else {
        if !out.json {
            println!(
                "xtask lint: {} violation{} in {} files",
                violations.len(),
                if violations.len() == 1 { "" } else { "s" },
                files.len()
            );
        }
        ExitCode::FAILURE
    }
}

fn run_analyze(root: &Path, dot: bool, out: &Output) -> ExitCode {
    let files = lintable_files(root);
    if files.is_empty() {
        eprintln!(
            "xtask analyze: no source files found under {}",
            root.display()
        );
        return ExitCode::from(2);
    }
    let analysis = match analyze::analyze(root, &files) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if !analysis.ranks_from_source && !out.json {
        println!(
            "xtask analyze: note: could not parse LockRank from \
             crates/srb-types/src/sync.rs; using the built-in hierarchy"
        );
    }
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
    out.emit(&analysis.violations);
    if analysis.violations.is_empty() {
        if !out.json {
            println!(
                "xtask analyze: clean — {} locks, {} acquired-before edges, {} files",
                analysis.registry.defs.len(),
                analysis.graph.edges.len(),
                files.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !out.json {
            println!(
                "xtask analyze: {} violation{}",
                analysis.violations.len(),
                if analysis.violations.len() == 1 {
                    ""
                } else {
                    "s"
                },
            );
        }
        ExitCode::FAILURE
    }
}
