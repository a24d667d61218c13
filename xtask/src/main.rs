//! Workspace automation: invariant linting, static analysis and the bench
//! artifact gates.
//!
//! - `cargo xtask lint` — source-level invariants rustc and clippy cannot
//!   express, because they are policies of *this* workspace:
//!   - `raw-lock` — every lock goes through `srb_types::sync` (ranked,
//!     deadlock-detected); raw `std::sync` locks are confined to the wrapper.
//!   - `wall-clock` — `SystemTime`/`Instant`/`thread_rng` are confined to
//!     `srb-types/src/clock.rs` and the bench crate; the grid itself runs
//!     on the deterministic `SimClock`.
//!   - `no-unwrap` — no `.unwrap()`/`.expect(` in non-test library code.
//!   - `no-panic-ops` — `panic!`/`todo!`/`unimplemented!` are banned in
//!     `srb-core` op handlers, which execute untrusted client requests.
//!   - `metric-name` — literal metric registrations outside `srb-obs` must
//!     follow the `subsystem.name` scheme (`srb_obs::SUBSYSTEMS`); literal
//!     span names must be bare lowercase op idents.
//!   - `id-hasher-key` — `IdMap`/`IdSet` (the fixed id hasher) are never
//!     keyed by user text (`String`, `str`, `LogicalPath`).
//!   - `storage-door` — a raw driver call in `srb-core` sits inside a
//!     `storage_call(…)`, the door that draws faults and meters access.
//!   - `subject-delete` — `srb-core` drops a dataset or collection row only
//!     through `Mcat::remove_dataset`/`remove_collection`.
//!   - `image-writer` — `srb-mcat` writes table rows into an image only
//!     through the paged `ImageWriter`.
//!   - `render-buffer` — MySRB's renderers write into the body buffer they
//!     are handed, with no `format!`/`.to_string()` beside it.
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
//!
//!   `--dot` regenerates `docs/lock-graph.dot`. The text summary ends with
//!   a ledger line: non-test lines and `pub` items under `crates/*/src`.
//!
//! - `cargo xtask benchcheck` — holds the committed `BENCH_*.json`
//!   artifacts to the bounds in one declarative gate table (see
//!   `benchcheck.rs`); each broken gate is a finding on its artifact.
//!
//! All three commands take `--json` (machine-readable findings) and
//! `--github` (GitHub Actions `::error` annotations for inline PR
//! comments), and exit 1 on any finding.
//!
//! `vendor/` (offline dependency stand-ins) and `xtask/` itself are out of
//! scope; everything under `crates/`, `src/`, and `tests/` is linted.

mod analyze;
mod benchcheck;
mod lexer;
mod lockgraph;
mod rules;

use rules::Violation;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DOT_FILE: &str = "docs/lock-graph.dot";

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
        Some("lint") => lint(&root, &out),
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
                "usage: cargo xtask lint [--json] [--github]\n\
                 \x20      cargo xtask analyze [--dot] [--json] [--github]\n\
                 \x20      cargo xtask benchcheck [--json] [--github]"
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
        violations.extend(rules::id_hasher_keys(rel, &lexed));
        violations.extend(rules::storage_door(rel, &lexed));
        violations.extend(rules::subject_delete(rel, &lexed));
        violations.extend(rules::image_writer(rel, &lexed));
        violations.extend(rules::render_buffer(rel, &lexed));
    }

    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.finish("lint", &violations, format!("{} files clean", files.len()))
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
    // Names outside the linted tree still keep a `pub` item `pub`.
    let refs = rs_files(root, &["benchmark/src", "examples"]);
    let analysis = match analyze::analyze(root, &files, &refs) {
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
    let clean = format!(
        "clean — {} locks, {} acquired-before edges, {} files",
        analysis.registry.defs.len(),
        analysis.graph.edges.len(),
        files.len()
    );
    let code = out.finish("analyze", &analysis.violations, clean);
    if !out.json {
        let ledger = &analysis.ledger;
        println!(
            "xtask analyze: ledger — crates/*/src: {} non-test lines, {} pub items",
            ledger.lines, ledger.pub_items
        );
    }
    code
}
