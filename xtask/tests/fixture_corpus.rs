//! Golden-findings test: runs the real `xtask` binary over the seeded
//! fixture tree in `tests/fixtures/tree` and checks that every planted
//! violation is reported (and nothing else is).
//!
//! The fixture files are frozen — line numbers below are part of the
//! goldens. If you edit a fixture, update the goldens here.

use std::process::Command;

fn fixture_root() -> String {
    format!(
        "{}/tests/fixtures/tree",
        env!("CARGO_MANIFEST_DIR").replace('\\', "/")
    )
}

fn run(args: &[&str], root: &str) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .args(["--root", root])
        .output()
        .expect("xtask binary runs");
    assert!(
        out.stderr.is_empty(),
        "unexpected stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// `path:line: [rule]` prefixes of every seeded analyze violation.
const ANALYZE_GOLDENS: &[&str] = &[
    "crates/fix-det/src/snapshot.rs:15: [hash-iter]",
    "crates/fix-det/src/snapshot.rs:21: [hash-iter]",
    "crates/fix-lock/src/order.rs:36: [lock-order]",
    "crates/fix-lock/src/order.rs:43: [lock-cycle]",
    "crates/fix-lock/src/storage.rs:24: [guard-across-storage]",
];

/// `path:line: [rule]` prefixes of every seeded lint violation.
const LINT_GOLDENS: &[&str] = &[
    "crates/fix-lint/src/bait.rs:4: [raw-lock]",
    "crates/fix-lint/src/bait.rs:5: [wall-clock]",
    "crates/fix-lint/src/bait.rs:8: [wall-clock]",
    "crates/fix-lint/src/bait.rs:13: [no-unwrap]",
    "crates/mysrb/src/app.rs:6: [metric-name]",
    "crates/mysrb/src/app.rs:7: [metric-name]",
    "crates/srb-core/src/ops_fix.rs:5: [no-panic-ops]",
];

#[test]
fn analyze_detects_every_seeded_violation() {
    let (stdout, code) = run(&["analyze"], &fixture_root());
    assert_eq!(code, 1, "exit 1 on violations:\n{stdout}");
    for golden in ANALYZE_GOLDENS {
        assert!(stdout.contains(golden), "missing `{golden}` in:\n{stdout}");
    }
    // …and nothing beyond the seeded set.
    let findings = stdout.lines().filter(|l| l.contains(": [")).count();
    assert_eq!(findings, ANALYZE_GOLDENS.len(), "extra findings:\n{stdout}");
    // The clean fixtures (down-rank nesting, guard dropped before
    // dispatch, sorted/terminal/ordered iteration) must not appear.
    for clean in ["layered", "flush_ok", "snapshot_sorted", "digest", "render"] {
        assert!(
            !stdout.contains(clean),
            "false positive `{clean}`:\n{stdout}"
        );
    }
    // The inversion message names both locks and their parsed ranks.
    assert!(stdout.contains("`fix.core` (LockRank::CoreState = 3)"));
    assert!(stdout.contains("`fix.store` (LockRank::Storage = 1)"));
    // The cycle message spells out the loop.
    assert!(stdout.contains("fix.table_a -> fix.table_b -> fix.table_a"));
}

#[test]
fn lint_detects_every_seeded_violation() {
    let (stdout, code) = run(&["lint"], &fixture_root());
    assert_eq!(code, 1, "exit 1 on violations:\n{stdout}");
    for golden in LINT_GOLDENS {
        assert!(stdout.contains(golden), "missing `{golden}` in:\n{stdout}");
    }
    let findings = stdout.lines().filter(|l| l.contains(": [")).count();
    assert_eq!(findings, LINT_GOLDENS.len(), "extra findings:\n{stdout}");
    // The escaped-quote literal is validated in full, not truncated.
    assert!(stdout.contains("web.a\"b"), "truncated literal:\n{stdout}");
    // Well-formed metric names on the same fixture lines pass.
    assert!(!stdout.contains("web.requests"));
    assert!(!stdout.contains("query.latency_ms"));
}

#[test]
fn json_output_is_machine_readable() {
    let (stdout, code) = run(&["analyze", "--json"], &fixture_root());
    assert_eq!(code, 1);
    // JSON replaces the human output entirely.
    assert!(stdout.trim_start().starts_with('['), "not JSON:\n{stdout}");
    for rule in [
        "lock-order",
        "lock-cycle",
        "guard-across-storage",
        "hash-iter",
    ] {
        assert!(
            stdout.contains(&format!("\"{rule}\"")),
            "no {rule}:\n{stdout}"
        );
    }
    let (lint_out, lint_code) = run(&["lint", "--json"], &fixture_root());
    assert_eq!(lint_code, 1);
    assert!(lint_out.trim_start().starts_with('['));
    for rule in [
        "no-unwrap",
        "raw-lock",
        "wall-clock",
        "metric-name",
        "no-panic-ops",
    ] {
        assert!(
            lint_out.contains(&format!("\"{rule}\"")),
            "no {rule}:\n{lint_out}"
        );
    }
}

#[test]
fn github_annotations_are_emitted() {
    let (stdout, _) = run(&["analyze", "--github"], &fixture_root());
    assert!(
        stdout.contains("::error file=crates/fix-lock/src/order.rs,line=36,title=lock-order::"),
        "no annotation:\n{stdout}"
    );
    let annotations = stdout.lines().filter(|l| l.starts_with("::error ")).count();
    assert_eq!(annotations, ANALYZE_GOLDENS.len());
}

#[test]
fn dot_emission_renders_the_graph() {
    // Copy the fixture tree to a scratch dir so --dot never writes into
    // the source tree.
    let scratch = std::env::temp_dir().join(format!("xtask-fixture-dot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(std::path::Path::new(&fixture_root()), &scratch).expect("copy fixture tree");

    let (stdout, _) = run(&["analyze", "--dot"], &scratch.to_string_lossy());
    assert!(stdout.contains("wrote docs/lock-graph.dot"), "{stdout}");
    let dot = std::fs::read_to_string(scratch.join("docs/lock-graph.dot")).expect("dot written");
    assert!(dot.contains("digraph lock_order"), "{dot}");
    // Nodes are clustered by rank, edges labeled with their site.
    assert!(dot.contains("cluster_rank3"), "{dot}");
    assert!(dot.contains("\"fix.store\" -> \"fix.core\""), "{dot}");
    assert!(dot.contains("order.rs:36"), "{dot}");

    let _ = std::fs::remove_dir_all(&scratch);
}

fn copy_tree(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
        }
    }
    Ok(())
}
