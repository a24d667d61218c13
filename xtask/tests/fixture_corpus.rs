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
    "crates/fix-det/src/checkpoint.rs:13: [hash-iter]",
    "crates/fix-det/src/snapshot.rs:15: [hash-iter]",
    "crates/fix-det/src/snapshot.rs:21: [hash-iter]",
    "crates/fix-lock/src/order.rs:36: [lock-order]",
    "crates/fix-lock/src/order.rs:43: [lock-cycle]",
    "crates/fix-lock/src/storage.rs:24: [guard-across-storage]",
    "crates/fix-public/src/bin/tool.rs:6: [over-public]",
    "crates/fix-public/src/lib.rs:10: [over-public]",
    "crates/fix-public/src/lib.rs:15: [over-public]",
    "crates/fix-reach/src/lib.rs:4: [over-public]",
    "crates/fix-reach/src/lib.rs:9: [over-public]",
    "crates/fix-reach/src/lib.rs:15: [over-public]",
    "crates/srb-core/src/ops_fix.rs:6: [storage-door]",
    "crates/srb-core/src/ops_fix.rs:14: [subject-delete]",
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
    // dispatch, sorted/terminal/ordered iteration, `pub(crate)` and
    // test-module fns, `pub` items that `tests/`, `examples/`,
    // `benchmark/src/`, a `pub use`, a `pub` signature, the crate's
    // `tests/` or its `src/bin/` name, and the driver call inside the door
    // and the catalog call that drops a row) must not appear.
    for clean in [
        "layered",
        "flush_ok",
        "snapshot_sorted",
        "checkpoint_sorted",
        "digest",
        "render",
        "used_by_tests",
        "used_by_examples",
        "used_by_benchmark",
        "crate_only",
        "called_here",
        "test_helper",
        "Reexported",
        "Token",
        "make_token",
        "used_by_bin",
        "ops_fix.rs:7",
        "ops_fix.rs:15",
    ] {
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
    // The summary ends with the ledger of `crates/*/src`.
    assert_eq!(
        stdout.lines().last(),
        Some("xtask analyze: ledger — crates/*/src: 228 non-test lines, 39 pub items"),
        "{stdout}"
    );
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
        "over-public",
        "storage-door",
        "subject-delete",
    ] {
        assert!(
            stdout.contains(&format!("\"{rule}\"")),
            "no {rule}:\n{stdout}"
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
    assert!(
        stdout.contains("::error file=crates/fix-reach/src/lib.rs,line=4,title=over-public::"),
        "no annotation:\n{stdout}"
    );
    assert!(
        stdout.contains("::error file=crates/fix-public/src/lib.rs,line=15,title=over-public::"),
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
    // Nodes are clustered by rank, edges labeled with their file (no
    // line, so moving a lock's code does not change the graph).
    assert!(dot.contains("cluster_rank3"), "{dot}");
    assert!(dot.contains("\"fix.store\" -> \"fix.core\""), "{dot}");
    assert!(dot.contains("[label=\"order.rs\"]"), "{dot}");

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

#[test]
fn analyze_fails_closed_without_the_lock_hierarchy() {
    // A copy of the fixture tree whose `sync.rs` is gone, then unreadable
    // as a hierarchy: no lock can be ranked, so analyze refuses to run.
    let scratch = std::env::temp_dir().join(format!("xtask-fixture-ranks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(std::path::Path::new(&fixture_root()), &scratch).expect("copy fixture tree");
    let sync = scratch.join("crates/srb-types/src/sync.rs");
    for text in [None, Some("pub enum Rank { Topology }\n")] {
        match text {
            None => std::fs::remove_file(&sync).expect("sync.rs removed"),
            Some(text) => std::fs::write(&sync, text).expect("sync.rs rewritten"),
        }
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["analyze", "--root", &scratch.to_string_lossy()])
            .output()
            .expect("xtask binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("crates/srb-types/src/sync.rs"), "{stderr}");
        assert!(out.stdout.is_empty(), "no findings without a hierarchy");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
