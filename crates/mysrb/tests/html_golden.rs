//! Every MySRB page, byte for byte: each request of `common::pages` and
//! `common::federated_pages` renders one page, and its body must equal
//! `tests/fixtures/<name>.html`.
//!
//! A mismatch writes the new rendering under the test temporary directory
//! (`CARGO_TARGET_TMPDIR/html_golden/<name>.html`) and names it in the
//! failure, so a deliberate change is re-recorded by copying that file
//! over the fixture and reviewing the diff.

mod common;

use mysrb::MySrb;
use std::path::PathBuf;

/// Compare one rendered body against its fixture; a mismatch is recorded
/// in `failures` (so one run reports every page that moved).
fn check(failures: &mut Vec<String>, name: &str, status: u16, resp: &mysrb::Response) {
    let body = resp.text();
    if resp.status != status {
        failures.push(format!(
            "{name}: status {} != {status}\n{body}",
            resp.status
        ));
        return;
    }
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.html"));
    if std::fs::read_to_string(&fixture).ok().as_deref() == Some(body.as_str()) {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("html_golden");
    std::fs::create_dir_all(&out).unwrap();
    let actual = out.join(format!("{name}.html"));
    std::fs::write(&actual, &body).unwrap();
    failures.push(format!(
        "{name}: differs from {}; rendering written to {}",
        fixture.display(),
        actual.display()
    ));
}

#[test]
fn every_page_matches_its_golden() {
    let (grid, srv) = common::seeded_grid();
    let app = MySrb::new(&grid, srv, 1);
    let key = common::login(&app);
    let mut failures = Vec::new();
    for (name, status, req) in common::pages(Some(&key)) {
        check(&mut failures, name, status, &app.handle(&req));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn federated_pages_match_their_goldens() {
    let (fed, a, b) = common::federation();
    let mut failures = Vec::new();
    for (name, status, app, req) in common::federated_pages(&fed, a, b) {
        check(&mut failures, name, status, &app.handle(&req));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
