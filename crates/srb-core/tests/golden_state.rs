//! `Grid::save_state()` is byte-identical to the recorded text, whose
//! rows are in the row form, and the recorded text restores into a grid
//! that saves the same bytes again. A state file the object form wrote
//! (recorded before rows were positional) restores to the same grid.

mod common;

use srb_core::{IngestOptions, RegisterSpec};
use srb_mcat::Template;
use srb_types::Triplet;

const SAVED: &str = include_str!("fixtures/golden_save_state_rows.json");

/// The object-form state file `SAVED` is the twin of.
const OLD_SAVED: &str = include_str!("fixtures/golden_save_state.json");

/// The shared fixture after a few ops: plain, replicated, containered and
/// registered-SQL objects, metadata and an annotation.
fn populated() -> common::Fixture {
    let f = common::grid();
    let conn = common::connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/a.txt",
        &b"alpha \"quoted\"\n"[..],
        IngestOptions::to_resource("unix-sdsc")
            .with_metadata(Triplet::new("k", "v\t\u{1}é", ""))
            .with_metadata(Triplet::new("ratio", 0.25f64, "")),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/rep.dat",
        &b"replicated"[..],
        IngestOptions::to_resource("logrsrc1").with_metadata(Triplet::new("n", -7i64, "m")),
    )
    .unwrap();
    conn.create_container("ct", "ct-store", 1 << 16).unwrap();
    conn.ingest(
        "/home/sekar/in.txt",
        &b"bravo"[..],
        IngestOptions::into_container("ct"),
    )
    .unwrap();
    {
        let db = f
            .grid
            .driver(f.grid.resource_id("oracle-dlib").unwrap())
            .unwrap();
        let db = db.as_db().unwrap();
        db.engine().execute("CREATE TABLE t (x, y, z, w)").unwrap();
        db.engine()
            .execute("INSERT INTO t VALUES (42, 2.5, 'it''s', NULL)")
            .unwrap();
    }
    conn.register(
        "/home/sekar/q",
        RegisterSpec::Sql {
            resource: "oracle-dlib".into(),
            sql: "SELECT x FROM t".into(),
            partial: false,
            template: Template::HtmlRel,
        },
        IngestOptions::default(),
    )
    .unwrap();
    conn.annotate(
        "/home/sekar/a.txt",
        srb_mcat::AnnotationKind::Comment,
        "line 1",
        "looks \"fine\"",
    )
    .unwrap();
    f
}

#[test]
fn save_state_reproduces_the_recorded_bytes() {
    let f = populated();
    assert_eq!(f.grid.save_state().unwrap(), SAVED.trim_end());
}

#[test]
fn the_recorded_state_restores_to_the_same_bytes() {
    let mut f = common::grid();
    f.grid.restore_state(SAVED.trim_end()).unwrap();
    assert_eq!(f.grid.save_state().unwrap(), SAVED.trim_end());
}

#[test]
fn a_state_file_in_the_object_form_restores_to_the_same_grid() {
    let mut old = common::grid();
    old.grid.restore_state(OLD_SAVED.trim_end()).unwrap();
    let mut new = common::grid();
    new.grid.restore_state(SAVED.trim_end()).unwrap();
    assert_eq!(old.grid.mcat.summary(), new.grid.mcat.summary());
    assert_eq!(old.grid.save_state().unwrap(), SAVED.trim_end());
}
