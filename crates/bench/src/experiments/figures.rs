//! F1/F2 — the paper's two figures are MySRB screenshots; we regenerate
//! them as live HTML from a seeded grid and verify their structure.
//!
//! * Figure 1: "SRB Main page showing the Collections with different
//!   objects and Operations" → the split-window browse page.
//! * Figure 2: "File Ingestion Page with Metadata for Dublin Core
//!   Attributes and other user-defined attributes" → the ingest form.

use crate::fixtures::ok;
use crate::table::Table;
use mysrb::{MySrb, Request};
use srb_core::{GridBuilder, IngestOptions, RegisterSpec, SrbConnection};
use srb_mcat::{AttrRequirement, Template};
use srb_net::LinkSpec;
use srb_types::{LogicalPath, Triplet};

fn seeded_app_output(page: &str) -> (String, Table) {
    let mut gb = GridBuilder::new();
    let sdsc = gb.site("sdsc");
    let caltech = gb.site("caltech");
    gb.link(sdsc, caltech, LinkSpec::wan());
    let srv = gb.server("srb-sdsc", sdsc);
    let srv2 = gb.server("srb-caltech", caltech);
    gb.fs_resource("unix-sdsc", srv)
        .archive_resource("hpss-caltech", srv2)
        .db_resource("oracle-dlib", srv2)
        .logical_resource("logrsrc1", &["unix-sdsc", "hpss-caltech"]);
    let grid = gb.build();
    ok(grid.register_user("sekar", "sdsc", "demo"));
    let conn = ok(SrbConnection::connect(&grid, srv, "sekar", "sdsc", "demo"));
    ok(conn.make_collection("/home/sekar/Avian Culture"));
    let avian = ok(grid
        .mcat
        .collections
        .resolve(&ok(LogicalPath::parse("/home/sekar/Avian Culture"))));
    ok(grid.mcat.collections.set_requirements(
        avian,
        vec![
            AttrRequirement::mandatory("culture", "culture name"),
            AttrRequirement::vocabulary("medium", &["image", "movie", "text"], "media"),
        ],
    ));
    ok(conn.ingest(
        "/home/sekar/Avian Culture/condor.jpg",
        b"JPEG",
        IngestOptions::to_resource("logrsrc1")
            .with_type("jpeg image")
            .with_metadata(Triplet::new("culture", "avian", ""))
            .with_metadata(Triplet::new("medium", "image", "")),
    ));
    {
        let db = ok(grid.driver(ok(grid.resource_id("oracle-dlib"))));
        ok(ok(db.as_db().ok_or("oracle-dlib is not a database"))
            .engine()
            .execute("CREATE TABLE s (x)"));
    }
    ok(conn.register(
        "/home/sekar/Avian Culture/specimens",
        RegisterSpec::Sql {
            resource: "oracle-dlib".into(),
            sql: "SELECT x FROM s".into(),
            partial: false,
            template: Template::HtmlRel,
        },
        IngestOptions::default()
            .with_metadata(Triplet::new("culture", "avian", ""))
            .with_metadata(Triplet::new("medium", "text", "")),
    ));
    ok(conn.make_collection("/home/sekar/Avian Culture/movies"));

    let app = MySrb::new(&grid, srv, 11);
    let resp = app.handle(&Request::post(
        "/login",
        "user=sekar&domain=sdsc&password=demo",
        None,
    ));
    let key = ok(resp
        .headers
        .iter()
        .find(|(k, _)| k == "Set-Cookie")
        .and_then(|(_, v)| v.strip_prefix("mysrb_session="))
        .and_then(|v| v.split(';').next())
        .ok_or("login set no session cookie"));
    let resp = app.handle(&Request::get(page, Some(key)));
    assert_eq!(resp.status, 200, "{}", resp.text());
    (resp.text(), Table::new("", &[""]))
}

/// Figure 1: render the collection page and report its structural
/// elements. The HTML is written to `target/figure1.html`.
pub fn figure1() -> Table {
    let (html, _) = seeded_app_output("/browse?path=%2Fhome%2Fsekar%2FAvian%20Culture");
    let _ = std::fs::write("target/figure1.html", &html);
    let mut t = Table::new(
        "F1: MySRB main collection page (paper Figure 1) -> target/figure1.html",
        &["element", "present/count"],
    );
    let checks: Vec<(&str, String)> = vec![
        (
            "split top window (metadata pane)",
            html.contains("split-top").to_string(),
        ),
        (
            "split bottom window (listing)",
            html.contains("split-bottom").to_string(),
        ),
        (
            "collection rows",
            html.matches("collection").count().to_string(),
        ),
        (
            "object rows",
            html.matches("/view?path=").count().to_string(),
        ),
        (
            "operation links per object",
            html.matches(">annotate<").count().to_string(),
        ),
        (
            "ingest operation",
            html.contains("[ingest file]").to_string(),
        ),
        ("query operation", html.contains("[query]").to_string()),
        ("sql object listed", html.contains("specimens").to_string()),
        ("bytes of HTML", html.len().to_string()),
    ];
    for (k, v) in checks {
        t.row(vec![k.to_string(), v]);
    }
    t
}

/// Figure 2: render the ingest form. Written to `target/figure2.html`.
pub fn figure2() -> Table {
    let (html, _) = seeded_app_output("/ingest?coll=%2Fhome%2Fsekar%2FAvian%20Culture");
    let _ = std::fs::write("target/figure2.html", &html);
    let mut t = Table::new(
        "F2: MySRB file-ingestion page (paper Figure 2) -> target/figure2.html",
        &["element", "present/count"],
    );
    let dc_fields = srb_mcat::metadata::DUBLIN_CORE
        .iter()
        .filter(|e| html.contains(&format!("dc_{e}")))
        .count();
    let checks: Vec<(&str, String)> = vec![
        ("Dublin Core fields", format!("{dc_fields}/15")),
        (
            "mandatory attribute marked *",
            html.contains("culture *").to_string(),
        ),
        (
            "restricted vocabulary drop-down",
            html.contains("<select name=\"req_medium\">").to_string(),
        ),
        (
            "default value pre-selected",
            html.contains("<option value=\"image\" selected>")
                .to_string(),
        ),
        (
            "user-defined attribute rows",
            html.matches("meta_name").count().to_string(),
        ),
        ("resource selector", html.contains("logrsrc1").to_string()),
        (
            "container selector",
            html.contains("name=\"container\"").to_string(),
        ),
        ("bytes of HTML", html.len().to_string()),
    ];
    for (k, v) in checks {
        t.row(vec![k.to_string(), v]);
    }
    t
}
