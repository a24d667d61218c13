//! Every MySRB page, byte for byte: each request below renders one page
//! and its body must equal `tests/fixtures/<name>.html`.
//!
//! A mismatch writes the new rendering under the test temporary directory
//! (`CARGO_TARGET_TMPDIR/html_golden/<name>.html`) and names it in the
//! failure, so a deliberate change is re-recorded by copying that file
//! over the fixture and reviewing the diff.

use mysrb::{MySrb, Request};
use srb_core::{Federation, GridBuilder, IngestOptions, RegisterSpec, SrbConnection};
use srb_mcat::{AnnotationKind, AttrRequirement, Template, WalConfig};
use srb_net::LinkSpec;
use srb_storage::LogDevice;
use srb_types::{LogicalPath, SimClock, Triplet};
use std::path::PathBuf;
use std::sync::Arc;

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

fn login(app: &MySrb) -> String {
    let resp = app.handle(&Request::post(
        "/login",
        "user=sekar&domain=sdsc&password=pw",
        None,
    ));
    assert_eq!(resp.status, 303);
    resp.headers
        .iter()
        .find(|(k, _)| k == "Set-Cookie")
        .and_then(|(_, v)| v.strip_prefix("mysrb_session="))
        .map(|v| v.split(';').next().unwrap().to_string())
        .expect("session cookie")
}

/// Two sites, a file system, an archive, a database and a logical
/// resource; sekar's home holds a sub-collection, tagged and annotated
/// files, a registered SQL object, a registered directory and a
/// collection with structural requirements.
fn seeded_grid() -> (srb_core::Grid, srb_types::ServerId) {
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
    grid.register_user("sekar", "sdsc", "pw").unwrap();
    let conn = SrbConnection::connect(&grid, srv, "sekar", "sdsc", "pw").unwrap();
    conn.add_metadata("/home/sekar", Triplet::new("topic", "avian culture", ""))
        .unwrap();
    conn.make_collection("/home/sekar/notes").unwrap();
    conn.ingest(
        "/home/sekar/condor.jpg",
        b"JPEG",
        IngestOptions::to_resource("unix-sdsc")
            .with_type("jpeg image")
            .with_metadata(Triplet::new("species", "condor", ""))
            .with_metadata(Triplet::new("wingspan", 290i64, "cm")),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/readme.txt",
        b"The Storage Resource Broker <srb> & \"MySRB\"",
        IngestOptions::to_resource("unix-sdsc")
            .with_type("ascii text")
            .with_metadata(Triplet::new("species", "sparrow", ""))
            .with_metadata(Triplet::new("wingspan", 20i64, "cm")),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/thumb.txt",
        b"[thumbnail <bytes>]",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    grid.web
        .host_static("http://museum.example/info?a=1&b=2", &b"info page"[..]);
    for (name, value, units) in [
        ("related", "http://museum.example/info?a=1&b=2", ""),
        ("thumbnail", "/home/sekar/thumb.txt", "inline"),
        ("see also", "/home/sekar/readme.txt", ""),
        ("note", "<b>bold</b> & more", ""),
    ] {
        conn.add_metadata("/home/sekar/condor.jpg", Triplet::new(name, value, units))
            .unwrap();
    }
    conn.annotate(
        "/home/sekar/condor.jpg",
        AnnotationKind::Errata,
        "line 1",
        "wingspan <was> wrong",
    )
    .unwrap();

    let db = grid
        .driver(grid.resource_id("oracle-dlib").unwrap())
        .unwrap();
    let engine = db.as_db().unwrap().engine();
    engine.execute("CREATE TABLE art (title, artist)").unwrap();
    engine
        .execute("INSERT INTO art VALUES ('Composition','Mondrian')")
        .unwrap();
    conn.register(
        "/home/sekar/artworks",
        RegisterSpec::Sql {
            resource: "oracle-dlib".into(),
            sql: "SELECT title, artist FROM art".into(),
            partial: false,
            template: Template::HtmlRel,
        },
        IngestOptions::default(),
    )
    .unwrap();
    let fs = grid.driver(grid.resource_id("unix-sdsc").unwrap()).unwrap();
    fs.driver().create("survey/img1.fits", b"AAAA").unwrap();
    fs.driver().create("survey/sub/<img2>.fits", b"BB").unwrap();
    conn.register(
        "/home/sekar/survey",
        RegisterSpec::Directory {
            resource: "unix-sdsc".into(),
            dir_path: "survey".into(),
        },
        IngestOptions::default(),
    )
    .unwrap();

    conn.make_collection("/home/sekar/Avian Culture").unwrap();
    let coll = grid
        .mcat
        .collections
        .resolve(&LogicalPath::parse("/home/sekar/Avian Culture").unwrap())
        .unwrap();
    grid.mcat
        .collections
        .set_requirements(
            coll,
            vec![
                AttrRequirement::mandatory("culture", "culture name"),
                AttrRequirement::vocabulary("medium", &["image", "movie", "text"], "media"),
            ],
        )
        .unwrap();
    (grid, srv)
}

#[test]
fn every_page_matches_its_golden() {
    let (grid, srv) = seeded_grid();
    let app = MySrb::new(&grid, srv, 1);
    let mut failures = Vec::new();
    let f = &mut failures;
    let get = |target: &str, key: Option<&str>| app.handle(&Request::get(target, key));

    check(f, "login", 200, &get("/", None));
    let key = login(&app);
    let key = Some(key.as_str());
    check(f, "browse", 200, &get("/browse?path=%2Fhome%2Fsekar", key));
    check(
        f,
        "browse_next_page",
        200,
        &get("/browse?path=%2Fhome%2Fsekar&n=1", key),
    );
    check(
        f,
        "view_bytes",
        200,
        &get("/view?path=%2Fhome%2Fsekar%2Freadme.txt", key),
    );
    check(
        f,
        "view_sql",
        200,
        &get("/view?path=%2Fhome%2Fsekar%2Fartworks", key),
    );
    check(
        f,
        "view_listing",
        200,
        &get("/view?path=%2Fhome%2Fsekar%2Fsurvey", key),
    );
    check(
        f,
        "meta",
        200,
        &get("/meta?path=%2Fhome%2Fsekar%2Fcondor.jpg", key),
    );
    check(
        f,
        "query_form",
        200,
        &get("/query?scope=%2Fhome%2Fsekar", key),
    );
    let query = |body: &str| app.handle(&Request::post("/query", body, key));
    check(
        f,
        "query_results",
        200,
        &query(
            "scope=%2Fhome%2Fsekar&attr=wingspan&op=%3E&value=10&show=1\
             &attr=species&op=like&value=%25r%25&show=1&attr=&op=%3D&value=&show=",
        ),
    );
    check(
        f,
        "query_no_hits",
        200,
        &query("scope=%2Fhome%2Fsekar&attr=species&op=%3D&value=owl"),
    );
    check(
        f,
        "ingest_form",
        200,
        &get("/ingest?coll=%2Fhome%2Fsekar%2FAvian%20Culture", key),
    );
    check(
        f,
        "annotate",
        200,
        &get("/annotate?path=%2Fhome%2Fsekar%2Fcondor.jpg", key),
    );
    check(
        f,
        "edit",
        200,
        &get("/edit?path=%2Fhome%2Fsekar%2Freadme.txt", key),
    );
    check(
        f,
        "mkcoll",
        200,
        &get("/mkcoll?parent=%2Fhome%2Fsekar", key),
    );
    check(f, "help", 200, &get("/help", None));
    check(f, "register", 200, &get("/register", None));
    check(f, "admin", 200, &get("/admin", key));
    check(f, "not_found", 404, &get("/no/such<page>", key));
    check(
        f,
        "grid_error",
        404,
        &get("/view?path=%2Fhome%2Fsekar%2Fmissing", key),
    );
    check(f, "grid_status", 200, &get("/grid-status", None));
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Two durable zones over one clock: alpha ingests and subscribes beta
/// to a subtree; beta registers alpha's file and ingests its own.
#[test]
fn federated_pages_match_their_goldens() {
    let mut fed = Federation::new();
    let clock: SimClock = fed.clock().clone();
    let zone = |tag: &str| {
        let mut gb = GridBuilder::new();
        gb.clock(clock.clone());
        let site = gb.site(&format!("site-{tag}"));
        let srv = gb.server(&format!("srb-{tag}"), site);
        gb.fs_resource(&format!("fs-{tag}"), srv);
        let grid = gb.build();
        grid.enable_durability(
            Arc::new(LogDevice::new()),
            WalConfig {
                checkpoint_interval_ns: 0,
            },
        )
        .unwrap();
        grid.register_user("sekar", "sdsc", "pw").unwrap();
        (grid, srv)
    };
    let (ga, sa) = zone("alpha");
    let (gb_, sb) = zone("beta");
    let a = fed.add_zone("alpha", ga, sa).unwrap();
    let b = fed.add_zone("beta", gb_, sb).unwrap();
    fed.link(a, b, LinkSpec::wan()).unwrap();
    {
        let alpha = fed.zone(a).unwrap();
        let conn =
            SrbConnection::connect(&alpha.grid, alpha.contact(), "sekar", "sdsc", "pw").unwrap();
        conn.ingest(
            "/home/sekar/survey.dat",
            b"data",
            IngestOptions::to_resource("fs-alpha"),
        )
        .unwrap();
        conn.make_collection("/home/sekar/data").unwrap();
        conn.ingest(
            "/home/sekar/data/one.dat",
            b"x",
            IngestOptions::to_resource("fs-alpha"),
        )
        .unwrap();
    }
    fed.register_remote(a, "/home/sekar/survey.dat", b, "/home/sekar/survey.dat")
        .unwrap();
    {
        let beta = fed.zone(b).unwrap();
        let conn =
            SrbConnection::connect(&beta.grid, beta.contact(), "sekar", "sdsc", "pw").unwrap();
        conn.ingest(
            "/home/sekar/local.dat",
            b"data",
            IngestOptions::to_resource("fs-beta"),
        )
        .unwrap();
    }
    fed.subscribe(b, a, "/home/sekar/data").unwrap();
    fed.pump(8).unwrap();

    let mut failures = Vec::new();
    let beta = fed.zone(b).unwrap();
    let app = MySrb::new(&beta.grid, beta.contact(), 1).with_federation(&fed, b);
    let key = login(&app);
    check(
        &mut failures,
        "browse_zones",
        200,
        &app.handle(&Request::get("/browse?path=%2Fhome%2Fsekar", Some(&key))),
    );
    let alpha = fed.zone(a).unwrap();
    let app = MySrb::new(&alpha.grid, alpha.contact(), 1).with_federation(&fed, a);
    check(
        &mut failures,
        "grid_status_federation",
        200,
        &app.handle(&Request::get("/grid-status", None)),
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
