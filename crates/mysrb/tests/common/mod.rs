//! The seeded grids and the requests behind every MySRB page fixture:
//! `html_golden.rs` pins each page's body byte for byte, and
//! `render_allocs.rs` pins the allocator calls each one makes.

use mysrb::{MySrb, Request};
use srb_core::{Federation, GridBuilder, IngestOptions, RegisterSpec, SrbConnection, ZoneId};
use srb_mcat::{AnnotationKind, AttrRequirement, Template, WalConfig};
use srb_net::LinkSpec;
use srb_storage::LogDevice;
use srb_types::{LogicalPath, SimClock, Triplet};
use std::sync::Arc;

/// Sign sekar on; the session key.
pub fn login(app: &MySrb) -> String {
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
pub fn seeded_grid() -> (srb_core::Grid, srb_types::ServerId) {
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

/// The pages of [`seeded_grid`]: fixture name, HTTP status and the
/// request that renders it, sent with sekar's session `key` where the page
/// needs one.
pub fn pages(key: Option<&str>) -> Vec<(&'static str, u16, Request)> {
    let get = |target: &str| Request::get(target, key);
    let query = |body: &str| Request::post("/query", body, key);
    vec![
        ("login", 200, Request::get("/", None)),
        ("browse", 200, get("/browse?path=%2Fhome%2Fsekar")),
        (
            "browse_next_page",
            200,
            get("/browse?path=%2Fhome%2Fsekar&n=1"),
        ),
        (
            "view_bytes",
            200,
            get("/view?path=%2Fhome%2Fsekar%2Freadme.txt"),
        ),
        (
            "view_sql",
            200,
            get("/view?path=%2Fhome%2Fsekar%2Fartworks"),
        ),
        (
            "view_listing",
            200,
            get("/view?path=%2Fhome%2Fsekar%2Fsurvey"),
        ),
        ("meta", 200, get("/meta?path=%2Fhome%2Fsekar%2Fcondor.jpg")),
        ("query_form", 200, get("/query?scope=%2Fhome%2Fsekar")),
        (
            "query_results",
            200,
            query(
                "scope=%2Fhome%2Fsekar&attr=wingspan&op=%3E&value=10&show=1\
                 &attr=species&op=like&value=%25r%25&show=1&attr=&op=%3D&value=&show=",
            ),
        ),
        (
            "query_no_hits",
            200,
            query("scope=%2Fhome%2Fsekar&attr=species&op=%3D&value=owl"),
        ),
        (
            "ingest_form",
            200,
            get("/ingest?coll=%2Fhome%2Fsekar%2FAvian%20Culture"),
        ),
        (
            "annotate",
            200,
            get("/annotate?path=%2Fhome%2Fsekar%2Fcondor.jpg"),
        ),
        ("edit", 200, get("/edit?path=%2Fhome%2Fsekar%2Freadme.txt")),
        ("mkcoll", 200, get("/mkcoll?parent=%2Fhome%2Fsekar")),
        ("help", 200, Request::get("/help", None)),
        ("register", 200, Request::get("/register", None)),
        ("admin", 200, get("/admin")),
        ("not_found", 404, get("/no/such<page>")),
        (
            "grid_error",
            404,
            get("/view?path=%2Fhome%2Fsekar%2Fmissing"),
        ),
        ("grid_status", 200, Request::get("/grid-status", None)),
    ]
}

/// Two durable zones over one clock: alpha ingests and subscribes beta
/// to a subtree; beta registers alpha's file and ingests its own. The
/// federation, alpha and beta.
pub fn federation() -> (Federation, ZoneId, ZoneId) {
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
    (fed, a, b)
}

/// The pages of [`federation`]: fixture name, status, the zone's app and
/// the request. Beta's browse of sekar's home shows each entry's zone (sekar
/// signs on to beta first); alpha's grid status lists the federation.
pub fn federated_pages(
    fed: &Federation,
    a: ZoneId,
    b: ZoneId,
) -> Vec<(&'static str, u16, MySrb<'_>, Request)> {
    let beta = fed.zone(b).unwrap();
    let app = MySrb::new(&beta.grid, beta.contact(), 1).with_federation(fed, b);
    let key = login(&app);
    let browse = Request::get("/browse?path=%2Fhome%2Fsekar", Some(&key));
    let alpha = fed.zone(a).unwrap();
    let alpha_app = MySrb::new(&alpha.grid, alpha.contact(), 1).with_federation(fed, a);
    vec![
        ("browse_zones", 200, app, browse),
        (
            "grid_status_federation",
            200,
            alpha_app,
            Request::get("/grid-status", None),
        ),
    ]
}
