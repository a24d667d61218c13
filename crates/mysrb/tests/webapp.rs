//! Full web-application flows driven through `MySrb::handle` — including
//! the reproduction of the paper's Figure 1 (main collection page) and
//! Figure 2 (ingestion form with Dublin Core + user-defined attributes).

use mysrb::{MySrb, Request};
use srb_core::{GridBuilder, IngestOptions, SrbConnection};
use srb_mcat::AttrRequirement;
use srb_net::LinkSpec;
use srb_obs::metric;
use srb_types::{LogicalPath, Permission, ServerId, Triplet};

struct Fx {
    grid: srb_core::Grid,
    srv: ServerId,
}

fn fixture() -> Fx {
    let mut gb = GridBuilder::new();
    let sdsc = gb.site("sdsc");
    let caltech = gb.site("caltech");
    gb.link(sdsc, caltech, LinkSpec::wan());
    let srv = gb.server("srb-sdsc", sdsc);
    let srv2 = gb.server("srb-caltech", caltech);
    gb.fs_resource("unix-sdsc", srv)
        .archive_resource("hpss-caltech", srv2)
        .logical_resource("logrsrc1", &["unix-sdsc", "hpss-caltech"]);
    let grid = gb.build();
    grid.register_user("sekar", "sdsc", "pw").unwrap();
    Fx { grid, srv }
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

#[test]
fn login_flow_and_bad_credentials() {
    let fx = fixture();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    // Landing page shows the sign-on form.
    let resp = app.handle(&Request::get("/", None));
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("Sign on to MySRB"));
    // Bad password re-renders the login with an error.
    let resp = app.handle(&Request::post(
        "/login",
        "user=sekar&domain=sdsc&password=wrong",
        None,
    ));
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("AUTH_FAILED"));
    // Good login sets a cookie; browsing without one redirects to /.
    let key = login(&app);
    assert!(!key.is_empty());
    let resp = app.handle(&Request::get("/browse?path=%2F", None));
    assert_eq!(resp.status, 303);
    // Logout invalidates the key.
    app.handle(&Request::get("/logout", Some(&key)));
    let resp = app.handle(&Request::get("/browse?path=%2F", Some(&key)));
    assert_eq!(resp.status, 303);
}

#[test]
fn figure1_split_window_collection_page() {
    let fx = fixture();
    // Seed a collection with metadata and files, as in the screenshot.
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.ingest(
        "/home/sekar/condor.jpg",
        b"JPEG",
        IngestOptions::to_resource("unix-sdsc").with_type("jpeg image"),
    )
    .unwrap();
    conn.make_collection("/home/sekar/notes").unwrap();
    conn.add_metadata("/home/sekar", Triplet::new("topic", "avian culture", ""))
        .ok();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    let resp = app.handle(&Request::get("/browse?path=%2Fhome%2Fsekar", Some(&key)));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    // Split window: metadata pane above, listing below.
    assert!(html.contains("split-top"));
    assert!(html.contains("split-bottom"));
    // The listing shows the sub-collection and the object with type+size.
    assert!(html.contains("notes"));
    assert!(html.contains("condor.jpg"));
    assert!(html.contains("jpeg image"));
    // Operation links per object.
    assert!(html.contains("[ingest file]"));
    assert!(html.contains("annotate"));
}

#[test]
fn the_banner_names_the_signed_in_user() {
    let fx = fixture();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    let resp = app.handle(&Request::get("/browse?path=%2Fhome%2Fsekar", Some(&key)));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    assert!(html.contains("signed in as <b>sekar@sdsc</b>"), "{html}");
    // The operator dashboard has no session, so it names nobody.
    let html = app.handle(&Request::get("/grid-status", None)).text();
    assert!(!html.contains("signed in as"), "{html}");
}

#[test]
fn annotate_form_needs_a_session() {
    let fx = fixture();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let resp = app.handle(&Request::get("/annotate?path=%2Fhome%2Fsekar", None));
    assert_eq!(resp.status, 303);
    assert!(resp.headers.contains(&("Location".into(), "/".into())));
}

#[test]
fn figure2_ingest_form_with_dublin_core_and_vocabulary() {
    let fx = fixture();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.make_collection("/home/sekar/Avian Culture").unwrap();
    let coll = fx
        .grid
        .mcat
        .collections
        .resolve(&LogicalPath::parse("/home/sekar/Avian Culture").unwrap())
        .unwrap();
    fx.grid
        .mcat
        .collections
        .set_requirements(
            coll,
            vec![
                AttrRequirement::mandatory("culture", "culture name"),
                AttrRequirement::vocabulary("medium", &["image", "movie", "text"], "media"),
            ],
        )
        .unwrap();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    let resp = app.handle(&Request::get(
        "/ingest?coll=%2Fhome%2Fsekar%2FAvian%20Culture",
        Some(&key),
    ));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    // All fifteen Dublin Core entry fields.
    for element in srb_mcat::metadata::DUBLIN_CORE {
        assert!(html.contains(&format!("dc_{element}")), "missing {element}");
    }
    // Structural metadata: mandatory marker and vocabulary drop-down with
    // the default selected.
    assert!(html.contains("culture *"));
    assert!(html.contains("<select name=\"req_medium\">"));
    assert!(html.contains("<option value=\"image\" selected>"));
    // Resource drop-down offers physical and logical resources.
    assert!(html.contains("unix-sdsc"));
    assert!(html.contains("logrsrc1"));
}

#[test]
fn ingest_via_form_enforces_structural_metadata() {
    let fx = fixture();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.make_collection("/home/sekar/cult").unwrap();
    let coll = fx
        .grid
        .mcat
        .collections
        .resolve(&LogicalPath::parse("/home/sekar/cult").unwrap())
        .unwrap();
    fx.grid
        .mcat
        .collections
        .set_requirements(
            coll,
            vec![AttrRequirement::mandatory("culture", "required")],
        )
        .unwrap();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    // Missing the mandatory field: 400 with the explanation.
    let resp = app.handle(&Request::post(
        "/ingest",
        "coll=%2Fhome%2Fsekar%2Fcult&name=x.txt&resource=unix-sdsc&content=hi",
        Some(&key),
    ));
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("mandatory"));
    // With the field (and a Dublin Core title + a user triplet) it works.
    let resp = app.handle(&Request::post(
        "/ingest",
        "coll=%2Fhome%2Fsekar%2Fcult&name=x.txt&resource=unix-sdsc&content=hi\
         &req_culture=avian&dc_Title=A+Condor&meta_name=species&meta_value=condor&meta_units=",
        Some(&key),
    ));
    assert_eq!(resp.status, 200, "{}", resp.text());
    let rows = conn.metadata("/home/sekar/cult/x.txt").unwrap();
    let names: Vec<&str> = rows.iter().map(|r| r.triplet.name.as_str()).collect();
    assert!(names.contains(&"culture"));
    assert!(names.contains(&"Title"));
    assert!(names.contains(&"species"));
    let (data, _) = conn.read("/home/sekar/cult/x.txt").unwrap();
    assert_eq!(&data[..], b"hi");
}

#[test]
fn query_builder_round_trip() {
    let fx = fixture();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    for (name, span) in [("condor", 290i64), ("sparrow", 20)] {
        conn.ingest(
            &format!("/home/sekar/{name}.jpg"),
            b"img",
            IngestOptions::to_resource("unix-sdsc")
                .with_metadata(Triplet::new("species", name, ""))
                .with_metadata(Triplet::new("wingspan", span, "cm")),
        )
        .unwrap();
    }
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    // The form lists queryable attributes in the drop-down.
    let resp = app.handle(&Request::get("/query?scope=%2Fhome%2Fsekar", Some(&key)));
    assert!(resp.text().contains("wingspan"));
    assert!(resp.text().contains("species"));
    // Conjunctive query via the 4-row form: wingspan > 100 AND species
    // like c%; show both columns.
    let body = "scope=%2Fhome%2Fsekar\
                &attr=wingspan&op=%3E&value=100&show=1\
                &attr=species&op=like&value=c%25&show=1\
                &attr=&op=%3D&value=&show=\
                &attr=&op=%3D&value=&show=";
    let resp = app.handle(&Request::post("/query", body, Some(&key)));
    assert_eq!(resp.status, 200, "{}", resp.text());
    let html = resp.text();
    assert!(html.contains("1 result(s)"));
    assert!(html.contains("condor.jpg"));
    assert!(!html.contains("sparrow.jpg"));
    assert!(html.contains("290"));
}

#[test]
fn view_annotate_and_meta_pages() {
    let fx = fixture();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.ingest(
        "/home/sekar/readme.txt",
        b"The Storage Resource Broker",
        IngestOptions::to_resource("unix-sdsc").with_metadata(Triplet::new("topic", "srb", "")),
    )
    .unwrap();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    // View shows content + attributes together (split window).
    let resp = app.handle(&Request::get(
        "/view?path=%2Fhome%2Fsekar%2Freadme.txt",
        Some(&key),
    ));
    let html = resp.text();
    assert!(html.contains("The Storage Resource Broker"));
    assert!(html.contains("topic"));
    assert!(html.contains("simulated"));
    // Annotate via the form, then see it in the metadata pane.
    let resp = app.handle(&Request::post(
        "/annotate",
        "path=%2Fhome%2Fsekar%2Freadme.txt&kind=errata&location=line+1&text=typo+fixed",
        Some(&key),
    ));
    assert_eq!(resp.status, 200);
    let resp = app.handle(&Request::get(
        "/meta?path=%2Fhome%2Fsekar%2Freadme.txt",
        Some(&key),
    ));
    assert!(resp.text().contains("typo fixed"));
    assert!(resp.text().contains("errata"));
}

#[test]
fn replicate_delete_and_admin_pages() {
    let fx = fixture();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.ingest(
        "/home/sekar/f",
        b"data",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    let resp = app.handle(&Request::post(
        "/replicate",
        "path=%2Fhome%2Fsekar%2Ff&resource=hpss-caltech",
        Some(&key),
    ));
    assert_eq!(resp.status, 200, "{}", resp.text());
    let (_, _, nrep, _) = conn.stat("/home/sekar/f").unwrap();
    assert_eq!(nrep, 2);
    // Admin page reflects the grid.
    let resp = app.handle(&Request::get("/admin", Some(&key)));
    let html = resp.text();
    assert!(html.contains("hpss-caltech"));
    assert!(html.contains("&quot;datasets&quot;: 1"));
    // Delete via the form.
    let resp = app.handle(&Request::post(
        "/delete",
        "path=%2Fhome%2Fsekar%2Ff",
        Some(&key),
    ));
    assert_eq!(resp.status, 200);
    assert!(conn.read("/home/sekar/f").is_err());
    // JSON summary endpoint.
    let resp = app.handle(&Request::get("/api/summary", Some(&key)));
    assert_eq!(resp.content_type, "application/json");
    let v: serde_json::Value = serde_json::from_str(&resp.text()).unwrap();
    assert_eq!(v["datasets"], 0);
}

#[test]
fn unknown_page_is_404_and_permission_maps_to_403() {
    let fx = fixture();
    fx.grid.register_user("intruder", "sdsc", "pw2").unwrap();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.ingest(
        "/home/sekar/private",
        b"x",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    assert_eq!(app.handle(&Request::get("/nope", Some(&key))).status, 404);
    assert_eq!(
        app.handle(&Request::get(
            "/view?path=%2Fhome%2Fsekar%2Fmissing",
            Some(&key)
        ))
        .status,
        404
    );
    // The intruder hits a 403 on sekar's private object.
    let resp = app.handle(&Request::post(
        "/login",
        "user=intruder&domain=sdsc&password=pw2",
        None,
    ));
    let key2 = resp
        .headers
        .iter()
        .find(|(k, _)| k == "Set-Cookie")
        .and_then(|(_, v)| v.strip_prefix("mysrb_session="))
        .map(|v| v.split(';').next().unwrap().to_string())
        .unwrap();
    let resp = app.handle(&Request::get(
        "/view?path=%2Fhome%2Fsekar%2Fprivate",
        Some(&key2),
    ));
    assert_eq!(resp.status, 403);
    // After a public read grant, the intruder can view it.
    conn.grant_public("/home/sekar/private", Permission::Read)
        .unwrap();
    let resp = app.handle(&Request::get(
        "/view?path=%2Fhome%2Fsekar%2Fprivate",
        Some(&key2),
    ));
    assert_eq!(resp.status, 200);
}

#[test]
fn sixty_minute_session_expiry_in_the_app() {
    let fx = fixture();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    assert_eq!(
        app.handle(&Request::get("/browse?path=%2F", Some(&key)))
            .status,
        200
    );
    fx.grid.clock.advance(61 * 60 * 1_000_000_000);
    // Expired key redirects to the sign-on page.
    assert_eq!(
        app.handle(&Request::get("/browse?path=%2F", Some(&key)))
            .status,
        303
    );
}

#[test]
fn user_registration_via_web() {
    let fx = fixture();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    // The form renders.
    let resp = app.handle(&Request::get("/register", None));
    assert!(resp.text().contains("Register a MySRB account"));
    // Incomplete submissions re-render with a message.
    let resp = app.handle(&Request::post(
        "/register",
        "user=newbie&domain=&password=",
        None,
    ));
    assert!(resp.text().contains("required"));
    // A full registration creates the account and its home collection.
    let resp = app.handle(&Request::post(
        "/register",
        "user=newbie&domain=sdsc&password=np",
        None,
    ));
    assert!(resp.text().contains("account created"));
    let resp = app.handle(&Request::post(
        "/login",
        "user=newbie&domain=sdsc&password=np",
        None,
    ));
    assert_eq!(resp.status, 303);
    // Duplicate registration fails gracefully.
    let resp = app.handle(&Request::post(
        "/register",
        "user=newbie&domain=sdsc&password=np",
        None,
    ));
    assert!(resp.text().contains("ALREADY_EXISTS"));
}

#[test]
fn edit_facility_limited_to_small_ascii() {
    let fx = fixture();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.ingest(
        "/home/sekar/notes.txt",
        b"original text",
        IngestOptions::to_resource("unix-sdsc").with_type("ascii text"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/photo.jpg",
        b"JPEG",
        IngestOptions::to_resource("unix-sdsc").with_type("jpeg image"),
    )
    .unwrap();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    // The edit form shows the current content.
    let resp = app.handle(&Request::get(
        "/edit?path=%2Fhome%2Fsekar%2Fnotes.txt",
        Some(&key),
    ));
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("original text"));
    // Saving updates the file.
    let resp = app.handle(&Request::post(
        "/edit",
        "path=%2Fhome%2Fsekar%2Fnotes.txt&content=edited+in+the+browser",
        Some(&key),
    ));
    assert_eq!(resp.status, 200);
    assert_eq!(
        &conn.read("/home/sekar/notes.txt").unwrap().0[..],
        b"edited in the browser"
    );
    // Binary data types are not editable (paper: "only for a few data
    // types").
    let resp = app.handle(&Request::get(
        "/edit?path=%2Fhome%2Fsekar%2Fphoto.jpg",
        Some(&key),
    ));
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("not allowed"));
}

#[test]
fn help_page_and_inline_metadata_links() {
    let fx = fixture();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let resp = app.handle(&Request::get("/help", None));
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("MySRB help"));

    // Inlineable/related metadata: a URL value renders as a hot-link, an
    // SRB-path value as a view link, and units=inline embeds the content.
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.ingest(
        "/home/sekar/big.img",
        b"IMAGE",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/thumb.txt",
        b"[thumbnail bytes]",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    fx.grid
        .web
        .host_static("http://museum.example/info", &b"info page"[..]);
    conn.add_metadata(
        "/home/sekar/big.img",
        Triplet::new("related", "http://museum.example/info", ""),
    )
    .unwrap();
    conn.add_metadata(
        "/home/sekar/big.img",
        Triplet::new("thumbnail", "/home/sekar/thumb.txt", "inline"),
    )
    .unwrap();
    let key = login(&app);
    let resp = app.handle(&Request::get(
        "/meta?path=%2Fhome%2Fsekar%2Fbig.img",
        Some(&key),
    ));
    let html = resp.text();
    assert!(html.contains("<a href=\"http://museum.example/info\">"));
    assert!(
        html.contains("[thumbnail bytes]"),
        "inline content embedded"
    );
}

#[test]
fn admin_page_lists_containers_and_users() {
    let fx = fixture();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    // ct-store doesn't exist in this fixture; create a logical resource on
    // the fly for the container.
    fx.grid
        .mcat
        .resources
        .create_logical(
            &fx.grid.mcat.ids,
            "pair",
            &[
                fx.grid.resource_id("unix-sdsc").unwrap(),
                fx.grid.resource_id("hpss-caltech").unwrap(),
            ],
        )
        .unwrap();
    conn.create_container("adminct", "pair", 1024).unwrap();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    let html = app.handle(&Request::get("/admin", Some(&key))).text();
    assert!(html.contains("adminct"));
    assert!(html.contains("sekar@sdsc"));
    assert!(html.contains("srb@sdsc")); // the bootstrap admin
    assert!(html.contains("Containers"));
}

#[test]
fn mkcoll_via_form() {
    let fx = fixture();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    let resp = app.handle(&Request::post(
        "/mkcoll",
        "parent=%2Fhome%2Fsekar&name=new+coll",
        Some(&key),
    ));
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(resp.text().contains("new coll"));
}

#[test]
fn grid_errors_keep_the_error_kind_in_the_body() {
    let fx = fixture();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.ingest(
        "/home/sekar/solo",
        b"x",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    // Take the only replica's resource down: the 503 page must say *which*
    // kind of failure it folded into that status, not just the message.
    let rid = fx.grid.resource_id("unix-sdsc").unwrap();
    fx.grid.faults.set_mode(rid, srb_core::FaultMode::Down);
    let resp = app.handle(&Request::get(
        "/view?path=%2Fhome%2Fsekar%2Fsolo",
        Some(&key),
    ));
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(
        resp.text().contains("RESOURCE_UNAVAILABLE"),
        "error kind lost: {}",
        resp.text()
    );
    fx.grid.faults.clear_mode(rid);
    // A timeout maps to 504, again with its kind in the body.
    fx.grid
        .faults
        .set_mode(rid, srb_core::FaultMode::FailNext(1));
    let resp = app.handle(&Request::get(
        "/view?path=%2Fhome%2Fsekar%2Fsolo",
        Some(&key),
    ));
    if resp.status != 200 {
        // The retry budget may absorb the injected failure; when it does
        // not, the status and body must stay faithful to the kind.
        assert_eq!(resp.status, 504);
        assert!(resp.text().contains("TIMEOUT"));
    }
}

#[test]
fn metrics_and_grid_status_endpoints() {
    let fx = fixture();
    let conn = SrbConnection::connect(&fx.grid, fx.srv, "sekar", "sdsc", "pw").unwrap();
    conn.ingest(
        "/home/sekar/obs.txt",
        b"observable",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let key = login(&app);
    let resp = app.handle(&Request::get(
        "/view?path=%2Fhome%2Fsekar%2Fobs.txt",
        Some(&key),
    ));
    assert_eq!(resp.status, 200);
    // Route metrics recorded against the grid's registry.
    let snap = fx.grid.metrics_snapshot();
    assert_eq!(snap.counter(metric!("web.requests"), "/view"), 1);
    assert_eq!(snap.counter(metric!("web.status"), "200"), 1);
    assert!(snap.counter(metric!("storage.ops"), "file-system") >= 1);
    // /metrics needs no session and renders the text exposition.
    let resp = app.handle(&Request::get("/metrics", None));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "text/plain; charset=utf-8");
    let text = resp.text();
    assert!(text.contains("web.requests{/view} 1"), "{text}");
    assert!(text.contains("web.request_ns{/view}"), "{text}");
    // /grid-status shows per-resource health and the slow-op table.
    let resp = app.handle(&Request::get("/grid-status", None));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    assert!(html.contains("unix-sdsc"));
    assert!(html.contains("closed"));
    assert!(html.contains("Slowest operations"));
    assert!(
        html.contains("open"),
        "slow-op table lists the read: {html}"
    );
    // Errors feed both the per-route and the per-code counters.
    let resp = app.handle(&Request::get(
        "/view?path=%2Fhome%2Fsekar%2Fmissing",
        Some(&key),
    ));
    assert_eq!(resp.status, 404);
    let snap = fx.grid.metrics_snapshot();
    assert_eq!(snap.counter(metric!("web.errors"), "/view"), 1);
    assert_eq!(snap.counter(metric!("web.error_codes"), "NOT_FOUND"), 1);
}

#[test]
fn unknown_paths_share_one_metric_label() {
    let fx = fixture();
    let app = MySrb::new(&fx.grid, fx.srv, 1);
    let families = |snap: &srb_obs::MetricsSnapshot| {
        ["web.requests", "web.errors"].map(|f| snap.counters.get(f).map_or(0, |fam| fam.len()))
    };
    let before = families(&fx.grid.metrics_snapshot());
    for i in 0..1000 {
        let resp = app.handle(&Request::get(&format!("/probe/{i}"), None));
        assert_eq!(resp.status, 404);
    }
    // A known path under the wrong method is unmatched too.
    assert_eq!(app.handle(&Request::post("/browse", "", None)).status, 404);
    let snap = fx.grid.metrics_snapshot();
    let after = families(&snap);
    assert!(after[0] <= before[0] + 1 && after[1] <= before[1] + 1);
    assert_eq!(snap.counter(metric!("web.requests"), "other"), 1001);
    assert_eq!(snap.counter(metric!("web.errors"), "other"), 1001);
    assert!(!snap.render_text().contains("/probe/"));
}
