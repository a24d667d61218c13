//! Heap allocations per request, counted exactly: a counting global
//! allocator wraps `System`, and one `MySrb::handle` each of browse, view,
//! query and ingest must stay within the cap recorded for it. The counts
//! are single-threaded and deterministic, so they hold on any host and in
//! debug and release alike.
//!
//! This file holds one test so no other test thread allocates while a
//! request is counted.

use mysrb::{MySrb, Request};
use srb_core::{GridBuilder, IngestOptions, SrbConnection};
use srb_types::alloc::{count, Counting};
use srb_types::Triplet;

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most allocator calls each request may make: browse, view, query,
/// ingest. Recorded when the renderers moved into the reply buffer; the
/// renderers that built each cell as a `String` made 2 048, 209, 533 and
/// 2 243. Most of what is left is the catalog calls a page makes.
/// Lowered to the counts once a resource's placement and routes were
/// fixed at build (no row clone or route allocation per storage leg), and
/// again once a one-owner ACL was held inline (no table to clone per row
/// copied out) and index upkeep stopped cloning an attribute name or a
/// value it already held: view 96 → 89, query 83 → 76, ingest 220 → 214.
/// A replica's checksum became its 32 digest bytes, held inline, so no
/// hex text is made at ingest or cloned with a row: view 89 → 83, ingest
/// 214 → 210. A dataset's name and type, a store key and a short text
/// value became inline `ShortStr`s, so copying one out or keying by one
/// allocates nothing: browse 109 → 105, view 83 → 67, query 76 → 75,
/// ingest 210 → 203.
const CAPS: [(&str, u64); 4] = [
    ("browse", 105),
    ("view", 67),
    ("query", 75),
    ("ingest", 203),
];

#[test]
fn requests_stay_within_their_allocation_caps() {
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    grid.register_user("sekar", "sdsc", "pw").unwrap();
    let conn = SrbConnection::connect(&grid, srv, "sekar", "sdsc", "pw").unwrap();
    conn.make_collection("/home/sekar/c").unwrap();
    for d in 0..25 {
        conn.ingest(
            &format!("/home/sekar/c/d{d}"),
            b"seed payload".as_slice(),
            IngestOptions::to_resource("fs")
                .with_metadata(Triplet::new("kind", "text", ""))
                .with_metadata(Triplet::new("score", d as i64, "")),
        )
        .unwrap();
    }
    let app = MySrb::new(&grid, srv, 1);
    let resp = app.handle(&Request::post(
        "/login",
        "user=sekar&domain=sdsc&password=pw",
        None,
    ));
    let key = resp
        .headers
        .iter()
        .find_map(|(k, v)| (k == "Set-Cookie").then_some(v))
        .and_then(|v| v.strip_prefix("mysrb_session="))
        .and_then(|v| v.split(';').next())
        .expect("session cookie")
        .to_string();
    let key = Some(key.as_str());
    let requests = |round: usize| {
        [
            Request::get("/browse?path=%2Fhome%2Fsekar%2Fc", key),
            Request::get("/view?path=%2Fhome%2Fsekar%2Fc%2Fd7", key),
            Request::post(
                "/query",
                "scope=%2Fhome%2Fsekar%2Fc&attr=kind&op=%3D&value=text",
                key,
            ),
            Request::post(
                "/ingest",
                &format!("coll=%2Fhome%2Fsekar%2Fc&name=new{round}&resource=fs&content=xxxx"),
                key,
            ),
        ]
    };
    // Warm up: first-use tables, caches and metric series.
    for req in requests(0) {
        assert_eq!(app.handle(&req).status, 200);
    }
    let mut over = Vec::new();
    let mut counts = Vec::new();
    for ((name, cap), req) in CAPS.into_iter().zip(requests(1)) {
        let (calls, resp) = count(|| app.handle(&req));
        assert_eq!(resp.status, 200, "{name}: {}", resp.text());
        counts.push(format!("{name} {calls}"));
        if calls > cap {
            over.push(format!("{name}: {calls} allocator calls > cap {cap}"));
        }
    }
    assert!(
        over.is_empty(),
        "{} (all: {})",
        over.join("; "),
        counts.join(", ")
    );
    println!("allocator calls per request: {}", counts.join(", "));
}
