//! Heap allocations per page, counted exactly: a counting global
//! allocator wraps `System`, and one `MySrb::handle` of each page the HTML
//! goldens pin (`common::pages`, `common::federated_pages`), plus an
//! ingest, must make the allocator calls recorded for it. The counts are
//! single-threaded and deterministic, so they hold on any host and in
//! debug and release alike.
//!
//! The renderers write each page straight into the reply's body buffer.
//! A `String` built beside it — a `format!` or a `.to_string()` in a cell
//! loop, a second render path — moves its page's count.
//!
//! This file holds one test so no other test thread allocates while a
//! request is counted.

mod common;

use mysrb::{MySrb, Request};
use srb_types::alloc::{count, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

/// The allocator calls each page makes after one warm-up round, in the
/// order of `common::pages`, then the ingest, then the federated pages.
const PINS: [(&str, u64); 23] = [
    ("login", 6),
    ("browse", 77),
    ("browse_next_page", 61),
    ("view_bytes", 63),
    ("view_sql", 100),
    ("view_listing", 59),
    ("meta", 99),
    ("query_form", 25),
    ("query_results", 77),
    ("query_no_hits", 35),
    ("ingest_form", 51),
    ("annotate", 8),
    ("edit", 42),
    ("mkcoll", 8),
    ("help", 6),
    ("register", 6),
    ("admin", 85),
    ("not_found", 5),
    ("grid_error", 21),
    ("grid_status", 220),
    ("ingest", 159),
    ("browse_zones", 71),
    ("grid_status_federation", 186),
];

#[test]
fn requests_stay_within_their_allocation_caps() {
    let (grid, srv) = common::seeded_grid();
    let app = MySrb::new(&grid, srv, 1);
    let key = common::login(&app);
    let (fed, a, b) = common::federation();
    let federated = common::federated_pages(&fed, a, b);
    let round = |n: usize| {
        let ingest = Request::post(
            "/ingest",
            &format!("coll=%2Fhome%2Fsekar%2Fnotes&name=new{n}&resource=unix-sdsc&content=xxxx"),
            Some(&key),
        );
        let seeded = common::pages(Some(&key))
            .into_iter()
            .chain([("ingest", 200, ingest)])
            .map(|(name, status, req)| (name, status, &app, req));
        let federated = federated
            .iter()
            .map(|(name, status, app, req)| (*name, *status, app, req.clone()));
        seeded.chain(federated).collect::<Vec<_>>()
    };
    // Warm up: first-use tables, caches and metric series.
    for (name, status, app, req) in round(0) {
        assert_eq!(app.handle(&req).status, status, "{name}");
    }
    let counted: Vec<(&str, u64)> = round(1)
        .into_iter()
        .map(|(name, status, app, req)| {
            let (calls, resp) = count(|| app.handle(&req));
            assert_eq!(resp.status, status, "{name}: {}", resp.text());
            (name, calls)
        })
        .collect();
    assert_eq!(counted, PINS);
}
