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
//! Two more arms: the status pages read their counters in place, so
//! registering more series moves neither count; and `/admin`, which lists
//! the newest audit rows, reads only the tail of the trail, so its count
//! is the same after 10 000 and after 20 000 further audited ops on a
//! durable grid, a checkpoint between them.
//!
//! This file holds one test so no other test thread allocates while a
//! request is counted.

mod common;

use mysrb::{MySrb, Request};
use srb_core::SrbConnection;
use srb_mcat::WalConfig;
use srb_obs::{metric, MetricsRegistry};
use srb_storage::LogDevice;
use srb_types::alloc::{count, Counting};
use std::sync::Arc;

#[global_allocator]
static ALLOC: Counting = Counting;

/// The allocator calls each page makes after one warm-up round, in the
/// order of `common::pages`, then the ingest, then the federated pages.
/// A page whose op records an audit row makes one call fewer since the
/// row is encoded straight into the trail's page text; `/grid-status`
/// went from 220 to 45 calls (186 to 25 federated) once it read its
/// counters in place instead of copying every series.
const PINS: [(&str, u64); 23] = [
    ("login", 6),
    ("browse", 77),
    ("browse_next_page", 61),
    ("view_bytes", 62),
    ("view_sql", 99),
    ("view_listing", 58),
    ("meta", 98),
    ("query_form", 25),
    ("query_results", 76),
    ("query_no_hits", 34),
    ("ingest_form", 51),
    ("annotate", 8),
    ("edit", 41),
    ("mkcoll", 8),
    ("help", 6),
    ("register", 6),
    ("admin", 85),
    ("not_found", 5),
    ("grid_error", 20),
    ("grid_status", 45),
    ("ingest", 157),
    ("browse_zones", 71),
    ("grid_status_federation", 25),
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

    // Series the status pages do not read, and labels beside the ones
    // they sum, leave both counts where they are.
    let zones = [a, b].map(|z| fed.zone(z).unwrap().grid.obs().unwrap().metrics.clone());
    let registries = [grid.obs().unwrap().metrics.clone(), fed.metrics().clone()];
    for reg in registries.iter().chain(&zones) {
        more_series(reg);
    }
    let status: Vec<(&str, u64)> = round(2)
        .into_iter()
        .filter(|(name, ..)| name.starts_with("grid_status"))
        .map(|(name, status, app, req)| {
            let (calls, resp) = count(|| app.handle(&req));
            assert_eq!(resp.status, status, "{name}");
            (name, calls)
        })
        .collect();
    let pinned = |page: &str| {
        PINS.iter()
            .find(|(name, _)| *name == page)
            .copied()
            .unwrap()
    };
    assert_eq!(
        status,
        [pinned("grid_status"), pinned("grid_status_federation")]
    );

    admin_reads_the_tail_of_the_trail();
}

/// A hundred series on every metric family `/grid-status` reads, and a
/// hundred it does not.
fn more_series(reg: &MetricsRegistry) {
    for i in 0..50 {
        let label = format!("extra{i}");
        reg.counter(metric!("fanout.legs_failed"), &label).inc();
        reg.counter(metric!("zone.deltas_fetched"), &label).inc();
        reg.counter(metric!("web.requests"), &label).inc();
        reg.histogram(metric!("core.op_ns"), &label).observe(7);
    }
}

/// `/admin` on a durable grid after 10 000 and after 20 000 audited
/// reads, with a checkpoint between: the same allocator calls.
fn admin_reads_the_tail_of_the_trail() {
    let (grid, srv) = common::seeded_grid();
    let config = WalConfig {
        checkpoint_interval_ns: 0,
    };
    let device = Arc::new(LogDevice::new());
    grid.enable_durability(device, config).unwrap();
    let app = MySrb::new(&grid, srv, 1);
    let key = common::login(&app);
    let admin = Request::get("/admin", Some(&key));
    let conn = SrbConnection::connect(&grid, srv, "sekar", "sdsc", "pw").unwrap();
    let mut counted = Vec::new();
    for _ in 0..2 {
        let before = grid.mcat.audit.count();
        for _ in 0..10_000 {
            conn.read("/home/sekar/condor.jpg").unwrap();
        }
        assert!(grid.mcat.audit.count() >= before + 10_000);
        assert_eq!(app.handle(&admin).status, 200, "warm-up");
        let (calls, resp) = count(|| app.handle(&admin));
        assert_eq!(resp.status, 200);
        counted.push(calls);
        grid.mcat.checkpoint_now().unwrap();
    }
    assert_eq!(
        counted[0], counted[1],
        "allocator calls at 10 000 and 20 000"
    );
}
