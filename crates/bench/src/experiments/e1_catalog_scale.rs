//! E1 — "scalable to handle millions of datasets" (§2).
//!
//! Grows the catalog through decades of size and reports per-operation
//! wall-clock costs at each scale: ingest, point query through the
//! multi-index planner, and the same point query through the full-scan
//! baseline. The claim holds if ingest and indexed-query costs stay
//! near-flat while the scan cost grows linearly.

use crate::fixtures::{connect, ok, single_site_grid, time_us};
use crate::table::Table;
use serde_json::json;
use srb_core::IngestOptions;
use srb_mcat::Query;
use srb_types::{CompareOp, Triplet};
use std::time::Instant;

struct Row {
    datasets: usize,
    ingest_us: f64,
    planner_us: f64,
    scan_ms: f64,
    hits: usize,
}

fn measure(max: usize) -> (Vec<Row>, serde_json::Value) {
    let (grid, srv) = single_site_grid();
    let conn = connect(&grid, srv);
    ok(conn.make_collection("/home/bench/data"));
    let mcat = &grid.mcat;
    let mut rows = Vec::new();
    let mut current = 0usize;
    let mut size = 1000usize;
    while size <= max {
        // Grow the catalog to `size`.
        let t0 = Instant::now();
        for i in current..size {
            ok(conn.ingest(
                &format!("/home/bench/data/obj{i:07}"),
                b"x",
                IngestOptions::to_resource("fs")
                    .with_metadata(Triplet::new("serial", i as i64, ""))
                    .with_metadata(Triplet::new("kind", ["image", "text"][i % 2], "")),
            ));
        }
        let grown = size - current;
        let ingest_us = t0.elapsed().as_micros() as f64 / grown.max(1) as f64;
        current = size;

        // Point query on the unique attribute, through both engines.
        let probe = (size / 2) as i64;
        let q = Query::everywhere().and("serial", CompareOp::Eq, probe);
        let hits = ok(mcat.query(&q)).len();
        assert_eq!(hits, ok(mcat.query_scan(&q)).len());
        let planner_us = time_us(100, || {
            ok(mcat.query(&q));
        });
        let scan_ms = time_us(1, || {
            ok(mcat.query_scan(&q));
        }) / 1000.0;
        rows.push(Row {
            datasets: size,
            ingest_us,
            planner_us,
            scan_ms,
            hits,
        });
        size *= 10;
    }
    let metrics = serde_json::to_value(&grid.metrics_snapshot());
    (rows, metrics)
}

/// Run with catalog sizes up to `max` (e.g. 100_000; override with the
/// `SRB_E1_MAX` environment variable of `exp e1_catalog_scale`).
pub fn run(max: usize) -> Table {
    let mut table = Table::new(
        "E1: catalog scalability (per-op wall time vs catalog size)",
        &[
            "datasets",
            "ingest us/op",
            "planner us",
            "scan query ms",
            "hits",
        ],
    );
    for r in measure(max).0 {
        table.row(vec![
            r.datasets.to_string(),
            format!("{:.1}", r.ingest_us),
            format!("{:.1}", r.planner_us),
            format!("{:.2}", r.scan_ms),
            r.hits.to_string(),
        ]);
    }
    table
}

/// The same measurements as machine-readable rows for `BENCH_E1.json`
/// (`exp e1_catalog_scale --json`).
pub(crate) fn run_json(max: usize) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = measure(max)
        .0
        .iter()
        .map(|r| {
            json!({
                "datasets": r.datasets,
                "ingest_us_per_op": r.ingest_us,
                "planner_us": r.planner_us,
                "scan_ms": r.scan_ms,
                "hits": r.hits,
            })
        })
        .collect();
    json!({
        "experiment": "e1_catalog_scale",
        "max_datasets": max,
        "rows": rows,
    })
}

/// The grid's full metric snapshot after the same run — `exp
/// e1_catalog_scale --metrics-json` writes it next to `BENCH_E1.json` so a
/// seeded run's counters can be diffed offline.
pub(crate) fn metrics_json(max: usize) -> serde_json::Value {
    json!({ "experiment": "e1_catalog_scale", "snapshot": measure(max).1 })
}
