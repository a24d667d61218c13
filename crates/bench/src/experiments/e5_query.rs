//! E5 — the conjunctive attribute query (§6) and ablation A1 (value
//! indexes vs full scan).
//!
//! A seeded catalog is queried with growing numbers of ANDed conditions;
//! each row compares two engines on the same [`Query`]:
//!
//! - **planner** — the multi-index intersection planner
//!   ([`srb_mcat::Mcat::query`]),
//! - **scan** — the index-free full scan
//!   ([`srb_mcat::Mcat::query_scan`]).
//!
//! Hit counts are identical by construction (the differential oracle in
//! `crates/srb-mcat/tests/query_oracle.rs` enforces it); the interesting
//! output is the cost ratio as conditions accumulate. Timings are taken at
//! the catalog layer so permission filtering does not blur the engine
//! comparison.

use crate::fixtures::{connect, ok, seed_datasets, single_site_grid, time_us};
use crate::table::Table;
use serde_json::json;
use srb_mcat::Query;
use srb_types::{CompareOp, MetaValue};

/// The six-condition workload over the attributes `seed_datasets` attaches:
/// a unique `serial`, a three-way `kind`, and a 0..1000 `score`.
fn conditions() -> Vec<(&'static str, CompareOp, MetaValue)> {
    vec![
        ("serial", CompareOp::Lt, 400i64.into()),
        ("kind", CompareOp::Eq, "image".into()),
        ("score", CompareOp::Ge, 200i64.into()),
        ("score", CompareOp::Lt, 900i64.into()),
        ("serial", CompareOp::Ge, 10i64.into()),
        ("kind", CompareOp::Ne, "movie".into()),
    ]
}

struct Row {
    conds: usize,
    hits: usize,
    planner_us: f64,
    scan_us: f64,
}

fn measure(n: usize) -> Vec<Row> {
    let (grid, srv) = single_site_grid();
    let conn = connect(&grid, srv);
    seed_datasets(&conn, n, "fs");
    let mcat = &grid.mcat;
    let conds = conditions();
    let mut rows = Vec::new();
    for ncond in 1..=conds.len() {
        let mut q = Query::everywhere();
        for (attr, op, val) in conds.iter().take(ncond) {
            q = q.and(attr, *op, val.clone());
        }
        let hits = ok(mcat.query(&q)).len();
        assert_eq!(hits, ok(mcat.query_scan(&q)).len());
        let planner_us = time_us(20, || {
            ok(mcat.query(&q));
        });
        let scan_us = time_us(1, || {
            ok(mcat.query_scan(&q));
        });
        rows.push(Row {
            conds: ncond,
            hits,
            planner_us,
            scan_us,
        });
    }
    rows
}

pub fn run(n: usize) -> Table {
    let mut table = Table::new(
        &format!("E5: conjunctive query cost over {n} datasets (planner vs scan)"),
        &[
            "conditions",
            "hits",
            "planner us",
            "scan us",
            "scan/planner",
        ],
    );
    for r in measure(n) {
        table.row(vec![
            r.conds.to_string(),
            r.hits.to_string(),
            format!("{:.0}", r.planner_us),
            format!("{:.0}", r.scan_us),
            format!("{:.1}x", r.scan_us / r.planner_us.max(0.001)),
        ]);
    }
    table
}

/// The same measurements as machine-readable rows for `BENCH_E5.json`
/// (`exp e5_query --json`).
pub(crate) fn run_json(n: usize) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = measure(n)
        .iter()
        .map(|r| {
            json!({
                "conditions": r.conds,
                "hits": r.hits,
                "planner_us": r.planner_us,
                "scan_us": r.scan_us,
                "speedup_vs_scan": r.scan_us / r.planner_us.max(0.001),
            })
        })
        .collect();
    json!({
        "experiment": "e5_query",
        "datasets": n,
        "rows": rows,
    })
}
