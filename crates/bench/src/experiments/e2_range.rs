//! E2 — ordered secondary indexes and resumable cursors: range-query
//! latency vs. catalog size, and page-fetch cost vs. page number.
//!
//! **Range half.** A seeded catalog of `n` datasets (three attributes:
//! unique `serial` Int, unique `tag` Text, random `score`) is queried with
//! two constant-result-size predicates — a bounded numeric range
//! (`serial < 100`) and a literal text prefix (`tag like "t00000%"`) —
//! each answered two ways on the same [`Query`]:
//!
//! - **planner** — ordered-index range scan ([`srb_mcat::Mcat::query`]),
//! - **scan** — the index-free full scan ([`srb_mcat::Mcat::query_scan`]),
//!   which verifies the range predicate against every dataset in scope:
//!   the residual-verification baseline for range/prefix predicates.
//!
//! The planner touches O(hits) index entries however large the catalog,
//! so its latency should stay flat in `n` while the residual-verification
//! baseline grows linearly — the `e2-range-beats-scan` gate in `cargo
//! xtask benchcheck` enforces a ≥5× margin at the largest size.
//!
//! `serial < 100` is one-sided and anchored at the end of the index. The
//! **window** columns measure the case that is neither: the same 100 rows
//! taken from the middle (`serial >= n/2 AND serial < n/2 + 100`), once as
//! a one-shot query and once as a walk of 25-row `query_page` pages. The
//! planner folds the two bounds into one interval walk, so both must cost
//! what the anchored range costs (gate: ≤ 3× at every size, flat in `n`).
//!
//! **Paging half.** A single collection of `n` entries is walked with
//! [`srb_mcat::Mcat::list_page`] continuation tokens; fetching page `k`
//! from its token is one bounded B-tree range read (O(page)), while the
//! offset emulation — re-listing from the start through page `k`, what an
//! offset-paged server does — costs O(k·page). `query_page` cursors are
//! measured the same way. A determinism digest (two same-seed runs over
//! hits, tokens, and `mcat.*` counters) rides along so `benchcheck` can
//! reject wall-clock leaks into the simulated results.

use crate::fixtures::{ok, single_site_grid, time_us};
use crate::table::Table;
use serde_json::json;
use srb_core::Grid;
use srb_mcat::{Mcat, MetaKind, NewDataset, Query, Subject};
use srb_obs::metric;
use srb_types::{fnv1a64, CollectionId, CompareOp, MetaValue, SeedStream, Triplet};

/// Entries per `list_page` window in the paging half.
const PAGE: usize = 100;

/// Seed `/e2` with `n` datasets at the catalog layer — the experiment
/// measures query engines, so replica storage never enters the picture
/// and 10⁶-row catalogs stay cheap to build.
fn seed_catalog(m: &Mcat, n: usize) -> CollectionId {
    let admin = m.admin();
    let now = m.clock.now();
    let coll = ok(m
        .collections
        .create(&m.ids, m.collections.root(), "e2", admin, now));
    let mut rng = SeedStream::new(7);
    const CHUNK: usize = 10_000;
    let mut lo = 0;
    while lo < n {
        let hi = (lo + CHUNK).min(n);
        let batch: Vec<NewDataset> = (lo..hi)
            .map(|i| NewDataset {
                name: format!("obj{i:07}"),
                replicas: vec![],
            })
            .collect();
        let ids = ok(m
            .datasets
            .create_batch(&m.ids, coll, "generic", admin, batch, now));
        let rows = ids.into_iter().enumerate().flat_map(|(k, d)| {
            let i = lo + k;
            let score = rng.below(1000) as i64;
            [
                (
                    Subject::Dataset(d),
                    Triplet::new("serial", i as i64, ""),
                    MetaKind::UserDefined,
                ),
                (
                    Subject::Dataset(d),
                    Triplet::new("tag", MetaValue::Text(format!("t{i:07}").into()), ""),
                    MetaKind::UserDefined,
                ),
                (
                    Subject::Dataset(d),
                    Triplet::new("score", score, ""),
                    MetaKind::UserDefined,
                ),
            ]
        });
        m.metadata.add_batch(&m.ids, rows.collect::<Vec<_>>());
        lo = hi;
    }
    coll
}

fn scoped(m: &Mcat, coll: CollectionId) -> Query {
    Query::everywhere().under(ok(m.collections.get(coll)).path)
}

/// The two constant-result-size predicates: a bounded numeric range and a
/// literal text prefix (both resolve to 100 hits once `n ≥ 1000`).
fn range_query(m: &Mcat, coll: CollectionId) -> Query {
    scoped(m, coll).and("serial", CompareOp::Lt, 100i64)
}

/// The same 100 rows from the middle of the index, bounded on both sides.
fn window_query(m: &Mcat, coll: CollectionId, n: usize) -> Query {
    let lo = (n / 2) as i64;
    scoped(m, coll)
        .and("serial", CompareOp::Ge, lo)
        .and("serial", CompareOp::Lt, lo + 100)
}

/// Rows per `query_page` call of the window walk.
const WINDOW_PAGE: usize = 25;

/// Walk `q` to exhaustion in [`WINDOW_PAGE`]-row pages; returns the page
/// count.
fn walk_pages(m: &Mcat, q: &Query) -> usize {
    let mut pages = 0;
    let mut token: Option<String> = None;
    loop {
        let (_, next) = ok(m.query_page(q, token.as_deref(), WINDOW_PAGE));
        pages += 1;
        match next {
            Some(t) => token = Some(t),
            None => return pages,
        }
    }
}

fn prefix_query(m: &Mcat, coll: CollectionId) -> Query {
    scoped(m, coll).and("tag", CompareOp::Like, "t00000%")
}

struct RangeRow {
    size: usize,
    hits: usize,
    planner_range_us: f64,
    scan_range_us: f64,
    planner_prefix_us: f64,
    scan_prefix_us: f64,
    /// One-shot mid-index window query.
    planner_window_us: f64,
    /// Per page of the same window walked through `query_page`.
    window_page_us: f64,
}

/// The size ladder 10³ → `max`, with `max` always included so capped
/// (CI smoke) runs still produce a largest-size row for the gate.
fn sizes(max: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = [1_000usize, 10_000, 100_000, 1_000_000, 10_000_000]
        .into_iter()
        .filter(|&s| s < max)
        .collect();
    sizes.push(max);
    sizes
}

fn measure_range(max: usize) -> Vec<RangeRow> {
    sizes(max)
        .into_iter()
        .map(|size| {
            let (grid, _srv) = single_site_grid();
            let m = &grid.mcat;
            let coll = seed_catalog(m, size);
            let qr = range_query(m, coll);
            let qp = prefix_query(m, coll);
            let hits = ok(m.query(&qr)).len();
            assert_eq!(hits, ok(m.query_scan(&qr)).len());
            assert_eq!(ok(m.query(&qp)).len(), ok(m.query_scan(&qp)).len());
            let qw = window_query(m, coll, size);
            assert_eq!(ok(m.query(&qw)), ok(m.query_scan(&qw)));
            let pages = walk_pages(m, &qw);
            assert_eq!(pages, hits.div_ceil(WINDOW_PAGE));
            let baseline_reps = if size >= 100_000 { 1 } else { 5 };
            RangeRow {
                size,
                hits,
                planner_range_us: time_us(20, || {
                    ok(m.query(&qr));
                }),
                scan_range_us: time_us(baseline_reps, || {
                    ok(m.query_scan(&qr));
                }),
                planner_prefix_us: time_us(20, || {
                    ok(m.query(&qp));
                }),
                scan_prefix_us: time_us(baseline_reps, || {
                    ok(m.query_scan(&qp));
                }),
                planner_window_us: time_us(20, || {
                    ok(m.query(&qw));
                }),
                window_page_us: time_us(20, || {
                    walk_pages(m, &qw);
                }) / pages as f64,
            }
        })
        .collect()
}

struct PageRow {
    page: usize,
    cursor_us: f64,
    offset_us: f64,
}

/// Fetch cost of pages 1, middle, and last — from a saved continuation
/// token (cursor) vs. re-listing from the start through that page (the
/// offset emulation).
fn measure_list_paging(m: &Mcat, coll: CollectionId, entries: usize) -> Vec<PageRow> {
    // One full walk collects the token that *starts* each page:
    // `tokens[k]` resumes at page k+1.
    let mut tokens: Vec<Option<String>> = vec![None];
    loop {
        let prev = tokens[tokens.len() - 1].clone();
        let (_, _, next) = ok(m.list_page(coll, prev.as_deref(), PAGE));
        match next {
            Some(t) => tokens.push(Some(t)),
            None => break,
        }
    }
    let pages = tokens.len();
    assert_eq!(pages, entries.div_ceil(PAGE));
    [1, pages.div_ceil(2), pages]
        .into_iter()
        .map(|page| {
            let tok = tokens[page - 1].clone();
            let offset_reps = if page * PAGE >= 50_000 { 3 } else { 20 };
            PageRow {
                page,
                cursor_us: time_us(200, || {
                    ok(m.list_page(coll, tok.as_deref(), PAGE));
                }),
                offset_us: time_us(offset_reps, || {
                    ok(m.list_page(coll, None, page * PAGE));
                }),
            }
        })
        .collect()
}

/// The same page-1/middle/last comparison for `query_page` cursors on a
/// no-condition query (every entry matches). Each call re-orders the
/// candidate set, so both arms share that fixed cost; the cursor arm
/// binary-searches its resume point and builds one page of hits, while
/// the offset arm builds hits for everything up to the requested page.
fn measure_query_paging(m: &Mcat, coll: CollectionId, entries: usize) -> Vec<PageRow> {
    let q = scoped(m, coll);
    let page_rows = (entries / 100).max(1);
    let mut tokens: Vec<Option<String>> = vec![None];
    loop {
        let prev = tokens[tokens.len() - 1].clone();
        let (_, next) = ok(m.query_page(&q, prev.as_deref(), page_rows));
        match next {
            Some(t) => tokens.push(Some(t)),
            None => break,
        }
    }
    let pages = tokens.len();
    [1, pages.div_ceil(2), pages]
        .into_iter()
        .map(|page| {
            let tok = tokens[page - 1].clone();
            PageRow {
                page,
                cursor_us: time_us(10, || {
                    ok(m.query_page(&q, tok.as_deref(), page_rows));
                }),
                offset_us: time_us(3, || {
                    ok(m.query_page(&q, None, page * page_rows));
                }),
            }
        })
        .collect()
}

/// Two same-seed 2000-entry runs: every simulated artifact — hit paths,
/// continuation tokens, `mcat.*` counters — must hash identically. Wall
/// timings are deliberately absent from the digest.
fn determinism_block() -> serde_json::Value {
    const ENTRIES: usize = 2_000;
    let digest = |grid: &Grid| -> u64 {
        let m = &grid.mcat;
        let coll = seed_catalog(m, ENTRIES);
        let mut text = String::new();
        for q in [range_query(m, coll), prefix_query(m, coll)] {
            for h in ok(m.query(&q)) {
                text.push_str(&h.path);
                text.push('\n');
            }
        }
        let mut token: Option<String> = None;
        loop {
            let (_, ds, next) = ok(m.list_page(coll, token.as_deref(), 37));
            for d in &ds {
                text.push_str(&d.name);
            }
            match next {
                Some(t) => {
                    text.push_str(&t);
                    token = Some(t);
                }
                None => break,
            }
        }
        let q = scoped(m, coll).and("serial", CompareOp::Ge, 1_500i64);
        let mut token: Option<String> = None;
        loop {
            let (hits, next) = ok(m.query_page(&q, token.as_deref(), 41));
            for h in &hits {
                text.push_str(&h.path);
            }
            match next {
                Some(t) => {
                    text.push_str(&t);
                    token = Some(t);
                }
                None => break,
            }
        }
        let snap = grid.metrics_snapshot();
        for c in [
            metric!("mcat.range_scan"),
            metric!("mcat.cursor_pages"),
            metric!("mcat.cursor_invalidated"),
        ] {
            text.push_str(&format!("{c}:{}\n", snap.counter(c, "")));
        }
        fnv1a64(&[text.as_bytes()])
    };
    let a = digest(&single_site_grid().0);
    let b = digest(&single_site_grid().0);
    json!({
        "runs": 2,
        "entries": ENTRIES,
        "digest_a": format!("{a:016x}"),
        "digest_b": format!("{b:016x}"),
        "identical": a == b,
    })
}

/// Human-readable range table.
pub fn run(max: usize) -> Table {
    let mut table = Table::new(
        &format!("E2: range/prefix query latency vs catalog size (up to {max} datasets)"),
        &[
            "datasets",
            "hits",
            "range idx us",
            "range scan us",
            "prefix idx us",
            "prefix scan us",
            "window idx us",
            "window page us",
            "range idx speedup",
        ],
    );
    for r in measure_range(max) {
        table.row(vec![
            r.size.to_string(),
            r.hits.to_string(),
            format!("{:.0}", r.planner_range_us),
            format!("{:.0}", r.scan_range_us),
            format!("{:.0}", r.planner_prefix_us),
            format!("{:.0}", r.scan_prefix_us),
            format!("{:.0}", r.planner_window_us),
            format!("{:.0}", r.window_page_us),
            format!("{:.1}x", r.scan_range_us / r.planner_range_us.max(0.001)),
        ]);
    }
    table
}

/// Human-readable paging table: page-fetch cost vs page number.
pub(crate) fn run_paging(entries: usize) -> Table {
    let (grid, _srv) = single_site_grid();
    let m = &grid.mcat;
    let coll = seed_catalog(m, entries);
    let mut table = Table::new(
        &format!("E2: page-fetch cost vs page number ({entries} entries, {PAGE}/page)"),
        &["api", "page", "cursor us", "offset us", "offset/cursor"],
    );
    for (api, rows) in [
        ("list_page", measure_list_paging(m, coll, entries)),
        ("query_page", measure_query_paging(m, coll, entries)),
    ] {
        for r in rows {
            table.row(vec![
                api.to_string(),
                r.page.to_string(),
                format!("{:.0}", r.cursor_us),
                format!("{:.0}", r.offset_us),
                format!("{:.1}x", r.offset_us / r.cursor_us.max(0.001)),
            ]);
        }
    }
    table
}

fn page_rows_json(rows: &[PageRow]) -> Vec<serde_json::Value> {
    rows.iter()
        .map(|r| {
            json!({
                "page": r.page,
                "cursor_us": r.cursor_us,
                "offset_us": r.offset_us,
            })
        })
        .collect()
}

/// Machine-readable results for `BENCH_E2.json` (`exp e2_range --json`),
/// gated by the `e2-*` rows of `cargo xtask benchcheck`.
pub(crate) fn run_json(max: usize) -> serde_json::Value {
    let range_rows: Vec<serde_json::Value> = measure_range(max)
        .iter()
        .map(|r| {
            json!({
                "size": r.size,
                "hits": r.hits,
                "planner_range_us": r.planner_range_us,
                "scan_range_us": r.scan_range_us,
                "planner_prefix_us": r.planner_prefix_us,
                "scan_prefix_us": r.scan_prefix_us,
                "planner_window_us": r.planner_window_us,
                "window_page_us": r.window_page_us,
                "range_speedup_vs_scan": r.scan_range_us / r.planner_range_us.max(0.001),
            })
        })
        .collect();
    let entries = max.min(100_000);
    let (grid, _srv) = single_site_grid();
    let m = &grid.mcat;
    let coll = seed_catalog(m, entries);
    let paging = json!({
        "entries": entries,
        "page_rows": PAGE,
        "rows": page_rows_json(&measure_list_paging(m, coll, entries)),
    });
    let query_paging = json!({
        "entries": entries,
        "page_rows": (entries / 100).max(1),
        "rows": page_rows_json(&measure_query_paging(m, coll, entries)),
    });
    json!({
        "experiment": "e2_range",
        "max_size": max,
        "before_engine": "scan",
        "after_engine": "planner",
        "range_rows": range_rows,
        "paging": paging,
        "query_paging": query_paging,
        "determinism": determinism_block(),
    })
}
