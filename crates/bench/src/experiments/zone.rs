//! ZONE — federated zones: cross-zone query latency vs. local, and
//! asynchronous replication lag vs. peering-link latency.
//!
//! For each peering-link class (LAN, metro, WAN) a fresh two-zone
//! federation is built: `alpha` holds the data, `beta` subscribes to the
//! collection subtree and also signs the bench user on for federated
//! queries. Measured per link class, all in simulated time:
//!
//! * the same conjunctive query run locally in `alpha` vs. fanned out
//!   across both zones through a federated connection (the remote leg
//!   pays the link round trip);
//! * the replication exposure window: datasets committed in `alpha`
//!   while the pump runs, worst commit→applied lag at the subscriber;
//! * convergence: publisher and mirror subtree exports byte-identical
//!   once the pump drains.
//!
//! A second sweep, `tail`, is in wall time: what replicating a fixed
//! batch of new records costs as the publisher's log grows behind the
//! subscriber's cursor. `beta` has already fetched 10³ / 10⁴ / 10⁵
//! records; `alpha` then commits 50 ingests (250 records) and the sweep
//! times one `export_deltas` from the cursor and the `pump` round that
//! ships and applies them. Replication is incremental when both stay flat
//! down the rows.
//!
//! `SRB_ZONE_N` overrides the per-zone dataset count and
//! `SRB_ZONE_TAIL_MAX` caps the `tail` sweep (CI smoke runs use small
//! values; the defaults are sized for a laptop).

use crate::fixtures::{ok, zone_connect, zone_federation};
use crate::table::Table;
use serde_json::json;
use srb_net::LinkSpec;
use srb_types::{CompareOp, Lsn};
use std::time::Instant;

struct Row {
    link: &'static str,
    latency_us: u64,
    local_query_ms: f64,
    federated_query_ms: f64,
    lag_ms: f64,
    pump_rounds: usize,
    converged: bool,
}

fn n_datasets() -> usize {
    std::env::var("SRB_ZONE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

fn tail_max() -> usize {
    std::env::var("SRB_ZONE_TAIL_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// Ingests in the timed batch: 250 log records, 150 relevant deltas.
const TAIL_BATCH: usize = 50;

/// Timed batches per row; each field is the median over them.
const TAIL_REPS: usize = 5;

struct TailRow {
    behind_records: usize,
    new_records: usize,
    export_us: f64,
    pump_ms: f64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn measure_tail() -> Vec<TailRow> {
    let mut rows = Vec::new();
    let max = tail_max();
    for behind in [1_000usize, 10_000, 100_000]
        .into_iter()
        .filter(|&n| n <= max)
    {
        let (fed, a, b) = zone_federation(LinkSpec::metro());
        let ca = zone_connect(&fed, a);
        ok(ca.make_collection("/home/bench/data"));
        ok(fed.subscribe(b, a, "/home/bench/data"));
        let device = ok(fed.zone(a)).device().clone();
        let mut serial = 0usize;
        let mut ingest = |n: usize| {
            for _ in 0..n {
                ok(ca.ingest(
                    &format!("/home/bench/data/obj{serial:07}"),
                    vec![7u8; 64],
                    srb_core::IngestOptions::to_resource("fs-alpha")
                        .with_metadata(srb_types::Triplet::new("serial", serial as i64, ""))
                        .with_metadata(srb_types::Triplet::new("kind", "image", "")),
                ));
                serial += 1;
            }
        };
        // Grow the log, the mirror keeping up: everything in it has been
        // fetched and applied when the timed batches start.
        while device.stats().2 < behind {
            ingest(200);
            ok(fed.pump_until_drained(4_096, 10_000));
        }
        let behind_records = device.stats().2;
        let (mut export_us, mut pump_ms, mut new_records) = (Vec::new(), Vec::new(), 0);
        for _ in 0..TAIL_REPS {
            let before = device.stats().2;
            ingest(TAIL_BATCH);
            new_records = device.stats().2 - before;
            let cursor = Lsn(fed.subscriptions()[0].fetched_lsn);
            let t0 = Instant::now();
            let fetch = ok(srb_mcat::export_deltas(&device, cursor));
            let t1 = Instant::now();
            let report = ok(fed.pump(4_096));
            let t2 = Instant::now();
            // The timed export is the fetch the pump then repeats and drains.
            let srb_mcat::DeltaFetch::Deltas { deltas, .. } = fetch else {
                panic!("no checkpoint prunes this log");
            };
            assert!(deltas.len() >= report.fetched && report.fetched > 0 && report.pending == 0);
            export_us.push((t1 - t0).as_secs_f64() * 1e6);
            pump_ms.push((t2 - t1).as_secs_f64() * 1e3);
        }
        rows.push(TailRow {
            behind_records,
            new_records,
            export_us: median(export_us),
            pump_ms: median(pump_ms),
        });
    }
    rows
}

fn measure() -> Vec<Row> {
    let n = n_datasets();
    let specs = [
        ("lan", LinkSpec::lan()),
        ("metro", LinkSpec::metro()),
        ("wan", LinkSpec::wan()),
    ];
    let mut rows = Vec::new();
    for (link, spec) in specs {
        let latency_us = spec.latency_us;
        let (fed, a, b) = zone_federation(spec);
        let ca = zone_connect(&fed, a);
        ok(ca.make_collection("/home/bench/data"));
        for i in 0..n {
            ok(ca.ingest(
                &format!("/home/bench/data/obj{i:05}"),
                vec![7u8; 256],
                srb_core::IngestOptions::to_resource("fs-alpha").with_metadata(
                    srb_types::Triplet::new("kind", ["image", "text"][i % 2], ""),
                ),
            ));
        }
        let dst_root = ok(fed.subscribe(b, a, "/home/bench/data"));

        // Query cost: local vs. federated (the remote leg pays the link).
        let q = srb_mcat::Query::everywhere().and("kind", CompareOp::Eq, "image");
        let (local_hits, local_r) = ok(ca.query(&q));
        let fc = ok(fed.connect(a, "bench", "sdsc", "pw"));
        let (fed_hits, fed_r) = ok(fc.query(&q));
        assert!(fed_hits.len() >= local_hits.len());

        // Replication lag: commit more data, then pump in bounded batches
        // until the mirror converges; the report carries the worst
        // commit -> applied exposure window.
        for i in n..n + n / 2 + 1 {
            ok(ca.ingest(
                &format!("/home/bench/data/obj{i:05}"),
                vec![7u8; 256],
                srb_core::IngestOptions::to_resource("fs-alpha"),
            ));
        }
        let mut max_lag_ns = 0u64;
        let mut pump_rounds = 0usize;
        loop {
            let r = ok(fed.pump(16));
            pump_rounds += 1;
            max_lag_ns = max_lag_ns.max(r.max_lag_ns);
            if r.pending == 0 && r.fetched == 0 {
                break;
            }
            if pump_rounds > 10_000 {
                break; // bail out rather than hang a wedged run
            }
        }
        let converged =
            ok(fed.subtree_digest(a, "/home/bench/data")) == ok(fed.subtree_digest(b, &dst_root));

        rows.push(Row {
            link,
            latency_us,
            local_query_ms: local_r.sim_ms(),
            federated_query_ms: fed_r.sim_ms(),
            lag_ms: max_lag_ns as f64 / 1e6,
            pump_rounds,
            converged,
        });
    }
    rows
}

/// Human-readable table.
pub fn run() -> Table {
    let mut table = Table::new(
        "ZONE: cross-zone query latency and replication lag vs link class",
        &[
            "link",
            "latency us",
            "local query ms",
            "federated query ms",
            "max repl lag ms",
            "pump rounds",
            "converged",
        ],
    );
    for r in measure() {
        table.row(vec![
            r.link.to_string(),
            r.latency_us.to_string(),
            format!("{:.3}", r.local_query_ms),
            format!("{:.3}", r.federated_query_ms),
            format!("{:.3}", r.lag_ms),
            r.pump_rounds.to_string(),
            r.converged.to_string(),
        ]);
    }
    table
}

/// Human-readable table of the `tail` sweep (wall time).
pub fn run_tail() -> Table {
    let mut table = Table::new(
        "ZONE tail: cost of replicating 50 new ingests vs log already fetched (wall)",
        &[
            "records behind cursor",
            "new records",
            "export_deltas us",
            "pump round ms",
        ],
    );
    for r in measure_tail() {
        table.row(vec![
            r.behind_records.to_string(),
            r.new_records.to_string(),
            format!("{:.1}", r.export_us),
            format!("{:.3}", r.pump_ms),
        ]);
    }
    table
}

/// `BENCH_ZONE.json` payload for `cargo xtask benchcheck`.
pub fn run_json() -> serde_json::Value {
    let rows: Vec<serde_json::Value> = measure()
        .into_iter()
        .map(|r| {
            json!({
                "link": r.link,
                "latency_us": r.latency_us,
                "local_query_ms": r.local_query_ms,
                "federated_query_ms": r.federated_query_ms,
                "lag_ms": r.lag_ms,
                "pump_rounds": r.pump_rounds,
                "converged": r.converged,
            })
        })
        .collect();
    let tail: Vec<serde_json::Value> = measure_tail()
        .into_iter()
        .map(|r| {
            json!({
                "behind_records": r.behind_records,
                "new_records": r.new_records,
                "export_us": r.export_us,
                "pump_ms": r.pump_ms,
            })
        })
        .collect();
    json!({
        "experiment": "zone",
        "datasets_per_zone": n_datasets(),
        "rows": rows,
        "tail": tail,
    })
}
