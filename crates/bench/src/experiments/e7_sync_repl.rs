//! E7 — logical-resource synchronous replication (§5) vs asynchronous
//! replicate-after-ingest (ablation A4), under both fan-out modes.
//!
//! Ingesting into a logical resource with fan-out k writes k synchronous
//! replicas. With the parallel fan-out engine the k legs overlap, so the
//! synchronous ingest costs max-of-legs simulated time instead of the
//! sequential sum — the paper's synchronous-replication penalty mostly
//! disappears. The asynchronous alternative still returns after one copy
//! and pays the replication later; the table keeps its cost and the
//! window of exposure (time during which only one copy exists).

use crate::fixtures::ok;
use crate::table::Table;
use bytes::Bytes;
use serde_json::json;
use srb_core::{FanoutMode, GridBuilder, IngestOptions, SrbConnection};
use srb_net::LinkSpec;

/// One fan-out width measured under both modes.
pub(crate) struct SyncRow {
    /// Synchronous fan-out width (logical-resource member count).
    pub k: usize,
    /// Sequential-mode synchronous ingest, simulated ms.
    pub sync_seq_ms: f64,
    /// Parallel-mode synchronous ingest, simulated ms.
    pub sync_par_ms: f64,
    /// Asynchronous first-copy ingest, simulated ms.
    pub async_first_ms: f64,
    /// Asynchronous ingest + k-1 replicates, simulated ms.
    pub async_total_ms: f64,
    /// Exposure window (one durable copy only), simulated ms.
    pub exposure_ms: f64,
}

fn sync_ingest_ms(k: usize, payload: &Bytes, mode: FanoutMode) -> f64 {
    let mut gb = GridBuilder::new();
    let mut servers = Vec::new();
    for i in 0..k {
        let site = gb.site(&format!("site{i}"));
        servers.push(gb.server(&format!("srb{i}"), site));
    }
    gb.default_link(LinkSpec::wan());
    let names: Vec<String> = (0..k).map(|i| format!("fs{i}")).collect();
    for (i, srv) in servers.iter().enumerate() {
        gb.fs_resource(&names[i], *srv);
    }
    let member_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    gb.logical_resource("fanout", &member_refs);
    let grid = gb.build();
    ok(grid.register_user("bench", "sdsc", "pw"));
    let mut conn = ok(SrbConnection::connect(
        &grid, servers[0], "bench", "sdsc", "pw",
    ));
    conn.set_fanout_mode(mode);
    ok(conn.ingest(
        "/home/bench/sync.bin",
        payload.clone(),
        IngestOptions::to_resource("fanout"),
    ))
    .sim_ms()
}

/// Measure every fan-out width 1..=4 under both modes plus the
/// asynchronous alternative.
pub(crate) fn measure() -> Vec<SyncRow> {
    let payload = Bytes::from(vec![3u8; 1 << 20]);
    (1..=4usize)
        .map(|k| {
            let sync_seq_ms = sync_ingest_ms(k, &payload, FanoutMode::Sequential);
            let sync_par_ms = sync_ingest_ms(k, &payload, FanoutMode::Parallel);

            // Asynchronous: ingest one copy, replicate k-1 times after.
            let mut gb = GridBuilder::new();
            let mut servers = Vec::new();
            for i in 0..k {
                let site = gb.site(&format!("site{i}"));
                servers.push(gb.server(&format!("srb{i}"), site));
            }
            gb.default_link(LinkSpec::wan());
            let names: Vec<String> = (0..k).map(|i| format!("fs{i}")).collect();
            for (i, srv) in servers.iter().enumerate() {
                gb.fs_resource(&names[i], *srv);
            }
            let grid = gb.build();
            ok(grid.register_user("bench", "sdsc", "pw"));
            let conn = ok(SrbConnection::connect(
                &grid, servers[0], "bench", "sdsc", "pw",
            ));
            let r_first = ok(conn.ingest(
                "/home/bench/async.bin",
                payload.clone(),
                IngestOptions::to_resource("fs0"),
            ));
            let mut async_total = r_first.clone();
            for name in names.iter().skip(1) {
                let r = ok(conn.replicate("/home/bench/async.bin", name));
                async_total.absorb(&r);
            }
            let exposure_ns = async_total.sim_ns - r_first.sim_ns;
            SyncRow {
                k,
                sync_seq_ms,
                sync_par_ms,
                async_first_ms: r_first.sim_ms(),
                async_total_ms: async_total.sim_ms(),
                exposure_ms: exposure_ns as f64 / 1e6,
            }
        })
        .collect()
}

pub fn run() -> Table {
    let mut table = Table::new(
        "E7: synchronous replication, parallel vs sequential fan-out, vs async (A4)",
        &[
            "fan-out",
            "sync seq ms",
            "sync par ms",
            "sync speedup",
            "async ingest ms",
            "async total ms",
            "exposure ms",
        ],
    );
    for r in measure() {
        table.row(vec![
            r.k.to_string(),
            format!("{:.1}", r.sync_seq_ms),
            format!("{:.1}", r.sync_par_ms),
            format!("{:.2}x", r.sync_seq_ms / r.sync_par_ms.max(1e-9)),
            format!("{:.1}", r.async_first_ms),
            format!("{:.1}", r.async_total_ms),
            format!("{:.1}", r.exposure_ms),
        ]);
    }
    table
}

/// Machine-checkable artifact for `cargo xtask benchcheck`.
pub(crate) fn run_json() -> serde_json::Value {
    let rows: Vec<serde_json::Value> = measure()
        .iter()
        .map(|r| {
            json!({
                "k": r.k,
                "sync_seq_ms": r.sync_seq_ms,
                "sync_par_ms": r.sync_par_ms,
                "sync_speedup": r.sync_seq_ms / r.sync_par_ms.max(1e-9),
                "async_first_ms": r.async_first_ms,
                "async_total_ms": r.async_total_ms,
                "exposure_ms": r.exposure_ms,
            })
        })
        .collect();
    json!({
        "experiment": "e7_sync_repl",
        "before_engine": "sequential_fanout",
        "after_engine": "parallel_fanout",
        "rows": rows,
    })
}
