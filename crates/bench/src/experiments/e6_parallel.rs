//! E6 — load balancing (§3), parallel throughput, and the replica
//! fan-out engine ablation.
//!
//! Part 1: wall-clock ingest+read throughput as the client pool grows
//! (shared-catalog contention is the limiter).
//! Part 2 (ablation A3): how evenly the three replica-selection policies
//! spread 3000 reads over three replicas, and the simulated makespan that
//! imbalance causes.
//! Part 4 (E6d): the fan-out engine itself — k-replica logical ingests
//! under `FanoutMode::Parallel` vs the `Sequential` ablation, in both
//! wall-clock and simulated time.
//! Part 5 (E6e): the bulk-ingest pipeline — one `ingest_bulk` call vs a
//! per-file ingest loop on a small-file workload.

use crate::fixtures::ok;
use crate::table::Table;
use bytes::Bytes;
use serde_json::json;
use srb_core::{FanoutMode, Grid, GridBuilder, IngestOptions, ReplicaPolicy, SrbConnection};
use srb_types::ServerId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Real worker threads the engine will use on this host (mirrors the
/// engine's own cap). Wall-clock comparisons are only meaningful when
/// this exceeds 1; `sim_ns` is host-independent either way.
pub fn real_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(16)
}

/// Part 1: client-pool scaling.
pub(crate) fn run_scaling() -> Table {
    let mut table = Table::new(
        "E6a: parallel client throughput (ingest+read mix, wall clock)",
        &["threads", "ops", "wall ms", "kops/s"],
    );
    for threads in [1usize, 2, 4, 8, 16] {
        let mut gb = GridBuilder::new();
        let site = gb.site("sdsc");
        let srv = gb.server("srb", site);
        gb.fs_resource("fs", srv);
        let grid = gb.build();
        ok(grid.register_user("bench", "sdsc", "pw"));
        let per_thread = 500usize;
        let done = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let grid = &grid;
                let done = &done;
                s.spawn(move || {
                    let conn = ok(SrbConnection::connect(grid, srv, "bench", "sdsc", "pw"));
                    ok(conn.make_collection(&format!("/home/bench/t{t}")));
                    for i in 0..per_thread {
                        let path = format!("/home/bench/t{t}/f{i}");
                        ok(conn.ingest(&path, b"data", IngestOptions::to_resource("fs")));
                        ok(conn.read(&path));
                        done.fetch_add(2, Ordering::Relaxed);
                    }
                });
            }
        });
        let wall = t0.elapsed();
        let ops = done.load(Ordering::Relaxed);
        table.row(vec![
            threads.to_string(),
            ops.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{:.1}", ops as f64 / wall.as_secs_f64() / 1e3),
        ]);
    }
    table
}

/// Part 2: replica-selection policy comparison (ablation A3).
pub fn run_policies() -> Table {
    let mut table = Table::new(
        "E6b: replica-selection policies over 3 replicas, 3000 reads (A3)",
        &[
            "policy",
            "r1 ops",
            "r2 ops",
            "r3 ops",
            "imbalance",
            "sim makespan ms",
        ],
    );
    for (label, policy) in [
        ("first-alive", ReplicaPolicy::FirstAlive),
        ("random", ReplicaPolicy::Random(7)),
        ("least-loaded", ReplicaPolicy::LeastLoaded),
    ] {
        let mut gb = GridBuilder::new();
        let site = gb.site("sdsc");
        let srv = gb.server("srb", site);
        gb.fs_resource("fs1", srv)
            .fs_resource("fs2", srv)
            .fs_resource("fs3", srv);
        let grid = gb.build();
        ok(grid.register_user("bench", "sdsc", "pw"));
        let mut conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
        ok(conn.ingest(
            "/home/bench/hot",
            vec![1u8; 256 << 10],
            IngestOptions::to_resource("fs1"),
        ));
        ok(conn.replicate("/home/bench/hot", "fs2"));
        ok(conn.replicate("/home/bench/hot", "fs3"));
        // Snapshot post-setup load so only the measured reads count.
        let rids: Vec<_> = (1..=3)
            .map(|i| ok(grid.resource_id(&format!("fs{i}"))))
            .collect();
        let base: Vec<u64> = rids.iter().map(|r| grid.load.completed(*r)).collect();
        let base_busy: Vec<u64> = rids.iter().map(|r| grid.load.busy_ns(*r)).collect();
        match policy {
            ReplicaPolicy::Random(_) => {
                // Vary the seed per read for a genuinely random spread.
                for i in 0..3000u64 {
                    conn.set_policy(ReplicaPolicy::Random(i));
                    ok(conn.read("/home/bench/hot"));
                }
            }
            p => {
                conn.set_policy(p);
                for _ in 0..3000 {
                    ok(conn.read("/home/bench/hot"));
                }
            }
        }
        let counts: Vec<u64> = rids
            .iter()
            .zip(&base)
            .map(|(r, b)| grid.load.completed(*r) - b)
            .collect();
        let busy: Vec<u64> = rids
            .iter()
            .zip(&base_busy)
            .map(|(r, b)| grid.load.busy_ns(*r) - b)
            .collect();
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let min = counts.iter().copied().min().unwrap_or(0) as f64;
        // Makespan: the busiest replica bounds completion when reads run
        // concurrently.
        let makespan_ms = busy.iter().copied().max().unwrap_or(0) as f64 / 1e6;
        table.row(vec![
            label.to_string(),
            counts[0].to_string(),
            counts[1].to_string(),
            counts[2].to_string(),
            if min > 0.0 {
                format!("{:.2}", max / min)
            } else {
                "inf".into()
            },
            format!("{makespan_ms:.0}"),
        ]);
    }
    table
}

/// Part 3: the same policy comparison with *heterogeneous* replicas — one
/// member is a 10x-slower disk. This is where load awareness earns its
/// keep: random keeps sending 1/3 of reads to the slow replica, while
/// least-loaded adaptively avoids it once its busy-time accumulates.
pub fn run_policies_skewed() -> Table {
    let mut table = Table::new(
        "E6c: policies with one 10x-slower replica, 3000 reads (A3 under skew)",
        &[
            "policy",
            "fast1 ops",
            "fast2 ops",
            "slow ops",
            "sim makespan ms",
        ],
    );
    for (label, policy) in [
        ("random", ReplicaPolicy::Random(7)),
        ("least-loaded", ReplicaPolicy::LeastLoaded),
    ] {
        let mut gb = GridBuilder::new();
        let site = gb.site("sdsc");
        let srv = gb.server("srb", site);
        let slow_disk = srb_storage::CostModel {
            fixed_ns: 2_000_000,
            read_mbps: 5.0,
            write_mbps: 4.0,
        };
        gb.fs_resource("fs1", srv)
            .fs_resource("fs2", srv)
            .fs_resource_with_cost("fs-slow", srv, slow_disk);
        let grid = gb.build();
        ok(grid.register_user("bench", "sdsc", "pw"));
        let mut conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
        ok(conn.ingest(
            "/home/bench/hot",
            vec![1u8; 256 << 10],
            IngestOptions::to_resource("fs1"),
        ));
        ok(conn.replicate("/home/bench/hot", "fs2"));
        ok(conn.replicate("/home/bench/hot", "fs-slow"));
        let rids: Vec<_> = ["fs1", "fs2", "fs-slow"]
            .iter()
            .map(|n| ok(grid.resource_id(n)))
            .collect();
        let base: Vec<u64> = rids.iter().map(|r| grid.load.completed(*r)).collect();
        let base_busy: Vec<u64> = rids.iter().map(|r| grid.load.busy_ns(*r)).collect();
        match policy {
            ReplicaPolicy::Random(_) => {
                for i in 0..3000u64 {
                    conn.set_policy(ReplicaPolicy::Random(i));
                    ok(conn.read("/home/bench/hot"));
                }
            }
            p => {
                conn.set_policy(p);
                for _ in 0..3000 {
                    ok(conn.read("/home/bench/hot"));
                }
            }
        }
        let counts: Vec<u64> = rids
            .iter()
            .zip(&base)
            .map(|(r, b)| grid.load.completed(*r) - b)
            .collect();
        let busy: Vec<u64> = rids
            .iter()
            .zip(&base_busy)
            .map(|(r, b)| grid.load.busy_ns(*r) - b)
            .collect();
        let makespan_ms = busy.iter().copied().max().unwrap_or(0) as f64 / 1e6;
        table.row(vec![
            label.to_string(),
            counts[0].to_string(),
            counts[1].to_string(),
            counts[2].to_string(),
            format!("{makespan_ms:.0}"),
        ]);
    }
    table
}

// ------------------------------------------------------- fan-out ablation --

/// One measured comparison: the same workload under sequential and
/// parallel fan-out.
pub(crate) struct AblationRow {
    /// Row label: "fanout" (k-replica logical ingests) or "bulk"
    /// (ingest_bulk vs a per-file loop).
    pub kind: &'static str,
    /// Replica fan-out width.
    pub k: usize,
    /// Files ingested.
    pub files: usize,
    /// Payload size per file, bytes.
    pub payload: usize,
    /// Wall-clock of the sequential baseline, ms.
    pub wall_ms_before: f64,
    /// Wall-clock of the parallel engine, ms.
    pub wall_ms_after: f64,
    /// Simulated time of the sequential baseline, ms.
    pub sim_ms_before: f64,
    /// Simulated time of the parallel engine, ms.
    pub sim_ms_after: f64,
}

fn fanout_grid(k: usize) -> (Grid, ServerId) {
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb", site);
    let names: Vec<String> = (0..k).map(|i| format!("fs{i}")).collect();
    for n in &names {
        gb.fs_resource(n, srv);
    }
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    gb.logical_resource("logk", &refs);
    let grid = gb.build();
    ok(grid.register_user("bench", "sdsc", "pw"));
    (grid, srv)
}

fn run_ingests(k: usize, files: usize, payload: usize, mode: FanoutMode) -> (f64, f64) {
    let (grid, srv) = fanout_grid(k);
    let mut conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
    conn.set_fanout_mode(mode);
    let data = Bytes::from(vec![0xF5u8; payload]);
    let mut sim_ns = 0u64;
    let t0 = Instant::now();
    for i in 0..files {
        let r = ok(conn.ingest(
            &format!("/home/bench/f{i}"),
            data.clone(),
            IngestOptions::to_resource("logk"),
        ));
        sim_ns += r.sim_ns;
    }
    (t0.elapsed().as_secs_f64() * 1e3, sim_ns as f64 / 1e6)
}

/// Part 4 (E6d): k-replica logical ingests, parallel engine vs the
/// sequential ablation. Simulated time max-composes over the engine's
/// virtual lanes, so the win there is architectural; the wall-clock win
/// depends on this host's core count (`real_workers`).
pub(crate) fn measure_fanout(files: usize) -> Vec<AblationRow> {
    let payload = 1 << 20;
    [3usize, 4, 8]
        .iter()
        .map(|&k| {
            // Warm-up pass: page in allocator arenas at this workload's
            // high-water mark so neither measured run eats the one-time
            // memory-growth cost.
            let _ = run_ingests(k, files, payload, FanoutMode::Sequential);
            let (wall_seq, sim_seq) = run_ingests(k, files, payload, FanoutMode::Sequential);
            let (wall_par, sim_par) = run_ingests(k, files, payload, FanoutMode::Parallel);
            AblationRow {
                kind: "fanout",
                k,
                files,
                payload,
                wall_ms_before: wall_seq,
                wall_ms_after: wall_par,
                sim_ms_before: sim_seq,
                sim_ms_after: sim_par,
            }
        })
        .collect()
}

/// Part 5 (E6e): a small-file workload through `ingest_bulk` (one
/// structural validation, batched catalog locks, one audit record,
/// file-level fan-out) vs the same files ingested one call at a time.
pub(crate) fn measure_bulk(files: usize) -> AblationRow {
    let payload = 1 << 10;
    let k = 3;

    // Warm-up pass (see measure_fanout): grow the allocator to the
    // workload's high-water mark before either measured run.
    {
        let (grid, srv) = fanout_grid(k);
        let conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
        let batch: Vec<(String, Bytes)> = (0..files)
            .map(|i| (format!("f{i}"), Bytes::from(vec![i as u8; payload])))
            .collect();
        ok(conn.ingest_bulk("/home/bench", batch, &IngestOptions::to_resource("logk")));
    }

    // Baseline: a per-file ingest loop.
    let (grid, srv) = fanout_grid(k);
    let conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
    let mut sim_loop = 0u64;
    let t0 = Instant::now();
    for i in 0..files {
        let r = ok(conn.ingest(
            &format!("/home/bench/f{i}"),
            vec![i as u8; payload],
            IngestOptions::to_resource("logk"),
        ));
        sim_loop += r.sim_ns;
    }
    let wall_loop = t0.elapsed().as_secs_f64() * 1e3;

    // One bulk call over the same files.
    let (grid, srv) = fanout_grid(k);
    let conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
    let batch: Vec<(String, Bytes)> = (0..files)
        .map(|i| (format!("f{i}"), Bytes::from(vec![i as u8; payload])))
        .collect();
    let t0 = Instant::now();
    let (_, r) = ok(conn.ingest_bulk("/home/bench", batch, &IngestOptions::to_resource("logk")));
    let wall_bulk = t0.elapsed().as_secs_f64() * 1e3;

    AblationRow {
        kind: "bulk",
        k,
        files,
        payload,
        wall_ms_before: wall_loop,
        wall_ms_after: wall_bulk,
        sim_ms_before: sim_loop as f64 / 1e6,
        sim_ms_after: r.sim_ns as f64 / 1e6,
    }
}

fn ablation_rows(files: usize) -> Vec<AblationRow> {
    let fan_files = (files / 400).clamp(4, 64);
    let mut rows = measure_fanout(fan_files);
    rows.push(measure_bulk(files));
    rows
}

/// Human-readable table over `ablation_rows`.
pub(crate) fn run_fanout(files: usize) -> Table {
    let mut table = Table::new(
        &format!(
            "E6d/e: fan-out engine vs sequential ablation ({} worker threads)",
            real_workers()
        ),
        &[
            "workload",
            "k",
            "files",
            "seq wall ms",
            "par wall ms",
            "seq sim ms",
            "par sim ms",
            "sim speedup",
        ],
    );
    for r in ablation_rows(files) {
        table.row(vec![
            r.kind.to_string(),
            r.k.to_string(),
            r.files.to_string(),
            format!("{:.1}", r.wall_ms_before),
            format!("{:.1}", r.wall_ms_after),
            format!("{:.1}", r.sim_ms_before),
            format!("{:.1}", r.sim_ms_after),
            format!("{:.2}x", r.sim_ms_before / r.sim_ms_after.max(1e-9)),
        ]);
    }
    table
}

/// `--metrics-json` support: one instrumented pass of the E6d fan-out
/// workload (k = 8, parallel engine), returning the grid's full metric
/// snapshot for `BENCH_E6_METRICS.json`.
pub(crate) fn metrics_json(files: usize) -> serde_json::Value {
    let fan_files = (files / 400).clamp(4, 64);
    let (grid, srv) = fanout_grid(8);
    let mut conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
    conn.set_fanout_mode(FanoutMode::Parallel);
    let data = Bytes::from(vec![0xF5u8; 1 << 20]);
    for i in 0..fan_files {
        ok(conn.ingest(
            &format!("/home/bench/f{i}"),
            data.clone(),
            IngestOptions::to_resource("logk"),
        ));
    }
    json!({
        "experiment": "e6_parallel",
        "snapshot": serde_json::to_value(&grid.metrics_snapshot()),
    })
}

/// Machine-checkable artifact for `cargo xtask benchcheck`.
pub(crate) fn run_json(files: usize) -> serde_json::Value {
    let workers = real_workers();
    let rows: Vec<serde_json::Value> = ablation_rows(files)
        .iter()
        .map(|r| {
            json!({
                "kind": r.kind,
                "k": r.k,
                "files": r.files,
                "payload_bytes": r.payload,
                "workers": workers,
                "wall_ms_before": r.wall_ms_before,
                "wall_ms_after": r.wall_ms_after,
                "sim_ms_before": r.sim_ms_before,
                "sim_ms_after": r.sim_ms_after,
                "sim_speedup": r.sim_ms_before / r.sim_ms_after.max(1e-9),
            })
        })
        .collect();
    json!({
        "experiment": "e6_parallel",
        "before_engine": "sequential_fanout",
        "after_engine": "parallel_fanout",
        "workers": workers,
        "rows": rows,
    })
}
