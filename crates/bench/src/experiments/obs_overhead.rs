//! Observability overhead guard — the metrics registry, slow-op log, and
//! span plumbing must stay out of the hot paths' way.
//!
//! Two paired, same-process workloads, each run on two identically built
//! grids: one with `GridBuilder::observability(false)`, one with the
//! default-on wiring. The E1-style point query exercises the planner
//! counters; the E6-style parallel fan-out ingest exercises the storage,
//! fan-out, and slow-op instrumentation. `cargo xtask benchcheck` gates
//! the resulting `BENCH_OBS.json` at 1.05x wall (`obs-wall-overhead`)
//! and equal simulated time to 1e-9 ms (`obs-sim-not-above`,
//! `obs-sim-not-below`): metrics must never charge the virtual clock.

use crate::fixtures::{ok, time_us};
use crate::table::Table;
use bytes::Bytes;
use serde_json::json;
use srb_core::{FanoutMode, Grid, GridBuilder, IngestOptions, SrbConnection};
use srb_mcat::Query;
use srb_types::{CompareOp, ServerId, Triplet};
use std::time::Instant;

/// One paired measurement: the same workload with observability off
/// (`base`) and on (`obs`).
pub(crate) struct OverheadRow {
    pub workload: &'static str,
    pub unit: &'static str,
    /// Wall cost with observability disabled.
    pub base: f64,
    /// Wall cost with the default-on observability wiring.
    pub obs: f64,
    /// Simulated milliseconds (0 for pure catalog workloads). The two must
    /// be equal: instrumentation never advances the virtual clock.
    pub sim_ms_base: f64,
    pub sim_ms_obs: f64,
}

fn grid(observability: bool, fan_k: usize) -> (Grid, ServerId) {
    let mut gb = GridBuilder::new();
    gb.observability(observability);
    let site = gb.site("sdsc");
    let srv = gb.server("srb", site);
    let names: Vec<String> = (0..fan_k.max(1)).map(|i| format!("fs{i}")).collect();
    for n in &names {
        gb.fs_resource(n, srv);
    }
    if fan_k > 1 {
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        gb.logical_resource("logk", &refs);
    }
    let grid = gb.build();
    ok(grid.register_user("bench", "sdsc", "pw"));
    (grid, srv)
}

/// E1-style planner point query over a `datasets`-row catalog: the two
/// twins (observability off / on) kept alive together so their timed
/// loops can be interleaved — slow host drift (thermal, frequency,
/// neighbours) then hits both sides equally.
struct PointQueryPair {
    grids: Vec<Grid>,
    probe: i64,
}

impl PointQueryPair {
    fn new(datasets: usize) -> PointQueryPair {
        let mut grids = Vec::new();
        for observability in [false, true] {
            let (grid, srv) = grid(observability, 1);
            {
                let conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
                ok(conn.make_collection("/home/bench/data"));
                for i in 0..datasets {
                    ok(conn.ingest(
                        &format!("/home/bench/data/obj{i:07}"),
                        b"x",
                        IngestOptions::to_resource("fs0")
                            .with_metadata(Triplet::new("serial", i as i64, "")),
                    ));
                }
            }
            grids.push(grid);
        }
        let probe = (datasets / 2) as i64;
        let pair = PointQueryPair { grids, probe };
        let q = pair.query();
        for g in &pair.grids {
            assert_eq!(ok(g.mcat.query(&q)).len(), 1);
            let _ = time_us(500, || {
                ok(g.mcat.query(&q));
            });
        }
        pair
    }

    fn query(&self) -> Query {
        Query::everywhere().and("serial", CompareOp::Eq, self.probe)
    }

    /// Min us/op over `trials` interleaved loops, per side. The minimum is
    /// the noise-robust estimator for a same-process A/B; the within-pair
    /// order alternates so a monotonic drift cannot systematically favour
    /// one side.
    fn best(&self, trials: usize) -> (f64, f64) {
        let q = self.query();
        let mut best = [f64::INFINITY; 2];
        for t in 0..trials {
            let order: [usize; 2] = if t % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let us = time_us(8000, || {
                    ok(self.grids[side].mcat.query(&q));
                });
                best[side] = best[side].min(us);
            }
        }
        (best[0], best[1])
    }
}

/// One E6d-style pass: `files` parallel 8-way logical ingests. Returns
/// (wall ms, simulated ms).
fn fanout_pass(observability: bool, files: usize, payload: usize) -> (f64, f64) {
    let (grid, srv) = grid(observability, 8);
    let mut conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
    conn.set_fanout_mode(FanoutMode::Parallel);
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

/// Best-of-`trials` fan-out passes on both twins, alternated like
/// `point_query_pair`, after one warm-up pass each (allocator high-water
/// mark, thread-pool spin-up). Returns ((base wall, base sim), (obs wall,
/// obs sim)).
fn fanout_pair(files: usize, payload: usize, trials: usize) -> ((f64, f64), (f64, f64)) {
    let _ = fanout_pass(false, files, payload);
    let _ = fanout_pass(true, files, payload);
    let mut best = [(f64::INFINITY, 0.0); 2];
    for _ in 0..trials {
        for (side, observability) in [false, true].into_iter().enumerate() {
            let (wall, sim) = fanout_pass(observability, files, payload);
            if wall < best[side].0 {
                best[side] = (wall, sim);
            }
        }
    }
    (best[0], best[1])
}

/// Both paired workloads. `datasets` sizes the point-query catalog,
/// `files` the fan-out ingest batch.
pub(crate) fn measure(datasets: usize, files: usize) -> Vec<OverheadRow> {
    // Two temporally separated point-query blocks with the fan-out
    // measurement between them: a burst of machine-wide interference that
    // inflates one whole block cannot inflate both, and the min spans
    // them.
    let pq = PointQueryPair::new(datasets);
    let (a_base, a_obs) = pq.best(8);
    let ((f_base_wall, f_base_sim), (f_obs_wall, f_obs_sim)) = fanout_pair(files, 1 << 20, 3);
    let (b_base, b_obs) = pq.best(8);
    let (q_base, q_obs) = (a_base.min(b_base), a_obs.min(b_obs));
    vec![
        OverheadRow {
            workload: "e1_point_query",
            unit: "us_per_op",
            base: q_base,
            obs: q_obs,
            sim_ms_base: 0.0,
            sim_ms_obs: 0.0,
        },
        OverheadRow {
            workload: "e6_fanout_ingest",
            unit: "wall_ms",
            base: f_base_wall,
            obs: f_obs_wall,
            sim_ms_base: f_base_sim,
            sim_ms_obs: f_obs_sim,
        },
    ]
}

/// Human-readable table.
pub fn run(datasets: usize, files: usize) -> Table {
    let mut table = Table::new(
        "OBS: observability overhead (identical workload, obs off vs on)",
        &["workload", "unit", "obs off", "obs on", "overhead"],
    );
    for r in measure(datasets, files) {
        table.row(vec![
            r.workload.to_string(),
            r.unit.to_string(),
            format!("{:.2}", r.base),
            format!("{:.2}", r.obs),
            format!("{:+.1}%", (r.obs / r.base.max(1e-9) - 1.0) * 100.0),
        ]);
    }
    table
}

/// Machine-checkable artifact for `cargo xtask benchcheck` (the `obs-*`
/// gates).
pub(crate) fn run_json(datasets: usize, files: usize) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = measure(datasets, files)
        .iter()
        .map(|r| {
            json!({
                "workload": r.workload,
                "unit": r.unit,
                "base": r.base,
                "obs": r.obs,
                "overhead": r.obs / r.base.max(1e-9),
                "sim_ms_base": r.sim_ms_base,
                "sim_ms_obs": r.sim_ms_obs,
            })
        })
        .collect();
    json!({
        "experiment": "obs_overhead",
        "gate": 1.05,
        "datasets": datasets,
        "files": files,
        "rows": rows,
    })
}
