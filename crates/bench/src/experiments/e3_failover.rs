//! E3 — fault tolerance: "automatically redirecting access to a replica on
//! a separate storage system when the first storage system is unavailable"
//! (§3).
//!
//! Part 1 (`run`): the classic hard-failover table — for k = 1..4
//! replicas, read the dataset while 0..k resources are cleanly down.
//! Part 2 (`run_flaky` / `run_json`): the health-engine ablation — every
//! replica is *flaky* (seeded `FailWithProb`, p = 0.3 transient timeouts)
//! and we compare the resilient stack (per-resource circuit breakers +
//! retry with exponential backoff) against the ablated one (breakers
//! disabled, single attempt per replica). With k >= 2 the resilient stack
//! must keep read success >= 99% while the ablation visibly loses reads;
//! the `sim_ms_healthy` column bounds what resilience costs in simulated
//! time against a fault-free run.

use crate::fixtures::ok;
use crate::table::Table;
use serde_json::json;
use srb_core::{BreakerConfig, Grid, GridBuilder, IngestOptions, RetryBudget, SrbConnection};
use srb_net::LinkSpec;
use srb_types::ServerId;

/// Part 1: clean resource-down failover across a WAN mesh.
pub fn run() -> Table {
    let mut table = Table::new(
        "E3a: replica failover (read success under resource failures)",
        &[
            "replicas",
            "failed",
            "reads",
            "success",
            "avg tried",
            "avg sim ms",
        ],
    );
    for k in 1..=4usize {
        // k single-resource sites, fully meshed.
        let mut gb = GridBuilder::new();
        let mut servers = Vec::new();
        for i in 0..k {
            let site = gb.site(&format!("site{i}"));
            servers.push(gb.server(&format!("srb{i}"), site));
        }
        gb.default_link(LinkSpec::wan());
        for (i, srv) in servers.iter().enumerate() {
            gb.fs_resource(&format!("fs{i}"), *srv);
        }
        let grid = gb.build();
        ok(grid.register_user("bench", "sdsc", "pw"));
        let conn = ok(SrbConnection::connect(
            &grid, servers[0], "bench", "sdsc", "pw",
        ));
        ok(conn.ingest(
            "/home/bench/obj",
            vec![1u8; 32 << 10],
            IngestOptions::to_resource("fs0"),
        ));
        for i in 1..k {
            ok(conn.replicate("/home/bench/obj", &format!("fs{i}")));
        }
        for failed in 0..=k {
            for i in 0..failed {
                ok(grid.fail_resource(&format!("fs{i}")));
            }
            let reads = 50;
            let mut success = 0;
            let mut tried = 0u64;
            let mut sim = 0u64;
            for _ in 0..reads {
                if let Ok((_, r)) = conn.read("/home/bench/obj") {
                    success += 1;
                    tried += r.replicas_tried as u64;
                    sim += r.sim_ns;
                }
            }
            table.row(vec![
                k.to_string(),
                failed.to_string(),
                reads.to_string(),
                format!("{}%", success * 100 / reads),
                if success > 0 {
                    format!("{:.2}", tried as f64 / success as f64)
                } else {
                    "-".into()
                },
                if success > 0 {
                    format!("{:.2}", sim as f64 / success as f64 / 1e6)
                } else {
                    "-".into()
                },
            ]);
            for i in 0..failed {
                ok(grid.restore_resource(&format!("fs{i}")));
            }
        }
    }
    table
}

// ---------------------------------------------------- flaky-fault ablation --

/// Transient-timeout probability per storage access in the flaky arms.
const FLAKY_P: f64 = 0.3;

/// Fixed simulated-time tick between reads so breaker cool-downs elapse
/// and half-open probes get their chance, identically in both arms.
const READ_TICK_NS: u64 = 25_000_000;

/// One k-replica comparison between the resilient stack and the ablation.
pub(crate) struct FlakyRow {
    /// Replica count.
    pub k: usize,
    /// Per-access transient failure probability.
    pub p: f64,
    /// Reads issued per arm.
    pub reads: usize,
    /// Successful reads with breakers + retry on.
    pub ok_on: usize,
    /// Successful reads with breakers disabled and a single attempt.
    pub ok_off: usize,
    /// Mean simulated ms per successful read, resilient arm.
    pub sim_ms_on: f64,
    /// Mean simulated ms per successful read, ablated arm.
    pub sim_ms_off: f64,
    /// Mean simulated ms per read on a fault-free grid (cost floor).
    pub sim_ms_healthy: f64,
    /// Total retry attempts charged to receipts in the resilient arm.
    pub retries_on: u64,
}

/// One site, k fs resources, the object replicated to all of them.
fn flaky_grid(k: usize, breakers: BreakerConfig) -> (Grid, ServerId) {
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb", site);
    for i in 0..k {
        gb.fs_resource(&format!("fs{i}"), srv);
    }
    gb.breaker_config(breakers);
    let grid = gb.build();
    ok(grid.register_user("bench", "sdsc", "pw"));
    (grid, srv)
}

/// Run `reads` reads of a k-replicated 32 KiB object. `flaky` installs the
/// seeded fault schedule on every replica; `resilient` selects breakers +
/// the default retry budget vs the ablation (no breakers, one attempt).
fn run_arm(k: usize, reads: usize, flaky: bool, resilient: bool) -> (usize, f64, u64) {
    let breakers = if resilient {
        BreakerConfig::default()
    } else {
        BreakerConfig::disabled()
    };
    let (grid, srv) = flaky_grid(k, breakers);
    let mut conn = ok(SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw"));
    conn.set_retry_budget(if resilient {
        RetryBudget::default()
    } else {
        RetryBudget::none()
    });
    ok(conn.ingest(
        "/home/bench/obj",
        vec![1u8; 32 << 10],
        IngestOptions::to_resource("fs0"),
    ));
    for i in 1..k {
        ok(conn.replicate("/home/bench/obj", &format!("fs{i}")));
    }
    if flaky {
        for i in 0..k {
            ok(grid.flaky_resource(&format!("fs{i}"), FLAKY_P, 0xE3 + i as u64));
        }
    }
    let mut success = 0usize;
    let mut sim = 0u64;
    let mut retries = 0u64;
    for _ in 0..reads {
        if let Ok((_, r)) = conn.read("/home/bench/obj") {
            success += 1;
            sim += r.sim_ns;
            retries += r.retries as u64;
            grid.clock.advance(r.sim_ns);
        }
        // Same virtual cadence whether the read succeeded or not.
        grid.clock.advance(READ_TICK_NS);
    }
    let mean_ms = if success > 0 {
        sim as f64 / success as f64 / 1e6
    } else {
        0.0
    };
    (success, mean_ms, retries)
}

fn flaky_rows(reads: usize) -> Vec<FlakyRow> {
    (1..=3usize)
        .map(|k| {
            let (_, sim_ms_healthy, _) = run_arm(k, reads.min(100), false, true);
            let (ok_on, sim_ms_on, retries_on) = run_arm(k, reads, true, true);
            let (ok_off, sim_ms_off, _) = run_arm(k, reads, true, false);
            FlakyRow {
                k,
                p: FLAKY_P,
                reads,
                ok_on,
                ok_off,
                sim_ms_on,
                sim_ms_off,
                sim_ms_healthy,
                retries_on,
            }
        })
        .collect()
}

/// Part 2, human-readable.
pub(crate) fn run_flaky(reads: usize) -> Table {
    let mut table = Table::new(
        "E3b: flaky replicas (p=0.3) — breakers+retry vs ablation",
        &[
            "k",
            "reads",
            "success on",
            "success off",
            "sim ms on",
            "sim ms off",
            "sim ms healthy",
            "retries",
        ],
    );
    for r in flaky_rows(reads) {
        table.row(vec![
            r.k.to_string(),
            r.reads.to_string(),
            format!("{:.2}%", r.ok_on as f64 * 100.0 / r.reads as f64),
            format!("{:.2}%", r.ok_off as f64 * 100.0 / r.reads as f64),
            format!("{:.3}", r.sim_ms_on),
            format!("{:.3}", r.sim_ms_off),
            format!("{:.3}", r.sim_ms_healthy),
            r.retries_on.to_string(),
        ]);
    }
    table
}

/// Machine-checkable artifact for `cargo xtask benchcheck`.
pub(crate) fn run_json(reads: usize) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = flaky_rows(reads)
        .iter()
        .map(|r| {
            json!({
                "k": r.k,
                "p": r.p,
                "reads": r.reads,
                "success_on_pct": r.ok_on as f64 * 100.0 / r.reads as f64,
                "success_off_pct": r.ok_off as f64 * 100.0 / r.reads as f64,
                "sim_ms_on": r.sim_ms_on,
                "sim_ms_off": r.sim_ms_off,
                "sim_ms_healthy": r.sim_ms_healthy,
                "retries_on": r.retries_on,
            })
        })
        .collect();
    json!({
        "experiment": "e3_failover",
        "fault_model": "seeded FailWithProb transient timeouts on every replica",
        "on_arm": "circuit breakers + retry with backoff",
        "off_arm": "breakers disabled, single attempt",
        "rows": rows,
    })
}
