//! Recovery — the durability tentpole's numbers: what the WAL costs while
//! the catalog runs, and what redo recovery costs after a crash, across
//! decades of catalog size (10^3 up to `max`; raise `SRB_RECOVERY_MAX` to
//! 1_000_000 for the full paper-scale sweep).
//!
//! Each size runs twice over the identical workload: an in-memory
//! baseline and a WAL-enabled twin (one commit group per ingest — the
//! dataset row and its metadata row — and one checkpoint at 90% of the
//! load so recovery replays a real tail). The
//! WAL twin then crashes and recovers, and the recovered catalog must be
//! byte-identical to the pre-crash snapshot — the row is only reported if
//! it is.

use crate::fixtures::ok;
use crate::table::Table;
use serde_json::json;
use srb_mcat::{AccessSpec, Mcat, MetaKind, Subject, WalConfig};
use srb_storage::LogDevice;
use srb_types::{ResourceId, SimClock, Triplet};
use std::sync::Arc;
use std::time::Instant;

const NO_CKPT: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};

/// One size's measurements.
pub struct Row {
    /// Catalog size (datasets; each carries one metadata row).
    pub datasets: usize,
    /// Per-ingest wall time without a WAL.
    pub base_ingest_us: f64,
    /// Per-ingest wall time with the WAL committing each one.
    pub wal_ingest_us: f64,
    /// Simulated durability cost per ingest (two appends, one fsync).
    pub wal_sim_ns_per_op: f64,
    /// Datasets ingested after the checkpoint — the replayed tail.
    pub tail_datasets: usize,
    /// Durable records on the device at crash time (tail past the
    /// checkpoint only — the checkpoint pruned the covered prefix).
    pub tail_records: usize,
    /// Wall time of read-back + replay + restore.
    pub recovery_wall_ms: f64,
    /// Simulated recovery cost from the report.
    pub recovery_sim_ms: f64,
    /// Commit groups the replay applied over the checkpoint.
    pub groups_applied: usize,
    /// Recovered catalog byte-identical to the pre-crash snapshot.
    pub identical: bool,
}

/// Load `n` datasets (one metadata triplet each) into a fresh catalog,
/// WAL-enabled or not, and return the catalog plus per-op wall time and
/// pooled simulated durability cost. The WAL twin checkpoints once at 90%
/// so recovery replays a genuine tail, as a live deployment would.
fn load(n: usize, wal: bool) -> (Mcat, Option<Arc<LogDevice>>, f64, u64) {
    let clock = SimClock::new();
    let m = Mcat::new(clock.clone(), "pw");
    let device = if wal {
        let d = Arc::new(LogDevice::new());
        ok(m.enable_wal(d.clone(), NO_CKPT, None));
        Some(d)
    } else {
        None
    };
    let root = m.collections.root();
    let admin = m.admin();
    let ckpt_at = n * 9 / 10;
    let t0 = Instant::now();
    for i in 0..n {
        clock.advance(1_000);
        let d = ok(m.datasets.create(
            &m.ids,
            root,
            &format!("obj{i:07}"),
            "generic",
            admin,
            vec![(
                AccessSpec::Stored {
                    resource: ResourceId(1),
                    phys_path: format!("/p/{i}"),
                },
                512,
                None,
            )],
            clock.now(),
        ));
        m.metadata.add(
            &m.ids,
            Subject::Dataset(d),
            Triplet::new("serial", i as i64, ""),
            MetaKind::UserDefined,
        );
        m.commit(); // tables only log; the ingest is the commit group
        if wal && i == ckpt_at {
            ok(m.checkpoint_now());
        }
    }
    let us_per_op = t0.elapsed().as_micros() as f64 / n.max(1) as f64;
    let sim_ns = m.wal().map(|w| w.take_pending_ns()).unwrap_or(0);
    (m, device, us_per_op, sim_ns)
}

fn measure(max: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut n = 1_000usize;
    while n <= max {
        let (_base, _, base_ingest_us, _) = load(n, false);
        let (m, device, wal_ingest_us, sim_ns) = load(n, true);
        let device = match device {
            Some(d) => d,
            None => unreachable!("wal twin always has a device"),
        };
        let reference = ok(m.snapshot_json());
        drop(m);
        device.crash();
        let (_, _, tail_records) = device.stats();

        let t0 = Instant::now();
        let (rec, report) = ok(Mcat::recover(SimClock::new(), device, NO_CKPT, None));
        let recovery_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let identical = ok(rec.snapshot_json()) == reference;

        rows.push(Row {
            datasets: n,
            base_ingest_us,
            wal_ingest_us,
            wal_sim_ns_per_op: sim_ns as f64 / n.max(1) as f64,
            tail_datasets: n - n * 9 / 10 - 1,
            tail_records,
            recovery_wall_ms,
            recovery_sim_ms: report.recovery_ns as f64 / 1e6,
            groups_applied: report.groups_applied,
            identical,
        });
        n *= 10;
    }
    rows
}

/// Human-readable table, sizes 10^3..=`max`.
pub fn run(max: usize) -> Table {
    let mut table = Table::new(
        "Recovery: WAL overhead and crash-recovery cost vs catalog size",
        &[
            "datasets",
            "ingest us (base)",
            "ingest us (wal)",
            "wal sim ns/op",
            "tail records",
            "recover wall ms",
            "recover sim ms",
            "identical",
        ],
    );
    for r in measure(max) {
        table.row(vec![
            r.datasets.to_string(),
            format!("{:.1}", r.base_ingest_us),
            format!("{:.1}", r.wal_ingest_us),
            format!("{:.0}", r.wal_sim_ns_per_op),
            r.tail_records.to_string(),
            format!("{:.1}", r.recovery_wall_ms),
            format!("{:.2}", r.recovery_sim_ms),
            r.identical.to_string(),
        ]);
    }
    table
}

/// Machine-readable rows for `BENCH_RECOVERY.json` (`--json` mode of the
/// `exp recovery` binary), gated by `cargo xtask benchcheck`.
pub fn run_json(max: usize) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = measure(max)
        .iter()
        .map(|r| {
            json!({
                "datasets": r.datasets,
                "base_ingest_us": r.base_ingest_us,
                "wal_ingest_us": r.wal_ingest_us,
                "wal_sim_ns_per_op": r.wal_sim_ns_per_op,
                "tail_datasets": r.tail_datasets,
                "tail_records": r.tail_records,
                "recovery_wall_ms": r.recovery_wall_ms,
                "recovery_sim_ms": r.recovery_sim_ms,
                "groups_applied": r.groups_applied,
                "identical": r.identical,
            })
        })
        .collect();
    json!({ "experiment": "recovery", "rows": rows })
}
