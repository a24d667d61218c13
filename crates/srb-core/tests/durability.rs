//! Grid-level durability: a WAL-enabled deployment crashes, a fresh
//! same-topology grid recovers the catalog from the log device, and
//! acknowledged work survives.

mod common;

use srb_core::ops_write::IngestOptions;
use srb_core::SrbConnection;
use srb_mcat::WalConfig;
use srb_storage::LogDevice;
use srb_types::{SrbError, Triplet};
use std::sync::Arc;

const NO_CKPT: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};

#[test]
fn crashed_grid_recovers_acknowledged_catalog() {
    let f = common::grid();
    let device = Arc::new(LogDevice::new());
    f.grid.enable_durability(device.clone(), NO_CKPT).unwrap();
    // Enabling twice is rejected.
    assert!(matches!(
        f.grid.enable_durability(device.clone(), NO_CKPT),
        Err(SrbError::Invalid(_))
    ));

    let conn = common::connect(&f, "sekar");
    let r = conn
        .ingest(
            "/home/sekar/a.txt",
            b"alpha".as_slice(),
            IngestOptions::to_resource("unix-sdsc")
                .with_metadata(Triplet::new("project", "dgrid", "")),
        )
        .unwrap();
    assert!(r.sim_ns > 0, "receipts carry durability + transfer cost");
    conn.ingest(
        "/home/sekar/b.txt",
        b"bravo".as_slice(),
        IngestOptions::to_resource("unix-ncsa"),
    )
    .unwrap();
    conn.replicate("/home/sekar/a.txt", "hpss-caltech").unwrap();
    let reference = f.grid.mcat.snapshot_json().unwrap();
    let _ = conn;

    // kill -9: the buffered (never-synced) tail is lost; every op above
    // was acknowledged, so everything survives.
    device.crash();

    // Fresh same-topology grid; only the catalog comes back from the log.
    let mut f2 = common::grid();
    let report = f2.grid.recover_catalog(device, NO_CKPT).unwrap();
    assert!(report.groups_applied > 0);
    assert_eq!(f2.grid.mcat.snapshot_json().unwrap(), reference);

    // Recovered users can sign on; catalog rows are all there even though
    // the physical bytes are not (the WAL does not carry data).
    let conn2 = SrbConnection::connect(&f2.grid, f2.sdsc, "sekar", "sdsc", "pw-sekar").unwrap();
    assert_eq!(conn2.metadata("/home/sekar/a.txt").unwrap().len(), 1);
    assert_eq!(
        conn2.stat("/home/sekar/a.txt").unwrap().2,
        2,
        "both replicas survive"
    );
    // The recovered grid keeps logging: new work is durable too.
    conn2
        .ingest(
            "/home/sekar/c.txt",
            b"charlie".as_slice(),
            IngestOptions::to_resource("unix-sdsc"),
        )
        .unwrap();
    assert_eq!(&conn2.read("/home/sekar/c.txt").unwrap().0[..], b"charlie");
}

#[test]
fn topology_mismatch_rejects_recovery() {
    let f = common::grid();
    let device = Arc::new(LogDevice::new());
    f.grid.enable_durability(device.clone(), NO_CKPT).unwrap();
    let mut gb = srb_core::GridBuilder::new();
    let site = gb.site("elsewhere");
    let srv = gb.server("srb", site);
    gb.fs_resource("other-name", srv);
    let mut wrong = gb.build();
    let err = wrong.recover_catalog(device, NO_CKPT).unwrap_err();
    assert!(err.to_string().contains("lacks resource"));
}

#[test]
fn checkpoints_ride_the_op_epilogue() {
    let f = common::grid();
    let device = Arc::new(LogDevice::new());
    f.grid
        .enable_durability(
            device.clone(),
            WalConfig {
                checkpoint_interval_ns: 1_000_000,
            },
        )
        .unwrap();
    let conn = common::connect(&f, "sekar");
    for i in 0..5 {
        conn.ingest(
            &format!("/home/sekar/f{i}.txt"),
            b"data".as_slice(),
            IngestOptions::to_resource("unix-sdsc"),
        )
        .unwrap();
    }
    assert!(
        device.checkpoint_lsn().is_some(),
        "ingest epilogues must have triggered a periodic checkpoint"
    );
    let snap = f.grid.metrics_snapshot();
    assert!(snap.counter("wal.appends", "") > 0);
    assert!(snap.counter("wal.group_commits", "") > 0);
    assert!(snap.counter("wal.checkpoints", "") > 0);
}
