//! Grid-level durability: a WAL-enabled deployment crashes, a fresh
//! same-topology grid recovers the catalog from the log device, and
//! acknowledged work survives, short text at the inline boundary too.

mod common;

use srb_core::ops_write::IngestOptions;
use srb_core::{GridBuilder, SrbConnection};
use srb_mcat::{Mcat, Query, Subject, WalConfig};
use srb_obs::metric;
use srb_storage::LogDevice;
use srb_types::{CompareOp, LogicalPath, SrbError, Triplet};
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
    assert!(snap.counter(metric!("wal.appends"), "") > 0);
    assert!(snap.counter(metric!("wal.group_commits"), "") > 0);
    assert!(snap.counter(metric!("wal.checkpoints"), "") > 0);
}

/// `durable_ingest` in miniature: two writers ingest the way that
/// workload does — one fs resource, a 7-byte payload, a `serial` and a
/// `kind` triplet, 1.2 virtual ms per ingest — through at least three
/// periodic checkpoints; then a power cut, and `Mcat::recover` beside the
/// live grid. The recovered catalog is the live one: the same summary and
/// image, every acknowledged path resolving and found by its `serial`,
/// and the same audit trail.
#[test]
fn two_writers_through_checkpoints_recover_every_acknowledged_ingest() {
    const WRITERS: usize = 2;
    const PER_WRITER: u64 = 1_500;
    const CLOCK_NS_PER_OP: u64 = 1_200_000;
    const DATA: &str = "/home/bench/data";
    const KINDS: [&str; 3] = ["image", "text", "movie"];
    // 3 000 ingests are 3.6 virtual seconds: a checkpoint each 0.9 s.
    let config = WalConfig {
        checkpoint_interval_ns: 900_000_000,
    };
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb-sdsc", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    let device = Arc::new(LogDevice::new());
    grid.enable_durability(device.clone(), config).unwrap();
    grid.register_user("bench", "sdsc", "pw").unwrap();
    let connect = || SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw").unwrap();
    connect().make_collection(DATA).unwrap();
    let serial = |c: usize, i: u64| c as i64 * 100_000_000 + i as i64;
    let path = |c: usize, i: u64| format!("{DATA}/w{c}-{i:08}");
    std::thread::scope(|s| {
        for c in 0..WRITERS {
            let (grid, connect) = (&grid, &connect);
            s.spawn(move || {
                let conn = connect();
                for i in 0..PER_WRITER {
                    grid.clock.advance(CLOCK_NS_PER_OP);
                    let options = IngestOptions::to_resource("fs")
                        .with_metadata(Triplet::new("serial", serial(c, i), ""))
                        .with_metadata(Triplet::new("kind", KINDS[i as usize % 3], ""));
                    conn.ingest(&path(c, i), &b"payload"[..], options).unwrap();
                }
            });
        }
    });
    let checkpoints = grid
        .metrics_snapshot()
        .counter(metric!("wal.checkpoints"), "");
    assert!(
        checkpoints > 3,
        "{checkpoints} checkpoints, the first at enable"
    );

    device.crash();
    let (recovered, _) =
        Mcat::recover(grid.clock.clone(), device, WalConfig::default(), None).unwrap();
    let live = &grid.mcat;
    assert_eq!(recovered.summary(), live.summary());
    assert_eq!(
        recovered.snapshot_json().unwrap(),
        live.snapshot_json().unwrap()
    );
    for c in 0..WRITERS {
        for i in 0..PER_WRITER {
            let at = LogicalPath::parse(&path(c, i)).unwrap();
            let id = recovered.resolve_dataset(&at).unwrap();
            let q = Query::everywhere().and("serial", CompareOp::Eq, serial(c, i));
            let hits = recovered.query(&q).unwrap();
            assert!(hits.iter().any(|h| h.dataset == id), "{at}");
        }
    }
    assert_eq!(recovered.audit.count(), live.audit.count());
    let trail = |m: &Mcat| serde_json::to_string(&m.audit.dump()).unwrap();
    assert_eq!(trail(&recovered), trail(live));
}

/// Texts at the edge of what a `ShortStr` holds inline (22 bytes): 21, 22
/// and 23 bytes, and two that end in the two-byte `é`, one filling byte
/// 22 and one straddling it. Each text is `c` repeated.
fn boundary_texts(c: char) -> [String; 5] {
    let run = |n: usize| c.to_string().repeat(n);
    [
        run(21),
        run(22),
        run(23),
        format!("{}é", run(20)),
        format!("{}é", run(21)),
    ]
}

/// The row form of every dataset in `/home/sekar` and of its metadata.
fn rows(m: &Mcat) -> Vec<String> {
    let home = m.collections.resolve(&"/home/sekar".parse().unwrap());
    let mut out = Vec::new();
    for d in m.datasets.list(home.unwrap()) {
        out.push(serde_json::to_row_string(&d).unwrap());
        for row in m.metadata.for_subject(Subject::Dataset(d.id)) {
            out.push(serde_json::to_row_string(&row).unwrap());
        }
    }
    out
}

#[test]
fn text_at_the_inline_boundary_survives_every_path() {
    let f = common::grid();
    let device = Arc::new(LogDevice::new());
    f.grid.enable_durability(device.clone(), NO_CKPT).unwrap();
    let conn = common::connect(&f, "sekar");
    let texts = boundary_texts('n')
        .into_iter()
        .zip(boundary_texts('t'))
        .zip(boundary_texts('v'));
    for ((name, data_type), value) in texts {
        let options = IngestOptions::to_resource("unix-sdsc")
            .with_type(&data_type)
            .with_metadata(Triplet::new("label", value.as_str(), ""));
        conn.ingest(&format!("/home/sekar/{name}"), b"x".as_slice(), options)
            .unwrap();
    }
    let _ = conn;
    let want = (f.grid.mcat.summary(), rows(&f.grid.mcat));
    assert_eq!(want.1.len(), 10, "five datasets, one metadata row each");
    assert!(want
        .1
        .iter()
        .any(|r| r.contains(&format!("\"{}é\"", "n".repeat(21)))));
    let state = f.grid.save_state().unwrap();

    // The log alone: every row replays from its WAL line.
    device.crash();
    let mut replayed = common::grid();
    replayed
        .grid
        .recover_catalog(device.clone(), NO_CKPT)
        .unwrap();
    let m = &replayed.grid.mcat;
    assert_eq!((m.summary(), rows(m)), want, "WAL replay");
    assert_eq!(common::normalized(m), common::normalized(&f.grid.mcat));

    // The image alone: a checkpoint, then recovery with no tail.
    m.checkpoint_now().unwrap();
    device.crash();
    let mut restored = common::grid();
    restored.grid.recover_catalog(device, NO_CKPT).unwrap();
    let m = &restored.grid.mcat;
    assert_eq!((m.summary(), rows(m)), want, "checkpoint restore");

    // A saved grid state restores to the same rows and saves the same text.
    let mut from_state = common::grid();
    from_state.grid.restore_state(&state).unwrap();
    let m = &from_state.grid.mcat;
    assert_eq!((m.summary(), rows(m)), want, "restore_state");
    assert_eq!(from_state.grid.save_state().unwrap(), state);
}
