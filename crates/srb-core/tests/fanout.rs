//! Parallel replica fan-out: fault injection, partial-failure commit
//! semantics, and the bulk-ingest pipeline.

use bytes::Bytes;
use srb_core::{FanoutMode, Grid, GridBuilder, IngestOptions, SrbConnection};
use srb_mcat::{AccessSpec, Replica, ReplicaStatus};
use srb_types::{ResourceId, ServerId, SrbError, Triplet};

/// One site, one server, three file-system resources behind a
/// three-member logical resource, plus a standalone target.
struct Fixture {
    grid: Grid,
    srv: ServerId,
}

fn grid3() -> Fixture {
    let mut gb = GridBuilder::new();
    let site = gb.site("lab");
    let srv = gb.server("srb-lab", site);
    gb.fs_resource("fs1", srv)
        .fs_resource("fs2", srv)
        .fs_resource("fs3", srv)
        .fs_resource("extra", srv)
        .logical_resource("log3", &["fs1", "fs2", "fs3"]);
    let grid = gb.build();
    grid.register_user("u", "lab", "pw").unwrap();
    Fixture { grid, srv }
}

fn connect(f: &Fixture) -> SrbConnection<'_> {
    SrbConnection::connect(&f.grid, f.srv, "u", "lab", "pw").unwrap()
}

fn replicas(f: &Fixture, name: &str) -> Vec<Replica> {
    f.grid
        .mcat
        .datasets
        .dump()
        .into_iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("dataset '{name}' not in catalog"))
        .replicas
}

fn status_on(reps: &[Replica], rid: ResourceId) -> ReplicaStatus {
    reps.iter()
        .find(|r| r.spec.resource() == Some(rid))
        .unwrap_or_else(|| panic!("no replica on {rid:?}"))
        .status
}

/// Satellite 2: a three-replica logical ingest with one member down
/// succeeds, marks exactly that replica stale, and `sync_replicas`
/// repairs it once the resource is back.
#[test]
fn ingest_with_member_down_marks_exactly_that_replica_stale_then_sync_repairs() {
    let f = grid3();
    let conn = connect(&f);
    assert_eq!(conn.fanout_mode(), FanoutMode::Parallel);
    let fs2 = f.grid.resource_id("fs2").unwrap();

    f.grid.fail_resource("fs2").unwrap();
    conn.ingest("/home/u/f", b"payload", IngestOptions::to_resource("log3"))
        .unwrap();

    let reps = replicas(&f, "f");
    assert_eq!(reps.len(), 3);
    for r in &reps {
        if r.spec.resource() == Some(fs2) {
            assert_eq!(r.status, ReplicaStatus::Stale);
            assert!(r.checksum.is_none());
        } else {
            assert_eq!(r.status, ReplicaStatus::UpToDate);
            assert!(r.checksum.is_some());
        }
        // Even the stale row records the intended length.
        assert_eq!(r.size, 7);
    }
    let (data, _) = conn.read("/home/u/f").unwrap();
    assert_eq!(&data[..], b"payload");

    f.grid.restore_resource("fs2").unwrap();
    let (repaired, _) = conn.sync_replicas("/home/u/f").unwrap();
    assert_eq!(repaired, 1);
    assert!(replicas(&f, "f")
        .iter()
        .all(|r| r.status == ReplicaStatus::UpToDate && r.checksum.is_some()));

    // The repaired copy really holds the bytes: knock out the others.
    f.grid.fail_resource("fs1").unwrap();
    f.grid.fail_resource("fs3").unwrap();
    let (data, _) = conn.read("/home/u/f").unwrap();
    assert_eq!(&data[..], b"payload");
}

/// Same fault-injection path under the sequential ablation, exercising a
/// write instead of an ingest.
#[test]
fn write_with_member_down_marks_stale_then_sync_repairs_sequential_mode() {
    let f = grid3();
    let mut conn = connect(&f);
    conn.set_fanout_mode(FanoutMode::Sequential);
    let fs3 = f.grid.resource_id("fs3").unwrap();

    conn.ingest("/home/u/w", b"v1", IngestOptions::to_resource("log3"))
        .unwrap();
    f.grid.fail_resource("fs3").unwrap();
    conn.write("/home/u/w", b"v2-longer").unwrap();

    let reps = replicas(&f, "w");
    assert_eq!(status_on(&reps, fs3), ReplicaStatus::Stale);
    assert_eq!(
        reps.iter()
            .filter(|r| r.status == ReplicaStatus::UpToDate)
            .count(),
        2
    );

    f.grid.restore_resource("fs3").unwrap();
    let (repaired, _) = conn.sync_replicas("/home/u/w").unwrap();
    assert_eq!(repaired, 1);
    f.grid.fail_resource("fs1").unwrap();
    f.grid.fail_resource("fs2").unwrap();
    let (data, _) = conn.read("/home/u/w").unwrap();
    assert_eq!(&data[..], b"v2-longer");
}

/// Stale bytes are served only to a connection that asked for them: with
/// every fresh replica's resource down and one `Stale` replica reachable,
/// the default connection fails closed; after `set_allow_stale(true)` the
/// same read returns the stale copy, flagged on the receipt.
#[test]
fn stale_replica_is_served_only_to_a_connection_that_opted_in() {
    let f = grid3();
    let mut conn = connect(&f);
    let fs3 = f.grid.resource_id("fs3").unwrap();
    conn.ingest("/home/u/s", b"v1", IngestOptions::to_resource("log3"))
        .unwrap();
    f.grid.fail_resource("fs3").unwrap();
    conn.write("/home/u/s", b"v2").unwrap();
    f.grid.restore_resource("fs3").unwrap();
    f.grid.fail_resource("fs1").unwrap();
    f.grid.fail_resource("fs2").unwrap();
    let reps = replicas(&f, "s");
    assert_eq!(status_on(&reps, fs3), ReplicaStatus::Stale);

    assert!(!conn.allow_stale());
    let err = conn.read("/home/u/s").unwrap_err();
    assert!(err.is_retryable(), "fails closed, retryably: {err:?}");

    conn.set_allow_stale(true);
    let (data, receipt) = conn.read("/home/u/s").unwrap();
    assert_eq!(&data[..], b"v1", "the stale copy, not the missed write");
    assert!(receipt.served_stale);
    let stale = reps
        .iter()
        .find(|r| r.spec.resource() == Some(fs3))
        .unwrap();
    assert_eq!(receipt.served_by, Some(stale.id));

    // With a fresh replica back, the opted-in connection prefers it.
    f.grid.restore_resource("fs1").unwrap();
    let (data, receipt) = conn.read("/home/u/s").unwrap();
    assert_eq!(&data[..], b"v2");
    assert!(!receipt.served_stale);
}

/// Satellite 1 regression: a fatal leg error must not abandon the
/// staleness bookkeeping for replicas that *did* take the write. The
/// surviving replica is committed up-to-date (new bytes readable) and the
/// unreachable one is marked stale before the error propagates.
#[test]
fn write_commits_surviving_replicas_before_reporting_fatal_leg() {
    let f = grid3();
    let conn = connect(&f);
    conn.ingest("/home/u/g", b"old", IngestOptions::to_resource("fs1"))
        .unwrap();
    let id = f
        .grid
        .mcat
        .datasets
        .dump()
        .into_iter()
        .find(|d| d.name == "g")
        .unwrap()
        .id;
    // Graft a replica whose resource does not exist: its leg fails with a
    // non-retryable NotFound, not a mere resource-down.
    f.grid
        .mcat
        .datasets
        .add_replica(
            &f.grid.mcat.ids,
            id,
            AccessSpec::Stored {
                resource: ResourceId(9999),
                phys_path: "/nowhere/g".into(),
            },
            3,
            None,
            f.grid.clock.now(),
        )
        .unwrap();

    let err = conn.write("/home/u/g", b"new-bytes").unwrap_err();
    assert!(!err.is_retryable(), "expected a fatal error, got {err:?}");

    let fs1 = f.grid.resource_id("fs1").unwrap();
    let reps = replicas(&f, "g");
    assert_eq!(status_on(&reps, fs1), ReplicaStatus::UpToDate);
    assert_eq!(status_on(&reps, ResourceId(9999)), ReplicaStatus::Stale);
    // The committed write is visible despite the Err return.
    let (data, _) = conn.read("/home/u/g").unwrap();
    assert_eq!(&data[..], b"new-bytes");
}

/// A write that reaches no replica at all must leave the catalog
/// untouched: the old rows stay up-to-date and the old bytes readable.
#[test]
fn write_with_all_replicas_down_commits_nothing() {
    let f = grid3();
    let conn = connect(&f);
    conn.ingest("/home/u/h", b"keep", IngestOptions::to_resource("log3"))
        .unwrap();
    for r in ["fs1", "fs2", "fs3"] {
        f.grid.fail_resource(r).unwrap();
    }
    assert!(conn.write("/home/u/h", b"lost").is_err());
    assert!(replicas(&f, "h")
        .iter()
        .all(|r| r.status == ReplicaStatus::UpToDate));
    for r in ["fs1", "fs2", "fs3"] {
        f.grid.restore_resource(r).unwrap();
    }
    let (data, _) = conn.read("/home/u/h").unwrap();
    assert_eq!(&data[..], b"keep");
}

// ------------------------------------------------------------- bulk ingest --

#[test]
fn ingest_bulk_creates_batch_with_replicas_and_metadata() {
    let f = grid3();
    let conn = connect(&f);
    let files: Vec<(String, Bytes)> = (0..20)
        .map(|i| {
            (
                format!("b{i:02}"),
                Bytes::from(format!("payload-{i}").into_bytes()),
            )
        })
        .collect();
    let opts = IngestOptions::to_resource("log3")
        .with_type("ascii text")
        .with_metadata(Triplet::new("batch", "night-42", ""));
    let (ids, receipt) = conn.ingest_bulk("/home/u", files, &opts).unwrap();

    assert_eq!(ids.len(), 20);
    assert!(
        ids.windows(2).all(|w| w[0].0 < w[1].0),
        "ids in batch order"
    );
    assert!(receipt.sim_ns > 0);
    assert!(receipt.bytes > 0);
    for i in 0..20 {
        let path = format!("/home/u/b{i:02}");
        let (data, _) = conn.read(&path).unwrap();
        assert_eq!(&data[..], format!("payload-{i}").as_bytes());
        let (ty, _, nrep, _) = conn.stat(&path).unwrap();
        assert_eq!(ty, "ascii text");
        assert_eq!(nrep, 3);
        let rows = conn.metadata(&path).unwrap();
        assert!(rows.iter().any(|m| m.triplet.name == "batch"));
    }
}

#[test]
fn ingest_bulk_rejects_duplicates_without_touching_the_catalog() {
    let f = grid3();
    let conn = connect(&f);
    conn.ingest("/home/u/dup", b"x", IngestOptions::to_resource("fs1"))
        .unwrap();
    let before = f.grid.mcat.datasets.dump().len();

    // An existing name anywhere in the batch aborts the whole batch.
    let files = vec![
        ("fresh".to_string(), Bytes::from(&b"a"[..])),
        ("dup".to_string(), Bytes::from(&b"b"[..])),
    ];
    let err = conn
        .ingest_bulk("/home/u", files, &IngestOptions::to_resource("fs1"))
        .unwrap_err();
    assert!(matches!(err, SrbError::AlreadyExists(_)));
    assert_eq!(f.grid.mcat.datasets.dump().len(), before);

    // So does a name repeated within the batch itself.
    let files = vec![
        ("twice".to_string(), Bytes::from(&b"a"[..])),
        ("twice".to_string(), Bytes::from(&b"b"[..])),
    ];
    let err = conn
        .ingest_bulk("/home/u", files, &IngestOptions::to_resource("fs1"))
        .unwrap_err();
    assert!(matches!(err, SrbError::AlreadyExists(_)));
    assert_eq!(f.grid.mcat.datasets.dump().len(), before);
}

#[test]
fn ingest_bulk_with_member_down_marks_stale_rows_per_file() {
    let f = grid3();
    let conn = connect(&f);
    let fs2 = f.grid.resource_id("fs2").unwrap();
    f.grid.fail_resource("fs2").unwrap();

    let files: Vec<(String, Bytes)> = (0..5)
        .map(|i| (format!("s{i}"), Bytes::from(vec![i as u8; 64])))
        .collect();
    conn.ingest_bulk("/home/u", files, &IngestOptions::to_resource("log3"))
        .unwrap();

    for i in 0..5 {
        let reps = replicas(&f, &format!("s{i}"));
        assert_eq!(reps.len(), 3);
        assert_eq!(status_on(&reps, fs2), ReplicaStatus::Stale);
        assert_eq!(
            reps.iter()
                .filter(|r| r.status == ReplicaStatus::Stale)
                .count(),
            1
        );
    }

    f.grid.restore_resource("fs2").unwrap();
    for i in 0..5 {
        let (repaired, _) = conn.sync_replicas(&format!("/home/u/s{i}")).unwrap();
        assert_eq!(repaired, 1);
    }
}

#[test]
fn ingest_bulk_into_container_is_unsupported() {
    let f = grid3();
    let conn = connect(&f);
    let err = conn
        .ingest_bulk(
            "/home/u",
            vec![("c0".to_string(), Bytes::from(&b"x"[..]))],
            &IngestOptions::into_container("ct"),
        )
        .unwrap_err();
    assert!(matches!(err, SrbError::Unsupported(_)));
}
