//! Locks, pins, and checkout/checkin versioning (paper §5).

mod common;

use common::{connect, grid};
use srb_core::IngestOptions;
use srb_mcat::LockKind;
use srb_types::{Permission, SrbError};

fn setup<'g>(f: &'g common::Fixture) -> (srb_core::SrbConnection<'g>, srb_core::SrbConnection<'g>) {
    let sekar = connect(f, "sekar");
    let mwan = connect(f, "mwan");
    sekar
        .ingest(
            "/home/sekar/shared",
            b"v1",
            IngestOptions::to_resource("unix-sdsc"),
        )
        .unwrap();
    sekar
        .grant("/home/sekar/shared", mwan.user(), Permission::Write)
        .unwrap();
    (sekar, mwan)
}

#[test]
fn shared_lock_blocks_other_writers_not_readers() {
    let f = grid();
    let (sekar, mwan) = setup(&f);
    sekar
        .lock("/home/sekar/shared", LockKind::Shared, 3600)
        .unwrap();
    // mwan may read but not write.
    assert_eq!(&mwan.read("/home/sekar/shared").unwrap().0[..], b"v1");
    assert!(matches!(
        mwan.write("/home/sekar/shared", b"x"),
        Err(SrbError::Locked(_))
    ));
    // The holder may write.
    sekar.write("/home/sekar/shared", b"v2").unwrap();
    // mwan cannot steal the lock.
    assert!(mwan
        .lock("/home/sekar/shared", LockKind::Exclusive, 10)
        .is_err());
    sekar.unlock("/home/sekar/shared").unwrap();
    mwan.write("/home/sekar/shared", b"v3").unwrap();
}

#[test]
fn exclusive_lock_blocks_reads_too() {
    let f = grid();
    let (sekar, mwan) = setup(&f);
    sekar
        .lock("/home/sekar/shared", LockKind::Exclusive, 3600)
        .unwrap();
    assert!(matches!(
        mwan.read("/home/sekar/shared"),
        Err(SrbError::Locked(_))
    ));
    assert_eq!(&sekar.read("/home/sekar/shared").unwrap().0[..], b"v1");
}

#[test]
fn locks_expire_with_virtual_time() {
    let f = grid();
    let (sekar, mwan) = setup(&f);
    sekar
        .lock("/home/sekar/shared", LockKind::Exclusive, 60)
        .unwrap();
    assert!(mwan.read("/home/sekar/shared").is_err());
    f.grid.clock.advance(61 * 1_000_000_000);
    assert_eq!(&mwan.read("/home/sekar/shared").unwrap().0[..], b"v1");
    mwan.write("/home/sekar/shared", b"after expiry").unwrap();
}

#[test]
fn unlock_requires_holder() {
    let f = grid();
    let (sekar, mwan) = setup(&f);
    sekar
        .lock("/home/sekar/shared", LockKind::Shared, 3600)
        .unwrap();
    assert!(matches!(
        mwan.unlock("/home/sekar/shared"),
        Err(SrbError::Locked(_))
    ));
    sekar.unlock("/home/sekar/shared").unwrap();
}

#[test]
fn pin_protects_cache_replica_from_purge() {
    let f = grid();
    let conn = connect(&f, "sekar");
    // cache-sdsc holds 64 KiB.
    conn.ingest(
        "/home/sekar/pinned",
        vec![1u8; 40 * 1024],
        IngestOptions::to_resource("cache-sdsc"),
    )
    .unwrap();
    conn.pin("/home/sekar/pinned", 1, 3600).unwrap();
    // Ingesting more than fits would evict the LRU entry — but it's pinned,
    // so the cache refuses the newcomer instead.
    let err = conn
        .ingest(
            "/home/sekar/big",
            vec![2u8; 40 * 1024],
            IngestOptions::to_resource("cache-sdsc"),
        )
        .unwrap_err();
    assert!(matches!(err, SrbError::ResourceUnavailable(_)));
    assert_eq!(conn.read("/home/sekar/pinned").unwrap().0.len(), 40 * 1024);
    // After unpinning, the newcomer evicts it.
    conn.unpin("/home/sekar/pinned", 1).unwrap();
    conn.ingest(
        "/home/sekar/big2",
        vec![3u8; 40 * 1024],
        IngestOptions::to_resource("cache-sdsc"),
    )
    .unwrap();
    assert!(conn.read("/home/sekar/pinned").is_err());
}

#[test]
fn pin_expiry_is_honoured() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/p",
        vec![1u8; 40 * 1024],
        IngestOptions::to_resource("cache-sdsc"),
    )
    .unwrap();
    conn.pin("/home/sekar/p", 1, 60).unwrap();
    f.grid.clock.advance(61 * 1_000_000_000);
    // Pin expired: eviction proceeds.
    conn.ingest(
        "/home/sekar/q",
        vec![2u8; 40 * 1024],
        IngestOptions::to_resource("cache-sdsc"),
    )
    .unwrap();
    assert!(conn.read("/home/sekar/p").is_err());
}

#[test]
fn checkout_checkin_preserves_versions() {
    let f = grid();
    let (sekar, mwan) = setup(&f);
    sekar.checkout("/home/sekar/shared").unwrap();
    // Nobody else can change it while checked out.
    assert!(matches!(
        mwan.write("/home/sekar/shared", b"x"),
        Err(SrbError::Locked(_))
    ));
    // Double checkout fails.
    assert!(mwan.checkout("/home/sekar/shared").is_err());
    sekar.checkin("/home/sekar/shared", b"v2 content").unwrap();
    // Current content is new; version 1 is preserved.
    assert_eq!(
        &sekar.read("/home/sekar/shared").unwrap().0[..],
        b"v2 content"
    );
    let versions = sekar.versions("/home/sekar/shared").unwrap();
    assert_eq!(versions.len(), 1);
    assert_eq!(versions[0].0, 1);
    let (old, _) = sekar.read_version("/home/sekar/shared", 1).unwrap();
    assert_eq!(&old[..], b"v1");
    // A second cycle gives version 2.
    sekar.checkout("/home/sekar/shared").unwrap();
    sekar.checkin("/home/sekar/shared", b"v3").unwrap();
    let versions = sekar.versions("/home/sekar/shared").unwrap();
    assert_eq!(versions.len(), 2);
    let (v2, _) = sekar.read_version("/home/sekar/shared", 2).unwrap();
    assert_eq!(&v2[..], b"v2 content");
    let (_, _, _, cur) = sekar.stat("/home/sekar/shared").unwrap();
    assert_eq!(cur, 3);
}

#[test]
fn checkin_without_checkout_rejected() {
    let f = grid();
    let (sekar, mwan) = setup(&f);
    assert!(matches!(
        sekar.checkin("/home/sekar/shared", b"x"),
        Err(SrbError::Invalid(_))
    ));
    // Checkin by a non-holder is refused.
    sekar.checkout("/home/sekar/shared").unwrap();
    assert!(matches!(
        mwan.checkin("/home/sekar/shared", b"x"),
        Err(SrbError::Locked(_))
    ));
}

#[test]
fn read_missing_version_fails() {
    let f = grid();
    let (sekar, _) = setup(&f);
    assert!(matches!(
        sekar.read_version("/home/sekar/shared", 7),
        Err(SrbError::NotFound(_))
    ));
}

#[test]
fn read_version_refuses_a_copy_of_the_wrong_size() {
    let f = grid();
    let (sekar, _) = setup(&f);
    sekar.checkout("/home/sekar/shared").unwrap();
    sekar.checkin("/home/sekar/shared", b"v2").unwrap();
    let ds = f.grid.mcat.datasets.dump();
    let ds = ds.iter().find(|d| d.name == "shared").unwrap();
    let v1 = &ds.versions[0];
    let driver = f.grid.driver(v1.resource).unwrap();
    driver
        .driver()
        .write(&v1.phys_path, b"tampered-longer")
        .unwrap();
    assert!(matches!(
        sekar.read_version("/home/sekar/shared", 1),
        Err(SrbError::Corrupt(_))
    ));
}
