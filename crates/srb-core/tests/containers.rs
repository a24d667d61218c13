//! Container behaviour: aggregation, cache/archive sync, purge + recall,
//! update-in-container, and the WAN-latency advantage (E2's mechanism).

mod common;

use common::{connect, grid};
use srb_core::{FaultMode, IngestOptions};
use srb_types::SrbError;

#[test]
fn ingest_into_container_and_read_back() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.create_container("ct1", "ct-store", 1 << 20).unwrap();
    for i in 0..10 {
        conn.ingest(
            &format!("/home/sekar/small{i}"),
            format!("file number {i}").as_bytes(),
            IngestOptions::into_container("ct1"),
        )
        .unwrap();
    }
    for i in 0..10 {
        let (data, _) = conn.read(&format!("/home/sekar/small{i}")).unwrap();
        assert_eq!(&data[..], format!("file number {i}").as_bytes());
    }
    let record = f.grid.mcat.containers.find("ct1").unwrap();
    assert_eq!(record.members.len(), 10);
    assert!(!record.synced);
}

#[test]
fn container_overrides_resource_in_ingest() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.create_container("ct1", "ct-store", 1 << 20).unwrap();
    let mut opts = IngestOptions::to_resource("unix-ncsa");
    opts.container = Some("ct1".into());
    conn.ingest("/home/sekar/f", b"contained", opts).unwrap();
    // The bytes went into the container on the cache resource, not to
    // unix-ncsa.
    let ncsa = f.grid.resource_id("unix-ncsa").unwrap();
    assert_eq!(f.grid.driver(ncsa).unwrap().driver().used_bytes(), 0);
    let record = f.grid.mcat.containers.find("ct1").unwrap();
    assert_eq!(record.members.len(), 1);
}

#[test]
fn sync_then_purge_then_recall_from_archive() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.create_container("ct1", "ct-store", 1 << 20).unwrap();
    conn.ingest(
        "/home/sekar/a",
        b"alpha",
        IngestOptions::into_container("ct1"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/b",
        b"beta",
        IngestOptions::into_container("ct1"),
    )
    .unwrap();
    // Purging before sync is refused (data would be lost).
    assert!(matches!(
        conn.purge_container_cache("ct1"),
        Err(SrbError::Invalid(_))
    ));
    conn.sync_container("ct1").unwrap();
    assert!(f.grid.mcat.containers.find("ct1").unwrap().synced);
    conn.purge_container_cache("ct1").unwrap();
    // Reads still work — the container is recalled from the archive, at a
    // staging cost.
    let (data, receipt) = conn.read("/home/sekar/a").unwrap();
    assert_eq!(&data[..], b"alpha");
    assert!(
        receipt.sim_ns >= 2_000_000_000,
        "cold recall pays the staging cliff (got {} ns)",
        receipt.sim_ns
    );
    // The recall repopulated the cache: the next read is cheap again.
    let (data, receipt2) = conn.read("/home/sekar/b").unwrap();
    assert_eq!(&data[..], b"beta");
    assert!(receipt2.sim_ns < receipt.sim_ns / 10);
}

#[test]
fn container_amortizes_archive_staging_versus_per_file() {
    let f = grid();
    let conn = connect(&f, "sekar");
    let n = 20;
    let payload = vec![42u8; 1024];
    conn.make_collection("/home/sekar/ct").unwrap();
    conn.make_collection("/home/sekar/raw").unwrap();
    // Case A: files in a container (cache+archive logical resource).
    conn.create_container("bulk", "ct-store", 1 << 20).unwrap();
    for i in 0..n {
        conn.ingest(
            &format!("/home/sekar/ct/f{i}"),
            &payload,
            IngestOptions::into_container("bulk"),
        )
        .unwrap();
    }
    conn.sync_container("bulk").unwrap();
    conn.purge_container_cache("bulk").unwrap();
    // Case B: files stored individually on the archive.
    for i in 0..n {
        conn.ingest(
            &format!("/home/sekar/raw/f{i}"),
            &payload,
            IngestOptions::to_resource("hpss-caltech"),
        )
        .unwrap();
    }
    let hpss = f.grid.resource_id("hpss-caltech").unwrap();
    f.grid
        .driver(hpss)
        .unwrap()
        .as_archive()
        .unwrap()
        .purge_staged();
    // Read everything back both ways.
    let mut container_ns = 0;
    for i in 0..n {
        let (_, r) = conn.read(&format!("/home/sekar/ct/f{i}")).unwrap();
        container_ns += r.sim_ns;
    }
    let mut per_file_ns = 0;
    for i in 0..n {
        let (_, r) = conn.read(&format!("/home/sekar/raw/f{i}")).unwrap();
        per_file_ns += r.sim_ns;
    }
    assert!(
        per_file_ns > container_ns * 3,
        "per-file archive reads ({per_file_ns} ns) should dwarf containerized reads \
         ({container_ns} ns): one staging vs {n}"
    );
}

#[test]
fn container_full_rejects_ingest_and_rolls_back() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.create_container("tiny", "ct-store", 10).unwrap();
    conn.ingest(
        "/home/sekar/fits",
        b"12345678",
        IngestOptions::into_container("tiny"),
    )
    .unwrap();
    let err = conn
        .ingest(
            "/home/sekar/nofit",
            b"12345678",
            IngestOptions::into_container("tiny"),
        )
        .unwrap_err();
    assert!(matches!(err, SrbError::ResourceUnavailable(_)));
    // The dataset row was rolled back: the name is free again.
    conn.ingest(
        "/home/sekar/nofit",
        b"x",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
}

#[test]
fn update_in_container_repoints_slice() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.create_container("ct1", "ct-store", 1 << 20).unwrap();
    conn.ingest(
        "/home/sekar/doc",
        b"first version",
        IngestOptions::into_container("ct1"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/other",
        b"neighbour",
        IngestOptions::into_container("ct1"),
    )
    .unwrap();
    conn.write("/home/sekar/doc", b"second version, longer")
        .unwrap();
    assert_eq!(
        &conn.read("/home/sekar/doc").unwrap().0[..],
        b"second version, longer"
    );
    // The neighbour is untouched.
    assert_eq!(&conn.read("/home/sekar/other").unwrap().0[..], b"neighbour");
    // Tar-like: the container grew (hole left behind).
    let record = f.grid.mcat.containers.find("ct1").unwrap();
    assert_eq!(
        record.size as usize,
        "first version".len() + "neighbour".len() + "second version, longer".len()
    );
}

#[test]
fn replicate_of_container_member_is_refused() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.create_container("ct1", "ct-store", 1 << 20).unwrap();
    conn.ingest("/home/sekar/m", b"x", IngestOptions::into_container("ct1"))
        .unwrap();
    assert!(matches!(
        conn.replicate("/home/sekar/m", "unix-ncsa"),
        Err(SrbError::Unsupported(_))
    ));
    // And physical move likewise.
    assert!(matches!(
        conn.move_physical("/home/sekar/m", 1, "unix-ncsa"),
        Err(SrbError::Unsupported(_))
    ));
}

#[test]
fn deleting_members_leaves_container_consistent() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.create_container("ct1", "ct-store", 1 << 20).unwrap();
    conn.ingest(
        "/home/sekar/a",
        b"aaa",
        IngestOptions::into_container("ct1"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/b",
        b"bbb",
        IngestOptions::into_container("ct1"),
    )
    .unwrap();
    conn.delete("/home/sekar/a", None).unwrap();
    let record = f.grid.mcat.containers.find("ct1").unwrap();
    assert_eq!(record.members.len(), 1);
    assert_eq!(&conn.read("/home/sekar/b").unwrap().0[..], b"bbb");
    assert!(conn.read("/home/sekar/a").is_err());
}

#[test]
fn failed_container_leg_leaves_no_slice_behind() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.create_container("ct1", "ct-store", 1 << 20).unwrap();
    let into = || IngestOptions::into_container("ct1");
    conn.ingest("/home/sekar/a", b"alpha", into()).unwrap();
    f.grid
        .set_fault_mode("cache-sdsc", FaultMode::FailNext(1))
        .unwrap();
    assert!(matches!(
        conn.ingest("/home/sekar/b", b"bravo", into()),
        Err(SrbError::Timeout(_))
    ));
    // Neither the slice nor the dataset row outlived the failed leg.
    assert!(matches!(
        conn.read("/home/sekar/b"),
        Err(SrbError::NotFound(_))
    ));
    let record = f.grid.mcat.containers.find("ct1").unwrap();
    assert_eq!((record.size, record.members.len()), (5, 1));
    conn.ingest("/home/sekar/b", b"bravo", into()).unwrap();
    conn.ingest("/home/sekar/c", b"charlie", into()).unwrap();
    for (name, bytes) in [("a", "alpha"), ("b", "bravo"), ("c", "charlie")] {
        let (data, _) = conn.read(&format!("/home/sekar/{name}")).unwrap();
        assert_eq!(&data[..], bytes.as_bytes(), "{name}");
    }
}

#[test]
fn short_container_copy_reads_as_corrupt() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.create_container("ct1", "ct-store", 1 << 20).unwrap();
    conn.ingest(
        "/home/sekar/a",
        b"alpha",
        IngestOptions::into_container("ct1"),
    )
    .unwrap();
    conn.sync_container("ct1").unwrap();
    // The working copy loses its tail: the cache exit refuses it.
    let cache = f.grid.resource_id("cache-sdsc").unwrap();
    let cache = f.grid.driver(cache).unwrap();
    cache.driver().write("containers/ct1", b"alp").unwrap();
    assert!(matches!(
        conn.read("/home/sekar/a"),
        Err(SrbError::Corrupt(_))
    ));
    // So does the archive exit, once the cache copy is gone.
    let hpss = f.grid.resource_id("hpss-caltech").unwrap();
    let hpss = f.grid.driver(hpss).unwrap();
    hpss.driver().write("containers/ct1", b"al").unwrap();
    conn.purge_container_cache("ct1").unwrap();
    assert!(matches!(
        conn.read("/home/sekar/a"),
        Err(SrbError::Corrupt(_))
    ));
}
