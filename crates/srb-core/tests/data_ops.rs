//! End-to-end data-movement tests: ingest, read, write, replicate, copy,
//! move, link, delete — the paper's §5 operation set.

mod common;

use bytes::Bytes;
use common::{connect, grid, Fixture};
use srb_core::{ChecksumStatus, FaultMode, IngestOptions, RegisterSpec, SrbConnection};
use srb_mcat::ReplicaStatus;
use srb_types::{Permission, SrbError, SrbResult, Triplet};

#[test]
fn ingest_and_read_round_trip() {
    let f = grid();
    let conn = connect(&f, "sekar");
    let r = conn
        .ingest(
            "/home/sekar/a.txt",
            b"hello grid",
            IngestOptions::to_resource("unix-sdsc").with_type("ascii text"),
        )
        .unwrap();
    assert!(r.sim_ns > 0);
    assert!(r.bytes >= 10);
    let (data, read_r) = conn.read("/home/sekar/a.txt").unwrap();
    assert_eq!(&data[..], b"hello grid");
    assert_eq!(read_r.replicas_tried, 1);
    assert!(read_r.served_by.is_some());
    let (ty, size, nrep, ver) = conn.stat("/home/sekar/a.txt").unwrap();
    assert_eq!(ty, "ascii text");
    assert_eq!(size, 10);
    assert_eq!(nrep, 1);
    assert_eq!(ver, 1);
}

#[test]
fn ingest_to_logical_resource_creates_synchronous_replicas() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/multi.dat",
        b"replicated",
        IngestOptions::to_resource("logrsrc1"),
    )
    .unwrap();
    let (_, _, nrep, _) = conn.stat("/home/sekar/multi.dat").unwrap();
    assert_eq!(nrep, 2, "logrsrc1 has two members -> two replicas");
    // Both physical copies exist.
    let unix = f.grid.resource_id("unix-sdsc").unwrap();
    let hpss = f.grid.resource_id("hpss-caltech").unwrap();
    assert!(f.grid.driver(unix).unwrap().driver().used_bytes() >= 10);
    assert!(f.grid.driver(hpss).unwrap().driver().used_bytes() >= 10);
}

#[test]
fn duplicate_ingest_rejected() {
    let f = grid();
    let conn = connect(&f, "sekar");
    let opts = || IngestOptions::to_resource("unix-sdsc");
    conn.ingest("/home/sekar/x", b"1", opts()).unwrap();
    assert!(matches!(
        conn.ingest("/home/sekar/x", b"2", opts()),
        Err(SrbError::AlreadyExists(_))
    ));
}

/// A taken name is refused before any byte moves: the target resource
/// gains no object (one would block the name for good) and the refused
/// op's receipt carries no payload.
#[test]
fn a_refused_ingest_or_copy_leaves_no_bytes() {
    let f = grid();
    let conn = connect(&f, "sekar");
    let fs = IngestOptions::to_resource;
    let objects = |r: &str| {
        let driver = f.grid.driver(f.grid.resource_id(r).unwrap()).unwrap();
        driver.driver().list("srb/").unwrap()
    };
    let refused = |r: &str, op: &str, subject: &str, call: &dyn Fn() -> SrbResult<()>| {
        let before = objects(r);
        let res = call();
        assert!(
            matches!(res, Err(SrbError::AlreadyExists(_))),
            "{subject}: {res:?}"
        );
        assert_eq!(objects(r), before, "{subject} left bytes on {r}");
        let kept = f.grid.metrics_snapshot().slow_ops.into_iter();
        let last = kept
            .filter(|o| o.op == op && o.subject == subject)
            .max_by_key(|o| o.seq);
        assert_eq!(last.unwrap().cost.bytes, 0, "{subject} moved bytes");
    };

    conn.ingest("/home/sekar/x", b"1", fs("unix-sdsc")).unwrap();
    refused("unix-ncsa", "ingest", "/home/sekar/x", &|| {
        conn.ingest("/home/sekar/x", b"2", fs("unix-ncsa"))
            .map(drop)
    });

    let url = RegisterSpec::Url {
        url: "http://x/u".into(),
    };
    conn.register("/home/sekar/u", url, IngestOptions::default())
        .unwrap();
    refused("unix-sdsc", "ingest", "/home/sekar/u", &|| {
        conn.ingest("/home/sekar/u", b"u", fs("unix-sdsc"))
            .map(drop)
    });

    conn.ingest("/home/sekar/a", b"aaaa", fs("unix-sdsc"))
        .unwrap();
    conn.ingest("/home/sekar/b", b"bbbb", fs("unix-sdsc"))
        .unwrap();
    let subject = "/home/sekar/a -> /home/sekar/b";
    refused("unix-ncsa", "copy", subject, &|| {
        conn.copy("/home/sekar/a", "/home/sekar/b", "unix-ncsa")
            .map(drop)
    });

    // Nothing the refusal left behind blocks the name once it is free.
    conn.delete("/home/sekar/u", None).unwrap();
    conn.ingest("/home/sekar/u", b"u", fs("unix-sdsc")).unwrap();
    assert_eq!(&conn.read("/home/sekar/u").unwrap().0[..], b"u");
}

/// `ingest_bulk` of one file is `ingest` of that file: the same catalog
/// image, generation stamps included (only the audit rows differ, by
/// subject), and the same receipt — at a physical resource, at a
/// two-member logical resource, and with one member down.
#[test]
fn a_one_file_ingest_bulk_equals_ingest() {
    let cases = [
        ("unix-sdsc", None, 0),
        ("logrsrc1", None, 0),
        ("logrsrc1", Some("hpss-caltech"), 1),
    ];
    for (resource, down, stale) in cases {
        let opts = IngestOptions::to_resource(resource)
            .with_type("ascii text")
            .with_metadata(Triplet::new("a", 1i64, ""))
            .with_metadata(Triplet::new("b", "two", ""));
        let run = |bulk: bool| {
            let f: Fixture = grid();
            if let Some(r) = down {
                f.grid.fail_resource(r).unwrap();
            }
            let conn = connect(&f, "sekar");
            let data = Bytes::copy_from_slice(b"payload");
            let r = if bulk {
                let files = vec![("f".to_string(), data)];
                conn.ingest_bulk("/home/sekar", files, &opts).unwrap().1
            } else {
                conn.ingest("/home/sekar/f", data, opts.clone()).unwrap()
            };
            let rows = f.grid.mcat.datasets.dump();
            let replicas = rows.iter().flat_map(|d| &d.replicas);
            let n_stale = replicas
                .filter(|r| r.status == ReplicaStatus::Stale)
                .count();
            assert_eq!(n_stale, stale, "{resource}, down {down:?}, bulk {bulk}");
            let image = f.grid.mcat.snapshot_json().unwrap();
            let mut image: serde_json::Value = serde_json::from_str(&image).unwrap();
            if let serde_json::Value::Map(entries) = &mut image {
                entries.retain(|(key, _)| key != "audit");
            }
            let image = serde_json::to_string(&image).unwrap();
            (image, r.sim_ns, r.bytes, r.messages)
        };
        assert_eq!(run(false), run(true), "{resource}, down {down:?}");
    }
}

#[test]
fn write_updates_all_replicas_synchronously() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/doc",
        b"v1",
        IngestOptions::to_resource("logrsrc1"),
    )
    .unwrap();
    conn.write("/home/sekar/doc", b"v2 is longer").unwrap();
    let (data, _) = conn.read("/home/sekar/doc").unwrap();
    assert_eq!(&data[..], b"v2 is longer");
    // Knock out one resource; the read must still return the new content
    // from the other replica.
    f.grid.fail_resource("unix-sdsc").unwrap();
    let (data, r) = conn.read("/home/sekar/doc").unwrap();
    assert_eq!(&data[..], b"v2 is longer");
    assert!(r.served_by.is_some());
    f.grid.restore_resource("unix-sdsc").unwrap();
}

#[test]
fn write_with_one_resource_down_marks_stale_then_errors_when_all_down() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/doc",
        b"v1",
        IngestOptions::to_resource("logrsrc1"),
    )
    .unwrap();
    f.grid.fail_resource("hpss-caltech").unwrap();
    conn.write("/home/sekar/doc", b"v2").unwrap();
    // The hpss replica is now stale and excluded from reads.
    f.grid.restore_resource("hpss-caltech").unwrap();
    let (data, r) = conn.read("/home/sekar/doc").unwrap();
    assert_eq!(&data[..], b"v2");
    assert_eq!(r.replicas_tried, 1);
    // All resources down: the write fails outright.
    f.grid.fail_resource("unix-sdsc").unwrap();
    f.grid.fail_resource("hpss-caltech").unwrap();
    assert!(conn.write("/home/sekar/doc", b"v3").is_err());
}

#[test]
fn replicate_and_failover() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/img",
        b"pixels",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.replicate("/home/sekar/img", "unix-ncsa").unwrap();
    let (_, _, nrep, _) = conn.stat("/home/sekar/img").unwrap();
    assert_eq!(nrep, 2);
    // Fail the first resource: the read fails over transparently.
    f.grid.fail_resource("unix-sdsc").unwrap();
    let (data, r) = conn.read("/home/sekar/img").unwrap();
    assert_eq!(&data[..], b"pixels");
    assert!(r.replicas_tried >= 1);
    // With both down the read reports unavailability.
    f.grid.fail_resource("unix-ncsa").unwrap();
    let err = conn.read("/home/sekar/img").unwrap_err();
    assert!(matches!(err, SrbError::ResourceUnavailable(_)));
}

#[test]
fn copy_does_not_copy_metadata_or_annotations() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/orig",
        b"data",
        IngestOptions::to_resource("unix-sdsc")
            .with_metadata(Triplet::new("species", "condor", "")),
    )
    .unwrap();
    conn.annotate(
        "/home/sekar/orig",
        srb_mcat::AnnotationKind::Comment,
        "",
        "nice",
    )
    .unwrap();
    conn.copy("/home/sekar/orig", "/home/sekar/dup", "unix-ncsa")
        .unwrap();
    let (data, _) = conn.read("/home/sekar/dup").unwrap();
    assert_eq!(&data[..], b"data");
    assert!(conn.metadata("/home/sekar/dup").unwrap().is_empty());
    assert!(conn.annotations("/home/sekar/dup").unwrap().is_empty());
    // The original keeps both.
    assert_eq!(conn.metadata("/home/sekar/orig").unwrap().len(), 1);
    assert_eq!(conn.annotations("/home/sekar/orig").unwrap().len(), 1);
    // Writing the copy does not change the original.
    conn.write("/home/sekar/dup", b"changed").unwrap();
    assert_eq!(&conn.read("/home/sekar/orig").unwrap().0[..], b"data");
}

#[test]
fn logical_move_keeps_metadata() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.make_collection("/home/sekar/sub").unwrap();
    conn.ingest(
        "/home/sekar/file",
        b"x",
        IngestOptions::to_resource("unix-sdsc").with_metadata(Triplet::new("k", "v", "")),
    )
    .unwrap();
    conn.move_logical("/home/sekar/file", "/home/sekar/sub/renamed")
        .unwrap();
    assert!(conn.read("/home/sekar/file").is_err());
    let (data, _) = conn.read("/home/sekar/sub/renamed").unwrap();
    assert_eq!(&data[..], b"x");
    assert_eq!(conn.metadata("/home/sekar/sub/renamed").unwrap().len(), 1);
}

#[test]
fn move_whole_collection_rebases_objects() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.make_collection("/home/sekar/proj/deep").unwrap();
    conn.ingest(
        "/home/sekar/proj/deep/f",
        b"1",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.move_logical("/home/sekar/proj", "/home/sekar/renamed")
        .unwrap();
    assert_eq!(
        &conn.read("/home/sekar/renamed/deep/f").unwrap().0[..],
        b"1"
    );
    assert!(conn.read("/home/sekar/proj/deep/f").is_err());
}

#[test]
fn physical_move_preserves_logical_access() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/f",
        b"bytes",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.move_physical("/home/sekar/f", 1, "unix-ncsa").unwrap();
    let (data, _) = conn.read("/home/sekar/f").unwrap();
    assert_eq!(&data[..], b"bytes");
    // Old resource no longer holds the bytes.
    let unix = f.grid.resource_id("unix-sdsc").unwrap();
    assert_eq!(f.grid.driver(unix).unwrap().driver().used_bytes(), 0);
}

#[test]
fn links_share_data_and_collapse_chains() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.make_collection("/home/sekar/alt").unwrap();
    conn.ingest(
        "/home/sekar/orig",
        b"shared",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.link("/home/sekar/orig", "/home/sekar/alt/l1").unwrap();
    conn.link("/home/sekar/alt/l1", "/home/sekar/alt/l2")
        .unwrap();
    assert_eq!(&conn.read("/home/sekar/alt/l1").unwrap().0[..], b"shared");
    assert_eq!(&conn.read("/home/sekar/alt/l2").unwrap().0[..], b"shared");
    // Deleting a link unlinks; the original survives.
    conn.delete("/home/sekar/alt/l1", None).unwrap();
    assert!(conn.read("/home/sekar/alt/l1").is_err());
    assert_eq!(&conn.read("/home/sekar/orig").unwrap().0[..], b"shared");
    assert_eq!(&conn.read("/home/sekar/alt/l2").unwrap().0[..], b"shared");
}

#[test]
fn link_collection_as_subcollection() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.make_collection("/home/sekar/real").unwrap();
    conn.ingest(
        "/home/sekar/real/f",
        b"1",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.link("/home/sekar/real", "/home/sekar/alias").unwrap();
    let (data, _) = conn.read("/home/sekar/alias/f").unwrap();
    assert_eq!(&data[..], b"1");
    let (subs, _, _) = conn.list_collection("/home/sekar").unwrap();
    assert!(subs.contains(&"alias".to_string()));
}

/// Both listings give, per dataset, the `(name, data type, size)` the
/// `Dataset` row itself gives — a row whose first replica is stale, a
/// link object, and pages that cross from sub-collections into datasets.
#[test]
fn listing_rows_equal_dataset_rows() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.make_collection("/home/sekar/mix/sub").unwrap();
    conn.ingest(
        "/home/sekar/mix/a.txt",
        b"twelve bytes",
        IngestOptions::to_resource("logrsrc1").with_type("ascii text"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/mix/b",
        b"1",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.link("/home/sekar/mix/b", "/home/sekar/mix/c-link")
        .unwrap();
    let mcat = &f.grid.mcat;
    let a = mcat
        .resolve_dataset(&"/home/sekar/mix/a.txt".parse().unwrap())
        .unwrap();
    mcat.datasets
        .update(a, |d| {
            d.replicas[0].status = srb_mcat::ReplicaStatus::Stale;
            d.replicas[0].size = 99;
            Ok(())
        })
        .unwrap();

    let coll = mcat
        .collections
        .resolve(&"/home/sekar/mix".parse().unwrap())
        .unwrap();
    let want: Vec<(String, String, u64)> = mcat
        .datasets
        .list(coll)
        .into_iter()
        .map(|d| (d.name.clone(), d.data_type.clone(), d.size()))
        .collect();
    assert_eq!(want.len(), 3);
    assert_eq!(want[0], ("a.txt".into(), "ascii text".into(), 12));
    assert_eq!(want[2].1, "link");

    let (subs, rows, _) = conn.list_collection("/home/sekar/mix").unwrap();
    assert_eq!((subs, &rows), (vec!["sub".to_string()], &want));
    for limit in [1, 2, 3] {
        let (mut subs, mut rows, mut token) = (Vec::new(), Vec::new(), None::<String>);
        loop {
            let ((s, r, _), next) = conn
                .list_collection_page("/home/sekar/mix", token.as_deref(), limit)
                .unwrap();
            subs.extend(s);
            rows.extend(r);
            match next {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        assert_eq!(subs, ["sub"], "limit {limit}");
        assert_eq!(rows, want, "limit {limit}");
    }
}

#[test]
fn delete_replica_by_replica_then_metadata_goes_with_last() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/f",
        b"d",
        IngestOptions::to_resource("unix-sdsc").with_metadata(Triplet::new("k", "v", "")),
    )
    .unwrap();
    conn.replicate("/home/sekar/f", "unix-ncsa").unwrap();
    conn.delete("/home/sekar/f", Some(1)).unwrap();
    // One replica left; object still readable, metadata intact.
    let (_, _, nrep, _) = conn.stat("/home/sekar/f").unwrap();
    assert_eq!(nrep, 1);
    assert_eq!(conn.metadata("/home/sekar/f").unwrap().len(), 1);
    conn.delete("/home/sekar/f", None).unwrap();
    assert!(conn.read("/home/sekar/f").is_err());
    assert!(conn.metadata("/home/sekar/f").is_err());
    assert_eq!(f.grid.mcat.metadata.count(), 0);
}

#[test]
fn permissions_enforced_between_users() {
    let f = grid();
    let sekar = connect(&f, "sekar");
    let mwan = connect(&f, "mwan");
    sekar
        .ingest(
            "/home/sekar/private",
            b"secret",
            IngestOptions::to_resource("unix-sdsc"),
        )
        .unwrap();
    // mwan cannot read, write or delete sekar's file.
    assert!(matches!(
        mwan.read("/home/sekar/private"),
        Err(SrbError::PermissionDenied(_))
    ));
    assert!(mwan.write("/home/sekar/private", b"x").is_err());
    assert!(mwan.delete("/home/sekar/private", None).is_err());
    // After a grant, reading works but writing still fails.
    sekar
        .grant("/home/sekar/private", mwan.user(), Permission::Read)
        .unwrap();
    assert_eq!(&mwan.read("/home/sekar/private").unwrap().0[..], b"secret");
    assert!(mwan.write("/home/sekar/private", b"x").is_err());
    // mwan cannot ingest into sekar's home either.
    assert!(mwan
        .ingest(
            "/home/sekar/intruder",
            b"x",
            IngestOptions::to_resource("unix-sdsc")
        )
        .is_err());
}

#[test]
fn delete_collection_recursive() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.make_collection("/home/sekar/tree/a/b").unwrap();
    conn.ingest(
        "/home/sekar/tree/a/f",
        b"1",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    assert!(conn.delete_collection("/home/sekar/tree", false).is_err());
    conn.delete_collection("/home/sekar/tree", true).unwrap();
    assert!(conn.list_collection("/home/sekar/tree").is_err());
    // Physical bytes were reclaimed.
    let unix = f.grid.resource_id("unix-sdsc").unwrap();
    assert_eq!(f.grid.driver(unix).unwrap().driver().used_bytes(), 0);
}

#[test]
fn session_required_for_every_op() {
    let f = grid();
    let conn = connect(&f, "sekar");
    // Expire the session by advancing virtual time past the TTL.
    f.grid
        .clock
        .advance((srb_core::auth::SESSION_TTL_SECS + 1) * 1_000_000_000);
    assert!(matches!(
        conn.read("/home/sekar/x"),
        Err(SrbError::AuthFailed(_))
    ));
    assert!(matches!(
        conn.ingest(
            "/home/sekar/x",
            b"1",
            IngestOptions::to_resource("unix-sdsc")
        ),
        Err(SrbError::AuthFailed(_))
    ));
}

#[test]
fn bad_password_and_unknown_user_rejected() {
    let f = grid();
    assert!(matches!(
        SrbConnection::connect(&f.grid, f.sdsc, "sekar", "sdsc", "wrong"),
        Err(SrbError::AuthFailed(_))
    ));
    assert!(SrbConnection::connect(&f.grid, f.sdsc, "nobody", "sdsc", "x").is_err());
    assert!(f.grid.auth.failure_count() >= 1);
}

#[test]
fn connect_via_any_server_reaches_same_data() {
    let f = grid();
    let conn_sdsc = connect(&f, "sekar");
    conn_sdsc
        .ingest(
            "/home/sekar/f",
            b"anywhere",
            IngestOptions::to_resource("unix-ncsa"),
        )
        .unwrap();
    // Connect through the NCSA server: same logical path, same data.
    let conn_ncsa = SrbConnection::connect(&f.grid, f.ncsa, "sekar", "sdsc", "pw-sekar").unwrap();
    let (data, r) = conn_ncsa.read("/home/sekar/f").unwrap();
    assert_eq!(&data[..], b"anywhere");
    // NCSA contact + NCSA data -> no data hop, but the MCAT is remote.
    assert!(r.hops >= 1 || r.sim_ns > 0);
    // Through CalTech: data hop charged.
    let conn_ct = SrbConnection::connect(&f.grid, f.caltech, "sekar", "sdsc", "pw-sekar").unwrap();
    let (data, r2) = conn_ct.read("/home/sekar/f").unwrap();
    assert_eq!(&data[..], b"anywhere");
    assert!(r2.hops >= 1);
}

#[test]
fn audit_trail_records_operations() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/f",
        b"1",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.read("/home/sekar/f").unwrap();
    let _ = conn.read("/home/sekar/missing");
    let rows = f.grid.mcat.audit.for_user(conn.user());
    assert!(rows.iter().any(|r| r.outcome == "ok"));
    assert!(rows.iter().any(|r| r.outcome == "NOT_FOUND"));
}

/// Every stored object of the fixture's byte resources, with its bytes.
fn stored_objects(f: &Fixture) -> Vec<(String, String, Bytes)> {
    let mut all = Vec::new();
    for name in [
        "unix-sdsc",
        "cache-sdsc",
        "hpss-caltech",
        "unix-ncsa",
        "hpss-ncsa",
    ] {
        let driver = f.grid.driver(f.grid.resource_id(name).unwrap()).unwrap();
        for path in driver.driver().list("").unwrap() {
            let bytes = driver.driver().read(&path).unwrap().0;
            all.push((name.to_string(), path, bytes));
        }
    }
    all
}

/// Every access to a resource meets the fault plan: with the resource an
/// op needs down, the op is refused `ResourceUnavailable` and no stored
/// byte changes — version reads, container syncs and compactions,
/// registered directories and file registration included. An injected
/// burst is burned by the access it refuses, container members too.
#[test]
fn every_resource_access_meets_the_fault_plan() {
    let f = grid();
    let conn = connect(&f, "sekar");
    let v = "/home/sekar/v";
    conn.ingest(v, b"old", IngestOptions::to_resource("unix-sdsc"))
        .unwrap();
    conn.checkout(v).unwrap();
    conn.checkin(v, b"new").unwrap();
    // Two members on ct-store (cache-sdsc + hpss-caltech), one deleted:
    // six bytes to sync, three to reclaim.
    conn.create_container("ct1", "ct-store", 1 << 16).unwrap();
    for (name, data) in [("m1", b"abc"), ("m2", b"def")] {
        let path = format!("/home/sekar/{name}");
        conn.ingest(&path, data, IngestOptions::into_container("ct1"))
            .unwrap();
    }
    conn.delete("/home/sekar/m2", None).unwrap();
    let ncsa = f.grid.driver(f.grid.resource_id("unix-ncsa").unwrap());
    ncsa.unwrap().driver().create("ext/a.txt", b"AAAA").unwrap();
    let dir = RegisterSpec::Directory {
        resource: "unix-ncsa".into(),
        dir_path: "ext".into(),
    };
    conn.register("/home/sekar/dir", dir, IngestOptions::default())
        .unwrap();

    let refused = |resource: &str, what: &str, call: &dyn Fn() -> SrbResult<()>| {
        f.grid.fail_resource(resource).unwrap();
        let before = stored_objects(&f);
        let got = call();
        assert!(
            matches!(got, Err(SrbError::ResourceUnavailable(_))),
            "{what} with {resource} down: {got:?}"
        );
        f.grid.restore_resource(resource).unwrap();
        assert_eq!(stored_objects(&f), before, "{what} changed stored bytes");
    };
    refused("unix-sdsc", "read", &|| conn.read(v).map(drop));
    refused("unix-sdsc", "read_version", &|| {
        conn.read_version(v, 1).map(drop)
    });
    refused("cache-sdsc", "sync_container", &|| {
        conn.sync_container("ct1").map(drop)
    });
    refused("cache-sdsc", "compact_container", &|| {
        conn.compact_container("ct1").map(drop)
    });
    refused("unix-ncsa", "open of a registered directory", &|| {
        conn.open("/home/sekar/dir", &[]).map(drop)
    });
    refused("unix-ncsa", "register of a file", &|| {
        let file = RegisterSpec::File {
            resource: "unix-ncsa".into(),
            phys_path: "ext/a.txt".into(),
        };
        conn.register("/home/sekar/ext", file, IngestOptions::default())
            .map(drop)
    });
    assert!(
        conn.stat("/home/sekar/ext").is_err(),
        "refused register left a row"
    );
    assert_eq!(&conn.read_version(v, 1).unwrap().0[..], b"old");
    assert_eq!(conn.compact_container("ct1").unwrap().0, 3);

    // A member read draws once per attempt: a one-shot burst on the cache
    // refuses the first read and is spent, and the retry reads the
    // working copy. m2 is newer than the synced archive copy, and the
    // burst must not let that older copy overwrite it.
    conn.sync_container("ct1").unwrap();
    conn.ingest(
        "/home/sekar/m2",
        b"def",
        IngestOptions::into_container("ct1"),
    )
    .unwrap();
    let cache = f.grid.resource_id("cache-sdsc").unwrap();
    f.grid
        .set_fault_mode("cache-sdsc", FaultMode::FailNext(1))
        .unwrap();
    assert_eq!(&conn.read("/home/sekar/m1").unwrap().0[..], b"abc");
    assert_eq!(f.grid.faults.mode(cache), None, "burst left unburned");
    assert_eq!(&conn.read("/home/sekar/m2").unwrap().0[..], b"def");

    // With the cache down, an unsynced container's archive copy is older
    // than the catalog's slices: the member read is refused, not served
    // from it. Once synced, the archive serves the read.
    refused("cache-sdsc", "read of an unsynced member", &|| {
        conn.read("/home/sekar/m1").map(drop)
    });
    conn.sync_container("ct1").unwrap();
    f.grid.fail_resource("cache-sdsc").unwrap();
    assert_eq!(&conn.read("/home/sekar/m2").unwrap().0[..], b"def");
    f.grid.restore_resource("cache-sdsc").unwrap();
}

/// `verify_checksums` reads through the one replica read: the access is
/// counted in `storage.ops`, charged to the resource's load, and a
/// one-shot burst is retried away as it is for `read`.
#[test]
fn verify_checksums_reads_are_metered_and_retried() {
    let f = grid();
    let conn = connect(&f, "sekar");
    let c = "/home/sekar/c";
    conn.ingest(c, b"checked", IngestOptions::to_resource("unix-sdsc"))
        .unwrap();
    let unix = f.grid.resource_id("unix-sdsc").unwrap();
    let fs_ops = || f.grid.metrics_snapshot().counters["storage.ops"]["file-system"];
    let (ops, busy) = (fs_ops(), f.grid.load.busy_ns(unix));
    let statuses = conn.verify_checksums(c).unwrap();
    assert!(
        matches!(statuses[..], [(_, ChecksumStatus::Ok)]),
        "{statuses:?}"
    );
    assert_eq!(fs_ops(), ops + 1);
    assert!(f.grid.load.busy_ns(unix) > busy);
    f.grid
        .set_fault_mode("unix-sdsc", FaultMode::FailNext(1))
        .unwrap();
    let statuses = conn.verify_checksums(c).unwrap();
    assert!(
        matches!(statuses[..], [(_, ChecksumStatus::Ok)]),
        "{statuses:?}"
    );
    assert_eq!(f.grid.faults.mode(unix), None);
}
