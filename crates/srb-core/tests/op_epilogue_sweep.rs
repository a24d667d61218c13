//! The one-epilogue sweep: every public `SrbConnection` op that opens with
//! `begin_op` — the case list is checked against the source, so a new op
//! cannot dodge it — is run on a durable grid, once succeeding and once
//! forced to fail (denied permission, duplicate name, missing object,
//! failed storage leg). Whatever the outcome, when the call returns:
//!
//! * the log device holds no unsynced record (the op committed),
//! * `wal.take_pending_ns()` is 0 (the op's receipt paid for its fsync),
//! * `crash()` + `recover` reproduces the live catalog, `summary()` and
//!   every row.

mod common;

use common::{normalized, Fixture};
use srb_core::{IngestOptions, RegisterSpec, SrbConnection};
use srb_mcat::{AnnotationKind, LockKind, Mcat, Query, WalConfig};
use srb_storage::LogDevice;
use srb_types::{MetaId, MetaValue, Permission, SimClock, SrbResult, Triplet};
use std::collections::BTreeSet;
use std::sync::Arc;

const NO_CKPT: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};

/// A durable fixture grid seeded with one of everything the cases touch.
struct World {
    f: Fixture,
    device: Arc<LogDevice>,
}

/// What a case gets: the owner's connection, a stranger's, the grid.
struct Ctx<'w> {
    s: SrbConnection<'w>,
    m: SrbConnection<'w>,
    w: &'w World,
}

fn fs(name: &str) -> IngestOptions {
    IngestOptions::to_resource(name)
}

fn world() -> World {
    let f = common::grid();
    let device = Arc::new(LogDevice::new());
    f.grid.enable_durability(device.clone(), NO_CKPT).unwrap();
    let ext = f.grid.driver(f.grid.resource_id("unix-ncsa").unwrap());
    ext.unwrap().driver().create("ext/a.txt", b"AAAA").unwrap();
    {
        let s = common::connect(&f, "sekar");
        s.ingest("/home/sekar/f", b"v1".as_slice(), fs("logrsrc1"))
            .unwrap();
        let g = fs("unix-sdsc").with_metadata(Triplet::new("k", "v", ""));
        s.ingest("/home/sekar/g", b"KEY: 42\n".as_slice(), g)
            .unwrap();
        s.make_collection("/home/sekar/sub").unwrap();
        s.ingest("/home/sekar/sub/x", b"x".as_slice(), fs("unix-sdsc"))
            .unwrap();
        s.create_container("ct", "ct-store", 1 << 16).unwrap();
        for name in ["c1", "c2"] {
            let opts = IngestOptions::into_container("ct");
            s.ingest(&format!("/home/sekar/{name}"), b"cccc".as_slice(), opts)
                .unwrap();
        }
        s.delete("/home/sekar/c2", None).unwrap(); // a hole to compact
        let dir = RegisterSpec::Directory {
            resource: "unix-ncsa".into(),
            dir_path: "ext".into(),
        };
        s.register("/home/sekar/dir", dir, IngestOptions::default())
            .unwrap();
        s.annotate("/home/sekar/g", AnnotationKind::Comment, "", "mine")
            .unwrap();
        s.create_group("team").unwrap();
        // One stale replica for the repair ops to find.
        f.grid.fail_resource("hpss-caltech").unwrap();
        s.write("/home/sekar/f", b"v2".as_slice()).unwrap();
        f.grid.restore_resource("hpss-caltech").unwrap();
    }
    World { f, device }
}

/// Run `call` on a fresh world and hold the epilogue to its contract.
fn check(name: &str, expect_ok: bool, call: &dyn Fn(&Ctx<'_>) -> SrbResult<()>) {
    let w = world();
    let cx = Ctx {
        s: common::connect(&w.f, "sekar"),
        m: common::connect(&w.f, "mwan"),
        w: &w,
    };
    let mcat = &w.f.grid.mcat;
    let wal = mcat.wal().unwrap();
    assert_eq!(wal.take_pending_ns(), 0, "{name}: set-up left cost behind");
    let ops_before = w.f.grid.metrics_snapshot().histograms["core.op_ns"]
        .values()
        .map(|h| h.count)
        .sum::<u64>();

    let result = call(&cx);
    let tag = if expect_ok { "ok" } else { "failing" };
    assert_eq!(
        result.is_ok(),
        expect_ok,
        "{name} ({tag} arm) returned {result:?}"
    );

    let (appends, _, durable) = w.device.stats();
    assert_eq!(
        appends as usize, durable,
        "{name} ({tag}): unsynced records left on the log device"
    );
    assert_eq!(
        wal.take_pending_ns(),
        0,
        "{name} ({tag}): durability cost not folded into the op"
    );
    let ops_after = w.f.grid.metrics_snapshot().histograms["core.op_ns"]
        .values()
        .map(|h| h.count)
        .sum::<u64>();
    assert!(
        ops_after > ops_before,
        "{name} ({tag}): op never reached core.op_ns"
    );
    let audit = mcat.audit.recent(1);
    if expect_ok {
        assert_ne!(
            audit[0].outcome.to_uppercase(),
            audit[0].outcome,
            "{name}: ok op audited as {}",
            audit[0].outcome
        );
    } else {
        assert_eq!(audit[0].outcome, result.unwrap_err().code(), "{name}");
    }

    let (live, live_summary) = (normalized(mcat), mcat.summary());
    w.device.crash();
    let (rec, _) = Mcat::recover(SimClock::new(), w.device.clone(), NO_CKPT, None).unwrap();
    assert_eq!(rec.summary(), live_summary, "{name} ({tag}): summary()");
    assert_eq!(normalized(&rec), live, "{name} ({tag}): recovered rows");
}

type Arm = Box<dyn Fn(&Ctx<'_>) -> SrbResult<()>>;

/// `(begin_op name, succeeding arm, failing arm)`.
fn cases() -> Vec<(&'static str, Arm, Option<Arm>)> {
    fn arm(f: impl Fn(&Ctx<'_>) -> SrbResult<()> + 'static) -> Arm {
        Box::new(f)
    }
    fn case(
        name: &'static str,
        ok: impl Fn(&Ctx<'_>) -> SrbResult<()> + 'static,
        err: impl Fn(&Ctx<'_>) -> SrbResult<()> + 'static,
    ) -> (&'static str, Arm, Option<Arm>) {
        (name, arm(ok), Some(arm(err)))
    }
    let g = "/home/sekar/g";
    let f = "/home/sekar/f";
    let meta_of = |c: &Ctx<'_>| c.s.metadata("/home/sekar/g").unwrap()[0].id;
    vec![
        case(
            "open",
            move |c| c.s.open(f, &[]).map(drop),
            move |c| c.m.open(f, &[]).map(drop),
        ),
        case(
            "read_from_directory",
            |c| {
                c.s.read_from_directory("/home/sekar/dir", "a.txt")
                    .map(drop)
            },
            |c| c.s.read_from_directory("/home/sekar/dir", "no").map(drop),
        ),
        case(
            "make_collection",
            |c| c.s.make_collection("/home/sekar/new/deep").map(drop),
            |c| c.m.make_collection("/home/sekar/intruder").map(drop),
        ),
        case(
            "delete_collection",
            |c| c.s.delete_collection("/home/sekar/sub", true).map(drop),
            |c| c.s.delete_collection("/home/sekar/sub", false).map(drop),
        ),
        case(
            "ingest",
            |c| {
                let opts = fs("logrsrc1")
                    .with_metadata(Triplet::new("a", 1i64, ""))
                    .with_metadata(Triplet::new("b", 2i64, ""));
                c.s.ingest("/home/sekar/new", b"n".as_slice(), opts)
                    .map(drop)
            },
            // Duplicate name: refused before any byte moves.
            move |c| c.s.ingest(g, b"n".as_slice(), fs("unix-ncsa")).map(drop),
        ),
        case(
            "ingest",
            |c| {
                let opts =
                    IngestOptions::into_container("ct").with_metadata(Triplet::new("a", 1i64, ""));
                c.s.ingest("/home/sekar/c3", b"cc".as_slice(), opts)
                    .map(drop)
            },
            // Failed storage leg, after the dataset row and the container
            // member were written.
            |c| {
                c.w.f.grid.fail_resource("cache-sdsc")?;
                let opts = IngestOptions::into_container("ct");
                c.s.ingest("/home/sekar/c3", b"cc".as_slice(), opts)
                    .map(drop)
            },
        ),
        case(
            "write",
            move |c| c.s.write(f, b"v3".as_slice()).map(drop),
            move |c| {
                c.w.f.grid.fail_resource("unix-sdsc")?;
                c.w.f.grid.fail_resource("hpss-caltech")?;
                c.s.write(f, b"v3".as_slice()).map(drop)
            },
        ),
        case(
            "ingest_bulk",
            |c| {
                let files = vec![
                    ("b1".to_string(), "1".into()),
                    ("b2".to_string(), "2".into()),
                ];
                c.s.ingest_bulk("/home/sekar/sub", files, &fs("unix-sdsc"))
                    .map(drop)
            },
            |c| {
                let files = vec![
                    ("b1".to_string(), "1".into()),
                    ("b1".to_string(), "2".into()),
                ];
                c.s.ingest_bulk("/home/sekar/sub", files, &fs("unix-sdsc"))
                    .map(drop)
            },
        ),
        case(
            "register",
            |c| {
                let url = RegisterSpec::Url {
                    url: "http://x/y".into(),
                };
                c.s.register("/home/sekar/u", url, IngestOptions::default())
                    .map(drop)
            },
            |c| {
                let url = RegisterSpec::Url {
                    url: "http://x/y".into(),
                };
                c.s.register("/home/sekar/g", url, IngestOptions::default())
                    .map(drop)
            },
        ),
        case(
            "replicate",
            move |c| c.s.replicate(g, "unix-ncsa").map(drop),
            move |c| {
                c.w.f.grid.fail_resource("unix-ncsa")?;
                c.s.replicate(g, "unix-ncsa").map(drop)
            },
        ),
        case(
            "register_replica",
            move |c| {
                let url = RegisterSpec::Url {
                    url: "http://x/g".into(),
                };
                c.s.register_replica(g, url).map(drop)
            },
            move |c| {
                let url = RegisterSpec::Url {
                    url: "http://x/g".into(),
                };
                c.m.register_replica(g, url).map(drop)
            },
        ),
        case(
            "ingest_replica",
            move |c| {
                c.s.ingest_replica(g, b"gif".as_slice(), "unix-ncsa")
                    .map(drop)
            },
            move |c| {
                c.w.f.grid.fail_resource("unix-ncsa")?;
                c.s.ingest_replica(g, b"gif".as_slice(), "unix-ncsa")
                    .map(drop)
            },
        ),
        case(
            "copy",
            move |c| c.s.copy(g, "/home/sekar/g2", "unix-ncsa").map(drop),
            // Duplicate destination: refused before the source is read.
            move |c| c.s.copy(g, f, "unix-ncsa").map(drop),
        ),
        case(
            "move_logical",
            move |c| c.s.move_logical(g, "/home/sekar/sub/g").map(drop),
            move |c| c.s.move_logical(g, f).map(drop),
        ),
        case(
            "move_physical",
            move |c| c.s.move_physical(g, 1, "unix-ncsa").map(drop),
            move |c| c.s.move_physical(g, 9, "unix-ncsa").map(drop),
        ),
        case(
            "link",
            move |c| c.s.link(g, "/home/sekar/sub/lnk").map(drop),
            move |c| c.s.link(g, f).map(drop),
        ),
        case(
            "delete",
            move |c| c.s.delete(f, None).map(drop),
            move |c| c.m.delete(f, None).map(drop),
        ),
        case(
            "migrate_collection",
            |c| {
                c.s.migrate_collection("/home/sekar/sub", "unix-ncsa")
                    .map(drop)
            },
            |c| {
                c.m.migrate_collection("/home/sekar/sub", "unix-ncsa")
                    .map(drop)
            },
        ),
        case(
            "add_metadata",
            move |c| c.s.add_metadata(g, Triplet::new("n", 1i64, "")).map(drop),
            move |c| c.m.add_metadata(g, Triplet::new("n", 1i64, "")).map(drop),
        ),
        case(
            "add_schema_metadata",
            move |c| {
                c.s.add_schema_metadata(g, "DublinCore", Triplet::new("Title", "t", ""))
                    .map(drop)
            },
            move |c| {
                c.s.add_schema_metadata(g, "DublinCore", Triplet::new("Nope", "t", ""))
                    .map(drop)
            },
        ),
        case(
            "update_metadata",
            move |c| {
                c.s.update_metadata(g, meta_of(c), MetaValue::Int(7), "")
                    .map(drop)
            },
            move |c| {
                c.s.update_metadata(g, MetaId(999_999), MetaValue::Int(7), "")
                    .map(drop)
            },
        ),
        case(
            "delete_metadata",
            move |c| c.s.delete_metadata(g, meta_of(c)).map(drop),
            move |c| c.s.delete_metadata(g, MetaId(999_999)).map(drop),
        ),
        case(
            "copy_metadata",
            move |c| c.s.copy_metadata(g, f).map(drop),
            move |c| c.m.copy_metadata(g, f).map(drop),
        ),
        case(
            "extract_metadata",
            move |c| {
                c.s.extract_metadata(g, "extract KEY after \"KEY:\"\n")
                    .map(drop)
            },
            |c| {
                c.s.extract_metadata("/home/sekar/sub", "extract K after \"K:\"\n")
                    .map(drop)
            },
        ),
        case(
            "extract_metadata_from",
            move |c| {
                c.s.extract_metadata_from(g, f, "extract KEY after \"KEY:\"\n")
                    .map(drop)
            },
            move |c| {
                c.s.extract_metadata_from("/home/sekar/sub", f, "extract K after \"K:\"\n")
                    .map(drop)
            },
        ),
        case(
            "attach_meta_file",
            move |c| c.s.attach_meta_file(f, g).map(drop),
            move |c| c.s.attach_meta_file(f, "/home/sekar/none").map(drop),
        ),
        case(
            "annotate",
            move |c| c.s.annotate(g, AnnotationKind::Comment, "", "hi").map(drop),
            move |c| c.m.annotate(g, AnnotationKind::Comment, "", "hi").map(drop),
        ),
        case(
            "delete_annotation",
            move |c| c.s.delete_annotation(c.s.annotations(g)?[0].id),
            move |c| c.m.delete_annotation(c.s.annotations(g)?[0].id),
        ),
        (
            "query",
            arm(|c| c.s.query(&Query::everywhere()).map(drop)),
            None,
        ),
        case(
            "query_page",
            |c| c.s.query_page(&Query::everywhere(), None, 2).map(drop),
            |c| {
                c.s.query_page(&Query::everywhere(), Some("zz"), 2)
                    .map(drop)
            },
        ),
        (
            "query_scan",
            arm(|c| c.s.query_scan(&Query::everywhere()).map(drop)),
            None,
        ),
        case(
            "grant",
            move |c| c.s.grant(g, c.m.user(), Permission::Read),
            move |c| c.m.grant(g, c.m.user(), Permission::Own),
        ),
        case(
            "grant",
            |c| c.s.grant_public("/home/sekar/sub", Permission::Read),
            |c| c.m.grant_public("/home/sekar/sub", Permission::Read),
        ),
        case(
            "grant",
            move |c| {
                let team = c.w.f.grid.mcat.users.find_group("team").unwrap().id;
                c.s.grant_group(g, team, Permission::Read)
            },
            |c| {
                let team = c.w.f.grid.mcat.users.find_group("team").unwrap().id;
                c.s.grant_group("/home/sekar/none", team, Permission::Read)
            },
        ),
        case(
            "create_group",
            |c| c.s.create_group("crew").map(drop),
            |c| c.s.create_group("team").map(drop),
        ),
        case(
            "add_to_group",
            |c| {
                let team = c.w.f.grid.mcat.users.find_group("team").unwrap().id;
                c.s.add_to_group(team, c.m.user())
            },
            |c| {
                let team = c.w.f.grid.mcat.users.find_group("team").unwrap().id;
                c.m.add_to_group(team, c.m.user())
            },
        ),
        case(
            "create_container",
            |c| c.s.create_container("ct2", "ct-store", 1 << 10).map(drop),
            |c| c.s.create_container("ct", "ct-store", 1 << 10).map(drop),
        ),
        case(
            "sync_container",
            |c| c.s.sync_container("ct").map(drop),
            |c| c.s.sync_container("none").map(drop),
        ),
        case(
            "compact_container",
            |c| {
                let (reclaimed, _) = c.s.compact_container("ct")?;
                assert_eq!(reclaimed, 4);
                Ok(())
            },
            |c| c.s.compact_container("none").map(drop),
        ),
        case(
            "sync_replicas",
            move |c| {
                assert_eq!(c.s.sync_replicas(f)?.0, 1);
                Ok(())
            },
            move |c| c.m.sync_replicas(f).map(drop),
        ),
        (
            "repair_stale",
            arm(|c| {
                assert_eq!(c.s.repair_stale()?.0.len(), 1);
                Ok(())
            }),
            None,
        ),
        case(
            "lock",
            move |c| c.s.lock(g, LockKind::Exclusive, 60).map(drop),
            move |c| c.m.lock(g, LockKind::Exclusive, 60).map(drop),
        ),
        case(
            "unlock",
            move |c| {
                c.s.lock(g, LockKind::Shared, 60)?;
                c.s.unlock(g).map(drop)
            },
            move |c| c.m.unlock(g).map(drop),
        ),
        case(
            "pin",
            move |c| c.s.pin(g, 1, 60).map(drop),
            move |c| c.s.pin(g, 9, 60).map(drop),
        ),
        case(
            "unpin",
            move |c| c.s.unpin(g, 1).map(drop),
            move |c| c.s.unpin(g, 9).map(drop),
        ),
        case(
            "checkout",
            move |c| c.s.checkout(g).map(drop),
            move |c| c.m.checkout(g).map(drop),
        ),
        case(
            "checkin",
            move |c| {
                c.s.checkout(g)?;
                c.s.checkin(g, b"KEY: 43\n").map(drop)
            },
            move |c| c.s.checkin(g, b"KEY: 43\n").map(drop),
        ),
        case(
            "read_version",
            move |c| {
                c.s.checkout(g)?;
                c.s.checkin(g, b"KEY: 43\n")?;
                c.s.read_version(g, 1).map(drop)
            },
            move |c| c.s.read_version(g, 7).map(drop),
        ),
        case(
            "verify_checksums",
            move |c| c.s.verify_checksums(f).map(drop),
            move |c| c.m.verify_checksums(f).map(drop),
        ),
    ]
}

/// Every `begin_op("<name>"` in the connection's source files.
fn ops_in_source() -> BTreeSet<&'static str> {
    let sources = [
        include_str!("../src/conn.rs"),
        include_str!("../src/ops_write.rs"),
        include_str!("../src/ops_meta.rs"),
        include_str!("../src/ops_container.rs"),
        include_str!("../src/ops_lock.rs"),
        include_str!("../src/ops_maintenance.rs"),
    ];
    let mut names = BTreeSet::new();
    for src in sources {
        for (at, _) in src.match_indices("begin_op(") {
            let rest = src[at + "begin_op(".len()..].trim_start();
            if let Some(rest) = rest.strip_prefix('"') {
                names.insert(&rest[..rest.find('"').unwrap()]);
            }
        }
    }
    names
}

#[test]
fn the_sweep_covers_every_op_in_the_source() {
    let swept: BTreeSet<&str> = cases().iter().map(|(name, ..)| *name).collect();
    assert_eq!(swept, ops_in_source());
}

#[test]
fn every_op_commits_pays_and_recovers_ok_or_err() {
    for (name, ok, err) in cases() {
        check(name, true, &*ok);
        if let Some(err) = err {
            check(name, false, &*err);
        }
    }
}

/// The ops that used to return before the durability tail — container
/// ingest, the metadata and lock ops, container creation — now hand back
/// receipts that include their own fsync (5 ms on the default device).
#[test]
fn receipts_carry_their_own_fsync() {
    let w = world();
    let s = common::connect(&w.f, "sekar");
    let g = "/home/sekar/g";
    let row = s.metadata(g).unwrap()[0].id;
    let receipts = [
        s.ingest(
            "/home/sekar/c9",
            b"c".as_slice(),
            IngestOptions::into_container("ct"),
        ),
        s.add_metadata(g, Triplet::new("n", 1i64, "")),
        s.update_metadata(g, row, MetaValue::Int(2), ""),
        s.delete_metadata(g, row),
        s.lock(g, LockKind::Shared, 60),
        s.unlock(g),
        s.create_container("ct9", "ct-store", 1 << 10),
        s.sync_container("ct"),
    ];
    for (i, r) in receipts.into_iter().enumerate() {
        assert!(
            r.unwrap().sim_ns >= 5_000_000,
            "receipt #{i} skipped its fsync"
        );
    }
    let snap = w.f.grid.metrics_snapshot();
    assert!(snap.slow_ops.iter().any(|o| o.subject == "/home/sekar/c9"));
}

/// Sign-on is not an op of a connection, but it audits, so it commits too.
#[test]
fn sign_on_commits_its_audit_row_either_way() {
    let w = world();
    let before = w.device.stats().0;
    assert!(SrbConnection::connect(&w.f.grid, w.f.sdsc, "sekar", "sdsc", "wrong").is_err());
    let conn = common::connect(&w.f, "sekar");
    let (appends, _, durable) = w.device.stats();
    assert_eq!(appends - before, 4, "two audit rows, two markers");
    assert_eq!(appends as usize, durable);
    assert!(
        conn.take_op_ns() >= 5_000_000,
        "the sign-on fsync opens the connection's cost tally"
    );
}

/// A due checkpoint that cannot be installed is counted, not swallowed,
/// and the user's op still succeeds — durably.
#[test]
fn a_failed_checkpoint_is_counted_and_the_op_stands() {
    let f = common::grid();
    let device = Arc::new(LogDevice::new());
    let every_ms = WalConfig {
        checkpoint_interval_ns: 1_000_000,
    };
    f.grid.enable_durability(device.clone(), every_ms).unwrap();
    let conn = common::connect(&f, "sekar");
    let cover = device.checkpoint_lsn();
    device.refuse_checkpoints(true);
    f.grid.clock.advance(2_000_000);
    conn.ingest("/home/sekar/a", b"a".as_slice(), fs("unix-sdsc"))
        .unwrap();
    let failures = |f: &Fixture| {
        f.grid
            .metrics_snapshot()
            .counter("wal.checkpoint_failures", "")
    };
    assert_eq!(failures(&f), 1);
    assert_eq!(device.checkpoint_lsn(), cover, "old checkpoint untouched");
    // The device recovers; the next due checkpoint lands and nothing is lost.
    device.refuse_checkpoints(false);
    f.grid.clock.advance(2_000_000);
    conn.ingest("/home/sekar/b", b"b".as_slice(), fs("unix-sdsc"))
        .unwrap();
    assert_eq!(failures(&f), 1);
    assert!(device.checkpoint_lsn() > cover);
    let live = f.grid.mcat.summary();
    device.crash();
    let (rec, _) = Mcat::recover(SimClock::new(), device, every_ms, None).unwrap();
    assert_eq!(rec.summary(), live);
}
