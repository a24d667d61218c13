//! Persistence formats, pinned by recorded fixtures.
//!
//! A fixed workload emits every [`WalOp`] variant — rows with every
//! `AccessSpec`, lock/checkout/version state, ACL matrices, integer, float
//! and escaped-text metadata — with a checkpoint in the middle. Two sets
//! of fixtures record it:
//!
//! * the row-form twins (`*_rows.*`): what the writers write now — every
//!   row as the array of its fields in declared order. The WAL tail, the
//!   checkpoint text and the final `snapshot_json()` must equal them byte
//!   for byte, and every recorded line must re-render to itself. A field
//!   moved in a declaration moves in the text and fails here.
//! * the object-form fixtures (no suffix), recorded before rows were
//!   positional, kept byte-identical as restore fixtures: a log, image or
//!   snapshot written by the old code must still recover, to the same
//!   catalog as its twin — the same `Mcat::summary()` and every row.

use srb_mcat::dataset::{ContainerSlice, Dataset};
use srb_mcat::{
    AccessSpec, AnnotationKind, AttrRequirement, AuditAction, CheckoutState, LockKind, LockState,
    Mcat, MetaKind, ReplicaStatus, Subject, Template, VersionRecord, WalConfig, WalRecord,
};
use srb_storage::{DriverKind, LogDevice};
use srb_types::{
    AccessMatrix, Checksum, DatasetId, Lsn, Permission, SimClock, SiteId, Timestamp, Triplet,
};
use std::sync::Arc;

const CHECKPOINT: &str = include_str!("fixtures/golden_checkpoint_rows.txt");
const TAIL: &str = include_str!("fixtures/golden_tail_rows.txt");
const FULL_TAIL: &str = include_str!("fixtures/golden_tail_full_rows.txt");
const SNAPSHOT: &str = include_str!("fixtures/golden_snapshot_rows.json");

/// The object-form fixtures the row-form ones are twins of.
const OLD_CHECKPOINT: &str = include_str!("fixtures/golden_checkpoint.txt");
const OLD_TAIL: &str = include_str!("fixtures/golden_tail.txt");
const OLD_FULL_TAIL: &str = include_str!("fixtures/golden_tail_full.txt");
const OLD_SNAPSHOT: &str = include_str!("fixtures/golden_snapshot.json");

const NO_CKPT: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};

/// The fixed workload: every `WalOp` variant, one commit per step, and
/// (with `checkpoint`) one explicit checkpoint between the two halves.
fn golden_workload(checkpoint: bool) -> (Mcat, Arc<LogDevice>) {
    let clock = SimClock::new();
    let m = Mcat::new(clock.clone(), "pw");
    let device = Arc::new(LogDevice::new());
    m.enable_wal(device.clone(), NO_CKPT, None).unwrap();
    let (admin, root) = (m.admin(), m.collections.root());
    let step = || {
        m.commit();
        clock.advance(1_000_000);
    };

    // UserPut, GroupPut.
    let u = m
        .users
        .register(&m.ids, "sekar", "sdsc", "pw2", false)
        .unwrap();
    let g = m.users.create_group(&m.ids, "curators").unwrap();
    m.users.add_to_group(u, g).unwrap();
    step();

    // ResourcePut, LogicalResourcePut.
    let r1 = m
        .resources
        .register(&m.ids, "unix-sdsc", DriverKind::FileSystem, SiteId(0))
        .unwrap();
    let r2 = m
        .resources
        .register(&m.ids, "hpss-caltech", DriverKind::Archive, SiteId(1))
        .unwrap();
    let lr = m
        .resources
        .create_logical(&m.ids, "logrsrc1", &[r1, r2])
        .unwrap();
    step();

    // CollectionPut (ACL with user and group grants, requirements),
    // CollectionDelete.
    let now = m.clock.now();
    let zoo = m
        .collections
        .create(&m.ids, root, "zoo \"quoted\" \\ é", admin, now)
        .unwrap();
    let tmp = m
        .collections
        .create(&m.ids, root, "tmp", admin, now)
        .unwrap();
    let mut acl = AccessMatrix::owned_by(admin);
    acl.grant_user(u, Permission::Read);
    acl.grant_group(g, Permission::Write);
    acl.public = Permission::Discover;
    m.collections.set_acl(zoo, acl).unwrap();
    m.collections
        .set_requirements(
            zoo,
            vec![
                AttrRequirement::mandatory("wingspan", "in cm"),
                AttrRequirement::vocabulary("habitat", &["forest", "desert"], "pick\tone"),
            ],
        )
        .unwrap();
    m.collections.delete(tmp).unwrap();
    step();

    // DatasetPut with every AccessSpec, embedded state; DatasetDelete.
    let now = m.clock.now();
    let stored = |p: &str| AccessSpec::Stored {
        resource: r1,
        phys_path: p.into(),
    };
    let d1 = m
        .datasets
        .create(
            &m.ids,
            zoo,
            "condor.jpg",
            "jpeg image",
            admin,
            vec![
                (stored("/p/1"), 1000, Some(Checksum::of(b"sha:abc"))),
                (
                    AccessSpec::RegisteredFile {
                        resource: r2,
                        phys_path: "/reg/1".into(),
                    },
                    5,
                    None,
                ),
            ],
            now,
        )
        .unwrap();
    let d2 = m
        .datasets
        .create(
            &m.ids,
            zoo,
            "q.sql",
            "sql",
            u,
            vec![(
                AccessSpec::Sql {
                    resource: r2,
                    sql: "SELECT x FROM t WHERE y = 'a\"b'".into(),
                    partial: true,
                    template: Template::StyleSheet(d1),
                },
                0,
                None,
            )],
            now,
        )
        .unwrap();
    let d3 = m
        .datasets
        .create(
            &m.ids,
            zoo,
            "url\u{1}obj",
            "url",
            admin,
            vec![(
                AccessSpec::Url {
                    url: "http://x/ü?a=b&c=日本".into(),
                },
                0,
                None,
            )],
            now,
        )
        .unwrap();
    let d4 = m
        .datasets
        .create(
            &m.ids,
            root,
            "method",
            "generic",
            admin,
            vec![
                (
                    AccessSpec::Method {
                        name: "thumb".into(),
                        is_function: true,
                        default_args: vec!["-s".into(), "64".into()],
                    },
                    0,
                    None,
                ),
                (
                    AccessSpec::ShadowDir {
                        resource: r1,
                        dir_path: "/shadow".into(),
                    },
                    0,
                    None,
                ),
            ],
            now,
        )
        .unwrap();
    let ct = m
        .containers
        .create(&m.ids, "ct1", lr, 1 << 16, now)
        .unwrap();
    m.datasets
        .update(d1, |x| {
            x.lock = Some(LockState {
                kind: LockKind::Shared,
                holder: u,
                expires: Timestamp(99_000),
            });
            x.checkout = Some(CheckoutState {
                holder: admin,
                at: Timestamp(7),
            });
            x.versions.push(VersionRecord {
                version: 1,
                resource: r1,
                phys_path: "/p/1.v1".into(),
                size: 999,
                by: admin,
                at: Timestamp(5),
            });
            x.current_version = 2;
            x.acl.grant_user(u, Permission::Annotate);
            x.acl.grant_group(g, Permission::Read);
            x.replicas[0].in_container = Some(Box::new(ContainerSlice {
                container: ct,
                offset: 0,
                len: 100,
            }));
            x.replicas[0].pinned_until = Some(Timestamp(123));
            x.replicas[1].status = ReplicaStatus::Stale;
            Ok(())
        })
        .unwrap();
    m.datasets
        .update(d4, |x| {
            x.link_target = Some(d1);
            Ok(())
        })
        .unwrap();
    let gone = m
        .datasets
        .create(
            &m.ids,
            root,
            "gone",
            "generic",
            admin,
            vec![(stored("/g"), 1, None)],
            now,
        )
        .unwrap();
    m.datasets.delete(gone).unwrap();
    step();

    // ContainerPut, ContainerDelete.
    m.containers.append_member(ct, d1, 100).unwrap();
    let ct2 = m
        .containers
        .create(&m.ids, "ct2", lr, 1 << 10, m.clock.now())
        .unwrap();
    m.containers.delete(ct2).unwrap();
    step();

    // MetaPut (every value and kind), MetaDelete, MetaFilesPut,
    // MetaFilesClear.
    let add = |s: Subject, t: Triplet, k: MetaKind| m.metadata.add(&m.ids, s, t, k);
    add(
        Subject::Dataset(d1),
        Triplet::new("wingspan", 290i64, "cm"),
        MetaKind::UserDefined,
    );
    for (i, f) in [0.1f64, 1e21, -2.5e-8, -0.0, 123_456_789.125, 3.0]
        .into_iter()
        .enumerate()
    {
        add(
            Subject::Dataset(d1),
            Triplet::new(format!("f{i}"), f, "m/s"),
            MetaKind::TypeOriented("DublinCore".into()),
        );
    }
    add(
        Subject::Dataset(d2),
        Triplet::new("min", i64::MIN, ""),
        MetaKind::FileBased(d1),
    );
    add(
        Subject::Dataset(d2),
        Triplet::new("max", i64::MAX, ""),
        MetaKind::System,
    );
    add(
        Subject::Collection(zoo),
        Triplet::new(
            "Title",
            "line\nbreak \"q\" back\\slash \u{1}\u{1f} tab\t cr\r é 日本 🐦 /",
            "",
        ),
        MetaKind::UserDefined,
    );
    let doomed = add(
        Subject::Dataset(d3),
        Triplet::new("doomed", "x", ""),
        MetaKind::UserDefined,
    );
    m.metadata.remove(doomed).unwrap();
    m.metadata.attach_meta_file(Subject::Dataset(d3), d2);
    m.metadata.attach_meta_file(Subject::Collection(zoo), d2);
    m.metadata.attach_meta_file(Subject::Collection(zoo), d1);
    m.metadata.attach_meta_file(Subject::Dataset(d4), d1);
    add(
        Subject::Dataset(d4),
        Triplet::new("tmp", 1i64, ""),
        MetaKind::UserDefined,
    );
    m.metadata.remove_all(Subject::Dataset(d4));
    step();

    // Everything above is under the checkpoint; the rest is the tail.
    if checkpoint {
        m.checkpoint_now().unwrap();
    }

    // AnnotationPut, AnnotationDelete, AnnotationClear.
    let now = m.clock.now();
    m.annotations.add(
        &m.ids,
        Subject::Dataset(d1),
        admin,
        now,
        AnnotationKind::Comment,
        "page 3",
        "nice \"bird\"",
    );
    let a2 = m.annotations.add(
        &m.ids,
        Subject::Dataset(d1),
        admin,
        now,
        AnnotationKind::Rating,
        "",
        "5",
    );
    m.annotations.remove(a2, admin).unwrap();
    m.annotations.add(
        &m.ids,
        Subject::Dataset(d3),
        u,
        now,
        AnnotationKind::Errata,
        "frame 1120",
        "typo",
    );
    m.annotations.remove_all(Subject::Dataset(d3));
    step();

    // AuditPut.
    m.audit.record(
        &m.ids,
        m.clock.now(),
        u,
        AuditAction::Ingest,
        "/zoo/condor.jpg",
        "ok",
    );
    m.audit.record(
        &m.ids,
        m.clock.now(),
        admin,
        AuditAction::Read,
        "/zoo/q.sql",
        "PERMISSION_DENIED",
    );
    step();

    // Tail-side puts and deletes of the tables the checkpoint covered.
    m.users
        .register(&m.ids, "mwan", "sdsc", "pw-\"m\"", true)
        .unwrap();
    m.users.remove_from_group(u, g).unwrap();
    let now = m.clock.now();
    let late = m.collections.create(&m.ids, zoo, "late", u, now).unwrap();
    let d5 = m
        .datasets
        .create(
            &m.ids,
            late,
            "d5",
            "generic",
            u,
            vec![(stored("/p/5"), 7, None)],
            now,
        )
        .unwrap();
    m.datasets
        .add_replica(
            &m.ids,
            d5,
            stored("/p/5b"),
            7,
            Some(Checksum::of(b"c")),
            now,
        )
        .unwrap();
    add(
        Subject::Dataset(d5),
        Triplet::new("wingspan", 12.5f64, "cm"),
        MetaKind::UserDefined,
    );
    m.metadata.attach_meta_file(Subject::Dataset(d5), d1);
    m.containers.mark_synced(ct).unwrap();
    m.datasets.delete(d3).unwrap();
    step();
    (m, device)
}

/// A recorded checkpoint: `(cover LSN, text)`.
fn golden_checkpoint(fixture: &'static str) -> (Lsn, &'static str) {
    let (lsn, text) = fixture.split_once('\n').unwrap();
    (Lsn(lsn.parse().unwrap()), text.trim_end_matches('\n'))
}

/// A recorded durable tail: `(LSN, payload)` per line.
fn parse_tail(text: &str) -> Vec<(Lsn, String)> {
    text.lines()
        .map(|l| {
            let (lsn, payload) = l.split_once(' ').unwrap();
            (Lsn(lsn.parse().unwrap()), payload.to_string())
        })
        .collect()
}

fn render_checkpoint(device: &LogDevice) -> String {
    let (ckpt, _, _) = device.read_back().unwrap();
    let (lsn, text) = ckpt.unwrap();
    format!("{}\n{text}\n", lsn.raw())
}

fn render_tail(device: &LogDevice) -> String {
    let (_, tail, _) = device.read_back().unwrap();
    tail.iter()
        .map(|(lsn, p)| format!("{} {p}\n", lsn.raw()))
        .collect()
}

/// Snapshot JSON with the id-allocator watermark nulled out (recovery
/// floors it at the highest id a durable row proves).
fn normalized(json: &str) -> String {
    let mut v: serde_json::Value = serde_json::from_str(json).unwrap();
    if let serde_json::Value::Map(entries) = &mut v {
        for (key, val) in entries.iter_mut() {
            if key == "next_id_floor" {
                *val = serde_json::Value::Null;
            }
        }
    }
    serde_json::to_string(&v).unwrap()
}

/// What a catalog holds: its summary, and every row as the image writes
/// it.
fn contents(m: &Mcat) -> (serde_json::Value, String) {
    (m.summary(), normalized(&m.snapshot_json().unwrap()))
}

#[test]
fn the_writers_reproduce_the_recorded_bytes() {
    let (m, device) = golden_workload(true);
    assert_eq!(render_checkpoint(&device), CHECKPOINT, "checkpoint text");
    assert_eq!(render_tail(&device), TAIL, "WAL tail after the checkpoint");
    assert_eq!(
        m.snapshot_json().unwrap(),
        SNAPSHOT.trim_end(),
        "snapshot_json"
    );
    let (m, device) = golden_workload(false);
    assert_eq!(render_tail(&device), FULL_TAIL, "WAL tail without it");
    assert_eq!(m.snapshot_json().unwrap(), SNAPSHOT.trim_end());
}

#[test]
fn the_recorded_full_tail_holds_every_wal_op_variant() {
    for (tail, opens) in [(FULL_TAIL, ","), (OLD_FULL_TAIL, "\"op\":")] {
        let tail = parse_tail(tail);
        for tag in [
            "UserPut",
            "GroupPut",
            "ResourcePut",
            "LogicalResourcePut",
            "CollectionPut",
            "CollectionDelete",
            "DatasetPut",
            "DatasetDelete",
            "ContainerPut",
            "ContainerDelete",
            "MetaPut",
            "MetaDelete",
            "MetaFilesPut",
            "MetaFilesClear",
            "AnnotationPut",
            "AnnotationDelete",
            "AnnotationClear",
            "AuditPut",
            "Commit",
        ] {
            let needle = format!("{opens}{{\"{tag}\":");
            assert!(
                tail.iter().any(|(_, p)| p.contains(&needle)),
                "{tag} missing from the recorded tail"
            );
        }
    }
}

#[test]
fn recorded_lines_reread_and_rerender_byte_for_byte() {
    for (lsn, payload) in parse_tail(FULL_TAIL) {
        let rec: WalRecord = serde_json::from_str(&payload).unwrap();
        assert_eq!(rec.lsn, lsn.raw());
        assert_eq!(serde_json::to_row_string(&rec).unwrap(), payload);
        let v: serde_json::Value = serde_json::from_str(&payload).unwrap();
        assert_eq!(serde_json::to_string(&v).unwrap(), payload);
    }
    // An object-form line reads as the same record as its twin.
    let twins = parse_tail(OLD_FULL_TAIL)
        .into_iter()
        .zip(parse_tail(FULL_TAIL));
    for ((old_lsn, old), (lsn, payload)) in twins {
        assert_eq!(old_lsn, lsn);
        let rec: WalRecord = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&rec).unwrap(), old);
        assert_eq!(serde_json::to_row_string(&rec).unwrap(), payload);
    }
    let (_, text) = golden_checkpoint(CHECKPOINT);
    let v: serde_json::Value = serde_json::from_str(text).unwrap();
    assert_eq!(serde_json::to_string(&v).unwrap(), text);
}

/// Install a recorded checkpoint and tail on a fresh device, crash it.
fn recorded_device(cover: Lsn, checkpoint: &str, tail: &str) -> Arc<LogDevice> {
    let device = Arc::new(LogDevice::new());
    device.install_checkpoint(cover, checkpoint);
    for (lsn, payload) in parse_tail(tail) {
        device.append(lsn, payload.as_str());
    }
    device.sync();
    device.crash();
    device
}

/// Recover the recorded checkpoint and tail: the catalog's contents and
/// the groups the tail applied.
fn recover(cover: Lsn, checkpoint: &str, tail: &str) -> ((serde_json::Value, String), usize) {
    let device = recorded_device(cover, checkpoint, tail);
    let (rec, report) = Mcat::recover(SimClock::new(), device, NO_CKPT, None).unwrap();
    assert_eq!(report.checkpoint_lsn, cover);
    assert_eq!(report.records_discarded, 0);
    (contents(&rec), report.groups_applied)
}

#[test]
fn a_log_written_by_the_old_code_recovers_to_the_recorded_catalog() {
    let want = contents(&Mcat::restore_json(SimClock::new(), SNAPSHOT).unwrap());
    assert_eq!(want.1, normalized(SNAPSHOT));
    for (checkpoint, tail) in [(CHECKPOINT, TAIL), (OLD_CHECKPOINT, OLD_TAIL)] {
        let (cover, text) = golden_checkpoint(checkpoint);
        let (got, groups) = recover(cover, text, tail);
        assert_eq!(groups, 3);
        assert_eq!(got, want);
    }
    // The full tails replay from the enable-time checkpoint: the image of
    // a fresh catalog, in the form of its tail.
    let fresh = Mcat::new(SimClock::new(), "pw");
    let old_fresh = old_form(&fresh.snapshot_json().unwrap());
    for (image, tail) in [
        (fresh.snapshot_json().unwrap(), FULL_TAIL),
        (old_fresh, OLD_FULL_TAIL),
    ] {
        let (got, groups) = recover(Lsn(0), &checkpoint_of(&image), tail);
        assert!(groups >= 8);
        assert_eq!(got, want);
    }
}

/// The checkpoint text `enable_wal` installs for the catalog `image` at
/// virtual time 0.
fn checkpoint_of(image: &str) -> String {
    format!("{{\"at_ns\":0,\"snapshot\":{image}}}")
}

/// A row-form image of a fresh catalog in the object form the old code
/// wrote: each row read back and written with `write_json`.
fn old_form(image: &str) -> String {
    let snap: srb_mcat::CatalogSnapshot = serde_json::from_str(image).unwrap();
    let users: Vec<String> = snap
        .users
        .iter()
        .map(|u| serde_json::to_string(u).unwrap())
        .collect();
    let collections: Vec<String> = snap
        .collections
        .iter()
        .map(|c| serde_json::to_string(c).unwrap())
        .collect();
    let generations = serde_json::to_string(&snap.generations).unwrap();
    let text = format!(
        "{{\"version\":1,\"next_id_floor\":{},\"admin\":{},\"users\":[{}],\"groups\":[],\
         \"resources\":[],\"logical_resources\":[],\"collections\":[{}],\"datasets\":[],\
         \"containers\":[],\"metadata\":[],\"meta_files\":[],\"annotations\":[],\"audit\":[],\
         \"generations\":{generations}}}",
        snap.next_id_floor,
        snap.admin.raw(),
        users.join(","),
        collections.join(","),
    );
    assert!(!text.contains(":[["), "no row left in the row form: {text}");
    text
}

#[test]
fn the_recorded_catalog_restores_to_the_same_bytes() {
    let m = Mcat::restore_json(SimClock::new(), SNAPSHOT).unwrap();
    assert_eq!(m.snapshot_json().unwrap(), SNAPSHOT.trim_end());
    let old = Mcat::restore_json(SimClock::new(), OLD_SNAPSHOT).unwrap();
    assert_eq!(old.snapshot_json().unwrap(), SNAPSHOT.trim_end());
    assert_eq!(contents(&old), contents(&m));
}

/// `condor.jpg` as the row form writes it, modified a second after it was
/// created: in the golden workload every dataset's two times are equal,
/// so only a row whose times differ shows them swapped.
const CONDOR_ROW: &str = concat!(
    r#"[10,8,"condor.jpg","jpeg image",1,[{"1":"Own","3":"Annotate"},{"4":"Read"},"None"],"#,
    r#"[[11,1,{"Stored":[5,"/p/1"]},1000,"#,
    r#""800d5e662ded100a8dc957381c2a258df6e6313bd3163e6d3ce309162c546c43",[20,0,100],"#,
    r#""UpToDate",123,3000000],[12,2,{"RegisteredFile":[6,"/reg/1"]},5,null,null,"Stale","#,
    r#"null,3000000]],null,["Shared",3,99000],[1,7],[[1,5,"/p/1.v1",999,1,5]],2,3000000,"#,
    r#"4000000]"#
);

#[test]
fn a_rows_fields_keep_their_recorded_order() {
    let (m, _) = golden_workload(false);
    let mut condor = m.datasets.get(DatasetId(10)).unwrap();
    condor.modified = Timestamp(4_000_000);
    assert_eq!(serde_json::to_row_string(&condor).unwrap(), CONDOR_ROW);
    let back: Dataset = serde_json::from_str(CONDOR_ROW).unwrap();
    assert_eq!(
        (back.created, back.modified),
        (Timestamp(3_000_000), Timestamp(4_000_000))
    );
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&condor).unwrap()
    );
}
