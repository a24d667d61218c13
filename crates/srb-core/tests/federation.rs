//! Federation behaviour: load balancing across replicas, parallel client
//! pools, migration, and hop accounting; and the zone convergence digest's
//! view of a catalog.

mod common;

use common::{connect, grid, zone_grid};
use srb_core::{Federation, IngestOptions, ReplicaPolicy, SrbConnection};
use srb_mcat::dataset::AccessSpec;
use srb_mcat::{Dataset, Mcat, MetaKind, Subject};
use srb_types::{
    Checksum, CollectionId, DatasetId, MetaValue, Permission, ResourceId, Triplet, UserId,
};

#[test]
fn least_loaded_policy_spreads_reads_across_replicas() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/hot",
        vec![7u8; 4096],
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.replicate("/home/sekar/hot", "unix-ncsa").unwrap();
    let unix_sdsc = f.grid.resource_id("unix-sdsc").unwrap();
    let unix_ncsa = f.grid.resource_id("unix-ncsa").unwrap();
    for _ in 0..50 {
        conn.read("/home/sekar/hot").unwrap();
    }
    // Completed ops include the ingest-store, the replicate's read+store,
    // and the 50 reads.
    let a = f.grid.load.completed(unix_sdsc);
    let b = f.grid.load.completed(unix_ncsa);
    assert_eq!(a + b, 53);
    assert!(
        a >= 15 && b >= 15,
        "least-loaded should alternate between replicas, got {a}/{b}"
    );
}

#[test]
fn first_alive_policy_hammers_replica_one() {
    let f = grid();
    let mut conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/hot",
        b"data",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.replicate("/home/sekar/hot", "unix-ncsa").unwrap();
    conn.set_policy(ReplicaPolicy::FirstAlive);
    let unix_ncsa = f.grid.resource_id("unix-ncsa").unwrap();
    let before = f.grid.load.completed(unix_ncsa);
    for _ in 0..20 {
        conn.read("/home/sekar/hot").unwrap();
    }
    assert_eq!(
        f.grid.load.completed(unix_ncsa),
        before,
        "FirstAlive never touches replica 2 while replica 1 is up"
    );
}

#[test]
fn parallel_clients_ingest_concurrently() {
    let f = grid();
    let admin_conn = connect(&f, "sekar");
    admin_conn.make_collection("/home/sekar/bulk").unwrap();
    admin_conn
        .grant("/home/sekar/bulk", admin_conn.user(), Permission::Own)
        .unwrap();
    let threads = 8;
    let per_thread = 25;
    std::thread::scope(|s| {
        for t in 0..threads {
            let f = &f;
            s.spawn(move || {
                let conn =
                    SrbConnection::connect(&f.grid, f.sdsc, "sekar", "sdsc", "pw-sekar").unwrap();
                for i in 0..per_thread {
                    conn.ingest(
                        &format!("/home/sekar/bulk/t{t}-f{i}"),
                        format!("payload {t}/{i}").as_bytes(),
                        IngestOptions::to_resource("unix-sdsc"),
                    )
                    .unwrap();
                }
            });
        }
    });
    let conn = connect(&f, "sekar");
    let (_, datasets, _) = conn.list_collection("/home/sekar/bulk").unwrap();
    assert_eq!(datasets.len(), threads * per_thread);
    // Spot-check content integrity under concurrency.
    let (data, _) = conn.read("/home/sekar/bulk/t3-f7").unwrap();
    assert_eq!(&data[..], b"payload 3/7");
}

#[test]
fn parallel_readers_with_failover_mid_stream() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/shared",
        b"resilient",
        IngestOptions::to_resource("logrsrc1"),
    )
    .unwrap();
    std::thread::scope(|s| {
        let f_ref = &f;
        // Reader threads hammer the object…
        for _ in 0..4 {
            s.spawn(move || {
                let conn =
                    SrbConnection::connect(&f_ref.grid, f_ref.sdsc, "sekar", "sdsc", "pw-sekar")
                        .unwrap();
                for _ in 0..100 {
                    let (data, _) = conn.read("/home/sekar/shared").unwrap();
                    assert_eq!(&data[..], b"resilient");
                }
            });
        }
        // …while a chaos thread flaps one resource.
        s.spawn(move || {
            for _ in 0..20 {
                f_ref.grid.fail_resource("unix-sdsc").unwrap();
                std::thread::yield_now();
                f_ref.grid.restore_resource("unix-sdsc").unwrap();
                std::thread::yield_now();
            }
        });
    });
}

#[test]
fn migration_preserves_names_and_data() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.make_collection("/home/sekar/archive2001/sub").unwrap();
    for i in 0..20 {
        conn.ingest(
            &format!("/home/sekar/archive2001/f{i}"),
            format!("record {i}").as_bytes(),
            IngestOptions::to_resource("unix-sdsc"),
        )
        .unwrap();
    }
    conn.ingest(
        "/home/sekar/archive2001/sub/deep",
        b"nested",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    // Migrate the whole collection onto the new-generation resource.
    conn.migrate_collection("/home/sekar/archive2001", "unix-ncsa")
        .unwrap();
    // Every logical name still resolves and returns identical content.
    for i in 0..20 {
        let (data, _) = conn.read(&format!("/home/sekar/archive2001/f{i}")).unwrap();
        assert_eq!(&data[..], format!("record {i}").as_bytes());
    }
    assert_eq!(
        &conn.read("/home/sekar/archive2001/sub/deep").unwrap().0[..],
        b"nested"
    );
    // The old resource is empty; the new one holds everything.
    let old = f.grid.resource_id("unix-sdsc").unwrap();
    let new = f.grid.resource_id("unix-ncsa").unwrap();
    assert_eq!(f.grid.driver(old).unwrap().driver().used_bytes(), 0);
    assert!(f.grid.driver(new).unwrap().driver().used_bytes() > 0);
}

#[test]
fn hop_accounting_scales_with_distance() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/near",
        vec![1u8; 10_000],
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/far",
        vec![1u8; 10_000],
        IngestOptions::to_resource("unix-ncsa"),
    )
    .unwrap();
    let (_, near) = conn.read("/home/sekar/near").unwrap();
    let (_, far) = conn.read("/home/sekar/far").unwrap();
    assert_eq!(near.hops, 0, "local data, local contact");
    assert_eq!(far.hops, 1, "data brokered by the NCSA server");
    assert!(
        far.sim_ns > near.sim_ns,
        "WAN transfer must cost more than local ({} vs {})",
        far.sim_ns,
        near.sim_ns
    );
}

#[test]
fn network_traffic_is_accounted() {
    let f = grid();
    let before_msgs = f.grid.network.message_count();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/f",
        vec![1u8; 50_000],
        IngestOptions::to_resource("unix-ncsa"),
    )
    .unwrap();
    conn.read("/home/sekar/f").unwrap();
    assert!(f.grid.network.message_count() > before_msgs);
    assert!(
        f.grid.network.bytes_moved() >= 100_000,
        "ingest + read moved the payload twice"
    );
}

/// The digest fixture's dataset, the collection holding it, and a
/// sub-collection.
struct Subjects {
    d: DatasetId,
    root: CollectionId,
    sub: CollectionId,
}

/// A one-field change to the digest fixture, made straight in the catalog.
type Mutant = (&'static str, fn(&Mcat, &Subjects));

/// A triplet rewrite: the fixture's user-defined triplet and kind in, the
/// replacement out.
type Retag = fn(Triplet, MetaKind) -> (Triplet, MetaKind);

/// `/home/sekar/data` in a one-zone federation: a dataset and a
/// sub-collection, each carrying one user-defined triplet. Returns the
/// subtree's digest after `mutate` has edited the catalog.
fn digest_after(mutate: fn(&Mcat, &Subjects)) -> String {
    let mut fed = Federation::new();
    let (grid, srv) = zone_grid(&fed.clock().clone(), "alpha");
    let z = fed.add_zone("alpha", grid, srv).unwrap();
    let zone = fed.zone(z).unwrap();
    let c = SrbConnection::connect(&zone.grid, srv, "sekar", "sdsc", "pw").unwrap();
    c.make_collection("/home/sekar/data/sub").unwrap();
    let opts = IngestOptions::to_resource("fs-alpha")
        .with_type("text")
        .with_metadata(Triplet::new("k", "v", "u"));
    c.ingest("/home/sekar/data/d", vec![1u8; 64], opts).unwrap();
    c.add_metadata("/home/sekar/data/sub", Triplet::new("k", "v", "u"))
        .unwrap();
    let m = &zone.grid.mcat;
    let coll = |p: &str| m.collections.resolve(&p.parse().unwrap()).unwrap();
    let subjects = Subjects {
        d: m.resolve_dataset(&"/home/sekar/data/d".parse().unwrap())
            .unwrap(),
        root: coll("/home/sekar/data"),
        sub: coll("/home/sekar/data/sub"),
    };
    mutate(m, &subjects);
    fed.subtree_digest(z, "/home/sekar/data").unwrap()
}

fn edit_dataset(m: &Mcat, d: DatasetId, edit: impl FnOnce(&mut Dataset)) {
    m.datasets
        .update(d, |row| {
            edit(row);
            Ok(())
        })
        .unwrap();
}

/// Replace the user-defined triplet on `subject` through `edit`.
fn retag(m: &Mcat, subject: Subject, edit: Retag) {
    let mut rows = m.metadata.for_subject(subject).into_iter();
    let row = rows.find(|r| r.kind == MetaKind::UserDefined).unwrap();
    m.metadata.remove(row.id).unwrap();
    let (t, kind) = edit(row.triplet, row.kind);
    m.metadata.add(&m.ids, subject, t, kind);
}

#[test]
fn the_digest_sees_every_field_a_mirror_carries_and_nothing_zone_local() {
    let base = digest_after(|_, _| {});
    assert!(base.contains("D /d text 64 "), "{base}");
    assert!(base.contains("M /d user k=v [u]"), "{base}");
    assert!(base.contains("CM /sub user k=v [u]"), "{base}");
    let seen: [Mutant; 13] = [
        ("dataset name", |m, s| {
            m.datasets.move_dataset(s.d, s.root, "e").unwrap()
        }),
        ("data type", |m, s| {
            edit_dataset(m, s.d, |r| r.data_type = "fits".into())
        }),
        ("size", |m, s| {
            edit_dataset(m, s.d, |r| r.replicas[0].size += 1)
        }),
        ("checksum", |m, s| {
            edit_dataset(m, s.d, |r| {
                r.replicas[0].checksum = Some(Checksum::of(b"beef"))
            })
        }),
        ("collection name", |m, s| {
            m.collections.move_collection(s.sub, s.root, "tub").unwrap()
        }),
        ("dataset triplet name", |m, s| {
            retag(m, Subject::Dataset(s.d), RETAGS[0])
        }),
        ("dataset triplet value", |m, s| {
            retag(m, Subject::Dataset(s.d), RETAGS[1])
        }),
        ("dataset triplet units", |m, s| {
            retag(m, Subject::Dataset(s.d), RETAGS[2])
        }),
        ("dataset triplet kind", |m, s| {
            retag(m, Subject::Dataset(s.d), RETAGS[3])
        }),
        ("collection triplet name", |m, s| {
            retag(m, Subject::Collection(s.sub), RETAGS[0])
        }),
        ("collection triplet value", |m, s| {
            retag(m, Subject::Collection(s.sub), RETAGS[1])
        }),
        ("collection triplet units", |m, s| {
            retag(m, Subject::Collection(s.sub), RETAGS[2])
        }),
        ("collection triplet kind", |m, s| {
            retag(m, Subject::Collection(s.sub), RETAGS[3])
        }),
    ];
    for (what, mutate) in seen {
        let got = digest_after(mutate);
        assert_ne!(got, base, "a changed {what} left the digest");
    }

    let unseen: [Mutant; 4] = [
        ("owner", |m, s| {
            edit_dataset(m, s.d, |r| r.owner = UserId(r.owner.raw() + 1))
        }),
        ("ACL", |m, s| {
            edit_dataset(m, s.d, |r| r.acl.public = Permission::Read)
        }),
        ("replica location", |m, s| {
            edit_dataset(m, s.d, |r| {
                r.replicas[0].spec = AccessSpec::Stored {
                    resource: ResourceId(999),
                    phys_path: "elsewhere".into(),
                }
            })
        }),
        ("system rows", |m, s| {
            for subject in [Subject::Dataset(s.d), Subject::Collection(s.sub)] {
                let t = Triplet::new("zone_home", MetaValue::Text("x".into()), "");
                m.metadata.add(&m.ids, subject, t, MetaKind::System);
            }
        }),
    ];
    for (what, mutate) in unseen {
        let got = digest_after(mutate);
        assert_eq!(got, base, "a changed {what} moved the digest");
    }
}

/// One change each to a triplet's name, value, units and kind.
const RETAGS: [Retag; 4] = [
    |t, k| (Triplet::new("j", t.value, t.units), k),
    |t, k| (Triplet::new(t.name, "w", t.units), k),
    |t, k| (Triplet::new(t.name, t.value, "nm"), k),
    |t, _| (t, MetaKind::TypeOriented("fits".into())),
];
