//! Zone federation oracles: cross-zone registration provenance, federated
//! query routing, and the partition chaos oracle — a seeded workload
//! replicated across zones survives a mid-replication link partition with
//! no acknowledged home-zone write lost, and both catalogs serialize to
//! byte-identical subtree exports after heal + pump drain.

mod common;

use common::{assert_no_orphans, zone_grid};
use srb_core::{FaultMode, Federation, IngestOptions, SrbConnection, ZoneId};
use srb_mcat::{Mcat, MetaKind, Query, Subject};
use srb_net::LinkSpec;
use srb_types::{SeedStream, SrbError, Triplet};

struct Fed {
    fed: Federation,
    a: ZoneId,
    b: ZoneId,
}

fn two_zones(spec: LinkSpec) -> Fed {
    let mut fed = Federation::new();
    let clock = fed.clock().clone();
    let (grid_a, srv_a) = zone_grid(&clock, "alpha");
    let (grid_b, srv_b) = zone_grid(&clock, "beta");
    let a = fed.add_zone("alpha", grid_a, srv_a).unwrap();
    let b = fed.add_zone("beta", grid_b, srv_b).unwrap();
    fed.link(a, b, spec).unwrap();
    Fed { fed, a, b }
}

fn conn<'f>(f: &'f Fed, z: ZoneId) -> SrbConnection<'f> {
    let zone = f.fed.zone(z).unwrap();
    SrbConnection::connect(&zone.grid, zone.contact(), "sekar", "sdsc", "pw").unwrap()
}

/// Ingest one seeded dataset under `/home/sekar/data` and return its path.
fn seeded_ingest(c: &SrbConnection<'_>, rng: &mut SeedStream, i: usize, res: &str) -> String {
    let path = format!("/home/sekar/data/set{i:03}");
    let size = 64 + rng.below(4096);
    let mut opts = IngestOptions::to_resource(res).with_type("text");
    if rng.next_u64().is_multiple_of(2) {
        opts = opts.with_metadata(Triplet::new(
            "project",
            format!("p{}", rng.below(7)).as_str(),
            "",
        ));
    }
    c.ingest(&path, vec![0xA5u8; size], opts).unwrap();
    path
}

/// The user-defined `name=value` triplets on the collection at `path`.
fn coll_triplets(mcat: &Mcat, path: &str) -> Vec<String> {
    let id = mcat.collections.resolve(&path.parse().unwrap()).unwrap();
    let mut out: Vec<String> = mcat
        .metadata
        .for_subject(Subject::Collection(id))
        .into_iter()
        .filter(|row| row.kind == MetaKind::UserDefined)
        .map(|row| format!("{}={}", row.triplet.name, row.triplet.value.lexical()))
        .collect();
    out.sort();
    out
}

#[test]
fn cross_zone_registration_carries_provenance_and_survives_recovery() {
    let f = two_zones(LinkSpec::wan());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data").unwrap();
    let mut rng = SeedStream::new(0xDEAD_BEEF);
    let src = seeded_ingest(&ca, &mut rng, 0, "fs-alpha");

    f.fed
        .register_remote(f.a, &src, f.b, "/remote/alpha/set000")
        .unwrap();

    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    let id = beta
        .resolve_dataset(&"/remote/alpha/set000".parse().unwrap())
        .unwrap();
    let prov = beta.remote_provenance(id).unwrap();
    assert_eq!(prov, Some(("alpha".to_string(), src.clone())));
    // Local datasets carry no remote provenance.
    let alpha = &f.fed.zone(f.a).unwrap().grid.mcat;
    let home_id = alpha.resolve_dataset(&src.parse().unwrap()).unwrap();
    assert_eq!(alpha.remote_provenance(home_id).unwrap(), None);
}

#[test]
fn federated_query_tags_hits_and_paginates_across_zones() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    let cb = conn(&f, f.b);
    ca.make_collection("/home/sekar/data").unwrap();
    cb.make_collection("/home/sekar/data").unwrap();
    let mut rng = SeedStream::new(42);
    for i in 0..6 {
        let p = seeded_ingest(&ca, &mut rng, i, "fs-alpha");
        ca.add_metadata(&p, Triplet::new("grade", "hot", ""))
            .unwrap();
    }
    for i in 0..5 {
        let p = seeded_ingest(&cb, &mut rng, i, "fs-beta");
        cb.add_metadata(&p, Triplet::new("grade", "hot", ""))
            .unwrap();
    }

    let fc = f.fed.connect(f.a, "sekar", "sdsc", "pw").unwrap();
    let q = Query::everywhere().and("grade", srb_types::CompareOp::Eq, "hot");
    let (hits, receipt) = fc.query(&q).unwrap();
    assert_eq!(hits.len(), 11);
    assert_eq!(hits.iter().filter(|h| h.zone == "alpha").count(), 6);
    assert_eq!(hits.iter().filter(|h| h.zone == "beta").count(), 5);
    assert!(receipt.sim_ns > 0);
    // Deterministic (path, zone) merge order.
    let mut keys: Vec<_> = hits
        .iter()
        .map(|h| (h.hit.path.clone(), h.zone.clone()))
        .collect();
    let sorted = {
        let mut k = keys.clone();
        k.sort();
        k
    };
    assert_eq!(keys, sorted);

    // Pagination with a composite cursor walks the same hit set.
    let mut paged = Vec::new();
    let mut token: Option<String> = None;
    let mut guard = 0;
    loop {
        let (page, next, _r) = fc.query_page(&q, token.as_deref(), 3).unwrap();
        paged.extend(page.into_iter().map(|h| (h.hit.path, h.zone)));
        guard += 1;
        assert!(guard < 20, "cursor failed to terminate");
        match next {
            Some(t) => token = Some(t),
            None => break,
        }
    }
    keys.sort();
    let mut paged_sorted = paged.clone();
    paged_sorted.sort();
    assert_eq!(paged_sorted, keys);
    assert_eq!(paged.len(), 11);

    // Partition the inter-zone link: the federated query degrades to the
    // home zone instead of failing.
    f.fed.partition(f.a, f.b).unwrap();
    let (hits, _r) = fc.query(&q).unwrap();
    assert_eq!(hits.len(), 6);
    assert!(hits.iter().all(|h| h.zone == "alpha"));
}

#[test]
fn partition_chaos_oracle_no_acked_write_lost_and_byte_identical_heal() {
    let f = two_zones(LinkSpec::wan());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data").unwrap();
    let mut rng = SeedStream::new(0x5EED_0001);
    let mut acked: Vec<String> = Vec::new();

    // Phase 1: seeded workload in the home zone, then subscribe beta.
    for i in 0..12 {
        acked.push(seeded_ingest(&ca, &mut rng, i, "fs-alpha"));
    }
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();
    assert_eq!(dst_root, "/zones/alpha/home/sekar/data");

    // Phase 2: more writes, partially pumped so the outbox is non-empty
    // when the link dies.
    for i in 12..24 {
        acked.push(seeded_ingest(&ca, &mut rng, i, "fs-alpha"));
    }
    let r = f.fed.pump(3).unwrap();
    assert!(r.fetched > 0, "pump fetched nothing before the partition");

    // Kill the link mid-replication.
    f.fed.partition(f.a, f.b).unwrap();

    // Phase 3: writes keep committing in the home zone while partitioned.
    for i in 24..30 {
        acked.push(seeded_ingest(&ca, &mut rng, i, "fs-alpha"));
    }
    let blocked = f.fed.pump(8).unwrap();
    assert!(
        blocked.blocked > 0,
        "partitioned pump should report blocked"
    );
    assert_eq!(blocked.fetched, 0, "no deltas may cross a dead link");

    // Oracle 1: no acknowledged write lost in its home zone.
    let alpha = &f.fed.zone(f.a).unwrap().grid.mcat;
    for path in &acked {
        alpha
            .resolve_dataset(&path.parse().unwrap())
            .unwrap_or_else(|e| panic!("acked write {path} lost in home zone: {e}"));
        let (data, _r) = ca.read(path).unwrap();
        assert!(!data.is_empty());
    }

    // Oracle 2: heal, drain, converge byte-identically.
    f.fed.heal(f.a, f.b).unwrap();
    let drained = f.fed.pump_until_drained(8, 1000).unwrap();
    assert_eq!(drained.pending, 0, "outboxes failed to drain after heal");
    let src_digest = f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap();
    let dst_digest = f.fed.subtree_digest(f.b, &dst_root).unwrap();
    assert!(!src_digest.is_empty());
    assert_eq!(
        src_digest, dst_digest,
        "publisher and mirror diverged after heal"
    );
    // The mirror carries every acked dataset.
    assert_eq!(src_digest.matches("\nD ").count() + 1, acked.len());
}

#[test]
fn checkpoint_gap_forces_resync_and_still_converges() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data").unwrap();
    let mut rng = SeedStream::new(0xABCD);
    for i in 0..4 {
        seeded_ingest(&ca, &mut rng, i, "fs-alpha");
    }
    // Collection metadata on the subscribed root: one triplet the initial
    // copy carries, one committed after it.
    ca.add_metadata("/home/sekar/data", Triplet::new("before", "1", ""))
        .unwrap();
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();
    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    assert_eq!(coll_triplets(beta, &dst_root), ["before=1"]);
    ca.add_metadata("/home/sekar/data", Triplet::new("after", "2", ""))
        .unwrap();

    // While partitioned, the publisher both writes and checkpoints, so the
    // subscriber's cursor falls behind the pruned log.
    f.fed.partition(f.a, f.b).unwrap();
    for i in 4..10 {
        seeded_ingest(&ca, &mut rng, i, "fs-alpha");
    }
    let alpha = &f.fed.zone(f.a).unwrap().grid.mcat;
    alpha.checkpoint_now().unwrap();
    f.fed.heal(f.a, f.b).unwrap();

    let drained = f.fed.pump_until_drained(8, 1000).unwrap();
    assert!(drained.resyncs >= 1, "checkpoint gap must force a resync");
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap(),
        f.fed.subtree_digest(f.b, &dst_root).unwrap()
    );
    let status = &f.fed.subscriptions()[0];
    assert!(status.resyncs >= 1);
    assert_eq!(status.outbox, 0);
    // The resync rebuilt the collection metadata and left no orphan rows.
    assert_eq!(coll_triplets(beta, &dst_root), ["after=2", "before=1"]);
    assert_no_orphans(beta);
}

#[test]
fn a_resync_pays_before_it_lands() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data").unwrap();
    let mut rng = SeedStream::new(0xFA11);
    seeded_ingest(&ca, &mut rng, 0, "fs-alpha");
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();

    // Checkpoint gap: the publisher writes and prunes while partitioned.
    f.fed.partition(f.a, f.b).unwrap();
    seeded_ingest(&ca, &mut rng, 1, "fs-alpha");
    f.fed.zone(f.a).unwrap().grid.mcat.checkpoint_now().unwrap();
    f.fed.heal(f.a, f.b).unwrap();

    // The poll (beta -> alpha) passes; the transfer (alpha -> beta) is
    // refused, and the subscriber sees none of the resync.
    f.fed
        .set_link_mode(f.a, f.b, FaultMode::FailNext(1))
        .unwrap();
    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    let image = beta.snapshot_json().unwrap();
    let cursor = f.fed.subscriptions()[0].fetched_lsn;
    let r = f.fed.pump(8).unwrap();
    assert_eq!((r.blocked, r.resyncs), (1, 0));
    assert_eq!(
        beta.snapshot_json().unwrap(),
        image,
        "a refused resync landed"
    );
    let status = &f.fed.subscriptions()[0];
    assert_eq!((status.fetched_lsn, status.resyncs), (cursor, 0));

    // The next round pays, resyncs and converges.
    let drained = f.fed.pump_until_drained(8, 100).unwrap();
    assert_eq!(drained.resyncs, 1);
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap(),
        f.fed.subtree_digest(f.b, &dst_root).unwrap()
    );
    assert_eq!(beta.datasets.count(), 2);
    assert_no_orphans(beta);
}

/// Subscribe beta to `/home/sekar/data` and then to `/home/sekar/other`,
/// let `gone` remove the first root at alpha while partitioned, force a
/// checkpoint gap, and heal: the next rounds must empty the first mirror
/// and keep the second converging.
fn resync_of_a_vanished_root(gone: impl Fn(&SrbConnection<'_>)) {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    for c in [
        "/home/sekar/data",
        "/home/sekar/data/sub",
        "/home/sekar/other",
    ] {
        ca.make_collection(c).unwrap();
    }
    let opts = || IngestOptions::to_resource("fs-alpha").with_type("text");
    ca.ingest("/home/sekar/data/sub/d0", vec![1u8; 64], opts())
        .unwrap();
    ca.add_metadata("/home/sekar/data/sub", Triplet::new("k", "v", ""))
        .unwrap();
    let data_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();
    let other_root = f.fed.subscribe(f.b, f.a, "/home/sekar/other").unwrap();

    f.fed.partition(f.a, f.b).unwrap();
    gone(&ca);
    ca.ingest("/home/sekar/other/o0", vec![2u8; 64], opts())
        .unwrap();
    f.fed.zone(f.a).unwrap().grid.mcat.checkpoint_now().unwrap();
    f.fed.heal(f.a, f.b).unwrap();

    let r = f.fed.pump(8).unwrap();
    assert_eq!(r.resyncs, 2, "both subscriptions fell into the gap");
    let drained = f.fed.pump_until_drained(8, 100).unwrap();
    assert_eq!(drained.pending, 0);
    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    assert!(
        beta.collections
            .resolve(&data_root.parse().unwrap())
            .is_err(),
        "the vanished root's mirror is still served"
    );
    assert_eq!(beta.datasets.count(), 1, "only the other mirror's dataset");
    assert_no_orphans(beta);
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/other").unwrap(),
        f.fed.subtree_digest(f.b, &other_root).unwrap()
    );
}

#[test]
fn a_resync_of_a_deleted_root_empties_the_mirror() {
    resync_of_a_vanished_root(|ca| {
        ca.delete_collection("/home/sekar/data", true).unwrap();
    });
}

#[test]
fn a_resync_of_a_root_moved_away_empties_the_mirror() {
    resync_of_a_vanished_root(|ca| {
        ca.move_logical("/home/sekar/data", "/home/sekar/moved")
            .unwrap();
    });
}

#[test]
fn a_failing_resync_does_not_hold_up_later_subscriptions() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    for c in ["/home/sekar/data", "/home/sekar/other"] {
        ca.make_collection(c).unwrap();
    }
    let data_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();
    let other_root = f.fed.subscribe(f.b, f.a, "/home/sekar/other").unwrap();

    // A local row at beta takes the name the publisher is about to use,
    // so every rebuild of the first mirror collides with it.
    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    let mirror = beta
        .collections
        .resolve(&data_root.parse().unwrap())
        .unwrap();
    beta.datasets
        .create(
            &beta.ids,
            mirror,
            "d0",
            "text",
            beta.admin(),
            Vec::new(),
            beta.clock.now(),
        )
        .unwrap();
    f.fed.partition(f.a, f.b).unwrap();
    let opts = || IngestOptions::to_resource("fs-alpha").with_type("text");
    ca.ingest("/home/sekar/data/d0", vec![1u8; 64], opts())
        .unwrap();
    ca.ingest("/home/sekar/other/o0", vec![2u8; 64], opts())
        .unwrap();
    f.fed.zone(f.a).unwrap().grid.mcat.checkpoint_now().unwrap();
    f.fed.heal(f.a, f.b).unwrap();

    // Each round reports the collision, and the subscription after the
    // failing one is still pumped.
    for _ in 0..3 {
        let r = f.fed.pump(8);
        assert!(matches!(r, Err(SrbError::AlreadyExists(_))), "{r:?}");
    }
    let status = f.fed.subscriptions();
    assert_eq!(status.iter().map(|s| s.resyncs).collect::<Vec<_>>(), [0, 1]);
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/other").unwrap(),
        f.fed.subtree_digest(f.b, &other_root).unwrap()
    );
    // The failed rebuild left the local row and its collection in place.
    assert_eq!(beta.datasets.count(), 2);
    assert!(beta
        .collections
        .resolve(&data_root.parse().unwrap())
        .is_ok());
    assert_no_orphans(beta);
}

#[test]
fn a_subscribe_whose_copy_collides_leaves_no_mirror_rows() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data").unwrap();
    let opts = || IngestOptions::to_resource("fs-alpha").with_type("text");
    for name in ["d0", "d1"] {
        ca.ingest(&format!("/home/sekar/data/{name}"), vec![1u8; 64], opts())
            .unwrap();
    }
    // A local row at beta already holds the second name at the mirror path.
    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    let mut coll = beta.collections.root();
    for part in ["zones", "alpha", "home", "sekar", "data"] {
        coll = beta
            .collections
            .create(&beta.ids, coll, part, beta.admin(), beta.clock.now())
            .unwrap();
    }
    let local = beta
        .datasets
        .create(
            &beta.ids,
            coll,
            "d1",
            "text",
            beta.admin(),
            Vec::new(),
            beta.clock.now(),
        )
        .unwrap();

    let refused = f.fed.subscribe(f.b, f.a, "/home/sekar/data");
    assert!(
        matches!(refused, Err(SrbError::AlreadyExists(_))),
        "{refused:?}"
    );
    assert!(f.fed.subscriptions().is_empty());
    assert_eq!(beta.datasets.count(), 1, "the copied d0 was left behind");
    assert_no_orphans(beta);

    // With the clash gone, the same subscription builds its mirror.
    beta.remove_dataset(local).unwrap();
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap(),
        f.fed.subtree_digest(f.b, &dst_root).unwrap()
    );
}

#[test]
fn a_refused_subscribe_copy_leaves_the_subscriber_untouched() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data").unwrap();
    let mut rng = SeedStream::new(0xFA12);
    seeded_ingest(&ca, &mut rng, 0, "fs-alpha");

    // The handshake (beta -> alpha) passes; the copy (alpha -> beta) fails.
    f.fed
        .set_link_mode(f.a, f.b, FaultMode::FailNext(1))
        .unwrap();
    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    let image = beta.snapshot_json().unwrap();
    let refused = f.fed.subscribe(f.b, f.a, "/home/sekar/data");
    assert!(matches!(refused, Err(SrbError::Timeout(_))), "{refused:?}");
    assert_eq!(
        beta.snapshot_json().unwrap(),
        image,
        "a refused copy landed"
    );
    assert!(f.fed.subscriptions().is_empty());

    // Retried over a healthy link, the subscription builds its mirror.
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap(),
        f.fed.subtree_digest(f.b, &dst_root).unwrap()
    );
}

#[test]
fn federated_pagination_terminates_when_home_has_higher_index() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    let cb = conn(&f, f.b);
    ca.make_collection("/home/sekar/data").unwrap();
    cb.make_collection("/home/sekar/data").unwrap();
    let mut rng = SeedStream::new(9);
    for i in 0..5 {
        let p = seeded_ingest(&ca, &mut rng, i, "fs-alpha");
        ca.add_metadata(&p, Triplet::new("grade", "hot", ""))
            .unwrap();
    }
    for i in 0..4 {
        let p = seeded_ingest(&cb, &mut rng, i, "fs-beta");
        cb.add_metadata(&p, Triplet::new("grade", "hot", ""))
            .unwrap();
    }

    // Home is the *higher* zone index: the first boundary token points at
    // the lower-indexed peer and must not resume back into home (which
    // would duplicate its hits and never terminate).
    let fc = f.fed.connect(f.b, "sekar", "sdsc", "pw").unwrap();
    let q = Query::everywhere().and("grade", srb_types::CompareOp::Eq, "hot");
    let mut paged = Vec::new();
    let mut token: Option<String> = None;
    let mut guard = 0;
    loop {
        let (page, next, _r) = fc.query_page(&q, token.as_deref(), 2).unwrap();
        paged.extend(page.into_iter().map(|h| (h.hit.path.clone(), h.zone)));
        guard += 1;
        assert!(guard < 20, "cursor failed to terminate");
        match next {
            Some(t) => token = Some(t),
            None => break,
        }
    }
    assert_eq!(paged.len(), 9, "every hit exactly once: {paged:?}");
    let (hits, _r) = fc.query(&q).unwrap();
    let mut all: Vec<_> = hits
        .iter()
        .map(|h| (h.hit.path.clone(), h.zone.clone()))
        .collect();
    all.sort();
    paged.sort();
    assert_eq!(paged, all);
}

#[test]
fn replication_follows_collection_moves_and_unmirrors_departed_branches() {
    let f = two_zones(LinkSpec::lan());
    let ca = conn(&f, f.a);
    for c in [
        "/home/sekar/data",
        "/home/sekar/data/keep",
        "/home/sekar/data/leave",
        "/home/sekar/archive",
    ] {
        ca.make_collection(c).unwrap();
    }
    let opts = || IngestOptions::to_resource("fs-alpha").with_type("text");
    ca.ingest("/home/sekar/data/keep/k0", vec![1u8; 64], opts())
        .unwrap();
    ca.ingest("/home/sekar/data/leave/l0", vec![2u8; 64], opts())
        .unwrap();
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();

    // Rename a collection within the subtree; move another branch out of
    // the subtree entirely.
    ca.move_logical("/home/sekar/data/keep", "/home/sekar/data/kept")
        .unwrap();
    ca.move_logical("/home/sekar/data/leave", "/home/sekar/archive/leave")
        .unwrap();
    let drained = f.fed.pump_until_drained(4, 1000).unwrap();
    assert_eq!(drained.pending, 0);
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap(),
        f.fed.subtree_digest(f.b, &dst_root).unwrap(),
        "mirror diverged after publisher collection moves"
    );

    // The renamed collection's mirror kept its dataset, with provenance
    // re-pointed at the new publisher path.
    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    let kept = beta
        .resolve_dataset(&format!("{dst_root}/kept/k0").parse().unwrap())
        .unwrap();
    assert_eq!(
        beta.remote_provenance(kept).unwrap(),
        Some(("alpha".to_string(), "/home/sekar/data/kept/k0".to_string()))
    );
    // The departed branch is gone from the mirror.
    assert!(beta
        .resolve_dataset(&format!("{dst_root}/leave/l0").parse().unwrap())
        .is_err());

    // A dataset created under the renamed collection *after* the move
    // derives its provenance from the new path, not the stale one.
    ca.ingest("/home/sekar/data/kept/k1", vec![3u8; 64], opts())
        .unwrap();
    f.fed.pump_until_drained(4, 1000).unwrap();
    let k1 = beta
        .resolve_dataset(&format!("{dst_root}/kept/k1").parse().unwrap())
        .unwrap();
    assert_eq!(
        beta.remote_provenance(k1).unwrap(),
        Some(("alpha".to_string(), "/home/sekar/data/kept/k1".to_string()))
    );
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap(),
        f.fed.subtree_digest(f.b, &dst_root).unwrap()
    );
}

#[test]
fn irrelevant_churn_does_not_pin_cursor_into_resync() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data").unwrap();
    let mut rng = SeedStream::new(3);
    seeded_ingest(&ca, &mut rng, 0, "fs-alpha");
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();
    f.fed.pump_until_drained(4, 100).unwrap();

    // The publisher's WAL tail is pure irrelevant churn (user puts), then
    // a checkpoint prunes the log. The fetch cursor must keep up through
    // the churn, or the prune lands past it and forces a spurious resync.
    let alpha = f.fed.zone(f.a).unwrap();
    for i in 0..5 {
        alpha
            .grid
            .register_user(&format!("churn{i}"), "sdsc", "pw")
            .unwrap();
    }
    f.fed.pump(4).unwrap(); // fetches the churn; nothing relevant
    alpha.grid.mcat.checkpoint_now().unwrap();

    seeded_ingest(&ca, &mut rng, 1, "fs-alpha");
    let drained = f.fed.pump_until_drained(4, 100).unwrap();
    assert_eq!(
        drained.resyncs, 0,
        "irrelevant churn pinned the fetch cursor"
    );
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap(),
        f.fed.subtree_digest(f.b, &dst_root).unwrap()
    );
}

#[test]
fn failed_subscribe_leaves_no_mirror_behind() {
    // Two zones with no peering link: the subscription handshake must
    // fail before any subscriber-catalog mutation.
    let mut fed = Federation::new();
    let clock = fed.clock().clone();
    let (grid_a, srv_a) = zone_grid(&clock, "alpha");
    let (grid_b, srv_b) = zone_grid(&clock, "beta");
    let a = fed.add_zone("alpha", grid_a, srv_a).unwrap();
    let b = fed.add_zone("beta", grid_b, srv_b).unwrap();
    {
        let zone_a = fed.zone(a).unwrap();
        let ca =
            SrbConnection::connect(&zone_a.grid, zone_a.contact(), "sekar", "sdsc", "pw").unwrap();
        ca.make_collection("/home/sekar/data").unwrap();
        let mut rng = SeedStream::new(1);
        seeded_ingest(&ca, &mut rng, 0, "fs-alpha");
    }
    assert!(fed.subscribe(b, a, "/home/sekar/data").is_err());
    assert!(fed.subscriptions().is_empty());
    let beta = &fed.zone(b).unwrap().grid.mcat;
    assert!(
        beta.collections
            .resolve(&"/zones".parse().unwrap())
            .is_err(),
        "failed subscribe left a half-built mirror behind"
    );
}

#[test]
fn replication_tracks_moves_deletes_and_metadata_changes() {
    let f = two_zones(LinkSpec::lan());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data").unwrap();
    ca.make_collection("/home/sekar/data/sub").unwrap();
    let mut rng = SeedStream::new(7);
    for i in 0..6 {
        seeded_ingest(&ca, &mut rng, i, "fs-alpha");
    }
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();

    // Mutate after the initial copy: rename, move, delete, re-tag.
    ca.move_logical("/home/sekar/data/set000", "/home/sekar/data/renamed")
        .unwrap();
    ca.move_logical("/home/sekar/data/set001", "/home/sekar/data/sub/moved")
        .unwrap();
    ca.delete("/home/sekar/data/set002", None).unwrap();
    ca.add_metadata(
        "/home/sekar/data/set003",
        Triplet::new("grade", "cold", "K"),
    )
    .unwrap();

    let drained = f.fed.pump_until_drained(4, 1000).unwrap();
    assert_eq!(drained.pending, 0);
    assert_eq!(
        f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap(),
        f.fed.subtree_digest(f.b, &dst_root).unwrap()
    );

    // Replication lag was observed against the shared virtual clock.
    let status = &f.fed.subscriptions()[0];
    assert!(status.max_lag_ns > 0);
    assert!(status.applied > 0);
}

/// Alpha publishes `/home/sekar/data` to beta; gamma subscribes to beta's
/// mirror of it, so whatever reaches beta must reach gamma too.
struct Chain {
    f: Fed,
    c: ZoneId,
    beta_root: String,
    gamma_root: String,
}

fn chain() -> Chain {
    let mut f = two_zones(LinkSpec::lan());
    let clock = f.fed.clock().clone();
    let (grid_c, srv_c) = zone_grid(&clock, "gamma");
    let c = f.fed.add_zone("gamma", grid_c, srv_c).unwrap();
    f.fed.link(f.b, c, LinkSpec::lan()).unwrap();
    let ca = conn(&f, f.a);
    for coll in ["/home/sekar/data", "/home/sekar/out"] {
        ca.make_collection(coll).unwrap();
    }
    let beta_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();
    let gamma_root = f.fed.subscribe(c, f.b, &beta_root).unwrap();
    Chain {
        f,
        c,
        beta_root,
        gamma_root,
    }
}

/// Drain, then hold every zone of the chain to alpha's digest and every
/// catalog free of orphans; returns alpha's digest.
fn assert_chain_converged(ch: &Chain) -> String {
    let drained = ch.f.fed.pump_until_drained(8, 1000).unwrap();
    assert_eq!(drained.pending, 0);
    let fed = &ch.f.fed;
    let want = fed.subtree_digest(ch.f.a, "/home/sekar/data").unwrap();
    assert_eq!(fed.subtree_digest(ch.f.b, &ch.beta_root).unwrap(), want);
    assert_eq!(fed.subtree_digest(ch.c, &ch.gamma_root).unwrap(), want);
    for z in [ch.f.a, ch.f.b, ch.c] {
        assert_no_orphans(&fed.zone(z).unwrap().grid.mcat);
    }
    want
}

#[test]
fn a_dataset_moved_in_arrives_with_its_metadata() {
    let ch = chain();
    let ca = conn(&ch.f, ch.f.a);
    let opts = IngestOptions::to_resource("fs-alpha")
        .with_type("text")
        .with_metadata(Triplet::new("k", 2i64, ""));
    ca.ingest("/home/sekar/out/y", vec![7u8; 96], opts).unwrap();
    ch.f.fed.pump_until_drained(8, 1000).unwrap();
    ca.move_logical("/home/sekar/out/y", "/home/sekar/data/y")
        .unwrap();
    let want = assert_chain_converged(&ch);
    assert!(want.contains("\nM /y user k=2 []"), "{want}");
}

#[test]
fn a_collection_moved_in_arrives_with_its_content() {
    let ch = chain();
    let ca = conn(&ch.f, ch.f.a);
    ca.make_collection("/home/sekar/out/c/sub").unwrap();
    for (name, t) in [
        ("d1", Triplet::new("k", 1i64, "")),
        ("d2", Triplet::new("band", "ir", "nm")),
    ] {
        let opts = IngestOptions::to_resource("fs-alpha")
            .with_type("text")
            .with_metadata(t);
        let path = format!("/home/sekar/out/c/{name}");
        ca.ingest(&path, vec![1u8; 64], opts).unwrap();
    }
    ca.add_metadata("/home/sekar/out/c/d1", Triplet::new("grade", "hot", ""))
        .unwrap();
    ca.add_metadata("/home/sekar/out/c/sub", Triplet::new("tier", "2", ""))
        .unwrap();
    ch.f.fed.pump_until_drained(8, 1000).unwrap();
    ca.move_logical("/home/sekar/out/c", "/home/sekar/data/c")
        .unwrap();
    let want = assert_chain_converged(&ch);
    for line in [
        "C /c/sub",
        "D /c/d1 text 64",
        "M /c/d1 user grade=hot []",
        "M /c/d2 user band=ir [nm]",
        "CM /c/sub user tier=2 []",
    ] {
        assert!(want.contains(line), "no `{line}` in:\n{want}");
    }
}

/// A moved-in subject whose live name another mirrored row gives up only
/// in a later delta: the move's put is stale by the time it applies, and
/// the subject's later put brings it in once the name is free. Returns
/// alpha's digest.
fn moved_in_onto_a_name_freed_later(
    x: &str,
    y: &str,
    w: &str,
    make: impl Fn(&SrbConnection<'_>),
) -> String {
    let ch = chain();
    let ca = conn(&ch.f, ch.f.a);
    make(&ca);
    ch.f.fed.pump_until_drained(8, 1000).unwrap();
    let data = |name: &str| format!("/home/sekar/data/{name}");
    ca.move_logical(&format!("/home/sekar/out/{x}"), &data(x))
        .unwrap();
    ca.move_logical(&data(y), &data(w)).unwrap();
    ca.move_logical(&data(x), &data(y)).unwrap();
    assert_chain_converged(&ch)
}

#[test]
fn a_dataset_moved_in_onto_a_name_freed_later_converges() {
    let want = moved_in_onto_a_name_freed_later("y", "a", "b", |ca| {
        for (path, k) in [("/home/sekar/out/y", 2i64), ("/home/sekar/data/a", 1)] {
            let opts = IngestOptions::to_resource("fs-alpha")
                .with_type("text")
                .with_metadata(Triplet::new("k", k, ""));
            ca.ingest(path, vec![7u8; 96], opts).unwrap();
        }
    });
    for line in ["D /a text 96", "M /a user k=2 []", "M /b user k=1 []"] {
        assert!(want.contains(line), "no `{line}` in:\n{want}");
    }
}

#[test]
fn a_collection_moved_in_onto_a_name_freed_later_stays_apart() {
    let want = moved_in_onto_a_name_freed_later("x", "y", "w", |ca| {
        for (coll, k) in [("/home/sekar/out/x", 1i64), ("/home/sekar/data/y", 2)] {
            ca.make_collection(coll).unwrap();
            ca.add_metadata(coll, Triplet::new("k", k, "")).unwrap();
            let opts = IngestOptions::to_resource("fs-alpha").with_type("text");
            ca.ingest(&format!("{coll}/d{k}"), vec![1u8; 64], opts)
                .unwrap();
        }
    });
    for line in [
        "CM /y user k=1 []",
        "D /y/d1 text",
        "CM /w user k=2 []",
        "D /w/d2 text",
    ] {
        assert!(want.contains(line), "no `{line}` in:\n{want}");
    }
    assert!(!want.contains("/w/d1") && !want.contains("/y/d2"), "{want}");
}

#[test]
fn a_move_in_the_link_refuses_waits_at_the_head_of_the_outbox() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    for coll in ["/home/sekar/data", "/home/sekar/out"] {
        ca.make_collection(coll).unwrap();
    }
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();
    let opts = IngestOptions::to_resource("fs-alpha")
        .with_type("text")
        .with_metadata(Triplet::new("k", 2i64, ""));
    ca.ingest("/home/sekar/out/y", vec![7u8; 96], opts).unwrap();
    ca.move_logical("/home/sekar/out/y", "/home/sekar/data/y")
        .unwrap();
    // Apply one delta a round until only the move is left.
    while f.fed.subscriptions()[0].outbox != 1 {
        f.fed.pump(1).unwrap();
    }
    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    let image = beta.snapshot_json().unwrap();
    f.fed
        .set_link_mode(f.a, f.b, FaultMode::FailNext(1))
        .unwrap();
    let r = f.fed.pump(1).unwrap();
    assert_eq!((r.blocked, r.applied, r.pending), (1, 0, 1));
    assert_eq!(
        beta.snapshot_json().unwrap(),
        image,
        "a refused walk landed"
    );

    f.fed.pump_until_drained(8, 100).unwrap();
    let want = f.fed.subtree_digest(f.a, "/home/sekar/data").unwrap();
    assert_eq!(f.fed.subtree_digest(f.b, &dst_root).unwrap(), want);
    assert!(want.contains("M /y user k=2 []"), "{want}");
}

/// Subscribe beta to `first`, then try `second` from the same publisher:
/// the overlapping root is refused and nothing changes.
fn overlapping_subscribe_is_refused(first: &str, second: &str) {
    let f = two_zones(LinkSpec::lan());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data/sub").unwrap();
    ca.make_collection("/home/sekar/database").unwrap();
    ca.add_metadata("/home/sekar/data/sub", Triplet::new("k", "v", ""))
        .unwrap();
    // No datasets yet: a second copy of the same rows would not collide.
    let root = f.fed.subscribe(f.b, f.a, first).unwrap();
    let beta = &f.fed.zone(f.b).unwrap().grid.mcat;
    let image = beta.snapshot_json().unwrap();
    let refused = f.fed.subscribe(f.b, f.a, second);
    assert!(
        matches!(refused, Err(SrbError::AlreadyExists(_))),
        "{refused:?}"
    );
    assert_eq!(f.fed.subscriptions().len(), 1);
    assert_eq!(beta.snapshot_json().unwrap(), image, "the refusal wrote");
    // A sibling that only shares a name prefix is not an overlap.
    f.fed.subscribe(f.b, f.a, "/home/sekar/database").unwrap();
    let opts = || IngestOptions::to_resource("fs-alpha");
    ca.ingest("/home/sekar/data/sub/d0", vec![1u8; 64], opts())
        .unwrap();
    ca.ingest("/home/sekar/data/d2", vec![3u8; 64], opts())
        .unwrap();
    f.fed.pump_until_drained(8, 100).unwrap();
    assert_eq!(
        f.fed.subtree_digest(f.a, first).unwrap(),
        f.fed.subtree_digest(f.b, &root).unwrap()
    );
    assert_no_orphans(beta);
}

#[test]
fn a_subscription_under_a_subscribed_root_is_refused() {
    overlapping_subscribe_is_refused("/home/sekar/data", "/home/sekar/data/sub");
}

#[test]
fn a_subscription_over_a_subscribed_root_is_refused() {
    overlapping_subscribe_is_refused("/home/sekar/data/sub", "/home/sekar/data");
}
