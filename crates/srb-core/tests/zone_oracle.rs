//! Zone federation oracles: cross-zone registration provenance, federated
//! query routing, and the partition chaos oracle — a seeded workload
//! replicated across zones survives a mid-replication link partition with
//! no acknowledged home-zone write lost, and both catalogs serialize to
//! byte-identical subtree exports after heal + pump drain.

use srb_core::{Federation, GridBuilder, IngestOptions, SrbConnection, ZoneId};
use srb_mcat::{Query, WalConfig};
use srb_net::LinkSpec;
use srb_storage::LogDevice;
use srb_types::{ServerId, SimClock, Triplet};
use std::sync::Arc;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One single-site zone grid on the shared federation clock, with WAL
/// durability and periodic checkpoints off (tests trigger checkpoints
/// explicitly to exercise the resync path deterministically).
fn zone_grid(clock: &SimClock, tag: &str) -> (srb_core::Grid, ServerId) {
    let mut gb = GridBuilder::new();
    gb.clock(clock.clone());
    let site = gb.site(&format!("site-{tag}"));
    let srv = gb.server(&format!("srb-{tag}"), site);
    gb.fs_resource(&format!("fs-{tag}"), srv);
    let grid = gb.build();
    grid.enable_durability(
        Arc::new(LogDevice::new()),
        WalConfig {
            checkpoint_interval_ns: 0,
        },
    )
    .unwrap();
    grid.register_user("sekar", "sdsc", "pw").unwrap();
    (grid, srv)
}

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
fn seeded_ingest(c: &SrbConnection<'_>, rng: &mut u64, i: usize, res: &str) -> String {
    let path = format!("/home/sekar/data/set{i:03}");
    let size = 64 + (splitmix64(rng) % 4096) as usize;
    let mut opts = IngestOptions::to_resource(res).with_type("text");
    if splitmix64(rng).is_multiple_of(2) {
        opts = opts.with_metadata(Triplet::new(
            "project",
            format!("p{}", splitmix64(rng) % 7).as_str(),
            "",
        ));
    }
    c.ingest(&path, vec![0xA5u8; size], opts).unwrap();
    path
}

#[test]
fn cross_zone_registration_carries_provenance_and_survives_recovery() {
    let f = two_zones(LinkSpec::wan());
    let ca = conn(&f, f.a);
    ca.make_collection("/home/sekar/data").unwrap();
    let mut rng = 0xDEAD_BEEFu64;
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
    let mut rng = 42u64;
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
    let mut rng = 0x5EED_0001u64;
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
    let mut rng = 0xABCDu64;
    for i in 0..4 {
        seeded_ingest(&ca, &mut rng, i, "fs-alpha");
    }
    let dst_root = f.fed.subscribe(f.b, f.a, "/home/sekar/data").unwrap();

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
}

#[test]
fn federated_pagination_terminates_when_home_has_higher_index() {
    let f = two_zones(LinkSpec::metro());
    let ca = conn(&f, f.a);
    let cb = conn(&f, f.b);
    ca.make_collection("/home/sekar/data").unwrap();
    cb.make_collection("/home/sekar/data").unwrap();
    let mut rng = 9u64;
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
    let mut rng = 3u64;
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
        let mut rng = 1u64;
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
    let mut rng = 7u64;
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
