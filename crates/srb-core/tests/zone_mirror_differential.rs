//! Differential oracle for the one mirror path: a mirror built from
//! deltas and a mirror built by one resync hold the same subtree.
//!
//! Four zones share one clock. `alpha` publishes `/home/sekar/data`;
//! `beta` subscribes first and pumps after every publisher op (with one
//! forced checkpoint-gap resync mid-run); `omega` subscribes to beta's
//! mirror at the start, so it replicates a replica; `gamma` subscribes
//! once at the end, so a single resync builds its mirror. The op mix
//! includes every op that brings rows into the subtree: ingests, bulk
//! ingests, copies, registered files, links, and datasets and whole
//! collections moved in from outside. After draining, every mirror must
//! serialize to the publisher's digest, every dataset beta and gamma
//! mirror must carry `zone_path` provenance naming its current publisher
//! path, and no zone may hold a metadata row or annotation whose subject
//! is gone.

mod common;

use common::{assert_no_orphans, zone_grid};
use srb_core::{Federation, Grid, IngestOptions, RegisterSpec, SrbConnection, ZoneId};
use srb_mcat::{Mcat, MetaKind};
use srb_net::LinkSpec;
use srb_types::{LogicalPath, MetaId, MetaValue, SeedStream, Triplet};

const SRC_ROOT: &str = "/home/sekar/data";
const OUTSIDE: &str = "/home/sekar/outside";
const OPS: usize = 120;

struct World {
    fed: Federation,
    alpha: ZoneId,
    beta: ZoneId,
    gamma: ZoneId,
    omega: ZoneId,
}

fn world() -> World {
    let mut fed = Federation::new();
    let clock = fed.clock().clone();
    let mut zone = |tag: &str| {
        let (grid, srv) = zone_grid(&clock, tag);
        fed.add_zone(tag, grid, srv).unwrap()
    };
    let (alpha, beta, gamma) = (zone("alpha"), zone("beta"), zone("gamma"));
    let omega = zone("omega");
    fed.link(alpha, beta, LinkSpec::metro()).unwrap();
    fed.link(alpha, gamma, LinkSpec::lan()).unwrap();
    fed.link(beta, omega, LinkSpec::lan()).unwrap();
    World {
        fed,
        alpha,
        beta,
        gamma,
        omega,
    }
}

/// The publisher subtree as it stands: collection paths (root first) and
/// dataset paths, both in catalog order, links left out.
fn subtree(mcat: &Mcat) -> (Vec<String>, Vec<String>) {
    let root = mcat
        .collections
        .resolve(&SRC_ROOT.parse().unwrap())
        .unwrap();
    let mut ids = vec![root];
    ids.extend(mcat.collections.descendants(root));
    let mut colls = Vec::new();
    let mut dss = Vec::new();
    for id in ids {
        let coll = mcat.collections.get(id).unwrap();
        if coll.link_target.is_some() {
            continue;
        }
        for ds in mcat.datasets.list(id) {
            if ds.link_target.is_none() {
                dss.push(coll.path.child(&ds.name).unwrap().to_string());
            }
        }
        colls.push(coll.path.to_string());
    }
    (colls, dss)
}

fn pick<'a>(rng: &mut SeedStream, from: &'a [String]) -> Option<&'a str> {
    (!from.is_empty()).then(|| from[rng.below(from.len())].as_str())
}

/// Some user-defined triplets, from none to two.
fn triplets(rng: &mut SeedStream) -> Vec<Triplet> {
    (0..rng.below(3))
        .map(|t| {
            Triplet::new(
                format!("attr{t}"),
                format!("v{}", rng.below(5)).as_str(),
                "",
            )
        })
        .collect()
}

fn ingest_opts(rng: &mut SeedStream) -> IngestOptions {
    let opts = IngestOptions::to_resource("fs-alpha").with_type("text");
    triplets(rng)
        .into_iter()
        .fold(opts, |o, t| o.with_metadata(t))
}

/// A fresh dataset outside the subtree, with metadata.
fn outside_dataset(c: &SrbConnection<'_>, rng: &mut SeedStream, name: &str) -> String {
    let path = format!("{OUTSIDE}/{name}");
    c.ingest(&path, vec![7u8; 40], ingest_opts(rng)).unwrap();
    path
}

/// A collection outside the subtree to move in: one of those that left
/// the subtree earlier, or a fresh one holding two datasets and a
/// sub-collection, all with metadata.
fn outside_collection(
    c: &SrbConnection<'_>,
    mcat: &Mcat,
    rng: &mut SeedStream,
    n: usize,
) -> String {
    let outside = mcat.collections.resolve(&OUTSIDE.parse().unwrap()).unwrap();
    let gone: Vec<String> = (mcat.collections.children(outside).into_iter())
        .map(|coll| coll.path.to_string())
        .collect();
    if let Some(path) = pick(rng, &gone).filter(|_| rng.below(2) == 0) {
        return path.to_string();
    }
    let root = format!("{OUTSIDE}/oc{n}");
    c.make_collection(&format!("{root}/sub")).unwrap();
    for name in ["a", "b"] {
        outside_dataset(c, rng, &format!("oc{n}/{name}"));
    }
    for coll in [&root, &format!("{root}/sub")] {
        for t in triplets(rng) {
            c.add_metadata(coll, t).unwrap();
        }
    }
    root
}

/// One seeded publisher op. Every op is one the grid accepts; an op with
/// nothing to act on makes a fresh collection instead.
fn publisher_op(c: &SrbConnection<'_>, grid: &Grid, rng: &mut SeedStream, n: usize) {
    let mcat = &grid.mcat;
    let (colls, dss) = subtree(mcat);
    let subjects: Vec<String> = colls.iter().chain(&dss).cloned().collect();
    let nested = &colls[1..]; // everything but the subscribed root
    let user_rows: Vec<(String, MetaId)> = subjects
        .iter()
        .flat_map(|p| {
            c.metadata(p)
                .unwrap()
                .into_iter()
                .filter(|r| r.kind == MetaKind::UserDefined)
                .map(move |r| (p.clone(), r.id))
        })
        .collect();
    let choice = rng.below(22);
    let parent = pick(rng, &colls).unwrap();
    let done = match choice {
        0..=3 => c.ingest(
            &format!("{parent}/d{n}"),
            vec![n as u8; 16 + n],
            ingest_opts(rng),
        ),
        4 | 5 => c.make_collection(&format!("{parent}/c{n}")),
        6..=8 => {
            let target = pick(rng, &subjects).unwrap();
            let t = Triplet::new(format!("tag{}", rng.below(4)), n as i64, "u");
            c.add_metadata(target, t)
        }
        // Update or delete a user-defined row on a dataset or collection.
        9 if !user_rows.is_empty() => {
            let (path, id) = &user_rows[rng.below(user_rows.len())];
            if rng.below(2) == 0 {
                c.update_metadata(path, *id, MetaValue::Int(n as i64), "k")
            } else {
                c.delete_metadata(path, *id)
            }
        }
        // Rename or move a dataset within the subtree.
        10 if !dss.is_empty() => {
            let ds = pick(rng, &dss).unwrap();
            c.move_logical(ds, &format!("{parent}/r{n}"))
        }
        // Rename or move a collection within the subtree, never under
        // itself.
        11 if !nested.is_empty() => {
            let coll = pick(rng, nested).unwrap();
            let inside = format!("{coll}/");
            let parents: Vec<String> = colls
                .iter()
                .filter(|p| *p != coll && !p.starts_with(&inside))
                .cloned()
                .collect();
            let to = pick(rng, &parents).unwrap();
            c.move_logical(coll, &format!("{to}/m{n}"))
        }
        // A collection leaves the subtree.
        12 if !nested.is_empty() => {
            let coll = pick(rng, nested).unwrap();
            c.move_logical(coll, &format!("{OUTSIDE}/gone{n}"))
        }
        13 if !dss.is_empty() => c.delete(pick(rng, &dss).unwrap(), None),
        14 if !nested.is_empty() => c.delete_collection(pick(rng, nested).unwrap(), true),
        // A dataset moved in from outside, metadata and all.
        15 => {
            let from = outside_dataset(c, rng, &format!("o{n}"));
            c.move_logical(&from, &format!("{parent}/i{n}"))
        }
        // A collection with content moved in from outside.
        16 => {
            let from = outside_collection(c, mcat, rng, n);
            c.move_logical(&from, &format!("{parent}/ic{n}"))
        }
        // A link into the subtree: to an outside dataset or collection.
        17 => {
            let target = match rng.below(2) {
                0 => outside_dataset(c, rng, &format!("t{n}")),
                _ => OUTSIDE.to_string(),
            };
            c.link(&target, &format!("{parent}/l{n}"))
        }
        18 if !dss.is_empty() => {
            let from = pick(rng, &dss).unwrap();
            c.copy(from, &format!("{parent}/cp{n}"), "fs-alpha")
        }
        19 => {
            let files = (0..2 + rng.below(2))
                .map(|i| (format!("b{n}-{i}"), vec![i as u8; 24 + n].into()))
                .collect();
            c.ingest_bulk(parent, files, &ingest_opts(rng))
                .map(|(_, r)| r)
        }
        // A file already on the resource, registered into the subtree.
        20 => {
            let fs = grid.resource_id("fs-alpha").unwrap();
            let phys_path = format!("ext/f{n}");
            let driver = grid.driver(fs).unwrap();
            driver.driver().create(&phys_path, &[n as u8; 32]).unwrap();
            let spec = RegisterSpec::File {
                resource: "fs-alpha".into(),
                phys_path,
            };
            c.register(&format!("{parent}/f{n}"), spec, ingest_opts(rng))
        }
        _ => c.make_collection(&format!("{SRC_ROOT}/c{n}")),
    };
    done.unwrap_or_else(|e| panic!("publisher op {choice} #{n} refused: {e}"));
}

/// Every mirrored dataset under `dst_root` points at its current path in
/// the publisher, and that path resolves there.
fn assert_provenance_current(mirror: &Mcat, dst_root: &str, publisher: &Mcat) {
    let dst_root: LogicalPath = dst_root.parse().unwrap();
    let src_root: LogicalPath = SRC_ROOT.parse().unwrap();
    let root = mirror.collections.resolve(&dst_root).unwrap();
    let mut ids = vec![root];
    ids.extend(mirror.collections.descendants(root));
    for coll in ids {
        for ds in mirror.datasets.list(coll) {
            let here = mirror.dataset_path(ds.id).unwrap();
            let want = here.rebase(&dst_root, &src_root).unwrap().to_string();
            let prov = mirror.remote_provenance(ds.id).unwrap();
            assert_eq!(prov, Some(("alpha".to_string(), want.clone())), "{here}");
            publisher
                .resolve_dataset(&want.parse().unwrap())
                .unwrap_or_else(|e| panic!("provenance {want} is not a publisher path: {e}"));
        }
    }
}

fn run(seed: u64) {
    let w = world();
    let zone = |z| &w.fed.zone(z).unwrap().grid;
    let home = w.fed.zone(w.alpha).unwrap();
    let c = SrbConnection::connect(&home.grid, home.contact(), "sekar", "sdsc", "pw").unwrap();
    c.make_collection(SRC_ROOT).unwrap();
    c.make_collection(OUTSIDE).unwrap();
    c.add_metadata(SRC_ROOT, Triplet::new("owner", "sekar", ""))
        .unwrap();
    let beta_root = w.fed.subscribe(w.beta, w.alpha, SRC_ROOT).unwrap();
    let omega_root = w.fed.subscribe(w.omega, w.beta, &beta_root).unwrap();

    let mut rng = SeedStream::new(seed);
    for n in 0..OPS {
        // Checkpoint gap mid-run: beta's cursor falls behind the pruned
        // log, so its next round is a resync.
        let gap = n == OPS / 2;
        if gap {
            w.fed.partition(w.alpha, w.beta).unwrap();
        }
        publisher_op(&c, zone(w.alpha), &mut rng, n);
        if gap {
            zone(w.alpha).mcat.checkpoint_now().unwrap();
            w.fed.heal(w.alpha, w.beta).unwrap();
        }
        w.fed.pump_until_drained(8, 1000).unwrap();
    }
    assert!(
        w.fed.subscriptions()[0].resyncs >= 1,
        "seed {seed}: the checkpoint gap forced no resync"
    );

    let gamma_root = w.fed.subscribe(w.gamma, w.alpha, SRC_ROOT).unwrap();
    let drained = w.fed.pump_until_drained(8, 1000).unwrap();
    assert_eq!(drained.pending, 0);

    let want = w.fed.subtree_digest(w.alpha, SRC_ROOT).unwrap();
    for (z, root) in [(w.beta, &beta_root), (w.gamma, &gamma_root)] {
        let got = w.fed.subtree_digest(z, root).unwrap();
        assert_eq!(
            got, want,
            "seed {seed}: mirror {z} diverged from its publisher"
        );
        assert_provenance_current(&zone(z).mcat, root, &zone(w.alpha).mcat);
    }
    let chained = w.fed.subtree_digest(w.omega, &omega_root).unwrap();
    assert_eq!(
        chained, want,
        "seed {seed}: the mirror of beta's mirror diverged"
    );
    for z in [w.alpha, w.beta, w.gamma, w.omega] {
        assert_no_orphans(&zone(z).mcat);
    }
    assert!(
        want.contains("CM "),
        "seed {seed}: no collection metadata compared"
    );
}

#[test]
fn resync_and_deltas_build_the_same_mirror() {
    for seed in [1, 0x5EED, 0xD1FF_0003, 42] {
        run(seed);
    }
}
