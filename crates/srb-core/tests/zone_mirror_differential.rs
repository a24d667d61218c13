//! Differential oracle for the one mirror path: a mirror built from
//! deltas and a mirror built by one resync hold the same subtree.
//!
//! Three zones share one clock. `alpha` publishes `/home/sekar/data`;
//! `beta` subscribes first and pumps after every publisher op (with one
//! forced checkpoint-gap resync mid-run); `gamma` subscribes once at the
//! end, so a single resync builds its mirror. After draining, both
//! mirrors must serialize to the publisher's digest, every mirrored
//! dataset's `zone_path` provenance must name its current publisher path,
//! and no zone may hold a metadata row or annotation whose subject is
//! gone.

mod common;

use common::{assert_no_orphans, zone_grid};
use srb_core::{Federation, IngestOptions, SrbConnection, ZoneId};
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
}

fn world() -> World {
    let mut fed = Federation::new();
    let clock = fed.clock().clone();
    let mut zone = |tag: &str| {
        let (grid, srv) = zone_grid(&clock, tag);
        fed.add_zone(tag, grid, srv).unwrap()
    };
    let (alpha, beta, gamma) = (zone("alpha"), zone("beta"), zone("gamma"));
    fed.link(alpha, beta, LinkSpec::metro()).unwrap();
    fed.link(alpha, gamma, LinkSpec::lan()).unwrap();
    World {
        fed,
        alpha,
        beta,
        gamma,
    }
}

/// The publisher subtree as it stands: collection paths (root first) and
/// dataset paths, both in catalog order.
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
        for ds in mcat.datasets.list(id) {
            dss.push(coll.path.child(&ds.name).unwrap().to_string());
        }
        colls.push(coll.path.to_string());
    }
    (colls, dss)
}

fn pick<'a>(rng: &mut SeedStream, from: &'a [String]) -> Option<&'a str> {
    (!from.is_empty()).then(|| from[rng.below(from.len())].as_str())
}

/// One seeded publisher op. Every op is one the grid accepts; an op with
/// nothing to act on makes a fresh collection instead.
fn publisher_op(c: &SrbConnection<'_>, mcat: &Mcat, rng: &mut SeedStream, n: usize) {
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
    let choice = rng.below(16);
    let parent = pick(rng, &colls).unwrap();
    let done = match choice {
        0..=3 => {
            let mut opts = IngestOptions::to_resource("fs-alpha").with_type("text");
            for t in 0..rng.below(3) {
                let v = format!("v{}", rng.below(5));
                opts = opts.with_metadata(Triplet::new(format!("attr{t}"), v.as_str(), ""));
            }
            c.ingest(&format!("{parent}/d{n}"), vec![n as u8; 16 + n], opts)
        }
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

    let mut rng = SeedStream::new(seed);
    for n in 0..OPS {
        // Checkpoint gap mid-run: beta's cursor falls behind the pruned
        // log, so its next round is a resync.
        let gap = n == OPS / 2;
        if gap {
            w.fed.partition(w.alpha, w.beta).unwrap();
        }
        publisher_op(&c, &zone(w.alpha).mcat, &mut rng, n);
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
    for z in [w.alpha, w.beta, w.gamma] {
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
