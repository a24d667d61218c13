//! Op-atomicity oracle: a marker-terminated WAL group is one *operation*.
//!
//! A seeded sequence of connection-level ops — ingest with metadata,
//! ingest into a container, copy, move, delete, `add_metadata`, cross-zone
//! registration — runs on a durable zone, recording the catalog after
//! every op. The whole run is deterministic, so "power cut at LSN L" is
//! modeled by re-running, pinning the log device at L, and recovering.
//!
//! The oracle: at EVERY LSN the recovered catalog equals the reference
//! catalog after some whole number of ops — the last one whose commit
//! marker made it to disk. Never a dataset without its metadata, its
//! provenance or its audit row.

#[allow(dead_code)]
mod common;

use common::normalized;
use srb_core::{Federation, GridBuilder, IngestOptions, SrbConnection, ZoneId};
use srb_mcat::{CatalogSnapshot, Mcat, WalConfig};
use srb_net::LinkSpec;
use srb_obs::metric;
use srb_storage::LogDevice;
use srb_types::{Lsn, SeedStream, SimClock, Triplet};
use std::sync::Arc;

const NO_CKPT: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};
const SEED: u64 = 0x0A70_31C1_7E57;
const OPS: usize = 36;

struct World {
    fed: Federation,
    alpha: ZoneId,
    beta: ZoneId,
    /// Alpha's log device — the one the oracle cuts.
    device: Arc<LogDevice>,
}

/// Two zones on one clock. Alpha (under test) has a file system plus a
/// cache/archive pair behind a container store; beta only publishes the
/// datasets alpha cross-registers.
fn world() -> World {
    let mut fed = Federation::new();
    let clock = fed.clock().clone();
    let device = Arc::new(LogDevice::new());
    let mut zones = Vec::new();
    for tag in ["alpha", "beta"] {
        let mut gb = GridBuilder::new();
        gb.clock(clock.clone());
        let site = gb.site(&format!("site-{tag}"));
        let srv = gb.server(&format!("srb-{tag}"), site);
        gb.fs_resource("fs", srv)
            .cache_resource("cache", srv, 1 << 20)
            .archive_resource("tape", srv)
            .logical_resource("ct-store", &["cache", "tape"]);
        let grid = gb.build();
        if tag == "alpha" {
            grid.enable_durability(device.clone(), NO_CKPT).unwrap();
        }
        grid.register_user("sekar", "sdsc", "pw").unwrap();
        zones.push(fed.add_zone(tag, grid, srv).unwrap());
    }
    fed.link(zones[0], zones[1], LinkSpec::metro()).unwrap();
    World {
        fed,
        alpha: zones[0],
        beta: zones[1],
        device,
    }
}

fn connect(w: &World, z: ZoneId) -> SrbConnection<'_> {
    let zone = w.fed.zone(z).unwrap();
    SrbConnection::connect(&zone.grid, zone.contact(), "sekar", "sdsc", "pw").unwrap()
}

/// Run set-up plus the first `ops` seeded ops; return the world and, per
/// op boundary (index 0 = after set-up), alpha's durable LSN and catalog.
fn run(ops: usize) -> (World, Vec<(Lsn, String)>) {
    let w = world();
    let a = connect(&w, w.alpha);
    let b = connect(&w, w.beta);
    a.create_container("ct", "ct-store", 1 << 16).unwrap();
    a.make_collection("/home/sekar/data").unwrap();
    for i in 0..4 {
        b.ingest(
            &format!("/home/sekar/pub{i}"),
            vec![7u8; 32 + i],
            IngestOptions::to_resource("fs").with_metadata(Triplet::new("n", i as i64, "")),
        )
        .unwrap();
    }
    let mcat = &w.fed.zone(w.alpha).unwrap().grid.mcat;
    let wal = mcat.wal().unwrap();
    let mut states = vec![(wal.durable_lsn(), normalized(mcat))];
    let mut rng = SeedStream::new(SEED);
    let mut live: Vec<String> = Vec::new();
    for i in 0..ops {
        w.fed.clock().advance(1_000_000);
        let fresh = format!("/home/sekar/data/o{i:03}");
        let pick = |rng: &mut SeedStream, live: &[String]| {
            (!live.is_empty()).then(|| rng.below(live.len()))
        };
        // Failures (a picked dataset is a remote pointer a copy cannot
        // read, …) are ops too: they audit and commit like any other.
        match rng.below(7) {
            0 => {
                let opts = IngestOptions::to_resource("fs")
                    .with_metadata(Triplet::new("serial", i as i64, ""))
                    .with_metadata(Triplet::new("kind", "plain", ""));
                a.ingest(&fresh, vec![1u8; 16 + i], opts).unwrap();
                live.push(fresh);
            }
            1 => {
                let opts = IngestOptions::into_container("ct")
                    .with_metadata(Triplet::new("serial", i as i64, ""));
                a.ingest(&fresh, vec![2u8; 8 + i], opts).unwrap();
                live.push(fresh);
            }
            2 => {
                if let Some(k) = pick(&mut rng, &live) {
                    if a.copy(&live[k], &fresh, "fs").is_ok() {
                        live.push(fresh);
                    }
                }
            }
            3 => {
                if let Some(k) = pick(&mut rng, &live) {
                    if a.move_logical(&live[k], &fresh).is_ok() {
                        live[k] = fresh;
                    }
                }
            }
            4 => {
                if let Some(k) = pick(&mut rng, &live) {
                    if a.delete(&live[k], None).is_ok() {
                        live.swap_remove(k);
                    }
                }
            }
            5 => {
                if let Some(k) = pick(&mut rng, &live) {
                    a.add_metadata(&live[k], Triplet::new("note", i as i64, ""))
                        .unwrap();
                }
            }
            _ => {
                let src = format!("/home/sekar/pub{}", rng.below(4));
                w.fed
                    .register_remote(w.beta, &src, w.alpha, &fresh)
                    .unwrap();
                live.push(fresh);
            }
        }
        assert_eq!(
            wal.take_pending_ns(),
            0,
            "op {i} left durability cost behind"
        );
        states.push((wal.durable_lsn(), normalized(mcat)));
    }
    (w, states)
}

#[test]
fn every_lsn_recovers_to_a_whole_number_of_ops() {
    let (w_ref, states) = run(OPS);
    let first = states[0].0.raw();
    let last = states[OPS].0.raw();
    assert_eq!(w_ref.device.synced_lsn().raw(), last);
    assert!(states.windows(2).all(|p| p[0].0 <= p[1].0));
    assert!(
        states.windows(2).any(|p| p[1].0.raw() - p[0].0.raw() >= 5),
        "the workload must contain multi-table ops worth tearing"
    );
    drop(w_ref);

    // Determinism: the same seed reproduces the same log and states.
    let (w2, states2) = run(OPS);
    assert_eq!(states, states2);
    drop(w2);

    for kill in first..=last {
        let (w, _) = run(OPS);
        w.device.truncate_after(Lsn(kill));
        let (rec, report) =
            Mcat::recover(SimClock::new(), w.device.clone(), NO_CKPT, None).unwrap();
        let whole_ops = states.iter().rposition(|(l, _)| l.raw() <= kill).unwrap();
        assert_eq!(
            normalized(&rec),
            states[whole_ops].1,
            "kill at lsn {kill}: recovered catalog must be the reference after {whole_ops} ops"
        );
        assert_eq!(
            report.records_discarded as u64,
            kill - states[whole_ops].0.raw(),
            "kill at lsn {kill}: the torn op's records are discarded, all of them"
        );
        // Spelled out, though equality above implies it: no pointer
        // without provenance, no dataset without its ingest triplet.
        let snap: CatalogSnapshot = serde_json::from_str(&rec.snapshot_json().unwrap()).unwrap();
        for d in snap.datasets {
            rec.remote_provenance(d.id).unwrap();
        }
    }
}

#[test]
fn one_ingest_is_five_records_and_one_fsync() {
    let w = world();
    let a = connect(&w, w.alpha);
    let grid = &w.fed.zone(w.alpha).unwrap().grid;
    let before = grid.metrics_snapshot();
    let (appends, syncs, _) = w.device.stats();
    let receipt = a
        .ingest(
            "/home/sekar/one",
            b"7 bytes".as_slice(),
            IngestOptions::to_resource("fs")
                .with_metadata(Triplet::new("a", 1i64, ""))
                .with_metadata(Triplet::new("b", 2i64, "")),
        )
        .unwrap();
    let after = grid.metrics_snapshot();
    // Dataset row, two triplets, audit row, commit marker.
    assert_eq!(
        after.counter(metric!("wal.appends"), "") - before.counter(metric!("wal.appends"), ""),
        5
    );
    assert_eq!(
        after.counter(metric!("wal.group_commits"), "")
            - before.counter(metric!("wal.group_commits"), ""),
        1
    );
    let (appends2, syncs2, _) = w.device.stats();
    assert_eq!((appends2 - appends, syncs2 - syncs), (5, 1));
    assert!(
        receipt.sim_ns >= 5_000_000,
        "the receipt pays for its fsync"
    );
}
