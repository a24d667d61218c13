//! Crash–restart chaos oracle for the MCAT write-ahead log.
//!
//! A seeded mixed workload (collections, datasets, moves, deletes,
//! replicas, metadata, annotations, users, groups, containers, resources)
//! runs against a WAL-enabled catalog, recording after every operation the
//! durable commit-marker LSN and a snapshot of the catalog. Because the
//! whole simulation is deterministic, re-running the workload reproduces
//! the log byte-for-byte — so "kill -9 at LSN L" is modeled by re-running,
//! truncating the durable log after L, and recovering.
//!
//! The oracle: for ANY kill point, the recovered catalog must be
//! byte-identical (modulo the id-allocator watermark, which may lag by ids
//! burned in unacknowledged work) to the reference run's state at the last
//! commit marker at or before L. Acknowledged mutations are never lost;
//! unacknowledged ones never half-apply.

use srb_mcat::{
    export_deltas, AccessSpec, AnnotationKind, AuditAction, CatalogSnapshot, DeltaFetch, Mcat,
    MetaKind, Subject, WalConfig, WalOp,
};
use srb_obs::metric;
use srb_storage::{DriverKind, LogDevice};
use srb_types::{
    Checksum, CollectionId, DatasetId, Lsn, ResourceId, SeedStream, SimClock, SiteId, SrbError,
    Timestamp, Triplet,
};
use std::sync::Arc;

/// Snapshot JSON with the id-allocator watermark normalized out: recovery
/// floors the allocator at the highest id any durable row proves, which
/// may lag the live allocator by ids burned in deletes or unacknowledged
/// mutations. Every *row* must still match byte-for-byte.
fn normalized(m: &Mcat) -> String {
    let mut v: serde_json::Value = serde_json::from_str(&m.snapshot_json().unwrap()).unwrap();
    if let serde_json::Value::Map(entries) = &mut v {
        for (key, val) in entries.iter_mut() {
            if key == "next_id_floor" {
                *val = serde_json::Value::Null;
            }
        }
    }
    serde_json::to_string(&v).unwrap()
}

fn stored(step: usize) -> AccessSpec {
    AccessSpec::Stored {
        resource: ResourceId(1),
        phys_path: format!("/phys/{step}"),
    }
}

/// One op per step, committed by the step (tables only log), so every
/// recorded `(marker LSN, snapshot)` pair is an acknowledgment boundary.
fn run_workload(
    seed: u64,
    ops: usize,
    config: WalConfig,
) -> (Mcat, Arc<LogDevice>, Vec<(Lsn, String)>) {
    let clock = SimClock::new();
    let m = Mcat::new(clock.clone(), "pw");
    let device = Arc::new(LogDevice::new());
    m.enable_wal(device.clone(), config, None).unwrap();
    let admin = m.admin();
    let mut rng = SeedStream::new(seed);
    let mut colls: Vec<CollectionId> = vec![m.collections.root()];
    let mut datasets: Vec<DatasetId> = Vec::new();
    let mut acked = Vec::new();
    for step in 0..ops {
        clock.advance(1_000_000);
        let now = m.clock.now();
        match rng.below(12) {
            0 => {
                let p = colls[rng.below(colls.len())];
                if let Ok(c) = m
                    .collections
                    .create(&m.ids, p, &format!("c{step}"), admin, now)
                {
                    colls.push(c);
                }
            }
            1 | 2 => {
                let c = colls[rng.below(colls.len())];
                let size = (step as u64 % 977) * 7;
                if let Ok(d) = m.datasets.create(
                    &m.ids,
                    c,
                    &format!("d{step}"),
                    "generic",
                    admin,
                    vec![(stored(step), size, None)],
                    now,
                ) {
                    datasets.push(d);
                }
            }
            3 | 4 => {
                if !datasets.is_empty() {
                    let d = datasets[rng.below(datasets.len())];
                    m.metadata.add(
                        &m.ids,
                        Subject::Dataset(d),
                        Triplet::new("step", step as i64, ""),
                        MetaKind::UserDefined,
                    );
                }
            }
            5 => {
                if !datasets.is_empty() {
                    let d = datasets[rng.below(datasets.len())];
                    let c = colls[rng.below(colls.len())];
                    let _ = m.datasets.move_dataset(d, c, &format!("m{step}"));
                }
            }
            6 => {
                if datasets.len() > 2 {
                    let d = datasets.remove(rng.below(datasets.len()));
                    let _ = m.datasets.delete(d);
                }
            }
            7 => {
                if !datasets.is_empty() {
                    let d = datasets[rng.below(datasets.len())];
                    m.annotations.add(
                        &m.ids,
                        Subject::Dataset(d),
                        admin,
                        now,
                        AnnotationKind::Comment,
                        "",
                        &format!("note {step}"),
                    );
                }
            }
            8 => {
                let _ = m
                    .users
                    .register(&m.ids, &format!("u{step}"), "sdsc", "pw", false);
            }
            9 => {
                if !datasets.is_empty() {
                    let d = datasets[rng.below(datasets.len())];
                    let _ = m.datasets.update(d, |x| {
                        x.modified = now;
                        Ok(())
                    });
                }
            }
            10 => {
                if !datasets.is_empty() {
                    let d = datasets[rng.below(datasets.len())];
                    let _ = m
                        .datasets
                        .add_replica(&m.ids, d, stored(step + 10_000), 16, None, now);
                }
            }
            11 => {
                let _ = m.resources.register(
                    &m.ids,
                    &format!("r{step}"),
                    DriverKind::FileSystem,
                    SiteId(0),
                );
            }
            _ => unreachable!(),
        }
        m.commit();
        m.maybe_checkpoint().unwrap();
        let marker = m.wal().unwrap().durable_lsn();
        acked.push((marker, normalized(&m)));
    }
    (m, device, acked)
}

const NO_CKPT: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};

/// The state the reference run had acknowledged at `kill`: the snapshot
/// recorded at the last commit marker at or before it.
fn expected_at(acked: &[(Lsn, String)], kill: u64) -> &str {
    acked
        .iter()
        .rev()
        .find(|(l, _)| l.raw() <= kill)
        .map(|(_, s)| s.as_str())
        .unwrap()
}

#[test]
fn kill_at_random_lsn_recovers_exactly_the_acknowledged_prefix() {
    let seed = 0xC0FF_EE00_5EED;
    let ops = 90;
    let (m_ref, dev_ref, acked) = run_workload(seed, ops, NO_CKPT);

    // Determinism: an identical run produces an identical log and states.
    let (_m2, dev2, acked2) = run_workload(seed, ops, NO_CKPT);
    assert_eq!(acked, acked2, "two seeded runs must agree state-for-state");
    assert_eq!(dev_ref.stats(), dev2.stats());
    assert_eq!(dev_ref.log_bytes(), dev2.log_bytes());
    drop(m_ref);

    let first = acked.first().unwrap().0.raw();
    let last = acked.last().unwrap().0.raw();
    assert!(last > first, "workload must acknowledge many groups");

    // Random kill points, plus the exact first/last ack boundaries and a
    // deliberate mid-group cut one record past an ack boundary.
    let mut rng = SeedStream::new(seed ^ 0x5EED);
    let mut kills: Vec<u64> = (0..8)
        .map(|_| first + rng.next_u64() % (last - first))
        .collect();
    kills.push(first);
    kills.push(last);
    kills.push(acked[acked.len() / 2].0.raw() + 1);

    for kill in kills {
        let (m3, dev3, _) = run_workload(seed, ops, NO_CKPT);
        drop(m3);
        dev3.truncate_after(Lsn(kill));
        let (rec, report) = Mcat::recover(SimClock::new(), dev3, NO_CKPT, None).unwrap();
        assert_eq!(
            normalized(&rec),
            expected_at(&acked, kill),
            "kill at lsn {kill}: recovered catalog must equal the acked prefix"
        );
        assert!(report.durable_lsn.raw() <= kill);
        assert!(report.recovery_ns > 0, "recovery cost must be modeled");
    }
}

#[test]
fn periodic_checkpoints_bound_the_tail_and_survive_crashes() {
    let seed = 0xBAD_C0DE;
    let ops = 70;
    // 1 ms of virtual time per op, checkpoint every 5 ms → many cycles.
    let cfg = WalConfig {
        checkpoint_interval_ns: 5_000_000,
    };
    let (m_ref, dev_ref, acked) = run_workload(seed, ops, cfg);
    let cover = dev_ref
        .checkpoint_lsn()
        .expect("periodic checkpoints must have fired");
    assert!(cover.raw() > 0);
    let (_, _, records_past_ckpt) = dev_ref.stats();
    assert!(
        (records_past_ckpt as u64) < acked.last().unwrap().0.raw(),
        "checkpoints must prune the covered log prefix"
    );
    drop(m_ref);

    // kill -9 right at the end: the buffered tail vanishes, everything
    // acknowledged survives.
    let (m2, dev2, _) = run_workload(seed, ops, cfg);
    drop(m2);
    dev2.crash();
    let (rec, report) = Mcat::recover(SimClock::new(), dev2, cfg, None).unwrap();
    assert_eq!(normalized(&rec), acked.last().unwrap().1);
    assert_eq!(report.checkpoint_lsn, cover);

    // Kill between the last checkpoint and the end of the log: replay
    // starts from the checkpoint and applies the surviving tail groups.
    let last = acked.last().unwrap().0.raw();
    let kill = cover.raw() + (last - cover.raw()) / 2;
    let (m3, dev3, _) = run_workload(seed, ops, cfg);
    drop(m3);
    dev3.truncate_after(Lsn(kill));
    let (rec, report) = Mcat::recover(SimClock::new(), dev3, cfg, None).unwrap();
    assert_eq!(normalized(&rec), expected_at(&acked, kill));
    assert_eq!(report.checkpoint_lsn, cover);
}

#[test]
fn recovered_catalog_resumes_durable_operation() {
    let seed = 0xFEED_FACE;
    let (m, device, acked) = run_workload(seed, 40, NO_CKPT);
    let floor_before = m.ids.allocated();
    drop(m);
    device.crash();

    let (rec, _) = Mcat::recover(SimClock::new(), device.clone(), NO_CKPT, None).unwrap();
    assert_eq!(normalized(&rec), acked.last().unwrap().1);

    // The recovered catalog keeps working durably: a new dataset written
    // after recovery survives a second crash–recover cycle, and its id
    // cannot collide with any surviving row.
    let root = rec.collections.root();
    let admin = rec.admin();
    let d = rec
        .datasets
        .create(
            &rec.ids,
            root,
            "post-crash.dat",
            "generic",
            admin,
            vec![(stored(1), 5, None)],
            rec.clock.now(),
        )
        .unwrap();
    rec.commit();
    drop(rec);
    device.crash();
    let (rec2, report2) = Mcat::recover(SimClock::new(), device, NO_CKPT, None).unwrap();
    let got = rec2.datasets.get(d).unwrap();
    assert_eq!(got.name, "post-crash.dat");
    assert!(report2.groups_applied >= 1, "the new write was in the tail");
    assert!(
        rec2.ids.allocated() <= floor_before + 2,
        "recovery floors the allocator near the durable rows, never wildly past them"
    );
}

/// Recovery rebuilds the metadata indexes through the same path as a live
/// insert, the multi-valued side set included: a two-sided range on the
/// recovered catalog still finds the dataset whose *different* rows
/// satisfy its two halves — whether its rows came back from the
/// checkpoint, from the replayed tail, or one from each.
#[test]
fn two_sided_range_equals_scan_on_a_recovered_multi_valued_catalog() {
    use srb_mcat::Query;
    use srb_types::CompareOp;
    let m = Mcat::new(SimClock::new(), "pw");
    let device = Arc::new(LogDevice::new());
    m.enable_wal(device.clone(), NO_CKPT, None).unwrap();
    let (root, admin) = (m.collections.root(), m.admin());
    let rate = |d: DatasetId, v: i64| {
        m.metadata.add(
            &m.ids,
            Subject::Dataset(d),
            Triplet::new("rating", v, ""),
            MetaKind::UserDefined,
        );
    };
    let mut ds = Vec::new();
    for i in 0..9usize {
        let replicas = vec![(stored(i), 5, None)];
        let d = m
            .datasets
            .create(
                &m.ids,
                root,
                &format!("d{i}"),
                "generic",
                admin,
                replicas,
                Timestamp(1),
            )
            .unwrap();
        rate(d, (i % 3) as i64);
        ds.push(d);
    }
    // d0 {0, 2}: both rows under the checkpoint. d3 {0, 2}: one row each
    // side of it. d6 {0, 2}: second row in the tail too. d1 {1, 1, 5}.
    rate(ds[0], 2);
    rate(ds[1], 1);
    m.commit();
    m.checkpoint_now().unwrap();
    rate(ds[3], 2);
    rate(ds[6], 2);
    rate(ds[1], 5);
    m.commit();
    let queries = [
        Query::everywhere()
            .and("rating", CompareOp::Ge, 2i64)
            .and("rating", CompareOp::Lt, 1i64),
        Query::everywhere()
            .and("rating", CompareOp::Gt, 0i64)
            .and("rating", CompareOp::Le, 1i64),
        Query::everywhere()
            .and("rating", CompareOp::Gt, 1i64)
            .and("rating", CompareOp::Lt, 1i64),
    ];
    let live: Vec<_> = queries.iter().map(|q| m.query_scan(q).unwrap()).collect();
    assert_eq!(live[0].len(), 3, "d0, d3, d6 straddle the inverted range");
    drop(m);

    device.crash();
    let (rec, report) = Mcat::recover(SimClock::new(), device, NO_CKPT, None).unwrap();
    assert!(report.groups_applied >= 1, "part of the rows replayed");
    for (q, live) in queries.iter().zip(&live) {
        let planned = rec.query(q).unwrap();
        assert_eq!(&planned, live, "recovered planner vs live scan: {q:?}");
        assert_eq!(planned, rec.query_scan(q).unwrap());
    }
}

/// Two writers, each committing 2 000 audited ingests (a dataset and a
/// metadata row, an audit row for each) while one of them also
/// checkpoints: the recovered catalog is the live one byte for byte,
/// audit rows included. Audit ids are drawn under the log's lock, so the
/// order rows are held in (what `dump()` and the checkpoint write) is the
/// id order recovery rebuilds them in.
#[test]
fn two_writers_recover_byte_identical_audit_order_included() {
    let m = Mcat::new(SimClock::new(), "pw");
    let device = Arc::new(LogDevice::new());
    m.enable_wal(device.clone(), NO_CKPT, None).unwrap();
    let (root, admin) = (m.collections.root(), m.admin());
    std::thread::scope(|s| {
        for t in 0..2 {
            let m = &m;
            s.spawn(move || {
                for i in 0..2_000 {
                    let name = format!("t{t}-{i}");
                    let now = m.clock.now();
                    let d = m
                        .datasets
                        .create(
                            &m.ids,
                            root,
                            &name,
                            "generic",
                            admin,
                            vec![(stored(i), 1, None)],
                            now,
                        )
                        .unwrap();
                    m.audit
                        .record(&m.ids, now, admin, AuditAction::Ingest, &name, "ok");
                    m.metadata.add(
                        &m.ids,
                        Subject::Dataset(d),
                        Triplet::new("step", i as i64, ""),
                        MetaKind::UserDefined,
                    );
                    m.audit
                        .record(&m.ids, now, admin, AuditAction::MetaChange, &name, "ok");
                    m.commit();
                    if t == 0 && i % 500 == 250 {
                        m.checkpoint_now().unwrap();
                    }
                }
            });
        }
    });
    let live = normalized(&m);
    drop(m);
    device.crash();
    let (rec, _) = Mcat::recover(SimClock::new(), device, NO_CKPT, None).unwrap();
    assert_eq!(rec.audit.count(), 8_000);
    let got = normalized(&rec);
    let at = got.bytes().zip(live.bytes()).position(|(a, b)| a != b);
    assert!(
        got == live,
        "recovered catalog differs from the live one at byte {at:?} (audit at {:?})",
        live.find("\"audit\":")
    );
}

/// Four writers stamping rows with an advancing clock, one of them also
/// checkpointing: every commit marker's `at_ns` is at or after the stamp
/// of every record it closes (a marker closes other writers' records
/// too), and the clock recovery restores is at or after every recovered
/// row's stamp.
#[test]
fn concurrent_writers_never_recover_the_clock_behind_a_row() {
    let clock = SimClock::new();
    let m = Mcat::new(clock.clone(), "pw");
    let device = Arc::new(LogDevice::new());
    m.enable_wal(device.clone(), NO_CKPT, None).unwrap();
    let (root, admin) = (m.collections.root(), m.admin());
    let stamp = |op: &WalOp| match op {
        WalOp::DatasetPut { row } => Some(row.created.max(row.modified)),
        WalOp::AuditPut { row } => Some(row.at),
        _ => None,
    };
    // Every group still on the device; writer 0 checkpoints right after
    // checking, so each group is checked once.
    let check_groups = || {
        let since = device.checkpoint_lsn().unwrap();
        let Ok(DeltaFetch::Deltas { deltas, .. }) = export_deltas(&device, since) else {
            panic!("only writer 0 checkpoints, so nothing pruned past {since}");
        };
        for d in deltas {
            if let Some(at) = stamp(&d.record.op) {
                assert!(
                    at.nanos() <= d.committed_at_ns,
                    "LSN {}: row stamped {} closed by a marker at {}",
                    d.record.lsn,
                    at.nanos(),
                    d.committed_at_ns
                );
            }
        }
    };
    std::thread::scope(|s| {
        for t in 0..4 {
            let m = &m;
            let check_groups = &check_groups;
            s.spawn(move || {
                for i in 0..10_000 {
                    m.clock.advance(1_000);
                    let now = m.clock.now();
                    let name = format!("t{t}-{i}");
                    if i % 8 == 0 {
                        let replicas = vec![(stored(i), 1, None)];
                        let created = m
                            .datasets
                            .create(&m.ids, root, &name, "generic", admin, replicas, now);
                        created.unwrap();
                    }
                    // Mostly cheap ops, so one writer often appends again
                    // while the other is waking up to commit.
                    m.audit
                        .record(&m.ids, now, admin, AuditAction::Ingest, &name, "ok");
                    m.commit();
                    if t == 0 && i % 1_000 == 500 {
                        check_groups();
                        m.checkpoint_now().unwrap();
                    }
                }
            });
        }
    });
    check_groups();
    drop(m);
    device.crash();
    let recovered_clock = SimClock::new();
    let (rec, _) = Mcat::recover(recovered_clock.clone(), device, NO_CKPT, None).unwrap();
    let snap: CatalogSnapshot = serde_json::from_str(&rec.snapshot_json().unwrap()).unwrap();
    let rows = snap.datasets.iter().map(|d| d.created.max(d.modified));
    let latest = rows.chain(snap.audit.iter().map(|a| a.at)).max().unwrap();
    assert_eq!(snap.datasets.len(), 5_000);
    assert!(
        recovered_clock.now() >= latest,
        "recovered clock {:?} behind a row stamped {latest:?}",
        recovered_clock.now()
    );
}

#[test]
fn torn_tail_and_missing_checkpoint_fail_cleanly() {
    // Recovery without any checkpoint (durability never enabled on this
    // device) is a clean error, not a silent empty catalog.
    let device = Arc::new(LogDevice::new());
    match Mcat::recover(SimClock::new(), device, NO_CKPT, None) {
        Err(SrbError::Invalid(_)) => {}
        Err(e) => panic!("expected Invalid, got {e:?}"),
        Ok(_) => panic!("expected Invalid, got a recovered catalog"),
    }

    // A torn final record (corrupt checksum) ends the replayable tail; the
    // catalog recovers to the previous acknowledged state.
    let (m, device, acked) = run_workload(0xD15C, 30, NO_CKPT);
    drop(m);
    device.crash();
    device.corrupt_last_synced();
    let (rec, _) = Mcat::recover(SimClock::new(), device, NO_CKPT, None).unwrap();
    // The torn record was the last commit marker, so the final group is
    // discarded: the recovered state matches some acknowledged prefix.
    let got = normalized(&rec);
    assert!(
        acked.iter().any(|(_, s)| *s == got),
        "torn-tail recovery must land on an acknowledged state"
    );
}

#[test]
fn wal_metrics_account_for_durability_work() {
    let metrics = srb_obs::MetricsRegistry::new();
    let clock = SimClock::new();
    let m = Mcat::new(clock.clone(), "pw");
    let device = Arc::new(LogDevice::new());
    m.enable_wal(
        device.clone(),
        WalConfig {
            checkpoint_interval_ns: 2_000_000,
        },
        Some(&metrics),
    )
    .unwrap();
    let root = m.collections.root();
    let admin = m.admin();
    for i in 0..10 {
        clock.advance(1_000_000);
        m.datasets
            .create(
                &m.ids,
                root,
                &format!("d{i}"),
                "generic",
                admin,
                vec![(stored(i), 10, None)],
                m.clock.now(),
            )
            .unwrap();
        m.commit();
        m.maybe_checkpoint().unwrap();
    }
    assert!(metrics.counter(metric!("wal.appends"), "").get() >= 20);
    assert!(metrics.counter(metric!("wal.group_commits"), "").get() >= 10);
    assert!(metrics.counter(metric!("wal.checkpoints"), "").get() >= 2);
    let wal = m.wal().unwrap();
    assert!(
        wal.take_pending_ns() > 0,
        "durability cost pools for receipts"
    );
    // Timestamps recover too: the catalog clock never runs backwards
    // through its last acknowledged commit.
    let before = m.clock.now();
    drop(m);
    device.crash();
    let metrics2 = srb_obs::MetricsRegistry::new();
    let (rec, report) = Mcat::recover(
        SimClock::new(),
        device,
        WalConfig::default(),
        Some(&metrics2),
    )
    .unwrap();
    assert!(rec.clock.now() >= Timestamp(before.nanos() - 1_000_000));
    assert_eq!(
        metrics2.counter(metric!("wal.recovery_ns"), "").get(),
        report.recovery_ns
    );
    assert!(metrics2.counter(metric!("wal.checkpoints"), "").get() >= 1);
}

#[test]
fn two_zones_recover_independently_and_registrations_survive() {
    // Zone alpha: home of the dataset.
    let alpha = Mcat::new(SimClock::new(), "pw");
    let dev_a = Arc::new(LogDevice::new());
    alpha.enable_wal(dev_a.clone(), NO_CKPT, None).unwrap();
    let root_a = alpha.collections.root();
    let d_home = alpha
        .datasets
        .create(
            &alpha.ids,
            root_a,
            "survey.dat",
            "generic",
            alpha.admin(),
            vec![(stored(0), 1024, Some(Checksum::of(b"fnv:abc")))],
            alpha.clock.now(),
        )
        .unwrap();
    alpha.commit();

    // Zone beta: registers alpha's dataset as a remote replica with
    // WAL-logged provenance, through the one pointer writer.
    let beta = Mcat::new(SimClock::new(), "pw");
    let dev_b = Arc::new(LogDevice::new());
    beta.enable_wal(dev_b.clone(), NO_CKPT, None).unwrap();
    let root_b = beta.collections.root();
    let home = alpha.datasets.get(d_home).unwrap();
    let d_remote = beta
        .put_pointer(
            None,
            (root_b, "survey.dat"),
            ("alpha", "/survey.dat"),
            &home,
        )
        .unwrap();
    beta.commit();

    // Both zones crash and recover independently, each from its own log.
    drop(alpha);
    drop(beta);
    dev_a.crash();
    dev_b.crash();
    let (rec_a, _) = Mcat::recover(SimClock::new(), dev_a, NO_CKPT, None).unwrap();
    let (rec_b, _) = Mcat::recover(SimClock::new(), dev_b, NO_CKPT, None).unwrap();

    // The home row survives and is local; the registration survives with
    // full provenance.
    assert_eq!(rec_a.datasets.get(d_home).unwrap().name, "survey.dat");
    assert_eq!(rec_a.remote_provenance(d_home).unwrap(), None);
    assert_eq!(
        rec_b.remote_provenance(d_remote).unwrap(),
        Some(("alpha".to_string(), "/survey.dat".to_string()))
    );
}

#[test]
fn remote_row_without_provenance_fails_closed() {
    let m = Mcat::new(SimClock::new(), "pw");
    let root = m.collections.root();
    // A remote pointer whose provenance triplets were never written (or
    // were lost): resolving its home zone must be a hard error, not a
    // guess.
    let d = m
        .datasets
        .create(
            &m.ids,
            root,
            "orphan.dat",
            "generic",
            m.admin(),
            vec![(
                AccessSpec::Url {
                    url: "srb+zone://ghost/orphan.dat".into(),
                },
                1,
                None,
            )],
            m.clock.now(),
        )
        .unwrap();
    match m.remote_provenance(d) {
        Err(SrbError::Invalid(_)) => {}
        other => panic!("expected Invalid for lost provenance, got {other:?}"),
    }
}
