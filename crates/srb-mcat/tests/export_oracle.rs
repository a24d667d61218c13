//! Differential oracle for replication's cursor export.
//!
//! `export_deltas(device, since)` reads the log from the cursor: a binary
//! search into the durable tail, a parse of what is new. The semantics it
//! must keep are those of the export it replaced, which read, checksummed
//! and parsed the whole tail and only then dropped what was at or below
//! `since`. That full scan lives here as `reference_export`; logs are built
//! through real `Mcat` mutations and `Mcat::commit`, with checkpoints
//! interleaved, and for EVERY cursor — below the tail, inside a commit
//! group, exactly on a marker, past the end — the two must agree on the
//! deltas (LSN, op, commit time), the bytes shipped, the horizon, and on
//! when the only honest answer is `Resync`.
//!
//! Around it: fetches chained by `horizon` add up to the one-shot export;
//! an unterminated group is withheld whole; a torn line is a wall no
//! cursor gets past — not even one that starts beyond it; and a publisher
//! checkpointing under a fetching subscriber never yields deltas with a
//! hole in them.

use srb_mcat::{
    export_deltas, AccessSpec, DeltaFetch, Mcat, MetaKind, Subject, WalConfig, WalOp, WalRecord,
};
use srb_storage::LogDevice;
use srb_types::{DatasetId, Lsn, MetaId, ResourceId, SimClock, Triplet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// splitmix64 — deterministic, dependency-free randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const NO_CKPT: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};

/// A fetch in comparable form: `(lsn, op as JSON, committed_at_ns)` rows.
#[derive(Debug, PartialEq)]
enum Fetch {
    Resync(u64),
    Deltas {
        rows: Vec<(u64, String, u64)>,
        bytes: u64,
        horizon: u64,
    },
}

fn row(record: &WalRecord, at_ns: u64) -> (u64, String, u64) {
    (record.lsn, serde_json::to_string(record).unwrap(), at_ns)
}

fn export(device: &LogDevice, since: u64) -> Fetch {
    match export_deltas(device, Lsn(since)).unwrap() {
        DeltaFetch::Resync { checkpoint } => Fetch::Resync(checkpoint.raw()),
        DeltaFetch::Deltas {
            deltas,
            bytes,
            horizon,
        } => Fetch::Deltas {
            rows: deltas
                .iter()
                .map(|d| row(&d.record, d.committed_at_ns))
                .collect(),
            bytes,
            horizon: horizon.raw(),
        },
    }
}

/// The export this PR replaced, kept as the reference semantics: decide
/// `Resync` from the checkpoint, read the WHOLE durable tail back, parse
/// every line, buffer until a `Commit`, release the group — and only then
/// drop what the cursor already has.
fn reference_export(device: &LogDevice, since: u64) -> Fetch {
    if let Some(checkpoint) = device.checkpoint_lsn() {
        if checkpoint.raw() > since {
            return Fetch::Resync(checkpoint.raw());
        }
    }
    let (_checkpoint, tail, _read_ns) = device.read_back().unwrap();
    let mut rows = Vec::new();
    let mut bytes = 0u64;
    let mut horizon = since;
    let mut group: Vec<(WalRecord, u64)> = Vec::new();
    for (_lsn, payload) in &tail {
        let record: WalRecord = serde_json::from_str(payload).unwrap();
        if let WalOp::Commit { at_ns } = record.op {
            for (r, len) in group.drain(..) {
                if r.lsn > since {
                    bytes += len;
                    rows.push(row(&r, at_ns));
                }
            }
            horizon = horizon.max(record.lsn);
        } else {
            group.push((record, payload.len() as u64));
        }
    }
    Fetch::Deltas {
        rows,
        bytes,
        horizon,
    }
}

/// A WAL-backed catalog and a seeded stream of ops against it. Every step
/// is one commit group of one to four records.
struct Publisher {
    clock: SimClock,
    m: Mcat,
    device: Arc<LogDevice>,
    rng: Rng,
    datasets: Vec<DatasetId>,
    step: usize,
}

impl Publisher {
    fn new(seed: u64) -> Publisher {
        let clock = SimClock::new();
        let m = Mcat::new(clock.clone(), "pw");
        let device = Arc::new(LogDevice::new());
        m.enable_wal(device.clone(), NO_CKPT, None).unwrap();
        Publisher {
            clock,
            m,
            device,
            rng: Rng(seed),
            datasets: Vec::new(),
            step: 0,
        }
    }

    /// Log one op's records without closing the group.
    fn mutate(&mut self) {
        self.step += 1;
        let step = self.step;
        self.clock.advance(1_000_000);
        let m = &self.m;
        match self.rng.pick(5) {
            // An ingest: the dataset row and its triplets, one group.
            0 | 1 => {
                let id = m
                    .datasets
                    .create(
                        &m.ids,
                        m.collections.root(),
                        &format!("d{step}"),
                        "generic",
                        m.admin(),
                        vec![(
                            AccessSpec::Stored {
                                resource: ResourceId(1),
                                phys_path: format!("/phys/{step}"),
                            },
                            step as u64 * 7,
                            None,
                        )],
                        m.clock.now(),
                    )
                    .unwrap();
                for k in 0..self.rng.pick(3) {
                    m.metadata.add(
                        &m.ids,
                        Subject::Dataset(id),
                        Triplet::new(format!("k{k}"), step as i64, ""),
                        MetaKind::UserDefined,
                    );
                }
                self.datasets.push(id);
            }
            2 if !self.datasets.is_empty() => {
                let d = self.datasets[self.rng.pick(self.datasets.len())];
                m.metadata.add(
                    &m.ids,
                    Subject::Dataset(d),
                    Triplet::new("step", step as i64, ""),
                    MetaKind::UserDefined,
                );
            }
            3 if self.datasets.len() > 2 => {
                let d = self.datasets.remove(self.rng.pick(self.datasets.len()));
                m.datasets.delete(d).unwrap();
                m.metadata.remove_all(Subject::Dataset(d));
            }
            // Churn no subscription cares about still moves the horizon.
            _ => {
                m.users
                    .register(&m.ids, &format!("u{step}"), "sdsc", "pw", false)
                    .unwrap();
            }
        }
    }

    fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.mutate();
            self.m.commit();
        }
    }

    fn durable(&self) -> u64 {
        self.device.synced_lsn().raw()
    }

    /// New == reference for every cursor from 0 to past the durable end.
    fn assert_every_cursor_agrees(&self, what: &str) {
        for since in 0..=self.durable() + 2 {
            assert_eq!(
                export(&self.device, since),
                reference_export(&self.device, since),
                "{what}: cursor {since}"
            );
        }
    }
}

#[test]
fn every_cursor_matches_the_full_scan_reference() {
    for seed in [0xE1, 0xE2, 0xE3] {
        let mut p = Publisher::new(seed);
        p.assert_every_cursor_agrees("fresh device");
        p.run(40);
        p.assert_every_cursor_agrees("no checkpoint yet");

        // A checkpoint that covers the whole log: the tail is empty, every
        // cursor below the cover resyncs, the cover itself does not.
        p.m.checkpoint_now().unwrap();
        let cover = p.device.checkpoint_lsn().unwrap().raw();
        assert_eq!(cover, p.durable());
        assert_eq!(export(&p.device, cover - 1), Fetch::Resync(cover));
        assert!(matches!(export(&p.device, cover), Fetch::Deltas { .. }));
        p.assert_every_cursor_agrees("empty tail behind a checkpoint");

        p.run(25);
        p.assert_every_cursor_agrees("tail behind a checkpoint");

        // A durable but unterminated trailing group: cursors inside it too.
        p.mutate();
        p.device.sync();
        p.assert_every_cursor_agrees("open trailing group");
        p.m.commit();
        p.run(10);
        p.m.checkpoint_now().unwrap();
        p.run(7);
        p.assert_every_cursor_agrees("second checkpoint");
    }
}

#[test]
fn fetches_chained_by_horizon_add_up_to_the_one_shot_export() {
    let mut p = Publisher::new(0xC4A1);
    p.run(10);
    p.m.checkpoint_now().unwrap();
    let subscribed = p.durable();
    let mut cursor = subscribed;
    let (mut rows, mut bytes) = (Vec::new(), 0u64);
    for burst in [0usize, 1, 7, 0, 0, 30, 2] {
        p.run(burst);
        match export(&p.device, cursor) {
            Fetch::Deltas {
                rows: r,
                bytes: b,
                horizon,
            } => {
                assert!(horizon >= cursor);
                assert_eq!(r.is_empty(), burst == 0, "a drained round ships nothing");
                rows.extend(r);
                bytes += b;
                cursor = horizon;
            }
            Fetch::Resync(c) => panic!("no checkpoint was taken, yet Resync({c})"),
        }
    }
    assert_eq!(cursor, p.durable(), "the cursor ends on the last marker");
    assert_eq!(
        export(&p.device, subscribed),
        Fetch::Deltas {
            rows,
            bytes,
            horizon: cursor
        }
    );
}

#[test]
fn an_open_group_is_withheld_and_reappears_whole() {
    let mut p = Publisher::new(0x09E4);
    p.run(5);
    let cursor = p.durable();
    // Two ops' records durable, no marker: nobody was acknowledged.
    p.mutate();
    p.mutate();
    p.device.sync();
    let open = p.durable();
    assert!(open > cursor);
    assert_eq!(
        export(&p.device, cursor),
        Fetch::Deltas {
            rows: vec![],
            bytes: 0,
            horizon: cursor
        },
        "withheld, and the horizon stays in front of the open group"
    );
    p.m.commit();
    let Fetch::Deltas { rows, horizon, .. } = export(&p.device, cursor) else {
        panic!("no checkpoint was taken");
    };
    let lsns: Vec<u64> = rows.iter().map(|r| r.0).collect();
    assert_eq!(lsns, (cursor + 1..=open).collect::<Vec<_>>(), "whole group");
    assert_eq!(horizon, open + 1, "the marker");
    let at = rows[0].2;
    assert!(rows.iter().all(|r| r.2 == at), "one group, one commit time");
}

#[test]
fn no_cursor_gets_past_a_torn_line() {
    let mut p = Publisher::new(0x7042);
    p.run(20);
    // Everything so far has been read — and verified — once.
    let before = export(&p.device, 0);
    let torn = p.durable(); // the last marker
    p.device.corrupt_last_synced();
    p.run(15); // the publisher carries on behind the damage
    let end = p.durable();

    // What the last group before the torn marker proves, and no more.
    let wall = match export(&p.device, 0) {
        Fetch::Deltas { rows, horizon, .. } => {
            assert!(horizon < torn, "horizon stops in front of the torn line");
            assert!(rows.iter().all(|r| r.0 < torn));
            let Fetch::Deltas { rows: all, .. } = &before else {
                panic!("no checkpoint was taken");
            };
            assert!(rows.len() < all.len(), "the torn group is not exported");
            assert_eq!(rows[..], all[..rows.len()], "a prefix of the clean export");
            horizon
        }
        Fetch::Resync(c) => panic!("no checkpoint was taken, yet Resync({c})"),
    };
    // A cursor at or beyond the torn line is handed nothing, however much
    // clean log lies behind it, and does not move.
    for since in [wall, torn - 1, torn, torn + 1, end - 1, end, end + 5] {
        assert_eq!(
            export(&p.device, since),
            Fetch::Deltas {
                rows: vec![],
                bytes: 0,
                horizon: since
            },
            "cursor {since}"
        );
    }
    p.assert_every_cursor_agrees("torn line");

    // export ⊆ what recovery sees: recovery stops at the same line.
    let Fetch::Deltas { rows, .. } = export(&p.device, 0) else {
        unreachable!()
    };
    let (_, report) = Mcat::recover(SimClock::new(), p.device.clone(), NO_CKPT, None).unwrap();
    assert_eq!(report.durable_lsn.raw(), torn - 1);
    assert_eq!(
        rows.len(),
        report.records_replayed - report.groups_applied - report.records_discarded,
        "exactly the records of the groups recovery applied"
    );
}

#[test]
fn a_cursor_above_a_truncated_log_gets_an_empty_fetch() {
    let mut p = Publisher::new(0x7C07);
    p.run(20);
    let end = p.durable();
    let _ = export(&p.device, 0);
    let k = end / 2;
    p.device.truncate_after(Lsn(k));
    for since in [k, k + 1, end, end + 9] {
        assert_eq!(
            export(&p.device, since),
            Fetch::Deltas {
                rows: vec![],
                bytes: 0,
                horizon: since
            },
            "cursor {since} above the cut at {k}"
        );
    }
    p.assert_every_cursor_agrees("truncated log");
}

/// Records per group in the race test's hand-written log: LSNs that are a
/// multiple of it are markers.
const GROUP: u64 = 4;

fn race_line(lsn: u64) -> String {
    let op = if lsn.is_multiple_of(GROUP) {
        WalOp::Commit { at_ns: lsn }
    } else {
        WalOp::MetaDelete { id: MetaId(lsn) }
    };
    serde_json::to_string(&WalRecord { lsn, gen: 0, op }).unwrap()
}

/// The bug: `export_deltas` asked the device for its checkpoint LSN, let
/// go of it, and then read the tail. A checkpoint installed in between
/// pruned `(since, cover]` and the fetch came back as `Deltas` starting
/// past the hole — rows the mirror never gets, and no `Resync` to say so.
#[test]
fn a_checkpoint_racing_a_fetch_never_leaves_a_hole() {
    const GROUPS: u64 = 20_000;
    const LAG: u64 = 2 * GROUP; // the checkpoint trails the head by two groups
    let device = LogDevice::new();
    let done = AtomicBool::new(false);
    let mut fetches = 0u64;
    std::thread::scope(|s| {
        // The publisher: commit a group, checkpoint a little behind it.
        s.spawn(|| {
            for g in 1..=GROUPS {
                for lsn in (g - 1) * GROUP + 1..=g * GROUP {
                    device.append(Lsn(lsn), &race_line(lsn));
                }
                device.sync();
                if g * GROUP > LAG {
                    device.install_checkpoint(Lsn(g * GROUP - LAG - 1), "snap");
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        // The subscriber: fetch from just behind the pruning edge — inside
        // a group, where the next checkpoint is about to cut.
        let mut last_round = false;
        loop {
            let since = device.checkpoint_lsn().map_or(0, Lsn::raw);
            match export(&device, since) {
                // Lost the race, and says so.
                Fetch::Resync(checkpoint) => assert!(checkpoint > since),
                Fetch::Deltas { rows, horizon, .. } => {
                    let expected: Vec<u64> = (since + 1..=horizon)
                        .filter(|lsn| !lsn.is_multiple_of(GROUP))
                        .collect();
                    let got: Vec<u64> = rows.iter().map(|r| r.0).collect();
                    assert_eq!(got, expected, "hole in ({since}, {horizon}]");
                    fetches += 1;
                }
            }
            if last_round {
                break;
            }
            last_round = done.load(Ordering::SeqCst);
        }
    });
    assert!(fetches > 0, "the quiescent last round is always a fetch");
}
