//! ARIES-style redo-only write-ahead log for the MCAT.
//!
//! Production SRB keeps the MCAT in a commercial database; its durability
//! guarantee — an acknowledged registration survives `kill -9` — comes from
//! a redo log fsynced at commit. This module reproduces that guarantee over
//! the simulated [`LogDevice`]:
//!
//! * Every catalog mutation appends one or more **logical redo records**
//!   ([`WalOp`]) *while the table's write guard is held*, so log order
//!   equals apply order per table. Records are LSN-stamped and carry the
//!   post-mutation generation of their table, making recovered generation
//!   counters exact (continuation tokens either resume or cleanly fail).
//! * Tables only log. The *operation* that owns the mutations ends the
//!   group: [`Mcat::commit`] — the one caller of `Wal::commit` — appends a
//!   `Commit` marker and fsyncs, so one acknowledged op is one marker and
//!   one fsync however many tables it touched. Commits **group**: records
//!   from concurrent ops share one fsync, and a commit whose marker is
//!   already durable (a concurrent leader synced past it) skips the fsync
//!   entirely; a commit with nothing logged since the last marker appends
//!   nothing. `wal.appends` counts records, `wal.group_commits` counts
//!   actual fsyncs.
//! * **Checkpoints** are full-catalog snapshots installed when the virtual
//!   clock passes the configured interval. The covered LSN is captured
//!   *before* the snapshot is taken, so a fuzzy snapshot may contain
//!   effects of slightly later records — harmless, because redo records
//!   are idempotent row images (`Put` overwrites, `Delete` tolerates
//!   absence).
//! * **Recovery** (`replay_device`) loads the latest checkpoint, patches
//!   its row vectors with every *complete* commit group in the durable
//!   tail (an unterminated trailing group was never acknowledged and is
//!   discarded), and rebuilds the catalog in one restore — no per-record
//!   index maintenance.
//! * **Replication** ([`export_deltas`]) reads the same groups from a
//!   subscriber's cursor instead of from the checkpoint. What a committed
//!   group is, is written once — `for_each_commit_group` — and both
//!   consumers are closures over it.
//!
//! Durability is not free: appends, fsyncs, checkpoint writes and the
//! recovery read-back all return virtual costs. The WAL pools them in a
//! pending-cost accumulator that ops drain into their `Receipt`s, so the
//! price of group commit shows up in experiments (`srb_net::Receipt`).
//!
//! [`Mcat::commit`]: crate::Mcat::commit
//!
//! Determinism: everything is driven by the shared [`SimClock`] and the
//! deterministic device; two identically-seeded runs produce byte-identical
//! logs, checkpoints and recovered catalogs.

use crate::annotation::Annotation;
use crate::audit::AuditRow;
use crate::collection::Collection;
use crate::container::ContainerRecord;
use crate::dataset::Dataset;
use crate::metadata::{MetaRow, Subject};
use crate::resource::{LogicalResource, Resource};
use crate::snapshot::{CatalogSnapshot, SnapshotGenerations, SNAPSHOT_VERSION};
use crate::user::{Group, User};
use serde::{Deserialize, Serialize};
use srb_storage::{LogDevice, TailRead};
use srb_types::sync::{LockRank, Mutex};
use srb_types::{
    AnnotationId, CollectionId, ContainerId, DatasetId, Lsn, MetaId, SimClock, SrbError, SrbResult,
    Timestamp,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One logical redo operation. Variants are full row images (`*Put`) or
/// bare ids (`*Delete`): replay patches the checkpoint's row vectors and
/// rebuilds all derived indexes in a single restore, so records never
/// describe index maintenance. `Commit` terminates a group; only complete
/// groups are applied.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalOp {
    /// Upsert a user row.
    UserPut {
        /// The full post-mutation row.
        row: User,
    },
    /// Upsert a group row.
    GroupPut {
        /// The full post-mutation row.
        row: Group,
    },
    /// Upsert a physical-resource row.
    ResourcePut {
        /// The full post-mutation row.
        row: Resource,
    },
    /// Upsert a logical-resource row.
    LogicalResourcePut {
        /// The full post-mutation row.
        row: LogicalResource,
    },
    /// Upsert a collection row.
    CollectionPut {
        /// The full post-mutation row.
        row: Collection,
    },
    /// Remove a collection row.
    CollectionDelete {
        /// Row to remove (absence tolerated on replay).
        id: CollectionId,
    },
    /// Upsert a dataset row (covers replicas, locks, ACLs, versions —
    /// everything the row embeds).
    DatasetPut {
        /// The full post-mutation row.
        row: Dataset,
    },
    /// Remove a dataset row.
    DatasetDelete {
        /// Row to remove (absence tolerated on replay).
        id: DatasetId,
    },
    /// Upsert a container row.
    ContainerPut {
        /// The full post-mutation row.
        row: ContainerRecord,
    },
    /// Remove a container row.
    ContainerDelete {
        /// Row to remove (absence tolerated on replay).
        id: ContainerId,
    },
    /// Upsert a metadata triplet row.
    MetaPut {
        /// The full post-mutation row.
        row: MetaRow,
    },
    /// Remove a metadata triplet row.
    MetaDelete {
        /// Row to remove (absence tolerated on replay).
        id: MetaId,
    },
    /// Replace a subject's file-based metadata association list.
    MetaFilesPut {
        /// The subject the files describe.
        subject: Subject,
        /// The full post-mutation association list.
        files: Vec<DatasetId>,
    },
    /// Drop a subject's file-based metadata associations.
    MetaFilesClear {
        /// The subject to clear.
        subject: Subject,
    },
    /// Upsert an annotation row.
    AnnotationPut {
        /// The full post-mutation row.
        row: Annotation,
    },
    /// Remove an annotation row.
    AnnotationDelete {
        /// Row to remove (absence tolerated on replay).
        id: AnnotationId,
    },
    /// Remove every annotation on a subject.
    AnnotationClear {
        /// The subject to clear.
        subject: Subject,
    },
    /// Append an audit-trail row.
    AuditPut {
        /// The full row.
        row: AuditRow,
    },
    /// Commit marker: every record since the previous marker belongs to
    /// one acknowledged mutation (or batch).
    Commit {
        /// Virtual time at commit.
        at_ns: u64,
    },
}

/// One log record: LSN, the post-mutation generation of the mutated table
/// (0 when the table has no generation counter or the op does not bump
/// it), and the logical op.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalRecord {
    /// Position in the log.
    pub lsn: u64,
    /// Post-mutation generation stamp, or 0.
    pub gen: u64,
    /// The logical redo operation.
    pub op: WalOp,
}

/// What the device stores as its checkpoint: the catalog snapshot plus
/// the virtual time it was taken, so recovery restores the clock even when
/// the checkpoint covers the entire log and the replay tail is empty.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointEnvelope {
    /// Virtual time the snapshot was taken.
    at_ns: u64,
    /// The catalog image.
    snapshot: CatalogSnapshot,
}

/// WAL tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Virtual nanoseconds between checkpoints (0 disables periodic
    /// checkpoints; explicit [`Mcat::checkpoint_now`] still works).
    ///
    /// [`Mcat::checkpoint_now`]: crate::Mcat::checkpoint_now
    pub checkpoint_interval_ns: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            // 30 virtual seconds: long enough that steady-state workloads
            // pay mostly group commits, short enough to bound the log tail.
            checkpoint_interval_ns: 30_000_000_000,
        }
    }
}

/// Virtual cost of applying one replayed record to the in-memory image.
const REPLAY_NS_PER_RECORD: u64 = 2_000;

#[derive(Debug)]
struct WalState {
    /// Next LSN to assign.
    next_lsn: u64,
    /// Virtual time of the last checkpoint (claim time).
    last_ckpt_ns: u64,
    /// LSN of the last commit marker (at start-up, of the durable tail):
    /// records past it form the open group.
    last_marker: u64,
}

/// Metric handles, registered when the grid has observability enabled.
#[derive(Debug)]
struct WalObs {
    appends: srb_obs::Counter,
    group_commits: srb_obs::Counter,
    checkpoints: srb_obs::Counter,
    recovery_ns: srb_obs::Counter,
}

/// The write-ahead log attached to a catalog. See the module docs.
#[derive(Debug)]
pub struct Wal {
    device: Arc<LogDevice>,
    clock: SimClock,
    config: WalConfig,
    state: Mutex<WalState>,
    /// Durability cost (ns) not yet folded into a receipt.
    pending_ns: AtomicU64,
    obs: Option<WalObs>,
}

impl Wal {
    /// A WAL over `device`, resuming LSN assignment after the device's
    /// durable tail (1 on a fresh device).
    pub(crate) fn new(
        device: Arc<LogDevice>,
        clock: SimClock,
        config: WalConfig,
        metrics: Option<&srb_obs::MetricsRegistry>,
    ) -> Wal {
        let next_lsn = device.synced_lsn().raw() + 1;
        let last_ckpt_ns = clock.now().nanos();
        Wal {
            device,
            clock,
            config,
            state: Mutex::new(
                LockRank::Wal,
                "mcat.wal",
                WalState {
                    next_lsn,
                    last_ckpt_ns,
                    last_marker: next_lsn - 1,
                },
            ),
            pending_ns: AtomicU64::new(0),
            obs: metrics.map(|m| WalObs {
                appends: m.counter("wal.appends", ""),
                group_commits: m.counter("wal.group_commits", ""),
                checkpoints: m.counter("wal.checkpoints", ""),
                recovery_ns: m.counter("wal.recovery_ns", ""),
            }),
        }
    }

    /// Append one redo record. Called while the mutated table's write
    /// guard is held (legal: `Wal` ranks below `McatTable`), so the log
    /// orders records exactly as the table applied them. Buffered, not
    /// yet durable.
    pub(crate) fn append(&self, op: WalOp, gen: u64) -> Lsn {
        self.append_locked(&mut self.state.lock(), op, gen)
    }

    fn append_locked(&self, st: &mut WalState, op: WalOp, gen: u64) -> Lsn {
        let lsn = Lsn(st.next_lsn);
        st.next_lsn += 1;
        let record = WalRecord {
            lsn: lsn.raw(),
            gen,
            op,
        };
        let json = match serde_json::to_string(&record) {
            Ok(j) => j,
            // Row types are plain data; a serialization failure is a
            // programming bug, and losing a redo record silently would
            // corrupt recovery.
            Err(e) => panic!("WAL record serialization: {e}"),
        };
        let cost = self.device.append(lsn, &json);
        self.pending_ns.fetch_add(cost, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.appends.add(1);
        }
        lsn
    }

    /// Terminate the open group and make it durable; [`Mcat::commit`] is
    /// the only caller. With nothing logged since the last marker no new
    /// marker is appended, but the call still waits on that marker's
    /// durability. Returns the virtual cost charged (0 when nothing
    /// needed syncing, or a concurrent leader's fsync already covered our
    /// marker — the group commit win).
    ///
    /// [`Mcat::commit`]: crate::Mcat::commit
    pub(crate) fn commit(&self) -> u64 {
        let marker = {
            let mut st = self.state.lock();
            if st.next_lsn - 1 > st.last_marker {
                let at_ns = self.clock.now().nanos();
                st.last_marker = self
                    .append_locked(&mut st, WalOp::Commit { at_ns }, 0)
                    .raw();
            }
            Lsn(st.last_marker)
        };
        if self.device.synced_lsn() >= marker {
            return 0;
        }
        let (_, cost) = self.device.sync();
        if cost > 0 {
            self.pending_ns.fetch_add(cost, Ordering::Relaxed);
            if let Some(obs) = &self.obs {
                obs.group_commits.add(1);
            }
        }
        cost
    }

    /// If a periodic checkpoint is due at `now`, claim it: the claim
    /// resets the interval timer (so concurrent callers don't stampede)
    /// and returns the LSN the checkpoint will cover — captured *before*
    /// the caller takes the snapshot, per the fuzzy-checkpoint rule in the
    /// module docs.
    pub(crate) fn checkpoint_claim(&self, now: Timestamp) -> Option<Lsn> {
        if self.config.checkpoint_interval_ns == 0 {
            return None;
        }
        let mut st = self.state.lock();
        if now.nanos().saturating_sub(st.last_ckpt_ns) < self.config.checkpoint_interval_ns {
            return None;
        }
        st.last_ckpt_ns = now.nanos();
        Some(Lsn(st.next_lsn - 1))
    }

    /// Unconditionally claim a checkpoint cover LSN (explicit checkpoints).
    pub(crate) fn checkpoint_cover(&self) -> Lsn {
        let mut st = self.state.lock();
        st.last_ckpt_ns = self.clock.now().nanos();
        Lsn(st.next_lsn - 1)
    }

    /// Install a checkpoint snapshot covering records through `cover`.
    /// Fails, leaving the previous checkpoint and the log untouched, when
    /// the device does not take it.
    pub(crate) fn install_checkpoint(
        &self,
        cover: Lsn,
        snapshot: CatalogSnapshot,
    ) -> SrbResult<()> {
        let envelope = CheckpointEnvelope {
            at_ns: self.clock.now().nanos(),
            snapshot,
        };
        let json = serde_json::to_string(&envelope)
            .map_err(|e| SrbError::Internal(format!("checkpoint serialization: {e}")))?;
        drop(envelope); // free the rows before the device copies the text
        let cost = self.device.install_checkpoint(cover, &json);
        if self.device.checkpoint_lsn() != Some(cover) {
            return Err(SrbError::ResourceUnavailable(format!(
                "log device refused the checkpoint at {cover}"
            )));
        }
        self.pending_ns.fetch_add(cost, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.checkpoints.add(1);
        }
        Ok(())
    }

    /// Record the virtual cost of a recovery read-back + replay.
    pub(crate) fn charge_recovery(&self, ns: u64) {
        self.pending_ns.fetch_add(ns, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.recovery_ns.add(ns);
        }
    }

    /// Drain the durability cost accumulated since the last drain, for
    /// absorption into the committing op's receipt. Under concurrency a
    /// cost may be attributed to a neighbouring op; totals are exact.
    pub fn take_pending_ns(&self) -> u64 {
        self.pending_ns.swap(0, Ordering::Relaxed)
    }

    /// Highest LSN guaranteed durable right now — after a mutation
    /// returns, its records are at or below this point.
    pub fn durable_lsn(&self) -> Lsn {
        self.device.synced_lsn()
    }

    /// The device this WAL writes to (chaos tests crash it directly).
    pub fn device(&self) -> &Arc<LogDevice> {
        &self.device
    }
}

/// A table's handle on the catalog's WAL: empty until durability is
/// enabled, then a shared [`Wal`]. Every table owns one; logging through
/// it is a no-op for catalogs running without a WAL, so the mutation paths
/// pay only an atomic load when durability is off. Tables log and never
/// commit: closing the group belongs to the operation ([`Mcat::commit`]).
///
/// [`Mcat::commit`]: crate::Mcat::commit
#[derive(Debug, Default)]
pub(crate) struct WalHook(std::sync::OnceLock<Arc<Wal>>);

impl WalHook {
    /// Wire the hook to a live WAL. Idempotent per catalog lifetime —
    /// attaching twice is a programming bug.
    pub(crate) fn attach(&self, wal: Arc<Wal>) {
        if self.0.set(wal).is_err() {
            panic!("WAL attached twice to the same table");
        }
    }

    /// Append a redo record if a WAL is attached. Called under the
    /// mutated table's write guard. The op is built lazily so catalogs
    /// running without durability never pay the row clone.
    pub(crate) fn log(&self, gen: u64, op: impl FnOnce() -> WalOp) {
        if let Some(wal) = self.0.get() {
            wal.append(op(), gen);
        }
    }
}

/// What recovery found and did; returned by [`Mcat::recover`].
///
/// [`Mcat::recover`]: crate::Mcat::recover
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN covered by the checkpoint recovery started from.
    pub checkpoint_lsn: Lsn,
    /// Highest durable LSN found on the device.
    pub durable_lsn: Lsn,
    /// Records read from the durable tail (markers included).
    pub records_replayed: usize,
    /// Complete commit groups applied.
    pub groups_applied: usize,
    /// Records in the unterminated trailing group, discarded because the
    /// mutation was never acknowledged.
    pub records_discarded: usize,
    /// Virtual cost of the read-back and replay.
    pub recovery_ns: u64,
}

/// The outcome of [`replay_device`]: a patched snapshot ready for
/// [`Mcat::restore`], plus bookkeeping.
///
/// [`Mcat::restore`]: crate::Mcat::restore
pub(crate) struct Replayed {
    pub snapshot: CatalogSnapshot,
    /// Highest commit-marker virtual time (restore the clock to at least
    /// this).
    pub max_at_ns: u64,
    pub report: RecoveryReport,
}

/// Mutable row-image maps built from a checkpoint, patched by replay.
struct Patch {
    users: BTreeMap<u64, User>,
    groups: BTreeMap<u64, Group>,
    resources: BTreeMap<u64, Resource>,
    logical_resources: BTreeMap<u64, LogicalResource>,
    collections: BTreeMap<u64, Collection>,
    datasets: BTreeMap<u64, Dataset>,
    containers: BTreeMap<u64, ContainerRecord>,
    metadata: BTreeMap<u64, MetaRow>,
    meta_files: Vec<(Subject, Vec<DatasetId>)>,
    annotations: BTreeMap<u64, Annotation>,
    audit: BTreeMap<u64, AuditRow>,
    /// Max generation stamp seen per table: collections, datasets,
    /// metadata — the order continuation tokens embed them.
    gens: [u64; 3],
    /// Highest raw id seen in any replayed row (drives the id floor).
    max_id: u64,
}

impl Patch {
    fn from_snapshot(snap: CatalogSnapshot) -> Patch {
        let gens = snap
            .generations
            .map(|g| [g.collections, g.datasets, g.metadata])
            .unwrap_or([0; 3]);
        Patch {
            users: snap.users.into_iter().map(|r| (r.id.raw(), r)).collect(),
            groups: snap.groups.into_iter().map(|r| (r.id.raw(), r)).collect(),
            resources: snap
                .resources
                .into_iter()
                .map(|r| (r.id.raw(), r))
                .collect(),
            logical_resources: snap
                .logical_resources
                .into_iter()
                .map(|r| (r.id.raw(), r))
                .collect(),
            collections: snap
                .collections
                .into_iter()
                .map(|r| (r.id.raw(), r))
                .collect(),
            datasets: snap.datasets.into_iter().map(|r| (r.id.raw(), r)).collect(),
            containers: snap
                .containers
                .into_iter()
                .map(|r| (r.id.raw(), r))
                .collect(),
            metadata: snap.metadata.into_iter().map(|r| (r.id.raw(), r)).collect(),
            meta_files: snap.meta_files,
            annotations: snap
                .annotations
                .into_iter()
                .map(|r| (r.id.raw(), r))
                .collect(),
            audit: snap.audit.into_iter().map(|r| (r.id.raw(), r)).collect(),
            gens,
            max_id: snap.next_id_floor,
        }
    }

    fn note_id(&mut self, raw: u64) {
        self.max_id = self.max_id.max(raw);
    }

    fn apply(&mut self, record: WalRecord) {
        let gen = record.gen;
        match record.op {
            WalOp::UserPut { row } => {
                self.note_id(row.id.raw());
                self.users.insert(row.id.raw(), row);
            }
            WalOp::GroupPut { row } => {
                self.note_id(row.id.raw());
                self.groups.insert(row.id.raw(), row);
            }
            WalOp::ResourcePut { row } => {
                self.note_id(row.id.raw());
                self.resources.insert(row.id.raw(), row);
            }
            WalOp::LogicalResourcePut { row } => {
                self.note_id(row.id.raw());
                self.logical_resources.insert(row.id.raw(), row);
            }
            WalOp::CollectionPut { row } => {
                self.note_id(row.id.raw());
                self.gens[0] = self.gens[0].max(gen);
                self.collections.insert(row.id.raw(), row);
            }
            WalOp::CollectionDelete { id } => {
                self.gens[0] = self.gens[0].max(gen);
                self.collections.remove(&id.raw());
            }
            WalOp::DatasetPut { row } => {
                self.note_id(row.id.raw());
                for r in &row.replicas {
                    self.note_id(r.id.raw());
                }
                self.gens[1] = self.gens[1].max(gen);
                self.datasets.insert(row.id.raw(), row);
            }
            WalOp::DatasetDelete { id } => {
                self.gens[1] = self.gens[1].max(gen);
                self.datasets.remove(&id.raw());
            }
            WalOp::ContainerPut { row } => {
                self.note_id(row.id.raw());
                self.containers.insert(row.id.raw(), row);
            }
            WalOp::ContainerDelete { id } => {
                self.containers.remove(&id.raw());
            }
            WalOp::MetaPut { row } => {
                self.note_id(row.id.raw());
                self.gens[2] = self.gens[2].max(gen);
                self.metadata.insert(row.id.raw(), row);
            }
            WalOp::MetaDelete { id } => {
                self.gens[2] = self.gens[2].max(gen);
                self.metadata.remove(&id.raw());
            }
            WalOp::MetaFilesPut { subject, files } => {
                self.gens[2] = self.gens[2].max(gen);
                match self.meta_files.iter_mut().find(|(s, _)| *s == subject) {
                    Some((_, fs)) => *fs = files,
                    None => self.meta_files.push((subject, files)),
                }
            }
            WalOp::MetaFilesClear { subject } => {
                self.gens[2] = self.gens[2].max(gen);
                self.meta_files.retain(|(s, _)| *s != subject);
            }
            WalOp::AnnotationPut { row } => {
                self.note_id(row.id.raw());
                self.annotations.insert(row.id.raw(), row);
            }
            WalOp::AnnotationDelete { id } => {
                self.annotations.remove(&id.raw());
            }
            WalOp::AnnotationClear { subject } => {
                self.annotations.retain(|_, a| a.subject != subject);
            }
            WalOp::AuditPut { row } => {
                self.note_id(row.id.raw());
                self.audit.insert(row.id.raw(), row);
            }
            WalOp::Commit { .. } => {}
        }
    }

    fn into_snapshot(mut self, admin: srb_types::UserId) -> CatalogSnapshot {
        // dump() orders meta_files by subject display; match it so a
        // recovered catalog's snapshot is byte-identical to a live one's.
        self.meta_files.sort_by_key(|(s, _)| format!("{s}"));
        CatalogSnapshot {
            version: SNAPSHOT_VERSION,
            next_id_floor: self.max_id,
            admin,
            users: self.users.into_values().collect(),
            groups: self.groups.into_values().collect(),
            resources: self.resources.into_values().collect(),
            logical_resources: self.logical_resources.into_values().collect(),
            collections: self.collections.into_values().collect(),
            datasets: self.datasets.into_values().collect(),
            containers: self.containers.into_values().collect(),
            metadata: self.metadata.into_values().collect(),
            meta_files: self.meta_files,
            annotations: self.annotations.into_values().collect(),
            audit: self.audit.into_values().collect(),
            generations: Some(SnapshotGenerations {
                collections: self.gens[0],
                datasets: self.gens[1],
                metadata: self.gens[2],
            }),
        }
    }
}

/// The one reader of commit groups, under recovery and replication alike:
/// parse a slice of the durable tail and hand `on_group` each group a
/// `Commit` marker closed — its records (with their payload lengths), the
/// marker's LSN and its `at_ns` — in log order. Returns how many trailing
/// records no marker closed: written but never acknowledged.
///
/// Any marker closes whatever precedes it, so a slice that starts inside a
/// group yields that group's remainder.
fn for_each_commit_group(
    tail: &[(Lsn, String)],
    mut on_group: impl FnMut(std::vec::Drain<'_, (WalRecord, u64)>, Lsn, u64),
) -> SrbResult<usize> {
    let mut group: Vec<(WalRecord, u64)> = Vec::new();
    for (lsn, payload) in tail {
        let record: WalRecord = serde_json::from_str(payload)
            .map_err(|e| SrbError::Parse(format!("WAL record at {lsn}: {e}")))?;
        if let WalOp::Commit { at_ns } = record.op {
            on_group(group.drain(..), Lsn(record.lsn), at_ns);
        } else {
            group.push((record, payload.len() as u64));
        }
    }
    Ok(group.len())
}

/// Redo recovery: read the device's durable image and produce the
/// catalog snapshot it proves — checkpoint plus every complete commit
/// group of the tail, trailing incomplete group discarded.
pub(crate) fn replay_device(device: &LogDevice) -> SrbResult<Replayed> {
    let (checkpoint, tail, read_ns) = device.read_back()?;
    let Some((ckpt_lsn, checkpoint_json)) = checkpoint else {
        return Err(SrbError::Invalid(
            "log device has no checkpoint (was durability ever enabled?)".into(),
        ));
    };
    let envelope: CheckpointEnvelope = serde_json::from_str(&checkpoint_json)
        .map_err(|e| SrbError::Parse(format!("checkpoint JSON: {e}")))?;
    let admin = envelope.snapshot.admin;
    let mut patch = Patch::from_snapshot(envelope.snapshot);

    let durable_lsn = tail.last().map(|&(lsn, _)| lsn).unwrap_or(ckpt_lsn);
    // The clock never runs backwards through a checkpoint, even when the
    // replay tail is empty.
    let mut max_at_ns = envelope.at_ns;
    let mut groups_applied = 0usize;
    let records_discarded = for_each_commit_group(&tail, |group, _marker, at_ns| {
        max_at_ns = max_at_ns.max(at_ns);
        for (record, _len) in group {
            patch.apply(record);
        }
        groups_applied += 1;
    })?;
    let records_replayed = tail.len();
    let recovery_ns = read_ns + REPLAY_NS_PER_RECORD * records_replayed as u64;

    Ok(Replayed {
        snapshot: patch.into_snapshot(admin),
        max_at_ns,
        report: RecoveryReport {
            checkpoint_lsn: ckpt_lsn,
            durable_lsn,
            records_replayed,
            groups_applied,
            records_discarded,
            recovery_ns,
        },
    })
}

/// One committed catalog delta exported for zone replication: the redo
/// record plus the virtual time its commit group was acknowledged. The
/// commit time is what lets a subscriber measure replication lag — the
/// exposure window between the home zone acknowledging a write and the
/// subscriber applying its mirror.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The committed redo record.
    pub record: WalRecord,
    /// `Commit { at_ns }` of the group this record belonged to.
    pub committed_at_ns: u64,
}

/// What one delta fetch against a peer's log device produced.
#[derive(Debug)]
pub enum DeltaFetch {
    /// Committed records with `lsn > since`, LSN-ascending, commit markers
    /// stripped.
    Deltas {
        /// The committed records.
        deltas: Vec<Delta>,
        /// Payload bytes the fetch shipped (drives the link transfer cost).
        bytes: u64,
        /// Highest LSN of a *complete* commit group scanned (`>= since`).
        /// A fetch cursor must advance here rather than to the last
        /// delta's LSN: commit markers are stripped from `deltas`, so a
        /// cursor tracking only delta LSNs sits permanently below the
        /// next checkpoint's cover LSN and every prune looks like a gap.
        horizon: Lsn,
    },
    /// A checkpoint pruned the log past `since` — the gap is unrecoverable
    /// from the log alone and the subscriber must resync from a full
    /// subtree export before fetching deltas again.
    Resync {
        /// LSN covered by the pruning checkpoint.
        checkpoint: Lsn,
    },
}

/// Read committed catalog deltas with `lsn > since` off a zone's log
/// device. Only *complete* commit groups are returned: an unterminated
/// trailing group was never acknowledged and will reappear, terminated, on
/// a later fetch. Commit markers themselves are consumed (their `at_ns`
/// stamps the group) and never exported.
///
/// Cost follows what is new, not what the device keeps: the tail is read
/// from the cursor ([`LogDevice::read_after`]), and whether a checkpoint
/// pruned past `since` is settled in the same device-lock hold as the
/// read, so a fetch never returns deltas with a pruned hole in them.
pub fn export_deltas(device: &LogDevice, since: Lsn) -> SrbResult<DeltaFetch> {
    let tail = match device.read_after(since) {
        TailRead::Pruned { checkpoint } => return Ok(DeltaFetch::Resync { checkpoint }),
        TailRead::Lines(tail) => tail,
    };
    let mut deltas = Vec::new();
    let mut bytes = 0u64;
    let mut horizon = since;
    for_each_commit_group(&tail, |group, marker, at_ns| {
        for (record, len) in group {
            bytes += len;
            deltas.push(Delta {
                record,
                committed_at_ns: at_ns,
            });
        }
        horizon = marker;
    })?;
    Ok(DeltaFetch::Deltas {
        deltas,
        bytes,
        horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let rec = WalRecord {
            lsn: 7,
            gen: 3,
            op: WalOp::MetaFilesPut {
                subject: Subject::Dataset(DatasetId(9)),
                files: vec![DatasetId(1), DatasetId(2)],
            },
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: WalRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.lsn, 7);
        assert_eq!(back.gen, 3);
        match back.op {
            WalOp::MetaFilesPut { subject, files } => {
                assert_eq!(subject, Subject::Dataset(DatasetId(9)));
                assert_eq!(files.len(), 2);
            }
            other => panic!("wrong op after round trip: {other:?}"),
        }
    }

    #[test]
    fn commit_groups_batched_appends_into_one_fsync() {
        let device = Arc::new(LogDevice::new());
        let wal = Wal::new(device.clone(), SimClock::new(), WalConfig::default(), None);
        wal.append(
            WalOp::AuditPut {
                row: AuditRow {
                    id: srb_types::AuditId(1),
                    at: Timestamp(0),
                    user: srb_types::UserId(1),
                    action: crate::audit::AuditAction::Ingest,
                    subject: "/a".into(),
                    outcome: "ok".into(),
                },
            },
            0,
        );
        wal.append(
            WalOp::MetaFilesClear {
                subject: Subject::Dataset(DatasetId(1)),
            },
            2,
        );
        assert_eq!(wal.durable_lsn(), Lsn(0));
        let cost = wal.commit();
        assert!(cost > 0, "first commit must fsync");
        assert_eq!(wal.durable_lsn(), Lsn(3), "2 records + marker durable");
        let (appends, syncs, _) = device.stats();
        assert_eq!((appends, syncs), (3, 1), "one fsync for the whole group");
        assert!(wal.take_pending_ns() > 0);
        assert_eq!(wal.take_pending_ns(), 0, "drain empties the pool");
        // Nothing logged since the marker: no new marker, no fsync, no cost.
        assert_eq!(wal.commit(), 0);
        assert_eq!(device.stats(), (3, 1, 3));
        assert_eq!(wal.take_pending_ns(), 0);
    }

    #[test]
    fn checkpoint_claim_respects_the_interval() {
        let clock = SimClock::new();
        let device = Arc::new(LogDevice::new());
        let config = WalConfig {
            checkpoint_interval_ns: 1_000,
        };
        let wal = Wal::new(device, clock.clone(), config, None);
        assert_eq!(wal.checkpoint_claim(clock.now()), None, "not yet due");
        clock.advance(1_000);
        let cover = wal.checkpoint_claim(clock.now());
        assert_eq!(cover, Some(Lsn(0)));
        assert_eq!(
            wal.checkpoint_claim(clock.now()),
            None,
            "claim resets the timer"
        );
        // Disabled interval never claims.
        let off = Wal::new(
            Arc::new(LogDevice::new()),
            clock.clone(),
            WalConfig {
                checkpoint_interval_ns: 0,
            },
            None,
        );
        clock.advance(u64::MAX / 2);
        assert_eq!(off.checkpoint_claim(clock.now()), None);
    }

    #[test]
    fn replay_discards_the_unterminated_trailing_group() {
        let device = Arc::new(LogDevice::new());
        // A checkpoint is required; build one from an empty-ish catalog.
        let mcat = crate::Mcat::new(SimClock::new(), "pw");
        let wal = Wal::new(device.clone(), SimClock::new(), WalConfig::default(), None);
        wal.install_checkpoint(Lsn(0), mcat.snapshot()).unwrap();
        // Group 1: a metadata row, committed.
        wal.append(
            WalOp::MetaPut {
                row: MetaRow {
                    id: MetaId(100),
                    subject: Subject::Dataset(DatasetId(5)),
                    triplet: srb_types::Triplet::new("k", "v", ""),
                    kind: crate::metadata::MetaKind::UserDefined,
                },
            },
            1,
        );
        wal.commit();
        // Group 2: appended but never committed (crash before fsync).
        wal.append(
            WalOp::MetaPut {
                row: MetaRow {
                    id: MetaId(101),
                    subject: Subject::Dataset(DatasetId(5)),
                    triplet: srb_types::Triplet::new("k2", "v2", ""),
                    kind: crate::metadata::MetaKind::UserDefined,
                },
            },
            2,
        );
        device.crash();
        let replayed = replay_device(&device).unwrap();
        assert_eq!(replayed.snapshot.metadata.len(), 1, "only the acked row");
        assert_eq!(replayed.report.groups_applied, 1);
        assert_eq!(replayed.report.records_discarded, 0, "lost, not discarded");
        assert_eq!(replayed.snapshot.generations.unwrap().metadata, 1);
        assert!(replayed.snapshot.next_id_floor >= 100);
        // Now a durable-but-unterminated group: synced without a marker.
        wal.append(WalOp::MetaDelete { id: MetaId(100) }, 3);
        device.sync();
        let replayed = replay_device(&device).unwrap();
        assert_eq!(replayed.report.records_discarded, 1);
        assert_eq!(replayed.snapshot.metadata.len(), 1, "delete not applied");
    }

    #[test]
    fn replay_without_a_checkpoint_is_an_error() {
        let device = LogDevice::new();
        assert!(replay_device(&device).is_err());
    }

    #[test]
    fn checkpoint_is_stored_once_and_old_shapes_fail_closed() {
        let device = Arc::new(LogDevice::new());
        let mcat = crate::Mcat::new(SimClock::new(), "pw");
        let wal = Wal::new(device.clone(), SimClock::new(), WalConfig::default(), None);
        wal.install_checkpoint(Lsn(0), mcat.snapshot()).unwrap();
        let (checkpoint, _, _) = device.read_back().unwrap();
        let json = checkpoint.unwrap().1;
        assert!(
            json.contains(r#""snapshot":{"#),
            "the catalog image is nested JSON, not a JSON string"
        );
        assert_eq!(
            serde_json::to_string(&replay_device(&device).unwrap().snapshot).unwrap(),
            mcat.snapshot_json().unwrap()
        );
        // The pre-PR-13 envelope (snapshot JSON inside a string) and plain
        // garbage are both parse errors, never an empty catalog.
        let old = serde_json::json!({
            "at_ns": 0u64,
            "snapshot": mcat.snapshot_json().unwrap(),
        });
        for bad in [
            serde_json::to_string(&old).unwrap(),
            "{not json".to_string(),
        ] {
            device.install_checkpoint(Lsn(0), &bad);
            assert!(matches!(replay_device(&device), Err(SrbError::Parse(_))));
        }
    }

    #[test]
    fn a_refused_checkpoint_is_an_error_and_costs_nothing() {
        let device = Arc::new(LogDevice::new());
        let mcat = crate::Mcat::new(SimClock::new(), "pw");
        let wal = Wal::new(device.clone(), SimClock::new(), WalConfig::default(), None);
        device.refuse_checkpoints(true);
        assert!(wal.install_checkpoint(Lsn(0), mcat.snapshot()).is_err());
        assert_eq!(device.checkpoint_lsn(), None);
        assert_eq!(wal.take_pending_ns(), 0);
    }
}
