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
//!   A record's op is encoded to text *before* the WAL mutex is taken;
//!   under it only the LSN prefix is written and the line handed to the
//!   device, which copies it (a commit marker also writes its time there,
//!   see `Wal::commit`). Both buffers are the thread's own and reused, so
//!   logging a record allocates nothing once they have grown.
//! * Tables only log. The *operation* that owns the mutations ends the
//!   group: [`Mcat::commit`] — the one caller of `Wal::commit` — appends a
//!   `Commit` marker and fsyncs, so one acknowledged op is one marker and
//!   one fsync however many tables it touched. Commits **group**: records
//!   from concurrent ops share one fsync, and a commit whose marker is
//!   already durable (a concurrent leader synced past it) skips the fsync
//!   entirely; a commit with nothing logged since the last marker appends
//!   nothing. `wal.appends` counts records, `wal.group_commits` counts
//!   actual fsyncs.
//! * **Checkpoints** are full-catalog images installed when the virtual
//!   clock passes the configured interval, streamed straight from the live
//!   tables into the parts of an [`Image`](srb_storage::Image) the device
//!   takes by value (the paged image writer in `crate::snapshot`: one
//!   table read guard at a time, no clone of the catalog, no tree). The
//!   covered LSN is captured *before* the image is written, so a fuzzy
//!   image may contain effects of slightly later records — harmless,
//!   because redo records are idempotent row images (`Put` overwrites,
//!   `Delete` tolerates absence) and recovery floors the id allocator
//!   above every row the image holds.
//! * An image renders what changed and **shares the rest**: `append`
//!   marks the id page of the row a record changes, and a checkpoint
//!   takes a table's marks under the read guard it writes that table
//!   with, sharing every unmarked page's part with the last image the
//!   device accepted — one refcount, no bytes copied. No record of the
//!   table can land between the take and the write, so a shared page is
//!   exactly what a render would write and the fuzzy-image argument above
//!   is unchanged. A refused install puts its marks back; an image the
//!   device no longer holds is not shared from.
//! * **Recovery** (`replay_device`) reads the latest checkpoint part by
//!   part straight into row pages, applies every *complete* commit group
//!   in the durable tail to them in place (an unterminated trailing group
//!   was never acknowledged and is discarded), noting each page a record
//!   touched, and rebuilds the catalog's derived maps once — no
//!   per-record index maintenance. The checkpoint that seals the
//!   recovery shares every page the tail did not touch with the image it
//!   read.
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
use crate::pages::{Row, RowPages, IMAGE_PAGE_IDS};
use crate::resource::{LogicalResource, Resource};
use crate::snapshot::{
    read_checkpoint, CatalogSnapshot, CheckpointPass, Field, ImageIndex, PageMarks, PageSet,
    SnapshotGenerations,
};
use crate::user::{Group, User};
use crate::Mcat;
use serde::{Deserialize, Serialize};
use srb_obs::metric;
use srb_storage::{LogDevice, TailRead};
use srb_types::sync::{LockRank, Mutex};
use srb_types::{
    AnnotationId, CollectionId, ContainerId, DatasetId, Lsn, MetaId, SimClock, SrbError, SrbResult,
    Timestamp,
};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One logical redo operation. Variants are full row images (`*Put`) or
/// bare ids (`*Delete`): replay upserts and deletes the checkpoint's rows
/// in their pages and rebuilds all derived indexes in a single restore,
/// so records never describe index maintenance. `Commit` terminates a
/// group; only complete groups are applied.
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

impl WalOp {
    /// The image field and page whose rows this record changes (`None`
    /// for the page: any of the field's pages); `None` for a marker and
    /// an audit row.
    fn image_page(&self) -> Option<(Field, Option<u64>)> {
        let page = |id: u64| Some(id / IMAGE_PAGE_IDS);
        Some(match self {
            WalOp::UserPut { row } => (Field::Users, page(row.id.raw())),
            WalOp::GroupPut { row } => (Field::Groups, page(row.id.raw())),
            WalOp::ResourcePut { row } => (Field::Resources, page(row.id.raw())),
            WalOp::LogicalResourcePut { row } => (Field::LogicalResources, page(row.id.raw())),
            WalOp::CollectionPut { row } => (Field::Collections, page(row.id.raw())),
            WalOp::CollectionDelete { id } => (Field::Collections, page(id.raw())),
            WalOp::DatasetPut { row } => (Field::Datasets, page(row.id.raw())),
            WalOp::DatasetDelete { id } => (Field::Datasets, page(id.raw())),
            WalOp::ContainerPut { row } => (Field::Containers, page(row.id.raw())),
            WalOp::ContainerDelete { id } => (Field::Containers, page(id.raw())),
            WalOp::MetaPut { row } => (Field::Metadata, page(row.id.raw())),
            WalOp::MetaDelete { id } => (Field::Metadata, page(id.raw())),
            WalOp::MetaFilesPut { .. } | WalOp::MetaFilesClear { .. } => {
                (Field::MetaFiles, page(0))
            }
            WalOp::AnnotationPut { row } => (Field::Annotations, page(row.id.raw())),
            WalOp::AnnotationDelete { id } => (Field::Annotations, page(id.raw())),
            // The record names the subject, not the rows it drops.
            WalOp::AnnotationClear { .. } => (Field::Annotations, None),
            // The trail keeps its pages as text a checkpoint shares whole
            // (`crate::audit`): there is no page to mark.
            WalOp::AuditPut { .. } | WalOp::Commit { .. } => return None,
        })
    }
}

/// One log record: LSN, the post-mutation generation of the mutated table
/// (0 when the table has no generation counter or the op does not bump
/// it), and the logical op. A log line is its row form,
/// `[lsn,gen,{"Op":[fields…]}]`; the object form reads too.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalRecord {
    /// Position in the log.
    pub lsn: u64,
    /// Post-mutation generation stamp, or 0.
    pub gen: u64,
    /// The logical redo operation.
    pub op: WalOp,
}

thread_local! {
    /// Where a record is encoded before the WAL mutex is taken; reused, so
    /// encoding stops allocating once it has grown to the largest row.
    static ENCODE_BUF: RefCell<String> = const { RefCell::new(String::new()) };
    /// Where a line is assembled under the WAL mutex for the device to
    /// copy; reserved before the mutex is taken, and reused.
    static LINE_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// `[` plus the longest `u64`.
const LSN_PREFIX_MAX: usize = 21;

/// The text after the LSN of a `Commit` marker's line, up to its `at_ns`.
const MARKER_MID: &str = ",0,{\"Commit\":[";

/// The text after a `Commit` marker's `at_ns`.
const MARKER_END: &str = "]}]";

/// The text after the LSN of an `AuditPut` record's line, up to its row.
const AUDIT_MID: &str = ",0,{\"AuditPut\":[";

/// The text after an `AuditPut` record's row.
const AUDIT_END: &str = "]}]";

/// A whole `Commit` marker line: the LSN prefix, [`MARKER_MID`], the
/// longest `u64` and [`MARKER_END`].
const MARKER_MAX: usize = LSN_PREFIX_MAX + MARKER_MID.len() + 20 + MARKER_END.len();

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
    /// Image pages a record touched since the checkpoint that last took
    /// the field's marks.
    dirty: PageMarks,
}

/// Metric handles, registered when the grid has observability enabled.
#[derive(Debug)]
struct WalObs {
    appends: srb_obs::Counter,
    group_commits: srb_obs::Counter,
    checkpoints: srb_obs::Counter,
    pages_copied: srb_obs::Counter,
    pages_rendered: srb_obs::Counter,
    recovery_ns: srb_obs::Counter,
}

/// The write-ahead log attached to a catalog. See the module docs.
#[derive(Debug)]
pub struct Wal {
    device: Arc<LogDevice>,
    clock: SimClock,
    config: WalConfig,
    state: Mutex<WalState>,
    /// The page parts of the last image the device accepted from this
    /// WAL. Held for a whole checkpoint, so checkpoints run one at a time.
    image: Mutex<Option<ImageIndex>>,
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
                    dirty: Default::default(),
                },
            ),
            image: Mutex::new(LockRank::McatTable, "mcat.wal.image", None),
            pending_ns: AtomicU64::new(0),
            obs: metrics.map(|m| WalObs {
                appends: m.counter(metric!("wal.appends"), ""),
                group_commits: m.counter(metric!("wal.group_commits"), ""),
                checkpoints: m.counter(metric!("wal.checkpoints"), ""),
                pages_copied: m.counter(metric!("wal.checkpoint_pages_copied"), ""),
                pages_rendered: m.counter(metric!("wal.checkpoint_pages_rendered"), ""),
                recovery_ns: m.counter(metric!("wal.recovery_ns"), ""),
            }),
        }
    }

    /// Append one redo record. Called while the mutated table's write
    /// guard is held (legal: `Wal` ranks below `McatTable`), so the log
    /// orders records exactly as the table applied them. The op is encoded
    /// before the WAL mutex is taken; under it the image page the record
    /// changes is marked for the next checkpoint. Buffered, not yet
    /// durable.
    pub(crate) fn append(&self, op: &WalOp, gen: u64) -> Lsn {
        let mark = op.image_page();
        ENCODE_BUF.with_borrow_mut(|rest| {
            rest.clear();
            rest.push(',');
            serde::write_u64(gen, rest);
            rest.push(',');
            op.write_row(rest);
            rest.push(']');
            LINE_BUF.with_borrow_mut(|line| {
                line.clear();
                line.reserve(rest.len() + LSN_PREFIX_MAX);
                let mut st = self.state.lock();
                if let Some((field, page)) = mark {
                    st.dirty[field as usize].insert(page);
                }
                self.append_locked(&mut st, line, |l| l.push_str(rest))
            })
        })
    }

    /// Append an `AuditPut` record of `row`, an audit row's text as the
    /// trail holds it: the line is written around those bytes under the
    /// WAL mutex, as a marker's is, with no second encoding.
    pub(crate) fn append_audit(&self, row: &str) -> Lsn {
        LINE_BUF.with_borrow_mut(|line| {
            line.clear();
            line.reserve(LSN_PREFIX_MAX + AUDIT_MID.len() + row.len() + AUDIT_END.len());
            let mut st = self.state.lock();
            self.append_locked(&mut st, line, |l| {
                l.push_str(AUDIT_MID);
                l.push_str(row);
                l.push_str(AUDIT_END);
            })
        })
    }

    /// Take `field`'s page marks, leaving none. The checkpointer calls
    /// this under the read guard of the field's table, so no record of
    /// that table lands between the take and the field's pages.
    pub(crate) fn take_marks(&self, field: Field) -> PageSet {
        std::mem::take(&mut self.state.lock().dirty[field as usize])
    }

    /// Assign the next LSN, write the `[N` prefix into the empty
    /// `line` and `rest` after it, and hand the line to the device to
    /// copy. Called under the WAL mutex; `rest` copies text encoded before
    /// it was taken, or writes a marker's one number.
    fn append_locked(
        &self,
        st: &mut WalState,
        line: &mut String,
        rest: impl FnOnce(&mut String),
    ) -> Lsn {
        let lsn = Lsn(st.next_lsn);
        st.next_lsn += 1;
        line.push('[');
        serde::write_u64(lsn.raw(), line);
        rest(line);
        let cost = self.device.append(lsn, line.as_str());
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
                // A marker closes every record appended before it, other
                // writers' included: its time is read under the lock so it
                // is never earlier than any of theirs.
                let at_ns = self.clock.now().nanos();
                let lsn = LINE_BUF.with_borrow_mut(|line| {
                    line.clear();
                    line.reserve(MARKER_MAX);
                    self.append_locked(&mut st, line, |l| {
                        l.push_str(MARKER_MID);
                        serde::write_u64(at_ns, l);
                        l.push_str(MARKER_END);
                    })
                });
                st.last_marker = lsn.raw();
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

    /// Install a checkpoint of `mcat` covering records through `cover`:
    /// the envelope `{"at_ns":…,"snapshot":…}` — the virtual time the
    /// image was taken, so recovery restores the clock even when the
    /// checkpoint covers the entire log and the replay tail is empty — and
    /// the image streamed from the live tables into the parts the device
    /// keeps, each page's part shared with the previous image when no
    /// record touched it since. Returns how many pages it rendered. Fails,
    /// leaving the previous checkpoint, its page index and the log
    /// untouched, when the device does not take it.
    pub(crate) fn install_checkpoint(&self, cover: Lsn, mcat: &Mcat) -> SrbResult<u64> {
        let mut last = self.image.lock();
        // The index describes the device's checkpoint only while the
        // device holds it. After any other install (a recovery by another
        // catalog over this device, say) this image is a full render, and
        // the parts nothing else holds are let go.
        let held = self.device.checkpoint_image();
        let prev_held = last.as_ref().is_some_and(|prev| {
            held.as_ref()
                .is_some_and(|image| Arc::ptr_eq(image, prev.image()))
        });
        drop(held);
        if !prev_held {
            *last = None;
        }
        let mut tail = String::new();
        let mut pass = CheckpointPass::new(self, last.as_ref());
        mcat.write_paged(&mut tail, Some(&mut pass));
        tail.push('}');
        // The envelope's time is read after the image, so it is never
        // earlier than a row the image holds.
        let mut head = String::from("{\"at_ns\":");
        serde::write_u64(self.clock.now().nanos(), &mut head);
        head.push_str(",\"snapshot\":");
        let image = pass.image(head, &mut tail);
        let Some((cost, image)) = self.device.install_checkpoint(cover, image) else {
            // The next checkpoint still copies from the image the device
            // holds, so it owes every page this one took a mark for.
            let mut st = self.state.lock();
            for (dirty, taken) in st.dirty.iter_mut().zip(&pass.taken) {
                dirty.union(taken);
            }
            return Err(SrbError::ResourceUnavailable(format!(
                "log device refused the checkpoint at {cover}"
            )));
        };
        let (copied, rendered) = (pass.copied, pass.rendered);
        *last = Some(pass.index(image));
        self.pending_ns.fetch_add(cost, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.checkpoints.add(1);
            obs.pages_copied.add(copied);
            obs.pages_rendered.add(rendered);
        }
        Ok(rendered)
    }

    /// Take up `image`, the checkpoint the device holds as recovery read
    /// it, as the last image this WAL installed, with the pages `touched`
    /// — by the tail recovery applied over it — still owed: the next
    /// checkpoint renders those and shares every other page.
    pub(crate) fn resume(&self, image: ImageIndex, touched: PageMarks) {
        *self.image.lock() = Some(image);
        self.state.lock().dirty = touched;
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

/// The catalog's handle on its WAL: one `OnceLock`, empty until
/// durability is enabled and then set once, shared by the catalog
/// ([`Mcat::wal`]) and a clone in every table. Logging through it is a
/// no-op for catalogs running without a WAL, so the mutation paths pay
/// only an atomic load when durability is off. Tables log and never
/// commit: closing the group belongs to the operation ([`Mcat::commit`]).
///
/// [`Mcat::wal`]: crate::Mcat::wal
/// [`Mcat::commit`]: crate::Mcat::commit
#[derive(Debug, Clone, Default)]
pub(crate) struct WalHook(Arc<OnceLock<Arc<Wal>>>);

impl WalHook {
    /// Append a redo record if a WAL is set. Called under the mutated
    /// table's write guard. The op is built lazily so catalogs running
    /// without durability never pay the row clone.
    pub(crate) fn log(&self, gen: u64, op: impl FnOnce() -> WalOp) {
        if let Some(wal) = self.0.get() {
            wal.append(&op(), gen);
        }
    }

    /// Append an `AuditPut` record of the audit row `row` if a WAL is
    /// set; see [`Wal::append_audit`].
    pub(crate) fn log_audit(&self, row: &str) {
        if let Some(wal) = self.0.get() {
            wal.append_audit(row);
        }
    }
}

impl std::ops::Deref for WalHook {
    type Target = OnceLock<Arc<Wal>>;

    fn deref(&self) -> &OnceLock<Arc<Wal>> {
        &self.0
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
    /// Pages the checkpoint that sealed the recovery rendered; it shared
    /// the rest with the checkpoint recovery started from.
    pub pages_rendered: u64,
}

/// The outcome of [`replay_device`]: the recovered rows ready for
/// [`Mcat::restore`], the image they were read from with the pages the
/// tail touched, plus bookkeeping.
///
/// [`Mcat::restore`]: crate::Mcat::restore
pub(crate) struct Replayed {
    pub snapshot: CatalogSnapshot,
    /// The checkpoint recovery read, indexed by its page parts.
    pub image: ImageIndex,
    /// Per field, the pages a replayed record touched.
    pub touched: PageMarks,
    /// Highest commit-marker virtual time (restore the clock to at least
    /// this).
    pub max_at_ns: u64,
    pub report: RecoveryReport,
}

/// A checkpoint's rows under redo: each record applied in place as the
/// upsert or delete it is, its page noted.
struct Redo {
    snap: CatalogSnapshot,
    /// Max generation stamp seen per table: collections, datasets,
    /// metadata — the order continuation tokens embed them.
    gens: [u64; 3],
    /// Highest raw id seen in any row (drives the id floor).
    max_id: u64,
    touched: PageMarks,
}

/// Redo a put: upsert `row` into `rows`, noting its id.
fn put<R: Row>(max_id: &mut u64, rows: &mut RowPages<R>, row: R) {
    *max_id = (*max_id).max(R::raw(row.id()));
    rows.insert(row);
}

/// Redo a delete (a row already gone is tolerated).
fn delete<R: Row>(rows: &mut RowPages<R>, id: R::Id) {
    rows.remove(id);
}

/// The highest id in `rows`.
fn last_id<R: Row>(rows: &RowPages<R>) -> Option<u64> {
    rows.iter().next_back().map(|r| R::raw(r.id()))
}

impl Redo {
    fn new(snap: CatalogSnapshot) -> Redo {
        let gens = snap
            .generations
            .map(|g| [g.collections, g.datasets, g.metadata])
            .unwrap_or([0; 3]);
        // A fuzzy image can hold rows allocated after it read the floor
        // (their records may never have committed): floor above them too.
        let row_ids = [
            last_id(&snap.users),
            last_id(&snap.groups),
            last_id(&snap.resources),
            last_id(&snap.logical_resources),
            last_id(&snap.collections),
            last_id(&snap.datasets),
            last_id(&snap.containers),
            snap.metadata.last_id().map(MetaId::raw),
            last_id(&snap.annotations),
            snap.audit.last_id(),
        ];
        let replica_ids = snap.datasets.iter().flat_map(|d| &d.replicas);
        let max = row_ids
            .into_iter()
            .flatten()
            .chain(replica_ids.map(|r| r.id.raw()))
            .max();
        Redo {
            max_id: snap.next_id_floor.max(max.unwrap_or(0)),
            snap,
            gens,
            touched: Default::default(),
        }
    }

    fn apply(&mut self, record: WalRecord) {
        if let WalOp::AuditPut { row } = &record.op {
            self.max_id = self.max_id.max(row.id.raw());
            self.snap.audit.put(row);
            return;
        }
        let Some((field, page)) = record.op.image_page() else {
            return;
        };
        self.touched[field as usize].insert(page);
        let stamped = match field {
            Field::Collections => Some(0),
            Field::Datasets => Some(1),
            Field::Metadata | Field::MetaFiles => Some(2),
            _ => None,
        };
        if let Some(table) = stamped {
            self.gens[table] = self.gens[table].max(record.gen);
        }
        let (snap, max_id) = (&mut self.snap, &mut self.max_id);
        match record.op {
            WalOp::UserPut { row } => put(max_id, &mut snap.users, row),
            WalOp::GroupPut { row } => put(max_id, &mut snap.groups, row),
            WalOp::ResourcePut { row } => put(max_id, &mut snap.resources, row),
            WalOp::LogicalResourcePut { row } => {
                put(max_id, &mut snap.logical_resources, row);
            }
            WalOp::CollectionPut { row } => put(max_id, &mut snap.collections, row),
            WalOp::CollectionDelete { id } => delete(&mut snap.collections, id),
            WalOp::DatasetPut { row } => {
                for r in &row.replicas {
                    *max_id = (*max_id).max(r.id.raw());
                }
                put(max_id, &mut snap.datasets, row);
            }
            WalOp::DatasetDelete { id } => delete(&mut snap.datasets, id),
            WalOp::ContainerPut { row } => put(max_id, &mut snap.containers, row),
            WalOp::ContainerDelete { id } => delete(&mut snap.containers, id),
            WalOp::MetaPut { row } => {
                *max_id = (*max_id).max(row.id.raw());
                snap.metadata.put(row);
            }
            WalOp::MetaDelete { id } => {
                snap.metadata.remove(id);
            }
            WalOp::MetaFilesPut { subject, files } => {
                let all = &mut snap.meta_files;
                match all.iter_mut().find(|(s, _)| *s == subject) {
                    Some((_, fs)) => *fs = files,
                    None => all.push((subject, files)),
                }
            }
            WalOp::MetaFilesClear { subject } => {
                snap.meta_files.retain(|(s, _)| *s != subject);
            }
            WalOp::AnnotationPut { row } => put(max_id, &mut snap.annotations, row),
            WalOp::AnnotationDelete { id } => delete(&mut snap.annotations, id),
            WalOp::AnnotationClear { subject } => {
                snap.annotations.retain(|a| a.subject != subject);
            }
            WalOp::AuditPut { .. } | WalOp::Commit { .. } => {}
        }
    }

    fn finish(self) -> (CatalogSnapshot, PageMarks) {
        let mut snap = self.snap;
        snap.next_id_floor = self.max_id;
        snap.generations = Some(SnapshotGenerations {
            collections: self.gens[0],
            datasets: self.gens[1],
            metadata: self.gens[2],
        });
        (snap, self.touched)
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
/// catalog rows it proves — checkpoint plus every complete commit group
/// of the tail, trailing incomplete group discarded. The checkpoint is
/// read part by part straight into row pages, and the tail applied to
/// them in place.
pub(crate) fn replay_device(device: &LogDevice) -> SrbResult<Replayed> {
    let (checkpoint, tail, read_ns) = device.read_back_parts()?;
    let Some((ckpt_lsn, image)) = checkpoint else {
        return Err(SrbError::Invalid(
            "log device has no checkpoint (was durability ever enabled?)".into(),
        ));
    };
    let (at_ns, snapshot, image) =
        read_checkpoint(&image).map_err(|e| SrbError::Parse(format!("checkpoint JSON: {e}")))?;
    let mut redo = Redo::new(snapshot);

    let durable_lsn = tail.last().map(|&(lsn, _)| lsn).unwrap_or(ckpt_lsn);
    // The clock never runs backwards through a checkpoint, even when the
    // replay tail is empty.
    let mut max_at_ns = at_ns;
    let mut groups_applied = 0usize;
    let records_discarded = for_each_commit_group(&tail, |group, _marker, at_ns| {
        max_at_ns = max_at_ns.max(at_ns);
        for (record, _len) in group {
            redo.apply(record);
        }
        groups_applied += 1;
    })?;
    let records_replayed = tail.len();
    let recovery_ns = read_ns + REPLAY_NS_PER_RECORD * records_replayed as u64;
    let (snapshot, touched) = redo.finish();

    Ok(Replayed {
        snapshot,
        image,
        touched,
        max_at_ns,
        report: RecoveryReport {
            checkpoint_lsn: ckpt_lsn,
            durable_lsn,
            records_replayed,
            groups_applied,
            records_discarded,
            recovery_ns,
            pages_rendered: 0,
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
    fn appended_lines_are_the_record_text() {
        let device = Arc::new(LogDevice::new());
        let clock = SimClock::new();
        let wal = Wal::new(device.clone(), clock.clone(), WalConfig::default(), None);
        let op = WalOp::MetaFilesPut {
            subject: Subject::Collection(CollectionId(4)),
            files: vec![DatasetId(1), DatasetId(22)],
        };
        wal.append(&op, 17);
        clock.advance(u64::MAX / 2);
        wal.commit();
        let (_, tail, _) = device.read_back().unwrap();
        let record = WalRecord {
            lsn: 1,
            gen: 17,
            op,
        };
        assert_eq!(tail[0].1, serde_json::to_row_string(&record).unwrap());
        let marker = WalRecord {
            lsn: 2,
            gen: 0,
            op: WalOp::Commit {
                at_ns: u64::MAX / 2,
            },
        };
        assert_eq!(tail[1].1, serde_json::to_row_string(&marker).unwrap());
        assert!(tail[1].1.len() <= MARKER_MAX);
    }

    #[test]
    fn a_fuzzy_image_floors_the_allocator_above_its_rows() {
        let mcat = crate::Mcat::new(SimClock::new(), "pw");
        let mut snap: CatalogSnapshot =
            serde_json::from_str(&mcat.snapshot_json().unwrap()).unwrap();
        snap.next_id_floor = 0; // read before the rows were allocated
        let redo = Redo::new(snap);
        assert_eq!(redo.max_id, mcat.ids.allocated());
    }

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
        let row = serde_json::to_row_string(&rec).unwrap();
        assert_eq!(row, r#"[7,3,{"MetaFilesPut":[{"Dataset":9},[1,2]]}]"#);
        for json in [serde_json::to_string(&rec).unwrap(), row] {
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
    }

    #[test]
    fn a_row_reads_its_missing_tail_as_absent_and_refuses_extra_fields() {
        let read = serde_json::from_str::<WalRecord>;
        let err = read(r#"[7,3,{"Commit":[1]},0]"#).unwrap_err();
        assert_eq!(err.to_string(), "WalRecord: expected 3 elements, got 4");
        let err = read(r#"[7,3]"#).unwrap_err();
        assert_eq!(err.to_string(), "WalRecord.op: missing field");
        let err = read(r#"[7,3,{"Commit":[]}]"#).unwrap_err();
        assert!(err.to_string().contains("at_ns: missing field"), "{err}");
        // A missing `Option` reads as `None`; a missing field of any
        // other type is an error.
        let row = r#"[1,2,[[]],1,[{},{},"None"],[],null,0]"#;
        let c: Collection = serde_json::from_str(row).unwrap();
        assert_eq!((c.link_target, c.created), (None, Timestamp(0)));
        let short = r#"[1,2,[[]],1,[{},{},"None"],[]]"#;
        let err = serde_json::from_str::<Collection>(short).unwrap_err();
        assert_eq!(err.to_string(), "Collection.created: missing field");
        let short = r#"[1,2,[[]],1,[{},{},"None"]]"#;
        let err = serde_json::from_str::<Collection>(short).unwrap_err();
        assert_eq!(err.to_string(), "Collection.requirements: missing field");
    }

    #[test]
    fn commit_groups_batched_appends_into_one_fsync() {
        let device = Arc::new(LogDevice::new());
        let wal = Wal::new(device.clone(), SimClock::new(), WalConfig::default(), None);
        wal.append(
            &WalOp::AuditPut {
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
            &WalOp::MetaFilesClear {
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
        wal.install_checkpoint(Lsn(0), &mcat).unwrap();
        // Group 1: a metadata row, committed.
        wal.append(
            &WalOp::MetaPut {
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
            &WalOp::MetaPut {
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
        wal.append(&WalOp::MetaDelete { id: MetaId(100) }, 3);
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
        wal.install_checkpoint(Lsn(0), &mcat).unwrap();
        let (checkpoint, _, _) = device.read_back().unwrap();
        let json = checkpoint.unwrap().1;
        assert!(
            json.contains(r#""snapshot":{"#),
            "the catalog image is nested JSON, not a JSON string"
        );
        let replayed = replay_device(&device).unwrap().snapshot;
        assert_eq!(
            crate::Mcat::restore(SimClock::new(), replayed)
                .unwrap()
                .snapshot_json()
                .unwrap(),
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
            device.install_checkpoint(Lsn(0), bad);
            assert!(matches!(replay_device(&device), Err(SrbError::Parse(_))));
        }
    }

    #[test]
    fn a_refused_checkpoint_is_an_error_and_costs_nothing() {
        let device = Arc::new(LogDevice::new());
        let mcat = crate::Mcat::new(SimClock::new(), "pw");
        let wal = Wal::new(device.clone(), SimClock::new(), WalConfig::default(), None);
        device.refuse_checkpoints(true);
        assert!(wal.install_checkpoint(Lsn(0), &mcat).is_err());
        assert_eq!(device.checkpoint_lsn(), None);
        assert_eq!(wal.take_pending_ns(), 0);
    }
}
