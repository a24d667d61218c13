//! Subscription-style asynchronous replication between zones.
//!
//! A subscriber zone mirrors a publisher's collection subtree under a
//! local prefix (`/zones/<publisher><subtree>`). The mirror is driven by
//! **catalog deltas**: LSN-ordered redo records exported straight from
//! the publisher's PR-9 WAL ([`srb_mcat::export_deltas`]), shipped over
//! the peering link into a per-subscription outbox, and applied to the
//! subscriber's catalog in bounded batches by [`Federation::pump`].
//!
//! Zones have independent id generators, so raw rows are never merged.
//! Each subscription keeps remote→local id maps and re-materializes every
//! delta through the subscriber's own table APIs — which WAL-logs the
//! mirror writes; the pump commits them, one group per applied batch and
//! one per resync, making the subscriber independently durable. Applied
//! this way, full-row-image `Put`s are idempotent upserts and `Delete`s
//! tolerate absence, exactly as on recovery replay.
//!
//! One walk, `subtree_rows`, is the only reader of a publisher subtree: it
//! turns a live subject into the row images a delta carries, parents
//! first, and the convergence digest renders it too. A **resync** (how
//! [`Federation::subscribe`] seeds a mirror, and the fallback when a
//! publisher checkpoint prunes past the fetch cursor) walks the subscribed
//! root, charges the link for the rows, and only then tears the mirror down
//! and applies them through the pump's `apply_delta`. A **move-in** (an
//! unmapped put whose publisher id is at or below the subscription's id
//! watermark) is a branch resync of that subject, once its live row
//! matches the put. A refused transfer changes nothing; a failed resync
//! tears its partial mirror down and leaves the cursor behind, and
//! [`Federation::pump`] still runs the subscriptions after a failing one.
//! One publisher's subscriptions into one subscriber never overlap.

use crate::zone::federation::{ensure_collection, Federation, ZoneId};
use srb_mcat::metadata::{MetaKind, Subject};
use srb_mcat::{export_deltas, Collection, Dataset, Delta, DeltaFetch, Mcat, WalOp};
use srb_obs::metric;
use srb_types::sync::{LockRank, Mutex};
use srb_types::{CollectionId, DatasetId, LogicalPath, Lsn, MetaId, SrbError, SrbResult};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// One zone's mirror of a collection in the publisher's subtree.
struct MirrorColl {
    local: CollectionId,
    /// The collection's path in the publisher zone (provenance for
    /// datasets created under it).
    src_path: LogicalPath,
}

/// One subscription: `dst` mirrors `src`'s subtree at `src_root` under
/// `dst_root`. Immutable routing fields plus the `ZoneLink`-ranked pump
/// state.
pub(crate) struct Subscription {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    pub(crate) src_root: LogicalPath,
    pub(crate) dst_root: LogicalPath,
    state: Mutex<SubInner>,
}

/// Pump state: the fetch cursor, the outbox of shipped-but-unapplied
/// deltas, and the remote→local id maps.
#[derive(Default)]
struct SubInner {
    /// Highest publisher LSN fetched into the outbox.
    fetched: Lsn,
    /// Shipped deltas awaiting application, LSN order.
    outbox: VecDeque<Delta>,
    /// Publisher collection id (raw) → mirror.
    colls: HashMap<u64, MirrorColl>,
    /// Publisher dataset id (raw) → local mirror id.
    dss: HashMap<u64, DatasetId>,
    /// Publisher metadata row id (raw) → local row id.
    metas: HashMap<u64, MetaId>,
    /// Publisher ids at or below this predate the next delta: the id
    /// allocator as of the last resync, raised by each applied delta's id.
    watermark: u64,
    /// Lifetime deltas applied.
    applied: u64,
    /// Full-mirror rebuilds forced by checkpoint gaps.
    resyncs: u64,
    /// Worst exposure window seen: commit in the home zone → applied here.
    max_lag_ns: u64,
}

/// What one [`Federation::pump`] round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpReport {
    /// Deltas fetched into outboxes this round.
    pub fetched: usize,
    /// Deltas applied to subscriber catalogs this round.
    pub applied: usize,
    /// Deltas still waiting in outboxes after the round.
    pub pending: usize,
    /// Subscriptions that could not fetch (partitioned / faulted link).
    pub blocked: usize,
    /// Full resyncs forced by publisher checkpoint gaps.
    pub resyncs: usize,
    /// Virtual nanoseconds the round charged to the shared clock.
    pub cost_ns: u64,
    /// Worst exposure window among deltas applied this round.
    pub max_lag_ns: u64,
}

/// Read-only view of one subscription for status pages and experiments.
#[derive(Debug, Clone)]
pub struct SubscriptionStatus {
    /// Publisher zone.
    pub src: ZoneId,
    /// Subscriber zone.
    pub dst: ZoneId,
    /// Subscribed subtree in the publisher.
    pub src_root: String,
    /// Mirror prefix in the subscriber.
    pub dst_root: String,
    /// Highest publisher LSN fetched so far.
    pub fetched_lsn: u64,
    /// Lifetime deltas applied.
    pub applied: u64,
    /// Outbox depth (shipped, not yet applied).
    pub outbox: usize,
    /// Full-mirror rebuilds forced by checkpoint gaps.
    pub resyncs: u64,
    /// Worst exposure window seen, in nanoseconds.
    pub max_lag_ns: u64,
}

impl Federation {
    /// Subscribe `dst` to the publisher subtree `src_root` in `src`.
    ///
    /// Performs the initial full mirror copy synchronously (charging the
    /// link for the export) and returns the mirror's local prefix,
    /// `/zones/<src zone><src_root>`. Subsequent changes flow through
    /// [`Federation::pump`]. A root equal to, above or below one already
    /// subscribed from `src` into `dst` is refused with `AlreadyExists`:
    /// both would map the same mirror collections.
    pub fn subscribe(&self, dst: ZoneId, src: ZoneId, src_root: &str) -> SrbResult<String> {
        if dst == src {
            return Err(SrbError::Invalid(
                "a zone cannot subscribe to itself".into(),
            ));
        }
        let src_lp = LogicalPath::parse(src_root)?;
        let src_name = self.zone(src)?.name().to_string();
        self.zone(dst)?;
        let mut dst_root = LogicalPath::root().child("zones")?.child(&src_name)?;
        for part in src_lp.components() {
            dst_root = dst_root.child(part)?;
        }
        let overlap = self.subs_registry().read().iter().any(|s| {
            s.src == src.0
                && s.dst == dst.0
                && (s.src_root.starts_with(&src_lp) || src_lp.starts_with(&s.src_root))
        });
        if overlap {
            return Err(SrbError::AlreadyExists(format!(
                "subscription {dst} <- {src} overlapping {src_root}"
            )));
        }
        let sub = Arc::new(Subscription {
            src: src.0,
            dst: dst.0,
            src_root: src_lp,
            dst_root: dst_root.clone(),
            state: Mutex::new(LockRank::ZoneLink, "zone.link.sub", SubInner::default()),
        });
        {
            let mut inner = sub.state.lock();
            // Handshake round trip first: an unlinked or down pair must
            // fail before any catalog mutation. The initial copy is a
            // resync, paid for before it lands, so a refused transfer
            // leaves the subscriber untouched too.
            let handshake_ns = self.charge_link_rpc(dst.0, src.0)?;
            self.zone(src)?
                .grid
                .mcat
                .collections
                .resolve(&sub.src_root)?;
            let copy_ns = self.resync(&sub, &mut inner)??;
            self.clock().advance(handshake_ns + copy_ns);
        }
        self.subs_registry().write().push(sub);
        self.metrics()
            .counter(metric!("zone.subscriptions"), "")
            .inc();
        Ok(dst_root.to_string())
    }

    /// Drive every subscription one round: fetch new publisher deltas
    /// over the link, then apply at most `batch` outbox deltas per
    /// subscription to the subscriber's catalog. Link costs and apply
    /// costs advance the shared clock, so replication lag is measurable
    /// against commit times. Deterministic: subscriptions run in
    /// registration order. Every subscription runs even if an earlier one
    /// fails; the round then returns the first error instead of a report.
    pub fn pump(&self, batch: usize) -> SrbResult<PumpReport> {
        if batch == 0 {
            return Err(SrbError::Invalid("pump batch must be positive".into()));
        }
        let subs: Vec<Arc<Subscription>> = self.subs_registry().read().clone();
        let mut report = PumpReport::default();
        let mut outcome = Ok(());
        for sub in &subs {
            let mut inner = sub.state.lock();
            let link = link_label(self, sub);
            let one = self.pump_one(sub, &mut inner, &link, batch, &mut report);
            outcome = outcome.and(one);
            report.pending += inner.outbox.len();
            self.metrics()
                .gauge(metric!("zone.outbox_depth"), &link)
                .set(inner.outbox.len() as i64);
        }
        self.metrics()
            .counter(metric!("zone.pump_rounds"), "")
            .inc();
        report.cost_ns = report.cost_ns.max(1); // a round is never free
        outcome.map(|()| report)
    }

    /// Pump until every outbox is dry or `max_rounds` elapses; returns
    /// the cumulative report. The chaos oracle and experiments use this
    /// to drain after heal.
    pub fn pump_until_drained(&self, batch: usize, max_rounds: usize) -> SrbResult<PumpReport> {
        let mut total = PumpReport::default();
        for _ in 0..max_rounds {
            let r = self.pump(batch)?;
            total.fetched += r.fetched;
            total.applied += r.applied;
            total.blocked += r.blocked;
            total.resyncs += r.resyncs;
            total.cost_ns += r.cost_ns;
            total.max_lag_ns = total.max_lag_ns.max(r.max_lag_ns);
            total.pending = r.pending;
            if r.pending == 0 && r.fetched == 0 {
                return Ok(total);
            }
        }
        Ok(total)
    }

    /// Read-only status of every subscription, registration order.
    pub fn subscriptions(&self) -> Vec<SubscriptionStatus> {
        self.subs_registry()
            .read()
            .iter()
            .map(|sub| {
                let inner = sub.state.lock();
                SubscriptionStatus {
                    src: ZoneId(sub.src),
                    dst: ZoneId(sub.dst),
                    src_root: sub.src_root.to_string(),
                    dst_root: sub.dst_root.to_string(),
                    fetched_lsn: inner.fetched.raw(),
                    applied: inner.applied,
                    outbox: inner.outbox.len(),
                    resyncs: inner.resyncs,
                    max_lag_ns: inner.max_lag_ns,
                }
            })
            .collect()
    }

    /// One subscription's round: poll, ship, apply. `link` is the
    /// subscription's metric label, built once per round.
    fn pump_one(
        &self,
        sub: &Subscription,
        inner: &mut SubInner,
        link: &str,
        batch: usize,
        report: &mut PumpReport,
    ) -> SrbResult<()> {
        let zones = self.zones_slice();
        let src = &zones[sub.src];
        let dst = &zones[sub.dst];

        // --- fetch: poll the publisher and ship new committed deltas ---
        match self.charge_link_rpc(sub.dst, sub.src) {
            Err(_) => report.blocked += 1, // partitioned: apply what we have
            Ok(poll_ns) => {
                let mut fetch_ns = poll_ns;
                match export_deltas(src.device(), inner.fetched)? {
                    DeltaFetch::Resync { .. } => match self.resync(sub, inner)? {
                        Ok(ns) => {
                            fetch_ns += ns;
                            inner.resyncs += 1;
                            report.resyncs += 1;
                            self.metrics().counter(metric!("zone.resyncs"), "").inc();
                        }
                        Err(_) => report.blocked += 1,
                    },
                    DeltaFetch::Deltas {
                        deltas,
                        bytes,
                        horizon,
                    } => {
                        // The cursor tracks the *full* fetch horizon, not the
                        // last relevant delta: commit markers and runs of
                        // irrelevant ops (user/resource churn) must not pin
                        // the cursor where a later publisher checkpoint would
                        // prune past it and force a spurious full resync.
                        if deltas.is_empty() {
                            // Nothing to ship; the poll round trip (already
                            // charged) is what moved the horizon.
                            inner.fetched = inner.fetched.max(horizon);
                        } else {
                            match self.charge_link(sub.src, sub.dst, bytes) {
                                Ok(ns) => {
                                    fetch_ns += ns;
                                    inner.fetched = inner.fetched.max(horizon);
                                    let relevant: Vec<Delta> = deltas
                                        .into_iter()
                                        .filter(|d| row_id(&d.record.op).is_some())
                                        .collect();
                                    report.fetched += relevant.len();
                                    self.metrics()
                                        .counter(metric!("zone.deltas_fetched"), "")
                                        .add(relevant.len() as u64);
                                    self.metrics()
                                        .counter(metric!("zone.delta_bytes"), "")
                                        .add(bytes);
                                    inner.outbox.extend(relevant);
                                }
                                Err(_) => report.blocked += 1,
                            }
                        }
                    }
                }
                self.clock().advance(fetch_ns);
                report.cost_ns += fetch_ns;
            }
        }

        // --- apply: drain up to `batch` deltas into the mirror ---
        let mut applied = 0usize;
        let mut outcome = Ok(());
        // Registered on the first delta ever applied, looked up once a round.
        let mut lag_hist = None;
        while applied < batch {
            let Some(delta) = inner.outbox.pop_front() else {
                break;
            };
            let committed_at = delta.committed_at_ns;
            let id = row_id(&delta.record.op);
            // A move-in is a branch resync; a refused walk waits at the head.
            let done = match moved_in(sub, inner, &src.grid.mcat, &delta.record.op) {
                Some(rows) if rows.is_empty() => Ok(()), // stale: a later put walks
                Some(rows) => {
                    let Ok(ns) = self.charge_link(sub.src, sub.dst, link_bytes(sub, &rows)) else {
                        inner.outbox.push_front(delta);
                        report.blocked += 1;
                        break;
                    };
                    self.clock().advance(ns);
                    report.cost_ns += ns;
                    rows.into_iter()
                        .try_for_each(|op| self.apply_delta(sub, inner, op))
                }
                None => self.apply_delta(sub, inner, delta.record.op),
            };
            if let Err(e) = done {
                outcome = Err(e);
                break;
            }
            inner.watermark = inner.watermark.max(id.unwrap_or(0));
            applied += 1;
            inner.applied += 1;
            let lag = self
                .clock()
                .now()
                .nanos()
                .saturating_sub(committed_at)
                .max(1);
            inner.max_lag_ns = inner.max_lag_ns.max(lag);
            report.max_lag_ns = report.max_lag_ns.max(lag);
            lag_hist
                .get_or_insert_with(|| self.metrics().histogram(metric!("zone.lag_ns"), link))
                .observe(lag);
        }
        // The applied batch is one commit group on the subscriber (a no-op
        // when nothing was applied), closed even if a delta failed part-way.
        dst.grid.mcat.commit();
        if let Some(wal) = dst.grid.mcat.wal() {
            let apply_ns = wal.take_pending_ns();
            self.clock().advance(apply_ns);
            report.cost_ns += apply_ns;
        }
        report.applied += applied;
        self.metrics()
            .counter(metric!("zone.deltas_applied"), "")
            .add(applied as u64);
        outcome
    }

    /// Rebuild the mirror from the publisher's live subtree: walk it, charge
    /// the link for the rows, and only then tear the mirror down and apply
    /// every row through [`apply_delta`](Self::apply_delta), as one commit
    /// group. Once every row has applied, the fetch cursor moves to the
    /// publisher's durable LSN as of the walk and the watermark to its id
    /// allocator; a failed apply tears the partial mirror back down.
    ///
    /// The outer error is a catalog failure. The inner one is the link
    /// refusing the transfer, which leaves the mirror, the outbox and the
    /// cursor as they were; on success it holds the transfer's virtual ns.
    fn resync(&self, sub: &Subscription, inner: &mut SubInner) -> SrbResult<SrbResult<u64>> {
        let zones = self.zones_slice();
        let (src, dst) = (&zones[sub.src], &zones[sub.dst]);
        // Cursor first: deltas committed during the (virtual-instant) walk
        // sit at higher LSNs and are fetched later.
        let cursor = src.device().synced_lsn();
        let src_mcat = &src.grid.mcat;
        let watermark = src_mcat.ids.allocated();
        // A root the publisher has deleted or moved away is an empty
        // subtree, the state its deltas would have left the mirror in.
        let rows = match src_mcat.collections.resolve_nofollow(&sub.src_root) {
            Ok(root) => subtree_rows(src_mcat, Subject::Collection(root)).collect(),
            Err(_) => Vec::new(),
        };
        let ns = match self.charge_link(sub.src, sub.dst, link_bytes(sub, &rows)) {
            Ok(ns) => ns,
            Err(e) => return Ok(Err(e)),
        };
        let dst_mcat = &dst.grid.mcat;
        teardown_mirror(inner, dst_mcat);
        inner.outbox.clear();
        let applied = rows
            .into_iter()
            .try_for_each(|op| self.apply_delta(sub, inner, op));
        if applied.is_err() {
            teardown_mirror(inner, dst_mcat);
        }
        dst_mcat.commit();
        applied?;
        inner.fetched = cursor;
        inner.watermark = watermark;
        Ok(Ok(ns))
    }

    /// Apply one publisher row image — a shipped delta's or a resync's —
    /// to the subscriber's catalog through its own (WAL-logged) table
    /// APIs, translating ids through the mirror maps.
    fn apply_delta(&self, sub: &Subscription, inner: &mut SubInner, op: WalOp) -> SrbResult<()> {
        let zones = self.zones_slice();
        let (src, dst_mcat) = (&zones[sub.src], &zones[sub.dst].grid.mcat);
        match op {
            WalOp::CollectionPut { row } => {
                if row.link_target.is_some() {
                    return Ok(());
                }
                let in_subtree = row.path.starts_with(&sub.src_root);
                if let Some(m) = inner.colls.get(&row.id.raw()) {
                    if m.src_path == row.path {
                        return Ok(()); // attribute-only put: path unchanged
                    }
                    // A publisher-side move/rename re-puts every rebased
                    // node: follow it, or unmirror the branch when the new
                    // path leaves the subscribed subtree (its descendants'
                    // puts arrive unmapped and out of subtree — ignored).
                    if in_subtree {
                        mirror_move(sub, inner, dst_mcat, row.id.raw(), row.path)?;
                    } else {
                        let old = m.src_path.clone();
                        unmirror(inner, dst_mcat, |p| p.starts_with(&old));
                    }
                    return Ok(());
                }
                if !in_subtree {
                    return Ok(());
                }
                let mirror_path = row.path.rebase(&sub.src_root, &sub.dst_root)?;
                let local = ensure_collection(dst_mcat, &mirror_path, dst_mcat.admin())?;
                inner.colls.insert(
                    row.id.raw(),
                    MirrorColl {
                        local,
                        src_path: row.path,
                    },
                );
            }
            WalOp::CollectionDelete { id } => {
                if let Some(m) = inner.colls.remove(&id.raw()) {
                    let _ = dst_mcat.remove_collection(m.local);
                }
            }
            WalOp::DatasetPut { row } => {
                if row.link_target.is_some() {
                    return Ok(());
                }
                match (
                    inner.dss.get(&row.id.raw()).copied(),
                    inner.colls.get(&row.coll.raw()),
                ) {
                    (local, Some(mirror)) => {
                        let home_path = mirror.src_path.child(&row.name)?.to_string();
                        let home = (src.name(), home_path.as_str());
                        let at = (mirror.local, row.name.as_str());
                        let id = dst_mcat.put_pointer(local, at, home, &row)?;
                        inner.dss.insert(row.id.raw(), id);
                    }
                    (Some(local), None) => {
                        // Moved out of the subscribed subtree: unmirror.
                        inner.dss.remove(&row.id.raw());
                        let _ = dst_mcat.remove_dataset(local);
                    }
                    (None, None) => {}
                }
            }
            WalOp::DatasetDelete { id } => {
                if let Some(local) = inner.dss.remove(&id.raw()) {
                    let _ = dst_mcat.remove_dataset(local);
                }
            }
            WalOp::MetaPut { row } => {
                if matches!(row.kind, MetaKind::System | MetaKind::FileBased(_)) {
                    return Ok(());
                }
                let subject = match row.subject {
                    Subject::Dataset(d) => inner.dss.get(&d.raw()).copied().map(Subject::Dataset),
                    Subject::Collection(c) => inner
                        .colls
                        .get(&c.raw())
                        .map(|m| Subject::Collection(m.local)),
                };
                if let Some(subject) = subject {
                    if let Some(old) = inner.metas.remove(&row.id.raw()) {
                        let _ = dst_mcat.metadata.remove(old);
                    }
                    let new = dst_mcat
                        .metadata
                        .add(&dst_mcat.ids, subject, row.triplet, row.kind);
                    inner.metas.insert(row.id.raw(), new);
                }
            }
            WalOp::MetaDelete { id } => {
                if let Some(old) = inner.metas.remove(&id.raw()) {
                    let _ = dst_mcat.metadata.remove(old);
                }
            }
            // Filtered out at fetch time; tolerated here for robustness.
            _ => {}
        }
        Ok(())
    }
}

/// Remove everything a subscription has mirrored into `dst_mcat`.
fn teardown_mirror(inner: &mut SubInner, dst_mcat: &Mcat) {
    unmirror(inner, dst_mcat, |_| true);
    inner.metas.clear();
}

/// A publisher subject's live rows as the images a delta carries, parents
/// first: a collection and its descendants by `(depth, path)`, each with
/// its metadata and then its datasets, or one dataset with its metadata.
/// Links stay home; a subject that is gone walks as nothing. Resync,
/// move-in and [`Federation::subtree_digest`] all read a publisher through
/// it, lazily, one collection's datasets at a time.
pub(crate) fn subtree_rows(src: &Mcat, root: Subject) -> impl Iterator<Item = WalOp> + '_ {
    let meta = move |of| {
        let rows = src.metadata.for_subject(of).into_iter();
        rows.map(|row| WalOp::MetaPut { row })
    };
    let dataset = move |row: Dataset| {
        let of = Subject::Dataset(row.id);
        std::iter::once(WalOp::DatasetPut { row }).chain(meta(of))
    };
    let collection = move |row: Collection| {
        let (of, listed) = (Subject::Collection(row.id), src.datasets.list(row.id));
        let listed = listed.into_iter().filter(|ds| ds.link_target.is_none());
        let head = std::iter::once(WalOp::CollectionPut { row }).chain(meta(of));
        head.chain(listed.flat_map(dataset))
    };
    let (mut colls, dss): (Vec<Collection>, Vec<Dataset>) = match root {
        Subject::Dataset(id) => (Vec::new(), src.datasets.get(id).into_iter().collect()),
        Subject::Collection(id) => {
            let ids = std::iter::once(id).chain(src.collections.descendants(id));
            let colls = ids.filter_map(|id| src.collections.get(id).ok());
            (colls.collect(), Vec::new())
        }
    };
    colls.retain(|c| c.link_target.is_none());
    colls.sort_by_key(|c| (c.path.depth(), c.path.to_string()));
    let dss = dss.into_iter().filter(|ds| ds.link_target.is_none());
    let colls = colls.into_iter().flat_map(collection);
    colls.chain(dss.flat_map(dataset))
}

/// The bytes shipping walked rows costs: a collection's mirror path, a
/// dataset's name plus 64, and 48 per metadata row.
fn link_bytes(sub: &Subscription, rows: &[WalOp]) -> u64 {
    let bytes = rows.iter().map(|op| match op {
        WalOp::CollectionPut { row } => row
            .path
            .rebase(&sub.src_root, &sub.dst_root)
            .map_or(0, |mirror| mirror.to_string().len() as u64),
        WalOp::DatasetPut { row } => row.name.len() as u64 + 64,
        WalOp::MetaPut { .. } => 48,
        _ => 0,
    });
    bytes.sum::<u64>().max(1)
}

/// The rows a shipped put brings in from outside the mirror: an unmapped
/// collection in the subtree, or an unmapped dataset under a mapped
/// collection, whose id is at or below the watermark existed before the
/// put and may carry rows no delta ships again. It is walked only while
/// its live row still sits where the put put it; a stale image walks as
/// nothing, since a later put of the subject, still unmapped, walks it.
fn moved_in(sub: &Subscription, inner: &SubInner, src: &Mcat, op: &WalOp) -> Option<Vec<WalOp>> {
    let (subject, brought_in) = match op {
        WalOp::CollectionPut { row } if row.link_target.is_none() => (
            Subject::Collection(row.id),
            !inner.colls.contains_key(&row.id.raw()) && row.path.starts_with(&sub.src_root),
        ),
        WalOp::DatasetPut { row } if row.link_target.is_none() => (
            Subject::Dataset(row.id),
            !inner.dss.contains_key(&row.id.raw()) && inner.colls.contains_key(&row.coll.raw()),
        ),
        _ => return None,
    };
    if !brought_in || row_id(op)? > inner.watermark {
        return None;
    }
    let rows: Vec<WalOp> = subtree_rows(src, subject).collect();
    let current = match (op, rows.first()) {
        (WalOp::CollectionPut { row }, Some(WalOp::CollectionPut { row: live })) => {
            live.path == row.path
        }
        (WalOp::DatasetPut { row }, Some(WalOp::DatasetPut { row: live })) => {
            (live.coll, &live.name) == (row.coll, &row.name)
        }
        _ => false,
    };
    Some(if current { rows } else { Vec::new() })
}

/// The publisher row a subtree subscription can care about — put or
/// deleted by a collection, dataset or metadata op — by raw id; `None`
/// for every other redo op.
fn row_id(op: &WalOp) -> Option<u64> {
    Some(match op {
        WalOp::CollectionPut { row } => row.id.raw(),
        WalOp::CollectionDelete { id } => id.raw(),
        WalOp::DatasetPut { row } => row.id.raw(),
        WalOp::DatasetDelete { id } => id.raw(),
        WalOp::MetaPut { row } => row.id.raw(),
        WalOp::MetaDelete { id } => id.raw(),
        _ => return None,
    })
}

/// Follow a publisher-side collection move/rename that stays inside the
/// subscribed subtree: rebase the local mirror collection, refresh the
/// stored `src_path` (later `DatasetPut`s under it derive provenance from
/// it), and re-point the `zone_path` provenance of datasets already
/// mirrored directly under it. The publisher re-puts the moved node
/// before its descendants, so a descendant's put usually finds its local
/// mirror already at the rebased path and only updates the maps.
fn mirror_move(
    sub: &Subscription,
    inner: &mut SubInner,
    dst_mcat: &Mcat,
    src_raw: u64,
    new_src_path: LogicalPath,
) -> SrbResult<()> {
    let local = inner.colls[&src_raw].local;
    let mirror_path = new_src_path.rebase(&sub.src_root, &sub.dst_root)?;
    let cur = dst_mcat.collections.get(local)?;
    if cur.path != mirror_path {
        let parent_lp = mirror_path
            .parent()
            .ok_or_else(|| SrbError::Invalid("mirror path is the root".into()))?;
        let name = mirror_path
            .name()
            .ok_or_else(|| SrbError::Invalid("mirror path is the root".into()))?;
        let parent = ensure_collection(dst_mcat, &parent_lp, dst_mcat.admin())?;
        dst_mcat.collections.move_collection(local, parent, name)?;
    }
    for &local_ds in inner.dss.values() {
        let Ok(d) = dst_mcat.datasets.get(local_ds) else {
            continue;
        };
        if d.coll == local {
            dst_mcat.repoint_home(local_ds, &new_src_path.child(&d.name)?.to_string())?;
        }
    }
    if let Some(m) = inner.colls.get_mut(&src_raw) {
        m.src_path = new_src_path;
    }
    Ok(())
}

/// Unmirror the mapped collections whose publisher path `gone` selects:
/// the mirrored datasets in them first, then the collections
/// deepest-first, and their map entries. A collection still holding rows
/// this subscription did not mirror refuses the delete and is kept.
fn unmirror(inner: &mut SubInner, dst_mcat: &Mcat, gone: impl Fn(&LogicalPath) -> bool) {
    let mut colls: Vec<(u64, CollectionId, usize)> = inner
        .colls
        .iter()
        .filter(|(_, m)| gone(&m.src_path))
        .map(|(&k, m)| (k, m.local, m.src_path.depth()))
        .collect();
    let locals: HashSet<CollectionId> = colls.iter().map(|&(_, local, _)| local).collect();
    let dss: Vec<(u64, DatasetId)> = {
        let rows = dst_mcat.datasets.batch();
        inner
            .dss
            .iter()
            .filter(|(_, &local)| rows.get_ref(local).is_none_or(|d| locals.contains(&d.coll)))
            .map(|(&k, &local)| (k, local))
            .collect()
    };
    for (k, local) in dss {
        inner.dss.remove(&k);
        let _ = dst_mcat.remove_dataset(local);
    }
    colls.sort_by_key(|&(_, _, depth)| std::cmp::Reverse(depth));
    for (k, local, _) in colls {
        inner.colls.remove(&k);
        let _ = dst_mcat.remove_collection(local);
    }
}

/// `src->dst` metric label for a subscription's link.
fn link_label(fed: &Federation, sub: &Subscription) -> String {
    let zones = fed.zones_slice();
    format!("{}->{}", zones[sub.src].name(), zones[sub.dst].name())
}
