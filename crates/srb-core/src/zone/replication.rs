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
//! When the publisher's checkpoint prunes the log past the subscription's
//! fetch cursor, the gap is unrecoverable from deltas and the
//! subscription falls back to a **resync**: rebuild the mirror from a
//! full subtree walk, then resume delta fetches from the publisher's
//! current durable LSN.

use crate::zone::federation::{ensure_collection, Federation, ZoneId};
use crate::zone::Zone;
use srb_mcat::dataset::AccessSpec;
use srb_mcat::metadata::{MetaKind, Subject};
use srb_mcat::{
    export_deltas, Dataset, Delta, DeltaFetch, Mcat, WalOp, ZONE_HOME_ATTR, ZONE_PATH_ATTR,
    ZONE_URL_SCHEME,
};
use srb_types::sync::{LockRank, Mutex};
use srb_types::{
    CollectionId, DatasetId, LogicalPath, Lsn, MetaId, MetaValue, SrbError, SrbResult, Triplet,
};
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
    /// [`Federation::pump`].
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
        {
            let subs = self.subs_registry().read();
            if subs
                .iter()
                .any(|s| s.src == src.0 && s.dst == dst.0 && s.src_root == src_lp)
            {
                return Err(SrbError::AlreadyExists(format!(
                    "subscription {dst} <- {src} {src_root}"
                )));
            }
        }
        let sub = Arc::new(Subscription {
            src: src.0,
            dst: dst.0,
            src_root: src_lp,
            dst_root: dst_root.clone(),
            state: Mutex::new(
                LockRank::ZoneLink,
                "zone.link.sub",
                SubInner {
                    fetched: Lsn::default(),
                    outbox: VecDeque::new(),
                    colls: HashMap::new(),
                    dss: HashMap::new(),
                    metas: HashMap::new(),
                    applied: 0,
                    resyncs: 0,
                    max_lag_ns: 0,
                },
            ),
        });
        {
            let mut inner = sub.state.lock();
            // Handshake round trip first: an unlinked or down pair must
            // fail before any catalog mutation, not leave a fully built
            // mirror behind with no subscription registered.
            let handshake_ns = self.charge_link_rpc(dst.0, src.0)?;
            let copied = self.resync(&sub, &mut inner)?;
            // The initial copy crosses the link like any other transfer;
            // a fault injected mid-copy tears the mirror back down.
            match self.charge_link(src.0, dst.0, copied) {
                Ok(ns) => {
                    self.clock().advance(handshake_ns + ns);
                }
                Err(e) => {
                    let dst_mcat = &self.zones_slice()[dst.0].grid.mcat;
                    teardown_mirror(&mut inner, dst_mcat);
                    dst_mcat.commit();
                    return Err(e);
                }
            }
        }
        self.subs_registry().write().push(sub);
        self.metrics().counter("zone.subscriptions", "").inc();
        Ok(dst_root.to_string())
    }

    /// Drive every subscription one round: fetch new publisher deltas
    /// over the link, then apply at most `batch` outbox deltas per
    /// subscription to the subscriber's catalog. Link costs and apply
    /// costs advance the shared clock, so replication lag is measurable
    /// against commit times. Deterministic: subscriptions run in
    /// registration order.
    pub fn pump(&self, batch: usize) -> SrbResult<PumpReport> {
        if batch == 0 {
            return Err(SrbError::Invalid("pump batch must be positive".into()));
        }
        let subs: Vec<Arc<Subscription>> = self.subs_registry().read().clone();
        let mut report = PumpReport::default();
        for sub in &subs {
            let mut inner = sub.state.lock();
            let link = link_label(self, sub);
            self.pump_one(sub, &mut inner, &link, batch, &mut report)?;
            report.pending += inner.outbox.len();
            self.metrics()
                .gauge("zone.outbox_depth", &link)
                .set(inner.outbox.len() as i64);
        }
        self.metrics().counter("zone.pump_rounds", "").inc();
        report.cost_ns = report.cost_ns.max(1); // a round is never free
        Ok(report)
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
                    DeltaFetch::Resync { .. } => {
                        let copied = self.resync(sub, inner)?;
                        inner.resyncs += 1;
                        report.resyncs += 1;
                        self.metrics().counter("zone.resyncs", "").inc();
                        match self.charge_link(sub.src, sub.dst, copied) {
                            Ok(ns) => fetch_ns += ns,
                            Err(_) => report.blocked += 1,
                        }
                    }
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
                                        .filter(|d| relevant_op(&d.record.op))
                                        .collect();
                                    report.fetched += relevant.len();
                                    self.metrics()
                                        .counter("zone.deltas_fetched", "")
                                        .add(relevant.len() as u64);
                                    self.metrics().counter("zone.delta_bytes", "").add(bytes);
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
            if let Err(e) = self.apply_delta(sub, inner, dst, delta) {
                outcome = Err(e);
                break;
            }
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
                .get_or_insert_with(|| self.metrics().histogram("zone.lag_ns", link))
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
            .counter("zone.deltas_applied", "")
            .add(applied as u64);
        outcome
    }

    /// Rebuild the mirror from a full publisher subtree walk, then resume
    /// delta fetches from the publisher's current durable LSN. Returns the
    /// bytes the copy would ship (the canonical export size). The rebuilt
    /// mirror is one commit group on the subscriber, whichever way the
    /// copy ends.
    fn resync(&self, sub: &Subscription, inner: &mut SubInner) -> SrbResult<u64> {
        let zones = self.zones_slice();
        let (src, dst) = (&zones[sub.src], &zones[sub.dst]);
        let copied = self.resync_locked(sub, inner, src, dst);
        dst.grid.mcat.commit();
        copied
    }

    fn resync_locked(
        &self,
        sub: &Subscription,
        inner: &mut SubInner,
        src: &Zone,
        dst: &Zone,
    ) -> SrbResult<u64> {
        // Fetch cursor first: deltas committed during (virtual-instant)
        // copy would be at higher LSNs and are refetched later.
        inner.fetched = src.device().synced_lsn();
        inner.outbox.clear();

        // Tear down the existing mirror (everything this subscription
        // created).
        let dst_mcat = &dst.grid.mcat;
        teardown_mirror(inner, dst_mcat);

        // Copy the publisher subtree, parents before children.
        let src_mcat = &src.grid.mcat;
        let root_id = src_mcat.collections.resolve(&sub.src_root)?;
        let mut coll_ids = vec![root_id];
        coll_ids.extend(src_mcat.collections.descendants(root_id));
        let mut colls: Vec<_> = coll_ids
            .into_iter()
            .filter_map(|id| src_mcat.collections.get(id).ok())
            .filter(|c| c.link_target.is_none())
            .collect();
        colls.sort_by_key(|c| (c.path.depth(), c.path.to_string()));
        let mut copied = 0u64;
        for coll in colls {
            let mirror_path = coll.path.rebase(&sub.src_root, &sub.dst_root)?;
            let local = ensure_collection(dst_mcat, &mirror_path, dst_mcat.admin())?;
            copied += mirror_path.to_string().len() as u64;
            inner.colls.insert(
                coll.id.raw(),
                MirrorColl {
                    local,
                    src_path: coll.path.clone(),
                },
            );
            for ds in src_mcat.datasets.list(coll.id) {
                if ds.link_target.is_some() {
                    continue;
                }
                copied += ds.name.len() as u64 + 64;
                let meta = src_mcat.metadata.for_subject(Subject::Dataset(ds.id));
                copied += meta.len() as u64 * 48;
                self.mirror_create(inner, src, dst, &ds, coll.path.clone())?;
                for row in meta {
                    if matches!(row.kind, MetaKind::System | MetaKind::FileBased(_)) {
                        continue;
                    }
                    if let Some(&local_ds) = inner.dss.get(&ds.id.raw()) {
                        let new = dst_mcat.metadata.add(
                            &dst_mcat.ids,
                            Subject::Dataset(local_ds),
                            row.triplet.clone(),
                            row.kind.clone(),
                        );
                        inner.metas.insert(row.id.raw(), new);
                    }
                }
            }
        }
        Ok(copied.max(1))
    }

    /// Materialize one publisher dataset row as a local mirror: a remote
    /// pointer replica plus WAL-logged home-zone provenance.
    fn mirror_create(
        &self,
        inner: &mut SubInner,
        src: &Zone,
        dst: &Zone,
        row: &Dataset,
        src_coll_path: LogicalPath,
    ) -> SrbResult<()> {
        let Some(mirror) = inner.colls.get(&row.coll.raw()) else {
            return Ok(()); // parent not mirrored: outside the subtree
        };
        let dst_mcat = &dst.grid.mcat;
        let src_path = src_coll_path.child(&row.name)?;
        let size = row.replicas.iter().map(|r| r.size).max().unwrap_or(0);
        let checksum = row.replicas.first().and_then(|r| r.checksum.clone());
        let url = format!("{ZONE_URL_SCHEME}{}{src_path}", src.name());
        let id = dst_mcat.datasets.create(
            &dst_mcat.ids,
            mirror.local,
            &row.name,
            &row.data_type,
            dst_mcat.admin(),
            vec![(AccessSpec::Url { url }, size, checksum)],
            self.clock().now(),
        )?;
        dst_mcat.metadata.add(
            &dst_mcat.ids,
            Subject::Dataset(id),
            Triplet::new(ZONE_HOME_ATTR, src.name(), ""),
            MetaKind::System,
        );
        dst_mcat.metadata.add(
            &dst_mcat.ids,
            Subject::Dataset(id),
            Triplet::new(ZONE_PATH_ATTR, src_path.to_string().as_str(), ""),
            MetaKind::System,
        );
        inner.dss.insert(row.id.raw(), id);
        Ok(())
    }

    /// Apply one shipped delta to the subscriber's catalog through its own
    /// (WAL-logged) table APIs, translating ids through the mirror maps.
    fn apply_delta(
        &self,
        sub: &Subscription,
        inner: &mut SubInner,
        dst: &Zone,
        delta: Delta,
    ) -> SrbResult<()> {
        let zones = self.zones_slice();
        let src = &zones[sub.src];
        let dst_mcat = &dst.grid.mcat;
        match delta.record.op {
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
                        unmirror_branch(inner, dst_mcat, row.id.raw());
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
                    let _ = dst_mcat.collections.delete(m.local);
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
                    (None, Some(mirror)) => {
                        let src_coll_path = mirror.src_path.clone();
                        self.mirror_create(inner, src, dst, &row, src_coll_path)?;
                    }
                    (Some(local), Some(mirror)) => {
                        let src_path = mirror.src_path.child(&row.name)?;
                        let cur = dst_mcat.datasets.get(local)?;
                        if cur.coll != mirror.local || cur.name != row.name {
                            let mirror_coll = mirror.local;
                            dst_mcat
                                .datasets
                                .move_dataset(local, mirror_coll, &row.name)?;
                            update_prov_path(dst_mcat, local, &src_path)?;
                        }
                        let size = row.replicas.iter().map(|r| r.size).max().unwrap_or(0);
                        let checksum = row.replicas.first().and_then(|r| r.checksum.clone());
                        dst_mcat.datasets.update(local, |d| {
                            d.data_type = row.data_type.clone();
                            if let Some(r0) = d.replicas.first_mut() {
                                r0.size = size;
                                r0.checksum = checksum.clone();
                            }
                            Ok(())
                        })?;
                    }
                    (Some(local), None) => {
                        // Moved out of the subscribed subtree: unmirror.
                        inner.dss.remove(&row.id.raw());
                        if dst_mcat.datasets.delete(local).is_ok() {
                            dst_mcat.metadata.remove_all(Subject::Dataset(local));
                        }
                    }
                    (None, None) => {}
                }
            }
            WalOp::DatasetDelete { id } => {
                if let Some(local) = inner.dss.remove(&id.raw()) {
                    if dst_mcat.datasets.delete(local).is_ok() {
                        dst_mcat.metadata.remove_all(Subject::Dataset(local));
                    }
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

/// Remove everything a subscription has mirrored into `dst_mcat`:
/// datasets first, then collections deepest-first (ancestors shared with
/// other mirrors refuse the delete and are kept), then the id maps.
fn teardown_mirror(inner: &mut SubInner, dst_mcat: &Mcat) {
    for local in inner.dss.values() {
        if dst_mcat.datasets.delete(*local).is_ok() {
            dst_mcat.metadata.remove_all(Subject::Dataset(*local));
        }
    }
    let mut mirrored: Vec<&MirrorColl> = inner.colls.values().collect();
    mirrored.sort_by_key(|m| std::cmp::Reverse(m.src_path.depth()));
    for m in mirrored {
        let _ = dst_mcat.collections.delete(m.local); // root mapping: kept
    }
    inner.colls.clear();
    inner.dss.clear();
    inner.metas.clear();
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
            update_prov_path(dst_mcat, local_ds, &new_src_path.child(&d.name)?)?;
        }
    }
    if let Some(m) = inner.colls.get_mut(&src_raw) {
        m.src_path = new_src_path;
    }
    Ok(())
}

/// Unmirror a whole collection branch after the publisher moved it out of
/// the subscribed subtree: delete the mirrored datasets under it, then
/// the mapped collections deepest-first, and drop their map entries.
fn unmirror_branch(inner: &mut SubInner, dst_mcat: &Mcat, src_raw: u64) {
    let Some(root) = inner.colls.get(&src_raw) else {
        return;
    };
    let old_src = root.src_path.clone();
    let mut gone: Vec<(u64, CollectionId, usize)> = inner
        .colls
        .iter()
        .filter(|(_, m)| m.src_path.starts_with(&old_src))
        .map(|(&k, m)| (k, m.local, m.src_path.depth()))
        .collect();
    let locals: HashSet<CollectionId> = gone.iter().map(|&(_, local, _)| local).collect();
    let ds_gone: Vec<u64> = inner
        .dss
        .iter()
        .filter(|(_, &local)| {
            dst_mcat
                .datasets
                .get(local)
                .is_ok_and(|d| locals.contains(&d.coll))
        })
        .map(|(&k, _)| k)
        .collect();
    for k in ds_gone {
        if let Some(local) = inner.dss.remove(&k) {
            if dst_mcat.datasets.delete(local).is_ok() {
                dst_mcat.metadata.remove_all(Subject::Dataset(local));
            }
        }
    }
    gone.sort_by_key(|&(_, _, depth)| std::cmp::Reverse(depth));
    for (k, local, _) in gone {
        inner.colls.remove(&k);
        let _ = dst_mcat.collections.delete(local);
    }
}

/// Which publisher redo ops a subtree subscription can ever care about.
fn relevant_op(op: &WalOp) -> bool {
    matches!(
        op,
        WalOp::CollectionPut { .. }
            | WalOp::CollectionDelete { .. }
            | WalOp::DatasetPut { .. }
            | WalOp::DatasetDelete { .. }
            | WalOp::MetaPut { .. }
            | WalOp::MetaDelete { .. }
    )
}

/// `src->dst` metric label for a subscription's link.
fn link_label(fed: &Federation, sub: &Subscription) -> String {
    let zones = fed.zones_slice();
    format!("{}->{}", zones[sub.src].name(), zones[sub.dst].name())
}

/// Point the mirror's `zone_path` provenance at the dataset's new home
/// path after a publisher-side move/rename.
fn update_prov_path(mcat: &Mcat, local: DatasetId, src_path: &LogicalPath) -> SrbResult<()> {
    for row in mcat.metadata.for_subject(Subject::Dataset(local)) {
        if row.kind == MetaKind::System && row.triplet.name == ZONE_PATH_ATTR {
            mcat.metadata
                .update(row.id, MetaValue::Text(src_path.to_string()), String::new())?;
        }
    }
    Ok(())
}
