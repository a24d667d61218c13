//! The federation: zone membership, peering links, cross-zone
//! registration, and the canonical subtree export used to prove
//! convergence.

use crate::grid::Grid;
use crate::zone::replication::Subscription;
use crate::zone::Zone;
use srb_mcat::dataset::AccessSpec;
use srb_mcat::metadata::{MetaKind, Subject};
use srb_mcat::{Mcat, WalConfig, ZONE_HOME_ATTR, ZONE_PATH_ATTR, ZONE_URL_SCHEME};
use srb_net::topology::RPC_MESSAGE_BYTES;
use srb_net::{Admission, BreakerConfig, FaultMode, FaultPlan, HealthRegistry, LinkSpec, Receipt};
use srb_obs::{MetricsRegistry, MetricsSnapshot};
use srb_storage::LogDevice;
use srb_types::sync::{LockRank, RwLock};
use srb_types::{
    CollectionId, LogicalPath, ResourceId, ServerId, SimClock, SiteId, SrbError, SrbResult,
    Triplet, UserId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a zone within its federation (assignment order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneId(pub usize);

impl std::fmt::Display for ZoneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zone#{}", self.0)
    }
}

/// The pseudo-site all link pseudo-resources live at in the federation's
/// own fault plan (zone links are not resources of any member grid).
const FED_SITE: SiteId = SiteId(u64::MAX);

/// One directed peering link.
struct LinkInfo {
    spec: LinkSpec,
    /// Synthetic resource id keying this direction in the federation's
    /// fault plan and health registry.
    fault: ResourceId,
}

/// Health/latency summary of one directed link, for status pages.
#[derive(Debug, Clone)]
pub struct ZoneLinkStatus {
    /// Origin zone.
    pub from: ZoneId,
    /// Destination zone.
    pub to: ZoneId,
    /// One-way link latency in microseconds.
    pub latency_us: u64,
    /// Whether the link is currently reachable (no `Down` fault).
    pub up: bool,
}

/// A set of peered zones: membership, links, subscriptions, and the
/// federation-level fault plan, health registry and `zone.*` metrics.
///
/// Zones and links are fixed at setup time (`&mut self`); everything that
/// mutates at run time (subscription cursors, outboxes, fault modes,
/// breakers, metrics) sits behind its own ranked locks, so a federation
/// is shared by reference exactly like a [`Grid`].
pub struct Federation {
    clock: SimClock,
    zones: Vec<Zone>,
    links: HashMap<(usize, usize), LinkInfo>,
    subs: RwLock<Vec<Arc<Subscription>>>,
    faults: FaultPlan,
    health: HealthRegistry,
    metrics: MetricsRegistry,
}

impl Default for Federation {
    fn default() -> Self {
        Federation::new()
    }
}

impl Federation {
    /// An empty federation with a fresh shared clock. Build member grids
    /// with [`GridBuilder::clock`](crate::GridBuilder::clock)`(fed.clock().clone())`
    /// so every zone advances the same timeline.
    pub fn new() -> Self {
        let clock = SimClock::new();
        Federation {
            clock: clock.clone(),
            zones: Vec::new(),
            links: HashMap::new(),
            subs: RwLock::new(LockRank::ZoneFed, "zone.fed.subs", Vec::new()),
            faults: FaultPlan::new(),
            health: HealthRegistry::new(clock, BreakerConfig::default()),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The federation-wide virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The federation's `zone.*` metric registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Deterministic snapshot of the federation's `zone.*` metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    // ------------------------------------------------------- membership --

    /// Add a member zone. The grid must have been built on this
    /// federation's clock; if it has no WAL yet, durability is enabled
    /// here over a fresh log device (replication is sourced from the WAL,
    /// so a zone cannot join without one).
    pub fn add_zone(&mut self, name: &str, grid: Grid, contact: ServerId) -> SrbResult<ZoneId> {
        if self.zones.iter().any(|z| z.name == name) {
            return Err(SrbError::AlreadyExists(format!("zone '{name}'")));
        }
        if grid.mcat.wal().is_none() {
            grid.enable_durability(Arc::new(LogDevice::new()), WalConfig::default())?;
        }
        let device = grid
            .mcat
            .wal()
            .map(|w| Arc::clone(w.device()))
            .ok_or_else(|| SrbError::Internal("durability enabled but no WAL".into()))?;
        grid.server(contact)?; // validate the contact server exists
        let id = ZoneId(self.zones.len());
        self.zones.push(Zone {
            name: name.to_string(),
            grid,
            contact,
            device,
        });
        self.metrics
            .gauge("zone.zones", "")
            .set(self.zones.len() as i64);
        Ok(id)
    }

    /// The member zone behind an id.
    pub fn zone(&self, z: ZoneId) -> SrbResult<&Zone> {
        self.zones
            .get(z.0)
            .ok_or_else(|| SrbError::NotFound(format!("{z}")))
    }

    /// All member zones in id order.
    pub fn zones(&self) -> impl Iterator<Item = (ZoneId, &Zone)> {
        self.zones.iter().enumerate().map(|(i, z)| (ZoneId(i), z))
    }

    /// Look a zone up by name.
    pub fn zone_named(&self, name: &str) -> Option<ZoneId> {
        self.zones.iter().position(|z| z.name == name).map(ZoneId)
    }

    /// Number of member zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    // ------------------------------------------------------------ links --

    /// Peer two zones with a symmetric link (one link record per
    /// direction, each independently faultable — a real WAN can fail one
    /// way).
    pub fn link(&mut self, a: ZoneId, b: ZoneId, spec: LinkSpec) -> SrbResult<&mut Self> {
        if a == b {
            return Err(SrbError::Invalid(format!("cannot link {a} to itself")));
        }
        for z in [a, b] {
            if z.0 >= self.zones.len() {
                return Err(SrbError::NotFound(format!("{z}")));
            }
        }
        for (from, to) in [(a.0, b.0), (b.0, a.0)] {
            self.links.insert(
                (from, to),
                LinkInfo {
                    spec,
                    fault: link_fault_id(from, to),
                },
            );
        }
        self.metrics
            .gauge("zone.links", "")
            .set((self.links.len() / 2) as i64);
        Ok(self)
    }

    fn link_info(&self, from: usize, to: usize) -> SrbResult<&LinkInfo> {
        self.links.get(&(from, to)).ok_or_else(|| {
            SrbError::NotFound(format!("no link {} -> {}", ZoneId(from), ZoneId(to)))
        })
    }

    /// Partition a zone pair: both directions go hard-down until
    /// [`Federation::heal`].
    pub fn partition(&self, a: ZoneId, b: ZoneId) -> SrbResult<()> {
        for (from, to) in [(a.0, b.0), (b.0, a.0)] {
            let link = self.link_info(from, to)?;
            self.faults.set_mode(link.fault, FaultMode::Down);
        }
        self.metrics.counter("zone.partitions", "").inc();
        Ok(())
    }

    /// Heal a previously partitioned (or otherwise faulted) zone pair.
    /// The pair's own link breakers are reset so replication resumes on
    /// the next pump round instead of waiting out a cooldown; every other
    /// link's breaker history is left untouched.
    pub fn heal(&self, a: ZoneId, b: ZoneId) -> SrbResult<()> {
        for (from, to) in [(a.0, b.0), (b.0, a.0)] {
            let link = self.link_info(from, to)?;
            self.faults.clear_mode(link.fault);
            self.health.reset_resource(link.fault);
        }
        Ok(())
    }

    /// Install a seeded fault mode on one link *direction* (flaky WANs
    /// rarely misbehave symmetrically).
    pub fn set_link_mode(&self, from: ZoneId, to: ZoneId, mode: FaultMode) -> SrbResult<()> {
        let link = self.link_info(from.0, to.0)?;
        self.faults.set_mode(link.fault, mode);
        Ok(())
    }

    /// Clear any fault mode from one link direction.
    pub fn clear_link_mode(&self, from: ZoneId, to: ZoneId) -> SrbResult<()> {
        let link = self.link_info(from.0, to.0)?;
        self.faults.clear_mode(link.fault);
        Ok(())
    }

    /// Is the directed link currently reachable? `false` when the pair is
    /// unlinked, partitioned, or hard-down in this direction.
    pub fn link_up(&self, from: ZoneId, to: ZoneId) -> bool {
        match self.links.get(&(from.0, to.0)) {
            Some(link) => self.faults.is_up(link.fault, FED_SITE),
            None => false,
        }
    }

    /// Status of every directed link, ordered by (from, to) — feeds the
    /// MySRB `/grid-status` federation table.
    pub fn link_statuses(&self) -> Vec<ZoneLinkStatus> {
        let mut keys: Vec<&(usize, usize)> = self.links.keys().collect();
        keys.sort();
        keys.into_iter()
            .map(|&(from, to)| ZoneLinkStatus {
                from: ZoneId(from),
                to: ZoneId(to),
                latency_us: self.links[&(from, to)].spec.latency_us,
                up: self.link_up(ZoneId(from), ZoneId(to)),
            })
            .collect()
    }

    /// Charge one message of `bytes` across the directed link: breaker
    /// admission, one fault-plan draw, then the link's transfer cost.
    /// Returns the virtual nanoseconds to charge, or the injected failure.
    pub(crate) fn charge_link(&self, from: usize, to: usize, bytes: u64) -> SrbResult<u64> {
        let link = self.link_info(from, to)?;
        if self.health.admit(link.fault) == Admission::FastFail {
            self.metrics.counter("zone.link_fastfail", "").inc();
            return Err(SrbError::ResourceUnavailable(format!(
                "link {} -> {} circuit open",
                ZoneId(from),
                ZoneId(to)
            )));
        }
        match self.faults.inject(link.fault, FED_SITE) {
            Ok(extra) => {
                self.health.record(link.fault, true);
                Ok(extra + link.spec.transfer_ns(bytes))
            }
            Err(e) => {
                self.health.record(link.fault, false);
                self.metrics.counter("zone.link_blocked", "").inc();
                Err(e)
            }
        }
    }

    /// One request/response round trip of control traffic on the link.
    pub(crate) fn charge_link_rpc(&self, from: usize, to: usize) -> SrbResult<u64> {
        Ok(self.charge_link(from, to, RPC_MESSAGE_BYTES)? * 2)
    }

    pub(crate) fn zones_slice(&self) -> &[Zone] {
        &self.zones
    }

    pub(crate) fn subs_registry(&self) -> &RwLock<Vec<Arc<Subscription>>> {
        &self.subs
    }

    // -------------------------------------------- cross-zone registration --

    /// Register a dataset that lives in `src` into `dst`'s catalog as a
    /// remote replica with home-zone provenance.
    ///
    /// The pointer row carries an [`AccessSpec::Url`] of the form
    /// `srb+zone://<src zone>/<path>` and two WAL-logged system-metadata
    /// triplets ([`ZONE_HOME_ATTR`], [`ZONE_PATH_ATTR`]) so provenance
    /// survives a crash with the row itself —
    /// [`Mcat::remote_provenance`] fails closed when it does not. Parent
    /// collections of `dst_path` are created as needed, owned by `dst`'s
    /// administrator.
    pub fn register_remote(
        &self,
        src: ZoneId,
        src_path: &str,
        dst: ZoneId,
        dst_path: &str,
    ) -> SrbResult<Receipt> {
        let src_zone = self.zone(src)?;
        let dst_zone = self.zone(dst)?;
        // One control round trip src -> dst carries the registration.
        let mut receipt = Receipt::time(self.charge_link_rpc(src.0, dst.0)?);
        // Pointer row and provenance are one commit group — recovery sees
        // both or neither — closed here whichever way the registration ends.
        let dst_mcat = &dst_zone.grid.mcat;
        let done = (|| {
            let src_lp = LogicalPath::parse(src_path)?;
            let src_mcat = &src_zone.grid.mcat;
            let ds = src_mcat.datasets.get(src_mcat.resolve_dataset(&src_lp)?)?;
            let size = ds.replicas.iter().map(|r| r.size).max().unwrap_or(0);
            let checksum = ds.replicas.first().and_then(|r| r.checksum.clone());

            let dst_lp = LogicalPath::parse(dst_path)?;
            let name = dst_lp
                .name()
                .ok_or_else(|| SrbError::Invalid("registration target is the root".into()))?;
            let parent_lp = dst_lp
                .parent()
                .ok_or_else(|| SrbError::Invalid("registration target is the root".into()))?;
            let admin = dst_mcat.admin();
            let parent = ensure_collection(dst_mcat, &parent_lp, admin)?;
            let url = format!("{ZONE_URL_SCHEME}{}{src_path}", src_zone.name());
            let id = dst_mcat.datasets.create(
                &dst_mcat.ids,
                parent,
                name,
                &ds.data_type,
                admin,
                vec![(AccessSpec::Url { url }, size, checksum)],
                self.clock.now(),
            )?;
            dst_mcat.metadata.add(
                &dst_mcat.ids,
                Subject::Dataset(id),
                Triplet::new(ZONE_HOME_ATTR, src_zone.name(), ""),
                MetaKind::System,
            );
            dst_mcat.metadata.add(
                &dst_mcat.ids,
                Subject::Dataset(id),
                Triplet::new(ZONE_PATH_ATTR, src_path, ""),
                MetaKind::System,
            );
            Ok(())
        })();
        dst_mcat.commit();
        if let Some(wal) = dst_mcat.wal() {
            receipt.absorb(&Receipt::time(wal.take_pending_ns()));
        }
        done?;
        self.metrics.counter("zone.registrations", "").inc();
        Ok(receipt)
    }

    // -------------------------------------------------------- digests --

    /// Canonical export of a collection subtree: one line per collection,
    /// dataset and user-visible metadata triplet, relative to `root`,
    /// deterministically ordered.
    ///
    /// The export deliberately excludes everything zone-local — catalog
    /// ids, owners, ACLs, replica locations and system metadata — so a
    /// publisher subtree and its converged mirror serialize to **the same
    /// bytes**. This is the convergence oracle: replication is correct
    /// exactly when publisher and subscriber exports are byte-identical.
    pub fn subtree_digest(&self, z: ZoneId, root: &str) -> SrbResult<String> {
        subtree_export(&self.zone(z)?.grid.mcat, &LogicalPath::parse(root)?)
    }
}

/// Synthetic fault-plan resource id of the directed link `from -> to`
/// (`0x5A` = 'Z', well clear of grid-assigned resource ids).
fn link_fault_id(from: usize, to: usize) -> ResourceId {
    ResourceId(0x5A00_0000_0000_0000 | ((from as u64) << 24) | to as u64)
}

/// `mkdir -p`: resolve `path`, creating missing ancestors owned by
/// `owner`. Shared by cross-zone registration and the replication mirror.
pub(crate) fn ensure_collection(
    mcat: &Mcat,
    path: &LogicalPath,
    owner: UserId,
) -> SrbResult<CollectionId> {
    let mut cur = mcat.collections.root();
    let mut walked = LogicalPath::root();
    for part in path.components() {
        walked = walked.child(part)?;
        cur = match mcat.collections.resolve(&walked) {
            Ok(id) => id,
            Err(_) => mcat
                .collections
                .create(&mcat.ids, cur, part, owner, mcat.clock.now())?,
        };
    }
    Ok(cur)
}

/// Stable one-word tag for a metadata kind in the canonical export.
fn kind_tag(kind: &MetaKind) -> Option<String> {
    match kind {
        MetaKind::UserDefined => Some("user".to_string()),
        MetaKind::TypeOriented(schema) => Some(format!("type:{schema}")),
        // System and file-based rows are zone-local bookkeeping.
        MetaKind::System | MetaKind::FileBased(_) => None,
    }
}

/// See [`Federation::subtree_digest`].
pub(crate) fn subtree_export(mcat: &Mcat, root: &LogicalPath) -> SrbResult<String> {
    let root_id = mcat.collections.resolve(root)?;
    let mut colls = vec![root_id];
    colls.extend(mcat.collections.descendants(root_id));
    let mut entries: Vec<String> = Vec::new();
    for cid in colls {
        let coll = mcat.collections.get(cid)?;
        if coll.link_target.is_some() {
            continue; // links are zone-local aliases, not content
        }
        let rel = coll.path.rebase(root, &LogicalPath::root())?;
        if !rel.is_root() {
            entries.push(format!("C {rel}"));
        }
        for ds in mcat.datasets.list(cid) {
            if ds.link_target.is_some() {
                continue;
            }
            let ds_rel = rel.child(&ds.name)?;
            let size = ds.replicas.iter().map(|r| r.size).max().unwrap_or(0);
            let checksum = ds
                .replicas
                .first()
                .and_then(|r| r.checksum.clone())
                .unwrap_or_else(|| "-".to_string());
            entries.push(format!("D {ds_rel} {} {size} {checksum}", ds.data_type));
            let mut meta: Vec<String> = mcat
                .metadata
                .for_subject(Subject::Dataset(ds.id))
                .iter()
                .filter_map(|row| {
                    kind_tag(&row.kind).map(|tag| {
                        format!(
                            "M {ds_rel} {tag} {}={} [{}]",
                            row.triplet.name,
                            row.triplet.value.lexical(),
                            row.triplet.units
                        )
                    })
                })
                .collect();
            meta.sort();
            entries.extend(meta);
        }
    }
    entries.sort();
    Ok(entries.join("\n"))
}
