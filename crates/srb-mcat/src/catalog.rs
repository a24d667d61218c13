//! The catalog facade: one `Mcat` owns every table and implements the
//! cross-table operations — path resolution, permission evaluation,
//! structural-metadata enforcement, and the conjunctive query engine with
//! its indexed planner and full-scan baseline (ablation A1).

use crate::annotation::AnnotationTable;
use crate::audit::AuditLog;
use crate::collection::{AttrRequirement, Collection, CollectionTable};
use crate::container::ContainerTable;
use crate::dataset::{AccessSpec, Dataset, DatasetEntry, DatasetTable};
use crate::metadata::{MetaKind, MetaStore, RangeCond, Subject, DUBLIN_CORE};
use crate::query::{Query, QueryCondition, QueryHit};
use crate::resource::ResourceTable;
use crate::user::UserTable;
use crate::wal::{self, RecoveryReport, Wal, WalConfig};
use srb_storage::LogDevice;
use srb_types::{
    like_scan_prefix, AccessMatrix, CollectionId, CompareOp, CursorCodec, DatasetId, GroupId,
    IdGen, IdMap, IdSet, LogicalPath, MetaValue, PageToken, Permission, SimClock, SrbError,
    SrbResult, Timestamp, Triplet, UserId,
};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Seed for the catalog's cursor-signing key. Fixed so two seeded
/// simulation runs emit byte-identical tokens; clients still cannot mint
/// tokens, since they never see the derived key.
const CURSOR_KEY_SEED: u64 = 0x5352_425f_4355_5253; // "SRB_CURS"

/// URL scheme of a cross-zone replica pointer: a replica whose
/// [`AccessSpec::Url`] starts with this scheme holds no local bytes — it
/// names a dataset in a peer zone as `srb+zone://<zone>/<logical path>`.
const ZONE_URL_SCHEME: &str = "srb+zone://";

/// System-metadata attribute naming the home zone of a remote-registered
/// dataset. Written WAL-logged alongside the pointer so provenance
/// survives crash recovery with the row itself.
const ZONE_HOME_ATTR: &str = "zone_home";

/// System-metadata attribute holding the dataset's logical path in its
/// home zone.
const ZONE_PATH_ATTR: &str = "zone_path";

/// The Metadata Catalog.
///
/// One `Mcat` instance serves an entire SRB federation (the paper's
/// deployments ran a single MCAT at SDSC). All tables are individually
/// thread-safe; the facade adds cross-table invariants.
pub struct Mcat {
    /// Shared id allocator.
    pub ids: IdGen,
    /// The grid's virtual clock.
    pub clock: SimClock,
    /// Users and groups.
    pub users: UserTable,
    /// Physical and logical resources.
    pub resources: ResourceTable,
    /// The collection hierarchy.
    pub collections: CollectionTable,
    /// Datasets and replicas.
    pub datasets: DatasetTable,
    /// Containers.
    pub containers: ContainerTable,
    /// Metadata triplets.
    pub metadata: MetaStore,
    /// Annotations.
    pub annotations: AnnotationTable,
    /// Audit trail.
    pub audit: AuditLog,
    admin: UserId,
    /// Signs/verifies the opaque continuation tokens of `query_page` and
    /// `list_page`.
    cursors: CursorCodec,
    /// Query-planner metric handles, attached when observability is on.
    obs: Option<QueryObs>,
    /// The write-ahead log, once durability is enabled.
    wal: OnceLock<Arc<Wal>>,
}

/// A dataset row's half of its permission: its own matrix's verdict and
/// the collection it inherits from, or — a link object — the target whose
/// ACL governs.
enum OwnLevel {
    At(Permission, CollectionId),
    Link(DatasetId),
}

impl OwnLevel {
    fn of(d: &Dataset, user: Option<UserId>, groups: &[GroupId]) -> Self {
        match d.link_target {
            Some(target) => OwnLevel::Link(target),
            None => OwnLevel::At(acl_level(&d.acl, user, groups), d.coll),
        }
    }
}

/// One matrix's verdict for a signed-on user or an anonymous visitor.
fn acl_level(acl: &AccessMatrix, user: Option<UserId>, groups: &[GroupId]) -> Permission {
    match user {
        Some(u) => acl.effective(u, groups),
        None => acl.effective_anonymous(),
    }
}

/// `pa + na` against `pb + nb`, byte by byte, with neither joined.
fn joined_cmp(pa: &str, na: &str, pb: &str, nb: &str) -> Ordering {
    pa.bytes()
        .chain(na.bytes())
        .cmp(pb.bytes().chain(nb.bytes()))
}

/// One index source of a plan.
enum Source<'q> {
    /// A single index-complete condition.
    One(&'q QueryCondition),
    /// Every `Gt`/`Ge`/`Lt`/`Le` condition on one attribute that they
    /// bound from both sides: one bounded index walk instead of two
    /// half-ranges materialised and intersected.
    Interval(Vec<&'q QueryCondition>),
}

fn is_bound(op: CompareOp) -> bool {
    matches!(
        op,
        CompareOp::Gt | CompareOp::Ge | CompareOp::Lt | CompareOp::Le
    )
}

impl<'q> Source<'q> {
    /// Group the planner's strong conditions into sources, in order.
    fn fold(strong: Vec<&'q QueryCondition>) -> Vec<Source<'q>> {
        let two_sided = |attr: &str| {
            let has =
                |ops: [CompareOp; 2]| strong.iter().any(|c| c.attr == attr && ops.contains(&c.op));
            has([CompareOp::Gt, CompareOp::Ge]) && has([CompareOp::Lt, CompareOp::Le])
        };
        let mut out: Vec<Source<'q>> = Vec::new();
        for &c in &strong {
            if !(is_bound(c.op) && two_sided(&c.attr)) {
                out.push(Source::One(c));
                continue;
            }
            let open = out.iter_mut().find_map(|s| match s {
                Source::Interval(v) if v[0].attr == c.attr => Some(v),
                _ => None,
            });
            match open {
                Some(v) => v.push(c),
                None => out.push(Source::Interval(vec![c])),
            }
        }
        out
    }

    fn conds(&self) -> &[&'q QueryCondition] {
        match self {
            Source::One(c) => std::slice::from_ref(c),
            Source::Interval(v) => v,
        }
    }

    fn range_conds(v: &[&'q QueryCondition]) -> Vec<RangeCond<'q>> {
        v.iter().map(|c| (c.op, &c.value)).collect()
    }

    fn selectivity(&self, meta: &MetaStore) -> usize {
        match self {
            Source::One(c) => meta.selectivity(&c.attr, c.op, &c.value),
            Source::Interval(v) => meta.interval_selectivity(&v[0].attr, &Self::range_conds(v)),
        }
    }

    fn candidates(&self, meta: &MetaStore) -> IdSet<DatasetId> {
        match self {
            Source::One(c) => meta.dataset_candidates(&c.attr, c.op, &c.value),
            Source::Interval(v) => {
                meta.interval_dataset_candidates(&v[0].attr, &Self::range_conds(v))
            }
        }
    }

    /// Served by a bounded walk of the ordered index (`mcat.range_scan`).
    fn is_range(&self) -> bool {
        match self {
            Source::One(c) => {
                is_bound(c.op)
                    || (c.op == CompareOp::Like && like_scan_prefix(&c.value.lexical()).is_some())
            }
            Source::Interval(_) => true,
        }
    }
}

/// Pre-registered counters for the query planner; kept as handles so the
/// per-query cost is a few `fetch_add`s, not registry lookups.
#[derive(Debug, Clone)]
struct QueryObs {
    plans_indexed: srb_obs::Counter,
    plans_scan: srb_obs::Counter,
    indexes_probed: srb_obs::Counter,
    candidates_scanned: srb_obs::Counter,
    candidates_verified: srb_obs::Counter,
    range_scans: srb_obs::Counter,
    cursor_pages: srb_obs::Counter,
    cursor_invalidated: srb_obs::Counter,
}

impl Mcat {
    /// Create a catalog with a bootstrap administrator (`srb@sdsc`).
    pub fn new(clock: SimClock, admin_password: &str) -> Self {
        let ids = IdGen::new();
        let users = UserTable::new();
        let admin = match users.register(&ids, "srb", "sdsc", admin_password, true) {
            Ok(u) => u,
            // Registration only fails on a duplicate name; the table is new.
            Err(_) => unreachable!("fresh user table has no duplicate names"),
        };
        let collections = CollectionTable::new(&ids, admin, clock.now());
        Mcat {
            ids,
            clock,
            users,
            resources: ResourceTable::new(),
            collections,
            datasets: DatasetTable::new(),
            containers: ContainerTable::new(),
            metadata: MetaStore::new(),
            annotations: AnnotationTable::new(),
            audit: AuditLog::new(),
            admin,
            cursors: CursorCodec::new(CURSOR_KEY_SEED),
            obs: None,
            wal: OnceLock::new(),
        }
    }

    /// Attach planner and scope-cache instrumentation (builder-style,
    /// called once by the grid at construction when observability is
    /// enabled).
    pub fn with_metrics(mut self, metrics: &srb_obs::MetricsRegistry) -> Self {
        self.obs = Some(QueryObs {
            plans_indexed: metrics.counter("query.plans", "indexed"),
            plans_scan: metrics.counter("query.plans", "scan"),
            indexes_probed: metrics.counter("query.indexes_probed", ""),
            candidates_scanned: metrics.counter("query.candidates_scanned", ""),
            candidates_verified: metrics.counter("query.candidates_verified", ""),
            range_scans: metrics.counter("mcat.range_scan", ""),
            cursor_pages: metrics.counter("mcat.cursor_pages", ""),
            cursor_invalidated: metrics.counter("mcat.cursor_invalidated", ""),
        });
        self.collections.attach_metrics(metrics);
        self
    }

    /// The bootstrap administrator.
    pub fn admin(&self) -> UserId {
        self.admin
    }

    /// Assemble a catalog from restored tables (see [`crate::snapshot`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        ids: IdGen,
        clock: SimClock,
        admin: UserId,
        users: UserTable,
        resources: ResourceTable,
        collections: CollectionTable,
        datasets: DatasetTable,
        containers: ContainerTable,
        metadata: MetaStore,
        annotations: AnnotationTable,
        audit: AuditLog,
    ) -> Mcat {
        Mcat {
            ids,
            clock,
            users,
            resources,
            collections,
            datasets,
            containers,
            metadata,
            annotations,
            audit,
            admin,
            cursors: CursorCodec::new(CURSOR_KEY_SEED),
            obs: None,
            wal: OnceLock::new(),
        }
    }

    // ------------------------------------------------------- durability --

    /// Wire every table to `walh` (shared hook-attachment of
    /// [`enable_wal`](Self::enable_wal) and [`recover`](Self::recover)).
    fn attach_wal_all(&self, walh: &Arc<Wal>) {
        self.users.attach_wal(walh.clone());
        self.resources.attach_wal(walh.clone());
        self.collections.attach_wal(walh.clone());
        self.datasets.attach_wal(walh.clone());
        self.containers.attach_wal(walh.clone());
        self.metadata.attach_wal(walh.clone());
        self.annotations.attach_wal(walh.clone());
        self.audit.attach_wal(walh.clone());
    }

    /// Enable write-ahead durability over `device`. Everything already in
    /// the catalog (the bootstrap admin, the root collection, any rows
    /// registered before this call) is covered by an initial checkpoint;
    /// from here on every mutation is redo-logged, and durable once the
    /// operation that made it calls [`commit`](Self::commit). May be
    /// called at most once per catalog.
    pub fn enable_wal(
        &self,
        device: Arc<LogDevice>,
        config: WalConfig,
        metrics: Option<&srb_obs::MetricsRegistry>,
    ) -> SrbResult<()> {
        if self.wal.get().is_some() {
            return Err(SrbError::Invalid("durability already enabled".into()));
        }
        let walh = Arc::new(Wal::new(device, self.clock.clone(), config, metrics));
        walh.install_checkpoint(walh.checkpoint_cover(), self)?;
        self.attach_wal_all(&walh);
        let _ = self.wal.set(walh);
        Ok(())
    }

    /// The write-ahead log, once durability is enabled.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.get()
    }

    /// End the current commit group: append the commit marker and fsync,
    /// making every mutation logged since the previous marker durable and
    /// — for recovery and replication alike — one unit. Tables never call
    /// this; the operation that owns the mutations does, exactly once,
    /// when it is done (`SrbConnection::end_op` in `srb-core`; code that
    /// writes tables directly owes the call itself). A no-op without a
    /// WAL or when nothing was logged since the last marker.
    pub fn commit(&self) {
        if let Some(walh) = self.wal.get() {
            walh.commit();
        }
    }

    /// Install a periodic checkpoint if the configured interval has
    /// elapsed on the virtual clock. Called from op epilogues, after the
    /// op's commit; cheap when durability is off or no checkpoint is due.
    /// Returns whether one was installed.
    pub fn maybe_checkpoint(&self) -> SrbResult<bool> {
        let Some(walh) = self.wal.get() else {
            return Ok(false);
        };
        let Some(cover) = walh.checkpoint_claim(self.clock.now()) else {
            return Ok(false);
        };
        walh.install_checkpoint(cover, self)?;
        Ok(true)
    }

    /// Install a checkpoint unconditionally (shutdown, tests, explicit
    /// admin request). Errors when durability is not enabled.
    pub fn checkpoint_now(&self) -> SrbResult<()> {
        let Some(walh) = self.wal.get() else {
            return Err(SrbError::Invalid("durability not enabled".into()));
        };
        walh.install_checkpoint(walh.checkpoint_cover(), self)
    }

    /// Redo recovery: rebuild the catalog a crashed `device` proves — its
    /// latest checkpoint plus every complete commit group of the durable
    /// tail — and resume durable operation over the same device.
    ///
    /// The shared clock is advanced to at least the last acknowledged
    /// commit's virtual time, a fresh WAL resumes LSN assignment after the
    /// durable tail, and a post-recovery checkpoint is installed so
    /// records the replay discarded (an unterminated trailing group) can
    /// never resurface in a later recovery.
    pub fn recover(
        clock: SimClock,
        device: Arc<LogDevice>,
        config: WalConfig,
        metrics: Option<&srb_obs::MetricsRegistry>,
    ) -> SrbResult<(Mcat, RecoveryReport)> {
        let replayed = wal::replay_device(&device)?;
        let mcat = Mcat::restore(clock.clone(), replayed.snapshot)?;
        clock.advance_to(Timestamp(replayed.max_at_ns));
        let walh = Arc::new(Wal::new(device, clock, config, metrics));
        walh.charge_recovery(replayed.report.recovery_ns);
        walh.install_checkpoint(walh.checkpoint_cover(), &mcat)?;
        mcat.attach_wal_all(&walh);
        let _ = mcat.wal.set(walh);
        Ok((mcat, replayed.report))
    }

    // ------------------------------------------------------- resolution --

    /// Resolve a logical path to a dataset id (the final component is the
    /// dataset name; collection links along the way are followed; a final
    /// dataset link is *not* followed).
    pub fn resolve_dataset(&self, path: &LogicalPath) -> SrbResult<DatasetId> {
        let name = path
            .name()
            .ok_or_else(|| SrbError::Invalid("root is not a dataset".into()))?;
        let parent = path
            .parent()
            .ok_or_else(|| SrbError::Invalid("root is not a dataset".into()))?;
        let coll = self.collections.resolve(&parent)?;
        self.datasets
            .find(coll, name)
            .ok_or_else(|| SrbError::NotFound(format!("dataset '{path}'")))
    }

    /// The current logical path of a dataset.
    pub fn dataset_path(&self, id: DatasetId) -> SrbResult<LogicalPath> {
        let d = self.datasets.get(id)?;
        let coll = self.collections.get(d.coll)?;
        coll.path.child(&d.name)
    }

    // ---------------------------------------------------------- removal --

    /// Drop a dataset with everything keyed to it: the row, then its
    /// metadata rows and meta-file associations, then its annotations
    /// ("when the last replica is deleted all the metadata and
    /// annotations are also deleted"). An absent row touches nothing.
    pub fn remove_dataset(&self, id: DatasetId) -> SrbResult<()> {
        self.datasets.delete(id)?;
        self.metadata.remove_all(Subject::Dataset(id));
        self.annotations.remove_all(Subject::Dataset(id));
        Ok(())
    }

    /// Drop a collection with everything keyed to it, in the order of
    /// [`remove_dataset`](Self::remove_dataset). A collection that still
    /// holds sub-collections or datasets is refused and left as it is.
    pub fn remove_collection(&self, id: CollectionId) -> SrbResult<()> {
        // A zero-row page reports only whether any dataset remains.
        if self.datasets.list_page(id, None, 0).1 {
            return Err(SrbError::Invalid(format!("collection {id} holds datasets")));
        }
        self.collections.delete(id)?;
        self.metadata.remove_all(Subject::Collection(id));
        self.annotations.remove_all(Subject::Collection(id));
        Ok(())
    }

    // ------------------------------------------------------ permissions --

    /// Effective permission of `user` on a collection: the collection's own
    /// matrix, or any ancestor grant (a grant on `/Cultures` extends to
    /// `/Cultures/Avian Culture`).
    pub(crate) fn effective_on_collection(
        &self,
        user: Option<UserId>,
        coll: CollectionId,
    ) -> SrbResult<Permission> {
        self.collection_level(user, &self.groups_for(user), coll)
    }

    /// [`Self::effective_on_collection`] with the user's groups in hand:
    /// the ancestors' matrices read in place under one collection guard.
    fn collection_level(
        &self,
        user: Option<UserId>,
        groups: &[GroupId],
        coll: CollectionId,
    ) -> SrbResult<Permission> {
        let tree = self.collections.path_batch();
        let mut best = Permission::None;
        let mut cur = Some(coll);
        while let Some(c) = cur {
            let node = tree
                .get_ref(c)
                .ok_or_else(|| SrbError::NotFound(format!("collection {c}")))?;
            best = best.max(acl_level(&node.acl, user, groups));
            cur = node.parent;
        }
        Ok(best)
    }

    fn groups_for(&self, user: Option<UserId>) -> Vec<GroupId> {
        user.map(|u| self.users.groups_of(u)).unwrap_or_default()
    }

    /// Effective permission of `user` on a dataset: max of the dataset's
    /// own matrix and the containing collection's effective permission.
    /// For link objects, the *target*'s ACL governs (paper: "the access
    /// control of the original object is inherited by the linked object").
    pub fn effective_on_dataset(
        &self,
        user: Option<UserId>,
        dataset: DatasetId,
    ) -> SrbResult<Permission> {
        let groups = self.groups_for(user);
        let own = OwnLevel::of(&self.datasets.get(dataset)?, user, &groups);
        self.dataset_level(user, own, |c| self.collection_level(user, &groups, c))
    }

    /// [`Self::effective_on_dataset`] for each of `datasets` (`None` where
    /// it would fail), priced per batch — a page of query hits: the
    /// user's groups are fetched once and before any guard, own ACLs are
    /// read from borrowed rows under one dataset guard (dropped before any
    /// collection read), and the inherited level is resolved once per
    /// distinct collection.
    pub fn effective_on_datasets(
        &self,
        user: Option<UserId>,
        datasets: &[DatasetId],
    ) -> Vec<Option<Permission>> {
        let groups = self.groups_for(user);
        let own: Vec<Option<OwnLevel>> = {
            let rows = self.datasets.batch();
            datasets
                .iter()
                .map(|&d| Some(OwnLevel::of(rows.get_ref(d)?, user, &groups)))
                .collect()
        };
        let mut inherited: IdMap<CollectionId, SrbResult<Permission>> = IdMap::default();
        own.into_iter()
            .map(|own| {
                self.dataset_level(user, own?, |c| {
                    inherited
                        .entry(c)
                        .or_insert_with(|| self.collection_level(user, &groups, c))
                        .clone()
                })
                .ok()
            })
            .collect()
    }

    /// The one place a dataset's own level meets its inherited one;
    /// `inherited` resolves a collection (memoised or not).
    fn dataset_level(
        &self,
        user: Option<UserId>,
        own: OwnLevel,
        inherited: impl FnOnce(CollectionId) -> SrbResult<Permission>,
    ) -> SrbResult<Permission> {
        match own {
            OwnLevel::Link(target) => self.effective_on_dataset(user, target),
            OwnLevel::At(own, coll) => Ok(own.max(inherited(coll)?)),
        }
    }

    /// Error unless `user` has `needed` on the dataset.
    pub fn require_dataset(
        &self,
        user: Option<UserId>,
        dataset: DatasetId,
        needed: Permission,
    ) -> SrbResult<()> {
        if self.effective_on_dataset(user, dataset)?.allows(needed) {
            Ok(())
        } else {
            Err(SrbError::PermissionDenied(format!(
                "need {} on dataset {dataset}",
                needed.name()
            )))
        }
    }

    /// Error unless `user` has `needed` on the collection.
    pub fn require_collection(
        &self,
        user: Option<UserId>,
        coll: CollectionId,
        needed: Permission,
    ) -> SrbResult<()> {
        if self.effective_on_collection(user, coll)?.allows(needed) {
            Ok(())
        } else {
            Err(SrbError::PermissionDenied(format!(
                "need {} on collection {coll}",
                needed.name()
            )))
        }
    }

    // ---------------------------------------------- structural metadata --

    /// The attribute requirements applying to items added to `coll`: the
    /// collection's own requirements plus every ancestor's (the curator
    /// scenario: "MetaCore for Cultures" on the parent, augmented on the
    /// sub-collection).
    pub fn requirements_for(&self, coll: CollectionId) -> SrbResult<Vec<AttrRequirement>> {
        let mut out = Vec::new();
        let mut cur = Some(coll);
        while let Some(c) = cur {
            let node = self.collections.get(c)?;
            for r in &node.requirements {
                if !out.iter().any(|x: &AttrRequirement| x.name == r.name) {
                    out.push(r.clone());
                }
            }
            cur = node.parent;
        }
        Ok(out)
    }

    /// Validate supplied triplets against the structural requirements of a
    /// collection: every mandatory attribute must be present, and values of
    /// restricted-vocabulary attributes must come from the vocabulary.
    pub fn validate_structural(&self, coll: CollectionId, supplied: &[Triplet]) -> SrbResult<()> {
        for req in self.requirements_for(coll)? {
            let given: Vec<&Triplet> = supplied.iter().filter(|t| t.name == req.name).collect();
            if req.mandatory && given.is_empty() {
                return Err(SrbError::MissingMetadata(format!(
                    "attribute '{}' is mandatory here ({})",
                    req.name, req.comment
                )));
            }
            if req.allowed.len() > 1 {
                for t in given {
                    let lex = t.value.lexical();
                    if !req.allowed.iter().any(|a| a == &lex) {
                        return Err(SrbError::Invalid(format!(
                            "'{}' is not in the vocabulary for '{}' ({:?})",
                            lex, req.name, req.allowed
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Attach a type-oriented (schema) triplet, validating Dublin Core
    /// element names.
    pub fn add_type_metadata(
        &self,
        subject: Subject,
        schema: &str,
        triplet: Triplet,
    ) -> SrbResult<()> {
        if schema == "DublinCore" && !DUBLIN_CORE.contains(&triplet.name.as_str()) {
            return Err(SrbError::Invalid(format!(
                "'{}' is not a Dublin Core element",
                triplet.name
            )));
        }
        self.metadata.add(
            &self.ids,
            subject,
            triplet,
            MetaKind::TypeOriented(schema.to_string()),
        );
        Ok(())
    }

    // ------------------------------------------------------------ query --

    /// Attribute names queryable in a scope — "a drop-down menu containing
    /// all the metadata names that are queryable in that collection and
    /// every collection in the hierarchy under the collection". Served from
    /// the collection-subtree cache plus a set-probed single pass over the
    /// metadata subject index; no per-dataset `Subject` vector is built.
    pub fn queryable_attrs(&self, scope: &LogicalPath) -> SrbResult<Vec<String>> {
        let set = self.scope_set(scope)?;
        let in_scope: IdSet<DatasetId> = self.datasets.ids_in_colls(&set).into_iter().collect();
        Ok(self.metadata.attr_names_in(&in_scope))
    }

    /// The collection set a query over `scope` searches, via the
    /// generation-stamped subtree cache on [`CollectionTable`].
    fn scope_set(&self, scope: &LogicalPath) -> SrbResult<Arc<IdSet<CollectionId>>> {
        let root = self.collections.resolve(scope)?;
        Ok(self.collections.subtree_set(root))
    }

    fn datasets_in_scope(&self, scope: &LogicalPath) -> SrbResult<Vec<DatasetId>> {
        let set = self.scope_set(scope)?;
        Ok(self.datasets.ids_in_colls(&set))
    }

    fn is_system_attr(attr: &str) -> bool {
        matches!(attr, "name" | "data_type" | "size" | "owner")
    }

    fn system_value(&self, d: &crate::dataset::Dataset, attr: &str) -> Option<MetaValue> {
        match attr {
            "name" => Some(MetaValue::Text(d.name.clone())),
            "data_type" => Some(MetaValue::Text(d.data_type.clone())),
            "size" => Some(MetaValue::Int(d.size() as i64)),
            "owner" => self
                .users
                .get(d.owner)
                .ok()
                .map(|u| MetaValue::Text(u.qualified())),
            _ => None,
        }
    }

    fn condition_matches(&self, q: &Query, dataset: DatasetId, c: &QueryCondition) -> bool {
        let subject = Subject::Dataset(dataset);
        // Any user triplet with the attribute name may satisfy the
        // condition.
        let rows = self.metadata.for_subject(subject);
        for r in &rows {
            if r.triplet.name == c.attr && c.op.eval(&r.triplet.value, &c.value) {
                return true;
            }
        }
        if q.include_system && Self::is_system_attr(&c.attr) {
            if let Ok(d) = self.datasets.get(dataset) {
                if let Some(v) = self.system_value(&d, &c.attr) {
                    if c.op.eval(&v, &c.value) {
                        return true;
                    }
                }
            }
        }
        if q.include_annotations
            && c.attr == "annotation"
            && self.annotations.text_matches(subject, &c.value.lexical())
        {
            return true;
        }
        false
    }

    fn build_hit(&self, q: &Query, dataset: DatasetId) -> QueryHit {
        let row = self.datasets.get(dataset).ok();
        let path = row
            .as_ref()
            .and_then(|d| {
                let paths = self.collections.path_batch();
                paths.path_of(d.coll).map(|p| p.join_display(&d.name))
            })
            .unwrap_or_default();
        let selected = q
            .select
            .iter()
            .map(|attr| {
                let v = self
                    .metadata
                    .value_of(Subject::Dataset(dataset), attr)
                    .or_else(|| {
                        if q.include_system {
                            row.as_ref().and_then(|d| self.system_value(d, attr))
                        } else {
                            None
                        }
                    })
                    .map(|v| v.lexical())
                    .unwrap_or_default();
                (attr.clone(), v)
            })
            .collect();
        QueryHit {
            dataset,
            path,
            selected,
        }
    }

    /// A condition is *index-complete* when the metadata value index alone
    /// yields exactly the datasets satisfying it. A condition on a system
    /// attribute name under `include_system`, or on `annotation` under
    /// `include_annotations`, can also be satisfied by data the index does
    /// not cover (a dataset named `size` in system metadata, an annotation
    /// text), so such conditions must be verified per candidate instead.
    fn index_complete(q: &Query, c: &QueryCondition) -> bool {
        let system_shadow = q.include_system && Self::is_system_attr(&c.attr);
        let annotation_shadow = q.include_annotations && c.attr == "annotation";
        !(system_shadow || annotation_shadow)
    }

    /// Check one residual condition against borrowed state: the caller's
    /// metadata guard first, then system attributes and annotations.
    fn residual_matches(
        &self,
        q: &Query,
        meta: &crate::metadata::MetaBatch<'_>,
        row: &crate::dataset::Dataset,
        c: &QueryCondition,
    ) -> bool {
        if meta.subject_matches(Subject::Dataset(row.id), &c.attr, c.op, &c.value) {
            return true;
        }
        if q.include_system && Self::is_system_attr(&c.attr) {
            if let Some(v) = self.system_value(row, &c.attr) {
                if c.op.eval(&v, &c.value) {
                    return true;
                }
            }
        }
        q.include_annotations
            && c.attr == "annotation"
            && self
                .annotations
                .text_matches(Subject::Dataset(row.id), &c.value.lexical())
    }

    /// The verification sweep: of `candidates`, lazily and in their order,
    /// those that exist, lie in `scope` and satisfy every `residual`
    /// condition. One metadata read guard and one dataset read guard (both
    /// `McatTable` rank, so they may be held together) serve the whole
    /// sweep and are released when the iterator is dropped — drop it
    /// before taking either guard again.
    fn sweep<'a>(
        &'a self,
        q: &'a Query,
        scope: &'a IdSet<CollectionId>,
        residual: &'a [&'a QueryCondition],
        candidates: impl Iterator<Item = DatasetId> + 'a,
    ) -> impl Iterator<Item = DatasetId> + 'a {
        let meta = self.metadata.batch();
        let ds = self.datasets.batch();
        candidates.filter(move |&d| {
            ds.get_ref(d).is_some_and(|row| {
                scope.contains(&row.coll)
                    && residual
                        .iter()
                        .all(|c| self.residual_matches(q, &meta, row, c))
            })
        })
    }

    /// Build hits for confirmed candidates under batch guards: one metadata
    /// guard, one dataset guard, and one collection-path guard serve every
    /// hit, and each hit reads its dataset row exactly once.
    fn build_hits(&self, q: &Query, confirmed: &[DatasetId]) -> Vec<QueryHit> {
        let meta = self.metadata.batch();
        let ds = self.datasets.batch();
        let paths = self.collections.path_batch();
        confirmed
            .iter()
            .filter_map(|&d| {
                let row = ds.get_ref(d)?;
                let path = paths
                    .path_of(row.coll)
                    .map(|p| p.join_display(&row.name))
                    .unwrap_or_default();
                let selected = q
                    .select
                    .iter()
                    .map(|attr| {
                        let v = meta
                            .value_of(Subject::Dataset(d), attr)
                            .map(|v| v.lexical())
                            .or_else(|| {
                                if q.include_system {
                                    self.system_value(row, attr).map(|v| v.lexical())
                                } else {
                                    None
                                }
                            })
                            .unwrap_or_default();
                        (attr.clone(), v)
                    })
                    .collect();
                Some(QueryHit {
                    dataset: d,
                    path,
                    selected,
                })
            })
            .collect()
    }

    /// Execute a query through the multi-index planner.
    ///
    /// Pipeline:
    /// 1. **Set sources** — every index-complete condition can contribute
    ///    an exact candidate set from the metadata value index. The planner
    ///    materializes the most selective source and folds in the rest
    ///    cheapest-first — intersecting materialized sets, or probing each
    ///    survivor against the index when a source's partition dwarfs the
    ///    running set — and exits the moment the intersection is empty.
    ///    `Like`/`NotLike` sources scan whole partitions, so they drive the
    ///    plan only when no point/range source exists.
    /// 2. **Verification sweep** — scope membership plus residual
    ///    conditions are checked lazily against borrowed rows under one
    ///    metadata guard and one dataset guard (`sweep`), which every
    ///    query drains: the first `limit` hits in path order are known
    ///    only once every candidate is verified.
    /// 3. **Hit building** — paths and selected values come from batch
    ///    guards; each hit touches its dataset row once
    ///    (`build_hits`).
    pub fn query(&self, q: &Query) -> SrbResult<Vec<QueryHit>> {
        let scope = self.scope_set(&q.scope)?;
        let (candidates, residual) = self.plan(q, &scope);
        let scanned = candidates.len() as u64;
        let confirmed: Vec<DatasetId> = self
            .sweep(q, &scope, &residual, candidates.into_iter())
            .collect();
        if let Some(obs) = &self.obs {
            obs.candidates_scanned.add(scanned);
            obs.candidates_verified.add(confirmed.len() as u64);
        }
        let mut hits = self.build_hits(q, &confirmed);
        hits.sort_by(|a, b| a.path.cmp(&b.path));
        if q.limit > 0 {
            hits.truncate(q.limit);
        }
        Ok(hits)
    }

    /// The shared front half of [`query`](Self::query) and
    /// [`query_page`](Self::query_page): classify conditions, pick index
    /// sources, and materialize the candidate set.
    ///
    /// Classification: index-incomplete conditions go straight to the
    /// verification sweep; `Like` patterns with a scannable literal prefix
    /// (`foo%`) are *strong* sources — the ordered index serves them as a
    /// bounded prefix range — while other patterns drive the plan only
    /// when no point/range source exists. Range conditions that bound one
    /// attribute from both sides fold into a single interval [`Source`],
    /// so a window query costs its window, not its two half-ranges. When
    /// even the best source's estimated cost exceeds the number of
    /// datasets in scope, the full scan is cheaper: every indexed
    /// condition then moves to the residual sweep, which checks any
    /// condition kind correctly.
    fn plan<'q>(
        &self,
        q: &'q Query,
        scope: &IdSet<CollectionId>,
    ) -> (Vec<DatasetId>, Vec<&'q QueryCondition>) {
        let mut strong: Vec<&QueryCondition> = Vec::new();
        let mut patterns: Vec<&QueryCondition> = Vec::new();
        let mut residual: Vec<&QueryCondition> = Vec::new();
        for c in &q.conditions {
            let prefix_scan =
                c.op == CompareOp::Like && like_scan_prefix(&c.value.lexical()).is_some();
            if !Self::index_complete(q, c) {
                residual.push(c);
            } else if matches!(c.op, CompareOp::Like | CompareOp::NotLike) && !prefix_scan {
                patterns.push(c);
            } else {
                strong.push(c);
            }
        }
        if strong.is_empty() {
            strong.append(&mut patterns);
        } else {
            residual.append(&mut patterns);
        }
        let mut sources: Vec<(usize, Source<'q>)> = Source::fold(strong)
            .into_iter()
            .map(|src| (src.selectivity(&self.metadata), src))
            .collect();
        sources.sort_by_key(|(cost, _)| *cost);
        if let Some((best, _)) = sources.first() {
            if *best > self.datasets.count_in_colls(scope) {
                residual.extend(sources.drain(..).flat_map(|(_, src)| src.conds().to_vec()));
            }
        }

        if let Some(obs) = &self.obs {
            if sources.is_empty() {
                obs.plans_scan.inc();
            } else {
                obs.plans_indexed.inc();
                obs.indexes_probed.add(sources.len() as u64);
                let ranges = sources.iter().filter(|(_, src)| src.is_range()).count();
                obs.range_scans.add(ranges as u64);
            }
        }

        let candidates: Vec<DatasetId> = if let Some((_, driver)) = sources.first() {
            let mut set = driver.candidates(&self.metadata);
            for (cost, src) in &sources[1..] {
                if set.is_empty() {
                    break;
                }
                if *cost > set.len().saturating_mul(4) {
                    for c in src.conds() {
                        self.metadata
                            .filter_datasets(&mut set, &c.attr, c.op, &c.value);
                    }
                } else {
                    let other = src.candidates(&self.metadata);
                    set.retain(|d| other.contains(d));
                }
            }
            let mut v: Vec<DatasetId> = set.into_iter().collect();
            v.sort_unstable();
            v
        } else {
            self.datasets.ids_in_colls(scope)
        };
        (candidates, residual)
    }

    // ---------------------------------------------------------- cursors --

    /// Decode a continuation token against the current generation stamps,
    /// counting a `mcat.cursor_invalidated` tick on any rejection.
    fn decode_cursor(&self, token: &str, gens: &[u64]) -> SrbResult<PageToken> {
        match self.cursors.decode_fresh(token, gens) {
            Ok(t) => Ok(t),
            Err(e) => {
                if let Some(obs) = &self.obs {
                    obs.cursor_invalidated.inc();
                }
                Err(e)
            }
        }
    }

    /// One page of query results in path order, resuming from an opaque
    /// continuation token.
    ///
    /// The first call passes `token = None`; each page returns the token
    /// for the next one, or `None` when the listing is exhausted. Tokens
    /// embed the collection/dataset/metadata generation stamps current
    /// when they were issued — any catalog mutation in between makes the
    /// next call fail cleanly with `SrbError::Invalid` (never silently
    /// wrong pages), and the client restarts from the first page.
    ///
    /// `q.limit` is ignored: the page size is `page` and
    /// pages are always served in path order. Every call re-plans and
    /// re-orders the candidate set by path — O(candidates), which for a
    /// two-sided range is its window — while residual verification only
    /// touches the candidates actually served (plus one look-ahead for
    /// the more-pages flag). A `page` of 0 is refused with
    /// `SrbError::Invalid`: it would never reach the end.
    pub fn query_page(
        &self,
        q: &Query,
        token: Option<&str>,
        page: usize,
    ) -> SrbResult<(Vec<QueryHit>, Option<String>)> {
        if page == 0 {
            return Err(SrbError::Invalid("page size must be positive".into()));
        }
        let gens = vec![
            self.collections.generation().raw(),
            self.datasets.generation().raw(),
            self.metadata.generation().raw(),
        ];
        let last = match token {
            Some(t) => Some(self.decode_cursor(t, &gens)?.last),
            None => None,
        };
        let scope = self.scope_set(&q.scope)?;
        let (mut candidates, residual) = self.plan(q, &scope);
        self.path_order_after(&mut candidates, last.as_deref());
        // One look-ahead past the page tells whether another follows.
        let mut page_ids: Vec<DatasetId> = self
            .sweep(q, &scope, &residual, candidates.into_iter())
            .take(page.saturating_add(1))
            .collect();
        let more = page_ids.len() > page;
        page_ids.truncate(page);
        let hits = self.build_hits(q, &page_ids);
        if let Some(obs) = &self.obs {
            obs.cursor_pages.inc();
        }
        let next = more.then(|| {
            self.cursors.encode(&PageToken {
                section: 0,
                gens,
                last: hits.last().map(|h| h.path.clone()).unwrap_or_default(),
            })
        });
        Ok((hits, next))
    }

    /// Put `candidates` in full-path order and keep only those after
    /// `after` (a cursor's last-served path), dropping any whose row or
    /// collection is gone.
    ///
    /// The sort keys are borrowed: `(collection, &name, id)`. Each distinct
    /// collection's display prefix (`/a/b/`, or `/` for the root) is built
    /// once. Two keys in one collection compare by name; keys in different
    /// collections compare as the chained bytes `prefix + name`. That is
    /// exactly the order of the full path strings (`/b c/x` < `/b-c/x` <
    /// `/b/x`, since ` ` < `-` < `/`), with no path built for a candidate
    /// that is not served. The resume point is found by the same
    /// comparison.
    fn path_order_after(&self, candidates: &mut Vec<DatasetId>, after: Option<&str>) {
        let ds = self.datasets.batch();
        let paths = self.collections.path_batch();
        let mut prefixes: Vec<String> = Vec::new();
        let mut slot: IdMap<CollectionId, usize> = IdMap::default();
        let mut prev: Option<(CollectionId, usize)> = None;
        let mut keys: Vec<(usize, &str, DatasetId)> = Vec::with_capacity(candidates.len());
        for &d in candidates.iter() {
            let Some(row) = ds.get_ref(d) else { continue };
            let at = match prev {
                Some((c, at)) if c == row.coll => at,
                _ => match slot.get(&row.coll) {
                    Some(&at) => at,
                    None => {
                        let Some(path) = paths.path_of(row.coll) else {
                            continue;
                        };
                        prefixes.push(path.join_display(""));
                        slot.insert(row.coll, prefixes.len() - 1);
                        prefixes.len() - 1
                    }
                },
            };
            prev = Some((row.coll, at));
            keys.push((at, row.name.as_str(), d));
        }
        keys.sort_unstable_by(|a, b| {
            if a.0 == b.0 {
                a.1.cmp(b.1).then(a.2.cmp(&b.2))
            } else {
                joined_cmp(&prefixes[a.0], a.1, &prefixes[b.0], b.1)
            }
        });
        // Binary-search the resume point: everything at or before the
        // cursor's last-served path is done, however deep the cursor.
        let start = after.map_or(0, |l| {
            keys.partition_point(|k| joined_cmp(&prefixes[k.0], k.1, l, "") != Ordering::Greater)
        });
        candidates.clear();
        candidates.extend(keys[start..].iter().map(|k| k.2));
    }

    /// One page of a collection listing — sub-collections first (name
    /// order), then datasets (name order) — resuming from an opaque
    /// continuation token. Returns the sub-collection rows, the dataset
    /// entry rows, and the next token (`None` when exhausted). Each page
    /// is one bounded range read per section: O(page) however deep the
    /// cursor.
    ///
    /// Tokens carry the collection/dataset generation stamps; any
    /// structural mutation (create/move/delete, not in-place row updates)
    /// invalidates outstanding tokens with `SrbError::Invalid`, and so is
    /// a `limit` of 0, which would never reach the end.
    pub fn list_page(
        &self,
        coll: CollectionId,
        token: Option<&str>,
        limit: usize,
    ) -> SrbResult<(Vec<Collection>, Vec<DatasetEntry>, Option<String>)> {
        if limit == 0 {
            return Err(SrbError::Invalid("page size must be positive".into()));
        }
        let gens = vec![
            self.collections.generation().raw(),
            self.datasets.generation().raw(),
        ];
        let (section, last) = match token {
            Some(t) => {
                let tok = self.decode_cursor(t, &gens)?;
                (tok.section, Some(tok.last))
            }
            None => (0, None),
        };
        if self.collections.path_batch().get_ref(coll).is_none() {
            return Err(SrbError::NotFound(format!("collection {coll}")));
        }
        let mut subcolls = Vec::new();
        let mut remaining = limit;
        let mut after = last;
        if section == 0 {
            let (page, more) = self
                .collections
                .children_page(coll, after.as_deref(), remaining);
            remaining -= page.len();
            subcolls = page;
            if more {
                let last_name = subcolls
                    .last()
                    .and_then(|c| c.path.name())
                    .unwrap_or_default()
                    .to_string();
                if let Some(obs) = &self.obs {
                    obs.cursor_pages.inc();
                }
                let next = self.cursors.encode(&PageToken {
                    section: 0,
                    gens,
                    last: last_name,
                });
                return Ok((subcolls, Vec::new(), Some(next)));
            }
            // Sub-collections exhausted: the dataset section starts fresh.
            // (Dataset names are non-empty, so resuming strictly after ""
            // is the same as starting at the beginning.)
            after = None;
        }
        let (ds_page, more) = self.datasets.list_page(coll, after.as_deref(), remaining);
        let next = more.then(|| {
            self.cursors.encode(&PageToken {
                section: 1,
                gens,
                last: ds_page.last().map(|d| d.name.clone()).unwrap_or_default(),
            })
        });
        if let Some(obs) = &self.obs {
            obs.cursor_pages.inc();
        }
        Ok((subcolls, ds_page, next))
    }

    /// Full-scan baseline (ablation A1): evaluate every dataset in scope
    /// against every condition, ignoring the indexes.
    pub fn query_scan(&self, q: &Query) -> SrbResult<Vec<QueryHit>> {
        let mut hits: Vec<QueryHit> = self
            .datasets_in_scope(&q.scope)?
            .into_iter()
            .filter(|d| {
                q.conditions
                    .iter()
                    .all(|c| self.condition_matches(q, *d, c))
            })
            .map(|d| self.build_hit(q, d))
            .collect();
        hits.sort_by(|a, b| a.path.cmp(&b.path));
        if q.limit > 0 {
            hits.truncate(q.limit);
        }
        Ok(hits)
    }

    // ------------------------------------------- cross-zone provenance --

    /// Home-zone provenance of a cross-zone registration, or `None` for a
    /// purely local dataset.
    ///
    /// A dataset is *remote-registered* when any replica is a
    /// `srb+zone://` pointer. Such a row must carry its provenance —
    /// system-metadata triplets `zone_home` and `zone_path`
    /// naming the home zone and the path there — or the pointer is
    /// unusable: the grid could neither route a read home nor prove where
    /// the bytes live. Lost provenance therefore **fails closed** with
    /// [`SrbError::Invalid`] instead of answering from a dangling pointer.
    pub fn remote_provenance(&self, id: DatasetId) -> SrbResult<Option<(String, String)>> {
        let d = self.datasets.get(id)?;
        let remote = d.replicas.iter().any(
            |r| matches!(&r.spec, AccessSpec::Url { url } if url.starts_with(ZONE_URL_SCHEME)),
        );
        if !remote {
            return Ok(None);
        }
        let subject = Subject::Dataset(id);
        let home = self.metadata.value_of(subject, ZONE_HOME_ATTR);
        let path = self.metadata.value_of(subject, ZONE_PATH_ATTR);
        match (home, path) {
            (Some(h), Some(p)) => Ok(Some((h.lexical(), p.lexical()))),
            _ => Err(SrbError::Invalid(format!(
                "dataset {id} is a remote-zone pointer with lost provenance \
                 (missing {ZONE_HOME_ATTR}/{ZONE_PATH_ATTR} system metadata)"
            ))),
        }
    }

    /// The size and checksum a pointer row and the subtree digest take
    /// from a home row: its largest replica's size and its first replica's
    /// checksum.
    pub fn home_stat(ds: &Dataset) -> (u64, Option<&str>) {
        let checksum = ds.replicas.first().and_then(|r| r.checksum.as_deref());
        (
            ds.replicas.iter().map(|r| r.size).max().unwrap_or(0),
            checksum,
        )
    }

    /// The one writer of a remote pointer row: an admin-owned dataset at
    /// `parent`/`name` whose one replica is the URL `srb+zone://<home
    /// zone><home path>`, with the home row `src`'s type, size and checksum,
    /// then its `zone_home` and `zone_path` system triplets, WAL-logged in
    /// that order. Given the `local` row instead, it refreshes that row's
    /// type, size and checksum, first moving and
    /// [re-pointing](Self::repoint_home) it if it is elsewhere.
    ///
    /// The scheme and the two attribute names are private consts of this
    /// file, so no code elsewhere can name them:
    ///
    /// ```compile_fail
    /// let _ = srb_mcat::ZONE_URL_SCHEME;
    /// ```
    pub fn put_pointer(
        &self,
        local: Option<DatasetId>,
        (parent, name): (CollectionId, &str),
        (home, home_path): (&str, &str),
        src: &Dataset,
    ) -> SrbResult<DatasetId> {
        let (size, checksum) = Self::home_stat(src);
        let Some(local) = local else {
            let url = format!("{ZONE_URL_SCHEME}{home}{home_path}");
            let spec = vec![(AccessSpec::Url { url }, size, checksum.map(str::to_string))];
            let (ids, admin, now) = (&self.ids, self.admin(), self.clock.now());
            let id = self
                .datasets
                .create(ids, parent, name, &src.data_type, admin, spec, now)?;
            for (attr, value) in [(ZONE_HOME_ATTR, home), (ZONE_PATH_ATTR, home_path)] {
                let (of, triplet) = (Subject::Dataset(id), Triplet::new(attr, value, ""));
                self.metadata.add(ids, of, triplet, MetaKind::System);
            }
            return Ok(id);
        };
        let cur = self.datasets.get(local)?;
        if cur.coll != parent || cur.name != name {
            self.datasets.move_dataset(local, parent, name)?;
            self.repoint_home(local, home_path)?;
        }
        self.datasets.update(local, |d| {
            d.data_type = src.data_type.clone();
            if let Some(r0) = d.replicas.first_mut() {
                r0.size = size;
                r0.checksum = checksum.map(str::to_string);
            }
            Ok(())
        })?;
        Ok(local)
    }

    /// Point a remote pointer row's `zone_path` triplet at `home_path`,
    /// after its home row moved.
    pub fn repoint_home(&self, local: DatasetId, home_path: &str) -> SrbResult<()> {
        for row in self.metadata.for_subject(Subject::Dataset(local)) {
            if row.kind == MetaKind::System && row.triplet.name == ZONE_PATH_ATTR {
                let path = MetaValue::Text(home_path.to_string());
                self.metadata.update(row.id, path, String::new())?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------ stats --

    /// Entity counts for the MySRB admin page and capacity reports.
    pub fn summary(&self) -> serde_json::Value {
        serde_json::json!({
            "users": self.users.user_count(),
            "collections": self.collections.count(),
            "datasets": self.datasets.count(),
            "metadata_rows": self.metadata.count(),
            "annotations": self.annotations.count(),
            "audit_rows": self.audit.count(),
            "containers": self.containers.list().len(),
            "resources": self.resources.list().len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_types::{CompareOp, ResourceId};

    fn mcat() -> Mcat {
        Mcat::new(SimClock::new(), "admin-pw")
    }

    fn stored() -> AccessSpec {
        AccessSpec::Stored {
            resource: ResourceId(1),
            phys_path: "/p".into(),
        }
    }

    /// Build `/zoo/{birds,mammals}` with a few datasets + metadata.
    fn seeded() -> (Mcat, DatasetId, DatasetId, DatasetId) {
        let m = mcat();
        let root = m.collections.root();
        let admin = m.admin();
        let now = m.clock.now();
        let zoo = m
            .collections
            .create(&m.ids, root, "zoo", admin, now)
            .unwrap();
        let birds = m
            .collections
            .create(&m.ids, zoo, "birds", admin, now)
            .unwrap();
        let mammals = m
            .collections
            .create(&m.ids, zoo, "mammals", admin, now)
            .unwrap();
        let condor = m
            .datasets
            .create(
                &m.ids,
                birds,
                "condor.jpg",
                "jpeg image",
                admin,
                vec![(stored(), 1000, None)],
                now,
            )
            .unwrap();
        let sparrow = m
            .datasets
            .create(
                &m.ids,
                birds,
                "sparrow.jpg",
                "jpeg image",
                admin,
                vec![(stored(), 200, None)],
                now,
            )
            .unwrap();
        let lion = m
            .datasets
            .create(
                &m.ids,
                mammals,
                "lion.jpg",
                "jpeg image",
                admin,
                vec![(stored(), 4000, None)],
                now,
            )
            .unwrap();
        for (d, span) in [(condor, 290i64), (sparrow, 20)] {
            m.metadata.add(
                &m.ids,
                Subject::Dataset(d),
                Triplet::new("wingspan", span, "cm"),
                MetaKind::UserDefined,
            );
        }
        m.metadata.add(
            &m.ids,
            Subject::Dataset(lion),
            Triplet::new("habitat", "savanna", ""),
            MetaKind::UserDefined,
        );
        (m, condor, sparrow, lion)
    }

    fn p(s: &str) -> LogicalPath {
        LogicalPath::parse(s).unwrap()
    }

    #[test]
    fn resolve_dataset_and_path_round_trip() {
        let (m, condor, ..) = seeded();
        let path = m.dataset_path(condor).unwrap();
        assert_eq!(path.to_string(), "/zoo/birds/condor.jpg");
        assert_eq!(m.resolve_dataset(&path).unwrap(), condor);
        assert!(m.resolve_dataset(&p("/zoo/birds/none")).is_err());
        assert!(m.resolve_dataset(&LogicalPath::root()).is_err());
    }

    #[test]
    fn indexed_query_matches_scan() {
        let (m, condor, ..) = seeded();
        let q = Query::everywhere()
            .and("wingspan", CompareOp::Gt, 100i64)
            .show("wingspan");
        let a = m.query(&q).unwrap();
        let b = m.query_scan(&q).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].dataset, condor);
        assert_eq!(
            a[0].selected,
            vec![("wingspan".to_string(), "290".to_string())]
        );
    }

    #[test]
    fn planner_metrics_track_plan_kind_and_cache() {
        let metrics = srb_obs::MetricsRegistry::new();
        let (m, ..) = seeded();
        let m = m.with_metrics(&metrics);
        // Indexed plan: one strong source drives it.
        let q = Query::everywhere().and("wingspan", CompareOp::Gt, 100i64);
        assert_eq!(m.query(&q).unwrap().len(), 1);
        assert_eq!(metrics.counter("query.plans", "indexed").get(), 1);
        assert_eq!(metrics.counter("query.indexes_probed", "").get(), 1);
        assert_eq!(metrics.counter("query.candidates_scanned", "").get(), 1);
        assert_eq!(metrics.counter("query.candidates_verified", "").get(), 1);
        // No index-complete condition: full-scope scan plan.
        let q_scan = Query::everywhere();
        let hits = m.query(&q_scan).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(metrics.counter("query.plans", "scan").get(), 1);
        // The second query reused the cached "/" scope set.
        assert_eq!(metrics.counter("query.scope_cache_misses", "").get(), 1);
        assert_eq!(metrics.counter("query.scope_cache_hits", "").get(), 1);
    }

    #[test]
    fn scope_restricts_results() {
        let (m, ..) = seeded();
        let q_all = Query::everywhere().and("habitat", CompareOp::Eq, "savanna");
        assert_eq!(m.query(&q_all).unwrap().len(), 1);
        let q_birds =
            Query::everywhere()
                .under(p("/zoo/birds"))
                .and("habitat", CompareOp::Eq, "savanna");
        assert_eq!(m.query(&q_birds).unwrap().len(), 0);
    }

    #[test]
    fn conjunction_requires_all_conditions() {
        let (m, ..) = seeded();
        let q = Query::everywhere()
            .and("wingspan", CompareOp::Gt, 10i64)
            .and("wingspan", CompareOp::Lt, 100i64);
        let hits = m.query(&q).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].path.ends_with("sparrow.jpg"));
    }

    #[test]
    fn system_attributes_when_enabled() {
        let (m, ..) = seeded();
        let q = Query::everywhere()
            .and("size", CompareOp::Ge, 1000i64)
            .with_system()
            .show("size")
            .show("owner");
        let hits = m.query(&q).unwrap();
        assert_eq!(hits.len(), 2); // condor + lion
        assert!(hits.iter().any(|h| h.path.ends_with("lion.jpg")));
        let owner = &hits[0].selected[1].1;
        assert_eq!(owner, "srb@sdsc");
        // Without the flag, system attrs never match.
        let q2 = Query::everywhere().and("size", CompareOp::Ge, 1000i64);
        assert!(m.query(&q2).unwrap().is_empty());
    }

    #[test]
    fn annotation_matching_when_enabled() {
        let (m, condor, ..) = seeded();
        m.annotations.add(
            &m.ids,
            Subject::Dataset(condor),
            m.admin(),
            m.clock.now(),
            crate::annotation::AnnotationKind::Comment,
            "",
            "magnificent specimen",
        );
        let q = Query::everywhere()
            .and("annotation", CompareOp::Like, "%magnificent%")
            .with_annotations();
        assert_eq!(m.query(&q).unwrap().len(), 1);
        let q_off = Query::everywhere().and("annotation", CompareOp::Like, "%magnificent%");
        assert!(m.query(&q_off).unwrap().is_empty());
    }

    #[test]
    fn empty_conditions_list_everything_in_scope() {
        let (m, ..) = seeded();
        let q = Query::everywhere().under(p("/zoo"));
        assert_eq!(m.query(&q).unwrap().len(), 3);
        let q = Query::everywhere().under(p("/zoo")).limit(2);
        assert_eq!(m.query(&q).unwrap().len(), 2);
    }

    #[test]
    fn hits_sorted_by_path() {
        let (m, ..) = seeded();
        let hits = m.query(&Query::everywhere().under(p("/zoo"))).unwrap();
        let paths: Vec<&str> = hits.iter().map(|h| h.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
    }

    #[test]
    fn permissions_inherit_from_ancestors() {
        let (m, condor, ..) = seeded();
        let reader = m
            .users
            .register(&m.ids, "reader", "d", "pw", false)
            .unwrap();
        // Before any grant, the reader only has what root's public level
        // (Discover) passes down.
        assert_eq!(
            m.effective_on_dataset(Some(reader), condor).unwrap(),
            Permission::Discover
        );
        // Grant read on /zoo; it flows down to the dataset.
        let zoo = m.collections.resolve(&p("/zoo")).unwrap();
        let mut acl = m.collections.get(zoo).unwrap().acl;
        acl.grant_user(reader, Permission::Read);
        m.collections.set_acl(zoo, acl).unwrap();
        assert_eq!(
            m.effective_on_dataset(Some(reader), condor).unwrap(),
            Permission::Read
        );
        assert!(m
            .require_dataset(Some(reader), condor, Permission::Read)
            .is_ok());
        assert!(m
            .require_dataset(Some(reader), condor, Permission::Write)
            .is_err());
        // Anonymous users see only what `public` grants.
        assert_eq!(
            m.effective_on_dataset(None, condor).unwrap(),
            Permission::Discover // root grants Discover to public
        );
    }

    #[test]
    fn link_dataset_uses_target_acl() {
        let (m, condor, ..) = seeded();
        let root = m.collections.root();
        let lnk = m
            .datasets
            .create_link(
                &m.ids,
                root,
                "condor-link",
                condor,
                m.admin(),
                m.clock.now(),
            )
            .unwrap();
        let reader = m.users.register(&m.ids, "r", "d", "pw", false).unwrap();
        let mut acl = m.datasets.get(condor).unwrap().acl;
        acl.grant_user(reader, Permission::Read);
        m.datasets
            .update(condor, |d| {
                d.acl = acl;
                Ok(())
            })
            .unwrap();
        assert_eq!(
            m.effective_on_dataset(Some(reader), lnk).unwrap(),
            Permission::Read
        );
        // The batched form answers per id as the single one does; an
        // unknown id reads as `None`.
        assert_eq!(
            m.effective_on_datasets(Some(reader), &[lnk, DatasetId(u64::MAX), condor]),
            vec![Some(Permission::Read), None, Some(Permission::Read)]
        );
    }

    #[test]
    fn structural_requirements_accumulate_up_the_tree() {
        let m = mcat();
        let root = m.collections.root();
        let admin = m.admin();
        let now = m.clock.now();
        let cultures = m
            .collections
            .create(&m.ids, root, "Cultures", admin, now)
            .unwrap();
        let avian = m
            .collections
            .create(&m.ids, cultures, "Avian Culture", admin, now)
            .unwrap();
        m.collections
            .set_requirements(
                cultures,
                vec![AttrRequirement::mandatory(
                    "culture",
                    "MetaCore for Cultures",
                )],
            )
            .unwrap();
        m.collections
            .set_requirements(
                avian,
                vec![AttrRequirement::vocabulary(
                    "medium",
                    &["image", "movie", "text"],
                    "media type",
                )],
            )
            .unwrap();
        let reqs = m.requirements_for(avian).unwrap();
        assert_eq!(reqs.len(), 2);
        // Missing mandatory ancestor attribute fails.
        let err = m
            .validate_structural(avian, &[Triplet::new("medium", "image", "")])
            .unwrap_err();
        assert!(matches!(err, SrbError::MissingMetadata(_)));
        // Out-of-vocabulary value fails.
        let err = m
            .validate_structural(
                avian,
                &[
                    Triplet::new("culture", "avian", ""),
                    Triplet::new("medium", "sculpture", ""),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, SrbError::Invalid(_)));
        // A valid submission passes.
        m.validate_structural(
            avian,
            &[
                Triplet::new("culture", "avian", ""),
                Triplet::new("medium", "movie", ""),
            ],
        )
        .unwrap();
    }

    #[test]
    fn dublin_core_names_validated() {
        let (m, condor, ..) = seeded();
        m.add_type_metadata(
            Subject::Dataset(condor),
            "DublinCore",
            Triplet::new("Title", "Andean Condor", ""),
        )
        .unwrap();
        assert!(m
            .add_type_metadata(
                Subject::Dataset(condor),
                "DublinCore",
                Triplet::new("Wingspan", "290", "cm"),
            )
            .is_err());
        // Custom schemas accept any names.
        m.add_type_metadata(
            Subject::Dataset(condor),
            "MetaCoreForCultures",
            Triplet::new("Wingspan", "290", "cm"),
        )
        .unwrap();
    }

    #[test]
    fn queryable_attrs_scoped() {
        let (m, ..) = seeded();
        assert_eq!(
            m.queryable_attrs(&p("/zoo/birds")).unwrap(),
            vec!["wingspan"]
        );
        let all = m.queryable_attrs(&LogicalPath::root()).unwrap();
        assert_eq!(all, vec!["habitat", "wingspan"]);
    }

    #[test]
    fn summary_counts() {
        let (m, ..) = seeded();
        let s = m.summary();
        assert_eq!(s["datasets"], 3);
        assert_eq!(s["collections"], 4); // root + zoo + birds + mammals
        assert_eq!(s["metadata_rows"], 3);
    }

    #[test]
    fn prefix_like_is_planned_as_indexed_range_scan() {
        let metrics = srb_obs::MetricsRegistry::new();
        let (m, _, _, lion) = seeded();
        let m = m.with_metrics(&metrics);
        let q = Query::everywhere().and("habitat", CompareOp::Like, "sav%");
        let hits = m.query(&q).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dataset, lion);
        assert_eq!(hits, m.query_scan(&q).unwrap());
        // Prefix patterns are strong sources now: indexed plan, one range
        // scan, one candidate pulled instead of a partition sweep.
        assert_eq!(metrics.counter("query.plans", "indexed").get(), 1);
        assert_eq!(metrics.counter("mcat.range_scan", "").get(), 1);
        assert_eq!(metrics.counter("query.candidates_scanned", "").get(), 1);
        // Non-prefix patterns still demote to pattern/residual handling.
        let q2 = Query::everywhere().and("habitat", CompareOp::Like, "%anna");
        assert_eq!(m.query(&q2).unwrap().len(), 1);
        assert_eq!(metrics.counter("mcat.range_scan", "").get(), 1);
    }

    #[test]
    fn wide_index_demotes_to_scan_and_matches_baselines() {
        let metrics = srb_obs::MetricsRegistry::new();
        let (m, ..) = seeded();
        let m = m.with_metrics(&metrics);
        // wingspan > 0 matches 2 rows, but /zoo/mammals holds only 1
        // dataset: the scan is cheaper, and the demoted condition must
        // still be enforced by the verification sweep.
        let q = Query::everywhere()
            .under(p("/zoo/mammals"))
            .and("wingspan", CompareOp::Gt, 0i64);
        let hits = m.query(&q).unwrap();
        assert!(hits.is_empty());
        assert_eq!(hits, m.query_scan(&q).unwrap());
        assert_eq!(metrics.counter("query.plans", "scan").get(), 1);
        // Same condition over the birds scope stays indexed.
        let q2 = Query::everywhere()
            .under(p("/zoo/birds"))
            .and("wingspan", CompareOp::Gt, 0i64);
        assert_eq!(m.query(&q2).unwrap().len(), 2);
        assert_eq!(metrics.counter("query.plans", "indexed").get(), 1);
    }

    #[test]
    fn list_page_walks_sections_without_skips() {
        let (m, ..) = seeded();
        let zoo = m.collections.resolve(&p("/zoo")).unwrap();
        let admin = m.admin();
        let now = m.clock.now();
        for name in ["za", "zb", "zc"] {
            m.datasets
                .create(&m.ids, zoo, name, "generic", admin, vec![], now)
                .unwrap();
        }
        // Page size 2 over {birds, mammals} + {za, zb, zc}: the walk must
        // cross the section boundary mid-page without skip or duplicate.
        let mut colls = Vec::new();
        let mut names = Vec::new();
        let mut token: Option<String> = None;
        let mut pages = 0;
        loop {
            let (cs, ds, next) = m.list_page(zoo, token.as_deref(), 2).unwrap();
            assert!(cs.len() + ds.len() <= 2);
            colls.extend(cs.iter().filter_map(|c| c.path.name().map(String::from)));
            names.extend(ds.iter().map(|d| d.name.clone()));
            pages += 1;
            match next {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        assert_eq!(colls, vec!["birds", "mammals"]);
        assert_eq!(names, vec!["za", "zb", "zc"]);
        assert!(pages >= 3);
        // Unknown collections error instead of paging empty.
        assert!(m.list_page(CollectionId(9999), None, 2).is_err());
    }

    #[test]
    fn list_page_token_invalidated_by_mutation() {
        let (m, ..) = seeded();
        let zoo = m.collections.resolve(&p("/zoo")).unwrap();
        let (_, _, next) = m.list_page(zoo, None, 1).unwrap();
        let token = next.unwrap();
        // In-place updates don't invalidate...
        let (_, _, _) = m.list_page(zoo, Some(&token), 1).unwrap();
        // ...but a membership change does, cleanly.
        let admin = m.admin();
        m.datasets
            .create(&m.ids, zoo, "new", "generic", admin, vec![], m.clock.now())
            .unwrap();
        let err = m.list_page(zoo, Some(&token), 1).unwrap_err();
        assert!(matches!(err, SrbError::Invalid(_)));
        // Garbage tokens are rejected the same way.
        assert!(matches!(
            m.list_page(zoo, Some("garbage"), 1).unwrap_err(),
            SrbError::Invalid(_)
        ));
    }

    #[test]
    fn a_zero_page_size_is_refused() {
        let (m, ..) = seeded();
        let zoo = m.collections.resolve(&p("/zoo")).unwrap();
        let q = Query::everywhere().under(p("/zoo"));
        assert!(!m.query(&q).unwrap().is_empty());
        // A 0-row page would hand back a token to another 0-row page,
        // forever; both pagers refuse it before reading anything.
        assert!(matches!(
            m.query_page(&q, None, 0),
            Err(SrbError::Invalid(e)) if e == "page size must be positive"
        ));
        assert!(matches!(
            m.list_page(zoo, None, 0),
            Err(SrbError::Invalid(e)) if e == "page size must be positive"
        ));
    }

    #[test]
    fn query_page_concatenates_to_one_shot_query() {
        let (m, ..) = seeded();
        let q = Query::everywhere()
            .under(p("/zoo"))
            .and("wingspan", CompareOp::Gt, 0i64)
            .show("wingspan");
        let one_shot = m.query(&q).unwrap();
        assert_eq!(one_shot.len(), 2);
        let mut walked = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let (hits, next) = m.query_page(&q, token.as_deref(), 1).unwrap();
            assert!(hits.len() <= 1);
            walked.extend(hits);
            match next {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        assert_eq!(walked, one_shot);
        // Metadata mutations invalidate outstanding query cursors.
        let (_, next) = m.query_page(&q, None, 1).unwrap();
        let token = next.unwrap();
        m.metadata.add(
            &m.ids,
            Subject::Dataset(DatasetId(999)),
            Triplet::new("wingspan", 7, "cm"),
            MetaKind::UserDefined,
        );
        assert!(matches!(
            m.query_page(&q, Some(&token), 1).unwrap_err(),
            SrbError::Invalid(_)
        ));
    }

    /// Hits and pages are in full path-string order, which is not
    /// (collection path, name) order: `/s/a/b/c` sorts before `/s/a/b0`
    /// because `/` sorts before `0`. Cursors resume by string comparison
    /// across that boundary.
    #[test]
    fn path_order_is_full_string_order() {
        let m = mcat();
        let (root, admin, now) = (m.collections.root(), m.admin(), m.clock.now());
        let s = m.collections.create(&m.ids, root, "s", admin, now).unwrap();
        let a = m.collections.create(&m.ids, s, "a", admin, now).unwrap();
        let b = m.collections.create(&m.ids, a, "b", admin, now).unwrap();
        for (coll, name) in [(a, "b0"), (b, "c"), (root, "r")] {
            let d = m
                .datasets
                .create(&m.ids, coll, name, "generic", admin, vec![], now)
                .unwrap();
            m.metadata.add(
                &m.ids,
                Subject::Dataset(d),
                Triplet::new("tag", "x", ""),
                MetaKind::UserDefined,
            );
        }
        let want = ["/r", "/s/a/b/c", "/s/a/b0"];
        let paths = |hits: &[QueryHit]| hits.iter().map(|h| h.path.clone()).collect::<Vec<_>>();
        for q in [
            Query::everywhere(),
            Query::everywhere().and("tag", CompareOp::Eq, "x"),
        ] {
            assert_eq!(paths(&m.query(&q).unwrap()), want);
            for page in [1, 2] {
                let (mut walked, mut token) = (Vec::new(), None::<String>);
                loop {
                    let (hits, next) = m.query_page(&q, token.as_deref(), page).unwrap();
                    walked.extend(hits);
                    match next {
                        Some(t) => token = Some(t),
                        None => break,
                    }
                }
                assert_eq!(paths(&walked), want, "page size {page}");
            }
            // The cursor after `/s/a/b/c` resumes at `/s/a/b0`.
            let (first, next) = m.query_page(&q, None, 2).unwrap();
            assert_eq!(paths(&first), want[..2]);
            let (rest, end) = m.query_page(&q, next.as_deref(), 2).unwrap();
            assert_eq!(paths(&rest), want[2..]);
            assert!(end.is_none());
        }
    }

    #[test]
    fn query_through_linked_collection_scope() {
        let (m, _, _, lion) = seeded();
        let root = m.collections.root();
        let mammals = m.collections.resolve(&p("/zoo/mammals")).unwrap();
        m.collections
            .link(&m.ids, root, "cats", mammals, m.admin(), m.clock.now())
            .unwrap();
        // Scoping to the link finds the target's datasets.
        let q = Query::everywhere()
            .under(p("/cats"))
            .and("habitat", CompareOp::Eq, "savanna");
        let hits = m.query(&q).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dataset, lion);
    }
}
