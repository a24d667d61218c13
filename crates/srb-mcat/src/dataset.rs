//! Datasets, replicas, registered objects, locks and versions.
//!
//! A *dataset* is one logical digital entity in the name space. Its
//! replicas each carry an [`AccessSpec`] saying how to reach the bytes —
//! an SRB-stored copy, a registered file, a shadow directory, a live SQL
//! query, a URL, or a method object (the paper's five registration types).
//! "Register replicate" works because a replica can carry *any* spec:
//! SRB "does not check whether a registered replica is really an equal of
//! the other copy".

use crate::pages::RowPages;
use crate::table::{Derived, Table};
use crate::wal::WalHook;
use serde::{Deserialize, Serialize};
use srb_types::sync::{LockRank, RwLock, RwLockReadGuard};
use srb_types::{
    AccessMatrix, Checksum, CollectionId, ContainerId, DatasetId, GenCounter, Generation, IdGen,
    IdMap, IdSet, ReplicaId, ResourceId, ShortStr, SrbError, SrbResult, Timestamp, UserId,
};
use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;

/// Rendering template for registered SQL objects (paper: `HTMLREL`,
/// `HTMLNEST`, `XMLREL`, or a user style-sheet held in SRB).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Template {
    /// Relational HTML table.
    HtmlRel,
    /// Nested HTML table.
    HtmlNest,
    /// XML with a simple DTD.
    XmlRel,
    /// A T-language style-sheet stored as another SRB dataset.
    StyleSheet(DatasetId),
}

/// How to reach the bytes (or rows) of one replica.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AccessSpec {
    /// A copy fully under SRB control on a storage resource.
    Stored {
        /// The physical resource holding the copy.
        resource: ResourceId,
        /// Physical path within the resource.
        phys_path: String,
    },
    /// A registered file: SRB keeps only a pointer; size and content "might
    /// change without SRB being aware".
    RegisteredFile {
        /// The physical resource holding the file.
        resource: ResourceId,
        /// Physical path within the resource.
        phys_path: String,
    },
    /// A registered directory ("shadow directory object"): the cone of
    /// files under it is visible, but no ingestion/update through it.
    ShadowDir {
        /// The physical resource holding the directory.
        resource: ResourceId,
        /// Directory path within the resource.
        dir_path: String,
    },
    /// A registered SQL query, executed at retrieval time.
    Sql {
        /// The database resource to query.
        resource: ResourceId,
        /// Full or partial query text (must start with SELECT).
        sql: String,
        /// Whether the query is partial (completed at retrieval time).
        partial: bool,
        /// Pretty-printing template.
        template: Template,
    },
    /// A registered URL, fetched at retrieval time.
    Url {
        /// The URL (http/ftp/cgi).
        url: String,
    },
    /// A method object (virtual data): a remote proxy command or an
    /// in-server proxy function.
    Method {
        /// Registered command or function name.
        name: String,
        /// True for in-server proxy functions, false for bin commands.
        is_function: bool,
        /// Default command-line arguments.
        default_args: Vec<String>,
    },
}

impl AccessSpec {
    /// Is this replica a physical copy SRB can read bytes from directly?
    pub fn is_byte_addressable(&self) -> bool {
        matches!(
            self,
            AccessSpec::Stored { .. } | AccessSpec::RegisteredFile { .. }
        )
    }

    /// Is this replica fully under SRB control (deletable data)?
    pub fn is_srb_controlled(&self) -> bool {
        matches!(self, AccessSpec::Stored { .. })
    }

    /// The resource this spec touches, when there is one.
    pub fn resource(&self) -> Option<ResourceId> {
        match self {
            AccessSpec::Stored { resource, .. }
            | AccessSpec::RegisteredFile { resource, .. }
            | AccessSpec::ShadowDir { resource, .. }
            | AccessSpec::Sql { resource, .. } => Some(*resource),
            AccessSpec::Url { .. } | AccessSpec::Method { .. } => None,
        }
    }

    /// Short type label shown in MySRB listings.
    pub fn type_label(&self) -> &'static str {
        match self {
            AccessSpec::Stored { .. } => "file",
            AccessSpec::RegisteredFile { .. } => "registered-file",
            AccessSpec::ShadowDir { .. } => "directory",
            AccessSpec::Sql { .. } => "sql",
            AccessSpec::Url { .. } => "url",
            AccessSpec::Method { .. } => "method",
        }
    }
}

/// Replica health, used by failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaStatus {
    /// Consistent with the latest write.
    UpToDate,
    /// Missed a write (e.g. its resource was down during an update) and
    /// needs resynchronization.
    Stale,
}

/// Placement of a replica's bytes inside a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerSlice {
    /// The container holding the bytes.
    pub container: ContainerId,
    /// Byte offset within the container.
    pub offset: u64,
    /// Length of the slice.
    pub len: u64,
}

/// One replica of a dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Replica {
    /// Catalog id.
    pub id: ReplicaId,
    /// Replica number, unique within the dataset ("a replica number is
    /// uniquely determined for the new replica").
    pub repl_num: u32,
    /// How to reach the bytes.
    pub spec: AccessSpec,
    /// Size in bytes (0 for non-byte objects; advisory for registered
    /// files).
    pub size: u64,
    /// SHA-256 checksum of SRB-controlled content.
    pub checksum: Option<Checksum>,
    /// Set when the bytes live inside a container rather than standalone.
    /// Few replicas do, so the slice is boxed: inline it would push the
    /// row past its budget now that the checksum is held inline.
    pub in_container: Option<Box<ContainerSlice>>,
    /// Replica health.
    pub status: ReplicaStatus,
    /// Pin expiry, when pinned to its resource.
    pub pinned_until: Option<Timestamp>,
    /// Creation time.
    pub created: Timestamp,
}

// Row budgets: a dataset page holds 1 024 `Dataset`s inline, and each
// stored dataset owns at least one `Replica`. A field that grows either
// fails the build.
const _: () = assert!(std::mem::size_of::<Dataset>() <= 240);
const _: () = assert!(std::mem::size_of::<Replica>() <= 144);

/// Lock flavour (paper: shared and exclusive locks with expiry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LockKind {
    /// Others may read but not write.
    Shared,
    /// No interactions by anyone but the holder.
    Exclusive,
}

/// An active lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockState {
    /// Lock flavour.
    pub kind: LockKind,
    /// Holder.
    pub holder: UserId,
    /// Expiry (virtual time); after this the lock is void.
    pub expires: Timestamp,
}

/// An active checkout (crude version control, paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckoutState {
    /// Who checked the object out.
    pub holder: UserId,
    /// When.
    pub at: Timestamp,
}

/// A preserved earlier version, written at checkin time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionRecord {
    /// Distinct version number (1 = first preserved version).
    pub version: u32,
    /// Resource holding the preserved copy.
    pub resource: ResourceId,
    /// Physical path of the preserved copy.
    pub phys_path: String,
    /// Size of the preserved copy.
    pub size: u64,
    /// Who checked it in.
    pub by: UserId,
    /// When.
    pub at: Timestamp,
}

/// One dataset row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Catalog id.
    pub id: DatasetId,
    /// Owning collection.
    pub coll: CollectionId,
    /// Name within the collection.
    pub name: ShortStr,
    /// Data type ("generic", "fits image", "ascii text", …) — drives
    /// type-oriented metadata and extraction methods.
    pub data_type: ShortStr,
    /// Creating user.
    pub owner: UserId,
    /// Access matrix.
    pub acl: AccessMatrix,
    /// Replicas, ordered by `repl_num`.
    pub replicas: Vec<Replica>,
    /// Soft-link target: set for link objects, which have no replicas of
    /// their own.
    pub link_target: Option<DatasetId>,
    /// Active lock, if any.
    pub lock: Option<LockState>,
    /// Active checkout, if any.
    pub checkout: Option<CheckoutState>,
    /// Preserved versions, oldest first.
    pub versions: Vec<VersionRecord>,
    /// Current version number (increments at checkin).
    pub current_version: u32,
    /// Creation time.
    pub created: Timestamp,
    /// Last modification time.
    pub modified: Timestamp,
}

impl Dataset {
    /// The highest replica number in use.
    pub fn max_repl_num(&self) -> u32 {
        self.replicas.iter().map(|r| r.repl_num).max().unwrap_or(0)
    }

    /// Logical size: the size of the first up-to-date replica.
    pub fn size(&self) -> u64 {
        self.replicas
            .iter()
            .find(|r| r.status == ReplicaStatus::UpToDate)
            .or(self.replicas.first())
            .map(|r| r.size)
            .unwrap_or(0)
    }

    /// Type label for listings (derived from the primary replica).
    pub fn type_label(&self) -> &'static str {
        if self.link_target.is_some() {
            return "link";
        }
        self.replicas
            .first()
            .map(|r| r.spec.type_label())
            .unwrap_or("empty")
    }

    /// Is the lock currently effective?
    pub fn effective_lock(&self, now: Timestamp) -> Option<LockState> {
        self.lock.filter(|l| l.expires > now)
    }

    /// May `user` write this dataset at `now`, given lock/checkout state?
    /// (ACL checks are separate.)
    pub fn write_allowed_by_locks(&self, user: UserId, now: Timestamp) -> SrbResult<()> {
        if let Some(l) = self.effective_lock(now) {
            if l.holder != user {
                return Err(SrbError::Locked(format!(
                    "dataset {} locked ({:?}) by {}",
                    self.id, l.kind, l.holder
                )));
            }
        }
        if let Some(c) = self.checkout {
            if c.holder != user {
                return Err(SrbError::Locked(format!(
                    "dataset {} checked out by {}",
                    self.id, c.holder
                )));
            }
        }
        Ok(())
    }

    /// May `user` read this dataset at `now`, given lock state?
    pub fn read_allowed_by_locks(&self, user: UserId, now: Timestamp) -> SrbResult<()> {
        if let Some(l) = self.effective_lock(now) {
            if l.kind == LockKind::Exclusive && l.holder != user {
                return Err(SrbError::Locked(format!(
                    "dataset {} exclusively locked by {}",
                    self.id, l.holder
                )));
            }
        }
        Ok(())
    }
}

/// What a listing page shows of one dataset row: copied out of the table
/// without cloning the row's ACL, replicas or versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetEntry {
    /// Catalog id.
    pub id: DatasetId,
    /// Name within the collection.
    pub name: ShortStr,
    /// Data type.
    pub data_type: ShortStr,
    /// Logical size ([`Dataset::size`]).
    pub size: u64,
}

/// One dataset to create in a [`DatasetTable::create_batch`] call: the
/// name plus its initial replicas as `(spec, size, checksum, status)` —
/// stale rows record replicas whose resource was down during the bulk
/// fan-out (repairable via `sync_replicas`).
#[derive(Debug, Clone)]
pub struct NewDataset {
    /// Name within the target collection.
    pub name: String,
    /// Initial replicas: spec, size, checksum, health.
    pub replicas: Vec<(AccessSpec, u64, Option<Checksum>, ReplicaStatus)>,
}

/// The dataset table.
#[derive(Debug)]
pub struct DatasetTable {
    pub(crate) rows: RwLock<Table<Dataset>>,
    /// Bumped on any change to collection membership or naming (create,
    /// link, move, delete) — the stamp paged listings embed in cursor
    /// tokens. In-place row updates (replicas, locks, ACLs) do not bump
    /// it: they cannot change which names a page serves or their order.
    generation: GenCounter,
}

impl Default for DatasetTable {
    fn default() -> Self {
        DatasetTable::restore(RowPages::default(), &WalHook::default())
    }
}

/// What the dataset table derives from its rows.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Names {
    /// Ordered by (collection, name): one bounded range serves both name
    /// lookup and the O(page) listing scans behind resumable cursors.
    /// A short name is held in its key, so copying the row's name into
    /// a key or a probe allocates nothing.
    by_name: BTreeMap<(CollectionId, ShortStr), DatasetId>,
    /// Datasets per collection (none listed for an empty one): the
    /// planner's scope size without a walk.
    counts: IdMap<CollectionId, usize>,
}

impl Derived<Dataset> for Names {
    fn index(&mut self, d: &Dataset) {
        self.by_name.insert((d.coll, d.name.clone()), d.id);
        *self.counts.entry(d.coll).or_default() += 1;
    }

    fn unindex(&mut self, d: &Dataset) {
        if self.by_name.remove(&(d.coll, d.name.clone())).is_none() {
            return;
        }
        if let Some(n) = self.counts.get_mut(&d.coll) {
            *n -= 1;
            if *n == 0 {
                self.counts.remove(&d.coll);
            }
        }
    }

    /// The name index built from one run of its entries by
    /// `BTreeMap::from_iter`, which fills its nodes where inserts one name
    /// at a time leave them half empty.
    fn rebuild(rows: &RowPages<Dataset>) -> Self {
        let mut names = Vec::with_capacity(rows.len());
        names.extend(rows.iter().map(|d| ((d.coll, d.name.clone()), d.id)));
        let mut counts = IdMap::default();
        for d in rows.iter() {
            *counts.entry(d.coll).or_default() += 1;
        }
        Names {
            by_name: BTreeMap::from_iter(names),
            counts,
        }
    }
}

impl Names {
    /// The rows of one collection from `start` on, in name order.
    fn in_coll(
        &self,
        coll: CollectionId,
        start: Bound<(CollectionId, ShortStr)>,
    ) -> impl Iterator<Item = DatasetId> + '_ {
        self.by_name
            .range((start, Bound::Unbounded))
            .take_while(move |((c, _), _)| *c == coll)
            .map(|(_, &id)| id)
    }

    /// The rows of one collection, in name order.
    fn ids_in(&self, coll: CollectionId) -> impl Iterator<Item = DatasetId> + '_ {
        self.in_coll(coll, Bound::Included((coll, ShortStr::new())))
    }

    /// Number of datasets whose collection is in `colls`.
    fn count_in(&self, colls: &IdSet<CollectionId>) -> usize {
        colls.iter().filter_map(|c| self.counts.get(c)).sum()
    }
}

fn missing(id: DatasetId) -> SrbError {
    SrbError::NotFound(format!("dataset {id}"))
}

impl DatasetTable {
    /// Empty table.
    pub fn new() -> Self {
        DatasetTable::default()
    }

    /// The table over image rows, logging through `wal`.
    pub(crate) fn restore(rows: RowPages<Dataset>, wal: &WalHook) -> Self {
        let rows = Table::restore(rows, wal);
        DatasetTable {
            rows: RwLock::new(LockRank::McatTable, "mcat.datasets", rows),
            generation: GenCounter::new(),
        }
    }

    /// Create a dataset with initial replicas.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &self,
        ids: &IdGen,
        coll: CollectionId,
        name: &str,
        data_type: &str,
        owner: UserId,
        replicas: Vec<(AccessSpec, u64, Option<Checksum>)>,
        now: Timestamp,
    ) -> SrbResult<DatasetId> {
        let mut g = self.rows.write();
        let key = Self::free_key(&g, coll, name)?;
        let gen = self.generation.bump_get().raw();
        let replicas = replicas
            .into_iter()
            .map(|(spec, size, checksum)| (spec, size, checksum, ReplicaStatus::UpToDate));
        Ok(Self::insert_new(
            &mut g, ids, gen, key, data_type, owner, replicas, None, now,
        ))
    }

    /// Create many datasets in one collection under a single write-lock
    /// acquisition — the catalog half of bulk ingest. All-or-nothing:
    /// every name is validated (against the table and within the batch)
    /// before the first row is inserted, so a duplicate anywhere leaves
    /// the table untouched. Ids are assigned in batch order.
    pub fn create_batch(
        &self,
        ids: &IdGen,
        coll: CollectionId,
        data_type: &str,
        owner: UserId,
        batch: Vec<NewDataset>,
        now: Timestamp,
    ) -> SrbResult<Vec<DatasetId>> {
        let mut g = self.rows.write();
        let mut in_batch: HashSet<&str> = HashSet::with_capacity(batch.len());
        for nd in &batch {
            let taken = g
                .derived()
                .by_name
                .contains_key(&(coll, nd.name.as_str().into()));
            if taken || !in_batch.insert(&nd.name) {
                return Err(Self::name_taken(coll, &nd.name));
            }
        }
        // One generation bump covers the whole batch: pages cut before it
        // are invalidated once, not once per row.
        let gen = self.generation.bump_get().raw();
        Ok(batch
            .into_iter()
            .map(|nd| {
                let (key, replicas) = ((coll, nd.name.into()), nd.replicas.into_iter());
                Self::insert_new(&mut g, ids, gen, key, data_type, owner, replicas, None, now)
            })
            .collect())
    }

    /// Create a soft-link dataset pointing at `target`. Chaining collapses
    /// ("an attempt to link to another link object will result in a direct
    /// link to the parent object").
    pub fn create_link(
        &self,
        ids: &IdGen,
        coll: CollectionId,
        name: &str,
        target: DatasetId,
        owner: UserId,
        now: Timestamp,
    ) -> SrbResult<DatasetId> {
        let mut g = self.rows.write();
        let t = g.get(target).ok_or_else(|| missing(target))?;
        let resolved = t.link_target.unwrap_or(target);
        let key = Self::free_key(&g, coll, name)?;
        let gen = self.generation.bump_get().raw();
        let none = std::iter::empty();
        let link = Some(resolved);
        Ok(Self::insert_new(
            &mut g, ids, gen, key, "link", owner, none, link, now,
        ))
    }

    fn name_taken(coll: CollectionId, name: &str) -> SrbError {
        SrbError::AlreadyExists(format!("dataset '{name}' in collection {coll}"))
    }

    /// The name-index key for a new `name` in `coll`, if it is free.
    fn free_key(
        g: &Table<Dataset>,
        coll: CollectionId,
        name: &str,
    ) -> SrbResult<(CollectionId, ShortStr)> {
        let key = (coll, name.into());
        if g.derived().by_name.contains_key(&key) {
            return Err(Self::name_taken(coll, name));
        }
        Ok(key)
    }

    /// The one builder of a new row, under the caller's write guard and
    /// generation stamp: the dataset's id, then one id per replica
    /// (numbered from 1 in the order given). `key` must be free.
    #[allow(clippy::too_many_arguments)]
    fn insert_new(
        g: &mut Table<Dataset>,
        ids: &IdGen,
        gen: u64,
        (coll, name): (CollectionId, ShortStr),
        data_type: &str,
        owner: UserId,
        replicas: impl Iterator<Item = (AccessSpec, u64, Option<Checksum>, ReplicaStatus)>,
        link_target: Option<DatasetId>,
        now: Timestamp,
    ) -> DatasetId {
        let id: DatasetId = ids.next();
        let replicas = replicas
            .zip(1u32..)
            .map(|((spec, size, checksum, status), repl_num)| Replica {
                id: ids.next(),
                repl_num,
                spec,
                size,
                checksum,
                in_container: None,
                status,
                pinned_until: None,
                created: now,
            })
            .collect();
        let row = Dataset {
            id,
            coll,
            name,
            data_type: data_type.into(),
            owner,
            acl: AccessMatrix::owned_by(owner),
            replicas,
            link_target,
            lock: None,
            checkout: None,
            versions: Vec::new(),
            current_version: 1,
            created: now,
            modified: now,
        };
        g.put(gen, row);
        id
    }

    /// Get a dataset (no link following).
    pub fn get(&self, id: DatasetId) -> SrbResult<Dataset> {
        self.rows.read().get(id).cloned().ok_or_else(|| missing(id))
    }

    /// Follow a link chain (already collapsed to depth ≤ 1) to the real
    /// dataset.
    pub fn resolve_links(&self, id: DatasetId) -> SrbResult<Dataset> {
        let d = self.get(id)?;
        match d.link_target {
            Some(t) => self.get(t),
            None => Ok(d),
        }
    }

    /// Find by collection + name.
    pub fn find(&self, coll: CollectionId, name: &str) -> Option<DatasetId> {
        let g = self.rows.read();
        g.derived().by_name.get(&(coll, name.into())).copied()
    }

    /// Datasets directly in a collection, sorted by name — one bounded
    /// range over the ordered name index, no per-call sort.
    pub fn list(&self, coll: CollectionId) -> Vec<Dataset> {
        let g = self.rows.read();
        let rows = g.derived().ids_in(coll).filter_map(|id| g.get(id));
        rows.cloned().collect()
    }

    /// One page of a collection listing in name order, resuming strictly
    /// after `after` (None starts at the beginning). Returns up to `limit`
    /// entry rows plus whether more remain — O(page), not O(offset), no
    /// matter how deep the cursor is.
    pub fn list_page(
        &self,
        coll: CollectionId,
        after: Option<&str>,
        limit: usize,
    ) -> (Vec<DatasetEntry>, bool) {
        let g = self.rows.read();
        let start = match after {
            Some(name) => Bound::Excluded((coll, name.into())),
            None => Bound::Included((coll, ShortStr::new())),
        };
        let names = g.derived();
        // Room for what the collection holds, not for `limit`: a page of
        // a small collection reserves no unused rows.
        let rows = names.counts.get(&coll).copied().unwrap_or(0);
        let mut iter = names.in_coll(coll, start).filter_map(|id| g.get(id));
        let mut page = Vec::with_capacity(limit.min(rows).min(1024));
        for d in iter.by_ref() {
            if page.len() == limit {
                return (page, true);
            }
            page.push(DatasetEntry {
                id: d.id,
                name: d.name.clone(),
                data_type: d.data_type.clone(),
                size: d.size(),
            });
        }
        (page, false)
    }

    /// Mutate a dataset in place under the table lock. In-place edits do
    /// not bump the listing generation, but the full post-image is still
    /// redo-logged so replicas, locks and versions survive recovery. A
    /// change that fails must fail before it touches the row; nothing is
    /// logged for it.
    pub fn update<F, R>(&self, id: DatasetId, f: F) -> SrbResult<R>
    where
        F: FnOnce(&mut Dataset) -> SrbResult<R>,
    {
        let mut g = self.rows.write();
        g.try_update(id, 0, f).ok_or_else(|| missing(id))?
    }
    /// Add a replica; returns the assigned replica number.
    pub fn add_replica(
        &self,
        ids: &IdGen,
        dataset: DatasetId,
        spec: AccessSpec,
        size: u64,
        checksum: Option<Checksum>,
        now: Timestamp,
    ) -> SrbResult<u32> {
        self.add_replica_with_status(
            ids,
            dataset,
            spec,
            size,
            checksum,
            ReplicaStatus::UpToDate,
            now,
        )
    }

    /// Add a replica with an explicit health status. A `Stale` row records
    /// a replica whose target resource was down when the bytes fanned out
    /// (the phys path is reserved; `sync_replicas` writes it later).
    #[allow(clippy::too_many_arguments)]
    pub fn add_replica_with_status(
        &self,
        ids: &IdGen,
        dataset: DatasetId,
        spec: AccessSpec,
        size: u64,
        checksum: Option<Checksum>,
        status: ReplicaStatus,
        now: Timestamp,
    ) -> SrbResult<u32> {
        let rid: ReplicaId = ids.next();
        self.update(dataset, |d| {
            let repl_num = d.max_repl_num() + 1;
            d.replicas.push(Replica {
                id: rid,
                repl_num,
                spec,
                size,
                checksum,
                in_container: None,
                status,
                pinned_until: None,
                created: now,
            });
            d.modified = now;
            Ok(repl_num)
        })
    }

    /// Remove one replica by replica number; returns the removed replica
    /// and whether it was the last one.
    pub fn remove_replica(&self, dataset: DatasetId, repl_num: u32) -> SrbResult<(Replica, bool)> {
        self.update(dataset, |d| {
            let idx = d
                .replicas
                .iter()
                .position(|r| r.repl_num == repl_num)
                .ok_or_else(|| {
                    SrbError::NotFound(format!("replica #{repl_num} of dataset {dataset}"))
                })?;
            let r = d.replicas.remove(idx);
            Ok((r, d.replicas.is_empty()))
        })
    }

    /// Move a dataset to another collection (logical move; metadata stays).
    pub fn move_dataset(
        &self,
        id: DatasetId,
        new_coll: CollectionId,
        new_name: &str,
    ) -> SrbResult<()> {
        let mut g = self.rows.write();
        let (coll, name) = Self::free_key(&g, new_coll, new_name)?;
        if !g.contains(id) {
            return Err(missing(id));
        }
        let gen = self.generation.bump_get().raw();
        g.update(id, gen, |d| (d.coll, d.name) = (coll, name));
        Ok(())
    }

    /// Delete a dataset row entirely (caller has already dealt with data).
    pub fn delete(&self, id: DatasetId) -> SrbResult<Dataset> {
        let mut g = self.rows.write();
        if !g.contains(id) {
            return Err(missing(id));
        }
        let gen = self.generation.bump_get().raw();
        g.remove(id, gen).ok_or_else(|| missing(id))
    }

    /// Total number of datasets.
    pub fn count(&self) -> usize {
        self.rows.read().len()
    }

    /// Every dataset row, sorted by id (snapshots).
    pub fn dump(&self) -> Vec<Dataset> {
        self.rows.read().iter().cloned().collect()
    }

    /// Datasets holding at least one `Stale` replica, paired with the
    /// resources those stale replicas live on — the work list of the
    /// maintenance repair sweep. Sorted by dataset id so sweeps are
    /// deterministic.
    pub fn with_stale_replicas(&self) -> Vec<(DatasetId, Vec<ResourceId>)> {
        let g = self.rows.read();
        g.iter()
            .filter_map(|d| {
                let resources: Vec<ResourceId> = d
                    .replicas
                    .iter()
                    .filter(|r| r.status == ReplicaStatus::Stale)
                    .filter_map(|r| r.spec.resource())
                    .collect();
                (!resources.is_empty()).then_some((d.id, resources))
            })
            .collect()
    }

    /// Ids of every dataset whose collection is in `colls`, under one read
    /// guard and without cloning any row — the scope-expansion primitive
    /// of the query engine. Each collection's rows come in name order, the
    /// collections in no set order; callers needing a stable order sort
    /// the resulting hits.
    pub(crate) fn ids_in_colls(&self, colls: &IdSet<CollectionId>) -> Vec<DatasetId> {
        let g = self.rows.read();
        let names = g.derived();
        let mut out = Vec::with_capacity(names.count_in(colls));
        for &coll in colls {
            out.extend(names.ids_in(coll));
        }
        out
    }

    /// Number of datasets whose collection is in `colls` — the planner's
    /// scope size, without materializing any id list.
    pub(crate) fn count_in_colls(&self, colls: &IdSet<CollectionId>) -> usize {
        self.rows.read().derived().count_in(colls)
    }

    /// Current membership/naming generation (cursor invalidation).
    pub(crate) fn generation(&self) -> Generation {
        self.generation.current()
    }

    /// Fast-forward the generation counter to at least `raw` — called when
    /// a snapshot or WAL replay restores a catalog, so cursor tokens minted
    /// before the restart stay comparable.
    pub(crate) fn restore_generation(&self, raw: u64) {
        self.generation.ensure_at_least(raw);
    }

    /// A read guard over the table for batch verification: one lock
    /// acquisition serves any number of borrowed row lookups.
    pub fn batch(&self) -> DatasetBatch<'_> {
        DatasetBatch {
            g: self.rows.read(),
        }
    }
}

/// Borrowed row access under one read guard; see [`DatasetTable::batch`].
pub struct DatasetBatch<'a> {
    g: RwLockReadGuard<'a, Table<Dataset>>,
}

impl DatasetBatch<'_> {
    /// The dataset row, borrowed from the table (no link following).
    pub fn get_ref(&self, id: DatasetId) -> Option<&Dataset> {
        self.g.get(id)
    }

    /// Is a name already taken in `coll`? Used by bulk ingest to reject
    /// duplicates before any bytes move, under one read guard for the
    /// whole batch.
    pub fn contains_name(&self, coll: CollectionId, name: &str) -> bool {
        self.g.derived().by_name.contains_key(&(coll, name.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(r: u64) -> AccessSpec {
        AccessSpec::Stored {
            resource: ResourceId(r),
            phys_path: format!("/phys/{r}"),
        }
    }

    fn table() -> (DatasetTable, IdGen) {
        (DatasetTable::new(), IdGen::new())
    }

    #[test]
    fn create_and_find() {
        let (t, ids) = table();
        let id = t
            .create(
                &ids,
                CollectionId(1),
                "a.txt",
                "ascii text",
                UserId(1),
                vec![(stored(1), 5, None)],
                Timestamp(0),
            )
            .unwrap();
        assert_eq!(t.find(CollectionId(1), "a.txt"), Some(id));
        assert_eq!(t.find(CollectionId(2), "a.txt"), None);
        let d = t.get(id).unwrap();
        assert_eq!(d.size(), 5);
        assert_eq!(d.type_label(), "file");
        assert_eq!(d.replicas[0].repl_num, 1);
    }

    #[test]
    fn duplicate_name_in_collection_rejected() {
        let (t, ids) = table();
        t.create(
            &ids,
            CollectionId(1),
            "x",
            "generic",
            UserId(1),
            vec![],
            Timestamp(0),
        )
        .unwrap();
        assert!(t
            .create(
                &ids,
                CollectionId(1),
                "x",
                "generic",
                UserId(1),
                vec![],
                Timestamp(0)
            )
            .is_err());
    }

    #[test]
    fn replica_numbers_monotone_across_removal() {
        let (t, ids) = table();
        let id = t
            .create(
                &ids,
                CollectionId(1),
                "x",
                "generic",
                UserId(1),
                vec![(stored(1), 4, None)],
                Timestamp(0),
            )
            .unwrap();
        let n2 = t
            .add_replica(&ids, id, stored(2), 4, None, Timestamp(1))
            .unwrap();
        assert_eq!(n2, 2);
        t.remove_replica(id, 2).unwrap();
        // A later replica gets a fresh number, never reusing a live one.
        let n3 = t
            .add_replica(&ids, id, stored(3), 4, None, Timestamp(2))
            .unwrap();
        assert_eq!(n3, 2); // max live is 1 → next is 2 (paper doesn't require global uniqueness)
        let (_, last) = t.remove_replica(id, 1).unwrap();
        assert!(!last);
        let (_, last) = t.remove_replica(id, 2).unwrap();
        assert!(last);
    }

    #[test]
    fn link_collapses_chains() {
        let (t, ids) = table();
        let real = t
            .create(
                &ids,
                CollectionId(1),
                "real",
                "generic",
                UserId(1),
                vec![(stored(1), 1, None)],
                Timestamp(0),
            )
            .unwrap();
        let l1 = t
            .create_link(&ids, CollectionId(2), "l1", real, UserId(1), Timestamp(0))
            .unwrap();
        let l2 = t
            .create_link(&ids, CollectionId(3), "l2", l1, UserId(1), Timestamp(0))
            .unwrap();
        assert_eq!(t.get(l2).unwrap().link_target, Some(real));
        assert_eq!(t.resolve_links(l2).unwrap().id, real);
        assert_eq!(t.get(l1).unwrap().type_label(), "link");
        assert_eq!(t.get(l1).unwrap().link_target, Some(real));
    }

    #[test]
    fn move_dataset_updates_indexes() {
        let (t, ids) = table();
        let id = t
            .create(
                &ids,
                CollectionId(1),
                "x",
                "generic",
                UserId(1),
                vec![],
                Timestamp(0),
            )
            .unwrap();
        t.move_dataset(id, CollectionId(2), "y").unwrap();
        assert_eq!(t.find(CollectionId(2), "y"), Some(id));
        assert_eq!(t.find(CollectionId(1), "x"), None);
        assert!(t.list(CollectionId(1)).is_empty());
        assert_eq!(t.list(CollectionId(2)).len(), 1);
    }

    #[test]
    fn locks_gate_writes_and_reads() {
        let (t, ids) = table();
        let id = t
            .create(
                &ids,
                CollectionId(1),
                "x",
                "generic",
                UserId(1),
                vec![],
                Timestamp(0),
            )
            .unwrap();
        t.update(id, |d| {
            d.lock = Some(LockState {
                kind: LockKind::Shared,
                holder: UserId(1),
                expires: Timestamp(1_000),
            });
            Ok(())
        })
        .unwrap();
        let d = t.get(id).unwrap();
        // Shared: others can read, not write; holder can write.
        assert!(d.read_allowed_by_locks(UserId(2), Timestamp(0)).is_ok());
        assert!(d.write_allowed_by_locks(UserId(2), Timestamp(0)).is_err());
        assert!(d.write_allowed_by_locks(UserId(1), Timestamp(0)).is_ok());
        // After expiry the lock is void.
        assert!(d
            .write_allowed_by_locks(UserId(2), Timestamp(2_000))
            .is_ok());
        // Exclusive: others cannot even read.
        t.update(id, |d| {
            d.lock = Some(LockState {
                kind: LockKind::Exclusive,
                holder: UserId(1),
                expires: Timestamp(1_000),
            });
            Ok(())
        })
        .unwrap();
        let d = t.get(id).unwrap();
        assert!(d.read_allowed_by_locks(UserId(2), Timestamp(0)).is_err());
        assert!(d.read_allowed_by_locks(UserId(1), Timestamp(0)).is_ok());
    }

    #[test]
    fn checkout_blocks_other_writers() {
        let (t, ids) = table();
        let id = t
            .create(
                &ids,
                CollectionId(1),
                "x",
                "generic",
                UserId(1),
                vec![],
                Timestamp(0),
            )
            .unwrap();
        t.update(id, |d| {
            d.checkout = Some(CheckoutState {
                holder: UserId(1),
                at: Timestamp(0),
            });
            Ok(())
        })
        .unwrap();
        let d = t.get(id).unwrap();
        assert!(d.write_allowed_by_locks(UserId(2), Timestamp(0)).is_err());
        assert!(d.write_allowed_by_locks(UserId(1), Timestamp(0)).is_ok());
    }

    #[test]
    fn delete_removes_all_indexes() {
        let (t, ids) = table();
        let id = t
            .create(
                &ids,
                CollectionId(1),
                "x",
                "generic",
                UserId(1),
                vec![],
                Timestamp(0),
            )
            .unwrap();
        t.delete(id).unwrap();
        assert!(t.get(id).is_err());
        assert_eq!(t.find(CollectionId(1), "x"), None);
        assert_eq!(t.count(), 0);
        assert!(t.delete(id).is_err());
    }

    #[test]
    fn spec_classification() {
        assert!(stored(1).is_byte_addressable());
        assert!(stored(1).is_srb_controlled());
        let reg = AccessSpec::RegisteredFile {
            resource: ResourceId(1),
            phys_path: "/x".into(),
        };
        assert!(reg.is_byte_addressable());
        assert!(!reg.is_srb_controlled());
        let url = AccessSpec::Url {
            url: "http://x/".into(),
        };
        assert!(!url.is_byte_addressable());
        assert_eq!(url.resource(), None);
        assert_eq!(url.type_label(), "url");
        let sql = AccessSpec::Sql {
            resource: ResourceId(2),
            sql: "select 1".into(),
            partial: false,
            template: Template::HtmlRel,
        };
        assert_eq!(sql.resource(), Some(ResourceId(2)));
    }

    #[test]
    fn list_page_resumes_in_name_order_without_skips() {
        let (t, ids) = table();
        // Insert out of order across two collections; only coll 1 pages.
        for name in ["m", "a", "z", "q", "b"] {
            t.create(
                &ids,
                CollectionId(1),
                name,
                "generic",
                UserId(1),
                vec![],
                Timestamp(0),
            )
            .unwrap();
        }
        t.create(
            &ids,
            CollectionId(2),
            "aa",
            "generic",
            UserId(1),
            vec![],
            Timestamp(0),
        )
        .unwrap();
        let mut walked = Vec::new();
        let mut after: Option<String> = None;
        loop {
            let (page, more) = t.list_page(CollectionId(1), after.as_deref(), 2);
            assert!(page.len() <= 2);
            walked.extend(page.iter().map(|d| d.name.clone()));
            if !more {
                break;
            }
            after = page.last().map(|d| d.name.to_string());
        }
        assert_eq!(walked, vec!["a", "b", "m", "q", "z"]);
        let full: Vec<ShortStr> = t
            .list(CollectionId(1))
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(walked, full);
        // Generation moves with membership, not with in-place updates.
        let g0 = t.generation();
        let id = t.find(CollectionId(1), "a").unwrap();
        t.update(id, |d| {
            d.modified = Timestamp(9);
            Ok(())
        })
        .unwrap();
        assert_eq!(g0, t.generation());
        t.move_dataset(id, CollectionId(2), "a").unwrap();
        assert_ne!(g0, t.generation());
    }

    #[test]
    fn count_in_colls_matches_listing_sizes() {
        let (t, ids) = table();
        for (coll, n) in [(CollectionId(1), 3u64), (CollectionId(2), 2)] {
            for i in 0..n {
                t.create(
                    &ids,
                    coll,
                    &format!("d{i}"),
                    "generic",
                    UserId(1),
                    vec![],
                    Timestamp(0),
                )
                .unwrap();
            }
        }
        let scope: IdSet<CollectionId> = [CollectionId(1), CollectionId(2)].into_iter().collect();
        assert_eq!(t.count_in_colls(&scope), 5);
        let one: IdSet<CollectionId> = [CollectionId(2), CollectionId(9)].into_iter().collect();
        assert_eq!(t.count_in_colls(&one), 2);
    }

    #[test]
    fn stale_replica_excluded_from_size() {
        let (t, ids) = table();
        let id = t
            .create(
                &ids,
                CollectionId(1),
                "x",
                "generic",
                UserId(1),
                vec![(stored(1), 10, None), (stored(2), 10, None)],
                Timestamp(0),
            )
            .unwrap();
        t.update(id, |d| {
            d.replicas[0].status = ReplicaStatus::Stale;
            d.replicas[1].size = 20;
            Ok(())
        })
        .unwrap();
        assert_eq!(t.get(id).unwrap().size(), 20);
    }
}
