//! Data-movement operations: ingest, register, replicate, copy, move,
//! link, delete, and collection management (paper §5, "Data Movement
//! Operations").

use crate::conn::SrbConnection;
use crate::fanout::{self, FanoutOutcome, StoreLeg};
use bytes::Bytes;
use srb_mcat::{
    AccessSpec, AuditAction, Dataset, MetaKind, NewDataset, ReplicaStatus, Subject, Template,
};
use srb_net::Receipt;
use srb_types::{
    sha256_hex, CollectionId, DatasetId, LogicalPath, Permission, ResourceId, SrbError, SrbResult,
    Triplet, UserId,
};
use std::collections::HashSet;

/// How to place ingested data.
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    /// Target resource name — physical ("unix-sdsc") or logical
    /// ("logrsrc1", which fans out to synchronous replicas).
    pub resource: Option<String>,
    /// Target container name. "A container specification on ingestion
    /// overrides a resource specification."
    pub container: Option<String>,
    /// Data type (drives type-oriented metadata and extraction methods).
    pub data_type: String,
    /// User metadata supplied at ingest time (validated against the
    /// collection's structural requirements).
    pub metadata: Vec<Triplet>,
}

impl IngestOptions {
    /// Ingest to a named resource.
    pub fn to_resource(name: &str) -> Self {
        IngestOptions {
            resource: Some(name.to_string()),
            data_type: "generic".to_string(),
            ..IngestOptions::default()
        }
    }

    /// Ingest into a named container.
    pub fn into_container(name: &str) -> Self {
        IngestOptions {
            container: Some(name.to_string()),
            data_type: "generic".to_string(),
            ..IngestOptions::default()
        }
    }

    /// Set the data type.
    pub fn with_type(mut self, data_type: &str) -> Self {
        self.data_type = data_type.to_string();
        self
    }

    /// Attach a metadata triplet.
    pub fn with_metadata(mut self, t: Triplet) -> Self {
        self.metadata.push(t);
        self
    }
}

/// Registration specs for the paper's five registered-object types.
#[derive(Debug, Clone)]
pub enum RegisterSpec {
    /// Type 1: a file in a file system, archive, or as a database LOB.
    File {
        /// Resource holding the file.
        resource: String,
        /// Physical path within the resource.
        phys_path: String,
    },
    /// Type 2: a directory (shadow directory object).
    Directory {
        /// Resource holding the directory.
        resource: String,
        /// Directory path.
        dir_path: String,
    },
    /// Type 3: a SQL query against a database resource.
    Sql {
        /// Database resource to query.
        resource: String,
        /// Query text (must begin with SELECT).
        sql: String,
        /// Partial query completed at retrieval time.
        partial: bool,
        /// Rendering template.
        template: Template,
    },
    /// Type 4: a URL.
    Url {
        /// The URL.
        url: String,
    },
    /// Type 5: a method object (proxy command or proxy function).
    Method {
        /// Registered command/function name.
        name: String,
        /// True for in-server proxy functions.
        is_function: bool,
        /// Default command-line arguments.
        default_args: Vec<String>,
    },
}

impl SrbConnection<'_> {
    // --------------------------------------------------------- collections --

    /// Create a collection (and any missing ancestors).
    pub fn make_collection(&self, path: &str) -> SrbResult<Receipt> {
        let (user, op) = self.begin_op("make_collection", AuditAction::Ingest, path)?;
        let done = (|| {
            let lp = self.parse(path)?;
            let mut cur = LogicalPath::root();
            let mut cur_id = self.grid.mcat.collections.root();
            for comp in lp.components() {
                let next = cur.child(comp)?;
                match self.grid.mcat.collections.resolve(&next) {
                    Ok(id) => cur_id = id,
                    Err(_) => {
                        self.grid
                            .mcat
                            .require_collection(Some(user), cur_id, Permission::Write)
                            .or_else(|e| {
                                // The admin may build anywhere.
                                if self.grid.mcat.users.get(user)?.is_admin {
                                    Ok(())
                                } else {
                                    Err(e)
                                }
                            })?;
                        cur_id = self.grid.mcat.collections.create(
                            &self.grid.mcat.ids,
                            cur_id,
                            comp,
                            user,
                            self.now(),
                        )?;
                    }
                }
                cur = next;
            }
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Delete a collection. `recursive` removes contained datasets and
    /// sub-collections; otherwise the collection must be empty.
    pub fn delete_collection(&self, path: &str, recursive: bool) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("delete_collection", AuditAction::Delete, path)?;
        let done = self.delete_collection_body(user, path, recursive, &mut op.receipt);
        Ok(self.end_op(op, done)?.1)
    }

    /// The whole subtree goes in the caller's one op (one audit row, one
    /// commit); each contained object still pays its own catalog round
    /// trip.
    fn delete_collection_body(
        &self,
        user: UserId,
        path: &str,
        recursive: bool,
        receipt: &mut Receipt,
    ) -> SrbResult<()> {
        let lp = self.parse(path)?;
        let coll = self.grid.mcat.collections.resolve_nofollow(&lp)?;
        self.grid
            .mcat
            .require_collection(Some(user), coll, Permission::Own)?;
        // A linked collection node is just unlinked.
        if self.grid.mcat.collections.get(coll)?.link_target.is_some() {
            return self.grid.mcat.remove_collection(coll);
        }
        let datasets = self.grid.mcat.datasets.list(coll);
        let subs = self.grid.mcat.collections.children(coll);
        if !recursive && (!datasets.is_empty() || !subs.is_empty()) {
            return Err(SrbError::Invalid(format!("collection '{path}' not empty")));
        }
        if recursive {
            for sub in subs {
                receipt.absorb(&self.mcat_rpc()?);
                self.delete_collection_body(user, &sub.path.to_string(), true, receipt)?;
            }
            for d in datasets {
                let dpath = self.grid.mcat.dataset_path(d.id)?;
                receipt.absorb(&self.mcat_rpc()?);
                self.delete_body(user, &dpath.to_string(), None)?;
            }
        }
        self.grid.mcat.remove_collection(coll)
    }

    // -------------------------------------------------------------- ingest --

    /// Ingest a new file at `path`. A logical-resource target fans the
    /// bytes out to every member concurrently (one shared buffer, one
    /// checksum); members whose resource is down get a `Stale` replica row
    /// repairable via [`SrbConnection::sync_replicas`], as long as at
    /// least one member stored the bytes.
    pub fn ingest(
        &self,
        path: &str,
        data: impl Into<Bytes>,
        opts: IngestOptions,
    ) -> SrbResult<Receipt> {
        let data: Bytes = data.into();
        let (user, mut op) = self.begin_op("ingest", AuditAction::Ingest, path)?;
        let done = (|| {
            let lp = self.parse(path)?;
            let name = lp
                .name()
                .ok_or_else(|| SrbError::Invalid("cannot ingest at the root".into()))?;
            let parent = lp
                .parent()
                .ok_or_else(|| SrbError::Invalid("cannot ingest at the root".into()))?;
            let coll = self.grid.mcat.collections.resolve(&parent)?;
            self.grid
                .mcat
                .require_collection(Some(user), coll, Permission::Write)?;
            self.grid.mcat.validate_structural(coll, &opts.metadata)?;

            // Container placement overrides resource placement.
            if let Some(container) = &opts.container {
                let r =
                    self.ingest_into_container_impl(coll, name, &data, container, &opts, user)?;
                op.receipt.absorb(&r);
                return Ok(());
            }

            let resource_name = opts
                .resource
                .as_deref()
                .ok_or_else(|| SrbError::Invalid("ingest needs a resource or container".into()))?;
            let targets = self.grid.mcat.resources.resolve_targets(resource_name)?;
            let file = [(name.to_string(), data.clone())];
            let (ty, meta) = (&opts.data_type, &opts.metadata);
            self.create_datasets(user, coll, &file, &targets, ty, meta, &mut op.receipt)?;
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// The one way new bytes become new datasets, shared by `ingest`,
    /// `copy` and `ingest_bulk`, in four steps:
    ///
    /// 1. every name is checked — free in `coll`, not repeated in
    ///    `files` — before any byte moves;
    /// 2. each file is hashed once (in parallel for a batch);
    /// 3. one leg per (file, target) pair runs through
    ///    [`store_fanout`](Self::store_fanout); legs are pure storage I/O,
    ///    so parallel and sequential runs commit identical state;
    /// 4. one `create_batch` writes the rows in file order, a leg that
    ///    failed retryably becoming a `Stale` replica repairable at the
    ///    next resync, and one metadata attach gives every new dataset
    ///    `metadata`.
    ///
    /// A fatal leg error, a file no target accepted, or a name a
    /// concurrent writer took after step 1 refuses the op: every stored
    /// leg is undone and the catalog is left untouched.
    #[allow(clippy::too_many_arguments)]
    fn create_datasets(
        &self,
        user: UserId,
        coll: CollectionId,
        files: &[(String, Bytes)],
        targets: &[ResourceId],
        data_type: &str,
        metadata: &[Triplet],
        receipt: &mut Receipt,
    ) -> SrbResult<Vec<DatasetId>> {
        self.refuse_taken_names(coll, files.iter().map(|(name, _)| name.as_str()))?;
        let checksums =
            fanout::run_legs(self.fanout_mode(), files.len(), |i| sha256_hex(&files[i].1));
        let legs: Vec<StoreLeg> = files
            .iter()
            .flat_map(|(name, data)| {
                let phys_path = Self::phys_path(coll, name);
                targets.iter().map(move |rid| StoreLeg {
                    resource: *rid,
                    phys_path: phys_path.clone(),
                    data: data.clone(),
                    overwrite: false,
                })
            })
            .collect();
        let fan = self.store_fanout(&legs);
        receipt.absorb(&fan.receipt);
        // Each file owns `k` consecutive legs; `resolve_targets` never
        // hands back an empty list, so no chunk is empty.
        let k = targets.len();
        let unplaced = fan.results.chunks(k).find(|r| r.iter().all(Result::is_err));
        // File `i`'s replica on leg `j`: up to date where the leg stored,
        // `Stale` where it failed.
        let replica = |i: usize, j: usize| {
            let spec = AccessSpec::Stored {
                resource: legs[j].resource,
                phys_path: legs[j].phys_path.clone(),
            };
            let size = files[i].1.len() as u64;
            match fan.results[j] {
                Ok(_) => (
                    spec,
                    size,
                    Some(checksums[i].clone()),
                    ReplicaStatus::UpToDate,
                ),
                Err(_) => (spec, size, None, ReplicaStatus::Stale),
            }
        };
        let created = match fan.first_fatal().or_else(|| unplaced?[0].clone().err()) {
            Some(e) => Err(e),
            None => {
                let rows = (0..files.len()).map(|i| NewDataset {
                    name: files[i].0.clone(),
                    replicas: (i * k..(i + 1) * k).map(|j| replica(i, j)).collect(),
                });
                let (ids, now) = (&self.grid.mcat.ids, self.now());
                let batch = rows.collect();
                self.grid
                    .mcat
                    .datasets
                    .create_batch(ids, coll, data_type, user, batch, now)
            }
        };
        let ids = created.inspect_err(|_| self.undo_stored_legs(&legs, &fan.results))?;
        if let Some(obs) = self.grid.core_obs() {
            obs.legs_stale
                .add((fan.results.len() - fan.successes()) as u64);
        }
        self.grid.mcat.metadata.add_batch(
            &self.grid.mcat.ids,
            ids.iter().flat_map(|ds| {
                metadata
                    .iter()
                    .map(move |t| (Subject::Dataset(*ds), t.clone(), MetaKind::UserDefined))
            }),
        );
        Ok(ids)
    }

    /// Refuse a name taken in `coll` or repeated among `names`, under one
    /// read guard.
    fn refuse_taken_names<'n>(
        &self,
        coll: CollectionId,
        names: impl Iterator<Item = &'n str>,
    ) -> SrbResult<()> {
        let batch = self.grid.mcat.datasets.batch();
        let mut seen: HashSet<&str> = HashSet::with_capacity(names.size_hint().0);
        for name in names {
            if batch.contains_name(coll, name) || !seen.insert(name) {
                return Err(SrbError::AlreadyExists(format!(
                    "dataset '{name}' in collection {coll}"
                )));
            }
        }
        Ok(())
    }

    /// Overwrite an object's data; all up replicas are updated
    /// synchronously (fanning out concurrently under the connection's
    /// [`crate::fanout::FanoutMode`]), replicas on failed resources are
    /// marked stale. If a leg fails fatally after other replicas accepted
    /// the bytes, the partial staleness vector is committed *before* the
    /// error propagates, so the catalog never claims a missed write was
    /// applied.
    pub fn write(&self, path: &str, data: impl Into<Bytes>) -> SrbResult<Receipt> {
        let data: Bytes = data.into();
        let (user, mut op) = self.begin_op("write", AuditAction::Write, path)?;
        let done = self.write_body(user, path, &data, &mut op.receipt);
        Ok(self.end_op(op, done)?.1)
    }

    /// The synchronous-update path shared by `write` and `checkin`.
    pub(crate) fn write_body(
        &self,
        user: UserId,
        path: &str,
        data: &Bytes,
        receipt: &mut Receipt,
    ) -> SrbResult<()> {
        let ds = self.dataset_for(user, path, Permission::Write)?;
        ds.write_allowed_by_locks(user, self.now())?;
        // Reject unsupported replica kinds before any bytes move.
        for replica in &ds.replicas {
            if replica.in_container.is_some() {
                continue;
            }
            match &replica.spec {
                AccessSpec::Stored { .. } => {}
                AccessSpec::RegisteredFile { .. } => {
                    return Err(SrbError::Unsupported(
                        "cannot write through a registered file (not under SRB control)".into(),
                    ))
                }
                other => {
                    return Err(SrbError::Unsupported(format!(
                        "cannot write a {} object",
                        other.type_label()
                    )))
                }
            }
        }
        let checksum = sha256_hex(data);
        // Container slices rewrite inline (they share one container file
        // and must not race); standalone stored replicas fan out.
        let mut staleness: Vec<(u32, ReplicaStatus)> = Vec::new();
        let mut legs: Vec<StoreLeg> = Vec::new();
        let mut leg_nums: Vec<u32> = Vec::new();
        for replica in &ds.replicas {
            if let Some(slice) = replica.in_container {
                let r = self.rewrite_container_slice(ds.id, slice, data)?;
                receipt.absorb(&r);
                staleness.push((replica.repl_num, ReplicaStatus::UpToDate));
                continue;
            }
            if let AccessSpec::Stored {
                resource,
                phys_path,
            } = &replica.spec
            {
                legs.push(StoreLeg {
                    resource: *resource,
                    phys_path: phys_path.clone(),
                    data: data.clone(),
                    overwrite: true,
                });
                leg_nums.push(replica.repl_num);
            }
        }
        let fan = self.store_fanout(&legs);
        receipt.absorb(&fan.receipt);
        for (num, result) in leg_nums.iter().zip(&fan.results) {
            let status = if result.is_ok() {
                ReplicaStatus::UpToDate
            } else {
                ReplicaStatus::Stale
            };
            staleness.push((*num, status));
        }
        if !staleness.iter().any(|(_, s)| *s == ReplicaStatus::UpToDate) {
            // Nothing accepted the write: every replica still holds the
            // old (mutually consistent) version, so nothing goes stale.
            return Err(fan.first_fatal().unwrap_or_else(|| {
                SrbError::ResourceUnavailable("no replica accepted the write".into())
            }));
        }
        let now = self.now();
        self.grid.mcat.datasets.update(ds.id, |d| {
            for (num, status) in &staleness {
                if let Some(r) = d.replicas.iter_mut().find(|r| r.repl_num == *num) {
                    r.status = *status;
                    if *status == ReplicaStatus::UpToDate {
                        r.size = data.len() as u64;
                        r.checksum = Some(checksum.clone());
                    }
                }
            }
            d.modified = now;
            Ok(())
        })?;
        // Accounting invariant (the chaos oracle asserts it): legs_stale
        // counts transitions *into* Stale and repairs counts transitions
        // *out* (a write landing on a previously-stale replica repairs it),
        // so legs_stale − repairs equals the catalog's live stale count.
        if let Some(obs) = self.grid.core_obs() {
            let mut went_stale = 0u64;
            let mut repaired = 0u64;
            for (num, status) in &staleness {
                let was_stale = ds
                    .replicas
                    .iter()
                    .find(|r| r.repl_num == *num)
                    .map(|r| r.status == ReplicaStatus::Stale)
                    .unwrap_or(false);
                match (was_stale, *status == ReplicaStatus::Stale) {
                    (false, true) => went_stale += 1,
                    (true, false) => repaired += 1,
                    _ => {}
                }
            }
            obs.legs_stale.add(went_stale);
            obs.repairs.add(repaired);
        }
        match fan.first_fatal() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // --------------------------------------------------------- bulk ingest --

    /// Ingest many small files into one collection in a single brokered
    /// call — the batched counterpart of [`SrbConnection::ingest`] for
    /// archive-bound workloads where per-file round trips dominate.
    ///
    /// The files take the same path as a single ingest, batched: *one*
    /// session check, *one* structural-metadata validation, *one* MCAT
    /// round trip, *one* name check, *one* dataset-row batch, *one*
    /// metadata attach and *one* audit row for the whole call. The hashes
    /// and the (file, target) storage legs fan out under the connection's
    /// [`crate::fanout::FanoutMode`].
    ///
    /// All-or-nothing at the catalog: a duplicate name (in the collection
    /// or within the batch), a fatal storage error, or a file no target
    /// accepted aborts the call, removes any stored bytes best-effort,
    /// and leaves the catalog untouched. A file that reaches *some* but
    /// not all targets gets `Stale` rows for the missed ones, exactly
    /// like single-file ingest. Returns the created dataset ids in batch
    /// order plus the composed receipt.
    pub fn ingest_bulk(
        &self,
        coll_path: &str,
        files: Vec<(String, Bytes)>,
        opts: &IngestOptions,
    ) -> SrbResult<(Vec<DatasetId>, Receipt)> {
        let subject = format!("{coll_path} [bulk {} files]", files.len());
        let (user, mut op) = self.begin_op("ingest_bulk", AuditAction::Ingest, &subject)?;
        let ids = (|| {
            if opts.container.is_some() {
                return Err(SrbError::Unsupported(
                    "bulk ingest into a container is not supported; use per-file ingest".into(),
                ));
            }
            let lp = self.parse(coll_path)?;
            let coll = self.grid.mcat.collections.resolve(&lp)?;
            self.grid
                .mcat
                .require_collection(Some(user), coll, Permission::Write)?;
            self.grid.mcat.validate_structural(coll, &opts.metadata)?;
            let resource_name = opts
                .resource
                .as_deref()
                .ok_or_else(|| SrbError::Invalid("bulk ingest needs a resource".into()))?;
            let targets = self.grid.mcat.resources.resolve_targets(resource_name)?;
            let (ty, meta) = (&opts.data_type, &opts.metadata);
            self.create_datasets(user, coll, &files, &targets, ty, meta, &mut op.receipt)
        })();
        self.end_op(op, ids)
    }

    // ------------------------------------------------------------ register --

    /// Register an external object (paper §4's five types). No data is
    /// copied; SRB stores a pointer/spec.
    pub fn register(
        &self,
        path: &str,
        spec: RegisterSpec,
        opts: IngestOptions,
    ) -> SrbResult<Receipt> {
        let (user, op) = self.begin_op("register", AuditAction::Register, path)?;
        let done = (|| {
            let lp = self.parse(path)?;
            let name = lp
                .name()
                .ok_or_else(|| SrbError::Invalid("cannot register at the root".into()))?;
            let parent = lp
                .parent()
                .ok_or_else(|| SrbError::Invalid("cannot register at the root".into()))?;
            let coll = self.grid.mcat.collections.resolve(&parent)?;
            self.grid
                .mcat
                .require_collection(Some(user), coll, Permission::Write)?;
            self.grid.mcat.validate_structural(coll, &opts.metadata)?;
            let (access, size) = self.resolve_register_spec(&spec)?;
            let data_type = if opts.data_type.is_empty() || opts.data_type == "generic" {
                access.type_label().to_string()
            } else {
                opts.data_type.clone()
            };
            let ds = self.grid.mcat.datasets.create(
                &self.grid.mcat.ids,
                coll,
                name,
                &data_type,
                user,
                vec![(access, size, None)],
                self.now(),
            )?;
            self.grid.mcat.metadata.add_batch(
                &self.grid.mcat.ids,
                opts.metadata
                    .iter()
                    .map(|t| (Subject::Dataset(ds), t.clone(), MetaKind::UserDefined)),
            );
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    pub(crate) fn resolve_register_spec(
        &self,
        spec: &RegisterSpec,
    ) -> SrbResult<(AccessSpec, u64)> {
        Ok(match spec {
            RegisterSpec::File {
                resource,
                phys_path,
            } => {
                let rid = self.grid.resource_id(resource)?;
                let (stat, _) = self.storage_call(rid, |d| Ok((d.driver().stat(phys_path)?, 0)))?;
                (
                    AccessSpec::RegisteredFile {
                        resource: rid,
                        phys_path: phys_path.clone(),
                    },
                    stat.size,
                )
            }
            RegisterSpec::Directory { resource, dir_path } => {
                let rid = self.grid.resource_id(resource)?;
                let driver = self.grid.driver(rid)?;
                if driver.as_fs().is_none() {
                    return Err(SrbError::Unsupported(
                        "shadow directories require a file-system resource".into(),
                    ));
                }
                (
                    AccessSpec::ShadowDir {
                        resource: rid,
                        dir_path: dir_path.clone(),
                    },
                    0,
                )
            }
            RegisterSpec::Sql {
                resource,
                sql,
                partial,
                template,
            } => {
                // "For security reasons, we recommend that one register only
                // 'select' commands" — we enforce it.
                if !sql.trim_start().to_ascii_lowercase().starts_with("select") {
                    return Err(SrbError::Invalid(
                        "registered SQL must start with SELECT".into(),
                    ));
                }
                let rid = self.grid.resource_id(resource)?;
                if self.grid.driver(rid)?.as_db().is_none() {
                    return Err(SrbError::Unsupported(
                        "SQL objects require a database resource".into(),
                    ));
                }
                (
                    AccessSpec::Sql {
                        resource: rid,
                        sql: sql.clone(),
                        partial: *partial,
                        template: template.clone(),
                    },
                    0,
                )
            }
            RegisterSpec::Url { url } => (AccessSpec::Url { url: url.clone() }, 0),
            RegisterSpec::Method {
                name,
                is_function,
                default_args,
            } => (
                AccessSpec::Method {
                    name: name.clone(),
                    is_function: *is_function,
                    default_args: default_args.clone(),
                },
                0,
            ),
        })
    }

    // ----------------------------------------------------------- replicate --

    /// Create a new physical replica on `resource_name`. "The new replica
    /// inherits all metadata associated with its siblings."
    pub fn replicate(&self, path: &str, resource_name: &str) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("replicate", AuditAction::Replicate, path)?;
        let done = (|| {
            let ds = self.dataset_for(user, path, Permission::Write)?;
            if ds.replicas.iter().any(|r| r.in_container.is_some()) {
                return Err(SrbError::Unsupported(
                    "replication of files inside a container is not supported by this \
                     operation (the container replicates as a whole)"
                        .into(),
                ));
            }
            let (data, read_receipt) = self.read_dataset_bytes(ds.id)?;
            op.receipt.absorb(&read_receipt);
            self.create_replicas(&ds, data, resource_name, "r", &mut op.receipt)
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// The one way new bytes become new replicas of `ds`, shared by
    /// `replicate` and `ingest_replica`: one leg per target behind
    /// `resource_name`, each stored at the dataset's physical path plus
    /// `.{suffix}{n}` for its new replica number `n`, then committed by
    /// [`commit_fanout_replicas`](Self::commit_fanout_replicas).
    fn create_replicas(
        &self,
        ds: &Dataset,
        data: Bytes,
        resource_name: &str,
        suffix: &str,
        receipt: &mut Receipt,
    ) -> SrbResult<()> {
        let targets = self.grid.mcat.resources.resolve_targets(resource_name)?;
        let checksum = sha256_hex(&data);
        let base = Self::phys_path(ds.coll, &ds.name);
        let legs: Vec<StoreLeg> = targets
            .iter()
            .zip(ds.max_repl_num() + 1..)
            .map(|(rid, n)| StoreLeg {
                resource: *rid,
                phys_path: format!("{base}.{suffix}{n}"),
                data: data.clone(),
                overwrite: false,
            })
            .collect();
        let fan = self.store_fanout(&legs);
        receipt.absorb(&fan.receipt);
        self.commit_fanout_replicas(ds.id, &legs, &fan, data.len() as u64, &checksum)
    }

    /// The catalog commit of [`create_replicas`](Self::create_replicas):
    /// add one replica row per leg, in leg order — `UpToDate` for stored
    /// legs, `Stale` (repairable at resync) for legs whose resource was
    /// down. Commits every successful leg *before* propagating a fatal leg
    /// error; with no successes at all, the first leg error propagates
    /// and the catalog is untouched.
    fn commit_fanout_replicas(
        &self,
        ds: DatasetId,
        legs: &[StoreLeg],
        fan: &FanoutOutcome,
        size: u64,
        checksum: &str,
    ) -> SrbResult<()> {
        if let Some(e) = fan.first_err().filter(|_| fan.successes() == 0) {
            return Err(e);
        }
        for (leg, result) in legs.iter().zip(&fan.results) {
            let spec = AccessSpec::Stored {
                resource: leg.resource,
                phys_path: leg.phys_path.clone(),
            };
            match result {
                Ok(_) => {
                    self.grid.mcat.datasets.add_replica(
                        &self.grid.mcat.ids,
                        ds,
                        spec,
                        size,
                        Some(checksum.to_string()),
                        self.now(),
                    )?;
                }
                Err(e) if e.is_retryable() => {
                    self.grid.mcat.datasets.add_replica_with_status(
                        &self.grid.mcat.ids,
                        ds,
                        spec,
                        size,
                        None,
                        ReplicaStatus::Stale,
                        self.now(),
                    )?;
                    if let Some(obs) = self.grid.core_obs() {
                        obs.legs_stale.inc();
                    }
                }
                Err(_) => {} // fatal: no row; error propagates below
            }
        }
        if let Some(e) = fan.first_fatal() {
            return Err(e);
        }
        Ok(())
    }

    /// Register another spec as a replica of an existing object ("register
    /// replicate"; SRB "does not check whether a registered replica is
    /// really an equal of the other copy").
    pub fn register_replica(&self, path: &str, spec: RegisterSpec) -> SrbResult<Receipt> {
        let (user, op) = self.begin_op("register_replica", AuditAction::Replicate, path)?;
        let done = (|| {
            let ds = self.dataset_for(user, path, Permission::Write)?;
            let (access, size) = self.resolve_register_spec(&spec)?;
            self.grid.mcat.datasets.add_replica(
                &self.grid.mcat.ids,
                ds.id,
                access,
                size,
                None,
                self.now(),
            )?;
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Ingest new bytes as a replica ("ingest replica": e.g. a tiff and a
    /// gif of the same image; SRB "does not check for syntactic or semantic
    /// equality").
    pub fn ingest_replica(
        &self,
        path: &str,
        data: impl Into<Bytes>,
        resource_name: &str,
    ) -> SrbResult<Receipt> {
        let data: Bytes = data.into();
        let (user, mut op) = self.begin_op("ingest_replica", AuditAction::Replicate, path)?;
        let done = (|| {
            let ds = self.dataset_for(user, path, Permission::Write)?;
            self.create_replicas(&ds, data, resource_name, "ir", &mut op.receipt)
        })();
        Ok(self.end_op(op, done)?.1)
    }

    // ------------------------------------------------------------ copy/move --

    /// Copy an object to a new path. "The copy command does not copy any
    /// user-defined metadata or annotations … these two objects are
    /// considered to be entirely different and unconnected."
    pub fn copy(&self, src: &str, dst: &str, resource_name: &str) -> SrbResult<Receipt> {
        let subject = format!("{src} -> {dst}");
        let (user, mut op) = self.begin_op("copy", AuditAction::Copy, &subject)?;
        let done = (|| {
            let dst_lp = self.parse(dst)?;
            let src_ds = self.dataset_for(user, src, Permission::Read)?;
            // "Currently we do not support copy of URL, SQL or method objects."
            if !src_ds
                .replicas
                .first()
                .map(|r| r.spec.is_byte_addressable())
                .unwrap_or(false)
            {
                return Err(SrbError::Unsupported(format!(
                    "copy of {} objects is not supported",
                    src_ds.type_label()
                )));
            }
            let dst_name = dst_lp
                .name()
                .ok_or_else(|| SrbError::Invalid("destination is the root".into()))?;
            let dst_parent = dst_lp
                .parent()
                .ok_or_else(|| SrbError::Invalid("destination is the root".into()))?;
            let dst_coll = self.grid.mcat.collections.resolve(&dst_parent)?;
            self.grid
                .mcat
                .require_collection(Some(user), dst_coll, Permission::Write)?;
            // Refuse a taken destination before reading the source, so a
            // refused copy moves no bytes at all.
            self.refuse_taken_names(dst_coll, std::iter::once(dst_name))?;
            let (data, read_receipt) = self.read_dataset_bytes(src_ds.id)?;
            op.receipt.absorb(&read_receipt);
            let targets = self.grid.mcat.resources.resolve_targets(resource_name)?;
            let file = [(dst_name.to_string(), data)];
            let ty = &src_ds.data_type;
            self.create_datasets(user, dst_coll, &file, &targets, ty, &[], &mut op.receipt)?;
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Logical move: re-home the object (or collection) in the name space;
    /// "the user-defined metadata remains unchanged".
    pub fn move_logical(&self, src: &str, dst: &str) -> SrbResult<Receipt> {
        let subject = format!("{src} -> {dst}");
        let (user, op) = self.begin_op("move_logical", AuditAction::Move, &subject)?;
        let done = (|| {
            let src_lp = self.parse(src)?;
            let dst_lp = self.parse(dst)?;
            let dst_name = dst_lp
                .name()
                .ok_or_else(|| SrbError::Invalid("destination is the root".into()))?;
            let dst_parent = dst_lp
                .parent()
                .ok_or_else(|| SrbError::Invalid("destination is the root".into()))?;
            let dst_coll = self.grid.mcat.collections.resolve(&dst_parent)?;
            self.grid
                .mcat
                .require_collection(Some(user), dst_coll, Permission::Write)?;
            // Dataset move, or collection move?
            if let Ok(ds) = self.grid.mcat.resolve_dataset(&src_lp) {
                self.grid
                    .mcat
                    .require_dataset(Some(user), ds, Permission::Own)?;
                self.grid
                    .mcat
                    .datasets
                    .move_dataset(ds, dst_coll, dst_name)?;
            } else {
                let coll = self.grid.mcat.collections.resolve_nofollow(&src_lp)?;
                self.grid
                    .mcat
                    .require_collection(Some(user), coll, Permission::Own)?;
                self.grid
                    .mcat
                    .collections
                    .move_collection(coll, dst_coll, dst_name)?;
            }
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Physical move: relocate the bytes of an ingested object to another
    /// resource, keeping the logical path. "Container-based files cannot be
    /// moved using this operation."
    pub fn move_physical(
        &self,
        path: &str,
        repl_num: u32,
        resource_name: &str,
    ) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("move_physical", AuditAction::Move, path)?;
        let done = self.move_physical_body(user, path, repl_num, resource_name, &mut op.receipt);
        Ok(self.end_op(op, done)?.1)
    }

    /// One replica's relocation, shared with `migrate_collection`.
    fn move_physical_body(
        &self,
        user: UserId,
        path: &str,
        repl_num: u32,
        resource_name: &str,
        receipt: &mut Receipt,
    ) -> SrbResult<()> {
        let ds = self.dataset_for(user, path, Permission::Own)?;
        let replica = ds
            .replicas
            .iter()
            .find(|r| r.repl_num == repl_num)
            .ok_or_else(|| SrbError::NotFound(format!("replica #{repl_num} of '{path}'")))?;
        if replica.in_container.is_some() {
            return Err(SrbError::Unsupported(
                "container-based files cannot be moved with this operation".into(),
            ));
        }
        let AccessSpec::Stored {
            resource: old_rid,
            phys_path: old_path,
        } = replica.spec.clone()
        else {
            return Err(SrbError::Unsupported(
                "physical move applies only to ingested files".into(),
            ));
        };
        let targets = self.grid.mcat.resources.resolve_targets(resource_name)?;
        let new_rid = *targets.first().ok_or_else(|| {
            SrbError::NotFound(format!("no physical resource behind '{resource_name}'"))
        })?;
        let mut tmp = Receipt::free();
        let data = self.read_replica(replica, &mut tmp)?;
        receipt.absorb(&tmp);
        let new_path = format!("{}.mv{}", Self::phys_path(ds.coll, &ds.name), repl_num);
        let r = self.store_bytes_retry(new_rid, &new_path, &data, false)?;
        receipt.absorb(&r);
        // Best effort: remove the old copy (the old resource may be down).
        self.discard(old_rid, &old_path);
        self.grid.mcat.datasets.update(ds.id, |d| {
            let rep = d
                .replicas
                .iter_mut()
                .find(|r| r.repl_num == repl_num)
                .ok_or_else(|| {
                    SrbError::NotFound(format!("replica {repl_num} vanished during move"))
                })?;
            rep.spec = AccessSpec::Stored {
                resource: new_rid,
                phys_path: new_path.clone(),
            };
            Ok(())
        })
    }

    // ---------------------------------------------------------------- link --

    /// Soft-link an object into another collection (Unix-style; chains
    /// collapse; ACL of the original governs).
    pub fn link(&self, target: &str, link_path: &str) -> SrbResult<Receipt> {
        let subject = format!("{target} <- {link_path}");
        let (user, op) = self.begin_op("link", AuditAction::Link, &subject)?;
        let done = (|| {
            let target_lp = self.parse(target)?;
            let link_lp = self.parse(link_path)?;
            let link_name = link_lp
                .name()
                .ok_or_else(|| SrbError::Invalid("link path is the root".into()))?;
            let link_parent = link_lp
                .parent()
                .ok_or_else(|| SrbError::Invalid("link path is the root".into()))?;
            let link_coll = self.grid.mcat.collections.resolve(&link_parent)?;
            self.grid
                .mcat
                .require_collection(Some(user), link_coll, Permission::Write)?;
            if let Ok(ds) = self.grid.mcat.resolve_dataset(&target_lp) {
                self.grid
                    .mcat
                    .require_dataset(Some(user), ds, Permission::Read)?;
                self.grid.mcat.datasets.create_link(
                    &self.grid.mcat.ids,
                    link_coll,
                    link_name,
                    ds,
                    user,
                    self.now(),
                )?;
            } else {
                let coll = self.grid.mcat.collections.resolve(&target_lp)?;
                self.grid
                    .mcat
                    .require_collection(Some(user), coll, Permission::Read)?;
                self.grid.mcat.collections.link(
                    &self.grid.mcat.ids,
                    link_coll,
                    link_name,
                    coll,
                    user,
                    self.now(),
                )?;
            }
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    // -------------------------------------------------------------- delete --

    /// Delete an object, "one replica at a time": `Some(n)` removes replica
    /// `n`; `None` removes everything. "When the last replica is deleted
    /// all the metadata and annotations are also deleted." Registered
    /// objects are unlinked without touching the physical object; deleting
    /// a link unlinks it.
    pub fn delete(&self, path: &str, repl_num: Option<u32>) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("delete", AuditAction::Delete, path)?;
        let done = self.delete_body(user, path, repl_num);
        if let Ok(outcome) = done {
            op.done = outcome;
        }
        Ok(self.end_op(op, done)?.1)
    }

    /// Shared with recursive `delete_collection`; returns the audit
    /// outcome (`"unlink"` for a link, else `"ok"`).
    fn delete_body(
        &self,
        user: UserId,
        path: &str,
        repl_num: Option<u32>,
    ) -> SrbResult<&'static str> {
        let lp = self.parse(path)?;
        let ds_id = self.grid.mcat.resolve_dataset(&lp)?;
        let ds = self.grid.mcat.datasets.get(ds_id)?;
        // "A linked file cannot be deleted through the link; a delete
        // operation on a link basically performs an unlink operation."
        if ds.link_target.is_some() {
            self.grid
                .mcat
                .require_dataset(Some(user), ds_id, Permission::Read)?;
            self.grid.mcat.remove_dataset(ds_id)?;
            return Ok("unlink");
        }
        self.grid
            .mcat
            .require_dataset(Some(user), ds_id, Permission::Own)?;
        ds.write_allowed_by_locks(user, self.now())?;
        let nums: Vec<u32> = match repl_num {
            Some(n) => vec![n],
            None => ds.replicas.iter().map(|r| r.repl_num).collect(),
        };
        let mut last_deleted = ds.replicas.is_empty();
        for n in nums {
            let (replica, was_last) = self.grid.mcat.datasets.remove_replica(ds_id, n)?;
            last_deleted = was_last;
            self.dispose_replica(ds_id, &replica);
        }
        if last_deleted {
            self.grid.mcat.remove_dataset(ds_id)?;
        }
        Ok("ok")
    }

    /// Physically dispose of an SRB-controlled replica's bytes; registered
    /// specs leave the physical object untouched.
    fn dispose_replica(&self, ds: DatasetId, replica: &srb_mcat::Replica) {
        if let Some(slice) = replica.in_container {
            let _ = self.grid.mcat.containers.remove_member(slice.container, ds);
            return;
        }
        if let AccessSpec::Stored {
            resource,
            phys_path,
        } = &replica.spec
        {
            self.discard(*resource, phys_path);
        }
    }

    // ------------------------------------------------------------- migrate --

    /// Recursively move every SRB-stored object under a collection onto a
    /// new resource, "without changing the name by which the data is
    /// discovered and accessed" (the persistence capability).
    pub fn migrate_collection(&self, path: &str, resource_name: &str) -> SrbResult<Receipt> {
        let subject = format!("{path} => {resource_name}");
        let (user, mut op) = self.begin_op("migrate_collection", AuditAction::Move, &subject)?;
        let done = (|| {
            let lp = self.parse(path)?;
            let root = self.grid.mcat.collections.resolve(&lp)?;
            self.grid
                .mcat
                .require_collection(Some(user), root, Permission::Own)?;
            let mut colls = vec![root];
            colls.extend(self.grid.mcat.collections.descendants(root));
            for coll in colls {
                for ds in self.grid.mcat.datasets.list(coll) {
                    let replica_nums: Vec<u32> = ds
                        .replicas
                        .iter()
                        .filter(|r| r.spec.is_srb_controlled() && r.in_container.is_none())
                        .map(|r| r.repl_num)
                        .collect();
                    if replica_nums.is_empty() {
                        continue;
                    }
                    let dpath = self.grid.mcat.dataset_path(ds.id)?.to_string();
                    for num in replica_nums {
                        op.receipt.absorb(&self.mcat_rpc()?);
                        self.move_physical_body(user, &dpath, num, resource_name, &mut op.receipt)?;
                    }
                }
            }
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    // ------------------------------------------------------------ plumbing --

    pub(crate) fn phys_path(coll: CollectionId, name: &str) -> String {
        format!("srb/c{}/{name}", coll.raw())
    }

    /// Push bytes to a resource (create or overwrite) through the door,
    /// then charge the transfer from the contact site. One raw attempt —
    /// breaker admission, retry, and outcome recording live in
    /// [`store_bytes_retry`](Self::store_bytes_retry).
    pub(crate) fn store_bytes(
        &self,
        resource: ResourceId,
        phys_path: &str,
        data: &[u8],
        overwrite: bool,
    ) -> SrbResult<Receipt> {
        let ((), storage_ns) = self.storage_call(resource, |d| {
            let ns = if overwrite {
                d.driver().write(phys_path, data)
            } else {
                d.driver().create(phys_path, data)
            }?;
            Ok(((), ns))
        })?;
        let site = self.grid.site_of_resource(resource)?;
        let net_ns = self
            .grid
            .network
            .charge_transfer(self.site(), site, data.len() as u64)?;
        let mut r = Receipt::time(storage_ns + net_ns);
        r.bytes = data.len() as u64;
        r.messages = 1;
        if self.grid.server_for_resource(resource)? != self.server {
            r.hops = 1;
        }
        Ok(r)
    }
}
