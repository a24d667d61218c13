//! Metadata and query operations.
//!
//! "The importance of metadata in SRB comes from the queriability of the
//! metadata." These are MySRB's metadata-handling functions: ingestion at
//! four points (at ingest time, via the insert form, by copying, and by
//! extraction methods), type-oriented schemas, file-based metadata,
//! annotations, and the conjunctive query.

use crate::conn::SrbConnection;
use crate::tlang::TScript;
use srb_mcat::{
    Annotation, AnnotationKind, AuditAction, MetaKind, MetaRow, Query, QueryHit, Subject,
};
use srb_net::Receipt;
use srb_types::{AccessMatrix, MetaValue, Permission, SrbError, SrbResult, Triplet, UserId};

impl SrbConnection<'_> {
    fn subject_of(&self, path: &str) -> SrbResult<Subject> {
        let lp = self.parse(path)?;
        if let Ok(ds) = self.grid.mcat.resolve_dataset(&lp) {
            // Metadata attaches to the link target, as the paper specifies
            // for viewing; link-local metadata is supported by annotating
            // the link object itself, which we keep simple by resolving.
            let resolved = self.grid.mcat.datasets.resolve_links(ds)?;
            Ok(Subject::Dataset(resolved.id))
        } else {
            Ok(Subject::Collection(
                self.grid.mcat.collections.resolve(&lp)?,
            ))
        }
    }

    fn require_subject(&self, subject: Subject, needed: Permission) -> SrbResult<()> {
        match subject {
            Subject::Dataset(d) => self.grid.mcat.require_dataset(Some(self.user()), d, needed),
            Subject::Collection(c) => {
                self.grid
                    .mcat
                    .require_collection(Some(self.user()), c, needed)
            }
        }
    }

    // ------------------------------------------------------------ triplets --

    /// Attach a user-defined triplet. "User-defined metadata and
    /// type-oriented metadata can be ingested only by users who have
    /// 'ownership' permission."
    pub fn add_metadata(&self, path: &str, triplet: Triplet) -> SrbResult<Receipt> {
        let (_, op) = self.begin_op("add_metadata", AuditAction::MetaChange, path)?;
        let done = (|| {
            let subject = self.subject_of(path)?;
            self.require_subject(subject, Permission::Own)?;
            self.grid.mcat.metadata.add(
                &self.grid.mcat.ids,
                subject,
                triplet,
                MetaKind::UserDefined,
            );
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Attach a type-oriented (schema) triplet, e.g. Dublin Core.
    pub fn add_schema_metadata(
        &self,
        path: &str,
        schema: &str,
        triplet: Triplet,
    ) -> SrbResult<Receipt> {
        let (_, op) = self.begin_op("add_schema_metadata", AuditAction::MetaChange, path)?;
        let done = (|| {
            let subject = self.subject_of(path)?;
            self.require_subject(subject, Permission::Own)?;
            self.grid.mcat.add_type_metadata(subject, schema, triplet)
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// All metadata rows on an object or collection (requires Read).
    pub fn metadata(&self, path: &str) -> SrbResult<Vec<MetaRow>> {
        self.check_session()?;
        let subject = self.subject_of(path)?;
        self.require_subject(subject, Permission::Read)?;
        Ok(self.grid.mcat.metadata.for_subject(subject))
    }

    /// Update one row's value/units (Own).
    pub fn update_metadata(
        &self,
        path: &str,
        meta_id: srb_types::MetaId,
        value: MetaValue,
        units: &str,
    ) -> SrbResult<Receipt> {
        let (_, op) = self.begin_op("update_metadata", AuditAction::MetaChange, path)?;
        let done = (|| {
            let subject = self.subject_of(path)?;
            self.require_subject(subject, Permission::Own)?;
            self.grid
                .mcat
                .metadata
                .update(meta_id, value, units.to_string())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Delete one metadata row (Own).
    pub fn delete_metadata(&self, path: &str, meta_id: srb_types::MetaId) -> SrbResult<Receipt> {
        let (_, op) = self.begin_op("delete_metadata", AuditAction::MetaChange, path)?;
        let done = (|| {
            let subject = self.subject_of(path)?;
            self.require_subject(subject, Permission::Own)?;
            self.grid.mcat.metadata.remove(meta_id)
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Copy user/type metadata from another object (ingestion method 3).
    pub fn copy_metadata(&self, from: &str, to: &str) -> SrbResult<usize> {
        let subject = format!("{from} -> {to}");
        let (_, op) = self.begin_op("copy_metadata", AuditAction::MetaChange, &subject)?;
        let copied = (|| {
            let src = self.subject_of(from)?;
            let dst = self.subject_of(to)?;
            self.require_subject(src, Permission::Read)?;
            self.require_subject(dst, Permission::Own)?;
            Ok(self.grid.mcat.metadata.copy(&self.grid.mcat.ids, src, dst))
        })();
        Ok(self.end_op(op, copied)?.0)
    }

    /// Extraction method 4a: run a T-language script over the object's own
    /// content and attach the extracted triplets.
    pub fn extract_metadata(&self, path: &str, script: &str) -> SrbResult<Vec<Triplet>> {
        let (_, op) = self.begin_op("extract_metadata", AuditAction::MetaChange, path)?;
        let triplets = (|| {
            let subject = self.subject_of(path)?;
            self.require_subject(subject, Permission::Own)?;
            let Subject::Dataset(ds) = subject else {
                return Err(SrbError::Unsupported(
                    "metadata extraction applies to datasets".into(),
                ));
            };
            let (bytes, _) = self.read_dataset_bytes(ds)?;
            let tscript = TScript::parse(script)?;
            let triplets = tscript.extract(&String::from_utf8_lossy(&bytes));
            for t in &triplets {
                self.grid.mcat.metadata.add(
                    &self.grid.mcat.ids,
                    subject,
                    t.clone(),
                    MetaKind::UserDefined,
                );
            }
            Ok(triplets)
        })();
        Ok(self.end_op(op, triplets)?.0)
    }

    /// Extraction method 4b: extract from a *second* object (e.g. a DICOM
    /// header file) and attach to the first.
    pub fn extract_metadata_from(
        &self,
        source: &str,
        target: &str,
        script: &str,
    ) -> SrbResult<Vec<Triplet>> {
        let (_, op) = self.begin_op("extract_metadata_from", AuditAction::MetaChange, target)?;
        let triplets = (|| {
            let src = self.subject_of(source)?;
            let dst = self.subject_of(target)?;
            self.require_subject(src, Permission::Read)?;
            self.require_subject(dst, Permission::Own)?;
            let Subject::Dataset(src_ds) = src else {
                return Err(SrbError::Unsupported("source must be a dataset".into()));
            };
            let (bytes, _) = self.read_dataset_bytes(src_ds)?;
            let tscript = TScript::parse(script)?;
            let triplets = tscript.extract(&String::from_utf8_lossy(&bytes));
            for t in &triplets {
                self.grid.mcat.metadata.add(
                    &self.grid.mcat.ids,
                    dst,
                    t.clone(),
                    MetaKind::FileBased(src_ds),
                );
            }
            Ok(triplets)
        })();
        Ok(self.end_op(op, triplets)?.0)
    }

    /// Associate a file already in SRB as a metadata-carrying file for
    /// another object ("file-based metadata … for viewing"). One file may
    /// serve many objects.
    pub fn attach_meta_file(&self, target: &str, carrier: &str) -> SrbResult<Receipt> {
        let (_, op) = self.begin_op("attach_meta_file", AuditAction::MetaChange, target)?;
        let done = (|| {
            let dst = self.subject_of(target)?;
            self.require_subject(dst, Permission::Own)?;
            let carrier_lp = self.parse(carrier)?;
            let carrier_ds = self.grid.mcat.resolve_dataset(&carrier_lp)?;
            self.grid.mcat.metadata.attach_meta_file(dst, carrier_ds);
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Render a subject's file-based metadata. Carrier files hold either
    /// `name|value|units` lines (the paper's triplet format) or XML
    /// metadata documents (the paper's "later release" format — see
    /// [`crate::xmlmeta`]); the format is auto-detected per carrier.
    pub fn view_meta_files(&self, path: &str) -> SrbResult<Vec<Triplet>> {
        self.check_session()?;
        let subject = self.subject_of(path)?;
        self.require_subject(subject, Permission::Read)?;
        let mut out = Vec::new();
        for carrier in self.grid.mcat.metadata.meta_files_of(subject) {
            let (bytes, _) = self.read_dataset_bytes(carrier)?;
            let text = String::from_utf8_lossy(&bytes);
            if crate::xmlmeta::looks_like_xml(&text) {
                out.extend(crate::xmlmeta::parse_xml_triplets(&text)?);
                continue;
            }
            for line in text.lines() {
                let mut parts = line.splitn(3, '|');
                let name = parts.next().unwrap_or("").trim();
                if name.is_empty() {
                    continue;
                }
                let value = parts.next().unwrap_or("").trim();
                let units = parts.next().unwrap_or("").trim();
                out.push(Triplet::new(name, MetaValue::parse(value), units));
            }
        }
        Ok(out)
    }

    // --------------------------------------------------------- annotations --

    /// Annotate an object — any user with *read* permission may.
    pub fn annotate(
        &self,
        path: &str,
        kind: AnnotationKind,
        location: &str,
        text: &str,
    ) -> SrbResult<Receipt> {
        let (user, op) = self.begin_op("annotate", AuditAction::MetaChange, path)?;
        let done = (|| {
            let subject = self.subject_of(path)?;
            self.require_subject(subject, Permission::Annotate)?;
            self.grid.mcat.annotations.add(
                &self.grid.mcat.ids,
                subject,
                user,
                self.now(),
                kind,
                location,
                text,
            );
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// List an object's annotations.
    pub fn annotations(&self, path: &str) -> SrbResult<Vec<Annotation>> {
        self.check_session()?;
        let subject = self.subject_of(path)?;
        self.require_subject(subject, Permission::Read)?;
        Ok(self.grid.mcat.annotations.for_subject(subject))
    }

    /// Delete one's own annotation.
    pub fn delete_annotation(&self, id: srb_types::AnnotationId) -> SrbResult<()> {
        let subject = format!("annotation {id}");
        let (user, op) = self.begin_op("delete_annotation", AuditAction::MetaChange, &subject)?;
        let done = self.grid.mcat.annotations.remove(id, user);
        self.end_op(op, done).map(drop)
    }

    // --------------------------------------------------------------- query --

    /// Hits the user may Read (permission filtering happens after the
    /// catalog query, so a limited query or page may come back short).
    /// One batched permission read per page, not one per hit.
    fn visible(&self, user: UserId, hits: Vec<QueryHit>) -> Vec<QueryHit> {
        let ids: Vec<_> = hits.iter().map(|h| h.dataset).collect();
        let levels = self.grid.mcat.effective_on_datasets(Some(user), &ids);
        hits.into_iter()
            .zip(levels)
            .filter(|(_, level)| level.is_some_and(|p| p.allows(Permission::Read)))
            .map(|(h, _)| h)
            .collect()
    }

    /// Run a conjunctive query; hits the user may not Discover are
    /// filtered out.
    pub fn query(&self, q: &Query) -> SrbResult<(Vec<QueryHit>, Receipt)> {
        let scope = q.scope.to_string();
        let (user, op) = self.begin_op("query", AuditAction::Query, &scope)?;
        let hits = self.grid.mcat.query(q).map(|h| self.visible(user, h));
        self.end_op(op, hits)
    }

    /// Paging helper for the MySRB result listing: run `q` with an
    /// *unordered* limit of `n`, letting the catalog short-circuit
    /// candidate verification as soon as `n` hits confirm ("show me some
    /// matches fast"). The hits are real matches, sorted among themselves,
    /// but not necessarily the first `n` in global path order; permission
    /// filtering happens afterwards, so fewer than `n` rows may come back
    /// even when more matches exist.
    pub fn query_first(&self, q: &Query, n: usize) -> SrbResult<(Vec<QueryHit>, Receipt)> {
        let q = q.clone().first_hits(n);
        self.query(&q)
    }

    /// One ordered page of query results through the catalog's resumable
    /// cursor (`token` from the previous page, `None` to start). Pages
    /// are in path order and cost O(page) verification regardless of how
    /// deep the cursor is; a catalog mutation in between invalidates the
    /// token with `SrbError::Invalid` and the caller restarts. Hits the
    /// user may not Read are filtered *after* paging, so a page may come
    /// back short while more pages remain.
    pub fn query_page(
        &self,
        q: &Query,
        token: Option<&str>,
        page: usize,
    ) -> SrbResult<(Vec<QueryHit>, Option<String>, Receipt)> {
        let scope = q.scope.to_string();
        let (user, op) = self.begin_op("query_page", AuditAction::Query, &scope)?;
        let paged = self
            .grid
            .mcat
            .query_page(q, token, page)
            .map(|(h, next)| (self.visible(user, h), next));
        let ((hits, next), receipt) = self.end_op(op, paged)?;
        Ok((hits, next, receipt))
    }

    /// The scan-path baseline of the same query (ablation A1).
    pub fn query_scan(&self, q: &Query) -> SrbResult<(Vec<QueryHit>, Receipt)> {
        let scope = q.scope.to_string();
        let (user, op) = self.begin_op("query_scan", AuditAction::Query, &scope)?;
        let hits = self.grid.mcat.query_scan(q).map(|h| self.visible(user, h));
        self.end_op(op, hits)
    }

    // ----------------------------------------------------------------- acl --

    /// Apply `change` to the access matrix of an object or collection
    /// (Own required; "the selection should be done by the owner").
    fn change_acl(&self, path: &str, change: impl Fn(&mut AccessMatrix)) -> SrbResult<()> {
        let (_, op) = self.begin_op("grant", AuditAction::AclChange, path)?;
        let done = (|| {
            let subject = self.subject_of(path)?;
            self.require_subject(subject, Permission::Own)?;
            match subject {
                Subject::Dataset(d) => self.grid.mcat.datasets.update(d, |ds| {
                    change(&mut ds.acl);
                    Ok(())
                }),
                Subject::Collection(c) => {
                    let mut acl = self.grid.mcat.collections.get(c)?.acl;
                    change(&mut acl);
                    self.grid.mcat.collections.set_acl(c, acl)
                }
            }
        })();
        self.end_op(op, done).map(drop)
    }

    /// Grant a permission level to a user on an object or collection.
    pub fn grant(&self, path: &str, grantee: UserId, level: Permission) -> SrbResult<()> {
        self.change_acl(path, |acl| acl.grant_user(grantee, level))
    }

    /// Grant a permission level to a *group* on an object or collection.
    pub fn grant_group(
        &self,
        path: &str,
        group: srb_types::GroupId,
        level: Permission,
    ) -> SrbResult<()> {
        self.change_acl(path, |acl| acl.grant_group(group, level))
    }

    /// Set the anonymous/public level on an object or collection.
    pub fn grant_public(&self, path: &str, level: Permission) -> SrbResult<()> {
        self.change_acl(path, |acl| acl.public = level)
    }

    /// Create a user group (any authenticated user may; the creator is the
    /// first member).
    pub fn create_group(&self, name: &str) -> SrbResult<srb_types::GroupId> {
        let subject = format!("group {name}");
        let (user, op) = self.begin_op("create_group", AuditAction::AclChange, &subject)?;
        let group = (|| {
            let users = &self.grid.mcat.users;
            let g = users.create_group(&self.grid.mcat.ids, name)?;
            users.add_to_group(user, g)?;
            Ok(g)
        })();
        Ok(self.end_op(op, group)?.0)
    }

    /// Add a user to a group (group members may extend their group).
    pub fn add_to_group(&self, group: srb_types::GroupId, member: UserId) -> SrbResult<()> {
        let subject = format!("group {group} += {member}");
        let (user, op) = self.begin_op("add_to_group", AuditAction::AclChange, &subject)?;
        let done = (|| {
            let users = &self.grid.mcat.users;
            let grp = users.get_group(group)?;
            if !grp.members.contains(&user) && !users.get(user)?.is_admin {
                return Err(SrbError::PermissionDenied(format!(
                    "only members may extend group '{}'",
                    grp.name
                )));
            }
            users.add_to_group(member, group)
        })();
        self.end_op(op, done).map(drop)
    }
}
