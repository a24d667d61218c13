//! Container operations.
//!
//! A container aggregates many small objects into one physical block. Its
//! placement is a *logical resource*: the cache-class member holds the
//! working copy; archive-class members hold the synchronized copy. Reading
//! a member object over the WAN costs one cache range-read instead of one
//! archive staging per file — the latency claim benchmarked in E2.

use crate::conn::SrbConnection;
use crate::ops_write::IngestOptions;
use bytes::Bytes;
use srb_mcat::dataset::ContainerSlice;
use srb_mcat::{AccessSpec, AuditAction, ContainerRecord, Subject};
use srb_net::Receipt;
use srb_storage::DriverKind;
use srb_types::{Checksum, CollectionId, DatasetId, ResourceId, SrbError, SrbResult, UserId};

impl SrbConnection<'_> {
    /// Create a container on a logical resource.
    pub fn create_container(
        &self,
        name: &str,
        logical_resource: &str,
        max_size: u64,
    ) -> SrbResult<Receipt> {
        let subject = format!("container {name}");
        let (_, op) = self.begin_op("create_container", AuditAction::Ingest, &subject)?;
        let done = (|| {
            let lr = self.grid.logical_resource_id(logical_resource)?;
            self.grid.mcat.containers.create(
                &self.grid.mcat.ids,
                name,
                lr,
                max_size,
                self.now(),
            )?;
            Ok(())
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// The container's working-copy (cache-class) resource and the archive
    /// members, resolved from its logical resource.
    pub(crate) fn container_members(
        &self,
        record: &ContainerRecord,
    ) -> SrbResult<(ResourceId, Vec<ResourceId>)> {
        let lr = self
            .grid
            .mcat
            .resources
            .get_logical(record.logical_resource)?;
        let mut cache = None;
        let mut archives = Vec::new();
        for rid in &lr.members {
            match self.grid.driver(*rid)?.kind() {
                DriverKind::Archive => archives.push(*rid),
                _ if cache.is_none() => cache = Some(*rid),
                _ => {}
            }
        }
        let cache = cache.or_else(|| archives.first().copied()).ok_or_else(|| {
            SrbError::Invalid(format!(
                "container '{}' has no usable member resource",
                record.name
            ))
        })?;
        Ok((cache, archives))
    }

    pub(crate) fn container_phys_path(record: &ContainerRecord) -> String {
        format!("containers/{}", record.name)
    }

    /// Ingest into a container (called from [`SrbConnection::ingest`]).
    /// Any failure after the dataset row exists removes the row again (the
    /// name stays reusable) and turns an already recorded slice into a
    /// hole.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ingest_into_container_impl(
        &self,
        coll: CollectionId,
        name: &str,
        data: &[u8],
        container_name: &str,
        opts: &IngestOptions,
        user: UserId,
    ) -> SrbResult<Receipt> {
        let record = self
            .grid
            .mcat
            .containers
            .find(container_name)
            .ok_or_else(|| SrbError::NotFound(format!("container '{container_name}'")))?;
        let (cache_rid, _) = self.container_members(&record)?;
        let ds = self.grid.mcat.datasets.create(
            &self.grid.mcat.ids,
            coll,
            name,
            &opts.data_type,
            user,
            Vec::new(),
            self.now(),
        )?;
        let done = (|| {
            let (slice, receipt) = self.append_slice(&record, cache_rid, ds, false, data)?;
            let repl_num = self.grid.mcat.datasets.add_replica(
                &self.grid.mcat.ids,
                ds,
                AccessSpec::Stored {
                    resource: cache_rid,
                    phys_path: Self::container_phys_path(&record),
                },
                data.len() as u64,
                Some(Checksum::of(data)),
                self.now(),
            )?;
            self.grid.mcat.datasets.update(ds, |d| {
                let r = d
                    .replicas
                    .iter_mut()
                    .find(|r| r.repl_num == repl_num)
                    .ok_or_else(|| {
                        SrbError::NotFound(format!("replica #{repl_num} vanished during ingest"))
                    })?;
                r.in_container = Some(Box::new(slice));
                Ok(())
            })?;
            for t in &opts.metadata {
                self.grid.mcat.metadata.add(
                    &self.grid.mcat.ids,
                    Subject::Dataset(ds),
                    t.clone(),
                    srb_mcat::MetaKind::UserDefined,
                );
            }
            Ok(receipt)
        })();
        if done.is_err() {
            let _ = self.grid.mcat.containers.remove_member(record.id, ds);
            let _ = self.grid.mcat.remove_dataset(ds);
        }
        done
    }

    /// Append `data` at the tail of the container's working copy on
    /// `cache_rid`, then record it as `ds`'s slice — in place of `ds`'s
    /// current slice when `replaces`. The catalog changes only once the
    /// bytes have landed, so a failed storage leg never leaves the
    /// container's size ahead of its bytes (which would shift every later
    /// member). Returns the slice and the leg's storage + transfer cost.
    fn append_slice(
        &self,
        record: &ContainerRecord,
        cache_rid: ResourceId,
        ds: DatasetId,
        replaces: bool,
        data: &[u8],
    ) -> SrbResult<(ContainerSlice, Receipt)> {
        let len = data.len() as u64;
        if record.size + len > record.max_size {
            return Err(SrbError::ResourceUnavailable(format!(
                "container '{}' full ({} + {len} > {})",
                record.name, record.size, record.max_size
            )));
        }
        let ct_path = Self::container_phys_path(record);
        let ((), storage_ns) =
            self.storage_call(cache_rid, |d| Ok(((), d.driver().append(&ct_path, data)?)))?;
        let containers = &self.grid.mcat.containers;
        if replaces {
            // The bytes are recorded either way, so a missing old slice
            // must not stop the new one.
            let _ = containers.remove_member(record.id, ds);
        }
        let offset = containers.append_member(record.id, ds, len)?;
        let site = self.grid.site_of_resource(cache_rid)?;
        let net_ns = self.grid.network.charge_transfer(self.site(), site, len)?;
        let mut receipt = Receipt::time(storage_ns + net_ns);
        receipt.bytes = len;
        let slice = ContainerSlice {
            container: record.id,
            offset,
            len,
        };
        Ok((slice, receipt))
    }

    /// Synchronize the container's working copy onto its archive members.
    /// "Replication of a container (and its objects) is done by the SRB
    /// system using semantics associated with the logical resource."
    pub fn sync_container(&self, name: &str) -> SrbResult<Receipt> {
        let subject = format!("container {name}");
        let (_, mut op) = self.begin_op("sync_container", AuditAction::Replicate, &subject)?;
        let done = (|| {
            let record = self
                .grid
                .mcat
                .containers
                .find(name)
                .ok_or_else(|| SrbError::NotFound(format!("container '{name}'")))?;
            let (cache_rid, archives) = self.container_members(&record)?;
            let ct_path = Self::container_phys_path(&record);
            let (data, read_ns) = self.storage_call(cache_rid, |d| d.driver().read(&ct_path))?;
            op.receipt.absorb(&Receipt::time(read_ns));
            let cache_site = self.grid.site_of_resource(cache_rid)?;
            for rid in archives {
                let ((), write_ns) =
                    self.storage_call(rid, |d| Ok(((), d.driver().write(&ct_path, &data)?)))?;
                let site = self.grid.site_of_resource(rid)?;
                let net_ns =
                    self.grid
                        .network
                        .charge_transfer(cache_site, site, data.len() as u64)?;
                op.receipt.absorb(&Receipt::time(net_ns + write_ns));
                op.receipt.bytes += data.len() as u64;
            }
            self.grid.mcat.containers.mark_synced(record.id)
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Read one member slice, trying the cache copy first and transparently
    /// re-staging the whole container from an archive member on a miss.
    pub(crate) fn read_container_slice(
        &self,
        slice: ContainerSlice,
        receipt: &mut Receipt,
    ) -> SrbResult<Bytes> {
        let record = self.grid.mcat.containers.get(slice.container)?;
        let (cache_rid, archives) = self.container_members(&record)?;
        let ct_path = Self::container_phys_path(&record);
        // The working copy first, under the retry budget and the breaker
        // as every replica read is: a transient refusal is retried here.
        let cache_read = self.retry_storage(cache_rid, receipt, |_| {
            self.storage_call(cache_rid, |d| {
                d.driver().read_range(&ct_path, slice.offset, slice.len)
            })
        });
        let purged = match cache_read {
            Ok((data, ns)) => {
                receipt.absorb(&Receipt::time(ns));
                receipt.absorb(&self.data_transfer(cache_rid, data.len() as u64)?);
                return whole_slice(&record, slice, data);
            }
            // Purged: recall from an archive member.
            Err(SrbError::NotFound(_)) => true,
            // The cache is unreachable. The archives hold the container's
            // current bytes only once it is synced; before that they hold
            // an older layout, so the refusal stands and `read` fails over
            // to another replica.
            Err(e) if e.is_retryable() && record.synced => false,
            Err(e) => return Err(e),
        };
        for rid in &archives {
            let (whole, ns) = match self.storage_call(*rid, |d| d.driver().read(&ct_path)) {
                Ok(read) => read,
                Err(e) if e.is_retryable() => continue,
                Err(e) => return Err(e),
            };
            receipt.absorb(&Receipt::time(ns));
            // Re-populate a purged cache copy (best effort — the cache
            // may be full of pinned objects or down). A cache that only
            // refused the read still holds its copy, so it is left alone.
            let refill = purged.then(|| {
                self.storage_call(cache_rid, |d| Ok(((), d.driver().write(&ct_path, &whole)?)))
            });
            if let Some(Ok(((), wns))) = refill {
                let net_ns = self.grid.network.charge_transfer(
                    self.grid.site_of_resource(*rid)?,
                    self.grid.site_of_resource(cache_rid)?,
                    whole.len() as u64,
                )?;
                receipt.absorb(&Receipt::time(net_ns + wns));
            }
            let start = (slice.offset as usize).min(whole.len());
            let end = ((slice.offset + slice.len) as usize).min(whole.len());
            let data = whole.slice(start..end);
            receipt.absorb(&self.data_transfer(*rid, data.len() as u64)?);
            return whole_slice(&record, slice, data);
        }
        Err(SrbError::ResourceUnavailable(format!(
            "container '{}' unreachable on all members",
            record.name
        )))
    }

    /// Update a member object in place: the new bytes are appended at the
    /// container's tail and the member's slice is repointed (tar-like: the
    /// old bytes become a hole until the container is rewritten).
    pub(crate) fn rewrite_container_slice(
        &self,
        ds: DatasetId,
        old: ContainerSlice,
        data: &[u8],
    ) -> SrbResult<Receipt> {
        let record = self.grid.mcat.containers.get(old.container)?;
        let (cache_rid, _) = self.container_members(&record)?;
        let (slice, receipt) = self.append_slice(&record, cache_rid, ds, true, data)?;
        let checksum = Checksum::of(data);
        self.grid.mcat.datasets.update(ds, |d| {
            for r in d.replicas.iter_mut() {
                if r.in_container.as_deref() == Some(&old) {
                    r.in_container = Some(Box::new(slice));
                    r.size = data.len() as u64;
                    r.checksum = Some(checksum);
                }
            }
            Ok(())
        })?;
        Ok(receipt)
    }

    /// Force the container's working copy out of every non-archive member
    /// (experiment helper: models cache purge so the next read pays the
    /// archive recall).
    pub fn purge_container_cache(&self, name: &str) -> SrbResult<()> {
        let record = self
            .grid
            .mcat
            .containers
            .find(name)
            .ok_or_else(|| SrbError::NotFound(format!("container '{name}'")))?;
        if !record.synced {
            return Err(SrbError::Invalid(format!(
                "container '{name}' has unsynchronized data; sync before purging"
            )));
        }
        let (cache_rid, archives) = self.container_members(&record)?;
        if archives.is_empty() {
            return Err(SrbError::Invalid(format!(
                "container '{name}' has no archive member to recall from"
            )));
        }
        self.discard(cache_rid, &Self::container_phys_path(&record));
        // Also push the archive members' own staging state to tape.
        for rid in archives {
            if let Some(a) = self.grid.driver(rid)?.as_archive() {
                a.purge_staged();
            }
        }
        Ok(())
    }
}

/// `data` if it is all of `slice`. Fewer bytes mean the container lost
/// bytes its catalog record still counts: `Corrupt`, never a short read.
fn whole_slice(record: &ContainerRecord, slice: ContainerSlice, data: Bytes) -> SrbResult<Bytes> {
    if data.len() as u64 == slice.len {
        return Ok(data);
    }
    Err(SrbError::Corrupt(format!(
        "container '{}' holds {} of the {} bytes at offset {}",
        record.name,
        data.len(),
        slice.len,
        slice.offset
    )))
}
