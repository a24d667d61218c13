//! Locks, pins, and checkout/checkin version control (paper §5,
//! "lock, pin, checkout").

use crate::conn::SrbConnection;
use bytes::Bytes;
use srb_mcat::{AccessSpec, AuditAction, CheckoutState, LockKind, LockState, VersionRecord};
use srb_net::Receipt;
use srb_types::{Permission, SrbError, SrbResult, UserId};

impl SrbConnection<'_> {
    // ---------------------------------------------------------------- lock --

    /// Lock an object for `ttl_secs`. A `Shared` lock blocks writes by
    /// others; an `Exclusive` lock blocks all interactions by others.
    pub fn lock(&self, path: &str, kind: LockKind, ttl_secs: u64) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("lock", AuditAction::LockOp, path)?;
        op.done = "lock";
        let done = (|| {
            let ds = self.dataset_for(user, path, Permission::Write)?;
            let now = self.now();
            self.grid.mcat.datasets.update(ds.id, |d| {
                if let Some(l) = d.effective_lock(now) {
                    if l.holder != user {
                        return Err(SrbError::Locked(format!(
                            "dataset already locked by {}",
                            l.holder
                        )));
                    }
                }
                d.lock = Some(LockState {
                    kind,
                    holder: user,
                    expires: now.plus_secs(ttl_secs),
                });
                Ok(())
            })
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Release a lock (holder only; expired locks may be cleared by
    /// anyone with write access).
    pub fn unlock(&self, path: &str) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("unlock", AuditAction::LockOp, path)?;
        op.done = "unlock";
        let done = (|| {
            let ds = self.dataset_for(user, path, Permission::Write)?;
            let now = self.now();
            self.grid
                .mcat
                .datasets
                .update(ds.id, |d| match d.effective_lock(now) {
                    Some(l) if l.holder != user => {
                        Err(SrbError::Locked(format!("lock held by {}", l.holder)))
                    }
                    _ => {
                        d.lock = None;
                        Ok(())
                    }
                })
        })();
        Ok(self.end_op(op, done)?.1)
    }

    // ----------------------------------------------------------------- pin --

    /// Pin replica `repl_num` to its resource for `ttl_secs`: the object
    /// will not be purged from a cache resource while pinned.
    pub fn pin(&self, path: &str, repl_num: u32, ttl_secs: u64) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("pin", AuditAction::LockOp, path)?;
        op.done = "pin";
        let done = (|| {
            let ds = self.dataset_for(user, path, Permission::Write)?;
            let expiry = self.now().plus_secs(ttl_secs);
            let replica = ds
                .replicas
                .iter()
                .find(|r| r.repl_num == repl_num)
                .ok_or_else(|| SrbError::NotFound(format!("replica #{repl_num} of '{path}'")))?
                .clone();
            // Propagate to the cache driver when the replica lives on one.
            if let AccessSpec::Stored {
                resource,
                phys_path,
            } = &replica.spec
            {
                if let Some(cache) = self.grid.driver(*resource)?.as_cache() {
                    cache.pin(phys_path, expiry)?;
                }
            }
            self.grid.mcat.datasets.update(ds.id, |d| {
                let r = d
                    .replicas
                    .iter_mut()
                    .find(|r| r.repl_num == repl_num)
                    .ok_or_else(|| {
                        SrbError::NotFound(format!("replica #{repl_num} of '{path}'"))
                    })?;
                r.pinned_until = Some(expiry);
                Ok(())
            })
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Explicit unpin.
    pub fn unpin(&self, path: &str, repl_num: u32) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("unpin", AuditAction::LockOp, path)?;
        op.done = "unpin";
        let done = (|| {
            let ds = self.dataset_for(user, path, Permission::Write)?;
            let replica = ds
                .replicas
                .iter()
                .find(|r| r.repl_num == repl_num)
                .ok_or_else(|| SrbError::NotFound(format!("replica #{repl_num} of '{path}'")))?
                .clone();
            if let AccessSpec::Stored {
                resource,
                phys_path,
            } = &replica.spec
            {
                if let Some(cache) = self.grid.driver(*resource)?.as_cache() {
                    let _ = cache.unpin(phys_path);
                }
            }
            self.grid.mcat.datasets.update(ds.id, |d| {
                let r = d
                    .replicas
                    .iter_mut()
                    .find(|r| r.repl_num == repl_num)
                    .ok_or_else(|| {
                        SrbError::NotFound(format!("replica #{repl_num} of '{path}'"))
                    })?;
                r.pinned_until = None;
                Ok(())
            })
        })();
        Ok(self.end_op(op, done)?.1)
    }

    // ------------------------------------------------------------ versions --

    /// Check an object out: no one (including other sessions of the same
    /// user) may change it until checkin.
    pub fn checkout(&self, path: &str) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("checkout", AuditAction::LockOp, path)?;
        op.done = "checkout";
        let done = (|| {
            let ds = self.dataset_for(user, path, Permission::Write)?;
            let now = self.now();
            self.grid.mcat.datasets.update(ds.id, |d| {
                if let Some(c) = d.checkout {
                    return Err(SrbError::Locked(format!(
                        "already checked out by {}",
                        c.holder
                    )));
                }
                d.checkout = Some(CheckoutState {
                    holder: user,
                    at: now,
                });
                Ok(())
            })
        })();
        Ok(self.end_op(op, done)?.1)
    }

    /// Check in new content: "the older version of the object is still
    /// maintained as an earlier version with a distinct version number."
    pub fn checkin(&self, path: &str, new_data: &[u8]) -> SrbResult<Receipt> {
        let (user, mut op) = self.begin_op("checkin", AuditAction::LockOp, path)?;
        op.done = "checkin";
        let done = self.checkin_body(user, path, new_data, &mut op.receipt);
        Ok(self.end_op(op, done)?.1)
    }

    fn checkin_body(
        &self,
        user: UserId,
        path: &str,
        new_data: &[u8],
        receipt: &mut Receipt,
    ) -> SrbResult<()> {
        let ds = self.dataset_for(user, path, Permission::Write)?;
        match ds.checkout {
            Some(c) if c.holder == user => {}
            Some(c) => return Err(SrbError::Locked(format!("checked out by {}", c.holder))),
            None => {
                return Err(SrbError::Invalid(
                    "checkin without a matching checkout".into(),
                ))
            }
        }
        // Preserve the current content as a version on the primary
        // replica's resource.
        let primary = ds
            .replicas
            .iter()
            .find(|r| r.spec.is_srb_controlled() && r.in_container.is_none())
            .ok_or_else(|| {
                SrbError::Unsupported("versioning requires an SRB-stored replica".into())
            })?
            .clone();
        let AccessSpec::Stored {
            resource,
            phys_path,
        } = &primary.spec
        else {
            unreachable!("filtered to Stored above");
        };
        let mut tmp = Receipt::free();
        let old_data = self.read_replica_bytes(&primary, &mut tmp)?;
        receipt.absorb(&tmp);
        let version = ds.current_version;
        let version_path = format!("{phys_path}.v{version}");
        let r = self.store_bytes_retry(*resource, &version_path, &old_data, false)?;
        receipt.absorb(&r);
        let now = self.now();
        let record = VersionRecord {
            version,
            resource: *resource,
            phys_path: version_path,
            size: old_data.len() as u64,
            by: user,
            at: now,
        };
        self.grid.mcat.datasets.update(ds.id, |d| {
            d.versions.push(record.clone());
            d.current_version += 1;
            d.checkout = None;
            Ok(())
        })?;
        // Write the new content through the normal synchronous-update path
        // (its own catalog round trip, this op's commit).
        receipt.absorb(&self.mcat_rpc()?);
        self.write_body(user, path, &Bytes::copy_from_slice(new_data), receipt)
    }

    /// Read a preserved earlier version. A copy whose length differs from
    /// the size recorded at checkin is refused as [`SrbError::Corrupt`].
    /// That is the only integrity check: checking the content too would
    /// need a checksum in `VersionRecord`, which would change the WAL and
    /// checkpoint formats.
    pub fn read_version(&self, path: &str, version: u32) -> SrbResult<(Bytes, Receipt)> {
        let user = self.check_session()?;
        let mut receipt = self.mcat_rpc()?;
        let ds = self.dataset_for(user, path, Permission::Read)?;
        let v = ds
            .versions
            .iter()
            .find(|v| v.version == version)
            .ok_or_else(|| SrbError::NotFound(format!("version {version} of '{path}'")))?;
        let driver = self.grid.driver(v.resource)?;
        let (data, ns) = driver.driver().read(&v.phys_path)?;
        receipt.absorb(&Receipt::time(ns));
        if data.len() as u64 != v.size {
            return Err(SrbError::Corrupt(format!(
                "version {version} of '{path}' is {} bytes, checked in as {}",
                data.len(),
                v.size
            )));
        }
        receipt.absorb(&self.data_transfer(v.resource, data.len() as u64)?);
        Ok((data, receipt))
    }

    /// List preserved versions (number, size, author).
    pub fn versions(&self, path: &str) -> SrbResult<Vec<(u32, u64, srb_types::UserId)>> {
        let user = self.check_session()?;
        let ds = self.dataset_for(user, path, Permission::Read)?;
        Ok(ds
            .versions
            .iter()
            .map(|v| (v.version, v.size, v.by))
            .collect())
    }
}
