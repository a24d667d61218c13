//! Maintenance operations: replica resynchronization, checksum
//! verification, and container compaction.
//!
//! The paper requires that "the consistency of the replicas should be
//! maintained with very little effort on the part of the users" (§2).
//! Writes mark unreachable replicas *stale*; [`SrbConnection::sync_replicas`]
//! is the one-call repair. Containers accumulate holes when members are
//! updated or deleted (tar-like semantics);
//! [`SrbConnection::compact_container`] rewrites them. Checksum
//! verification closes the loop on the integrity metadata SRB keeps per
//! replica.

use crate::conn::SrbConnection;
use crate::fanout::StoreLeg;
use srb_mcat::dataset::ContainerSlice;
use srb_mcat::{AccessSpec, AuditAction, ReplicaStatus};
use srb_net::Receipt;
use srb_types::{Checksum, DatasetId, Permission, SrbError, SrbResult, UserId};

/// Outcome of verifying one replica's checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChecksumStatus {
    /// Recomputed digest matches the catalog.
    Ok,
    /// Digest mismatch — the physical copy is corrupt or was modified
    /// behind SRB's back.
    Mismatch {
        /// What the catalog recorded.
        expected: Checksum,
        /// What the bytes hash to now.
        actual: Checksum,
    },
    /// The catalog holds no checksum for this replica (registered objects).
    NoChecksum,
    /// The replica's resource is currently unreachable.
    Unreachable,
}

/// What happened to one dataset during a [`SrbConnection::repair_stale`]
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairOutcome {
    /// This many stale replicas were brought back up to date.
    Repaired(usize),
    /// Every stale replica sits on a resource whose circuit breaker is
    /// still `Open` — re-syncing now would hammer a known-bad resource,
    /// so the sweep left it for a later pass.
    SkippedBreakerOpen,
    /// The repair attempt itself failed (recorded, not propagated, so one
    /// bad dataset does not abort the sweep).
    Failed(String),
}

/// Audit line of one dataset's visit in a repair sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The dataset visited.
    pub dataset: DatasetId,
    /// What the sweep did with it.
    pub outcome: RepairOutcome,
}

impl SrbConnection<'_> {
    /// Repair every stale replica of an object from an up-to-date one.
    /// Returns the number of replicas repaired.
    pub fn sync_replicas(&self, path: &str) -> SrbResult<(usize, Receipt)> {
        let (user, mut op) = self.begin_op("sync_replicas", AuditAction::Replicate, path)?;
        op.done = "resync";
        let repaired = (|| {
            let lp = self.parse(path)?;
            let ds_id = self.grid.mcat.resolve_dataset(&lp)?;
            self.resync_dataset(ds_id, user, &mut op.receipt)
        })();
        self.end_op(op, repaired)
    }

    /// Repair one dataset's stale replicas from a fresh copy (the core of
    /// both [`SrbConnection::sync_replicas`] and the sweep).
    fn resync_dataset(
        &self,
        ds_id: DatasetId,
        user: UserId,
        receipt: &mut Receipt,
    ) -> SrbResult<usize> {
        let ds = self.grid.mcat.datasets.resolve_links(ds_id)?;
        self.grid
            .mcat
            .require_dataset(Some(user), ds.id, Permission::Write)?;
        let stale: Vec<_> = ds
            .replicas
            .iter()
            .filter(|r| r.status == ReplicaStatus::Stale)
            .cloned()
            .collect();
        if stale.is_empty() {
            return Ok(0);
        }
        let (fresh, read_receipt) = self.read_dataset_bytes(ds.id)?;
        receipt.absorb(&read_receipt);
        let checksum = Checksum::of(&fresh);
        // One leg per repairable stale replica; registered replicas cannot
        // be rewritten. Catalog commits happen after the join, in leg
        // order, on this thread.
        let mut legs: Vec<StoreLeg> = Vec::new();
        let mut leg_nums: Vec<u32> = Vec::new();
        for replica in &stale {
            if let AccessSpec::Stored {
                resource,
                phys_path,
            } = &replica.spec
            {
                legs.push(StoreLeg {
                    resource: *resource,
                    phys_path: phys_path.clone(),
                    data: fresh.clone(),
                    overwrite: true,
                });
                leg_nums.push(replica.repl_num);
            }
        }
        let fan = self.store_fanout(&legs);
        receipt.absorb(&fan.receipt);
        let repaired_nums: Vec<u32> = leg_nums
            .iter()
            .zip(&fan.results)
            .filter(|(_, r)| r.is_ok())
            .map(|(n, _)| *n)
            .collect();
        let repaired = repaired_nums.len();
        if repaired > 0 {
            if let Some(obs) = self.grid.core_obs() {
                obs.repairs.add(repaired as u64);
            }
        }
        if !repaired_nums.is_empty() {
            let now = self.now();
            self.grid.mcat.datasets.update(ds.id, |d| {
                for rep in d.replicas.iter_mut() {
                    if repaired_nums.contains(&rep.repl_num) {
                        rep.status = ReplicaStatus::UpToDate;
                        rep.size = fresh.len() as u64;
                        rep.checksum = Some(checksum);
                    }
                }
                d.modified = now;
                Ok(())
            })?;
        }
        // Retryable failures stay stale for the next resync; a fatal leg
        // error propagates only after the successful repairs are
        // committed above.
        if let Some(e) = fan.first_fatal() {
            return Err(e);
        }
        Ok(repaired)
    }

    /// Sweep the whole catalog for stale replicas and re-sync each dataset
    /// whose target resources have recovered. A dataset whose stale
    /// replicas all sit behind a still-`Open` circuit breaker is skipped —
    /// the sweep runs again once the breaker's cool-down lets a probe
    /// through (half-open). Each visit leaves an audit record; per-dataset
    /// failures are reported, not propagated, so one bad dataset cannot
    /// abort the sweep.
    pub fn repair_stale(&self) -> SrbResult<(Vec<RepairReport>, Receipt)> {
        let (user, mut op) = self.begin_op("repair_stale", AuditAction::Replicate, "*")?;
        op.done = "sweep";
        let mut reports = Vec::new();
        for (ds_id, resources) in self.grid.mcat.datasets.with_stale_replicas() {
            let all_open = resources.iter().all(|r| self.grid.health.is_open(*r));
            let (outcome, audited) = if all_open {
                (RepairOutcome::SkippedBreakerOpen, "repair-skip-breaker")
            } else {
                match self.resync_dataset(ds_id, user, &mut op.receipt) {
                    Ok(n) => (RepairOutcome::Repaired(n), "repair"),
                    Err(e) => (RepairOutcome::Failed(e.code().to_string()), e.code()),
                }
            };
            self.audit_row(AuditAction::Replicate, &format!("dataset {ds_id}"), audited);
            reports.push(RepairReport {
                dataset: ds_id,
                outcome,
            });
        }
        self.end_op(op, Ok(reports))
    }

    /// Verify every replica's stored checksum against its current bytes.
    /// Returns `(repl_num, status)` pairs.
    pub fn verify_checksums(&self, path: &str) -> SrbResult<Vec<(u32, ChecksumStatus)>> {
        let (user, mut op) = self.begin_op("verify_checksums", AuditAction::Read, path)?;
        let statuses = (|| {
            let ds = self.dataset_for(user, path, Permission::Read)?;
            let mut out = Vec::new();
            for replica in &ds.replicas {
                if !replica.spec.is_byte_addressable() {
                    continue;
                }
                let Some(expected) = replica.checksum else {
                    out.push((replica.repl_num, ChecksumStatus::NoChecksum));
                    continue;
                };
                let status = match self.read_replica(replica, &mut op.receipt) {
                    Ok(bytes) => {
                        let actual = Checksum::of(&bytes);
                        if actual == expected {
                            ChecksumStatus::Ok
                        } else {
                            ChecksumStatus::Mismatch { expected, actual }
                        }
                    }
                    Err(e) if e.is_retryable() => ChecksumStatus::Unreachable,
                    Err(e) => return Err(e),
                };
                out.push((replica.repl_num, status));
            }
            Ok(out)
        })();
        Ok(self.end_op(op, statuses)?.0)
    }

    /// Rewrite a container, dropping the holes left by member updates and
    /// deletions. Member offsets are rebased; the archive copy is marked
    /// out-of-sync (run [`SrbConnection::sync_container`] afterwards).
    /// Returns the number of bytes reclaimed.
    pub fn compact_container(&self, name: &str) -> SrbResult<(u64, Receipt)> {
        let subject = format!("container {name}");
        let (_, mut op) = self.begin_op("compact_container", AuditAction::Write, &subject)?;
        op.done = "compact";
        let reclaimed = (|| {
            let record = self
                .grid
                .mcat
                .containers
                .find(name)
                .ok_or_else(|| SrbError::NotFound(format!("container '{name}'")))?;
            let (cache_rid, _) = self.container_members(&record)?;
            let ct_path = Self::container_phys_path(&record);
            let (old_bytes, read_ns) =
                self.storage_call(cache_rid, |d| d.driver().read(&ct_path))?;
            op.receipt.absorb(&Receipt::time(read_ns));
            // Build the compacted image and the new slice table.
            let mut new_bytes = Vec::with_capacity(old_bytes.len());
            let mut moves: Vec<(srb_types::DatasetId, ContainerSlice, ContainerSlice)> = Vec::new();
            for m in &record.members {
                let start = (m.offset as usize).min(old_bytes.len());
                let end = ((m.offset + m.len) as usize).min(old_bytes.len());
                let new_offset = new_bytes.len() as u64;
                new_bytes.extend_from_slice(&old_bytes[start..end]);
                moves.push((
                    m.dataset,
                    ContainerSlice {
                        container: record.id,
                        offset: m.offset,
                        len: m.len,
                    },
                    ContainerSlice {
                        container: record.id,
                        offset: new_offset,
                        len: (end - start) as u64,
                    },
                ));
            }
            let reclaimed = (old_bytes.len() - new_bytes.len()) as u64;
            if reclaimed == 0 {
                return Ok(0);
            }
            let ((), write_ns) = self.storage_call(cache_rid, |d| {
                Ok(((), d.driver().write(&ct_path, &new_bytes)?))
            })?;
            op.receipt.absorb(&Receipt::time(write_ns));
            // Rewrite the catalog: replica slices first, then the container
            // record (rebuild members + size through the existing table ops).
            for (ds, old, new) in &moves {
                self.grid.mcat.datasets.update(*ds, |d| {
                    for r in d.replicas.iter_mut() {
                        if r.in_container.as_deref() == Some(old) {
                            r.in_container = Some(Box::new(*new));
                        }
                    }
                    Ok(())
                })?;
            }
            self.grid.mcat.containers.rewrite_members(
                record.id,
                moves
                    .iter()
                    .map(|(ds, _, new)| (*ds, new.offset, new.len))
                    .collect(),
                new_bytes.len() as u64,
            )?;
            Ok(reclaimed)
        })();
        self.end_op(op, reclaimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridBuilder;
    use crate::ops_write::IngestOptions;
    use crate::SrbConnection;

    fn fixture() -> (crate::Grid, srb_types::ServerId) {
        let mut gb = GridBuilder::new();
        let site = gb.site("s");
        let srv = gb.server("srv", site);
        gb.fs_resource("fs1", srv)
            .fs_resource("fs2", srv)
            .cache_resource("cache", srv, 1 << 20)
            .archive_resource("tape", srv)
            .logical_resource("lr", &["fs1", "fs2"])
            .logical_resource("ct-store", &["cache", "tape"]);
        let grid = gb.build();
        grid.register_user("u", "d", "pw").unwrap();
        (grid, srv)
    }

    #[test]
    fn sync_replicas_repairs_stale_copies() {
        let (grid, srv) = fixture();
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        conn.ingest("/home/u/f", b"v1", IngestOptions::to_resource("lr"))
            .unwrap();
        grid.fail_resource("fs2").unwrap();
        conn.write("/home/u/f", b"v2").unwrap();
        grid.restore_resource("fs2").unwrap();
        let (repaired, receipt) = conn.sync_replicas("/home/u/f").unwrap();
        assert_eq!(repaired, 1);
        assert!(receipt.bytes >= 2);
        // Now both replicas serve the new content — fail the primary and
        // check.
        grid.fail_resource("fs1").unwrap();
        assert_eq!(&conn.read("/home/u/f").unwrap().0[..], b"v2");
        // Idempotent: nothing left to repair.
        grid.restore_resource("fs1").unwrap();
        assert_eq!(conn.sync_replicas("/home/u/f").unwrap().0, 0);
    }

    #[test]
    fn sync_replicas_skips_still_down_resources() {
        let (grid, srv) = fixture();
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        conn.ingest("/home/u/f", b"v1", IngestOptions::to_resource("lr"))
            .unwrap();
        grid.fail_resource("fs2").unwrap();
        conn.write("/home/u/f", b"v2").unwrap();
        // fs2 still down: repair finds nothing repairable but succeeds.
        let (repaired, _) = conn.sync_replicas("/home/u/f").unwrap();
        assert_eq!(repaired, 0);
    }

    #[test]
    fn repair_stale_sweep_respects_breaker_then_repairs() {
        let (grid, srv) = fixture();
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        conn.ingest("/home/u/f", b"v1", IngestOptions::to_resource("lr"))
            .unwrap();
        grid.fail_resource("fs2").unwrap();
        conn.write("/home/u/f", b"v2").unwrap(); // fs2 replica goes stale
        let fs2 = grid.resource_id("fs2").unwrap();
        // Accumulate enough failures to trip fs2's breaker, then bring
        // the resource back: the breaker's memory outlives the outage.
        for _ in 0..8 {
            grid.health.record(fs2, false);
        }
        assert!(grid.health.is_open(fs2));
        grid.restore_resource("fs2").unwrap();
        // Breaker still open (cool-down not elapsed): the sweep skips.
        let (reports, _) = conn.repair_stale().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, RepairOutcome::SkippedBreakerOpen);
        // Simulated cool-down elapses; the sweep's write is the half-open
        // probe and the repair goes through.
        grid.clock.advance(grid.health.config().cooldown_ns);
        let (reports, _) = conn.repair_stale().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, RepairOutcome::Repaired(1));
        // Nothing stale left: the next sweep is empty.
        assert!(conn.repair_stale().unwrap().0.is_empty());
        // The repaired copy really serves the new content.
        grid.fail_resource("fs1").unwrap();
        assert_eq!(&conn.read("/home/u/f").unwrap().0[..], b"v2");
        // The sweep left audit records.
        let audit = grid.mcat.audit.dump();
        assert!(audit.iter().any(|a| a.outcome == "repair-skip-breaker"));
        assert!(audit.iter().any(|a| a.outcome == "repair"));
    }

    #[test]
    fn verify_checksums_detects_corruption() {
        let (grid, srv) = fixture();
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        conn.ingest("/home/u/f", b"good data", IngestOptions::to_resource("lr"))
            .unwrap();
        let ok = conn.verify_checksums("/home/u/f").unwrap();
        assert_eq!(ok.len(), 2);
        assert!(ok.iter().all(|(_, s)| *s == ChecksumStatus::Ok));
        // Corrupt one physical copy behind SRB's back.
        let ds = grid
            .mcat
            .resolve_dataset(&srb_types::LogicalPath::parse("/home/u/f").unwrap())
            .unwrap();
        let d = grid.mcat.datasets.get(ds).unwrap();
        let AccessSpec::Stored {
            resource,
            phys_path,
        } = &d.replicas[0].spec
        else {
            panic!()
        };
        grid.driver(*resource)
            .unwrap()
            .driver()
            .write(phys_path, b"tampered!")
            .unwrap();
        let results = conn.verify_checksums("/home/u/f").unwrap();
        assert!(results
            .iter()
            .any(|(_, s)| matches!(s, ChecksumStatus::Mismatch { .. })));
        assert!(results.iter().any(|(_, s)| *s == ChecksumStatus::Ok));
        // A down resource reports Unreachable rather than erroring.
        grid.fail_resource("fs1").unwrap();
        let results = conn.verify_checksums("/home/u/f").unwrap();
        assert!(results
            .iter()
            .any(|(_, s)| *s == ChecksumStatus::Unreachable));
    }

    #[test]
    fn compact_container_reclaims_holes() {
        let (grid, srv) = fixture();
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        conn.create_container("ct", "ct-store", 1 << 16).unwrap();
        conn.ingest("/home/u/a", b"aaaa", IngestOptions::into_container("ct"))
            .unwrap();
        conn.ingest("/home/u/b", b"bbbb", IngestOptions::into_container("ct"))
            .unwrap();
        conn.ingest("/home/u/c", b"cccc", IngestOptions::into_container("ct"))
            .unwrap();
        // Delete the middle member and update the first: two holes.
        conn.delete("/home/u/b", None).unwrap();
        conn.write("/home/u/a", b"AAAAAA").unwrap();
        let before = grid.mcat.containers.find("ct").unwrap();
        assert_eq!(before.size, 4 + 4 + 4 + 6);
        let (reclaimed, _) = conn.compact_container("ct").unwrap();
        assert_eq!(reclaimed, 8); // old a (4) + deleted b (4)
        let after = grid.mcat.containers.find("ct").unwrap();
        assert_eq!(after.size, 10); // c(4) + new a(6)
        assert!(!after.synced);
        // Every member still reads back correctly.
        assert_eq!(&conn.read("/home/u/a").unwrap().0[..], b"AAAAAA");
        assert_eq!(&conn.read("/home/u/c").unwrap().0[..], b"cccc");
        // Compacting a tight container is a no-op.
        let (reclaimed2, _) = conn.compact_container("ct").unwrap();
        assert_eq!(reclaimed2, 0);
        // After a sync, purge + recall still works with the new offsets.
        conn.sync_container("ct").unwrap();
        conn.purge_container_cache("ct").unwrap();
        assert_eq!(&conn.read("/home/u/c").unwrap().0[..], b"cccc");
    }
}
