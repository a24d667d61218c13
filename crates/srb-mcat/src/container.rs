//! Container records (catalog side).
//!
//! Containers "co-locate data together … One can view containers as
//! tar-files but with more flexibility in accessing and updating files"
//! and exist "for aggregating small data files into physical blocks …
//! for storage into archives, and for decreasing latency when accessed
//! over a wide area network."
//!
//! The catalog records a container's identity, its logical-resource
//! placement, its member slices, and whether the cached copy has been
//! synchronized to the archive. Byte movement is `srb-core`'s job.

use crate::pages::RowPages;
use crate::table::Table;
use crate::wal::WalHook;
use serde::{Deserialize, Serialize};
use srb_types::sync::{LockRank, RwLock};
use srb_types::{ContainerId, DatasetId, IdGen, LogicalResourceId, SrbError, SrbResult, Timestamp};

/// One member slice of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberSlice {
    /// The dataset whose bytes live in this slice.
    pub dataset: DatasetId,
    /// Byte offset within the container.
    pub offset: u64,
    /// Slice length.
    pub len: u64,
}

/// Catalog record of a container.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContainerRecord {
    /// Catalog id.
    pub id: ContainerId,
    /// Unique container name.
    pub name: String,
    /// The logical resource governing placement (cache + archive copies).
    pub logical_resource: LogicalResourceId,
    /// Member slices, in append order.
    pub members: Vec<MemberSlice>,
    /// Current fill in bytes.
    pub size: u64,
    /// Capacity: appends beyond this are rejected and a new container
    /// should be opened.
    pub max_size: u64,
    /// Has the cached copy been written back to the archive members since
    /// the last append?
    pub synced: bool,
    /// Creation time.
    pub created: Timestamp,
}

/// Container table.
#[derive(Debug)]
pub struct ContainerTable {
    pub(crate) rows: RwLock<Table<ContainerRecord>>,
}

fn missing(id: ContainerId) -> SrbError {
    SrbError::NotFound(format!("container {id}"))
}

impl ContainerTable {
    /// Empty table.
    pub fn new() -> Self {
        ContainerTable::restore(RowPages::default(), &WalHook::default())
    }

    /// The table over image rows, logging through `wal`.
    pub(crate) fn restore(rows: RowPages<ContainerRecord>, wal: &WalHook) -> Self {
        let rows = Table::restore(rows, wal);
        ContainerTable {
            rows: RwLock::new(LockRank::McatTable, "mcat.containers", rows),
        }
    }

    /// Create a container.
    pub fn create(
        &self,
        ids: &IdGen,
        name: &str,
        logical_resource: LogicalResourceId,
        max_size: u64,
        now: Timestamp,
    ) -> SrbResult<ContainerId> {
        let mut g = self.rows.write();
        if g.derived().contains_key(name) {
            return Err(SrbError::AlreadyExists(format!("container '{name}'")));
        }
        let id: ContainerId = ids.next();
        let row = ContainerRecord {
            id,
            name: name.to_string(),
            logical_resource,
            members: Vec::new(),
            size: 0,
            max_size,
            synced: true,
            created: now,
        };
        g.put(0, row);
        Ok(id)
    }

    /// Get a record.
    pub fn get(&self, id: ContainerId) -> SrbResult<ContainerRecord> {
        self.rows.read().get(id).cloned().ok_or_else(|| missing(id))
    }

    /// Find by name.
    pub fn find(&self, name: &str) -> Option<ContainerRecord> {
        let g = self.rows.read();
        g.derived().get(name).and_then(|&id| g.get(id)).cloned()
    }

    /// Reserve a slice for `dataset` of `len` bytes; returns its offset.
    /// Marks the container out-of-sync with its archive copy.
    pub fn append_member(&self, id: ContainerId, dataset: DatasetId, len: u64) -> SrbResult<u64> {
        let mut g = self.rows.write();
        let c = g.get(id).ok_or_else(|| missing(id))?;
        if c.size + len > c.max_size {
            return Err(SrbError::ResourceUnavailable(format!(
                "container '{}' full ({} + {} > {})",
                c.name, c.size, len, c.max_size
            )));
        }
        let offset = c.size;
        g.update(id, 0, |c| {
            c.members.push(MemberSlice {
                dataset,
                offset,
                len,
            });
            c.size += len;
            c.synced = false;
        });
        Ok(offset)
    }

    /// Mark the archive copy as synchronized.
    pub fn mark_synced(&self, id: ContainerId) -> SrbResult<()> {
        let mut g = self.rows.write();
        g.update(id, 0, |c| c.synced = true)
            .ok_or_else(|| missing(id))
    }

    /// Remove a member's slice record (the hole is not reclaimed — like a
    /// tar file, space is recovered only by rewriting the container).
    pub fn remove_member(&self, id: ContainerId, dataset: DatasetId) -> SrbResult<()> {
        let mut g = self.rows.write();
        let c = g.get(id).ok_or_else(|| missing(id))?;
        if !c.members.iter().any(|m| m.dataset == dataset) {
            return Err(SrbError::NotFound(format!(
                "dataset {dataset} not in container {id}"
            )));
        }
        g.update(id, 0, |c| c.members.retain(|m| m.dataset != dataset));
        Ok(())
    }

    /// Replace the member table and size wholesale — used by container
    /// compaction after the physical image has been rewritten.
    pub fn rewrite_members(
        &self,
        id: ContainerId,
        members: Vec<(DatasetId, u64, u64)>,
        new_size: u64,
    ) -> SrbResult<()> {
        let mut g = self.rows.write();
        g.update(id, 0, |c| {
            c.members = members
                .into_iter()
                .map(|(dataset, offset, len)| MemberSlice {
                    dataset,
                    offset,
                    len,
                })
                .collect();
            c.size = new_size;
            c.synced = false;
        })
        .ok_or_else(|| missing(id))
    }

    /// Delete an empty container record.
    pub fn delete(&self, id: ContainerId) -> SrbResult<()> {
        let mut g = self.rows.write();
        let c = g.get(id).ok_or_else(|| missing(id))?;
        if !c.members.is_empty() {
            return Err(SrbError::Invalid(format!(
                "container '{}' still has {} members",
                c.name,
                c.members.len()
            )));
        }
        g.remove(id, 0);
        Ok(())
    }

    /// All containers, sorted by id.
    pub fn list(&self) -> Vec<ContainerRecord> {
        self.rows.read().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (ContainerTable, IdGen) {
        (ContainerTable::new(), IdGen::new())
    }

    #[test]
    fn create_and_append() {
        let (t, ids) = table();
        let c = t
            .create(&ids, "ct1", LogicalResourceId(1), 100, Timestamp(0))
            .unwrap();
        let o1 = t.append_member(c, DatasetId(1), 30).unwrap();
        let o2 = t.append_member(c, DatasetId(2), 50).unwrap();
        assert_eq!(o1, 0);
        assert_eq!(o2, 30);
        let rec = t.get(c).unwrap();
        assert_eq!(rec.size, 80);
        assert_eq!(rec.members.len(), 2);
        assert!(!rec.synced);
    }

    #[test]
    fn full_container_rejects_append() {
        let (t, ids) = table();
        let c = t
            .create(&ids, "ct1", LogicalResourceId(1), 100, Timestamp(0))
            .unwrap();
        t.append_member(c, DatasetId(1), 90).unwrap();
        assert!(t.append_member(c, DatasetId(2), 20).is_err());
        // Exactly filling is allowed.
        assert!(t.append_member(c, DatasetId(3), 10).is_ok());
    }

    #[test]
    fn sync_state_tracks_appends() {
        let (t, ids) = table();
        let c = t
            .create(&ids, "ct1", LogicalResourceId(1), 100, Timestamp(0))
            .unwrap();
        assert!(t.get(c).unwrap().synced);
        t.append_member(c, DatasetId(1), 10).unwrap();
        assert!(!t.get(c).unwrap().synced);
        t.mark_synced(c).unwrap();
        assert!(t.get(c).unwrap().synced);
    }

    #[test]
    fn names_unique_and_findable() {
        let (t, ids) = table();
        t.create(&ids, "ct1", LogicalResourceId(1), 10, Timestamp(0))
            .unwrap();
        assert!(t
            .create(&ids, "ct1", LogicalResourceId(1), 10, Timestamp(0))
            .is_err());
        assert!(t.find("ct1").is_some());
        assert!(t.find("ct2").is_none());
    }

    #[test]
    fn holes_are_not_reclaimed() {
        let (t, ids) = table();
        let c = t
            .create(&ids, "ct1", LogicalResourceId(1), 100, Timestamp(0))
            .unwrap();
        t.append_member(c, DatasetId(1), 40).unwrap();
        t.remove_member(c, DatasetId(1)).unwrap();
        assert!(t.remove_member(c, DatasetId(1)).is_err());
        // Size stays at 40: like a tar file, the hole remains.
        let rec = t.get(c).unwrap();
        assert_eq!(rec.size, 40);
        assert!(rec.members.is_empty());
        let o = t.append_member(c, DatasetId(2), 10).unwrap();
        assert_eq!(o, 40);
    }

    #[test]
    fn delete_requires_empty() {
        let (t, ids) = table();
        let c = t
            .create(&ids, "ct1", LogicalResourceId(1), 100, Timestamp(0))
            .unwrap();
        t.append_member(c, DatasetId(1), 10).unwrap();
        assert!(t.delete(c).is_err());
        t.remove_member(c, DatasetId(1)).unwrap();
        t.delete(c).unwrap();
        assert!(t.get(c).is_err());
        assert!(t.list().is_empty());
    }
}
