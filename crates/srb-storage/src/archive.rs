//! Archive driver — the HPSS/UniTree/ADSM stand-in.
//!
//! The behaviour that matters to SRB (and that motivates containers) is the
//! *staging cliff*: an object whose only copy is on tape pays a large fixed
//! latency (mount + robot + position) plus a slow streaming rate before the
//! first byte arrives; once staged to the archive's internal disk cache it
//! reads at disk speed. Writes land on the disk cache and migrate to tape
//! "eventually"; experiments call `purge_staged` to force the cold-tape
//! state.

use crate::driver::{CostModel, DriverKind, ObjStat, StorageDriver};
use crate::memfs::MemStore;
use bytes::Bytes;
use srb_types::sync::{LockRank, RwLock};
use srb_types::{SimClock, SrbResult};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Simulated hierarchical tape archive.
pub struct ArchiveDriver {
    store: MemStore,
    /// Objects currently staged on the archive's internal disk cache.
    staged: RwLock<BTreeSet<String>>,
    disk: CostModel,
    tape: CostModel,
    /// Fixed latency to mount/position tape for one staging request.
    stage_latency_ns: u64,
    stage_count: AtomicU64,
}

impl ArchiveDriver {
    /// Default stage latency: 2 s (mount + robot + position).
    pub const DEFAULT_STAGE_LATENCY_NS: u64 = 2_000_000_000;

    /// New archive with default cost models.
    pub fn new(clock: SimClock) -> Self {
        ArchiveDriver::with_costs(
            clock,
            CostModel::disk(),
            CostModel::tape(),
            Self::DEFAULT_STAGE_LATENCY_NS,
        )
    }

    /// New archive with explicit cost models.
    pub fn with_costs(
        clock: SimClock,
        disk: CostModel,
        tape: CostModel,
        stage_latency_ns: u64,
    ) -> Self {
        ArchiveDriver {
            store: MemStore::new(clock),
            staged: RwLock::new(LockRank::Storage, "storage.archive.staged", BTreeSet::new()),
            disk,
            tape,
            stage_latency_ns,
            stage_count: AtomicU64::new(0),
        }
    }

    /// Is the object currently on the disk cache (no staging needed)?
    pub fn is_staged(&self, path: &str) -> bool {
        self.staged.read().contains(path)
    }

    /// Drop every staged copy, forcing the next read of each object to pay
    /// the tape staging cost. Experiments use this to model a cold archive.
    pub fn purge_staged(&self) {
        self.staged.write().clear();
    }

    /// How many staging operations (tape recalls) have happened.
    pub fn stage_count(&self) -> u64 {
        self.stage_count.load(Ordering::Relaxed)
    }

    /// Cost of staging an object of `size` bytes from tape.
    fn stage_cost(&self, size: u64) -> u64 {
        self.stage_latency_ns + self.tape.read_ns(size)
    }

    /// Ensure the object is staged; returns the staging cost (0 if already
    /// staged).
    fn ensure_staged(&self, path: &str) -> SrbResult<u64> {
        if self.is_staged(path) {
            return Ok(0);
        }
        let (size, _, _) = self.store.stat(path)?;
        // Double-checked under the write lock so concurrent readers stage
        // an object only once.
        let mut staged = self.staged.write();
        if staged.contains(path) {
            return Ok(0);
        }
        staged.insert(path.to_string());
        self.stage_count.fetch_add(1, Ordering::Relaxed);
        Ok(self.stage_cost(size))
    }
}

impl StorageDriver for ArchiveDriver {
    fn kind(&self) -> DriverKind {
        DriverKind::Archive
    }

    fn create(&self, path: &str, data: &[u8]) -> SrbResult<u64> {
        self.store.create(path, data)?;
        // Fresh writes land on the disk cache: staged until purged.
        self.staged.write().insert(path.to_string());
        Ok(self.disk.write_ns(data.len() as u64))
    }

    fn read(&self, path: &str) -> SrbResult<(Bytes, u64)> {
        let stage = self.ensure_staged(path)?;
        let data = self.store.read(path)?;
        let cost = stage + self.disk.read_ns(data.len() as u64);
        Ok((data, cost))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> SrbResult<(Bytes, u64)> {
        // Tape archives stage whole objects; the range read itself is then
        // served from the disk cache.
        let stage = self.ensure_staged(path)?;
        let data = self.store.read_range(path, offset, len)?;
        let cost = stage + self.disk.read_ns(data.len() as u64);
        Ok((data, cost))
    }

    fn write(&self, path: &str, data: &[u8]) -> SrbResult<u64> {
        self.store.write(path, data);
        self.staged.write().insert(path.to_string());
        Ok(self.disk.write_ns(data.len() as u64))
    }

    fn append(&self, path: &str, data: &[u8]) -> SrbResult<u64> {
        // Appending to a tape-resident object first stages it.
        let stage = if self.store.exists(path) {
            self.ensure_staged(path)?
        } else {
            0
        };
        self.store.append(path, data);
        self.staged.write().insert(path.to_string());
        Ok(stage + self.disk.write_ns(data.len() as u64))
    }

    fn delete(&self, path: &str) -> SrbResult<u64> {
        self.store.delete(path)?;
        self.staged.write().remove(path);
        Ok(self.disk.fixed_ns)
    }

    fn stat(&self, path: &str) -> SrbResult<ObjStat> {
        let (size, created, modified) = self.store.stat(path)?;
        Ok(ObjStat {
            size,
            created,
            modified,
            is_dir: false,
        })
    }

    fn list(&self, prefix: &str) -> SrbResult<Vec<String>> {
        Ok(self.store.list(prefix))
    }

    fn exists(&self, path: &str) -> bool {
        self.store.exists(path)
    }

    fn used_bytes(&self) -> u64 {
        self.store.used_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn archive() -> ArchiveDriver {
        ArchiveDriver::new(SimClock::new())
    }

    /// Virtual cost of migrating every cache-resident object to tape.
    fn migrate_all(a: &ArchiveDriver) -> u64 {
        a.staged
            .read()
            .iter()
            .filter_map(|path| a.store.stat(path).ok())
            .map(|(size, _, _)| a.tape.write_ns(size))
            .sum()
    }

    #[test]
    fn fresh_writes_are_staged() {
        let a = archive();
        a.create("t/file", b"data").unwrap();
        assert!(a.is_staged("t/file"));
        // Reading a staged object is cheap: no staging latency.
        let (_, cost) = a.read("t/file").unwrap();
        assert!(cost < ArchiveDriver::DEFAULT_STAGE_LATENCY_NS);
    }

    #[test]
    fn cold_read_pays_staging_cliff() {
        let a = archive();
        a.create("t/file", b"data").unwrap();
        a.purge_staged();
        assert!(!a.is_staged("t/file"));
        let (_, cold) = a.read("t/file").unwrap();
        assert!(cold >= ArchiveDriver::DEFAULT_STAGE_LATENCY_NS);
        // Second read is warm.
        let (_, warm) = a.read("t/file").unwrap();
        assert!(warm < cold / 10);
        assert_eq!(a.stage_count(), 1);
    }

    #[test]
    fn range_read_stages_whole_object() {
        let a = archive();
        a.create("big", &[7u8; 1_000_000]).unwrap();
        a.purge_staged();
        let (data, cost) = a.read_range("big", 0, 10).unwrap();
        assert_eq!(data.len(), 10);
        assert!(cost >= ArchiveDriver::DEFAULT_STAGE_LATENCY_NS);
        assert!(a.is_staged("big"));
    }

    #[test]
    fn concurrent_cold_reads_stage_once() {
        let a = archive();
        a.create("x", &[1u8; 1000]).unwrap();
        a.purge_staged();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    a.read("x").unwrap();
                });
            }
        });
        assert_eq!(a.stage_count(), 1);
    }

    #[test]
    fn append_to_cold_object_stages_first() {
        let a = archive();
        a.create("x", b"abc").unwrap();
        a.purge_staged();
        let cost = a.append("x", b"def").unwrap();
        assert!(cost >= ArchiveDriver::DEFAULT_STAGE_LATENCY_NS);
        assert_eq!(&a.read("x").unwrap().0[..], b"abcdef");
    }

    #[test]
    fn migrate_all_charges_tape_writes() {
        let a = archive();
        a.create("x", &[0u8; 1_000_000]).unwrap();
        a.create("y", &[0u8; 2_000_000]).unwrap();
        let cost = migrate_all(&a);
        assert!(cost > 0);
        // Cost scales with data volume.
        let a2 = archive();
        a2.create("x", &[0u8; 1_000_000]).unwrap();
        assert!(migrate_all(&a2) < cost);
    }

    #[test]
    fn delete_clears_staging_state() {
        let a = archive();
        a.create("x", b"1").unwrap();
        a.delete("x").unwrap();
        assert!(!a.is_staged("x"));
        assert!(!a.exists("x"));
    }
}
