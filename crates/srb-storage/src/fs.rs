//! File-system driver — the "unix-sdsc" style resource of the paper.
//!
//! A thin policy layer over `MemStore`: disk cost model, plus the
//! directories its objects imply, so registered *shadow directories*
//! (paper §4, object type 2) can expose a cone of files.

use crate::driver::{CostModel, DriverKind, ObjStat, StorageDriver};
use crate::memfs::MemStore;
use bytes::Bytes;
use srb_types::{SimClock, SrbResult, Timestamp};

/// Simulated Unix/NT/Mac file system.
pub struct FsDriver {
    store: MemStore,
    cost: CostModel,
    clock: SimClock,
}

impl FsDriver {
    /// New empty file system with the standard disk cost model.
    pub fn new(clock: SimClock) -> Self {
        FsDriver::with_cost(clock, CostModel::disk())
    }

    /// New file system with a custom cost model.
    pub fn with_cost(clock: SimClock, cost: CostModel) -> Self {
        FsDriver {
            store: MemStore::new(clock.clone()),
            cost,
            clock,
        }
    }

    /// Is `path` a directory, implied by some object under it?
    pub fn is_dir(&self, path: &str) -> bool {
        let prefix = format!("{}/", path.trim_end_matches('/'));
        !self.store.list(&prefix).is_empty()
    }

    /// Files directly or transitively under a directory — the "cone of
    /// files" visible through a registered shadow-directory object.
    pub fn cone(&self, dir: &str) -> Vec<String> {
        let prefix = format!("{}/", dir.trim_end_matches('/'));
        self.store.list(&prefix)
    }
}

impl StorageDriver for FsDriver {
    fn kind(&self) -> DriverKind {
        DriverKind::FileSystem
    }

    fn create(&self, path: &str, data: &[u8]) -> SrbResult<u64> {
        self.store.create(path, data)?;
        Ok(self.cost.write_ns(data.len() as u64))
    }

    fn read(&self, path: &str) -> SrbResult<(Bytes, u64)> {
        let data = self.store.read(path)?;
        let cost = self.cost.read_ns(data.len() as u64);
        Ok((data, cost))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> SrbResult<(Bytes, u64)> {
        let data = self.store.read_range(path, offset, len)?;
        let cost = self.cost.read_ns(data.len() as u64);
        Ok((data, cost))
    }

    fn write(&self, path: &str, data: &[u8]) -> SrbResult<u64> {
        self.store.write(path, data);
        Ok(self.cost.write_ns(data.len() as u64))
    }

    fn append(&self, path: &str, data: &[u8]) -> SrbResult<u64> {
        self.store.append(path, data);
        Ok(self.cost.write_ns(data.len() as u64))
    }

    fn delete(&self, path: &str) -> SrbResult<u64> {
        self.store.delete(path)?;
        Ok(self.cost.fixed_ns)
    }

    fn stat(&self, path: &str) -> SrbResult<ObjStat> {
        if self.is_dir(path) {
            let now = self.clock.now();
            return Ok(ObjStat {
                size: 0,
                created: Timestamp(0),
                modified: now,
                is_dir: true,
            });
        }
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
        self.store.exists(path) || self.is_dir(path)
    }

    fn used_bytes(&self) -> u64 {
        self.store.used_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> FsDriver {
        FsDriver::new(SimClock::new())
    }

    #[test]
    fn create_read_write_delete_cycle() {
        let f = fs();
        let c1 = f.create("home/sekar/a.txt", b"hello").unwrap();
        assert!(c1 > 0);
        let (data, c2) = f.read("home/sekar/a.txt").unwrap();
        assert_eq!(&data[..], b"hello");
        assert!(c2 > 0);
        f.write("home/sekar/a.txt", b"goodbye").unwrap();
        assert_eq!(&f.read("home/sekar/a.txt").unwrap().0[..], b"goodbye");
        f.delete("home/sekar/a.txt").unwrap();
        assert!(!f.exists("home/sekar/a.txt"));
    }

    #[test]
    fn directories_implied_by_objects() {
        let f = fs();
        f.create("data/set1/x.fits", b"..").unwrap();
        assert!(f.is_dir("data"));
        assert!(f.is_dir("data/set1"));
        assert!(!f.is_dir("data/set2"));
        let st = f.stat("data/set1").unwrap();
        assert!(st.is_dir);
    }

    #[test]
    fn cone_lists_descendants() {
        let f = fs();
        f.create("d/a", b"1").unwrap();
        f.create("d/sub/b", b"2").unwrap();
        f.create("e/c", b"3").unwrap();
        assert_eq!(f.cone("d"), vec!["d/a", "d/sub/b"]);
        assert_eq!(f.cone("d/"), vec!["d/a", "d/sub/b"]);
    }

    #[test]
    fn larger_reads_cost_more() {
        let f = fs();
        f.create("small", &[0u8; 10]).unwrap();
        f.create("big", &[0u8; 10_000_000]).unwrap();
        let (_, c_small) = f.read("small").unwrap();
        let (_, c_big) = f.read("big").unwrap();
        assert!(c_big > c_small);
    }
}
