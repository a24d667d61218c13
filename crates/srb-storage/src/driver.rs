//! The uniform storage-driver abstraction.
//!
//! SRB's core idea is that one API fronts every kind of storage system; the
//! server never needs to know whether bytes live in HPSS or a Unix
//! directory. `StorageDriver` is that API. Implementations return the
//! virtual cost (nanoseconds) of each operation so the federation can
//! account for heterogeneous media speeds.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use srb_types::{SrbResult, Timestamp};

/// What family of storage system a driver simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DriverKind {
    /// Disk file system (Unix/NT/Mac in the paper).
    FileSystem,
    /// Tape archive (HPSS/UniTree/ADSM/DMF).
    Archive,
    /// Disk cache in front of slower media.
    Cache,
    /// Relational database storing LOBs and query targets.
    Database,
    /// Remote web object (registered URLs).
    Url,
}

impl DriverKind {
    /// Display name used in MCAT resource listings.
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::FileSystem => "file-system",
            DriverKind::Archive => "archive",
            DriverKind::Cache => "cache",
            DriverKind::Database => "database",
            DriverKind::Url => "url",
        }
    }
}

/// Per-object metadata returned by `stat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjStat {
    /// Object size in bytes.
    pub size: u64,
    /// Creation time (virtual).
    pub created: Timestamp,
    /// Last modification time (virtual).
    pub modified: Timestamp,
    /// True for directories (file-system drivers only).
    pub is_dir: bool,
}

/// Analytic cost model for a storage medium.
///
/// `fixed_ns` is the per-operation overhead (seek, RPC into the storage
/// system); the per-byte terms model media bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-operation cost in nanoseconds.
    pub fixed_ns: u64,
    /// Read bandwidth in MB/s.
    pub read_mbps: f64,
    /// Write bandwidth in MB/s.
    pub write_mbps: f64,
}

impl CostModel {
    /// A modern-for-2002 local disk (~0.2 ms op, 50 MB/s).
    pub(crate) fn disk() -> Self {
        CostModel {
            fixed_ns: 200_000,
            read_mbps: 50.0,
            write_mbps: 40.0,
        }
    }

    /// Tape staging path of an archive (per-op handled separately; this is
    /// the drive streaming rate).
    pub(crate) fn tape() -> Self {
        CostModel {
            fixed_ns: 2_000_000,
            read_mbps: 15.0,
            write_mbps: 10.0,
        }
    }

    /// Database engine: higher per-op cost, decent throughput.
    pub(crate) fn database() -> Self {
        CostModel {
            fixed_ns: 500_000,
            read_mbps: 30.0,
            write_mbps: 20.0,
        }
    }

    /// Cost of reading `bytes`.
    pub fn read_ns(&self, bytes: u64) -> u64 {
        self.fixed_ns + per_byte_ns(bytes, self.read_mbps)
    }

    /// Cost of writing `bytes`.
    pub fn write_ns(&self, bytes: u64) -> u64 {
        self.fixed_ns + per_byte_ns(bytes, self.write_mbps)
    }
}

fn per_byte_ns(bytes: u64, mbps: f64) -> u64 {
    if mbps <= 0.0 {
        return 0;
    }
    (bytes as f64 / (mbps * 1_000_000.0) * 1e9) as u64
}

/// The uniform API every storage back-end implements.
///
/// Paths are *physical* paths inside the storage system, assigned by the
/// SRB server; they are unrelated to logical SRB paths. Every mutating or
/// data-bearing call returns the virtual cost in nanoseconds.
pub trait StorageDriver: Send + Sync {
    /// Which family this driver belongs to.
    fn kind(&self) -> DriverKind;

    /// Create an object with initial contents. Fails if it already exists.
    fn create(&self, path: &str, data: &[u8]) -> SrbResult<u64>;

    /// Read a whole object.
    fn read(&self, path: &str) -> SrbResult<(Bytes, u64)>;

    /// Read `len` bytes starting at `offset` (short read at EOF).
    fn read_range(&self, path: &str, offset: u64, len: u64) -> SrbResult<(Bytes, u64)>;

    /// Replace an object's contents (creating it if absent).
    fn write(&self, path: &str, data: &[u8]) -> SrbResult<u64>;

    /// Append to an object (creating it if absent).
    fn append(&self, path: &str, data: &[u8]) -> SrbResult<u64>;

    /// Remove an object.
    fn delete(&self, path: &str) -> SrbResult<u64>;

    /// Object metadata.
    fn stat(&self, path: &str) -> SrbResult<ObjStat>;

    /// List object paths under a prefix (recursive), sorted.
    fn list(&self, prefix: &str) -> SrbResult<Vec<String>>;

    /// Cheap existence check.
    fn exists(&self, path: &str) -> bool;

    /// Total bytes currently stored (for capacity reports).
    fn used_bytes(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_scales_with_size() {
        let m = CostModel::disk();
        assert_eq!(m.read_ns(0), m.fixed_ns);
        // 50 MB at 50 MB/s = 1 s.
        assert_eq!(m.read_ns(50_000_000), m.fixed_ns + 1_000_000_000);
        assert!(m.write_ns(1_000_000) > m.read_ns(1_000_000));
    }

    #[test]
    fn tape_slower_than_disk() {
        let bytes = 10_000_000;
        assert!(CostModel::tape().read_ns(bytes) > CostModel::disk().read_ns(bytes));
    }

    #[test]
    fn kind_names() {
        assert_eq!(DriverKind::Archive.name(), "archive");
        assert_eq!(DriverKind::FileSystem.name(), "file-system");
    }
}
