//! The in-memory object store shared by the concrete drivers.
//!
//! A flat `BTreeMap<ShortStr, Object>` plus an implicit directory model:
//! `mkdir`-less, a path `a/b/c` implies directories `a` and `a/b`, as in an
//! object store. No driver keeps a directory of its own, so an empty
//! directory does not exist: the file-system driver's directories are the
//! ones its objects imply. `Bytes` keeps reads copy-free; a sharded
//! `RwLock`, its shard picked by FNV-1a of the path, keeps 32-thread
//! ingest pools from serializing.

use bytes::Bytes;
use srb_types::sync::{LockRank, RwLock};
use srb_types::{fnv1a64, ShortStr, SimClock, SrbError, SrbResult, Timestamp};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone)]
pub(crate) struct Object {
    pub data: Bytes,
    pub created: Timestamp,
    pub modified: Timestamp,
}

const SHARDS: usize = 16;

/// Thread-safe in-memory path → bytes store.
#[derive(Debug)]
pub(crate) struct MemStore {
    /// Keyed by path; a path of up to 22 bytes costs no block of its own.
    shards: Vec<RwLock<BTreeMap<ShortStr, Object>>>,
    used: AtomicU64,
    clock: SimClock,
}

fn shard_of(path: &str) -> usize {
    (fnv1a64(&[path.as_bytes()]) as usize) % SHARDS
}

impl MemStore {
    /// Empty store sharing the grid's virtual clock.
    pub fn new(clock: SimClock) -> Self {
        MemStore {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(LockRank::Storage, "storage.memfs.shard", BTreeMap::new()))
                .collect(),
            used: AtomicU64::new(0),
            clock,
        }
    }

    /// Insert a new object; errors if the path exists.
    pub fn create(&self, path: &str, data: &[u8]) -> SrbResult<()> {
        let now = self.clock.now();
        let mut shard = self.shards[shard_of(path)].write();
        if shard.contains_key(path) {
            return Err(SrbError::AlreadyExists(format!("object '{path}'")));
        }
        self.used.fetch_add(data.len() as u64, Ordering::Relaxed);
        shard.insert(
            path.into(),
            Object {
                data: Bytes::copy_from_slice(data),
                created: now,
                modified: now,
            },
        );
        Ok(())
    }

    /// Replace (or create) an object's contents.
    pub fn write(&self, path: &str, data: &[u8]) {
        let now = self.clock.now();
        let mut shard = self.shards[shard_of(path)].write();
        let old_len = shard.get(path).map(|o| o.data.len() as u64).unwrap_or(0);
        // Preserve the original creation time across overwrites.
        let created = shard.get(path).map(|o| o.created).unwrap_or(now);
        shard.insert(
            path.into(),
            Object {
                data: Bytes::copy_from_slice(data),
                created,
                modified: now,
            },
        );
        self.used.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.used.fetch_sub(old_len, Ordering::Relaxed);
    }

    /// Append bytes (creating the object if absent).
    pub fn append(&self, path: &str, data: &[u8]) {
        let now = self.clock.now();
        let mut shard = self.shards[shard_of(path)].write();
        match shard.get_mut(path) {
            Some(obj) => {
                let mut buf = Vec::with_capacity(obj.data.len() + data.len());
                buf.extend_from_slice(&obj.data);
                buf.extend_from_slice(data);
                obj.data = Bytes::from(buf);
                obj.modified = now;
            }
            None => {
                shard.insert(
                    path.into(),
                    Object {
                        data: Bytes::copy_from_slice(data),
                        created: now,
                        modified: now,
                    },
                );
            }
        }
        self.used.fetch_add(data.len() as u64, Ordering::Relaxed);
    }

    /// Whole-object read (cheap clone of `Bytes`).
    pub fn read(&self, path: &str) -> SrbResult<Bytes> {
        self.shards[shard_of(path)]
            .read()
            .get(path)
            .map(|o| o.data.clone())
            .ok_or_else(|| SrbError::NotFound(format!("object '{path}'")))
    }

    /// Range read with short-read-at-EOF semantics.
    pub fn read_range(&self, path: &str, offset: u64, len: u64) -> SrbResult<Bytes> {
        let data = self.read(path)?;
        let start = (offset as usize).min(data.len());
        let end = (offset.saturating_add(len) as usize).min(data.len());
        Ok(data.slice(start..end))
    }

    /// Remove an object.
    pub fn delete(&self, path: &str) -> SrbResult<u64> {
        let mut shard = self.shards[shard_of(path)].write();
        match shard.remove(path) {
            Some(o) => {
                let n = o.data.len() as u64;
                self.used.fetch_sub(n, Ordering::Relaxed);
                Ok(n)
            }
            None => Err(SrbError::NotFound(format!("object '{path}'"))),
        }
    }

    /// Stat an object.
    pub fn stat(&self, path: &str) -> SrbResult<(u64, Timestamp, Timestamp)> {
        self.shards[shard_of(path)]
            .read()
            .get(path)
            .map(|o| (o.data.len() as u64, o.created, o.modified))
            .ok_or_else(|| SrbError::NotFound(format!("object '{path}'")))
    }

    /// Does the path exist?
    pub fn exists(&self, path: &str) -> bool {
        self.shards[shard_of(path)].read().contains_key(path)
    }

    /// All paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let g = shard.read();
            for k in g.keys() {
                if k.starts_with(prefix) {
                    out.push(k.to_string());
                }
            }
        }
        out.sort();
        out
    }

    /// Total payload bytes stored.
    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object_count(s: &MemStore) -> usize {
        s.shards.iter().map(|s| s.read().len()).sum()
    }

    fn store() -> MemStore {
        MemStore::new(SimClock::new())
    }

    #[test]
    fn create_then_read() {
        let s = store();
        s.create("a/b", b"hello").unwrap();
        assert_eq!(&s.read("a/b").unwrap()[..], b"hello");
        assert!(s.exists("a/b"));
        assert!(!s.exists("a"));
        assert_eq!(s.used_bytes(), 5);
    }

    #[test]
    fn create_duplicate_fails() {
        let s = store();
        s.create("x", b"1").unwrap();
        assert!(matches!(
            s.create("x", b"2"),
            Err(SrbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn write_overwrites_and_tracks_usage() {
        let s = store();
        s.create("x", b"12345").unwrap();
        s.write("x", b"67");
        assert_eq!(&s.read("x").unwrap()[..], b"67");
        assert_eq!(s.used_bytes(), 2);
    }

    #[test]
    fn overwrite_preserves_created_time() {
        let clock = SimClock::new();
        let s = MemStore::new(clock.clone());
        s.create("x", b"1").unwrap();
        clock.advance(1_000);
        s.write("x", b"2");
        let (_, created, modified) = s.stat("x").unwrap();
        assert_eq!(created.nanos(), 0);
        assert_eq!(modified.nanos(), 1_000);
    }

    #[test]
    fn append_extends() {
        let s = store();
        s.append("log", b"ab");
        s.append("log", b"cd");
        assert_eq!(&s.read("log").unwrap()[..], b"abcd");
        assert_eq!(s.used_bytes(), 4);
    }

    #[test]
    fn range_reads_clamp_at_eof() {
        let s = store();
        s.create("x", b"0123456789").unwrap();
        assert_eq!(&s.read_range("x", 2, 3).unwrap()[..], b"234");
        assert_eq!(&s.read_range("x", 8, 10).unwrap()[..], b"89");
        assert_eq!(s.read_range("x", 20, 5).unwrap().len(), 0);
    }

    #[test]
    fn delete_frees_space() {
        let s = store();
        s.create("x", b"abc").unwrap();
        assert_eq!(s.delete("x").unwrap(), 3);
        assert_eq!(s.used_bytes(), 0);
        assert!(s.delete("x").is_err());
        assert!(s.read("x").is_err());
    }

    #[test]
    fn list_is_sorted_and_prefix_filtered() {
        let s = store();
        s.create("b/2", b"").unwrap();
        s.create("a/1", b"").unwrap();
        s.create("b/1", b"").unwrap();
        assert_eq!(s.list(""), vec!["a/1", "b/1", "b/2"]);
        assert_eq!(s.list("b/"), vec!["b/1", "b/2"]);
        assert!(s.list("zzz").is_empty());
        assert_eq!(object_count(&s), 3);
    }

    #[test]
    fn concurrent_creates_are_consistent() {
        let s = store();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..200 {
                        s.create(&format!("t{t}/f{i}"), b"xy").unwrap();
                    }
                });
            }
        });
        assert_eq!(object_count(&s), 1600);
        assert_eq!(s.used_bytes(), 3200);
    }
}
