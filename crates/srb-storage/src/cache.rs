//! Cache driver — a capacity-bounded disk cache with LRU purge and pins.
//!
//! The paper: "Pin operation makes sure that a SRB object does not get
//! deleted from a particular resource. This is useful for pinning a file in
//! a cache resource from being purged by SRB when performing cache
//! management. An expiry time is also associated with pins."
//!
//! The cache evicts least-recently-used, *unpinned* entries when inserting
//! would exceed capacity. Pins carry a (virtual-time) expiry; an expired pin
//! no longer protects its object.

use crate::driver::{CostModel, DriverKind, ObjStat, StorageDriver};
use bytes::Bytes;
use srb_types::sync::{LockRank, Mutex};
use srb_types::{SimClock, SrbError, SrbResult, Timestamp};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

struct Entry {
    data: Bytes,
    created: Timestamp,
    modified: Timestamp,
    last_used: u64,
    pinned_until: Option<Timestamp>,
}

/// LRU disk cache with pin support.
pub struct CacheDriver {
    entries: Mutex<HashMap<String, Entry>>,
    capacity: u64,
    used: AtomicU64,
    cost: CostModel,
    clock: SimClock,
    tick: AtomicU64,
    evictions: AtomicU64,
}

impl CacheDriver {
    /// New cache with `capacity` bytes and the standard disk cost model.
    pub fn new(clock: SimClock, capacity: u64) -> Self {
        CacheDriver {
            entries: Mutex::new(LockRank::Storage, "storage.cache.entries", HashMap::new()),
            capacity,
            used: AtomicU64::new(0),
            cost: CostModel::disk(),
            clock,
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Pin an object until `expiry` (virtual time). Errors if absent.
    pub fn pin(&self, path: &str, expiry: Timestamp) -> SrbResult<()> {
        let mut g = self.entries.lock();
        match g.get_mut(path) {
            Some(e) => {
                e.pinned_until = Some(expiry);
                Ok(())
            }
            None => Err(SrbError::NotFound(format!("cache object '{path}'"))),
        }
    }

    /// Remove a pin.
    pub fn unpin(&self, path: &str) -> SrbResult<()> {
        let mut g = self.entries.lock();
        match g.get_mut(path) {
            Some(e) => {
                e.pinned_until = None;
                Ok(())
            }
            None => Err(SrbError::NotFound(format!("cache object '{path}'"))),
        }
    }

    fn evict_for(&self, needed: u64, g: &mut HashMap<String, Entry>) -> SrbResult<()> {
        let now = self.clock.now();
        while self.used.load(Ordering::Relaxed) + needed > self.capacity {
            // Find the least-recently-used unpinned entry.
            let victim = g
                .iter()
                .filter(|(_, e)| e.pinned_until.map(|t| t <= now).unwrap_or(true))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim.and_then(|k| g.remove(&k)) {
                Some(e) => {
                    self.used.fetch_sub(e.data.len() as u64, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    return Err(SrbError::ResourceUnavailable(
                        "cache full of pinned objects".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    fn insert(&self, path: &str, data: &[u8], overwrite: bool) -> SrbResult<u64> {
        let now = self.clock.now();
        let mut g = self.entries.lock();
        if data.len() as u64 > self.capacity {
            return Err(SrbError::ResourceUnavailable(format!(
                "object of {} bytes exceeds cache capacity {}",
                data.len(),
                self.capacity
            )));
        }
        if let Some(old) = g.get(path) {
            if !overwrite {
                return Err(SrbError::AlreadyExists(format!("cache object '{path}'")));
            }
            let old_len = old.data.len() as u64;
            self.used.fetch_sub(old_len, Ordering::Relaxed);
            let created = old.created;
            let pinned = old.pinned_until;
            self.evict_for(data.len() as u64, &mut g)?;
            let tick = self.touch();
            g.insert(
                path.to_string(),
                Entry {
                    data: Bytes::copy_from_slice(data),
                    created,
                    modified: now,
                    last_used: tick,
                    pinned_until: pinned,
                },
            );
        } else {
            self.evict_for(data.len() as u64, &mut g)?;
            let tick = self.touch();
            g.insert(
                path.to_string(),
                Entry {
                    data: Bytes::copy_from_slice(data),
                    created: now,
                    modified: now,
                    last_used: tick,
                    pinned_until: None,
                },
            );
        }
        self.used.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(self.cost.write_ns(data.len() as u64))
    }

    /// Objects evicted by the purger.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

impl StorageDriver for CacheDriver {
    fn kind(&self) -> DriverKind {
        DriverKind::Cache
    }

    fn create(&self, path: &str, data: &[u8]) -> SrbResult<u64> {
        self.insert(path, data, false)
    }

    fn read(&self, path: &str) -> SrbResult<(Bytes, u64)> {
        let mut g = self.entries.lock();
        match g.get_mut(path) {
            Some(e) => {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                let cost = self.cost.read_ns(e.data.len() as u64);
                Ok((e.data.clone(), cost))
            }
            None => Err(SrbError::NotFound(format!("cache object '{path}'"))),
        }
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> SrbResult<(Bytes, u64)> {
        let (data, _) = self.read(path)?;
        let start = (offset as usize).min(data.len());
        let end = (offset.saturating_add(len) as usize).min(data.len());
        let slice = data.slice(start..end);
        let cost = self.cost.read_ns(slice.len() as u64);
        Ok((slice, cost))
    }

    fn write(&self, path: &str, data: &[u8]) -> SrbResult<u64> {
        self.insert(path, data, true)
    }

    fn append(&self, path: &str, data: &[u8]) -> SrbResult<u64> {
        let existing = {
            let g = self.entries.lock();
            g.get(path).map(|e| e.data.clone())
        };
        let mut buf = Vec::new();
        if let Some(e) = existing {
            buf.extend_from_slice(&e);
        }
        buf.extend_from_slice(data);
        self.insert(path, &buf, true)
    }

    fn delete(&self, path: &str) -> SrbResult<u64> {
        let mut g = self.entries.lock();
        match g.remove(path) {
            Some(e) => {
                self.used.fetch_sub(e.data.len() as u64, Ordering::Relaxed);
                Ok(self.cost.fixed_ns)
            }
            None => Err(SrbError::NotFound(format!("cache object '{path}'"))),
        }
    }

    fn stat(&self, path: &str) -> SrbResult<ObjStat> {
        let g = self.entries.lock();
        g.get(path)
            .map(|e| ObjStat {
                size: e.data.len() as u64,
                created: e.created,
                modified: e.modified,
                is_dir: false,
            })
            .ok_or_else(|| SrbError::NotFound(format!("cache object '{path}'")))
    }

    fn list(&self, prefix: &str) -> SrbResult<Vec<String>> {
        let g = self.entries.lock();
        let mut v: Vec<String> = g
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        v.sort();
        Ok(v)
    }

    fn exists(&self, path: &str) -> bool {
        self.entries.lock().contains_key(path)
    }

    fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Is the object currently pinned (pin present and not expired)?
    fn is_pinned(c: &CacheDriver, path: &str) -> bool {
        let now = c.clock.now();
        c.entries
            .lock()
            .get(path)
            .and_then(|e| e.pinned_until)
            .map(|t| t > now)
            .unwrap_or(false)
    }

    fn cache(cap: u64) -> (CacheDriver, SimClock) {
        let clock = SimClock::new();
        (CacheDriver::new(clock.clone(), cap), clock)
    }

    #[test]
    fn lru_evicts_oldest_unpinned() {
        let (c, _) = cache(10);
        c.create("a", &[0u8; 4]).unwrap();
        c.create("b", &[0u8; 4]).unwrap();
        // Touch "a" so "b" becomes LRU.
        c.read("a").unwrap();
        c.create("c", &[0u8; 4]).unwrap();
        assert!(c.exists("a"));
        assert!(!c.exists("b"));
        assert!(c.exists("c"));
        assert_eq!(c.eviction_count(), 1);
    }

    #[test]
    fn pinned_objects_survive_purge() {
        let (c, clock) = cache(10);
        c.create("keep", &[0u8; 4]).unwrap();
        c.create("drop", &[0u8; 4]).unwrap();
        c.pin("keep", clock.now().plus_secs(3600)).unwrap();
        // "keep" is the LRU entry but must not be evicted.
        c.create("new", &[0u8; 4]).unwrap();
        assert!(c.exists("keep"));
        assert!(!c.exists("drop"));
    }

    #[test]
    fn expired_pins_no_longer_protect() {
        let (c, clock) = cache(8);
        c.create("old", &[0u8; 4]).unwrap();
        c.pin("old", clock.now().plus_secs(10)).unwrap();
        assert!(is_pinned(&c, "old"));
        clock.advance(11_000_000_000);
        assert!(!is_pinned(&c, "old"));
        c.create("new", &[0u8; 8]).unwrap();
        assert!(!c.exists("old"));
    }

    #[test]
    fn cache_full_of_pins_rejects_insert() {
        let (c, clock) = cache(8);
        c.create("a", &[0u8; 8]).unwrap();
        c.pin("a", clock.now().plus_secs(3600)).unwrap();
        let err = c.create("b", &[0u8; 4]).unwrap_err();
        assert!(matches!(err, SrbError::ResourceUnavailable(_)));
    }

    #[test]
    fn oversized_object_rejected() {
        let (c, _) = cache(4);
        assert!(c.create("big", &[0u8; 5]).is_err());
    }

    #[test]
    fn unpin_restores_evictability() {
        let (c, clock) = cache(8);
        c.create("a", &[0u8; 8]).unwrap();
        c.pin("a", clock.now().plus_secs(3600)).unwrap();
        c.unpin("a").unwrap();
        c.create("b", &[0u8; 8]).unwrap();
        assert!(!c.exists("a"));
        assert!(c.exists("b"));
    }

    #[test]
    fn append_and_overwrite_update_usage() {
        let (c, _) = cache(100);
        c.create("x", b"ab").unwrap();
        c.append("x", b"cd").unwrap();
        assert_eq!(&c.read("x").unwrap().0[..], b"abcd");
        assert_eq!(c.used_bytes(), 4);
        c.write("x", b"e").unwrap();
        assert_eq!(c.used_bytes(), 1);
    }

    #[test]
    fn overwrite_preserves_pin() {
        let (c, clock) = cache(100);
        c.create("x", b"1").unwrap();
        c.pin("x", clock.now().plus_secs(100)).unwrap();
        c.write("x", b"2").unwrap();
        assert!(is_pinned(&c, "x"));
    }
}
