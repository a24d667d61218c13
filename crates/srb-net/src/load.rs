//! Per-resource load accounting for replica selection.
//!
//! The paper lists "load balancing" as a reason to replicate. To make a
//! least-loaded replica-selection policy meaningful in a simulation, each
//! resource accumulates the virtual busy-time charged against it; the
//! selector reads these counters. Lock-free (a fixed-capacity table of
//! atomics behind an RwLock used only for insertion) so a 32-thread client
//! pool doesn't serialize on bookkeeping.

use srb_types::sync::{LockRank, RwLock};
use srb_types::ResourceId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tracks cumulative busy nanoseconds and in-flight operations per resource.
#[derive(Debug)]
pub struct LoadTracker {
    entries: RwLock<HashMap<ResourceId, Arc<Entry>>>,
}

impl Default for LoadTracker {
    fn default() -> Self {
        LoadTracker {
            entries: RwLock::new(LockRank::Topology, "net.load.entries", HashMap::new()),
        }
    }
}

#[derive(Debug, Default)]
struct Entry {
    busy_ns: AtomicU64,
    inflight: AtomicU64,
    completed: AtomicU64,
}

/// RAII guard marking an operation in flight on a resource.
pub struct InflightGuard {
    entry: Arc<Entry>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.entry.inflight.fetch_sub(1, Ordering::AcqRel);
        self.entry.completed.fetch_add(1, Ordering::Relaxed);
    }
}

impl LoadTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        LoadTracker::default()
    }

    fn entry(&self, r: ResourceId) -> Arc<Entry> {
        if let Some(e) = self.entries.read().get(&r) {
            return e.clone();
        }
        self.entries
            .write()
            .entry(r)
            .or_insert_with(|| Arc::new(Entry::default()))
            .clone()
    }

    /// Charge `ns` of busy time to a resource.
    pub fn charge(&self, r: ResourceId, ns: u64) {
        self.entry(r).busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Mark an operation as started; dropping the guard marks it done.
    pub fn begin(&self, r: ResourceId) -> InflightGuard {
        let entry = self.entry(r);
        entry.inflight.fetch_add(1, Ordering::AcqRel);
        InflightGuard { entry }
    }

    /// Cumulative busy nanoseconds.
    pub fn busy_ns(&self, r: ResourceId) -> u64 {
        self.entries
            .read()
            .get(&r)
            .map(|e| e.busy_ns.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Operations completed so far.
    pub fn completed(&self, r: ResourceId) -> u64 {
        self.entries
            .read()
            .get(&r)
            .map(|e| e.completed.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Composite load score used by the least-loaded selector: in-flight
    /// operations dominate; accumulated busy time breaks ties.
    pub fn score(&self, r: ResourceId) -> u128 {
        let g = self.entries.read();
        match g.get(&r) {
            Some(e) => {
                let inflight = e.inflight.load(Ordering::Acquire) as u128;
                let busy = e.busy_ns.load(Ordering::Relaxed) as u128;
                inflight * 1_000_000_000_000 + busy
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let t = LoadTracker::new();
        t.charge(ResourceId(1), 100);
        t.charge(ResourceId(1), 50);
        assert_eq!(t.busy_ns(ResourceId(1)), 150);
        assert_eq!(t.busy_ns(ResourceId(2)), 0);
    }

    #[test]
    fn inflight_guard_counts_and_releases() {
        let t = LoadTracker::new();
        let r = ResourceId(1);
        // With no busy time charged, the score is in-flight ops × 10¹².
        assert_eq!(t.score(r), 0);
        {
            let _g1 = t.begin(r);
            let _g2 = t.begin(r);
            assert_eq!(t.score(r), 2_000_000_000_000);
        }
        assert_eq!(t.score(r), 0);
        assert_eq!(t.completed(r), 2);
    }

    #[test]
    fn score_prefers_idle_resources() {
        let t = LoadTracker::new();
        let busy = ResourceId(1);
        let idle = ResourceId(2);
        t.charge(busy, 1_000_000);
        assert!(t.score(busy) > t.score(idle));
        // An in-flight op outweighs any accumulated busy time.
        let _g = t.begin(idle);
        assert!(t.score(idle) > t.score(busy));
    }

    #[test]
    fn concurrent_charges_do_not_lose_updates() {
        let t = LoadTracker::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.charge(ResourceId(9), 1);
                        let _g = t.begin(ResourceId(9));
                    }
                });
            }
        });
        assert_eq!(t.busy_ns(ResourceId(9)), 8000);
        assert_eq!(t.completed(ResourceId(9)), 8000);
        // Busy time only: nothing is left in flight.
        assert_eq!(t.score(ResourceId(9)), 8000);
    }
}
