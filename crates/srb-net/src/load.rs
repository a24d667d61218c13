//! Per-resource load accounting for replica selection.
//!
//! The paper lists "load balancing" as a reason to replicate. To make a
//! least-loaded replica-selection policy meaningful in a simulation, each
//! resource accumulates the virtual busy-time charged against it; the
//! selector reads these counters. Lock-free: one set of atomics per
//! resource, allocated when the tracker is built, so a 32-thread client
//! pool doesn't serialize on bookkeeping.

use srb_types::{IdMap, ResourceId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tracks cumulative busy nanoseconds and in-flight operations per resource.
#[derive(Debug)]
pub struct LoadTracker {
    entries: IdMap<ResourceId, Entry>,
}

#[derive(Debug, Default)]
struct Entry {
    busy_ns: AtomicU64,
    inflight: AtomicU64,
    completed: AtomicU64,
}

/// RAII guard marking an operation in flight on a resource.
pub struct InflightGuard<'a> {
    entry: Option<&'a Entry>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(e) = self.entry {
            e.inflight.fetch_sub(1, Ordering::AcqRel);
            e.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl LoadTracker {
    /// A tracker for a fixed set of resources. A resource outside the set
    /// reads as idle, and charges against it are dropped.
    pub fn new(resources: impl IntoIterator<Item = ResourceId>) -> Self {
        LoadTracker {
            entries: resources
                .into_iter()
                .map(|r| (r, Entry::default()))
                .collect(),
        }
    }

    /// Charge `ns` of busy time to a resource.
    pub fn charge(&self, r: ResourceId, ns: u64) {
        if let Some(e) = self.entries.get(&r) {
            e.busy_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Mark an operation as started; dropping the guard marks it done.
    pub fn begin(&self, r: ResourceId) -> InflightGuard<'_> {
        let entry = self.entries.get(&r);
        if let Some(e) = entry {
            e.inflight.fetch_add(1, Ordering::AcqRel);
        }
        InflightGuard { entry }
    }

    /// Cumulative busy nanoseconds.
    pub fn busy_ns(&self, r: ResourceId) -> u64 {
        self.entries
            .get(&r)
            .map(|e| e.busy_ns.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Operations completed so far.
    pub fn completed(&self, r: ResourceId) -> u64 {
        self.entries
            .get(&r)
            .map(|e| e.completed.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Composite load score used by the least-loaded selector: in-flight
    /// operations dominate; accumulated busy time breaks ties.
    pub fn score(&self, r: ResourceId) -> u128 {
        match self.entries.get(&r) {
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
        let t = LoadTracker::new([ResourceId(1), ResourceId(2)]);
        t.charge(ResourceId(1), 100);
        t.charge(ResourceId(1), 50);
        assert_eq!(t.busy_ns(ResourceId(1)), 150);
        assert_eq!(t.busy_ns(ResourceId(2)), 0);
    }

    #[test]
    fn inflight_guard_counts_and_releases() {
        let t = LoadTracker::new([ResourceId(1)]);
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
        let t = LoadTracker::new([ResourceId(1), ResourceId(2)]);
        let busy = ResourceId(1);
        let idle = ResourceId(2);
        t.charge(busy, 1_000_000);
        assert!(t.score(busy) > t.score(idle));
        // An in-flight op outweighs any accumulated busy time.
        let _g = t.begin(idle);
        assert!(t.score(idle) > t.score(busy));
    }

    #[test]
    fn an_unknown_resource_reads_idle() {
        let t = LoadTracker::new([ResourceId(1)]);
        let ghost = ResourceId(7);
        t.charge(ghost, 100);
        drop(t.begin(ghost));
        assert_eq!(
            (t.busy_ns(ghost), t.completed(ghost), t.score(ghost)),
            (0, 0, 0)
        );
    }

    #[test]
    fn concurrent_charges_do_not_lose_updates() {
        let t = LoadTracker::new([ResourceId(9)]);
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
