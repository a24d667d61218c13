//! The bounded slow-op log: the N most expensive operations so far.
//!
//! A production operator's first question ("what is slow right now?")
//! should not require replaying a workload under a profiler. Each grid
//! operation reports its simulated cost breakdown here; the log keeps the
//! `capacity` ops with the largest simulated duration. A lock-free floor
//! check (the smallest duration currently kept) skips the lock for the
//! overwhelmingly common cheap op once the log is full.

use serde::{Deserialize, Serialize};
use srb_types::sync::Mutex;
use srb_types::LockRank;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Slow ops kept per grid.
pub(crate) const DEFAULT_SLOW_OPS: usize = 16;

/// Cost breakdown of one operation, mirroring the fields of the
/// `srb-net` `Receipt` (this crate sits below `srb-net`, so callers
/// convert rather than this crate depending upward).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCost {
    /// Simulated duration, nanoseconds.
    pub sim_ns: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Protocol messages exchanged.
    pub messages: u64,
    /// Inter-site hops traversed.
    pub hops: u64,
    /// Replicas attempted before success or give-up.
    pub replicas_tried: u64,
    /// Transient-failure retries performed.
    pub retries: u64,
    /// Whether a stale replica was knowingly served.
    pub served_stale: bool,
}

/// One entry in the slow-op log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowOp {
    /// Admission sequence number; breaks duration ties deterministically
    /// (earlier op wins).
    pub seq: u64,
    /// Operation name (e.g. `open`, `ingest_bulk`).
    pub op: String,
    /// What the op acted on (a logical path, a route).
    pub subject: String,
    /// The leg breakdown.
    pub cost: OpCost,
}

struct State {
    next_seq: u64,
    entries: Vec<SlowOp>,
}

struct Inner {
    capacity: usize,
    /// Smallest `sim_ns` currently kept once full; 0 while filling.
    floor: AtomicU64,
    state: Mutex<State>,
}

/// The log. Cloning shares the entries.
#[derive(Clone)]
pub struct SlowOpLog {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SlowOpLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowOpLog").finish_non_exhaustive()
    }
}

impl SlowOpLog {
    /// A log keeping the `capacity` slowest ops.
    pub fn new(capacity: usize) -> SlowOpLog {
        SlowOpLog {
            inner: Arc::new(Inner {
                capacity: capacity.max(1),
                floor: AtomicU64::new(0),
                state: Mutex::new(
                    LockRank::Topology,
                    "obs.slow_ops",
                    State {
                        next_seq: 1,
                        entries: Vec::new(),
                    },
                ),
            }),
        }
    }

    /// Report a finished operation. Cheap ops (below the current floor of
    /// a full log) return without locking.
    pub fn record(&self, op: &str, subject: &str, cost: OpCost) {
        let floor = self.inner.floor.load(Ordering::Relaxed);
        if floor > 0 && cost.sim_ns <= floor {
            return;
        }
        let mut st = self.inner.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.entries.push(SlowOp {
            seq,
            op: op.to_string(),
            subject: subject.to_string(),
            cost,
        });
        // Slowest first; ties broken by admission order.
        st.entries
            .sort_by(|a, b| b.cost.sim_ns.cmp(&a.cost.sim_ns).then(a.seq.cmp(&b.seq)));
        st.entries.truncate(self.inner.capacity);
        let new_floor = if st.entries.len() == self.inner.capacity {
            st.entries.last().map_or(0, |e| e.cost.sim_ns)
        } else {
            0
        };
        self.inner.floor.store(new_floor, Ordering::Relaxed);
    }

    /// The kept ops, slowest first.
    pub fn entries(&self) -> Vec<SlowOp> {
        self.inner.state.lock().entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(sim_ns: u64) -> OpCost {
        OpCost {
            sim_ns,
            ..OpCost::default()
        }
    }

    #[test]
    fn keeps_the_slowest_in_order() {
        let log = SlowOpLog::new(3);
        for (op, ns) in [("a", 30), ("b", 10), ("c", 50), ("d", 20), ("e", 40)] {
            log.record(op, "/x", cost(ns));
        }
        let names: Vec<String> = log.entries().iter().map(|e| e.op.clone()).collect();
        assert_eq!(names, ["c", "e", "a"]);
    }

    #[test]
    fn ties_break_by_admission_order() {
        let log = SlowOpLog::new(2);
        log.record("first", "/x", cost(10));
        log.record("second", "/x", cost(10));
        log.record("third", "/x", cost(10));
        let names: Vec<String> = log.entries().iter().map(|e| e.op.clone()).collect();
        assert_eq!(names, ["first", "second"]);
    }

    #[test]
    fn floor_rejects_cheap_ops_once_full() {
        let log = SlowOpLog::new(2);
        log.record("a", "/x", cost(100));
        log.record("b", "/x", cost(200));
        log.record("cheap", "/x", cost(50));
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.op != "cheap"));
        // A new slow op still displaces the floor entry.
        log.record("slow", "/x", cost(150));
        let names: Vec<String> = log.entries().iter().map(|e| e.op.clone()).collect();
        assert_eq!(names, ["b", "slow"]);
    }
}
