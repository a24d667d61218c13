//! Operation receipts: the unit of virtual-cost accounting.
//!
//! Every SRB operation returns a `Receipt` describing what it cost in the
//! simulated world — virtual nanoseconds, bytes moved, network messages,
//! federation hops, and which replica ultimately served the request.
//! Receipts compose: a high-level operation sums the receipts of its parts.

use serde::{Deserialize, Serialize};
use srb_types::ReplicaId;

/// Cost and provenance of one (possibly composite) operation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Receipt {
    /// Total simulated time spent, in nanoseconds.
    pub sim_ns: u64,
    /// Payload bytes moved over the network.
    pub bytes: u64,
    /// Network messages exchanged (requests + replies).
    pub messages: u64,
    /// Federation hops traversed (0 = served by the contact server).
    pub hops: u32,
    /// Number of replicas tried before one answered.
    pub replicas_tried: u32,
    /// Same-replica retry attempts made (beyond the first attempt),
    /// including the simulated backoff they charged to `sim_ns`.
    pub retries: u32,
    /// True when the request was served from a replica known to be stale
    /// (graceful degradation under explicit opt-in).
    pub served_stale: bool,
    /// The replica that served the request, when applicable.
    pub served_by: Option<ReplicaId>,
}

impl Receipt {
    /// A zero-cost receipt.
    pub fn free() -> Self {
        Receipt::default()
    }

    /// A receipt with only simulated time.
    pub fn time(sim_ns: u64) -> Self {
        Receipt {
            sim_ns,
            ..Receipt::default()
        }
    }

    /// Fold another receipt's costs into this one (sequential composition).
    pub fn absorb(&mut self, other: &Receipt) {
        self.sim_ns += other.sim_ns;
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.hops += other.hops;
        self.replicas_tried += other.replicas_tried;
        self.retries += other.retries;
        self.served_stale |= other.served_stale;
        if other.served_by.is_some() {
            self.served_by = other.served_by;
        }
    }

    /// Sequential composition, by value.
    pub fn then(mut self, other: &Receipt) -> Self {
        self.absorb(other);
        self
    }

    /// Parallel composition: costs that overlap in time take the maximum
    /// duration, while byte/message counters still add up.
    pub fn join_parallel(&mut self, other: &Receipt) {
        self.sim_ns = self.sim_ns.max(other.sim_ns);
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.hops = self.hops.max(other.hops);
        self.replicas_tried += other.replicas_tried;
        self.retries += other.retries;
        self.served_stale |= other.served_stale;
        if other.served_by.is_some() {
            self.served_by = other.served_by;
        }
    }

    /// Simulated milliseconds (for reporting).
    pub fn sim_ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_costs() {
        let mut a = Receipt::time(100);
        a.bytes = 10;
        a.messages = 1;
        let mut b = Receipt::time(50);
        b.bytes = 5;
        b.messages = 2;
        b.hops = 1;
        b.served_by = Some(ReplicaId(7));
        a.absorb(&b);
        assert_eq!(a.sim_ns, 150);
        assert_eq!(a.bytes, 15);
        assert_eq!(a.messages, 3);
        assert_eq!(a.hops, 1);
        assert_eq!(a.served_by, Some(ReplicaId(7)));
    }

    #[test]
    fn then_chains() {
        let r = Receipt::time(10)
            .then(&Receipt::time(20))
            .then(&Receipt::time(30));
        assert_eq!(r.sim_ns, 60);
    }

    #[test]
    fn parallel_takes_max_time_but_sums_bytes() {
        let mut a = Receipt::time(100);
        a.bytes = 10;
        let mut b = Receipt::time(300);
        b.bytes = 20;
        a.join_parallel(&b);
        assert_eq!(a.sim_ns, 300);
        assert_eq!(a.bytes, 30);
    }

    #[test]
    fn served_by_keeps_latest() {
        let mut a = Receipt::free();
        a.served_by = Some(ReplicaId(1));
        a.absorb(&Receipt::free());
        assert_eq!(a.served_by, Some(ReplicaId(1)));
        let mut b = Receipt::free();
        b.served_by = Some(ReplicaId(2));
        a.absorb(&b);
        assert_eq!(a.served_by, Some(ReplicaId(2)));
    }

    #[test]
    fn sim_ms_converts() {
        assert_eq!(Receipt::time(2_500_000).sim_ms(), 2.5);
    }

    #[test]
    fn retries_add_and_stale_is_sticky() {
        let mut a = Receipt::time(10);
        a.retries = 2;
        let mut b = Receipt::time(20);
        b.retries = 1;
        b.served_stale = true;
        a.absorb(&b);
        assert_eq!(a.retries, 3);
        assert!(a.served_stale);
        // Stale-ness survives parallel joins with fresh legs too.
        let fresh = Receipt::time(5);
        a.join_parallel(&fresh);
        assert!(a.served_stale);
        assert_eq!(a.retries, 3);
    }
}
