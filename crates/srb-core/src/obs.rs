//! Grid-side observability plumbing: pre-registered metric handles for
//! the hot paths `srb-core` owns.
//!
//! One [`CoreObs`] is built per grid when observability is enabled
//! (the default; see [`crate::GridBuilder::observability`]). Subsystems
//! below this crate (breakers, fault injection, the query planner) get
//! their handles attached separately at grid construction; everything the
//! broker itself instruments — fan-out legs, retries, repairs, storage
//! driver ops, whole-operation latency — goes through this struct so the
//! per-event cost is a `fetch_add` on a cached handle.

use srb_net::Receipt;
use srb_obs::{metric, Counter, Histogram, MetricsRegistry, Obs, OpCost};
use srb_storage::DriverKind;

/// Convert a finished operation's receipt into the slow-op cost record.
pub(crate) fn op_cost(receipt: &Receipt) -> OpCost {
    OpCost {
        sim_ns: receipt.sim_ns,
        bytes: receipt.bytes,
        messages: receipt.messages,
        hops: receipt.hops as u64,
        replicas_tried: receipt.replicas_tried as u64,
        retries: receipt.retries as u64,
        served_stale: receipt.served_stale,
    }
}

/// Every driver family in declaration order, so `kind as usize` indexes
/// [`CoreObs`]'s per-family storage handles.
const DRIVER_KINDS: [DriverKind; 5] = [
    DriverKind::FileSystem,
    DriverKind::Archive,
    DriverKind::Cache,
    DriverKind::Database,
    DriverKind::Url,
];

/// Cached metric handles for the broker's own hot paths.
#[derive(Debug, Clone)]
pub struct CoreObs {
    /// The shared registry and slow-op log.
    pub obs: Obs,
    /// `fanout.legs_dispatched`: storage legs handed to the fan-out engine.
    pub legs_dispatched: Counter,
    /// `fanout.legs_failed`: legs that returned an error.
    pub legs_failed: Counter,
    /// `fanout.legs_stale`: replica rows committed as stale because their
    /// leg failed while the write as a whole was acknowledged.
    pub legs_stale: Counter,
    /// `fanout.queue_wait_ns`: simulated time a leg waited for a virtual
    /// lane before its transfer began.
    pub queue_wait: Histogram,
    /// `health.retries`: transient-failure retries performed by the retry
    /// engine.
    pub retries: Counter,
    /// `health.backoff_ns`: total simulated backoff charged before
    /// retries.
    pub backoff_ns: Counter,
    /// `health.repairs`: stale replica rows brought back up to date by
    /// resync.
    pub repairs: Counter,
    /// `core.pool_hits`: pooled connects served from cached auth state.
    pub pool_hits: Counter,
    /// `core.pool_misses`: pooled connects that ran the full handshake.
    pub pool_misses: Counter,
    /// `wal.checkpoint_failures`: due checkpoints an op epilogue could not
    /// install (the op itself still succeeded).
    pub checkpoint_failures: Counter,
    /// `storage.ops` / `storage.op_ns` per driver family, indexed by
    /// `DriverKind as usize`.
    storage: [(Counter, Histogram); 5],
}

impl CoreObs {
    /// Register every fixed-label handle against `obs`'s registry.
    pub fn new(obs: Obs) -> CoreObs {
        let m = &obs.metrics;
        CoreObs {
            legs_dispatched: m.counter(metric!("fanout.legs_dispatched"), ""),
            legs_failed: m.counter(metric!("fanout.legs_failed"), ""),
            legs_stale: m.counter(metric!("fanout.legs_stale"), ""),
            queue_wait: m.histogram(metric!("fanout.queue_wait_ns"), ""),
            retries: m.counter(metric!("health.retries"), ""),
            backoff_ns: m.counter(metric!("health.backoff_ns"), ""),
            repairs: m.counter(metric!("health.repairs"), ""),
            pool_hits: m.counter(metric!("core.pool_hits"), ""),
            pool_misses: m.counter(metric!("core.pool_misses"), ""),
            checkpoint_failures: m.counter(metric!("wal.checkpoint_failures"), ""),
            storage: DRIVER_KINDS.map(|kind| {
                (
                    m.counter(metric!("storage.ops"), kind.name()),
                    m.histogram(metric!("storage.op_ns"), kind.name()),
                )
            }),
            obs,
        }
    }

    /// The registry behind the cached handles.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs.metrics
    }

    /// Count one storage-driver operation of `sim_ns` simulated cost
    /// against the driver family's `storage.ops` / `storage.op_ns`.
    pub(crate) fn storage_op(&self, kind: DriverKind, sim_ns: u64) {
        let (ops, op_ns) = &self.storage[kind as usize];
        ops.inc();
        op_ns.observe(sim_ns);
    }

    /// Count one failed storage-driver operation (`storage.errors`),
    /// labelled by driver family and sub-labelled by error code via the
    /// `storage.error_codes` counter.
    pub(crate) fn storage_error(&self, kind: DriverKind, code: &str) {
        let m = &self.obs.metrics;
        m.counter(metric!("storage.errors"), kind.name()).inc();
        m.counter(metric!("storage.error_codes"), code).inc();
    }

    /// Report a finished top-level operation: observe its whole-op
    /// latency histogram (`core.op_ns`, labelled by op) and offer it to
    /// the slow-op log.
    pub(crate) fn finish_op(&self, op: &str, subject: &str, receipt: &Receipt) {
        self.obs
            .metrics
            .histogram(metric!("core.op_ns"), op)
            .observe(receipt.sim_ns);
        self.obs.slow.record(op, subject, op_cost(receipt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cost_mirrors_receipt() {
        let r = Receipt {
            sim_ns: 42,
            bytes: 7,
            messages: 3,
            hops: 1,
            replicas_tried: 2,
            retries: 1,
            served_stale: true,
            ..Default::default()
        };
        let c = op_cost(&r);
        assert_eq!(c.sim_ns, 42);
        assert_eq!(c.bytes, 7);
        assert_eq!(c.messages, 3);
        assert_eq!(c.hops, 1);
        assert_eq!(c.replicas_tried, 2);
        assert_eq!(c.retries, 1);
        assert!(c.served_stale);
    }

    #[test]
    fn finish_op_feeds_histogram_and_slow_log() {
        let core = CoreObs::new(Obs::new());
        let r = Receipt {
            sim_ns: 9_999,
            ..Default::default()
        };
        core.finish_op("open", "/zoo/a", &r);
        let snap = core.obs.snapshot();
        assert_eq!(snap.histograms["core.op_ns"]["open"].count, 1);
        assert_eq!(snap.slow_ops.len(), 1);
        assert_eq!(snap.slow_ops[0].cost.sim_ns, 9_999);
    }

    #[test]
    fn storage_counters_label_by_driver_kind() {
        let core = CoreObs::new(Obs::new());
        for (i, kind) in DRIVER_KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
            core.storage_op(kind, 1_000 * (i as u64 + 1));
        }
        core.storage_op(DriverKind::FileSystem, 1_000);
        core.storage_error(DriverKind::Archive, "TIMEOUT");
        let snap = core.obs.snapshot();
        assert_eq!(snap.counter(metric!("storage.ops"), "file-system"), 2);
        assert_eq!(snap.counter(metric!("storage.ops"), "url"), 1);
        assert_eq!(snap.histograms["storage.op_ns"]["database"].count, 1);
        assert_eq!(snap.histograms["storage.op_ns"]["database"].sum, 4_000);
        assert_eq!(snap.counter(metric!("storage.errors"), "archive"), 1);
        assert_eq!(snap.counter(metric!("storage.error_codes"), "TIMEOUT"), 1);
    }
}
