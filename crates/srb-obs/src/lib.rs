#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]
//! Deterministic observability for the data grid.
//!
//! The SRB of the paper ran as shared production infrastructure (Digital
//! Sky, NARA); operating it meant knowing which resources were healthy,
//! which queries were slow and where replication time went. This crate is
//! that layer for the reproduction: a **metrics registry** of atomic
//! counters, gauges and log₂-bucketed latency histograms, and a bounded
//! **slow-op log** keeping the N most expensive operations with their
//! cost breakdown.
//!
//! Two properties are load-bearing:
//!
//! * **Lock-cheap.** Handles returned by the registry are `Arc`s of plain
//!   atomics; the hot path is a `fetch_add`. The registry's own maps sit
//!   behind a ranked [`RwLock`](srb_types::sync::RwLock) at
//!   [`LockRank::Topology`](srb_types::sync::LockRank::Topology) — the lowest
//!   rank — so a metric may be recorded while holding *any* other lock in
//!   the workspace without inverting the hierarchy.
//! * **Deterministic.** Every observed quantity is a virtual-clock or
//!   count quantity, never wall time, and every snapshot container is
//!   ordered (`BTreeMap`, sorted slow-op log). Two identically-seeded runs
//!   therefore produce byte-identical [`MetricsSnapshot`]s — the chaos
//!   oracle asserts exactly that, which turns the observability layer into
//!   a correctness tool rather than a best-effort one.
//!
//! # Naming scheme
//!
//! Every metric name is `subsystem.name`: a subsystem from
//! `SUBSYSTEMS`, a single dot, then a `[a-z0-9_]+` metric name
//! (e.g. `fanout.legs_dispatched`, `query.scope_cache_hits`). The scheme
//! is enforced at registration — an ill-formed name panics, like a lock
//! rank inversion, because it is a programming bug, not an input error —
//! and `cargo xtask lint` statically checks registration call sites
//! outside this crate. Labels distinguish instances of one metric
//! (a resource name, a driver kind, a web route); the empty label is the
//! convention for unlabelled metrics.

pub mod labels;
pub mod metrics;
pub mod slowlog;
pub mod snapshot;

pub use labels::ResourceLabels;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use slowlog::{OpCost, SlowOp, SlowOpLog};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};

/// The subsystems a metric may belong to. Kept in one place so the
/// registry, the lint rule and DESIGN.md §12 agree on the universe.
pub(crate) const SUBSYSTEMS: &[&str] = &[
    "storage", "health", "faults", "fanout", "query", "mcat", "wal", "web", "core", "zone",
];

/// True when `name` follows the `subsystem.name` scheme documented on the
/// crate root. Shared verbatim with the `cargo xtask lint` metric-name
/// rule, which applies it to registration call sites across the workspace.
pub(crate) fn valid_metric_name(name: &str) -> bool {
    let Some((subsystem, rest)) = name.split_once('.') else {
        return false;
    };
    SUBSYSTEMS.contains(&subsystem)
        && !rest.is_empty()
        && rest
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// One observability domain: registry + slow-op log. Cloning shares all
/// state; a [`Grid`]-alike owns one and hands clones to each subsystem it
/// instruments.
///
/// [`Grid`]: https://en.wikipedia.org/wiki/Data_grid
#[derive(Clone, Debug)]
pub struct Obs {
    /// Counters, gauges and histograms.
    pub metrics: MetricsRegistry,
    /// The N most expensive operations seen so far.
    pub slow: SlowOpLog,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl Obs {
    /// A fresh domain: an empty registry and a slow-op log keeping the
    /// 16 most expensive operations.
    pub fn new() -> Obs {
        Obs {
            metrics: MetricsRegistry::new(),
            slow: SlowOpLog::new(slowlog::DEFAULT_SLOW_OPS),
        }
    }

    /// Full deterministic snapshot: all metrics plus the slow-op log.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.slow_ops = self.slow.entries();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naming_scheme() {
        assert!(valid_metric_name("fanout.legs_dispatched"));
        assert!(valid_metric_name("query.scope_cache_hits"));
        assert!(valid_metric_name("web.requests"));
        assert!(!valid_metric_name("fanout"), "missing name part");
        assert!(!valid_metric_name("fanout."), "empty name part");
        assert!(!valid_metric_name("replica.count"), "unknown subsystem");
        assert!(!valid_metric_name("fanout.LegsStale"), "uppercase");
        assert!(!valid_metric_name("fanout.legs stale"), "space");
        assert!(!valid_metric_name("fanout.legs.stale"), "second dot");
    }

    #[test]
    fn obs_snapshot_combines_metrics_and_slow_ops() {
        let obs = Obs::new();
        obs.metrics.counter("core.ops", "").add(3);
        obs.slow.record("open", "/zoo/a", OpCost::default());
        let snap = obs.snapshot();
        assert_eq!(snap.counters["core.ops"][""], 3);
        assert_eq!(snap.slow_ops.len(), 1);
        assert_eq!(snap.slow_ops[0].op, "open");
    }
}
