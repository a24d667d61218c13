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
//! (e.g. `fanout.legs_dispatched`, `query.scope_cache_hits`). The
//! compiler holds the scheme: the registry and the snapshot lookups take
//! a [`MetricName`], which [`metric!`] builds in a `const` block, so an
//! ill-formed name fails the build. Labels distinguish instances of one
//! metric (a resource name, a driver kind, a web route); the empty label
//! is the convention for unlabelled metrics.

pub mod labels;
pub mod metrics;
pub mod slowlog;
pub mod snapshot;

pub use labels::ResourceLabels;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use slowlog::{OpCost, SlowOp, SlowOpLog};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};

/// The subsystems a metric may belong to: the one list the scheme check
/// in [`MetricName::new`] and DESIGN.md §12 agree on.
const SUBSYSTEMS: &[&str] = &[
    "storage", "health", "faults", "fanout", "query", "mcat", "wal", "web", "core", "zone",
];

/// True when `name` follows the `subsystem.name` scheme documented on the
/// crate root: a `const fn`, so [`metric!`] runs it at compile time.
const fn follows_scheme(name: &str) -> bool {
    let mut s = 0;
    while s < SUBSYSTEMS.len() {
        if let Some(tail) = after_dot(name.as_bytes(), SUBSYSTEMS[s].as_bytes()) {
            return !tail.is_empty() && is_name(tail);
        }
        s += 1;
    }
    false
}

/// What follows `subsystem.` when `name` starts with it.
const fn after_dot<'a>(name: &'a [u8], subsystem: &[u8]) -> Option<&'a [u8]> {
    match (name, subsystem) {
        ([b'.', tail @ ..], []) => Some(tail),
        ([a, name @ ..], [b, subsystem @ ..]) if *a == *b => after_dot(name, subsystem),
        _ => None,
    }
}

/// True when every byte of `tail` is in `[a-z0-9_]`.
const fn is_name(tail: &[u8]) -> bool {
    match tail {
        [] => true,
        [b, rest @ ..] => {
            (b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'_') && is_name(rest)
        }
    }
}

/// A metric name that follows the `subsystem.name` scheme. [`metric!`]
/// builds one in a `const` block, so a bad literal fails the build (E0080):
///
/// ```compile_fail,E0080
/// let _ = srb_obs::metric!("requests");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricName(&'static str);

impl MetricName {
    /// `name` as a metric name; panics when it breaks the scheme.
    pub const fn new(name: &'static str) -> MetricName {
        assert!(
            follows_scheme(name),
            "metric name violates the `subsystem.name` scheme (see srb_obs::SUBSYSTEMS)"
        );
        MetricName(name)
    }
}

impl std::fmt::Display for MetricName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// `metric!("core.ops")`: the [`MetricName`], checked at compile time.
#[macro_export]
macro_rules! metric {
    ($name:literal) => {
        const { $crate::MetricName::new($name) }
    };
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
    use proptest::prelude::*;

    #[test]
    fn naming_scheme() {
        assert!(follows_scheme("fanout.legs_dispatched"));
        assert!(follows_scheme("query.scope_cache_hits"));
        assert!(follows_scheme("web.requests"));
        assert!(!follows_scheme("fanout"), "missing name part");
        assert!(!follows_scheme("fanout."), "empty name part");
        assert!(!follows_scheme("replica.count"), "unknown subsystem");
        assert!(!follows_scheme("fanout.LegsStale"), "uppercase");
        assert!(!follows_scheme("fanout.legs stale"), "space");
        assert!(!follows_scheme("fanout.legs.stale"), "second dot");
        assert!(!follows_scheme(".ops"), "empty subsystem");
        assert!(
            !follows_scheme("cores.ops"),
            "a subsystem's prefix is not enough"
        );
    }

    #[test]
    fn new_panics_at_run_time_on_a_bad_name() {
        for bad in ["replica.count", "core.", "core.Ops", "core.ops.total"] {
            let built = std::panic::catch_unwind(|| MetricName::new(bad));
            assert!(built.is_err(), "{bad} was accepted");
        }
        assert_eq!(MetricName::new("core.ops").to_string(), "core.ops");
    }

    /// The scheme as `split_once` reads it: the reference the `const fn`
    /// [`follows_scheme`] must agree with.
    fn reference(name: &str) -> bool {
        name.split_once('.').is_some_and(|(subsystem, rest)| {
            SUBSYSTEMS.contains(&subsystem)
                && !rest.is_empty()
                && rest
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
    }

    proptest! {
        #[test]
        fn the_const_check_agrees_with_split_once(
            subsystem in 0..SUBSYSTEMS.len() + 2,
            cut in 0usize..2,
            tail in "[a-z0-9_.A-Z ]{0,6}",
        ) {
            // A known subsystem, one cut short, or none at all, then a tail
            // that may add a dot, a second dot, an uppercase letter or a space.
            let prefix = SUBSYSTEMS.get(subsystem).copied().unwrap_or("webby");
            let prefix = &prefix[..prefix.len() - cut];
            for name in [format!("{prefix}.{tail}"), format!("{prefix}{tail}")] {
                prop_assert_eq!(follows_scheme(&name), reference(&name), "{}", name);
            }
        }
    }

    #[test]
    fn obs_snapshot_combines_metrics_and_slow_ops() {
        let obs = Obs::new();
        obs.metrics.counter(metric!("core.ops"), "").add(3);
        obs.slow.record("open", "/zoo/a", OpCost::default());
        let snap = obs.snapshot();
        assert_eq!(snap.counters["core.ops"][""], 3);
        assert_eq!(snap.slow_ops.len(), 1);
        assert_eq!(snap.slow_ops[0].op, "open");
    }
}
