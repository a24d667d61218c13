//! The metrics registry: counters, gauges and log₂ histograms.
//!
//! Handles are `Arc`s of atomics, so recording is a single `fetch_add`
//! with no lock. The registry maps live behind ranked `RwLock`s at
//! [`LockRank::Topology`], the bottom of the hierarchy, so registration
//! (and snapshotting) is legal while holding any other lock in the
//! workspace. Callers on hot paths should register once and keep the
//! handle; `counter()`/`gauge()`/`histogram()` are still cheap on the
//! re-registration path (one read lock, two `BTreeMap` probes, no
//! allocation on hit) for call sites where caching a handle is awkward.

use crate::MetricName;
use serde::{Deserialize, Serialize};
use srb_types::sync::RwLock;
use srb_types::LockRank;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Count one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that moves both ways (breaker state, queue depth).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `i` holds values in `[2^(i-1), 2^i)`,
/// bucket 0 holds zero, bucket 64 holds `>= 2^63`.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log₂-bucketed distribution of a virtual-time or size quantity.
///
/// p50/p95/p99 are derivable from the buckets (reported as the bucket's
/// upper bound, clamped to the exact observed maximum), which is all the
/// resolution a "which leg is slow" question needs at the cost of 65
/// atomics instead of a reservoir.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

/// Index of the log₂ bucket holding `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Upper bound of bucket `i` (inclusive).
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let core = &*self.0;
        core.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Snapshot count, sum, max and the standard quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.0;
        let buckets: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let max = core.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                cum += n;
                if cum >= target {
                    return bucket_upper(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (mean = sum / count).
    pub sum: u64,
    /// Exact largest observation.
    pub max: u64,
    /// Median, as the log₂ bucket upper bound (clamped to `max`).
    pub p50: u64,
    /// 95th percentile, same resolution.
    pub p95: u64,
    /// 99th percentile, same resolution.
    pub p99: u64,
}

/// Per-metric family map: label → handle. Nested maps keep lookups
/// allocation-free and snapshots deterministically ordered.
type Family<H> = BTreeMap<String, H>;

/// Metric name → family. A [`MetricName`] is a checked `&'static str`, so
/// the name keys cost no allocation.
type Families<H> = RwLock<BTreeMap<&'static str, Family<H>>>;

struct Inner {
    counters: Families<Counter>,
    gauges: Families<Gauge>,
    histograms: Families<Histogram>,
}

/// The registry. Cloning shares all metrics; every subsystem of one grid
/// holds a clone of the same registry.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

fn get_or_register<H: Clone + Default>(map: &Families<H>, name: MetricName, label: &str) -> H {
    if let Some(h) = map.read().get(name.0).and_then(|f| f.get(label)) {
        return h.clone();
    }
    let mut w = map.write();
    w.entry(name.0)
        .or_default()
        .entry(label.to_string())
        .or_default()
        .clone()
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(Inner {
                counters: RwLock::new(LockRank::Topology, "obs.counters", BTreeMap::new()),
                gauges: RwLock::new(LockRank::Topology, "obs.gauges", BTreeMap::new()),
                histograms: RwLock::new(LockRank::Topology, "obs.histograms", BTreeMap::new()),
            }),
        }
    }

    /// The counter `name{label}`, registering it on first use.
    pub fn counter(&self, name: MetricName, label: &str) -> Counter {
        get_or_register(&self.inner.counters, name, label)
    }

    /// The gauge `name{label}`, registering it on first use.
    pub fn gauge(&self, name: MetricName, label: &str) -> Gauge {
        get_or_register(&self.inner.gauges, name, label)
    }

    /// The histogram `name{label}`, registering it on first use.
    pub fn histogram(&self, name: MetricName, label: &str) -> Histogram {
        get_or_register(&self.inner.histograms, name, label)
    }

    /// One counter's value, read in place: nothing is registered or
    /// copied (0 when unregistered).
    pub fn counter_value(&self, name: MetricName, label: &str) -> u64 {
        let counters = self.inner.counters.read();
        let family = counters.get(name.0);
        family.and_then(|f| f.get(label)).map_or(0, Counter::get)
    }

    /// Sum of one counter family across labels, read in place (0 when
    /// unregistered).
    pub fn counter_total(&self, name: MetricName) -> u64 {
        let counters = self.inner.counters.read();
        let family = counters.get(name.0);
        family.map_or(0, |f| f.values().map(Counter::get).sum())
    }

    /// Deterministic point-in-time snapshot of every registered metric
    /// (the slow-op log is merged in by [`crate::Obs::snapshot`]).
    pub fn snapshot(&self) -> crate::MetricsSnapshot {
        let inner = &*self.inner;
        crate::MetricsSnapshot {
            counters: values(&inner.counters, Counter::get),
            gauges: values(&inner.gauges, Gauge::get),
            histograms: values(&inner.histograms, Histogram::snapshot),
            slow_ops: Vec::new(),
        }
    }
}

/// Every handle's `value`, by metric name then label.
fn values<H, V>(map: &Families<H>, value: fn(&H) -> V) -> BTreeMap<String, BTreeMap<String, V>> {
    let family = |fam: &Family<H>| fam.iter().map(|(l, h)| (l.clone(), value(h))).collect();
    map.read()
        .iter()
        .map(|(name, fam)| (name.to_string(), family(fam)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter(metric!("core.ops"), "");
        c.inc();
        c.add(4);
        // Re-registration returns the same underlying atomic.
        assert_eq!(reg.counter(metric!("core.ops"), "").get(), 5);
        let g = reg.gauge(metric!("health.breaker_state"), "fs2");
        g.set(2);
        g.add(-1);
        assert_eq!(reg.gauge(metric!("health.breaker_state"), "fs2").get(), 1);
    }

    #[test]
    #[should_panic(expected = "subsystem.name")]
    fn bad_name_panics_at_registration() {
        MetricsRegistry::new().counter(MetricName::new("bogus.metric"), "");
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..64 {
            assert_eq!(bucket_of(bucket_upper(i)), i, "upper bound stays in bucket");
            assert_eq!(bucket_of(bucket_upper(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram(metric!("core.op_ns"), "");
        // 100 observations: 90 cheap (~1us), 10 expensive (~1ms).
        for _ in 0..90 {
            h.observe(1_000);
        }
        for _ in 0..10 {
            h.observe(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 1_000_000);
        assert!(s.p50 < 2_048, "median in the cheap bucket, got {}", s.p50);
        assert!(
            s.p95 >= 524_288,
            "p95 in the expensive bucket, got {}",
            s.p95
        );
        assert_eq!(s.p99, 1_000_000, "p99 clamps to the exact max");
        assert_eq!(s.sum, 90 * 1_000 + 10 * 1_000_000);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let reg = MetricsRegistry::new();
        let s = reg.histogram(metric!("core.op_ns"), "x").snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                p50: 0,
                p95: 0,
                p99: 0
            }
        );
    }

    /// In-place reads agree with the snapshot and register nothing.
    #[test]
    fn counters_read_in_place_as_the_snapshot_does() {
        let reg = MetricsRegistry::new();
        reg.counter(metric!("fanout.legs_failed"), "a").add(2);
        reg.counter(metric!("fanout.legs_failed"), "b").add(5);
        let snap = reg.snapshot();
        assert_eq!(reg.counter_total(metric!("fanout.legs_failed")), 7);
        assert_eq!(snap.counter_total("fanout.legs_failed"), 7);
        assert_eq!(reg.counter_value(metric!("fanout.legs_failed"), "b"), 5);
        assert_eq!(reg.counter_value(metric!("fanout.legs_failed"), "c"), 0);
        assert_eq!(reg.counter_total(metric!("fanout.legs_stale")), 0);
        assert_eq!(reg.snapshot(), snap, "reads register nothing");
    }

    #[test]
    fn snapshot_orders_names_and_labels() {
        let reg = MetricsRegistry::new();
        reg.counter(metric!("web.requests"), "/query").inc();
        reg.counter(metric!("web.requests"), "/browse").inc();
        reg.counter(metric!("core.ops"), "").inc();
        let snap = reg.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["core.ops", "web.requests"]);
        let labels: Vec<&String> = snap.counters["web.requests"].keys().collect();
        assert_eq!(labels, ["/browse", "/query"]);
    }
}
