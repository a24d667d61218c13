//! The typed metrics snapshot and its text rendering.
//!
//! Every container is ordered (`BTreeMap` keyed by metric name then
//! label; the slow-op log arrives pre-sorted), so serializing a snapshot
//! of a seeded run is **byte-identical** across replays. The chaos oracle
//! relies on this to diff whole snapshots instead of cherry-picking
//! counters.

pub use crate::metrics::HistogramSnapshot;
use crate::slowlog::SlowOp;
use crate::MetricName;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Point-in-time state of every metric in one grid, plus the slow-op log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values: name → label → count.
    pub counters: BTreeMap<String, BTreeMap<String, u64>>,
    /// Gauge values: name → label → value.
    pub gauges: BTreeMap<String, BTreeMap<String, i64>>,
    /// Histogram summaries: name → label → quantiles.
    pub histograms: BTreeMap<String, BTreeMap<String, HistogramSnapshot>>,
    /// The slowest operations, slowest first.
    pub slow_ops: Vec<SlowOp>,
}

impl MetricsSnapshot {
    /// Sum of one counter family across labels (0 when unregistered).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |fam| fam.values().sum())
    }

    /// One counter value (0 when unregistered).
    pub fn counter(&self, name: MetricName, label: &str) -> u64 {
        self.counters
            .get(name.0)
            .and_then(|fam| fam.get(label))
            .copied()
            .unwrap_or(0)
    }

    /// One gauge value (0 when unregistered).
    pub fn gauge(&self, name: MetricName, label: &str) -> i64 {
        self.gauges
            .get(name.0)
            .and_then(|fam| fam.get(label))
            .copied()
            .unwrap_or(0)
    }

    /// Render the exposition text served at `/metrics`: one line per
    /// sample, `name{label} value`, sorted, followed by the slow-op log
    /// as comments. Deterministic byte-for-byte for seeded runs.
    pub fn render_text(&self) -> String {
        fn key(name: &str, label: &str) -> String {
            if label.is_empty() {
                name.to_string()
            } else {
                format!("{name}{{{label}}}")
            }
        }
        let mut out = String::new();
        for (name, fam) in &self.counters {
            for (label, v) in fam {
                let _ = writeln!(out, "{} {v}", key(name, label));
            }
        }
        for (name, fam) in &self.gauges {
            for (label, v) in fam {
                let _ = writeln!(out, "{} {v}", key(name, label));
            }
        }
        for (name, fam) in &self.histograms {
            for (label, h) in fam {
                let k = key(name, label);
                let _ = writeln!(
                    out,
                    "{k} count={} sum={} p50={} p95={} p99={} max={}",
                    h.count, h.sum, h.p50, h.p95, h.p99, h.max
                );
            }
        }
        for e in &self.slow_ops {
            let _ = writeln!(
                out,
                "# slow_op seq={} op={} subject={} sim_ns={} bytes={} \
                 messages={} hops={} replicas_tried={} retries={} served_stale={}",
                e.seq,
                e.op,
                e.subject,
                e.cost.sim_ns,
                e.cost.bytes,
                e.cost.messages,
                e.cost.hops,
                e.cost.replicas_tried,
                e.cost.retries,
                e.cost.served_stale
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric;
    use crate::{Obs, OpCost};

    fn sample_obs() -> Obs {
        let obs = Obs::new();
        obs.metrics
            .counter(metric!("web.requests"), "/query")
            .add(7);
        obs.metrics
            .gauge(metric!("health.breaker_state"), "fs2")
            .set(2);
        obs.metrics
            .histogram(metric!("core.op_ns"), "open")
            .observe(4_096);
        obs.slow.record(
            "open",
            "/zoo/a",
            OpCost {
                sim_ns: 4_096,
                bytes: 1_024,
                messages: 2,
                ..OpCost::default()
            },
        );
        obs
    }

    #[test]
    fn render_text_is_sorted_and_complete() {
        let text = sample_obs().snapshot().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "web.requests{/query} 7");
        assert_eq!(lines[1], "health.breaker_state{fs2} 2");
        assert!(lines[2].starts_with("core.op_ns{open} count=1 sum=4096"));
        assert!(lines[3].starts_with("# slow_op seq=1 op=open subject=/zoo/a"));
    }

    #[test]
    fn snapshot_serialization_is_stable() {
        let obs = sample_obs();
        let a = serde_json::to_string(&obs.snapshot()).expect("snapshot serializes");
        let b = serde_json::to_string(&obs.snapshot()).expect("snapshot serializes");
        assert_eq!(a, b);
        let back: MetricsSnapshot = serde_json::from_str(&a).expect("snapshot parses");
        assert_eq!(back, obs.snapshot());
    }

    #[test]
    fn accessors_default_to_zero() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.counter_total("fanout.legs_dispatched"), 0);
        assert_eq!(snap.counter(metric!("web.requests"), "/query"), 0);
        assert_eq!(snap.gauge(metric!("health.breaker_state"), "fs1"), 0);
    }
}
