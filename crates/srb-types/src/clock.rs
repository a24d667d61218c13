//! Deterministic virtual time.
//!
//! Latency experiments must be reproducible regardless of the host machine,
//! so the simulated WAN charges costs against a virtual clock rather than
//! sleeping. The clock is a shared atomic nanosecond counter: storage
//! drivers and the network advance it (or, for concurrent workloads, compute
//! per-operation receipts against it) and benchmarks read it back.
//!
//! Wall-clock performance of the in-memory fast path is measured separately
//! (`gridbench`, the `exp` wall columns); the two never mix.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in virtual time, in nanoseconds since grid boot.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Nanoseconds since boot.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since boot (truncating).
    #[inline]
    pub fn micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Timestamp `d` nanoseconds later.
    #[inline]
    pub fn plus_nanos(self, d: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(d))
    }

    /// Timestamp `d` seconds later.
    #[inline]
    pub fn plus_secs(self, d: u64) -> Timestamp {
        self.plus_nanos(d.saturating_mul(1_000_000_000))
    }

    /// Duration in nanoseconds from `earlier` to `self` (0 if negative).
    #[inline]
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.micros();
        write!(f, "t+{}.{:06}s", us / 1_000_000, us % 1_000_000)
    }
}

/// Shared monotone virtual clock.
///
/// Cloning shares the underlying counter, so every subsystem created from
/// the same `Grid` observes a single time line.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock at t=0.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Timestamp {
        Timestamp(self.nanos.load(Ordering::Acquire))
    }

    /// Advance the clock by `d` nanoseconds and return the new time.
    ///
    /// Used by single-threaded simulations where operations happen strictly
    /// in sequence.
    #[inline]
    pub fn advance(&self, d: u64) -> Timestamp {
        Timestamp(self.nanos.fetch_add(d, Ordering::AcqRel) + d)
    }

    /// Move the clock forward to at least `t` (never backwards).
    ///
    /// Used by concurrent simulations: each worker computes its own finish
    /// time and publishes the maximum, so the clock reflects the makespan.
    pub fn advance_to(&self, t: Timestamp) -> Timestamp {
        let mut cur = self.nanos.load(Ordering::Acquire);
        while cur < t.0 {
            match self
                .nanos
                .compare_exchange_weak(cur, t.0, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        Timestamp(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        assert_eq!(c.now(), Timestamp(0));
        assert_eq!(c.advance(500), Timestamp(500));
        assert_eq!(c.advance(250), Timestamp(750));
        assert_eq!(c.now(), Timestamp(750));
    }

    #[test]
    fn clones_share_the_timeline() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(1_000);
        assert_eq!(b.now(), Timestamp(1_000));
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = SimClock::new();
        c.advance_to(Timestamp(100));
        assert_eq!(c.now(), Timestamp(100));
        // Never moves backwards.
        c.advance_to(Timestamp(50));
        assert_eq!(c.now(), Timestamp(100));
        c.advance_to(Timestamp(170));
        assert_eq!(c.now(), Timestamp(170));
    }

    #[test]
    fn advance_to_under_contention_keeps_max() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for j in 0..1000u64 {
                        c.advance_to(Timestamp(i * 1000 + j));
                    }
                });
            }
        });
        assert_eq!(c.now(), Timestamp(7999));
    }

    #[test]
    fn timestamp_conversions() {
        let t = Timestamp(3_456_789_012);
        assert_eq!(t.micros(), 3_456_789);
        assert_eq!(t.plus_secs(2), Timestamp(5_456_789_012));
        assert_eq!(t.since(Timestamp(456_789_012)), 3_000_000_000);
        assert_eq!(Timestamp(0).since(t), 0);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(Timestamp(1_500_000_000).to_string(), "t+1.500000s");
    }
}
