//! Generation stamps for derived-data caches.
//!
//! A cache over mutable catalog state (e.g. the collection-subtree cache
//! feeding the query planner) needs a cheap way to know whether its entries
//! are still valid. A [`GenCounter`] is bumped by every mutation of the
//! underlying table; each cache entry records the [`Generation`] current
//! when it was computed and is treated as stale the moment the counter has
//! moved on. Readers never block writers: the counter is a single atomic,
//! read outside any table lock.
//!
//! The same file defines [`Lsn`], the log sequence number stamped on every
//! write-ahead-log record: like a generation it is a monotone position in a
//! mutation history, but one that is durable and totally ordered across all
//! catalog tables rather than private to one.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Log sequence number: the position of one record in the catalog's
/// write-ahead log. LSN 0 is reserved ("before every record"); the first
/// record appended is LSN 1. Checkpoints store the LSN of the last record
/// they cover; recovery replays records with strictly greater LSNs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The raw sequence number.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The LSN of the next record after this one.
    #[inline]
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn{}", self.0)
    }
}

/// An opaque point in a table's mutation history. Two equal generations
/// bracket a window with no mutations; anything else proves nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Generation(u64);

impl Generation {
    /// The raw counter value (diagnostics and durable-log records only).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A monotone mutation counter owned by a table; see the module docs.
#[derive(Debug, Default)]
pub struct GenCounter(AtomicU64);

impl GenCounter {
    /// A counter at generation zero.
    pub const fn new() -> Self {
        GenCounter(AtomicU64::new(0))
    }

    /// The current generation. `Acquire` pairs with the `Release` in
    /// [`bump_get`](Self::bump_get): a reader that observes generation `g` also
    /// observes every table write that happened before the bump to `g`.
    pub fn current(&self) -> Generation {
        Generation(self.0.load(Ordering::Acquire))
    }

    /// Record one mutation, invalidating every stamp taken earlier, and
    /// return the *post*-bump generation — the
    /// stamp a durable log record must carry so replaying it reproduces
    /// exactly this counter state.
    pub fn bump_get(&self) -> Generation {
        Generation(self.0.fetch_add(1, Ordering::Release) + 1)
    }

    /// Raise the counter to at least `raw` (never lowers it). Used when
    /// restoring a table from a checkpoint + log tail: stamps minted
    /// before the crash stay comparable after recovery.
    pub fn ensure_at_least(&self, raw: u64) {
        let mut cur = self.0.load(Ordering::Acquire);
        while cur < raw {
            match self
                .0
                .compare_exchange_weak(cur, raw, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_equal_until_bumped() {
        let c = GenCounter::new();
        let a = c.current();
        let b = c.current();
        assert_eq!(a, b);
        c.bump_get();
        assert_ne!(a, c.current());
        assert_eq!(c.current().raw(), 1);
    }

    #[test]
    fn lsn_orders_and_displays() {
        assert!(Lsn(1) < Lsn(2));
        assert_eq!(Lsn(7).next(), Lsn(8));
        assert_eq!(Lsn(7).to_string(), "lsn7");
        assert_eq!(Lsn::default().raw(), 0);
    }

    #[test]
    fn bump_get_returns_the_post_bump_stamp() {
        let c = GenCounter::new();
        let g = c.bump_get();
        assert_eq!(g.raw(), 1);
        assert_eq!(c.current(), g);
        assert_eq!(c.bump_get().raw(), 2);
    }

    #[test]
    fn ensure_at_least_is_monotone() {
        let c = GenCounter::new();
        c.ensure_at_least(7);
        assert_eq!(c.current().raw(), 7);
        c.ensure_at_least(3); // never lowers
        assert_eq!(c.current().raw(), 7);
        assert_eq!(c.current(), Generation(7));
    }

    #[test]
    fn bumps_are_cumulative_across_threads() {
        let c = GenCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        c.bump_get();
                    }
                });
            }
        });
        assert_eq!(c.current().raw(), 400);
    }
}
