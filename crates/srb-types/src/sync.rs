//! Ranked lock wrappers: the grid-wide lock hierarchy plus a runtime
//! deadlock detector.
//!
//! One MCAT and many storage drivers are shared by every concurrent client,
//! so a single inverted lock acquisition anywhere in the workspace can
//! deadlock the whole grid. Instead of documenting an ordering convention,
//! every lock in the workspace is a [`Mutex`]/[`RwLock`] from this module,
//! carrying a static [`LockRank`]. A thread-local stack records the ranks a
//! thread currently holds; in debug builds (and under `cargo test`),
//! acquiring a lock of **higher** rank than one already held panics with
//! both lock names — turning a potential production deadlock into a
//! deterministic test failure.
//!
//! # The hierarchy
//!
//! Ranks mirror the call direction of the system, outermost first: a web
//! session calls into core state, which consults MCAT tables, which reach
//! storage drivers, which charge transfer costs against the network
//! topology. A thread must acquire locks in non-increasing rank order:
//!
//! | rank (acquired earlier) | [`LockRank`]  | owning layer                        |
//! |------------------------:|---------------|-------------------------------------|
//! | 7                       | `Session`     | `mysrb` web sessions                |
//! | 6                       | `ZoneFed`     | `srb-core` federation membership    |
//! | 5                       | `ZoneLink`    | `srb-core` zone peering link state  |
//! | 4                       | `CoreState`   | `srb-core` auth/pool/proxy state    |
//! | 3                       | `McatTable`   | `srb-mcat` catalog tables           |
//! | 2                       | `Wal`         | `srb-mcat` write-ahead log buffer   |
//! | 1                       | `Storage`     | `srb-storage` driver internals      |
//! | 0                       | `Topology`    | `srb-net` faults/health, `srb-obs`  |
//!
//! Locks of **equal** rank may be held simultaneously (the catalog routinely
//! holds several table locks); same-rank siblings are only acquired from
//! within one owning module, which keeps their relative order consistent.
//!
//! The locks underneath are `std::sync`'s. A holder that panics does not
//! poison the grid: every acquisition recovers a poisoned lock and hands
//! out its guard. Naming a raw std `Mutex`/`RwLock` outside this module is
//! rejected by clippy (`disallowed-types` in the root `clippy.toml`).

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// Position of a lock in the grid-wide hierarchy. See the module docs for
/// the full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockRank {
    /// `srb-net`: fault injection and breaker cells; `srb-obs` registries.
    Topology = 0,
    /// `srb-storage`: driver-internal state (shards, staging sets, tables).
    Storage = 1,
    /// `srb-mcat`: the write-ahead log buffer (appended to while a table
    /// lock is held, so it sits strictly below `McatTable`).
    Wal = 2,
    /// `srb-mcat`: one catalog table (users, datasets, metadata, ...).
    McatTable = 3,
    /// `srb-core`: auth sessions, connection pool, proxy registries.
    CoreState = 4,
    /// `srb-core`: one zone-peering link's outbox, cursors and lag state.
    /// The replication pump holds a link lock while applying deltas to the
    /// subscriber's catalog tables, so links sit strictly above `CoreState`.
    ZoneLink = 5,
    /// `srb-core`: federation membership and subscription registry — the
    /// routing table consulted before any per-link state is touched.
    ZoneFed = 6,
    /// `mysrb`: web session table and its id generator.
    Session = 7,
}

/// A rank-order violation detected at acquisition time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankViolation {
    /// Lock being acquired.
    pub acquiring: &'static str,
    /// Rank of the lock being acquired.
    pub acquiring_rank: LockRank,
    /// Already-held lock that forbids the acquisition.
    pub held: &'static str,
    /// Rank of that already-held lock.
    pub held_rank: LockRank,
}

impl fmt::Display for RankViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock rank inversion: acquiring `{}` (rank {:?}={}) while holding \
             `{}` (rank {:?}={}); locks must be acquired in non-increasing \
             rank order (see srb_types::sync)",
            self.acquiring,
            self.acquiring_rank,
            self.acquiring_rank as u8,
            self.held,
            self.held_rank,
            self.held_rank as u8,
        )
    }
}

thread_local! {
    /// (token, rank, name) for every ranked lock this thread holds.
    static HELD: RefCell<Vec<(u64, LockRank, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// Check whether acquiring `rank` now would invert the hierarchy on this
/// thread. Exposed (hidden) so property tests can probe the checker without
/// catching panics.
#[doc(hidden)]
pub fn check_acquire(rank: LockRank, name: &'static str) -> Result<(), RankViolation> {
    HELD.with(|held| {
        for &(_, held_rank, held_name) in held.borrow().iter() {
            if rank > held_rank {
                return Err(RankViolation {
                    acquiring: name,
                    acquiring_rank: rank,
                    held: held_name,
                    held_rank,
                });
            }
        }
        Ok(())
    })
}

/// Ranks currently held by this thread, outermost first (test helper).
#[doc(hidden)]
pub fn held_ranks() -> Vec<LockRank> {
    HELD.with(|held| held.borrow().iter().map(|&(_, r, _)| r).collect())
}

/// RAII registration of a held rank; removal is by token so guards may be
/// dropped in any order.
struct HeldToken {
    token: u64,
}

impl HeldToken {
    fn register(rank: LockRank, name: &'static str) -> HeldToken {
        use std::sync::atomic::{AtomicU64, Ordering};
        if let Err(violation) = check_acquire(rank, name) {
            panic!("{violation}");
        }
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let token = NEXT.fetch_add(1, Ordering::Relaxed);
        HELD.with(|held| held.borrow_mut().push((token, rank, name)));
        HeldToken { token }
    }
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(t, _, _)| t == self.token) {
                held.remove(pos);
            }
        });
    }
}

/// Rank bookkeeping only runs where inversions should panic: debug builds
/// and tests. Release builds skip the thread-local entirely.
#[inline]
fn checking_enabled() -> bool {
    cfg!(any(debug_assertions, test))
}

fn maybe_register(rank: LockRank, name: &'static str) -> Option<HeldToken> {
    checking_enabled().then(|| HeldToken::register(rank, name))
}

// ------------------------------------------------------------------ Mutex --

/// A ranked mutual-exclusion lock.
pub struct Mutex<T: ?Sized> {
    rank: LockRank,
    name: &'static str,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// New mutex at `rank`; `name` identifies it in violation reports
    /// (convention: `"layer.field"`, e.g. `"mcat.audit"`).
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        Mutex {
            rank,
            name,
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, enforcing rank order in debug builds.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = maybe_register(self.rank, self.name);
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }

    /// This lock's rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// This lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for [`Mutex`]; releases the rank entry on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    _token: Option<HeldToken>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

// ----------------------------------------------------------------- RwLock --

/// A ranked readers-writer lock.
pub struct RwLock<T: ?Sized> {
    rank: LockRank,
    name: &'static str,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// New lock at `rank`; `name` identifies it in violation reports.
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        RwLock {
            rank,
            name,
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, enforcing rank order in debug builds.
    ///
    /// Reads participate in the hierarchy like writes: a blocked writer
    /// ahead of us in the queue makes reader/writer inversions deadlock
    /// just as surely as writer/writer ones.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = maybe_register(self.rank, self.name);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }

    /// Acquire an exclusive write guard, enforcing rank order in debug builds.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = maybe_register(self.rank, self.name);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }

    /// This lock's rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// This lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard for [`RwLock`]; releases the rank entry on drop.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _token: Option<HeldToken>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard for [`RwLock`]; releases the rank entry on drop.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _token: Option<HeldToken>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descending_rank_order_is_allowed() {
        let outer = Mutex::new(LockRank::Session, "test.outer", ());
        let mid = RwLock::new(LockRank::McatTable, "test.mid", ());
        let inner = Mutex::new(LockRank::Topology, "test.inner", ());
        let _a = outer.lock();
        let _b = mid.read();
        let _c = inner.lock();
        assert_eq!(
            held_ranks(),
            vec![LockRank::Session, LockRank::McatTable, LockRank::Topology]
        );
    }

    #[test]
    fn equal_rank_is_allowed() {
        // The catalog holds several table locks at once; same-rank
        // acquisition is explicitly permitted.
        let a = RwLock::new(LockRank::McatTable, "test.table_a", ());
        let b = RwLock::new(LockRank::McatTable, "test.table_b", ());
        let _ga = a.write();
        let _gb = b.read();
        assert_eq!(held_ranks(), vec![LockRank::McatTable, LockRank::McatTable]);
    }

    #[test]
    #[should_panic(expected = "lock rank inversion")]
    fn inverted_order_panics() {
        let storage = Mutex::new(LockRank::Storage, "test.storage", ());
        let core = RwLock::new(LockRank::CoreState, "test.core", ());
        let _g = storage.lock();
        let _h = core.read(); // storage (1) held, core (3) wanted: inversion
    }

    #[test]
    #[should_panic(expected = "lock rank inversion")]
    fn read_guards_participate_in_ranking() {
        let topo = RwLock::new(LockRank::Topology, "test.topo", ());
        let session = RwLock::new(LockRank::Session, "test.session", ());
        let _g = topo.read();
        let _h = session.read();
    }

    #[test]
    fn out_of_order_guard_drops_unwind_correctly() {
        let outer = Mutex::new(LockRank::CoreState, "test.outer2", ());
        let inner = Mutex::new(LockRank::Storage, "test.inner2", ());
        let a = outer.lock();
        let b = inner.lock();
        drop(a); // release outer first: token removal is positional, not LIFO
        assert_eq!(held_ranks(), vec![LockRank::Storage]);
        drop(b);
        assert!(held_ranks().is_empty());
        // After everything is released, an outer acquisition works again.
        let _c = outer.lock();
    }

    #[test]
    fn violation_message_names_both_locks() {
        let inner = Mutex::new(LockRank::Storage, "test.named_inner", ());
        let _g = inner.lock();
        let violation = check_acquire(LockRank::Session, "test.named_outer").unwrap_err();
        let msg = violation.to_string();
        assert!(msg.contains("test.named_outer") && msg.contains("test.named_inner"));
        assert_eq!(violation.held_rank, LockRank::Storage);
    }

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(LockRank::Storage, "test.round_trip", 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(LockRank::McatTable, "test.readers", vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    /// A holder that panics does not poison the grid: the next `lock`,
    /// `read` and `write` all get the value.
    #[test]
    fn poisoned_lock_recovers() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(LockRank::Storage, "test.poisoned_mutex", 0));
        let l = Arc::new(RwLock::new(LockRank::McatTable, "test.poisoned_rw", 0));
        let (m2, l2) = (m.clone(), l.clone());
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the rwlock");
        })
        .join();
        assert!(m.inner.is_poisoned() && l.inner.is_poisoned());

        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
        assert_eq!(*l.read(), 0);
        *l.write() += 2;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn checker_is_per_thread() {
        let inner = Mutex::new(LockRank::Topology, "test.thread_inner", ());
        let _g = inner.lock();
        // Another thread holds nothing, so any acquisition is fine there.
        std::thread::spawn(|| {
            assert!(check_acquire(LockRank::Session, "test.elsewhere").is_ok());
        })
        .join()
        .unwrap();
    }

    /// The module-doc hierarchy table is documentation of record (and what
    /// `cargo xtask analyze` points people at), so it must list exactly
    /// the `LockRank` variants with their actual discriminants.
    #[test]
    fn module_doc_table_matches_the_enum() {
        let src = include_str!("sync.rs");

        // Rows of the doc table: `//! | <rank> | \`<Variant>\` | ... |`.
        let mut doc_rows = Vec::new();
        for line in src.lines() {
            let Some(row) = line.trim().strip_prefix("//! |") else {
                continue;
            };
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            if cells.len() < 2 {
                continue;
            }
            let (Ok(rank), Some(variant)) = (
                cells[0].parse::<u8>(),
                cells[1].strip_prefix('`').and_then(|c| c.strip_suffix('`')),
            ) else {
                continue; // header / separator rows
            };
            doc_rows.push((variant.to_string(), rank));
        }

        // Variants of the enum itself: `<Variant> = <n>,` inside
        // `pub enum LockRank { ... }`.
        let body = src
            .split_once("pub enum LockRank {")
            .map(|(_, rest)| rest.split_once('}').map(|(b, _)| b).unwrap_or(rest))
            .expect("enum LockRank present in sync.rs");
        let mut enum_rows = Vec::new();
        for line in body.lines() {
            let line = line.trim();
            if line.starts_with("///") {
                continue;
            }
            if let Some((variant, rest)) = line.split_once('=') {
                let rank: u8 = rest
                    .trim()
                    .trim_end_matches(',')
                    .parse()
                    .expect("explicit discriminant");
                enum_rows.push((variant.trim().to_string(), rank));
            }
        }

        assert!(!enum_rows.is_empty(), "found no LockRank variants");
        // The table lists ranks descending (acquired-earlier first); the
        // enum ascends. Compare as sets of (variant, rank) plus counts, so
        // a renamed variant, changed discriminant, added rank, or dropped
        // table row all fail.
        let mut doc_sorted = doc_rows.clone();
        doc_sorted.sort();
        let mut enum_sorted = enum_rows.clone();
        enum_sorted.sort();
        assert_eq!(
            doc_sorted, enum_sorted,
            "module-doc rank table out of sync with the LockRank enum"
        );
        // And the documented order really is descending.
        let ranks: Vec<u8> = doc_rows.iter().map(|&(_, r)| r).collect();
        let mut descending = ranks.clone();
        descending.sort_by(|a, b| b.cmp(a));
        assert_eq!(ranks, descending, "doc table must list ranks descending");
    }
}
