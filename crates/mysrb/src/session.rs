//! Web session keys, sharded for million-session scale.
//!
//! "Each session to MySRB is given a unique session key (stored as an
//! in-memory cookie at the Browser). These session keys have a maximum
//! time-limit set on them (currently 60 minutes). MySRB also performs
//! security checks on the session keys when validating a user request."
//!
//! A key is `hex(16-byte id) . hex(HMAC-tag)`: the tag is the integrity
//! check, the id the identifier. Keys expire after 60 virtual minutes;
//! validation checks format, tag, table membership, and expiry.
//!
//! The table is sharded N ways (FNV-1a of the id → shard, each shard its
//! own ranked `RwLock`), so create/validate on different shards never
//! contend. Ids come from per-shard splitmix64 counters — the PR 4 fault
//! engine's scheme — so there is no global RNG mutex and key generation
//! is deterministic per seed. Expired sessions are evicted on sight when
//! their own key is presented, and reclaimed in bulk by a bounded
//! amortized sweep over per-shard FIFO expiry queues (valid FIFO because
//! the TTL is fixed and the virtual clock is monotone).

use srb_core::SrbConnection;
use srb_obs::{Counter, Gauge, MetricsRegistry};
use srb_types::sync::{LockRank, RwLock};
use srb_types::{
    ct_eq, fnv1a64, from_hex, splitmix64, to_hex, HmacKey, SimClock, SrbError, SrbResult, Timestamp,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Maximum session lifetime: 60 minutes (virtual).
pub const WEB_SESSION_TTL_SECS: u64 = 60 * 60;

/// One authenticated browser session.
pub(crate) struct WebSession<'g> {
    /// The underlying SRB connection.
    pub conn: SrbConnection<'g>,
    /// `name@domain` for display.
    pub user_label: String,
    /// Hard expiry.
    pub expires: Timestamp,
}

/// Store tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Number of shards. 1 is the single-lock ablation mode.
    pub shards: usize,
    /// Max expired entries reclaimed opportunistically per `create`.
    pub sweep_budget: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            shards: 64,
            sweep_budget: 8,
        }
    }
}

struct ShardInner<'g> {
    table: HashMap<[u8; 16], WebSession<'g>>,
    /// `(id, expires)` in creation = expiry order (fixed TTL, monotone
    /// clock). Logged-out ids stay as tombstones until their slot is
    /// swept.
    expiry: VecDeque<([u8; 16], Timestamp)>,
}

struct Shard<'g> {
    /// Per-shard draw counter for splitmix64 key generation.
    keygen: AtomicU64,
    inner: RwLock<ShardInner<'g>>,
}

#[derive(Clone)]
struct SessionMetrics {
    live: Gauge,
    created: Counter,
    expired: Counter,
}

/// The session-key table.
pub struct SessionStore<'g> {
    clock: SimClock,
    /// The fixed key every session id is signed under, absorbed once.
    secret: HmacKey,
    seed: u64,
    shards: Box<[Shard<'g>]>,
    /// Round-robins `create` calls across keygen streams.
    create_seq: AtomicU64,
    /// Round-robins `sweep_expired` calls across shards.
    sweep_cursor: AtomicUsize,
    sweep_budget: usize,
    metrics: Option<SessionMetrics>,
}

impl<'g> SessionStore<'g> {
    /// New store with default sharding. `seed` keeps key generation
    /// deterministic.
    pub fn new(clock: SimClock, seed: u64) -> Self {
        Self::with_config(clock, seed, SessionConfig::default())
    }

    /// New store with explicit shard count / sweep budget.
    pub fn with_config(clock: SimClock, seed: u64, config: SessionConfig) -> Self {
        let n = config.shards.max(1);
        let mut secret = [0u8; 32];
        for (i, chunk) in secret.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&splitmix64(seed ^ 0x5eb_5ec8e7, i as u64).to_le_bytes());
        }
        SessionStore {
            clock,
            secret: HmacKey::new(&secret),
            seed,
            shards: (0..n)
                .map(|_| Shard {
                    keygen: AtomicU64::new(0),
                    inner: RwLock::new(
                        LockRank::Session,
                        "web.session.shard",
                        ShardInner {
                            table: HashMap::new(),
                            expiry: VecDeque::new(),
                        },
                    ),
                })
                .collect(),
            create_seq: AtomicU64::new(0),
            sweep_cursor: AtomicUsize::new(0),
            sweep_budget: config.sweep_budget,
            metrics: None,
        }
    }

    /// Attach web-tier metrics (live gauge + create/expire counters).
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(SessionMetrics {
            live: registry.gauge("web.session_live", "all"),
            created: registry.counter("web.session_created", "all"),
            expired: registry.counter("web.session_expired", "all"),
        });
        self
    }

    fn shard_of(&self, id: &[u8; 16]) -> usize {
        (fnv1a64(&[id]) % self.shards.len() as u64) as usize
    }

    /// Mint a key for an authenticated connection.
    ///
    /// Amortizes reclamation: before inserting, up to `sweep_budget`
    /// expired entries on the target shard are reclaimed (O(k), no
    /// full-table scan ever happens on the request path).
    pub fn create(&self, conn: SrbConnection<'g>, user_label: &str) -> String {
        let n = self.shards.len() as u64;
        let g = self.create_seq.fetch_add(1, Ordering::Relaxed) % n;
        let draw = self.shards[g as usize]
            .keygen
            .fetch_add(1, Ordering::Relaxed);
        let stream = splitmix64(self.seed, g + 1);
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&splitmix64(stream, 2 * draw).to_le_bytes());
        id[8..].copy_from_slice(&splitmix64(stream, 2 * draw + 1).to_le_bytes());
        let tag = self.secret.sign(&id);
        let key = format!("{}.{}", to_hex(&id), to_hex(&tag[..8]));
        let now = self.clock.now();
        let expires = now.plus_secs(WEB_SESSION_TTL_SECS);
        let reclaimed = {
            let mut inner = self.shards[self.shard_of(&id)].inner.write();
            let reclaimed = Self::sweep_shard(&mut inner, now, self.sweep_budget).1;
            inner.table.insert(
                id,
                WebSession {
                    conn,
                    user_label: user_label.to_string(),
                    expires,
                },
            );
            inner.expiry.push_back((id, expires));
            reclaimed
        };
        if let Some(m) = &self.metrics {
            m.created.inc();
            m.expired.add(reclaimed);
            m.live.add(1 - reclaimed as i64);
        }
        key
    }

    /// The paper's "security checks" (format + HMAC tag), yielding the
    /// table id.
    fn parse(&self, key: &str) -> SrbResult<[u8; 16]> {
        let malformed = || SrbError::AuthFailed("malformed session key".into());
        let (id_hex, tag_hex) = key.split_once('.').ok_or_else(malformed)?;
        let id_bytes = from_hex(id_hex).ok_or_else(malformed)?;
        let id: [u8; 16] = id_bytes.try_into().map_err(|_| malformed())?;
        let expect = self.secret.sign(&id);
        let got = from_hex(tag_hex).ok_or_else(malformed)?;
        if !ct_eq(&expect[..8], &got) {
            return Err(SrbError::AuthFailed(
                "session key failed integrity check".into(),
            ));
        }
        Ok(id)
    }

    /// Security checks + membership + expiry. Expired sessions are
    /// evicted on sight.
    pub fn validate(&self, key: &str) -> SrbResult<()> {
        self.with_session(key, |_| ()).map(|_| ())
    }

    /// Run `f` with the session's connection after validation.
    pub(crate) fn with_session<R>(
        &self,
        key: &str,
        f: impl FnOnce(&WebSession<'g>) -> R,
    ) -> SrbResult<R> {
        let id = self.parse(key)?;
        let now = self.clock.now();
        let shard = &self.shards[self.shard_of(&id)];
        {
            let g = shard.inner.read();
            match g.table.get(&id) {
                Some(s) if s.expires > now => return Ok(f(s)),
                Some(_) => {}
                None => return Err(SrbError::AuthFailed("unknown session key".into())),
            }
        }
        // Expired: evict on sight (re-check under the write lock; a
        // racing sweep may have already reclaimed it).
        let evicted = {
            let mut inner = shard.inner.write();
            match inner.table.get(&id) {
                Some(s) if s.expires <= now => inner.table.remove(&id).is_some(),
                _ => false,
            }
        };
        if evicted {
            if let Some(m) = &self.metrics {
                m.expired.inc();
                m.live.add(-1);
            }
        }
        Err(SrbError::AuthFailed("session expired".into()))
    }

    /// Remove a session (logout). Unknown or malformed keys are a no-op.
    pub fn remove(&self, key: &str) {
        let Ok(id) = self.parse(key) else { return };
        let removed = self.shards[self.shard_of(&id)]
            .inner
            .write()
            .table
            .remove(&id)
            .is_some();
        if removed {
            if let Some(m) = &self.metrics {
                m.live.add(-1);
            }
        }
    }

    /// Reclaim up to `budget` expiry-queue entries across the shards
    /// (round-robin), returning the number of sessions actually
    /// reclaimed. Bounded O(budget): call it periodically (or rely on
    /// the per-`create` amortization) to drain abandoned sessions.
    pub fn sweep_expired(&self, budget: usize) -> usize {
        let n = self.shards.len();
        let start = self.sweep_cursor.fetch_add(1, Ordering::Relaxed) % n;
        let now = self.clock.now();
        let mut remaining = budget;
        let mut reclaimed = 0u64;
        for i in 0..n {
            if remaining == 0 {
                break;
            }
            let mut inner = self.shards[(start + i) % n].inner.write();
            let (popped, freed) = Self::sweep_shard(&mut inner, now, remaining);
            remaining -= popped;
            reclaimed += freed;
        }
        if let Some(m) = &self.metrics {
            m.expired.add(reclaimed);
            m.live.add(-(reclaimed as i64));
        }
        reclaimed as usize
    }

    /// Pop up to `budget` expired queue entries; returns `(popped,
    /// reclaimed)`. Tombstones (logged-out ids) consume budget but free
    /// nothing.
    fn sweep_shard(inner: &mut ShardInner<'g>, now: Timestamp, budget: usize) -> (usize, u64) {
        let mut popped = 0;
        let mut reclaimed = 0;
        while popped < budget {
            match inner.expiry.front() {
                Some((_, exp)) if *exp <= now => {}
                _ => break,
            }
            let Some((id, _)) = inner.expiry.pop_front() else {
                break;
            };
            popped += 1;
            // Only reclaim if the stored session really is expired; a
            // tombstoned (removed) id is just skipped.
            if matches!(inner.table.get(&id), Some(s) if s.expires <= now)
                && inner.table.remove(&id).is_some()
            {
                reclaimed += 1;
            }
        }
        (popped, reclaimed)
    }

    /// Live (possibly expired-but-unswept) session count.
    pub fn count(&self) -> usize {
        self.shards.iter().map(|s| s.inner.read().table.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_core::{GridBuilder, SrbConnection};

    fn fixture() -> (srb_core::Grid, srb_types::ServerId) {
        let mut gb = GridBuilder::new();
        let site = gb.site("sdsc");
        let srv = gb.server("srb", site);
        gb.fs_resource("fs", srv);
        let grid = gb.build();
        grid.register_user("u", "d", "pw").unwrap();
        (grid, srv)
    }

    #[test]
    fn create_validate_logout_cycle() {
        let (grid, srv) = fixture();
        let store = SessionStore::new(grid.clock.clone(), 1);
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        let key = store.create(conn, "u@d");
        store.validate(&key).unwrap();
        let label = store.with_session(&key, |s| s.user_label.clone()).unwrap();
        assert_eq!(label, "u@d");
        store.remove(&key);
        assert!(store.validate(&key).is_err());
        assert_eq!(store.count(), 0);
    }

    #[test]
    fn sixty_minute_expiry() {
        let (grid, srv) = fixture();
        let store = SessionStore::new(grid.clock.clone(), 1);
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        let key = store.create(conn, "u@d");
        grid.clock.advance(59 * 60 * 1_000_000_000);
        store.validate(&key).unwrap();
        grid.clock.advance(2 * 60 * 1_000_000_000);
        let err = store.validate(&key).unwrap_err();
        assert!(matches!(err, SrbError::AuthFailed(_)));
        // Expired sessions are evicted.
        assert_eq!(store.count(), 0);
    }

    #[test]
    fn forged_and_malformed_keys_rejected() {
        let (grid, srv) = fixture();
        let store = SessionStore::new(grid.clock.clone(), 1);
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        let key = store.create(conn, "u@d");
        // Tamper with the id part: tag check fails.
        let mut forged = key.clone();
        let first = if forged.starts_with('0') { '1' } else { '0' };
        forged.replace_range(0..1, &first.to_string());
        assert!(store.validate(&forged).is_err());
        assert!(store.validate("no-dot-here").is_err());
        assert!(store.validate("zz.zz").is_err());
        assert!(store.validate("").is_err());
        // The genuine key still works.
        store.validate(&key).unwrap();
    }

    #[test]
    fn keys_are_unique() {
        let (grid, srv) = fixture();
        let store = SessionStore::new(grid.clock.clone(), 1);
        let a = store.create(
            SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap(),
            "u@d",
        );
        let b = store.create(
            SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap(),
            "u@d",
        );
        assert_ne!(a, b);
        assert_eq!(store.count(), 2);
    }

    #[test]
    fn abandoned_sessions_are_reclaimed_by_sweep() {
        let (grid, srv) = fixture();
        let store = SessionStore::with_config(
            grid.clock.clone(),
            7,
            SessionConfig {
                shards: 8,
                sweep_budget: 4,
            },
        );
        let keys: Vec<String> = (0..50)
            .map(|_| {
                store.create(
                    SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap(),
                    "u@d",
                )
            })
            .collect();
        assert_eq!(store.count(), 50);
        grid.clock
            .advance((WEB_SESSION_TTL_SECS + 1) * 1_000_000_000);
        // Abandoned: nobody presents these keys again. Bounded sweeps
        // reclaim them all without any key being presented.
        let mut total = 0;
        for _ in 0..100 {
            total += store.sweep_expired(5);
            if total == 50 {
                break;
            }
        }
        assert_eq!(total, 50);
        assert_eq!(store.count(), 0);
        for k in &keys {
            assert!(store.validate(k).is_err());
        }
    }

    #[test]
    fn create_amortizes_reclamation() {
        let (grid, srv) = fixture();
        // Single shard so every create sweeps the same queue.
        let store = SessionStore::with_config(
            grid.clock.clone(),
            7,
            SessionConfig {
                shards: 1,
                sweep_budget: 8,
            },
        );
        for _ in 0..20 {
            store.create(
                SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap(),
                "u@d",
            );
        }
        grid.clock
            .advance((WEB_SESSION_TTL_SECS + 1) * 1_000_000_000);
        // Each create reclaims up to 8 expired entries as a side effect.
        for _ in 0..3 {
            store.create(
                SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap(),
                "u@d",
            );
        }
        assert_eq!(store.count(), 3);
    }

    #[test]
    fn logout_tombstones_do_not_count_as_reclaimed() {
        let (grid, srv) = fixture();
        let store = SessionStore::with_config(
            grid.clock.clone(),
            7,
            SessionConfig {
                shards: 1,
                sweep_budget: 8,
            },
        );
        let key = store.create(
            SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap(),
            "u@d",
        );
        store.remove(&key);
        grid.clock
            .advance((WEB_SESSION_TTL_SECS + 1) * 1_000_000_000);
        assert_eq!(store.sweep_expired(10), 0);
        assert_eq!(store.count(), 0);
    }
}
