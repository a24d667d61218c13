//! Connection pooling: reuse per-user auth state across repeat connects.
//!
//! MySRB reconstructs an [`SrbConnection`] on every login, and the full
//! handshake is expensive at web scale: a users-table lookup, an RPC to
//! the MCAT site, a challenge/verify round through the auth service, and
//! two audit-trail appends behind the global audit mutex. The pool caches
//! `(user, domain) → (verifier, ticket)` after one successful handshake;
//! a repeat connect that presents the same password (verified against the
//! cached verifier in constant time) and whose federation ticket is still
//! valid gets a connection built directly from the cached [`Session`] —
//! no RPC, no audit append, no table contention.
//!
//! Semantics deliberately kept from the full path: a wrong password never
//! hits the cache (the verifier comparison fails and the request falls
//! through to the full handshake, which fails and audits `AuthFail`), and
//! an expired or logged-out ticket also falls through, re-running the
//! handshake and re-auditing `Connect`. The one relaxation is that a
//! pooled login is *not* re-audited — the original `Connect` row covers
//! the ticket's pooled lifetime — and a password change in the MCAT is
//! honoured lazily, once the cached ticket expires or is logged out.

use crate::auth::Session;
use crate::conn::SrbConnection;
use crate::grid::Grid;
use srb_types::sync::{LockRank, RwLock};
use srb_types::{ct_eq, fnv1a64, ServerId, SrbResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pool shards; keyed by FNV-1a of `name@domain`.
const POOL_SHARDS: usize = 16;

struct PooledCred {
    verifier: [u8; 32],
    session: Session,
}

type PoolShard = RwLock<HashMap<(String, String), PooledCred>>;

/// Sharded `(user, domain) → cached credential` table.
pub struct ConnPool {
    shards: Box<[PoolShard]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ConnPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnPool {
    /// Empty pool.
    pub fn new() -> Self {
        ConnPool {
            shards: (0..POOL_SHARDS)
                .map(|_| RwLock::new(LockRank::CoreState, "core.conn_pool.shard", HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, name: &str, domain: &str) -> &PoolShard {
        let h = fnv1a64(&[name.as_bytes(), b"@", domain.as_bytes()]);
        &self.shards[(h % POOL_SHARDS as u64) as usize]
    }

    /// A still-valid cached session for `name@domain`, if the presented
    /// password's verifier matches the one that minted it.
    fn lookup(
        &self,
        grid: &Grid,
        name: &str,
        domain: &str,
        verifier: &[u8; 32],
    ) -> Option<Session> {
        let shard = self.shard(name, domain).read();
        let cred = shard.get(&(name.to_string(), domain.to_string()))?;
        if !ct_eq(&cred.verifier, verifier) {
            return None;
        }
        if grid.auth.validate(&cred.session.ticket).is_err() {
            return None;
        }
        Some(cred.session.clone())
    }

    fn store(&self, name: &str, domain: &str, verifier: [u8; 32], session: Session) {
        self.shard(name, domain).write().insert(
            (name.to_string(), domain.to_string()),
            PooledCred { verifier, session },
        );
    }

    /// `(hits, misses)` since grid construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

impl<'g> SrbConnection<'g> {
    /// Connect like [`SrbConnection::connect`], but reuse pooled auth
    /// state when this user already signed on with the same password and
    /// the federation ticket is still valid. Falls back to the full
    /// challenge–response handshake (and caches its session) otherwise.
    pub fn connect_pooled(
        grid: &'g Grid,
        server: ServerId,
        name: &str,
        domain: &str,
        password: &str,
    ) -> SrbResult<Self> {
        let client_verifier = srb_mcat::user::derive_verifier(password);
        if let Some(session) = grid.pool.lookup(grid, name, domain, &client_verifier) {
            let srv = grid.server(server)?;
            grid.pool.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(core) = grid.core_obs() {
                core.pool_hits.inc();
            }
            return Ok(SrbConnection::from_session(grid, server, srv.site, session));
        }
        let conn = SrbConnection::connect(grid, server, name, domain, password)?;
        grid.pool.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(core) = grid.core_obs() {
            core.pool_misses.inc();
        }
        grid.pool
            .store(name, domain, client_verifier, conn.session.clone());
        Ok(conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridBuilder;

    fn fixture() -> (Grid, srb_types::ServerId) {
        let mut gb = GridBuilder::new();
        let site = gb.site("sdsc");
        let srv = gb.server("srb", site);
        gb.fs_resource("fs", srv);
        let grid = gb.build();
        grid.register_user("u", "d", "pw").unwrap();
        (grid, srv)
    }

    #[test]
    fn second_connect_is_a_hit_and_skips_the_audit() {
        let (grid, srv) = fixture();
        let a = SrbConnection::connect_pooled(&grid, srv, "u", "d", "pw").unwrap();
        let b = SrbConnection::connect_pooled(&grid, srv, "u", "d", "pw").unwrap();
        assert_eq!(grid.pool.stats(), (1, 1));
        assert_eq!(a.user(), b.user());
        // One handshake → one Connect audit row, not two.
        let connects = grid
            .mcat
            .audit
            .dump()
            .iter()
            .filter(|r| r.action == srb_mcat::AuditAction::Connect)
            .count();
        assert_eq!(connects, 1);
        // The pooled connection really works.
        b.list_collection("/home/u").unwrap();
    }

    #[test]
    fn wrong_password_never_hits_the_cache() {
        let (grid, srv) = fixture();
        SrbConnection::connect_pooled(&grid, srv, "u", "d", "pw").unwrap();
        assert!(SrbConnection::connect_pooled(&grid, srv, "u", "d", "nope").is_err());
        // A failed connect is neither a hit nor a cached miss.
        assert_eq!(grid.pool.stats(), (0, 1));
        assert_eq!(grid.auth.failure_count(), 1);
    }

    #[test]
    fn expired_ticket_falls_back_to_a_fresh_handshake() {
        let (grid, srv) = fixture();
        SrbConnection::connect_pooled(&grid, srv, "u", "d", "pw").unwrap();
        grid.clock
            .advance((crate::auth::SESSION_TTL_SECS + 1) * 1_000_000_000);
        let c = SrbConnection::connect_pooled(&grid, srv, "u", "d", "pw").unwrap();
        assert_eq!(grid.pool.stats(), (0, 2));
        assert_eq!(c.user().0, grid.mcat.users.find("u", "d").unwrap().id.0);
    }

    #[test]
    fn logout_of_the_pooled_ticket_falls_back() {
        let (grid, srv) = fixture();
        let a = SrbConnection::connect_pooled(&grid, srv, "u", "d", "pw").unwrap();
        grid.auth.logout(&a.session.ticket);
        SrbConnection::connect_pooled(&grid, srv, "u", "d", "pw").unwrap();
        assert_eq!(grid.pool.stats(), (0, 2));
    }
}
