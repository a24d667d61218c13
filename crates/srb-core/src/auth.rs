//! Single sign-on authentication.
//!
//! The paper requires that "the DGA should be able to provide access to the
//! user to all the storage systems with a single sign on authentication".
//! SRB implements challenge–response: the server issues a nonce, the client
//! proves knowledge of the password-derived verifier by returning
//! `HMAC(verifier, nonce)`, and receives a *ticket* every server in the
//! federation honours. Tickets expire; expired tickets fail validation.

use srb_types::sync::{LockRank, RwLock};
use srb_types::{ct_eq, splitmix64, HmacKey, SimClock, SrbError, SrbResult, Timestamp, UserId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// An authenticated session, honoured federation-wide.
#[derive(Debug, Clone)]
pub struct Session {
    /// The authenticated user.
    pub user: UserId,
    /// Opaque ticket presented with each request.
    pub ticket: [u8; 32],
    /// Expiry (virtual time).
    pub expires: Timestamp,
}

/// Default session lifetime: 12 hours of virtual time.
pub const SESSION_TTL_SECS: u64 = 12 * 3600;

/// Ticket/challenge table shards. Every brokered request validates a
/// ticket, so the session table is the hottest lock in the core; shards
/// keep concurrent validations from contending.
const AUTH_SHARDS: usize = 16;

/// Expand the `n`-th draw of a splitmix64 stream to 32 bytes.
fn draw32(seed: u64, n: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&splitmix64(seed, n * 4 + i as u64).to_le_bytes());
    }
    out
}

type SessionShard = RwLock<HashMap<[u8; 32], Session>>;
type PendingShard = RwLock<HashMap<u64, [u8; 32]>>;

/// Challenge–response authenticator + session table.
///
/// One instance serves the whole federation (conceptually replicated to
/// every server; the paper's single sign-on). Nonces and tickets come
/// from counter-indexed splitmix64 streams — deterministic per seed and
/// lock-free, replacing the global RNG mutex — and the session/pending
/// tables are sharded so `validate` on different tickets never contends.
pub struct AuthService {
    clock: SimClock,
    seed: u64,
    sessions: Box<[SessionShard]>,
    pending: Box<[PendingShard]>,
    challenge_seq: AtomicU64,
    ticket_seq: AtomicU64,
    auth_failures: AtomicU64,
}

impl AuthService {
    /// New service. `seed` keeps experiments deterministic.
    pub fn new(clock: SimClock, seed: u64) -> Self {
        AuthService {
            clock,
            seed,
            sessions: (0..AUTH_SHARDS)
                .map(|_| {
                    RwLock::new(
                        LockRank::CoreState,
                        "core.auth.session_shard",
                        HashMap::new(),
                    )
                })
                .collect(),
            pending: (0..AUTH_SHARDS)
                .map(|_| {
                    RwLock::new(
                        LockRank::CoreState,
                        "core.auth.pending_shard",
                        HashMap::new(),
                    )
                })
                .collect(),
            challenge_seq: AtomicU64::new(1),
            ticket_seq: AtomicU64::new(0),
            auth_failures: AtomicU64::new(0),
        }
    }

    fn session_shard(&self, ticket: &[u8; 32]) -> &SessionShard {
        // Tickets are splitmix64 output: the first byte is uniform.
        &self.sessions[ticket[0] as usize % AUTH_SHARDS]
    }

    fn pending_shard(&self, challenge_id: u64) -> &PendingShard {
        &self.pending[(challenge_id as usize) % AUTH_SHARDS]
    }

    /// Step 1 (server): issue a challenge nonce. Returns (challenge id,
    /// nonce).
    pub(crate) fn challenge(&self) -> (u64, [u8; 32]) {
        let id = self.challenge_seq.fetch_add(1, Ordering::Relaxed);
        let nonce = draw32(self.seed ^ 0x006e_6f6e_6365, id);
        self.pending_shard(id).write().insert(id, nonce);
        (id, nonce)
    }

    /// Step 2 (client): compute the response to a nonce from the
    /// password-derived verifier.
    pub fn respond(verifier: &[u8; 32], nonce: &[u8; 32]) -> [u8; 32] {
        HmacKey::new(verifier).sign(nonce)
    }

    /// Step 3 (server): verify the response against the catalog's stored
    /// verifier and mint a session ticket.
    pub(crate) fn verify(
        &self,
        challenge_id: u64,
        response: &[u8; 32],
        user: UserId,
        stored_verifier: &[u8; 32],
    ) -> SrbResult<Session> {
        let nonce = self
            .pending_shard(challenge_id)
            .write()
            .remove(&challenge_id)
            .ok_or_else(|| SrbError::AuthFailed("unknown or replayed challenge".into()))?;
        let expect = Self::respond(stored_verifier, &nonce);
        if !ct_eq(&expect, response) {
            self.auth_failures.fetch_add(1, Ordering::Relaxed);
            return Err(SrbError::AuthFailed("bad credentials".into()));
        }
        let ticket = draw32(
            self.seed ^ 0x7469_636b_6574,
            self.ticket_seq.fetch_add(1, Ordering::Relaxed),
        );
        let session = Session {
            user,
            ticket,
            expires: self.clock.now().plus_secs(SESSION_TTL_SECS),
        };
        self.session_shard(&ticket)
            .write()
            .insert(ticket, session.clone());
        Ok(session)
    }

    /// Validate a ticket (every brokered request does this).
    pub fn validate(&self, ticket: &[u8; 32]) -> SrbResult<UserId> {
        let g = self.session_shard(ticket).read();
        match g.get(ticket) {
            Some(s) if s.expires > self.clock.now() => Ok(s.user),
            Some(_) => Err(SrbError::AuthFailed("session expired".into())),
            None => Err(SrbError::AuthFailed("unknown ticket".into())),
        }
    }

    /// Explicitly end a session.
    pub fn logout(&self, ticket: &[u8; 32]) {
        self.session_shard(ticket).write().remove(ticket);
    }

    /// Failed authentication attempts (for the audit page).
    pub fn failure_count(&self) -> u64 {
        self.auth_failures.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_types::SimClock;

    fn svc() -> (AuthService, SimClock) {
        let clock = SimClock::new();
        (AuthService::new(clock.clone(), 42), clock)
    }

    fn session_count(a: &AuthService) -> usize {
        a.sessions.iter().map(|s| s.read().len()).sum()
    }

    fn verifier(pw: &str) -> [u8; 32] {
        HmacKey::new(pw.as_bytes()).sign(b"srb-verifier")
    }

    #[test]
    fn happy_path_handshake() {
        let (a, _) = svc();
        let v = verifier("secret");
        let (cid, nonce) = a.challenge();
        let resp = AuthService::respond(&v, &nonce);
        let session = a.verify(cid, &resp, UserId(1), &v).unwrap();
        assert_eq!(a.validate(&session.ticket).unwrap(), UserId(1));
        assert_eq!(session_count(&a), 1);
    }

    #[test]
    fn wrong_password_fails_and_counts() {
        let (a, _) = svc();
        let (cid, nonce) = a.challenge();
        let resp = AuthService::respond(&verifier("wrong"), &nonce);
        let err = a
            .verify(cid, &resp, UserId(1), &verifier("right"))
            .unwrap_err();
        assert!(matches!(err, SrbError::AuthFailed(_)));
        assert_eq!(a.failure_count(), 1);
    }

    #[test]
    fn challenges_are_single_use() {
        let (a, _) = svc();
        let v = verifier("pw");
        let (cid, nonce) = a.challenge();
        let resp = AuthService::respond(&v, &nonce);
        a.verify(cid, &resp, UserId(1), &v).unwrap();
        // Replaying the same challenge id must fail.
        assert!(a.verify(cid, &resp, UserId(1), &v).is_err());
    }

    #[test]
    fn sessions_expire() {
        let (a, clock) = svc();
        let v = verifier("pw");
        let (cid, nonce) = a.challenge();
        let session = a
            .verify(cid, &AuthService::respond(&v, &nonce), UserId(1), &v)
            .unwrap();
        assert!(a.validate(&session.ticket).is_ok());
        clock.advance((SESSION_TTL_SECS + 1) * 1_000_000_000);
        let err = a.validate(&session.ticket).unwrap_err();
        assert!(matches!(err, SrbError::AuthFailed(_)));
    }

    #[test]
    fn logout_invalidates() {
        let (a, _) = svc();
        let v = verifier("pw");
        let (cid, nonce) = a.challenge();
        let s = a
            .verify(cid, &AuthService::respond(&v, &nonce), UserId(1), &v)
            .unwrap();
        a.logout(&s.ticket);
        assert!(a.validate(&s.ticket).is_err());
        assert_eq!(session_count(&a), 0);
    }

    #[test]
    fn forged_ticket_rejected() {
        let (a, _) = svc();
        assert!(a.validate(&[7u8; 32]).is_err());
    }
}
