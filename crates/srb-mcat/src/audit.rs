//! The audit trail.
//!
//! Paper §2: "in some cases, it may be necessary to audit usage of the
//! collections/datasets. Hence, auditing facilities will be needed as part
//! of the framework." Every brokered operation can record an audit row;
//! auditing can be toggled per catalog.

use crate::wal::{WalHook, WalOp};
use serde::{Deserialize, Serialize};
use srb_types::sync::{LockRank, Mutex};
use srb_types::{AuditId, IdGen, Timestamp, UserId};
use std::sync::atomic::{AtomicBool, Ordering};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditAction {
    /// Session establishment.
    Connect,
    /// Failed authentication attempt.
    AuthFail,
    /// New data ingested.
    Ingest,
    /// Object registered (file/dir/SQL/URL/method).
    Register,
    /// Data read.
    Read,
    /// Data written/updated.
    Write,
    /// Object or replica deleted.
    Delete,
    /// Replica created.
    Replicate,
    /// Object copied.
    Copy,
    /// Object or collection moved.
    Move,
    /// Link created.
    Link,
    /// Metadata added or updated.
    MetaChange,
    /// Query executed.
    Query,
    /// ACL changed.
    AclChange,
    /// Lock/unlock/pin/unpin/checkout/checkin.
    LockOp,
    /// Proxy command executed.
    Proxy,
}

impl AuditAction {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AuditAction::Connect => "connect",
            AuditAction::AuthFail => "auth-fail",
            AuditAction::Ingest => "ingest",
            AuditAction::Register => "register",
            AuditAction::Read => "read",
            AuditAction::Write => "write",
            AuditAction::Delete => "delete",
            AuditAction::Replicate => "replicate",
            AuditAction::Copy => "copy",
            AuditAction::Move => "move",
            AuditAction::Link => "link",
            AuditAction::MetaChange => "meta-change",
            AuditAction::Query => "query",
            AuditAction::AclChange => "acl-change",
            AuditAction::LockOp => "lock-op",
            AuditAction::Proxy => "proxy",
        }
    }
}

/// One audit row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditRow {
    /// Catalog id.
    pub id: AuditId,
    /// When (virtual time).
    pub at: Timestamp,
    /// Acting user.
    pub user: UserId,
    /// What they did.
    pub action: AuditAction,
    /// What they did it to (logical path or entity id).
    pub subject: String,
    /// `ok` or an error code.
    pub outcome: String,
}

/// Append-only audit log.
#[derive(Debug)]
pub struct AuditLog {
    enabled: AtomicBool,
    rows: Mutex<Vec<AuditRow>>,
    /// Redo-log hook; a no-op until the catalog enables durability.
    wal: WalHook,
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog {
            enabled: AtomicBool::default(),
            rows: Mutex::new(LockRank::McatTable, "mcat.audit", Vec::new()),
            wal: WalHook::default(),
        }
    }
}

impl AuditLog {
    /// New log; auditing starts enabled.
    pub fn new() -> Self {
        let log = AuditLog::default();
        log.enabled.store(true, Ordering::Relaxed);
        log
    }

    /// Toggle auditing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is auditing currently on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record a row (no-op while disabled).
    pub fn record(
        &self,
        ids: &IdGen,
        at: Timestamp,
        user: UserId,
        action: AuditAction,
        subject: &str,
        outcome: &str,
    ) {
        if !self.is_enabled() {
            return;
        }
        let id: AuditId = ids.next();
        let row = AuditRow {
            id,
            at,
            user,
            action,
            subject: subject.to_string(),
            outcome: outcome.to_string(),
        };
        let mut g = self.rows.lock();
        self.wal.log(0, || WalOp::AuditPut { row: row.clone() });
        g.push(row);
    }

    /// The most recent `n` rows, newest last.
    pub fn recent(&self, n: usize) -> Vec<AuditRow> {
        let g = self.rows.lock();
        let start = g.len().saturating_sub(n);
        g[start..].to_vec()
    }

    /// All rows for one user.
    pub fn for_user(&self, user: UserId) -> Vec<AuditRow> {
        self.rows
            .lock()
            .iter()
            .filter(|r| r.user == user)
            .cloned()
            .collect()
    }

    /// All rows touching a subject (exact match).
    pub fn for_subject(&self, subject: &str) -> Vec<AuditRow> {
        self.rows
            .lock()
            .iter()
            .filter(|r| r.subject == subject)
            .cloned()
            .collect()
    }

    /// Every audit row (snapshots).
    pub fn dump(&self) -> Vec<AuditRow> {
        self.rows.lock().clone()
    }

    /// Rebuild the log from snapshot rows.
    pub fn restore(rows: Vec<AuditRow>) -> Self {
        let log = AuditLog::new();
        *log.rows.lock() = rows;
        log
    }

    /// Row count.
    pub fn count(&self) -> usize {
        self.rows.lock().len()
    }

    /// Wire this table to the catalog's WAL.
    pub(crate) fn attach_wal(&self, wal: std::sync::Arc<crate::wal::Wal>) {
        self.wal.attach(wal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_when_enabled() {
        let log = AuditLog::new();
        let ids = IdGen::new();
        log.record(
            &ids,
            Timestamp(1),
            UserId(1),
            AuditAction::Ingest,
            "/a/b",
            "ok",
        );
        assert_eq!(log.count(), 1);
        let rows = log.recent(10);
        assert_eq!(rows[0].subject, "/a/b");
        assert_eq!(rows[0].action.name(), "ingest");
    }

    #[test]
    fn silent_when_disabled() {
        let log = AuditLog::new();
        let ids = IdGen::new();
        log.set_enabled(false);
        assert!(!log.is_enabled());
        log.record(&ids, Timestamp(1), UserId(1), AuditAction::Read, "/x", "ok");
        assert_eq!(log.count(), 0);
        log.set_enabled(true);
        log.record(&ids, Timestamp(2), UserId(1), AuditAction::Read, "/x", "ok");
        assert_eq!(log.count(), 1);
    }

    #[test]
    fn filters_by_user_and_subject() {
        let log = AuditLog::new();
        let ids = IdGen::new();
        log.record(&ids, Timestamp(1), UserId(1), AuditAction::Read, "/a", "ok");
        log.record(&ids, Timestamp(2), UserId(2), AuditAction::Read, "/a", "ok");
        log.record(
            &ids,
            Timestamp(3),
            UserId(1),
            AuditAction::Write,
            "/b",
            "PERMISSION_DENIED",
        );
        assert_eq!(log.for_user(UserId(1)).len(), 2);
        assert_eq!(log.for_subject("/a").len(), 2);
        assert_eq!(log.for_subject("/b")[0].outcome, "PERMISSION_DENIED");
    }

    #[test]
    fn recent_returns_tail() {
        let log = AuditLog::new();
        let ids = IdGen::new();
        for i in 0..10 {
            log.record(
                &ids,
                Timestamp(i),
                UserId(1),
                AuditAction::Read,
                &format!("/f{i}"),
                "ok",
            );
        }
        let tail = log.recent(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[2].subject, "/f9");
        assert_eq!(log.recent(100).len(), 10);
    }
}
