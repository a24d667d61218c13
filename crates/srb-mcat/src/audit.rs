//! The audit trail.
//!
//! Paper §2: "in some cases, it may be necessary to audit usage of the
//! collections/datasets. Hence, auditing facilities will be needed as part
//! of the framework." Every brokered operation records an audit row.

use crate::pages::RowPages;
use crate::table::Table;
use crate::wal::WalHook;
use serde::{DeError, Deserialize, JsonReader, Serialize};
use srb_types::sync::{LockRank, Mutex};
use srb_types::{AuditId, IdGen, Timestamp, UserId};
use std::borrow::Cow;
use std::fmt;

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
    /// `ok`, the op's own word for success, or an error code.
    pub outcome: Outcome,
}

// Row budget: every brokered op appends one row, kept for good; a field
// that grows the row fails the build.
const _: () = assert!(std::mem::size_of::<AuditRow>() <= 80);

/// An audit row's outcome. The grid writes only static words (`ok`, an
/// op's word for success such as `unlink`, an `SrbError::code`), so a row
/// holds one without an allocation. Text read back from a log or an image
/// is matched against the same words, and any other text is kept as
/// read. Written as a plain JSON string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome(Cow<'static, str>);

/// The outcome words the grid writes.
const WORDS: &[&str] = &[
    "ok",
    "lock",
    "unlock",
    "pin",
    "unpin",
    "checkout",
    "checkin",
    "resync",
    "sweep",
    "compact",
    "unlink",
    "repair",
    "repair-skip-breaker",
    "NOT_FOUND",
    "ALREADY_EXISTS",
    "PERMISSION_DENIED",
    "AUTH_FAILED",
    "RESOURCE_UNAVAILABLE",
    "TIMEOUT",
    "CORRUPT",
    "LOCKED",
    "INVALID",
    "MISSING_METADATA",
    "UNSUPPORTED",
    "IO",
    "PARSE",
    "INTERNAL",
];

impl std::ops::Deref for Outcome {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&'static str> for Outcome {
    fn from(word: &'static str) -> Self {
        Outcome(Cow::Borrowed(word))
    }
}

impl PartialEq<&str> for Outcome {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<Outcome> for String {
    fn eq(&self, other: &Outcome) -> bool {
        *self == *other.0
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for Outcome {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

impl Deserialize for Outcome {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.peek_token() != Some(b'"') {
            return Err(r.expected("string", "Outcome"));
        }
        let text = r.str()?;
        Ok(Outcome(match WORDS.iter().find(|&&w| w == text) {
            Some(&word) => Cow::Borrowed(word),
            None => Cow::Owned(text.into_owned()),
        }))
    }
}

/// Append-only audit log.
#[derive(Debug)]
pub struct AuditLog {
    pub(crate) rows: Mutex<Table<AuditRow>>,
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        AuditLog::restore(RowPages::default(), &WalHook::default())
    }

    /// The log over image rows, logging through `wal`.
    pub(crate) fn restore(rows: RowPages<AuditRow>, wal: &WalHook) -> Self {
        let rows = Table::restore(rows, wal);
        AuditLog {
            rows: Mutex::new(LockRank::McatTable, "mcat.audit", rows),
        }
    }

    /// Record a row.
    pub fn record(
        &self,
        ids: &IdGen,
        at: Timestamp,
        user: UserId,
        action: AuditAction,
        subject: &str,
        outcome: &'static str,
    ) {
        let mut row = AuditRow {
            id: AuditId(0),
            at,
            user,
            action,
            subject: subject.to_string(),
            outcome: outcome.into(),
        };
        // The id is drawn under the lock, so id order and log order agree
        // under any number of writers, and every row appends.
        let mut g = self.rows.lock();
        row.id = ids.next();
        g.put(0, row);
    }

    /// The most recent `n` rows, newest last.
    pub fn recent(&self, n: usize) -> Vec<AuditRow> {
        let g = self.rows.lock();
        let mut rows: Vec<AuditRow> = g.iter().rev().take(n).cloned().collect();
        rows.reverse();
        rows
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

    /// Every audit row, oldest first.
    pub fn dump(&self) -> Vec<AuditRow> {
        self.rows.lock().iter().cloned().collect()
    }

    /// Row count.
    pub fn count(&self) -> usize {
        self.rows.lock().len()
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
        let for_subject = |s: &str| -> Vec<AuditRow> {
            log.dump().into_iter().filter(|r| r.subject == s).collect()
        };
        assert_eq!(for_subject("/a").len(), 2);
        assert_eq!(for_subject("/b")[0].outcome, "PERMISSION_DENIED");
    }

    /// Every word the grid writes reads back static, including every
    /// error code; other text reads back as it was, and is written the
    /// same.
    #[test]
    fn outcomes_read_back_as_static_words() {
        use srb_types::SrbError;
        let errors = [
            SrbError::NotFound(String::new()),
            SrbError::AlreadyExists(String::new()),
            SrbError::PermissionDenied(String::new()),
            SrbError::AuthFailed(String::new()),
            SrbError::ResourceUnavailable(String::new()),
            SrbError::Timeout(String::new()),
            SrbError::Corrupt(String::new()),
            SrbError::Locked(String::new()),
            SrbError::Invalid(String::new()),
            SrbError::MissingMetadata(String::new()),
            SrbError::Unsupported(String::new()),
            SrbError::Io(String::new()),
            SrbError::Parse(String::new()),
            SrbError::Internal(String::new()),
        ];
        let read = |text: &str| serde_json::from_str::<Outcome>(text).unwrap();
        for word in errors.iter().map(SrbError::code).chain(["ok", "unlink"]) {
            let outcome = read(&serde_json::to_string(word).unwrap());
            assert!(
                matches!(outcome.0, Cow::Borrowed(_)),
                "{word} is not interned"
            );
            assert_eq!(outcome, word);
        }
        let odd = read(r#""half \"done\"""#);
        assert!(matches!(odd.0, Cow::Owned(_)));
        assert_eq!(odd, r#"half "done""#);
        assert_eq!(serde_json::to_string(&odd).unwrap(), r#""half \"done\"""#);
        assert!(serde_json::from_str::<Outcome>("7").is_err());
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
