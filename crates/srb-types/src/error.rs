//! The workspace-wide error type.
//!
//! SRB is a distributed system: almost every operation can fail because an
//! entity is missing, a permission is lacking, a resource is down, or a
//! protocol step was violated. One enum keeps error handling uniform across
//! the catalog, the storage drivers, the federation and the web front-end.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Result alias used across the workspace.
pub type SrbResult<T> = Result<T, SrbError>;

/// All failure modes surfaced by the data grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SrbError {
    /// The named entity does not exist in the catalog or on storage.
    NotFound(String),
    /// An entity with this name already exists where uniqueness is required.
    AlreadyExists(String),
    /// The authenticated user lacks the permission the operation requires.
    PermissionDenied(String),
    /// Authentication failed (bad credentials, expired session, bad ticket).
    AuthFailed(String),
    /// A storage resource is unavailable (down, circuit-broken, out of
    /// space).
    ResourceUnavailable(String),
    /// An operation timed out transiently (flaky storage, lost message).
    /// Retrying the *same* replica may succeed.
    Timeout(String),
    /// Stored bytes do not match their recorded integrity metadata.
    /// Never retryable: re-reading corrupt data yields corrupt data.
    Corrupt(String),
    /// The object is locked, pinned or checked out in a conflicting way.
    Locked(String),
    /// Input was syntactically or semantically invalid.
    Invalid(String),
    /// A required structural-metadata attribute was not supplied.
    MissingMetadata(String),
    /// The operation is not supported for this object type (e.g. replicating
    /// a file inside a registered directory).
    Unsupported(String),
    /// Low-level I/O failure inside a storage driver.
    Io(String),
    /// Query or T-language parse error.
    Parse(String),
    /// Internal invariant violation — always a bug.
    Internal(String),
}

impl SrbError {
    /// Short machine-readable code, used in audit rows and HTTP replies.
    pub fn code(&self) -> &'static str {
        match self {
            SrbError::NotFound(_) => "NOT_FOUND",
            SrbError::AlreadyExists(_) => "ALREADY_EXISTS",
            SrbError::PermissionDenied(_) => "PERMISSION_DENIED",
            SrbError::AuthFailed(_) => "AUTH_FAILED",
            SrbError::ResourceUnavailable(_) => "RESOURCE_UNAVAILABLE",
            SrbError::Timeout(_) => "TIMEOUT",
            SrbError::Corrupt(_) => "CORRUPT",
            SrbError::Locked(_) => "LOCKED",
            SrbError::Invalid(_) => "INVALID",
            SrbError::MissingMetadata(_) => "MISSING_METADATA",
            SrbError::Unsupported(_) => "UNSUPPORTED",
            SrbError::Io(_) => "IO",
            SrbError::Parse(_) => "PARSE",
            SrbError::Internal(_) => "INTERNAL",
        }
    }

    /// True when retrying against a different replica could succeed.
    ///
    /// The federation's failover logic uses this to decide whether to try
    /// the next replica rather than give up. Note the classification:
    /// `Corrupt` is *not* retryable — corruption-shaped failures must
    /// surface, not be papered over by a luckier replica — while the
    /// unavailability family and transient I/O failures are.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SrbError::ResourceUnavailable(_) | SrbError::Timeout(_) | SrbError::Io(_)
        )
    }

    /// True when retrying the *same* replica after a backoff could
    /// succeed — the error is transient rather than a statement that the
    /// resource is down.
    ///
    /// The retry engine uses this: `Timeout`/`Io` legs are worth a
    /// backoff-and-retry; `ResourceUnavailable` means the switchboard (or
    /// a circuit breaker) has declared the target dead for now, so the
    /// right move is failing over, not hammering it.
    pub fn is_transient(&self) -> bool {
        matches!(self, SrbError::Timeout(_) | SrbError::Io(_))
    }

    /// The human-readable detail attached at construction.
    pub(crate) fn detail(&self) -> &str {
        match self {
            SrbError::NotFound(s)
            | SrbError::AlreadyExists(s)
            | SrbError::PermissionDenied(s)
            | SrbError::AuthFailed(s)
            | SrbError::ResourceUnavailable(s)
            | SrbError::Timeout(s)
            | SrbError::Corrupt(s)
            | SrbError::Locked(s)
            | SrbError::Invalid(s)
            | SrbError::MissingMetadata(s)
            | SrbError::Unsupported(s)
            | SrbError::Io(s)
            | SrbError::Parse(s)
            | SrbError::Internal(s) => s,
        }
    }
}

impl fmt::Display for SrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.detail())
    }
}

impl std::error::Error for SrbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(SrbError::NotFound("x".into()).code(), "NOT_FOUND");
        assert_eq!(SrbError::AuthFailed("x".into()).code(), "AUTH_FAILED");
        assert_eq!(SrbError::Parse("x".into()).code(), "PARSE");
    }

    /// The full classification table: (error, code, retryable across
    /// replicas, transient on the same replica).
    #[test]
    fn classification_table() {
        let table: Vec<(SrbError, &str, bool, bool)> = vec![
            (SrbError::NotFound("x".into()), "NOT_FOUND", false, false),
            (
                SrbError::AlreadyExists("x".into()),
                "ALREADY_EXISTS",
                false,
                false,
            ),
            (
                SrbError::PermissionDenied("x".into()),
                "PERMISSION_DENIED",
                false,
                false,
            ),
            (
                SrbError::AuthFailed("x".into()),
                "AUTH_FAILED",
                false,
                false,
            ),
            (
                SrbError::ResourceUnavailable("x".into()),
                "RESOURCE_UNAVAILABLE",
                true,
                false,
            ),
            (SrbError::Timeout("x".into()), "TIMEOUT", true, true),
            (SrbError::Corrupt("x".into()), "CORRUPT", false, false),
            (SrbError::Locked("x".into()), "LOCKED", false, false),
            (SrbError::Invalid("x".into()), "INVALID", false, false),
            (
                SrbError::MissingMetadata("x".into()),
                "MISSING_METADATA",
                false,
                false,
            ),
            (
                SrbError::Unsupported("x".into()),
                "UNSUPPORTED",
                false,
                false,
            ),
            (SrbError::Io("x".into()), "IO", true, true),
            (SrbError::Parse("x".into()), "PARSE", false, false),
            (SrbError::Internal("x".into()), "INTERNAL", false, false),
        ];
        for (err, code, retryable, transient) in table {
            assert_eq!(err.code(), code);
            assert_eq!(err.is_retryable(), retryable, "is_retryable for {code}");
            assert_eq!(err.is_transient(), transient, "is_transient for {code}");
        }
    }

    #[test]
    fn transient_implies_retryable() {
        for e in [
            SrbError::Timeout("t".into()),
            SrbError::Io("io".into()),
            SrbError::ResourceUnavailable("r".into()),
        ] {
            if e.is_transient() {
                assert!(e.is_retryable(), "{} transient but not retryable", e.code());
            }
        }
        // Corruption is neither: a different replica may help a *read*
        // semantically, but blindly retrying hides integrity failures.
        assert!(!SrbError::Corrupt("bad".into()).is_retryable());
        assert!(!SrbError::Corrupt("bad".into()).is_transient());
    }

    #[test]
    fn display_includes_code_and_detail() {
        let e = SrbError::Locked("dataset d3 exclusively locked".into());
        assert_eq!(e.to_string(), "LOCKED: dataset d3 exclusively locked");
        assert_eq!(e.detail(), "dataset d3 exclusively locked");
    }
}
