#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![deny(unsafe_code)]
//! Common foundation types for the `srb-grid` workspace.
//!
//! This crate holds everything that more than one subsystem needs but that
//! carries no policy of its own: strongly typed identifiers, the error type,
//! the logical name space path representation, the deterministic virtual
//! clock used by the simulated WAN, metadata value types with the comparison
//! operators the MCAT query language exposes, the access-control model, a
//! small-string type for short catalog text, and a from-scratch
//! SHA-256/HMAC used by the single-sign-on handshake.

pub mod acl;
#[allow(unsafe_code)]
pub mod alloc;
pub mod clock;
pub mod cursor;
pub mod error;
pub mod gen;
// The SHA extensions' compression is called through one `unsafe` call.
#[allow(unsafe_code)]
pub mod hash;
pub mod id;
pub mod path;
pub mod short;
// The ranked wrappers are the one place that names `std::sync`'s locks.
#[allow(clippy::disallowed_types)]
pub mod sync;
pub mod value;

pub use acl::{AccessMatrix, Permission, Role};
pub use clock::{SimClock, Timestamp};
pub use cursor::{CursorCodec, PageToken};
pub use error::{SrbError, SrbResult};
pub use gen::{GenCounter, Generation, Lsn};
pub use hash::{
    ct_eq, fnv1a64, from_hex, mix64, sha256, splitmix64, to_hex, CatalogKey, Checksum, HmacKey,
    IdBuild, IdHasher, IdMap, IdSet, SeedStream, Sha256,
};
pub use id::*;
pub use path::LogicalPath;
pub use short::ShortStr;
pub use sync::LockRank;
pub use value::{like_prefix, like_scan_prefix, text_index_cmp, CompareOp, MetaValue, Triplet};
