#![warn(missing_docs)]
//! Common foundation types for the `srb-grid` workspace.
//!
//! This crate holds everything that more than one subsystem needs but that
//! carries no policy of its own: strongly typed identifiers, the error type,
//! the logical name space path representation, the deterministic virtual
//! clock used by the simulated WAN, metadata value types with the comparison
//! operators the MCAT query language exposes, the access-control model, and
//! a from-scratch SHA-256/HMAC used by the single-sign-on handshake.

pub mod acl;
pub mod alloc;
pub mod clock;
pub mod cursor;
pub mod error;
pub mod gen;
pub mod hash;
pub mod id;
pub mod path;
pub mod sync;
pub mod value;

pub use acl::{AccessMatrix, Permission, Role};
pub use clock::{SimClock, Timestamp};
pub use cursor::{CursorCodec, PageToken};
pub use error::{SrbError, SrbResult};
pub use gen::{GenCounter, Generation, Lsn};
pub use hash::{
    ct_eq, fnv1a64, from_hex, mix64, sha256, sha256_hex, splitmix64, to_hex, HmacKey, IdHasher,
    IdMap, IdSet, SeedStream, Sha256,
};
pub use id::*;
pub use path::LogicalPath;
pub use sync::LockRank;
pub use value::{like_prefix, like_scan_prefix, text_index_cmp, CompareOp, MetaValue, Triplet};
