#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]
//! Heterogeneous storage substrate for the data grid.
//!
//! The SRB paper brokers "archival storage systems (such as HPSS, DMF,
//! ADSM, UniTree), file systems (Unix, NTFS, Linux), and databases (Oracle,
//! Sybase, DB2)". This crate provides the equivalent substrate: a uniform
//! [`StorageDriver`] trait and four families of simulated back-ends, each
//! with its own latency profile (see DESIGN.md §2 for the substitution
//! argument):
//!
//! * [`fs::FsDriver`] — a POSIX-like in-memory file system,
//! * [`archive::ArchiveDriver`] — a tape archive with mount + staging costs,
//! * [`cache::CacheDriver`] — a capacity-bounded disk cache with LRU purge
//!   and the pin semantics MySRB exposes,
//! * [`db::DbDriver`] — a micro relational engine (the target of registered
//!   SQL objects) that also stores LOBs,
//! * [`url::UrlDriver`] — remote web objects fetched at access time.
//!
//! [`logdev::LogDevice`] sits alongside the drivers: a crash-aware
//! sequential log medium backing the MCAT's write-ahead log, with the same
//! virtual-cost discipline.
//!
//! All drivers are `Send + Sync`; costs are returned in virtual nanoseconds
//! so callers can charge them to the simulation clock or fold them into
//! receipts.

pub mod archive;
pub mod cache;
pub mod db;
pub mod driver;
pub mod fs;
pub mod logdev;
pub mod memfs;
pub mod sql;
pub mod url;

pub use archive::ArchiveDriver;
pub use cache::CacheDriver;
pub use db::DbDriver;
pub use driver::{CostModel, DriverKind, ObjStat, StorageDriver};
pub use fs::FsDriver;
pub use logdev::{Image, LogDevice, TailRead};
pub use sql::{SqlEngine, SqlValue};
pub use url::UrlDriver;
