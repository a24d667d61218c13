#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]
//! MCAT — the Metadata Catalog.
//!
//! "The SRB, in conjunction with the Metadata Catalog, supports location
//! transparency by accessing data sets and resources based on their
//! attributes rather than their names or physical locations."
//!
//! This crate is the catalog: a concurrent, in-memory relational store of
//! every entity the data grid knows about — users and groups, physical and
//! logical storage resources, the collection hierarchy, datasets and their
//! replicas, containers, metadata triplets (system, user-defined,
//! type-oriented, file-based), annotations, and the audit trail — plus the
//! conjunctive attribute-query engine MySRB's query builder targets.
//!
//! MCAT stores facts and enforces *catalog-local* invariants (name
//! uniqueness, structural-metadata requirements, lock compatibility). All
//! distributed policy — replica selection, failover, permission checks on
//! data access — lives in `srb-core`, which reads the facts recorded here.

mod annotation;
mod audit;
mod catalog;
mod collection;
mod container;
pub mod dataset;
pub mod metadata;
mod pages;
mod query;
mod resource;
mod snapshot;
mod table;
pub mod user;
mod wal;

pub use annotation::{Annotation, AnnotationKind};
pub use audit::{AuditAction, AuditPages, AuditRow, Outcome};
pub use catalog::Mcat;
pub use collection::{AttrRequirement, Collection};
pub use container::ContainerRecord;
pub use dataset::{
    AccessSpec, CheckoutState, Dataset, DatasetEntry, LockKind, LockState, NewDataset, Replica,
    ReplicaStatus, Template, VersionRecord,
};
pub use metadata::{MetaKind, MetaRow, MetaRows, Subject};
pub use pages::{RowPages, IMAGE_PAGE_IDS};
pub use query::{Query, QueryCondition, QueryHit};
pub use resource::{LogicalResource, Resource};
pub use snapshot::{CatalogSnapshot, SnapshotGenerations};
pub use user::{Group, User};
pub use wal::{export_deltas, Delta, DeltaFetch, RecoveryReport, Wal, WalConfig, WalOp, WalRecord};
