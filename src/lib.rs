//! `srb-grid` — a Rust reproduction of the SDSC Storage Resource Broker
//! (SRB) and MySRB, the data-grid middleware described in
//! *"MySRB & SRB: Components of a Data Grid"* (HPDC 2002).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`types`] — ids, paths, errors, virtual clock, metadata values, ACLs;
//! * [`net`] — the simulated WAN (sites, links, costs, failure injection);
//! * [`storage`] — heterogeneous storage drivers (fs, archive, cache,
//!   database with micro-SQL, URLs);
//! * [`mcat`] — the metadata catalog and query engine;
//! * [`core`] — the SRB itself (grid assembly, federation, client API);
//! * [`web`] — MySRB, the web interface.
//!
//! Start with [`prelude`] and the `examples/` directory.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub use mysrb as web;
pub use srb_core as core;
pub use srb_mcat as mcat;
pub use srb_net as net;
pub use srb_storage as storage;
pub use srb_types as types;

/// The names most programs need.
pub mod prelude {
    pub use mysrb::{MySrb, Request as WebRequest};
    pub use srb_core::{
        Grid, GridBuilder, IngestOptions, ObjectContent, Receipt, RegisterSpec, ReplicaPolicy,
        SrbConnection,
    };
    pub use srb_mcat::{AnnotationKind, AttrRequirement, LockKind, Query, Template};
    pub use srb_net::LinkSpec;
    pub use srb_types::{
        CompareOp, LogicalPath, MetaValue, Permission, Role, SrbError, SrbResult, Triplet,
    };
}
