#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]
#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]
//! The Storage Resource Broker.
//!
//! This crate is the paper's primary contribution: federated client–server
//! middleware that builds a logical name space over the heterogeneous
//! storage substrate (`srb-storage`), records every fact in the MCAT
//! (`srb-mcat`), and moves bytes across the simulated WAN (`srb-net`).
//!
//! The public API mirrors how SRB is used:
//!
//! 1. Describe a deployment with [`GridBuilder`]: sites, links, servers,
//!    resources, logical resources.
//! 2. [`SrbConnection::connect`] to *any* server with single sign-on.
//! 3. Ingest, register, replicate, copy, move, link, lock, pin, check out,
//!    annotate, attach metadata, and query — every operation returns a
//!    [`srb_net::Receipt`] with its simulated cost.
//!
//! ```
//! use srb_core::{GridBuilder, SrbConnection, IngestOptions};
//!
//! let mut gb = GridBuilder::new();
//! let sdsc = gb.site("sdsc");
//! let srv = gb.server("srb-sdsc", sdsc);
//! gb.fs_resource("unix-sdsc", srv);
//! let grid = gb.build();
//! grid.register_user("sekar", "sdsc", "secret").unwrap();
//!
//! let conn = SrbConnection::connect(&grid, srv, "sekar", "sdsc", "secret").unwrap();
//! conn.ingest("/home/sekar/hello.txt", b"hi", IngestOptions::to_resource("unix-sdsc")).unwrap();
//! let (data, _receipt) = conn.read("/home/sekar/hello.txt").unwrap();
//! assert_eq!(&data[..], b"hi");
//! ```

pub mod auth;
pub mod conn;
pub mod fanout;
pub mod grid;
pub mod obs;
pub mod ops_container;
pub mod ops_lock;
pub mod ops_maintenance;
pub mod ops_meta;
pub mod ops_write;
pub mod pool;
pub mod proxy;
pub mod replication;
pub mod state;
pub mod template;
pub mod tlang;
pub mod xmlmeta;
pub mod zone;

pub use auth::{AuthService, Session};
pub use conn::{ObjectContent, SrbConnection};
pub use fanout::{FanoutMode, RetryBudget};
pub use grid::{Grid, GridBuilder, SrbServer};
pub use obs::CoreObs;
pub use ops_maintenance::{ChecksumStatus, RepairOutcome, RepairReport};
pub use ops_write::{IngestOptions, RegisterSpec};
pub use pool::ConnPool;
pub use proxy::ProxyRegistry;
pub use replication::{OrderedReplicas, ReplicaPolicy};
pub use srb_net::{Admission, BreakerConfig, BreakerState, FaultMode, HealthRegistry, Receipt};
pub use template::render_template;
pub use tlang::TScript;
pub use zone::{
    FedConnection, Federation, PumpReport, SubscriptionStatus, Zone, ZoneHit, ZoneId,
    ZoneLinkStatus,
};
