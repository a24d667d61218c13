#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]
//! Simulated wide-area network for the data grid.
//!
//! The SRB paper's deployments span SDSC, CalTech and other sites over a
//! real WAN; we model that WAN so latency-sensitive behaviour (container
//! aggregation, federated hops, replica selection) is measurable and
//! deterministic. See DESIGN.md §2 for the substitution argument.
//!
//! The model is intentionally analytic rather than packet-level: a transfer
//! of `n` bytes across a link costs `latency + n / bandwidth` (plus a
//! per-message overhead), and multi-hop routes are found with Dijkstra over
//! the link graph. Costs are charged to the shared [`srb_types::SimClock`] or returned
//! in [`Receipt`]s that concurrent workloads combine.

pub mod fault;
pub mod health;
pub mod load;
pub mod receipt;
pub mod topology;

pub use fault::{FaultMode, FaultPlan};
pub use health::{Admission, BreakerConfig, BreakerState, HealthRegistry};
pub use load::LoadTracker;
pub use receipt::Receipt;
pub use topology::{LinkSpec, Network, NetworkBuilder, Route};
