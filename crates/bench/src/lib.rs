//! Benchmark harness for the srb-grid reproduction.
//!
//! The paper has no quantitative tables, so each experiment here
//! regenerates the evidence for one of its *claims* (DESIGN.md §5 maps
//! experiment ids to claims). Every experiment is a pure function printing
//! a table; the `exp` binary runs them by name from one registry
//! ([`experiments::REGISTRY`]).

pub mod experiments;
pub mod fixtures;
pub mod table;

pub use fixtures::{federated_grid, seed_datasets, single_site_grid};
pub use table::Table;
