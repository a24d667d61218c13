//! `gridbench` — the repository's benchmark.
//!
//! Four closed-loop workloads drive the grid from outside, through its
//! public functions and counters only: `web_mix` over a loopback socket,
//! `catalog_query` and `durable_ingest` through `SrbConnection`,
//! `zone_sync` through `Federation`. A plain run reports the end-to-end
//! metrics `BENCHMARK.json` declares; a traced run re-issues every op as
//! a ladder, one rung per layer, and reports the per-layer metrics. See
//! `README.md` beside this crate.

pub mod compare;
pub mod gen;
pub mod report;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
