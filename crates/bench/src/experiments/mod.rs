//! One module per experiment in DESIGN.md §5, and the registry the `exp`
//! binary is driven by.

pub mod e10_cache;
pub mod e1_catalog_scale;
pub mod e2_containers;
pub mod e2_range;
pub mod e3_failover;
pub mod e4_federation;
pub mod e5_query;
pub mod e6_parallel;
pub mod e7_sync_repl;
pub mod e8_auth;
pub mod e9_migration;
pub mod figures;
pub mod load;
pub mod obs_overhead;
pub mod recovery;
pub mod zone;

use crate::table::Table;
use serde_json::Value;

/// A recorded artifact: the file `exp` writes in the current directory
/// and the function producing its document.
pub type Artifact = (&'static str, fn() -> Value);

/// One experiment as the `exp` binary sees it.
pub struct Experiment {
    /// `exp <name>`.
    pub name: &'static str,
    /// The human-readable run. `suite` is true under `exp all`, where the
    /// larger sweeps default to a reduced scale; an `SRB_*` variable, when
    /// set, wins either way.
    pub tables: fn(suite: bool) -> Vec<Table>,
    /// What `--json` records.
    pub json: Option<Artifact>,
    /// What `--metrics-json` records (a grid metric snapshot).
    pub metrics: Option<Artifact>,
}

impl Experiment {
    const fn new(name: &'static str, tables: fn(bool) -> Vec<Table>) -> Self {
        Experiment {
            name,
            tables,
            json: None,
            metrics: None,
        }
    }

    const fn json(self, file: &'static str, document: fn() -> Value) -> Self {
        Experiment {
            json: Some((file, document)),
            ..self
        }
    }

    const fn metrics(self, file: &'static str, document: fn() -> Value) -> Self {
        Experiment {
            metrics: Some((file, document)),
            ..self
        }
    }
}

/// The scale variable `name`, or `default` when unset or unparsable.
fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn e1_max() -> usize {
    env_or("SRB_E1_MAX", 100_000)
}

fn e6_files(default: usize) -> usize {
    env_or("SRB_E6_FILES", default)
}

fn obs_scale() -> (usize, usize) {
    (
        env_or("SRB_OBS_DATASETS", 10_000),
        env_or("SRB_OBS_FILES", 16),
    )
}

fn load_params(suite: bool) -> load::LoadParams {
    let d = load::LoadParams::default();
    let (sessions, requests) = if suite {
        (10_000, 5_000)
    } else {
        (d.max_sessions, d.requests)
    };
    load::LoadParams {
        max_sessions: env_or("SRB_LOAD_SESSIONS", sessions),
        requests: env_or("SRB_LOAD_REQUESTS", requests),
        workers: env_or("SRB_LOAD_WORKERS", d.workers),
        ..d
    }
}

/// Every experiment, in the order `exp all` runs them.
pub const REGISTRY: &[Experiment] = &[
    Experiment::new("e1_catalog_scale", |_| {
        vec![e1_catalog_scale::run(e1_max())]
    })
    .json("BENCH_E1.json", || e1_catalog_scale::run_json(e1_max()))
    .metrics("BENCH_E1_METRICS.json", || {
        e1_catalog_scale::metrics_json(e1_max())
    }),
    Experiment::new("e2_containers", |_| vec![e2_containers::run(50)]),
    Experiment::new("e2_range", |suite| {
        let n = env_or("SRB_E2_N", if suite { 50_000 } else { 100_000 });
        vec![e2_range::run(n), e2_range::run_paging(n.min(100_000))]
    })
    .json("BENCH_E2.json", || {
        e2_range::run_json(env_or("SRB_E2_N", 1_000_000))
    }),
    Experiment::new("e3_failover", |_| {
        let reads = env_or("SRB_E3_READS", 400);
        vec![e3_failover::run(), e3_failover::run_flaky(reads)]
    })
    .json("BENCH_E3.json", || {
        e3_failover::run_json(env_or("SRB_E3_READS", 400))
    }),
    Experiment::new("e4_federation", |_| vec![e4_federation::run()]),
    Experiment::new("e5_query", |_| {
        vec![e5_query::run(env_or("SRB_E5_N", 20_000))]
    })
    .json("BENCH_E5.json", || {
        e5_query::run_json(env_or("SRB_E5_N", 100_000))
    }),
    Experiment::new("e6_parallel", |suite| {
        vec![
            e6_parallel::run_scaling(),
            e6_parallel::run_policies(),
            e6_parallel::run_policies_skewed(),
            e6_parallel::run_fanout(e6_files(if suite { 2_000 } else { 10_000 })),
        ]
    })
    .json("BENCH_E6.json", || e6_parallel::run_json(e6_files(10_000)))
    .metrics("BENCH_E6_METRICS.json", || {
        e6_parallel::metrics_json(e6_files(10_000))
    }),
    Experiment::new("e7_sync_repl", |_| vec![e7_sync_repl::run()])
        .json("BENCH_E7.json", e7_sync_repl::run_json),
    Experiment::new("e8_auth", |_| vec![e8_auth::run()]),
    Experiment::new("e9_migration", |_| vec![e9_migration::run()]),
    Experiment::new("e10_cache", |_| vec![e10_cache::run()]),
    Experiment::new("obs_overhead", |_| {
        let (datasets, files) = obs_scale();
        vec![obs_overhead::run(datasets, files)]
    })
    .json("BENCH_OBS.json", || {
        let (datasets, files) = obs_scale();
        obs_overhead::run_json(datasets, files)
    }),
    Experiment::new("recovery", |suite| {
        let max = if suite { 10_000 } else { 100_000 };
        vec![recovery::run(env_or("SRB_RECOVERY_MAX", max))]
    })
    .json("BENCH_RECOVERY.json", || {
        recovery::run_json(env_or("SRB_RECOVERY_MAX", 100_000))
    }),
    Experiment::new("zone", |_| vec![zone::run(), zone::run_tail()])
        .json("BENCH_ZONE.json", zone::run_json),
    Experiment::new("load", |suite| load::run_tables(&load_params(suite)))
        .json("BENCH_LOAD.json", || load::run_json(&load_params(false))),
    Experiment::new("f1_figure1", |_| vec![figures::figure1()]),
    Experiment::new("f2_figure2", |_| vec![figures::figure2()]),
];
