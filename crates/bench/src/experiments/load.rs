//! LOAD — the million-session front-end under a seeded open workload.
//!
//! N simulated browser clients drive the full MySRB request path
//! (`MySrb::handle`) with a deterministic arrival process: per-client
//! think times drawn from counter-indexed splitmix64 streams on a virtual
//! timeline, and a mixed browse/view/query/ingest scenario mix (the E6
//! driver generalized to whole web requests). Latency is reported two
//! ways: simulated grid nanoseconds from the existing `web.request_ns`
//! srb-obs histograms (host-independent, byte-identical under seed) and
//! wall nanoseconds from harness-local histograms (host-dependent; only
//! gated when this machine has real parallelism).
//!
//! Four blocks feed `BENCH_LOAD.json`:
//! * `rows` — the scenario mix at 10⁴–10⁶ live sessions (sharded +
//!   pooled front-end), p50/p95/p99 per route.
//! * `ablation` — a churn-heavy mix at 10⁵ sessions: sharded session
//!   store + pooled connects vs. the single-lock, unpooled front-end.
//! * `determinism` — the same seeded run executed twice on one worker;
//!   the simulated results and the full metrics snapshot must hash
//!   identically.
//! * `sweep` — abandoned-session reclamation: every session a client
//!   walked away from is reclaimed by the bounded amortized sweep.

use crate::fixtures::ok;
use crate::table::Table;
use mysrb::urlenc::encode;
use mysrb::{MySrb, MySrbConfig, Request, SessionConfig};
use serde_json::json;
use srb_core::{Grid, GridBuilder, IngestOptions, SrbConnection};
use srb_obs::metric;
use srb_types::{fnv1a64, splitmix64, ServerId, Triplet};
use std::collections::BTreeMap;
use std::time::Instant;

pub use super::e6_parallel::real_workers;

/// Web-session TTL re-exported for the sweep block.
use mysrb::WEB_SESSION_TTL_SECS;

/// Knobs (env-capped in CI; see `exp load`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoadParams {
    /// Cap on live sessions (rows above the cap are skipped).
    pub max_sessions: usize,
    /// Measured requests per row.
    pub requests: usize,
    /// Worker threads driving requests.
    pub workers: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LoadParams {
    fn default() -> Self {
        LoadParams {
            max_sessions: 1_000_000,
            requests: 50_000,
            workers: real_workers(),
            seed: 0x10ad,
        }
    }
}

/// Registered users backing the simulated clients (clients map onto
/// users round-robin; the paper's "millions of users" share far fewer
/// concurrently-hot accounts than sessions).
const USERS: usize = 512;

/// The scenario mix, in percent: browse/view/query/ingest plus a
/// logout+login churn component (the churn is what separates pooled from
/// unpooled connects).
#[derive(Clone, Copy)]
struct Mix {
    browse: u64,
    view: u64,
    query: u64,
    ingest: u64,
    churn: u64,
}

const STANDARD_MIX: Mix = Mix {
    browse: 45,
    view: 25,
    query: 20,
    ingest: 10,
    churn: 0,
};

/// Ablation mix: 30% of requests re-sign-on, so the session-create and
/// connect paths — exactly what sharding + pooling optimize — stay hot.
const CHURN_MIX: Mix = Mix {
    browse: 40,
    view: 15,
    query: 10,
    ingest: 5,
    churn: 30,
};

const OPS: [&str; 5] = ["browse", "view", "query", "ingest", "churn"];

fn pick_op(mix: &Mix, coin: u64) -> usize {
    let c = coin % 100;
    let mut acc = 0;
    for (i, w) in [mix.browse, mix.view, mix.query, mix.ingest, mix.churn]
        .into_iter()
        .enumerate()
    {
        acc += w;
        if c < acc {
            return i;
        }
    }
    0
}

/// One site, observability on, `USERS` accounts each with a seeded home
/// collection `/home/u{j}/c` holding two metadata-tagged datasets.
fn load_grid() -> (Grid, ServerId) {
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    for j in 0..USERS {
        ok(grid.register_user(&format!("u{j}"), "load", "pw"));
    }
    for j in 0..USERS {
        let conn = ok(SrbConnection::connect_pooled(
            &grid,
            srv,
            &format!("u{j}"),
            "load",
            "pw",
        ));
        let home = format!("/home/u{j}/c");
        ok(conn.make_collection(&home));
        for d in 0..2 {
            ok(conn.ingest(
                &format!("{home}/d{d}"),
                b"seed payload".as_slice(),
                IngestOptions::to_resource("fs")
                    .with_metadata(Triplet::new("kind", "text", ""))
                    .with_metadata(Triplet::new("score", (j * 2 + d) as i64, "")),
            ));
        }
    }
    (grid, srv)
}

fn login_body(user: usize) -> String {
    format!("user=u{user}&domain=load&password=pw")
}

fn session_key(app: &MySrb<'_>, user: usize) -> String {
    let resp = app.handle(&Request::post("/login", &login_body(user), None));
    assert_eq!(resp.status, 303, "login must succeed for u{user}");
    resp.headers
        .iter()
        .find(|(k, _)| k == "Set-Cookie")
        .and_then(|(_, v)| v.strip_prefix("mysrb_session="))
        .and_then(|v| v.split(';').next())
        .map(|v| v.to_string())
        .unwrap_or_else(|| panic!("login response carried no session cookie"))
}

/// Latency + virtual-timeline stats for one route.
#[derive(Default, Clone)]
struct RouteStats {
    count: u64,
    wall_p50_ns: u64,
    wall_p95_ns: u64,
    wall_p99_ns: u64,
    sim_p50_ns: u64,
    sim_p95_ns: u64,
    sim_p99_ns: u64,
}

/// Everything one measured configuration produces.
struct RunResult {
    sessions: usize,
    requests: usize,
    login_wall_ms: f64,
    req_wall_ms: f64,
    kreq_s: f64,
    /// Requests per *virtual* second of the open arrival process.
    virtual_rps: f64,
    routes: BTreeMap<&'static str, RouteStats>,
    logins_total: u64,
    pool_hits: u64,
    pool_misses: u64,
    live_end: usize,
}

/// Drive `requests` mixed requests from `sessions` live clients through
/// a fresh grid + app with the given front-end configuration.
fn run_workload(
    sessions: usize,
    requests: usize,
    workers: usize,
    shards: usize,
    pooled: bool,
    mix: &Mix,
    seed: u64,
) -> RunResult {
    let (grid, srv) = load_grid();
    let app = MySrb::with_config(
        &grid,
        srv,
        seed,
        MySrbConfig {
            session: SessionConfig {
                shards,
                sweep_budget: 8,
            },
            pooled_login: pooled,
        },
    );
    let (h0, m0) = grid.pool.stats();

    let workers = workers.max(1).min(sessions.max(1));
    // Contiguous client partition per worker.
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| (sessions * w / workers, sessions * (w + 1) / workers))
        .collect();

    // Phase 1: the login storm — every client signs on.
    let t0 = Instant::now();
    let mut worker_keys: Vec<Vec<String>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let app = &app;
                scope.spawn(move || (lo..hi).map(|c| session_key(app, c % USERS)).collect())
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(keys) => worker_keys.push(keys),
                Err(_) => panic!("login worker panicked"),
            }
        }
    });
    let login_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Phase 2: the open-workload request storm. Each worker owns its
    // clients' keys; arrivals advance per-client virtual think-time
    // clocks (uniform 0.5–1.5 virtual seconds, integer ns, so the
    // virtual timeline is bit-identical on every host).
    let wall_hists: Vec<srb_obs::Histogram> = (0..OPS.len())
        .map(|_| srb_obs::Histogram::default())
        .collect();
    let per_worker = requests / workers;
    let t0 = Instant::now();
    let mut makespan_ns = 0u64;
    let mut churn_logins = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = worker_keys
            .iter_mut()
            .zip(&bounds)
            .enumerate()
            .map(|(w, (keys, &(lo, hi)))| {
                let app = &app;
                let wall_hists = &wall_hists;
                scope.spawn(move || {
                    let span = (hi - lo).max(1);
                    let mut vt: Vec<u64> = vec![0; span];
                    let mut churned = 0u64;
                    for r in 0..per_worker {
                        let n = ((w as u64) << 40) | r as u64;
                        let ci = (splitmix64(seed ^ 0xc11e47, n) as usize) % span;
                        let user = (lo + ci) % USERS;
                        let op = pick_op(mix, splitmix64(seed ^ 0x0901, n));
                        vt[ci] += 500_000_000 + splitmix64(seed ^ 0x7417, n) % 1_000_000_000;
                        let home = format!("/home/u{user}/c");
                        let key = keys[ci].as_str();
                        let t = Instant::now();
                        match OPS[op] {
                            "browse" => {
                                let req = Request::get(
                                    &format!("/browse?path={}", encode(&home)),
                                    Some(key),
                                );
                                assert_eq!(app.handle(&req).status, 200, "browse");
                            }
                            "view" => {
                                let req = Request::get(
                                    &format!(
                                        "/view?path={}",
                                        encode(&format!("{home}/d{}", r % 2))
                                    ),
                                    Some(key),
                                );
                                assert_eq!(app.handle(&req).status, 200, "view");
                            }
                            "query" => {
                                let body =
                                    format!("scope={}&attr=kind&op=%3D&value=text", encode(&home));
                                let req = Request::post("/query", &body, Some(key));
                                assert_eq!(app.handle(&req).status, 200, "query");
                            }
                            "ingest" => {
                                let body = format!(
                                    "coll={}&name=g{w}x{r}&resource=fs&content=fresh",
                                    encode(&home)
                                );
                                let req = Request::post("/ingest", &body, Some(key));
                                assert_eq!(app.handle(&req).status, 200, "ingest");
                            }
                            _ => {
                                let out = app.handle(&Request::get("/logout", Some(key)));
                                assert_eq!(out.status, 303, "logout");
                                keys[ci] = session_key(app, user);
                                churned += 1;
                            }
                        }
                        wall_hists[op].observe(t.elapsed().as_nanos() as u64);
                    }
                    (vt.into_iter().max().unwrap_or(0), churned)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((vmax, churned)) => {
                    makespan_ns = makespan_ns.max(vmax);
                    churn_logins += churned;
                }
                Err(_) => panic!("request worker panicked"),
            }
        }
    });
    let req_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let done = (per_worker * workers) as f64;

    // Merge wall + sim views per route.
    let snapshot = grid.metrics_snapshot();
    let route_label = |op: &str| match op {
        "browse" => "/browse",
        "view" => "/view",
        "query" => "/query",
        "ingest" => "/ingest",
        _ => "/login",
    };
    let mut routes = BTreeMap::new();
    for (i, op) in OPS.iter().enumerate() {
        let wall = wall_hists[i].snapshot();
        if wall.count == 0 {
            continue;
        }
        let (sim_p50, sim_p95, sim_p99) = snapshot
            .histograms
            .get("web.request_ns")
            .and_then(|fam| fam.get(route_label(op)))
            .map_or((0, 0, 0), |s| (s.p50, s.p95, s.p99));
        routes.insert(
            *op,
            RouteStats {
                count: wall.count,
                wall_p50_ns: wall.p50,
                wall_p95_ns: wall.p95,
                wall_p99_ns: wall.p99,
                sim_p50_ns: sim_p50,
                sim_p95_ns: sim_p95,
                sim_p99_ns: sim_p99,
            },
        );
    }

    let (h1, m1) = grid.pool.stats();
    RunResult {
        sessions,
        requests: per_worker * workers,
        login_wall_ms,
        req_wall_ms,
        kreq_s: done / (req_wall_ms / 1e3).max(1e-9) / 1e3,
        virtual_rps: done / (makespan_ns as f64 / 1e9).max(1e-9),
        routes,
        logins_total: sessions as u64 + churn_logins,
        pool_hits: h1 - h0,
        pool_misses: m1 - m0,
        live_end: app.sessions().count(),
    }
}

fn routes_json(routes: &BTreeMap<&'static str, RouteStats>) -> serde_json::Value {
    serde_json::Value::Map(
        routes
            .iter()
            .map(|(op, s)| {
                (
                    op.to_string(),
                    json!({
                        "count": s.count,
                        "wall_p50_ns": s.wall_p50_ns,
                        "wall_p95_ns": s.wall_p95_ns,
                        "wall_p99_ns": s.wall_p99_ns,
                        "sim_p50_ns": s.sim_p50_ns,
                        "sim_p95_ns": s.sim_p95_ns,
                        "sim_p99_ns": s.sim_p99_ns,
                    }),
                )
            })
            .collect(),
    )
}

/// The simulated/deterministic face of a run — everything here must be
/// byte-identical across same-seed single-worker replays (wall numbers
/// are deliberately absent).
fn sim_fields(r: &RunResult) -> serde_json::Value {
    let routes = serde_json::Value::Map(
        r.routes
            .iter()
            .map(|(op, s)| {
                (
                    op.to_string(),
                    json!({
                        "count": s.count,
                        "sim_p50_ns": s.sim_p50_ns,
                        "sim_p95_ns": s.sim_p95_ns,
                        "sim_p99_ns": s.sim_p99_ns,
                    }),
                )
            })
            .collect(),
    );
    json!({
        "sessions": r.sessions,
        "requests": r.requests,
        "virtual_rps_millis": (r.virtual_rps * 1e3) as u64,
        "routes": routes,
        "logins_total": r.logins_total,
        "pool_hits": r.pool_hits,
        "pool_misses": r.pool_misses,
        "live_end": r.live_end,
    })
}

/// Session-count scaling rows: 10⁴ → 10⁶ live sessions, standard mix,
/// sharded + pooled front-end.
fn scaling_rows(p: &LoadParams) -> Vec<RunResult> {
    let mut sizes: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .filter(|&s| s <= p.max_sessions)
        .collect();
    if sizes.is_empty() {
        // Heavily capped (CI smoke) run: keep one row at the cap so the
        // artifact shape is stable.
        sizes.push(p.max_sessions.max(1));
    }
    sizes
        .into_iter()
        .map(|s| {
            run_workload(
                s,
                p.requests,
                p.workers,
                SessionConfig::default().shards,
                true,
                &STANDARD_MIX,
                p.seed,
            )
        })
        .collect()
}

/// The ablation pair at 10⁵ sessions (capped): sharded + pooled vs. the
/// single-lock, unpooled front-end under the churn-heavy mix.
fn ablation_pair(p: &LoadParams) -> (RunResult, RunResult) {
    let sessions = 100_000usize.min(p.max_sessions);
    let requests = p.requests;
    let sharded = run_workload(
        sessions,
        requests,
        p.workers,
        SessionConfig::default().shards,
        true,
        &CHURN_MIX,
        p.seed,
    );
    let single = run_workload(sessions, requests, p.workers, 1, false, &CHURN_MIX, p.seed);
    (sharded, single)
}

/// Two identical seeded single-worker runs; their simulated results and
/// full metric snapshots must hash identically.
fn determinism_block(p: &LoadParams) -> serde_json::Value {
    let small = LoadParams {
        max_sessions: p.max_sessions.min(2_000),
        requests: p.requests.min(5_000),
        workers: 1,
        seed: p.seed,
    };
    let digest = || -> u64 {
        let (grid, srv) = load_grid();
        let app = MySrb::with_config(&grid, srv, small.seed, MySrbConfig::default());
        let keys: Vec<String> = (0..small.max_sessions)
            .map(|c| session_key(&app, c % USERS))
            .collect();
        let mut vt = 0u64;
        for r in 0..small.requests {
            let n = r as u64;
            let ci = (splitmix64(small.seed ^ 0xc11e47, n) as usize) % keys.len();
            let user = ci % USERS;
            let op = pick_op(&STANDARD_MIX, splitmix64(small.seed ^ 0x0901, n));
            vt += 500_000_000 + splitmix64(small.seed ^ 0x7417, n) % 1_000_000_000;
            let home = format!("/home/u{user}/c");
            let key = keys[ci].as_str();
            let status = match OPS[op] {
                "view" => {
                    app.handle(&Request::get(
                        &format!("/view?path={}", encode(&format!("{home}/d{}", r % 2))),
                        Some(key),
                    ))
                    .status
                }
                "query" => {
                    app.handle(&Request::post(
                        "/query",
                        &format!("scope={}&attr=kind&op=%3D&value=text", encode(&home)),
                        Some(key),
                    ))
                    .status
                }
                "ingest" => {
                    app.handle(&Request::post(
                        "/ingest",
                        &format!(
                            "coll={}&name=g0x{r}&resource=fs&content=fresh",
                            encode(&home)
                        ),
                        Some(key),
                    ))
                    .status
                }
                _ => {
                    app.handle(&Request::get(
                        &format!("/browse?path={}", encode(&home)),
                        Some(key),
                    ))
                    .status
                }
            };
            assert_eq!(status, 200);
        }
        let text = format!(
            "{}\nvt:{vt}\nkeys:{}",
            grid.metrics_snapshot().render_text(),
            keys.join(",")
        );
        fnv1a64(&[text.as_bytes()])
    };
    let a = digest();
    let b = digest();
    json!({
        "runs": 2,
        "sessions": small.max_sessions,
        "requests": small.requests,
        "digest_a": format!("{a:016x}"),
        "digest_b": format!("{b:016x}"),
        "identical": a == b,
    })
}

/// Abandoned-session reclamation: create sessions, let every one of them
/// expire unpresented, and drain them with the bounded sweep.
fn sweep_block(p: &LoadParams) -> serde_json::Value {
    let sessions = 50_000usize.min(p.max_sessions);
    let (grid, srv) = load_grid();
    let app = MySrb::with_config(&grid, srv, p.seed, MySrbConfig::default());
    for c in 0..sessions {
        let _ = session_key(&app, c % USERS);
    }
    let live_before = app.sessions().count();
    grid.clock
        .advance((WEB_SESSION_TTL_SECS + 1) * 1_000_000_000);
    let mut reclaimed = 0usize;
    let mut calls = 0usize;
    while reclaimed < sessions && calls < sessions {
        reclaimed += app.sessions().sweep_expired(1024);
        calls += 1;
    }
    let gauge = grid
        .metrics_snapshot()
        .gauge(metric!("web.session_live"), "all");
    json!({
        "sessions": sessions,
        "live_before_sweep": live_before,
        "reclaimed": reclaimed,
        "sweep_calls": calls,
        "live_after": app.sessions().count(),
        "live_gauge_after": gauge,
    })
}

fn row_json(r: &RunResult, shards: usize, pooled: bool) -> serde_json::Value {
    json!({
        "sessions": r.sessions,
        "requests": r.requests,
        "shards": shards,
        "pooled": pooled,
        "login_wall_ms": r.login_wall_ms,
        "req_wall_ms": r.req_wall_ms,
        "kreq_s": r.kreq_s,
        "virtual_rps": r.virtual_rps,
        "routes": routes_json(&r.routes),
        "logins_total": r.logins_total,
        "pool_hits": r.pool_hits,
        "pool_misses": r.pool_misses,
        "users": USERS,
        "live_end": r.live_end,
    })
}

/// Machine-checkable artifact for `cargo xtask benchcheck`.
pub(crate) fn run_json(p: &LoadParams) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = scaling_rows(p)
        .iter()
        .map(|r| row_json(r, SessionConfig::default().shards, true))
        .collect();
    let (sharded, single) = ablation_pair(p);
    let ablation = json!({
        "sessions": sharded.sessions,
        "requests": sharded.requests,
        "workers": p.workers,
        "mix_churn_pct": CHURN_MIX.churn,
        "sharded": row_json(&sharded, SessionConfig::default().shards, true),
        "single_lock": row_json(&single, 1, false),
        "wall_speedup": sharded.kreq_s / single.kreq_s.max(1e-9),
        "sim": json!({
            "sharded": sim_fields(&sharded),
            "single_lock": sim_fields(&single),
        }),
    });
    json!({
        "experiment": "load_frontend",
        "workers": p.workers,
        "seed": p.seed,
        "users": USERS,
        "rows": rows,
        "ablation": ablation,
        "determinism": determinism_block(p),
        "sweep": sweep_block(p),
    })
}

/// Human-readable tables.
pub(crate) fn run_tables(p: &LoadParams) -> Vec<Table> {
    let mut scale = Table::new(
        &format!(
            "LOAD: open-workload scenario mix, sharded+pooled front-end ({} workers)",
            p.workers
        ),
        &[
            "sessions",
            "requests",
            "login ms",
            "req ms",
            "kreq/s",
            "browse sim p95 us",
            "browse wall p95 us",
        ],
    );
    for r in scaling_rows(p) {
        let b = r.routes.get("browse").cloned().unwrap_or_default();
        scale.row(vec![
            r.sessions.to_string(),
            r.requests.to_string(),
            format!("{:.0}", r.login_wall_ms),
            format!("{:.0}", r.req_wall_ms),
            format!("{:.1}", r.kreq_s),
            format!("{:.1}", b.sim_p95_ns as f64 / 1e3),
            format!("{:.1}", b.wall_p95_ns as f64 / 1e3),
        ]);
    }
    let (sharded, single) = ablation_pair(p);
    let mut ab = Table::new(
        "LOAD ablation: sharded+pooled vs single-lock unpooled (churn mix)",
        &[
            "front-end",
            "kreq/s",
            "login ms",
            "pool hits",
            "pool misses",
        ],
    );
    for (label, r) in [("sharded+pooled", &sharded), ("single-lock", &single)] {
        ab.row(vec![
            label.to_string(),
            format!("{:.1}", r.kreq_s),
            format!("{:.0}", r.login_wall_ms),
            r.pool_hits.to_string(),
            r.pool_misses.to_string(),
        ]);
    }
    vec![scale, ab]
}
