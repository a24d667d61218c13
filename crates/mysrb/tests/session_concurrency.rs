//! Concurrency coverage for the sharded [`SessionStore`]: scoped-thread
//! create/validate/expire interleavings driven by seeded schedules,
//! asserting no session is lost, resurrected, or double-reclaimed, and
//! that observable behavior does not depend on the shard count.

use mysrb::{SessionConfig, SessionStore, WEB_SESSION_TTL_SECS};
use srb_core::{Grid, GridBuilder, SrbConnection};
use srb_obs::{metric, MetricsRegistry};
use srb_types::splitmix64;

fn fixture() -> (Grid, srb_types::ServerId) {
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    grid.register_user("u", "d", "pw").expect("register user");
    (grid, srv)
}

fn connect<'g>(grid: &'g Grid, srv: srb_types::ServerId) -> SrbConnection<'g> {
    SrbConnection::connect_pooled(grid, srv, "u", "d", "pw").expect("connect")
}

/// T threads each create K sessions, remove a seeded subset, and poke
/// shared state (count/sweep) while the others run. Afterwards every
/// kept key must validate, every removed key must fail, and the table
/// must hold exactly the kept sessions — none lost, none resurrected.
#[test]
fn seeded_create_remove_interleaving_loses_nothing() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 25;
    let (grid, srv) = fixture();
    let store = SessionStore::with_config(
        grid.clock.clone(),
        11,
        SessionConfig {
            shards: 8,
            sweep_budget: 4,
        },
    );

    let mut kept: Vec<Vec<String>> = Vec::new();
    let mut removed: Vec<Vec<String>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = &store;
                let grid = &grid;
                scope.spawn(move || {
                    let mut kept = Vec::new();
                    let mut removed = Vec::new();
                    for i in 0..PER_THREAD {
                        let key = store.create(connect(grid, srv), "u@d");
                        store.validate(&key).expect("fresh key validates");
                        // Seeded schedule: drop roughly a third, and mix
                        // in sweeps/counts to vary the interleaving.
                        match splitmix64(42, t * PER_THREAD + i) % 6 {
                            0 | 1 => {
                                store.remove(&key);
                                removed.push(key);
                            }
                            2 => {
                                store.sweep_expired(2);
                                kept.push(key);
                            }
                            3 => {
                                let _ = store.count();
                                kept.push(key);
                            }
                            _ => kept.push(key),
                        }
                    }
                    (kept, removed)
                })
            })
            .collect();
        for h in handles {
            let (k, r) = h.join().expect("worker thread");
            kept.push(k);
            removed.push(r);
        }
    });

    let kept: Vec<String> = kept.into_iter().flatten().collect();
    let removed: Vec<String> = removed.into_iter().flatten().collect();
    assert_eq!(kept.len() + removed.len(), (THREADS * PER_THREAD) as usize);
    for k in &kept {
        store.validate(k).expect("kept session lost");
    }
    for r in &removed {
        assert!(store.validate(r).is_err(), "removed session resurrected");
    }
    assert_eq!(store.count(), kept.len());
}

/// After the TTL passes, concurrent evict-on-sight validations and
/// bounded sweeps race to reclaim the same sessions. Every session must
/// be reclaimed exactly once: the live gauge ends at zero (a double
/// reclaim would drive it negative) and the expired counter matches.
#[test]
fn concurrent_eviction_and_sweep_reclaim_exactly_once() {
    const SESSIONS: usize = 120;
    let (grid, srv) = fixture();
    let registry = MetricsRegistry::new();
    let store = SessionStore::with_config(
        grid.clock.clone(),
        13,
        SessionConfig {
            shards: 4,
            sweep_budget: 2,
        },
    )
    .with_metrics(&registry);

    let keys: Vec<String> = (0..SESSIONS)
        .map(|_| store.create(connect(&grid, srv), "u@d"))
        .collect();
    assert_eq!(store.count(), SESSIONS);
    grid.clock
        .advance((WEB_SESSION_TTL_SECS + 1) * 1_000_000_000);

    std::thread::scope(|scope| {
        // Two threads present expired keys (evict-on-sight), two sweep.
        for half in 0..2 {
            let store = &store;
            let keys = &keys;
            scope.spawn(move || {
                for key in keys.iter().skip(half).step_by(2) {
                    assert!(store.validate(key).is_err());
                }
            });
        }
        for _ in 0..2 {
            let store = &store;
            scope.spawn(move || {
                for _ in 0..SESSIONS {
                    store.sweep_expired(3);
                }
            });
        }
    });

    assert_eq!(store.count(), 0);
    assert_eq!(
        registry.gauge(metric!("web.session_live"), "all").get(),
        0,
        "live gauge must balance: every reclaim counted exactly once"
    );
    assert_eq!(
        registry
            .counter(metric!("web.session_expired"), "all")
            .get(),
        SESSIONS as u64
    );
    assert_eq!(
        registry
            .counter(metric!("web.session_created"), "all")
            .get(),
        SESSIONS as u64
    );
}

/// The same seeded single-threaded schedule replayed against a 1-shard
/// (ablation) and an 8-shard store must produce identical observable
/// behavior: the same validate outcomes step for step, the same total
/// number of sweep-reclaimed sessions, and an empty store after a full
/// drain. (Per-call sweep yields are *not* compared: tombstone positions
/// in the per-shard queues legitimately differ between layouts — only
/// the totals are layout-invariant.)
#[test]
fn observable_behavior_is_shard_count_independent() {
    let run = |shards: usize| -> Vec<String> {
        let (grid, srv) = fixture();
        // sweep_budget 0: all reclamation goes through the explicit
        // sweeps below, so the totals are comparable across layouts
        // (create-side amortized sweeps hit layout-dependent shards).
        let store = SessionStore::with_config(
            grid.clock.clone(),
            17,
            SessionConfig {
                shards,
                sweep_budget: 0,
            },
        );
        let mut keys: Vec<String> = Vec::new();
        let mut trace: Vec<String> = Vec::new();
        let mut swept = 0usize;
        for step in 0..200u64 {
            match splitmix64(7, step) % 5 {
                0 => {
                    keys.push(store.create(connect(&grid, srv), "u@d"));
                    trace.push("create".into());
                }
                1 if !keys.is_empty() => {
                    let k = &keys[(splitmix64(8, step) % keys.len() as u64) as usize];
                    trace.push(format!("validate:{}", store.validate(k).is_ok()));
                }
                2 if !keys.is_empty() => {
                    let k = keys.remove((splitmix64(9, step) % keys.len() as u64) as usize);
                    store.remove(&k);
                    trace.push("remove".into());
                }
                3 => {
                    grid.clock.advance(10 * 60 * 1_000_000_000);
                    trace.push("advance".into());
                }
                _ => {
                    swept += store.sweep_expired(5);
                    trace.push("sweep".into());
                }
            }
        }
        // Drain everything left; both layouts must reclaim the same
        // total and agree the store is empty.
        grid.clock.advance(2 * WEB_SESSION_TTL_SECS * 1_000_000_000);
        for _ in 0..500 {
            swept += store.sweep_expired(7);
        }
        trace.push(format!("total_reclaimed:{swept}"));
        trace.push(format!("final_count:{}", store.count()));
        trace
    };

    let single = run(1);
    let sharded = run(8);
    assert_eq!(
        single, sharded,
        "1-shard and 8-shard stores must be observationally identical"
    );
    assert!(single.last().is_some_and(|s| s == "final_count:0"));
}
