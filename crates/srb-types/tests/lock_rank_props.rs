//! Property tests for the ranked-lock deadlock detector.
//!
//! The checker is compared against a reference model: acquiring rank `r`
//! is a violation iff some held lock has a strictly lower rank. Random
//! acquisition/release sequences run on several threads at once, so the
//! test also exercises that the held-rank stack is genuinely thread-local
//! (one thread's holdings must never affect another's verdicts).
//!
//! Rank bookkeeping is compiled out of release builds, so the model
//! comparison runs in debug test builds only; `cargo test --release` keeps
//! the one case that pins the release behaviour (an inversion passes
//! through, no panic).
#![cfg_attr(not(debug_assertions), allow(dead_code, unused_imports))]

use proptest::prelude::*;
use srb_types::sync::{self, LockRank, Mutex};

const NAMES: [&str; 8] = [
    "prop.topology",
    "prop.storage",
    "prop.wal",
    "prop.mcat",
    "prop.core",
    "prop.zonelink",
    "prop.zonefed",
    "prop.session",
];

fn rank_of(r: u8) -> LockRank {
    match r {
        0 => LockRank::Topology,
        1 => LockRank::Storage,
        2 => LockRank::Wal,
        3 => LockRank::McatTable,
        4 => LockRank::CoreState,
        5 => LockRank::ZoneLink,
        6 => LockRank::ZoneFed,
        _ => LockRank::Session,
    }
}

/// Replay one acquisition sequence on the current thread, asserting the
/// checker's verdict matches the model at every step. `hold == false`
/// releases the lock immediately, so later steps see a smaller held set.
fn run_model(seq: &[(u8, bool)]) {
    let locks: Vec<Mutex<()>> = seq
        .iter()
        .map(|&(r, _)| Mutex::new(rank_of(r), NAMES[r as usize], ()))
        .collect();
    let mut held_model: Vec<u8> = Vec::new();
    let mut guards = Vec::new();
    for (i, &(r, hold)) in seq.iter().enumerate() {
        let expect_violation = held_model.iter().any(|&h| r > h);
        let verdict = sync::check_acquire(rank_of(r), NAMES[r as usize]);
        match (&verdict, expect_violation) {
            (Err(_), false) => {
                panic!("false positive: rank {r} flagged while holding {held_model:?}")
            }
            (Ok(()), true) => {
                panic!("missed inversion: rank {r} allowed while holding {held_model:?}")
            }
            _ => {}
        }
        if let Err(v) = verdict {
            // The report must implicate a lock that really forbids this.
            assert!(
                (v.held_rank as u8) < r,
                "violation blames rank {:?}",
                v.held_rank
            );
            continue;
        }
        let guard = locks[i].lock();
        if hold {
            guards.push(guard);
            held_model.push(r);
        }
    }
    let held: Vec<u8> = sync::held_ranks().iter().map(|&r| r as u8).collect();
    assert_eq!(held, held_model, "thread-local stack diverged from model");

    // Release in a scrambled (non-LIFO) order; the checker must end empty.
    let mut step = 0usize;
    while !guards.is_empty() {
        let idx = (step * 7 + 3) % guards.len();
        drop(guards.swap_remove(idx));
        step += 1;
    }
    assert!(sync::held_ranks().is_empty(), "ranks leaked after release");
}

/// 1–3 threads' worth of random (rank, hold?) acquisition steps.
fn seqs_strategy() -> impl Strategy<Value = Vec<Vec<(u8, bool)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..8u8, any::<bool>()), 0..12),
        1..4,
    )
}

fn ranks_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..8u8, 0..10)
}

#[cfg(debug_assertions)]
proptest! {
    #[test]
    fn checker_matches_model_across_threads(seqs in seqs_strategy()) {
        // Panics inside scoped threads propagate and fail the case.
        std::thread::scope(|scope| {
            for seq in &seqs {
                let seq = seq.clone();
                scope.spawn(move || run_model(&seq));
            }
        });
    }

    #[test]
    fn descending_or_equal_sequences_never_flag(ranks in ranks_strategy()) {
        let mut ranks = ranks;
        ranks.sort_unstable_by(|a, b| b.cmp(a));
        let seq: Vec<(u8, bool)> = ranks.into_iter().map(|r| (r, true)).collect();
        // Monotonically non-increasing ranks follow the hierarchy, so the
        // model expects zero violations; run_model panics on any flag.
        run_model(&seq);
    }
}

#[test]
fn deliberate_inversion_panics_in_debug_builds_only() {
    // Acceptance check for the hierarchy itself: holding an inner
    // (storage-rank) lock and then taking an outer (session-rank) lock is
    // the classic deadlock shape; debug builds must abort the acquisition,
    // release builds carry no checker and let it through.
    let result = std::thread::spawn(|| {
        let inner = Mutex::new(LockRank::Storage, "prop.inverted.inner", ());
        let outer = Mutex::new(LockRank::Session, "prop.inverted.outer", ());
        let _held = inner.lock();
        let _boom = outer.lock();
    })
    .join();
    if !cfg!(debug_assertions) {
        assert!(result.is_ok(), "release builds must not check ranks");
        return;
    }
    let panic = result.expect_err("inverted acquisition must panic");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("lock rank inversion") && msg.contains("prop.inverted.inner"),
        "panic message should explain the inversion, got: {msg}"
    );
}
