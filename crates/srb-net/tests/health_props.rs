//! Property tests for the circuit-breaker state machine and the seeded
//! fault switchboard.
//!
//! The health engine's guarantees are temporal: an `Open` breaker must not
//! admit traffic before its cool-down elapses on the simulated clock, a
//! failed half-open probe must reopen it, and fault schedules must be
//! replayable from their seed. We drive the machine with arbitrary
//! outcome/advance scripts and check the invariants on every step.

use proptest::prelude::*;
use srb_net::fault::FaultMode;
use srb_net::{Admission, BreakerConfig, BreakerState, FaultPlan, HealthRegistry};
use srb_types::{ResourceId, SimClock};

const COOLDOWN: u64 = 1_000;

fn config() -> BreakerConfig {
    BreakerConfig {
        window: 8,
        failure_threshold: 4,
        cooldown_ns: COOLDOWN,
        halfopen_successes: 2,
        enabled: true,
    }
}

/// One step of a driving script: record an outcome or advance the clock.
#[derive(Debug, Clone, Copy)]
enum Step {
    Outcome(bool),
    Advance(u64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // ~3:1 outcomes to clock advances.
    (0u8..4, any::<bool>(), 0u64..2_500).prop_map(|(kind, ok, d)| {
        if kind < 3 {
            Step::Outcome(ok)
        } else {
            Step::Advance(d)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever outcomes are recorded, an `Open` breaker never admits an
    /// access (reports `FastFail`) until at least `cooldown_ns` of
    /// *simulated* time has passed since it tripped.
    #[test]
    fn no_exit_from_open_before_cooldown(
        script in prop::collection::vec(step_strategy(), 1..200),
    ) {
        let clock = SimClock::new();
        let h = HealthRegistry::new(clock.clone(), config());
        let r = ResourceId(1);
        // Shadow model: when did the breaker last trip?
        let mut opened_at: Option<u64> = None;
        for step in script {
            match step {
                Step::Advance(d) => { clock.advance(d); }
                Step::Outcome(ok) => {
                    let before = h.state(r);
                    let admission = h.admit(r);
                    if admission == Admission::FastFail {
                        // The invariant: fast-fails only happen inside the
                        // cool-down window of a tripped breaker.
                        let t = opened_at.expect("FastFail without a recorded trip");
                        prop_assert!(
                            clock.now().nanos() - t < COOLDOWN,
                            "admitted FastFail after cooldown elapsed"
                        );
                        prop_assert_eq!(before, BreakerState::Open);
                        continue; // a fast-failed access records no outcome
                    }
                    let was_probe = admission == Admission::Probe;
                    h.record(r, ok);
                    let after = h.state(r);
                    if after == BreakerState::Open && before != BreakerState::Open {
                        opened_at = Some(clock.now().nanos());
                    }
                    // A failed half-open probe must reopen immediately.
                    if was_probe && !ok {
                        prop_assert_eq!(after, BreakerState::Open);
                        opened_at = Some(clock.now().nanos());
                    }
                }
            }
        }
    }

    /// From `HalfOpen`, one probe failure reopens the breaker and restarts
    /// the cool-down; the required number of probe successes closes it.
    #[test]
    fn halfopen_probe_outcomes_decide(probe_fails_first in any::<bool>()) {
        let clock = SimClock::new();
        let h = HealthRegistry::new(clock.clone(), config());
        let r = ResourceId(2);
        for _ in 0..4 {
            h.record(r, false);
        }
        prop_assert_eq!(h.state(r), BreakerState::Open);
        clock.advance(COOLDOWN);
        prop_assert_eq!(h.admit(r), Admission::Probe);
        if probe_fails_first {
            h.record(r, false);
            prop_assert_eq!(h.state(r), BreakerState::Open);
            prop_assert_eq!(h.admit(r), Admission::FastFail);
            clock.advance(COOLDOWN);
        }
        // Two successful probes close it regardless of history.
        prop_assert_eq!(h.admit(r), Admission::Probe);
        h.record(r, true);
        prop_assert_eq!(h.admit(r), Admission::Probe);
        h.record(r, true);
        prop_assert_eq!(h.state(r), BreakerState::Closed);
        prop_assert_eq!(h.admit(r), Admission::Allow);
    }

    /// A seeded flaky schedule replays identically: same seed and access
    /// sequence, same pass/fail pattern — the foundation of reproducible
    /// chaos tests.
    #[test]
    fn seeded_fault_schedules_replay(
        seed in any::<u64>(),
        p_millis in 0u32..1001,
        accesses in 1usize..128,
    ) {
        let p = p_millis as f64 / 1000.0;
        let run = || -> Vec<bool> {
            let f = FaultPlan::new();
            let r = ResourceId(3);
            f.set_mode(r, FaultMode::FailWithProb(p, seed));
            (0..accesses).map(|_| f.inject(r).is_err()).collect()
        };
        prop_assert_eq!(run(), run());
    }

    /// The empirical failure rate of `FailWithProb` tracks `p` (loose
    /// bound — this is a sanity check on the splitmix64 coin, not a
    /// statistical test).
    #[test]
    fn fail_with_prob_rate_tracks_p(seed in any::<u64>(), p_millis in 0u32..1001) {
        let p = p_millis as f64 / 1000.0;
        let f = FaultPlan::new();
        let r = ResourceId(4);
        f.set_mode(r, FaultMode::FailWithProb(p, seed));
        let n = 512;
        let fails = (0..n).filter(|_| f.inject(r).is_err()).count();
        let rate = fails as f64 / n as f64;
        prop_assert!((rate - p).abs() < 0.15, "p={p} but measured {rate}");
    }
}
