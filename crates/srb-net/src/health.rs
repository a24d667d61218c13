//! Per-resource circuit breakers on the simulated clock.
//!
//! Failing over to a replica (paper §3) protects a *single* request, but a
//! flaky or dead resource still gets hammered by every subsequent request —
//! each one pays the failed attempt before failing over. The breaker adds
//! the missing memory: after enough failures inside a sliding window the
//! resource is declared `Open` and callers fast-fail without touching it;
//! after a cool-down on the *simulated* clock a single probe is let through
//! (`HalfOpen`), and a run of probe successes closes the breaker again.
//!
//! ```text
//!            failures ≥ threshold in window
//!   Closed ─────────────────────────────────▶ Open
//!     ▲                                        │ cool-down elapsed
//!     │ probe successes ≥ required             ▼ (simulated time)
//!     └──────────────────────────────────── HalfOpen
//!                       probe failure ──▶ back to Open
//! ```
//!
//! Everything is driven by [`srb_types::SimClock`]: no wall-clock reads, no
//! sleeps, so breaker behaviour is deterministic and replayable (and the
//! xtask wall-clock lint stays happy). Time only moves when the simulation
//! advances the clock, which means a breaker can only half-open after the
//! caller has charged enough simulated work.

use srb_obs::{MetricsRegistry, ResourceLabels};
use srb_types::sync::{LockRank, RwLock};
use srb_types::{ResourceId, SimClock, Timestamp};
use std::collections::HashMap;

/// The three classic breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; outcomes are being recorded in the window.
    Closed,
    /// Tripped: callers should fast-fail instead of touching the resource.
    Open,
    /// Cool-down elapsed: a probe is allowed through to test the waters.
    HalfOpen,
}

/// What the breaker tells a caller about one prospective access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed (or disabled): proceed normally.
    Allow,
    /// Breaker half-open: proceed, but this access is a probe — its outcome
    /// decides whether the breaker closes or reopens.
    Probe,
    /// Breaker open: do not touch the resource; fail over instead.
    FastFail,
}

/// Tuning knobs for every breaker in a registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window length, in recorded outcomes.
    pub window: usize,
    /// Failures within the window that trip the breaker. With
    /// `window = 16` and `failure_threshold = 8` a resource must be failing
    /// at ≥ 50% before tripping — enough headroom that a p = 0.3 flaky
    /// resource keeps serving, while a hard-down one trips in 8 accesses.
    pub failure_threshold: u32,
    /// Simulated nanoseconds the breaker stays `Open` before allowing a
    /// half-open probe.
    pub cooldown_ns: u64,
    /// Consecutive probe successes required to close from `HalfOpen`.
    pub halfopen_successes: u32,
    /// Master switch; when false, `admit` always allows and `record` is a
    /// no-op (the ablation arm of E3).
    pub enabled: bool,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            failure_threshold: 8,
            cooldown_ns: 500_000_000, // 0.5 simulated seconds
            halfopen_successes: 2,
            enabled: true,
        }
    }
}

impl BreakerConfig {
    /// A configuration with breakers switched off entirely.
    pub fn disabled() -> Self {
        BreakerConfig {
            enabled: false,
            ..BreakerConfig::default()
        }
    }
}

/// One resource's breaker: state plus the outcome window feeding it.
#[derive(Debug)]
struct Cell {
    state: BreakerState,
    /// Ring buffer of recent outcomes (`true` = failure), length ≤ window.
    outcomes: Vec<bool>,
    /// Next write position in `outcomes` once it reaches window length.
    cursor: usize,
    /// When the breaker last tripped (valid while `Open`).
    opened_at: Timestamp,
    /// Consecutive probe successes while `HalfOpen`.
    probe_successes: u32,
}

impl Cell {
    fn new() -> Self {
        Cell {
            state: BreakerState::Closed,
            outcomes: Vec::new(),
            cursor: 0,
            opened_at: Timestamp(0),
            probe_successes: 0,
        }
    }

    fn push_outcome(&mut self, failed: bool, window: usize) {
        if self.outcomes.len() < window {
            self.outcomes.push(failed);
        } else {
            self.outcomes[self.cursor] = failed;
            self.cursor = (self.cursor + 1) % window;
        }
    }

    fn failures(&self) -> u32 {
        self.outcomes.iter().filter(|f| **f).count() as u32
    }

    fn trip(&mut self, now: Timestamp) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.outcomes.clear();
        self.cursor = 0;
        self.probe_successes = 0;
    }

    fn close(&mut self) {
        self.state = BreakerState::Closed;
        self.outcomes.clear();
        self.cursor = 0;
        self.probe_successes = 0;
    }
}

/// Metric handles for breaker activity; attached by the grid when
/// observability is on, `None` otherwise (a pure branch on the hot path).
#[derive(Debug, Clone)]
struct HealthObs {
    metrics: MetricsRegistry,
    labels: ResourceLabels,
}

impl HealthObs {
    /// Record a state transition: bump `counter` for `r` and move the
    /// per-resource `health.breaker_state` gauge (0 closed, 1 half-open,
    /// 2 open).
    fn transition(&self, r: ResourceId, counter: &str, state: BreakerState) {
        let label = self.labels.get(r);
        self.metrics.counter(counter, &label).inc();
        self.metrics
            .gauge("health.breaker_state", &label)
            .set(match state {
                BreakerState::Closed => 0,
                BreakerState::HalfOpen => 1,
                BreakerState::Open => 2,
            });
    }
}

/// All breakers for one grid, keyed by resource.
///
/// Shared the same way as [`crate::FaultPlan`]: one registry per grid,
/// consulted at every storage access. Resources with no recorded history
/// are `Closed`.
#[derive(Debug)]
pub struct HealthRegistry {
    clock: SimClock,
    config: BreakerConfig,
    cells: RwLock<HashMap<ResourceId, Cell>>,
    obs: Option<HealthObs>,
}

impl HealthRegistry {
    /// A registry reading simulated time from `clock`.
    pub fn new(clock: SimClock, config: BreakerConfig) -> Self {
        HealthRegistry {
            clock,
            config,
            cells: RwLock::new(LockRank::Topology, "net.health.cells", HashMap::new()),
            obs: None,
        }
    }

    /// Attach metric instrumentation (builder-style, called once by the
    /// grid at construction when observability is enabled).
    pub fn with_metrics(mut self, metrics: MetricsRegistry, labels: ResourceLabels) -> Self {
        self.obs = Some(HealthObs { metrics, labels });
        self
    }

    /// The registry's configuration.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Ask permission for one access to `r`.
    ///
    /// This is where `Open → HalfOpen` happens: if the cool-down has
    /// elapsed on the simulated clock the breaker transitions and the
    /// caller is told its access is a [`Admission::Probe`].
    pub fn admit(&self, r: ResourceId) -> Admission {
        if !self.config.enabled {
            return Admission::Allow;
        }
        let now = self.clock.now();
        let mut g = self.cells.write();
        let Some(cell) = g.get_mut(&r) else {
            return Admission::Allow;
        };
        match cell.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open => {
                if now.since(cell.opened_at) >= self.config.cooldown_ns {
                    cell.state = BreakerState::HalfOpen;
                    cell.probe_successes = 0;
                    if let Some(obs) = &self.obs {
                        obs.transition(r, "health.breaker_half_opens", BreakerState::HalfOpen);
                    }
                    Admission::Probe
                } else {
                    if let Some(obs) = &self.obs {
                        obs.metrics
                            .counter("health.fast_fails", &obs.labels.get(r))
                            .inc();
                    }
                    Admission::FastFail
                }
            }
        }
    }

    /// Record the outcome of an access previously admitted.
    ///
    /// `ok = false` should only be reported for errors that indict the
    /// resource (unavailability, timeouts, I/O) — a `NotFound` or
    /// permission error says nothing about resource health.
    pub fn record(&self, r: ResourceId, ok: bool) {
        if !self.config.enabled {
            return;
        }
        let now = self.clock.now();
        let mut g = self.cells.write();
        let cell = g.entry(r).or_insert_with(Cell::new);
        match cell.state {
            BreakerState::Closed => {
                cell.push_outcome(!ok, self.config.window);
                if cell.failures() >= self.config.failure_threshold {
                    cell.trip(now);
                    if let Some(obs) = &self.obs {
                        obs.transition(r, "health.breaker_trips", BreakerState::Open);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    cell.probe_successes += 1;
                    if cell.probe_successes >= self.config.halfopen_successes {
                        cell.close();
                        if let Some(obs) = &self.obs {
                            obs.transition(r, "health.breaker_closes", BreakerState::Closed);
                        }
                    }
                } else {
                    // Probe failed: reopen and restart the cool-down.
                    cell.trip(now);
                    if let Some(obs) = &self.obs {
                        obs.transition(r, "health.breaker_trips", BreakerState::Open);
                    }
                }
            }
            // Straggler outcome from an access admitted before the trip;
            // the breaker already made its decision.
            BreakerState::Open => {}
        }
    }

    /// Current state of `r`'s breaker, cool-down aware but non-mutating:
    /// an `Open` breaker whose cool-down has elapsed reports `HalfOpen`
    /// without transitioning (only `admit` transitions).
    pub fn state(&self, r: ResourceId) -> BreakerState {
        if !self.config.enabled {
            return BreakerState::Closed;
        }
        let g = self.cells.read();
        match g.get(&r) {
            None => BreakerState::Closed,
            Some(cell) => match cell.state {
                BreakerState::Open
                    if self.clock.now().since(cell.opened_at) >= self.config.cooldown_ns =>
                {
                    BreakerState::HalfOpen
                }
                s => s,
            },
        }
    }

    /// True when `r` should be avoided right now (breaker `Open`, cool-down
    /// not yet elapsed). Replica ordering uses this to demote resources.
    pub fn is_open(&self, r: ResourceId) -> bool {
        self.state(r) == BreakerState::Open
    }

    /// Forget recorded history for one resource — e.g. a healed link —
    /// leaving every other breaker untouched.
    pub fn reset_resource(&self, r: ResourceId) {
        self.cells.write().remove(&r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resources whose breakers are currently not `Closed`.
    fn unhealthy(h: &HealthRegistry) -> Vec<(ResourceId, BreakerState)> {
        let mut known: Vec<ResourceId> = h.cells.read().keys().copied().collect();
        known.sort();
        known
            .into_iter()
            .map(|r| (r, h.state(r)))
            .filter(|(_, s)| *s != BreakerState::Closed)
            .collect()
    }

    fn registry(clock: &SimClock) -> HealthRegistry {
        HealthRegistry::new(
            clock.clone(),
            BreakerConfig {
                window: 8,
                failure_threshold: 4,
                cooldown_ns: 1_000,
                halfopen_successes: 2,
                enabled: true,
            },
        )
    }

    #[test]
    fn unknown_resources_are_closed_and_allowed() {
        let clock = SimClock::new();
        let h = registry(&clock);
        assert_eq!(h.state(ResourceId(1)), BreakerState::Closed);
        assert_eq!(h.admit(ResourceId(1)), Admission::Allow);
        assert!(unhealthy(&h).is_empty());
    }

    #[test]
    fn trips_after_threshold_failures() {
        let clock = SimClock::new();
        let h = registry(&clock);
        let r = ResourceId(1);
        for _ in 0..3 {
            h.record(r, false);
            assert_eq!(h.state(r), BreakerState::Closed);
        }
        h.record(r, false); // 4th failure in window of 8 trips it
        assert_eq!(h.state(r), BreakerState::Open);
        assert_eq!(h.admit(r), Admission::FastFail);
        assert!(h.is_open(r));
        assert_eq!(unhealthy(&h), vec![(r, BreakerState::Open)]);
    }

    #[test]
    fn reset_resource_leaves_other_breakers_tripped() {
        let clock = SimClock::new();
        let h = registry(&clock);
        let (a, b) = (ResourceId(1), ResourceId(2));
        for _ in 0..4 {
            h.record(a, false);
            h.record(b, false);
        }
        assert_eq!(h.admit(a), Admission::FastFail);
        assert_eq!(h.admit(b), Admission::FastFail);
        h.reset_resource(a);
        assert_eq!(h.state(a), BreakerState::Closed);
        assert_eq!(h.admit(a), Admission::Allow);
        // The other breaker's history is untouched.
        assert_eq!(h.state(b), BreakerState::Open);
        assert_eq!(h.admit(b), Admission::FastFail);
    }

    #[test]
    fn interleaved_successes_keep_it_closed() {
        let clock = SimClock::new();
        let h = registry(&clock);
        let r = ResourceId(2);
        // One failure in three: at most 3 failures inside any window of 8,
        // below the threshold of 4 — a flaky-but-working resource must not
        // trip the breaker.
        for _ in 0..32 {
            h.record(r, true);
            h.record(r, true);
            h.record(r, false);
            assert_eq!(h.state(r), BreakerState::Closed);
        }
    }

    #[test]
    fn stays_open_until_simulated_cooldown() {
        let clock = SimClock::new();
        let h = registry(&clock);
        let r = ResourceId(3);
        for _ in 0..4 {
            h.record(r, false);
        }
        assert_eq!(h.admit(r), Admission::FastFail);
        clock.advance(999); // one ns short of the cool-down
        assert_eq!(h.admit(r), Admission::FastFail);
        assert_eq!(h.state(r), BreakerState::Open);
        clock.advance(1);
        assert_eq!(h.state(r), BreakerState::HalfOpen);
        assert_eq!(h.admit(r), Admission::Probe);
    }

    #[test]
    fn halfopen_closes_after_required_successes() {
        let clock = SimClock::new();
        let h = registry(&clock);
        let r = ResourceId(4);
        for _ in 0..4 {
            h.record(r, false);
        }
        clock.advance(1_000);
        assert_eq!(h.admit(r), Admission::Probe);
        h.record(r, true);
        assert_eq!(h.state(r), BreakerState::HalfOpen); // 1 of 2 probes
        assert_eq!(h.admit(r), Admission::Probe);
        h.record(r, true);
        assert_eq!(h.state(r), BreakerState::Closed);
        assert_eq!(h.admit(r), Admission::Allow);
    }

    #[test]
    fn halfopen_probe_failure_reopens_and_restarts_cooldown() {
        let clock = SimClock::new();
        let h = registry(&clock);
        let r = ResourceId(5);
        for _ in 0..4 {
            h.record(r, false);
        }
        clock.advance(1_000);
        assert_eq!(h.admit(r), Admission::Probe);
        h.record(r, false);
        assert_eq!(h.state(r), BreakerState::Open);
        // Cool-down restarted from the probe failure, not the first trip.
        clock.advance(999);
        assert_eq!(h.admit(r), Admission::FastFail);
        clock.advance(1);
        assert_eq!(h.admit(r), Admission::Probe);
    }

    #[test]
    fn disabled_registry_never_trips() {
        let clock = SimClock::new();
        let h = HealthRegistry::new(clock.clone(), BreakerConfig::disabled());
        let r = ResourceId(6);
        for _ in 0..100 {
            h.record(r, false);
        }
        assert_eq!(h.state(r), BreakerState::Closed);
        assert_eq!(h.admit(r), Admission::Allow);
        assert!(unhealthy(&h).is_empty());
    }

    #[test]
    fn transitions_feed_metrics() {
        let clock = SimClock::new();
        let metrics = MetricsRegistry::new();
        let labels =
            ResourceLabels::new([(ResourceId(1), "fs1".to_string())].into_iter().collect());
        let h = registry(&clock).with_metrics(metrics.clone(), labels);
        let r = ResourceId(1);
        for _ in 0..4 {
            h.record(r, false);
        }
        assert_eq!(metrics.counter("health.breaker_trips", "fs1").get(), 1);
        assert_eq!(metrics.gauge("health.breaker_state", "fs1").get(), 2);
        assert_eq!(h.admit(r), Admission::FastFail);
        assert_eq!(metrics.counter("health.fast_fails", "fs1").get(), 1);
        clock.advance(1_000);
        assert_eq!(h.admit(r), Admission::Probe);
        assert_eq!(metrics.counter("health.breaker_half_opens", "fs1").get(), 1);
        assert_eq!(metrics.gauge("health.breaker_state", "fs1").get(), 1);
        h.record(r, true);
        h.record(r, true);
        assert_eq!(metrics.counter("health.breaker_closes", "fs1").get(), 1);
        assert_eq!(metrics.gauge("health.breaker_state", "fs1").get(), 0);
    }

    #[test]
    fn window_slides_old_outcomes_out() {
        let clock = SimClock::new();
        let h = registry(&clock);
        let r = ResourceId(7);
        // 3 failures, then enough successes to push them out of the window.
        for _ in 0..3 {
            h.record(r, false);
        }
        for _ in 0..8 {
            h.record(r, true);
        }
        // 3 fresh failures: window now holds 3 failures + 5 successes.
        for _ in 0..3 {
            h.record(r, false);
        }
        assert_eq!(h.state(r), BreakerState::Closed);
        h.record(r, false); // 4th failure within the window trips
        assert_eq!(h.state(r), BreakerState::Open);
    }
}
