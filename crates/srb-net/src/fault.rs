//! Failure injection.
//!
//! The paper's fault-tolerance story — "the system automatically redirecting
//! access to a replica on a separate storage system when the first storage
//! system is unavailable" — needs unavailable storage systems to test
//! against. `FaultPlan` is a shared switchboard consulted before every
//! storage access, but real grid storage rarely fails *cleanly*: disks and
//! tape silos time out intermittently, respond slowly while degraded, or
//! drop exactly the next few requests. [`FaultMode`] models those shapes
//! deterministically — every flaky schedule is seeded, so a failing run
//! replays bit-for-bit.
//!
//! Mode semantics per access (one access = one [`FaultPlan::inject`] call):
//!
//! | mode                 | outcome                                        |
//! |----------------------|------------------------------------------------|
//! | `Down`               | hard `ResourceUnavailable` until restored      |
//! | `FailNext(n)`        | `Timeout` for the next `n` accesses, then heals|
//! | `FailWithProb(p, s)` | seeded coin per access: `Timeout` w.p. `p`     |
//! | `AddedLatency(ns)`   | succeeds, charges `ns` extra simulated time    |
//! | `SlowUntilHealed(ns)`| like `AddedLatency` but reads as "degraded"    |

use srb_obs::{metric, MetricsRegistry, ResourceLabels};
use srb_types::sync::{LockRank, RwLock};
use srb_types::{splitmix64, ResourceId, SrbError, SrbResult};
use std::collections::HashMap;

/// How a resource misbehaves. See the module docs for per-access semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Hard down: every access fails with `ResourceUnavailable` until the
    /// resource is restored.
    Down,
    /// The next `n` accesses fail with `Timeout`; the mode then clears
    /// itself (a burst fault).
    FailNext(u32),
    /// Each access independently fails with `Timeout` with probability
    /// `p`, drawn from a splitmix64 stream over (`seed`, access counter) —
    /// deterministic and replayable per resource.
    FailWithProb(f64, u64),
    /// Accesses succeed but cost `ns` extra simulated nanoseconds each.
    AddedLatency(u64),
    /// Degraded mode: accesses succeed with `ns` extra simulated
    /// nanoseconds until the resource is healed. Health-aware policies may
    /// treat a degraded resource differently from a merely slow link.
    SlowUntilHealed(u64),
}

/// Per-resource injection state: the mode plus a monotone access counter
/// feeding the seeded coin of [`FaultMode::FailWithProb`].
#[derive(Debug, Clone)]
struct FaultState {
    mode: FaultMode,
    accesses: u64,
}

/// Shared record of which resources are currently misbehaving.
#[derive(Debug)]
pub struct FaultPlan {
    modes: RwLock<HashMap<ResourceId, FaultState>>,
    obs: Option<FaultObs>,
}

/// Metric handles for injected faults; attached by the grid when
/// observability is on.
#[derive(Debug, Clone)]
struct FaultObs {
    metrics: MetricsRegistry,
    labels: ResourceLabels,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            modes: RwLock::new(LockRank::Topology, "net.fault.modes", HashMap::new()),
            obs: None,
        }
    }
}

impl FaultPlan {
    /// Everything healthy.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Attach metric instrumentation (builder-style, called once by the
    /// grid at construction when observability is enabled). Every injected
    /// *failure* counts against `faults.injected{resource}`; injected
    /// latency is visible in receipts instead.
    pub fn with_metrics(mut self, metrics: MetricsRegistry, labels: ResourceLabels) -> Self {
        self.obs = Some(FaultObs { metrics, labels });
        self
    }

    /// Count one injected failure against `r`.
    fn count_injected(&self, r: ResourceId) {
        if let Some(obs) = &self.obs {
            obs.metrics
                .counter(metric!("faults.injected"), &obs.labels.get(r))
                .inc();
        }
    }

    /// Install a fault mode on a resource, replacing any existing one
    /// (and resetting its access counter).
    pub fn set_mode(&self, r: ResourceId, mode: FaultMode) {
        self.modes
            .write()
            .insert(r, FaultState { mode, accesses: 0 });
    }

    /// Remove any fault mode from a resource.
    pub fn clear_mode(&self, r: ResourceId) {
        self.modes.write().remove(&r);
    }

    /// The currently installed mode, if any.
    pub fn mode(&self, r: ResourceId) -> Option<FaultMode> {
        self.modes.read().get(&r).map(|s| s.mode)
    }

    /// Is this resource reachable *right now*? Flaky and slow modes count
    /// as up — only `Down` does not.
    pub fn is_up(&self, r: ResourceId) -> bool {
        !matches!(
            self.modes.read().get(&r),
            Some(FaultState {
                mode: FaultMode::Down,
                ..
            })
        )
    }

    /// Consult the switchboard for one access to `r`.
    ///
    /// Returns the injected extra latency (ns) to charge the access, or
    /// the injected failure. Each call is one draw: `FailNext` burns one
    /// of its budget, `FailWithProb` advances the seeded stream — so call
    /// exactly once per storage access.
    pub fn inject(&self, r: ResourceId) -> SrbResult<u64> {
        let result = self.inject_inner(r);
        if result.is_err() {
            self.count_injected(r);
        }
        result
    }

    fn inject_inner(&self, r: ResourceId) -> SrbResult<u64> {
        let mut g = self.modes.write();
        let Some(state) = g.get_mut(&r) else {
            return Ok(0);
        };
        state.accesses += 1;
        match state.mode {
            FaultMode::Down => Err(SrbError::ResourceUnavailable(format!(
                "resource {r} is down"
            ))),
            FaultMode::FailNext(n) => {
                if n <= 1 {
                    g.remove(&r);
                } else {
                    state.mode = FaultMode::FailNext(n - 1);
                }
                Err(SrbError::Timeout(format!(
                    "injected burst failure on resource {r} ({n} left)"
                )))
            }
            FaultMode::FailWithProb(p, seed) => {
                let draw = splitmix64(seed, state.accesses);
                let threshold = (p.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
                if draw < threshold {
                    Err(SrbError::Timeout(format!(
                        "injected flaky failure on resource {r} (access #{})",
                        state.accesses
                    )))
                } else {
                    Ok(0)
                }
            }
            FaultMode::AddedLatency(ns) | FaultMode::SlowUntilHealed(ns) => Ok(ns),
        }
    }

    /// Restore everything.
    pub fn heal_all(&self) {
        self.modes.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of currently hard-failed resources (not counting flaky or
    /// slow modes).
    fn failed_resource_count(f: &FaultPlan) -> usize {
        f.modes
            .read()
            .values()
            .filter(|s| matches!(s.mode, FaultMode::Down))
            .count()
    }

    #[test]
    fn injected_failures_feed_metrics() {
        let metrics = MetricsRegistry::new();
        let labels =
            ResourceLabels::new([(ResourceId(1), "fs1".to_string())].into_iter().collect());
        let f = FaultPlan::new().with_metrics(metrics.clone(), labels);
        f.set_mode(ResourceId(1), FaultMode::FailNext(2));
        assert!(f.inject(ResourceId(1)).is_err());
        assert!(f.inject(ResourceId(1)).is_err());
        assert!(f.inject(ResourceId(1)).is_ok(), "burst healed");
        assert_eq!(metrics.counter(metric!("faults.injected"), "fs1").get(), 2);
        // Added latency is not a failure: it must not count.
        f.set_mode(ResourceId(1), FaultMode::AddedLatency(5));
        assert_eq!(f.inject(ResourceId(1)).unwrap(), 5);
        assert_eq!(metrics.counter(metric!("faults.injected"), "fs1").get(), 2);
    }

    #[test]
    fn resources_start_up() {
        let f = FaultPlan::new();
        assert!(f.is_up(ResourceId(1)));
        assert!(f.inject(ResourceId(1)).is_ok());
        assert_eq!(f.inject(ResourceId(1)).unwrap(), 0);
    }

    #[test]
    fn fail_and_restore_resource() {
        let f = FaultPlan::new();
        f.set_mode(ResourceId(1), FaultMode::Down);
        assert!(!f.is_up(ResourceId(1)));
        assert!(f.is_up(ResourceId(2)));
        let err = f.inject(ResourceId(1)).unwrap_err();
        assert!(err.is_retryable());
        assert!(!err.is_transient()); // hard down: fail over, don't retry
        assert!(matches!(err, SrbError::ResourceUnavailable(_)));
        f.clear_mode(ResourceId(1));
        assert!(f.is_up(ResourceId(1)));
    }

    #[test]
    fn fail_next_burns_exactly_n_accesses() {
        let f = FaultPlan::new();
        let r = ResourceId(7);
        f.set_mode(r, FaultMode::FailNext(3));
        for _ in 0..3 {
            let err = f.inject(r).unwrap_err();
            assert!(matches!(err, SrbError::Timeout(_)));
            assert!(err.is_transient());
        }
        // Mode cleared itself; subsequent accesses succeed.
        assert_eq!(f.inject(r).unwrap(), 0);
        assert!(f.mode(r).is_none());
    }

    #[test]
    fn fail_with_prob_is_deterministic_and_replayable() {
        let schedule = |seed: u64| -> Vec<bool> {
            let f = FaultPlan::new();
            let r = ResourceId(9);
            f.set_mode(r, FaultMode::FailWithProb(0.5, seed));
            (0..64).map(|_| f.inject(r).is_err()).collect()
        };
        let a = schedule(42);
        let b = schedule(42);
        assert_eq!(a, b, "same seed must replay the same schedule");
        let c = schedule(43);
        assert_ne!(a, c, "different seeds should differ");
        let fails = a.iter().filter(|x| **x).count();
        assert!(
            (16..=48).contains(&fails),
            "p=0.5 over 64 draws should fail roughly half, got {fails}"
        );
    }

    #[test]
    fn fail_with_prob_extremes() {
        let f = FaultPlan::new();
        f.set_mode(ResourceId(1), FaultMode::FailWithProb(0.0, 1));
        f.set_mode(ResourceId(2), FaultMode::FailWithProb(1.0, 1));
        for _ in 0..32 {
            assert!(f.inject(ResourceId(1)).is_ok());
            assert!(f.inject(ResourceId(2)).is_err());
        }
        // Flaky resources still count as "up" for the binary view.
        assert!(f.is_up(ResourceId(2)));
        assert_eq!(failed_resource_count(&f), 0);
    }

    #[test]
    fn latency_modes_charge_time_but_succeed() {
        let f = FaultPlan::new();
        f.set_mode(ResourceId(1), FaultMode::AddedLatency(5_000));
        f.set_mode(ResourceId(2), FaultMode::SlowUntilHealed(9_000));
        assert_eq!(f.inject(ResourceId(1)).unwrap(), 5_000);
        assert_eq!(f.inject(ResourceId(2)).unwrap(), 9_000);
        assert!(f.is_up(ResourceId(1)));
        f.clear_mode(ResourceId(2));
        assert_eq!(f.inject(ResourceId(2)).unwrap(), 0);
    }

    #[test]
    fn heal_all_clears_everything() {
        let f = FaultPlan::new();
        f.set_mode(ResourceId(1), FaultMode::Down);
        f.set_mode(ResourceId(2), FaultMode::FailWithProb(0.9, 7));
        assert_eq!(failed_resource_count(&f), 1);
        f.heal_all();
        assert!(f.is_up(ResourceId(1)));
        assert!(f.inject(ResourceId(2)).is_ok());
        assert_eq!(failed_resource_count(&f), 0);
    }
}
