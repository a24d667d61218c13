//! The replica fan-out engine: concurrent execution of multi-replica
//! storage legs.
//!
//! The paper moves data to logical resources as *synchronous replicas*;
//! the latency-critical step of every write-side operation is pushing the
//! same bytes to k independent storage systems. Those legs are mutually
//! independent — they touch disjoint drivers, charge disjoint load
//! counters, and perform no catalog mutation — so the engine runs them on
//! scoped worker threads and the caller commits all MCAT changes
//! afterwards, on its own thread, in leg order. That split is what makes
//! parallel and sequential execution produce byte-identical catalog state
//! (see `tests/fanout_oracle.rs`).
//!
//! Cost accounting follows the execution shape: sequential legs compose
//! with [`Receipt::absorb`] (durations add), parallel legs with
//! [`Receipt::join_parallel`] (overlapping durations take the max, byte
//! and message counters still add). Parallel composition models a fixed
//! number of [`VIRTUAL_LANES`] rather than the host's thread count, so
//! `sim_ns` is identical on every machine.
//!
//! Below the engine sit `SrbConnection::storage_call`, the one door
//! through which the crate touches a resource's driver, and
//! `SrbConnection::retry_storage`, the breaker and retry budget that
//! replica reads, stores and deletes wrap around it.

use crate::conn::SrbConnection;
use crate::grid::ResourceDriver;
use bytes::Bytes;
use srb_net::Receipt;
use srb_types::{mix64, ResourceId, SrbError, SrbResult};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How a connection executes multi-replica storage legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanoutMode {
    /// Concurrent legs on scoped worker threads; costs max-compose
    /// across [`VIRTUAL_LANES`]. The default.
    #[default]
    Parallel,
    /// One leg after another on the caller thread; costs sum-compose.
    /// Kept as the measurable ablation (bench E6/E7).
    Sequential,
}

/// Number of concurrent transfer lanes the *cost model* assumes in
/// [`FanoutMode::Parallel`]. Fixed — deliberately independent of the
/// host's real core count — so simulated time is deterministic across
/// machines. Real execution may use fewer or more threads.
pub const VIRTUAL_LANES: usize = 8;

/// How hard a connection retries transient storage errors before giving
/// up on a replica (and, on the write side, marking its leg `Stale`).
///
/// Backoff is exponential with deterministic jitter: attempt `n` waits
/// `base_ns * multiplier^(n-1)` simulated nanoseconds, capped at
/// `max_backoff_ns`, then jittered into `[½·b, b]` by a splitmix64 draw
/// over `(jitter_seed, key, attempt)`. The wait is *charged to the leg's
/// receipt*, never slept — same-machine runs replay identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Total attempts, including the first. `1` means no retries.
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated nanoseconds.
    pub base_ns: u64,
    /// Exponential growth factor between retries.
    pub multiplier: u32,
    /// Ceiling on a single backoff wait.
    pub max_backoff_ns: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            max_attempts: 4,
            base_ns: 1_000_000, // 1 simulated ms
            multiplier: 2,
            max_backoff_ns: 64_000_000,
            jitter_seed: 0x5eed_beef,
        }
    }
}

impl RetryBudget {
    /// No retries at all — the ablation arm (and the seed behaviour).
    pub fn none() -> Self {
        RetryBudget {
            max_attempts: 1,
            ..RetryBudget::default()
        }
    }

    /// The simulated backoff before retry number `attempt` (1-based: the
    /// wait after the first failed attempt has `attempt = 1`). `key`
    /// decorrelates streams of different legs/replicas.
    pub fn backoff_ns(&self, key: u64, attempt: u32) -> u64 {
        let exp = (self.multiplier as u64)
            .saturating_pow(attempt.saturating_sub(1))
            .max(1);
        let raw = self.base_ns.saturating_mul(exp).min(self.max_backoff_ns);
        // Deterministic jitter into [raw/2, raw]: splitmix64 over the
        // (seed, key, attempt) triple.
        let z = mix64(
            self.jitter_seed
                .wrapping_add(key.wrapping_mul(0x9e3779b97f4a7c15))
                .wrapping_add(attempt as u64),
        );
        let half = raw / 2;
        half + if half == 0 { 0 } else { z % (raw - half + 1) }
    }
}

/// Upper bound on real worker threads per fan-out call.
const MAX_WORKERS: usize = 16;

/// Run `n` independent legs under `mode`, returning their results in leg
/// order regardless of completion order. Legs must not touch the MCAT:
/// catalog commits belong to the caller, after the join.
pub(crate) fn run_legs<R, F>(mode: FanoutMode, n: usize, leg: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // A single leg runs inline without asking the host for its core
    // count: that query reads cgroup files, a cost every one-file ingest
    // would otherwise pay.
    let workers = match mode {
        FanoutMode::Parallel if n > 1 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(MAX_WORKERS)
            .min(n),
        _ => 1,
    };
    if workers <= 1 {
        return (0..n).map(leg).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, leg(i)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut flat: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    flat.sort_by_key(|(i, _)| *i);
    flat.into_iter().map(|(_, r)| r).collect()
}

/// Compose per-leg receipts according to the execution shape: sequential
/// legs sum; parallel legs are dealt round-robin onto [`VIRTUAL_LANES`]
/// (summing within a lane) and the lanes max-compose. With at most
/// `VIRTUAL_LANES` legs — every replica fan-out in practice — this reduces
/// to an exact max over the legs.
#[cfg(test)]
pub(crate) fn compose(mode: FanoutMode, legs: &[Receipt]) -> Receipt {
    compose_with_wait(mode, legs).0
}

/// [`compose`], additionally reporting the total simulated time legs
/// spent queued behind earlier work before their own transfer began:
/// under [`FanoutMode::Sequential`] every leg waits for all of its
/// predecessors; under [`FanoutMode::Parallel`] a leg waits only for the
/// work already dealt onto its lane (zero while legs ≤ lanes). The
/// `fanout.queue_wait_ns` histogram observes this per fan-out.
pub(crate) fn compose_with_wait(mode: FanoutMode, legs: &[Receipt]) -> (Receipt, u64) {
    match mode {
        FanoutMode::Sequential => {
            let mut acc = Receipt::free();
            let mut wait = 0u64;
            for r in legs {
                wait += acc.sim_ns;
                acc.absorb(r);
            }
            (acc, wait)
        }
        FanoutMode::Parallel => {
            let lanes = legs.len().clamp(1, VIRTUAL_LANES);
            let mut lane_cost = vec![Receipt::free(); lanes];
            let mut wait = 0u64;
            for (i, r) in legs.iter().enumerate() {
                wait += lane_cost[i % lanes].sim_ns;
                lane_cost[i % lanes].absorb(r);
            }
            let mut it = lane_cost.into_iter();
            let first = it.next().unwrap_or_default();
            let receipt = it.fold(first, |mut acc, r| {
                acc.join_parallel(&r);
                acc
            });
            (receipt, wait)
        }
    }
}

/// One storage leg: push `data` to `resource` at `phys_path`.
#[derive(Debug, Clone)]
pub(crate) struct StoreLeg {
    /// Target physical resource.
    pub resource: ResourceId,
    /// Physical path within the resource.
    pub phys_path: String,
    /// The payload — a refcount clone, so legs sharing one buffer copy
    /// no bytes.
    pub data: Bytes,
    /// Overwrite (`write`) vs create-new (`ingest`/`replicate`).
    pub overwrite: bool,
}

/// What a fan-out produced: per-leg results in leg order, plus the
/// composed cost of the legs that succeeded.
pub(crate) struct FanoutOutcome {
    /// Per-leg result, in the order the legs were given.
    pub results: Vec<SrbResult<Receipt>>,
    /// Cost of the successful legs, composed for the mode that ran them.
    pub receipt: Receipt,
}

impl FanoutOutcome {
    /// Number of legs that stored their bytes.
    pub fn successes(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// First non-retryable error, in leg order.
    pub fn first_fatal(&self) -> Option<SrbError> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .find(|e| !e.is_retryable())
            .cloned()
    }

    /// First error of any kind, in leg order.
    pub fn first_err(&self) -> Option<SrbError> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .next()
            .cloned()
    }
}

impl SrbConnection<'_> {
    /// The one door to a resource: every storage access in this crate
    /// runs `access` here (the whole-grid dump and restore in `state.rs`
    /// aside). In order: one fault-plan draw (a `Down` resource, a down
    /// site or an injected burst refuses the access before the driver is
    /// touched), the in-flight load guard, the access, one
    /// `storage.ops`/`storage.errors` count, and the busy time charged to
    /// the resource's load. `access` returns its value and its storage
    /// nanoseconds; the door returns the value and the busy nanoseconds
    /// (storage plus injected latency). Network transfer stays with the
    /// caller, which knows its direction. One raw attempt: breaker
    /// admission and retries live in
    /// [`retry_storage`](Self::retry_storage).
    pub(crate) fn storage_call<T>(
        &self,
        resource: ResourceId,
        access: impl FnOnce(&ResourceDriver) -> SrbResult<(T, u64)>,
    ) -> SrbResult<(T, u64)> {
        let site = self.grid.site_of_resource(resource)?;
        let injected_ns = self.grid.faults.inject(resource, site)?;
        let driver = self.grid.driver(resource)?;
        let _inflight = self.grid.load.begin(resource);
        let (value, storage_ns) = match access(&driver) {
            Ok(ok) => ok,
            Err(e) => {
                if let Some(obs) = self.grid.core_obs() {
                    obs.storage_error(driver.kind(), e.code());
                }
                return Err(e);
            }
        };
        if let Some(obs) = self.grid.core_obs() {
            obs.storage_op(driver.kind(), storage_ns);
        }
        let busy_ns = injected_ns + storage_ns;
        self.grid.load.charge(resource, busy_ns);
        Ok((value, busy_ns))
    }

    /// Best-effort removal of one physical object: the door under the
    /// retry budget and the breaker, its cost dropped. A resource that
    /// refuses the delete keeps the object — an orphan no catalog row
    /// accounts for.
    pub(crate) fn discard(&self, resource: ResourceId, phys_path: &str) {
        let _ = self.retry_storage(resource, &mut Receipt::free(), |_| {
            self.storage_call(resource, |d| {
                d.driver().delete(phys_path).map(|ns| ((), ns))
            })
        });
    }

    /// Run one logical storage operation against `resource` under the
    /// connection's [`RetryBudget`] and the resource's circuit breaker.
    /// An open breaker fast-fails the whole operation up front (so
    /// failover can move on without hammering a sick resource); transient
    /// errors ([`SrbError::is_transient`]) are retried with exponential
    /// backoff + deterministic jitter, the waits charged to `receipt`
    /// (never slept). The breaker records one *post-retry* outcome: the
    /// retry layer absorbs transient noise, so only failures the budget
    /// could not fix count against the resource's error window.
    pub(crate) fn retry_storage<T>(
        &self,
        resource: ResourceId,
        receipt: &mut Receipt,
        mut attempt_fn: impl FnMut(&mut Receipt) -> SrbResult<T>,
    ) -> SrbResult<T> {
        if self.grid.health.admit(resource) == srb_net::Admission::FastFail {
            return Err(SrbError::ResourceUnavailable(format!(
                "resource {resource} circuit breaker open"
            )));
        }
        let budget = self.retry_budget();
        let mut attempt: u32 = 1;
        let outcome = loop {
            match attempt_fn(receipt) {
                Ok(v) => break Ok(v),
                Err(e) if e.is_transient() && attempt < budget.max_attempts => {
                    let wait = budget.backoff_ns(resource.raw(), attempt);
                    receipt.absorb(&Receipt::time(wait));
                    receipt.retries += 1;
                    if let Some(obs) = self.grid.core_obs() {
                        obs.retries.inc();
                        obs.backoff_ns.add(wait);
                    }
                    attempt += 1;
                }
                Err(e) => break Err(e),
            }
        };
        // Only resource-indicting failures count against the breaker; a
        // NotFound or permission error proves the resource answered.
        self.grid.health.record(
            resource,
            match &outcome {
                Ok(_) => true,
                Err(e) => !e.is_retryable(),
            },
        );
        outcome
    }

    /// [`store_bytes`](Self::store_bytes) under the retry budget and the
    /// breaker — the resilient form every writer should use.
    pub(crate) fn store_bytes_retry(
        &self,
        resource: ResourceId,
        phys_path: &str,
        data: &[u8],
        overwrite: bool,
    ) -> SrbResult<Receipt> {
        let mut receipt = Receipt::free();
        self.retry_storage(resource, &mut receipt, |rec| {
            let r = self.store_bytes(resource, phys_path, data, overwrite)?;
            rec.absorb(&r);
            Ok(())
        })?;
        Ok(receipt)
    }

    /// Execute storage legs under the connection's [`FanoutMode`]: each
    /// leg pushes its own refcounted payload (no byte copies), results
    /// come back in leg order, and the composed receipt reflects the
    /// execution shape. Each leg retries transient storage errors within
    /// the connection's [`RetryBudget`]; only an exhausted leg reports an
    /// error (which the committing caller records as `Stale`). No catalog
    /// state is touched.
    pub(crate) fn store_fanout(&self, legs: &[StoreLeg]) -> FanoutOutcome {
        let mode = self.fanout_mode();
        let results = run_legs(mode, legs.len(), |i| {
            let leg = &legs[i];
            self.store_bytes_retry(leg.resource, &leg.phys_path, &leg.data, leg.overwrite)
        });
        let ok: Vec<Receipt> = results.iter().filter_map(|r| r.clone().ok()).collect();
        let (receipt, wait_ns) = compose_with_wait(mode, &ok);
        if let Some(obs) = self.grid.core_obs() {
            obs.legs_dispatched.add(legs.len() as u64);
            obs.legs_failed.add((results.len() - ok.len()) as u64);
            obs.queue_wait.observe(wait_ns);
        }
        FanoutOutcome { receipt, results }
    }

    /// Best-effort removal of bytes stored by legs that succeeded, used
    /// when an operation is refused after its legs ran, so that no
    /// catalog row exists to account for them.
    pub(crate) fn undo_stored_legs(&self, legs: &[StoreLeg], results: &[SrbResult<Receipt>]) {
        for (leg, result) in legs.iter().zip(results) {
            if result.is_ok() {
                self.discard(leg.resource, &leg.phys_path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_legs_preserves_order_both_modes() {
        for mode in [FanoutMode::Parallel, FanoutMode::Sequential] {
            let out = run_legs(mode, 100, |i| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn compose_sequential_sums() {
        let legs: Vec<Receipt> = (1..=4).map(|i| Receipt::time(i * 100)).collect();
        let r = compose(FanoutMode::Sequential, &legs);
        assert_eq!(r.sim_ns, 1000);
    }

    #[test]
    fn compose_parallel_is_max_up_to_lane_count() {
        let mut legs: Vec<Receipt> = (1..=4).map(|i| Receipt::time(i * 100)).collect();
        for (i, l) in legs.iter_mut().enumerate() {
            l.bytes = 10 * (i as u64 + 1);
        }
        let r = compose(FanoutMode::Parallel, &legs);
        assert_eq!(r.sim_ns, 400); // max of the legs
        assert_eq!(r.bytes, 100); // bytes still add
    }

    #[test]
    fn compose_parallel_beyond_lanes_queues_on_lanes() {
        // 16 equal legs over 8 lanes: two per lane, so 2× one leg's time.
        let legs = vec![Receipt::time(100); 16];
        let r = compose(FanoutMode::Parallel, &legs);
        assert_eq!(r.sim_ns, 200);
    }

    #[test]
    fn compose_wait_sequential_accumulates_predecessors() {
        let legs: Vec<Receipt> = (1..=4).map(|i| Receipt::time(i * 100)).collect();
        let (_, wait) = compose_with_wait(FanoutMode::Sequential, &legs);
        // Leg waits: 0, 100, 300, 600.
        assert_eq!(wait, 1000);
    }

    #[test]
    fn compose_wait_parallel_zero_until_lanes_full() {
        let legs = vec![Receipt::time(100); VIRTUAL_LANES];
        let (_, wait) = compose_with_wait(FanoutMode::Parallel, &legs);
        assert_eq!(wait, 0);
        // One extra leg queues behind lane 0's first leg.
        let legs = vec![Receipt::time(100); VIRTUAL_LANES + 1];
        let (_, wait) = compose_with_wait(FanoutMode::Parallel, &legs);
        assert_eq!(wait, 100);
    }

    #[test]
    fn compose_empty_is_free() {
        assert_eq!(compose(FanoutMode::Parallel, &[]), Receipt::free());
        assert_eq!(compose(FanoutMode::Sequential, &[]), Receipt::free());
    }
}
