//! Replica selection policies.
//!
//! The paper's federation replicates "to provide load balancing" and for
//! fault tolerance, "automatically redirecting access to a replica on a
//! separate storage system when the first storage system is unavailable".
//! The policy decides the *order* in which replicas are tried; failover
//! walks that order skipping unavailable resources. `LeastLoaded` is the
//! default; `Random` and `FirstAlive` are the ablation baselines (A3).

use srb_mcat::{Replica, ReplicaStatus};
use srb_net::{HealthRegistry, LoadTracker};
use srb_types::SeedStream;

/// The candidates a read walks, grouped by how desperate the caller is.
#[derive(Debug)]
pub struct OrderedReplicas<'a> {
    /// Fresh (up-to-date) replicas in try order. Replicas on open-breaker
    /// resources are demoted behind every healthy one — the breaker's job
    /// is exactly to keep known-bad resources from being tried first —
    /// but kept as a last resort when nothing healthier exists.
    pub fresh: Vec<&'a Replica>,
    /// Stale byte replicas, policy-ordered. Only served under the
    /// connection's explicit stale opt-in, and flagged in the receipt.
    pub stale: Vec<&'a Replica>,
}

/// How to order candidate replicas for a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaPolicy {
    /// Prefer the replica whose resource has the least outstanding load
    /// (in-flight operations, then accumulated busy time).
    #[default]
    LeastLoaded,
    /// Deterministic pseudo-random order, seeded per request.
    Random(u64),
    /// Catalog order: always try replica #1 first (the naive baseline).
    FirstAlive,
}

impl ReplicaPolicy {
    /// Order candidate replicas for a read attempt, consulting the health
    /// registry when given: fresh replicas whose resource's breaker is
    /// `Open` are demoted behind every non-open one (stable within each
    /// group, so the policy order is preserved). Stale byte replicas come
    /// back separately for graceful degradation.
    pub(crate) fn order_with_health<'a>(
        &self,
        replicas: &'a [Replica],
        load: &LoadTracker,
        health: Option<&HealthRegistry>,
    ) -> OrderedReplicas<'a> {
        let fresh = self.sort(
            replicas
                .iter()
                .filter(|r| r.spec.is_byte_addressable() && r.status == ReplicaStatus::UpToDate)
                .collect(),
            load,
        );
        let stale = self.sort(
            replicas
                .iter()
                .filter(|r| r.spec.is_byte_addressable() && r.status == ReplicaStatus::Stale)
                .collect(),
            load,
        );
        let fresh = match health {
            Some(h) => {
                let (closed, open): (Vec<&Replica>, Vec<&Replica>) = fresh
                    .into_iter()
                    .partition(|r| !r.spec.resource().is_some_and(|res| h.is_open(res)));
                let mut v = closed;
                v.extend(open);
                v
            }
            None => fresh,
        };
        OrderedReplicas { fresh, stale }
    }

    /// Apply the policy's ordering to an already-filtered candidate list.
    fn sort<'a>(&self, mut fresh: Vec<&'a Replica>, load: &LoadTracker) -> Vec<&'a Replica> {
        match self {
            ReplicaPolicy::FirstAlive => {
                fresh.sort_by_key(|r| r.repl_num);
            }
            ReplicaPolicy::LeastLoaded => {
                fresh.sort_by_key(|r| {
                    (
                        r.spec
                            .resource()
                            .map(|res| load.score(res))
                            .unwrap_or(u128::MAX),
                        r.repl_num,
                    )
                });
            }
            ReplicaPolicy::Random(seed) => {
                // Fisher–Yates with a splitmix64 stream — deterministic per
                // seed, no allocation beyond the output vec.
                let mut stream = SeedStream::new(seed.wrapping_add(0x9e3779b97f4a7c15));
                for i in (1..fresh.len()).rev() {
                    fresh.swap(i, stream.below(i + 1));
                }
            }
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_mcat::AccessSpec;
    use srb_types::{ReplicaId, ResourceId, Timestamp};

    fn replica(num: u32, resource: u64, status: ReplicaStatus) -> Replica {
        Replica {
            id: ReplicaId(num as u64),
            repl_num: num,
            spec: AccessSpec::Stored {
                resource: ResourceId(resource),
                phys_path: format!("/p{num}"),
            },
            size: 10,
            checksum: None,
            in_container: None,
            status,
            pinned_until: None,
            created: Timestamp(0),
        }
    }

    /// A tracker over the replicas' resources.
    fn tracker(reps: &[Replica]) -> LoadTracker {
        LoadTracker::new(reps.iter().filter_map(|r| r.spec.resource()))
    }

    #[test]
    fn first_alive_uses_catalog_order() {
        let reps = vec![
            replica(2, 20, ReplicaStatus::UpToDate),
            replica(1, 10, ReplicaStatus::UpToDate),
        ];
        let load = tracker(&reps);
        let order = ReplicaPolicy::FirstAlive
            .order_with_health(&reps, &load, None)
            .fresh;
        assert_eq!(order[0].repl_num, 1);
        assert_eq!(order[1].repl_num, 2);
    }

    #[test]
    fn least_loaded_prefers_idle_resource() {
        let reps = vec![
            replica(1, 10, ReplicaStatus::UpToDate),
            replica(2, 20, ReplicaStatus::UpToDate),
        ];
        let load = tracker(&reps);
        load.charge(ResourceId(10), 1_000_000);
        let order = ReplicaPolicy::LeastLoaded
            .order_with_health(&reps, &load, None)
            .fresh;
        assert_eq!(order[0].spec.resource(), Some(ResourceId(20)));
    }

    #[test]
    fn stale_replicas_excluded() {
        let reps = vec![
            replica(1, 10, ReplicaStatus::Stale),
            replica(2, 20, ReplicaStatus::UpToDate),
        ];
        let load = tracker(&reps);
        for policy in [
            ReplicaPolicy::FirstAlive,
            ReplicaPolicy::LeastLoaded,
            ReplicaPolicy::Random(1),
        ] {
            let order = policy.order_with_health(&reps, &load, None).fresh;
            assert_eq!(order.len(), 1);
            assert_eq!(order[0].repl_num, 2);
        }
    }

    #[test]
    fn open_breaker_resources_demoted_but_not_dropped() {
        use srb_net::{BreakerConfig, HealthRegistry};
        use srb_types::SimClock;
        let reps = vec![
            replica(1, 10, ReplicaStatus::UpToDate),
            replica(2, 20, ReplicaStatus::UpToDate),
        ];
        let load = tracker(&reps);
        let health = HealthRegistry::new(SimClock::new(), BreakerConfig::default());
        // Trip resource 10's breaker; catalog-order policy would try it
        // first, but health-aware ordering demotes it behind resource 20.
        for _ in 0..8 {
            health.record(ResourceId(10), false);
        }
        let ordered = ReplicaPolicy::FirstAlive.order_with_health(&reps, &load, Some(&health));
        assert_eq!(ordered.fresh.len(), 2);
        assert_eq!(ordered.fresh[0].spec.resource(), Some(ResourceId(20)));
        assert_eq!(ordered.fresh[1].spec.resource(), Some(ResourceId(10)));
        // Without the registry the catalog order stands.
        let plain = ReplicaPolicy::FirstAlive.order_with_health(&reps, &load, None);
        assert_eq!(plain.fresh[0].spec.resource(), Some(ResourceId(10)));
    }

    #[test]
    fn stale_replicas_surface_in_their_own_group() {
        let reps = vec![
            replica(1, 10, ReplicaStatus::Stale),
            replica(2, 20, ReplicaStatus::UpToDate),
            replica(3, 30, ReplicaStatus::Stale),
        ];
        let load = tracker(&reps);
        let ordered = ReplicaPolicy::FirstAlive.order_with_health(&reps, &load, None);
        assert_eq!(ordered.fresh.len(), 1);
        assert_eq!(ordered.fresh[0].repl_num, 2);
        let stale_nums: Vec<u32> = ordered.stale.iter().map(|r| r.repl_num).collect();
        assert_eq!(stale_nums, vec![1, 3]);
    }

    #[test]
    fn non_byte_replicas_excluded() {
        let mut url = replica(1, 10, ReplicaStatus::UpToDate);
        url.spec = AccessSpec::Url {
            url: "http://x/".into(),
        };
        let reps = vec![url, replica(2, 20, ReplicaStatus::UpToDate)];
        let load = tracker(&reps);
        let order = ReplicaPolicy::FirstAlive
            .order_with_health(&reps, &load, None)
            .fresh;
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].repl_num, 2);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_covers_all() {
        let reps: Vec<Replica> = (1..=8)
            .map(|i| replica(i, i as u64 * 10, ReplicaStatus::UpToDate))
            .collect();
        let load = tracker(&reps);
        let a: Vec<u32> = ReplicaPolicy::Random(7)
            .order_with_health(&reps, &load, None)
            .fresh
            .iter()
            .map(|r| r.repl_num)
            .collect();
        let b: Vec<u32> = ReplicaPolicy::Random(7)
            .order_with_health(&reps, &load, None)
            .fresh
            .iter()
            .map(|r| r.repl_num)
            .collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (1..=8).collect::<Vec<_>>());
        // Different seeds give different orders (with 8! permutations the
        // chance of collision across 3 seeds is negligible).
        let c: Vec<u32> = ReplicaPolicy::Random(8)
            .order_with_health(&reps, &load, None)
            .fresh
            .iter()
            .map(|r| r.repl_num)
            .collect();
        let d: Vec<u32> = ReplicaPolicy::Random(9)
            .order_with_health(&reps, &load, None)
            .fresh
            .iter()
            .map(|r| r.repl_num)
            .collect();
        assert!(a != c || a != d);
    }
}
