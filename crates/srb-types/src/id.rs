//! Strongly typed identifiers.
//!
//! Every entity registered in the MCAT gets a dense `u64` id. Newtype
//! wrappers prevent a `DatasetId` from being used where a `ReplicaId` is
//! expected — with hundreds of catalog tables that mix-up is otherwise easy.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Raw numeric value.
            #[inline]
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl crate::CatalogKey for $name {}

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }

        // Ids appear as JSON map keys (e.g. ACL matrices keyed by UserId);
        // the vendored serde requires explicit key conversions.
        impl serde::KeyToString for $name {
            fn key_string(&self) -> String {
                self.0.to_string()
            }
        }

        impl serde::KeyFromString for $name {
            fn key_parse(key: &str) -> Result<Self, serde::DeError> {
                key.parse::<u64>().map($name).map_err(|_| {
                    serde::DeError::new(format!(
                        concat!("bad ", stringify!($name), " key: {:?}"),
                        key
                    ))
                })
            }
        }
    };
}

define_id!(
    /// A registered user of the data grid.
    UserId, "u"
);
define_id!(
    /// A user group (users may belong to many groups).
    GroupId, "g"
);
define_id!(
    /// A collection (node in the logical name space hierarchy).
    CollectionId, "c"
);
define_id!(
    /// A dataset — one logical digital entity; may have many replicas.
    DatasetId, "d"
);
define_id!(
    /// One physical copy of a dataset on a specific resource.
    ReplicaId, "r"
);
define_id!(
    /// A physical storage resource (file system, archive, cache, database).
    ResourceId, "sr"
);
define_id!(
    /// A logical resource grouping several physical resources.
    LogicalResourceId, "lr"
);
define_id!(
    /// A container aggregating many small objects into one archive object.
    ContainerId, "ct"
);
define_id!(
    /// A site (administrative domain) in the simulated wide-area network.
    SiteId, "s"
);
define_id!(
    /// An SRB server instance within the federation.
    ServerId, "srv"
);
define_id!(
    /// A metadata triplet row.
    MetaId, "m"
);
define_id!(
    /// An annotation / commentary row.
    AnnotationId, "a"
);
define_id!(
    /// An audit-trail row.
    AuditId, "au"
);
define_id!(
    /// A metadata schema (grouping of attribute definitions).
    SchemaId, "sch"
);
define_id!(
    /// A registered proxy command (method object / virtual data).
    MethodId, "mth"
);

/// Monotonic id allocator shared by all MCAT tables.
///
/// Dense ids keep index nodes small; a single allocator keeps ids unique
/// across entity kinds, which makes audit rows unambiguous.
#[derive(Debug, Default)]
pub struct IdGen {
    next: AtomicU64,
}

impl IdGen {
    /// Create an allocator starting at 1 (0 is reserved as a sentinel).
    pub fn new() -> Self {
        IdGen {
            next: AtomicU64::new(1),
        }
    }

    /// Allocate the next id, as any of the newtype wrappers.
    #[inline]
    pub fn next<T: From<u64>>(&self) -> T {
        T::from(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Number of ids handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Raise the allocator so future ids are strictly greater than
    /// `highest` — used when restoring a catalog snapshot.
    pub fn ensure_floor(&self, highest: u64) {
        let mut cur = self.next.load(Ordering::Relaxed);
        while cur <= highest {
            match self.next.compare_exchange_weak(
                cur,
                highest + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(DatasetId(7).to_string(), "d7");
        assert_eq!(ResourceId(3).to_string(), "sr3");
        assert_eq!(LogicalResourceId(9).to_string(), "lr9");
    }

    #[test]
    fn idgen_is_monotonic_and_unique() {
        let g = IdGen::new();
        let a: DatasetId = g.next();
        let b: ReplicaId = g.next();
        let c: DatasetId = g.next();
        assert_eq!(a.raw(), 1);
        assert_eq!(b.raw(), 2);
        assert_eq!(c.raw(), 3);
        assert_eq!(g.allocated(), 3);
    }

    #[test]
    fn idgen_is_thread_safe() {
        let g = IdGen::new();
        let ids: HashSet<u64> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(s.spawn(|| {
                    (0..1000)
                        .map(|_| g.next::<DatasetId>().raw())
                        .collect::<Vec<_>>()
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(ids.len(), 8000);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(CollectionId(1) < CollectionId(2));
        let mut set = HashSet::new();
        set.insert(UserId(1));
        assert!(set.contains(&UserId(1)));
        assert!(!set.contains(&UserId(2)));
    }
}
