//! Storage resources and logical resources.
//!
//! A *physical resource* is one storage system at one site ("unix-sdsc", a
//! Unix file system at SDSC; "hpss-caltech", an HPSS archive at CalTech").
//! A *logical resource* "ties together two or more physical resources":
//! storing into it writes synchronous replicas to every member (paper §5).

use crate::wal::{WalHook, WalOp};
use serde::{Deserialize, Serialize};
use srb_storage::DriverKind;
use srb_types::sync::{LockRank, RwLock};
use srb_types::{IdGen, LogicalResourceId, ResourceId, SiteId, SrbError, SrbResult};
use std::collections::HashMap;

/// A physical storage resource registered in the catalog.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Resource {
    /// Catalog id.
    pub id: ResourceId,
    /// Unique resource name, e.g. `unix-sdsc`.
    pub name: String,
    /// What kind of storage system it is.
    pub kind: DriverKind,
    /// The site (administrative domain) hosting it.
    pub site: SiteId,
}

/// A named group of physical resources with synchronous-replication
/// semantics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogicalResource {
    /// Catalog id.
    pub id: LogicalResourceId,
    /// Unique logical resource name, e.g. `logrsrc1`.
    pub name: String,
    /// Member physical resources (ingest writes to all of them).
    pub members: Vec<ResourceId>,
}

/// Resource tables.
#[derive(Debug)]
pub struct ResourceTable {
    inner: RwLock<Inner>,
    /// Redo-log hook; a no-op until the catalog enables durability.
    wal: WalHook,
}

impl Default for ResourceTable {
    fn default() -> Self {
        ResourceTable {
            inner: RwLock::new(LockRank::McatTable, "mcat.resources", Inner::default()),
            wal: WalHook::default(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    physical: HashMap<ResourceId, Resource>,
    by_name: HashMap<String, ResourceId>,
    logical: HashMap<LogicalResourceId, LogicalResource>,
    logical_by_name: HashMap<String, LogicalResourceId>,
}

impl ResourceTable {
    /// Empty tables.
    pub fn new() -> Self {
        ResourceTable::default()
    }

    /// Register a physical resource.
    pub fn register(
        &self,
        ids: &IdGen,
        name: &str,
        kind: DriverKind,
        site: SiteId,
    ) -> SrbResult<ResourceId> {
        let mut g = self.inner.write();
        if g.by_name.contains_key(name) || g.logical_by_name.contains_key(name) {
            return Err(SrbError::AlreadyExists(format!("resource '{name}'")));
        }
        let id: ResourceId = ids.next();
        let row = Resource {
            id,
            name: name.to_string(),
            kind,
            site,
        };
        self.wal.log(0, || WalOp::ResourcePut { row: row.clone() });
        g.physical.insert(id, row);
        g.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Create a logical resource over existing physical members.
    pub fn create_logical(
        &self,
        ids: &IdGen,
        name: &str,
        members: &[ResourceId],
    ) -> SrbResult<LogicalResourceId> {
        if members.is_empty() {
            return Err(SrbError::Invalid(
                "logical resource needs at least one member".into(),
            ));
        }
        let mut g = self.inner.write();
        if g.logical_by_name.contains_key(name) || g.by_name.contains_key(name) {
            return Err(SrbError::AlreadyExists(format!("resource '{name}'")));
        }
        for m in members {
            if !g.physical.contains_key(m) {
                return Err(SrbError::NotFound(format!("member resource {m}")));
            }
        }
        let id: LogicalResourceId = ids.next();
        let row = LogicalResource {
            id,
            name: name.to_string(),
            members: members.to_vec(),
        };
        self.wal
            .log(0, || WalOp::LogicalResourcePut { row: row.clone() });
        g.logical.insert(id, row);
        g.logical_by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Get a physical resource.
    pub fn get(&self, id: ResourceId) -> SrbResult<Resource> {
        self.inner
            .read()
            .physical
            .get(&id)
            .cloned()
            .ok_or_else(|| SrbError::NotFound(format!("resource {id}")))
    }

    /// Find a physical resource by name.
    pub fn find(&self, name: &str) -> Option<Resource> {
        let g = self.inner.read();
        g.by_name
            .get(name)
            .and_then(|id| g.physical.get(id))
            .cloned()
    }

    /// Get a logical resource.
    pub fn get_logical(&self, id: LogicalResourceId) -> SrbResult<LogicalResource> {
        self.inner
            .read()
            .logical
            .get(&id)
            .cloned()
            .ok_or_else(|| SrbError::NotFound(format!("logical resource {id}")))
    }

    /// Find a logical resource by name.
    pub fn find_logical(&self, name: &str) -> Option<LogicalResource> {
        let g = self.inner.read();
        g.logical_by_name
            .get(name)
            .and_then(|id| g.logical.get(id))
            .cloned()
    }

    /// Resolve a name that may denote either a physical or a logical
    /// resource into the list of physical resources to write to.
    ///
    /// This is the paper's ingest rule: a single physical resource stores
    /// one copy; a logical resource stores one synchronous replica per
    /// member.
    pub fn resolve_targets(&self, name: &str) -> SrbResult<Vec<ResourceId>> {
        let g = self.inner.read();
        if let Some(id) = g.by_name.get(name) {
            return Ok(vec![*id]);
        }
        if let Some(lid) = g.logical_by_name.get(name) {
            return Ok(g.logical[lid].members.clone());
        }
        Err(SrbError::NotFound(format!("resource '{name}'")))
    }

    /// Rebuild the table from snapshot rows.
    pub fn restore(physical: Vec<Resource>, logical: Vec<LogicalResource>) -> Self {
        let t = ResourceTable::new();
        {
            let mut g = t.inner.write();
            for r in physical {
                g.by_name.insert(r.name.clone(), r.id);
                g.physical.insert(r.id, r);
            }
            for l in logical {
                g.logical_by_name.insert(l.name.clone(), l.id);
                g.logical.insert(l.id, l);
            }
        }
        t
    }

    /// All physical resources, sorted by id.
    pub fn list(&self) -> Vec<Resource> {
        let mut v: Vec<Resource> = self.inner.read().physical.values().cloned().collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// All logical resources, sorted by id.
    pub fn list_logical(&self) -> Vec<LogicalResource> {
        let mut v: Vec<LogicalResource> = self.inner.read().logical.values().cloned().collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// Wire this table to the catalog's WAL.
    pub(crate) fn attach_wal(&self, wal: std::sync::Arc<crate::wal::Wal>) {
        self.wal.attach(wal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (ResourceTable, IdGen) {
        (ResourceTable::new(), IdGen::new())
    }

    #[test]
    fn register_and_lookup() {
        let (t, ids) = table();
        let id = t
            .register(&ids, "unix-sdsc", DriverKind::FileSystem, SiteId(0))
            .unwrap();
        assert_eq!(t.find("unix-sdsc").unwrap().id, id);
        assert_eq!(t.get(id).unwrap().kind, DriverKind::FileSystem);
        assert!(t.find("nope").is_none());
        assert!(t.get(ResourceId(99)).is_err());
    }

    #[test]
    fn names_unique_across_physical_and_logical() {
        let (t, ids) = table();
        let r = t
            .register(&ids, "unix-sdsc", DriverKind::FileSystem, SiteId(0))
            .unwrap();
        assert!(t
            .register(&ids, "unix-sdsc", DriverKind::Cache, SiteId(0))
            .is_err());
        t.create_logical(&ids, "logrsrc1", &[r]).unwrap();
        // A physical resource may not reuse a logical name and vice versa.
        assert!(t
            .register(&ids, "logrsrc1", DriverKind::FileSystem, SiteId(0))
            .is_err());
        assert!(t.create_logical(&ids, "unix-sdsc", &[r]).is_err());
    }

    #[test]
    fn logical_resource_resolves_to_members() {
        let (t, ids) = table();
        let unix = t
            .register(&ids, "unix-sdsc", DriverKind::FileSystem, SiteId(0))
            .unwrap();
        let hpss = t
            .register(&ids, "hpss-caltech", DriverKind::Archive, SiteId(1))
            .unwrap();
        t.create_logical(&ids, "logrsrc1", &[unix, hpss]).unwrap();
        assert_eq!(t.resolve_targets("logrsrc1").unwrap(), vec![unix, hpss]);
        assert_eq!(t.resolve_targets("unix-sdsc").unwrap(), vec![unix]);
        assert!(t.resolve_targets("missing").is_err());
    }

    #[test]
    fn logical_resource_validates_members() {
        let (t, ids) = table();
        assert!(t.create_logical(&ids, "empty", &[]).is_err());
        assert!(t.create_logical(&ids, "ghost", &[ResourceId(42)]).is_err());
    }

    #[test]
    fn listings_are_sorted() {
        let (t, ids) = table();
        let a = t
            .register(&ids, "a", DriverKind::FileSystem, SiteId(0))
            .unwrap();
        let b = t
            .register(&ids, "b", DriverKind::Archive, SiteId(1))
            .unwrap();
        t.create_logical(&ids, "l", &[a, b]).unwrap();
        assert_eq!(t.list().len(), 2);
        assert!(t.list()[0].id < t.list()[1].id);
        assert_eq!(t.list_logical().len(), 1);
        assert_eq!(t.find_logical("l").unwrap().members, vec![a, b]);
    }
}
