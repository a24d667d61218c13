//! The collection hierarchy.
//!
//! Collections are the nodes of the logical name space: "hierarchies of
//! collections" with per-collection ACLs, descriptive metadata, and
//! *structural metadata* — attribute requirements the curator imposes on
//! everything ingested into the collection (paper §5: defaults, restricted
//! vocabularies shown as drop-down lists, and mandatory attributes).

use crate::wal::{WalHook, WalOp};
use serde::{Deserialize, Serialize};
use srb_types::sync::{LockRank, RwLock, RwLockReadGuard};
use srb_types::{
    AccessMatrix, CollectionId, GenCounter, Generation, IdGen, LogicalPath, SrbError, SrbResult,
    Timestamp, UserId,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

/// A structural-metadata requirement on a collection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrRequirement {
    /// Attribute name the ingestor must (or may) provide.
    pub name: String,
    /// Allowed values: empty = free-form; one entry = default value;
    /// several = restricted vocabulary shown as a drop-down.
    pub allowed: Vec<String>,
    /// Curator's explanation shown in the ingest form.
    pub comment: String,
    /// Must the ingestor provide a value?
    pub mandatory: bool,
}

impl AttrRequirement {
    /// A mandatory free-form attribute.
    pub fn mandatory(name: &str, comment: &str) -> Self {
        AttrRequirement {
            name: name.to_string(),
            allowed: Vec::new(),
            comment: comment.to_string(),
            mandatory: true,
        }
    }

    /// An optional attribute with a restricted vocabulary.
    pub fn vocabulary(name: &str, allowed: &[&str], comment: &str) -> Self {
        AttrRequirement {
            name: name.to_string(),
            allowed: allowed.iter().map(|s| s.to_string()).collect(),
            comment: comment.to_string(),
            mandatory: false,
        }
    }

    /// The default value offered in the form, if any.
    pub fn default_value(&self) -> Option<&str> {
        self.allowed.first().map(|s| s.as_str())
    }
}

/// One collection node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Collection {
    /// Catalog id.
    pub id: CollectionId,
    /// Parent collection (`None` only for the root).
    pub parent: Option<CollectionId>,
    /// Full logical path.
    pub path: LogicalPath,
    /// Creating user.
    pub owner: UserId,
    /// Access matrix.
    pub acl: AccessMatrix,
    /// Structural metadata requirements for items added here.
    pub requirements: Vec<AttrRequirement>,
    /// When this collection links to another collection (paper: "one can
    /// also link a collection as a sub-collection of another collection"),
    /// the target; such a node has no children of its own.
    pub link_target: Option<CollectionId>,
    /// Creation time (virtual).
    pub created: Timestamp,
}

/// One cached subtree: the generation it was computed at plus the set itself.
type CachedScope = (Generation, Arc<HashSet<CollectionId>>);

/// The collection tree.
#[derive(Debug)]
pub struct CollectionTable {
    inner: RwLock<Inner>,
    /// Bumped by every structural mutation (create/link/move/delete); the
    /// subtree cache below stamps its entries with this counter.
    generation: GenCounter,
    /// Scope-root → cached subtree. Entries whose stamp trails
    /// [`Self::generation`] are recomputed on next use; queries sharing a
    /// scope between mutations share one `Arc`'d set.
    scope_cache: RwLock<HashMap<CollectionId, CachedScope>>,
    /// `query.scope_cache_hits` / `query.scope_cache_misses`, attached by
    /// the grid when observability is on.
    cache_obs: Option<(srb_obs::Counter, srb_obs::Counter)>,
    /// Redo-log hook; a no-op until the catalog enables durability.
    wal: WalHook,
}

impl Default for CollectionTable {
    fn default() -> Self {
        CollectionTable {
            inner: RwLock::new(LockRank::McatTable, "mcat.collections", Inner::default()),
            generation: GenCounter::new(),
            scope_cache: RwLock::new(
                LockRank::McatTable,
                "mcat.collections.scope_cache",
                HashMap::new(),
            ),
            cache_obs: None,
            wal: WalHook::default(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    nodes: HashMap<CollectionId, Collection>,
    by_path: HashMap<String, CollectionId>,
    /// Per-parent children keyed by child name — already in listing order,
    /// so `children`/`children_page` are bounded range reads, not sorts.
    children: HashMap<CollectionId, BTreeMap<String, CollectionId>>,
}

impl CollectionTable {
    /// New table containing only the root collection owned by `admin`.
    pub fn new(ids: &IdGen, admin: UserId, now: Timestamp) -> Self {
        let t = CollectionTable::default();
        let root_id: CollectionId = ids.next();
        let mut g = t.inner.write();
        let mut acl = AccessMatrix::owned_by(admin);
        acl.public = srb_types::Permission::Discover;
        g.nodes.insert(
            root_id,
            Collection {
                id: root_id,
                parent: None,
                path: LogicalPath::root(),
                owner: admin,
                acl,
                requirements: Vec::new(),
                link_target: None,
                created: now,
            },
        );
        g.by_path.insert("/".to_string(), root_id);
        g.children.insert(root_id, BTreeMap::new());
        drop(g);
        t
    }

    /// The root collection id.
    pub fn root(&self) -> CollectionId {
        match self.inner.read().by_path.get("/") {
            Some(id) => *id,
            // "/" is inserted at construction and delete() refuses the root.
            None => unreachable!("root exists for the table's lifetime"),
        }
    }

    /// Create a sub-collection under `parent`.
    pub fn create(
        &self,
        ids: &IdGen,
        parent: CollectionId,
        name: &str,
        owner: UserId,
        now: Timestamp,
    ) -> SrbResult<CollectionId> {
        let mut g = self.inner.write();
        let parent_node = g
            .nodes
            .get(&parent)
            .ok_or_else(|| SrbError::NotFound(format!("collection {parent}")))?;
        if parent_node.link_target.is_some() {
            return Err(SrbError::Unsupported(
                "cannot create children under a linked collection".into(),
            ));
        }
        let path = parent_node.path.child(name)?;
        let key = path.to_string();
        if g.by_path.contains_key(&key) {
            return Err(SrbError::AlreadyExists(format!("collection '{key}'")));
        }
        let id: CollectionId = ids.next();
        let row = Collection {
            id,
            parent: Some(parent),
            path,
            owner,
            acl: AccessMatrix::owned_by(owner),
            requirements: Vec::new(),
            link_target: None,
            created: now,
        };
        let gen = self.generation.bump_get().raw();
        self.wal
            .log(gen, || WalOp::CollectionPut { row: row.clone() });
        g.nodes.insert(id, row);
        g.by_path.insert(key, id);
        g.children
            .entry(parent)
            .or_default()
            .insert(name.to_string(), id);
        g.children.insert(id, BTreeMap::new());
        Ok(id)
    }

    /// Link `target` as a sub-collection of `parent` under `name`.
    /// Chaining is collapsed: linking to a link links to its target.
    pub fn link(
        &self,
        ids: &IdGen,
        parent: CollectionId,
        name: &str,
        target: CollectionId,
        owner: UserId,
        now: Timestamp,
    ) -> SrbResult<CollectionId> {
        let mut g = self.inner.write();
        let resolved_target = {
            let t = g
                .nodes
                .get(&target)
                .ok_or_else(|| SrbError::NotFound(format!("collection {target}")))?;
            t.link_target.unwrap_or(target)
        };
        let parent_node = g
            .nodes
            .get(&parent)
            .ok_or_else(|| SrbError::NotFound(format!("collection {parent}")))?;
        let path = parent_node.path.child(name)?;
        let key = path.to_string();
        if g.by_path.contains_key(&key) {
            return Err(SrbError::AlreadyExists(format!("collection '{key}'")));
        }
        let id: CollectionId = ids.next();
        let row = Collection {
            id,
            parent: Some(parent),
            path,
            owner,
            acl: AccessMatrix::owned_by(owner),
            requirements: Vec::new(),
            link_target: Some(resolved_target),
            created: now,
        };
        let gen = self.generation.bump_get().raw();
        self.wal
            .log(gen, || WalOp::CollectionPut { row: row.clone() });
        g.nodes.insert(id, row);
        g.by_path.insert(key, id);
        g.children
            .entry(parent)
            .or_default()
            .insert(name.to_string(), id);
        Ok(id)
    }

    /// Get a collection by id.
    pub fn get(&self, id: CollectionId) -> SrbResult<Collection> {
        self.inner
            .read()
            .nodes
            .get(&id)
            .cloned()
            .ok_or_else(|| SrbError::NotFound(format!("collection {id}")))
    }

    /// Resolve a path to a collection id, following collection links.
    pub fn resolve(&self, path: &LogicalPath) -> SrbResult<CollectionId> {
        let g = self.inner.read();
        let id = g
            .by_path
            .get(&path.to_string())
            .copied()
            .ok_or_else(|| SrbError::NotFound(format!("collection '{path}'")))?;
        Ok(g.nodes[&id].link_target.unwrap_or(id))
    }

    /// Resolve without following a final link (to operate on the link
    /// object itself, e.g. unlink).
    pub fn resolve_nofollow(&self, path: &LogicalPath) -> SrbResult<CollectionId> {
        self.inner
            .read()
            .by_path
            .get(&path.to_string())
            .copied()
            .ok_or_else(|| SrbError::NotFound(format!("collection '{path}'")))
    }

    /// Direct children, sorted by name (the child index's native order).
    pub fn children(&self, id: CollectionId) -> Vec<Collection> {
        let g = self.inner.read();
        g.children
            .get(&id)
            .map(|c| c.values().filter_map(|i| g.nodes.get(i)).cloned().collect())
            .unwrap_or_default()
    }

    /// One page of direct children in name order, resuming strictly after
    /// `after`. Returns up to `limit` rows plus whether more remain —
    /// O(page) however deep the cursor is.
    pub fn children_page(
        &self,
        id: CollectionId,
        after: Option<&str>,
        limit: usize,
    ) -> (Vec<Collection>, bool) {
        let g = self.inner.read();
        let Some(kids) = g.children.get(&id) else {
            return (Vec::new(), false);
        };
        let start = match after {
            Some(name) => Bound::Excluded(name.to_string()),
            None => Bound::Unbounded,
        };
        let mut iter = kids
            .range((start, Bound::Unbounded))
            .filter_map(|(_, i)| g.nodes.get(i));
        let mut page = Vec::with_capacity(limit.min(1024));
        for c in iter.by_ref() {
            if page.len() == limit {
                return (page, true);
            }
            page.push(c.clone());
        }
        (page, false)
    }

    /// All descendant collection ids (not including `id`), link nodes not
    /// followed.
    pub fn descendants(&self, id: CollectionId) -> Vec<CollectionId> {
        let g = self.inner.read();
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if let Some(kids) = g.children.get(&cur) {
                for &k in kids.values() {
                    out.push(k);
                    stack.push(k);
                }
            }
        }
        out
    }

    /// The subtree rooted at `root` as a set: `root`, every descendant,
    /// plus (one level of) collection-link targets inside that set and
    /// *their* descendants — the scope the query engine searches.
    ///
    /// Results are cached per root and stamped with the table's mutation
    /// generation; any create/link/move/delete invalidates every entry.
    /// The stamp is read **before** the set is computed, so a mutation that
    /// races the computation leaves the inserted entry already stale rather
    /// than fresh-but-wrong.
    pub fn subtree_set(&self, root: CollectionId) -> Arc<HashSet<CollectionId>> {
        let gen_before = self.generation.current();
        if let Some((stamp, set)) = self.scope_cache.read().get(&root) {
            if *stamp == gen_before {
                if let Some((hits, _)) = &self.cache_obs {
                    hits.inc();
                }
                return Arc::clone(set);
            }
        }
        if let Some((_, misses)) = &self.cache_obs {
            misses.inc();
        }
        let set = Arc::new(self.compute_subtree(root));
        self.scope_cache
            .write()
            .insert(root, (gen_before, Arc::clone(&set)));
        set
    }

    /// Attach the scope-cache hit/miss counters (called once by the grid
    /// at construction when observability is enabled).
    pub fn attach_metrics(&mut self, metrics: &srb_obs::MetricsRegistry) {
        self.cache_obs = Some((
            metrics.counter("query.scope_cache_hits", ""),
            metrics.counter("query.scope_cache_misses", ""),
        ));
    }

    fn compute_subtree(&self, root: CollectionId) -> HashSet<CollectionId> {
        let g = self.inner.read();
        let mut set = HashSet::new();
        set.insert(root);
        let mut stack = vec![root];
        while let Some(cur) = stack.pop() {
            if let Some(kids) = g.children.get(&cur) {
                for &k in kids.values() {
                    if set.insert(k) {
                        stack.push(k);
                    }
                }
            }
        }
        // Follow collection links inside the scope so linked
        // sub-collections are searched through their targets too.
        let linked: Vec<CollectionId> = set
            .iter()
            .filter_map(|c| g.nodes.get(c).and_then(|n| n.link_target))
            .collect();
        for t in linked {
            if set.insert(t) {
                let mut stack = vec![t];
                while let Some(cur) = stack.pop() {
                    if let Some(kids) = g.children.get(&cur) {
                        for &k in kids.values() {
                            if set.insert(k) {
                                stack.push(k);
                            }
                        }
                    }
                }
            }
        }
        set
    }

    /// Current mutation generation (cache diagnostics and tests).
    pub fn generation(&self) -> Generation {
        self.generation.current()
    }

    /// Raise the mutation counter to at least `raw` (snapshot restore /
    /// WAL recovery — recovered cursors must see the stamps they embed).
    pub fn restore_generation(&self, raw: u64) {
        self.generation.ensure_at_least(raw);
    }

    /// Wire this table to the catalog's WAL.
    pub(crate) fn attach_wal(&self, wal: Arc<crate::wal::Wal>) {
        self.wal.attach(wal);
    }

    /// A read guard over the tree for batch path materialization: one lock
    /// acquisition serves any number of [`CollPathBatch::path_of`] lookups,
    /// and the returned paths are borrowed, not cloned.
    pub fn path_batch(&self) -> CollPathBatch<'_> {
        CollPathBatch {
            g: self.inner.read(),
        }
    }

    /// Update the ACL.
    pub fn set_acl(&self, id: CollectionId, acl: AccessMatrix) -> SrbResult<()> {
        let mut g = self.inner.write();
        match g.nodes.get_mut(&id) {
            Some(c) => {
                c.acl = acl;
                // No generation bump: ACL changes don't reshape the tree,
                // so outstanding cursors stay valid (gen 0 on the record).
                let row = &*c;
                self.wal
                    .log(0, || WalOp::CollectionPut { row: row.clone() });
                Ok(())
            }
            None => Err(SrbError::NotFound(format!("collection {id}"))),
        }
    }

    /// Replace the structural metadata requirements.
    pub fn set_requirements(&self, id: CollectionId, reqs: Vec<AttrRequirement>) -> SrbResult<()> {
        let mut g = self.inner.write();
        match g.nodes.get_mut(&id) {
            Some(c) => {
                c.requirements = reqs;
                let row = &*c;
                self.wal
                    .log(0, || WalOp::CollectionPut { row: row.clone() });
                Ok(())
            }
            None => Err(SrbError::NotFound(format!("collection {id}"))),
        }
    }

    /// Move (or rename) a collection subtree under a new parent. All
    /// descendant paths are rebased; dataset paths are derived from their
    /// collection, so they follow automatically.
    pub fn move_collection(
        &self,
        id: CollectionId,
        new_parent: CollectionId,
        new_name: &str,
    ) -> SrbResult<()> {
        let mut g = self.inner.write();
        if id == self.root_locked(&g) {
            return Err(SrbError::Unsupported("cannot move the root".into()));
        }
        let old_path = g
            .nodes
            .get(&id)
            .ok_or_else(|| SrbError::NotFound(format!("collection {id}")))?
            .path
            .clone();
        let parent_path = g
            .nodes
            .get(&new_parent)
            .ok_or_else(|| SrbError::NotFound(format!("collection {new_parent}")))?
            .path
            .clone();
        if parent_path.starts_with(&old_path) {
            return Err(SrbError::Invalid(
                "cannot move a collection into its own subtree".into(),
            ));
        }
        let new_path = parent_path.child(new_name)?;
        if g.by_path.contains_key(&new_path.to_string()) {
            return Err(SrbError::AlreadyExists(format!("collection '{new_path}'")));
        }
        // Unhook from the old parent. The root cannot reach here (its path
        // prefixes every other, tripping the own-subtree check above), so
        // the defensive error is unreachable in practice.
        let Some(old_parent) = g.nodes.get(&id).and_then(|n| n.parent) else {
            return Err(SrbError::Invalid("cannot move the root collection".into()));
        };
        if let Some(kids) = g.children.get_mut(&old_parent) {
            if let Some(old_name) = old_path.name() {
                kids.remove(old_name);
            }
        }
        g.children
            .entry(new_parent)
            .or_default()
            .insert(new_name.to_string(), id);
        // Rebase this node and every descendant.
        let mut affected = vec![id];
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if let Some(kids) = g.children.get(&cur) {
                for &k in kids.values() {
                    affected.push(k);
                    stack.push(k);
                }
            }
        }
        for cid in &affected {
            let node_path = g.nodes[cid].path.clone();
            let rebased = node_path.rebase(&old_path, &new_path)?;
            g.by_path.remove(&node_path.to_string());
            g.by_path.insert(rebased.to_string(), *cid);
            if let Some(node) = g.nodes.get_mut(cid) {
                node.path = rebased;
            }
        }
        if let Some(node) = g.nodes.get_mut(&id) {
            node.parent = Some(new_parent);
        }
        // One bump covers the whole rebase; every touched row is logged
        // with the same post-move stamp.
        let gen = self.generation.bump_get().raw();
        for cid in &affected {
            if let Some(node) = g.nodes.get(cid) {
                self.wal
                    .log(gen, || WalOp::CollectionPut { row: node.clone() });
            }
        }
        Ok(())
    }

    fn root_locked(&self, g: &Inner) -> CollectionId {
        match g.by_path.get("/") {
            Some(id) => *id,
            // See root(): "/" is present for the table's lifetime.
            None => unreachable!("root exists for the table's lifetime"),
        }
    }

    /// Delete a collection. It must have no child collections (the catalog
    /// facade checks for datasets).
    pub fn delete(&self, id: CollectionId) -> SrbResult<()> {
        let mut g = self.inner.write();
        if id == self.root_locked(&g) {
            return Err(SrbError::Unsupported("cannot delete the root".into()));
        }
        if !g.children.get(&id).map(|c| c.is_empty()).unwrap_or(true) {
            return Err(SrbError::Invalid(format!(
                "collection {id} has sub-collections"
            )));
        }
        let node = g
            .nodes
            .remove(&id)
            .ok_or_else(|| SrbError::NotFound(format!("collection {id}")))?;
        g.by_path.remove(&node.path.to_string());
        g.children.remove(&id);
        if let Some(p) = node.parent {
            if let Some(kids) = g.children.get_mut(&p) {
                if let Some(name) = node.path.name() {
                    kids.remove(name);
                }
            }
        }
        let gen = self.generation.bump_get().raw();
        self.wal.log(gen, || WalOp::CollectionDelete { id });
        Ok(())
    }

    /// Every collection row, sorted by id (snapshots).
    pub fn dump(&self) -> Vec<Collection> {
        let g = self.inner.read();
        let mut v: Vec<Collection> = g.nodes.values().cloned().collect();
        v.sort_by_key(|c| c.id);
        v
    }

    /// Rebuild the tree (path index + child lists) from snapshot rows.
    pub fn restore(rows: Vec<Collection>) -> Self {
        let t = CollectionTable::default();
        {
            let mut g = t.inner.write();
            for c in &rows {
                g.by_path.insert(c.path.to_string(), c.id);
                g.children.entry(c.id).or_default();
                if let (Some(p), Some(name)) = (c.parent, c.path.name()) {
                    g.children
                        .entry(p)
                        .or_default()
                        .insert(name.to_string(), c.id);
                }
            }
            for c in rows {
                g.nodes.insert(c.id, c);
            }
        }
        t
    }

    /// Total number of collections.
    pub fn count(&self) -> usize {
        self.inner.read().nodes.len()
    }
}

/// Batch path lookups under one read guard; see
/// [`CollectionTable::path_batch`].
pub struct CollPathBatch<'a> {
    g: RwLockReadGuard<'a, Inner>,
}

impl CollPathBatch<'_> {
    /// The logical path of a collection, borrowed from the table.
    pub fn path_of(&self, id: CollectionId) -> Option<&LogicalPath> {
        self.g.nodes.get(&id).map(|n| &n.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_types::Permission;

    fn table() -> (CollectionTable, IdGen) {
        let ids = IdGen::new();
        let t = CollectionTable::new(&ids, UserId(1), Timestamp(0));
        (t, ids)
    }

    fn path(s: &str) -> LogicalPath {
        LogicalPath::parse(s).unwrap()
    }

    #[test]
    fn root_exists_and_resolves() {
        let (t, _) = table();
        let root = t.root();
        assert_eq!(t.resolve(&LogicalPath::root()).unwrap(), root);
        assert!(t.get(root).unwrap().path.is_root());
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn create_nested_collections() {
        let (t, ids) = table();
        let root = t.root();
        let cultures = t
            .create(&ids, root, "Cultures", UserId(2), Timestamp(0))
            .unwrap();
        let avian = t
            .create(&ids, cultures, "Avian Culture", UserId(2), Timestamp(0))
            .unwrap();
        assert_eq!(t.resolve(&path("/Cultures/Avian Culture")).unwrap(), avian);
        assert_eq!(t.get(avian).unwrap().parent, Some(cultures));
        assert_eq!(t.children(root).len(), 1);
        assert_eq!(t.descendants(root), vec![cultures, avian]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let (t, ids) = table();
        let root = t.root();
        t.create(&ids, root, "x", UserId(1), Timestamp(0)).unwrap();
        assert!(t.create(&ids, root, "x", UserId(1), Timestamp(0)).is_err());
    }

    #[test]
    fn move_rebases_descendants() {
        let (t, ids) = table();
        let root = t.root();
        let a = t.create(&ids, root, "a", UserId(1), Timestamp(0)).unwrap();
        let b = t.create(&ids, a, "b", UserId(1), Timestamp(0)).unwrap();
        let dst = t
            .create(&ids, root, "dst", UserId(1), Timestamp(0))
            .unwrap();
        t.move_collection(a, dst, "a2").unwrap();
        assert_eq!(t.resolve(&path("/dst/a2")).unwrap(), a);
        assert_eq!(t.resolve(&path("/dst/a2/b")).unwrap(), b);
        assert!(t.resolve(&path("/a")).is_err());
        assert_eq!(t.get(b).unwrap().path, path("/dst/a2/b"));
    }

    #[test]
    fn cannot_move_into_own_subtree() {
        let (t, ids) = table();
        let root = t.root();
        let a = t.create(&ids, root, "a", UserId(1), Timestamp(0)).unwrap();
        let b = t.create(&ids, a, "b", UserId(1), Timestamp(0)).unwrap();
        assert!(t.move_collection(a, b, "a").is_err());
        assert!(t.move_collection(root, a, "r").is_err());
    }

    #[test]
    fn delete_requires_empty() {
        let (t, ids) = table();
        let root = t.root();
        let a = t.create(&ids, root, "a", UserId(1), Timestamp(0)).unwrap();
        let b = t.create(&ids, a, "b", UserId(1), Timestamp(0)).unwrap();
        assert!(t.delete(a).is_err());
        t.delete(b).unwrap();
        t.delete(a).unwrap();
        assert!(t.resolve(&path("/a")).is_err());
        assert!(t.delete(root).is_err());
    }

    #[test]
    fn linked_collections_resolve_to_target() {
        let (t, ids) = table();
        let root = t.root();
        let real = t
            .create(&ids, root, "real", UserId(1), Timestamp(0))
            .unwrap();
        let lnk = t
            .link(&ids, root, "alias", real, UserId(1), Timestamp(0))
            .unwrap();
        assert_eq!(t.resolve(&path("/alias")).unwrap(), real);
        assert_eq!(t.resolve_nofollow(&path("/alias")).unwrap(), lnk);
        // Chaining collapses: a link to a link points at the original.
        let lnk2 = t
            .link(&ids, root, "alias2", lnk, UserId(1), Timestamp(0))
            .unwrap();
        assert_eq!(t.get(lnk2).unwrap().link_target, Some(real));
        // No children under a link node.
        assert!(t.create(&ids, lnk, "x", UserId(1), Timestamp(0)).is_err());
    }

    #[test]
    fn children_page_walks_name_order_across_moves() {
        let (t, ids) = table();
        let root = t.root();
        for name in ["delta", "alpha", "echo", "bravo", "charlie"] {
            t.create(&ids, root, name, UserId(1), Timestamp(0)).unwrap();
        }
        let mut walked = Vec::new();
        let mut after: Option<String> = None;
        loop {
            let (page, more) = t.children_page(root, after.as_deref(), 2);
            walked.extend(page.iter().filter_map(|c| c.path.name().map(String::from)));
            if !more {
                break;
            }
            after = page.last().and_then(|c| c.path.name().map(String::from));
        }
        assert_eq!(walked, vec!["alpha", "bravo", "charlie", "delta", "echo"]);
        // Moving a child away updates the ordered index under its old name.
        let delta = t.resolve(&path("/delta")).unwrap();
        let alpha = t.resolve(&path("/alpha")).unwrap();
        t.move_collection(delta, alpha, "renamed").unwrap();
        let names: Vec<String> = t
            .children(root)
            .into_iter()
            .filter_map(|c| c.path.name().map(String::from))
            .collect();
        assert_eq!(names, vec!["alpha", "bravo", "charlie", "echo"]);
        let (page, more) = t.children_page(alpha, None, 10);
        assert!(!more);
        assert_eq!(page.len(), 1);
        assert_eq!(page[0].path, path("/alpha/renamed"));
        // Unknown parents page as empty, not as an error.
        assert_eq!(t.children_page(CollectionId(999), None, 5).0.len(), 0);
    }

    #[test]
    fn acl_and_requirements_update() {
        let (t, ids) = table();
        let root = t.root();
        let c = t.create(&ids, root, "c", UserId(1), Timestamp(0)).unwrap();
        let mut acl = AccessMatrix::owned_by(UserId(1));
        acl.public = Permission::Read;
        t.set_acl(c, acl.clone()).unwrap();
        assert_eq!(t.get(c).unwrap().acl, acl);
        let reqs = vec![
            AttrRequirement::mandatory("species", "taxon name"),
            AttrRequirement::vocabulary("medium", &["image", "movie", "text"], "media type"),
        ];
        t.set_requirements(c, reqs.clone()).unwrap();
        let got = t.get(c).unwrap().requirements;
        assert_eq!(got, reqs);
        assert_eq!(got[1].default_value(), Some("image"));
        assert!(got[0].mandatory);
    }
}
