//! The collection hierarchy.
//!
//! Collections are the nodes of the logical name space: "hierarchies of
//! collections" with per-collection ACLs, descriptive metadata, and
//! *structural metadata* — attribute requirements the curator imposes on
//! everything ingested into the collection (paper §5: defaults, restricted
//! vocabularies shown as drop-down lists, and mandatory attributes).

use crate::pages::RowPages;
use crate::table::{Derived, Table};
use crate::wal::WalHook;
use serde::{Deserialize, Serialize};
use srb_obs::metric;
use srb_types::sync::{LockRank, RwLock, RwLockReadGuard};
use srb_types::{
    AccessMatrix, CollectionId, GenCounter, Generation, IdGen, IdMap, IdSet, LogicalPath, SrbError,
    SrbResult, Timestamp, UserId,
};
use std::collections::{BTreeMap, HashMap};
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
type CachedScope = (Generation, Arc<IdSet<CollectionId>>);

/// The collection tree.
#[derive(Debug)]
pub struct CollectionTable {
    pub(crate) rows: RwLock<Table<Collection>>,
    /// Fixed for the table's lifetime: `delete` and `move_collection`
    /// refuse the root.
    root: CollectionId,
    /// Bumped by every structural mutation (create/link/move/delete); the
    /// subtree cache below stamps its entries with this counter.
    generation: GenCounter,
    /// Scope-root → cached subtree. Entries whose stamp trails
    /// [`Self::generation`] are recomputed on next use; queries sharing a
    /// scope between mutations share one `Arc`'d set.
    scope_cache: RwLock<IdMap<CollectionId, CachedScope>>,
    /// `query.scope_cache_hits` / `query.scope_cache_misses`, attached by
    /// the grid when observability is on.
    cache_obs: Option<(srb_obs::Counter, srb_obs::Counter)>,
}

/// What the collection table derives from its rows.
#[derive(Debug, Default)]
pub(crate) struct Tree {
    by_path: HashMap<String, CollectionId>,
    /// Per-parent children keyed by child name — already in listing order,
    /// so `children`/`children_page` are bounded range reads, not sorts.
    /// Only a node with children has an entry: a new node, a link and a
    /// node whose last child went have none.
    children: IdMap<CollectionId, BTreeMap<String, CollectionId>>,
    spare: Spare,
}

/// What the last unindexed row left behind: the keys it was found under,
/// its parent's child map if that emptied, and the buffer its path was
/// looked up in. An in-place update that keeps the row's path puts them
/// back, so it allocates nothing.
#[derive(Debug, Default)]
struct Spare {
    path: Option<String>,
    child: Option<(CollectionId, String)>,
    kids: Option<BTreeMap<String, CollectionId>>,
    probe: String,
}

impl Spare {
    /// `path`'s text in the probe buffer.
    fn probe(&mut self, path: &LogicalPath) -> &str {
        use std::fmt::Write;
        self.probe.clear();
        // Writing into a String cannot fail.
        let _ = write!(self.probe, "{path}");
        &self.probe
    }
}

impl PartialEq for Tree {
    fn eq(&self, other: &Tree) -> bool {
        self.by_path == other.by_path && self.children == other.children
    }
}

impl Derived<Collection> for Tree {
    fn index(&mut self, c: &Collection) {
        let spare = self.spare.path.take();
        let path = match spare {
            Some(key) if key == self.spare.probe(&c.path) => key,
            _ => c.path.to_string(),
        };
        self.by_path.insert(path, c.id);
        if let (Some(p), Some(name)) = (c.parent, c.path.name()) {
            let key = match self.spare.child.take() {
                Some((parent, key)) if parent == p && key == name => key,
                _ => name.to_string(),
            };
            let spare = &mut self.spare.kids;
            let kids = self
                .children
                .entry(p)
                .or_insert_with(|| spare.take().unwrap_or_default());
            kids.insert(key, c.id);
        }
    }

    fn unindex(&mut self, c: &Collection) {
        let probe = self.spare.probe(&c.path);
        if let Some((key, _)) = self.by_path.remove_entry(probe) {
            self.spare.path = Some(key);
        }
        if let (Some(p), Some(name)) = (c.parent, c.path.name()) {
            if let Some(kids) = self.children.get_mut(&p) {
                if let Some((key, _)) = kids.remove_entry(name) {
                    self.spare.child = Some((p, key));
                }
                if kids.is_empty() {
                    self.spare.kids = self.children.remove(&p);
                }
            }
        }
    }
}

impl Tree {
    /// Every collection below `id`, link nodes not followed, in the order
    /// a stack walk meets them: a node's children together and in name
    /// order, the last child's subtree walked first.
    fn below(&self, id: CollectionId) -> Vec<CollectionId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if let Some(kids) = self.children.get(&cur) {
                for &k in kids.values() {
                    out.push(k);
                    stack.push(k);
                }
            }
        }
        out
    }
}

fn missing(id: CollectionId) -> SrbError {
    SrbError::NotFound(format!("collection {id}"))
}

impl CollectionTable {
    /// New table containing only the root collection owned by `admin`.
    pub fn new(ids: &IdGen, admin: UserId, now: Timestamp) -> Self {
        CollectionTable::with_root(ids, admin, now, &WalHook::default())
    }

    /// [`CollectionTable::new`], logging through `wal`.
    pub(crate) fn with_root(ids: &IdGen, admin: UserId, now: Timestamp, wal: &WalHook) -> Self {
        let mut acl = AccessMatrix::owned_by(admin);
        acl.public = srb_types::Permission::Discover;
        let root = Collection {
            id: ids.next(),
            parent: None,
            path: LogicalPath::root(),
            owner: admin,
            acl,
            requirements: Vec::new(),
            link_target: None,
            created: now,
        };
        match CollectionTable::restore(RowPages::from_iter([root]), wal) {
            Ok(t) => t,
            Err(_) => unreachable!("the rows hold the root"),
        }
    }

    /// The tree over image rows, which must hold the root; nothing cached.
    pub(crate) fn restore(rows: RowPages<Collection>, wal: &WalHook) -> SrbResult<Self> {
        let rows = Table::restore(rows, wal);
        let Some(&root) = rows.derived().by_path.get("/") else {
            return Err(SrbError::Invalid("snapshot has no root collection".into()));
        };
        Ok(CollectionTable {
            rows: RwLock::new(LockRank::McatTable, "mcat.collections", rows),
            root,
            generation: GenCounter::new(),
            scope_cache: RwLock::new(
                LockRank::McatTable,
                "mcat.collections.scope_cache",
                IdMap::default(),
            ),
            cache_obs: None,
        })
    }

    /// The root collection id.
    pub fn root(&self) -> CollectionId {
        self.root
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
        self.add_child(ids, parent, name, owner, now, None)
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
        self.add_child(ids, parent, name, owner, now, Some(target))
    }

    /// The one builder of a new row: a sub-collection of `parent`, or with
    /// a `target` a link to it (or to what it links to). Only a link may
    /// sit under a linked collection.
    fn add_child(
        &self,
        ids: &IdGen,
        parent: CollectionId,
        name: &str,
        owner: UserId,
        now: Timestamp,
        target: Option<CollectionId>,
    ) -> SrbResult<CollectionId> {
        let mut g = self.rows.write();
        let link_target = match target {
            Some(t) => Some(g.get(t).ok_or_else(|| missing(t))?.link_target.unwrap_or(t)),
            None => None,
        };
        let parent_node = g.get(parent).ok_or_else(|| missing(parent))?;
        if target.is_none() && parent_node.link_target.is_some() {
            return Err(SrbError::Unsupported(
                "cannot create children under a linked collection".into(),
            ));
        }
        let path = parent_node.path.child(name)?;
        if g.derived().by_path.contains_key(&path.to_string()) {
            return Err(SrbError::AlreadyExists(format!("collection '{path}'")));
        }
        let id: CollectionId = ids.next();
        let row = Collection {
            id,
            parent: Some(parent),
            path,
            owner,
            acl: AccessMatrix::owned_by(owner),
            requirements: Vec::new(),
            link_target,
            created: now,
        };
        g.put(self.generation.bump_get().raw(), row);
        Ok(id)
    }

    /// Get a collection by id.
    pub fn get(&self, id: CollectionId) -> SrbResult<Collection> {
        self.rows.read().get(id).cloned().ok_or_else(|| missing(id))
    }

    /// Resolve a path to a collection id, following collection links.
    pub fn resolve(&self, path: &LogicalPath) -> SrbResult<CollectionId> {
        let g = self.rows.read();
        let id = Self::id_at(&g, path)?;
        Ok(g.get(id).and_then(|n| n.link_target).unwrap_or(id))
    }

    /// Resolve without following a final link (to operate on the link
    /// object itself, e.g. unlink).
    pub fn resolve_nofollow(&self, path: &LogicalPath) -> SrbResult<CollectionId> {
        Self::id_at(&self.rows.read(), path)
    }

    fn id_at(g: &Table<Collection>, path: &LogicalPath) -> SrbResult<CollectionId> {
        let id = g.derived().by_path.get(&path.to_string()).copied();
        id.ok_or_else(|| SrbError::NotFound(format!("collection '{path}'")))
    }

    /// Direct children, sorted by name (the child index's native order).
    pub fn children(&self, id: CollectionId) -> Vec<Collection> {
        let g = self.rows.read();
        let kids = g
            .derived()
            .children
            .get(&id)
            .into_iter()
            .flat_map(|c| c.values());
        kids.filter_map(|&i| g.get(i)).cloned().collect()
    }

    /// One page of direct children in name order, resuming strictly after
    /// `after`. Returns up to `limit` rows plus whether more remain —
    /// O(page) however deep the cursor is.
    pub(crate) fn children_page(
        &self,
        id: CollectionId,
        after: Option<&str>,
        limit: usize,
    ) -> (Vec<Collection>, bool) {
        let g = self.rows.read();
        let Some(kids) = g.derived().children.get(&id) else {
            return (Vec::new(), false);
        };
        let start = match after {
            Some(name) => Bound::Excluded(name.to_string()),
            None => Bound::Unbounded,
        };
        let mut iter = kids
            .range((start, Bound::Unbounded))
            .filter_map(|(_, &i)| g.get(i));
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
        self.rows.read().derived().below(id)
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
    pub(crate) fn subtree_set(&self, root: CollectionId) -> Arc<IdSet<CollectionId>> {
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
    pub(crate) fn attach_metrics(&mut self, metrics: &srb_obs::MetricsRegistry) {
        self.cache_obs = Some((
            metrics.counter(metric!("query.scope_cache_hits"), ""),
            metrics.counter(metric!("query.scope_cache_misses"), ""),
        ));
    }

    fn compute_subtree(&self, root: CollectionId) -> IdSet<CollectionId> {
        let g = self.rows.read();
        let tree = g.derived();
        let mut set: IdSet<CollectionId> = std::iter::once(root).chain(tree.below(root)).collect();
        // Follow collection links inside the scope so linked
        // sub-collections are searched through their targets too.
        let linked: Vec<CollectionId> = set
            .iter()
            .filter_map(|&c| g.get(c).and_then(|n| n.link_target))
            .collect();
        for t in linked {
            if set.insert(t) {
                set.extend(tree.below(t));
            }
        }
        set
    }

    /// Current mutation generation (cache diagnostics and tests).
    pub(crate) fn generation(&self) -> Generation {
        self.generation.current()
    }

    /// Raise the mutation counter to at least `raw` (snapshot restore /
    /// WAL recovery — recovered cursors must see the stamps they embed).
    pub(crate) fn restore_generation(&self, raw: u64) {
        self.generation.ensure_at_least(raw);
    }

    /// A read guard over the tree for batch reads: one lock acquisition
    /// serves any number of [`CollPathBatch::path_of`] and
    /// [`CollPathBatch::get_ref`] lookups, and what they return is
    /// borrowed, not cloned.
    pub(crate) fn path_batch(&self) -> CollPathBatch<'_> {
        CollPathBatch {
            g: self.rows.read(),
        }
    }

    /// Update the ACL. No generation bump: ACL changes don't reshape the
    /// tree, so outstanding cursors stay valid (gen 0 on the record).
    pub fn set_acl(&self, id: CollectionId, acl: AccessMatrix) -> SrbResult<()> {
        let mut g = self.rows.write();
        g.update(id, 0, |c| c.acl = acl).ok_or_else(|| missing(id))
    }

    /// Replace the structural metadata requirements.
    pub fn set_requirements(&self, id: CollectionId, reqs: Vec<AttrRequirement>) -> SrbResult<()> {
        let mut g = self.rows.write();
        g.update(id, 0, |c| c.requirements = reqs)
            .ok_or_else(|| missing(id))
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
        let mut g = self.rows.write();
        if id == self.root {
            return Err(SrbError::Unsupported("cannot move the root".into()));
        }
        let old_path = &g.get(id).ok_or_else(|| missing(id))?.path;
        let parent = g.get(new_parent).ok_or_else(|| missing(new_parent))?;
        if parent.path.starts_with(old_path) {
            return Err(SrbError::Invalid(
                "cannot move a collection into its own subtree".into(),
            ));
        }
        let new_path = parent.path.child(new_name)?;
        if g.derived().by_path.contains_key(&new_path.to_string()) {
            return Err(SrbError::AlreadyExists(format!("collection '{new_path}'")));
        }
        // The node and every descendant, rebased before any row changes.
        let mut rebased = Vec::new();
        for c in std::iter::once(id).chain(g.derived().below(id)) {
            if let Some(node) = g.get(c) {
                rebased.push((c, node.path.rebase(old_path, &new_path)?));
            }
        }
        // One bump covers the whole rebase; every touched row is logged
        // with the same post-move stamp.
        let gen = self.generation.bump_get().raw();
        for (c, path) in rebased {
            g.update(c, gen, |node| {
                node.path = path;
                if c == id {
                    node.parent = Some(new_parent);
                }
            });
        }
        Ok(())
    }

    /// Delete a collection. It must have no child collections (the catalog
    /// facade checks for datasets).
    pub fn delete(&self, id: CollectionId) -> SrbResult<()> {
        let mut g = self.rows.write();
        if id == self.root {
            return Err(SrbError::Unsupported("cannot delete the root".into()));
        }
        if g.derived().children.contains_key(&id) {
            return Err(SrbError::Invalid(format!(
                "collection {id} has sub-collections"
            )));
        }
        if !g.contains(id) {
            return Err(missing(id));
        }
        g.remove(id, self.generation.bump_get().raw());
        Ok(())
    }

    /// Total number of collections.
    pub fn count(&self) -> usize {
        self.rows.read().len()
    }
}

/// Batch path lookups under one read guard; see
/// [`CollectionTable::path_batch`].
pub(crate) struct CollPathBatch<'a> {
    g: RwLockReadGuard<'a, Table<Collection>>,
}

impl CollPathBatch<'_> {
    /// The logical path of a collection, borrowed from the table.
    pub fn path_of(&self, id: CollectionId) -> Option<&LogicalPath> {
        self.get_ref(id).map(|n| &n.path)
    }

    /// The collection row, borrowed from the table.
    pub fn get_ref(&self, id: CollectionId) -> Option<&Collection> {
        self.g.get(id)
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

    /// A move logs every row of the subtree once — the node, then its
    /// descendants depth first, each node's children in name order — all
    /// under the one stamp the move bumped the generation to.
    #[test]
    fn move_collection_logs_the_subtree_once_under_one_stamp() {
        use crate::wal::{WalOp, WalRecord};
        use crate::{Mcat, WalConfig};
        use srb_storage::LogDevice;
        let m = Mcat::new(srb_types::SimClock::new(), "pw");
        let device = Arc::new(LogDevice::new());
        let config = WalConfig {
            checkpoint_interval_ns: 0,
        };
        m.enable_wal(device.clone(), config, None).unwrap();
        let (t, ids, now) = (&m.collections, &m.ids, Timestamp(0));
        let mk = |parent, name| t.create(ids, parent, name, UserId(1), now).unwrap();
        let a = mk(t.root(), "a");
        let (b, e) = (mk(a, "b"), mk(a, "e"));
        let c = mk(b, "c");
        let d = mk(c, "d");
        let dst = mk(t.root(), "dst");
        m.commit();
        let before = device.read_back().unwrap().1.len();

        t.move_collection(a, dst, "a2").unwrap();
        m.commit();
        let (_, tail, _) = device.read_back().unwrap();
        let mut logged = Vec::new();
        for (_, line) in &tail[before..] {
            let record: WalRecord = serde_json::from_str(line).unwrap();
            match record.op {
                WalOp::CollectionPut { row } => logged.push((row.id, row.path, record.gen)),
                WalOp::Commit { .. } => {}
                other => panic!("a move logs no {other:?}"),
            }
        }
        let stamp = t.generation().raw();
        let expected = [
            (a, "/dst/a2"),
            (b, "/dst/a2/b"),
            (e, "/dst/a2/e"),
            (c, "/dst/a2/b/c"),
            (d, "/dst/a2/b/c/d"),
        ];
        let expected: Vec<_> = expected
            .iter()
            .map(|&(id, p)| (id, path(p), stamp))
            .collect();
        assert_eq!(logged, expected);
        assert_eq!(t.get(a).unwrap().parent, Some(dst));
    }
}
