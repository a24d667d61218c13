//! Catalog snapshots — serialize the entire MCAT to JSON and restore it.
//!
//! The paper's persistent-archive capability migrates *data* onto new
//! media (experiment E9); preserving the *catalog* itself — name space,
//! ACLs, metadata, annotations, audit trail — is the complementary half a
//! production deployment needs across restarts and technology generations.
//! A snapshot captures every table; restoring rebuilds all derived indexes
//! (path maps, child lists, attribute value indexes) from the rows.
//!
//! The image has one text form and one writer: `ImageWriter` — behind
//! `snapshot_json`, every WAL checkpoint and `Grid::save_state` — writes
//! it straight from the live tables, one table read guard at a time,
//! rows borrowed in id order: no second catalog, no tree.
//! [`CatalogSnapshot`] is only ever read: restore and recovery parse the
//! text into it and rebuild the tables from its rows.
//!
//! The writer lays each table's rows out in id pages of
//! [`IMAGE_PAGE_IDS`] ids. Rows are written in id order, so a page's rows
//! sit together. A checkpoint writes its image as parts — the text
//! between pages, then each page as a part of its own — and shares a
//! page's part with the last image the device accepted unless a redo
//! record touched one of its rows since (the WAL marks the page as it
//! appends the record; see `crate::wal`): a clean page costs one refcount.
//! A plain image (`write_image`) is one `String` and renders every page;
//! the bytes are the same either way.

use crate::annotation::{Annotation, AnnotationTable};
use crate::audit::{AuditLog, AuditRow};
use crate::catalog::Mcat;
use crate::collection::{Collection, CollectionTable};
use crate::container::{ContainerRecord, ContainerTable};
use crate::dataset::{Dataset, DatasetTable};
use crate::metadata::{MetaRow, MetaStore, Subject};
use crate::resource::{LogicalResource, Resource, ResourceTable};
use crate::user::{Group, User, UserTable};
use crate::wal::Wal;
use serde::{Deserialize, Serialize};
use srb_storage::Image;
use srb_types::{DatasetId, IdGen, SimClock, SrbError, SrbResult, UserId};
use std::collections::HashMap;
use std::sync::Arc;

/// Generation stamps of the three cursor-relevant tables at snapshot
/// time, in the order continuation tokens embed them. Persisting them
/// lets a recovered catalog either resume outstanding cursors (stamps
/// unchanged) or cleanly invalidate them (stamps moved on) instead of
/// silently accepting stale tokens against reset counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotGenerations {
    /// [`Mcat::collections`](crate::Mcat::collections) mutation counter.
    pub collections: u64,
    /// [`DatasetTable`] mutation counter.
    pub datasets: u64,
    /// [`MetaStore`] mutation counter.
    pub metadata: u64,
}

/// A complete, self-contained image of a catalog, as read back from the
/// text [`Mcat::write_image`] writes.
#[derive(Debug, Deserialize)]
pub struct CatalogSnapshot {
    /// Snapshot format version.
    pub version: u32,
    /// Highest id allocated when the snapshot was taken.
    pub next_id_floor: u64,
    /// The bootstrap administrator.
    pub admin: UserId,
    /// Users.
    pub users: Vec<User>,
    /// Groups.
    pub groups: Vec<Group>,
    /// Physical resources.
    pub resources: Vec<Resource>,
    /// Logical resources.
    pub logical_resources: Vec<LogicalResource>,
    /// Collections (including the root).
    pub collections: Vec<Collection>,
    /// Datasets with their replicas.
    pub datasets: Vec<Dataset>,
    /// Containers.
    pub containers: Vec<ContainerRecord>,
    /// Metadata triplets.
    pub metadata: Vec<MetaRow>,
    /// File-based metadata associations.
    pub meta_files: Vec<(Subject, Vec<DatasetId>)>,
    /// Annotations.
    pub annotations: Vec<Annotation>,
    /// The audit trail.
    pub audit: Vec<AuditRow>,
    /// Cursor-relevant generation stamps (absent in pre-WAL snapshots,
    /// which restore with counters at their rebuilt values).
    pub generations: Option<SnapshotGenerations>,
}

/// Current snapshot format version.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

/// A table's rows in id order, borrowed: the order the image writes and
/// the tables' listings return. Every table map is keyed by the row id.
pub(crate) fn by_id<K: Ord, V, S>(rows: &HashMap<K, V, S>) -> Vec<&V> {
    let mut v: Vec<(&K, &V)> = rows.iter().collect();
    v.sort_unstable_by(|a, b| a.0.cmp(b.0));
    v.into_iter().map(|(_, row)| row).collect()
}

/// Ids per image page: the unit a checkpoint shares or renders.
pub const IMAGE_PAGE_IDS: u64 = 1024;

/// The image's row fields, in the order the image writes them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Field {
    Users,
    Groups,
    Resources,
    LogicalResources,
    Collections,
    Datasets,
    Containers,
    Metadata,
    MetaFiles,
    Annotations,
    Audit,
}

/// How many [`Field`]s the image has.
pub(crate) const FIELDS: usize = 11;

impl Field {
    fn name(self) -> &'static str {
        match self {
            Field::Users => "users",
            Field::Groups => "groups",
            Field::Resources => "resources",
            Field::LogicalResources => "logical_resources",
            Field::Collections => "collections",
            Field::Datasets => "datasets",
            Field::Containers => "containers",
            Field::Metadata => "metadata",
            Field::MetaFiles => "meta_files",
            Field::Annotations => "annotations",
            Field::Audit => "audit",
        }
    }
}

/// A set of pages of one field; `all` stands for every page.
#[derive(Debug, Default)]
pub(crate) struct PageSet {
    all: bool,
    words: Vec<u64>,
}

impl PageSet {
    /// Add `page`, or every page for `None`.
    pub(crate) fn insert(&mut self, page: Option<u64>) {
        let Some(page) = page else {
            self.all = true;
            return;
        };
        let word = (page / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (page % 64);
    }

    fn contains(&self, page: u64) -> bool {
        self.all
            || self
                .words
                .get((page / 64) as usize)
                .is_some_and(|w| w & (1 << (page % 64)) != 0)
    }

    /// Add every page of `other`.
    pub(crate) fn union(&mut self, other: &PageSet) {
        self.all |= other.all;
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// Per field, the pages a redo record touched.
pub(crate) type PageMarks = [PageSet; FIELDS];

/// One page of an image the device accepted: its number and its part.
type PagePart = (u64, Arc<str>);

/// The page parts of an image the device accepted.
#[derive(Debug)]
pub(crate) struct ImageIndex {
    /// The accepted image, shared with the device.
    image: Arc<Image>,
    /// Per field, every non-empty page, page-ascending.
    pages: [Vec<PagePart>; FIELDS],
}

impl ImageIndex {
    /// The accepted image this index describes.
    pub(crate) fn image(&self) -> &Arc<Image> {
        &self.image
    }

    fn page(&self, field: Field, page: u64) -> Option<&Arc<str>> {
        let pages = &self.pages[field as usize];
        let at = pages.binary_search_by_key(&page, |&(p, _)| p).ok()?;
        Some(&pages[at].1)
    }
}

/// A checkpoint's side of an [`ImageWriter`]: the image it may share
/// pages with, the marks it takes from the WAL, and the parts it wrote.
pub(crate) struct CheckpointPass<'a> {
    wal: &'a Wal,
    prev: Option<&'a ImageIndex>,
    /// Marks taken from the WAL, per field; the WAL puts them back if the
    /// device refuses the image.
    pub(crate) taken: PageMarks,
    /// The image so far: text between pages and pages, alternating.
    parts: Vec<Arc<str>>,
    pages: [Vec<PagePart>; FIELDS],
    /// Where a touched page is rendered before it is frozen into a part.
    scratch: String,
    /// Pages shared with `prev`.
    pub(crate) copied: u64,
    /// Pages rendered from the rows.
    pub(crate) rendered: u64,
}

impl<'a> CheckpointPass<'a> {
    /// A pass sharing pages with `prev`, the image the device holds, if
    /// any.
    pub(crate) fn new(wal: &'a Wal, prev: Option<&'a ImageIndex>) -> Self {
        CheckpointPass {
            wal,
            prev,
            taken: Default::default(),
            parts: Vec::new(),
            pages: Default::default(),
            scratch: String::new(),
            copied: 0,
            rendered: 0,
        }
    }

    /// End the text in front of a page: freeze `text` into a part.
    fn flush(&mut self, text: &mut String) {
        self.parts.push(Arc::from(text.as_str()));
        text.clear();
    }

    /// The image this pass wrote, between `head` and `tail` (the text
    /// after the last page). `head` joins the first part, which is never
    /// a page, so the parts alternate: text, page, text, …, page, text.
    pub(crate) fn image(&mut self, mut head: String, tail: &mut String) -> Image {
        self.flush(tail);
        let mut parts = std::mem::take(&mut self.parts);
        head.push_str(&parts[0]);
        parts[0] = Arc::from(head);
        parts.into_iter().collect()
    }

    /// The index of the image this pass wrote, now that the device holds
    /// it.
    pub(crate) fn index(self, image: Arc<Image>) -> ImageIndex {
        ImageIndex {
            image,
            pages: self.pages,
        }
    }
}

/// The one writer of table rows into an image. A table hands it each of
/// its fields under the read guard it holds for the table; during a
/// checkpoint that guard is also what makes a shared page current: rows
/// change only under the table's write guard, and the WAL marks a row's
/// page under that guard as it appends the row's record.
pub(crate) struct ImageWriter<'o, 'p> {
    /// A plain image's text; in a checkpoint, the text since the last
    /// page.
    out: &'o mut String,
    pass: Option<&'o mut CheckpointPass<'p>>,
}

impl ImageWriter<'_, '_> {
    /// One array field from a table keyed by row id; `raw` reads the id.
    pub(crate) fn table<K, V: Serialize, S>(
        &mut self,
        field: Field,
        rows: &HashMap<K, V, S>,
        raw: impl Fn(K) -> u64,
    ) where
        K: Copy,
    {
        let mut rows: Vec<(u64, &V)> = rows.iter().map(|(k, v)| (raw(*k), v)).collect();
        rows.sort_unstable_by_key(|&(id, _)| id);
        self.rows(field, rows);
    }

    /// One array field, `,"name":[row,…]`, from `(id, row)` pairs in id
    /// order. In a checkpoint each page is a part of its own: shared with
    /// the previous image when no record touched it, else rendered.
    pub(crate) fn rows<'r, T: Serialize + 'r>(
        &mut self,
        field: Field,
        rows: impl IntoIterator<Item = (u64, &'r T)>,
    ) {
        let out = &mut *self.out;
        out.push_str(",\"");
        out.push_str(field.name());
        out.push_str("\":[");
        let mut pass = self.pass.as_deref_mut();
        if let Some(pass) = pass.as_deref_mut() {
            pass.taken[field as usize] = pass.wal.take_marks(field);
        }
        let mut first = true;
        let mut rows = rows.into_iter().peekable();
        while let Some((id, row)) = rows.next() {
            let page = id / IMAGE_PAGE_IDS;
            let in_page = |&(id, _): &(u64, &T)| id / IMAGE_PAGE_IDS == page;
            if !first {
                out.push(',');
            }
            first = false;
            let Some(pass) = pass.as_deref_mut() else {
                row.write_json(out);
                while let Some((_, row)) = rows.next_if(in_page) {
                    out.push(',');
                    row.write_json(out);
                }
                continue;
            };
            pass.flush(out);
            let clean = pass
                .prev
                .filter(|_| !pass.taken[field as usize].contains(page))
                .and_then(|prev| prev.page(field, page));
            let part = match clean {
                Some(part) => {
                    while rows.next_if(in_page).is_some() {}
                    pass.copied += 1;
                    part.clone()
                }
                None => {
                    let text = &mut pass.scratch;
                    row.write_json(text);
                    while let Some((_, row)) = rows.next_if(in_page) {
                        text.push(',');
                        row.write_json(text);
                    }
                    let part = Arc::from(text.as_str());
                    text.clear();
                    pass.rendered += 1;
                    part
                }
            };
            pass.parts.push(part.clone());
            pass.pages[field as usize].push((page, part));
        }
        out.push(']');
    }
}

impl Mcat {
    fn generations(&self) -> SnapshotGenerations {
        SnapshotGenerations {
            collections: self.collections.generation().raw(),
            datasets: self.datasets.generation().raw(),
            metadata: self.metadata.generation().raw(),
        }
    }

    /// Append the catalog image — the text [`CatalogSnapshot`] reads —
    /// to `out`, straight from the live tables, taking one table's read
    /// guard at a time. Under concurrent writers the image is fuzzy (each
    /// table as of its own guard), which checkpoints tolerate; see
    /// `crate::wal`.
    pub fn write_image(&self, out: &mut String) {
        self.write_paged(out, None);
    }

    /// [`Mcat::write_image`], or with a `pass` a checkpoint's parts,
    /// sharing the pages the pass allows with the previous checkpoint;
    /// `out` then ends with the text after the last page.
    pub(crate) fn write_paged(&self, out: &mut String, pass: Option<&mut CheckpointPass<'_>>) {
        out.push_str("{\"version\":");
        SNAPSHOT_VERSION.write_json(out);
        out.push_str(",\"next_id_floor\":");
        self.ids.allocated().write_json(out);
        out.push_str(",\"admin\":");
        self.admin().write_json(out);
        let mut w = ImageWriter {
            out: &mut *out,
            pass,
        };
        self.users.write_image(&mut w);
        self.resources.write_image(&mut w);
        self.collections.write_image(&mut w);
        self.datasets.write_image(&mut w);
        self.containers.write_image(&mut w);
        self.metadata.write_image(&mut w);
        self.annotations.write_image(&mut w);
        self.audit.write_image(&mut w);
        out.push_str(",\"generations\":");
        Some(self.generations()).write_json(out);
        out.push('}');
    }

    /// Capture the whole catalog as a JSON string.
    pub fn snapshot_json(&self) -> SrbResult<String> {
        let mut out = String::new();
        self.write_image(&mut out);
        Ok(out)
    }

    /// Rebuild a catalog from a snapshot, sharing `clock`.
    pub fn restore(clock: SimClock, snap: CatalogSnapshot) -> SrbResult<Mcat> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(SrbError::Invalid(format!(
                "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                snap.version
            )));
        }
        if !snap.collections.iter().any(|c| c.path.is_root()) {
            return Err(SrbError::Invalid("snapshot has no root collection".into()));
        }
        if !snap.users.iter().any(|u| u.id == snap.admin) {
            return Err(SrbError::Invalid(
                "snapshot admin is not among its users".into(),
            ));
        }
        let ids = IdGen::new();
        ids.ensure_floor(snap.next_id_floor);
        let mcat = Mcat::from_parts(
            ids,
            clock,
            snap.admin,
            UserTable::restore(snap.users, snap.groups),
            ResourceTable::restore(snap.resources, snap.logical_resources),
            CollectionTable::restore(snap.collections),
            DatasetTable::restore(snap.datasets),
            ContainerTable::restore(snap.containers),
            MetaStore::restore(snap.metadata, snap.meta_files),
            AnnotationTable::restore(snap.annotations),
            AuditLog::restore(snap.audit),
        );
        if let Some(gens) = snap.generations {
            mcat.collections.restore_generation(gens.collections);
            mcat.datasets.restore_generation(gens.datasets);
            mcat.metadata.restore_generation(gens.metadata);
        }
        Ok(mcat)
    }

    /// Rebuild from a JSON snapshot string.
    pub fn restore_json(clock: SimClock, json: &str) -> SrbResult<Mcat> {
        let snap: CatalogSnapshot = serde_json::from_str(json)
            .map_err(|e| SrbError::Parse(format!("snapshot JSON: {e}")))?;
        Mcat::restore(clock, snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::AccessSpec;
    use crate::metadata::MetaKind;
    use crate::query::Query;
    use srb_types::{CompareOp, LogicalPath, ResourceId, Triplet};

    fn seeded() -> Mcat {
        let m = Mcat::new(SimClock::new(), "pw");
        let root = m.collections.root();
        let admin = m.admin();
        let now = m.clock.now();
        let zoo = m
            .collections
            .create(&m.ids, root, "zoo", admin, now)
            .unwrap();
        let ds = m
            .datasets
            .create(
                &m.ids,
                zoo,
                "condor.jpg",
                "jpeg image",
                admin,
                vec![(
                    AccessSpec::Stored {
                        resource: ResourceId(1),
                        phys_path: "/p/1".into(),
                    },
                    1000,
                    Some("abc".into()),
                )],
                now,
            )
            .unwrap();
        m.metadata.add(
            &m.ids,
            Subject::Dataset(ds),
            Triplet::new("wingspan", 290, "cm"),
            MetaKind::UserDefined,
        );
        m.annotations.add(
            &m.ids,
            Subject::Dataset(ds),
            admin,
            now,
            crate::annotation::AnnotationKind::Comment,
            "",
            "nice bird",
        );
        m.users
            .register(&m.ids, "sekar", "sdsc", "pw2", false)
            .unwrap();
        let g = m.users.create_group(&m.ids, "curators").unwrap();
        m.users
            .add_to_group(m.users.find("sekar", "sdsc").unwrap().id, g)
            .unwrap();
        m
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let m = seeded();
        let json = m.snapshot_json().unwrap();
        let clock = SimClock::new();
        let r = Mcat::restore_json(clock, &json).unwrap();
        // Counts match.
        assert_eq!(r.summary(), m.summary());
        // Path resolution and indexes were rebuilt.
        let path = LogicalPath::parse("/zoo/condor.jpg").unwrap();
        let ds = r.resolve_dataset(&path).unwrap();
        assert_eq!(r.dataset_path(ds).unwrap(), path);
        let q = Query::everywhere().and("wingspan", CompareOp::Gt, 100i64);
        assert_eq!(r.query(&q).unwrap().len(), 1);
        assert_eq!(r.query(&q).unwrap(), r.query_scan(&q).unwrap());
        // Users, groups and verifiers survived (sekar can authenticate).
        let sekar = r.users.find("sekar", "sdsc").unwrap();
        assert_eq!(
            sekar.verifier,
            crate::user::derive_verifier("pw2"),
            "password verifier preserved"
        );
        assert_eq!(r.users.groups_of(sekar.id).len(), 1);
        // Annotations and audit survived.
        assert_eq!(r.annotations.for_subject(Subject::Dataset(ds)).len(), 1);
        assert_eq!(r.audit.count(), m.audit.count());
    }

    /// The image of `m`, read back.
    fn parsed(m: &Mcat) -> CatalogSnapshot {
        serde_json::from_str(&m.snapshot_json().unwrap()).unwrap()
    }

    #[test]
    fn generation_stamps_survive_restore() {
        let m = seeded();
        let before = parsed(&m).generations.unwrap();
        assert!(before.collections > 0 && before.datasets > 0 && before.metadata > 0);
        let r = Mcat::restore_json(SimClock::new(), &m.snapshot_json().unwrap()).unwrap();
        assert_eq!(parsed(&r).generations.unwrap(), before);
        // A pre-WAL snapshot without stamps still restores.
        let mut snap = parsed(&m);
        snap.generations = None;
        assert!(Mcat::restore(SimClock::new(), snap).is_ok());
    }

    #[test]
    fn restored_catalog_keeps_allocating_fresh_ids() {
        let m = seeded();
        let floor = m.ids.allocated();
        let r = Mcat::restore_json(SimClock::new(), &m.snapshot_json().unwrap()).unwrap();
        let root = r.collections.root();
        let new_coll = r
            .collections
            .create(&r.ids, root, "fresh", r.admin(), r.clock.now())
            .unwrap();
        assert!(new_coll.raw() > floor, "ids must not collide after restore");
    }

    #[test]
    fn bad_snapshots_rejected() {
        assert!(Mcat::restore_json(SimClock::new(), "not json").is_err());
        let m = seeded();
        let mut snap = parsed(&m);
        snap.version = 99;
        assert!(Mcat::restore(SimClock::new(), snap).is_err());
        let mut snap = parsed(&m);
        snap.collections.clear();
        assert!(Mcat::restore(SimClock::new(), snap).is_err());
        let mut snap = parsed(&m);
        snap.users.clear();
        assert!(Mcat::restore(SimClock::new(), snap).is_err());
    }

    #[test]
    fn mutations_after_restore_do_not_corrupt_indexes() {
        let m = seeded();
        let r = Mcat::restore_json(SimClock::new(), &m.snapshot_json().unwrap()).unwrap();
        let path = LogicalPath::parse("/zoo/condor.jpg").unwrap();
        let ds = r.resolve_dataset(&path).unwrap();
        // Move the dataset and delete its metadata — the rebuilt indexes
        // must behave exactly like the originals.
        let root = r.collections.root();
        r.datasets.move_dataset(ds, root, "renamed.jpg").unwrap();
        assert!(r.resolve_dataset(&path).is_err());
        let new_path = LogicalPath::parse("/renamed.jpg").unwrap();
        assert_eq!(r.resolve_dataset(&new_path).unwrap(), ds);
        r.metadata.remove_all(Subject::Dataset(ds));
        let q = Query::everywhere().and("wingspan", CompareOp::Gt, 100i64);
        assert!(r.query(&q).unwrap().is_empty());
    }
}
