//! Catalog snapshots — serialize the entire MCAT to JSON and restore it.
//!
//! The paper's persistent-archive capability migrates *data* onto new
//! media (experiment E9); preserving the *catalog* itself — name space,
//! ACLs, metadata, annotations, audit trail — is the complementary half a
//! production deployment needs across restarts and technology generations.
//! A snapshot captures every table; restoring rebuilds all derived indexes
//! (path maps, child lists, attribute value indexes) from the rows.
//!
//! The image has one text form, one writer and one reader, and both walk
//! the row pages every table keeps its rows in ([`RowPages`]).
//! `ImageWriter` — behind `snapshot_json`, every WAL checkpoint and
//! `Grid::save_state` — writes it straight from the live tables, one
//! table read guard at a time, page by page: no second catalog, no tree,
//! no sort. `ImageReader` — behind [`CatalogSnapshot`]'s `Deserialize`,
//! and so behind `restore_json`, `Grid::restore_state` and recovery —
//! reads it straight back into row pages, one part of the image at a
//! time. Each row is written in its row form (`Serialize::write_row`,
//! the array of its fields in declared order) inside the image's keyed
//! fields; the reader also takes rows in the object form, as images
//! written before the row form hold them.
//!
//! Each table field is laid out in id pages of [`IMAGE_PAGE_IDS`] ids. A
//! checkpoint writes its image as parts — the text between pages, then
//! each page as a part of its own — and shares a page's part with the
//! last image the device accepted unless a redo record touched one of its
//! rows since (the WAL marks the page as it appends the record; see
//! `crate::wal`): a clean page costs one refcount, and its rows are not
//! visited. A plain image (`write_image`) is one `String` and renders
//! every page; the bytes are the same either way. Reading a checkpoint
//! back notes which of its parts hold exactly one page, so recovery can
//! share them in turn.
//!
//! The audit trail is the exception on both sides: it keeps no rows,
//! only each page's text (`crate::audit`). A checkpoint freezes each page
//! into its part and shares it with the trail ([`ImageWriter::texts`]);
//! reading, every row is decoded to check it, and a page takes the part
//! its rows were read from when they re-render to it byte for byte.

use crate::annotation::AnnotationTable;
use crate::audit::{AuditLog, AuditPages, Text};
use crate::catalog::Mcat;
use crate::collection::{Collection, CollectionTable};
use crate::container::{ContainerRecord, ContainerTable};
use crate::dataset::{Dataset, DatasetTable};
use crate::metadata::{MetaRow, MetaRows, MetaStore, Subject};
use crate::pages::{Row, RowPages, IMAGE_PAGE_IDS};
use crate::resource::{LogicalResource, Resource, ResourceTable};
use crate::user::{Group, User, UserTable};
use crate::wal::{Wal, WalHook};
use crate::{Annotation, AuditRow};
use serde::{DeError, Deserialize, JsonReader, Serialize};
use srb_storage::Image;
use srb_types::{DatasetId, IdGen, SimClock, SrbError, SrbResult, UserId};
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
/// text [`Mcat::write_image`] writes: every table's rows in the row pages
/// the table will keep them in.
#[derive(Debug)]
pub struct CatalogSnapshot {
    /// Snapshot format version.
    pub version: u32,
    /// Highest id allocated when the snapshot was taken.
    pub next_id_floor: u64,
    /// The bootstrap administrator.
    pub admin: UserId,
    /// Users.
    pub users: RowPages<User>,
    /// Groups.
    pub groups: RowPages<Group>,
    /// Physical resources.
    pub resources: RowPages<Resource>,
    /// Logical resources.
    pub logical_resources: RowPages<LogicalResource>,
    /// Collections (including the root).
    pub collections: RowPages<Collection>,
    /// Datasets with their replicas.
    pub datasets: RowPages<Dataset>,
    /// Containers.
    pub containers: RowPages<ContainerRecord>,
    /// Metadata triplets.
    pub metadata: MetaRows,
    /// File-based metadata associations.
    pub meta_files: Vec<(Subject, Vec<DatasetId>)>,
    /// Annotations.
    pub annotations: RowPages<Annotation>,
    /// The audit trail, as page text.
    pub audit: AuditPages,
    /// Cursor-relevant generation stamps (absent in pre-WAL snapshots,
    /// which restore with counters at their rebuilt values).
    pub generations: Option<SnapshotGenerations>,
}

/// Current snapshot format version.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

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
    /// Per field, every page that is a part of its own, page-ascending.
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
/// page under that guard as it appends the record.
///
/// It is the only one: the vendored serde keeps its sequence writer
/// private, so no table can write a field as one unpaged array through
/// it:
///
/// ```compile_fail,E0425
/// let mut out = String::new();
/// serde::write_seq(&[1u64, 2], &mut out);
/// ```
pub(crate) struct ImageWriter<'o, 'p> {
    /// A plain image's text; in a checkpoint, the text since the last
    /// page.
    out: &'o mut String,
    pass: Option<&'o mut CheckpointPass<'p>>,
}

impl ImageWriter<'_, '_> {
    /// One table field, `,"name":[row,…]`, walked page by page, each row
    /// in its row form.
    pub(crate) fn pages<R: Serialize>(&mut self, field: Field, rows: &RowPages<R>) {
        self.pages_as(field, rows, R::write_row);
    }

    /// One table field whose rows `write` writes, walked page by page.
    pub(crate) fn pages_as<R>(
        &mut self,
        field: Field,
        rows: &RowPages<R>,
        write: impl Fn(&R, &mut String),
    ) {
        let pages = rows.pages().map(|(page, rows)| (page, rows.iter()));
        self.field(field, pages, write);
    }

    /// A field whose rows carry no id, as one page (page 0), in the order
    /// given, each row in its row form.
    pub(crate) fn one_page<T: Serialize>(&mut self, field: Field, rows: &[T]) {
        let page = (!rows.is_empty()).then_some((0, rows.iter()));
        self.field(field, page, T::write_row);
    }

    /// Open a field: `,"name":[`.
    fn open(&mut self, field: Field) {
        self.out.push_str(",\"");
        self.out.push_str(field.name());
        self.out.push_str("\":[");
    }

    /// A field kept as page text (the audit trail), each page's text as
    /// it is. In a checkpoint each page is a part of its own, frozen and
    /// shared between the page and the image: no row is rendered.
    pub(crate) fn texts<'t>(&mut self, field: Field, pages: impl Iterator<Item = &'t mut Text>) {
        self.open(field);
        for (i, text) in pages.enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            match self.pass.as_deref_mut() {
                None => self.out.push_str(text.as_str()),
                Some(pass) => {
                    pass.flush(self.out);
                    pass.parts.push(text.freeze());
                }
            }
        }
        self.out.push(']');
    }

    /// The field's pages, page-ascending, each with its rows in order. In
    /// a checkpoint each page is a part of its own: shared with the
    /// previous image when no record touched it — its rows unvisited —
    /// else rendered.
    fn field<'r, T, I>(
        &mut self,
        field: Field,
        pages: impl IntoIterator<Item = (u64, I)>,
        write: impl Fn(&T, &mut String),
    ) where
        T: 'r,
        I: Iterator<Item = &'r T>,
    {
        self.open(field);
        let out = &mut *self.out;
        let mut pass = self.pass.as_deref_mut();
        if let Some(pass) = pass.as_deref_mut() {
            pass.taken[field as usize] = pass.wal.take_marks(field);
        }
        for (i, (page, rows)) in pages.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let Some(pass) = pass.as_deref_mut() else {
                write_rows(out, rows, &write);
                continue;
            };
            pass.flush(out);
            let clean = pass
                .prev
                .filter(|_| !pass.taken[field as usize].contains(page))
                .and_then(|prev| prev.page(field, page));
            let part = match clean {
                Some(part) => {
                    pass.copied += 1;
                    part.clone()
                }
                None => {
                    write_rows(&mut pass.scratch, rows, &write);
                    let part = Arc::from(pass.scratch.as_str());
                    pass.scratch.clear();
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

/// One page's rows, comma-separated.
pub(crate) fn write_rows<'r, T: 'r>(
    out: &mut String,
    rows: impl Iterator<Item = &'r T>,
    write: impl Fn(&T, &mut String),
) {
    for (i, row) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(row, out);
    }
}

/// The catalog image's fields, by the names it writes.
const CATALOG_FIELDS: [&str; 15] = [
    "version",
    "next_id_floor",
    "admin",
    "users",
    "groups",
    "resources",
    "logical_resources",
    "collections",
    "datasets",
    "containers",
    "metadata",
    "meta_files",
    "annotations",
    "audit",
    "generations",
];

/// The one reader of an image: it reads the text [`ImageWriter`] wrote
/// straight into row pages, one part of the image at a time, the parts
/// borrowed, never joined. Every token, and every row, lies inside one
/// part; the writer's parts split between rows and around the text
/// between pages.
///
/// It also notes which parts hold exactly one page of one field — the
/// parts a checkpoint wrote for its pages — so that the image recovery
/// reads can lend them to the checkpoint recovery installs.
struct ImageReader<'a, 'r> {
    r: &'r mut JsonReader<'a>,
    /// Every part of the image, by number (none for a plain image).
    parts: &'a [Arc<str>],
    /// The parts after the one being read.
    rest: std::slice::Iter<'a, Arc<str>>,
    /// Number of the part being read.
    part: usize,
    /// Per field, `(page, part number)` of every part that holds exactly
    /// that page's rows, page-ascending.
    found: [Vec<(u64, usize)>; FIELDS],
}

impl<'a> ImageReader<'a, '_> {
    /// Move on through the parts until a token is next; returns the
    /// number of the part it left, if it moved.
    fn fill(&mut self) -> Option<usize> {
        let left = self.part;
        while self.r.peek_token().is_none() {
            let Some(next) = self.rest.next() else {
                break;
            };
            self.r.continue_in(next);
            self.part += 1;
        }
        (self.part != left).then_some(left)
    }

    /// A whole catalog image. As a derived reader would: keys in any
    /// order, unknown keys skipped, the first of a repeated key wins, and
    /// every field but `generations` required.
    fn catalog(&mut self) -> Result<CatalogSnapshot, DeError> {
        let mut snap = CatalogSnapshot {
            version: 0,
            next_id_floor: 0,
            admin: UserId(0),
            users: RowPages::default(),
            groups: RowPages::default(),
            resources: RowPages::default(),
            logical_resources: RowPages::default(),
            collections: RowPages::default(),
            datasets: RowPages::default(),
            containers: RowPages::default(),
            metadata: MetaRows::default(),
            meta_files: Vec::new(),
            annotations: RowPages::default(),
            audit: AuditPages::default(),
            generations: None,
        };
        let mut seen = [false; CATALOG_FIELDS.len()];
        self.fill();
        let mut entries = self.r.object("CatalogSnapshot")?;
        loop {
            self.fill();
            let Some(key) = entries.next_key(self.r)? else {
                break;
            };
            self.fill();
            let slot = CATALOG_FIELDS.iter().position(|&f| f == key);
            let Some(k) = slot.filter(|&k| !seen[k]) else {
                self.r.skip_value()?;
                continue;
            };
            seen[k] = true;
            self.catalog_field(&mut snap, CATALOG_FIELDS[k])
                .map_err(|e| e.at(&format!("CatalogSnapshot.{key}")))?;
        }
        let missing = CATALOG_FIELDS
            .iter()
            .zip(seen)
            .find(|&(&f, seen)| !seen && f != "generations");
        if let Some((f, _)) = missing {
            return Err(DeError::new("missing field").at(&format!("CatalogSnapshot.{f}")));
        }
        Ok(snap)
    }

    fn catalog_field(&mut self, snap: &mut CatalogSnapshot, name: &str) -> Result<(), DeError> {
        match name {
            "version" => snap.version = u32::read_json(self.r)?,
            "next_id_floor" => snap.next_id_floor = u64::read_json(self.r)?,
            "admin" => snap.admin = UserId::read_json(self.r)?,
            "users" => snap.users = self.pages(Field::Users)?,
            "groups" => snap.groups = self.pages(Field::Groups)?,
            "resources" => snap.resources = self.pages(Field::Resources)?,
            "logical_resources" => snap.logical_resources = self.pages(Field::LogicalResources)?,
            "collections" => snap.collections = self.pages(Field::Collections)?,
            "datasets" => snap.datasets = self.pages(Field::Datasets)?,
            "containers" => snap.containers = self.pages(Field::Containers)?,
            "metadata" => snap.metadata = self.metadata()?,
            "meta_files" => {
                let files = &mut snap.meta_files;
                self.array(Field::MetaFiles, |r, _| {
                    files.push(Deserialize::read_json(r)?);
                    Ok(0)
                })?;
            }
            "annotations" => snap.annotations = self.pages(Field::Annotations)?,
            "audit" => snap.audit = self.audit()?,
            _ => snap.generations = Option::read_json(self.r)?,
        }
        Ok(())
    }

    /// A table field, each row put under its id.
    fn pages<R: Row + Deserialize>(&mut self, field: Field) -> Result<RowPages<R>, DeError> {
        let mut rows = RowPages::default();
        let mut fresh = true;
        self.array(field, |r, _| {
            let row = R::read_json(r)?;
            let page = R::raw(row.id()) / IMAGE_PAGE_IDS;
            fresh &= rows.insert(row).is_none();
            Ok(page)
        })?;
        self.repeated(field, fresh);
        Ok(rows)
    }

    /// The metadata field, each row put into its compact form as it is
    /// read, as redo puts a logged row.
    fn metadata(&mut self) -> Result<MetaRows, DeError> {
        let mut rows = MetaRows::default();
        let mut fresh = true;
        self.array(Field::Metadata, |r, _| {
            let row = MetaRow::read_json(r)?;
            let page = row.id.raw() / IMAGE_PAGE_IDS;
            fresh &= !rows.put(row);
            Ok(page)
        })?;
        self.repeated(Field::Metadata, fresh);
        Ok(rows)
    }

    /// The audit field, each row decoded to check it and put into its
    /// page's text. A page whose first row was read from a part that is
    /// exactly the page's text, byte for byte, takes that part as its
    /// text, shared with the image; any other page keeps its render.
    fn audit(&mut self) -> Result<AuditPages, DeError> {
        let mut pages = AuditPages::default();
        let parts = self.parts;
        // The page being read, and the part its first row was read from.
        let mut open: Option<(u64, usize)> = None;
        let share = |pages: &mut AuditPages, (no, part): (u64, usize)| {
            if let Some(part) = parts.get(part) {
                pages.share(no, part);
            }
        };
        self.array(Field::Audit, |r, part| {
            let row = AuditRow::read_json(r)?;
            let page = row.id.raw() / IMAGE_PAGE_IDS;
            if open.is_none_or(|(no, _)| no != page) {
                if let Some(done) = open.replace((page, part)) {
                    share(&mut pages, done);
                }
            }
            pages.put(&row);
            Ok(page)
        })?;
        if let Some(done) = open {
            share(&mut pages, done);
        }
        // The trail holds its own parts; a checkpoint never looks them up.
        self.found[Field::Audit as usize].clear();
        Ok(pages)
    }

    /// After a table field: a repeated id (not `fresh`) means a page's
    /// part says more than its rows, so none of the field's is shared.
    fn repeated(&mut self, field: Field, fresh: bool) {
        if !fresh {
            self.found[field as usize].clear();
        }
    }

    /// One array field, `[row,…]`, each row read and kept by `row` — given
    /// the number of the part the row starts in — which returns its page, noting the parts that hold exactly one of its
    /// pages. Rows out of page order disable the noting for the field:
    /// only a field in page order keeps each page's rows together, so that
    /// the rows around a part tell whether it holds all of its page.
    fn array(
        &mut self,
        field: Field,
        mut row: impl FnMut(&mut JsonReader<'a>, usize) -> Result<u64, DeError>,
    ) -> Result<(), DeError> {
        let mut runs = Runs::default();
        let mut items = self.r.array(field.name())?;
        let mut i = 0usize;
        loop {
            // After `[` or after a row.
            if let Some(left) = self.fill() {
                match i {
                    0 => runs.start(self.part),
                    _ => runs.end(left),
                }
            }
            if !items.next_element(self.r)? {
                break;
            }
            // After `,`: the part may end there, in front of a row.
            if self.fill().is_some() {
                runs.start(self.part);
            }
            let page = row(self.r, self.part).map_err(|e| e.at(&format!("[{i}]")))?;
            runs.row(page);
            i += 1;
        }
        self.found[field as usize] = runs.finish();
        Ok(())
    }
}

/// Which parts of one array field hold exactly one of its pages; see
/// [`ImageReader::array`].
#[derive(Default)]
struct Runs {
    /// The part being read, entered in front of a row: its number, its
    /// rows' page so far, whether they all share it, and the page of the
    /// row before the part.
    open: Option<(usize, Option<u64>, bool, Option<u64>)>,
    /// A part that ended right after a row of its one page, waiting to
    /// see the page of the row after it.
    pending: Option<(u64, usize)>,
    last_page: Option<u64>,
    unordered: bool,
    found: Vec<(u64, usize)>,
}

impl Runs {
    /// A part begins in front of a row.
    fn start(&mut self, part: usize) {
        self.open = Some((part, None, true, self.last_page));
    }

    /// A row of `page` was read.
    fn row(&mut self, page: u64) {
        self.unordered |= self.last_page.is_some_and(|last| last > page);
        self.last_page = Some(page);
        if let Some((p, part)) = self.pending.take() {
            if p != page {
                self.found.push((p, part));
            }
        }
        if let Some((_, first, one, _)) = &mut self.open {
            *one &= first.is_none_or(|p| p == page);
            *first = Some(page);
        }
    }

    /// Part `left` ended right after a row.
    fn end(&mut self, left: usize) {
        if let Some((part, Some(page), true, before)) = self.open.take() {
            if part == left && before != Some(page) {
                self.pending = Some((page, part));
            }
        }
    }

    /// The field's array closed.
    fn finish(mut self) -> Vec<(u64, usize)> {
        self.found.extend(self.pending.take());
        if self.unordered {
            self.found.clear();
        }
        self.found
    }
}

impl Deserialize for CatalogSnapshot {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        ImageReader {
            r,
            parts: &[],
            rest: [].iter(),
            part: 0,
            found: Default::default(),
        }
        .catalog()
    }
}

/// Read a checkpoint `image` — `{"at_ns":…,"snapshot":<catalog image>}`
/// — part by part: the envelope's time, the catalog in row pages, and the
/// index of the image's page parts, which a checkpoint of the recovered
/// catalog may share.
pub(crate) fn read_checkpoint(
    image: &Arc<Image>,
) -> Result<(u64, CatalogSnapshot, ImageIndex), DeError> {
    let Some((first, rest)) = image.parts().split_first() else {
        return Err(DeError::new("empty checkpoint image"));
    };
    let mut r = JsonReader::new(first);
    let mut reader = ImageReader {
        r: &mut r,
        parts: image.parts(),
        rest: rest.iter(),
        part: 0,
        found: Default::default(),
    };
    let (mut at_ns, mut snap) = (None, None);
    reader.fill();
    let mut entries = reader.r.object("CheckpointEnvelope")?;
    loop {
        reader.fill();
        let Some(key) = entries.next_key(reader.r)? else {
            break;
        };
        reader.fill();
        match &*key {
            "at_ns" if at_ns.is_none() => {
                let read = u64::read_json(reader.r);
                at_ns = Some(read.map_err(|e| e.at("CheckpointEnvelope.at_ns"))?);
            }
            "snapshot" if snap.is_none() => {
                let read = reader.catalog();
                snap = Some(read.map_err(|e| e.at("CheckpointEnvelope.snapshot"))?);
            }
            _ => reader.r.skip_value()?,
        }
    }
    reader.fill();
    let found = std::mem::take(&mut reader.found);
    let rest_len = reader.rest.len();
    r.finish()?;
    if rest_len > 0 {
        return Err(DeError::new("trailing parts after the checkpoint image"));
    }
    let missing = |f: &str| DeError::new("missing field").at(&format!("CheckpointEnvelope.{f}"));
    let at_ns = at_ns.ok_or_else(|| missing("at_ns"))?;
    let snap = snap.ok_or_else(|| missing("snapshot"))?;
    let parts = image.parts();
    let pages = found.map(|pages| {
        pages
            .into_iter()
            .map(|(page, part)| (page, parts[part].clone()))
            .collect()
    });
    let index = ImageIndex {
        image: image.clone(),
        pages,
    };
    Ok((at_ns, snap, index))
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
        let users = self.users.users.read();
        users.0.write_image(&mut w);
        users.1.write_image(&mut w);
        drop(users);
        let resources = self.resources.rows.read();
        resources.0.write_image(&mut w);
        resources.1.write_image(&mut w);
        drop(resources);
        self.collections.rows.read().write_image(&mut w);
        self.datasets.rows.read().write_image(&mut w);
        self.containers.rows.read().write_image(&mut w);
        self.metadata.write_image(&mut w);
        self.annotations.rows.read().write_image(&mut w);
        w.texts(Field::Audit, self.audit.rows.lock().texts());
        out.push_str(",\"generations\":");
        Some(self.generations()).write_row(out);
        out.push('}');
    }

    /// Capture the whole catalog as a JSON string.
    pub fn snapshot_json(&self) -> SrbResult<String> {
        let mut out = String::new();
        self.write_image(&mut out);
        Ok(out)
    }

    /// Rebuild a catalog from a snapshot, sharing `clock`: the tables
    /// take the snapshot's row pages as they are and build their derived
    /// maps from them once.
    pub fn restore(clock: SimClock, snap: CatalogSnapshot) -> SrbResult<Mcat> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(SrbError::Invalid(format!(
                "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                snap.version
            )));
        }
        if !snap.users.contains(snap.admin) {
            return Err(SrbError::Invalid(
                "snapshot admin is not among its users".into(),
            ));
        }
        let wal = WalHook::default();
        let collections = CollectionTable::restore(snap.collections, &wal)?;
        let ids = IdGen::new();
        ids.ensure_floor(snap.next_id_floor);
        let mcat = Mcat::from_parts(
            ids,
            clock,
            snap.admin,
            UserTable::restore(snap.users, snap.groups, &wal),
            ResourceTable::restore(snap.resources, snap.logical_resources, &wal),
            collections,
            DatasetTable::restore(snap.datasets, &wal),
            ContainerTable::restore(snap.containers, &wal),
            MetaStore::restore(snap.metadata, snap.meta_files, &wal),
            AnnotationTable::restore(snap.annotations, &wal),
            AuditLog::restore(snap.audit, &wal),
            wal,
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
                    Some(srb_types::Checksum::of(b"abc")),
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
        snap.collections = RowPages::default();
        assert!(Mcat::restore(SimClock::new(), snap).is_err());
        let mut snap = parsed(&m);
        snap.users = RowPages::default();
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

#[cfg(test)]
mod reader_tests {
    use super::*;
    use crate::dataset::AccessSpec;
    use crate::wal::{Wal, WalConfig};
    use srb_storage::LogDevice;
    use srb_types::{Lsn, ResourceId};

    /// A checkpoint image of a catalog whose datasets span a few pages,
    /// as the writer parts it.
    fn written() -> (Mcat, Arc<Image>) {
        let m = Mcat::new(SimClock::new(), "pw");
        let (root, admin, now) = (m.collections.root(), m.admin(), m.clock.now());
        for i in 0..1500 {
            let replica = AccessSpec::Stored {
                resource: ResourceId(1),
                phys_path: format!("/p/{i}"),
            };
            let replicas = vec![(replica, 1, None)];
            m.datasets
                .create(&m.ids, root, &format!("d{i}"), "t", admin, replicas, now)
                .unwrap();
        }
        let device = Arc::new(LogDevice::new());
        let wal = Wal::new(device.clone(), SimClock::new(), WalConfig::default(), None);
        wal.install_checkpoint(Lsn(0), &m).unwrap();
        (m, device.checkpoint_image().unwrap())
    }

    /// Read `parts` back; the catalog's image and how many page parts
    /// the reader found.
    fn read(parts: Vec<Arc<str>>) -> Result<(String, usize), DeError> {
        let image = Arc::new(parts.into_iter().collect::<Image>());
        let (_, snap, index) = read_checkpoint(&image)?;
        let found = index.pages.iter().map(Vec::len).sum();
        let text = Mcat::restore(SimClock::new(), snap)
            .unwrap()
            .snapshot_json();
        Ok((text.unwrap(), found))
    }

    #[test]
    fn the_reader_takes_any_split_between_tokens_and_shares_only_whole_pages() {
        let (m, image) = written();
        let want = m.snapshot_json().unwrap();
        let parts = image.parts().to_vec();
        // The parts alternate text and page; every page is found.
        let pages = parts.len() / 2;
        assert!(pages > 3);
        assert_eq!(read(parts.clone()).unwrap(), (want.clone(), pages));
        // One part per page and the text after it: no page stands alone.
        let merged: Vec<Arc<str>> = parts
            .chunks(2)
            .map(|pair| Arc::from(pair.concat().as_str()))
            .collect();
        assert_eq!(read(merged).unwrap(), (want.clone(), 0));
        // The largest page split between two of its rows: only that page
        // is lost.
        let (at, page) = (1..parts.len())
            .step_by(2)
            .map(|i| (i, &parts[i]))
            .max_by_key(|(_, p)| p.len())
            .unwrap();
        // Rows are arrays that open with their id; nothing inside a row
        // is an array that opens with a digit.
        let cut = page
            .match_indices(",[")
            .find(|&(i, _)| page.as_bytes()[i + 2].is_ascii_digit())
            .unwrap()
            .0
            + 1;
        let mut split = parts.clone();
        split.splice(at..=at, [Arc::from(&page[..cut]), Arc::from(&page[cut..])]);
        assert_eq!(read(split).unwrap(), (want, pages - 1));
        // A split inside a row is refused, not read as something else.
        let mut torn = parts.clone();
        torn.splice(at..=at, [Arc::from(&page[..5]), Arc::from(&page[5..])]);
        assert!(read(torn).is_err());
    }
}
