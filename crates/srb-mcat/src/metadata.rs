//! The metadata triplet store and its attribute indexes.
//!
//! Five kinds of metadata (paper §5): system-defined, user-defined,
//! type-oriented (e.g. Dublin Core), file-based, and annotations (the last
//! live in [`Mcat::annotations`](crate::Mcat::annotations)). User/type metadata are *(name, value,
//! units)* triplets. The store keeps a per-attribute ordered value index so
//! the query engine can answer `=` and range conditions without scanning —
//! the design choice ablated in experiment E5/A1.
//!
//! A row is held compact: its attribute name, units and schema are few
//! distinct texts shared by many rows, so the row names each by a `Sym`
//! of the store's one string table ([`MetaRows`]), and reads materialize a
//! [`MetaRow`] view. The image, the redo log and recovery speak the view's
//! text, resolved under the store's guard.

use crate::pages::RowPages;
use crate::snapshot::{Field, ImageWriter};
use crate::wal::{WalHook, WalOp};
use serde::{Deserialize, Serialize};
use srb_types::sync::{LockRank, RwLock, RwLockReadGuard};
use srb_types::value::like_match;
use srb_types::{
    like_scan_prefix, CollectionId, CompareOp, DatasetId, GenCounter, Generation, IdGen, IdMap,
    IdSet, MetaId, MetaValue, SrbError, SrbResult, Triplet,
};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// What a metadata row is attached to. Ordered by variant, then id: every
/// dataset sorts before every collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Subject {
    /// A dataset.
    Dataset(DatasetId),
    /// A collection.
    Collection(CollectionId),
}

impl std::fmt::Display for Subject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Subject::Dataset(d) => write!(f, "{d}"),
            Subject::Collection(c) => write!(f, "{c}"),
        }
    }
}

/// Which of the paper's metadata categories a row belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetaKind {
    /// Maintained by SRB itself.
    System,
    /// Free-form user-defined triplet.
    UserDefined,
    /// Part of a named type-oriented schema (e.g. `DublinCore`).
    TypeOriented(String),
    /// Extracted from / carried by a metadata file (the carrying dataset).
    FileBased(DatasetId),
}

/// One metadata row, as reads return it and the image and the redo log
/// write it. The store keeps a compact form of it; see the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaRow {
    /// Catalog id.
    pub id: MetaId,
    /// What the row describes.
    pub subject: Subject,
    /// The (name, value, units) triplet.
    pub triplet: Triplet,
    /// Category.
    pub kind: MetaKind,
}

// Row budgets: a metadata page holds 1 024 stored rows inline, and a view
// is what every read hands out; a field that grows either fails the build.
const _: () = assert!(std::mem::size_of::<MetaRow>() <= 120);
const _: () = assert!(std::mem::size_of::<StoredRow>() <= 72);

/// The fifteen Dublin Core elements, as the paper's canonical example of a
/// type-oriented schema.
pub const DUBLIN_CORE: [&str; 15] = [
    "Title",
    "Creator",
    "Subject",
    "Description",
    "Publisher",
    "Contributor",
    "Date",
    "Type",
    "Format",
    "Identifier",
    "Source",
    "Language",
    "Relation",
    "Coverage",
    "Rights",
];

/// A text of a store's string table: an attribute name, a units string or
/// a schema name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Sym(u32);

// Symbols are assigned by the store, never typed by a user.
impl srb_types::CatalogKey for Sym {}

/// Each distinct text the rows of one store name, held once with the
/// number of row fields naming it. A text goes when its last use does,
/// and its symbol is handed out again.
#[derive(Debug, Default, Clone)]
struct Strings {
    /// Symbol → its text and uses; `None` for a free symbol.
    slots: Vec<Option<(Arc<str>, usize)>>,
    /// Text → symbol.
    syms: HashMap<Arc<str>, Sym>,
    /// Free symbols, reused first.
    free: Vec<u32>,
}

impl Strings {
    /// The symbol of `text`, counting one more use of it.
    fn intern(&mut self, text: &str) -> Sym {
        if let Some(&sym) = self.syms.get(text) {
            if let Some((_, uses)) = &mut self.slots[sym.0 as usize] {
                *uses += 1;
            }
            return sym;
        }
        let text: Arc<str> = Arc::from(text);
        let slot = Some((text.clone(), 1));
        let sym = match self.free.pop() {
            Some(n) => {
                self.slots[n as usize] = slot;
                Sym(n)
            }
            None => {
                self.slots.push(slot);
                Sym((self.slots.len() - 1) as u32)
            }
        };
        self.syms.insert(text, sym);
        sym
    }

    /// The symbol of `text`, if a row names it.
    fn get(&self, text: &str) -> Option<Sym> {
        self.syms.get(text).copied()
    }

    /// The text of `sym`.
    fn text(&self, sym: Sym) -> &str {
        match self.slots.get(sym.0 as usize) {
            Some(Some((text, _))) => text,
            _ => "",
        }
    }

    /// One use of `sym` fewer; the text goes with its last use.
    fn release(&mut self, sym: Sym) {
        let Some(slot) = self.slots.get_mut(sym.0 as usize) else {
            return;
        };
        if let Some((text, uses)) = slot {
            *uses -= 1;
            if *uses == 0 {
                self.syms.remove(&**text);
                *slot = None;
                self.free.push(sym.0);
            }
        }
    }
}

/// [`MetaKind`] with its schema name as a symbol.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StoredKind {
    System,
    UserDefined,
    TypeOriented(Sym),
    FileBased(DatasetId),
}

/// A metadata row as the store holds it: the triplet's name and units,
/// and the schema of a type-oriented row, are symbols of the store's
/// string table.
#[derive(Debug, Clone)]
pub(crate) struct StoredRow {
    pub(crate) id: MetaId,
    subject: Subject,
    value: MetaValue,
    name: Sym,
    units: Sym,
    kind: StoredKind,
}

/// A store's metadata rows, in id pages, and the string table their
/// symbols point into: what the image holds, what recovery and the redo
/// log decode into, and what `MetaStore::restore` builds its indexes
/// over. [`MetaRows::iter`] reads the rows as [`MetaRow`]s.
#[derive(Debug, Default, Clone)]
pub struct MetaRows {
    rows: RowPages<StoredRow>,
    strings: Strings,
}

impl MetaRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in id order, each as a [`MetaRow`].
    pub fn iter(&self) -> impl Iterator<Item = MetaRow> + '_ {
        self.rows.iter().map(|r| self.view(r))
    }

    /// The highest row id.
    pub(crate) fn last_id(&self) -> Option<MetaId> {
        self.rows.iter().next_back().map(|r| r.id)
    }

    fn get(&self, id: MetaId) -> Option<&StoredRow> {
        self.rows.get(id)
    }

    /// `row` as reads return it.
    fn view(&self, row: &StoredRow) -> MetaRow {
        MetaRow {
            id: row.id,
            subject: row.subject,
            triplet: Triplet {
                name: self.strings.text(row.name).to_string(),
                value: row.value.clone(),
                units: self.strings.text(row.units).to_string(),
            },
            kind: match row.kind {
                StoredKind::System => MetaKind::System,
                StoredKind::UserDefined => MetaKind::UserDefined,
                StoredKind::TypeOriented(s) => {
                    MetaKind::TypeOriented(self.strings.text(s).to_string())
                }
                StoredKind::FileBased(d) => MetaKind::FileBased(d),
            },
        }
    }

    /// Put `row` under its id, its texts interned; returns whether a row
    /// was replaced.
    pub(crate) fn put(&mut self, row: MetaRow) -> bool {
        let kind = match &row.kind {
            MetaKind::System => StoredKind::System,
            MetaKind::UserDefined => StoredKind::UserDefined,
            MetaKind::TypeOriented(s) => StoredKind::TypeOriented(self.strings.intern(s)),
            MetaKind::FileBased(d) => StoredKind::FileBased(*d),
        };
        let stored = StoredRow {
            id: row.id,
            subject: row.subject,
            name: self.strings.intern(&row.triplet.name),
            units: self.strings.intern(&row.triplet.units),
            value: row.triplet.value,
            kind,
        };
        self.insert(stored)
    }

    /// Put a row whose symbols are already counted; returns whether a row
    /// was replaced, its uses let go.
    fn insert(&mut self, row: StoredRow) -> bool {
        match self.rows.insert(row) {
            Some(old) => {
                self.release(&old);
                true
            }
            None => false,
        }
    }

    /// Give row `id` a new value and units; returns the value it had.
    fn update(&mut self, id: MetaId, value: MetaValue, units: &str) -> Option<MetaValue> {
        let row = self.rows.get_mut(id)?;
        let units = self.strings.intern(units);
        self.strings
            .release(std::mem::replace(&mut row.units, units));
        Some(std::mem::replace(&mut row.value, value))
    }

    /// Take the row with id `id` out, its uses let go.
    pub(crate) fn remove(&mut self, id: MetaId) -> Option<StoredRow> {
        let row = self.rows.remove(id)?;
        self.release(&row);
        Some(row)
    }

    fn release(&mut self, row: &StoredRow) {
        self.strings.release(row.name);
        self.strings.release(row.units);
        if let StoredKind::TypeOriented(s) = row.kind {
            self.strings.release(s);
        }
    }

    /// The image's `"metadata"` field: every row as its [`MetaRow`] view's
    /// row form.
    fn write_image(&self, w: &mut ImageWriter<'_, '_>) {
        w.pages_as(Field::Metadata, &self.rows, |row, out| {
            self.view(row).write_row(out)
        });
    }
}

/// A value's key in the ordered index. A number — an `Int`, a `Float`, or
/// text that reads as one — is held as its value; text as its raw form,
/// plus its case fold when that is not the raw form's ASCII lowercase.
#[derive(Debug, Clone)]
enum IndexKey {
    Num(f64),
    /// Text whose ASCII lowercase is its fold.
    Text(Box<str>),
    /// Text whose fold lowercases beyond ASCII.
    Folded(Box<FoldedText>),
}

#[derive(Debug, Clone)]
struct FoldedText {
    raw: Box<str>,
    fold: Box<str>,
}

// Key budget: every value-index entry holds one key.
const _: () = assert!(std::mem::size_of::<IndexKey>() <= 24);

impl IndexKey {
    fn new(v: &MetaValue) -> Self {
        let raw = match (v.as_f64(), v) {
            (Some(n), _) => return IndexKey::Num(n),
            (None, MetaValue::Text(s)) => s.as_str(),
            // A number always has a numeric view.
            (None, _) => "",
        };
        if raw.is_ascii() {
            return IndexKey::Text(raw.into());
        }
        let fold = raw.to_lowercase();
        if fold.bytes().eq(raw.bytes().map(|b| b.to_ascii_lowercase())) {
            return IndexKey::Text(raw.into());
        }
        IndexKey::Folded(Box::new(FoldedText {
            raw: raw.into(),
            fold: fold.into(),
        }))
    }

    /// Whether the key is text whose fold starts with `prefix`, itself a
    /// fold.
    fn fold_starts_with(&self, prefix: &str) -> bool {
        match self {
            IndexKey::Num(_) => false,
            IndexKey::Text(raw) => raw
                .as_bytes()
                .get(..prefix.len())
                .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes())),
            IndexKey::Folded(t) => t.fold.starts_with(prefix),
        }
    }

    /// Whether the rows filed under this key satisfy `op value`: `Some`
    /// when the key decides it for all of them, `None` when each row must
    /// be asked — `LIKE` and `NOT LIKE` on a number, which its rows may
    /// spell differently (`1`, `1.0`, `"1e0"`). Agrees with
    /// [`CompareOp::eval`] on every row filed here.
    fn eval(&self, op: CompareOp, value: &MetaValue) -> Option<bool> {
        let raw = match self {
            IndexKey::Num(_) if matches!(op, CompareOp::Like | CompareOp::NotLike) => {
                return None;
            }
            IndexKey::Num(n) => return Some(op.eval(&MetaValue::Float(*n), value)),
            IndexKey::Text(raw) => raw,
            IndexKey::Folded(t) => &t.raw,
        };
        let probe = KeyProbe::new(value);
        // Text is equal to text only, and ordered against text only.
        let order = probe.num.is_none().then(|| key_cmp(self, &probe));
        Some(match op {
            CompareOp::Eq => order == Some(Ordering::Equal),
            CompareOp::Ne => order != Some(Ordering::Equal),
            CompareOp::Gt => order == Some(Ordering::Greater),
            CompareOp::Lt => order == Some(Ordering::Less),
            CompareOp::Ge => matches!(order, Some(Ordering::Greater | Ordering::Equal)),
            CompareOp::Le => matches!(order, Some(Ordering::Less | Ordering::Equal)),
            CompareOp::Like => like_match(&value.lexical(), raw),
            CompareOp::NotLike => !like_match(&value.lexical(), raw),
        })
    }
}

/// What the index order reads of a key: its numeric view, and for a text
/// key its case fold and raw form. A stored [`IndexKey`] and a borrowed
/// [`KeyProbe`] both have them, so a lookup need not build a key: the
/// map is searched as `dyn KeyView`.
trait KeyView {
    /// The numeric view; `None` for pure text.
    fn num(&self) -> Option<f64>;
    /// Text whose bytes, ASCII-lowercased, are the key's case fold: the
    /// fold itself (lowercasing it again changes nothing), or raw text
    /// whose fold that is.
    fn fold(&self) -> Option<&str>;
    /// Raw lexical form of a text key.
    fn raw(&self) -> &str;
}

impl KeyView for IndexKey {
    fn num(&self) -> Option<f64> {
        match self {
            IndexKey::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn fold(&self) -> Option<&str> {
        match self {
            IndexKey::Num(_) => None,
            IndexKey::Text(raw) => Some(raw),
            IndexKey::Folded(t) => Some(&t.fold),
        }
    }

    fn raw(&self) -> &str {
        match self {
            IndexKey::Num(_) => "",
            IndexKey::Text(raw) => raw,
            IndexKey::Folded(t) => &t.raw,
        }
    }
}

/// A value's place in the index, borrowed: no clone of the value, and no
/// folded copy of ASCII text.
struct KeyProbe<'a> {
    num: Option<f64>,
    fold: Option<Cow<'a, str>>,
    raw: &'a str,
}

impl<'a> KeyProbe<'a> {
    fn new(v: &'a MetaValue) -> Self {
        let num = v.as_f64();
        let raw = match v {
            MetaValue::Text(s) if num.is_none() => s.as_str(),
            _ => "",
        };
        let fold = match num {
            Some(_) => None,
            None if raw.is_ascii() => Some(Cow::Borrowed(raw)),
            None => Some(Cow::Owned(raw.to_lowercase())),
        };
        KeyProbe { num, fold, raw }
    }

    /// The start of the text region whose folds are at or after `fold`:
    /// it sorts after every number, and at or before every text key whose
    /// fold is at least `fold` (its raw form is empty, the least
    /// tie-break). A range-scan probe, never stored.
    fn text(fold: &'a str) -> Self {
        KeyProbe {
            num: None,
            fold: Some(Cow::Borrowed(fold)),
            raw: "",
        }
    }

    fn view(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl KeyView for KeyProbe<'_> {
    fn num(&self) -> Option<f64> {
        self.num
    }

    fn fold(&self) -> Option<&str> {
        self.fold.as_deref()
    }

    fn raw(&self) -> &str {
        self.raw
    }
}

/// A row of an attribute's run as `MetaStore::restore` sorts it, keyed
/// once: the number its value reads as, or its text's fold. The raw form
/// is read from the row, so a run costs 32 bytes a row.
struct Keyed<'a> {
    key: Result<f64, Cow<'a, str>>,
    row: &'a StoredRow,
}

const _: () = assert!(std::mem::size_of::<Keyed>() <= 32);

impl<'a> Keyed<'a> {
    fn new(row: &'a StoredRow) -> Self {
        let KeyProbe { num, fold, .. } = KeyProbe::new(&row.value);
        let key = num.ok_or_else(|| fold.unwrap_or_default());
        Keyed { key, row }
    }
}

impl KeyView for Keyed<'_> {
    fn num(&self) -> Option<f64> {
        self.key.as_ref().ok().copied()
    }

    fn fold(&self) -> Option<&str> {
        self.key.as_ref().err().map(|fold| &**fold)
    }

    fn raw(&self) -> &str {
        match (&self.key, &self.row.value) {
            (Err(_), MetaValue::Text(raw)) => raw,
            _ => "",
        }
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for IndexKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

/// Numbers first, by value; then text by case fold, raw form breaking
/// ties.
fn key_cmp<A: KeyView + ?Sized, B: KeyView + ?Sized>(a: &A, b: &B) -> Ordering {
    match (a.num(), b.num()) {
        (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => {
            let (fa, fb) = (a.fold().unwrap_or_default(), b.fold().unwrap_or_default());
            let lower = |b: u8| b.to_ascii_lowercase();
            match fa.bytes().map(lower).cmp(fb.bytes().map(lower)) {
                Ordering::Equal => a.raw().cmp(b.raw()),
                o => o,
            }
        }
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        key_cmp(self, other) == Ordering::Equal
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        key_cmp(self, other)
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        key_cmp(self, other)
    }
}

/// The rows filed under one index key, as `(subject, row id)` pairs in
/// ascending order. Insert and remove are its only mutators, so the order
/// always holds: a subject's membership is one binary search, and the
/// dataset subjects are a prefix (they sort before collections).
///
/// Most keys (a `serial`) are unique, so one row is held inline; `Many`
/// always holds two or more, so one set of rows has one shape. A posting
/// is never empty: the index drops it with its last row.
#[derive(Debug, PartialEq)]
enum Posting {
    One((Subject, MetaId)),
    Many(Vec<(Subject, MetaId)>),
}

impl Posting {
    /// The posting of `entries`, ascending and not empty.
    fn of(entries: impl ExactSizeIterator<Item = (Subject, MetaId)>) -> Self {
        let mut entries = entries.peekable();
        match (entries.len(), entries.peek()) {
            (1, Some(&one)) => Posting::One(one),
            _ => Posting::Many(entries.collect()),
        }
    }

    fn entries(&self) -> &[(Subject, MetaId)] {
        match self {
            Posting::One(entry) => std::slice::from_ref(entry),
            Posting::Many(v) => v,
        }
    }

    /// File a row. New dataset and row ids ascend, so every ingest
    /// appends in O(1); an entry that sorts earlier is placed by binary
    /// search and costs O(posting), as its removal does.
    fn insert(&mut self, subject: Subject, id: MetaId) {
        let entry = (subject, id);
        match self {
            Posting::One(only) => {
                let pair = if *only > entry {
                    [entry, *only]
                } else {
                    [*only, entry]
                };
                *self = Posting::Many(pair.to_vec());
            }
            Posting::Many(v) => match v.last() {
                Some(last) if *last > entry => {
                    let at = v.partition_point(|e| *e < entry);
                    v.insert(at, entry);
                }
                _ => v.push(entry),
            },
        }
    }

    /// Unfile a row, if it is filed here; `true` when that leaves the
    /// posting empty, for the caller to drop.
    fn remove(&mut self, subject: Subject, id: MetaId) -> bool {
        let entry = (subject, id);
        match self {
            Posting::One(only) => *only == entry,
            Posting::Many(v) => {
                if let Ok(at) = v.binary_search(&entry) {
                    v.remove(at);
                }
                if let [only] = v[..] {
                    *self = Posting::One(only);
                }
                false
            }
        }
    }

    /// Keep the datasets of `ids`, ascending, that have a row filed
    /// here. One forward walk: from each survivor to the next, the
    /// posting is searched by galloping — probes 1, 2, 4, … entries ahead,
    /// then a binary search inside the last step — so a short survivor
    /// list costs O(log posting) per survivor and a long one O(posting)
    /// in all.
    fn retain_datasets(&self, ids: &mut Vec<DatasetId>) {
        let mut rest = self.entries();
        ids.retain(|&d| {
            let subject = Subject::Dataset(d);
            let (mut lo, mut step) = (0, 1);
            while let Some(probe) = rest.get(lo + step - 1) {
                if probe.0 >= subject {
                    break;
                }
                lo += step;
                step *= 2;
            }
            let hi = (lo + step).min(rest.len());
            let at = lo + rest[lo..hi].partition_point(|(s, _)| *s < subject);
            rest = &rest[at..];
            rest.first().is_some_and(|(s, _)| *s == subject)
        });
    }

    /// The dataset rows filed here, read straight out of the posting.
    fn dataset_rows(&self) -> impl Iterator<Item = (DatasetId, MetaId)> + '_ {
        self.entries().iter().map_while(|&(s, id)| match s {
            Subject::Dataset(d) => Some((d, id)),
            Subject::Collection(_) => None,
        })
    }

    /// The dataset subjects filed here (once per row, so a dataset with
    /// two equal rows appears twice).
    fn datasets(&self) -> impl Iterator<Item = DatasetId> + '_ {
        self.dataset_rows().map(|(d, _)| d)
    }

    fn len(&self) -> usize {
        self.entries().len()
    }
}

/// A subject's row ids, in the order they were added. Most subjects carry
/// one or two rows, held inline; `Many` always holds three or more, so one
/// list has one shape. Never empty: the subject is dropped with its last
/// row.
#[derive(Debug, Clone, PartialEq)]
enum RowIds {
    One(MetaId),
    Two([MetaId; 2]),
    Many(Vec<MetaId>),
}

impl RowIds {
    fn as_slice(&self) -> &[MetaId] {
        match self {
            RowIds::One(id) => std::slice::from_ref(id),
            RowIds::Two(ids) => ids,
            RowIds::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: MetaId) {
        match self {
            RowIds::One(a) => *self = RowIds::Two([*a, id]),
            RowIds::Two([a, b]) => *self = RowIds::Many(vec![*a, *b, id]),
            RowIds::Many(ids) => ids.push(id),
        }
    }

    /// Drop `id`; `true` when that leaves the list empty, for the caller
    /// to drop.
    fn remove(&mut self, id: MetaId) -> bool {
        match self {
            RowIds::One(a) => *a == id,
            RowIds::Two([a, b]) => {
                if *a == id {
                    *self = RowIds::One(*b);
                } else if *b == id {
                    *self = RowIds::One(*a);
                }
                false
            }
            RowIds::Many(ids) => {
                ids.retain(|&m| m != id);
                if let [a, b] = ids[..] {
                    *self = RowIds::Two([a, b]);
                }
                false
            }
        }
    }
}

/// Everything the store derives about one attribute name.
#[derive(Debug, Default)]
struct Attr {
    /// Ordered value → the rows carrying it.
    vals: BTreeMap<IndexKey, Posting>,
    /// Rows of this name, maintained incrementally so the planner's
    /// partition-wide selectivity estimate is O(1) instead of a walk over
    /// every distinct value.
    rows: usize,
    /// Datasets carrying **two or more** rows of this name. Conjunctive
    /// conditions are satisfied per condition, by *any* row, so on such a
    /// dataset different rows may satisfy the two halves of a range
    /// (`{0, 2}` matches `>= 2 AND < 1`); an interval walk over the value
    /// index sees one key at a time and would miss it. Members are probed
    /// per condition and unioned into every interval result. Empty for
    /// single-valued attributes, so the walk stays O(window).
    multi: IdSet<DatasetId>,
}

#[derive(Debug, Default)]
struct Inner {
    rows: MetaRows,
    by_subject: IdMap<Subject, RowIds>,
    /// Attribute name → its index, row count and multi-valued datasets;
    /// present while a row carries the name.
    attrs: IdMap<Sym, Attr>,
    /// file-based metadata associations: subject → carrying datasets.
    meta_files: IdMap<Subject, Vec<DatasetId>>,
}

impl Inner {
    /// What the store derives about attribute `name`, if a row carries it.
    fn attr(&self, name: &str) -> Option<&Attr> {
        self.attrs.get(&self.rows.strings.get(name)?)
    }

    /// The stored rows of `subject`, in the order they were added.
    fn rows_of(&self, subject: Subject) -> impl Iterator<Item = &StoredRow> + '_ {
        let ids = self.by_subject.get(&subject).map(RowIds::as_slice);
        let ids = ids.unwrap_or_default().iter();
        ids.filter_map(|&id| self.rows.get(id))
    }

    /// The stored rows of `subject` whose attribute is `name`.
    fn rows_named<'a>(
        &'a self,
        subject: Subject,
        name: &str,
    ) -> impl Iterator<Item = &'a StoredRow> + 'a {
        let sym = self.rows.strings.get(name);
        self.rows_of(subject)
            .filter(move |r| sym.is_some_and(|s| r.name == s))
    }
}

/// The triplet store.
#[derive(Debug)]
pub struct MetaStore {
    inner: RwLock<Inner>,
    /// Bumped by every row mutation; paging cursors over query results
    /// stamp themselves with this counter (plus the dataset and collection
    /// ones) and are rejected once it moves.
    generation: GenCounter,
    /// The catalog's redo-log hook.
    wal: WalHook,
}

impl Default for MetaStore {
    fn default() -> Self {
        MetaStore {
            inner: RwLock::new(LockRank::McatTable, "mcat.metadata", Inner::default()),
            generation: GenCounter::new(),
            wal: WalHook::default(),
        }
    }
}

impl MetaStore {
    /// Empty store.
    pub fn new() -> Self {
        MetaStore::default()
    }

    /// Attach a triplet to a subject. There is no limit on rows per
    /// subject ("this operation can be performed as many times as
    /// required").
    pub fn add(&self, ids: &IdGen, subject: Subject, triplet: Triplet, kind: MetaKind) -> MetaId {
        let mut g = self.inner.write();
        let gen = self.generation.bump_get().raw();
        self.insert_new(&mut g, ids, gen, subject, triplet, kind)
    }

    /// Add many rows under a single write-lock acquisition — the metadata
    /// half of every ingest. Ids are assigned in iteration order, and each
    /// row bumps the generation once, exactly as [`MetaStore::add`] would.
    pub fn add_batch<I>(&self, ids: &IdGen, rows: I) -> Vec<MetaId>
    where
        I: IntoIterator<Item = (Subject, Triplet, MetaKind)>,
    {
        let mut g = self.inner.write();
        rows.into_iter()
            .map(|(subject, triplet, kind)| {
                let gen = self.generation.bump_get().raw();
                self.insert_new(&mut g, ids, gen, subject, triplet, kind)
            })
            .collect()
    }

    /// The one builder of a new row, under the caller's write guard and
    /// generation stamp: next id, row image logged, indexes maintained.
    fn insert_new(
        &self,
        g: &mut Inner,
        ids: &IdGen,
        gen: u64,
        subject: Subject,
        triplet: Triplet,
        kind: MetaKind,
    ) -> MetaId {
        let id: MetaId = ids.next();
        let row = MetaRow {
            id,
            subject,
            triplet,
            kind,
        };
        self.wal.log(gen, || WalOp::MetaPut { row: row.clone() });
        g.rows.put(row);
        Self::index_locked(g, id);
        id
    }

    /// File row `id`, held in `g.rows`, in the derived state: subject
    /// list, value index, per-attribute count and the multi-valued side
    /// set.
    fn index_locked(g: &mut Inner, id: MetaId) {
        let Some(row) = g.rows.get(id) else {
            return;
        };
        let attr = g.attrs.entry(row.name).or_default();
        match g.by_subject.get_mut(&row.subject) {
            Some(ids) => {
                // One pass over the subject's earlier rows (O(k) for its
                // k-th row; a dataset carries a handful).
                if let Subject::Dataset(d) = row.subject {
                    let rows = &g.rows;
                    let named = |&m: &MetaId| rows.get(m).is_some_and(|r| r.name == row.name);
                    if ids.as_slice().iter().any(named) {
                        attr.multi.insert(d);
                    }
                }
                ids.push(id);
            }
            None => {
                g.by_subject.insert(row.subject, RowIds::One(id));
            }
        }
        file(&mut attr.vals, &row.value, row.subject, id);
        attr.rows += 1;
    }

    /// Update a row's value/units in place.
    pub fn update(&self, id: MetaId, value: MetaValue, units: String) -> SrbResult<()> {
        let mut g = self.inner.write();
        let g = &mut *g;
        let old = g
            .rows
            .update(id, value, &units)
            .ok_or_else(|| SrbError::NotFound(format!("metadata {id}")))?;
        let gen = self.generation.bump_get().raw();
        if let Some(row) = g.rows.get(id) {
            // Re-index under the new value (the attribute name is
            // unchanged, so the per-attribute row count is too).
            if let Some(attr) = g.attrs.get_mut(&row.name) {
                unindex(&mut attr.vals, &old, row.subject, id);
                file(&mut attr.vals, &row.value, row.subject, id);
            }
            let rows = &g.rows;
            self.wal.log(gen, || WalOp::MetaPut {
                row: rows.view(row),
            });
        }
        Ok(())
    }

    /// Remove one row, and with it every piece of derived state left
    /// empty: the subject's list, the value's posting, the attribute's
    /// entry, its multi-valued membership. The store then equals a
    /// `MetaStore::restore` of its own rows.
    pub fn remove(&self, id: MetaId) -> SrbResult<()> {
        let mut g = self.inner.write();
        let row = g
            .rows
            .remove(id)
            .ok_or_else(|| SrbError::NotFound(format!("metadata {id}")))?;
        self.drop_row(&mut g, id, row);
        Ok(())
    }

    /// Let go of what `row`, just taken out of the rows under id `id`,
    /// held in the indexes, and log its delete.
    fn drop_row(&self, g: &mut Inner, id: MetaId, row: StoredRow) {
        let left = match g.by_subject.get_mut(&row.subject) {
            Some(ids) => {
                if ids.remove(id) {
                    g.by_subject.remove(&row.subject);
                    0
                } else {
                    let rows = &g.rows;
                    let named = |&&m: &&MetaId| rows.get(m).is_some_and(|r| r.name == row.name);
                    ids.as_slice().iter().filter(named).count()
                }
            }
            None => 0,
        };
        if let Some(attr) = g.attrs.get_mut(&row.name) {
            unindex(&mut attr.vals, &row.value, row.subject, id);
            attr.rows = attr.rows.saturating_sub(1);
            if let Subject::Dataset(d) = row.subject {
                if left < 2 {
                    attr.multi.remove(&d);
                }
            }
            if attr.rows == 0 {
                g.attrs.remove(&row.name);
            }
        }
        let gen = self.generation.bump_get().raw();
        self.wal.log(gen, || WalOp::MetaDelete { id });
    }

    /// Remove every row attached to a subject ("when the last replica is
    /// deleted all the metadata … are also deleted"), and its meta-files,
    /// under one write guard: a `MetaDelete` per row, then one
    /// `MetaFilesClear`.
    pub fn remove_all(&self, subject: Subject) {
        let mut g = self.inner.write();
        let ids = g
            .by_subject
            .get(&subject)
            .map(|ids| ids.as_slice().to_vec());
        for id in ids.unwrap_or_default() {
            if let Some(row) = g.rows.remove(id) {
                self.drop_row(&mut g, id, row);
            }
        }
        if g.meta_files.remove(&subject).is_some() {
            self.wal.log(0, || WalOp::MetaFilesClear { subject });
        }
    }

    /// All rows for a subject, in insertion order.
    pub fn for_subject(&self, subject: Subject) -> Vec<MetaRow> {
        let g = self.inner.read();
        g.rows_of(subject).map(|r| g.rows.view(r)).collect()
    }

    /// Copy user-defined and type-oriented rows from one subject to
    /// another (MySRB's "copy metadata from other SRB objects").
    pub fn copy(&self, ids: &IdGen, from: Subject, to: Subject) -> usize {
        let rows = self.for_subject(from);
        let mut n = 0;
        for r in rows {
            match &r.kind {
                MetaKind::UserDefined | MetaKind::TypeOriented(_) => {
                    self.add(ids, to, r.triplet.clone(), r.kind.clone());
                    n += 1;
                }
                _ => {}
            }
        }
        n
    }

    /// First value of a named attribute on a subject. One read guard, one
    /// clone: only the matched value is copied out, never the subject's
    /// full row vector.
    pub(crate) fn value_of(&self, subject: Subject, name: &str) -> Option<MetaValue> {
        let g = self.inner.read();
        let value = g.rows_named(subject, name).next().map(|r| r.value.clone());
        value
    }

    /// Dataset subjects with at least one row whose attribute `name`
    /// satisfies `op value` — exactly the datasets satisfying that query
    /// condition through user metadata — found via the ordered index
    /// (`Like`/`NotLike`/`Ne` scan only that attribute's partition). Index
    /// walk and row resolution run under a single read guard; the planner
    /// intersects these sets.
    pub(crate) fn dataset_candidates(
        &self,
        name: &str,
        op: CompareOp,
        value: &MetaValue,
    ) -> IdSet<DatasetId> {
        let g = self.inner.read();
        let mut out = IdSet::default();
        walk_index(&g, name, op, value, &mut out);
        out
    }

    /// Datasets satisfying **every** range condition in `conds` on the one
    /// attribute `name` — the planner's *interval source*. Equal to
    /// intersecting [`Self::dataset_candidates`] over the conditions, but
    /// served by one bounded walk between the tightest lower and upper
    /// bound (each operator re-checked per key, as the one-sided walks
    /// do), plus a per-condition probe of the datasets carrying several
    /// rows of `name`, which different rows may qualify. An inverted or
    /// empty interval yields the probed datasets only.
    pub(crate) fn interval_dataset_candidates(
        &self,
        name: &str,
        conds: &[RangeCond<'_>],
    ) -> IdSet<DatasetId> {
        let g = self.inner.read();
        let mut out = IdSet::default();
        let Some(attr) = g.attr(name) else {
            return out;
        };
        for (k, posting) in interval_range(attr, conds).into_iter().flatten() {
            emit_matching(&g, k, posting, conds, &mut out);
        }
        out.extend(attr.multi.iter().copied().filter(|d| {
            conds
                .iter()
                .all(|&(op, v)| subject_matches_locked(&g, Subject::Dataset(*d), name, op, v))
        }));
        out
    }

    /// Estimated match count of an interval source: the rows between its
    /// bounds (exact below `RANGE_SELECTIVITY_CAP`) plus every dataset
    /// the multi-valued probe must visit.
    pub fn interval_selectivity(&self, name: &str, conds: &[RangeCond<'_>]) -> usize {
        let g = self.inner.read();
        let Some(attr) = g.attr(name) else {
            return 0;
        };
        let mut n = attr.multi.len();
        for (_, posting) in interval_range(attr, conds).into_iter().flatten() {
            n += posting.len();
            if n >= Self::RANGE_SELECTIVITY_CAP {
                break;
            }
        }
        n
    }

    /// Drop from `ids`, ascending, every dataset with **no** row
    /// satisfying `name op value`. Equivalent to intersecting with
    /// [`Self::dataset_candidates`], but costs each survivor one probe
    /// under one read guard — the planner picks this form when the
    /// condition's match count dwarfs the surviving candidate set.
    ///
    /// An `=` condition is one galloping walk of the value's one posting
    /// alongside the survivors (`Posting::retain_datasets`): `IndexKey`
    /// equality is exactly `CompareOp::Eq` (numeric when both sides
    /// parse, byte-equal text otherwise), so that posting holds exactly
    /// the rows satisfying the condition. Any other operator walks the
    /// survivor's own rows.
    pub(crate) fn filter_datasets(
        &self,
        ids: &mut Vec<DatasetId>,
        name: &str,
        op: CompareOp,
        value: &MetaValue,
    ) {
        let g = self.inner.read();
        if op == CompareOp::Eq {
            let probe = KeyProbe::new(value);
            match g.attr(name).and_then(|a| a.vals.get(probe.view())) {
                Some(posting) => posting.retain_datasets(ids),
                None => ids.clear(),
            }
            return;
        }
        ids.retain(|d| subject_matches_locked(&g, Subject::Dataset(*d), name, op, value));
    }

    /// Keys examined before a range-selectivity estimate gives up and
    /// reports "at least this many". Keeps the estimate O(1)-ish while
    /// still separating a 10-row range from a 10⁶-row one.
    const RANGE_SELECTIVITY_CAP: usize = 4096;

    /// Estimated number of matches for a condition, used by the planner to
    /// pick the most selective condition first and to decide between an
    /// index plan and a full scan. `Eq` is exact; range and prefix-`Like`
    /// conditions walk their index range up to
    /// `RANGE_SELECTIVITY_CAP` rows (a lower bound past the cap);
    /// other patterns fall back to the O(1) whole-partition count.
    pub fn selectivity(&self, name: &str, op: CompareOp, value: &MetaValue) -> usize {
        let g = self.inner.read();
        let Some(attr) = g.attr(name) else {
            return 0;
        };
        let partition = attr.rows;
        let capped_count = |it: &mut dyn Iterator<Item = usize>| -> usize {
            let mut n = 0usize;
            for len in it {
                n += len;
                if n >= Self::RANGE_SELECTIVITY_CAP {
                    break;
                }
            }
            n.min(partition)
        };
        match op {
            CompareOp::Eq => attr
                .vals
                .get(KeyProbe::new(value).view())
                .map_or(0, Posting::len),
            // A one-sided range is an interval with one end unbounded.
            CompareOp::Gt | CompareOp::Ge | CompareOp::Lt | CompareOp::Le => capped_count(
                &mut interval_range(attr, &[(op, value)])
                    .into_iter()
                    .flatten()
                    .map(|(_, posting)| posting.len()),
            ),
            CompareOp::Like => match like_scan_prefix(&value.lexical()) {
                Some(prefix) => {
                    capped_count(&mut prefix_range(attr, &prefix).map(|(_, posting)| posting.len()))
                }
                None => partition,
            },
            // `Ne`/`NotLike` scan the whole partition.
            _ => partition,
        }
    }

    /// A read guard over the store for a whole verification sweep: one
    /// lock acquisition serves any number of per-candidate condition
    /// probes, and rows are borrowed rather than cloned. This is what
    /// keeps a 6-condition query over 10⁵ candidates at one lock
    /// acquisition instead of ~600k.
    pub fn batch(&self) -> MetaBatch<'_> {
        MetaBatch {
            g: self.inner.read(),
        }
    }

    /// Attribute names carried by any dataset in `datasets`, sorted and
    /// deduplicated. One pass
    /// over the subject index with set-membership probes; no `Vec<Subject>`
    /// is materialized.
    pub(crate) fn attr_names_in(&self, datasets: &IdSet<DatasetId>) -> Vec<String> {
        let g = self.inner.read();
        let mut names = BTreeSet::new();
        for (subject, ids) in &g.by_subject {
            let Subject::Dataset(d) = subject else {
                continue;
            };
            if !datasets.contains(d) {
                continue;
            }
            for &id in ids.as_slice() {
                if let Some(r) = g.rows.get(id) {
                    names.insert(g.rows.strings.text(r.name));
                }
            }
        }
        names.into_iter().map(str::to_string).collect()
    }

    /// Associate `carrier` as a metadata-carrying file for `subject`. One
    /// file may serve many subjects.
    pub fn attach_meta_file(&self, subject: Subject, carrier: DatasetId) {
        let mut g = self.inner.write();
        let v = g.meta_files.entry(subject).or_default();
        if !v.contains(&carrier) {
            v.push(carrier);
            let files = &*v;
            self.wal.log(0, || WalOp::MetaFilesPut {
                subject,
                files: files.clone(),
            });
        }
    }

    /// The metadata-carrying files of a subject.
    pub fn meta_files_of(&self, subject: Subject) -> Vec<DatasetId> {
        self.inner
            .read()
            .meta_files
            .get(&subject)
            .cloned()
            .unwrap_or_default()
    }

    /// The image's `"metadata"` and `"meta_files"` fields, under one read
    /// guard.
    pub(crate) fn write_image(&self, w: &mut ImageWriter<'_, '_>) {
        let g = self.inner.read();
        g.rows.write_image(w);
        // Ordered by subject, not id: the whole field is one page.
        w.one_page(Field::MetaFiles, &meta_files_in_order(&g));
    }

    /// The store over image rows, its indexes built from them, logging
    /// through `wal`.
    ///
    /// Each attribute's value index is built from one sorted run: its rows
    /// each keyed once ([`Keyed`]), sorted by `(key, subject, id)` —
    /// linear when, as after an ingest-only history, id order already is
    /// key order — grouped into postings, and handed to
    /// `BTreeMap::from_iter`, which fills its nodes where inserts one key
    /// at a time leave them half empty. The rebuild's transient is one
    /// reference per row, grouped by attribute, plus the keyed run of one
    /// attribute at a time, gone before its map is built. Each subject's
    /// list is in id order, the order the live store added them in, and
    /// the subject map is sized once.
    pub(crate) fn restore(
        rows: MetaRows,
        meta_files: Vec<(Subject, Vec<DatasetId>)>,
        wal: &WalHook,
    ) -> Self {
        let mut named: IdMap<Sym, Vec<&StoredRow>> = IdMap::default();
        for r in rows.rows.iter() {
            named.entry(r.name).or_default().push(r);
        }
        let mut attrs: IdMap<Sym, Attr> = IdMap::default();
        attrs.reserve(named.len());
        for (sym, run) in named {
            let mut run: Vec<Keyed<'_>> = run.into_iter().map(Keyed::new).collect();
            run.sort_unstable_by(|a, b| {
                let order = key_cmp(a, b);
                order.then_with(|| (a.row.subject, a.row.id).cmp(&(b.row.subject, b.row.id)))
            });
            let same_key = |a: &Keyed<'_>, b: &Keyed<'_>| key_cmp(a, b).is_eq();
            // Counted first, so the postings take exactly their room, and
            // the keyed run goes before the map is built from them.
            let mut vals = Vec::with_capacity(run.chunk_by(same_key).count());
            for chunk in run.chunk_by(same_key) {
                let entries = chunk.iter().map(|k| (k.row.subject, k.row.id));
                vals.push((IndexKey::new(&chunk[0].row.value), Posting::of(entries)));
            }
            let rows = run.len();
            drop(run);
            let attr = Attr {
                vals: BTreeMap::from_iter(vals),
                rows,
                multi: IdSet::default(),
            };
            attrs.insert(sym, attr);
        }

        // A subject's rows are usually adjacent in id order (an ingest
        // adds them together), so the changes of subject along it count
        // the subjects, or bound them from above.
        let mut by_subject: IdMap<Subject, RowIds> = IdMap::default();
        let mut last = None;
        let runs = rows
            .rows
            .iter()
            .filter(|r| last.replace(r.subject) != Some(r.subject));
        by_subject.reserve(runs.count());
        for r in rows.rows.iter() {
            match by_subject.get_mut(&r.subject) {
                Some(ids) => ids.push(r.id),
                None => {
                    by_subject.insert(r.subject, RowIds::One(r.id));
                }
            }
        }
        let name = |id: MetaId| rows.get(id).map(|r| r.name);
        for (subject, ids) in &by_subject {
            let (Subject::Dataset(d), ids @ [_, _, ..]) = (subject, ids.as_slice()) else {
                continue;
            };
            for (i, &id) in ids.iter().enumerate() {
                let again = ids[..i].iter().any(|&m| name(m) == name(id));
                if let Some(attr) = name(id).filter(|_| again).and_then(|s| attrs.get_mut(&s)) {
                    attr.multi.insert(*d);
                }
            }
        }

        let t = MetaStore {
            wal: wal.clone(),
            ..MetaStore::default()
        };
        {
            let mut g = t.inner.write();
            g.rows = rows;
            g.by_subject = by_subject;
            g.attrs = attrs;
            g.meta_files.extend(meta_files);
        }
        t
    }

    /// Total number of rows.
    pub fn count(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// Current mutation generation (cursor invalidation and tests).
    pub(crate) fn generation(&self) -> Generation {
        self.generation.current()
    }

    /// Raise the mutation counter to at least `raw` (snapshot restore /
    /// WAL recovery — recovered cursors must see the stamps they embed).
    pub(crate) fn restore_generation(&self, raw: u64) {
        self.generation.ensure_at_least(raw);
    }
}

/// Borrowed view for batch condition verification; see [`MetaStore::batch`].
pub struct MetaBatch<'a> {
    g: RwLockReadGuard<'a, Inner>,
}

impl MetaBatch<'_> {
    /// Does `subject` carry any row whose attribute `name` satisfies
    /// `op value`? Evaluated against borrowed rows — no clones, no extra
    /// lock traffic.
    pub(crate) fn subject_matches(
        &self,
        subject: Subject,
        name: &str,
        op: CompareOp,
        value: &MetaValue,
    ) -> bool {
        subject_matches_locked(&self.g, subject, name, op, value)
    }

    /// First value of a named attribute on a subject, borrowed.
    pub(crate) fn value_of(&self, subject: Subject, name: &str) -> Option<&MetaValue> {
        self.g.rows_named(subject, name).next().map(|r| &r.value)
    }
}

/// Shared body of [`MetaBatch::subject_matches`] and
/// [`MetaStore::filter_datasets`]: probe a subject's own rows under an
/// already-held guard.
fn subject_matches_locked(
    g: &Inner,
    subject: Subject,
    name: &str,
    op: CompareOp,
    value: &MetaValue,
) -> bool {
    g.rows_named(subject, name)
        .any(|r| op.eval(&r.value, value))
}

/// The file-based associations, ordered by subject display (`c…` before
/// `d…`) as the image stores them.
fn meta_files_in_order(g: &Inner) -> Vec<(&Subject, &Vec<DatasetId>)> {
    let mut files: Vec<(&Subject, &Vec<DatasetId>)> = g.meta_files.iter().collect();
    files.sort_by_cached_key(|(s, _)| s.to_string());
    files
}

/// File row `id` of `subject` under `value`. The value is copied into a
/// key only for a new key.
fn file(vals: &mut BTreeMap<IndexKey, Posting>, value: &MetaValue, subject: Subject, id: MetaId) {
    match vals.get_mut(KeyProbe::new(value).view()) {
        Some(posting) => posting.insert(subject, id),
        None => {
            vals.insert(IndexKey::new(value), Posting::One((subject, id)));
        }
    }
}

/// Unfile row `id` of `subject` from the posting of `value`, dropping the
/// posting once it is empty.
fn unindex(
    vals: &mut BTreeMap<IndexKey, Posting>,
    value: &MetaValue,
    subject: Subject,
    id: MetaId,
) {
    let probe = KeyProbe::new(value);
    if vals
        .get_mut(probe.view())
        .is_some_and(|posting| posting.remove(subject, id))
    {
        vals.remove(probe.view());
    }
}

/// One folded operator of an interval source: `op value` on the source's
/// attribute, `op` one of `Gt`/`Ge`/`Lt`/`Le`.
pub type RangeCond<'a> = (CompareOp, &'a MetaValue);

/// Should a bound at `key` (exclusive if `excl`) replace `old`? `side` is
/// the direction of tightening: `Greater` for lower bounds, `Less` for
/// upper ones. At equal keys the exclusive bound is the tighter.
fn tightens(old: &Bound<KeyProbe<'_>>, key: &KeyProbe<'_>, excl: bool, side: Ordering) -> bool {
    match old {
        Bound::Unbounded => true,
        Bound::Included(k) => match key_cmp(key, k) {
            Ordering::Equal => excl,
            o => o == side,
        },
        Bound::Excluded(k) => key_cmp(key, k) == side,
    }
}

/// The index entries between the tightest lower and upper bound in
/// `conds`, or `None` when the interval is inverted or excludes its only
/// point — `BTreeMap::range` panics on such bounds, so they never reach
/// it.
fn interval_range<'g>(
    attr: &'g Attr,
    conds: &[RangeCond<'_>],
) -> Option<std::collections::btree_map::Range<'g, IndexKey, Posting>> {
    let (mut lo, mut hi) = (Bound::Unbounded, Bound::Unbounded);
    for &(op, value) in conds {
        let (bound, excl, side) = match op {
            CompareOp::Gt => (&mut lo, true, Ordering::Greater),
            CompareOp::Ge => (&mut lo, false, Ordering::Greater),
            CompareOp::Lt => (&mut hi, true, Ordering::Less),
            CompareOp::Le => (&mut hi, false, Ordering::Less),
            // Not a range operator: bounds nothing, re-checked per key.
            _ => continue,
        };
        let key = KeyProbe::new(value);
        if tightens(bound, &key, excl, side) {
            *bound = if excl {
                Bound::Excluded(key)
            } else {
                Bound::Included(key)
            };
        }
    }
    let non_empty = match (&lo, &hi) {
        (Bound::Included(a), Bound::Included(b)) => key_cmp(a, b) != Ordering::Greater,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            key_cmp(a, b) == Ordering::Less
        }
        _ => true,
    };
    let bounds = (
        lo.as_ref().map(KeyProbe::view),
        hi.as_ref().map(KeyProbe::view),
    );
    non_empty.then(|| attr.vals.range::<dyn KeyView, _>(bounds))
}

/// The text keys whose fold starts with `prefix`, itself a fold: the keys
/// from its probe on, while their fold extends it. Folds are contiguous
/// in the index order, and numbers sort before every text key.
fn prefix_range<'g>(
    attr: &'g Attr,
    prefix: &'g str,
) -> impl Iterator<Item = (&'g IndexKey, &'g Posting)> + 'g {
    let probe = KeyProbe::text(prefix);
    let from: (Bound<&dyn KeyView>, Bound<&dyn KeyView>) =
        (Bound::Included(probe.view()), Bound::Unbounded);
    attr.vals
        .range::<dyn KeyView, _>(from)
        .take_while(move |(k, _)| k.fold_starts_with(prefix))
}

/// Add to `out` the datasets filed in `posting`, under `key`, whose row
/// satisfies every `op value` of `conds`: all of them when the key decides
/// each condition, else each row asked in turn.
fn emit_matching(
    g: &Inner,
    key: &IndexKey,
    posting: &Posting,
    conds: &[RangeCond<'_>],
    out: &mut IdSet<DatasetId>,
) {
    let mut undecided = false;
    for &(op, value) in conds {
        match key.eval(op, value) {
            Some(true) => {}
            Some(false) => return,
            None => undecided = true,
        }
    }
    if !undecided {
        out.extend(posting.datasets());
        return;
    }
    for (d, id) in posting.dataset_rows() {
        let row = g.rows.get(id);
        if row.is_some_and(|r| conds.iter().all(|&(op, v)| op.eval(&r.value, v))) {
            out.insert(d);
        }
    }
}

/// Walk the ordered value index for `name`, adding to `out` the datasets
/// of every row whose value satisfies `op value`. Postings carry their
/// subjects, so the caller resolves nothing further.
fn walk_index(g: &Inner, name: &str, op: CompareOp, value: &MetaValue, out: &mut IdSet<DatasetId>) {
    let Some(attr) = g.attr(name) else {
        return;
    };
    let cond = [(op, value)];
    match op {
        CompareOp::Eq => {
            if let Some(v) = attr.vals.get(KeyProbe::new(value).view()) {
                out.extend(v.datasets());
            }
        }
        // A one-sided range is an interval with one end unbounded.
        CompareOp::Gt | CompareOp::Ge | CompareOp::Lt | CompareOp::Le => {
            for (k, v) in interval_range(attr, &cond).into_iter().flatten() {
                emit_matching(g, k, v, &cond, out);
            }
        }
        // A pattern with a usable literal prefix is a bounded range scan
        // over the case-folded text region: every `LIKE` match must start
        // (case-insensitively) with the prefix, folds are contiguous in the
        // index order, and numeric keys are excluded by `like_scan_prefix`
        // — so the scan starts at the prefix probe and stops at the first
        // fold that no longer extends it. The full pattern is still
        // evaluated per key (it may carry further wildcards).
        CompareOp::Like => match like_scan_prefix(&value.lexical()) {
            Some(prefix) => {
                for (k, v) in prefix_range(attr, &prefix) {
                    emit_matching(g, k, v, &cond, out);
                }
            }
            None => {
                for (k, v) in &attr.vals {
                    emit_matching(g, k, v, &cond, out);
                }
            }
        },
        CompareOp::Ne | CompareOp::NotLike => {
            for (k, v) in &attr.vals {
                emit_matching(g, k, v, &cond, out);
            }
        }
    }
}

// Subjects are catalog ids: they key `by_subject` and `meta_files`.
impl srb_types::CatalogKey for Subject {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The galloping walk keeps exactly the survivors a search of the
        /// whole posting per survivor keeps.
        #[test]
        fn galloping_retain_equals_a_search_per_survivor(
            filed in prop::collection::vec((0u64..300, any::<bool>(), 0u64..4), 0..200),
            survivors in prop::collection::vec(0u64..320, 0..120),
        ) {
            let mut filed = filed.into_iter().map(|(n, dataset, row)| {
                let subject = match dataset {
                    true => Subject::Dataset(DatasetId(n)),
                    false => Subject::Collection(CollectionId(n)),
                };
                (subject, MetaId(row))
            });
            let Some(first) = filed.next() else {
                return Ok(());
            };
            let mut posting = Posting::One(first);
            for (subject, row) in filed {
                if !posting.entries().contains(&(subject, row)) {
                    posting.insert(subject, row);
                }
            }
            let mut ids: Vec<DatasetId> = survivors.into_iter().map(DatasetId).collect();
            ids.sort_unstable();
            ids.dedup();
            let has = |d: DatasetId| {
                let entries = posting.entries();
                let at = entries.partition_point(|(s, _)| *s < Subject::Dataset(d));
                entries.get(at).is_some_and(|(s, _)| *s == Subject::Dataset(d))
            };
            let want: Vec<DatasetId> = ids.iter().copied().filter(|&d| has(d)).collect();
            posting.retain_datasets(&mut ids);
            prop_assert_eq!(ids, want);
        }
    }

    /// A subject's first two rows are inline, a third lists them all, and
    /// removing goes back the same way; removing the last row asks the
    /// caller to drop the list.
    #[test]
    fn subject_lists_go_one_two_many_and_back() {
        let [a, b, c] = [MetaId(3), MetaId(5), MetaId(9)];
        let mut ids = RowIds::One(a);
        ids.push(b);
        assert_eq!(ids, RowIds::Two([a, b]));
        ids.push(c);
        assert_eq!(ids, RowIds::Many(vec![a, b, c]));
        assert!(!ids.remove(a));
        assert_eq!(ids, RowIds::Two([b, c]));
        assert!(!ids.remove(MetaId(4)), "an id not listed is left alone");
        assert!(!ids.remove(c));
        assert_eq!(ids, RowIds::One(b));
        assert!(!ids.remove(a));
        assert!(ids.remove(b));
    }

    /// The thin keys order values as `MetaValue::index_cmp` does, and are
    /// equal exactly when it says so: numbers by value whatever their
    /// spelling, text by fold with the raw form breaking ties, beyond
    /// ASCII too.
    #[test]
    fn index_keys_order_as_index_cmp() {
        let values: Vec<MetaValue> = [
            "1", "1.0", "1e0", "-3", "2.5", "apple", "Apple", "APPLE", "Émile", "émile", "émilf",
            "Zebra", "zebra", "ß", "SS", "ǅ", "ǆ", "Σ", "σς", "", "inf", "NaN",
        ]
        .into_iter()
        .map(|t| MetaValue::Text(t.into()))
        .chain([MetaValue::Int(1), MetaValue::Int(-3), MetaValue::Float(2.5)])
        .collect();
        for a in &values {
            for b in &values {
                let keys = IndexKey::new(a).cmp(&IndexKey::new(b));
                assert_eq!(keys, a.index_cmp(b), "{a:?} against {b:?}");
                let probe = key_cmp(&IndexKey::new(a), &KeyProbe::new(b));
                assert_eq!(probe, keys, "probe {b:?} against {a:?}");
            }
        }
        assert!(matches!(
            IndexKey::new(&MetaValue::Text("émile".into())),
            IndexKey::Text(_)
        ));
        assert!(matches!(
            IndexKey::new(&MetaValue::Text("Émile".into())),
            IndexKey::Folded(_)
        ));
        assert!(matches!(
            IndexKey::new(&MetaValue::Text("1.0".into())),
            IndexKey::Num(_)
        ));
    }

    /// `LIKE` on a number asks each row how it spells it: `1`, `1.0` and
    /// `"1.0"` share one key, but only some of them match `1.%`. Every
    /// operator's candidates equal a scan of the rows.
    #[test]
    fn like_on_a_number_asks_each_row() {
        let (s, ids) = store();
        let values = [
            MetaValue::Int(1),
            MetaValue::Text("1.0".into()),
            MetaValue::Float(1.0),
            MetaValue::Text("1e0".into()),
            MetaValue::Int(10),
            MetaValue::Text("one".into()),
        ];
        for (i, v) in values.iter().enumerate() {
            s.add(
                &ids,
                ds(i as u64),
                Triplet::new("n", v.clone(), ""),
                MetaKind::UserDefined,
            );
        }
        let patterns = ["1", "1.%", "1%", "%e%", "%", "one", "10", "1.0"];
        for op in CompareOp::all().iter().copied() {
            for p in patterns {
                let value = MetaValue::Text(p.into());
                let want: Vec<u64> = (0..values.len() as u64)
                    .filter(|&i| op.eval(&values[i as usize], &value))
                    .collect();
                assert_eq!(found(&s, "n", op, &value), want, "n {} {p:?}", op.display());
            }
        }
        assert_eq!(
            found(&s, "n", CompareOp::Like, &MetaValue::Text("1.%".into())),
            [1]
        );
    }

    /// One row is inline; a second lists both, in order, and removing
    /// down to one row goes back inline. Removing the last row asks the
    /// caller to drop the posting.
    #[test]
    fn posting_goes_one_to_many_and_back() {
        let (a, b, c) = (
            (ds(2), MetaId(20)),
            (ds(1), MetaId(30)),
            (ds(3), MetaId(40)),
        );
        let mut p = Posting::One(a);
        p.insert(b.0, b.1);
        assert_eq!(p, Posting::Many(vec![b, a]));
        p.insert(c.0, c.1);
        assert_eq!(p.entries(), [b, a, c]);
        assert!(!p.remove(a.0, a.1));
        assert!(!p.remove(a.0, a.1), "a row filed elsewhere is left alone");
        assert_eq!(p, Posting::Many(vec![b, c]));
        assert!(!p.remove(c.0, c.1));
        assert_eq!(p, Posting::One(b));
        assert!(!p.remove(c.0, c.1));
        p.insert(a.0, a.1);
        assert_eq!(p, Posting::Many(vec![b, a]));
        assert!(!p.remove(b.0, b.1));
        assert_eq!(p, Posting::One(a));
        assert!(p.remove(a.0, a.1));
    }

    /// A probe finds the key a value was filed under, across kinds and
    /// case, without building a key.
    #[test]
    fn probes_find_filed_keys() {
        let keys = ["Red", "1", "Émile", "x"].map(|t| IndexKey::new(&MetaValue::Text(t.into())));
        let vals: BTreeMap<IndexKey, u8> = keys.into_iter().zip(0..).collect();
        let at = |v: MetaValue| vals.get(KeyProbe::new(&v).view()).copied();
        assert_eq!(at(MetaValue::Text("Red".into())), Some(0));
        assert_eq!(
            at(MetaValue::Text("red".into())),
            None,
            "case breaks the tie"
        );
        assert_eq!(at(MetaValue::Int(1)), Some(1));
        assert_eq!(at(MetaValue::Float(1.0)), Some(1));
        assert_eq!(at(MetaValue::Text("Émile".into())), Some(2));
        assert_eq!(at(MetaValue::Text("x".into())), Some(3));
        assert_eq!(at(MetaValue::Text("y".into())), None);
    }

    fn store() -> (MetaStore, IdGen) {
        (MetaStore::new(), IdGen::new())
    }

    fn ds(n: u64) -> Subject {
        Subject::Dataset(DatasetId(n))
    }

    /// Attribute names present on the given subjects, or every name the
    /// value index holds when `subjects` is `None`; sorted, deduplicated.
    fn attr_names(s: &MetaStore, subjects: Option<&[Subject]>) -> Vec<String> {
        let g = s.inner.read();
        let text = |sym: Sym| g.rows.strings.text(sym).to_string();
        let mut names: Vec<String> = match subjects {
            None => g.attrs.keys().map(|&sym| text(sym)).collect(),
            Some(subs) => subs
                .iter()
                .flat_map(|&sub| g.rows_of(sub))
                .map(|r| text(r.name))
                .collect(),
        };
        names.sort();
        names.dedup();
        names
    }

    /// The datasets `dataset_candidates` finds for `name op value`, sorted.
    fn found(s: &MetaStore, name: &str, op: CompareOp, value: &MetaValue) -> Vec<u64> {
        let mut v: Vec<u64> = s
            .dataset_candidates(name, op, value)
            .into_iter()
            .map(|d| d.0)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn add_and_list() {
        let (s, ids) = store();
        s.add(
            &ids,
            ds(1),
            Triplet::new("species", "condor", ""),
            MetaKind::UserDefined,
        );
        s.add(
            &ids,
            ds(1),
            Triplet::new("wingspan", 290, "cm"),
            MetaKind::UserDefined,
        );
        let rows = s.for_subject(ds(1));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].triplet.name, "species");
        assert_eq!(s.value_of(ds(1), "wingspan"), Some(MetaValue::Int(290)));
        assert_eq!(s.value_of(ds(1), "absent"), None);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn eq_candidates_via_index() {
        let (s, ids) = store();
        for i in 0..10 {
            s.add(
                &ids,
                ds(i),
                Triplet::new("n", i as i64, ""),
                MetaKind::UserDefined,
            );
        }
        assert_eq!(found(&s, "n", CompareOp::Eq, &MetaValue::Int(4)), [4]);
    }

    #[test]
    fn range_candidates() {
        let (s, ids) = store();
        for i in 0..10 {
            s.add(
                &ids,
                ds(i),
                Triplet::new("n", i as i64, ""),
                MetaKind::UserDefined,
            );
        }
        assert_eq!(found(&s, "n", CompareOp::Gt, &MetaValue::Int(7)).len(), 2);
        assert_eq!(found(&s, "n", CompareOp::Ge, &MetaValue::Int(7)).len(), 3);
        assert_eq!(found(&s, "n", CompareOp::Lt, &MetaValue::Int(2)).len(), 2);
        assert_eq!(found(&s, "n", CompareOp::Le, &MetaValue::Int(2)).len(), 3);
        assert_eq!(found(&s, "n", CompareOp::Ne, &MetaValue::Int(5)).len(), 9);
    }

    #[test]
    fn range_does_not_leak_text_values() {
        let (s, ids) = store();
        s.add(&ids, ds(1), Triplet::new("v", 5, ""), MetaKind::UserDefined);
        s.add(
            &ids,
            ds(2),
            Triplet::new("v", "pear", ""),
            MetaKind::UserDefined,
        );
        // "pear" sorts after numbers in the index but must not satisfy > 3.
        assert_eq!(found(&s, "v", CompareOp::Gt, &MetaValue::Int(3)), [1]);
    }

    #[test]
    fn like_candidates() {
        let (s, ids) = store();
        s.add(
            &ids,
            ds(1),
            Triplet::new("species", "condor", ""),
            MetaKind::UserDefined,
        );
        s.add(
            &ids,
            ds(2),
            Triplet::new("species", "condor andino", ""),
            MetaKind::UserDefined,
        );
        s.add(
            &ids,
            ds(3),
            Triplet::new("species", "sparrow", ""),
            MetaKind::UserDefined,
        );
        let pat = MetaValue::parse("condor%");
        assert_eq!(found(&s, "species", CompareOp::Like, &pat), [1, 2]);
        assert_eq!(found(&s, "species", CompareOp::NotLike, &pat), [3]);
    }

    #[test]
    fn update_reindexes() {
        let (s, ids) = store();
        let id = s.add(&ids, ds(1), Triplet::new("n", 1, ""), MetaKind::UserDefined);
        s.update(id, MetaValue::Int(9), "".into()).unwrap();
        assert!(found(&s, "n", CompareOp::Eq, &MetaValue::Int(1)).is_empty());
        assert_eq!(found(&s, "n", CompareOp::Eq, &MetaValue::Int(9)), [1]);
        assert!(s.update(MetaId(999), MetaValue::Int(0), "".into()).is_err());
    }

    #[test]
    fn remove_and_remove_all() {
        let (s, ids) = store();
        let a = s.add(&ids, ds(1), Triplet::new("x", 1, ""), MetaKind::UserDefined);
        s.add(&ids, ds(1), Triplet::new("y", 2, ""), MetaKind::UserDefined);
        s.remove(a).unwrap();
        assert_eq!(s.for_subject(ds(1)).len(), 1);
        assert!(found(&s, "x", CompareOp::Eq, &MetaValue::Int(1)).is_empty());
        s.remove_all(ds(1));
        assert!(s.for_subject(ds(1)).is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn copy_skips_system_rows() {
        let (s, ids) = store();
        s.add(&ids, ds(1), Triplet::new("u", 1, ""), MetaKind::UserDefined);
        s.add(
            &ids,
            ds(1),
            Triplet::new("Title", "X", ""),
            MetaKind::TypeOriented("DublinCore".into()),
        );
        s.add(&ids, ds(1), Triplet::new("size", 10, ""), MetaKind::System);
        let n = s.copy(&ids, ds(1), ds(2));
        assert_eq!(n, 2);
        let rows = s.for_subject(ds(2));
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.kind != MetaKind::System));
    }

    #[test]
    fn attr_names_for_dropdown() {
        let (s, ids) = store();
        s.add(&ids, ds(1), Triplet::new("b", 1, ""), MetaKind::UserDefined);
        s.add(&ids, ds(2), Triplet::new("a", 1, ""), MetaKind::UserDefined);
        s.add(&ids, ds(2), Triplet::new("a", 2, ""), MetaKind::UserDefined);
        assert_eq!(attr_names(&s, None), vec!["a", "b"]);
        assert_eq!(attr_names(&s, Some(&[ds(2)])), vec!["a"]);
    }

    #[test]
    fn meta_file_associations() {
        let (s, _) = store();
        s.attach_meta_file(ds(1), DatasetId(9));
        s.attach_meta_file(ds(1), DatasetId(9)); // idempotent
        s.attach_meta_file(ds(2), DatasetId(9)); // one file, many subjects
        assert_eq!(s.meta_files_of(ds(1)), vec![DatasetId(9)]);
        assert_eq!(s.meta_files_of(ds(2)), vec![DatasetId(9)]);
        s.remove_all(ds(1));
        assert!(s.meta_files_of(ds(1)).is_empty());
    }

    #[test]
    fn selectivity_prefers_point_queries() {
        let (s, ids) = store();
        for i in 0..100 {
            s.add(
                &ids,
                ds(i),
                Triplet::new("common", i as i64 % 2, ""),
                MetaKind::UserDefined,
            );
            if i < 3 {
                s.add(
                    &ids,
                    ds(i),
                    Triplet::new("rare", i as i64, ""),
                    MetaKind::UserDefined,
                );
            }
        }
        let sel_rare = s.selectivity("rare", CompareOp::Eq, &MetaValue::Int(1));
        let sel_common = s.selectivity("common", CompareOp::Eq, &MetaValue::Int(1));
        assert!(sel_rare < sel_common);
        assert_eq!(
            s.selectivity("absent", CompareOp::Eq, &MetaValue::Int(1)),
            0
        );
    }

    /// Regression: `foo%` patterns are answered by a bounded prefix range
    /// scan over the case-folded text region, and that scan agrees with
    /// direct evaluation — including mixed case, multi-wildcard suffixes,
    /// and numeric keys sitting in the same partition.
    #[test]
    fn prefix_like_range_scan_matches_eval() {
        let (s, ids) = store();
        let values = [
            "condor",
            "Condor Andino",
            "CONDUIT",
            "con",
            "sparrow",
            "Sparrow",
            "-cond",
            "12cond",
        ];
        for (i, v) in values.iter().enumerate() {
            s.add(
                &ids,
                ds(i as u64),
                Triplet::new("species", MetaValue::Text((*v).into()), ""),
                MetaKind::UserDefined,
            );
        }
        // Numeric rows share the partition but must never satisfy `con%`.
        s.add(
            &ids,
            ds(100),
            Triplet::new("species", 42, ""),
            MetaKind::UserDefined,
        );
        for pattern in ["con%", "Con%", "con%o%", "co_d%", "sparrow", "%cond%", "1%"] {
            let pat = MetaValue::Text(pattern.into());
            let got = found(&s, "species", CompareOp::Like, &pat);
            let want: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| CompareOp::Like.eval(&MetaValue::Text((**v).into()), &pat))
                .map(|(i, _)| i as u64)
                .chain(
                    CompareOp::Like
                        .eval(&MetaValue::Int(42), &pat)
                        .then_some(100),
                )
                .collect();
            assert_eq!(got, want, "pattern {pattern}");
        }
    }

    #[test]
    fn range_selectivity_is_capped_but_ordering_preserved() {
        let (s, ids) = store();
        for i in 0..10_000u64 {
            s.add(
                &ids,
                ds(i),
                Triplet::new("n", i as i64, ""),
                MetaKind::UserDefined,
            );
        }
        // A narrow range reports its true count.
        assert_eq!(s.selectivity("n", CompareOp::Lt, &MetaValue::Int(10)), 10);
        // A huge range stops at the cap instead of walking 10⁴ keys…
        let wide = s.selectivity("n", CompareOp::Gt, &MetaValue::Int(-1));
        assert!((MetaStore::RANGE_SELECTIVITY_CAP..10_000).contains(&wide));
        // …and still estimates below the whole-partition patterns.
        assert!(wide <= s.selectivity("n", CompareOp::Ne, &MetaValue::Int(0)));
        // Prefix-like estimates walk only the prefix region.
        s.add(
            &ids,
            ds(20_000),
            Triplet::new("n", "xyz", ""),
            MetaKind::UserDefined,
        );
        assert_eq!(
            s.selectivity("n", CompareOp::Like, &MetaValue::Text("xy%".into())),
            1
        );
    }

    /// The multi-valued side set holds exactly the datasets with two or
    /// more rows of a name, through every mutator and through `restore`.
    #[test]
    fn side_set_tracks_datasets_with_several_rows_of_a_name() {
        fn multi(s: &MetaStore, name: &str) -> Vec<DatasetId> {
            let g = s.inner.read();
            let multi = g.attr(name).into_iter().flat_map(|a| &a.multi);
            let mut v: Vec<DatasetId> = multi.copied().collect();
            v.sort_unstable();
            v
        }
        let (s, ids) = store();
        let add = |subject, name: &str, v: i64| {
            s.add(
                &ids,
                subject,
                Triplet::new(name, v, ""),
                MetaKind::UserDefined,
            )
        };
        add(ds(1), "r", 0);
        add(ds(1), "other", 2);
        assert!(multi(&s, "r").is_empty(), "one row of each name");
        let second = add(ds(1), "r", 2);
        let third = add(ds(1), "r", 2);
        add(ds(2), "r", 5);
        let coll = Subject::Collection(CollectionId(9));
        add(coll, "r", 1);
        add(coll, "r", 1);
        assert_eq!(multi(&s, "r"), [DatasetId(1)], "datasets only");

        let rows = s.inner.read().rows.clone();
        assert_eq!(
            multi(
                &MetaStore::restore(rows, Vec::new(), &WalHook::default()),
                "r"
            ),
            [DatasetId(1)]
        );

        s.remove(third).unwrap();
        assert_eq!(multi(&s, "r"), [DatasetId(1)], "still two rows");
        s.remove(second).unwrap();
        assert!(no_multi(&s), "empty entries are dropped");
        add(ds(2), "r", 6);
        s.remove_all(ds(2));
        assert!(no_multi(&s));
    }

    fn no_multi(s: &MetaStore) -> bool {
        s.inner.read().attrs.values().all(|a| a.multi.is_empty())
    }

    /// What `s` derives from its rows, keyed by text rather than by the
    /// symbol a text happened to get: per attribute name its index, row
    /// count and multi-valued datasets; per text of the string table its
    /// uses.
    fn derived(s: &MetaStore) -> (BTreeMap<String, String>, BTreeMap<String, usize>) {
        let g = s.inner.read();
        let strings = &g.rows.strings;
        let attrs = g.attrs.iter().map(|(&sym, a)| {
            let vals: Vec<(&IndexKey, &[(Subject, MetaId)])> =
                a.vals.iter().map(|(k, p)| (k, p.entries())).collect();
            let mut multi: Vec<&DatasetId> = a.multi.iter().collect();
            multi.sort_unstable();
            let text = format!("{vals:?} {} {multi:?}", a.rows);
            (strings.text(sym).to_string(), text)
        });
        let uses = strings.slots.iter().flatten();
        let uses = uses.map(|(text, n)| (text.to_string(), *n));
        (attrs.collect(), uses.collect())
    }

    /// Every derived map equals a rebuild from the rows, every posting is
    /// strictly sorted and of one shape — one row inline, more listed —
    /// and the string table holds exactly the texts the rows name, each
    /// counted once per use.
    fn assert_derived_state_matches_rebuild(s: &MetaStore) {
        let g = s.inner.read();
        for (&sym, attr) in &g.attrs {
            let name = g.rows.strings.text(sym);
            assert!(!attr.vals.is_empty(), "empty partition {name}");
            for posting in attr.vals.values() {
                assert!(
                    matches!(posting, Posting::One(_)) || posting.len() >= 2,
                    "a posting of {} rows listed under {name}",
                    posting.len()
                );
                assert!(
                    posting.entries().windows(2).all(|w| w[0] < w[1]),
                    "unsorted posting under {name}: {posting:?}"
                );
            }
        }
        for ids in g.by_subject.values() {
            assert!(matches!(ids, RowIds::One(_) | RowIds::Two(_)) || ids.as_slice().len() >= 3);
        }
        let mut want: BTreeMap<String, usize> = BTreeMap::new();
        for row in g.rows.iter() {
            let schema = match row.kind {
                MetaKind::TypeOriented(schema) => Some(schema),
                _ => None,
            };
            for text in [row.triplet.name, row.triplet.units]
                .into_iter()
                .chain(schema)
            {
                *want.entry(text).or_default() += 1;
            }
        }
        let rebuilt = MetaStore::restore(g.rows.clone(), Vec::new(), &WalHook::default());
        let r = rebuilt.inner.read();
        assert_eq!(g.by_subject, r.by_subject);
        let (live, uses) = derived(s);
        assert_eq!(live, derived(&rebuilt).0);
        assert_eq!(uses, want, "the string table counts each use of a text");
        assert_eq!(g.rows.strings.syms.len(), want.len());
    }

    /// A seeded run of adds, updates, removes and whole-subject removes,
    /// over values that are equal across kinds (`1`, `1.0`, `"1"`,
    /// `"1.0"`) and text that differs only in case: the live store never
    /// keeps derived state its rows would not rebuild.
    #[test]
    fn derived_state_equals_a_rebuild_from_the_rows() {
        use srb_types::SeedStream;
        let values = [
            MetaValue::Int(1),
            MetaValue::Float(1.0),
            MetaValue::Text("1".into()),
            MetaValue::Text("1.0".into()),
            MetaValue::Float(2.5),
            MetaValue::Text("red".into()),
            MetaValue::Text("Red".into()),
            MetaValue::Int(3),
        ];
        let names = ["ghost", "kind", "score"];
        let subject = |n: usize| {
            if n % 8 == 7 {
                Subject::Collection(CollectionId(n as u64))
            } else {
                ds(n as u64)
            }
        };
        let (s, ids) = store();
        let mut rng = SeedStream::new(0x6057);
        let mut live: Vec<MetaId> = Vec::new();
        for step in 0..3000 {
            let value = values[rng.below(values.len())].clone();
            match rng.below(10) {
                0..=4 => live.push(s.add(
                    &ids,
                    subject(rng.below(40)),
                    Triplet::new(names[rng.below(names.len())], value, ""),
                    MetaKind::UserDefined,
                )),
                5 | 6 if !live.is_empty() => {
                    let id = live[rng.below(live.len())];
                    s.update(id, value, "u".into()).unwrap();
                }
                7 | 8 if !live.is_empty() => {
                    let id = live.swap_remove(rng.below(live.len()));
                    s.remove(id).unwrap();
                }
                9 => {
                    s.remove_all(subject(rng.below(40)));
                    let g = s.inner.read();
                    live.retain(|&id| g.rows.get(id).is_some());
                }
                _ => {}
            }
            if step % 101 == 0 {
                assert_derived_state_matches_rebuild(&s);
            }
        }
        assert_derived_state_matches_rebuild(&s);
        for id in live {
            s.remove(id).unwrap();
        }
        assert_derived_state_matches_rebuild(&s);
        assert_eq!(attr_names(&s, None), Vec::<String>::new());
        let g = s.inner.read();
        assert!(g.by_subject.is_empty() && g.attrs.is_empty());
        assert!(
            g.rows.strings.syms.is_empty(),
            "every text went with its rows"
        );
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let (s, ids) = store();
        let g0 = s.generation();
        let id = s.add(&ids, ds(1), Triplet::new("x", 1, ""), MetaKind::UserDefined);
        let g1 = s.generation();
        assert_ne!(g0, g1);
        s.update(id, MetaValue::Int(2), "".into()).unwrap();
        let g2 = s.generation();
        assert_ne!(g1, g2);
        s.remove(id).unwrap();
        assert_ne!(g2, s.generation());
    }

    #[test]
    fn dublin_core_has_fifteen_elements() {
        assert_eq!(DUBLIN_CORE.len(), 15);
        assert!(DUBLIN_CORE.contains(&"Title"));
        assert!(DUBLIN_CORE.contains(&"Rights"));
    }
}
