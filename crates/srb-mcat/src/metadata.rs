//! The metadata triplet store and its attribute indexes.
//!
//! Five kinds of metadata (paper §5): system-defined, user-defined,
//! type-oriented (e.g. Dublin Core), file-based, and annotations (the last
//! live in [`Mcat::annotations`](crate::Mcat::annotations)). User/type metadata are *(name, value,
//! units)* triplets. The store keeps a per-attribute ordered value index so
//! the query engine can answer `=` and range conditions without scanning —
//! the design choice ablated in experiment E5/A1.

use crate::pages::RowPages;
use crate::snapshot::{Field, ImageWriter};
use crate::wal::{WalHook, WalOp};
use serde::{Deserialize, Serialize};
use srb_types::sync::{LockRank, RwLock, RwLockReadGuard};
use srb_types::{
    like_scan_prefix, CollectionId, CompareOp, DatasetId, GenCounter, Generation, IdGen, IdMap,
    IdSet, MetaId, MetaValue, SrbError, SrbResult, Triplet,
};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;

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

/// One metadata row.
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

// Row budget: a metadata page holds 1 024 rows inline; a field that grows
// the row fails the build.
const _: () = assert!(std::mem::size_of::<MetaRow>() <= 120);

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

/// Ordered wrapper so `MetaValue`s can key a BTreeMap: numbers first (by
/// numeric value), then text in case-folded order with a raw tie-break —
/// the same total order as `MetaValue::index_cmp`, but with the numeric
/// view and the case fold computed **once** at insertion instead of on
/// every comparison (a B-tree insert at 10⁶ keys performs ~20 of them).
#[derive(Debug, Clone)]
struct IndexKey {
    v: MetaValue,
    /// Cached numeric view (`MetaValue::as_f64`); `None` for pure text.
    num: Option<f64>,
    /// Cached lowercase fold of the lexical form; populated only for pure
    /// text (numeric keys order by value, never by fold).
    fold: Option<String>,
}

impl IndexKey {
    fn new(v: MetaValue) -> Self {
        let num = v.as_f64();
        let fold = if num.is_none() {
            Some(v.lexical().to_lowercase())
        } else {
            None
        };
        IndexKey { v, num, fold }
    }

    /// A synthetic lower bound for the case-folded text region starting at
    /// `fold`: it sorts after every numeric key, and at-or-before every
    /// text key whose fold is ≥ `fold` (its raw form is empty, the minimum
    /// tie-break). Used only as a range-scan probe, never stored.
    fn text_probe(fold: String) -> Self {
        IndexKey {
            v: MetaValue::Text(String::new()),
            num: None,
            fold: Some(fold),
        }
    }

    /// Raw lexical form of a text key, borrowed. Text keys are always the
    /// `Text` variant: any `Int`/`Float` (or numeric-looking text) has
    /// `num = Some(_)` and never reaches the text comparison leg.
    fn raw(&self) -> &str {
        match &self.v {
            MetaValue::Text(s) => s.as_str(),
            // Unreachable for keys in the text region; harmless fallback.
            _ => "",
        }
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
    /// fold itself (lowercasing it again changes nothing), or raw ASCII
    /// text, whose fold that is.
    fn fold(&self) -> Option<&str>;
    /// Raw lexical form of a text key.
    fn raw(&self) -> &str;
}

impl KeyView for IndexKey {
    fn num(&self) -> Option<f64> {
        self.num
    }

    fn fold(&self) -> Option<&str> {
        self.fold.as_deref()
    }

    fn raw(&self) -> &str {
        IndexKey::raw(self)
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

    /// The dataset subjects filed here, read straight out of the posting
    /// (once per row, so a dataset with two equal rows appears twice).
    fn datasets(&self) -> impl Iterator<Item = DatasetId> + '_ {
        self.entries().iter().map_while(|(s, _)| match s {
            Subject::Dataset(d) => Some(*d),
            Subject::Collection(_) => None,
        })
    }

    fn len(&self) -> usize {
        self.entries().len()
    }
}

#[derive(Debug, Default)]
struct Inner {
    rows: RowPages<MetaRow>,
    by_subject: IdMap<Subject, Vec<MetaId>>,
    /// attribute name → ordered value → the rows carrying it.
    index: HashMap<String, BTreeMap<IndexKey, Posting>>,
    /// attribute name → total row count, maintained incrementally so the
    /// planner's partition-wide selectivity estimate is O(1) instead of a
    /// walk over every distinct value.
    attr_counts: HashMap<String, usize>,
    /// attribute name → datasets carrying **two or more** rows of that
    /// name. Conjunctive conditions are satisfied per condition, by *any*
    /// row, so on such a dataset different rows may satisfy the two halves
    /// of a range (`{0, 2}` matches `>= 2 AND < 1`); an interval walk over
    /// the value index sees one key at a time and would miss it. Members
    /// are probed per condition and unioned into every interval result.
    /// Empty for single-valued attributes, so the walk stays O(window).
    multi: HashMap<String, IdSet<DatasetId>>,
    /// file-based metadata associations: subject → carrying datasets.
    meta_files: IdMap<Subject, Vec<DatasetId>>,
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
        Self::insert_locked(g, row);
        id
    }

    /// The one index-maintenance path for a new row: the row itself,
    /// then [`Self::index_locked`].
    fn insert_locked(g: &mut Inner, row: MetaRow) {
        let id = row.id;
        g.rows.insert(row);
        Self::index_locked(g, id);
    }

    /// File row `id`, held in `g.rows`, in the derived state: subject
    /// list, value index, per-attribute count and the multi-valued side
    /// set.
    fn index_locked(g: &mut Inner, id: MetaId) {
        let Some(row) = g.rows.get(id) else {
            return;
        };
        let ids = g.by_subject.entry(row.subject).or_default();
        // One pass over the subject's earlier rows (O(k) for its k-th row;
        // a dataset carries a handful), allocation-free unless one of
        // them already has the name.
        if let Subject::Dataset(d) = row.subject {
            let name = &row.triplet.name;
            if rows_named(&g.rows, ids, name).next().is_some() {
                g.multi.entry(name.clone()).or_default().insert(d);
            }
        }
        ids.push(id);
        let name = &row.triplet.name;
        file(&mut g.index, name, &row.triplet.value, row.subject, id);
        match g.attr_counts.get_mut(name.as_str()) {
            Some(n) => *n += 1,
            None => {
                g.attr_counts.insert(name.clone(), 1);
            }
        }
    }

    /// Update a row's value/units in place.
    pub fn update(&self, id: MetaId, value: MetaValue, units: String) -> SrbResult<()> {
        let mut g = self.inner.write();
        let g = &mut *g;
        let row = g
            .rows
            .get_mut(id)
            .ok_or_else(|| SrbError::NotFound(format!("metadata {id}")))?;
        let old = std::mem::replace(&mut row.triplet.value, value);
        row.triplet.units = units;
        // Re-index under the new value (the attribute name is unchanged, so
        // the per-attribute row count is too).
        unindex(&mut g.index, &row.triplet.name, &old, row.subject, id);
        file(
            &mut g.index,
            &row.triplet.name,
            &row.triplet.value,
            row.subject,
            id,
        );
        let gen = self.generation.bump_get().raw();
        self.wal.log(gen, || WalOp::MetaPut { row: row.clone() });
        Ok(())
    }

    /// Remove one row, and with it every piece of derived state left
    /// empty: the subject's list, the value's posting, the attribute's
    /// partition and row count, its multi-valued entry. The store then
    /// equals a `MetaStore::restore` of its own rows.
    pub fn remove(&self, id: MetaId) -> SrbResult<()> {
        let mut g = self.inner.write();
        let g = &mut *g;
        let row = g
            .rows
            .remove(id)
            .ok_or_else(|| SrbError::NotFound(format!("metadata {id}")))?;
        let name = row.triplet.name;
        let left = match g.by_subject.get_mut(&row.subject) {
            Some(ids) => {
                ids.retain(|&m| m != id);
                if ids.is_empty() {
                    g.by_subject.remove(&row.subject);
                    0
                } else {
                    rows_named(&g.rows, ids, &name).count()
                }
            }
            None => 0,
        };
        unindex(&mut g.index, &name, &row.triplet.value, row.subject, id);
        if let Some(n) = g.attr_counts.get_mut(&name) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                g.attr_counts.remove(&name);
            }
        }
        if let Subject::Dataset(d) = row.subject {
            if left < 2 {
                if let Some(set) = g.multi.get_mut(&name) {
                    set.remove(&d);
                    if set.is_empty() {
                        g.multi.remove(&name);
                    }
                }
            }
        }
        let gen = self.generation.bump_get().raw();
        self.wal.log(gen, || WalOp::MetaDelete { id });
        Ok(())
    }

    /// Remove every row attached to a subject ("when the last replica is
    /// deleted all the metadata … are also deleted").
    pub fn remove_all(&self, subject: Subject) {
        let ids = self
            .inner
            .read()
            .by_subject
            .get(&subject)
            .cloned()
            .unwrap_or_default();
        for id in ids {
            let _ = self.remove(id);
        }
        let mut g = self.inner.write();
        if g.meta_files.remove(&subject).is_some() {
            self.wal.log(0, || WalOp::MetaFilesClear { subject });
        }
    }

    /// All rows for a subject, in insertion order.
    pub fn for_subject(&self, subject: Subject) -> Vec<MetaRow> {
        let g = self.inner.read();
        g.by_subject
            .get(&subject)
            .map(|ids| ids.iter().filter_map(|&i| g.rows.get(i)).cloned().collect())
            .unwrap_or_default()
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
        g.by_subject.get(&subject)?.iter().find_map(|&id| {
            g.rows
                .get(id)
                .filter(|r| r.triplet.name == name)
                .map(|r| r.triplet.value.clone())
        })
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
        walk_index(&g, name, op, value, |posting| {
            out.extend(posting.datasets())
        });
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
        for (k, posting) in interval_range(&g, name, conds).into_iter().flatten() {
            if conds.iter().all(|&(op, v)| op_applies(op, &k.v, v)) {
                out.extend(posting.datasets());
            }
        }
        if let Some(multi) = g.multi.get(name) {
            out.extend(multi.iter().copied().filter(|d| {
                conds
                    .iter()
                    .all(|&(op, v)| subject_matches_locked(&g, Subject::Dataset(*d), name, op, v))
            }));
        }
        out
    }

    /// Estimated match count of an interval source: the rows between its
    /// bounds (exact below `RANGE_SELECTIVITY_CAP`) plus every dataset
    /// the multi-valued probe must visit.
    pub fn interval_selectivity(&self, name: &str, conds: &[RangeCond<'_>]) -> usize {
        let g = self.inner.read();
        let mut n = g.multi.get(name).map_or(0, IdSet::len);
        for (_, posting) in interval_range(&g, name, conds).into_iter().flatten() {
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
            match g.index.get(name).and_then(|vals| vals.get(probe.view())) {
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
        let Some(vals) = g.index.get(name) else {
            return 0;
        };
        let partition = g.attr_counts.get(name).copied().unwrap_or(0);
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
            CompareOp::Eq => vals
                .get(KeyProbe::new(value).view())
                .map_or(0, Posting::len),
            // A one-sided range is an interval with one end unbounded.
            CompareOp::Gt | CompareOp::Ge | CompareOp::Lt | CompareOp::Le => capped_count(
                &mut interval_range(&g, name, &[(op, value)])
                    .into_iter()
                    .flatten()
                    .map(|(_, posting)| posting.len()),
            ),
            CompareOp::Like => match like_scan_prefix(&value.lexical()) {
                Some(prefix) => {
                    let probe = IndexKey::text_probe(prefix.clone());
                    capped_count(
                        &mut vals
                            .range(probe..)
                            .take_while(|(k, _)| {
                                k.fold.as_deref().is_some_and(|f| f.starts_with(&prefix))
                            })
                            .map(|(_, posting)| posting.len()),
                    )
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
            for &id in ids {
                if let Some(r) = g.rows.get(id) {
                    if !names.contains(r.triplet.name.as_str()) {
                        names.insert(r.triplet.name.clone());
                    }
                }
            }
        }
        names.into_iter().collect()
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
        w.pages(Field::Metadata, &g.rows);
        // Ordered by subject, not id: the whole field is one page.
        w.one_page(Field::MetaFiles, &meta_files_in_order(&g));
    }

    /// The store over image rows, its subject lists and value indexes
    /// built from them. The rows are filed in `(subject, id)` order, so
    /// every posting insert is an append: the rebuild costs one sort of
    /// the row ids (linear when, as after an ingest-only history, the id
    /// order already is that order) and never goes quadratic on a
    /// posting. Each subject's list stays in id order, which is the order
    /// the live store added them in. The subject map is sized once. It
    /// logs through `wal`.
    pub(crate) fn restore(
        rows: RowPages<MetaRow>,
        meta_files: Vec<(Subject, Vec<DatasetId>)>,
        wal: &WalHook,
    ) -> Self {
        let subject = |id: MetaId| rows.get(id).map(|r| r.subject);
        let mut order: Vec<MetaId> = rows.iter().map(|r| r.id).collect();
        order.sort_unstable_by_key(|&id| (subject(id), id));
        let subjects = 1 + order
            .windows(2)
            .filter(|w| subject(w[0]) != subject(w[1]))
            .count();
        let t = MetaStore {
            wal: wal.clone(),
            ..MetaStore::default()
        };
        {
            let mut g = t.inner.write();
            let g = &mut *g;
            g.by_subject.reserve(subjects);
            g.rows = rows;
            for id in order {
                Self::index_locked(g, id);
            }
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
        self.g.by_subject.get(&subject)?.iter().find_map(|&id| {
            self.g
                .rows
                .get(id)
                .filter(|r| r.triplet.name == name)
                .map(|r| &r.triplet.value)
        })
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
    g.by_subject.get(&subject).is_some_and(|ids| {
        ids.iter().any(|&id| {
            g.rows
                .get(id)
                .is_some_and(|r| r.triplet.name == name && op.eval(&r.triplet.value, value))
        })
    })
}

/// The file-based associations, ordered by subject display (`c…` before
/// `d…`) as the image stores them.
fn meta_files_in_order(g: &Inner) -> Vec<(&Subject, &Vec<DatasetId>)> {
    let mut files: Vec<(&Subject, &Vec<DatasetId>)> = g.meta_files.iter().collect();
    files.sort_by_cached_key(|(s, _)| s.to_string());
    files
}

/// The rows among a subject's `ids` whose attribute is `name`.
fn rows_named<'a>(
    rows: &'a RowPages<MetaRow>,
    ids: &'a [MetaId],
    name: &'a str,
) -> impl Iterator<Item = &'a MetaRow> {
    ids.iter()
        .filter_map(|&id| rows.get(id))
        .filter(move |r| r.triplet.name == name)
}

/// File row `id` of `subject` under `name = value`. The attribute name is
/// cloned only for a new partition, and the value only for a new key.
fn file(
    index: &mut HashMap<String, BTreeMap<IndexKey, Posting>>,
    name: &str,
    value: &MetaValue,
    subject: Subject,
    id: MetaId,
) {
    let Some(vals) = index.get_mut(name) else {
        let key = IndexKey::new(value.clone());
        let vals = BTreeMap::from([(key, Posting::One((subject, id)))]);
        index.insert(name.to_string(), vals);
        return;
    };
    match vals.get_mut(KeyProbe::new(value).view()) {
        Some(posting) => posting.insert(subject, id),
        None => {
            vals.insert(IndexKey::new(value.clone()), Posting::One((subject, id)));
        }
    }
}

/// Unfile row `id` of `subject` from the posting of `name = value`,
/// dropping the posting and then the partition once they are empty.
fn unindex(
    index: &mut HashMap<String, BTreeMap<IndexKey, Posting>>,
    name: &str,
    value: &MetaValue,
    subject: Subject,
    id: MetaId,
) {
    let Some(vals) = index.get_mut(name) else {
        return;
    };
    let probe = KeyProbe::new(value);
    if vals
        .get_mut(probe.view())
        .is_some_and(|posting| posting.remove(subject, id))
    {
        vals.remove(probe.view());
    }
    if vals.is_empty() {
        index.remove(name);
    }
}

/// One folded operator of an interval source: `op value` on the source's
/// attribute, `op` one of `Gt`/`Ge`/`Lt`/`Le`.
pub type RangeCond<'a> = (CompareOp, &'a MetaValue);

/// Should a bound at `key` (exclusive if `excl`) replace `old`? `side` is
/// the direction of tightening: `Greater` for lower bounds, `Less` for
/// upper ones. At equal keys the exclusive bound is the tighter.
fn tightens(old: &Bound<IndexKey>, key: &IndexKey, excl: bool, side: Ordering) -> bool {
    match old {
        Bound::Unbounded => true,
        Bound::Included(k) => match key.cmp(k) {
            Ordering::Equal => excl,
            o => o == side,
        },
        Bound::Excluded(k) => key.cmp(k) == side,
    }
}

/// The index entries between the tightest lower and upper bound in
/// `conds`, or `None` when the attribute has no index or the interval is
/// inverted or excludes its only point — `BTreeMap::range` panics on such
/// bounds, so they never reach it.
fn interval_range<'g>(
    g: &'g Inner,
    name: &str,
    conds: &[RangeCond<'_>],
) -> Option<std::collections::btree_map::Range<'g, IndexKey, Posting>> {
    let vals = g.index.get(name)?;
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
        let key = IndexKey::new(value.clone());
        if tightens(bound, &key, excl, side) {
            *bound = if excl {
                Bound::Excluded(key)
            } else {
                Bound::Included(key)
            };
        }
    }
    let non_empty = match (&lo, &hi) {
        (Bound::Included(a), Bound::Included(b)) => a <= b,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => a < b,
        _ => true,
    };
    non_empty.then(|| vals.range((lo, hi)))
}

/// Walk the ordered value index for `name`, invoking `emit` with each
/// posting whose key satisfies `op value`. Postings carry their subjects,
/// so the caller resolves nothing further.
fn walk_index(
    g: &Inner,
    name: &str,
    op: CompareOp,
    value: &MetaValue,
    mut emit: impl FnMut(&Posting),
) {
    let Some(vals) = g.index.get(name) else {
        return;
    };
    match op {
        CompareOp::Eq => {
            if let Some(v) = vals.get(KeyProbe::new(value).view()) {
                emit(v);
            }
        }
        // A one-sided range is an interval with one end unbounded.
        CompareOp::Gt | CompareOp::Ge | CompareOp::Lt | CompareOp::Le => {
            for (k, v) in interval_range(g, name, &[(op, value)])
                .into_iter()
                .flatten()
            {
                if op_applies(op, &k.v, value) {
                    emit(v);
                }
            }
        }
        // A pattern with a usable literal prefix is a bounded range scan
        // over the case-folded text region: every `LIKE` match must start
        // (case-insensitively) with the prefix, folds are contiguous in the
        // index order, and numeric keys are excluded by `like_scan_prefix`
        // — so the scan starts at the prefix probe and stops at the first
        // fold that no longer extends it. The full pattern is still
        // evaluated per key (it may carry further wildcards).
        CompareOp::Like => {
            if let Some(prefix) = like_scan_prefix(&value.lexical()) {
                let probe = IndexKey::text_probe(prefix.clone());
                for (k, v) in vals.range(probe..) {
                    match k.fold.as_deref() {
                        Some(f) if f.starts_with(&prefix) => {
                            if op.eval(&k.v, value) {
                                emit(v);
                            }
                        }
                        _ => break,
                    }
                }
            } else {
                for (k, v) in vals.iter() {
                    if op.eval(&k.v, value) {
                        emit(v);
                    }
                }
            }
        }
        CompareOp::Ne | CompareOp::NotLike => {
            for (k, v) in vals.iter() {
                if op.eval(&k.v, value) {
                    emit(v);
                }
            }
        }
    }
}

/// Range scans over the index can cross the number/text boundary (numbers
/// sort before text); re-check the operator against mixed types.
fn op_applies(op: CompareOp, candidate: &MetaValue, value: &MetaValue) -> bool {
    op.eval(candidate, value)
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
        let keys = ["Red", "1", "Émile", "x"].map(|t| IndexKey::new(MetaValue::Text(t.into())));
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
        let mut names: Vec<String> = match subjects {
            None => g.index.keys().cloned().collect(),
            Some(subs) => subs
                .iter()
                .filter_map(|sub| g.by_subject.get(sub))
                .flatten()
                .filter_map(|&id| g.rows.get(id))
                .map(|r| r.triplet.name.clone())
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
                Triplet::new("species", MetaValue::Text(v.to_string()), ""),
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
            let pat = MetaValue::Text(pattern.to_string());
            let got = found(&s, "species", CompareOp::Like, &pat);
            let want: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| CompareOp::Like.eval(&MetaValue::Text(v.to_string()), &pat))
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
            let mut v: Vec<DatasetId> = g.multi.get(name).into_iter().flatten().copied().collect();
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
        assert!(s.inner.read().multi.is_empty(), "empty entries are dropped");
        add(ds(2), "r", 6);
        s.remove_all(ds(2));
        assert!(s.inner.read().multi.is_empty());
    }

    /// Every derived map equals a rebuild from the rows, and every posting
    /// is strictly sorted and of one shape: one row inline, more listed.
    fn assert_derived_state_matches_rebuild(s: &MetaStore) {
        let g = s.inner.read();
        for (name, vals) in &g.index {
            assert!(!vals.is_empty(), "empty partition {name}");
            for posting in vals.values() {
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
        let rebuilt = MetaStore::restore(g.rows.clone(), Vec::new(), &WalHook::default());
        let r = rebuilt.inner.read();
        assert_eq!(g.by_subject, r.by_subject);
        assert_eq!(g.index, r.index);
        assert_eq!(g.attr_counts, r.attr_counts);
        assert_eq!(g.multi, r.multi);
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
                    live.retain(|&id| g.rows.contains(id));
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
        assert!(g.by_subject.is_empty() && g.index.is_empty());
        assert!(g.attr_counts.is_empty() && g.multi.is_empty());
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
