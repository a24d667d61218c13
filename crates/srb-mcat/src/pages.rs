//! The row store behind every catalog table: rows in id pages.
//!
//! Every table keeps its rows in a [`RowPages`]: dense, in id order, in
//! pages of [`IMAGE_PAGE_IDS`] ids — the same pages the checkpoint image
//! is cut into (`crate::snapshot`). The page of an id is `id >> 10`, an
//! index into a directory vector; its slot is the rank of its bit in the
//! page's 1 024-bit occupancy map, so a lookup never searches and never
//! hashes. Ids come from one allocator and ascend, so a new row appends to
//! its page, and the store never rehashes: the largest step it takes is
//! one page's row vector growing. A checkpoint walks the pages
//! ([`RowPages::pages`]) and shares each clean one whole; recovery reads
//! an image page by page straight into them.

use crate::annotation::Annotation;
use crate::collection::Collection;
use crate::container::ContainerRecord;
use crate::dataset::Dataset;
use crate::metadata::StoredRow;
use crate::resource::{LogicalResource, Resource};
use crate::user::{Group, User};
use srb_types::{
    AnnotationId, CollectionId, ContainerId, DatasetId, GroupId, LogicalResourceId, MetaId,
    ResourceId, UserId,
};
use std::collections::BTreeMap;

/// Ids per page: the unit a table stores rows in, and a checkpoint shares
/// or renders.
pub const IMAGE_PAGE_IDS: u64 = 1024;

/// Occupancy words per page.
const WORDS: usize = (IMAGE_PAGE_IDS / 64) as usize;

/// Pages below this number sit in the directory vector. Ids come from one
/// allocator counting up from 1, so only an image this process did not
/// write can name a page above it; those pages sit in an ordered map, and
/// a hostile id costs a map entry, not a directory of its size.
const DENSE_PAGES: u64 = 1 << 20;

/// A table row: what a [`RowPages`] is keyed by.
pub(crate) trait Row {
    /// The row's typed id.
    type Id: Copy;
    /// This row's id.
    fn id(&self) -> Self::Id;
    /// The number behind an id.
    fn raw(id: Self::Id) -> u64;
}

macro_rules! rows {
    ($($row:ty: $id:ty),* $(,)?) => {$(
        impl Row for $row {
            type Id = $id;
            fn id(&self) -> $id {
                self.id
            }
            fn raw(id: $id) -> u64 {
                id.raw()
            }
        }
    )*};
}

rows! {
    User: UserId,
    Group: GroupId,
    Resource: ResourceId,
    LogicalResource: LogicalResourceId,
    Collection: CollectionId,
    Dataset: DatasetId,
    ContainerRecord: ContainerId,
    StoredRow: MetaId,
    Annotation: AnnotationId,
}

/// One page: the rows of up to [`IMAGE_PAGE_IDS`] consecutive ids.
#[derive(Debug, Clone)]
struct Page<R> {
    /// Bit `b` of word `w` is set when id `w * 64 + b` of the page holds
    /// a row.
    occupied: [u64; WORDS],
    /// Rows held by the words in front of each word: the rank of its
    /// first bit.
    before: [u16; WORDS],
    /// The rows, in id order.
    rows: Vec<R>,
}

impl<R> Page<R> {
    fn new() -> Self {
        Page {
            occupied: [0; WORDS],
            before: [0; WORDS],
            rows: Vec::new(),
        }
    }

    /// Where the row of page-relative id `slot` sits, or would sit, and
    /// whether it is there.
    #[inline]
    fn find(&self, slot: u64) -> (usize, bool) {
        let (w, b) = ((slot / 64) as usize, slot % 64);
        let word = self.occupied[w];
        let rank = (word & ((1u64 << b) - 1)).count_ones() as usize;
        (self.before[w] as usize + rank, word >> b & 1 == 1)
    }

    /// Mark `slot` held (`grew`) or free, and move the ranks behind it.
    fn flip(&mut self, slot: u64, grew: bool) {
        let w = (slot / 64) as usize;
        self.occupied[w] ^= 1 << (slot % 64);
        for n in &mut self.before[w + 1..] {
            *n = if grew { *n + 1 } else { *n - 1 };
        }
    }
}

/// Rows in id order, in pages of [`IMAGE_PAGE_IDS`] ids; see the module
/// docs. Iteration ([`RowPages::iter`], `into_iter`) is in id order.
#[derive(Debug, Clone)]
pub struct RowPages<R> {
    /// Page number → page, for pages below [`DENSE_PAGES`]; `None` where
    /// no row is.
    dense: Vec<Option<Box<Page<R>>>>,
    /// The pages above [`DENSE_PAGES`].
    far: BTreeMap<u64, Page<R>>,
    len: usize,
}

impl<R> Default for RowPages<R> {
    fn default() -> Self {
        RowPages {
            dense: Vec::new(),
            far: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<R> RowPages<R> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows, in id order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &R> + '_ {
        self.pages().flat_map(|(_, rows)| rows.iter())
    }

    /// Every page holding a row, page-ascending: its number and its rows
    /// in id order.
    pub(crate) fn pages(&self) -> impl DoubleEndedIterator<Item = (u64, &[R])> + '_ {
        let dense = self.dense.iter().enumerate().filter_map(|(no, page)| {
            page.as_deref()
                .map(|page| (no as u64, page.rows.as_slice()))
        });
        dense.chain(
            self.far
                .iter()
                .map(|(&no, page)| (no, page.rows.as_slice())),
        )
    }

    fn page(&self, no: u64) -> Option<&Page<R>> {
        if no < DENSE_PAGES {
            self.dense.get(no as usize)?.as_deref()
        } else {
            self.far.get(&no)
        }
    }

    fn page_mut(&mut self, no: u64) -> Option<&mut Page<R>> {
        if no < DENSE_PAGES {
            self.dense.get_mut(no as usize)?.as_deref_mut()
        } else {
            self.far.get_mut(&no)
        }
    }

    /// Page `no`, made if it holds no row yet, and the row count. A page
    /// made behind a full previous one gives that page's spare capacity
    /// back: ids ascend, so it is done growing.
    fn page_or_new(&mut self, no: u64) -> (&mut Page<R>, &mut usize) {
        if no >= DENSE_PAGES {
            return (self.far.entry(no).or_insert_with(Page::new), &mut self.len);
        }
        let at = no as usize;
        if at >= self.dense.len() {
            self.dense.resize_with(at + 1, || None);
        }
        if self.dense[at].is_none() {
            if let Some(Some(prev)) = at.checked_sub(1).map(|p| &mut self.dense[p]) {
                prev.rows.shrink_to_fit();
            }
        }
        let page = self.dense[at].get_or_insert_with(|| Box::new(Page::new()));
        (page, &mut self.len)
    }

    /// Let go of page `no`, now empty.
    fn drop_page(&mut self, no: u64) {
        if no >= DENSE_PAGES {
            self.far.remove(&no);
            return;
        }
        self.dense[no as usize] = None;
        while self.dense.last().is_some_and(Option::is_none) {
            self.dense.pop();
        }
    }
}

// Every method here is crate-private, as `Row` is.
#[allow(private_bounds)]
impl<R: Row> RowPages<R> {
    /// The row with id `id`.
    #[inline]
    pub(crate) fn get(&self, id: R::Id) -> Option<&R> {
        let raw = R::raw(id);
        let page = self.page(raw / IMAGE_PAGE_IDS)?;
        match page.find(raw % IMAGE_PAGE_IDS) {
            (at, true) => Some(&page.rows[at]),
            _ => None,
        }
    }

    /// The row with id `id`, to change in place (not its id).
    pub(crate) fn get_mut(&mut self, id: R::Id) -> Option<&mut R> {
        let raw = R::raw(id);
        let page = self.page_mut(raw / IMAGE_PAGE_IDS)?;
        match page.find(raw % IMAGE_PAGE_IDS) {
            (at, true) => Some(&mut page.rows[at]),
            _ => None,
        }
    }

    /// Whether a row with id `id` is held.
    pub(crate) fn contains(&self, id: R::Id) -> bool {
        self.get(id).is_some()
    }

    /// Put `row` under its id; returns the row it replaced. A row whose
    /// id is above every other in its page appends.
    pub(crate) fn insert(&mut self, row: R) -> Option<R> {
        self.put(row).1
    }

    /// [`RowPages::insert`], also handing back the row where it now sits.
    pub(crate) fn put(&mut self, row: R) -> (&R, Option<R>) {
        let raw = R::raw(row.id());
        let slot = raw % IMAGE_PAGE_IDS;
        let (page, len) = self.page_or_new(raw / IMAGE_PAGE_IDS);
        let (at, held) = page.find(slot);
        if held {
            let old = std::mem::replace(&mut page.rows[at], row);
            return (&page.rows[at], Some(old));
        }
        page.rows.insert(at, row);
        page.flip(slot, true);
        *len += 1;
        (&page.rows[at], None)
    }

    /// Take the row with id `id` out.
    pub(crate) fn remove(&mut self, id: R::Id) -> Option<R> {
        let raw = R::raw(id);
        let (no, slot) = (raw / IMAGE_PAGE_IDS, raw % IMAGE_PAGE_IDS);
        let page = self.page_mut(no)?;
        let (at, true) = page.find(slot) else {
            return None;
        };
        let row = page.rows.remove(at);
        page.flip(slot, false);
        let emptied = page.rows.is_empty();
        self.len -= 1;
        if emptied {
            self.drop_page(no);
        }
        Some(row)
    }

    /// Keep only the rows `keep` accepts.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&R) -> bool) {
        let gone: Vec<R::Id> = self.iter().filter(|r| !keep(r)).map(Row::id).collect();
        for id in gone {
            self.remove(id);
        }
    }
}

impl<R: Row> FromIterator<R> for RowPages<R> {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut pages = RowPages::default();
        for row in rows {
            pages.insert(row);
        }
        pages
    }
}

impl<R> IntoIterator for RowPages<R> {
    type Item = R;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<R>>>;

    /// The rows, in id order.
    fn into_iter(self) -> Self::IntoIter {
        let dense = self.dense.into_iter().flatten().map(|page| page.rows);
        let far = self.far.into_values().map(|page| page.rows);
        dense.chain(far).collect::<Vec<_>>().into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use srb_types::AuditId;

    /// A bare row: an id and a payload.
    #[derive(Debug, Clone, PartialEq)]
    struct R {
        id: AuditId,
        v: u64,
    }

    rows! { R: AuditId }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64),
        Remove(u64),
    }

    /// Ids over a few pages, their edges, and now and then one far past
    /// the directory.
    fn id() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..5 * IMAGE_PAGE_IDS,
            (0u64..6).prop_map(|p| p * IMAGE_PAGE_IDS),
            (1u64..6).prop_map(|p| p * IMAGE_PAGE_IDS - 1),
            (0u64..3).prop_map(|k| DENSE_PAGES * IMAGE_PAGE_IDS + k * 5000),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (id(), any::<u64>()).prop_map(|(id, v)| Op::Insert(id, v)),
            id().prop_map(Op::Remove),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a `BTreeMap`: get, insert in and out of order, remove,
        /// id-order iteration, and the page walk.
        #[test]
        fn row_pages_behave_as_an_ordered_map(
            ascending in prop::collection::vec(0u64..3, 0..400),
            ops in prop::collection::vec(op(), 0..300),
        ) {
            let mut pages = RowPages::default();
            let mut model = BTreeMap::new();
            // A fill the way the allocator hands out ids: ascending, with
            // gaps, so rows append.
            let mut next = 1;
            for gap in ascending {
                next += gap;
                prop_assert!(pages.insert(R { id: AuditId(next), v: next }).is_none());
                model.insert(next, next);
                next += 1;
            }
            for op in ops {
                match op {
                    Op::Insert(id, v) => {
                        let old = pages.insert(R { id: AuditId(id), v }).map(|r| r.v);
                        prop_assert_eq!(old, model.insert(id, v));
                    }
                    Op::Remove(id) => {
                        let old = pages.remove(AuditId(id)).map(|r| r.v);
                        prop_assert_eq!(old, model.remove(&id));
                    }
                }
                prop_assert_eq!(pages.len(), model.len());
            }
            for (&id, &v) in &model {
                prop_assert_eq!(pages.get(AuditId(id)).map(|r| r.v), Some(v));
                prop_assert!(pages.get(AuditId(id + 1)).is_some() == model.contains_key(&(id + 1)));
            }
            let rows: Vec<(u64, u64)> = pages.iter().map(|r| (r.id.raw(), r.v)).collect();
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&rows, &want);
            let mut back: Vec<(u64, u64)> = pages.iter().rev().map(|r| (r.id.raw(), r.v)).collect();
            back.reverse();
            prop_assert_eq!(&back, &want);
            let mut walked = Vec::new();
            let mut last_page = None;
            for (no, page_rows) in pages.pages() {
                prop_assert!(!page_rows.is_empty());
                prop_assert!(last_page < Some(no));
                last_page = Some(no);
                for r in page_rows {
                    prop_assert_eq!(r.id.raw() / IMAGE_PAGE_IDS, no);
                    walked.push((r.id.raw(), r.v));
                }
            }
            prop_assert_eq!(&walked, &want);
            let owned: Vec<(u64, u64)> = pages.into_iter().map(|r| (r.id.raw(), r.v)).collect();
            prop_assert_eq!(owned, want);
        }
    }

    #[test]
    fn an_emptied_page_is_let_go() {
        let mut pages: RowPages<R> = [700, 1000, 1400]
            .map(|id| R {
                id: AuditId(id),
                v: id,
            })
            .into_iter()
            .collect();
        assert_eq!(pages.pages().count(), 2);
        pages.retain(|r| r.id.raw() < IMAGE_PAGE_IDS);
        assert_eq!(pages.pages().map(|(no, _)| no).collect::<Vec<_>>(), [0]);
        assert_eq!(pages.dense.len(), 1, "the directory shrinks behind it");
        assert!(pages.remove(AuditId(700)).is_some());
        assert_eq!(pages.get(AuditId(1000)).map(|r| r.v), Some(1000));
        assert!(pages.remove(AuditId(1000)).is_some());
        assert!(pages.is_empty() && pages.dense.is_empty());
    }
}
