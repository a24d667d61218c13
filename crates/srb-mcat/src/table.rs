//! One table type: a table's rows, the maps derived from them, and the
//! records that log them.
//!
//! A [`Table`] keeps its rows in a [`RowPages`] and its derived state (a
//! name index, a path index and child lists, a subject list) beside them,
//! and is the only code that writes either. Every change goes through one
//! pair, [`Derived::index`] and [`Derived::unindex`]: a put unindexes the
//! row it replaces and indexes the new one, an in-place update unindexes
//! the row, changes it and indexes it again, and a remove unindexes it.
//! [`Table::restore`] builds the derived state from the rows in one pass
//! ([`Derived::rebuild`], by default `index` folded over them), so the
//! live derived state equals a rebuild from the rows by construction. Each
//! put or delete is logged from the row type's own record
//! ([`TableRow::put`], [`Deleted::delete`]) through the catalog's one
//! [`WalHook`], under the stamp the caller passes (the generation of a
//! table whose cursors must notice the change, otherwise 0), and the table
//! writes its rows into the image field its row type names
//! ([`TableRow::FIELD`]).
//!
//! A table module keeps what is its own: its lock (built there, with its
//! literal name and rank), its generation counter, its rules (name
//! uniqueness, author checks, capacity) and the reads its callers make.

use crate::annotation::Annotation;
use crate::collection::{Collection, Tree};
use crate::container::ContainerRecord;
use crate::dataset::{Dataset, Names};
use crate::metadata::Subject;
use crate::pages::{Row, RowPages};
use crate::resource::{LogicalResource, Resource};
use crate::snapshot::{Field, ImageWriter};
use crate::user::{Group, User};
use crate::wal::{WalHook, WalOp};
use serde::Serialize;
use srb_types::{AnnotationId, ContainerId, GroupId, LogicalResourceId, ResourceId, UserId};
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Deref;

/// State derived from a table's rows. [`Table`] is its only writer.
pub(crate) trait Derived<R>: Default {
    /// Take `row` in.
    fn index(&mut self, row: &R);
    /// Let `row` go.
    fn unindex(&mut self, row: &R);
    /// The state derived from all of `rows` at once.
    fn rebuild(rows: &RowPages<R>) -> Self {
        let mut derived = Self::default();
        for row in rows.iter() {
            derived.index(row);
        }
        derived
    }
}

/// A row a [`Table`] keeps.
pub(crate) trait TableRow: Row + Serialize + Sized {
    /// What the table derives from its rows.
    type Derived: Derived<Self>;
    /// The image field the rows are written to.
    const FIELD: Field;
    /// The record that puts this row.
    fn put(&self) -> WalOp;
}

/// A row its table deletes, and the record that does.
pub(crate) trait Deleted: TableRow {
    /// The record that deletes the row with id `id`.
    fn delete(id: Self::Id) -> WalOp;
}

/// A name no other row of the table holds, indexed to the row's id.
macro_rules! by_name {
    ($($row:ty),* $(,)?) => {$(
        impl Derived<$row> for HashMap<String, <$row as Row>::Id> {
            fn index(&mut self, row: &$row) {
                self.insert(row.name.clone(), row.id);
            }
            fn unindex(&mut self, row: &$row) {
                self.remove(&row.name);
            }
        }
    )*};
}

by_name!(Group, Resource, LogicalResource, ContainerRecord);

/// A user's name is unique in its domain.
impl Derived<User> for HashMap<(String, String), UserId> {
    fn index(&mut self, u: &User) {
        self.insert((u.name.clone(), u.domain.clone()), u.id);
    }

    fn unindex(&mut self, u: &User) {
        self.remove(&(u.name.clone(), u.domain.clone()));
    }
}

macro_rules! table_rows {
    ($($row:ty: $derived:ty, $field:ident, $put:ident $(, $delete:ident)?;)*) => {$(
        impl TableRow for $row {
            type Derived = $derived;
            const FIELD: Field = Field::$field;
            fn put(&self) -> WalOp {
                WalOp::$put { row: self.clone() }
            }
        }
        $(impl Deleted for $row {
            fn delete(id: Self::Id) -> WalOp {
                WalOp::$delete { id }
            }
        })?
    )*};
}

table_rows! {
    User: HashMap<(String, String), UserId>, Users, UserPut;
    Group: HashMap<String, GroupId>, Groups, GroupPut;
    Resource: HashMap<String, ResourceId>, Resources, ResourcePut;
    LogicalResource: HashMap<String, LogicalResourceId>, LogicalResources, LogicalResourcePut;
    ContainerRecord: HashMap<String, ContainerId>, Containers, ContainerPut, ContainerDelete;
    Annotation: HashMap<Subject, Vec<AnnotationId>>, Annotations, AnnotationPut, AnnotationDelete;
    Collection: Tree, Collections, CollectionPut, CollectionDelete;
    Dataset: Names, Datasets, DatasetPut, DatasetDelete;
}

/// A table: its rows, what it derives from them, and the catalog's WAL
/// hook. Reads go to the rows ([`Deref`]); every write is a method here.
#[derive(Debug)]
pub(crate) struct Table<R: TableRow> {
    rows: RowPages<R>,
    derived: R::Derived,
    wal: WalHook,
}

impl<R: TableRow> Table<R> {
    /// The table over `rows`, its derived state built from them, logging
    /// through `wal`.
    pub(crate) fn restore(rows: RowPages<R>, wal: &WalHook) -> Self {
        Table {
            derived: R::Derived::rebuild(&rows),
            rows,
            wal: wal.clone(),
        }
    }

    /// What the table derives from its rows.
    pub(crate) fn derived(&self) -> &R::Derived {
        &self.derived
    }

    /// Put `row` under its id, in place of any row there, and log it under
    /// `stamp`.
    pub(crate) fn put(&mut self, stamp: u64, row: R) {
        let (row, old) = self.rows.put(row);
        if let Some(old) = &old {
            self.derived.unindex(old);
        }
        self.derived.index(row);
        self.wal.log(stamp, || row.put());
    }

    /// Change the row with id `id` by `change` and log it under `stamp`;
    /// `None` when there is no such row.
    pub(crate) fn update<T>(
        &mut self,
        id: R::Id,
        stamp: u64,
        change: impl FnOnce(&mut R) -> T,
    ) -> Option<T> {
        let done = self.try_update(id, stamp, |row| Ok::<T, Infallible>(change(row)));
        done.map(|Ok(out)| out)
    }

    /// [`Table::update`] by a change that may refuse: a refused change
    /// must leave the row as it found it, and is not logged.
    pub(crate) fn try_update<T, E>(
        &mut self,
        id: R::Id,
        stamp: u64,
        change: impl FnOnce(&mut R) -> Result<T, E>,
    ) -> Option<Result<T, E>> {
        let row = self.rows.get_mut(id)?;
        self.derived.unindex(row);
        let out = change(row);
        self.derived.index(row);
        if out.is_ok() {
            self.wal.log(stamp, || row.put());
        }
        Some(out)
    }

    /// Take the row with id `id` out without logging it, for a module
    /// whose own record says what went.
    pub(crate) fn take(&mut self, id: R::Id) -> Option<R> {
        let row = self.rows.remove(id)?;
        self.derived.unindex(&row);
        Some(row)
    }

    /// The catalog's WAL hook, for a record that is not one row's.
    pub(crate) fn wal(&self) -> &WalHook {
        &self.wal
    }

    /// The rows' image field, page by page.
    pub(crate) fn write_image(&self, w: &mut ImageWriter<'_, '_>) {
        w.pages(R::FIELD, &self.rows);
    }
}

impl<R: Deleted> Table<R> {
    /// Take the row with id `id` out and log its delete under `stamp`.
    pub(crate) fn remove(&mut self, id: R::Id, stamp: u64) -> Option<R> {
        let row = self.take(id)?;
        self.wal.log(stamp, || R::delete(id));
        Some(row)
    }
}

impl<R: TableRow> Deref for Table<R> {
    type Target = RowPages<R>;

    fn deref(&self) -> &RowPages<R> {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::AnnotationKind;
    use srb_storage::DriverKind;
    use srb_types::{
        AccessMatrix, CollectionId, DatasetId, LogicalPath, Permission, SeedStream, SiteId,
        Timestamp,
    };
    use std::fmt::Debug;

    /// A row the test makes up from an id and a draw, and changes in
    /// place. Names carry the id, so no two live rows share a unique key.
    trait Sample: TableRow + Clone {
        fn sample(id: u64, draw: u64) -> Self;
        fn vary(&mut self, draw: u64);
        /// Whether `other` goes with this row when a whole group is
        /// dropped: an annotation's subject, otherwise only itself.
        fn kin(&self, other: &Self) -> bool {
            Self::raw(self.id()) == Self::raw(other.id())
        }
    }

    impl Sample for User {
        fn sample(id: u64, draw: u64) -> Self {
            User {
                id: UserId(id),
                name: format!("u{id}"),
                domain: format!("d{}", draw % 3),
                verifier: [0; 32],
                groups: Vec::new(),
                is_admin: draw.is_multiple_of(2),
            }
        }
        fn vary(&mut self, draw: u64) {
            self.name = format!("u{}.{draw}", self.id);
            self.domain = format!("d{}", draw % 3);
            self.groups.push(GroupId(draw % 5));
        }
    }

    impl Sample for Group {
        fn sample(id: u64, _: u64) -> Self {
            Group {
                id: GroupId(id),
                name: format!("g{id}"),
                members: Vec::new(),
            }
        }
        fn vary(&mut self, draw: u64) {
            self.name = format!("g{}.{draw}", self.id);
            self.members.push(UserId(draw % 5));
        }
    }

    impl Sample for Resource {
        fn sample(id: u64, draw: u64) -> Self {
            Resource {
                id: ResourceId(id),
                name: format!("r{id}"),
                kind: DriverKind::FileSystem,
                site: SiteId(draw % 4),
            }
        }
        fn vary(&mut self, draw: u64) {
            self.name = format!("r{}.{draw}", self.id);
            self.site = SiteId(draw % 4);
        }
    }

    impl Sample for LogicalResource {
        fn sample(id: u64, _: u64) -> Self {
            LogicalResource {
                id: LogicalResourceId(id),
                name: format!("l{id}"),
                members: Vec::new(),
            }
        }
        fn vary(&mut self, draw: u64) {
            self.name = format!("l{}.{draw}", self.id);
            self.members.push(ResourceId(draw % 5));
        }
    }

    impl Sample for ContainerRecord {
        fn sample(id: u64, draw: u64) -> Self {
            ContainerRecord {
                id: ContainerId(id),
                name: format!("c{id}"),
                logical_resource: LogicalResourceId(draw % 3),
                members: Vec::new(),
                size: 0,
                max_size: 1 << 20,
                synced: true,
                created: Timestamp(draw),
            }
        }
        fn vary(&mut self, draw: u64) {
            self.name = format!("c{}.{draw}", self.id);
            self.size += draw % 100;
            self.synced = draw.is_multiple_of(2);
        }
    }

    impl Sample for Annotation {
        fn sample(id: u64, draw: u64) -> Self {
            Annotation {
                id: AnnotationId(id),
                subject: Subject::Dataset(DatasetId(draw % 24)),
                author: UserId(draw % 3),
                at: Timestamp(draw),
                kind: AnnotationKind::Comment,
                location: String::new(),
                text: "c".into(),
            }
        }
        fn vary(&mut self, draw: u64) {
            self.subject = Subject::Dataset(DatasetId(draw % 24));
            self.text = format!("c{draw}");
        }
        fn kin(&self, other: &Self) -> bool {
            self.subject == other.subject
        }
    }

    impl Sample for Dataset {
        fn sample(id: u64, draw: u64) -> Self {
            Dataset {
                id: DatasetId(id),
                coll: CollectionId(draw % 12),
                name: format!("d{id}").into(),
                data_type: "generic".into(),
                owner: UserId(1),
                acl: AccessMatrix::owned_by(UserId(1)),
                replicas: Vec::new(),
                link_target: None,
                lock: None,
                checkout: None,
                versions: Vec::new(),
                current_version: 1,
                created: Timestamp(draw),
                modified: Timestamp(draw),
            }
        }
        /// A third of the changes keep the row's name and collection, as
        /// replica, lock and ACL updates do.
        fn vary(&mut self, draw: u64) {
            self.modified = Timestamp(draw);
            if !draw.is_multiple_of(3) {
                self.coll = CollectionId(draw % 12);
                self.name = format!("d{}.{draw}", self.id).into();
            }
        }
    }

    impl Sample for Collection {
        /// A node under one of a few parents, or now and then a root of
        /// its own; the path ends in a name that carries the id.
        fn sample(id: u64, draw: u64) -> Self {
            let parent = (!draw.is_multiple_of(7)).then_some(CollectionId(draw % 9));
            Collection {
                id: CollectionId(id),
                parent,
                path: path_of(parent, &format!("c{id}")),
                owner: UserId(1),
                acl: AccessMatrix::owned_by(UserId(1)),
                requirements: Vec::new(),
                link_target: draw.is_multiple_of(5).then_some(CollectionId(draw % 9)),
                created: Timestamp(draw),
            }
        }
        /// A third of the changes keep the path and parent, as ACL and
        /// requirement updates do; the rest move and rename the node.
        fn vary(&mut self, draw: u64) {
            self.acl.public = Permission::Read;
            if !draw.is_multiple_of(3) {
                self.parent = Some(CollectionId(draw % 9));
                self.path = path_of(self.parent, &format!("c{}.{draw}", self.id));
            }
        }
    }

    /// `/p<parent>/<name>`, or `/<name>` without a parent.
    fn path_of(parent: Option<CollectionId>, name: &str) -> LogicalPath {
        let under = match parent {
            Some(p) => LogicalPath::root().child(&format!("p{p}")).unwrap(),
            None => LogicalPath::root(),
        };
        under.child(name).unwrap()
    }

    /// The live derived state, kept row by row, against the bulk
    /// `Derived::rebuild` a `Table::restore` of the same rows runs.
    fn assert_derived_state_matches_rebuild<R: Sample>(t: &Table<R>)
    where
        R::Derived: PartialEq + Debug,
    {
        let rebuilt = Table::restore(t.rows.clone(), &WalHook::default());
        assert_eq!(t.derived(), rebuilt.derived());
    }

    /// A seeded run of puts (new rows at ids in any order, and rows
    /// replaced whole), in-place updates, removes and group removes (all
    /// of a subject's annotations, as `remove_all` does), checked against
    /// a rebuild after every step; then every row goes, and nothing
    /// derived is left — no list of a subject whose last annotation went.
    fn derived_state_equals_a_rebuild<R: Sample>(seed: u64)
    where
        R::Derived: PartialEq + Debug,
    {
        let mut t: Table<R> = Table::restore(RowPages::default(), &WalHook::default());
        let mut rng = SeedStream::new(seed);
        for _ in 0..1500 {
            let draw = rng.next_u64() % 1000;
            let held = (!t.is_empty()).then(|| rng.below(t.len()));
            let held = held.and_then(|k| t.iter().nth(k)).cloned();
            match (rng.below(10), held) {
                (0..=3, _) => t.put(0, R::sample(rng.below(600) as u64, draw)),
                (4, Some(row)) => t.put(0, R::sample(R::raw(row.id()), draw)),
                (5..=6, Some(row)) => {
                    assert!(t.update(row.id(), 0, |r| r.vary(draw)).is_some());
                }
                (7..=8, Some(row)) => assert!(t.take(row.id()).is_some()),
                (9, Some(row)) => {
                    let kin: Vec<R::Id> = t.iter().filter(|r| row.kin(r)).map(Row::id).collect();
                    for id in kin {
                        t.take(id);
                    }
                }
                _ => {}
            }
            assert_derived_state_matches_rebuild(&t);
        }
        let ids: Vec<R::Id> = t.iter().map(Row::id).collect();
        for id in ids {
            t.take(id);
            assert_derived_state_matches_rebuild(&t);
        }
        assert_eq!(t.derived(), &R::Derived::default());
    }

    #[test]
    fn derived_state_equals_a_rebuild_from_the_rows() {
        derived_state_equals_a_rebuild::<Annotation>(0xa770);
        derived_state_equals_a_rebuild::<ContainerRecord>(0xc0);
        derived_state_equals_a_rebuild::<Resource>(0x5e);
        derived_state_equals_a_rebuild::<LogicalResource>(0x10);
        derived_state_equals_a_rebuild::<User>(0x05e5);
        derived_state_equals_a_rebuild::<Group>(0x9);
        derived_state_equals_a_rebuild::<Dataset>(0xda7a);
        derived_state_equals_a_rebuild::<Collection>(0xc011);
    }

    /// A put over a held id replaces the row, and its derived entries; a
    /// remove takes the row and them out once.
    #[test]
    fn a_put_replaces_and_a_remove_deletes() {
        let mut t: Table<Annotation> = Table::restore(RowPages::default(), &WalHook::default());
        t.put(0, Annotation::sample(7, 1));
        t.put(0, Annotation::sample(7, 2));
        assert_eq!(t.len(), 1);
        let subject = Subject::Dataset(DatasetId(2));
        assert_eq!(t.get(AnnotationId(7)).map(|a| a.subject), Some(subject));
        assert_eq!(t.derived().len(), 1);
        assert_eq!(t.derived()[&subject], [AnnotationId(7)]);
        assert!(t.remove(AnnotationId(7), 0).is_some());
        assert!(t.remove(AnnotationId(7), 0).is_none());
        assert!(t.derived().is_empty());
    }
}
