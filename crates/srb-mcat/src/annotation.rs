//! Annotations and commentary metadata.
//!
//! Paper §5: "useful for associating free-form metadata to a SRB object …
//! notes, comments, errata, queries and answers, annotations, memoranda.
//! These have a type/location associated with them and the timestamp and
//! the annotation writer's name. Unlike other types of metadata, the
//! annotations and commentary can be inserted by any user with a read
//! permission on the object."

use crate::metadata::Subject;
use crate::pages::RowPages;
use crate::snapshot::{Field, ImageWriter};
use crate::wal::{WalHook, WalOp};
use serde::{Deserialize, Serialize};
use srb_types::sync::{LockRank, RwLock};
use srb_types::{AnnotationId, IdGen, SrbError, SrbResult, Timestamp, UserId};
use std::collections::HashMap;

/// The flavour of an annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnnotationKind {
    /// Free-form comment.
    Comment,
    /// Numeric or star rating.
    Rating,
    /// Correction to the object's content.
    Errata,
    /// Question/answer thread entry.
    Dialogue,
    /// Scholarly annotation.
    Annotation,
    /// Memorandum.
    Memo,
}

impl AnnotationKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AnnotationKind::Comment => "comment",
            AnnotationKind::Rating => "rating",
            AnnotationKind::Errata => "errata",
            AnnotationKind::Dialogue => "dialogue",
            AnnotationKind::Annotation => "annotation",
            AnnotationKind::Memo => "memo",
        }
    }

    /// Parse the form value used by MySRB.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.trim().to_ascii_lowercase().as_str() {
            "comment" => AnnotationKind::Comment,
            "rating" => AnnotationKind::Rating,
            "errata" => AnnotationKind::Errata,
            "dialogue" => AnnotationKind::Dialogue,
            "annotation" => AnnotationKind::Annotation,
            "memo" => AnnotationKind::Memo,
            _ => return None,
        })
    }

    /// All kinds, for form drop-downs.
    pub fn all() -> &'static [AnnotationKind] {
        &[
            AnnotationKind::Comment,
            AnnotationKind::Rating,
            AnnotationKind::Errata,
            AnnotationKind::Dialogue,
            AnnotationKind::Annotation,
            AnnotationKind::Memo,
        ]
    }
}

/// One annotation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Annotation {
    /// Catalog id.
    pub id: AnnotationId,
    /// Annotated subject.
    pub subject: Subject,
    /// Writer.
    pub author: UserId,
    /// When it was written (virtual time).
    pub at: Timestamp,
    /// Flavour.
    pub kind: AnnotationKind,
    /// Free-form location within the object ("type/location" in the
    /// paper), e.g. `page 3`, `frame 1120`. Empty when whole-object.
    pub location: String,
    /// The text itself.
    pub text: String,
}

/// Annotation table.
#[derive(Debug)]
pub struct AnnotationTable {
    inner: RwLock<Inner>,
    /// Redo-log hook; a no-op until the catalog enables durability.
    wal: WalHook,
}

impl Default for AnnotationTable {
    fn default() -> Self {
        AnnotationTable {
            inner: RwLock::new(LockRank::McatTable, "mcat.annotations", Inner::default()),
            wal: WalHook::default(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    rows: RowPages<Annotation>,
    by_subject: HashMap<Subject, Vec<AnnotationId>>,
}

impl AnnotationTable {
    /// Empty table.
    pub fn new() -> Self {
        AnnotationTable::default()
    }

    /// Add an annotation.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &self,
        ids: &IdGen,
        subject: Subject,
        author: UserId,
        at: Timestamp,
        kind: AnnotationKind,
        location: &str,
        text: &str,
    ) -> AnnotationId {
        let id: AnnotationId = ids.next();
        let row = Annotation {
            id,
            subject,
            author,
            at,
            kind,
            location: location.to_string(),
            text: text.to_string(),
        };
        let mut g = self.inner.write();
        g.by_subject.entry(subject).or_default().push(id);
        self.wal
            .log(0, || WalOp::AnnotationPut { row: row.clone() });
        g.rows.insert(row);
        id
    }

    /// All annotations on a subject, oldest first.
    pub fn for_subject(&self, subject: Subject) -> Vec<Annotation> {
        let g = self.inner.read();
        g.by_subject
            .get(&subject)
            .map(|ids| ids.iter().filter_map(|&i| g.rows.get(i)).cloned().collect())
            .unwrap_or_default()
    }

    /// Remove one annotation; only its author may (enforced by caller's
    /// permission layer, checked again here for defence in depth).
    pub fn remove(&self, id: AnnotationId, by: UserId) -> SrbResult<()> {
        let mut g = self.inner.write();
        let row = g
            .rows
            .get(id)
            .ok_or_else(|| SrbError::NotFound(format!("annotation {id}")))?;
        if row.author != by {
            return Err(SrbError::PermissionDenied(format!(
                "annotation {id} belongs to {}",
                row.author
            )));
        }
        let row = g
            .rows
            .remove(id)
            .ok_or_else(|| SrbError::NotFound(format!("annotation {id}")))?;
        let emptied = g.by_subject.get_mut(&row.subject).is_some_and(|v| {
            v.retain(|&a| a != id);
            v.is_empty()
        });
        if emptied {
            g.by_subject.remove(&row.subject);
        }
        self.wal.log(0, || WalOp::AnnotationDelete { id });
        Ok(())
    }

    /// Drop all annotations on a subject (object deletion).
    pub fn remove_all(&self, subject: Subject) {
        let mut g = self.inner.write();
        if let Some(ids) = g.by_subject.remove(&subject) {
            for id in ids {
                g.rows.remove(id);
            }
            self.wal.log(0, || WalOp::AnnotationClear { subject });
        }
    }

    /// Does any annotation on the subject match `pattern` (SQL LIKE)?
    pub(crate) fn text_matches(&self, subject: Subject, pattern: &str) -> bool {
        self.for_subject(subject)
            .iter()
            .any(|a| srb_types::value::like_match(pattern, &a.text))
    }

    /// The image's `"annotations"` field, under one read guard.
    pub(crate) fn write_image(&self, w: &mut ImageWriter<'_, '_>) {
        w.pages(Field::Annotations, &self.inner.read().rows);
    }

    /// The table over image rows, its subject index built from them.
    pub(crate) fn restore(rows: RowPages<Annotation>) -> Self {
        let t = AnnotationTable::new();
        {
            let mut g = t.inner.write();
            for a in rows.iter() {
                g.by_subject.entry(a.subject).or_default().push(a.id);
            }
            g.rows = rows;
        }
        t
    }

    /// Total number of annotations.
    pub fn count(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// Wire this table to the catalog's WAL.
    pub(crate) fn attach_wal(&self, wal: std::sync::Arc<crate::wal::Wal>) {
        self.wal.attach(wal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_types::DatasetId;

    fn sub(n: u64) -> Subject {
        Subject::Dataset(DatasetId(n))
    }

    #[test]
    fn add_and_list_in_order() {
        let t = AnnotationTable::new();
        let ids = IdGen::new();
        t.add(
            &ids,
            sub(1),
            UserId(1),
            Timestamp(1),
            AnnotationKind::Comment,
            "",
            "first",
        );
        t.add(
            &ids,
            sub(1),
            UserId(2),
            Timestamp(2),
            AnnotationKind::Rating,
            "overall",
            "5 stars",
        );
        let rows = t.for_subject(sub(1));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].text, "first");
        assert_eq!(rows[1].kind, AnnotationKind::Rating);
        assert_eq!(rows[1].location, "overall");
        assert!(t.for_subject(sub(9)).is_empty());
    }

    #[test]
    fn only_author_can_remove() {
        let t = AnnotationTable::new();
        let ids = IdGen::new();
        let a = t.add(
            &ids,
            sub(1),
            UserId(1),
            Timestamp(0),
            AnnotationKind::Errata,
            "",
            "typo on p3",
        );
        assert!(matches!(
            t.remove(a, UserId(2)),
            Err(SrbError::PermissionDenied(_))
        ));
        t.remove(a, UserId(1)).unwrap();
        assert!(t.for_subject(sub(1)).is_empty());
        assert!(t.remove(a, UserId(1)).is_err());
    }

    #[test]
    fn remove_all_clears_subject() {
        let t = AnnotationTable::new();
        let ids = IdGen::new();
        for i in 0..3 {
            t.add(
                &ids,
                sub(1),
                UserId(i),
                Timestamp(i),
                AnnotationKind::Dialogue,
                "",
                "q",
            );
        }
        t.add(
            &ids,
            sub(2),
            UserId(1),
            Timestamp(0),
            AnnotationKind::Memo,
            "",
            "keep",
        );
        t.remove_all(sub(1));
        assert_eq!(t.count(), 1);
        assert_eq!(t.for_subject(sub(2)).len(), 1);
    }

    #[test]
    fn like_matching_over_annotations() {
        let t = AnnotationTable::new();
        let ids = IdGen::new();
        t.add(
            &ids,
            sub(1),
            UserId(1),
            Timestamp(0),
            AnnotationKind::Comment,
            "",
            "wonderful plumage",
        );
        assert!(t.text_matches(sub(1), "%plumage%"));
        assert!(!t.text_matches(sub(1), "%beak%"));
        assert!(!t.text_matches(sub(2), "%plumage%"));
    }

    #[test]
    fn kind_parse_round_trip() {
        for k in AnnotationKind::all() {
            assert_eq!(AnnotationKind::parse(k.name()), Some(*k));
        }
        assert_eq!(AnnotationKind::parse("sticker"), None);
    }

    /// The live table's derived map against a rebuild from its rows.
    fn assert_derived_state_matches_rebuild(t: &AnnotationTable) {
        let g = t.inner.read();
        let rebuilt = AnnotationTable::restore(g.rows.clone());
        let r = rebuilt.inner.read();
        assert_eq!(g.by_subject, r.by_subject);
    }

    /// A seeded run of adds, removes and whole-subject removes: the live
    /// table never keeps derived state its rows would not rebuild, such
    /// as the list of a subject whose last annotation went.
    #[test]
    fn derived_state_equals_a_rebuild_from_the_rows() {
        use srb_types::SeedStream;
        let t = AnnotationTable::new();
        let ids = IdGen::new();
        let mut rng = SeedStream::new(0xa770);
        let mut live: Vec<(AnnotationId, UserId)> = Vec::new();
        for step in 0..3000 {
            match rng.below(10) {
                0..=4 => {
                    let author = UserId(rng.below(3) as u64);
                    let id = t.add(
                        &ids,
                        sub(rng.below(24) as u64),
                        author,
                        Timestamp(step),
                        AnnotationKind::Comment,
                        "",
                        "c",
                    );
                    live.push((id, author));
                }
                5..=8 if !live.is_empty() => {
                    let (id, author) = live.swap_remove(rng.below(live.len()));
                    t.remove(id, author).unwrap();
                }
                9 => {
                    t.remove_all(sub(rng.below(24) as u64));
                    let g = t.inner.read();
                    live.retain(|&(id, _)| g.rows.contains(id));
                }
                _ => {}
            }
            if step % 101 == 0 {
                assert_derived_state_matches_rebuild(&t);
            }
        }
        assert_derived_state_matches_rebuild(&t);
        for (id, author) in live {
            t.remove(id, author).unwrap();
        }
        assert_derived_state_matches_rebuild(&t);
        assert!(t.inner.read().by_subject.is_empty());
    }
}
