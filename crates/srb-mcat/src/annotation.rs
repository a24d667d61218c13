//! Annotations and commentary metadata.
//!
//! Paper §5: "useful for associating free-form metadata to a SRB object …
//! notes, comments, errata, queries and answers, annotations, memoranda.
//! These have a type/location associated with them and the timestamp and
//! the annotation writer's name. Unlike other types of metadata, the
//! annotations and commentary can be inserted by any user with a read
//! permission on the object."

use crate::metadata::Subject;
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
    rows: HashMap<AnnotationId, Annotation>,
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
        g.rows.insert(id, row);
        id
    }

    /// All annotations on a subject, oldest first.
    pub fn for_subject(&self, subject: Subject) -> Vec<Annotation> {
        let g = self.inner.read();
        g.by_subject
            .get(&subject)
            .map(|ids| ids.iter().filter_map(|i| g.rows.get(i)).cloned().collect())
            .unwrap_or_default()
    }

    /// Remove one annotation; only its author may (enforced by caller's
    /// permission layer, checked again here for defence in depth).
    pub fn remove(&self, id: AnnotationId, by: UserId) -> SrbResult<()> {
        let mut g = self.inner.write();
        let row = g
            .rows
            .get(&id)
            .ok_or_else(|| SrbError::NotFound(format!("annotation {id}")))?;
        if row.author != by {
            return Err(SrbError::PermissionDenied(format!(
                "annotation {id} belongs to {}",
                row.author
            )));
        }
        let row = g
            .rows
            .remove(&id)
            .ok_or_else(|| SrbError::NotFound(format!("annotation {id}")))?;
        if let Some(v) = g.by_subject.get_mut(&row.subject) {
            v.retain(|&a| a != id);
        }
        self.wal.log(0, || WalOp::AnnotationDelete { id });
        Ok(())
    }

    /// Drop all annotations on a subject (object deletion).
    pub fn remove_all(&self, subject: Subject) {
        let mut g = self.inner.write();
        if let Some(ids) = g.by_subject.remove(&subject) {
            for id in ids {
                g.rows.remove(&id);
            }
            self.wal.log(0, || WalOp::AnnotationClear { subject });
        }
    }

    /// Does any annotation on the subject match `pattern` (SQL LIKE)?
    pub fn text_matches(&self, subject: Subject, pattern: &str) -> bool {
        self.for_subject(subject)
            .iter()
            .any(|a| srb_types::value::like_match(pattern, &a.text))
    }

    /// Every annotation row, sorted by id (snapshots).
    pub fn dump(&self) -> Vec<Annotation> {
        let g = self.inner.read();
        let mut v: Vec<Annotation> = g.rows.values().cloned().collect();
        v.sort_by_key(|a| a.id);
        v
    }

    /// Rebuild the table from snapshot rows.
    pub fn restore(rows: Vec<Annotation>) -> Self {
        let t = AnnotationTable::new();
        {
            let mut g = t.inner.write();
            for a in rows {
                g.by_subject.entry(a.subject).or_default().push(a.id);
                g.rows.insert(a.id, a);
            }
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
}
