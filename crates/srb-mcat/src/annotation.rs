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
use crate::table::{Derived, Table};
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

/// The annotation table's derived state: each subject's annotations, in
/// id order. A subject whose last annotation goes has no entry.
impl Derived<Annotation> for HashMap<Subject, Vec<AnnotationId>> {
    fn index(&mut self, a: &Annotation) {
        let ids = self.entry(a.subject).or_default();
        let at = ids.partition_point(|&id| id < a.id);
        ids.insert(at, a.id);
    }

    fn unindex(&mut self, a: &Annotation) {
        if let Some(ids) = self.get_mut(&a.subject) {
            ids.retain(|&id| id != a.id);
            if ids.is_empty() {
                self.remove(&a.subject);
            }
        }
    }
}

/// Annotation table.
#[derive(Debug)]
pub struct AnnotationTable {
    pub(crate) rows: RwLock<Table<Annotation>>,
}

impl AnnotationTable {
    /// Empty table.
    pub fn new() -> Self {
        AnnotationTable::restore(RowPages::default(), &WalHook::default())
    }

    /// The table over image rows, logging through `wal`.
    pub(crate) fn restore(rows: RowPages<Annotation>, wal: &WalHook) -> Self {
        let rows = Table::restore(rows, wal);
        AnnotationTable {
            rows: RwLock::new(LockRank::McatTable, "mcat.annotations", rows),
        }
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
        let mut row = Annotation {
            id: AnnotationId(0),
            subject,
            author,
            at,
            kind,
            location: location.to_string(),
            text: text.to_string(),
        };
        // The id is drawn under the guard, so a subject's list, the log
        // and the pages see the same order under any number of writers.
        let mut g = self.rows.write();
        row.id = ids.next();
        let id = row.id;
        g.put(0, row);
        id
    }

    /// All annotations on a subject, oldest first.
    pub fn for_subject(&self, subject: Subject) -> Vec<Annotation> {
        let g = self.rows.read();
        g.derived()
            .get(&subject)
            .map(|ids| ids.iter().filter_map(|&i| g.get(i)).cloned().collect())
            .unwrap_or_default()
    }

    /// Remove one annotation; only its author may (enforced by caller's
    /// permission layer, checked again here for defence in depth).
    pub fn remove(&self, id: AnnotationId, by: UserId) -> SrbResult<()> {
        let mut g = self.rows.write();
        let row = g
            .get(id)
            .ok_or_else(|| SrbError::NotFound(format!("annotation {id}")))?;
        if row.author != by {
            return Err(SrbError::PermissionDenied(format!(
                "annotation {id} belongs to {}",
                row.author
            )));
        }
        g.remove(id, 0);
        Ok(())
    }

    /// Drop all annotations on a subject (object deletion): one
    /// `AnnotationClear` record, which names the subject, not its rows.
    pub fn remove_all(&self, subject: Subject) {
        let mut g = self.rows.write();
        let Some(ids) = g.derived().get(&subject).cloned() else {
            return;
        };
        for id in ids {
            g.take(id);
        }
        g.wal().log(0, || WalOp::AnnotationClear { subject });
    }

    /// Does any annotation on the subject match `pattern` (SQL LIKE)?
    pub(crate) fn text_matches(&self, subject: Subject, pattern: &str) -> bool {
        self.for_subject(subject)
            .iter()
            .any(|a| srb_types::value::like_match(pattern, &a.text))
    }

    /// Total number of annotations.
    pub fn count(&self) -> usize {
        self.rows.read().len()
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
