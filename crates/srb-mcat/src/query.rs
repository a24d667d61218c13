//! Query types for the conjunctive attribute search.
//!
//! MySRB's query page builds a conjunction of conditions, each with four
//! parts: an attribute name (drop-down of queryable names in the scope
//! collection and everything under it), a comparison operator, a value, and
//! a check-box selecting the attribute for display in the result listing.
//! "The query is taken as a conjunctive query … an AND of all the
//! conditions." Execution lives in [`crate::catalog::Mcat`].

use srb_types::{CompareOp, DatasetId, LogicalPath, MetaValue, SrbError, SrbResult};

/// One condition of a conjunctive query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCondition {
    /// Attribute name (user metadata, or a system attribute when the query
    /// enables system metadata: `name`, `data_type`, `size`, `owner`).
    pub attr: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Comparison value.
    pub value: MetaValue,
}

impl QueryCondition {
    /// Convenience constructor parsing the operator spelling.
    pub fn parse(attr: &str, op: &str, value: &str) -> SrbResult<Self> {
        if attr.trim().is_empty() {
            return Err(SrbError::Invalid("empty attribute name".into()));
        }
        Ok(QueryCondition {
            attr: attr.trim().to_string(),
            op: CompareOp::parse(op)?,
            value: MetaValue::parse(value),
        })
    }
}

/// A conjunctive attribute query, scoped to a collection subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Search this collection and every collection under it ("one can
    /// query across collections by being above the collections").
    pub scope: LogicalPath,
    /// ANDed conditions.
    pub conditions: Vec<QueryCondition>,
    /// Attribute names whose values appear in the result listing (the
    /// check-boxes; may include attributes not used in any condition).
    pub select: Vec<String>,
    /// Also match system-defined metadata (name/data_type/size/owner).
    pub include_system: bool,
    /// Also match annotation text (attribute name `annotation`).
    pub include_annotations: bool,
    /// Keep the first this many hits in path order (0 = unlimited).
    pub limit: usize,
}

impl Query {
    /// A query over the whole name space.
    pub fn everywhere() -> Self {
        Query {
            scope: LogicalPath::root(),
            conditions: Vec::new(),
            select: Vec::new(),
            include_system: false,
            include_annotations: false,
            limit: 0,
        }
    }

    /// Scope the query to a collection subtree.
    pub fn under(mut self, scope: LogicalPath) -> Self {
        self.scope = scope;
        self
    }

    /// Add a condition.
    pub fn and(mut self, attr: &str, op: CompareOp, value: impl Into<MetaValue>) -> Self {
        self.conditions.push(QueryCondition {
            attr: attr.to_string(),
            op,
            value: value.into(),
        });
        self
    }

    /// Request an attribute in the result listing.
    pub fn show(mut self, attr: &str) -> Self {
        self.select.push(attr.to_string());
        self
    }

    /// Enable system-attribute matching.
    pub fn with_system(mut self) -> Self {
        self.include_system = true;
        self
    }

    /// Enable annotation matching.
    pub fn with_annotations(mut self) -> Self {
        self.include_annotations = true;
        self
    }

    /// Cap the number of hits.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = n;
        self
    }
}

/// One query hit.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHit {
    /// The matching dataset.
    pub dataset: DatasetId,
    /// Its logical path at query time.
    pub path: String,
    /// `(attribute, value)` pairs for the selected attributes, in `select`
    /// order; missing attributes render as empty strings.
    pub selected: Vec<(String, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let q = Query::everywhere()
            .under(LogicalPath::parse("/Cultures").unwrap())
            .and("species", CompareOp::Like, "%condor%")
            .and("wingspan", CompareOp::Gt, 100i64)
            .show("species")
            .show("rating")
            .with_system()
            .with_annotations()
            .limit(10);
        assert_eq!(q.scope.to_string(), "/Cultures");
        assert_eq!(q.conditions.len(), 2);
        assert_eq!(q.select, vec!["species", "rating"]);
        assert!(q.include_system);
        assert!(q.include_annotations);
        assert_eq!(q.limit, 10);
    }

    #[test]
    fn condition_parse() {
        let c = QueryCondition::parse("wingspan", ">=", "250").unwrap();
        assert_eq!(c.op, CompareOp::Ge);
        assert_eq!(c.value, MetaValue::Int(250));
        assert!(QueryCondition::parse("", "=", "x").is_err());
        assert!(QueryCondition::parse("a", "~~", "x").is_err());
    }
}
