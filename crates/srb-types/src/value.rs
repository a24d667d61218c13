//! Metadata values and the MCAT comparison operators.
//!
//! The paper stores user-defined and type-oriented metadata as
//! *(name, value, units)* triplets and exposes eight comparison operators in
//! the MySRB query builder: `=, >, <, <=, >=, <>, like, not like`.
//! `MetaValue` keeps the original lexical form but compares numerically when
//! both sides parse as numbers, matching how curators expect `wingspan > 9`
//! to behave against a value ingested as the string `"12.5"`.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

use crate::error::{SrbError, SrbResult};
use crate::short::ShortStr;

/// A metadata value: text, integer or floating point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MetaValue {
    /// Free text (also the fallback lexical form), inline when short.
    Text(ShortStr),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
}

impl MetaValue {
    /// Parse a lexical form: integer first, then float, else text.
    pub fn parse(s: &str) -> MetaValue {
        if let Ok(i) = s.parse::<i64>() {
            return MetaValue::Int(i);
        }
        if let Ok(f) = s.parse::<f64>() {
            if f.is_finite() {
                return MetaValue::Float(f);
            }
        }
        MetaValue::Text(s.into())
    }

    /// Numeric view, when the value is or parses as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetaValue::Int(i) => Some(*i as f64),
            MetaValue::Float(f) => Some(*f),
            MetaValue::Text(s) => s.parse::<f64>().ok().filter(|f| f.is_finite()),
        }
    }

    /// Lexical form (what MySRB displays and what LIKE matches against).
    pub fn lexical(&self) -> String {
        match self {
            MetaValue::Text(s) => s.to_string(),
            MetaValue::Int(i) => i.to_string(),
            MetaValue::Float(f) => format!("{f}"),
        }
    }

    /// Total order used by the catalog's value indexes: numbers first (by
    /// numeric value), then text (case-folded, raw tie-break — see
    /// [`text_index_cmp`]). Deterministic for NaN-free values;
    /// `MetaValue::parse` never produces NaN.
    pub fn index_cmp(&self, other: &MetaValue) -> Ordering {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => text_index_cmp(&self.lexical(), &other.lexical()),
        }
    }
}

/// The text leg of the index order: case-folded comparison first, raw
/// lexicographic as the tie-break, so two strings compare `Equal` only when
/// they are byte-identical. `LIKE` matches case-insensitively, so keeping
/// case-folded runs contiguous in the ordered index is what lets a prefix
/// pattern (`foo%`) become a bounded range scan; the range operators use the
/// same order (via [`CompareOp::eval`]) so index scans and direct evaluation
/// always agree.
pub fn text_index_cmp(a: &str, b: &str) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    match a.to_lowercase().cmp(&b.to_lowercase()) {
        Ordering::Equal => a.cmp(b),
        other => other,
    }
}

/// The literal prefix of a `LIKE` pattern — the characters before the first
/// `%` or `_` wildcard. `None` when the pattern starts with a wildcard.
pub fn like_prefix(pattern: &str) -> Option<String> {
    let prefix: String = pattern
        .chars()
        .take_while(|c| *c != '%' && *c != '_')
        .collect();
    if prefix.is_empty() {
        None
    } else {
        Some(prefix)
    }
}

/// When a `LIKE` pattern can be planned as a bounded prefix scan over the
/// ordered value index, the case-folded prefix to scan from; `None` when the
/// pattern must fall back to a partition scan. A prefix whose first folded
/// character could begin a *numeric* lexical form (digits, sign, leading
/// dot, or the `inf`/`nan` spellings of non-finite floats) is rejected,
/// because numeric keys sort by value — not by lexical prefix — so the scan
/// could miss matches there.
pub fn like_scan_prefix(pattern: &str) -> Option<String> {
    let fold = like_prefix(pattern)?.to_lowercase();
    let first = fold.chars().next()?;
    if first.is_ascii_digit() || matches!(first, '-' | '+' | '.' | 'i' | 'n') {
        return None;
    }
    Some(fold)
}

impl PartialEq for MetaValue {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a == b,
            (None, None) => self.lexical() == other.lexical(),
            _ => false,
        }
    }
}

impl Eq for MetaValue {}

impl fmt::Display for MetaValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lexical())
    }
}

impl From<&str> for MetaValue {
    fn from(s: &str) -> Self {
        MetaValue::parse(s)
    }
}

impl From<i64> for MetaValue {
    fn from(i: i64) -> Self {
        MetaValue::Int(i)
    }
}

impl From<f64> for MetaValue {
    fn from(f: f64) -> Self {
        MetaValue::Float(f)
    }
}

/// A *(name, value, units)* metadata triplet, the paper's unit of
/// descriptive metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Triplet {
    /// Attribute name, e.g. `wingspan`.
    pub name: String,
    /// Attribute value.
    pub value: MetaValue,
    /// Units of the value, e.g. `cm`; empty when unitless.
    pub units: String,
}

impl Triplet {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        value: impl Into<MetaValue>,
        units: impl Into<String>,
    ) -> Self {
        Triplet {
            name: name.into(),
            value: value.into(),
            units: units.into(),
        }
    }
}

/// The eight comparison operators of the MySRB query builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// SQL-style `LIKE` with `%` and `_` wildcards.
    Like,
    /// Negated `LIKE`.
    NotLike,
}

impl CompareOp {
    /// Parse the operator spelling used in the web query form.
    pub fn parse(s: &str) -> SrbResult<CompareOp> {
        Ok(match s.trim().to_ascii_lowercase().as_str() {
            "=" | "==" => CompareOp::Eq,
            "<>" | "!=" => CompareOp::Ne,
            ">" => CompareOp::Gt,
            "<" => CompareOp::Lt,
            ">=" => CompareOp::Ge,
            "<=" => CompareOp::Le,
            "like" => CompareOp::Like,
            "not like" => CompareOp::NotLike,
            other => return Err(SrbError::Parse(format!("unknown operator '{other}'"))),
        })
    }

    /// Evaluate `lhs OP rhs`.
    pub fn eval(self, lhs: &MetaValue, rhs: &MetaValue) -> bool {
        match self {
            CompareOp::Eq => lhs == rhs,
            CompareOp::Ne => lhs != rhs,
            CompareOp::Gt => ordered(lhs, rhs) == Some(Ordering::Greater),
            CompareOp::Lt => ordered(lhs, rhs) == Some(Ordering::Less),
            CompareOp::Ge => matches!(
                ordered(lhs, rhs),
                Some(Ordering::Greater) | Some(Ordering::Equal)
            ),
            CompareOp::Le => matches!(
                ordered(lhs, rhs),
                Some(Ordering::Less) | Some(Ordering::Equal)
            ),
            CompareOp::Like => like_match(&rhs.lexical(), &lhs.lexical()),
            CompareOp::NotLike => !like_match(&rhs.lexical(), &lhs.lexical()),
        }
    }

    /// The spelling shown in the MySRB drop-down.
    pub fn display(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Gt => ">",
            CompareOp::Lt => "<",
            CompareOp::Ge => ">=",
            CompareOp::Le => "<=",
            CompareOp::Like => "like",
            CompareOp::NotLike => "not like",
        }
    }

    /// All operators, in the order the web form lists them.
    pub fn all() -> &'static [CompareOp] {
        &[
            CompareOp::Eq,
            CompareOp::Gt,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Ge,
            CompareOp::Ne,
            CompareOp::Like,
            CompareOp::NotLike,
        ]
    }
}

fn ordered(lhs: &MetaValue, rhs: &MetaValue) -> Option<Ordering> {
    match (lhs.as_f64(), rhs.as_f64()) {
        (Some(a), Some(b)) => a.partial_cmp(&b),
        // Text ranges use the same case-folded order as the value index, so
        // an index range scan and a direct evaluation never disagree.
        (None, None) => Some(text_index_cmp(&lhs.lexical(), &rhs.lexical())),
        // Number vs text is incomparable for range operators.
        _ => None,
    }
}

/// SQL LIKE matcher: `%` matches any run (including empty), `_` any single
/// character. Case-insensitive, as MySRB's search is.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let t: Vec<char> = text.to_lowercase().chars().collect();
    // Iterative two-pointer algorithm with backtracking on the last `%`.
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_prefers_int_then_float_then_text() {
        assert_eq!(MetaValue::parse("42"), MetaValue::Int(42));
        assert_eq!(MetaValue::parse("-3"), MetaValue::Int(-3));
        assert_eq!(MetaValue::parse("2.5"), MetaValue::Float(2.5));
        assert_eq!(MetaValue::parse("eagle"), MetaValue::Text("eagle".into()));
        // Non-finite floats stay text.
        assert!(matches!(MetaValue::parse("inf"), MetaValue::Text(_)));
        assert!(matches!(MetaValue::parse("NaN"), MetaValue::Text(_)));
    }

    #[test]
    fn numeric_equality_crosses_representations() {
        assert_eq!(MetaValue::Int(3), MetaValue::Float(3.0));
        assert_eq!(MetaValue::Text("3".into()), MetaValue::Int(3));
        assert_ne!(MetaValue::Text("3a".into()), MetaValue::Int(3));
    }

    #[test]
    fn range_operators_are_numeric_when_possible() {
        let op = CompareOp::Gt;
        assert!(op.eval(&"12.5".into(), &MetaValue::Int(9)));
        assert!(!op.eval(&"9".into(), &MetaValue::Int(9)));
        // "12.5" as text would sort before "9"; numeric comparison must win.
        assert!(CompareOp::Lt.eval(&MetaValue::Int(9), &"12.5".into()));
    }

    #[test]
    fn text_ordering_is_lexicographic() {
        assert!(CompareOp::Lt.eval(&"apple".into(), &"banana".into()));
        assert!(CompareOp::Ge.eval(&"pear".into(), &"pear".into()));
    }

    #[test]
    fn mixed_number_text_is_incomparable_for_ranges() {
        assert!(!CompareOp::Gt.eval(&"eagle".into(), &MetaValue::Int(1)));
        assert!(!CompareOp::Le.eval(&"eagle".into(), &MetaValue::Int(1)));
        // But <> still distinguishes them.
        assert!(CompareOp::Ne.eval(&"eagle".into(), &MetaValue::Int(1)));
    }

    #[test]
    fn operator_parsing_covers_all_spellings() {
        for op in CompareOp::all() {
            assert_eq!(CompareOp::parse(op.display()).unwrap(), *op);
        }
        assert_eq!(CompareOp::parse("!=").unwrap(), CompareOp::Ne);
        assert_eq!(CompareOp::parse(" LIKE ").unwrap(), CompareOp::Like);
        assert!(CompareOp::parse("~").is_err());
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("%", ""));
        assert!(like_match("%", "anything"));
        assert!(like_match("a%", "avian"));
        assert!(like_match("%culture", "Avian Culture"));
        assert!(like_match("a_ian", "avian"));
        assert!(!like_match("a_ian", "aavian"));
        assert!(like_match("%bird%", "the Bird house"));
        assert!(!like_match("bird", "birds"));
        assert!(like_match("b%d%s", "birdhouses"));
        assert!(!like_match("", "x"));
        assert!(like_match("", ""));
    }

    #[test]
    fn not_like_is_negation() {
        let v: MetaValue = "avian".into();
        let pat: MetaValue = "av%".into();
        assert!(CompareOp::Like.eval(&v, &pat));
        assert!(!CompareOp::NotLike.eval(&v, &pat));
    }

    #[test]
    fn index_cmp_numbers_before_text() {
        let mut vals = [
            MetaValue::parse("pear"),
            MetaValue::parse("10"),
            MetaValue::parse("2.5"),
            MetaValue::parse("apple"),
        ];
        vals.sort_by(|a, b| a.index_cmp(b));
        let lex: Vec<String> = vals.iter().map(|v| v.lexical()).collect();
        assert_eq!(lex, vec!["2.5", "10", "apple", "pear"]);
    }

    #[test]
    fn text_order_is_case_folded_with_raw_tiebreak() {
        // Case-insensitive primary order: "Zebra" sorts after "apple".
        assert!(CompareOp::Gt.eval(&"Zebra".into(), &"apple".into()));
        assert!(CompareOp::Lt.eval(&"apple".into(), &"Zebra".into()));
        // Equal folds tie-break on the raw form, so cmp is Equal only for
        // byte-identical strings (keeps Eq consistent with the index).
        assert_eq!(text_index_cmp("Apple", "Apple"), Ordering::Equal);
        assert_ne!(text_index_cmp("Apple", "apple"), Ordering::Equal);
        assert!(CompareOp::Ge.eval(&"apple".into(), &"Apple".into()));
        // index_cmp sorts the same way.
        let mut vals = [
            MetaValue::parse("Zebra"),
            MetaValue::parse("apple"),
            MetaValue::parse("Banana"),
        ];
        vals.sort_by(|a, b| a.index_cmp(b));
        let lex: Vec<String> = vals.iter().map(|v| v.lexical()).collect();
        assert_eq!(lex, vec!["apple", "Banana", "Zebra"]);
    }

    #[test]
    fn like_prefix_extraction() {
        assert_eq!(like_prefix("foo%"), Some("foo".to_string()));
        assert_eq!(like_prefix("foo%bar%"), Some("foo".to_string()));
        assert_eq!(like_prefix("fo_o%"), Some("fo".to_string()));
        assert_eq!(like_prefix("foo"), Some("foo".to_string()));
        assert_eq!(like_prefix("%foo"), None);
        assert_eq!(like_prefix("_oo"), None);
        assert_eq!(like_prefix(""), None);
    }

    #[test]
    fn like_scan_prefix_cases() {
        assert_eq!(like_scan_prefix("Con%"), Some("con".to_string()));
        // Prefixes that could begin a numeric lexical form must fall back.
        for p in ["1%", "-3%", "+2%", ".5%", "inf%", "Nan%"] {
            assert_eq!(like_scan_prefix(p), None, "pattern {p}");
        }
        // Leading wildcard: no usable prefix.
        assert_eq!(like_scan_prefix("%con"), None);
    }

    #[test]
    fn triplet_construction() {
        let t = Triplet::new("wingspan", 12.5, "cm");
        assert_eq!(t.name, "wingspan");
        assert_eq!(t.value, MetaValue::Float(12.5));
        assert_eq!(t.units, "cm");
    }
}
