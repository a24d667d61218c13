//! Logical name space paths.
//!
//! SRB identifies every object by a *logical* path like
//! `/home/sekar/Cultures/Avian Culture/notes.txt`, entirely decoupled from
//! where the bytes live. `LogicalPath` is a normalized, always-absolute path
//! with `/`-separated components. Components may contain spaces (as in the
//! paper's "Avian Culture") but not `/`, NUL, or leading/trailing whitespace.

use crate::error::{SrbError, SrbResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A normalized absolute path in the logical name space.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LogicalPath {
    components: Vec<String>,
}

impl LogicalPath {
    /// The root collection `/`.
    pub fn root() -> Self {
        LogicalPath {
            components: Vec::new(),
        }
    }

    /// Parse a path string. Accepts relative-looking input by treating it as
    /// absolute; collapses duplicate slashes; rejects empty or invalid
    /// components.
    pub fn parse(s: &str) -> SrbResult<Self> {
        let mut components = Vec::new();
        for part in s.split('/') {
            if part.is_empty() {
                continue;
            }
            Self::validate_component(part)?;
            components.push(part.to_string());
        }
        Ok(LogicalPath { components })
    }

    fn validate_component(c: &str) -> SrbResult<()> {
        if c == "." || c == ".." {
            return Err(SrbError::Invalid(format!(
                "path component '{c}' not allowed in logical paths"
            )));
        }
        if c.contains('\0') {
            return Err(SrbError::Invalid("NUL byte in path component".into()));
        }
        if c.trim() != c {
            return Err(SrbError::Invalid(format!(
                "path component '{c}' has leading/trailing whitespace"
            )));
        }
        Ok(())
    }

    /// Append one component, returning a new path.
    pub fn child(&self, name: &str) -> SrbResult<Self> {
        Self::validate_component(name)?;
        if name.contains('/') {
            return Err(SrbError::Invalid(format!(
                "component '{name}' contains '/'"
            )));
        }
        let mut components = self.components.clone();
        components.push(name.to_string());
        Ok(LogicalPath { components })
    }

    /// The display form of `self.child(name)`, built in one pre-sized
    /// `String`: `/name` under the root. `name` is not validated — callers
    /// pass names a table validated on insert.
    pub fn join_display(&self, name: &str) -> String {
        let len = self.components.iter().map(|c| c.len() + 1).sum::<usize>() + name.len() + 1;
        let mut out = String::with_capacity(len);
        for c in &self.components {
            out.push('/');
            out.push_str(c);
        }
        out.push('/');
        out.push_str(name);
        out
    }

    /// The parent collection, or `None` for the root.
    pub fn parent(&self) -> Option<Self> {
        if self.components.is_empty() {
            None
        } else {
            Some(LogicalPath {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// Final component (object or collection name); `None` for the root.
    pub fn name(&self) -> Option<&str> {
        self.components.last().map(|s| s.as_str())
    }

    /// Number of components (0 for root).
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// True if this is the root path.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// Iterate over components from the root downwards.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.components.iter().map(|s| s.as_str())
    }

    /// True when `self` is `other` or a descendant of `other`.
    pub fn starts_with(&self, other: &LogicalPath) -> bool {
        self.components.len() >= other.components.len()
            && self.components[..other.components.len()] == other.components[..]
    }

    /// Re-root `self` from `from` onto `to` (used by `move`/`copy` of whole
    /// collections). Errors if `self` is not under `from`.
    pub fn rebase(&self, from: &LogicalPath, to: &LogicalPath) -> SrbResult<Self> {
        if !self.starts_with(from) {
            return Err(SrbError::Invalid(format!("'{self}' is not under '{from}'")));
        }
        let mut components = to.components.clone();
        components.extend_from_slice(&self.components[from.components.len()..]);
        Ok(LogicalPath { components })
    }
}

impl fmt::Display for LogicalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return write!(f, "/");
        }
        for c in &self.components {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for LogicalPath {
    type Err = SrbError;
    fn from_str(s: &str) -> SrbResult<Self> {
        LogicalPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let p = LogicalPath::parse("/home/sekar/Avian Culture").unwrap();
        assert_eq!(p.to_string(), "/home/sekar/Avian Culture");
        assert_eq!(p.depth(), 3);
        assert_eq!(p.name(), Some("Avian Culture"));
    }

    #[test]
    fn duplicate_slashes_collapse() {
        let p = LogicalPath::parse("//home///sekar/").unwrap();
        assert_eq!(p.to_string(), "/home/sekar");
    }

    #[test]
    fn root_behaviour() {
        let r = LogicalPath::root();
        assert!(r.is_root());
        assert_eq!(r.to_string(), "/");
        assert_eq!(r.parent(), None);
        assert_eq!(r.name(), None);
        assert_eq!(LogicalPath::parse("/").unwrap(), r);
    }

    #[test]
    fn rejects_dot_components_and_nul() {
        assert!(LogicalPath::parse("/a/../b").is_err());
        assert!(LogicalPath::parse("/a/./b").is_err());
        assert!(LogicalPath::parse("/a/b\0c").is_err());
    }

    #[test]
    fn rejects_whitespace_padding() {
        assert!(LogicalPath::parse("/a/ b").is_err());
        assert!(LogicalPath::root().child(" x").is_err());
    }

    #[test]
    fn child_and_parent_are_inverse() {
        let p = LogicalPath::parse("/x/y").unwrap();
        let c = p.child("z").unwrap();
        assert_eq!(c.to_string(), "/x/y/z");
        assert_eq!(c.parent().unwrap(), p);
    }

    #[test]
    fn join_display_equals_child_display() {
        for (parent, name) in [("/", "a"), ("/x/y", "z"), ("/Avian Culture", "b c.txt")] {
            let p = LogicalPath::parse(parent).unwrap();
            let joined = p.join_display(name);
            assert_eq!(joined, p.child(name).unwrap().to_string());
            assert_eq!(joined.capacity(), joined.len(), "sized exactly once");
        }
    }

    #[test]
    fn starts_with_semantics() {
        let a = LogicalPath::parse("/x/y/z").unwrap();
        let b = LogicalPath::parse("/x/y").unwrap();
        let c = LogicalPath::parse("/x/yy").unwrap();
        assert!(a.starts_with(&b));
        assert!(a.starts_with(&a));
        assert!(!a.starts_with(&c));
        assert!(!b.starts_with(&a));
        assert!(a.starts_with(&LogicalPath::root()));
    }

    #[test]
    fn rebase_moves_subtrees() {
        let obj = LogicalPath::parse("/src/coll/sub/file").unwrap();
        let from = LogicalPath::parse("/src/coll").unwrap();
        let to = LogicalPath::parse("/dst/new").unwrap();
        assert_eq!(
            obj.rebase(&from, &to).unwrap().to_string(),
            "/dst/new/sub/file"
        );
        assert!(obj.rebase(&to, &from).is_err());
    }
}
