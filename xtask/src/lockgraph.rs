//! The static lock registry and acquired-before graph.
//!
//! Every lock in the workspace is constructed through
//! `srb_types::sync::{Mutex, RwLock}::new(LockRank::X, "name", …)`, which
//! makes the whole lock population *harvestable from source*: this module
//! scans the token stream for those construction sites, records each
//! lock's rank and diagnostic name together with the field or binding it
//! is stored in, and then lets the analyzer accumulate "lock A was held
//! while lock B was acquired" edges into a directed graph.
//!
//! The declared hierarchy (`Session > CoreState > McatTable > Storage >
//! Topology`) is not hard-coded: the discriminants are parsed out of the
//! `LockRank` enum in `crates/srb-types/src/sync.rs`, so adding a rank
//! there is automatically picked up here (a parse failure falls back to
//! the five known ranks and is reported).
//!
//! Checks on the finished graph:
//! - every edge must be non-increasing in rank (an up-rank edge is a
//!   potential inversion — the runtime detector would panic only if that
//!   path actually executes);
//! - the subgraph of equal-rank edges must be acyclic (two functions
//!   nesting two same-rank locks in opposite orders deadlock under
//!   contention, which the per-acquisition runtime check cannot see).
//!
//! `emit_dot` renders the graph for `docs/lock-graph.dot`, clustered by
//! rank so down-rank edges read top-to-bottom.

use crate::lexer::{Lexed, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One harvested `Mutex::new` / `RwLock::new` construction site.
#[derive(Debug, Clone)]
pub struct LockDef {
    /// Diagnostic name from the construction site (`"net.fault.modes"`).
    pub name: String,
    /// `LockRank` variant ident (`"Topology"`).
    pub rank_ident: String,
    /// Numeric rank (higher = acquired earlier).
    pub rank: u8,
    /// Field or `let` binding the lock is stored in, when recoverable.
    #[allow(dead_code)] // resolution goes through the registry maps; kept for tests/debugging
    pub field: Option<String>,
    /// Workspace-relative path of the construction site.
    pub path: String,
}

/// All locks in the workspace, with lookup tables for resolving an
/// acquisition's receiver identifier back to a definition.
#[derive(Debug, Default)]
pub struct LockRegistry {
    pub defs: Vec<LockDef>,
    /// `(path, field)` → def index: in-file resolution (same struct).
    by_file_field: BTreeMap<(String, String), usize>,
    /// `field` → def indices: cross-file resolution, only used when the
    /// field name is globally unambiguous.
    by_field: BTreeMap<String, Vec<usize>>,
}

impl LockRegistry {
    /// Parse `LockRank` discriminants from the sync module source.
    /// Returns `(name → rank)` or `None` when the enum cannot be found.
    pub fn parse_ranks(sync_src: &str) -> Option<BTreeMap<String, u8>> {
        let lexed = Lexed::new(sync_src);
        let toks = &lexed.toks;
        let start = (0..toks.len()).find(|&i| {
            toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident("LockRank"))
        })?;
        let open = (start..toks.len()).find(|&i| toks[i].is_punct('{'))?;
        let close = crate::lexer::matching_close(toks, open)?;
        let mut ranks = BTreeMap::new();
        let mut i = open + 1;
        while i + 2 < close {
            // `Variant = N ,`
            if toks[i].kind == TokKind::Ident
                && toks[i + 1].is_punct('=')
                && toks[i + 2].kind == TokKind::Num
            {
                if let Ok(n) = toks[i + 2].text.parse::<u8>() {
                    ranks.insert(toks[i].text.clone(), n);
                }
                i += 3;
            } else {
                i += 1;
            }
        }
        (!ranks.is_empty()).then_some(ranks)
    }

    /// Harvest every ranked-lock construction site in `lexed` (skipping
    /// `#[cfg(test)]` regions — test locks like `"test.outer"` are not
    /// part of the production lock population).
    pub fn harvest(&mut self, path: &str, lexed: &Lexed, ranks: &BTreeMap<String, u8>) {
        let toks = &lexed.toks;
        for i in 0..toks.len() {
            if !(toks[i].is_ident("Mutex") || toks[i].is_ident("RwLock")) {
                continue;
            }
            // `Mutex :: new ( LockRank :: Rank , "name"`
            let pat = [(1, ":"), (2, ":"), (4, "("), (6, ":"), (7, ":"), (9, ",")];
            if !pat.iter().all(|&(off, p)| {
                toks.get(i + off)
                    .is_some_and(|t| t.is_punct(p.chars().next().unwrap_or(' ')))
            }) {
                continue;
            }
            if !toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
                || !toks.get(i + 5).is_some_and(|t| t.is_ident("LockRank"))
            {
                continue;
            }
            let Some(rank_tok) = toks.get(i + 8).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            let Some(name_tok) = toks.get(i + 10).filter(|t| t.kind == TokKind::Str) else {
                continue;
            };
            if lexed.in_test(i) {
                continue;
            }
            let rank = ranks.get(&rank_tok.text).copied().unwrap_or(0);
            let field = binding_ident_before(lexed, i);
            let idx = self.defs.len();
            self.defs.push(LockDef {
                name: name_tok.text.clone(),
                rank_ident: rank_tok.text.clone(),
                rank,
                field: field.clone(),
                path: path.to_string(),
            });
            if let Some(f) = field {
                self.by_file_field
                    .insert((path.to_string(), f.clone()), idx);
                self.by_field.entry(f).or_default().push(idx);
            }
        }
    }

    /// Resolve an acquisition receiver identifier to a lock definition:
    /// in-file field first, then a globally unambiguous field name.
    pub fn resolve(&self, path: &str, field: &str) -> Option<&LockDef> {
        if let Some(&i) = self
            .by_file_field
            .get(&(path.to_string(), field.to_string()))
        {
            return Some(&self.defs[i]);
        }
        match self.by_field.get(field).map(Vec::as_slice) {
            Some([only]) => Some(&self.defs[*only]),
            _ => None,
        }
    }
}

/// Walk backward from token `i` to recover the field or `let` binding a
/// constructed value is assigned to. Skips balanced `(…)`/`[…]` groups
/// and steps out of unmatched openers (expression nesting like
/// `.map(|_| RwLock::new(…))`), stopping at a statement/field boundary
/// (`;`, `{`, `}`, or a top-level `,`).
fn binding_ident_before(lexed: &Lexed, i: usize) -> Option<String> {
    let toks = &lexed.toks;
    let mut span = Vec::new(); // tokens before `i`, collected in reverse
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') {
            // Skip the balanced group.
            let (open, close) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 1usize;
            while j > 0 && depth > 0 {
                j -= 1;
                if toks[j].is_punct(close) {
                    depth += 1;
                } else if toks[j].is_punct(open) {
                    depth -= 1;
                }
            }
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') {
            // Unmatched opener: we are inside an argument list — step out.
            continue;
        }
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',') {
            break;
        }
        span.push(j);
    }
    // `span` is reversed; read it forward.
    span.reverse();
    let fwd: Vec<&crate::lexer::Tok> = span.iter().map(|&k| &toks[k]).collect();
    match fwd.as_slice() {
        // `let [mut] x …`
        [first, rest @ ..] if first.is_ident("let") => rest
            .iter()
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
            .map(|t| t.text.clone()),
        // `field : …`
        [first, second, ..] if first.kind == TokKind::Ident && second.is_punct(':') => {
            Some(first.text.clone())
        }
        _ => None,
    }
}

/// One acquired-before edge: `held` was live when `acquired` was taken.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Lock name held at the time.
    pub held: String,
    /// Lock name being acquired.
    pub acquired: String,
    /// Site of the inner acquisition.
    pub path: String,
    pub line: usize,
    /// Function the nesting occurs in.
    pub func: String,
}

/// The static acquired-before graph over lock *names*.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// First-seen site per (held, acquired) pair.
    pub edges: BTreeMap<(String, String), Edge>,
}

impl LockGraph {
    pub fn add(&mut self, edge: Edge) {
        self.edges
            .entry((edge.held.clone(), edge.acquired.clone()))
            .or_insert(edge);
    }

    /// Edges that climb the hierarchy (inner rank > outer rank): each is a
    /// potential inversion the runtime detector would panic on.
    pub fn inversions<'a>(
        &'a self,
        rank_of: &'a BTreeMap<String, u8>,
    ) -> impl Iterator<Item = &'a Edge> {
        self.edges.values().filter(move |e| {
            match (rank_of.get(&e.held), rank_of.get(&e.acquired)) {
                (Some(h), Some(a)) => a > h,
                _ => false,
            }
        })
    }

    /// Cycles among equal-rank edges (self-loops excluded: re-acquiring a
    /// lock of the same *name* is usually a different instance of the same
    /// struct, e.g. two memfs shards in index order).
    pub fn cycles(&self, rank_of: &BTreeMap<String, u8>) -> Vec<Vec<String>> {
        // Adjacency restricted to equal-rank, non-self edges.
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (held, acquired) in self.edges.keys() {
            if held != acquired && rank_of.get(held) == rank_of.get(acquired) {
                adj.entry(held).or_default().push(acquired);
            }
        }
        let mut cycles = Vec::new();
        let mut done: Vec<&str> = Vec::new();
        for &start in adj.keys() {
            if done.contains(&start) {
                continue;
            }
            // DFS with an explicit path stack to extract the cycle nodes.
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            let mut path: Vec<&str> = vec![start];
            while let Some(&(node, next)) = stack.last() {
                let succs = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
                if next < succs.len() {
                    if let Some(top) = stack.last_mut() {
                        top.1 += 1;
                    }
                    let s = succs[next];
                    if let Some(pos) = path.iter().position(|&p| p == s) {
                        let mut cyc: Vec<String> =
                            path[pos..].iter().map(|s| s.to_string()).collect();
                        cyc.push(s.to_string());
                        cycles.push(cyc);
                    } else if !done.contains(&s) {
                        stack.push((s, 0));
                        path.push(s);
                    }
                } else {
                    stack.pop();
                    path.pop();
                    done.push(node);
                }
            }
        }
        cycles.sort();
        cycles.dedup();
        cycles
    }

    /// Render the graph as GraphViz DOT, clustered by rank.
    pub fn emit_dot(&self, registry: &LockRegistry, ranks: &BTreeMap<String, u8>) -> String {
        let mut by_rank: BTreeMap<u8, Vec<&LockDef>> = BTreeMap::new();
        for def in &registry.defs {
            by_rank.entry(def.rank).or_default().push(def);
        }
        let rank_name = |r: u8| {
            ranks
                .iter()
                .find(|&(_, &v)| v == r)
                .map(|(n, _)| n.as_str())
                .unwrap_or("?")
        };
        let mut out = String::new();
        out.push_str("// Static acquired-before lock graph. Regenerate with\n");
        out.push_str("//   cargo xtask analyze --dot\n");
        out.push_str("// Edges point from the outer (held) lock to the inner (acquired)\n");
        out.push_str("// lock; every edge must flow downward in rank.\n");
        out.push_str("digraph lock_order {\n");
        out.push_str("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");
        for (&rank, defs) in by_rank.iter().rev() {
            out.push_str(&format!(
                "  subgraph cluster_rank{rank} {{\n    label=\"rank {rank} · {}\";\n",
                rank_name(rank)
            ));
            // One node per lock name; tooltip lists every file that
            // constructs it (a name can be constructed in several places,
            // e.g. a sharded lock array). Files, not lines, so the graph
            // changes only when a lock does.
            let mut files: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for d in defs {
                files
                    .entry(d.name.as_str())
                    .or_default()
                    .insert(d.path.as_str());
            }
            for (name, at) in files {
                let at: Vec<&str> = at.into_iter().collect();
                out.push_str(&format!("    \"{name}\" [tooltip=\"{}\"];\n", at.join(" ")));
            }
            out.push_str("  }\n");
        }
        for edge in self.edges.values() {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
                edge.held,
                edge.acquired,
                edge.path.rsplit('/').next().unwrap_or(&edge.path),
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The hierarchy the unit tests rank their locks by.
    pub(crate) fn ranks() -> BTreeMap<String, u8> {
        let src = "pub enum LockRank { Topology = 0, Storage = 1, McatTable = 2, CoreState = 3, Session = 4 }";
        LockRegistry::parse_ranks(src).unwrap()
    }

    #[test]
    fn parses_ranks_from_enum_source() {
        let src = "pub enum LockRank {\n    /// doc\n    Topology = 0,\n    Storage = 1,\n    McatTable = 2,\n    CoreState = 3,\n    Session = 4,\n}";
        let r = LockRegistry::parse_ranks(src).unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r["Session"], 4);
        assert_eq!(r["Topology"], 0);
    }

    #[test]
    fn harvests_field_and_let_bindings() {
        let src = r#"
struct S { entries: RwLock<u32> }
impl S {
    fn new() -> S {
        S { entries: RwLock::new(LockRank::Topology, "net.entries", 0) }
    }
}
fn local() {
    let cache = Mutex::new(LockRank::Storage, "storage.cache", ());
}
"#;
        let lexed = Lexed::new(src);
        let mut reg = LockRegistry::default();
        reg.harvest("crates/x/src/a.rs", &lexed, &ranks());
        assert_eq!(reg.defs.len(), 2);
        assert_eq!(reg.defs[0].name, "net.entries");
        assert_eq!(reg.defs[0].field.as_deref(), Some("entries"));
        assert_eq!(reg.defs[0].rank, 0);
        assert_eq!(reg.defs[1].field.as_deref(), Some("cache"));
        assert_eq!(reg.defs[1].rank, 1);
        assert!(reg.resolve("crates/x/src/a.rs", "entries").is_some());
        // Unambiguous cross-file fallback.
        assert!(reg.resolve("crates/y/src/b.rs", "cache").is_some());
    }

    #[test]
    fn harvests_through_expression_nesting() {
        // The memfs idiom: construction inside a closure inside a chain.
        let src = r#"
struct M { shards: Vec<RwLock<u32>> }
impl M {
    fn new() -> M {
        M {
            shards: (0..4)
                .map(|_| RwLock::new(LockRank::Storage, "storage.memfs.shard", 0))
                .collect(),
        }
    }
}
"#;
        let lexed = Lexed::new(src);
        let mut reg = LockRegistry::default();
        reg.harvest("crates/x/src/m.rs", &lexed, &ranks());
        assert_eq!(reg.defs.len(), 1);
        assert_eq!(reg.defs[0].field.as_deref(), Some("shards"));
    }

    #[test]
    fn test_region_locks_are_not_harvested() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let l = Mutex::new(LockRank::Session, \"test.outer\", ()); }\n}";
        let lexed = Lexed::new(src);
        let mut reg = LockRegistry::default();
        reg.harvest("crates/x/src/a.rs", &lexed, &ranks());
        assert!(reg.defs.is_empty());
    }

    #[test]
    fn ambiguous_field_does_not_resolve_cross_file() {
        let mut reg = LockRegistry::default();
        let r = ranks();
        let a = Lexed::new("struct A { inner: RwLock<u32> }\nfn f() { let x = A { inner: RwLock::new(LockRank::McatTable, \"mcat.a\", 0) }; }");
        let b = Lexed::new("struct B { inner: RwLock<u32> }\nfn f() { let x = B { inner: RwLock::new(LockRank::Topology, \"net.b\", 0) }; }");
        reg.harvest("crates/x/src/a.rs", &a, &r);
        reg.harvest("crates/y/src/b.rs", &b, &r);
        // In-file resolution picks the right one.
        assert_eq!(
            reg.resolve("crates/x/src/a.rs", "inner").unwrap().name,
            "mcat.a"
        );
        assert_eq!(
            reg.resolve("crates/y/src/b.rs", "inner").unwrap().name,
            "net.b"
        );
        // A third file cannot resolve the ambiguous name.
        assert!(reg.resolve("crates/z/src/c.rs", "inner").is_none());
    }

    #[test]
    fn inversions_and_cycles() {
        let rank_of: BTreeMap<String, u8> = [
            ("a".to_string(), 2u8),
            ("b".to_string(), 2u8),
            ("low".to_string(), 1u8),
            ("high".to_string(), 3u8),
        ]
        .into_iter()
        .collect();
        let mut g = LockGraph::default();
        let mk = |held: &str, acq: &str| Edge {
            held: held.into(),
            acquired: acq.into(),
            path: "p.rs".into(),
            line: 1,
            func: "f".into(),
        };
        g.add(mk("low", "high")); // up-rank: inversion
        g.add(mk("a", "b")); // equal rank, fine alone
        g.add(mk("b", "a")); // ... but closes a cycle
        g.add(mk("high", "low")); // down-rank: fine
        let inv: Vec<_> = g.inversions(&rank_of).collect();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].acquired, "high");
        let cycles = g.cycles(&rank_of);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].contains(&"a".to_string()) && cycles[0].contains(&"b".to_string()));
    }

    #[test]
    fn dot_contains_clusters_and_edges() {
        let mut reg = LockRegistry::default();
        let lexed = Lexed::new(
            "struct S { a: RwLock<u32>, b: RwLock<u32> }\nfn f() -> S { S { a: RwLock::new(LockRank::Session, \"web.a\", 0), b: RwLock::new(LockRank::Storage, \"storage.b\", 0) } }",
        );
        reg.harvest("crates/x/src/a.rs", &lexed, &ranks());
        let mut g = LockGraph::default();
        g.add(Edge {
            held: "web.a".into(),
            acquired: "storage.b".into(),
            path: "crates/x/src/a.rs".into(),
            line: 2,
            func: "f".into(),
        });
        let dot = g.emit_dot(&reg, &ranks());
        assert!(dot.contains("cluster_rank4"));
        assert!(dot.contains("\"web.a\" -> \"storage.b\""));
        assert!(dot.contains("a.rs"));
        assert!(!dot.contains("a.rs:"), "no line numbers: {dot}");
    }
}
