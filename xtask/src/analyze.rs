//! `cargo xtask analyze` — structure-aware static concurrency,
//! determinism and reachability analysis over the whole workspace.
//!
//! Six analyses run on the token stream (see [`crate::lexer`]). All but
//! `over-public` are scoped to library code (`crates/*/src/**`,
//! `src/**`) outside `#[cfg(test)]` regions — test code deliberately
//! constructs inversions to exercise the runtime detector:
//!
//! 1. **`lock-order`** — harvests every ranked-lock construction site into
//!    a [`LockRegistry`], scans fn bodies
//!    for nested `.lock()`/`.read()`/`.write()` acquisitions while another
//!    guard is live, builds the static acquired-before graph, and flags
//!    up-rank edges (potential inversions) plus equal-rank cycles. Unlike
//!    the runtime `LockRank` detector, this sees paths that never execute
//!    in tests.
//! 2. **`guard-across-storage`** — flags a live ranked-lock guard held
//!    across a simulated storage access or fan-out dispatch call
//!    ([`STORAGE_DISPATCH`]). Holding a catalog or session lock across a
//!    (virtually slow) storage leg serializes the parallel fan-out engine
//!    and silently inflates simulated time — our analog of clippy's
//!    `await_holding_lock`.
//! 3. **`hash-iter`** — flags iteration over `HashMap`/`HashSet` (and the
//!    `IdMap`/`IdSet` aliases) inside snapshot/serialization/receipt-
//!    producing functions unless the items are sorted or consumed
//!    order-insensitively. Iteration-order leakage is the one
//!    nondeterminism class the wall-clock ban cannot see.
//! 4. **`over-public`** — flags a plain `pub` item under `crates/*/src`
//!    (outside `#[cfg(test)]`) that no identifier outside its unit names,
//!    so it could be `pub(crate)`. A unit is a crate's library, or one of
//!    its binary targets (`src/main.rs`, `src/bin/*`). `crates/`, `src/`,
//!    `tests/`, `benchmark/src/`, `examples/` and doc-test code blocks are
//!    searched; comments and strings are not tokens, so a name that
//!    survives only in a doc comment or a literal names nothing. An item a
//!    `pub use` re-exports, or one named in the interface of an item that
//!    stays `pub`, is never flagged: the compiler would refuse to narrow
//!    it. Matching is by name, so the rule can miss an item but never
//!    flags one wrongly. Once narrowed, an item nothing uses is rustc's
//!    `dead_code` to report; a binary is a unit of its own because rustc
//!    does not report an unused `pub fn` at a binary's root.
//!
//! 5. **`storage-door`** — a raw `.driver().` call in `srb-core` outside
//!    the argument list of `storage_call(…)`, the one door that draws from
//!    the fault plan, meters the access and charges its load.
//! 6. **`subject-delete`** — a raw `.datasets.delete(` or
//!    `.collections.delete(` in `srb-core`; rows go through
//!    `Mcat::remove_dataset`/`remove_collection`, which take the row's
//!    metadata, meta-file links and annotations with it.
//!
//! The text summary ends with a [`Ledger`] line: the size of the API
//! under `crates/*/src`.
//!
//! Guard liveness is tracked lexically: a `let`-bound guard lives to the
//! end of its enclosing block (or an explicit `drop(guard)`); a guard
//! used as a temporary lives to the end of its statement.

use crate::lexer::{matching_close, FnItem, Lexed, Tok, TokKind};
use crate::lockgraph::{Edge, LockGraph, LockRegistry};
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Simulated-storage / fan-out dispatch entry points: calls that charge
/// virtual storage latency or dispatch parallel legs. Holding a ranked
/// lock across any of these is a `guard-across-storage` violation.
pub const STORAGE_DISPATCH: &[&str] = &[
    "storage_call",
    "retry_storage",
    "store_bytes_retry",
    "store_fanout",
    "undo_stored_legs",
    "run_legs",
];

/// Hash-container iteration methods whose order is nondeterministic.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers that mark a hash-iteration statement as order-safe:
/// explicit sorts, ordered collection targets, or order-insensitive
/// terminal operations.
const ORDER_SAFE_HINTS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "count",
    "sum",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "any",
    "all",
    "len",
    "is_empty",
    "contains",
    "contains_key",
];

/// Fn-name fragments that mark a function as determinism-sensitive
/// (producing snapshots, serialized output, or receipts).
const SENSITIVE_FN_FRAGMENTS: &[&str] = &[
    "snapshot",
    "checkpoint",
    "dump",
    "serialize",
    "json",
    "receipt",
    "render",
    "export",
    "digest",
];

/// Everything the analysis pass produces.
pub struct Analysis {
    pub violations: Vec<Violation>,
    pub registry: LockRegistry,
    pub graph: LockGraph,
    pub ranks: BTreeMap<String, u8>,
    pub ledger: Ledger,
}

/// Item keywords the ledger counts after a line's leading `pub `.
const LEDGER_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use",
];

/// Non-blank lines before a file's first column-0 `#[cfg(test)]`, and
/// how many of them open with `pub <kind> ` for a kind in
/// [`LEDGER_KINDS`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Count {
    pub lines: usize,
    pub pub_items: usize,
}

impl Count {
    fn of(src: &str) -> Count {
        let mut count = Count::default();
        for line in src.lines().take_while(|l| !l.starts_with("#[cfg(test)]")) {
            let line = line.trim_start();
            if line.is_empty() {
                continue;
            }
            count.lines += 1;
            let item = line.strip_prefix("pub ").is_some_and(|rest| {
                LEDGER_KINDS
                    .iter()
                    .any(|k| rest.strip_prefix(k).is_some_and(|r| r.starts_with(' ')))
            });
            count.pub_items += usize::from(item);
        }
        count
    }

    fn add(&mut self, other: Count) {
        self.lines += other.lines;
        self.pub_items += other.pub_items;
    }
}

/// The size of the workspace API under `crates/*/src`, per crate and in
/// total.
#[derive(Default)]
pub struct Ledger {
    pub crates: BTreeMap<String, Count>,
    pub total: Count,
}

impl Ledger {
    /// Count `src`, a file of `krate`.
    fn add(&mut self, krate: &str, src: &str) {
        let count = Count::of(src);
        self.crates.entry(krate.to_string()).or_default().add(count);
        self.total.add(count);
    }
}

/// Where `LockRank`, the lock hierarchy every ranked lock names, is
/// defined.
const SYNC_FILE: &str = "crates/srb-types/src/sync.rs";

/// Is this file in scope for the per-file analyses (library code only)?
fn in_analysis_scope(path: &str) -> bool {
    (path.starts_with("src/") || path.contains("/src/"))
        && !path.contains("/tests/")
        && !path.contains("/benches/")
        && !path.contains("/examples/")
}

/// Run all six analyses over `files` (workspace-relative paths under
/// `root`); `refs` are read only as references for `over-public`. Reads
/// each file once and lexes it once.
pub fn analyze(root: &Path, files: &[String], refs: &[String]) -> std::io::Result<Analysis> {
    // The hierarchy is read from the one place it is defined; without it
    // no lock can be ranked, so the analysis fails rather than guess.
    let ranks_src = std::fs::read_to_string(root.join(SYNC_FILE))
        .map_err(|e| std::io::Error::new(e.kind(), format!("cannot read {SYNC_FILE}: {e}")))?;
    let ranks = LockRegistry::parse_ranks(&ranks_src).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("cannot parse `enum LockRank` out of {SYNC_FILE}"),
        )
    })?;

    let mut all_files: Vec<(String, Lexed)> = Vec::new();
    let mut doc_tests = Vec::new();
    let mut ledger = Ledger::default();
    for rel in files.iter().chain(refs) {
        let src = std::fs::read_to_string(root.join(rel))?;
        if let Some(krate) = api_crate(rel) {
            ledger.add(krate, &src);
        }
        let code = doc_test_code(&src);
        if !code.is_empty() {
            doc_tests.push((format!("doctest:{rel}"), Lexed::new(&code)));
        }
        all_files.push((rel.clone(), Lexed::new(&src)));
    }
    // Doc tests compile outside their crate: references only.
    all_files.extend(doc_tests);
    let lexed_files: Vec<&(String, Lexed)> = all_files[..files.len()]
        .iter()
        .filter(|(rel, _)| in_analysis_scope(rel))
        .collect();

    // Pass 1: harvest the lock registry from every file.
    let mut registry = LockRegistry::default();
    for (path, lexed) in &lexed_files {
        registry.harvest(path, lexed, &ranks);
    }

    // Pass 2: per-fn-body scans.
    let mut graph = LockGraph::default();
    let mut violations = Vec::new();
    for (path, lexed) in &lexed_files {
        scan_file(path, lexed, &registry, &mut graph, &mut violations);
        hash_iter_file(path, lexed, &mut violations);
        storage_door_file(path, lexed, &mut violations);
        subject_delete_file(path, lexed, &mut violations);
    }
    violations.extend(over_public(&all_files));

    // Graph-level checks.
    let rank_of: BTreeMap<String, u8> = registry
        .defs
        .iter()
        .map(|d| (d.name.clone(), d.rank))
        .collect();
    let rank_ident_of: BTreeMap<String, String> = registry
        .defs
        .iter()
        .map(|d| (d.name.clone(), d.rank_ident.clone()))
        .collect();
    let describe = |name: &str| -> String {
        match (rank_ident_of.get(name), rank_of.get(name)) {
            (Some(ident), Some(r)) => format!("LockRank::{ident} = {r}"),
            _ => "unranked".to_string(),
        }
    };
    for e in graph.inversions(&rank_of) {
        violations.push(Violation {
            path: e.path.clone(),
            line: e.line,
            rule: "lock-order",
            msg: format!(
                "potential lock inversion in `{}`: acquiring `{}` ({}) while \
                 holding `{}` ({}); the hierarchy requires non-increasing rank \
                 (see srb_types::sync)",
                e.func,
                e.acquired,
                describe(&e.acquired),
                e.held,
                describe(&e.held),
            ),
        });
    }
    for cycle in graph.cycles(&rank_of) {
        let first_edge = graph
            .edges
            .values()
            .find(|e| e.held == cycle[0] && cycle.contains(&e.acquired));
        let (path, line) = first_edge
            .map(|e| (e.path.clone(), e.line))
            .unwrap_or_default();
        violations.push(Violation {
            path,
            line,
            rule: "lock-cycle",
            msg: format!(
                "equal-rank acquired-before cycle: {} — two code paths nest these \
                 locks in opposite orders and can deadlock under contention; pick \
                 one order (the runtime rank check cannot see this)",
                cycle.join(" -> ")
            ),
        });
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Analysis {
        violations,
        registry,
        graph,
        ranks,
        ledger,
    })
}

// ------------------------------------------------------- guard tracking --

/// One lock acquisition inside a fn body.
struct Acq {
    /// Token index of the `.` introducing the acquisition call.
    tok: usize,
    line: usize,
    def_name: String,
    def_rank: u8,
    /// Last token index at which the guard is live.
    end: usize,
}

/// Brace-pair map: for each token index, the index of the `}` closing the
/// innermost block containing it (usize::MAX at top level).
fn enclosing_close_map(toks: &[Tok]) -> Vec<usize> {
    let mut close_of_open: BTreeMap<usize, usize> = BTreeMap::new();
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                close_of_open.insert(open, i);
            }
        }
    }
    let mut map = vec![usize::MAX; toks.len()];
    let mut open_stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            open_stack.push(i);
        }
        map[i] = open_stack
            .last()
            .and_then(|o| close_of_open.get(o).copied())
            .unwrap_or(usize::MAX);
        if t.is_punct('}') {
            open_stack.pop();
            // The closing brace itself belongs to the block it closes.
            map[i] = i;
        }
    }
    map
}

/// The identifier a `.lock()`/`.read()`/`.write()` receiver chain ends in:
/// `self.grid.load.entries.read()` → `entries`;
/// `self.shards[shard_of(p)].write()` → `shards`.
fn receiver_ident(toks: &[Tok], dot_idx: usize) -> Option<String> {
    let mut j = dot_idx;
    if j == 0 {
        return None;
    }
    j -= 1;
    if toks[j].is_punct('?') {
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    if toks[j].is_punct(']') {
        let mut depth = 1usize;
        while j > 0 && depth > 0 {
            j -= 1;
            if toks[j].is_punct(']') {
                depth += 1;
            } else if toks[j].is_punct('[') {
                depth -= 1;
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    (toks[j].kind == TokKind::Ident).then(|| toks[j].text.clone())
}

/// Token index where the statement containing `i` starts (one past the
/// previous `;`, `{`, or `}`).
fn statement_start(toks: &[Tok], i: usize, floor: usize) -> usize {
    let mut j = i;
    while j > floor {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return j;
        }
        j -= 1;
    }
    floor
}

/// Token index ending the statement containing `i` (capped at `cap`):
/// the next top-level `;`, the `{` opening an expression-statement body
/// (`for`/`if`/`while` heads), or the `}` closing the enclosing block.
/// Braces and semicolons inside nested parens (closure bodies) are
/// skipped.
fn statement_end(toks: &[Tok], i: usize, cap: usize) -> usize {
    let mut paren = 0isize;
    let mut brace = 0isize;
    let mut j = i;
    while j < cap.min(toks.len()) {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('{') {
            if paren <= 0 {
                return j;
            }
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace < 0 {
                return j;
            }
        } else if t.is_punct(';') && paren <= 0 && brace <= 0 {
            return j;
        }
        j += 1;
    }
    j
}

/// Scan one file's fn bodies for nested acquisitions and
/// guard-across-storage sites.
fn scan_file(
    path: &str,
    lexed: &Lexed,
    registry: &LockRegistry,
    graph: &mut LockGraph,
    violations: &mut Vec<Violation>,
) {
    let toks = &lexed.toks;
    let encl_close = enclosing_close_map(toks);

    for f in &lexed.fns {
        if f.in_test {
            continue;
        }
        let Some((body_open, body_close)) = f.body else {
            continue;
        };
        let mut acqs: Vec<Acq> = Vec::new();

        let mut i = body_open + 1;
        while i < body_close {
            // Acquisition: `. lock ( )` / `. read ( )` / `. write ( )`.
            let is_acq = toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| {
                    t.is_ident("lock") || t.is_ident("read") || t.is_ident("write")
                })
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'));
            if is_acq {
                if let Some(recv) = receiver_ident(toks, i) {
                    if let Some(def) = registry.resolve(path, &recv) {
                        let stmt_start = statement_start(toks, i, body_open + 1);
                        let stmt_end = statement_end(toks, i, body_close);
                        // A `let`-bound guard where the acquisition ends the
                        // expression lives to the end of the enclosing block;
                        // anything else is a temporary living to the end of
                        // its statement.
                        let is_let = toks[stmt_start].is_ident("let");
                        let chain_continues = toks
                            .get(i + 4)
                            .is_some_and(|t| t.is_punct('.') || t.is_punct('?'));
                        let mut end = if is_let && !chain_continues {
                            encl_close[i].min(body_close)
                        } else {
                            stmt_end
                        };
                        // An explicit `drop(guard)` ends liveness early.
                        if is_let && !chain_continues {
                            if let Some(g) = toks
                                .get(stmt_start + 1..i)
                                .unwrap_or(&[])
                                .iter()
                                .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
                            {
                                let mut k = stmt_end;
                                while k + 3 < end {
                                    if toks[k].is_ident("drop")
                                        && toks[k + 1].is_punct('(')
                                        && toks[k + 2].is_ident(&g.text)
                                        && toks[k + 3].is_punct(')')
                                    {
                                        end = k;
                                        break;
                                    }
                                    k += 1;
                                }
                            }
                        }
                        // Record the nesting edge against every live guard.
                        for a in acqs.iter().filter(|a| a.tok < i && i <= a.end) {
                            graph.add(Edge {
                                held: a.def_name.clone(),
                                acquired: def.name.clone(),
                                path: path.to_string(),
                                line: toks[i + 1].line,
                                func: f.name.clone(),
                            });
                        }
                        acqs.push(Acq {
                            tok: i,
                            line: toks[i + 1].line,
                            def_name: def.name.clone(),
                            def_rank: def.rank,
                            end,
                        });
                    }
                }
                i += 4;
                continue;
            }
            // Storage/fan-out dispatch while a guard is live.
            let is_dispatch = toks[i].kind == TokKind::Ident
                && STORAGE_DISPATCH.contains(&toks[i].text.as_str())
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && !(i > 0 && toks[i - 1].is_ident("fn"));
            if is_dispatch {
                for a in acqs.iter().filter(|a| a.tok < i && i <= a.end) {
                    violations.push(Violation {
                        path: path.to_string(),
                        line: toks[i].line,
                        rule: "guard-across-storage",
                        msg: format!(
                            "`{}` (rank {}, acquired line {}) is held across `{}` in \
                             `{}`; storage legs charge simulated latency and fan out \
                             in parallel — holding a ranked lock here serializes them. \
                             Drop the guard (or clone what you need) before dispatch",
                            a.def_name, a.def_rank, a.line, toks[i].text, f.name
                        ),
                    });
                }
            }
            i += 1;
        }
    }
}

// ------------------------------------------------------------ hash-iter --

/// Identifiers declared as `HashMap`/`HashSet`/`IdMap`/`IdSet` (`hash`) and
/// `BTreeMap`/`BTreeSet` (`ordered`) anywhere in the file: struct fields,
/// params (`x: HashMap<…>`), and `let x = HashMap::new()` bindings.
fn container_idents(lexed: &Lexed) -> (Vec<String>, Vec<String>) {
    let toks = &lexed.toks;
    let mut hash = Vec::new();
    let mut ordered = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_hash = ["HashMap", "HashSet", "IdMap", "IdSet"]
            .iter()
            .any(|w| t.is_ident(w));
        let is_ordered = t.is_ident("BTreeMap") || t.is_ident("BTreeSet");
        if !is_hash && !is_ordered {
            continue;
        }
        // `name : [&|&mut] HashMap` — field, param, or typed binding.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            if p.is_punct('&') || p.is_ident("mut") || p.kind == TokKind::Lifetime {
                j -= 1;
            } else {
                break;
            }
        }
        let named = if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].kind == TokKind::Ident {
            Some(toks[j - 2].text.clone())
        } else if j >= 2 && toks[j - 1].is_punct('=') {
            // `let [mut] x = HashMap::new()` — find the binding.
            let start = statement_start(toks, j - 1, 0);
            if toks[start].is_ident("let") {
                toks[start + 1..j - 1]
                    .iter()
                    .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
                    .map(|t| t.text.clone())
            } else {
                None
            }
        } else {
            None
        };
        if let Some(name) = named {
            if is_hash {
                hash.push(name);
            } else {
                ordered.push(name);
            }
        }
    }
    (hash, ordered)
}

/// Does this fn produce snapshots / serialized output / receipts?
fn is_sensitive_fn(f: &FnItem) -> bool {
    let name = f.name.to_lowercase();
    SENSITIVE_FN_FRAGMENTS.iter().any(|w| name.contains(w))
}

/// Flag unsorted hash-container iteration inside determinism-sensitive
/// functions.
fn hash_iter_file(path: &str, lexed: &Lexed, violations: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    let (hash, ordered) = container_idents(lexed);
    if hash.is_empty() {
        return;
    }
    for f in &lexed.fns {
        if f.in_test || !is_sensitive_fn(f) {
            continue;
        }
        let Some((body_open, body_close)) = f.body else {
            continue;
        };
        for i in body_open + 1..body_close {
            // `.iter()`-family call on a hash-typed receiver…
            let site = toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident && ITER_METHODS.contains(&t.text.as_str())
                })
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && receiver_ident(toks, i).is_some_and(|r| hash.contains(&r));
            // …or `for x in [&[mut]] some.hash_field {`.
            let for_site = toks[i].is_ident("for") && {
                // Find the matching `in`, then the loop-body `{`.
                (i + 1..body_close.min(i + 24))
                    .find(|&j| toks[j].is_ident("in"))
                    .is_some_and(|in_idx| {
                        let open = (in_idx + 1..body_close)
                            .find(|&j| toks[j].is_punct('{'))
                            .unwrap_or(body_close);
                        let expr = &toks[in_idx + 1..open];
                        !expr.iter().any(|t| t.is_punct('(')) // plain chain only
                            && expr
                                .iter()
                                .rev()
                                .find(|t| t.kind == TokKind::Ident)
                                .is_some_and(|t| hash.contains(&t.text))
                    })
            };
            if !site && !for_site {
                continue;
            }
            let line = toks[i].line;
            // Order-safe if the statement sorts, targets an ordered
            // container, or ends in an order-insensitive terminal op.
            let stmt_start = statement_start(toks, i, body_open + 1);
            let stmt_end = statement_end(toks, i, body_close);
            let stmt = &toks[stmt_start..stmt_end.min(toks.len())];
            let safe_in_stmt = stmt.iter().any(|t| {
                t.kind == TokKind::Ident
                    && (ORDER_SAFE_HINTS.contains(&t.text.as_str()) || ordered.contains(&t.text))
            });
            // `let v = …collect…;` later sorted: `v.sort…(` anywhere after.
            let sorted_later = toks[stmt_start].is_ident("let")
                && toks[stmt_start + 1..i]
                    .iter()
                    .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
                    .is_some_and(|v| {
                        let mut k = stmt_end;
                        while k + 2 < body_close {
                            if toks[k].is_ident(&v.text)
                                && toks[k + 1].is_punct('.')
                                && toks[k + 2].text.starts_with("sort")
                            {
                                return true;
                            }
                            k += 1;
                        }
                        false
                    });
            if !safe_in_stmt && !sorted_later {
                violations.push(Violation {
                    path: path.to_string(),
                    line,
                    rule: "hash-iter",
                    msg: format!(
                        "iteration over a HashMap/HashSet in `{}` leaks nondeterministic \
                         order into snapshot/serialized output; sort the items first \
                         (collect + sort, or use a BTreeMap/BTreeSet)",
                        f.name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- doors --

/// The one door to a resource in `srb-core`: `SrbConnection::storage_call`.
const STORAGE_DOOR: &str = "storage_call";

/// `storage-door`: in `srb-core`'s library code a raw driver call — a
/// `.driver().` chain into any `StorageDriver` method but `kind` — sits
/// inside the argument list of a `storage_call(…)`, the one door that
/// draws from the fault plan, meters the access and charges its load. A
/// call outside it serves a down resource and goes uncounted. The
/// whole-grid dump and restore in `state.rs` are the one exemption.
fn storage_door_file(path: &str, lexed: &Lexed, violations: &mut Vec<Violation>) {
    let in_scope = path
        .strip_prefix("crates/srb-core/src/")
        .is_some_and(|f| f != "state.rs");
    if !in_scope {
        return;
    }
    let toks = &lexed.toks;
    let doors: Vec<(usize, usize)> = (0..toks.len())
        .filter(|&i| {
            toks[i].is_ident(STORAGE_DOOR) && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        })
        .filter_map(|i| matching_close(toks, i + 1).map(|close| (i + 1, close)))
        .collect();
    for i in 0..toks.len().saturating_sub(5) {
        let raw = toks[i].is_punct('.')
            && toks[i + 1].is_ident("driver")
            && toks[i + 2].is_punct('(')
            && toks[i + 3].is_punct(')')
            && toks[i + 4].is_punct('.')
            && !toks[i + 5].is_ident("kind");
        if raw && !lexed.in_test(i) && !doors.iter().any(|&(open, close)| open < i && i < close) {
            violations.push(Violation {
                path: path.to_string(),
                line: toks[i + 1].line,
                rule: "storage-door",
                msg: format!(
                    "raw driver call `.driver().{}(` outside `{STORAGE_DOOR}`: it skips the \
                     fault plan, the storage metrics and the load charge",
                    toks[i + 5].text
                ),
            });
        }
    }
}

/// `subject-delete`: in `srb-core`'s library code a dataset or collection
/// row is dropped only through `Mcat::remove_dataset` /
/// `Mcat::remove_collection`, which take its metadata rows, meta-file
/// links and annotations with it. A raw `.datasets.delete(` or
/// `.collections.delete(` leaves them behind as orphans.
fn subject_delete_file(path: &str, lexed: &Lexed, violations: &mut Vec<Violation>) {
    if !path.starts_with("crates/srb-core/src/") {
        return;
    }
    let toks = &lexed.toks;
    for i in 0..toks.len().saturating_sub(4) {
        let helper = match toks[i + 1].text.as_str() {
            "datasets" => "remove_dataset",
            "collections" => "remove_collection",
            _ => continue,
        };
        if toks[i].is_punct('.')
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is_punct('.')
            && toks[i + 3].is_ident("delete")
            && toks[i + 4].is_punct('(')
            && !lexed.in_test(i)
        {
            let table = &toks[i + 1].text;
            violations.push(Violation {
                path: path.to_string(),
                line: toks[i + 1].line,
                rule: "subject-delete",
                msg: format!(
                    "raw `.{table}.delete(` leaves the row's metadata and annotations \
                     behind; use `Mcat::{helper}`"
                ),
            });
        }
    }
}

/// The Rust code blocks of `src`'s doc comments, which rustdoc compiles as
/// tests outside the crate.
fn doc_test_code(src: &str) -> String {
    let mut code = String::new();
    // `Some(true)` inside a Rust block, `Some(false)` inside another.
    let mut fence = None;
    for line in src.lines() {
        let line = line.trim_start();
        let Some(doc) = line
            .strip_prefix("///")
            .or_else(|| line.strip_prefix("//!"))
        else {
            continue;
        };
        let doc = doc.trim_start();
        if let Some(info) = doc.strip_prefix("```") {
            fence = match fence {
                None => Some(
                    info.split(',')
                        .all(|a| ["", "rust", "no_run", "should_panic"].contains(&a.trim())),
                ),
                Some(_) => None,
            };
        } else if fence == Some(true) {
            code.push_str(doc);
            code.push('\n');
        }
    }
    code
}

/// The crate whose workspace API `path` defines (`crates/<crate>/src/**`),
/// which the [`Ledger`] counts.
fn api_crate(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    rest.starts_with("src/").then_some(krate)
}

/// The unit `path` compiles in, for `over-public`: under
/// `crates/<crate>/src/`, a binary target (`main.rs`, `bin/<name>.rs` or
/// `bin/<name>/**`), named by its path, or else the crate's library,
/// named by the crate.
fn library_crate(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    let rest = rest.strip_prefix("src/")?;
    if rest == "main.rs" {
        return Some(path);
    }
    Some(match rest.strip_prefix("bin/") {
        Some(bin) => &path[..path.len() - bin.len() + bin.find('/').unwrap_or(bin.len())],
        None => krate,
    })
}

/// Item kinds `over-public` narrows.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "type", "static"];

/// A plain-`pub` item outside `#[cfg(test)]`.
struct PubItem<'a> {
    kind: &'static str,
    name: &'a str,
    line: usize,
    /// Identifiers of its interface, which must stay `pub` while it does:
    /// a fn's signature, a struct's `pub` fields, an enum's or a trait's
    /// body, a const's or static's type, an alias's target.
    interface: Vec<&'a str>,
}

/// How the token at `i` moves the generics depth: `<` opens, `>` closes
/// (the `>` of `->` does not).
fn angle_step(toks: &[Tok], i: usize) -> isize {
    match toks[i].text.as_str() {
        "<" if toks[i].kind == TokKind::Punct => 1,
        ">" if toks[i].kind == TokKind::Punct && !(i > 0 && toks[i - 1].is_punct('-')) => -1,
        _ => 0,
    }
}

/// Identifier texts of `toks[from..to]`.
fn idents(toks: &[Tok], from: usize, to: usize) -> impl Iterator<Item = &str> {
    toks[from..to.min(toks.len())]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

/// First index from `i` holding one of `stops` outside parens, brackets
/// and generics (`toks.len()` if none).
fn scan_to(toks: &[Tok], mut i: usize, stops: &[char]) -> usize {
    let mut depth = 0isize;
    while i < toks.len() {
        let t = &toks[i];
        if depth == 0 && stops.iter().any(|&c| t.is_punct(c)) {
            return i;
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        }
        depth += angle_step(toks, i);
        i += 1;
    }
    i
}

/// Identifiers of the `pub` fields between the brackets at `open` and
/// `close` (a brace or tuple struct body).
fn pub_field_idents<'a>(toks: &'a [Tok], open: usize, close: usize, out: &mut Vec<&'a str>) {
    let mut i = open + 1;
    while i < close {
        let end = scan_to(toks, i, &[',']).min(close);
        let mut j = i;
        while toks[j].is_punct('#') {
            j = matching_close(toks, j + 1).map_or(end, |c| c + 1);
        }
        if j < end && toks[j].is_ident("pub") && !toks[j + 1].is_punct('(') {
            out.extend(idents(toks, j + 1, end));
        }
        i = end + 1;
    }
}

/// Every plain-`pub` item of `lexed` outside `#[cfg(test)]`.
fn pub_items(lexed: &Lexed) -> Vec<PubItem<'_>> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(2) {
        if !toks[i].is_ident("pub") || toks[i + 1].is_punct('(') || lexed.in_test(i) {
            continue;
        }
        // Past `const`/`async`/`unsafe`/`extern "abi"` qualifiers of a fn.
        let mut j = i + 1;
        while j + 1 < toks.len() {
            let t = &toks[j];
            let fn_const = t.is_ident("const")
                && ["fn", "unsafe", "async", "extern"]
                    .iter()
                    .any(|w| toks[j + 1].is_ident(w));
            if !(fn_const
                || t.is_ident("async")
                || t.is_ident("unsafe")
                || t.is_ident("extern")
                || t.kind == TokKind::Str)
            {
                break;
            }
            j += 1;
        }
        let Some(&kind) = ITEM_KINDS.iter().find(|k| toks[j].is_ident(k)) else {
            continue;
        };
        let mut n = j + 1;
        if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        let Some(name) = toks.get(n).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let stops: &[char] = match kind {
            "fn" => &['{', ';'],
            "const" | "static" => &['=', ';'],
            "type" => &[';'],
            _ => &['{', '(', ';'],
        };
        let head = scan_to(toks, n + 1, stops);
        let mut interface: Vec<&str> = idents(toks, n + 1, head).collect();
        // A struct's, enum's or trait's body.
        let body = ["struct", "enum", "trait"].contains(&kind)
            && toks.get(head).is_some_and(|t| !t.is_punct(';'));
        if let Some(close) = body.then(|| matching_close(toks, head)).flatten() {
            if kind == "struct" {
                pub_field_idents(toks, head, close, &mut interface);
            } else {
                interface.extend(idents(toks, head, close));
            }
        }
        out.push(PubItem {
            kind,
            name: &name.text,
            line: toks[j].line,
            interface,
        });
    }
    out
}

/// Flag every plain-`pub` item of a unit ([`library_crate`]) that no
/// identifier outside that unit names, and that neither a `pub use` nor
/// the interface of an item staying `pub` names: those could be
/// `pub(crate)`.
fn over_public(files: &[(String, Lexed)]) -> Vec<Violation> {
    // Which units name each identifier (`None`: a file in no unit).
    let mut namers: BTreeMap<&str, Vec<Option<&str>>> = BTreeMap::new();
    for (path, lexed) in files {
        let krate = library_crate(path);
        for t in lexed.toks.iter().filter(|t| t.kind == TokKind::Ident) {
            let who = namers.entry(t.text.as_str()).or_default();
            if !who.contains(&krate) {
                who.push(krate);
            }
        }
    }
    // (crate, path, item, stays `pub`)
    let mut items: Vec<(&str, &str, PubItem, bool)> = Vec::new();
    let mut bound: BTreeSet<(&str, &str)> = BTreeSet::new();
    for (path, lexed) in files {
        let Some(krate) = library_crate(path) else {
            continue;
        };
        // `pub use` re-exports must stay re-exportable.
        let toks = &lexed.toks;
        for i in 0..toks.len().saturating_sub(1) {
            if toks[i].is_ident("pub") && toks[i + 1].is_ident("use") && !lexed.in_test(i) {
                for name in idents(toks, i + 2, scan_to(toks, i + 2, &[';'])) {
                    bound.insert((krate, name));
                }
            }
        }
        for it in pub_items(lexed) {
            let outside = namers[it.name].iter().any(|&w| w != Some(krate));
            items.push((krate, path.as_str(), it, outside));
        }
    }
    // What the interface of an item staying `pub` names stays `pub` too,
    // up to a fixed point.
    loop {
        let before = bound.len();
        for (krate, _, it, kept) in &mut items {
            *kept |= bound.contains(&(*krate, it.name));
            if *kept {
                bound.extend(it.interface.iter().map(|&name| (*krate, name)));
            }
        }
        if bound.len() == before {
            break;
        }
    }
    items
        .iter()
        .filter(|(.., kept)| !kept)
        .map(|(unit, path, it, _)| {
            // A crate name has no `/`; a binary is named by its path.
            let unit = if unit.contains('/') {
                format!("binary `{unit}`")
            } else {
                format!("crate `{unit}`'s library")
            };
            Violation {
                path: path.to_string(),
                line: it.line,
                rule: "over-public",
                msg: format!(
                    "`pub {} {}` is named nowhere outside {unit}; make it `pub(crate)`",
                    it.kind, it.name
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        let lexed = Lexed::new(src);
        let ranks = crate::lockgraph::tests::ranks();
        let mut registry = LockRegistry::default();
        registry.harvest("crates/x/src/a.rs", &lexed, &ranks);
        let mut graph = LockGraph::default();
        let mut violations = Vec::new();
        scan_file(
            "crates/x/src/a.rs",
            &lexed,
            &registry,
            &mut graph,
            &mut violations,
        );
        hash_iter_file("crates/x/src/a.rs", &lexed, &mut violations);
        let rank_of: BTreeMap<String, u8> = registry
            .defs
            .iter()
            .map(|d| (d.name.clone(), d.rank))
            .collect();
        for e in graph.inversions(&rank_of) {
            violations.push(Violation {
                path: e.path.clone(),
                line: e.line,
                rule: "lock-order",
                msg: String::new(),
            });
        }
        for _ in graph.cycles(&rank_of) {
            violations.push(Violation {
                path: String::new(),
                line: 0,
                rule: "lock-cycle",
                msg: String::new(),
            });
        }
        violations
    }

    const DEFS: &str = r#"
struct S {
    topo: RwLock<u32>,
    core: RwLock<u32>,
}
impl S {
    fn new() -> S {
        S {
            topo: RwLock::new(LockRank::Topology, "net.topo", 0),
            core: RwLock::new(LockRank::CoreState, "core.state", 0),
        }
    }
"#;

    #[test]
    fn nested_uprank_acquisition_is_an_inversion() {
        let src = format!(
            "{DEFS}
    fn bad(&self) {{
        let g = self.topo.read();
        let h = self.core.write();
    }}
}}"
        );
        let v = run(&src);
        assert!(v.iter().any(|v| v.rule == "lock-order"), "{v:?}");
    }

    #[test]
    fn nested_downrank_acquisition_is_fine() {
        let src = format!(
            "{DEFS}
    fn good(&self) {{
        let g = self.core.write();
        let h = self.topo.read();
    }}
}}"
        );
        let v = run(&src);
        assert!(v.iter().all(|v| v.rule != "lock-order"), "{v:?}");
    }

    #[test]
    fn guard_dropped_before_acquisition_makes_no_edge() {
        let src = format!(
            "{DEFS}
    fn ok(&self) {{
        let g = self.topo.read();
        drop(g);
        let h = self.core.write();
    }}
}}"
        );
        let v = run(&src);
        assert!(v.iter().all(|v| v.rule != "lock-order"), "{v:?}");
    }

    #[test]
    fn block_scoped_guard_ends_at_close_brace() {
        let src = format!(
            "{DEFS}
    fn ok(&self) {{
        {{
            let g = self.topo.read();
        }}
        let h = self.core.write();
    }}
}}"
        );
        assert!(run(&src).iter().all(|v| v.rule != "lock-order"));
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let src = format!(
            "{DEFS}
    fn ok(&self) {{
        let n = self.topo.read().clone();
        let h = self.core.write();
    }}
}}"
        );
        assert!(run(&src).iter().all(|v| v.rule != "lock-order"));
    }

    #[test]
    fn equal_rank_opposite_orders_is_a_cycle() {
        let src = r#"
struct S { a: RwLock<u32>, b: RwLock<u32> }
impl S {
    fn new() -> S {
        S { a: RwLock::new(LockRank::McatTable, "mcat.a", 0),
            b: RwLock::new(LockRank::McatTable, "mcat.b", 0) }
    }
    fn one(&self) { let g = self.a.read(); let h = self.b.read(); }
    fn two(&self) { let g = self.b.write(); let h = self.a.write(); }
}"#;
        let v = run(src);
        assert!(v.iter().any(|v| v.rule == "lock-cycle"), "{v:?}");
    }

    #[test]
    fn guard_across_storage_dispatch_is_flagged() {
        let src = format!(
            "{DEFS}
    fn bad(&self) {{
        let g = self.core.write();
        let fan = self.store_fanout(legs, data);
    }}
    fn ok(&self) {{
        let n = {{ let g = self.core.write(); g.len() }};
        let fan = self.store_fanout(legs, data);
    }}
}}"
        );
        let v = run(&src);
        let hits: Vec<_> = v
            .iter()
            .filter(|v| v.rule == "guard-across-storage")
            .collect();
        assert_eq!(hits.len(), 1, "{v:?}");
    }

    #[test]
    fn hash_iter_in_snapshot_fn_flagged_unless_sorted() {
        let src = r#"
struct T { rows: HashMap<u32, String> }
impl T {
    fn snapshot(&self) -> Vec<String> {
        self.rows.values().cloned().collect()
    }
    fn dump(&self) -> Vec<String> {
        let mut out: Vec<String> = self.rows.values().cloned().collect();
        out.sort();
        out
    }
    fn lookup(&self) -> Vec<String> {
        self.rows.values().cloned().collect()
    }
}"#;
        let v = run(src);
        let hits: Vec<_> = v.iter().filter(|v| v.rule == "hash-iter").collect();
        // `snapshot` leaks; `dump` sorts afterwards; `lookup` is not a
        // sensitive fn.
        assert_eq!(hits.len(), 1, "{v:?}");
        assert_eq!(hits[0].line, 5);
    }

    #[test]
    fn hash_iter_for_loop_and_btree_collect() {
        let src = r#"
struct T { rows: HashMap<u32, String>, sorted: BTreeMap<u32, String> }
impl T {
    fn render(&self) -> String {
        let mut s = String::new();
        for v in &self.rows {
            s.push_str(v);
        }
        s
    }
    fn render_ok(&self) -> String {
        let m: BTreeMap<u32, String> = self.rows.iter().map(|(k, v)| (*k, v.clone())).collect();
        let mut s = String::new();
        for v in &self.sorted {
            s.push_str(v);
        }
        s
    }
}"#;
        let v = run(src);
        let hits: Vec<_> = v.iter().filter(|v| v.rule == "hash-iter").collect();
        assert_eq!(hits.len(), 1, "{v:?}");
        assert_eq!(hits[0].line, 6);
    }

    #[test]
    fn order_insensitive_terminals_are_safe() {
        let src = r#"
struct T { rows: HashMap<u32, u64> }
impl T {
    fn snapshot_total(&self) -> u64 {
        self.rows.values().sum()
    }
    fn snapshot_len(&self) -> usize {
        self.rows.keys().count()
    }
}"#;
        assert!(run(src).iter().all(|v| v.rule != "hash-iter"));
    }

    #[test]
    fn over_public_counts_names_outside_the_library() {
        let lib = "pub use m::Shown;\npub fn inner_only() {}\npub struct Arg;\npub fn api(a: Arg) {}\n\
                   pub struct Hidden { pub f: Field }\npub struct Field;\npub(crate) fn narrow() {}\n\
                   fn f() { inner_only(); }\npub fn bin_only() {}\n\
                   #[cfg(test)]\nmod tests { pub fn t() { Hidden; } }\n";
        let files: Vec<(String, Lexed)> = [
            ("crates/a/src/lib.rs", lib),
            ("crates/a/src/m.rs", "pub struct Shown;\n"),
            (
                "crates/a/src/bin/tool.rs",
                "fn main() { a::bin_only(); }\npub fn in_bin() {}\n",
            ),
            ("crates/a/tests/it.rs", "fn t() { a::api(); }"),
        ]
        .into_iter()
        .map(|(p, src)| (p.to_string(), Lexed::new(src)))
        .collect();
        let flagged: Vec<(String, usize)> = over_public(&files)
            .into_iter()
            .map(|v| (v.path, v.line))
            .collect();
        // `Field` is named only by `Hidden`, which is narrowed too; nothing
        // outside a binary can name `in_bin`.
        let at = |path: &str, line| (path.to_string(), line);
        let lib = "crates/a/src/lib.rs";
        let bin = "crates/a/src/bin/tool.rs";
        assert_eq!(flagged, [at(lib, 2), at(lib, 5), at(lib, 6), at(bin, 2)]);
    }

    #[test]
    fn only_bare_pub_is_public() {
        let src = "pub fn a() {}\npub const unsafe fn b() {}\npub extern \"C\" fn c() {}\n\
                   pub(crate) fn d() {}\npub(super) fn e() {}\nfn f() {}";
        let lexed = Lexed::new(src);
        let public: Vec<&str> = pub_items(&lexed).iter().map(|it| it.name).collect();
        assert_eq!(public, vec!["a", "b", "c"]);
    }

    #[test]
    fn doc_tests_are_the_rust_fences_of_doc_comments() {
        let src = "//! ```\n//! a::run();\n//! ```\n/// ```text\n/// a::shown_only\n/// ```\n\
                   /// ```rust,no_run\n/// a::go();\n/// ```\n// ```\n// a::commented();\n";
        assert_eq!(doc_test_code(src), "a::run();\na::go();\n");
    }

    /// The ledger counts each crate's files up to their test module, and
    /// its total is the sum of the crates.
    fn doors(path: &str, src: &str) -> Vec<Violation> {
        let lexed = Lexed::new(src);
        let mut violations = Vec::new();
        storage_door_file(path, &lexed, &mut violations);
        subject_delete_file(path, &lexed, &mut violations);
        violations
    }

    #[test]
    fn storage_door_flags_raw_driver_calls_outside_the_door() {
        let src = "fn a() { let d = grid.driver(r)?;\n d.driver().read(p)?;\n\
                   grid.driver(r)?.driver()\n .delete(p); }\n\
                   fn b() { self.storage_call(r, |d| d.driver().read(p))?;\n\
                   self.storage_call(r, |d| {\n Ok(((), d.driver().write(p, x)?))\n });\n\
                   d.driver().kind(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { d.driver().read(p); }\n}\n";
        let v = doors("crates/srb-core/src/ops_x.rs", src);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [2, 3]);
        assert!(v[0].msg.contains("`.driver().read(`"), "{}", v[0].msg);
        // The whole-grid dump and restore, and other crates, are exempt.
        assert!(doors("crates/srb-core/src/state.rs", src).is_empty());
        assert!(doors("crates/srb-storage/src/fs.rs", src).is_empty());
        // A call after a door's argument list has closed is outside it.
        let after = "self.storage_call(r, f)?; d.driver().read(p);\n";
        assert_eq!(doors("crates/srb-core/src/conn.rs", after).len(), 1);
    }

    #[test]
    fn subject_delete_flags_raw_row_deletes_in_srb_core() {
        let src = "fn a() { mcat.datasets.delete(id)?;\n\
                   let _ = self.grid.mcat.collections\n .delete(c); }\n\
                   fn b() { mcat.remove_dataset(id)?; mcat.containers.delete(k)?;\n\
                   datasets.delete(id); mcat.datasets.deleted(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { m.datasets.delete(d); }\n}\n";
        let v = doors("crates/srb-core/src/zone/replication.rs", src);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [1, 2]);
        assert!(v[0].msg.contains("Mcat::remove_dataset"), "{}", v[0].msg);
        assert!(v[1].msg.contains("Mcat::remove_collection"), "{}", v[1].msg);
        // The tables themselves and other crates may delete rows.
        assert!(doors("crates/srb-mcat/src/catalog.rs", src).is_empty());
        assert!(doors("crates/srb-core/tests/t.rs", src).is_empty());
    }

    #[test]
    fn ledger_counts_per_crate_and_in_total() {
        let mut ledger = Ledger::default();
        let files = [
            ("crates/a/src/lib.rs", "pub fn f() {}\n\nfn g() {}\n"),
            (
                "crates/a/src/m.rs",
                "pub struct S;\n#[cfg(test)]\nmod tests {}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "  pub(crate) fn h() {}\npub use x::y;\n",
            ),
            ("crates/b/tests/t.rs", "pub fn not_api() {}\n"),
            ("xtask/src/main.rs", "fn main() {}\n"),
        ];
        for (path, src) in files {
            if let Some(krate) = api_crate(path) {
                ledger.add(krate, src);
            }
        }
        let count = |lines, pub_items| Count { lines, pub_items };
        assert_eq!(ledger.crates.len(), 2);
        assert_eq!(ledger.crates["a"], count(3, 2));
        assert_eq!(ledger.crates["b"], count(2, 1));
        assert_eq!(ledger.total, count(5, 3));
    }
}
