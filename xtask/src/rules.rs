//! The lint rules, running on the token stream from [`crate::lexer`].
//!
//! Each rule takes a workspace-relative path plus the lexed source and
//! yields violations. Comments and literals are not tokens, so a banned
//! identifier in a doc comment or a test fixture string can never trip a
//! rule; string-literal *values* (for the metric-name rule) come from the
//! lexer with escapes already resolved, so `"web.a\"b"` is seen as the
//! eight characters it denotes rather than being cut at the escaped quote.

use crate::lexer::{matching_close, Lexed, Tok, TokKind};

/// One finding: file, line, rule id, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

impl Violation {
    /// GitHub Actions workflow-command form: renders as an inline PR
    /// annotation when printed from CI.
    pub fn github_annotation(&self) -> String {
        // Messages are single-line; commas/colons are fine inside the
        // message part of a workflow command.
        format!(
            "::error file={},line={},title={}::{}",
            self.path, self.line, self.rule, self.msg
        )
    }

    /// Machine-readable form for `--json`.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "msg": self.msg,
        })
    }
}

/// Rule `raw-lock`: `std::sync`'s `Mutex`/`RwLock` may only be named
/// inside the ranked wrapper module, whether as a path
/// (`std::sync::Mutex`) or in a `use std::sync::{…}` group. Everything else
/// must go through `srb_types::sync`, which is what ties every lock to a
/// `LockRank` and keeps the deadlock detector complete — one raw lock is a
/// blind spot.
pub fn raw_lock(path: &str, lexed: &Lexed) -> Vec<Violation> {
    if path == "crates/srb-types/src/sync.rs" {
        return Vec::new();
    }
    let toks = &lexed.toks;
    let is_lock = |t: &Tok| t.is_ident("Mutex") || t.is_ident("RwLock");
    let path_sep = |i: usize| toks[i].is_punct(':') && toks[i + 1].is_punct(':');
    let mut lines = Vec::new();
    for i in 0..toks.len().saturating_sub(6) {
        // `std :: sync ::` then a name or a `{…}` group.
        let std_sync = toks[i].is_ident("std")
            && path_sep(i + 1)
            && toks[i + 3].is_ident("sync")
            && path_sep(i + 4);
        if !std_sync {
            continue;
        }
        let next = &toks[i + 6];
        if is_lock(next) {
            lines.push(next.line);
        } else if next.is_punct('{') {
            // Names at the group's own level, not `mpsc::…` members.
            let close = matching_close(toks, i + 6).unwrap_or(toks.len());
            lines.extend(
                (i + 7..close)
                    .filter(|&j| {
                        is_lock(&toks[j])
                            && toks[j].depth == next.depth + 1
                            && !toks[j - 1].is_punct(':')
                    })
                    .map(|j| toks[j].line),
            );
        }
    }
    lines
        .into_iter()
        .map(|line| Violation {
            path: path.to_string(),
            line,
            rule: "raw-lock",
            msg: "raw std::sync lock; use srb_types::sync::{Mutex, RwLock} with a LockRank"
                .to_string(),
        })
        .collect()
}

/// Rule `wall-clock`: `std::time::{SystemTime, Instant}` and `thread_rng`
/// are banned outside the virtual clock and the bench crate. The whole
/// grid runs on `SimClock` and seeded `SeedStream`s so experiments replay
/// identically; one wall-clock read or OS-entropy draw silently breaks
/// that determinism.
pub fn wall_clock(path: &str, lexed: &Lexed) -> Vec<Violation> {
    if path == "crates/srb-types/src/clock.rs" || path.starts_with("crates/bench/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (word, what) in [
        ("SystemTime", "wall-clock time"),
        ("Instant", "wall-clock time"),
        ("thread_rng", "OS entropy"),
    ] {
        for line in lexed.ident_lines(word) {
            out.push(Violation {
                path: path.to_string(),
                line,
                rule: "wall-clock",
                msg: format!(
                    "`{word}` ({what}) breaks simulation determinism; use \
                     srb_types::SimClock / srb_types::SeedStream"
                ),
            });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Rule `no-unwrap`: `.unwrap()` / `.expect(` are banned in non-test
/// library code (`src/` trees outside `#[cfg(test)]` regions; integration
/// tests and benches may unwrap freely). A failure correct use can meet is
/// an `SrbError`; a broken internal condition gets a `match` with
/// `unreachable!` and its reason.
pub fn unwraps(path: &str, lexed: &Lexed) -> Vec<Violation> {
    let in_scope = (path.starts_with("src/") || path.contains("/src/"))
        && !path.contains("/tests/")
        && !path.contains("/benches/");
    if !in_scope {
        return Vec::new();
    }
    let toks = &lexed.toks;
    (0..toks.len())
        .filter(|&i| {
            toks[i].is_punct('.')
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 1).is_some_and(|t| {
                    t.is_ident("expect")
                        || (t.is_ident("unwrap")
                            && toks.get(i + 3).is_some_and(|t| t.is_punct(')')))
                })
                && !lexed.in_test(i)
        })
        .map(|i| Violation {
            path: path.to_string(),
            line: toks[i + 1].line,
            rule: "no-unwrap",
            msg: format!(
                "`.{}(` in non-test library code; return an SrbError instead",
                toks[i + 1].text
            ),
        })
        .collect()
}

/// Subsystem prefixes of the `subsystem.name` metric scheme — mirrors
/// `srb_obs::SUBSYSTEMS`, which enforces the same list at registration
/// time (an ill-formed name panics there).
const METRIC_SUBSYSTEMS: &[&str] = &[
    "storage", "health", "faults", "fanout", "query", "mcat", "web", "core", "wal", "zone",
];

/// Mirror of `srb_obs::valid_metric_name` (xtask cannot depend on the
/// workspace crates it lints).
fn valid_metric_name(name: &str) -> bool {
    let Some((subsystem, rest)) = name.split_once('.') else {
        return false;
    };
    METRIC_SUBSYSTEMS.contains(&subsystem)
        && !rest.is_empty()
        && rest
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Rule `metric-name`: every literal metric registration or lookup
/// (`.counter("…")` / `.gauge("…")` / `.histogram("…")`) outside
/// `crates/srb-obs` must follow the documented `subsystem.name` scheme;
/// literal span names (`.span("…")`) must be bare lowercase op idents.
/// Non-literal call sites are left to the registry's runtime check.
///
/// The literal value comes from the lexer with escapes resolved, so an
/// escaped quote inside the name (`"web.a\"b"`) is validated as the full
/// literal rather than being truncated at the `\"`.
pub fn metric_names(path: &str, lexed: &Lexed) -> Vec<Violation> {
    if !path.starts_with("crates/") || path.starts_with("crates/srb-obs/") {
        return Vec::new();
    }
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // `. method ( "literal"`
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(method) = toks.get(i + 1).filter(|t| {
            t.is_ident("counter")
                || t.is_ident("gauge")
                || t.is_ident("histogram")
                || t.is_ident("span")
        }) else {
            continue;
        };
        if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(lit) = toks.get(i + 3).filter(|t| t.kind == TokKind::Str) else {
            continue;
        };
        let name = &lit.text;
        let is_span = method.is_ident("span");
        let ok = if is_span {
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        } else {
            valid_metric_name(name)
        };
        if !ok {
            out.push(Violation {
                path: path.to_string(),
                line: toks[i].line,
                rule: "metric-name",
                msg: if is_span {
                    format!("span name `{name}` is not a bare lowercase op ident ([a-z0-9_]+)")
                } else {
                    format!(
                        "metric `{name}` violates the `subsystem.name` scheme \
                         (subsystem in {METRIC_SUBSYSTEMS:?}, name [a-z0-9_]+; \
                         see srb_obs::SUBSYSTEMS)"
                    )
                },
            });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Rule `no-panic-ops`: `panic!`/`todo!`/`unimplemented!` are banned in
/// `srb-core` op handlers (`ops_*.rs`). Op handlers run client requests; a
/// malformed request must surface as an `SrbError` on that request, not
/// take down the server thread.
pub fn panic_ops(path: &str, lexed: &Lexed) -> Vec<Violation> {
    let is_op_handler = path
        .strip_prefix("crates/srb-core/src/")
        .is_some_and(|f| f.starts_with("ops_") && f.ends_with(".rs"));
    if !is_op_handler {
        return Vec::new();
    }
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let word = &toks[i];
        if !(word.is_ident("panic") || word.is_ident("todo") || word.is_ident("unimplemented")) {
            continue;
        }
        // Only the macro form: identifier immediately followed by `!`.
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            continue;
        }
        if lexed.in_test(i) {
            continue;
        }
        out.push(Violation {
            path: path.to_string(),
            line: word.line,
            rule: "no-panic-ops",
            msg: format!(
                "`{}!` in an op handler; return an SrbError so one bad \
                 request cannot kill the server",
                word.text
            ),
        });
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Key types that carry user text.
const TEXT_KEYS: &[&str] = &["String", "str", "LogicalPath"];

/// Rule `id-hasher-key`: `IdMap`/`IdSet` hash on `srb_types::IdHasher`,
/// which is fixed and unkeyed, so colliding keys can be crafted. They are
/// for catalog-assigned ids only; a first type argument of `String`,
/// `str`/`&str` or `LogicalPath` is user text, which stays on `HashMap`'s
/// keyed default hasher against hash flooding.
pub fn id_hasher_keys(path: &str, lexed: &Lexed) -> Vec<Violation> {
    let toks = &lexed.toks;
    let path_sep = |j: usize| {
        toks.get(j).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
    };
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("IdMap") || toks[i].is_ident("IdSet")) {
            continue;
        }
        // `IdMap<` or the turbofish `IdMap::<`.
        let mut j = if path_sep(i + 1) { i + 3 } else { i + 1 };
        if !toks.get(j).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        j += 1;
        while toks
            .get(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime)
        {
            j += 1;
        }
        // A plain path `a::b::Key`, ending the first argument.
        let mut key = None;
        while let Some(t) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
            key = Some(t.text.as_str());
            j += 1;
            if !path_sep(j) {
                break;
            }
            j += 2;
        }
        let ends = toks
            .get(j)
            .is_some_and(|t| t.is_punct(',') || t.is_punct('>'));
        if let Some(key) = key.filter(|k| ends && TEXT_KEYS.contains(k)) {
            out.push(Violation {
                path: path.to_string(),
                line: toks[i].line,
                rule: "id-hasher-key",
                msg: format!(
                    "`{}` keyed by `{key}`: user text must not use the fixed id \
                     hasher (hash flooding); use a HashMap/HashSet",
                    toks[i].text
                ),
            });
        }
    }
    out
}

/// The one door to a resource in `srb-core`: `SrbConnection::storage_call`.
const STORAGE_DOOR: &str = "storage_call";

/// Rule `storage-door`: in `srb-core`'s library code a raw driver call —
/// a `.driver().` chain into any `StorageDriver` method but `kind` — must
/// sit inside the argument list of a `storage_call(…)`, the one door that
/// draws from the fault plan, meters the access and charges its load. A
/// call outside it serves a down resource and goes uncounted. The
/// whole-grid dump and restore in `state.rs` are the one exemption.
pub fn storage_door(path: &str, lexed: &Lexed) -> Vec<Violation> {
    let in_scope = path
        .strip_prefix("crates/srb-core/src/")
        .is_some_and(|f| f != "state.rs");
    if !in_scope {
        return Vec::new();
    }
    let toks = &lexed.toks;
    let doors: Vec<(usize, usize)> = (0..toks.len())
        .filter(|&i| {
            toks[i].is_ident(STORAGE_DOOR) && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        })
        .filter_map(|i| matching_close(toks, i + 1).map(|close| (i + 1, close)))
        .collect();
    (0..toks.len().saturating_sub(5))
        .filter(|&i| {
            toks[i].is_punct('.')
                && toks[i + 1].is_ident("driver")
                && toks[i + 2].is_punct('(')
                && toks[i + 3].is_punct(')')
                && toks[i + 4].is_punct('.')
                && !toks[i + 5].is_ident("kind")
                && !lexed.in_test(i)
                && !doors.iter().any(|&(open, close)| open < i && i < close)
        })
        .map(|i| Violation {
            path: path.to_string(),
            line: toks[i + 1].line,
            rule: "storage-door",
            msg: format!(
                "raw driver call `.driver().{}(` outside `{STORAGE_DOOR}`: it skips the \
                 fault plan, the storage metrics and the load charge",
                toks[i + 5].text
            ),
        })
        .collect()
}

/// Rule `subject-delete`: in `srb-core`'s library code a dataset or
/// collection row is dropped only through `Mcat::remove_dataset` /
/// `Mcat::remove_collection`, which take its metadata rows, meta-file
/// links and annotations with it. A raw `.datasets.delete(` or
/// `.collections.delete(` leaves them behind as orphans.
pub fn subject_delete(path: &str, lexed: &Lexed) -> Vec<Violation> {
    if !path.starts_with("crates/srb-core/src/") {
        return Vec::new();
    }
    let toks = &lexed.toks;
    (0..toks.len().saturating_sub(4))
        .filter(|&i| {
            toks[i].is_punct('.')
                && (toks[i + 1].is_ident("datasets") || toks[i + 1].is_ident("collections"))
                && toks[i + 2].is_punct('.')
                && toks[i + 3].is_ident("delete")
                && toks[i + 4].is_punct('(')
                && !lexed.in_test(i)
        })
        .map(|i| {
            let table = &toks[i + 1].text;
            let helper = if table == "datasets" {
                "remove_dataset"
            } else {
                "remove_collection"
            };
            Violation {
                path: path.to_string(),
                line: toks[i + 1].line,
                rule: "subject-delete",
                msg: format!(
                    "raw `.{table}.delete(` leaves the row's metadata and annotations \
                     behind; use `Mcat::{helper}`"
                ),
            }
        })
        .collect()
}

/// The one writer of remote pointer rows in `srb-core`, and the function
/// it shares with a collection move to re-point a row's home path.
const POINTER_FNS: [&str; 2] = ["put_pointer", "repoint_home"];

/// What a remote pointer row is made of: its URL scheme and the names of
/// its two provenance triplets.
const POINTER_PARTS: [&str; 3] = ["ZONE_URL_SCHEME", "ZONE_HOME_ATTR", "ZONE_PATH_ATTR"];

/// Rule `zone-pointer`: in `srb-core`'s library code the remote-pointer
/// constants are named only inside `fn put_pointer`, the one function
/// that writes a pointer row with its size, checksum and provenance
/// triplets, and `fn repoint_home`, which re-points its `zone_path`
/// triplet — as an identifier or as an inline format argument
/// (`"{ZONE_URL_SCHEME}"`). A second writer is a second place for the
/// row, its triplets or their WAL order to drift.
pub fn zone_pointer(path: &str, lexed: &Lexed) -> Vec<Violation> {
    if !path.starts_with("crates/srb-core/src/") {
        return Vec::new();
    }
    let toks = &lexed.toks;
    let part_in = |t: &Tok| {
        POINTER_PARTS.into_iter().find(|part| match t.kind {
            TokKind::Ident => t.text == *part,
            TokKind::Str => [format!("{{{part}}}"), format!("{{{part}:")]
                .iter()
                .any(|arg| t.text.contains(arg.as_str())),
            _ => false,
        })
    };
    (0..toks.len())
        .filter(|&i| !lexed.in_test(i))
        .filter(|&i| {
            lexed
                .enclosing_fn(i)
                .is_none_or(|f| !POINTER_FNS.contains(&&*f.name))
        })
        .filter_map(|i| part_in(&toks[i]).map(|part| (toks[i].line, part)))
        .map(|(line, part)| Violation {
            path: path.to_string(),
            line,
            rule: "zone-pointer",
            msg: format!(
                "`{part}` named outside `put_pointer`/`repoint_home`: a remote pointer \
                 row and its provenance triplets have one writer"
            ),
        })
        .collect()
}

/// What writes a sequence of rows as JSON text.
const SEQ_WRITERS: [&str; 2] = ["write_seq", "write_field"];

/// Rule `image-writer`: in `srb-mcat`'s library code table rows reach a
/// catalog image only through the paged writer (`ImageWriter::table` /
/// `ImageWriter::rows` in `snapshot.rs`), which writes them row by row
/// and lays them out in id pages. A `write_seq(`/`write_field(` call
/// beside it is a second image path: its rows are never paged, so a
/// checkpoint either renders them every time or copies a span that does
/// not match them.
pub fn image_writer(path: &str, lexed: &Lexed) -> Vec<Violation> {
    if !path.starts_with("crates/srb-mcat/src/") {
        return Vec::new();
    }
    let toks = &lexed.toks;
    (0..toks.len().saturating_sub(1))
        .filter(|&i| {
            SEQ_WRITERS.iter().any(|w| toks[i].is_ident(w))
                && toks[i + 1].is_punct('(')
                && !lexed.in_test(i)
        })
        .map(|i| Violation {
            path: path.to_string(),
            line: toks[i].line,
            rule: "image-writer",
            msg: format!(
                "`{}(` writes rows outside the paged image writer; hand them to \
                 `ImageWriter::table`/`ImageWriter::rows`",
                toks[i].text
            ),
        })
        .collect()
}

/// The files that render MySRB pages into the reply's body buffer.
const RENDER_FILES: [&str; 2] = ["crates/mysrb/src/pages.rs", "crates/mysrb/src/html.rs"];

/// Rule `render-buffer`: in MySRB's page renderers (`pages.rs`, `html.rs`)
/// library code writes into the one body buffer it is handed, in document
/// order. A `format!(` or `.to_string()` there builds a `String` beside
/// the buffer: a second render path, and an allocation per cell that the
/// buffer exists to avoid.
pub fn render_buffer(path: &str, lexed: &Lexed) -> Vec<Violation> {
    if !RENDER_FILES.contains(&path) {
        return Vec::new();
    }
    let toks = &lexed.toks;
    (0..toks.len())
        .filter(|&i| !lexed.in_test(i))
        .filter_map(|i| {
            let (next, after) = (toks.get(i + 1)?, toks.get(i + 2)?);
            let call = if toks[i].is_ident("format") && next.is_punct('!') && after.is_punct('(') {
                "format!("
            } else if toks[i].is_punct('.') && next.is_ident("to_string") && after.is_punct('(') {
                ".to_string()"
            } else {
                return None;
            };
            Some(Violation {
                path: path.to_string(),
                line: toks[i].line,
                rule: "render-buffer",
                msg: format!(
                    "`{call}` builds a String beside the body buffer; write into the \
                     buffer with `write!`/`push_str` and the `Esc`/`Url` adapters"
                ),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexed;

    #[test]
    fn render_buffer_flags_side_strings_in_the_renderers() {
        let src = "fn a(out: &mut String) { let s = format!(\"<b>{}</b>\", x);\n\
                   out.push_str(&n.to_string()); }\n\
                   fn b(out: &mut String) { let _ = write!(out, \"<b>{}</b>\", Esc(x));\n\
                   let f = to_string; format_args!(\"{x}\"); }\n// format!( in prose\n\
                   #[cfg(test)]\nmod tests {\n fn t() { format!(\"x\").to_string(); }\n}\n";
        let lexed = Lexed::new(src);
        for path in RENDER_FILES {
            let v = render_buffer(path, &lexed);
            assert_eq!(
                v.iter().map(|v| v.line).collect::<Vec<_>>(),
                [1, 2],
                "{path}"
            );
            assert!(v[0].msg.contains("`format!(`"), "{}", v[0].msg);
            assert!(v[1].msg.contains("`.to_string()`"), "{}", v[1].msg);
        }
        // The rest of the crate builds Strings as it pleases.
        assert!(render_buffer("crates/mysrb/src/app.rs", &lexed).is_empty());
        assert!(render_buffer("crates/mysrb/tests/html_golden.rs", &lexed).is_empty());
    }

    #[test]
    fn image_writer_flags_sequence_writers_in_srb_mcat() {
        let src = "fn a(out: &mut String) { serde::write_seq(rows, out);\n\
                   write_field(out, \"datasets\", rows); }\n\
                   fn b(w: &mut ImageWriter) { w.table(Field::Datasets, &g.rows, DatasetId::raw);\n\
                   let f = write_seq; }\n// write_seq(rows, out) in prose\n\
                   #[cfg(test)]\nmod tests {\n fn t() { serde::write_seq(rows, out); }\n}\n";
        let lexed = Lexed::new(src);
        let v = image_writer("crates/srb-mcat/src/dataset.rs", &lexed);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [1, 2]);
        assert!(v[0].msg.contains("`write_seq(`"), "{}", v[0].msg);
        assert!(v[1].msg.contains("`write_field(`"), "{}", v[1].msg);
        // Other crates write sequences as they please.
        assert!(image_writer("crates/srb-core/src/state.rs", &lexed).is_empty());
        assert!(image_writer("crates/srb-mcat/tests/golden_formats.rs", &lexed).is_empty());
    }

    #[test]
    fn id_hasher_keys_flag_user_text_only() {
        let bad = Lexed::new(
            "struct T { a: IdMap<String, u64>,\n b: IdSet<&'a str>,\n\
             c: IdMap<srb_types::LogicalPath, Vec<u8>> }\n\
             let d = IdSet::<str>::default();\n",
        );
        let v = id_hasher_keys("crates/srb-mcat/src/x.rs", &bad);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [1, 2, 3, 4]);
        assert!(v[2].msg.contains("`LogicalPath`"), "{}", v[2].msg);
        // Ids, tuples, text values and plain HashMaps are fine.
        let fine = Lexed::new(
            "struct T { a: IdMap<DatasetId, String>, b: IdSet<Subject>,\n\
             c: IdMap<(String, u64), u8>, d: HashMap<String, DatasetId>,\n\
             e: IdMap<StringId, u8> }\n// IdMap<String, u8>\n",
        );
        assert!(id_hasher_keys("crates/srb-mcat/src/x.rs", &fine).is_empty());
    }

    #[test]
    fn storage_door_flags_raw_driver_calls_outside_the_door() {
        let src = "fn a() { let d = grid.driver(r)?;\n d.driver().read(p)?;\n\
                   grid.driver(r)?.driver()\n .delete(p); }\n\
                   fn b() { self.storage_call(r, |d| d.driver().read(p))?;\n\
                   self.storage_call(r, |d| {\n Ok(((), d.driver().write(p, x)?))\n });\n\
                   d.driver().kind(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { d.driver().read(p); }\n}\n";
        let lexed = Lexed::new(src);
        let v = storage_door("crates/srb-core/src/ops_x.rs", &lexed);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [2, 3]);
        assert!(v[0].msg.contains("`.driver().read(`"), "{}", v[0].msg);
        // The whole-grid dump and restore, and other crates, are exempt.
        assert!(storage_door("crates/srb-core/src/state.rs", &lexed).is_empty());
        assert!(storage_door("crates/srb-storage/src/fs.rs", &lexed).is_empty());
        // A call after a door's argument list has closed is outside it.
        let after = Lexed::new("self.storage_call(r, f)?; d.driver().read(p);\n");
        assert_eq!(storage_door("crates/srb-core/src/conn.rs", &after).len(), 1);
    }

    #[test]
    fn subject_delete_flags_raw_row_deletes_in_srb_core() {
        let src = "fn a() { mcat.datasets.delete(id)?;\n\
                   let _ = self.grid.mcat.collections\n .delete(c); }\n\
                   fn b() { mcat.remove_dataset(id)?; mcat.containers.delete(k)?;\n\
                   datasets.delete(id); mcat.datasets.deleted(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { m.datasets.delete(d); }\n}\n";
        let lexed = Lexed::new(src);
        let v = subject_delete("crates/srb-core/src/zone/replication.rs", &lexed);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [1, 2]);
        assert!(v[0].msg.contains("Mcat::remove_dataset"), "{}", v[0].msg);
        assert!(v[1].msg.contains("Mcat::remove_collection"), "{}", v[1].msg);
        // The tables themselves and other crates may delete rows.
        assert!(subject_delete("crates/srb-mcat/src/catalog.rs", &lexed).is_empty());
        assert!(subject_delete("crates/srb-core/tests/t.rs", &lexed).is_empty());
    }

    #[test]
    fn zone_pointer_flags_pointer_parts_outside_the_writer() {
        let src = "use srb_mcat::{Mcat, ZONE_PATH_ATTR};\n\
                   fn mint(h: &str) -> String { [ZONE_URL_SCHEME, h].concat() }\n\
                   fn url(h: &str) -> String { format!(\"{ZONE_URL_SCHEME}{h}\") }\n\
                   fn put_pointer(m: &Mcat) {\n use srb_mcat::ZONE_HOME_ATTR;\n\
                   let url = [ZONE_URL_SCHEME, h].concat();\n let f = || ZONE_PATH_ATTR; }\n\
                   fn repoint_home() { let _ = ZONE_PATH_ATTR; }\n\
                   // ZONE_HOME_ATTR in prose, \"ZONE_URL_SCHEME\" in a literal\n\
                   #[cfg(test)]\nmod tests {\n fn t() { let _ = ZONE_HOME_ATTR; }\n}\n";
        let lexed = Lexed::new(src);
        let v = zone_pointer("crates/srb-core/src/zone/replication.rs", &lexed);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(v[1].msg.contains("`ZONE_URL_SCHEME`"), "{}", v[1].msg);
        assert!(v[2].msg.contains("`ZONE_URL_SCHEME`"), "{}", v[2].msg);
        // The catalog that defines the constants and other crates are exempt.
        assert!(zone_pointer("crates/srb-mcat/src/catalog.rs", &lexed).is_empty());
        assert!(zone_pointer("crates/srb-core/tests/zone_oracle.rs", &lexed).is_empty());
    }

    #[test]
    fn raw_lock_flags_usage_outside_wrapper() {
        let lexed = Lexed::new(
            "use std::sync::RwLock;\nuse std::sync::{Arc, Mutex as M};\nlet l = std::sync::Mutex::new(0);\n",
        );
        let v = raw_lock("crates/srb-net/src/load.rs", &lexed);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [1, 2, 3]);
        // ... but not in the wrapper module itself.
        assert!(raw_lock("crates/srb-types/src/sync.rs", &lexed).is_empty());
        // ... nor the ranked wrappers, other std::sync items, or comments.
        let fine = Lexed::new(
            "use srb_types::sync::{LockRank, Mutex};\n\
             use std::sync::{Arc, OnceLock, mpsc::RwLock};\n\
             // std::sync::Mutex is banned\n",
        );
        assert!(raw_lock("crates/srb-net/src/load.rs", &fine).is_empty());
    }

    #[test]
    fn wall_clock_flags_time_and_entropy() {
        let lexed = Lexed::new("let t = std::time::Instant::now();\nlet r = rand::thread_rng();\n");
        let v = wall_clock("crates/srb-core/src/grid.rs", &lexed);
        assert_eq!(v.len(), 2);
        assert_eq!((v[0].line, v[1].line), (1, 2));
        // Allowed in the virtual clock and the bench crate.
        assert!(wall_clock("crates/srb-types/src/clock.rs", &lexed).is_empty());
        assert!(wall_clock("crates/bench/src/fixtures.rs", &lexed).is_empty());
        // Duration is fine anywhere.
        let dur = Lexed::new("use std::time::Duration;\n");
        assert!(wall_clock("crates/srb-core/src/grid.rs", &dur).is_empty());
    }

    #[test]
    fn unwraps_are_flagged_outside_test_modules_and_test_trees() {
        let src = "fn a() { x.unwrap();\n y.expect(\"m\"); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { z.unwrap(); }\n}\n";
        let v = unwraps("crates/srb-net/src/load.rs", &Lexed::new(src));
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [1, 2]);
        // Integration tests and benches may unwrap freely.
        assert!(unwraps("crates/srb-net/tests/t.rs", &Lexed::new(src)).is_empty());
        assert!(unwraps("crates/bench/benches/b.rs", &Lexed::new(src)).is_empty());
        // unwrap_or / expect_err are not unwraps.
        let fine = Lexed::new("x.unwrap_or(0); y.expect_err(\"\");\n");
        assert!(unwraps("crates/srb-net/src/load.rs", &fine).is_empty());
    }

    #[test]
    fn metric_names_must_follow_the_scheme() {
        let bad = Lexed::new("fn f(m: &M) { m.counter(\"requests\", \"\").inc(); }\n");
        let v = metric_names("crates/mysrb/src/app.rs", &bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert!(v[0].msg.contains("`requests`"));
        // Unknown subsystems and uppercase names are flagged too.
        let bad2 = Lexed::new("m.gauge(\"webby.x\", \"\"); m.histogram(\"web.Latency\", \"\");\n");
        assert_eq!(metric_names("crates/mysrb/src/app.rs", &bad2).len(), 2);
        // Well-formed names, non-literal call sites, commented-out code,
        // and srb-obs itself are all fine.
        let ok = Lexed::new(
            "m.counter(\"web.requests\", p).inc();\n\
             m.counter(name, label).inc();\n\
             // m.counter(\"nope\", \"\")\n\
             obs.span(\"open\", p, None, t, d);\n",
        );
        assert!(metric_names("crates/mysrb/src/app.rs", &ok).is_empty());
        assert!(metric_names("crates/srb-obs/src/metrics.rs", &bad).is_empty());
        // Span names must be bare lowercase op idents.
        let span = Lexed::new("obs.span(\"Open Dataset\", p, None, t, d);\n");
        assert_eq!(metric_names("crates/srb-core/src/conn.rs", &span).len(), 1);
    }

    #[test]
    fn metric_name_escaped_quote_is_not_truncated() {
        // Regression: the old string extraction used `find('"')` on the
        // raw source, so an escaped quote inside the literal cut the name
        // short (`web.a\"b` parsed as `web.a\`). The lexer resolves
        // escapes, so the full name is validated — and rejected, because
        // `"` is not in [a-z0-9_].
        let src = "m.counter(\"web.a\\\"b\", \"\").inc();\n";
        let v = metric_names("crates/mysrb/src/app.rs", &Lexed::new(src));
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("web.a\"b"), "{}", v[0].msg);
        // And a well-formed name containing an escape elsewhere in the
        // line is still accepted.
        let ok = "m.counter(\"web.requests\", \"count of \\\"hits\\\"\").inc();\n";
        assert!(metric_names("crates/mysrb/src/app.rs", &Lexed::new(ok)).is_empty());
    }

    #[test]
    fn srb_obs_is_not_exempt_from_clock_and_lock_bans() {
        let lexed = Lexed::new("use std::sync::RwLock;\nlet t = Instant::now();\n");
        assert_eq!(wall_clock("crates/srb-obs/src/metrics.rs", &lexed).len(), 1);
        assert_eq!(raw_lock("crates/srb-obs/src/metrics.rs", &lexed).len(), 1);
    }

    #[test]
    fn panic_ops_only_in_op_handlers() {
        let lexed = Lexed::new("fn f() { panic!(\"boom\"); }\n");
        assert_eq!(
            panic_ops("crates/srb-core/src/ops_write.rs", &lexed).len(),
            1
        );
        assert!(panic_ops("crates/srb-core/src/grid.rs", &lexed).is_empty());
        assert!(panic_ops("crates/srb-net/src/load.rs", &lexed).is_empty());
        // assert!/debug_assert! and test-module panics are fine.
        let ok = Lexed::new(
            "fn f() { assert!(true); }\n#[cfg(test)]\nmod tests {\n    fn t() { panic!(); }\n}\n",
        );
        assert!(panic_ops("crates/srb-core/src/ops_write.rs", &ok).is_empty());
    }

    #[test]
    fn github_annotation_and_json_forms() {
        let v = Violation {
            path: "crates/x/src/a.rs".into(),
            line: 7,
            rule: "raw-lock",
            msg: "nope".into(),
        };
        assert_eq!(
            v.github_annotation(),
            "::error file=crates/x/src/a.rs,line=7,title=raw-lock::nope"
        );
        let j = serde_json::to_string(&v.to_json()).unwrap();
        assert!(j.contains("\"rule\":\"raw-lock\""), "{j}");
    }
}
