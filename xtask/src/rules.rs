//! The lint rules, running on the token stream from [`crate::lexer`].
//!
//! Each rule takes a workspace-relative path plus the lexed source and
//! yields violations. Comments and literals are not tokens, so a banned
//! identifier in a doc comment or a test fixture string can never trip a
//! rule; string-literal *values* (for the metric-name rule) come from the
//! lexer with escapes already resolved, so `"web.a\"b"` is seen as the
//! eight characters it denotes rather than being cut at the escaped quote.

use crate::lexer::{matching_close, Lexed, TokKind};

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
/// `crates/srb-obs` must follow the documented `subsystem.name` scheme.
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
        let registers = toks.get(i + 1).is_some_and(|t| {
            t.is_ident("counter") || t.is_ident("gauge") || t.is_ident("histogram")
        });
        if !registers || !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(lit) = toks.get(i + 3).filter(|t| t.kind == TokKind::Str) else {
            continue;
        };
        let name = &lit.text;
        if !valid_metric_name(name) {
            out.push(Violation {
                path: path.to_string(),
                line: toks[i].line,
                rule: "metric-name",
                msg: format!(
                    "metric `{name}` violates the `subsystem.name` scheme \
                     (subsystem in {METRIC_SUBSYSTEMS:?}, name [a-z0-9_]+; \
                     see srb_obs::SUBSYSTEMS)"
                ),
            });
        }
    }
    out.sort_by_key(|v| v.line);
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
             // m.counter(\"nope\", \"\")\n",
        );
        assert!(metric_names("crates/mysrb/src/app.rs", &ok).is_empty());
        assert!(metric_names("crates/srb-obs/src/metrics.rs", &bad).is_empty());
    }

    #[test]
    fn metric_subsystems_match_srb_obs() {
        let lib = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates/srb-obs/src/lib.rs");
        let src = std::fs::read_to_string(lib).expect("srb-obs lib.rs readable");
        let lexed = Lexed::new(&src);
        let toks = &lexed.toks;
        let decl = (1..toks.len())
            .find(|&i| toks[i - 1].is_ident("const") && toks[i].is_ident("SUBSYSTEMS"))
            .expect("srb-obs declares `const SUBSYSTEMS`");
        let eq = (decl..toks.len())
            .find(|&i| toks[i].is_punct('='))
            .expect("SUBSYSTEMS has a value");
        let open = (eq..toks.len())
            .find(|&i| toks[i].is_punct('['))
            .expect("SUBSYSTEMS is an array");
        let close = matching_close(toks, open).expect("SUBSYSTEMS array closes");
        let declared: std::collections::BTreeSet<&str> = toks[open..close]
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        let mirrored: std::collections::BTreeSet<&str> =
            METRIC_SUBSYSTEMS.iter().copied().collect();
        assert!(!declared.is_empty());
        assert_eq!(mirrored, declared);
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
    fn github_annotation_and_json_forms() {
        let v = Violation {
            path: "crates/x/src/a.rs".into(),
            line: 7,
            rule: "storage-door",
            msg: "nope".into(),
        };
        assert_eq!(
            v.github_annotation(),
            "::error file=crates/x/src/a.rs,line=7,title=storage-door::nope"
        );
        let j = serde_json::to_string(&v.to_json()).unwrap();
        assert!(j.contains("\"rule\":\"storage-door\""), "{j}");
    }
}
