//! The lint rules, running on the token stream from [`crate::lexer`].
//!
//! Each rule takes a workspace-relative path plus the lexed source and
//! yields violations. Comments and literals are not tokens, so a banned
//! identifier in a doc comment or a test fixture string can never trip a
//! rule; string-literal *values* (for the metric-name rule) come from the
//! lexer with escapes already resolved, so `"web.a\"b"` is seen as the
//! eight characters it denotes rather than being cut at the escaped quote.

use crate::lexer::{Lexed, TokKind};

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

/// Rule `raw-lock`: `parking_lot` may only be named inside the ranked
/// wrapper module. Everything else must go through `srb_types::sync`, which
/// is what ties every lock to a `LockRank` and keeps the deadlock
/// detector complete — one raw lock is a blind spot.
pub fn raw_lock(path: &str, lexed: &Lexed) -> Vec<Violation> {
    if path == "crates/srb-types/src/sync.rs" {
        return Vec::new();
    }
    lexed
        .ident_lines("parking_lot")
        .into_iter()
        .map(|line| Violation {
            path: path.to_string(),
            line,
            rule: "raw-lock",
            msg: "raw parking_lot lock; use srb_types::sync::{Mutex, RwLock} with a LockRank"
                .to_string(),
        })
        .collect()
}

/// Rule `wall-clock`: `std::time::{SystemTime, Instant}` and
/// `rand::thread_rng` are banned outside the virtual clock and the bench
/// crate. The whole grid runs on `SimClock` so experiments replay
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
                     srb_types::SimClock / a seeded StdRng"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexed;

    #[test]
    fn raw_lock_flags_usage_outside_wrapper() {
        let lexed = Lexed::new("use parking_lot::RwLock;\n");
        let v = raw_lock("crates/srb-net/src/load.rs", &lexed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        // ... but not in the wrapper module itself.
        assert!(raw_lock("crates/srb-types/src/sync.rs", &lexed).is_empty());
        // ... and not in comments.
        let commented = Lexed::new("// parking_lot is banned\n");
        assert!(raw_lock("crates/srb-net/src/load.rs", &commented).is_empty());
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
        let lexed = Lexed::new("use parking_lot::RwLock;\nlet t = Instant::now();\n");
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
