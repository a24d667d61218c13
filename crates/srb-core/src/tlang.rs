//! T-language — SRB's "interpreted language native to SRB that supports
//! rule-based data extraction and style-sheet for data organization".
//!
//! Two statement families, matching the paper's two uses:
//!
//! **Extraction rules** (metadata extraction methods, §5):
//! ```text
//! # take the rest of the first line containing the prefix
//! extract Title after "TITLE ="
//! # take the text between two delimiters
//! extract Creator between "<creator>" "</creator>"
//! # find `NAME <sep> value` lines by attribute name
//! extract Wingspan keyvalue "="
//! # constant attribute
//! set Format "FITS"
//! # attach units to an extracted attribute
//! units Wingspan "cm"
//! ```
//!
//! **Style-sheets** (pretty-printing registered-SQL results, §4):
//! ```text
//! header "<h1>Birds</h1><ul>"
//! row "<li>{0}: {wingspan} cm</li>"
//! footer "</ul>"
//! ```
//! `{i}` substitutes column *i*; `{name}` substitutes the column named
//! `name` (case-insensitive).

use srb_storage::sql::QueryResult;
use srb_types::{MetaValue, SrbError, SrbResult, Triplet};

/// One parsed T-language statement.
#[derive(Debug, Clone, PartialEq)]
enum Stmt {
    ExtractAfter {
        attr: String,
        prefix: String,
    },
    ExtractBetween {
        attr: String,
        open: String,
        close: String,
    },
    ExtractKeyValue {
        attr: String,
        sep: String,
    },
    Set {
        attr: String,
        value: String,
    },
    Units {
        attr: String,
        units: String,
    },
    Header(String),
    Row(String),
    Footer(String),
}

/// A parsed T-language script.
#[derive(Debug, Clone, PartialEq)]
pub struct TScript {
    stmts: Vec<Stmt>,
}

fn tokenize_line(line: &str) -> SrbResult<Vec<String>> {
    let mut toks = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some('\\') => match chars.next() {
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some(other) => s.push(other),
                        None => return Err(SrbError::Parse("dangling escape".into())),
                    },
                    Some(other) => s.push(other),
                    None => return Err(SrbError::Parse("unterminated string".into())),
                }
            }
            toks.push(s);
        } else {
            let mut s = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    break;
                }
                s.push(c);
                chars.next();
            }
            toks.push(s);
        }
    }
    Ok(toks)
}

impl TScript {
    /// Parse a script. Lines starting with `#` (after whitespace) are
    /// comments; blank lines are ignored.
    pub fn parse(src: &str) -> SrbResult<TScript> {
        let mut stmts = Vec::new();
        for (lineno, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks = tokenize_line(line)?;
            let err = |msg: &str| {
                Err(SrbError::Parse(format!(
                    "T-language line {}: {msg}: '{line}'",
                    lineno + 1
                )))
            };
            let stmt = match toks[0].as_str() {
                "extract" => {
                    if toks.len() < 4 {
                        return err("extract needs: extract NAME <mode> ARGS");
                    }
                    let attr = toks[1].clone();
                    match toks[2].as_str() {
                        "after" => Stmt::ExtractAfter {
                            attr,
                            prefix: toks[3].clone(),
                        },
                        "between" => {
                            if toks.len() < 5 {
                                return err("between needs two delimiters");
                            }
                            Stmt::ExtractBetween {
                                attr,
                                open: toks[3].clone(),
                                close: toks[4].clone(),
                            }
                        }
                        "keyvalue" => Stmt::ExtractKeyValue {
                            attr,
                            sep: toks[3].clone(),
                        },
                        _ => return err("unknown extract mode"),
                    }
                }
                "set" => {
                    if toks.len() < 3 {
                        return err("set needs: set NAME VALUE");
                    }
                    Stmt::Set {
                        attr: toks[1].clone(),
                        value: toks[2].clone(),
                    }
                }
                "units" => {
                    if toks.len() < 3 {
                        return err("units needs: units NAME UNITS");
                    }
                    Stmt::Units {
                        attr: toks[1].clone(),
                        units: toks[2].clone(),
                    }
                }
                "header" => {
                    if toks.len() < 2 {
                        return err("header needs a template string");
                    }
                    Stmt::Header(toks[1].clone())
                }
                "row" => {
                    if toks.len() < 2 {
                        return err("row needs a template string");
                    }
                    Stmt::Row(toks[1].clone())
                }
                "footer" => {
                    if toks.len() < 2 {
                        return err("footer needs a template string");
                    }
                    Stmt::Footer(toks[1].clone())
                }
                _ => return err("unknown statement"),
            };
            stmts.push(stmt);
        }
        Ok(TScript { stmts })
    }

    /// Apply the extraction rules to a text document, producing triplets.
    pub(crate) fn extract(&self, text: &str) -> Vec<Triplet> {
        let mut out: Vec<Triplet> = Vec::new();
        for stmt in &self.stmts {
            match stmt {
                Stmt::ExtractAfter { attr, prefix } => {
                    for line in text.lines() {
                        if let Some(pos) = line.find(prefix.as_str()) {
                            let value = line[pos + prefix.len()..].trim();
                            if !value.is_empty() {
                                out.push(Triplet::new(
                                    attr.clone(),
                                    MetaValue::parse(trim_quotes(value)),
                                    "",
                                ));
                            }
                            break;
                        }
                    }
                }
                Stmt::ExtractBetween { attr, open, close } => {
                    if let Some(start) = text.find(open.as_str()) {
                        let rest = &text[start + open.len()..];
                        if let Some(end) = rest.find(close.as_str()) {
                            let value = rest[..end].trim();
                            if !value.is_empty() {
                                out.push(Triplet::new(attr.clone(), MetaValue::parse(value), ""));
                            }
                        }
                    }
                }
                Stmt::ExtractKeyValue { attr, sep } => {
                    for line in text.lines() {
                        let Some((k, v)) = line.split_once(sep.as_str()) else {
                            continue;
                        };
                        if k.trim().eq_ignore_ascii_case(attr) {
                            let value = trim_quotes(v.trim());
                            if !value.is_empty() {
                                out.push(Triplet::new(attr.clone(), MetaValue::parse(value), ""));
                            }
                            break;
                        }
                    }
                }
                Stmt::Set { attr, value } => {
                    out.push(Triplet::new(attr.clone(), MetaValue::parse(value), ""));
                }
                Stmt::Units { attr, units } => {
                    for t in out.iter_mut().rev() {
                        if &t.name == attr {
                            t.units = units.clone();
                            break;
                        }
                    }
                }
                // Style statements are ignored in extraction mode.
                Stmt::Header(_) | Stmt::Row(_) | Stmt::Footer(_) => {}
            }
        }
        out
    }

    /// Render a SQL result through the style-sheet statements.
    pub fn render(&self, result: &QueryResult) -> String {
        let mut out = String::new();
        for stmt in &self.stmts {
            if let Stmt::Header(t) = stmt {
                out.push_str(t);
                out.push('\n');
            }
        }
        for row in &result.rows {
            for stmt in &self.stmts {
                if let Stmt::Row(template) = stmt {
                    out.push_str(&substitute(template, &result.columns, row));
                    out.push('\n');
                }
            }
        }
        for stmt in &self.stmts {
            if let Stmt::Footer(t) = stmt {
                out.push_str(t);
                out.push('\n');
            }
        }
        out
    }

    /// Number of parsed statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// True when the script has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

fn trim_quotes(s: &str) -> &str {
    s.trim_matches(|c| c == '\'' || c == '"').trim()
}

fn substitute(template: &str, columns: &[String], row: &[srb_storage::sql::SqlValue]) -> String {
    let mut out = String::with_capacity(template.len() + 16);
    let mut chars = template.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '{' {
            out.push(c);
            continue;
        }
        let mut key = String::new();
        let mut closed = false;
        for k in chars.by_ref() {
            if k == '}' {
                closed = true;
                break;
            }
            key.push(k);
        }
        if !closed {
            out.push('{');
            out.push_str(&key);
            break;
        }
        let idx = key
            .parse::<usize>()
            .ok()
            .or_else(|| columns.iter().position(|c| c.eq_ignore_ascii_case(&key)));
        match idx.and_then(|i| row.get(i)) {
            Some(v) => out.push_str(&v.render()),
            None => {
                out.push('{');
                out.push_str(&key);
                out.push('}');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use srb_storage::sql::SqlEngine;

    #[test]
    fn fits_header_extraction() {
        let script = TScript::parse(
            r#"
            # FITS-style header extraction
            extract OBJECT keyvalue "="
            extract TELESCOP keyvalue "="
            set Format "FITS"
            "#,
        )
        .unwrap();
        let fits = "SIMPLE  = T\nOBJECT  = 'M31'\nTELESCOP= '2MASS'\nEND";
        let triplets = script.extract(fits);
        assert_eq!(triplets.len(), 3);
        assert_eq!(triplets[0], Triplet::new("OBJECT", "M31", ""));
        assert_eq!(triplets[1], Triplet::new("TELESCOP", "2MASS", ""));
        assert_eq!(triplets[2], Triplet::new("Format", "FITS", ""));
    }

    #[test]
    fn html_between_extraction() {
        let script = TScript::parse(r#"extract Title between "<title>" "</title>""#).unwrap();
        let html = "<html><head><title>Avian Culture</title></head></html>";
        assert_eq!(
            script.extract(html),
            vec![Triplet::new("Title", "Avian Culture", "")]
        );
        // Missing delimiters produce nothing.
        assert!(script.extract("<html></html>").is_empty());
    }

    #[test]
    fn after_extraction_with_units() {
        let script = TScript::parse(
            r#"
            extract Wingspan after "Wingspan:"
            units Wingspan "cm"
            "#,
        )
        .unwrap();
        let doc = "Species: condor\nWingspan: 290\n";
        let t = script.extract(doc);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].value, MetaValue::Int(290));
        assert_eq!(t[0].units, "cm");
    }

    #[test]
    fn numeric_values_parse_numerically() {
        let script = TScript::parse(r#"extract N keyvalue ":""#).unwrap();
        let t = script.extract("N: 12.5");
        assert_eq!(t[0].value, MetaValue::Float(12.5));
    }

    #[test]
    fn style_sheet_rendering() {
        let script = TScript::parse(
            r#"
            header "<ul>"
            row "<li>{0} spans {wingspan}</li>"
            footer "</ul>"
            "#,
        )
        .unwrap();
        let e = SqlEngine::new();
        e.execute("CREATE TABLE b (name, wingspan)").unwrap();
        e.execute("INSERT INTO b VALUES ('condor', 290), ('sparrow', 20)")
            .unwrap();
        let r = e
            .execute("SELECT name, wingspan FROM b ORDER BY wingspan DESC")
            .unwrap();
        let html = script.render(&r);
        assert_eq!(
            html,
            "<ul>\n<li>condor spans 290</li>\n<li>sparrow spans 20</li>\n</ul>\n"
        );
    }

    #[test]
    fn unknown_placeholder_left_verbatim() {
        let script = TScript::parse(r#"row "{0} {nope} {99}""#).unwrap();
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t (a)").unwrap();
        e.execute("INSERT INTO t VALUES ('x')").unwrap();
        let r = e.execute("SELECT a FROM t").unwrap();
        assert_eq!(script.render(&r), "x {nope} {99}\n");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = TScript::parse("extract Title\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        assert!(TScript::parse("frobnicate x").is_err());
        assert!(TScript::parse(r#"extract T wrongmode "x""#).is_err());
        assert!(TScript::parse(r#"row "unterminated"#).is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let s = TScript::parse("\n# comment\n\n  # another\n").unwrap();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn escapes_in_strings() {
        let s = TScript::parse(r#"set Note "line1\nline2\t\"quoted\"""#).unwrap();
        let t = s.extract("");
        assert_eq!(t[0].value.lexical(), "line1\nline2\t\"quoted\"");
    }

    /// T-language words and punctuation hostile input is made of.
    const VOCAB: &[&str] = &[
        "extract ",
        "set ",
        "units ",
        " after ",
        " between ",
        " keyvalue ",
        "Title",
        "Format",
        "\"",
        "\"=\"",
        "\"<title>\"",
        "\\",
        "'",
        "#",
        "\n",
        " ",
        "\t",
        "=",
        ":",
        "\u{e9}",
        "\0",
    ];

    /// Scripts `TScript::parse` accepts.
    const VALID: &[&str] = &[
        "extract OBJECT keyvalue \"=\"\nset Format \"FITS\"",
        "extract Title between \"<title>\" \"</title>\"",
        "# comment\nextract Wingspan after \"Wingspan:\"\nunits Wingspan \"cm\"",
    ];

    /// Arbitrary text: tokens of `VOCAB` and raw characters, any order.
    fn arbitrary() -> impl Strategy<Value = String> {
        let tok = (0..VOCAB.len() + 8, any::<u32>());
        prop::collection::vec(tok, 0..40).prop_map(|toks| {
            let raw = |c: u32| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}');
            toks.into_iter()
                .map(|(k, c)| {
                    VOCAB
                        .get(k)
                        .map_or_else(|| raw(c).to_string(), |t| t.to_string())
                })
                .collect()
        })
    }

    /// Near-valid text: one of `VALID` with tokens of `VOCAB` spliced
    /// in, characters cut out, or its tail cut off.
    fn near_valid() -> impl Strategy<Value = String> {
        let edit = (any::<usize>(), 0u8..3, 0..VOCAB.len());
        (0..VALID.len(), prop::collection::vec(edit, 1..5)).prop_map(|(k, edits)| {
            let mut s: Vec<char> = VALID[k].chars().collect();
            for (at, op, t) in edits {
                let at = at % (s.len() + 1);
                match op {
                    0 => drop(s.splice(at..at, VOCAB[t].chars())),
                    1 => drop(s.drain(at..(at + 1 + t % 4).min(s.len()))),
                    _ => s.truncate(at),
                }
            }
            s.into_iter().collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Hostile scripts parse or fail, never panic; a script that
        /// parses also runs over a document.
        #[test]
        fn hostile_scripts_never_panic(text in arbitrary(), near in near_valid()) {
            for src in [&text, &near] {
                if let Ok(script) = TScript::parse(src) {
                    script.extract("OBJECT = 'M31'\n<title>t</title>\nWingspan: 290");
                }
            }
        }
    }
}
