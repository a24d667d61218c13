//! Micro-SQL engine.
//!
//! Registered SQL objects (paper §4, object type 3) execute "any query
//! supported by the underlying database, including table joins, functions,
//! stored-procedures, sub-queries and union queries". We implement the
//! working core of that: `CREATE TABLE`, `INSERT`, `DELETE`, `DROP`, and
//! `SELECT` with projections, multi-table joins (comma syntax), conjunctive
//! `WHERE` (the same eight operators as the MCAT), `ORDER BY`, `LIMIT`, and
//! `UNION`. Queries run at *retrieval* time, so results change as tables
//! change — exactly the property the paper highlights.

use serde::{Deserialize, Serialize};
use srb_types::sync::{LockRank, RwLock};
use srb_types::{CompareOp, MetaValue, ShortStr, SrbError, SrbResult};
use std::collections::HashMap;
use std::fmt;

/// A SQL value: NULL, number or text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Text literal.
    Text(String),
}

impl SqlValue {
    /// Render as the display string used in templates.
    pub fn render(&self) -> String {
        match self {
            SqlValue::Null => "NULL".to_string(),
            SqlValue::Int(i) => i.to_string(),
            SqlValue::Float(f) => format!("{f}"),
            SqlValue::Text(s) => s.clone(),
        }
    }

    fn to_meta(&self) -> MetaValue {
        match self {
            SqlValue::Null => MetaValue::Text(ShortStr::new()),
            SqlValue::Int(i) => MetaValue::Int(*i),
            SqlValue::Float(f) => MetaValue::Float(*f),
            SqlValue::Text(s) => MetaValue::parse(s),
        }
    }

    fn compare(&self, op: CompareOp, other: &SqlValue) -> bool {
        // NULL never compares true, as in SQL three-valued logic.
        if matches!(self, SqlValue::Null) || matches!(other, SqlValue::Null) {
            return false;
        }
        op.eval(&self.to_meta(), &other.to_meta())
    }
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Result of a `SELECT`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<SqlValue>>,
}

#[derive(Debug, Clone)]
struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<SqlValue>>,
}

/// A set of named tables guarded by one RwLock (queries are read-mostly).
#[derive(Debug)]
pub struct SqlEngine {
    tables: RwLock<HashMap<String, Table>>,
}

impl Default for SqlEngine {
    fn default() -> Self {
        SqlEngine {
            tables: RwLock::new(LockRank::Storage, "storage.sql.tables", HashMap::new()),
        }
    }
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(String),
    Punct(char),
    Op(String),
}

fn lex(sql: &str) -> SrbResult<Vec<Tok>> {
    let mut toks = Vec::new();
    let chars: Vec<char> = sql.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '\'' {
            let mut s = String::new();
            i += 1;
            loop {
                if i >= chars.len() {
                    return Err(SrbError::Parse("unterminated string literal".into()));
                }
                if chars[i] == '\'' {
                    // Doubled quote = escaped quote.
                    if i + 1 < chars.len() && chars[i + 1] == '\'' {
                        s.push('\'');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                s.push(chars[i]);
                i += 1;
            }
            toks.push(Tok::Str(s));
        } else if c.is_ascii_digit()
            || (c == '-'
                && i + 1 < chars.len()
                && chars[i + 1].is_ascii_digit()
                && matches!(toks.last(), None | Some(Tok::Punct(_)) | Some(Tok::Op(_))))
        {
            let mut s = String::new();
            s.push(c);
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                s.push(chars[i]);
                i += 1;
            }
            toks.push(Tok::Num(s));
        } else if c.is_alphabetic() || c == '_' {
            let mut s = String::new();
            while i < chars.len()
                && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
            {
                s.push(chars[i]);
                i += 1;
            }
            toks.push(Tok::Ident(s));
        } else if "<>=!".contains(c) {
            let mut s = String::new();
            s.push(c);
            i += 1;
            if i < chars.len() && "<>=".contains(chars[i]) {
                s.push(chars[i]);
                i += 1;
            }
            toks.push(Tok::Op(s));
        } else if "(),*;".contains(c) {
            toks.push(Tok::Punct(c));
            i += 1;
        } else {
            return Err(SrbError::Parse(format!("unexpected character '{c}'")));
        }
    }
    Ok(toks)
}

// --------------------------------------------------------------- parser --

#[derive(Debug, Clone)]
enum Operand {
    Column(String),
    Literal(SqlValue),
}

#[derive(Debug, Clone)]
struct Condition {
    lhs: Operand,
    op: CompareOp,
    rhs: Operand,
}

#[derive(Debug, Clone)]
struct Select {
    columns: Vec<String>, // empty = *
    tables: Vec<String>,
    conditions: Vec<Condition>,
    order_by: Option<(String, bool)>, // (column, descending)
    limit: Option<usize>,
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn new(toks: Vec<Tok>) -> Self {
        Parser { toks, pos: 0 }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> SrbResult<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SrbError::Parse("unexpected end of query".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> SrbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SrbError::Parse(format!("expected '{kw}'")))
        }
    }

    fn expect_punct(&mut self, p: char) -> SrbResult<()> {
        match self.next()? {
            Tok::Punct(c) if c == p => Ok(()),
            t => Err(SrbError::Parse(format!("expected '{p}', got {t:?}"))),
        }
    }

    fn ident(&mut self) -> SrbResult<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            t => Err(SrbError::Parse(format!("expected identifier, got {t:?}"))),
        }
    }

    fn literal(&mut self) -> SrbResult<SqlValue> {
        match self.next()? {
            Tok::Str(s) => Ok(SqlValue::Text(s)),
            Tok::Num(s) => {
                if let Ok(i) = s.parse::<i64>() {
                    Ok(SqlValue::Int(i))
                } else {
                    s.parse::<f64>()
                        .map(SqlValue::Float)
                        .map_err(|_| SrbError::Parse(format!("bad number '{s}'")))
                }
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(SqlValue::Null),
            t => Err(SrbError::Parse(format!("expected literal, got {t:?}"))),
        }
    }

    fn operand(&mut self) -> SrbResult<Operand> {
        match self.peek() {
            Some(Tok::Ident(s)) if !s.eq_ignore_ascii_case("null") => {
                let s = s.clone();
                self.pos += 1;
                Ok(Operand::Column(s))
            }
            _ => Ok(Operand::Literal(self.literal()?)),
        }
    }

    fn compare_op(&mut self) -> SrbResult<CompareOp> {
        match self.next()? {
            Tok::Op(s) => CompareOp::parse(&s),
            Tok::Ident(s) if s.eq_ignore_ascii_case("like") => Ok(CompareOp::Like),
            Tok::Ident(s) if s.eq_ignore_ascii_case("not") => {
                self.expect_kw("like")?;
                Ok(CompareOp::NotLike)
            }
            t => Err(SrbError::Parse(format!("expected operator, got {t:?}"))),
        }
    }

    fn select(&mut self) -> SrbResult<Select> {
        self.expect_kw("select")?;
        let mut columns = Vec::new();
        if matches!(self.peek(), Some(Tok::Punct('*'))) {
            self.pos += 1;
        } else {
            loop {
                columns.push(self.ident()?);
                if matches!(self.peek(), Some(Tok::Punct(','))) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect_kw("from")?;
        let mut tables = vec![self.ident()?];
        while matches!(self.peek(), Some(Tok::Punct(','))) {
            self.pos += 1;
            tables.push(self.ident()?);
        }
        let mut conditions = Vec::new();
        if self.eat_kw("where") {
            loop {
                let lhs = self.operand()?;
                let op = self.compare_op()?;
                let rhs = self.operand()?;
                conditions.push(Condition { lhs, op, rhs });
                if !self.eat_kw("and") {
                    break;
                }
            }
        }
        let mut order_by = None;
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            let col = self.ident()?;
            let desc = self.eat_kw("desc");
            if !desc {
                self.eat_kw("asc");
            }
            order_by = Some((col, desc));
        }
        let mut limit = None;
        if self.eat_kw("limit") {
            match self.next()? {
                Tok::Num(s) => {
                    limit = Some(
                        s.parse::<usize>()
                            .map_err(|_| SrbError::Parse(format!("bad LIMIT '{s}'")))?,
                    )
                }
                t => return Err(SrbError::Parse(format!("expected LIMIT count, got {t:?}"))),
            }
        }
        Ok(Select {
            columns,
            tables,
            conditions,
            order_by,
            limit,
        })
    }
}

// ------------------------------------------------------------- executor --

impl SqlEngine {
    /// Empty engine.
    pub fn new() -> Self {
        SqlEngine::default()
    }

    /// Rows in a table (0 if absent) — used by capacity reports.
    pub fn row_count(&self, table: &str) -> usize {
        self.tables
            .read()
            .get(&table.to_ascii_lowercase())
            .map(|t| t.rows.len())
            .unwrap_or(0)
    }

    /// Dump every table as `(name, columns, rows)` for grid-state
    /// snapshots.
    pub fn dump_tables(&self) -> Vec<(String, Vec<String>, Vec<Vec<SqlValue>>)> {
        let g = self.tables.read();
        let mut out: Vec<_> = g
            .iter()
            .map(|(name, t)| (name.clone(), t.columns.clone(), t.rows.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Recreate tables from a dump (replacing same-named tables).
    pub fn restore_tables(&self, tables: Vec<(String, Vec<String>, Vec<Vec<SqlValue>>)>) {
        let mut g = self.tables.write();
        for (name, columns, rows) in tables {
            g.insert(name.to_ascii_lowercase(), Table { columns, rows });
        }
    }

    /// Execute any statement; SELECT/UNION return rows, DDL/DML return an
    /// empty result.
    pub fn execute(&self, sql: &str) -> SrbResult<QueryResult> {
        let trimmed = sql.trim().trim_end_matches(';');
        let head = trimmed
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_lowercase();
        match head.as_str() {
            "create" => self.exec_create(trimmed),
            "insert" => self.exec_insert(trimmed),
            "delete" => self.exec_delete(trimmed),
            "drop" => self.exec_drop(trimmed),
            "select" => self.exec_select_union(trimmed),
            "" => Err(SrbError::Parse("empty statement".into())),
            other => Err(SrbError::Parse(format!("unsupported statement '{other}'"))),
        }
    }

    fn exec_create(&self, sql: &str) -> SrbResult<QueryResult> {
        let mut p = Parser::new(lex(sql)?);
        p.expect_kw("create")?;
        p.expect_kw("table")?;
        let name = p.ident()?.to_ascii_lowercase();
        p.expect_punct('(')?;
        let mut columns = Vec::new();
        loop {
            columns.push(p.ident()?.to_ascii_lowercase());
            // Swallow an optional type name (e.g. `title TEXT`).
            if matches!(p.peek(), Some(Tok::Ident(_))) {
                p.pos += 1;
            }
            match p.next()? {
                Tok::Punct(',') => continue,
                Tok::Punct(')') => break,
                t => return Err(SrbError::Parse(format!("bad column list at {t:?}"))),
            }
        }
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(SrbError::AlreadyExists(format!("table '{name}'")));
        }
        tables.insert(
            name,
            Table {
                columns,
                rows: Vec::new(),
            },
        );
        Ok(empty_result())
    }

    fn exec_insert(&self, sql: &str) -> SrbResult<QueryResult> {
        let mut p = Parser::new(lex(sql)?);
        p.expect_kw("insert")?;
        p.expect_kw("into")?;
        let name = p.ident()?.to_ascii_lowercase();
        p.expect_kw("values")?;
        let mut new_rows = Vec::new();
        loop {
            p.expect_punct('(')?;
            let mut row = Vec::new();
            loop {
                row.push(p.literal()?);
                match p.next()? {
                    Tok::Punct(',') => continue,
                    Tok::Punct(')') => break,
                    t => return Err(SrbError::Parse(format!("bad VALUES list at {t:?}"))),
                }
            }
            new_rows.push(row);
            if matches!(p.peek(), Some(Tok::Punct(','))) {
                p.pos += 1;
            } else {
                break;
            }
        }
        let mut tables = self.tables.write();
        let table = tables
            .get_mut(&name)
            .ok_or_else(|| SrbError::NotFound(format!("table '{name}'")))?;
        for row in &new_rows {
            if row.len() != table.columns.len() {
                return Err(SrbError::Invalid(format!(
                    "expected {} values, got {}",
                    table.columns.len(),
                    row.len()
                )));
            }
        }
        table.rows.extend(new_rows);
        Ok(empty_result())
    }

    fn exec_delete(&self, sql: &str) -> SrbResult<QueryResult> {
        let mut p = Parser::new(lex(sql)?);
        p.expect_kw("delete")?;
        p.expect_kw("from")?;
        let name = p.ident()?.to_ascii_lowercase();
        let mut conditions = Vec::new();
        if p.eat_kw("where") {
            loop {
                let lhs = p.operand()?;
                let op = p.compare_op()?;
                let rhs = p.operand()?;
                conditions.push(Condition { lhs, op, rhs });
                if !p.eat_kw("and") {
                    break;
                }
            }
        }
        let mut tables = self.tables.write();
        let table = tables
            .get_mut(&name)
            .ok_or_else(|| SrbError::NotFound(format!("table '{name}'")))?;
        let cols = table.columns.clone();
        let tname = name.clone();
        table.rows.retain(|row| {
            !conditions.iter().all(|c| {
                eval_condition(c, &[(tname.as_str(), cols.as_slice(), row)]).unwrap_or(false)
            })
        });
        Ok(empty_result())
    }

    fn exec_drop(&self, sql: &str) -> SrbResult<QueryResult> {
        let mut p = Parser::new(lex(sql)?);
        p.expect_kw("drop")?;
        p.expect_kw("table")?;
        let name = p.ident()?.to_ascii_lowercase();
        if self.tables.write().remove(&name).is_none() {
            return Err(SrbError::NotFound(format!("table '{name}'")));
        }
        Ok(empty_result())
    }

    fn exec_select_union(&self, sql: &str) -> SrbResult<QueryResult> {
        // Split on top-level UNION keywords.
        let parts = split_union(sql);
        let mut combined: Option<QueryResult> = None;
        for part in parts {
            let r = self.exec_select(&part)?;
            match &mut combined {
                None => combined = Some(r),
                Some(acc) => {
                    if acc.columns.len() != r.columns.len() {
                        return Err(SrbError::Invalid(
                            "UNION arms have different column counts".into(),
                        ));
                    }
                    // UNION deduplicates.
                    for row in r.rows {
                        if !acc.rows.contains(&row) {
                            acc.rows.push(row);
                        }
                    }
                }
            }
        }
        combined.ok_or_else(|| SrbError::Invalid("UNION with no arms".into()))
    }

    fn exec_select(&self, sql: &str) -> SrbResult<QueryResult> {
        let mut p = Parser::new(lex(sql)?);
        let sel = p.select()?;
        let tables = self.tables.read();
        let mut bound: Vec<(&str, &Table)> = Vec::new();
        for t in &sel.tables {
            let key = t.to_ascii_lowercase();
            let table = tables
                .get(&key)
                .ok_or_else(|| SrbError::NotFound(format!("table '{t}'")))?;
            // Borrow the table name from the Select, which outlives the loop.
            bound.push((t.as_str(), table));
        }

        // Build the cross product lazily with index counters.
        let mut out_rows: Vec<Vec<SqlValue>> = Vec::new();
        let sizes: Vec<usize> = bound.iter().map(|(_, t)| t.rows.len()).collect();
        let mut idx = vec![0usize; bound.len()];
        let total: usize = sizes.iter().product();
        for _ in 0..total {
            let frame: Vec<(&str, &[String], &Vec<SqlValue>)> = bound
                .iter()
                .zip(idx.iter())
                .map(|((name, t), &i)| (*name, t.columns.as_slice(), &t.rows[i]))
                .collect();
            let keep = sel
                .conditions
                .iter()
                .map(|c| eval_condition(c, &frame))
                .collect::<SrbResult<Vec<bool>>>()?
                .into_iter()
                .all(|b| b);
            if keep {
                out_rows.push(project(&sel, &frame)?);
            }
            // Advance the odometer.
            for k in (0..idx.len()).rev() {
                idx[k] += 1;
                if idx[k] < sizes[k] {
                    break;
                }
                idx[k] = 0;
            }
        }

        let columns = output_columns(&sel, &bound);
        let mut result = QueryResult {
            columns,
            rows: out_rows,
        };
        if let Some((col, desc)) = &sel.order_by {
            let ci = result
                .columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(col) || c.ends_with(&format!(".{col}")))
                .ok_or_else(|| SrbError::NotFound(format!("ORDER BY column '{col}'")))?;
            result.rows.sort_by(|a, b| {
                let o = a[ci].to_meta().index_cmp(&b[ci].to_meta());
                if *desc {
                    o.reverse()
                } else {
                    o
                }
            });
        }
        if let Some(n) = sel.limit {
            result.rows.truncate(n);
        }
        Ok(result)
    }
}

fn empty_result() -> QueryResult {
    QueryResult {
        columns: Vec::new(),
        rows: Vec::new(),
    }
}

/// Split a query on top-level (not-in-parens) UNION keywords. Walks the
/// text by character, so text outside ASCII passes through whole.
fn split_union(sql: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut cur = String::new();
    let mut chars = sql.char_indices();
    while let Some((i, c)) = chars.next() {
        if in_str {
            cur.push(c);
            in_str = c != '\'';
            continue;
        }
        match c {
            '\'' => in_str = true,
            '(' => depth += 1,
            ')' => depth -= 1,
            'u' | 'U' if depth == 0 => {
                // Five ASCII bytes, so `i + 5` is a character boundary.
                let is_union = sql
                    .as_bytes()
                    .get(i..i + 5)
                    .is_some_and(|w| w.eq_ignore_ascii_case(b"union"))
                    && sql[i + 5..].chars().next().is_some_and(char::is_whitespace)
                    && cur.chars().last().is_some_and(char::is_whitespace);
                if is_union {
                    parts.push(std::mem::take(&mut cur));
                    chars.nth(3);
                    continue;
                }
            }
            _ => {}
        }
        cur.push(c);
    }
    parts.push(cur);
    parts
}

/// Resolve a (possibly qualified) column against the joined frame.
fn lookup<'a>(
    name: &str,
    frame: &[(&str, &[String], &'a Vec<SqlValue>)],
) -> SrbResult<&'a SqlValue> {
    if let Some((tbl, col)) = name.split_once('.') {
        for (tname, cols, row) in frame {
            if tname.eq_ignore_ascii_case(tbl) {
                if let Some(ci) = cols.iter().position(|c| c.eq_ignore_ascii_case(col)) {
                    return Ok(&row[ci]);
                }
            }
        }
        return Err(SrbError::NotFound(format!("column '{name}'")));
    }
    let mut found = None;
    for (_, cols, row) in frame {
        if let Some(ci) = cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
            if found.is_some() {
                return Err(SrbError::Invalid(format!("ambiguous column '{name}'")));
            }
            found = Some(&row[ci]);
        }
    }
    found.ok_or_else(|| SrbError::NotFound(format!("column '{name}'")))
}

fn eval_condition(c: &Condition, frame: &[(&str, &[String], &Vec<SqlValue>)]) -> SrbResult<bool> {
    let lhs = match &c.lhs {
        Operand::Column(n) => lookup(n, frame)?.clone(),
        Operand::Literal(v) => v.clone(),
    };
    let rhs = match &c.rhs {
        Operand::Column(n) => lookup(n, frame)?.clone(),
        Operand::Literal(v) => v.clone(),
    };
    Ok(lhs.compare(c.op, &rhs))
}

fn project(sel: &Select, frame: &[(&str, &[String], &Vec<SqlValue>)]) -> SrbResult<Vec<SqlValue>> {
    if sel.columns.is_empty() {
        let mut row = Vec::new();
        for (_, _, r) in frame {
            row.extend(r.iter().cloned());
        }
        Ok(row)
    } else {
        sel.columns
            .iter()
            .map(|c| lookup(c, frame).cloned())
            .collect()
    }
}

fn output_columns(sel: &Select, bound: &[(&str, &Table)]) -> Vec<String> {
    if sel.columns.is_empty() {
        let mut cols = Vec::new();
        for (tname, t) in bound {
            for c in &t.columns {
                if bound.len() > 1 {
                    cols.push(format!("{tname}.{c}"));
                } else {
                    cols.push(c.clone());
                }
            }
        }
        cols
    } else {
        sel.columns.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine_with_birds() -> SqlEngine {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE birds (name, family, wingspan)")
            .unwrap();
        e.execute(
            "INSERT INTO birds VALUES ('condor','vulture',290), \
             ('sparrow','passerine',20), ('eagle','accipitrid',200)",
        )
        .unwrap();
        e
    }

    #[test]
    fn create_insert_select_star() {
        let e = engine_with_birds();
        let r = e.execute("SELECT * FROM birds").unwrap();
        assert_eq!(r.columns, vec!["name", "family", "wingspan"]);
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn projection_and_where() {
        let e = engine_with_birds();
        let r = e
            .execute("SELECT name FROM birds WHERE wingspan > 100")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let names: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert!(names.contains(&"condor".to_string()));
        assert!(names.contains(&"eagle".to_string()));
    }

    #[test]
    fn like_and_not_like() {
        let e = engine_with_birds();
        let r = e
            .execute("SELECT name FROM birds WHERE name LIKE '%o%'")
            .unwrap();
        assert_eq!(r.rows.len(), 2); // condor, sparrow
        let r = e
            .execute("SELECT name FROM birds WHERE name NOT LIKE '%o%'")
            .unwrap();
        assert_eq!(r.rows.len(), 1); // eagle
    }

    #[test]
    fn order_by_and_limit() {
        let e = engine_with_birds();
        let r = e
            .execute("SELECT name, wingspan FROM birds ORDER BY wingspan DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows[0][0].render(), "condor");
        assert_eq!(r.rows[1][0].render(), "eagle");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn join_two_tables() {
        let e = engine_with_birds();
        e.execute("CREATE TABLE habitats (family, region)").unwrap();
        e.execute("INSERT INTO habitats VALUES ('vulture','andes'), ('passerine','global')")
            .unwrap();
        let r = e
            .execute(
                "SELECT birds.name, habitats.region FROM birds, habitats \
                 WHERE birds.family = habitats.family",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.columns, vec!["birds.name", "habitats.region"]);
    }

    #[test]
    fn union_deduplicates() {
        let e = engine_with_birds();
        let r = e
            .execute(
                "SELECT name FROM birds WHERE wingspan > 100 \
                 UNION SELECT name FROM birds WHERE family = 'vulture'",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2); // condor appears once
    }

    #[test]
    fn delete_with_where() {
        let e = engine_with_birds();
        e.execute("DELETE FROM birds WHERE wingspan < 100").unwrap();
        assert_eq!(e.row_count("birds"), 2);
        e.execute("DELETE FROM birds").unwrap();
        assert_eq!(e.row_count("birds"), 0);
    }

    #[test]
    fn drop_table() {
        let e = engine_with_birds();
        e.execute("DROP TABLE birds").unwrap();
        assert!(e.execute("SELECT * FROM birds").is_err());
        assert!(e.execute("DROP TABLE birds").is_err());
    }

    #[test]
    fn string_escaping() {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t (v)").unwrap();
        e.execute("INSERT INTO t VALUES ('it''s here')").unwrap();
        let r = e.execute("SELECT v FROM t").unwrap();
        assert_eq!(r.rows[0][0].render(), "it's here");
    }

    #[test]
    fn null_never_matches() {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t (a, b)").unwrap();
        e.execute("INSERT INTO t VALUES (NULL, 1), (2, 2)").unwrap();
        let r = e.execute("SELECT a FROM t WHERE a = a").unwrap();
        // NULL = NULL is not true in SQL.
        assert_eq!(r.rows.len(), 1);
        let r = e.execute("SELECT a FROM t WHERE a <> 99").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t (a, b)").unwrap();
        assert!(e.execute("INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn typed_column_declarations_accepted() {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        e.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
        assert_eq!(e.row_count("t"), 1);
    }

    #[test]
    fn negative_numbers() {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t (a)").unwrap();
        e.execute("INSERT INTO t VALUES (-5), (5)").unwrap();
        let r = e.execute("SELECT a FROM t WHERE a < 0").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], SqlValue::Int(-5));
    }

    /// Text outside ASCII reaches the query whole, and a multi-byte
    /// character beside a `u` is no keyword boundary.
    #[test]
    fn non_ascii_text_is_matched_whole() {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t (v)").unwrap();
        e.execute("INSERT INTO t VALUES ('café'), ('naïve')")
            .unwrap();
        let r = e.execute("SELECT v FROM t WHERE v = 'café'").unwrap();
        assert_eq!(r.rows, vec![vec![SqlValue::Text("café".into())]]);
        assert!(e.execute("SELECT v FROM t WHERE v = uni\u{7eafa}").is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        let e = SqlEngine::new();
        assert!(matches!(
            e.execute("SELEC * FROM t"),
            Err(SrbError::Parse(_))
        ));
        assert!(e.execute("").is_err());
        assert!(e.execute("SELECT FROM").is_err());
        assert!(e.execute("INSERT INTO missing VALUES (1)").is_err());
    }

    #[test]
    fn unqualified_ambiguous_column_rejected() {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t1 (x)").unwrap();
        e.execute("CREATE TABLE t2 (x)").unwrap();
        e.execute("INSERT INTO t1 VALUES (1)").unwrap();
        e.execute("INSERT INTO t2 VALUES (1)").unwrap();
        assert!(e.execute("SELECT x FROM t1, t2").is_err());
        assert!(e.execute("SELECT t1.x FROM t1, t2").is_ok());
    }

    #[test]
    fn results_reflect_current_table_state() {
        // The paper: "the query is executed at retrieval time … the answer
        // to the query can vary with time."
        let e = engine_with_birds();
        let q = "SELECT name FROM birds WHERE wingspan > 100";
        assert_eq!(e.execute(q).unwrap().rows.len(), 2);
        e.execute("INSERT INTO birds VALUES ('albatross','diomedeid',340)")
            .unwrap();
        assert_eq!(e.execute(q).unwrap().rows.len(), 3);
    }

    /// SQL words, names and punctuation hostile input is made of.
    const VOCAB: &[&str] = &[
        "SELECT ",
        "select ",
        " FROM ",
        " WHERE ",
        "INSERT INTO ",
        " VALUES ",
        "CREATE TABLE ",
        "DELETE FROM ",
        "DROP TABLE ",
        " UNION ",
        " ORDER BY ",
        " DESC",
        " LIMIT ",
        " LIKE ",
        " NOT ",
        " AND ",
        " OR ",
        "NULL",
        "birds",
        "habitats",
        "name",
        "wingspan",
        "birds.name",
        "*",
        ",",
        "(",
        ")",
        "'",
        "''",
        "=",
        "<>",
        "<",
        ">=",
        "-",
        "1",
        "-5",
        "1.5e400",
        "99999999999999999999",
        ";",
        " ",
        "%",
        "_",
        "\u{e9}",
        "\0",
    ];

    /// Statements the engine accepts over `engine_with_birds`.
    const VALID: &[&str] = &[
        "SELECT * FROM birds",
        "SELECT name FROM birds WHERE wingspan > 100",
        "SELECT name, wingspan FROM birds ORDER BY wingspan DESC LIMIT 2",
        "SELECT name FROM birds WHERE name NOT LIKE '%o%'",
        "SELECT name FROM birds WHERE wingspan > 100 UNION SELECT name FROM birds",
        "SELECT birds.name, h.region FROM birds, habitats h WHERE birds.family = h.family",
        "INSERT INTO birds VALUES ('it''s', 'x', -5), (NULL, 'y', 2)",
        "CREATE TABLE t (a, b)",
        "DELETE FROM birds WHERE wingspan < 100",
        "DROP TABLE birds",
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

        /// Hostile statements come back as `Ok` or `Err`, never a panic.
        #[test]
        fn hostile_statements_never_panic(text in arbitrary(), near in near_valid()) {
            let e = engine_with_birds();
            e.execute("CREATE TABLE habitats (family, region)").unwrap();
            e.execute("INSERT INTO habitats VALUES ('vulture','andes')").unwrap();
            let _ = e.execute(&text);
            let _ = e.execute(&near);
        }
    }
}
