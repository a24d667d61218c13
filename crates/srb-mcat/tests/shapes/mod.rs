//! Near-valid persisted text for hostile-input properties: a recorded
//! value in the object form, with one of its parts reshaped, the other
//! structs in either form.
//!
//! A struct is an object whose keys are all field names (lowercase
//! identifiers). The other objects are maps (keyed by ids) and enums
//! (keyed by a capitalized variant), plus the three envelopes the writers
//! keep keyed — a catalog image, a checkpoint and a grid state — which are
//! told by a key only they have.

use serde_json::Value;

/// What to do to the chosen part.
#[derive(Debug, Clone, Copy)]
pub enum Reshape {
    /// A struct in its row form, the array of its field values: valid.
    Row,
    /// The row form short of its last `k` fields (at least one).
    Short(usize),
    /// The row form with one element too many: always an arity error.
    Long,
    /// One field replaced by a value of another JSON type, the struct in
    /// its row form (`row`) or its object form.
    Retype { field: usize, row: bool },
    /// A map, an enum or an envelope as the array of its values; an array
    /// as an object keyed by position.
    Flip,
}

fn is_envelope(entries: &[(String, Value)]) -> bool {
    let key = |k: &str| matches!(k, "next_id_floor" | "snapshot" | "clock_ns");
    entries.iter().any(|(k, _)| key(k))
}

fn is_struct(entries: &[(String, Value)]) -> bool {
    let field = |k: &str| {
        k.starts_with(|c: char| c.is_ascii_lowercase())
            && k.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    !entries.is_empty() && !is_envelope(entries) && entries.iter().all(|(k, _)| field(k))
}

/// Whether `how` applies to `v`.
fn is_target(v: &Value, how: Reshape) -> bool {
    match (v, how) {
        (Value::Map(entries), Reshape::Flip) => !is_struct(entries),
        (Value::Seq(_), Reshape::Flip) => true,
        (Value::Map(entries), _) => is_struct(entries),
        _ => false,
    }
}

/// How many parts of `v` `how` applies to.
pub fn targets(v: &Value, how: Reshape) -> usize {
    let inner = match v {
        Value::Seq(items) => items.iter().map(|x| targets(x, how)).sum(),
        Value::Map(entries) => entries.iter().map(|(_, x)| targets(x, how)).sum(),
        _ => 0,
    };
    inner + usize::from(is_target(v, how))
}

/// `v` with its `n`-th target in pre-order reshaped by `how`; with
/// `rows`, every other struct in its row form too. An `n` past the last
/// target reshapes nothing.
pub fn reshaped(v: &Value, n: usize, how: Reshape, rows: bool) -> Value {
    walk(v, n, &mut 0, how, rows)
}

fn walk(v: &Value, n: usize, seen: &mut usize, how: Reshape, rows: bool) -> Value {
    let hit = is_target(v, how) && {
        *seen += 1;
        *seen - 1 == n
    };
    let out = match v {
        Value::Seq(items) => {
            Value::Seq(items.iter().map(|x| walk(x, n, seen, how, rows)).collect())
        }
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, x)| (k.clone(), walk(x, n, seen, how, rows)))
                .collect(),
        ),
        other => other.clone(),
    };
    match out {
        _ if hit => apply(out, how),
        Value::Map(entries) if rows && is_struct(&entries) => Value::Seq(values(entries)),
        out => out,
    }
}

fn values(entries: Vec<(String, Value)>) -> Vec<Value> {
    entries.into_iter().map(|(_, x)| x).collect()
}

fn apply(v: Value, how: Reshape) -> Value {
    match (v, how) {
        (Value::Map(entries), Reshape::Row) => Value::Seq(values(entries)),
        (Value::Map(entries), Reshape::Short(k)) => {
            let mut items = values(entries);
            let keep = items.len().saturating_sub(k.max(1));
            items.truncate(keep);
            Value::Seq(items)
        }
        (Value::Map(entries), Reshape::Long) => {
            let mut items = values(entries);
            items.push(Value::U64(0));
            Value::Seq(items)
        }
        (Value::Map(mut entries), Reshape::Retype { field, row }) => {
            let i = field % entries.len();
            entries[i].1 = retyped(&entries[i].1);
            if row {
                Value::Seq(values(entries))
            } else {
                Value::Map(entries)
            }
        }
        (Value::Map(entries), Reshape::Flip) => Value::Seq(values(entries)),
        (Value::Seq(items), Reshape::Flip) => Value::Map(
            items
                .into_iter()
                .enumerate()
                .map(|(i, x)| (i.to_string(), x))
                .collect(),
        ),
        (v, _) => v,
    }
}

/// A value of another JSON type than `v`.
fn retyped(v: &Value) -> Value {
    match v {
        Value::Null => Value::Bool(true),
        Value::Bool(_) => Value::Null,
        Value::U64(_) | Value::I64(_) | Value::F64(_) => Value::Str("1".into()),
        Value::Str(_) | Value::Map(_) => Value::U64(7),
        Value::Seq(_) => Value::Str("[]".into()),
    }
}
