//! `cargo xtask benchcheck` — hold the `BENCH_*.json` artifacts written by
//! `exp <name> --json` to the claims they record.
//!
//! Every bound is one row of `GATES`, run by one interpreter; the table is
//! the one place a bound is written, and DESIGN.md and EXPERIMENTS.md cite
//! gates by name. A gate is plain data: the artifact; the array it walks
//! (a dotted path such as `paging.rows`, or `""` for the document as its
//! only row); a quantifier (`Each`); an optional guard; and one comparison
//! `a op k·b + c` (`Cmp`) between constants and fields of the current,
//! first or previous row. Booleans and strings compare by equality only;
//! an array's length and a sum over a map's entries are the only
//! aggregates. An unreadable file, invalid JSON, a missing or empty array
//! and a missing field fail like a broken bound. A failure is a `Violation`
//! on the artifact, ruled by the gate's name (`artifact` when the file does
//! not load), whose message names the row and both sides' values.

use crate::Violation;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use Each::*;
use Op::*;
use Val::*;

type Str = &'static str;

/// An operand. Field paths are dotted (`ablation.workers`).
#[derive(Clone, Copy)]
enum Val {
    /// A constant.
    N(f64),
    B(bool),
    S(Str),
    /// A field of the current row.
    R(Str),
    /// A field of the walk's first row.
    F(Str),
    /// A field of the row before the current one (`Pair`).
    P(Str),
    /// The length of an array field of the current row.
    Len(Str),
    /// The sum of field `.1` over the entries of map `.0` of the current row.
    Sum(Str, Str),
}

#[derive(Clone, Copy)]
enum Op {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
}

/// The rows of the walked array a gate visits.
#[derive(Clone, Copy)]
enum Each {
    All,
    First,
    Last,
    /// The gate passes if one row passes.
    Any,
    /// Every row but the first; `P` reads the row before.
    Pair,
    /// Every entry of this map in every row; fields are read inside the
    /// entry of the same key in the current or first row.
    Keys(Str),
}

/// `a op k·b + c`.
#[derive(Clone, Copy)]
struct Cmp {
    a: Val,
    op: Op,
    k: f64,
    b: Val,
    c: f64,
}

#[derive(Clone, Copy)]
struct Gate {
    file: Str,
    array: Str,
    each: Each,
    name: Str,
    /// Rows where this does not hold are skipped.
    when: Option<Cmp>,
    test: Cmp,
}

const fn g(file: Str, array: Str, each: Each, name: Str, test: Cmp) -> Gate {
    let when = None;
    Gate {
        file,
        array,
        each,
        name,
        when,
        test,
    }
}

impl Gate {
    const fn when(self, guard: Cmp) -> Gate {
        let when = Some(guard);
        Gate { when, ..self }
    }
}

const fn cmp(a: Val, op: Op, k: f64, b: Val) -> Cmp {
    let c = 0.0;
    Cmp { a, op, k, b, c }
}

const fn is(a: Val, op: Op, b: Val) -> Cmp {
    cmp(a, op, 1.0, b)
}

const fn pos(field: Str) -> Cmp {
    is(R(field), Gt, N(0.0))
}

const E1: Str = "BENCH_E1.json";
const E2: Str = "BENCH_E2.json";
const E3: Str = "BENCH_E3.json";
const E5: Str = "BENCH_E5.json";
const E6: Str = "BENCH_E6.json";
const E7: Str = "BENCH_E7.json";
const OBS: Str = "BENCH_OBS.json";
const LOAD: Str = "BENCH_LOAD.json";
const RECOVERY: Str = "BENCH_RECOVERY.json";
const ZONE: Str = "BENCH_ZONE.json";
const RR: Str = "range_rows";
const QP: Str = "query_paging.rows";
/// E2's flatness gates apply once the catalog has grown tenfold.
const GREW: Cmp = cmp(R("size"), Ge, 10.0, F("size"));

#[rustfmt::skip]
const GATES: &[Gate] = &[
    // E1/E5: the indexed planner is never slower than the full scan.
    g(E1, "rows", All, "e1-planner-positive", pos("planner_us")),
    g(E1, "rows", All, "e1-scan-positive", pos("scan_ms")),
    g(E1, "rows", All, "e1-planner-beats-scan", cmp(R("planner_us"), Le, 1000.0, R("scan_ms"))),
    g(E5, "rows", All, "e5-planner-positive", pos("planner_us")),
    g(E5, "rows", All, "e5-scan-positive", pos("scan_us")),
    g(E5, "rows", All, "e5-planner-beats-scan", is(R("planner_us"), Le, R("scan_us"))),
    // E2: indexed range/prefix/window walks beat the scan and stay flat-ish;
    // cursor pages cost O(page), offset emulation O(offset); replay exact.
    g(E2, RR, All, "e2-range-positive", pos("planner_range_us")),
    g(E2, RR, All, "e2-range-scan-positive", pos("scan_range_us")),
    g(E2, RR, All, "e2-prefix-positive", pos("planner_prefix_us")),
    g(E2, RR, All, "e2-prefix-scan-positive", pos("scan_prefix_us")),
    g(E2, RR, All, "e2-window-positive", pos("planner_window_us")),
    g(E2, RR, All, "e2-window-page-positive", pos("window_page_us")),
    g(E2, RR, All, "e2-window-near-range",
      cmp(R("planner_window_us"), Le, 3.0, R("planner_range_us"))),
    g(E2, RR, All, "e2-window-page-near-range",
      cmp(R("window_page_us"), Le, 3.0, R("planner_range_us"))),
    g(E2, RR, Last, "e2-range-beats-scan", cmp(R("scan_range_us"), Ge, 5.0, R("planner_range_us"))),
    g(E2, RR, Last, "e2-prefix-beats-scan",
      cmp(R("scan_prefix_us"), Ge, 5.0, R("planner_prefix_us"))),
    g(E2, RR, Last, "e2-range-flat",
      cmp(R("planner_range_us"), Le, 20.0, F("planner_range_us"))).when(GREW),
    g(E2, RR, Last, "e2-prefix-flat",
      cmp(R("planner_prefix_us"), Le, 20.0, F("planner_prefix_us"))).when(GREW),
    g(E2, RR, Last, "e2-window-flat",
      cmp(R("planner_window_us"), Le, 20.0, F("planner_window_us"))).when(GREW),
    g(E2, RR, Last, "e2-window-page-flat",
      cmp(R("window_page_us"), Le, 20.0, F("window_page_us"))).when(GREW),
    g(E2, "", All, "e2-query-paging-pages", is(Len(QP), Ge, N(2.0))),
    g(E2, QP, First, "e2-query-paging-first-positive", pos("cursor_us")),
    g(E2, QP, Last, "e2-query-paging-last-positive", pos("cursor_us")),
    g(E2, QP, Last, "e2-query-paging-flat", cmp(R("cursor_us"), Le, 5.0, F("cursor_us"))),
    g(E2, "", All, "e2-paging-pages", is(Len("paging.rows"), Ge, N(2.0))),
    g(E2, "paging.rows", First, "e2-paging-first-positive", pos("cursor_us")),
    g(E2, "paging.rows", Last, "e2-paging-last-positive", pos("cursor_us")),
    g(E2, "paging.rows", Last, "e2-paging-flat", cmp(R("cursor_us"), Le, 5.0, F("cursor_us"))),
    g(E2, "paging.rows", Last, "e2-paging-offset-contrast",
      cmp(R("offset_us"), Ge, 5.0, R("cursor_us"))),
    g(E2, "", All, "e2-deterministic", is(R("determinism.identical"), Eq, B(true))),
    // E3: under seeded flaky faults, breakers + retry hold replicated reads
    // at bounded cost, never trail the ablation, which visibly loses reads.
    g(E3, "rows", All, "e3-sim-on-positive", pos("sim_ms_on")),
    g(E3, "rows", All, "e3-healthy-positive", pos("sim_ms_healthy")),
    g(E3, "rows", All, "e3-never-trails-ablation",
      is(R("success_on_pct"), Ge, R("success_off_pct"))),
    g(E3, "rows", All, "e3-replicated-floor",
      is(R("success_on_pct"), Ge, N(99.0))).when(is(R("k"), Ge, N(2.0))),
    g(E3, "rows", Any, "e3-has-replicated-row", is(R("k"), Ge, N(2.0))),
    g(E3, "rows", Any, "e3-ablation-loses-reads", is(R("success_off_pct"), Lt, N(99.0))),
    g(E3, "rows", All, "e3-bounded-cost", cmp(R("sim_ms_on"), Le, 10.0, R("sim_ms_healthy"))),
    // E6: parallel fan-out / bulk ingest beats the sequential ablation in sim
    // time; in wall time on bulk rows and wherever the host had workers.
    g(E6, "rows", All, "e6-sim-before-positive", pos("sim_ms_before")),
    g(E6, "rows", All, "e6-sim-after-positive", pos("sim_ms_after")),
    g(E6, "rows", All, "e6-wall-before-positive", pos("wall_ms_before")),
    g(E6, "rows", All, "e6-wall-after-positive", pos("wall_ms_after")),
    g(E6, "rows", All, "e6-sim-faster", is(R("sim_ms_after"), Lt, R("sim_ms_before"))),
    g(E6, "rows", All, "e6-bulk-wall",
      cmp(R("wall_ms_after"), Le, 1.10, R("wall_ms_before"))).when(is(R("kind"), Eq, S("bulk"))),
    // Bulk ingest keeps its file-level lane composition: 8 lanes over 3
    // targets is 2.67× the per-file loop's simulated time.
    g(E6, "rows", All, "e6-bulk-sim-speedup",
      cmp(R("sim_ms_before"), Ge, 2.0, R("sim_ms_after"))).when(is(R("kind"), Eq, S("bulk"))),
    g(E6, "rows", All, "e6-multiworker-wall",
      cmp(R("wall_ms_after"), Le, 1.10, R("wall_ms_before"))).when(is(R("workers"), Gt, N(1.0))),
    // E7: parallel synchronous replication is strictly cheaper above k = 1
    // and never dearer at k = 1.
    g(E7, "rows", All, "e7-seq-positive", pos("sync_seq_ms")),
    g(E7, "rows", All, "e7-par-positive", pos("sync_par_ms")),
    g(E7, "rows", All, "e7-par-faster",
      is(R("sync_par_ms"), Lt, R("sync_seq_ms"))).when(is(R("k"), Ge, N(2.0))),
    g(E7, "rows", All, "e7-par-no-dearer",
      cmp(R("sync_par_ms"), Le, 1.001, R("sync_seq_ms"))).when(is(R("k"), Lt, N(2.0))),
    // OBS: instrumentation stays within its wall-clock budget and never
    // charges simulated time.
    g(OBS, "rows", All, "obs-base-positive", pos("base")),
    g(OBS, "rows", All, "obs-obs-positive", pos("obs")),
    g(OBS, "rows", All, "obs-wall-overhead", cmp(R("obs"), Le, 1.05, R("base"))),
    g(OBS, "rows", All, "obs-sim-not-above",
      Cmp { c: 1e-9, ..is(R("sim_ms_obs"), Le, R("sim_ms_base")) }),
    g(OBS, "rows", All, "obs-sim-not-below",
      Cmp { c: -1e-9, ..is(R("sim_ms_obs"), Ge, R("sim_ms_base")) }),
    // LOAD: per-route sim p95 flat-ish as sessions scale; pool, digest and
    // sweep exact; the wall speedup gated only where the host had workers.
    g(LOAD, "rows", All, "load-sessions-positive", pos("sessions")),
    g(LOAD, "rows", All, "load-requests-positive", pos("requests")),
    g(LOAD, "rows", All, "load-routes-sum", is(Sum("routes", "count"), Eq, R("requests"))),
    g(LOAD, "rows", All, "load-pool-no-misses", is(R("pool_misses"), Eq, N(0.0))),
    g(LOAD, "rows", All, "load-pool-hits-logins", is(R("pool_hits"), Eq, R("logins_total"))),
    g(LOAD, "rows", All, "load-live-end", is(R("live_end"), Eq, R("sessions"))),
    g(LOAD, "rows", Keys("routes"), "load-p95-flat",
      cmp(R("sim_p95_ns"), Le, 2.0, F("sim_p95_ns"))),
    g(LOAD, "", All, "load-unpooled-hits", is(R("ablation.single_lock.pool_hits"), Eq, N(0.0))),
    g(LOAD, "", All, "load-unpooled-misses", is(R("ablation.single_lock.pool_misses"), Eq, N(0.0))),
    g(LOAD, "", All, "load-pooled-hits",
      is(R("ablation.sharded.pool_hits"), Eq, R("ablation.sharded.logins_total"))),
    g(LOAD, "", All, "load-speedup-8w",
      is(R("ablation.wall_speedup"), Ge, N(4.0))).when(is(R("ablation.workers"), Ge, N(8.0))),
    g(LOAD, "", All, "load-speedup-2w",
      is(R("ablation.wall_speedup"), Ge, N(1.2))).when(is(R("ablation.workers"), Ge, N(2.0))),
    g(LOAD, "", All, "load-deterministic", is(R("determinism.identical"), Eq, B(true))),
    g(LOAD, "", All, "load-sweep-reclaimed", is(R("sweep.reclaimed"), Eq, R("sweep.sessions"))),
    g(LOAD, "", All, "load-sweep-live", is(R("sweep.live_after"), Eq, N(0.0))),
    g(LOAD, "", All, "load-sweep-gauge", is(R("sweep.live_gauge_after"), Eq, N(0.0))),
    // RECOVERY: byte-identical recovery; the WAL costs something, but not much
    // (twice the worst recorded row); one commit group per tail ingest; the
    // recovery checkpoint renders no more pages than tail records touch.
    g(RECOVERY, "rows", All, "recovery-datasets-positive", pos("datasets")),
    g(RECOVERY, "rows", All, "recovery-base-positive", pos("base_ingest_us")),
    g(RECOVERY, "rows", All, "recovery-wal-positive", pos("wal_ingest_us")),
    g(RECOVERY, "rows", All, "recovery-wal-sim-positive", pos("wal_sim_ns_per_op")),
    g(RECOVERY, "rows", All, "recovery-wall-positive", pos("recovery_wall_ms")),
    g(RECOVERY, "rows", All, "recovery-sim-positive", pos("recovery_sim_ms")),
    g(RECOVERY, "rows", All, "recovery-identical", is(R("identical"), Eq, B(true))),
    g(RECOVERY, "rows", All, "recovery-groups-positive", pos("groups_applied")),
    g(RECOVERY, "rows", All, "recovery-tail-covers-groups",
      is(R("tail_records"), Ge, R("groups_applied"))),
    g(RECOVERY, "rows", All, "recovery-one-group-per-ingest",
      Cmp { c: 1.0, ..is(R("groups_applied"), Le, R("tail_datasets")) }),
    g(RECOVERY, "rows", All, "recovery-renders-touched-pages",
      is(R("pages_rendered"), Le, R("tail_records"))),
    g(RECOVERY, "rows", All, "recovery-wal-costs", is(R("wal_ingest_us"), Gt, R("base_ingest_us"))),
    g(RECOVERY, "rows", All, "recovery-wal-overhead",
      cmp(R("wal_ingest_us"), Le, 7.0, R("base_ingest_us"))),
    g(RECOVERY, "rows", Pair, "recovery-sim-monotone",
      is(R("recovery_sim_ms"), Ge, P("recovery_sim_ms"))),
    // A row costs its values, not its field names: the image holds at most
    // 55 % of the 854 bytes per dataset it held when rows named fields.
    g(RECOVERY, "rows", All, "recovery-image-bytes",
      cmp(R("image_bytes_per_dataset"), Le, 0.55, N(854.0))),
    // ZONE: every link converges; federated cost and lag grow with latency;
    // replication cost follows what is new, not the log length (`tail`).
    g(ZONE, "rows", All, "zone-converged", is(R("converged"), Eq, B(true))),
    g(ZONE, "rows", All, "zone-local-positive", pos("local_query_ms")),
    g(ZONE, "rows", All, "zone-federated-positive", pos("federated_query_ms")),
    g(ZONE, "rows", All, "zone-lag-positive", pos("lag_ms")),
    g(ZONE, "rows", All, "zone-federated-above-local",
      is(R("federated_query_ms"), Ge, R("local_query_ms"))),
    g(ZONE, "rows", Pair, "zone-latency-increasing", is(R("latency_us"), Gt, P("latency_us"))),
    g(ZONE, "rows", Pair, "zone-premium-grows",
      is(R("federated_query_ms"), Gt, P("federated_query_ms"))),
    g(ZONE, "rows", Pair, "zone-lag-monotone", is(R("lag_ms"), Ge, P("lag_ms"))),
    g(ZONE, "", All, "zone-tail-lengths", is(Len("tail"), Ge, N(2.0))),
    g(ZONE, "tail", Last, "zone-tail-span", cmp(R("behind_records"), Ge, 5.0, F("behind_records"))),
    g(ZONE, "tail", First, "zone-tail-export-positive", pos("export_us")),
    g(ZONE, "tail", First, "zone-tail-pump-positive", pos("pump_ms")),
    g(ZONE, "tail", Last, "zone-tail-export-flat", cmp(R("export_us"), Le, 3.0, F("export_us"))),
    g(ZONE, "tail", Last, "zone-tail-pump-flat", cmp(R("pump_ms"), Le, 3.0, F("pump_ms"))),
];

/// Run every gate against the artifacts under `root`: the findings, and
/// how many gates ran.
pub fn benchcheck(root: &Path) -> (Vec<Violation>, usize) {
    let mut found = Vec::new();
    let mut docs = BTreeMap::new();
    for gate in GATES {
        let doc = docs.entry(gate.file).or_insert_with(|| {
            let text = std::fs::read_to_string(root.join(gate.file))
                .map_err(|e| format!("unreadable ({e}); run `exp <name> --json` first"));
            let doc = text.and_then(|t| {
                serde_json::from_str::<Value>(&t).map_err(|e| format!("invalid JSON: {e}"))
            });
            doc.map_err(|msg| found.push((gate.file, "artifact", msg)))
                .ok()
        });
        if let Some(Err(msg)) = doc.as_ref().map(|doc| run(gate, doc)) {
            found.push((gate.file, gate.name, msg));
        }
    }
    let violation = |(path, rule, msg): (Str, Str, String)| Violation {
        path: path.to_string(),
        line: 1,
        rule,
        msg,
    };
    (found.into_iter().map(violation).collect(), GATES.len())
}

fn lookup<'v>(v: &'v Value, path: &str) -> Option<&'v Value> {
    path.split('.').try_fold(v, |v, key| v.get(key))
}

/// The first point of the walk that fails — or, under `Any`, that none
/// passes.
fn run(gate: &Gate, doc: &Value) -> Result<(), String> {
    let rows = match gate.array {
        "" => std::slice::from_ref(doc),
        array => match lookup(doc, array).and_then(Value::as_array) {
            Some(rows) if !rows.is_empty() => rows.as_slice(),
            Some(_) => return Err(format!("`{array}` array is empty")),
            None => return Err(format!("missing `{array}` array")),
        },
    };
    let n = rows.len();
    let span = match gate.each {
        First => 0..1,
        Last => n - 1..n,
        Pair => 1..n,
        _ => 0..n,
    };
    let mut passed = false;
    for i in span {
        let at = |key| At { gate, rows, i, key };
        let keys = match gate.each {
            Keys(map) => match lookup(&rows[i], map).and_then(Value::as_map_slice) {
                Some(entries) => entries.iter().map(|(k, _)| Some(k.as_str())).collect(),
                None => return Err(at(None).fail(format!("missing `{map}`"))),
            },
            _ => vec![None],
        };
        for at in keys.into_iter().map(at) {
            if let Some(guard) = gate.when {
                if !at.holds(guard)?.0 {
                    continue;
                }
            }
            let (ok, why) = at.holds(gate.test)?;
            passed |= ok;
            if !ok && !matches!(gate.each, Any) {
                return Err(at.fail(why));
            }
        }
    }
    match gate.each {
        Any if !passed => Err(format!("no row of `{}` passes", gate.array)),
        _ => Ok(()),
    }
}

/// One point of a walk: row `i`, or under `Keys(map)` its `map.key` entry.
struct At<'a> {
    gate: &'a Gate,
    rows: &'a [Value],
    i: usize,
    key: Option<&'a str>,
}

impl<'a> At<'a> {
    /// `msg`, prefixed with where it happened.
    fn fail(&self, msg: String) -> String {
        let row = match self.gate.array {
            "" => "document".to_string(),
            array => format!("{array}[{}]", self.i),
        };
        match (self.gate.each, self.key) {
            (Keys(map), Some(key)) => format!("{row}.{map}.{key}: {msg}"),
            _ => format!("{row}: {msg}"),
        }
    }

    /// Whether `t` holds here, and the comparison with its values.
    fn holds(&self, t: Cmp) -> Result<(bool, String), String> {
        let (a, b) = (self.eval(t.a)?, self.eval(t.b)?);
        let (ok, b) = match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
                let y = t.k * y + t.c;
                let ok = match t.op {
                    Lt => x < y,
                    Le => x <= y,
                    Eq => x == y,
                    Ge => x >= y,
                    Gt => x > y,
                };
                (ok, Value::F64(y))
            }
            _ => (matches!(t.op, Eq) && a == b, b),
        };
        let op = ["<", "<=", "==", ">=", ">"][t.op as usize];
        Ok((ok, format!("{a} {op} {b} is false")))
    }

    fn eval(&self, v: Val) -> Result<Value, String> {
        let field = |j: Option<usize>, path: &str| {
            let row = j.and_then(|j| self.rows.get(j));
            let entry = match (self.gate.each, self.key) {
                (Keys(map), Some(key)) => row.and_then(|r| lookup(r, map)?.get(key)),
                _ => row,
            };
            let value = entry.and_then(|e| lookup(e, path));
            value.ok_or_else(|| match j {
                Some(j) if j == self.i => self.fail(format!("missing `{path}`")),
                Some(j) => self.fail(format!("missing `{path}` in row {j}")),
                None => self.fail("no previous row".to_string()),
            })
        };
        Ok(match v {
            N(x) => Value::F64(x),
            B(b) => Value::Bool(b),
            S(s) => Value::Str(s.to_string()),
            R(p) => field(Some(self.i), p)?.clone(),
            F(p) => field(Some(0), p)?.clone(),
            P(p) => field(self.i.checked_sub(1), p)?.clone(),
            Len(p) => match field(Some(self.i), p)?.as_array() {
                Some(items) => Value::U64(items.len() as u64),
                None => return Err(self.fail(format!("`{p}` is not an array"))),
            },
            Sum(map, x) => {
                let entries = field(Some(self.i), map)?.as_map_slice();
                let entries = entries.ok_or_else(|| self.fail(format!("`{map}` is not a map")))?;
                let mut total = 0.0;
                for (key, e) in entries {
                    let n = e.get(x).and_then(Value::as_f64);
                    total += n.ok_or_else(|| self.fail(format!("missing `{map}.{key}.{x}`")))?;
                }
                Value::F64(total)
            }
        })
    }
}
