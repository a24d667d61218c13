//! Runs the real `xtask benchcheck` binary over scratch copies of the
//! committed `BENCH_*.json` artifacts. The artifacts pass; unreadable,
//! malformed or incomplete input fails; and every mutant — one field of
//! one artifact pushed just past one gate — fails naming that gate, with
//! every gate of the table tripped by at least one mutant. A mutant of a
//! recorded timing is derived from the row it mutates, so it holds when
//! the artifact is re-recorded.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const ARTIFACTS: &[&str] = &[
    "BENCH_E1.json",
    "BENCH_E2.json",
    "BENCH_E3.json",
    "BENCH_E5.json",
    "BENCH_E6.json",
    "BENCH_E7.json",
    "BENCH_OBS.json",
    "BENCH_LOAD.json",
    "BENCH_RECOVERY.json",
    "BENCH_ZONE.json",
];

/// (artifact, dotted path of the field, its new JSON value, the gate it
/// must trip). A path segment that parses as a number indexes an array.
#[rustfmt::skip]
const MUTANTS: &[(&str, &str, &str, &str)] = &[
    ("BENCH_E1.json", "rows.0.planner_us", "0", "e1-planner-positive"),
    ("BENCH_E1.json", "rows.0.scan_ms", "0", "e1-scan-positive"),
    ("BENCH_E1.json", "rows.3.planner_us", "1239272", "e1-planner-beats-scan"),
    ("BENCH_E5.json", "rows.0.planner_us", "0", "e5-planner-positive"),
    ("BENCH_E5.json", "rows.0.scan_us", "0", "e5-scan-positive"),
    ("BENCH_E5.json", "rows.5.planner_us", "105268.5", "e5-planner-beats-scan"),
    ("BENCH_E2.json", "range_rows.0.planner_range_us", "0", "e2-range-positive"),
    ("BENCH_E2.json", "range_rows.0.scan_range_us", "0", "e2-range-scan-positive"),
    ("BENCH_E2.json", "range_rows.0.planner_prefix_us", "0", "e2-prefix-positive"),
    ("BENCH_E2.json", "range_rows.0.scan_prefix_us", "0", "e2-prefix-scan-positive"),
    ("BENCH_E2.json", "range_rows.0.planner_window_us", "0", "e2-window-positive"),
    ("BENCH_E2.json", "range_rows.0.window_page_us", "0", "e2-window-page-positive"),
    ("BENCH_E2.json", "range_rows.1.planner_window_us", "127.1", "e2-window-near-range"),
    ("BENCH_E2.json", "range_rows.1.window_page_us", "127.1", "e2-window-page-near-range"),
    ("BENCH_E2.json", "range_rows.3.scan_range_us", "236.9", "e2-range-beats-scan"),
    ("BENCH_E2.json", "range_rows.3.scan_prefix_us", "342.7", "e2-prefix-beats-scan"),
    ("BENCH_E2.json", "range_rows.3.planner_range_us", "774.1", "e2-range-flat"),
    ("BENCH_E2.json", "range_rows.3.planner_prefix_us", "1149.1", "e2-prefix-flat"),
    ("BENCH_E2.json", "range_rows.3.planner_window_us", "825.1", "e2-window-flat"),
    ("BENCH_E2.json", "range_rows.3.window_page_us", "925.3", "e2-window-page-flat"),
    ("BENCH_E2.json", "query_paging.rows", r#"[{"page": 1, "cursor_us": 42769.3, "offset_us": 43495.7}]"#,
     "e2-query-paging-pages"),
    ("BENCH_E2.json", "query_paging.rows.0.cursor_us", "0", "e2-query-paging-first-positive"),
    ("BENCH_E2.json", "query_paging.rows.2.cursor_us", "0", "e2-query-paging-last-positive"),
    ("BENCH_E2.json", "query_paging.rows.2.cursor_us", "213847", "e2-query-paging-flat"),
    ("BENCH_E2.json", "paging.rows", r#"[{"page": 1, "cursor_us": 19.29, "offset_us": 18.8}]"#,
     "e2-paging-pages"),
    ("BENCH_E2.json", "paging.rows.0.cursor_us", "0", "e2-paging-first-positive"),
    ("BENCH_E2.json", "paging.rows.2.cursor_us", "0", "e2-paging-last-positive"),
    ("BENCH_E2.json", "paging.rows.2.cursor_us", "96.5", "e2-paging-flat"),
    ("BENCH_E2.json", "paging.rows.2.offset_us", "92.9", "e2-paging-offset-contrast"),
    ("BENCH_E2.json", "determinism.identical", "false", "e2-deterministic"),
    ("BENCH_E3.json", "rows.0.sim_ms_on", "0", "e3-sim-on-positive"),
    ("BENCH_E3.json", "rows.0.sim_ms_healthy", "0", "e3-healthy-positive"),
    ("BENCH_E3.json", "rows.0.success_off_pct", "99.5", "e3-never-trails-ablation"),
    ("BENCH_E3.json", "rows.1.success_on_pct", "98.9", "e3-replicated-floor"),
    ("BENCH_E3.json", "rows",
     r#"[{"k": 1, "success_on_pct": 99.0, "success_off_pct": 72.0, "sim_ms_on": 1.2, "sim_ms_healthy": 0.86}]"#,
     "e3-has-replicated-row"),
    ("BENCH_E3.json", "rows",
     r#"[{"k": 2, "success_on_pct": 100.0, "success_off_pct": 99.5, "sim_ms_on": 1.3, "sim_ms_healthy": 0.86}]"#,
     "e3-ablation-loses-reads"),
    ("BENCH_E3.json", "rows.0.sim_ms_on", "8.5537", "e3-bounded-cost"),
    ("BENCH_E6.json", "rows.0.sim_ms_before", "0", "e6-sim-before-positive"),
    ("BENCH_E6.json", "rows.0.sim_ms_after", "0", "e6-sim-after-positive"),
    ("BENCH_E6.json", "rows.0.wall_ms_before", "0", "e6-wall-before-positive"),
    ("BENCH_E6.json", "rows.0.wall_ms_after", "0", "e6-wall-after-positive"),
    ("BENCH_E6.json", "rows.0.sim_ms_after", "1981.08", "e6-sim-faster"),
    ("BENCH_E6.json", "rows.3.wall_ms_after", "236.8", "e6-bulk-wall"),
    ("BENCH_E6.json", "rows.3.sim_ms_after", "1128.1", "e6-bulk-sim-speedup"),
    ("BENCH_E6.json", "rows.0",
     r#"{"kind": "fanout", "workers": 2, "wall_ms_before": 169.79836, "wall_ms_after": 186.8, "sim_ms_before": 1981.08, "sim_ms_after": 660.36}"#,
     "e6-multiworker-wall"),
    ("BENCH_E7.json", "rows.0.sync_seq_ms", "0", "e7-seq-positive"),
    ("BENCH_E7.json", "rows.0.sync_par_ms", "0", "e7-par-positive"),
    ("BENCH_E7.json", "rows.1.sync_par_ms", "187.6864", "e7-par-faster"),
    ("BENCH_E7.json", "rows.0.sync_par_ms", "26.4409", "e7-par-no-dearer"),
    ("BENCH_OBS.json", "rows.0.base", "0", "obs-base-positive"),
    ("BENCH_OBS.json", "rows.0.obs", "0", "obs-obs-positive"),
    ("BENCH_OBS.json", "rows.0.obs", "0.7488", "obs-wall-overhead"),
    ("BENCH_OBS.json", "rows.1.sim_ms_obs", "422.630400002", "obs-sim-not-above"),
    ("BENCH_OBS.json", "rows.1.sim_ms_obs", "422.630399998", "obs-sim-not-below"),
    ("BENCH_LOAD.json", "rows.0.sessions", "0", "load-sessions-positive"),
    ("BENCH_LOAD.json", "rows.0.requests", "0", "load-requests-positive"),
    ("BENCH_LOAD.json", "rows.0.routes.browse.count", "22633", "load-routes-sum"),
    ("BENCH_LOAD.json", "rows.0.pool_misses", "1", "load-pool-no-misses"),
    ("BENCH_LOAD.json", "rows.0.pool_hits", "9999", "load-pool-hits-logins"),
    ("BENCH_LOAD.json", "rows.0.live_end", "9999", "load-live-end"),
    ("BENCH_LOAD.json", "rows.2.routes.ingest.sim_p95_ns", "400251", "load-p95-flat"),
    // Accepted before the gate table: a route at 0 ns p95 was never gated.
    ("BENCH_LOAD.json", "rows.2.routes.browse.sim_p95_ns", "5000000", "load-p95-flat"),
    ("BENCH_LOAD.json", "ablation.single_lock.pool_hits", "1", "load-unpooled-hits"),
    ("BENCH_LOAD.json", "ablation.single_lock.pool_misses", "1", "load-unpooled-misses"),
    ("BENCH_LOAD.json", "ablation.sharded.pool_hits", "114912", "load-pooled-hits"),
    ("BENCH_LOAD.json", "ablation.workers", "8", "load-speedup-8w"),
    ("BENCH_LOAD.json", "ablation.workers", "2", "load-speedup-2w"),
    ("BENCH_LOAD.json", "determinism.identical", "false", "load-deterministic"),
    ("BENCH_LOAD.json", "sweep.reclaimed", "49999", "load-sweep-reclaimed"),
    ("BENCH_LOAD.json", "sweep.live_after", "1", "load-sweep-live"),
    ("BENCH_LOAD.json", "sweep.live_gauge_after", "1", "load-sweep-gauge"),
    ("BENCH_RECOVERY.json", "rows.0.datasets", "0", "recovery-datasets-positive"),
    ("BENCH_RECOVERY.json", "rows.0.base_ingest_us", "0", "recovery-base-positive"),
    ("BENCH_RECOVERY.json", "rows.0.wal_ingest_us", "0", "recovery-wal-positive"),
    ("BENCH_RECOVERY.json", "rows.0.wal_sim_ns_per_op", "0", "recovery-wal-sim-positive"),
    ("BENCH_RECOVERY.json", "rows.0.recovery_wall_ms", "0", "recovery-wall-positive"),
    ("BENCH_RECOVERY.json", "rows.0.recovery_sim_ms", "0", "recovery-sim-positive"),
    ("BENCH_RECOVERY.json", "rows.0.identical", "false", "recovery-identical"),
    ("BENCH_RECOVERY.json", "rows.0.groups_applied", "0", "recovery-groups-positive"),
    ("BENCH_RECOVERY.json", "rows.0.tail_records", "98", "recovery-tail-covers-groups"),
    ("BENCH_RECOVERY.json", "rows.0.groups_applied", "101", "recovery-one-group-per-ingest"),
    ("BENCH_RECOVERY.json", "rows.0.pages_rendered", "298", "recovery-renders-touched-pages"),
    ("BENCH_RECOVERY.json", "rows.0.image_bytes_per_dataset", "470", "recovery-image-bytes"),
    ("BENCH_ZONE.json", "rows.0.converged", "false", "zone-converged"),
    // Accepted before the gate table: `federated >= local` was vacuous at 0.
    ("BENCH_ZONE.json", "rows.0.local_query_ms", "0", "zone-local-positive"),
    ("BENCH_ZONE.json", "rows.0.federated_query_ms", "0", "zone-federated-positive"),
    ("BENCH_ZONE.json", "rows.0.lag_ms", "0", "zone-lag-positive"),
    ("BENCH_ZONE.json", "rows.0.local_query_ms", "5.22", "zone-federated-above-local"),
    ("BENCH_ZONE.json", "rows.1.latency_us", "100", "zone-latency-increasing"),
    ("BENCH_ZONE.json", "rows.1.federated_query_ms", "5.219415", "zone-premium-grows"),
    ("BENCH_ZONE.json", "rows.1.lag_ms", "6.2266", "zone-lag-monotone"),
    ("BENCH_ZONE.json", "tail",
     r#"[{"behind_records": 1009, "new_records": 250, "export_us": 306.9, "pump_ms": 0.62}]"#,
     "zone-tail-lengths"),
    ("BENCH_ZONE.json", "tail.2.behind_records", "5044", "zone-tail-span"),
    ("BENCH_ZONE.json", "tail.0.export_us", "0", "zone-tail-export-positive"),
    ("BENCH_ZONE.json", "tail.0.pump_ms", "0", "zone-tail-pump-positive"),
    ("BENCH_ZONE.json", "tail.2.export_us", "920.82", "zone-tail-export-flat"),
    ("BENCH_ZONE.json", "tail.2.pump_ms", "1.8492", "zone-tail-pump-flat"),
];

/// Mutants whose value is read off the artifact they mutate: (artifact,
/// dotted path of the field, its new value from the artifact, the gate it
/// must trip). Their bases are timings a re-record moves, so each is
/// pushed past its gate's bound from wherever the base now is.
type Derive = fn(&Value) -> f64;
#[rustfmt::skip]
const DERIVED_MUTANTS: &[(&str, &str, Derive, &str)] = &[
    // The WAL at its base cost costs nothing.
    ("BENCH_RECOVERY.json", "rows.0.wal_ingest_us", |d| num(d, "rows.0.base_ingest_us"),
     "recovery-wal-costs"),
    // Just past 7x its base.
    ("BENCH_RECOVERY.json", "rows.0.wal_ingest_us", |d| 7.07 * num(d, "rows.0.base_ingest_us"),
     "recovery-wal-overhead"),
    // The larger catalog recovering just faster than the smaller one.
    ("BENCH_RECOVERY.json", "rows.1.recovery_sim_ms", |d| 0.99 * num(d, "rows.0.recovery_sim_ms"),
     "recovery-sim-monotone"),
];

/// The timing columns [`DERIVED_MUTANTS`] read and write.
const RECOVERY_TIMINGS: [&str; 3] = ["wal_ingest_us", "base_ingest_us", "recovery_sim_ms"];

/// A fresh directory holding copies of the committed artifacts.
fn scratch(tag: &str) -> PathBuf {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let dir = std::env::temp_dir().join(format!("xtask-benchcheck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for file in ARTIFACTS {
        std::fs::copy(repo.join(file), dir.join(file)).expect("copy artifact");
    }
    dir
}

/// Run `xtask benchcheck --root <root>` with `args`: (exit code, stdout).
fn run(root: &Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("benchcheck")
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("xtask binary runs");
    assert!(
        out.stderr.is_empty(),
        "unexpected stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

/// The `--json` findings as (path, rule, msg).
fn findings(root: &Path) -> (i32, Vec<(String, String, String)>) {
    let (code, stdout) = run(root, &["--json"]);
    let parsed: Value = serde_json::from_str(&stdout).expect("--json prints JSON");
    let text = |f: &Value, key: &str| f[key].as_str().unwrap_or_default().to_string();
    let list = parsed.as_array().expect("a JSON array").iter();
    (
        code,
        list.map(|f| (text(f, "path"), text(f, "rule"), text(f, "msg")))
            .collect(),
    )
}

/// Set (or, with `None`, remove) the field at a dotted `path` of `file`.
fn edit(root: &Path, file: &str, path: &str, value: Option<&str>) {
    let mut doc = read(root, file);
    let (parents, last) = path.rsplit_once('.').map_or(("", path), |(p, l)| (p, l));
    let mut at = &mut doc;
    for key in parents.split('.').filter(|k| !k.is_empty()) {
        at = child(at, key);
    }
    match value {
        Some(text) => *child(at, last) = serde_json::from_str(text).expect("mutant value is JSON"),
        None => match at {
            Value::Map(entries) => entries.retain(|(k, _)| k != last),
            _ => panic!("{path}: parent is not an object"),
        },
    }
    std::fs::write(root.join(file), serde_json::to_string_pretty(&doc).unwrap()).unwrap();
}

/// The number at a dotted `path` of `doc`.
fn num(doc: &Value, path: &str) -> f64 {
    let mut at = doc;
    for key in path.split('.') {
        at = match at {
            Value::Map(entries) => match entries.iter().find(|(k, _)| k == key) {
                Some((_, child)) => child,
                None => panic!("no field `{key}`"),
            },
            Value::Seq(items) => &items[key.parse::<usize>().expect("array index")],
            _ => panic!("`{key}` under a scalar"),
        };
    }
    at.as_f64()
        .unwrap_or_else(|| panic!("{path} is not a number"))
}

fn read(root: &Path, file: &str) -> Value {
    serde_json::from_str(&std::fs::read_to_string(root.join(file)).unwrap()).unwrap()
}

fn child<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
    match v {
        Value::Map(entries) => match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, child)) => child,
            None => panic!("no field `{key}`"),
        },
        Value::Seq(items) => &mut items[key.parse::<usize>().expect("array index")],
        _ => panic!("`{key}` under a scalar"),
    }
}

/// The number of gates in the table, from the clean run's summary line.
fn gate_count(stdout: &str) -> usize {
    let summary = stdout
        .trim()
        .strip_prefix("xtask benchcheck: ")
        .unwrap_or_default();
    let count = summary.strip_suffix(" gates hold").unwrap_or_default();
    count
        .parse()
        .unwrap_or_else(|_| panic!("no gate count in {stdout:?}"))
}

#[test]
fn committed_artifacts_pass() {
    let root = scratch("clean");
    let (code, stdout) = run(&root, &[]);
    assert_eq!(code, 0, "{stdout}");
    assert!(gate_count(&stdout) > 0);
    let (code, found) = findings(&root);
    assert_eq!((code, found), (0, Vec::new()));
    let _ = std::fs::remove_dir_all(&root);
}

/// Break a fresh copy with `breakage`; benchcheck must exit 1 with a
/// `rule` finding on `file` whose message contains `msg`.
fn assert_rejects(tag: &str, breakage: impl Fn(&Path), file: &str, rule: &str, msg: &str) {
    let root = scratch(tag);
    breakage(&root);
    let (code, found) = findings(&root);
    assert_eq!(code, 1, "{tag}: {found:?}");
    assert!(
        found
            .iter()
            .any(|(p, r, m)| p == file && r == rule && m.contains(msg)),
        "{tag}: no `{rule}` finding on {file} saying {msg:?} in {found:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn broken_input_fails() {
    let e7 = "BENCH_E7.json";
    let remove = |r: &Path| std::fs::remove_file(r.join(e7)).unwrap();
    assert_rejects("missing-file", remove, e7, "artifact", "unreadable");
    let obs = "BENCH_OBS.json";
    let truncate = |r: &Path| std::fs::write(r.join(obs), "{\"rows\": [").unwrap();
    assert_rejects("invalid-json", truncate, obs, "artifact", "invalid JSON");
    let e3 = "BENCH_E3.json";
    let drop_rows = |r: &Path| edit(r, e3, "rows", None);
    let msg = "missing `rows` array";
    assert_rejects("missing-array", drop_rows, e3, "e3-sim-on-positive", msg);
    let zone = "BENCH_ZONE.json";
    let empty_tail = |r: &Path| edit(r, zone, "tail", Some("[]"));
    let msg = "`tail` array is empty";
    assert_rejects("empty-array", empty_tail, zone, "zone-tail-span", msg);
    let drop_field = |r: &Path| edit(r, e7, "rows.2.sync_par_ms", None);
    let msg = "rows[2]: missing `sync_par_ms`";
    assert_rejects("missing-field", drop_field, e7, "e7-par-positive", msg);
}

/// Set `path` of `file` to `value`; benchcheck must exit 1 naming `gate`
/// on `file`. The file is put back after.
fn assert_trips(root: &Path, file: &str, path: &str, value: &str, gate: &str) {
    let original = std::fs::read(root.join(file)).unwrap();
    edit(root, file, path, Some(value));
    let (code, found) = findings(root);
    std::fs::write(root.join(file), original).unwrap();
    assert_eq!(code, 1, "{file} {path} = {value} passed");
    assert!(
        found.iter().any(|(p, r, _)| p == file && r == gate),
        "{file} {path} = {value} did not trip `{gate}`: {found:?}"
    );
}

/// Each derived mutant of the artifacts under `root`, tripping its gate.
fn derived_mutants_trip(root: &Path) -> Vec<&'static str> {
    let mut tripped = Vec::new();
    for &(file, path, derive, gate) in DERIVED_MUTANTS {
        let value = derive(&read(root, file));
        assert_trips(root, file, path, &value.to_string(), gate);
        tripped.push(gate);
    }
    tripped
}

#[test]
fn every_mutant_fails_and_every_gate_is_tripped() {
    let root = scratch("mutants");
    let (_, clean) = run(&root, &[]);
    let mut tripped = BTreeSet::new();
    for &(file, path, value, gate) in MUTANTS {
        assert_trips(&root, file, path, value, gate);
        tripped.insert(gate);
    }
    tripped.extend(derived_mutants_trip(&root));
    assert_eq!(
        tripped.len(),
        gate_count(&clean),
        "gates no mutant trips hide in the table; tripped: {tripped:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn derived_mutants_follow_a_rerecorded_artifact() {
    let file = "BENCH_RECOVERY.json";
    for scale in [0.5, 2.0] {
        let root = scratch(&format!("rerecord-{scale}"));
        let doc = read(&root, file);
        let rows = doc
            .get("rows")
            .and_then(Value::as_array)
            .map_or(0, Vec::len);
        assert!(rows > 1, "{file}: fewer than two rows");
        for row in 0..rows {
            for column in RECOVERY_TIMINGS {
                let path = format!("rows.{row}.{column}");
                let value = scale * num(&read(&root, file), &path);
                edit(&root, file, &path, Some(&value.to_string()));
            }
        }
        let (code, stdout) = run(&root, &[]);
        assert_eq!(code, 0, "scaled by {scale}: {stdout}");
        assert_eq!(derived_mutants_trip(&root).len(), DERIVED_MUTANTS.len());
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn json_and_github_output_match_lint() {
    let root = scratch("shapes");
    edit(&root, "BENCH_ZONE.json", "rows.0.local_query_ms", Some("0"));
    let (code, stdout) = run(&root, &["--github"]);
    assert_eq!(code, 1);
    assert!(
        stdout.contains("BENCH_ZONE.json:1: [zone-local-positive] rows[0]: 0 > 0.0 is false"),
        "{stdout}"
    );
    assert!(
        stdout.contains("::error file=BENCH_ZONE.json,line=1,title=zone-local-positive::rows[0]"),
        "{stdout}"
    );
    let (_, json) = run(&root, &["--json"]);
    assert!(json.trim_start().starts_with('['), "not JSON:\n{json}");
    assert!(
        !json.contains("xtask benchcheck:"),
        "summary leaked into --json:\n{json}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
