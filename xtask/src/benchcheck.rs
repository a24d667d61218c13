//! `cargo xtask benchcheck` — validate the `BENCH_*.json` artifacts
//! written by `exp <name> --json`.
//!
//! Every file must parse and carry a non-empty `rows` array with its
//! timing fields. E1/E5 must show the indexed planner no
//! slower than the full-scan baseline; E2 must show ordered-index range
//! scans >= 5x faster than residual verification and cursor pages priced
//! O(page); E6/E7 must show the parallel
//! fan-out engine no slower than the sequential ablation — strictly in
//! simulated time (host-independent), and in wall-clock where the
//! recording host actually had worker threads to parallelize on; the
//! recovery artifact must show every crash recovering to a byte-identical
//! catalog with bounded WAL overhead; the zone artifact must show every
//! federated link class converging byte-identically with replication lag
//! monotone in link latency. These are the regressions the bench-smoke CI
//! job exists to catch.

use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

fn num(row: &Value, key: &str) -> Option<f64> {
    row.get(key).and_then(Value::as_f64)
}

fn check(root: &Path, file: &str, scan_field: &str, scan_scale: f64) -> Result<String, String> {
    let path = root.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("unreadable ({e}); run `exp <name> --json` first"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let rows = v
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("missing `rows` array")?;
    if rows.is_empty() {
        return Err("`rows` array is empty".into());
    }
    let mut worst = f64::INFINITY;
    for (i, row) in rows.iter().enumerate() {
        let planner =
            num(row, "planner_us").ok_or_else(|| format!("row {i}: missing planner_us"))?;
        let scan = num(row, scan_field).ok_or_else(|| format!("row {i}: missing {scan_field}"))?
            * scan_scale;
        if planner <= 0.0 || scan <= 0.0 {
            return Err(format!("row {i}: non-positive timing"));
        }
        if planner > scan {
            return Err(format!(
                "row {i}: planner ({planner:.1} us) slower than the full scan ({scan:.1} us)"
            ));
        }
        worst = worst.min(scan / planner);
    }
    Ok(format!(
        "{} rows ok, planner beats scan by >= {worst:.1}x",
        rows.len()
    ))
}

fn rows_of(root: &Path, file: &str) -> Result<Vec<Value>, String> {
    array_of(root, file, "rows")
}

/// The non-empty array `key` of the artifact `file`.
fn array_of(root: &Path, file: &str, key: &str) -> Result<Vec<Value>, String> {
    let path = root.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("unreadable ({e}); run `exp <name> --json` first"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let rows = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("missing `{key}` array"))?;
    if rows.is_empty() {
        return Err(format!("`{key}` array is empty"));
    }
    Ok(rows.clone())
}

/// E2: ordered secondary indexes + resumable cursors. The indexed
/// planner must beat the residual-verification full scan by >= 5x on
/// both the bounded-range and the literal-prefix predicate at the
/// largest catalog size, and stay flat-ish (<= 20x) while the catalog
/// grows 10x or more. A two-sided window from the middle of the index
/// (one-shot, and per 25-row `query_page` page) must cost what the
/// anchored one-sided range costs: <= 3x it at every size, and flat-ish
/// like it. Cursor page fetches must cost O(page), not
/// O(offset): the last page from its token within 5x of page one, the
/// offset emulation of the last page >= 5x the cursor fetch. The seeded
/// double-run digest (hits, tokens, mcat.* counters) must match exactly.
fn check_e2(root: &Path) -> Result<String, String> {
    let path = root.join("BENCH_E2.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("unreadable ({e}); run `exp <name> --json` first"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let rows = v
        .get("range_rows")
        .and_then(Value::as_array)
        .ok_or("missing `range_rows` array")?;
    if rows.is_empty() {
        return Err("`range_rows` array is empty".into());
    }
    for (i, row) in rows.iter().enumerate() {
        for key in [
            "planner_range_us",
            "scan_range_us",
            "planner_prefix_us",
            "scan_prefix_us",
            "planner_window_us",
            "window_page_us",
        ] {
            if num(row, key).map(|t| t <= 0.0).unwrap_or(true) {
                return Err(format!("range row {i}: missing or non-positive {key}"));
            }
        }
        let anchored = num(row, "planner_range_us").unwrap_or(0.0);
        for key in ["planner_window_us", "window_page_us"] {
            let w = num(row, key).unwrap_or(0.0);
            if w > anchored * 3.0 {
                return Err(format!(
                    "range row {i}: {key} ({w:.1} us) more than 3x the anchored range \
                     ({anchored:.1} us) — a two-sided window is not one bounded walk"
                ));
            }
        }
    }
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    let size = |r: &Value| num(r, "size").unwrap_or(0.0);
    for (label, planner, scan) in [
        ("range", "planner_range_us", Some("scan_range_us")),
        ("prefix", "planner_prefix_us", Some("scan_prefix_us")),
        ("window", "planner_window_us", None),
        ("window page", "window_page_us", None),
    ] {
        let p = num(last, planner).unwrap_or(0.0);
        if let Some(s) = scan.map(|k| num(last, k).unwrap_or(0.0)) {
            if s < p * 5.0 {
                return Err(format!(
                    "{label} at {} rows: indexed scan ({p:.1} us) not >= 5x faster than \
                     the residual-verification scan ({s:.1} us)",
                    size(last)
                ));
            }
        }
        if size(last) >= size(first) * 10.0 {
            let p0 = num(first, planner).unwrap_or(0.0);
            if p > p0 * 20.0 {
                return Err(format!(
                    "{label}: indexed latency not flat-ish ({p0:.1} us at {} rows -> \
                     {p:.1} us at {} rows)",
                    size(first),
                    size(last)
                ));
            }
        }
    }
    let range_speedup = num(last, "scan_range_us").unwrap_or(0.0)
        / num(last, "planner_range_us").unwrap_or(f64::INFINITY);

    // Paging: cursor fetches O(page), offset emulation O(offset).
    let mut offset_ratio = f64::INFINITY;
    for (block, flat_only) in [("query_paging", true), ("paging", false)] {
        let b = v
            .get(block)
            .ok_or_else(|| format!("missing `{block}` block"))?;
        let prows = b
            .get("rows")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{block}: missing `rows` array"))?;
        if prows.len() < 2 {
            return Err(format!("{block}: need at least two page rows"));
        }
        let first = &prows[0];
        let last = &prows[prows.len() - 1];
        let (c0, cn) = (
            num(first, "cursor_us").unwrap_or(0.0),
            num(last, "cursor_us").unwrap_or(0.0),
        );
        if c0 <= 0.0 || cn <= 0.0 {
            return Err(format!("{block}: missing or non-positive cursor_us"));
        }
        if cn > c0 * 5.0 {
            return Err(format!(
                "{block}: page {} from its cursor ({cn:.1} us) more than 5x page 1 \
                 ({c0:.1} us) — fetch cost not independent of page number",
                num(last, "page").unwrap_or(0.0)
            ));
        }
        if !flat_only {
            let on = num(last, "offset_us").unwrap_or(0.0);
            if on < cn * 5.0 {
                return Err(format!(
                    "{block}: offset emulation of the last page ({on:.1} us) not >= 5x \
                     its cursor fetch ({cn:.1} us) — O(offset) contrast missing",
                ));
            }
            offset_ratio = on / cn;
        }
    }

    // Determinism: two identical seeded runs must hash identically.
    let det = v.get("determinism").ok_or("missing `determinism` block")?;
    if det.get("identical").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "determinism: seeded replay diverged (digest_a {:?}, digest_b {:?})",
            det.get("digest_a").and_then(Value::as_str).unwrap_or("?"),
            det.get("digest_b").and_then(Value::as_str).unwrap_or("?"),
        ));
    }

    Ok(format!(
        "{} sizes ok, indexed range >= {range_speedup:.0}x vs scan at {:.0} rows, \
         cursor pages O(page) (offset {offset_ratio:.0}x dearer), digest deterministic",
        rows.len(),
        size(last)
    ))
}

/// E3: read success under seeded flaky faults (p = 0.3 transient
/// timeouts on every replica). The resilient arm (circuit breakers +
/// retry with backoff) must keep success >= 99% wherever k >= 2, must
/// never do worse than the ablation, and must not cost more than 10x the
/// fault-free simulated read time; the ablation must visibly lose reads
/// on at least one row — otherwise the experiment proves nothing.
fn check_e3(root: &Path) -> Result<String, String> {
    let rows = rows_of(root, "BENCH_E3.json")?;
    let mut saw_multi_replica = false;
    let mut saw_ablation_loss = false;
    let mut worst_on = f64::INFINITY;
    for (i, row) in rows.iter().enumerate() {
        let k = num(row, "k").ok_or_else(|| format!("row {i}: missing k"))? as u64;
        let on =
            num(row, "success_on_pct").ok_or_else(|| format!("row {i}: missing success_on_pct"))?;
        let off = num(row, "success_off_pct")
            .ok_or_else(|| format!("row {i}: missing success_off_pct"))?;
        let sim_on = num(row, "sim_ms_on").ok_or_else(|| format!("row {i}: missing sim_ms_on"))?;
        let healthy =
            num(row, "sim_ms_healthy").ok_or_else(|| format!("row {i}: missing sim_ms_healthy"))?;
        if sim_on <= 0.0 || healthy <= 0.0 {
            return Err(format!("row {i} (k={k}): non-positive timing"));
        }
        if on < off {
            return Err(format!(
                "row {i} (k={k}): resilient arm ({on:.1}%) below the ablation ({off:.1}%)"
            ));
        }
        if k >= 2 {
            saw_multi_replica = true;
            if on < 99.0 {
                return Err(format!(
                    "row {i} (k={k}): resilient read success {on:.1}% below the 99% floor"
                ));
            }
            worst_on = worst_on.min(on);
        }
        if off < 99.0 {
            saw_ablation_loss = true;
        }
        if sim_on > healthy * 10.0 {
            return Err(format!(
                "row {i} (k={k}): resilient sim time ({sim_on:.2} ms) above 10x the fault-free floor ({healthy:.2} ms)"
            ));
        }
    }
    if !saw_multi_replica {
        return Err("no row with k >= 2".into());
    }
    if !saw_ablation_loss {
        return Err("ablation never lost a read; the fault schedule is too gentle".into());
    }
    Ok(format!(
        "{} rows ok, resilient success >= {worst_on:.1}% at k>=2 where the ablation loses reads",
        rows.len()
    ))
}

/// E6: parallel fan-out / bulk ingest vs the sequential ablation.
/// Simulated time must improve strictly on every row. Wall-clock must
/// not regress on bulk rows (the win is algorithmic — batched catalog
/// locks — so it holds even single-threaded) and on fan-out rows when
/// the host had more than one worker thread.
fn check_e6(root: &Path) -> Result<String, String> {
    let rows = rows_of(root, "BENCH_E6.json")?;
    let mut worst = f64::INFINITY;
    for (i, row) in rows.iter().enumerate() {
        let kind = row.get("kind").and_then(Value::as_str).unwrap_or("?");
        let sim_before =
            num(row, "sim_ms_before").ok_or_else(|| format!("row {i}: missing sim_ms_before"))?;
        let sim_after =
            num(row, "sim_ms_after").ok_or_else(|| format!("row {i}: missing sim_ms_after"))?;
        let wall_before =
            num(row, "wall_ms_before").ok_or_else(|| format!("row {i}: missing wall_ms_before"))?;
        let wall_after =
            num(row, "wall_ms_after").ok_or_else(|| format!("row {i}: missing wall_ms_after"))?;
        let workers = num(row, "workers").unwrap_or(1.0);
        if sim_before <= 0.0 || sim_after <= 0.0 || wall_before <= 0.0 || wall_after <= 0.0 {
            return Err(format!("row {i} ({kind}): non-positive timing"));
        }
        if sim_after >= sim_before {
            return Err(format!(
                "row {i} ({kind}): parallel sim time ({sim_after:.1} ms) not below sequential ({sim_before:.1} ms)"
            ));
        }
        let wall_gated = kind == "bulk" || workers > 1.0;
        if wall_gated && wall_after > wall_before * 1.10 {
            return Err(format!(
                "row {i} ({kind}): parallel wall time ({wall_after:.1} ms) slower than sequential ({wall_before:.1} ms)"
            ));
        }
        worst = worst.min(sim_before / sim_after);
    }
    Ok(format!(
        "{} rows ok, parallel beats sequential by >= {worst:.2}x sim time",
        rows.len()
    ))
}

/// E7: synchronous-replication ingest cost under both fan-out modes.
/// Parallel must be strictly cheaper in simulated time for every
/// fan-out width above 1 and never more expensive at width 1.
fn check_e7(root: &Path) -> Result<String, String> {
    let rows = rows_of(root, "BENCH_E7.json")?;
    let mut worst = f64::INFINITY;
    for (i, row) in rows.iter().enumerate() {
        let k = num(row, "k").ok_or_else(|| format!("row {i}: missing k"))? as u64;
        let seq = num(row, "sync_seq_ms").ok_or_else(|| format!("row {i}: missing sync_seq_ms"))?;
        let par = num(row, "sync_par_ms").ok_or_else(|| format!("row {i}: missing sync_par_ms"))?;
        if seq <= 0.0 || par <= 0.0 {
            return Err(format!("row {i} (k={k}): non-positive timing"));
        }
        if k >= 2 && par >= seq {
            return Err(format!(
                "row {i} (k={k}): parallel sync ingest ({par:.1} ms) not below sequential ({seq:.1} ms)"
            ));
        }
        if k < 2 && par > seq * 1.001 {
            return Err(format!(
                "row {i} (k={k}): parallel sync ingest ({par:.1} ms) above sequential ({seq:.1} ms)"
            ));
        }
        if k >= 2 {
            worst = worst.min(seq / par);
        }
    }
    Ok(format!(
        "{} rows ok, parallel sync replication >= {worst:.2}x cheaper at k>=2",
        rows.len()
    ))
}

/// BENCH_OBS: the observability overhead guard. Each row pairs an
/// identical workload with observability off (`base`) and on (`obs`);
/// the instrumented run must stay within 5% wall-clock of the bare one,
/// and must charge *exactly* the same simulated time — metrics never
/// touch the virtual clock.
fn check_obs(root: &Path) -> Result<String, String> {
    let rows = rows_of(root, "BENCH_OBS.json")?;
    let mut worst = 0.0f64;
    for (i, row) in rows.iter().enumerate() {
        let workload = row.get("workload").and_then(Value::as_str).unwrap_or("?");
        let base = num(row, "base").ok_or_else(|| format!("row {i}: missing base"))?;
        let obs = num(row, "obs").ok_or_else(|| format!("row {i}: missing obs"))?;
        if base <= 0.0 || obs <= 0.0 {
            return Err(format!("row {i} ({workload}): non-positive timing"));
        }
        if obs > base * 1.05 {
            return Err(format!(
                "row {i} ({workload}): observability overhead {:.1}% above the 5% gate \
                 (base {base:.2}, obs {obs:.2})",
                (obs / base - 1.0) * 100.0
            ));
        }
        let sim_base =
            num(row, "sim_ms_base").ok_or_else(|| format!("row {i}: missing sim_ms_base"))?;
        let sim_obs =
            num(row, "sim_ms_obs").ok_or_else(|| format!("row {i}: missing sim_ms_obs"))?;
        if (sim_base - sim_obs).abs() > 1e-9 {
            return Err(format!(
                "row {i} ({workload}): metrics charged simulated time \
                 (off {sim_base:.6} ms, on {sim_obs:.6} ms)"
            ));
        }
        worst = worst.max(obs / base - 1.0);
    }
    Ok(format!(
        "{} rows ok, observability overhead <= {:.1}% wall, 0 ns simulated",
        rows.len(),
        worst * 100.0
    ))
}

/// BENCH_LOAD: the million-session front-end under the seeded open
/// workload. Simulated results are gated strictly (they are
/// host-independent): per-route latency must stay flat-ish as the
/// session count scales, the pooled connect counters must be exactly
/// deterministic, the double-run digest must match, and the amortized
/// sweep must reclaim every abandoned session. The sharded-vs-single-lock
/// wall-clock speedup is gated only where the recording host had worker
/// threads to contend on.
fn check_load(root: &Path) -> Result<String, String> {
    let path = root.join("BENCH_LOAD.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("unreadable ({e}); run `exp <name> --json` first"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let rows = v
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("missing `rows` array")?;
    if rows.is_empty() {
        return Err("`rows` array is empty".into());
    }

    // Scaling rows: sharded + pooled, standard mix (no churn).
    let mut first_p95: Vec<(String, f64)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let sessions = num(row, "sessions").ok_or_else(|| format!("row {i}: missing sessions"))?;
        let requests = num(row, "requests").ok_or_else(|| format!("row {i}: missing requests"))?;
        if sessions <= 0.0 || requests <= 0.0 {
            return Err(format!("row {i}: non-positive sessions/requests"));
        }
        let routes = row
            .get("routes")
            .and_then(Value::as_map_slice)
            .ok_or_else(|| format!("row {i}: missing routes"))?;
        let served: f64 = routes
            .iter()
            .map(|(_, r)| num(r, "count").unwrap_or(0.0))
            .sum();
        if served != requests {
            return Err(format!(
                "row {i}: route counts sum to {served}, expected {requests}"
            ));
        }
        // Pooled logins are exactly deterministic: the fixture pre-warms
        // every account, so the measured phase never misses.
        let hits = num(row, "pool_hits").unwrap_or(-1.0);
        let misses = num(row, "pool_misses").unwrap_or(-1.0);
        let logins = num(row, "logins_total").unwrap_or(-2.0);
        if misses != 0.0 || hits != logins {
            return Err(format!(
                "row {i}: pooled connect counters not deterministic \
                 (hits {hits}, misses {misses}, logins {logins})"
            ));
        }
        if num(row, "live_end") != Some(sessions) {
            return Err(format!(
                "row {i}: live sessions after a churn-free run != sessions created"
            ));
        }
        // Flat-ish p95: each simulated route percentile may grow at most
        // 2x from the smallest session count to the largest.
        for (route, r) in routes {
            let p95 = num(r, "sim_p95_ns").unwrap_or(0.0);
            if i == 0 {
                if p95 > 0.0 {
                    first_p95.push((route.clone(), p95));
                }
            } else if let Some((_, base)) = first_p95.iter().find(|(n, _)| n == route) {
                if p95 > base * 2.0 {
                    return Err(format!(
                        "row {i} ({route}): sim p95 {p95:.0} ns more than 2x the \
                         {sessions:.0}-session baseline {base:.0} ns — latency not flat"
                    ));
                }
            }
        }
    }

    // Ablation: sharded + pooled vs the single-lock, unpooled front-end.
    let ab = v.get("ablation").ok_or("missing `ablation` block")?;
    let workers = num(ab, "workers").ok_or("ablation: missing workers")?;
    let sharded = ab.get("sharded").ok_or("ablation: missing sharded arm")?;
    let single = ab
        .get("single_lock")
        .ok_or("ablation: missing single_lock arm")?;
    if num(single, "pool_hits") != Some(0.0) || num(single, "pool_misses") != Some(0.0) {
        return Err("ablation: unpooled arm touched the connection pool".into());
    }
    if num(sharded, "pool_hits") != num(sharded, "logins_total") {
        return Err("ablation: pooled arm missed the connection pool".into());
    }
    let speedup = num(ab, "wall_speedup").ok_or("ablation: missing wall_speedup")?;
    let wall_note = if workers >= 8.0 {
        if speedup < 4.0 {
            return Err(format!(
                "ablation: sharded+pooled wall speedup {speedup:.2}x below the 4x \
                 gate at {workers} workers"
            ));
        }
        format!("wall speedup {speedup:.2}x (gated >= 4x)")
    } else if workers >= 2.0 {
        if speedup < 1.2 {
            return Err(format!(
                "ablation: sharded+pooled wall speedup {speedup:.2}x below the 1.2x \
                 gate at {workers} workers"
            ));
        }
        format!("wall speedup {speedup:.2}x (gated >= 1.2x)")
    } else {
        format!("wall speedup {speedup:.2}x (ungated: 1 worker)")
    };

    // Determinism: two identical seeded runs must hash identically.
    let det = v.get("determinism").ok_or("missing `determinism` block")?;
    if det.get("identical").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "determinism: seeded replay diverged (digest_a {:?}, digest_b {:?})",
            det.get("digest_a").and_then(Value::as_str).unwrap_or("?"),
            det.get("digest_b").and_then(Value::as_str).unwrap_or("?"),
        ));
    }

    // Sweep: every abandoned session reclaimed, gauge balanced at zero.
    let sweep = v.get("sweep").ok_or("missing `sweep` block")?;
    let created = num(sweep, "sessions").ok_or("sweep: missing sessions")?;
    if num(sweep, "reclaimed") != Some(created)
        || num(sweep, "live_after") != Some(0.0)
        || num(sweep, "live_gauge_after") != Some(0.0)
    {
        return Err(format!(
            "sweep: abandoned sessions leaked (created {created}, reclaimed {:?}, \
             live_after {:?}, gauge {:?})",
            num(sweep, "reclaimed"),
            num(sweep, "live_after"),
            num(sweep, "live_gauge_after"),
        ));
    }

    Ok(format!(
        "{} rows ok, p95 flat, pool + digest + sweep deterministic, {wall_note}",
        rows.len()
    ))
}

/// Recovery: WAL overhead and crash-recovery cost vs catalog size. Every
/// row must recover to a catalog byte-identical to the pre-crash
/// snapshot — that is the whole point of the durability layer, and any
/// divergence is a correctness bug, not a performance regression. The
/// WAL twin must cost strictly more wall time than the in-memory
/// baseline (durability is never free) but not absurdly more (<= 50x,
/// host-relative). Simulated recovery cost is deterministic and must be
/// monotone in catalog size. The replay applies at most one commit group
/// per tail ingest (+1 for rounding at the checkpoint): tables only log,
/// the op commits.
fn check_recovery(root: &Path) -> Result<String, String> {
    let rows = rows_of(root, "BENCH_RECOVERY.json")?;
    let mut worst_overhead = 0.0f64;
    let mut prev_sim = 0.0f64;
    for (i, row) in rows.iter().enumerate() {
        for key in [
            "datasets",
            "base_ingest_us",
            "wal_ingest_us",
            "wal_sim_ns_per_op",
            "recovery_wall_ms",
            "recovery_sim_ms",
        ] {
            if num(row, key).map(|t| t <= 0.0).unwrap_or(true) {
                return Err(format!("row {i}: missing or non-positive {key}"));
            }
        }
        if row.get("identical").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "row {i}: recovered catalog not byte-identical to the \
                 pre-crash snapshot"
            ));
        }
        let tail = num(row, "tail_records").unwrap_or(0.0);
        let groups = num(row, "groups_applied").unwrap_or(0.0);
        if groups <= 0.0 || tail < groups {
            return Err(format!(
                "row {i}: implausible replay accounting (tail {tail}, \
                 groups {groups})"
            ));
        }
        // One commit group per ingest: tables only log, the op commits.
        let tail_datasets = num(row, "tail_datasets").unwrap_or(0.0);
        if groups > tail_datasets + 1.0 {
            return Err(format!(
                "row {i}: {groups} commit groups replayed for {tail_datasets} \
                 tail datasets — more than one group per ingest"
            ));
        }
        let base = num(row, "base_ingest_us").unwrap_or(0.0);
        let wal = num(row, "wal_ingest_us").unwrap_or(0.0);
        if wal <= base {
            return Err(format!(
                "row {i}: WAL twin ({wal:.1} us/op) not slower than the \
                 in-memory baseline ({base:.1} us/op) — is it logging at all?"
            ));
        }
        if wal > base * 50.0 {
            return Err(format!(
                "row {i}: WAL overhead {:.1}x over the in-memory baseline \
                 exceeds the 50x gate",
                wal / base
            ));
        }
        worst_overhead = worst_overhead.max(wal / base);
        let sim = num(row, "recovery_sim_ms").unwrap_or(0.0);
        if sim < prev_sim {
            return Err(format!(
                "row {i}: simulated recovery cost shrank as the catalog grew \
                 ({prev_sim:.2} ms -> {sim:.2} ms) — replay not scaling with \
                 the tail"
            ));
        }
        prev_sim = sim;
    }
    Ok(format!(
        "{} rows ok, every crash recovered byte-identical, WAL overhead \
         <= {worst_overhead:.1}x",
        rows.len()
    ))
}

/// BENCH_ZONE: federated zones. Every link class must converge
/// byte-identically, a federated query can never beat the local one (the
/// remote leg pays the peering link), the federated premium must grow
/// with link latency, and the replication exposure window must be
/// monotone non-decreasing as the link slows down. The `tail` sweep must
/// show replication incremental: exporting and pumping a fixed batch of
/// new records costs at most 3x more wall time behind the longest
/// already-fetched log recorded than behind the shortest (a reader that
/// rescans the log from LSN 1 is ~10x per decade).
fn check_zone(root: &Path) -> Result<String, String> {
    let rows = rows_of(root, "BENCH_ZONE.json")?;
    let mut prev_latency = -1.0f64;
    let mut prev_fed = -1.0f64;
    let mut prev_lag = -1.0f64;
    for (i, row) in rows.iter().enumerate() {
        let latency =
            num(row, "latency_us").ok_or_else(|| format!("row {i}: missing latency_us"))?;
        let local =
            num(row, "local_query_ms").ok_or_else(|| format!("row {i}: missing local_query_ms"))?;
        let fed = num(row, "federated_query_ms")
            .ok_or_else(|| format!("row {i}: missing federated_query_ms"))?;
        let lag = num(row, "lag_ms").ok_or_else(|| format!("row {i}: missing lag_ms"))?;
        if row.get("converged").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "row {i}: publisher and mirror subtrees did not converge \
                 byte-identically"
            ));
        }
        if fed <= 0.0 || lag <= 0.0 {
            return Err(format!("row {i}: non-positive federated/lag timing"));
        }
        if fed < local {
            return Err(format!(
                "row {i}: federated query ({fed:.3} ms) beat the local one \
                 ({local:.3} ms) — the peering link is not being charged"
            ));
        }
        if latency <= prev_latency {
            return Err(format!(
                "row {i}: rows must sweep strictly increasing link latency"
            ));
        }
        if prev_fed >= 0.0 && fed <= prev_fed {
            return Err(format!(
                "row {i}: federated query cost did not grow with link latency \
                 ({prev_fed:.3} ms -> {fed:.3} ms)"
            ));
        }
        if prev_lag >= 0.0 && lag < prev_lag {
            return Err(format!(
                "row {i}: replication lag shrank as the link slowed \
                 ({prev_lag:.3} ms -> {lag:.3} ms)"
            ));
        }
        prev_latency = latency;
        prev_fed = fed;
        prev_lag = lag;
    }
    let tail = array_of(root, "BENCH_ZONE.json", "tail")?;
    if tail.len() < 2 {
        return Err("`tail` needs at least two log lengths to compare".into());
    }
    let (short, long) = (&tail[0], &tail[tail.len() - 1]);
    let behind = |row: &Value| num(row, "behind_records").ok_or("tail: missing behind_records");
    let (few, many) = (behind(short)?, behind(long)?);
    if many < 5.0 * few {
        return Err("tail: rows must span at least 5x in log length".into());
    }
    for field in ["export_us", "pump_ms"] {
        let at = |row: &Value| num(row, field).ok_or(format!("tail: missing {field}"));
        let (lo, hi) = (at(short)?, at(long)?);
        if lo <= 0.0 || hi > 3.0 * lo {
            return Err(format!(
                "tail: {field} grew {lo:.1} -> {hi:.1} from {few} to {many} records \
                 behind the cursor — replication cost follows log length, \
                 not what is new"
            ));
        }
    }
    Ok(format!(
        "{} link classes ok, all converged, lag monotone in link latency; \
         replication flat over {:.0}x log length",
        rows.len(),
        many / few
    ))
}

pub fn benchcheck(root: &Path) -> ExitCode {
    let mut failed = false;
    for (file, scan_field, scan_scale) in [
        ("BENCH_E1.json", "scan_ms", 1000.0),
        ("BENCH_E5.json", "scan_us", 1.0),
    ] {
        match check(root, file, scan_field, scan_scale) {
            Ok(msg) => println!("xtask benchcheck: {file}: {msg}"),
            Err(e) => {
                eprintln!("xtask benchcheck: {file}: {e}");
                failed = true;
            }
        }
    }
    for (file, checker) in [
        (
            "BENCH_E2.json",
            check_e2 as fn(&Path) -> Result<String, String>,
        ),
        ("BENCH_E3.json", check_e3),
        ("BENCH_E6.json", check_e6),
        ("BENCH_E7.json", check_e7),
        ("BENCH_OBS.json", check_obs),
        ("BENCH_LOAD.json", check_load),
        ("BENCH_RECOVERY.json", check_recovery),
        ("BENCH_ZONE.json", check_zone),
    ] {
        match checker(root) {
            Ok(msg) => println!("xtask benchcheck: {file}: {msg}"),
            Err(e) => {
                eprintln!("xtask benchcheck: {file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
