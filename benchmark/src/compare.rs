//! `gridbench compare A.json B.json`: is B worse than A, per
//! (end-to-end metric, workload), by more than the declared bound?

use crate::spec::Spec;
use crate::stats::{median, spread};
use serde_json::Value;

/// What one (metric, workload) pair shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound.
    Better,
    /// A document holds fewer than two runs of the pair, or their spread
    /// is wider than the bound: the pair cannot show a change of that
    /// size, so it is not reported as unchanged.
    Unresolved,
}

/// Judge one pair. `change` is B's median relative to A's, signed so
/// that positive is worse; `spread` is the wider of the two documents'
/// run-to-run spreads, `None` when either has fewer than two runs.
pub fn verdict(change: f64, spread: Option<f64>, bound: f64) -> Verdict {
    match spread {
        None => Verdict::Unresolved,
        Some(s) if s > bound => Verdict::Unresolved,
        _ if change > bound => Verdict::Worse,
        _ if change < -bound => Verdict::Better,
        _ => Verdict::Same,
    }
}

/// B's median relative to A's, positive when worse.
pub fn relative_change(a: f64, b: f64, better: &str) -> f64 {
    let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -rel
    } else {
        rel
    }
}

/// The runs a document holds for one (workload, section, metric).
fn values(doc: &Value, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    let entry = doc.get("workloads")?.get(workload)?.get(section)?;
    let runs = entry.get(metric)?.get("values")?.as_array()?;
    runs.iter().map(Value::as_f64).collect()
}

/// Print one row per pair; returns whether any pair is `Worse`. A
/// workload neither document ran is skipped; an end-to-end metric one of
/// them lacks is an error. Per-layer metrics have no bound: their change
/// is printed, not judged, and a layer only one document reached is
/// reported as such.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> Result<bool, String> {
    let ran = |doc: &Value, w: &str| doc.get("workloads").and_then(|v| v.get(w)).is_some();
    let mut any_worse = false;
    for workload in &spec.workloads {
        if !ran(a, workload) && !ran(b, workload) {
            continue;
        }
        for m in &spec.end_to_end {
            let bound = m
                .bound
                .ok_or_else(|| format!("BENCHMARK.json: {} has no bound", m.name))?;
            let side = |doc: &Value, which: &str| {
                values(doc, workload, "end_to_end", &m.name)
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{which} has no {} for {workload}", m.name))
            };
            let (va, vb) = (side(a, "A")?, side(b, "B")?);
            let (ma, mb) = (median(&va), median(&vb));
            let change = relative_change(ma, mb, &m.better);
            let wider = (va.len() >= 2 && vb.len() >= 2).then(|| spread(&va).max(spread(&vb)));
            let judged = verdict(change, wider, bound);
            any_worse |= judged == Verdict::Worse;
            println!(
                "{workload:<15} {:<44} {ma:>14.4} -> {mb:>14.4} {:<7} {:+8.2}% {} (bound {:.0}%, spread {})",
                m.name,
                m.unit,
                change * 100.0,
                format!("{judged:?}").to_lowercase(),
                bound * 100.0,
                wider.map_or("unknown: fewer than 2 runs".into(), |s| format!(
                    "{:.1}%",
                    s * 100.0
                )),
            );
        }
        for m in &spec.per_layer {
            let side = |doc: &Value| values(doc, workload, "per_layer", &m.name);
            let row = match (side(a), side(b)) {
                (None, None) => continue,
                (Some(va), Some(vb)) => {
                    let (ma, mb) = (median(&va), median(&vb));
                    format!(
                        "{ma:>14.4} -> {mb:>14.4} {:<7} {:+8.2}% (positive is worse)",
                        m.unit,
                        relative_change(ma, mb, &m.better) * 100.0
                    )
                }
                (Some(_), None) => "reached in A only".into(),
                (None, Some(_)) => "reached in B only".into(),
            };
            println!("{workload:<15} {:<44} {row}", m.name);
        }
    }
    Ok(any_worse)
}
