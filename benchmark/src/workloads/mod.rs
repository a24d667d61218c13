//! The four workloads and the closed-loop driver they share.

pub mod catalog_query;
pub mod durable_ingest;
pub mod web_mix;
pub mod zone_sync;

use crate::stats::percentile;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` declares them.
pub const NAMES: [&str; 4] = ["web_mix", "catalog_query", "durable_ingest", "zone_sync"];

/// The `--seconds` the per-workload op rates were sized for.
pub const BASE_SECONDS: f64 = 20.0;

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Scales op counts only: each workload's op count is a constant sized
    /// so that its timed phase lasts about this long on the commit that
    /// defined the benchmark.
    pub seconds: f64,
    /// Scales op counts and populations together (smoke runs).
    pub scale: f64,
    /// Ladder run reporting per-layer metrics, or plain run reporting
    /// end-to-end metrics.
    pub trace: bool,
}

impl Cfg {
    /// Timed steps for a workload sized at `at_base` steps per
    /// [`BASE_SECONDS`]. Never below 800: a traced run's ladder is a
    /// quarter of them, and any 200 consecutive steps hold a whole block
    /// of the mix, so even a smoke run reaches every layer.
    pub fn steps(&self, at_base: u64) -> u64 {
        let n = at_base as f64 * self.seconds / BASE_SECONDS * self.scale;
        (n.round() as u64).max(800)
    }

    /// A population scaled by `scale` alone, never below `floor`.
    pub fn sized(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(floor)
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Client calls made in the timed phases.
    pub attempted: u64,
    /// Calls that errored, were refused, or failed their output check.
    pub failed: u64,
    /// Whole-run checks (recovery, digests) all passed.
    pub checks_ok: bool,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts about the run that are not metrics (sample counts, timed
    /// seconds), printed and recorded in result documents.
    pub info: BTreeMap<&'static str, f64>,
    /// Every tracer of a traced run, for the span file.
    pub tracers: Vec<Tracer>,
}

/// Per-client tally of timed calls.
#[derive(Debug, Default)]
pub struct Recorder {
    lat_ns: Vec<u64>,
    unclocked: u64,
    failed: u64,
    sim_ns: u64,
}

impl Recorder {
    /// Count one client call that started at `start` and just returned.
    /// `sim_ns` is the simulated cost its receipt reported (0 when the
    /// call returns none).
    pub fn call(&mut self, start: Instant, ok: bool, sim_ns: u64) {
        self.lat_ns.push(start.elapsed().as_nanos() as u64);
        self.failed += u64::from(!ok);
        self.sim_ns += sim_ns;
    }

    /// Count one lower-rung call of a ladder: checked, but its latency
    /// lives in its span, not in the client-observed samples.
    pub fn rung(&mut self, ok: bool) {
        self.unclocked += 1;
        self.failed += u64::from(!ok);
    }
}

/// The merged result of one timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// Client-observed latencies, ascending.
    pub lat_ns: Vec<u64>,
    /// Lower-rung calls of a ladder, counted but not among `lat_ns`.
    pub unclocked: u64,
    /// Failed calls.
    pub failed: u64,
    /// Simulated cost summed over the calls' receipts.
    pub sim_ns: u64,
    /// First client released → last client done.
    pub wall_s: f64,
}

impl Timed {
    /// Calls made.
    pub fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64 + self.unclocked
    }

    /// Client-observed calls per wall second.
    pub fn throughput(&self) -> f64 {
        self.lat_ns.len() as f64 / self.wall_s.max(1e-9)
    }

    /// Latency percentile in microseconds.
    pub fn p_us(&self, p: f64) -> f64 {
        percentile(&self.lat_ns, p) as f64 / 1e3
    }
}

/// Run one closed-loop phase: each client runs `warm` untimed steps,
/// waits for the others, then runs `timed` steps, each step starting
/// when the previous one returned. Step indexes start at `base`, so
/// phases of one run never repeat an index (writes never collide).
pub fn drive<C: Send>(
    clients: &mut [C],
    base: u64,
    warm: u64,
    timed: u64,
    step: impl Fn(&mut C, usize, u64, &mut Recorder) + Sync,
) -> Timed {
    let barrier = Barrier::new(clients.len());
    let parts: Vec<(Recorder, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, step) = (&barrier, &step);
                scope.spawn(move || {
                    let mut discard = Recorder::default();
                    for i in base..base + warm {
                        step(client, c, i, &mut discard);
                    }
                    barrier.wait();
                    let mut rec = Recorder::default();
                    let t0 = Instant::now();
                    for i in base + warm..base + warm + timed {
                        step(client, c, i, &mut rec);
                    }
                    (rec, t0, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark client panicked"))
            .collect()
    });
    let first = parts
        .iter()
        .map(|p| p.1)
        .min()
        .expect("at least one client");
    let last = parts
        .iter()
        .map(|p| p.2)
        .max()
        .expect("at least one client");
    let mut out = Timed {
        wall_s: last.duration_since(first).as_secs_f64(),
        ..Timed::default()
    };
    for (rec, _, _) in parts {
        out.lat_ns.extend(rec.lat_ns);
        out.unclocked += rec.unclocked;
        out.failed += rec.failed;
        out.sim_ns += rec.sim_ns;
    }
    out.lat_ns.sort_unstable();
    out
}

/// The untimed share of a phase: the first 5 % of ops warm pools and
/// caches.
pub fn warm_of(timed: u64) -> u64 {
    (timed / 20).max(2)
}

/// The process's peak resident set (`VmHWM`) in MiB, where the kernel
/// reports one.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Fill in the end-to-end metrics every workload reports.
pub fn end_to_end(out: &mut Outcome, timed: &Timed, setup_s: f64) {
    out.attempted += timed.attempted();
    out.failed += timed.failed;
    let m = &mut out.metrics;
    m.insert("throughput_ops_s", timed.throughput());
    m.insert("latency_p50_us", timed.p_us(50.0));
    m.insert("setup_s", setup_s);
    m.insert(
        "sim_ms_per_op",
        timed.sim_ns as f64 / 1e6 / timed.attempted().max(1) as f64,
    );
    out.info.insert("samples", timed.attempted() as f64);
    out.info.insert("timed_s", timed.wall_s);
    // The tail is reported, not judged: with a neighbour on the host the
    // same code's p95 spreads by 30 % on `catalog_query` and 20-28 % on
    // `web_mix` (README, "Observed spread"), above any bound allowed.
    out.info.insert("latency_p95_us", timed.p_us(95.0));
    out.info.insert("latency_p99_us", timed.p_us(99.0));
    out.info.insert("latency_max_ms", timed.p_us(100.0) / 1e3);
}

/// Turn every tracer sample family into its p50, in the unit the metric
/// name ends with (`_us`, `_ms`, `_s`).
pub fn layer_p50s(out: &mut Outcome) {
    for (name, sorted) in crate::trace::merged_samples(&out.tracers) {
        let ns = percentile(&sorted, 50.0) as f64;
        let div = if name.ends_with("_us") {
            1e3
        } else if name.ends_with("_ms") {
            1e6
        } else {
            1e9
        };
        out.metrics.insert(name, ns / div);
    }
}

/// Count a traced run's untraced slice towards its attempted and failed
/// calls.
pub fn tally(out: &mut Outcome, slice: &Timed) {
    out.attempted += slice.attempted();
    out.failed += slice.failed;
}

/// Throughput at two clients over throughput at one: below 2, the rest
/// is time work waited on what the clients share.
pub fn scaling(out: &mut Outcome, metric: &'static str, one: &Timed, two: &Timed) {
    out.metrics
        .insert(metric, two.throughput() / one.throughput());
}

/// The per-layer metrics every traced run derives from its ladder and
/// the untraced slice with the ladder's client count: the stall a median
/// hides (over the ladder's client-observed calls, the longest phase of
/// a traced run) and what the ladder costs (the slice's throughput over
/// the ladder's client-observed one).
pub fn ladder_metrics(out: &mut Outcome, untraced: &Timed, ladder: &Timed) {
    tally(out, ladder);
    let m = &mut out.metrics;
    m.insert("client.latency_max_ms", ladder.p_us(100.0) / 1e3);
    m.insert("client.latency_p95_us", ladder.p_us(95.0));
    m.insert("client.latency_p99_us", ladder.p_us(99.0));
    m.insert(
        "harness.trace_overhead_ratio",
        untraced.throughput() / ladder.throughput(),
    );
}

/// A thinned ladder sends one traced op in this many down the lower
/// rungs. Where every op is followed by three or four more on other
/// structures, the top rung runs on colder caches — unthinned,
/// `durable_ingest`'s read 14 % above the untraced call and `web_mix`'s
/// 5 % — and the ladder perturbs what it measures.
pub const LADDER_EVERY: u64 = 4;

/// Observations and their sum across every label of a histogram family.
pub fn histogram_total(snap: &srb_obs::MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.histograms.get(name).map_or((0, 0), |fam| {
        fam.values()
            .fold((0, 0), |(n, sum), h| (n + h.count, sum + h.sum))
    })
}

/// Core ops finished between two snapshots (`core.op_ns` observations).
pub fn core_ops(before: &srb_obs::MetricsSnapshot, after: &srb_obs::MetricsSnapshot) -> f64 {
    (histogram_total(after, "core.op_ns").0 - histogram_total(before, "core.op_ns").0) as f64
}

/// Run the named workload. A plain run's `peak_rss_mb` is read here, when
/// the workload has made its last check: recovery and verification are
/// part of what the process needs memory for.
pub fn run(name: &str, cfg: &Cfg) -> Option<Outcome> {
    let mut out = match name {
        "web_mix" => web_mix::run(cfg),
        "catalog_query" => catalog_query::run(cfg),
        "durable_ingest" => durable_ingest::run(cfg),
        "zone_sync" => zone_sync::run(cfg),
        _ => return None,
    };
    if let (false, Some(rss)) = (cfg.trace, peak_rss_mb()) {
        out.metrics.insert("peak_rss_mb", rss);
    }
    Some(out)
}
