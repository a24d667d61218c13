//! `zone_sync` — two federated zones: ingest at `alpha`, pump the
//! replication stream, query from `beta`.
//!
//! The only workload where `srb-core::zone` (link charging,
//! `export_deltas`, `apply_delta`, resync) dominates, and the only one
//! where checkpoints and replication interact: the pump's own simulated
//! cost moves the shared clock, so publisher checkpoints fire and force
//! full mirror resyncs. One client — the pump is one daemon.

use super::durable_ingest::LogMeter;
use super::{core_ops, drive, end_to_end, ladder_metrics, layer_p50s, tally, warm_of};
use super::{Cfg, Outcome, Recorder};
use crate::gen::{ingest_op, KINDS};
use crate::trace::Tracer;
use srb_core::{FedConnection, Federation, GridBuilder, IngestOptions, SrbConnection, ZoneId};
use srb_mcat::{export_deltas, Query};
use srb_net::LinkSpec;
use srb_types::{CompareOp, Lsn, Triplet};
use std::time::Instant;

/// Timed cycles at `--seconds 20`.
const CYCLES: u64 = 110;

/// Ingests per cycle.
const BATCH: u64 = 50;

/// Datasets `alpha` holds (and `beta` mirrors) before the first cycle.
const PRESEED: usize = 1_000;

/// Serials the federated query asks for: the newest ones.
const NEWEST: u64 = 20;

/// `Federation::pump` batch size.
const PUMP_BATCH: usize = 64;

const DATA: &str = "/home/bench/data";

fn ingest(conn: &SrbConnection<'_>, seed: u64, serial: u64) -> srb_types::SrbResult<u64> {
    let op = ingest_op(seed, 0, serial);
    conn.ingest(
        &format!("{DATA}/obj{serial:08}"),
        vec![b'x'; op.payload_len],
        IngestOptions::to_resource("fs-alpha")
            .with_metadata(Triplet::new("serial", serial as i64, ""))
            .with_metadata(Triplet::new("kind", KINDS[op.kind], "")),
    )
    .map(|r| r.sim_ns)
}

/// Two zones built with `Federation::add_zone` defaults (durability over
/// a fresh device, 30-virtual-second checkpoints) on one metro link.
fn build_federation() -> (Federation, ZoneId, ZoneId) {
    let mut fed = Federation::new();
    let clock = fed.clock().clone();
    let mut zone = |tag: &str| {
        let mut gb = GridBuilder::new();
        gb.clock(clock.clone());
        let site = gb.site(&format!("site-{tag}"));
        let srv = gb.server(&format!("srb-{tag}"), site);
        gb.fs_resource(&format!("fs-{tag}"), srv);
        let grid = gb.build();
        grid.register_user("bench", "sdsc", "pw")
            .expect("fresh user name");
        fed.add_zone(tag, grid, srv).expect("fresh zone name")
    };
    let (a, b) = (zone("alpha"), zone("beta"));
    fed.link(a, b, LinkSpec::metro()).expect("both zones exist");
    (fed, a, b)
}

struct Client<'f> {
    fed: &'f Federation,
    alpha: SrbConnection<'f>,
    beta: FedConnection<'f>,
    a: ZoneId,
    seed: u64,
    /// Datasets ingested so far, pre-seeded ones included.
    serial: u64,
    /// Simulated cost the pump charged, for the per-cycle link cost.
    pump_ns: u64,
    meter: LogMeter,
    tracer: Option<Tracer>,
}

impl Client<'_> {
    /// Every page from `beta` holds the newest serials twice: once from
    /// the mirror, once over the link from `alpha`.
    fn newest_query(&self) -> Query {
        Query::everywhere()
            .and("serial", CompareOp::Ge, (self.serial - NEWEST) as i64)
            .and("serial", CompareOp::Lt, self.serial as i64)
    }

    /// One cycle: a batch of ingests at `alpha`, pump until drained, one
    /// federated page from `beta`. With a tracer, each call is a span
    /// and the pump and query calls get a rung below them.
    fn cycle(&mut self, _c: usize, i: u64, rec: &mut Recorder) {
        let device = self.fed.zone(self.a).expect("alpha").device().clone();
        let trace = self.tracer.as_ref().map_or(0, |t| t.trace_id(i));
        for _ in 0..BATCH {
            let t = Instant::now();
            let r = ingest(&self.alpha, self.seed, self.serial);
            rec.call(t, r.is_ok(), r.unwrap_or(0));
            self.serial += 1;
            if let Some(tr) = &mut self.tracer {
                let (_, ns) = tr.record(trace, 0, "srb-core.conn.ingest", t, Instant::now());
                tr.sample("harness.top_rung_p50_us", ns);
            }
        }
        self.meter.sample(&device, self.serial);

        for round in 0.. {
            // The rung below the pump runs first: after the pump the
            // fetch cursor has moved and the same call would do less.
            let fetched = self.fed.subscriptions()[0].fetched_lsn;
            let t0 = Instant::now();
            let below = self
                .tracer
                .is_some()
                .then(|| export_deltas(&device, Lsn(fetched)).is_ok());
            let t1 = Instant::now();
            let r = self.fed.pump(PUMP_BATCH);
            rec.call(
                t1,
                r.is_ok() && round < 10_000,
                r.as_ref().map_or(0, |r| r.cost_ns),
            );
            let t2 = Instant::now();
            if let (Some(tr), Some(ok)) = (&mut self.tracer, below) {
                let (pump, pump_ns) = tr.record(trace, 0, "srb-core.zone.pump", t1, t2);
                let (_, export_ns) = tr.record(trace, pump, "srb-mcat.export_deltas", t0, t1);
                rec.rung(ok);
                tr.sample("harness.top_rung_p50_us", pump_ns);
                tr.sample("srb-core.zone.pump_ms", pump_ns);
                tr.sample("srb-core.zone.export_deltas_ms", export_ns);
            }
            let Ok(report) = r else { break };
            self.pump_ns += report.cost_ns;
            if (report.pending == 0 && report.fetched == 0) || round >= 10_000 {
                break;
            }
        }

        let q = self.newest_query();
        let t = Instant::now();
        let r = self.beta.query_page(&q, None, PUMP_BATCH);
        let (ok, sim) = r.map_or((false, 0), |(hits, _, receipt)| {
            let from = |zone: &str| hits.iter().filter(|h| h.zone == zone).count() as u64;
            (
                from("alpha") == NEWEST && from("beta") == NEWEST,
                receipt.sim_ns,
            )
        });
        rec.call(t, ok, sim);
        if let Some(tr) = &mut self.tracer {
            let (fedq, fed_ns) = tr.record(
                trace,
                0,
                "srb-core.zone.fedconn.query_page",
                t,
                Instant::now(),
            );
            tr.sample("harness.top_rung_p50_us", fed_ns);
            tr.sample("srb-core.zone.fedquery_us", fed_ns);
            let home = self.beta.home_conn();
            let (ok, _, local_ns) = tr.span(trace, fedq, "srb-core.conn.query[home]", || {
                home.query(&q).is_ok_and(|(h, _)| h.len() as u64 == NEWEST)
            });
            rec.rung(ok);
            tr.sample("srb-core.zone.local_leg_us", local_ns);
        }
    }
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let preseed = cfg.sized(PRESEED, NEWEST as usize) as u64;
    let cycles = (cfg.steps(CYCLES * BATCH) / BATCH).max(2);
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let (fed, a, b) = build_federation();
    let alpha_zone = fed.zone(a).expect("alpha");
    let alpha = SrbConnection::connect(
        &alpha_zone.grid,
        alpha_zone.contact(),
        "bench",
        "sdsc",
        "pw",
    )
    .expect("bench sign-on");
    alpha.make_collection(DATA).expect("fresh collection");
    for serial in 0..preseed {
        ingest(&alpha, cfg.seed, serial).expect("seed ingest");
    }
    let mirror = fed.subscribe(b, a, DATA).expect("first subscription");
    // The mirror belongs to beta's administrator; the account every
    // zone is built with can read it and the publisher's original.
    let beta = fed
        .connect(b, "srb", "sdsc", "srb-admin")
        .expect("federated sign-on");
    let mut clients = [Client {
        fed: &fed,
        alpha,
        beta,
        a,
        seed: cfg.seed,
        serial: preseed,
        pump_ns: 0,
        meter: LogMeter::default(),
        tracer: None,
    }];
    let setup_s = t0.elapsed().as_secs_f64();
    if cfg.trace {
        traced(&mut out, &mut clients, cycles);
    } else {
        let timed = drive(&mut clients, 0, warm_of(cycles), cycles, Client::cycle);
        end_to_end(&mut out, &timed, setup_s);
        out.info
            .insert("log_bytes_per_op", clients[0].meter.bytes_per_op());
        let resyncs = fed.metrics_snapshot().counter_total("zone.resyncs");
        out.info.insert("resyncs", resyncs as f64);
    }
    let drained = fed
        .pump_until_drained(PUMP_BATCH, 10_000)
        .is_ok_and(|r| r.pending == 0);
    out.checks_ok = drained
        && fed.subtree_digest(a, DATA).ok().as_deref()
            == fed.subtree_digest(b, &mirror).ok().as_deref();
    out
}

/// An untraced slice, then the ladder.
fn traced(out: &mut Outcome, clients: &mut [Client<'_>], cycles: u64) {
    let (fed, a) = (clients[0].fed, clients[0].a);
    let grid = &fed.zone(a).expect("alpha").grid;
    let slice = (cycles / 8).max(2);
    let (fed0, grid0) = (fed.metrics_snapshot(), grid.metrics_snapshot());
    let plain = drive(clients, 0, warm_of(slice), slice, Client::cycle);
    let (fed1, grid1) = (fed.metrics_snapshot(), grid.metrics_snapshot());
    let ran = (warm_of(slice) + slice) as f64;
    let zone = |name: &str| (fed1.counter_total(name) - fed0.counter_total(name)) as f64;
    let wal = |name: &str| (grid1.counter_total(name) - grid0.counter_total(name)) as f64;
    let m = &mut out.metrics;
    m.insert("srb-core.zone.pump_rounds", zone("zone.pump_rounds"));
    m.insert("srb-core.zone.deltas_fetched", zone("zone.deltas_fetched"));
    m.insert("srb-core.zone.deltas_applied", zone("zone.deltas_applied"));
    m.insert("srb-core.zone.delta_bytes", zone("zone.delta_bytes"));
    m.insert("srb-core.zone.resyncs", zone("zone.resyncs"));
    m.insert("srb-net.link_sim_ms", clients[0].pump_ns as f64 / 1e6 / ran);
    m.insert("fanout.legs_dispatched", wal("fanout.legs_dispatched"));
    m.insert("core.ops", core_ops(&grid0, &grid1));
    m.insert("storage.ops", wal("storage.ops"));
    m.insert(
        "srb-mcat.wal.records_per_op",
        wal("wal.appends") / (ran * BATCH as f64),
    );
    m.insert(
        "srb-mcat.wal.fsyncs_per_op",
        wal("wal.group_commits") / (ran * BATCH as f64),
    );
    m.insert("srb-mcat.wal.checkpoints", wal("wal.checkpoints"));
    m.insert(
        "srb-mcat.wal.log_bytes_per_op",
        clients[0].meter.bytes_per_op(),
    );

    clients[0].tracer = Some(Tracer::new(Instant::now(), 0));
    let base = warm_of(slice) + slice;
    let ladder = drive(clients, base, 0, (cycles / 4).max(2), Client::cycle);
    out.tracers.extend(clients[0].tracer.take());
    layer_p50s(out);
    tally(out, &plain);
    ladder_metrics(out, &plain, &ladder);
}
