//! `durable_ingest` — two writers into a WAL-backed catalog, then a power
//! cut and recovery.
//!
//! The same MCAT as `catalog_query` used the other way: table writes,
//! index maintenance, WAL encode/append/fsync, periodic checkpoints,
//! recovery. A read-side gain that costs writes shows here. The harness
//! advances the grid's virtual clock a fixed amount per op so the default
//! 30-virtual-second checkpoint interval fires about six times per run.

use super::{drive, end_to_end, ladder_metrics, layer_p50s, scaling, tally, warm_of};
use super::{Cfg, Outcome, Recorder, LADDER_EVERY};
use crate::gen::{ingest_op, CLIENTS, KINDS};
use crate::trace::Tracer;
use srb_core::{Grid, GridBuilder, IngestOptions, SrbConnection};
use srb_mcat::{AccessSpec, Mcat, MetaKind, Query, Subject, WalConfig};
use srb_storage::LogDevice;
use srb_types::{CollectionId, CompareOp, LogicalPath, Lsn, ServerId, Triplet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Timed ingests per writer at `--seconds 20`.
const STEPS: u64 = 75_000;

/// Datasets already in the catalog when the writers start.
const PRESEED: usize = 5_000;

/// Virtual time the harness lets pass per ingest: a checkpoint every
/// ~25 000 ingests at the default interval.
const CLOCK_NS_PER_OP: u64 = 1_200_000;

const DATA: &str = "/home/bench/data";

/// The writer number pre-seeded rows are named after.
const SEEDER: usize = CLIENTS;

/// `serial` of writer `c`'s ingest `i` (pre-seeded rows count as writer
/// [`SEEDER`]).
fn serial_of(c: usize, i: u64) -> i64 {
    c as i64 * 100_000_000 + i as i64
}

fn path_of(c: usize, i: u64) -> String {
    format!("{DATA}/w{c}-{i:08}")
}

fn options(c: usize, i: u64, kind: usize) -> IngestOptions {
    IngestOptions::to_resource("fs")
        .with_metadata(Triplet::new("serial", serial_of(c, i), ""))
        .with_metadata(Triplet::new("kind", KINDS[kind], ""))
}

/// One site, one fs resource, the bench user, [`DATA`] holding `preseed`
/// datasets; durable over a fresh log device unless `device` is `None`
/// (the ladder's non-durable twin).
fn build_grid(seed: u64, preseed: usize, device: Option<Arc<LogDevice>>) -> (Grid, ServerId) {
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb-sdsc", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    if let Some(device) = device {
        grid.enable_durability(device, WalConfig::default())
            .expect("first and only WAL");
    }
    grid.register_user("bench", "sdsc", "pw")
        .expect("fresh user name");
    {
        let conn = connect(&grid, srv);
        conn.make_collection(DATA).expect("fresh collection");
        for i in 0..preseed as u64 {
            let op = ingest_op(seed, SEEDER, i);
            conn.ingest(
                &path_of(SEEDER, i),
                vec![b'x'; op.payload_len],
                options(SEEDER, i, op.kind),
            )
            .expect("seed ingest");
        }
    }
    (grid, srv)
}

fn connect(grid: &Grid, srv: ServerId) -> SrbConnection<'_> {
    SrbConnection::connect(grid, srv, "bench", "sdsc", "pw").expect("bench sign-on")
}

/// Log growth per acknowledged ingest, summed over the windows between
/// checkpoints (a checkpoint prunes the log, so a window that saw one is
/// dropped).
#[derive(Default)]
pub(super) struct LogMeter {
    last: Option<(Option<Lsn>, u64, u64)>,
    bytes: u64,
    ops: u64,
}

impl LogMeter {
    pub(super) fn sample(&mut self, device: &LogDevice, acked: u64) {
        let checkpoint = device.checkpoint_lsn();
        let bytes = device.log_bytes();
        if device.checkpoint_lsn() != checkpoint {
            self.last = None; // pruned while we looked
            return;
        }
        if let Some((prev_ckpt, prev_bytes, prev_acked)) = self.last {
            if prev_ckpt == checkpoint && bytes >= prev_bytes {
                self.bytes += bytes - prev_bytes;
                self.ops += acked - prev_acked;
            }
        }
        self.last = Some((checkpoint, bytes, acked));
    }

    pub(super) fn bytes_per_op(&self) -> f64 {
        self.bytes as f64 / self.ops.max(1) as f64
    }
}

/// State the writers share.
struct Shared {
    device: Arc<LogDevice>,
    /// Ingests acknowledged so far, by every writer.
    acked: AtomicU64,
}

/// The lower rungs' handles, present in traced runs only.
struct Ladder<'t> {
    twin: SrbConnection<'t>,
    twin_coll: CollectionId,
    scratch: LogDevice,
    scratch_lsn: u64,
    /// Observed WAL records and fsyncs per ingest, and bytes per record.
    records: u64,
    fsyncs: u64,
    record: String,
    tracer: Tracer,
}

struct Client<'g, 't> {
    conn: SrbConnection<'g>,
    seed: u64,
    /// Virtual time to let pass per ingest: [`CLOCK_NS_PER_OP`], or 0 in
    /// the traced run's untraced slices, so that a checkpoint stall in
    /// one of them does not pass for a scaling loss.
    clock_ns: u64,
    shared: &'g Shared,
    /// Step indexes this writer's ingests were acknowledged for.
    acked: Vec<u64>,
    /// Writer 0 samples the log every 500 of its ingests.
    meter: LogMeter,
    ladder: Option<Ladder<'t>>,
}

impl Client<'_, '_> {
    fn ingest(&mut self, c: usize, i: u64, rec: &mut Recorder) -> (Instant, Instant) {
        let op = ingest_op(self.seed, c, i);
        let payload = vec![b'x'; op.payload_len];
        self.conn.grid().clock.advance(self.clock_ns);
        let t = Instant::now();
        let r = self
            .conn
            .ingest(&path_of(c, i), payload, options(c, i, op.kind));
        rec.call(t, r.is_ok(), r.as_ref().map_or(0, |r| r.sim_ns));
        let end = Instant::now();
        if r.is_ok() {
            self.acked.push(i);
            let acked = self.shared.acked.fetch_add(1, Ordering::Relaxed) + 1;
            if c == 0 && i.is_multiple_of(500) {
                self.meter.sample(&self.shared.device, acked);
            }
        }
        (t, end)
    }

    fn plain_step(&mut self, c: usize, i: u64, rec: &mut Recorder) {
        self.ingest(c, i, rec);
    }

    /// The same ingest once per rung: durable, on the non-durable twin,
    /// as bare table writes on the twin, and as raw log-device appends
    /// and syncs of the observed record count and size.
    fn ladder_step(&mut self, c: usize, i: u64, rec: &mut Recorder) {
        let (t0, t1) = self.ingest(c, i, rec);
        let op = ingest_op(self.seed, c, i);
        let lad = self.ladder.as_mut().expect("traced run");
        let tr = &mut lad.tracer;
        let trace = tr.trace_id(i);
        let (durable, durable_ns) = tr.record(trace, 0, "srb-core.conn.ingest[durable]", t0, t1);
        tr.sample("harness.top_rung_p50_us", durable_ns);
        if !i.is_multiple_of(LADDER_EVERY) {
            return;
        }

        let twin = &lad.twin;
        let (ok, plain, plain_ns) = tr.span(trace, durable, "srb-core.conn.ingest[twin]", || {
            let payload = vec![b'x'; op.payload_len];
            twin.ingest(&path_of(c, i), payload, options(c, i, op.kind))
                .is_ok()
        });
        rec.rung(ok);
        tr.sample("srb-mcat.wal.self_us", durable_ns.saturating_sub(plain_ns));

        let (grid, mcat) = (twin.grid(), &twin.grid().mcat);
        let name = format!("w{c}-{i:08}r2");
        let (ok, tables, tables_ns) = tr.span(
            trace,
            plain,
            "srb-mcat.datasets.create+metadata.add",
            || {
                let spec = AccessSpec::Stored {
                    resource: grid.resource_id("fs").expect("the one resource"),
                    phys_path: format!("/bench/{name}"),
                };
                let created = mcat.datasets.create(
                    &mcat.ids,
                    lad.twin_coll,
                    &name,
                    "generic",
                    twin.user(),
                    vec![(spec, op.payload_len as u64, None)],
                    grid.clock.now(),
                );
                created.is_ok_and(|id| {
                    for t in options(c, i, op.kind).metadata {
                        mcat.metadata.add(
                            &mcat.ids,
                            Subject::Dataset(id),
                            t,
                            MetaKind::UserDefined,
                        );
                    }
                    true
                })
            },
        );
        rec.rung(ok);
        tr.sample("srb-mcat.tables.write_self_us", tables_ns);

        let t0 = Instant::now();
        for _ in 0..lad.records {
            lad.scratch_lsn += 1;
            lad.scratch.append(Lsn(lad.scratch_lsn), &lad.record);
        }
        let t1 = Instant::now();
        for _ in 0..lad.fsyncs {
            // An empty sync returns early; keep one record in the buffer
            // per sync as the WAL's commit markers do.
            lad.scratch_lsn += 1;
            lad.scratch.append(Lsn(lad.scratch_lsn), "{}");
            lad.scratch.sync();
        }
        let t2 = Instant::now();
        let (_, append_ns) = tr.record(trace, tables, "srb-storage.logdev.append", t0, t1);
        let (_, sync_ns) = tr.record(trace, tables, "srb-storage.logdev.sync", t1, t2);
        rec.rung(true);
        tr.sample(
            "srb-storage.logdev.append_us",
            append_ns / lad.records.max(1),
        );
        tr.sample("srb-storage.logdev.sync_us", sync_ns / lad.fsyncs.max(1));
        if i.is_multiple_of(1000) {
            lad.scratch.install_checkpoint(Lsn(lad.scratch_lsn), "{}");
        }
    }
}

/// What the power cut and recovery showed.
struct Recovery {
    ok: bool,
    tail_records: usize,
    read_back_s: f64,
    recovery_s: f64,
    recovered: Mcat,
}

/// `LogDevice::crash()` (the simulator's power cut: the unsynced buffer
/// is gone), `Mcat::recover`, then: every acknowledged path resolves,
/// `serial = i` finds it, and the entity counts equal the pre-crash ones.
fn crash_and_recover(grid: &Grid, shared: &Shared, acked: &[(usize, Vec<u64>)]) -> Recovery {
    let before = grid.mcat.summary();
    shared.device.crash();
    let tail_records = shared.device.stats().2;
    let t = Instant::now();
    let read = shared.device.read_back();
    let read_back_s = t.elapsed().as_secs_f64();
    drop(read);
    let t = Instant::now();
    let recovered = Mcat::recover(
        grid.clock.clone(),
        shared.device.clone(),
        WalConfig::default(),
        None,
    );
    let recovery_s = t.elapsed().as_secs_f64();
    let (recovered, _) = recovered.expect("the durable log replays");
    let scope = LogicalPath::parse(DATA).expect("constant path");
    let mut ok = recovered.summary() == before;
    for (c, steps) in acked {
        for &i in steps {
            let path = path_of(*c, i);
            let resolves = LogicalPath::parse(&path)
                .and_then(|lp| recovered.resolve_dataset(&lp))
                .is_ok();
            let q = Query::everywhere().under(scope.clone()).and(
                "serial",
                CompareOp::Eq,
                serial_of(*c, i),
            );
            let found = recovered
                .query(&q)
                .is_ok_and(|h| h.len() == 1 && h[0].path == path);
            ok &= resolves && found;
        }
    }
    Recovery {
        ok,
        tail_records,
        read_back_s,
        recovery_s,
        recovered,
    }
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let preseed = cfg.sized(PRESEED, 50);
    let steps = cfg.steps(STEPS);
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let shared = Shared {
        device: Arc::new(LogDevice::new()),
        acked: AtomicU64::new(0),
    };
    let (grid, srv) = build_grid(cfg.seed, preseed, Some(shared.device.clone()));
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client {
            conn: connect(&grid, srv),
            seed: cfg.seed,
            clock_ns: if cfg.trace { 0 } else { CLOCK_NS_PER_OP },
            shared: &shared,
            acked: Vec::new(),
            meter: LogMeter::default(),
            ladder: None,
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    if cfg.trace {
        traced(cfg, &mut out, &mut clients, &grid, &shared, preseed, steps);
        return out;
    }
    let before = grid.metrics_snapshot();
    let timed = drive(&mut clients, 0, warm_of(steps), steps, Client::plain_step);
    let after = grid.metrics_snapshot();
    end_to_end(&mut out, &timed, setup_s);
    let acked: Vec<_> = clients
        .iter_mut()
        .enumerate()
        .map(|(c, cl)| (c, std::mem::take(&mut cl.acked)))
        .collect();
    let rec = crash_and_recover(&grid, &shared, &acked);
    out.checks_ok = rec.ok;
    out.info.insert("recovery_s", rec.recovery_s);
    out.info
        .insert("log_bytes_per_op", clients[0].meter.bytes_per_op());
    out.info.insert(
        "checkpoints",
        (after.counter_total("wal.checkpoints") - before.counter_total("wal.checkpoints")) as f64,
    );
    out
}

/// Two untraced slices (1 writer, then 2), the one-writer ladder, the
/// power cut.
fn traced<'g>(
    cfg: &Cfg,
    out: &mut Outcome,
    clients: &mut [Client<'g, '_>],
    grid: &'g Grid,
    shared: &'g Shared,
    preseed: usize,
    steps: u64,
) {
    let slice = steps / 8;
    let start = grid.metrics_snapshot();
    let one = drive(
        &mut clients[..1],
        0,
        warm_of(slice),
        slice,
        Client::plain_step,
    );
    let after = grid.metrics_snapshot();
    let ingests = (warm_of(slice) + slice) as f64;
    let base = warm_of(slice) + slice;
    let two = drive(clients, base, 0, slice, Client::plain_step);
    let base = base + slice;

    let delta = |name: &str| (after.counter_total(name) - start.counter_total(name)) as f64;
    let records = delta("wal.appends") / ingests;
    let fsyncs = delta("wal.group_commits") / ingests;
    let log_bytes = clients[0].meter.bytes_per_op();
    let m = &mut out.metrics;
    m.insert("srb-mcat.wal.records_per_op", records);
    m.insert("srb-mcat.wal.fsyncs_per_op", fsyncs);
    m.insert("srb-mcat.wal.log_bytes_per_op", log_bytes);

    let (twin_grid, twin_srv) = build_grid(cfg.seed, preseed, None);
    let twin_coll = LogicalPath::parse(DATA)
        .and_then(|lp| twin_grid.mcat.collections.resolve(&lp))
        .expect("seeded collection");
    let record_len = (log_bytes / records.max(1.0)) as usize;
    let epoch = Instant::now();
    // One writer climbs the ladder: beside a second one its durable rung
    // would include the wait for the WAL mutex, and "durable − twin"
    // would not be the WAL's own time. What writers wait for each other
    // is `scaling_2c`. It lets virtual time pass as fast as the plain
    // run's writers together do, so checkpoints fire as often per ingest.
    // It borrows the twin, which lives only in this function, so it is a
    // further writer on the same grid.
    let mut rungs = [Client {
        conn: connect(grid, clients[0].conn.contact_server()),
        seed: cfg.seed,
        clock_ns: CLOCK_NS_PER_OP * CLIENTS as u64,
        shared,
        acked: Vec::new(),
        meter: LogMeter::default(),
        ladder: Some(Ladder {
            twin: connect(&twin_grid, twin_srv),
            twin_coll,
            scratch: LogDevice::new(),
            scratch_lsn: 0,
            records: records.round() as u64,
            fsyncs: fsyncs.round() as u64,
            record: "r".repeat(record_len.saturating_sub(16)),
            tracer: Tracer::new(epoch, 0),
        }),
    }];
    let ladder = drive(&mut rungs, base, 0, steps / 4, Client::ladder_step);

    let mut acked: Vec<_> = Vec::new();
    for (c, cl) in clients.iter_mut().enumerate() {
        acked.push((c, std::mem::take(&mut cl.acked)));
    }
    acked.push((0, std::mem::take(&mut rungs[0].acked)));
    out.tracers.extend(rungs[0].ladder.take().map(|l| l.tracer));
    layer_p50s(out);
    tally(out, &one);
    tally(out, &two);
    scaling(out, "srb-mcat.wal.scaling_2c", &one, &two);
    ladder_metrics(out, &one, &ladder);

    let end = grid.metrics_snapshot();
    let rec = crash_and_recover(grid, shared, &acked);
    out.checks_ok = rec.ok;
    let mut checkpoint_s = 0.0;
    for _ in 0..3 {
        let t = Instant::now();
        rec.recovered
            .checkpoint_now()
            .expect("recovered catalog is durable");
        checkpoint_s += t.elapsed().as_secs_f64() / 3.0;
    }
    let m = &mut out.metrics;
    m.insert("srb-mcat.wal.checkpoint_s", checkpoint_s);
    m.insert(
        "srb-mcat.wal.checkpoints",
        (end.counter_total("wal.checkpoints") - start.counter_total("wal.checkpoints")) as f64,
    );
    m.insert("srb-mcat.wal.recovery_s", rec.recovery_s);
    m.insert("srb-storage.logdev.read_back_s", rec.read_back_s);
    m.insert("srb-mcat.wal.replay_s", rec.recovery_s - rec.read_back_s);
    m.insert("srb-mcat.wal.tail_records", rec.tail_records as f64);
}
