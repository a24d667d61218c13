//! `catalog_query` — in-process `SrbConnection` reads against one large
//! collection.
//!
//! `srb-mcat`'s planner, ordered indexes, cursors and the storage read
//! path do most of the work; `mysrb` does none, so a front-end change
//! must not move this workload and a planner or index change must. The
//! working set (5 × 10⁴ rows in one scope) is larger than anything `web_mix`
//! touches. Read-only.

use super::{core_ops, drive, end_to_end, ladder_metrics, layer_p50s, scaling, tally, warm_of};
use super::{Cfg, Outcome, Recorder};
use crate::gen::{cat_op, object_len, score, CatOp, CATALOG_DATASETS, CLIENTS, KINDS};
use crate::gen::{LIST_PAGE, RANGE_PAGE, RANGE_PAGES, SCORE_RANGE};
use crate::trace::Tracer;
use srb_core::{Grid, GridBuilder, IngestOptions, SrbConnection};
use srb_mcat::{AccessSpec, Query, QueryHit};
use srb_types::{CollectionId, CompareOp, CursorCodec, LogicalPath, PageToken, ServerId, Triplet};
use std::time::Instant;

/// Timed steps per client at `--seconds 20` (a range walk is one step
/// and four calls).
const STEPS: u64 = 2_000;

const DATA: &str = "/home/bench/data";

fn path_of(k: usize) -> String {
    format!("{DATA}/obj{k:07}")
}

/// Dataset `k`'s object: its own name, padded to its seeded length.
fn payload_of(seed: u64, k: usize) -> Vec<u8> {
    let mut p = format!("obj{k:07}").into_bytes();
    p.resize(object_len(seed, k), b'.');
    p
}

/// One site, one fs resource, `n` datasets under [`DATA`] with a unique
/// `serial`, a round-robin `kind` and a seeded `score` each — the shape
/// `bench::fixtures::seed_datasets` loads.
fn build_grid(seed: u64, n: usize, observability: bool) -> (Grid, ServerId) {
    let mut gb = GridBuilder::new();
    gb.observability(observability);
    let site = gb.site("sdsc");
    let srv = gb.server("srb-sdsc", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    grid.register_user("bench", "sdsc", "pw")
        .expect("fresh user name");
    {
        let conn = connect(&grid, srv);
        conn.make_collection(DATA).expect("fresh collection");
        for k in 0..n {
            conn.ingest(
                &path_of(k),
                payload_of(seed, k),
                IngestOptions::to_resource("fs")
                    .with_metadata(Triplet::new("serial", k as i64, ""))
                    .with_metadata(Triplet::new("kind", KINDS[k % 3], ""))
                    .with_metadata(Triplet::new("score", score(seed, k) as i64, "")),
            )
            .expect("seed ingest");
        }
    }
    (grid, srv)
}

fn connect(grid: &Grid, srv: ServerId) -> SrbConnection<'_> {
    SrbConnection::connect(grid, srv, "bench", "sdsc", "pw").expect("bench sign-on")
}

/// What the generator knows about the catalog without asking it.
struct Shape {
    n: usize,
    /// `below[kind][s]` = datasets of `kind` with `score < s`.
    below: [Vec<u32>; 3],
}

impl Shape {
    fn new(seed: u64, n: usize) -> Self {
        let mut below: [Vec<u32>; 3] =
            std::array::from_fn(|_| vec![0u32; SCORE_RANGE as usize + 1]);
        for k in 0..n {
            below[k % 3][score(seed, k) as usize + 1] += 1;
        }
        for per_kind in &mut below {
            for s in 1..per_kind.len() {
                per_kind[s] += per_kind[s - 1];
            }
        }
        Shape { n, below }
    }

    fn conj_hits(&self, kind: usize, lo: u64, width: u64) -> usize {
        (self.below[kind][(lo + width) as usize] - self.below[kind][lo as usize]) as usize
    }
}

fn scoped() -> Query {
    Query::everywhere().under(LogicalPath::parse(DATA).expect("constant path"))
}

fn point_query(k: usize) -> Query {
    scoped().and("serial", CompareOp::Eq, k as i64)
}

fn conj_query(kind: usize, lo: u64, width: u64) -> Query {
    let q = scoped().and("kind", CompareOp::Eq, KINDS[kind]);
    if width == 1 {
        q.and("score", CompareOp::Eq, lo as i64)
    } else {
        q.and("score", CompareOp::Ge, lo as i64)
            .and("score", CompareOp::Lt, (lo + width) as i64)
    }
}

fn range_query(start: usize) -> Query {
    scoped().and("serial", CompareOp::Ge, start as i64).and(
        "serial",
        CompareOp::Lt,
        (start + RANGE_PAGE * RANGE_PAGES) as i64,
    )
}

/// The hits are exactly datasets `from..from + len`, in order.
fn hits_are(hits: &[QueryHit], from: usize, len: usize) -> bool {
    hits.len() == len
        && hits
            .iter()
            .enumerate()
            .all(|(j, h)| h.path == path_of(from + j))
}

/// The lower rungs' handles, present in traced runs only.
struct Ladder {
    coll: CollectionId,
    codec: CursorCodec,
    tracer: Tracer,
}

struct Client<'g> {
    conn: SrbConnection<'g>,
    seed: u64,
    shape: &'g Shape,
    /// Rolling `list_collection_page` cursor: next page number and token.
    list_page: usize,
    list_token: Option<String>,
    /// Hits returned by queries, for the candidates-per-hit ratio.
    hits: u64,
    ladder: Option<Ladder>,
}

impl<'g> Client<'g> {
    fn new(grid: &'g Grid, srv: ServerId, seed: u64, shape: &'g Shape) -> Self {
        Client {
            conn: connect(grid, srv),
            seed,
            shape,
            list_page: 0,
            list_token: None,
            hits: 0,
            ladder: None,
        }
    }

    /// Rows the rolling cursor's next page must hold.
    fn list_expect(&self) -> (usize, usize) {
        let from = self.list_page * LIST_PAGE;
        (from, LIST_PAGE.min(self.shape.n - from))
    }

    fn list_advance(&mut self, next: Option<String>) {
        self.list_page = if next.is_some() {
            self.list_page + 1
        } else {
            0
        };
        self.list_token = next;
    }

    fn plain_step(&mut self, c: usize, i: u64, rec: &mut Recorder) {
        match cat_op(self.seed, c, i, self.shape.n) {
            CatOp::Point(k) => {
                let q = point_query(k);
                let t = Instant::now();
                let r = self.conn.query(&q);
                let (ok, sim) = r.map_or((false, 0), |(h, r)| (hits_are(&h, k, 1), r.sim_ns));
                rec.call(t, ok, sim);
                self.hits += 1;
            }
            CatOp::Conj { kind, lo, width } => {
                let q = conj_query(kind, lo, width);
                let want = self.shape.conj_hits(kind, lo, width);
                let t = Instant::now();
                let r = self.conn.query(&q);
                let (ok, sim) = r.map_or((false, 0), |(h, r)| (h.len() == want, r.sim_ns));
                rec.call(t, ok, sim);
                self.hits += want as u64;
            }
            CatOp::RangeWalk(start) => {
                let q = range_query(start);
                let mut token: Option<String> = None;
                for page in 0..RANGE_PAGES {
                    let t = Instant::now();
                    let r = self.conn.query_page(&q, token.as_deref(), RANGE_PAGE);
                    let (ok, sim, next) = r.map_or((false, 0, None), |(h, next, r)| {
                        let in_order = hits_are(&h, start + page * RANGE_PAGE, RANGE_PAGE);
                        let ends = next.is_none() == (page + 1 == RANGE_PAGES);
                        (in_order && ends, r.sim_ns, next)
                    });
                    rec.call(t, ok, sim);
                    token = next;
                }
                self.hits += (RANGE_PAGE * RANGE_PAGES) as u64;
            }
            CatOp::ListPage => {
                let (from, len) = self.list_expect();
                let t = Instant::now();
                let r = self
                    .conn
                    .list_collection_page(DATA, self.list_token.as_deref(), LIST_PAGE);
                let (ok, sim, next) = r.map_or((false, 0, None), |((_, rows, r), next)| {
                    let in_order = rows.len() == len
                        && rows
                            .iter()
                            .enumerate()
                            .all(|(j, row)| path_of(from + j).ends_with(&row.0));
                    (in_order, r.sim_ns, next)
                });
                rec.call(t, ok, sim);
                self.list_advance(next);
            }
            CatOp::Read(k) => {
                let path = path_of(k);
                let t = Instant::now();
                let r = self.conn.read(&path);
                let (ok, sim) = r.map_or((false, 0), |(b, r)| {
                    (b[..] == payload_of(self.seed, k), r.sim_ns)
                });
                rec.call(t, ok, sim);
            }
        }
    }

    /// The same generated input once per rung: the `SrbConnection` call,
    /// the `Mcat` call under it, and for cursor ops the token codec, for
    /// reads the storage driver.
    fn ladder_step(&mut self, c: usize, i: u64, rec: &mut Recorder) {
        let op = cat_op(self.seed, c, i, self.shape.n);
        let mut lad = self.ladder.take().expect("traced run");
        let tr = &mut lad.tracer;
        let trace = tr.trace_id(i);
        let mcat = &self.conn.grid().mcat;
        let top = |tr: &mut Tracer, ns: u64| tr.sample("harness.top_rung_p50_us", ns);
        match op {
            CatOp::Point(_) | CatOp::Conj { .. } => {
                let (q, want, metric) = match op {
                    CatOp::Point(k) => (point_query(k), 1, "srb-mcat.query.point_us"),
                    CatOp::Conj { kind, lo, width } => (
                        conj_query(kind, lo, width),
                        self.shape.conj_hits(kind, lo, width),
                        "srb-mcat.query.conj_us",
                    ),
                    _ => unreachable!("matched above"),
                };
                let t = Instant::now();
                let ok = self.conn.query(&q).is_ok_and(|(h, _)| h.len() == want);
                rec.call(t, ok, 0);
                let (core, core_ns) = tr.record(trace, 0, "srb-core.conn.query", t, Instant::now());
                top(tr, core_ns);
                let (ok, _, mcat_ns) = tr.span(trace, core, "srb-mcat.query", || {
                    mcat.query(&q).is_ok_and(|h| h.len() == want)
                });
                rec.rung(ok);
                tr.sample(metric, mcat_ns);
                tr.sample("srb-core.ops.self_us", core_ns.saturating_sub(mcat_ns));
            }
            CatOp::RangeWalk(start) => {
                let q = range_query(start);
                let mut token: Option<String> = None;
                for page in 0..RANGE_PAGES {
                    let from = start + page * RANGE_PAGE;
                    let t = Instant::now();
                    let r = self.conn.query_page(&q, token.as_deref(), RANGE_PAGE);
                    let (ok, next) = r.map_or((false, None), |(h, next, _)| {
                        (hits_are(&h, from, RANGE_PAGE), next)
                    });
                    rec.call(t, ok, 0);
                    let (core, core_ns) =
                        tr.record(trace, 0, "srb-core.conn.query_page", t, Instant::now());
                    top(tr, core_ns);
                    let (ok, below, mcat_ns) = tr.span(trace, core, "srb-mcat.query_page", || {
                        mcat.query_page(&q, token.as_deref(), RANGE_PAGE)
                            .is_ok_and(|(h, _)| hits_are(&h, from, RANGE_PAGE))
                    });
                    rec.rung(ok);
                    tr.sample("srb-mcat.query.range_page_us", mcat_ns);
                    tr.sample("srb-core.ops.self_us", core_ns.saturating_sub(mcat_ns));
                    codec_rung(tr, &lad.codec, trace, below, &path_of(from), rec);
                    token = next;
                }
            }
            CatOp::ListPage => {
                let (from, len) = self.list_expect();
                let token = self.list_token.clone();
                let t = Instant::now();
                let r = self
                    .conn
                    .list_collection_page(DATA, token.as_deref(), LIST_PAGE);
                let (ok, next) = r.map_or((false, None), |((_, rows, _), next)| {
                    (rows.len() == len, next)
                });
                rec.call(t, ok, 0);
                let (core, core_ns) = tr.record(
                    trace,
                    0,
                    "srb-core.conn.list_collection_page",
                    t,
                    Instant::now(),
                );
                top(tr, core_ns);
                let (ok, below, mcat_ns) = tr.span(trace, core, "srb-mcat.list_page", || {
                    mcat.list_page(lad.coll, token.as_deref(), LIST_PAGE)
                        .is_ok_and(|(_, rows, _)| rows.len() == len)
                });
                rec.rung(ok);
                tr.sample("srb-mcat.query.list_page_us", mcat_ns);
                tr.sample("srb-core.ops.self_us", core_ns.saturating_sub(mcat_ns));
                codec_rung(tr, &lad.codec, trace, below, &path_of(from), rec);
                self.list_advance(next);
            }
            CatOp::Read(k) => {
                let path = path_of(k);
                let t = Instant::now();
                let len = object_len(self.seed, k);
                let ok = self.conn.read(&path).is_ok_and(|(b, _)| b.len() == len);
                rec.call(t, ok, 0);
                let (core, core_ns) = tr.record(trace, 0, "srb-core.conn.read", t, Instant::now());
                top(tr, core_ns);
                // Resolve the replica outside the span: the rung is the
                // driver call alone.
                let grid = self.conn.grid();
                let replica = LogicalPath::parse(&path)
                    .and_then(|lp| mcat.resolve_dataset(&lp))
                    .and_then(|id| mcat.datasets.get(id))
                    .ok()
                    .and_then(|d| match d.replicas.first().map(|r| r.spec.clone()) {
                        Some(AccessSpec::Stored {
                            resource,
                            phys_path,
                        }) => Some((grid.driver(resource).ok()?, phys_path)),
                        _ => None,
                    });
                let (ok, _, read_ns) = tr.span(trace, core, "srb-storage.driver.read", || {
                    replica.is_some_and(|(driver, phys)| {
                        driver
                            .driver()
                            .read(&phys)
                            .is_ok_and(|(b, _)| b.len() == len)
                    })
                });
                rec.rung(ok);
                tr.sample("srb-storage.driver.read_us", read_ns);
            }
        }
        self.ladder = Some(lad);
    }
}

/// Encode and decode-and-validate one continuation token of the shape
/// the catalog issues (three generation stamps, a path).
fn codec_rung(
    tr: &mut Tracer,
    codec: &CursorCodec,
    trace: u64,
    parent: u32,
    last: &str,
    rec: &mut Recorder,
) {
    let gens = vec![7u64, 100_001, 300_003];
    let (ok, _, ns) = tr.span(
        trace,
        parent,
        "srb-types.cursor.encode+decode_fresh",
        || {
            let token = codec.encode(&PageToken {
                section: 0,
                gens: gens.clone(),
                last: last.to_string(),
            });
            codec.decode_fresh(&token, &gens).is_ok()
        },
    );
    rec.rung(ok);
    tr.sample("srb-types.cursor.codec_us", ns);
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let n = cfg.sized(CATALOG_DATASETS, 2 * RANGE_PAGE * RANGE_PAGES);
    let steps = cfg.steps(STEPS);
    let shape = Shape::new(cfg.seed, n);
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let (grid, srv) = build_grid(cfg.seed, n, true);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::new(&grid, srv, cfg.seed, &shape))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    if cfg.trace {
        traced(cfg, &mut out, &mut clients, &grid, &shape, steps);
    } else {
        let timed = drive(&mut clients, 0, warm_of(steps), steps, Client::plain_step);
        end_to_end(&mut out, &timed, setup_s);
    }
    out.checks_ok = grid.mcat.datasets.count() == n;
    out
}

/// Two untraced slices (1 client, then 2), the first again on a twin
/// grid with observability off, and the ladder.
fn traced<'g>(
    cfg: &Cfg,
    out: &mut Outcome,
    clients: &mut [Client<'g>],
    grid: &'g Grid,
    shape: &'g Shape,
    steps: u64,
) {
    let slice = steps / 8;
    let before = grid.metrics_snapshot();
    let one = drive(
        &mut clients[..1],
        0,
        warm_of(slice),
        slice,
        Client::plain_step,
    );
    let after = grid.metrics_snapshot();
    let hits = clients[0].hits;
    let base = warm_of(slice) + slice;
    let two = drive(clients, base, 0, slice, Client::plain_step);
    let base = base + slice;

    let delta = |name: &str| (after.counter_total(name) - before.counter_total(name)) as f64;
    let m = &mut out.metrics;
    m.insert(
        "srb-mcat.query.candidates_per_hit",
        delta("query.candidates_scanned") / (hits as f64).max(1.0),
    );
    m.insert(
        "srb-mcat.query.indexes_probed_per_plan",
        delta("query.indexes_probed") / delta("query.plans").max(1.0),
    );
    let (hit, miss) = (
        delta("query.scope_cache_hits"),
        delta("query.scope_cache_misses"),
    );
    m.insert(
        "srb-mcat.query.scope_cache_hit_ratio",
        hit / (hit + miss).max(1.0),
    );
    m.insert("storage.ops", delta("storage.ops"));
    m.insert("core.ops", core_ops(&before, &after));

    {
        let (dark, srv) = build_grid(cfg.seed, shape.n, false);
        let mut twins = [Client::new(&dark, srv, cfg.seed, shape)];
        let off = drive(&mut twins, 0, warm_of(slice), slice, Client::plain_step);
        tally(out, &off);
        out.metrics.insert(
            "srb-obs.overhead_ratio",
            off.throughput() / one.throughput(),
        );
    }

    let epoch = Instant::now();
    let coll = LogicalPath::parse(DATA)
        .and_then(|lp| grid.mcat.collections.resolve(&lp))
        .expect("seeded collection");
    for (c, client) in clients.iter_mut().enumerate() {
        client.ladder = Some(Ladder {
            coll,
            codec: CursorCodec::new(cfg.seed),
            tracer: Tracer::new(epoch, c),
        });
    }
    let ladder = drive(clients, base, 0, steps / 4, Client::ladder_step);
    out.tracers = clients
        .iter_mut()
        .filter_map(|c| c.ladder.take().map(|l| l.tracer))
        .collect();
    layer_p50s(out);
    tally(out, &one);
    tally(out, &two);
    scaling(out, "srb-mcat.query.scaling_2c", &one, &two);
    ladder_metrics(out, &two, &ladder);
}
