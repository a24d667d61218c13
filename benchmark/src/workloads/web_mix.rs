//! `web_mix` — HTTP/1.1 over loopback TCP to `mysrb::http::serve`.
//!
//! The only workload where `mysrb` (accept and thread spawn,
//! `parse_request`, session validation, page rendering, `write_response`)
//! does most of the work and MCAT does little: every collection holds a
//! handful of rows. The 10 % ingest share puts writes beside reads on one
//! catalog, so scope-cache invalidation and write-guard contention show.
//! Non-durable grid, the `GridBuilder` default.

use super::{core_ops, drive, end_to_end, histogram_total, layer_p50s};
use super::{ladder_metrics, scaling, tally, warm_of, Cfg, Outcome, Recorder, LADDER_EVERY};
use crate::gen::{web_op, WebKind, WebOp, CLIENTS, WEB_SESSIONS, WEB_USERS};
use crate::trace::Tracer;
use mysrb::urlenc::encode;
use mysrb::{http, MySrb, Request};
use srb_core::{Grid, GridBuilder, IngestOptions, SrbConnection};
use srb_mcat::{AccessSpec, Query, Subject};
use srb_types::{CompareOp, LogicalPath, ServerId, Triplet};
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Timed requests per client at `--seconds 20`.
const STEPS: u64 = 60_000;

/// One site, one fs resource, `users` accounts each owning
/// `/home/u{j}/c` with two tagged datasets — LOAD's grid.
fn build_grid(users: usize) -> (Grid, ServerId) {
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    for j in 0..users {
        grid.register_user(&format!("u{j}"), "load", "pw")
            .expect("fresh user name");
    }
    for j in 0..users {
        let conn = SrbConnection::connect_pooled(&grid, srv, &format!("u{j}"), "load", "pw")
            .expect("seeding sign-on");
        let home = format!("/home/u{j}/c");
        conn.make_collection(&home).expect("fresh home collection");
        for d in 0..2 {
            conn.ingest(
                &format!("{home}/d{d}"),
                b"seed payload".as_slice(),
                IngestOptions::to_resource("fs")
                    .with_metadata(Triplet::new("kind", "text", ""))
                    .with_metadata(Triplet::new("score", (j * 2 + d) as i64, "")),
            )
            .expect("seed ingest");
        }
    }
    (grid, srv)
}

/// Sign one browser session on and return its cookie value.
fn login(app: &MySrb<'_>, user: usize) -> String {
    let body = format!("user=u{user}&domain=load&password=pw");
    let resp = app.handle(&Request::post("/login", &body, None));
    assert_eq!(resp.status, 303, "login must succeed for u{user}");
    resp.headers
        .iter()
        .find(|(k, _)| k == "Set-Cookie")
        .and_then(|(_, v)| v.strip_prefix("mysrb_session="))
        .and_then(|v| v.split(';').next())
        .expect("login response carries a session cookie")
        .to_string()
}

/// A request as bytes on the wire, plus what a correct reply looks like.
struct Wire {
    raw: Vec<u8>,
    status: &'static [u8],
    needle: String,
}

fn get(target: &str, key: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\nCookie: mysrb_session={key}\r\n\r\n")
        .into_bytes()
}

fn post(path: &str, body: &str, key: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nCookie: mysrb_session={key}\r\n\
         Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The bytes of `kind` against `home` (ingests create `name`), and the
/// status and page fragment its reply must carry: the expected dataset
/// or the generator's expected hit count.
fn wire(kind: WebKind, key: &str, home: &str, name: &str) -> Wire {
    match kind {
        WebKind::Browse => Wire {
            raw: get(&format!("/browse?path={}", encode(home)), key),
            status: b"200",
            needle: "d0</a>".into(),
        },
        WebKind::View(d) => Wire {
            raw: get(
                &format!("/view?path={}", encode(&format!("{home}/d{d}"))),
                key,
            ),
            status: b"200",
            needle: "seed payload".into(),
        },
        WebKind::Query => Wire {
            raw: post(
                "/query",
                &format!("scope={}&attr=kind&op=%3D&value=text", encode(home)),
                key,
            ),
            status: b"200",
            needle: "<h2>2 result(s)".into(),
        },
        WebKind::Ingest(len) => Wire {
            raw: post(
                "/ingest",
                &format!(
                    "coll={}&name={name}&resource=fs&content={}",
                    encode(home),
                    "x".repeat(len)
                ),
                key,
            ),
            status: b"200",
            needle: format!("{name}</a>"),
        },
    }
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// `HTTP/1.1 <status>` and the expected fragment in the body.
fn reply_ok(reply: &[u8], w: &Wire) -> bool {
    reply.get(9..12) == Some(w.status) && contains(reply, w.needle.as_bytes())
}

/// One connection per request, as the server dictates (`Connection:
/// close`): connect, send, read to end of stream.
fn roundtrip(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw)?;
    let mut reply = Vec::with_capacity(8192);
    stream.read_to_end(&mut reply)?;
    Ok(reply)
}

/// The lower rungs' handles, present in traced runs only.
struct Ladder<'a, 'g> {
    app: &'a MySrb<'g>,
    grid: &'g Grid,
    /// One pooled connection per user.
    conns: Vec<SrbConnection<'g>>,
    tracer: Tracer,
}

struct Client<'a, 'g> {
    addr: SocketAddr,
    seed: u64,
    users: usize,
    /// Global index of `keys[0]`; session `s` belongs to user
    /// `(first + s) % users`.
    first: usize,
    keys: Vec<String>,
    ladder: Option<Ladder<'a, 'g>>,
}

impl Client<'_, '_> {
    fn target(&self, c: usize, i: u64) -> (WebOp, usize, String, String) {
        let op = web_op(self.seed, c, i, self.keys.len());
        let user = (self.first + op.session) % self.users;
        (op, user, format!("/home/u{user}/c"), format!("g{c}x{i}"))
    }

    fn plain_step(&mut self, c: usize, i: u64, rec: &mut Recorder) {
        let (op, _, home, name) = self.target(c, i);
        let w = wire(op.kind, &self.keys[op.session], &home, &name);
        let t = Instant::now();
        let reply = roundtrip(self.addr, &w.raw);
        rec.call(t, reply.is_ok_and(|r| reply_ok(&r, &w)), 0);
    }

    /// The same generated request once per rung: socket, in-process
    /// parse + handle + write, the `SrbConnection` calls the page makes,
    /// the `Mcat` calls under those. Ingests are suffixed per rung; the
    /// ladder is thinned.
    fn ladder_step(&mut self, c: usize, i: u64, rec: &mut Recorder) {
        let (op, user, home, name) = self.target(c, i);
        let key = &self.keys[op.session];
        let lad = self.ladder.as_mut().expect("traced run");
        let tr = &mut lad.tracer;
        let trace = tr.trace_id(i);

        let w = wire(op.kind, key, &home, &name);
        let t = Instant::now();
        let reply = roundtrip(self.addr, &w.raw);
        rec.call(t, reply.is_ok_and(|r| reply_ok(&r, &w)), 0);
        let (socket, socket_ns) = tr.record(trace, 0, "socket.roundtrip", t, Instant::now());
        tr.sample("harness.top_rung_p50_us", socket_ns);
        if !i.is_multiple_of(LADDER_EVERY) {
            return;
        }

        let w = wire(op.kind, key, &home, &format!("{name}r1"));
        let t0 = Instant::now();
        let req = http::parse_request(&mut Cursor::new(&w.raw[..]))
            .ok()
            .flatten()
            .expect("generated request parses");
        let t1 = Instant::now();
        let resp = lad.app.handle(&req);
        let t2 = Instant::now();
        let mut buf = Vec::with_capacity(8192);
        http::write_response(&mut buf, &resp).expect("write to memory");
        let t3 = Instant::now();
        rec.rung(reply_ok(&buf, &w));
        let (inproc, inproc_ns) = tr.record(trace, socket, "mysrb.inprocess", t0, t3);
        let (_, parse_ns) = tr.record(trace, inproc, "mysrb.http.parse_request", t0, t1);
        let (handle, handle_ns) = tr.record(trace, inproc, "mysrb.app.handle", t1, t2);
        let (_, write_ns) = tr.record(trace, inproc, "mysrb.http.write_response", t2, t3);
        tr.sample(
            "mysrb.http.transport_self_us",
            socket_ns.saturating_sub(inproc_ns),
        );
        tr.sample("mysrb.http.parse_us", parse_ns);
        tr.sample("mysrb.http.write_us", write_ns);

        let conn = &lad.conns[user];
        let pane = |path: &str| conn.metadata(path).is_ok() && conn.annotations(path).is_ok();
        let listing = || conn.list_collection_page(&home, None, 500).is_ok() && pane(&home);
        let query = Query::everywhere()
            .under(LogicalPath::parse(&home).expect("generated path"))
            .and("kind", CompareOp::Eq, "text");
        let (ok, core, core_ns) = tr.span(trace, handle, core_name(op.kind), || match op.kind {
            WebKind::Browse => listing(),
            WebKind::View(d) => {
                let path = format!("{home}/d{d}");
                conn.open(&path, &[]).is_ok() && pane(&path)
            }
            WebKind::Query => conn.query(&query).is_ok_and(|(hits, _)| hits.len() == 2),
            WebKind::Ingest(len) => {
                let opts = IngestOptions::to_resource("fs");
                conn.ingest(&format!("{home}/{name}r2"), vec![b'x'; len], opts)
                    .is_ok()
                    && listing()
            }
        });
        rec.rung(ok);
        tr.sample("mysrb.app.self_us", handle_ns.saturating_sub(core_ns));

        let mcat = &lad.grid.mcat;
        let lp = LogicalPath::parse(&home).expect("generated path");
        let (ok, _, mcat_ns) = tr.span(trace, core, mcat_name(op.kind), || match op.kind {
            WebKind::Browse => mcat.collections.resolve(&lp).is_ok_and(|coll| {
                let _ = mcat.metadata.for_subject(Subject::Collection(coll));
                mcat.list_page(coll, None, 500).is_ok()
            }),
            WebKind::View(d) => {
                let path = lp.child(&format!("d{d}")).expect("generated name");
                mcat.resolve_dataset(&path)
                    .map(|id| mcat.metadata.for_subject(Subject::Dataset(id)))
                    .is_ok()
            }
            WebKind::Query => mcat.query(&query).is_ok_and(|hits| hits.len() == 2),
            WebKind::Ingest(len) => mcat.collections.resolve(&lp).is_ok_and(|coll| {
                let spec = AccessSpec::Stored {
                    resource: lad.grid.resource_id("fs").expect("the one resource"),
                    phys_path: format!("/bench/{name}r3"),
                };
                mcat.datasets
                    .create(
                        &mcat.ids,
                        coll,
                        &format!("{name}r3"),
                        "generic",
                        conn.user(),
                        vec![(spec, len as u64, None)],
                        lad.grid.clock.now(),
                    )
                    .is_ok()
            }),
        });
        rec.rung(ok);
        tr.sample("srb-core.ops.self_us", core_ns.saturating_sub(mcat_ns));
        if matches!(op.kind, WebKind::Ingest(_)) {
            tr.sample("srb-mcat.tables.write_self_us", mcat_ns);
        }
    }
}

fn core_name(kind: WebKind) -> &'static str {
    match kind {
        WebKind::Browse => "srb-core.conn.list_collection_page+metadata",
        WebKind::View(_) => "srb-core.conn.open+metadata",
        WebKind::Query => "srb-core.conn.query",
        WebKind::Ingest(_) => "srb-core.conn.ingest+list_collection_page",
    }
}

fn mcat_name(kind: WebKind) -> &'static str {
    match kind {
        WebKind::Browse => "srb-mcat.list_page",
        WebKind::View(_) => "srb-mcat.resolve_dataset+metadata",
        WebKind::Query => "srb-mcat.query",
        WebKind::Ingest(_) => "srb-mcat.datasets.create",
    }
}

/// Serve `app` on a loopback port for as long as `body` runs.
fn with_server<R>(app: &MySrb<'_>, body: impl FnOnce(SocketAddr) -> R) -> R {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| http::serve(app, listener, &shutdown));
        let out = body(addr);
        shutdown.store(true, Ordering::Release);
        http::shutdown_poke(&addr.to_string());
        out
    })
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let users = cfg.sized(WEB_USERS, 8);
    let per_client = cfg.sized(WEB_SESSIONS, 2 * users) / CLIENTS;
    let steps = cfg.steps(STEPS);
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let (grid, srv) = build_grid(users);
    let app = MySrb::new(&grid, srv, cfg.seed);
    let keys: Vec<String> = (0..per_client * CLIENTS)
        .map(|s| login(&app, s % users))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    with_server(&app, |addr| {
        let mut clients: Vec<Client> = keys
            .chunks(per_client)
            .enumerate()
            .map(|(c, chunk)| Client {
                addr,
                seed: cfg.seed,
                users,
                first: c * per_client,
                keys: chunk.to_vec(),
                ladder: None,
            })
            .collect();
        if cfg.trace {
            traced(&mut out, &mut clients, &grid, srv, &app, steps);
        } else {
            let before = grid.metrics_snapshot();
            let mut timed = drive(&mut clients, 0, warm_of(steps), steps, Client::plain_step);
            // HTTP hides receipts: the simulated cost is the mean the
            // front end attributed to its routes (warm-up included).
            let (n0, sum0) = histogram_total(&before, "web.request_ns");
            let (n1, sum1) = histogram_total(&grid.metrics_snapshot(), "web.request_ns");
            timed.sim_ns = (sum1 - sum0) * timed.attempted() / (n1 - n0).max(1);
            end_to_end(&mut out, &timed, setup_s);
        }
    });
    out.checks_ok = app.sessions().count() == per_client * CLIENTS;
    out
}

/// Two untraced slices (1 client, then 2) and the ladder.
fn traced<'a, 'g>(
    out: &mut Outcome,
    clients: &mut [Client<'a, 'g>],
    grid: &'g Grid,
    srv: ServerId,
    app: &'a MySrb<'g>,
    steps: u64,
) {
    let slice = steps / 8;
    let one = drive(
        &mut clients[..1],
        0,
        warm_of(slice),
        slice,
        Client::plain_step,
    );
    let base = warm_of(slice) + slice;
    let two = drive(clients, base, 0, slice, Client::plain_step);
    let base = base + slice;

    let epoch = Instant::now();
    for (c, client) in clients.iter_mut().enumerate() {
        client.ladder = Some(Ladder {
            app,
            grid,
            conns: (0..client.users)
                .map(|u| {
                    SrbConnection::connect_pooled(grid, srv, &format!("u{u}"), "load", "pw")
                        .expect("ladder sign-on")
                })
                .collect(),
            tracer: Tracer::new(epoch, c),
        });
    }
    let before = grid.metrics_snapshot();
    let ladder = drive(clients, base, 0, steps / 4, Client::ladder_step);
    let after = grid.metrics_snapshot();
    out.tracers = clients
        .iter_mut()
        .filter_map(|c| c.ladder.take().map(|l| l.tracer))
        .collect();
    layer_p50s(out);
    tally(out, &one);
    tally(out, &two);
    scaling(out, "mysrb.http.scaling_2c", &one, &two);
    ladder_metrics(out, &two, &ladder);
    let (hits, misses) = grid.pool.stats();
    let m = &mut out.metrics;
    m.insert("mysrb.session.live", app.sessions().count() as f64);
    m.insert(
        "core.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert("core.ops", core_ops(&before, &after));
}
