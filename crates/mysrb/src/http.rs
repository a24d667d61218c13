//! A minimal HTTP/1.1 server for the MySRB application.
//!
//! The paper serves MySRB over https with session cookies; DESIGN.md §2
//! documents the TLS substitution. This server handles GET/POST with
//! urlencoded bodies and the `mysrb_session` cookie — enough to drive every
//! page from a real browser. A fixed pool of `WORKERS` threads accepts
//! connections; each answers one request per connection (`Connection:
//! close`) in one write, within [`READ_DEADLINE`] per socket call and the
//! [`MAX_HEAD_BYTES`]/[`MAX_BODY_BYTES`] caps (DESIGN.md §14.1). Each
//! acceptor renders every page into the body buffer its previous reply
//! handed back, and sends from one reused wire buffer.

use crate::app::{MySrb, Request, Response};
use crate::urlenc::parse_form;
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Acceptor threads `serve` runs: the most requests in service at once.
pub(crate) const WORKERS: usize = 8;

/// Longest a worker waits on one socket read or write before dropping the
/// connection. Wall time: the simulated clock never sees the transport.
pub const READ_DEADLINE: Duration = Duration::from_secs(5);

/// Cap on the request line plus headers; past it the answer is 431.
pub const MAX_HEAD_BYTES: u64 = 8 << 10;

/// Cap on a request body; a larger `Content-Length` is answered 413.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// Why no request came out of the stream.
#[derive(Debug)]
pub enum RequestError {
    /// The socket failed or timed out; the connection is dropped unanswered.
    Io(std::io::Error),
    /// The request is answered with this status and never reaches the app.
    Refused(u16),
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// One head line without its line ending. A line cut by the head cap is
/// 431; one cut by the end of the stream, or not UTF-8, is 400.
fn head_line<'b>(
    input: &mut Take<&mut dyn BufRead>,
    buf: &'b mut Vec<u8>,
) -> Result<&'b str, RequestError> {
    buf.clear();
    input.read_until(b'\n', buf)?;
    if buf.last() != Some(&b'\n') {
        let status = if input.limit() == 0 { 431 } else { 400 };
        return Err(RequestError::Refused(status));
    }
    std::str::from_utf8(buf)
        .map(str::trim_end)
        .map_err(|_| RequestError::Refused(400))
}

/// Parse one HTTP request from a stream; `Ok(None)` when it ends before
/// the first byte. Reads at most [`MAX_HEAD_BYTES`] of head plus the
/// declared body, which must fit [`MAX_BODY_BYTES`].
pub fn parse_request(stream: &mut dyn BufRead) -> Result<Option<Request>, RequestError> {
    let mut input = Read::take(stream, MAX_HEAD_BYTES);
    if input.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let mut buf = Vec::new();
    let mut parts = head_line(&mut input, &mut buf)?.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(RequestError::Refused(400));
    };
    let (path, qs) = target.split_once('?').unwrap_or((target, ""));
    let mut req = Request {
        method: method.to_uppercase(),
        path: path.to_string(),
        query: parse_form(qs),
        ..Request::default()
    };
    let mut content_length = 0usize;
    loop {
        let header = head_line(&mut input, &mut buf)?;
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| RequestError::Refused(400))?
            }
            "cookie" => {
                for c in value.split(';') {
                    if let Some(v) = c.trim().strip_prefix("mysrb_session=") {
                        req.session = Some(v.to_string());
                    }
                }
            }
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::Refused(413));
    }
    if content_length > 0 {
        input.set_limit(content_length as u64);
        let mut body = Vec::new();
        input.read_to_end(&mut body)?;
        if body.len() < content_length {
            return Err(RequestError::Refused(400));
        }
        req.form = parse_form(&String::from_utf8_lossy(&body));
    }
    Ok(Some(req))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        303 => "See Other",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Status",
    }
}

/// Render a response's head and body into `wire` (cleared first).
fn wire_into(wire: &mut Vec<u8>, resp: &Response) {
    wire.clear();
    let _ = write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (k, v) in &resp.headers {
        let _ = write!(wire, "{k}: {v}\r\n");
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(&resp.body);
}

/// Serialize a response to the wire: head and body rendered into one
/// buffer and handed to `stream` in a single `write_all`.
pub fn write_response(stream: &mut dyn Write, resp: &Response) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(256 + resp.body.len());
    wire_into(&mut wire, resp);
    stream.write_all(&wire)?;
    stream.flush()
}

/// The most capacity an acceptor keeps in a buffer between connections.
/// One large reply (a big `view`) grows a buffer past it; that buffer is
/// dropped after the reply instead of being held for every later one.
pub(crate) const KEEP_BUF_BYTES: usize = 64 << 10;

/// Answer one connection: render into `body`, send head and body from
/// `wire` in one write, and hand the body back for the next connection.
fn handle_client(
    app: &MySrb<'_>,
    mut stream: &TcpStream,
    body: Vec<u8>,
    wire: &mut Vec<u8>,
) -> Vec<u8> {
    if stream.set_read_timeout(Some(READ_DEADLINE)).is_err()
        || stream.set_write_timeout(Some(READ_DEADLINE)).is_err()
    {
        return body;
    }
    let resp = match parse_request(&mut BufReader::new(stream)) {
        Ok(Some(req)) => app.respond(&req, body),
        Ok(None) | Err(RequestError::Io(_)) => return body,
        Err(RequestError::Refused(status)) => {
            let mut body = body;
            body.clear();
            let _ = writeln!(body, "{status} {}", reason(status));
            Response {
                status,
                content_type: "text/plain; charset=utf-8",
                body,
                headers: Vec::new(),
            }
        }
    };
    wire_into(wire, &resp);
    let _ = stream.write_all(wire);
    resp.body
}

/// One acceptor: serve connections until one arrives after `shutdown`,
/// then poke the listener once so the next blocked acceptor wakes too.
fn accept_loop(app: &MySrb<'_>, listener: &TcpListener, own: SocketAddr, shutdown: &AtomicBool) {
    let (mut body, mut wire) = (Vec::new(), Vec::new());
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::Acquire) {
            let _ = TcpStream::connect(own);
            return;
        }
        match accepted {
            Ok((stream, _)) => body = handle_client(app, &stream, body, &mut wire),
            Err(_) => return,
        }
        for buf in [&mut body, &mut wire] {
            if buf.capacity() > KEEP_BUF_BYTES {
                *buf = Vec::new();
            }
        }
    }
}

/// Serve the app on `listener` until `shutdown` turns true, on
/// `WORKERS` threads that each block in `accept` on the shared listener.
/// Returns once every worker has seen the flag; one `shutdown_poke` after
/// setting it is enough, as each exiting worker wakes the next.
pub fn serve(app: &MySrb<'_>, listener: TcpListener, shutdown: &AtomicBool) {
    // Blocking accepts only: a spinning non-blocking accept loop would peg
    // a core, so refuse to serve on a listener that cannot block.
    let Ok(own) = listener
        .set_nonblocking(false)
        .and_then(|()| listener.local_addr())
    else {
        return;
    };
    let listener = &listener;
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(move || accept_loop(app, listener, own, shutdown));
        }
    });
}

/// Unblock a `serve` loop waiting in `accept` after setting its flag.
pub fn shutdown_poke(addr: &str) {
    let _ = TcpStream::connect(addr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_core::{Grid, GridBuilder, IngestOptions, SrbConnection};
    use srb_types::ServerId;
    use std::io::Cursor;
    use std::sync::{mpsc, Barrier};

    #[test]
    fn parses_get_with_query_and_cookie() {
        let raw = "GET /browse?path=%2Fhome HTTP/1.1\r\nHost: x\r\n\
                   Cookie: other=1; mysrb_session=abc.def\r\n\r\n";
        let req = parse_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/browse");
        assert_eq!(req.query["path"], "/home");
        assert_eq!(req.session.as_deref(), Some("abc.def"));
    }

    #[test]
    fn parses_post_body() {
        let body = "user=sekar&domain=sdsc&password=pw";
        let raw = format!(
            "POST /login HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.form["user"], "sekar");
        assert_eq!(req.form["password"], "pw");
    }

    #[test]
    fn empty_stream_yields_none() {
        assert!(parse_request(&mut Cursor::new("")).unwrap().is_none());
    }

    fn refused(raw: &[u8]) -> Option<u16> {
        match parse_request(&mut Cursor::new(raw)) {
            Err(RequestError::Refused(status)) => Some(status),
            _ => None,
        }
    }

    #[test]
    fn oversized_or_malformed_requests_are_refused() {
        let over = MAX_BODY_BYTES + 1;
        let head = format!("POST /login HTTP/1.1\r\nContent-Length: {over}\r\n\r\n");
        let mut cur = Cursor::new(format!("{head}user=x"));
        assert!(matches!(
            parse_request(&mut cur),
            Err(RequestError::Refused(413))
        ));
        // Refused before a byte of the body is read.
        assert_eq!(cur.position(), head.len() as u64);
        let bad = b"POST /login HTTP/1.1\r\nContent-Length: ten\r\n\r\nuser=x";
        assert_eq!(refused(bad), Some(400));
        let mut long = b"GET /".to_vec();
        long.resize(MAX_HEAD_BYTES as usize + 1, b'a');
        assert_eq!(refused(&long), Some(431));
        assert_eq!(refused(b"GET / HTTP/1.1\r\nHost: x\r\n"), Some(400));
        assert_eq!(refused(b"\r\n\r\n"), Some(400));
    }

    #[test]
    fn response_serialization() {
        let resp = Response {
            status: 303,
            content_type: "text/html",
            body: b"x".to_vec(),
            headers: vec![("Location".into(), "/".into())],
        };
        let mut out = Vec::new();
        write_response(&mut out, &resp).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 303 See Other\r\n"));
        assert!(s.contains("Location: /\r\n"));
        assert!(s.contains("Content-Length: 1\r\n"));
        assert!(s.ends_with("\r\n\r\nx"));
    }

    #[test]
    fn respond_renders_into_the_buffer_it_is_handed() {
        let (grid, srv) = grid(0);
        let app = crate::MySrb::new(&grid, srv, 7);
        for req in [
            crate::Request::get("/help", None),
            crate::Request::get("/no-such-page", None),
        ] {
            let mut buf = Vec::with_capacity(1 << 14);
            buf.extend_from_slice(b"left over from the last reply");
            let at = buf.as_ptr();
            let resp = app.respond(&req, buf);
            // The same allocation, cleared first: the same bytes as a
            // fresh buffer gets.
            assert_eq!(resp.body.as_ptr(), at);
            assert_eq!(resp.body, app.handle(&req).body);
        }
    }

    #[test]
    fn an_acceptor_reuses_its_buffers_across_connections() {
        let (grid, srv) = grid(0);
        let app = crate::MySrb::new(&grid, srv, 7);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (mut body, mut wire) = (Vec::new(), Vec::new());
        let mut seen = Vec::new();
        for _ in 0..3 {
            let mut conn = client(addr);
            conn.write_all(b"GET /help HTTP/1.1\r\n\r\n").unwrap();
            let (stream, _) = listener.accept().unwrap();
            body = handle_client(&app, &stream, body, &mut wire);
            drop(stream);
            let mut reply = String::new();
            conn.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
            assert!(reply.contains("MySRB help"));
            seen.push((body.as_ptr(), wire.as_ptr()));
        }
        // After the first reply sized them, both buffers stay put.
        assert_eq!(seen[1], seen[2]);
    }

    /// A sink that records each `write` call it receives.
    #[derive(Default)]
    struct Counting {
        writes: Vec<usize>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_response_hands_head_and_body_over_in_one_write() {
        let resp = Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: vec![b'y'; 5000],
            headers: vec![
                ("Set-Cookie".into(), "mysrb_session=k; HttpOnly".into()),
                ("Location".into(), "/".into()),
            ],
        };
        let mut sink = Counting::default();
        write_response(&mut sink, &resp).unwrap();
        let mut whole = Vec::new();
        write_response(&mut whole, &resp).unwrap();
        assert_eq!(sink.writes, [whole.len()]);
    }

    fn grid(datasets: usize) -> (Grid, ServerId) {
        let mut gb = GridBuilder::new();
        let site = gb.site("sdsc");
        let srv = gb.server("srb", site);
        gb.fs_resource("fs", srv);
        let grid = gb.build();
        grid.register_user("u", "d", "pw").unwrap();
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        for i in 0..datasets {
            conn.ingest(
                &format!("/home/u/d{i}"),
                format!("payload {i}").as_bytes(),
                IngestOptions::to_resource("fs"),
            )
            .unwrap();
        }
        (grid, srv)
    }

    /// Connect with a read timeout, so a server that never answers fails
    /// the test instead of hanging it.
    fn client(addr: SocketAddr) -> TcpStream {
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(READ_DEADLINE * 2)).unwrap();
        conn
    }

    /// The reply to `raw`, read to the end of the stream.
    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut conn = client(addr);
        conn.write_all(raw.as_bytes()).unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        reply
    }

    /// `serve` on its own thread over a leaked app, so a shutdown that never
    /// completes fails [`Server::stop`] rather than hanging the test.
    struct Server {
        addr: SocketAddr,
        shutdown: &'static AtomicBool,
        finished: mpsc::Receiver<()>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Server {
        fn start(datasets: usize) -> Server {
            let (grid, srv) = grid(datasets);
            let grid: &'static Grid = Box::leak(Box::new(grid));
            let app: &'static MySrb<'static> = Box::leak(Box::new(crate::MySrb::new(grid, srv, 7)));
            let shutdown: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (done, finished) = mpsc::channel();
            let thread = std::thread::spawn(move || {
                serve(app, listener, shutdown);
                let _ = done.send(());
            });
            Server {
                addr,
                shutdown,
                finished,
                thread,
            }
        }

        /// Set the flag, poke once, and require `serve` to return.
        fn stop(self) {
            self.shutdown.store(true, Ordering::Release);
            shutdown_poke(&self.addr.to_string());
            self.finished
                .recv_timeout(READ_DEADLINE * 2)
                .expect("serve returns after one shutdown_poke");
            self.thread.join().unwrap();
        }
    }

    #[test]
    fn one_poke_stops_an_idle_pool() {
        let server = Server::start(0);
        let reply = roundtrip(server.addr, "GET /help HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"));
        server.stop();
    }

    #[test]
    fn one_poke_stops_the_pool_with_clients_in_flight() {
        let server = Server::start(0);
        let addr = server.addr;
        let n = WORKERS + 2;
        let started = Barrier::new(n + 1);
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        let mut conn = client(addr);
                        conn.write_all(b"GET /help HTTP/1.1\r\n").unwrap();
                        started.wait();
                        // The server may already have dropped a connection it
                        // accepted after the flag; then the write can fail.
                        let _ = conn.write_all(b"Host: x\r\n\r\n");
                        let mut reply = Vec::new();
                        match conn.read_to_end(&mut reply) {
                            Ok(_) => {}
                            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
                        }
                        reply
                    })
                })
                .collect();
            started.wait();
            server.stop();
            for c in clients {
                let reply = c.join().unwrap();
                // Answered in full, or closed unanswered by a stopping worker.
                assert!(reply.is_empty() || reply.starts_with(b"HTTP/1.1 200"));
            }
        });
    }

    #[test]
    fn more_concurrent_requests_than_workers_all_get_their_own_reply() {
        let n = WORKERS + 2;
        let server = Server::start(n);
        let addr = server.addr;
        let started = Barrier::new(n);
        let body = "user=u&domain=d&password=pw";
        let login = roundtrip(
            addr,
            &format!(
                "POST /login HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        let key = login
            .lines()
            .find_map(|l| l.strip_prefix("Set-Cookie: mysrb_session="))
            .and_then(|v| v.split(';').next())
            .expect("session cookie set");
        std::thread::scope(|s| {
            for i in 0..n {
                let started = &started;
                s.spawn(move || {
                    started.wait();
                    let reply = roundtrip(
                        addr,
                        &format!(
                            "GET /view?path=%2Fhome%2Fu%2Fd{i} HTTP/1.1\r\n\
                             Cookie: mysrb_session={key}\r\n\r\n"
                        ),
                    );
                    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
                    assert!(reply.contains(&format!("payload {i}")), "{reply}");
                });
            }
        });
        server.stop();
    }

    #[test]
    fn end_to_end_over_tcp() {
        let (grid, srv) = grid(0);
        let app = crate::MySrb::new(&grid, srv, 7);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| serve(&app, listener, &shutdown));
            // Login over a raw socket.
            let body = "user=u&domain=d&password=pw";
            let reply = roundtrip(
                addr,
                &format!(
                    "POST /login HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                ),
            );
            assert!(reply.starts_with("HTTP/1.1 303"));
            let key = reply
                .lines()
                .find_map(|l| l.strip_prefix("Set-Cookie: mysrb_session="))
                .map(|v| v.split(';').next().unwrap().to_string())
                .expect("session cookie set");
            // Browse with the cookie.
            let reply = roundtrip(
                addr,
                &format!("GET /browse?path=%2F HTTP/1.1\r\nCookie: mysrb_session={key}\r\n\r\n"),
            );
            assert!(reply.starts_with("HTTP/1.1 200"));
            assert!(reply.contains("MySRB"));
            shutdown.store(true, Ordering::Release);
            shutdown_poke(&addr.to_string());
        });
    }
}
