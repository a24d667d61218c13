//! Hostile input against the HTTP front door: the parser on arbitrary,
//! truncated and mutated bytes, and the socket path on pipelined, oversized
//! and stalled clients. Every client socket carries its own read timeout,
//! so a regression fails a test instead of hanging the suite.

use mysrb::http::{
    parse_request, serve, shutdown_poke, RequestError, MAX_BODY_BYTES, MAX_HEAD_BYTES,
    READ_DEADLINE,
};
use mysrb::urlenc::encode;
use mysrb::MySrb;
use proptest::prelude::*;
use srb_core::GridBuilder;
use std::collections::HashMap;
use std::io::{Cursor, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Parse `raw`, returning the outcome and how many bytes the parser read.
fn parse(raw: &[u8]) -> (Result<Option<mysrb::Request>, RequestError>, u64) {
    let mut cur = Cursor::new(raw);
    let out = parse_request(&mut cur);
    (out, cur.position())
}

fn mentions_content_length(raw: &[u8]) -> bool {
    raw.to_ascii_lowercase()
        .windows(b"content-length".len())
        .any(|w| w == b"content-length")
}

/// One well-formed request and the fields it must parse back to.
#[derive(Debug)]
struct Valid {
    post: bool,
    path: String,
    query: HashMap<String, String>,
    form: HashMap<String, String>,
    session: Option<String>,
}

impl Valid {
    fn wire(&self) -> Vec<u8> {
        let enc = |m: &HashMap<String, String>| {
            m.iter()
                .map(|(k, v)| format!("{}={}", encode(k), encode(v)))
                .collect::<Vec<_>>()
                .join("&")
        };
        let mut target = self.path.clone();
        if !self.query.is_empty() {
            target = format!("{target}?{}", enc(&self.query));
        }
        let method = if self.post { "POST" } else { "GET" };
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: grid\r\n");
        if let Some(key) = &self.session {
            head.push_str(&format!("Cookie: theme=dark; mysrb_session={key}\r\n"));
        }
        // A GET carries an empty form, so its body is empty too.
        let body = enc(&self.form);
        if self.post {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        format!("{head}\r\n{body}").into_bytes()
    }
}

fn params() -> impl Strategy<Value = HashMap<String, String>> {
    prop::collection::vec(("[a-z_]{1,6}", "[a-zA-Z0-9 /%&=+?;.~-]{0,12}"), 0..4)
        .prop_map(|pairs| pairs.into_iter().collect())
}

fn valid() -> impl Strategy<Value = Valid> {
    (
        any::<bool>(),
        "/[a-z]{0,8}",
        params(),
        params(),
        ("[a-f0-9.]{4,20}", any::<bool>()),
    )
        .prop_map(|(post, path, query, form, (key, has))| Valid {
            post,
            path,
            query,
            form: if post { form } else { HashMap::new() },
            session: has.then_some(key),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_read_past_the_head_cap(
        prefix in prop::collection::vec(any::<u8>(), 0..300),
        filler in (0usize..20_000, any::<u8>()),
    ) {
        let mut raw = prefix;
        raw.resize(raw.len() + filler.0, filler.1);
        let (out, read) = parse(&raw);
        prop_assert!(read <= MAX_HEAD_BYTES + MAX_BODY_BYTES as u64);
        if !mentions_content_length(&raw) {
            prop_assert!(read <= MAX_HEAD_BYTES, "read {read} head bytes");
        }
        if let Err(RequestError::Refused(status)) = out {
            prop_assert!([400, 413, 431].contains(&status), "status {status}");
        }
    }

    #[test]
    fn generated_valid_requests_round_trip(v in valid()) {
        let raw = v.wire();
        let (out, read) = parse(&raw);
        let req = match out {
            Ok(Some(req)) => req,
            other => return Err(TestCaseError::fail(format!("{other:?} for {v:?}"))),
        };
        prop_assert_eq!(read, raw.len() as u64);
        prop_assert_eq!(req.method, if v.post { "POST" } else { "GET" });
        prop_assert_eq!(&req.path, &v.path);
        prop_assert_eq!(&req.query, &v.query);
        prop_assert_eq!(&req.form, &v.form);
        prop_assert_eq!(&req.session, &v.session);
    }

    #[test]
    fn truncated_requests_fail_closed(v in valid(), cut in any::<usize>()) {
        let raw = v.wire();
        let cut = cut % raw.len();
        match parse(&raw[..cut]).0 {
            Ok(None) => prop_assert_eq!(cut, 0),
            Err(RequestError::Refused(400)) => prop_assert!(cut > 0),
            other => return Err(TestCaseError::fail(format!("cut {cut}: {other:?}"))),
        }
    }

    #[test]
    fn mutated_requests_never_panic(
        v in valid(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let mut raw = v.wire();
        for (at, byte) in edits {
            let at = at % raw.len();
            raw[at] = byte;
        }
        let (out, read) = parse(&raw);
        prop_assert!(read <= raw.len() as u64);
        if let Ok(Some(req)) = out {
            prop_assert!(!req.method.is_empty());
        }
    }
}

// ----------------------------------------------------------------- sockets --

/// Serve a fresh app for the length of `body`; the server stops on the way
/// out, even when `body` panics.
fn with_server(body: impl FnOnce(SocketAddr)) {
    struct Stop<'a>(&'a AtomicBool, SocketAddr);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
            shutdown_poke(&self.1.to_string());
        }
    }
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    let app = MySrb::new(&grid, srv, 3);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| serve(&app, listener, &shutdown));
        let _stop = Stop(&shutdown, addr);
        body(addr);
    });
}

fn connect(addr: SocketAddr, timeout: Duration) -> TcpStream {
    let conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(timeout)).unwrap();
    conn
}

/// Everything the server sends until it closes. A reset after the reply
/// counts as a close (the server may drop unread bytes); a timeout fails.
fn read_until_closed(conn: &mut TcpStream) -> Vec<u8> {
    let mut reply = Vec::new();
    if let Err(e) = conn.read_to_end(&mut reply) {
        assert_eq!(
            e.kind(),
            ErrorKind::ConnectionReset,
            "server kept the socket open"
        );
    }
    reply
}

fn count(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

#[test]
fn pipelined_requests_get_the_first_answered_then_the_socket_closed() {
    with_server(|addr| {
        let mut conn = connect(addr, READ_DEADLINE * 2);
        conn.write_all(b"GET /help HTTP/1.1\r\n\r\nGET /login HTTP/1.1\r\n\r\n")
            .unwrap();
        let reply = read_until_closed(&mut conn);
        assert!(reply.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert_eq!(count(&reply, b"HTTP/1.1 "), 1);
    });
}

#[test]
fn an_oversized_head_gets_431() {
    with_server(|addr| {
        let mut conn = connect(addr, READ_DEADLINE * 2);
        let mut raw = b"GET /help?pad=".to_vec();
        raw.resize(2 * MAX_HEAD_BYTES as usize, b'a');
        conn.write_all(&raw).unwrap();
        let reply = read_until_closed(&mut conn);
        assert!(
            reply.starts_with(b"HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{}",
            String::from_utf8_lossy(&reply)
        );
    });
}

#[test]
fn a_stalled_client_blocks_no_one_and_is_closed_by_the_deadline() {
    with_server(|addr| {
        let mut slow = connect(addr, READ_DEADLINE + Duration::from_secs(1));
        slow.write_all(b"GET /he").unwrap();
        let mut fast = connect(addr, READ_DEADLINE * 2);
        fast.write_all(b"GET /help HTTP/1.1\r\n\r\n").unwrap();
        assert!(read_until_closed(&mut fast).starts_with(b"HTTP/1.1 200"));
        // Closed unanswered within the deadline, not left to time out here.
        assert!(read_until_closed(&mut slow).is_empty());
    });
}
