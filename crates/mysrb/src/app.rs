//! The MySRB application: request routing and form handling, independent
//! of the transport. The HTTP server in [`crate::http`] drives
//! [`MySrb::respond`] with the body buffer of its previous reply; tests
//! drive [`MySrb::handle`], which is `respond` with a fresh buffer.

use crate::html::{page_close, page_open, text_input, Esc};
use crate::pages;
use crate::session::{SessionStore, WebSession};
use crate::urlenc::parse_form;
use srb_core::{Grid, IngestOptions, SrbConnection};
use srb_mcat::metadata::DUBLIN_CORE;
use srb_mcat::{AnnotationKind, Query, QueryCondition};
use srb_obs::metric;
use srb_types::{LogicalPath, ServerId, SrbError, Triplet};
use std::collections::HashMap;
use std::fmt::{self, Write};

/// A parsed HTTP request, transport-agnostic.
#[derive(Debug, Default, Clone)]
pub struct Request {
    /// `GET` or `POST`.
    pub method: String,
    /// Path without the query string, e.g. `/browse`.
    pub path: String,
    /// Query-string parameters.
    pub query: HashMap<String, String>,
    /// Form-body parameters (POST).
    pub form: HashMap<String, String>,
    /// The `mysrb_session` cookie value, when present.
    pub session: Option<String>,
}

impl Request {
    /// Build a GET request (tests, examples).
    pub fn get(path_and_query: &str, session: Option<&str>) -> Request {
        let (path, qs) = path_and_query
            .split_once('?')
            .unwrap_or((path_and_query, ""));
        Request {
            method: "GET".into(),
            path: path.to_string(),
            query: parse_form(qs),
            form: HashMap::new(),
            session: session.map(|s| s.to_string()),
        }
    }

    /// Build a POST request with a urlencoded body.
    pub fn post(path: &str, body: &str, session: Option<&str>) -> Request {
        Request {
            method: "POST".into(),
            path: path.to_string(),
            query: HashMap::new(),
            form: parse_form(body),
            session: session.map(|s| s.to_string()),
        }
    }

    fn param(&self, name: &str) -> &str {
        self.query
            .get(name)
            .or_else(|| self.form.get(name))
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// The `i`-th of a repeated parameter: `name`, then `name.1`, `name.2`…
    fn nth_param(&self, name: &str, i: usize) -> &str {
        if i == 0 {
            return self.param(name);
        }
        let mut key = String::with_capacity(name.len() + 4);
        let _ = write!(key, "{name}.{i}");
        self.param(&key)
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content type.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Extra headers (`Set-Cookie`, `Location`).
    pub headers: Vec<(String, String)>,
}

/// The content type of every page.
const HTML: &str = "text/html; charset=utf-8";

impl Response {
    /// A route's answer before its body joins it: the route wrote the body
    /// into the request's buffer, and [`MySrb::respond`] moves it in.
    fn with_status(status: u16, content_type: &'static str) -> Response {
        Response {
            status,
            content_type,
            body: Vec::new(),
            headers: Vec::new(),
        }
    }

    fn html() -> Response {
        Response::with_status(200, HTML)
    }

    fn redirect(out: &mut String, to: &str) -> Response {
        let _ = write!(out, "redirecting to {to}");
        let mut resp = Response::with_status(303, "text/html");
        resp.headers.push(("Location".into(), to.to_string()));
        resp
    }

    /// An error page: `html` (its text escaped by the caller), a way back.
    fn error(out: &mut String, status: u16, html: impl fmt::Display) -> Response {
        page_open(out, "MySRB — error", None, false);
        let _ = write!(
            out,
            "<p style=\"color:#900\">{html}</p><p><a href=\"/\">back</a></p>"
        );
        page_close(out);
        Response::with_status(status, HTML)
    }

    /// Body as UTF-8 (tests).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Front-end tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct MySrbConfig {
    /// Session-store sharding / sweep budget.
    pub session: crate::session::SessionConfig,
    /// Reuse pooled auth state on login instead of a full handshake per
    /// sign-on. Off is the unpooled ablation.
    pub pooled_login: bool,
}

impl Default for MySrbConfig {
    fn default() -> Self {
        MySrbConfig {
            session: crate::session::SessionConfig::default(),
            pooled_login: true,
        }
    }
}

/// The MySRB web application bound to one grid.
pub struct MySrb<'g> {
    grid: &'g Grid,
    contact: ServerId,
    sessions: SessionStore<'g>,
    pooled_login: bool,
    fed: Option<(&'g srb_core::Federation, srb_core::ZoneId)>,
}

impl<'g> MySrb<'g> {
    /// Create the app; browser sessions will connect through `contact`.
    pub fn new(grid: &'g Grid, contact: ServerId, seed: u64) -> Self {
        Self::with_config(grid, contact, seed, MySrbConfig::default())
    }

    /// Create the app with explicit front-end knobs (the load harness's
    /// ablation switch).
    pub fn with_config(grid: &'g Grid, contact: ServerId, seed: u64, config: MySrbConfig) -> Self {
        let mut sessions = SessionStore::with_config(grid.clock.clone(), seed, config.session);
        if let Some(obs) = grid.obs() {
            sessions = sessions.with_metrics(&obs.metrics);
        }
        MySrb {
            grid,
            contact,
            sessions,
            pooled_login: config.pooled_login,
            fed: None,
        }
    }

    /// Make the app zone-aware: `zone` is the federation member this
    /// front-end serves. Browse listings gain a zone column (home-zone
    /// provenance for remote rows) and `/grid-status` gains the
    /// federation panel.
    pub fn with_federation(
        mut self,
        fed: &'g srb_core::Federation,
        zone: srb_core::ZoneId,
    ) -> Self {
        self.fed = Some((fed, zone));
        self
    }

    /// The session store (tests).
    pub fn sessions(&self) -> &SessionStore<'g> {
        &self.sessions
    }

    /// Answer a request with a fresh body buffer (tests, examples):
    /// [`MySrb::respond`] with nothing to reuse.
    pub fn handle(&self, req: &Request) -> Response {
        self.respond(req, Vec::new())
    }

    /// Route a request to a handler that renders into `buf` (cleared
    /// first), which comes back as the reply's body for the caller to hand
    /// to its next request. Records per-route request, status and error
    /// metrics when the grid has observability on; requests no route
    /// matches share the label `other`, so unknown paths cannot grow it.
    pub fn respond(&self, req: &Request, mut buf: Vec<u8>) -> Response {
        buf.clear();
        let mut out = String::from_utf8(buf).unwrap_or_default();
        let (mut resp, route) = match self.route(req, &mut out) {
            Some(resp) => (resp, req.path.as_str()),
            None => {
                let msg = format_args!("no such page: {}", Esc(&req.path));
                (Response::error(&mut out, 404, msg), "other")
            }
        };
        if let Some(obs) = self.grid.obs() {
            obs.metrics.counter(metric!("web.requests"), route).inc();
            obs.metrics
                .counter(metric!("web.status"), &resp.status.to_string())
                .inc();
            if resp.status >= 400 {
                obs.metrics.counter(metric!("web.errors"), route).inc();
            }
        }
        resp.body = out.into_bytes();
        resp
    }

    fn route(&self, req: &Request, out: &mut String) -> Option<Response> {
        Some(match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/metrics") => {
                out.push_str(&self.grid.metrics_snapshot().render_text());
                Response::with_status(200, "text/plain; charset=utf-8")
            }
            ("GET", "/grid-status") => {
                page(out, |out| pages::grid_status(out, self.grid, self.fed))
            }
            ("GET", "/") | ("GET", "/login") => page(out, |out| pages::login_page(out, None)),
            ("POST", "/login") => self.login(req, out),
            ("GET", "/logout") => {
                if let Some(k) = &req.session {
                    self.sessions.remove(k);
                }
                Response::redirect(out, "/")
            }
            ("GET", "/browse") => self.with_session(req, out, |s, out| {
                let path = default_path(req.param("path"));
                let n: usize = req.param("n").parse().unwrap_or(0);
                let cursor = req.param("cursor");
                let cursor = (!cursor.is_empty()).then_some(cursor);
                let mark = out.len();
                match pages::browse_page(out, s, path, cursor, n, self.fed) {
                    // A stale or tampered cursor restarts the walk from
                    // page one instead of erroring the browser window.
                    Err(SrbError::Invalid(_)) if cursor.is_some() => {
                        out.truncate(mark);
                        pages::browse_page(out, s, path, None, n, self.fed)
                    }
                    other => other,
                }
            }),
            ("GET", "/view") => self.with_session(req, out, |s, out| {
                let args = req.query.get("args").map(std::slice::from_ref);
                pages::view_page(out, s, req.param("path"), args.unwrap_or_default())
            }),
            ("GET", "/meta") => self.with_session(req, out, |s, out| {
                pages::meta_page(out, s, req.param("path"))
            }),
            ("GET", "/ingest") => self.with_session(req, out, |s, out| {
                pages::ingest_form(out, s, req.param("coll"))
            }),
            ("POST", "/ingest") => self.ingest(req, out),
            ("GET", "/mkcoll") => self.with_session(req, out, |s, out| {
                page_open(out, "MySRB — new collection", Some(&s.user_label), false);
                let _ = write!(
                    out,
                    "<form method=\"post\" action=\"/mkcoll\">\
                     <input type=\"hidden\" name=\"parent\" value=\"{}\">",
                    Esc(req.param("parent"))
                );
                text_input(out, "Name", "name", "");
                out.push_str("<input type=\"submit\" value=\"Create\"></form>");
                page_close(out);
                Ok(())
            }),
            ("POST", "/mkcoll") => self.mkcoll(req, out),
            ("GET", "/query") => self.with_session(req, out, |s, out| {
                pages::query_form(out, s, default_path(req.param("scope")))
            }),
            ("POST", "/query") => self.query(req, out),
            ("GET", "/annotate") => self.with_session(req, out, |s, out| {
                pages::annotate_form(out, s, req.param("path"));
                Ok(())
            }),
            ("GET", "/register") => page(out, |out| pages::register_form(out, None)),
            ("POST", "/register") => self.register(req, out),
            ("GET", "/help") => page(out, pages::help_page),
            ("GET", "/edit") => self.with_session(req, out, |s, out| {
                self.check_editable(&s.conn, req.param("path"))?;
                pages::edit_form(out, s, req.param("path"))
            }),
            ("POST", "/edit") => self.with_session(req, out, |s, out| {
                let path = req.param("path");
                self.check_editable(&s.conn, path)?;
                s.conn.write(path, req.param("content").as_bytes())?;
                pages::view_page(out, s, path, &[])
            }),
            ("POST", "/annotate") => self.annotate(req, out),
            ("POST", "/delete") => self.delete(req, out),
            ("POST", "/replicate") => self.replicate(req, out),
            ("GET", "/admin") => self.with_session(req, out, |s, out| {
                pages::admin_page(out, s);
                Ok(())
            }),
            ("GET", "/api/summary") => {
                let mut resp = self.with_session(req, out, |s, out| {
                    let summary = serde_json::to_string_pretty(&s.conn.grid().mcat.summary())
                        .map_err(|e| SrbError::Internal(format!("summary serialization: {e}")))?;
                    out.push_str(&summary);
                    Ok(())
                });
                if resp.status == 200 {
                    resp.content_type = "application/json";
                }
                resp
            }
            _ => return None,
        })
    }

    /// Run `f` on the request's session, rendering into `out`.
    /// No valid session redirects to the sign-on page; a failing `f` has
    /// what it wrote truncated away and the grid error rendered instead.
    fn with_session<F>(&self, req: &Request, out: &mut String, f: F) -> Response
    where
        F: FnOnce(&WebSession<'g>, &mut String) -> Result<(), SrbError>,
    {
        let Some(key) = &req.session else {
            return Response::redirect(out, "/");
        };
        let mark = out.len();
        let done = self.sessions.with_session(key, |s| {
            let result = f(s, out);
            (result, s.conn.take_op_ns())
        });
        match done {
            Ok((result, op_ns)) => {
                if let Some(obs) = self.grid.obs() {
                    obs.metrics
                        .histogram(metric!("web.request_ns"), &req.path)
                        .observe(op_ns);
                }
                match result {
                    Ok(()) => Response::html(),
                    Err(e) => {
                        if let Some(obs) = self.grid.obs() {
                            obs.metrics
                                .counter(metric!("web.error_codes"), e.code())
                                .inc();
                        }
                        // Render a grid error without losing its kind: the
                        // HTTP status folds several `SrbError` variants
                        // together (503 covers both resource and site
                        // outages, 504 covers timeouts), so the stable
                        // error code rides along in the body for triage.
                        out.truncate(mark);
                        let html = format_args!("{} <code>[{}]</code>", Esc(&e), e.code());
                        Response::error(out, status_for(&e), html)
                    }
                }
            }
            Err(_) => Response::redirect(out, "/"),
        }
    }

    /// The paper's edit facility applies only to "a small ASCII file" of
    /// "a few data types".
    fn check_editable(&self, conn: &SrbConnection<'g>, path: &str) -> Result<(), SrbError> {
        let (data_type, size, _, _) = conn.stat(path)?;
        let editable = ["ascii text", "text", "t-language", "xml", "generic"]
            .iter()
            .any(|t| data_type.contains(t));
        if !editable {
            return Err(SrbError::Unsupported(format!(
                "editing is not allowed for data type '{data_type}'"
            )));
        }
        if size > 64 << 10 {
            return Err(SrbError::Unsupported(
                "editing is limited to small files (<= 64 KiB)".into(),
            ));
        }
        Ok(())
    }

    fn register(&self, req: &Request, out: &mut String) -> Response {
        let user = req.param("user");
        let domain = req.param("domain");
        let password = req.param("password");
        if user.is_empty() || domain.is_empty() || password.is_empty() {
            let msg = "user, domain and password are all required";
            pages::register_form(out, Some(msg));
        } else {
            match self.grid.register_user(user, domain, password) {
                Ok(_) => pages::login_page(out, Some("account created — sign on below")),
                Err(e) => pages::register_form(out, Some(&e.to_string())),
            }
        }
        Response::html()
    }

    fn login(&self, req: &Request, out: &mut String) -> Response {
        let user = req.param("user");
        let domain = req.param("domain");
        let password = req.param("password");
        let connected = if self.pooled_login {
            SrbConnection::connect_pooled(self.grid, self.contact, user, domain, password)
        } else {
            SrbConnection::connect(self.grid, self.contact, user, domain, password)
        };
        match connected {
            Ok(conn) => {
                let key = self.sessions.create(conn, &format!("{user}@{domain}"));
                let mut resp = Response::redirect(out, "/browse?path=%2F");
                resp.headers.push((
                    "Set-Cookie".into(),
                    format!("mysrb_session={key}; HttpOnly"),
                ));
                resp
            }
            Err(e) => {
                pages::login_page(out, Some(&e.to_string()));
                Response::html()
            }
        }
    }

    fn collect_metadata(req: &Request) -> Vec<Triplet> {
        let mut metadata = Vec::new();
        // Structural requirement fields: req_<name>.
        for (k, v) in req.form.iter() {
            if let Some(name) = k.strip_prefix("req_") {
                if !v.is_empty() && !name.contains('.') {
                    metadata.push(Triplet::new(name, v.as_str(), ""));
                }
            }
        }
        // Dublin Core fields: dc_<Element>.
        for element in DUBLIN_CORE {
            let v = req.param(&format!("dc_{element}"));
            if !v.is_empty() {
                metadata.push(Triplet::new(element, v, ""));
            }
        }
        // User-defined rows: meta_name / meta_name.1 / meta_name.2 …
        for i in 0..8 {
            let name = req.nth_param("meta_name", i);
            let value = req.nth_param("meta_value", i);
            let units = req.nth_param("meta_units", i);
            if !name.is_empty() && !value.is_empty() {
                metadata.push(Triplet::new(name, value, units));
            }
        }
        metadata
    }

    fn ingest(&self, req: &Request, out: &mut String) -> Response {
        self.with_session(req, out, |s, out| {
            let coll = req.param("coll");
            let name = req.param("name");
            if name.is_empty() {
                return Err(SrbError::Invalid("file name is required".into()));
            }
            let data_type = match req.param("data_type") {
                "" => "generic",
                t => t,
            };
            let mut opts = IngestOptions {
                data_type: data_type.to_string(),
                metadata: Self::collect_metadata(req),
                ..IngestOptions::default()
            };
            match req.param("container") {
                "" => opts.resource = Some(req.param("resource").to_string()),
                c => opts.container = Some(c.to_string()),
            }
            let path = format!("{}/{}", coll.trim_end_matches('/'), name);
            s.conn
                .ingest(&path, req.param("content").as_bytes(), opts)?;
            pages::browse_page(out, s, coll, None, 0, self.fed)
        })
    }

    fn mkcoll(&self, req: &Request, out: &mut String) -> Response {
        self.with_session(req, out, |s, out| {
            let parent = req.param("parent");
            let name = req.param("name");
            let path = format!("{}/{}", parent.trim_end_matches('/'), name);
            s.conn.make_collection(&path)?;
            pages::browse_page(out, s, parent, None, 0, self.fed)
        })
    }

    fn query(&self, req: &Request, out: &mut String) -> Response {
        self.with_session(req, out, |s, out| {
            let scope = LogicalPath::parse(default_path(req.param("scope")))?;
            let mut q = Query::everywhere().under(scope);
            q.include_system = !req.param("system").is_empty();
            q.include_annotations = !req.param("annotations").is_empty();
            // Four parallel arrays: attr / op / value / show.
            for i in 0..4 {
                let attr = req.nth_param("attr", i);
                let op = req.nth_param("op", i);
                let value = req.nth_param("value", i);
                let show = req.nth_param("show", i);
                if !attr.is_empty() && !value.is_empty() {
                    q.conditions.push(QueryCondition::parse(attr, op, value)?);
                }
                // "One can check the box of a metadata name without using it
                // as part of any query condition."
                if !show.is_empty() && !attr.is_empty() {
                    q.select.push(attr.to_string());
                }
            }
            let (hits, _) = s.conn.query(&q)?;
            pages::query_results(out, s, &q, &hits);
            Ok(())
        })
    }

    fn annotate(&self, req: &Request, out: &mut String) -> Response {
        self.with_session(req, out, |s, out| {
            let path = req.param("path");
            let kind = AnnotationKind::parse(req.param("kind")).unwrap_or(AnnotationKind::Comment);
            s.conn
                .annotate(path, kind, req.param("location"), req.param("text"))?;
            pages::view_page(out, s, path, &[])
        })
    }

    fn delete(&self, req: &Request, out: &mut String) -> Response {
        self.with_session(req, out, |s, out| {
            let path = req.param("path");
            let repl = req.param("replica").parse::<u32>().ok();
            s.conn.delete(path, repl)?;
            pages::browse_page(out, s, parent_of(path), None, 0, self.fed)
        })
    }

    fn replicate(&self, req: &Request, out: &mut String) -> Response {
        self.with_session(req, out, |s, out| {
            let path = req.param("path");
            s.conn.replicate(path, req.param("resource"))?;
            pages::view_page(out, s, path, &[])
        })
    }
}

/// A page that cannot fail, rendered into `out`.
fn page(out: &mut String, render: impl FnOnce(&mut String)) -> Response {
    render(out);
    Response::html()
}

fn default_path(p: &str) -> &str {
    if p.is_empty() {
        "/"
    } else {
        p
    }
}

fn parent_of(p: &str) -> &str {
    match p.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &p[..i],
    }
}

fn status_for(e: &SrbError) -> u16 {
    match e {
        SrbError::NotFound(_) => 404,
        SrbError::PermissionDenied(_) => 403,
        SrbError::AuthFailed(_) => 401,
        SrbError::AlreadyExists(_) | SrbError::Locked(_) => 409,
        SrbError::ResourceUnavailable(_) => 503,
        SrbError::Timeout(_) => 504,
        SrbError::Corrupt(_) | SrbError::Internal(_) => 500,
        _ => 400,
    }
}
