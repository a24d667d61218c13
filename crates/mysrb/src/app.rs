//! The MySRB application: request routing and form handling, independent
//! of the transport (the HTTP server in [`crate::http`] and the tests both
//! drive [`MySrb::handle`] directly).

use crate::pages;
use crate::session::SessionStore;
use crate::urlenc::parse_form;
use srb_core::{Grid, IngestOptions, SrbConnection};
use srb_mcat::metadata::DUBLIN_CORE;
use srb_mcat::{AnnotationKind, Query, QueryCondition};
use srb_types::{LogicalPath, ServerId, SrbError, Triplet};
use std::collections::HashMap;

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
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content type.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Extra headers (`Set-Cookie`, `Location`).
    pub headers: Vec<(String, String)>,
}

impl Response {
    fn html(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8".into(),
            body: body.into_bytes(),
            headers: Vec::new(),
        }
    }

    fn redirect(to: &str) -> Response {
        Response {
            status: 303,
            content_type: "text/html".into(),
            body: format!("redirecting to {to}").into_bytes(),
            headers: vec![("Location".into(), to.to_string())],
        }
    }

    fn error(status: u16, msg: &str) -> Response {
        Response {
            status,
            content_type: "text/html; charset=utf-8".into(),
            body: crate::html::page(
                "MySRB — error",
                None,
                None,
                &format!(
                    "<p style=\"color:#900\">{}</p><p><a href=\"/\">back</a></p>",
                    crate::html::escape(msg)
                ),
            )
            .into_bytes(),
            headers: Vec::new(),
        }
    }

    /// Render a grid error without losing its kind: the HTTP status folds
    /// several `SrbError` variants together (503 covers both resource and
    /// site outages, 504 covers timeouts), so the stable error code rides
    /// along in the body for triage.
    fn grid_error(e: &SrbError) -> Response {
        Response {
            status: status_for(e),
            content_type: "text/html; charset=utf-8".into(),
            body: crate::html::page(
                "MySRB — error",
                None,
                None,
                &format!(
                    "<p style=\"color:#900\">{} <code>[{}]</code></p><p><a href=\"/\">back</a></p>",
                    crate::html::escape(&e.to_string()),
                    e.code(),
                ),
            )
            .into_bytes(),
            headers: Vec::new(),
        }
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

    /// Route a request to a handler, recording per-route request, status
    /// and error metrics when the grid has observability on. Requests no
    /// route matches share the label `other`, so distinct unknown paths
    /// cannot grow the registry.
    pub fn handle(&self, req: &Request) -> Response {
        let (resp, route) = match self.route(req) {
            Some(resp) => (resp, req.path.as_str()),
            None => (
                Response::error(404, &format!("no such page: {}", req.path)),
                "other",
            ),
        };
        if let Some(obs) = self.grid.obs() {
            obs.metrics.counter("web.requests", route).inc();
            obs.metrics
                .counter("web.status", &resp.status.to_string())
                .inc();
            if resp.status >= 400 {
                obs.metrics.counter("web.errors", route).inc();
            }
        }
        resp
    }

    fn route(&self, req: &Request) -> Option<Response> {
        Some(match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/metrics") => Response {
                status: 200,
                content_type: "text/plain; charset=utf-8".into(),
                body: self.grid.metrics_snapshot().render_text().into_bytes(),
                headers: Vec::new(),
            },
            ("GET", "/grid-status") => Response::html(pages::grid_status(self.grid, self.fed)),
            ("GET", "/") | ("GET", "/login") => Response::html(pages::login_page(None)),
            ("POST", "/login") => self.login(req),
            ("GET", "/logout") => {
                if let Some(k) = &req.session {
                    self.sessions.remove(k);
                }
                Response::redirect("/")
            }
            ("GET", "/browse") => self.with_conn(req, |conn| {
                let path = default_path(req.param("path"));
                let n: usize = req.param("n").parse().unwrap_or(0);
                let cursor = req.param("cursor");
                let cursor = (!cursor.is_empty()).then_some(cursor);
                match pages::browse_page(conn, path, cursor, n, self.fed) {
                    // A stale or tampered cursor restarts the walk from
                    // page one instead of erroring the browser window.
                    Err(SrbError::Invalid(_)) if cursor.is_some() => {
                        pages::browse_page(conn, path, None, n, self.fed)
                    }
                    other => other,
                }
            }),
            ("GET", "/view") => self.with_conn(req, |conn| {
                let args: Vec<String> = req
                    .query
                    .get("args")
                    .map(|a| vec![a.clone()])
                    .unwrap_or_default();
                pages::view_page(conn, req.param("path"), &args)
            }),
            ("GET", "/meta") => {
                self.with_conn(req, |conn| pages::meta_page(conn, req.param("path")))
            }
            ("GET", "/ingest") => {
                self.with_conn(req, |conn| pages::ingest_form(conn, req.param("coll")))
            }
            ("POST", "/ingest") => self.ingest(req),
            ("GET", "/mkcoll") => self.with_conn(req, |conn| {
                let _ = conn; // form needs no catalog data
                Ok(crate::html::page(
                    "MySRB — new collection",
                    Some(""),
                    None,
                    &format!(
                        "<form method=\"post\" action=\"/mkcoll\">\
                         <input type=\"hidden\" name=\"parent\" value=\"{}\">\
                         {}<input type=\"submit\" value=\"Create\"></form>",
                        crate::html::escape(req.param("parent")),
                        crate::html::text_input("Name", "name", ""),
                    ),
                ))
            }),
            ("POST", "/mkcoll") => self.mkcoll(req),
            ("GET", "/query") => self.with_conn(req, |conn| {
                pages::query_form(conn, default_path(req.param("scope")))
            }),
            ("POST", "/query") => self.query(req),
            ("GET", "/annotate") => Response::html(pages::annotate_form(req.param("path"))),
            ("GET", "/register") => Response::html(pages::register_form(None)),
            ("POST", "/register") => self.register(req),
            ("GET", "/help") => Response::html(pages::help_page()),
            ("GET", "/edit") => self.with_conn(req, |conn| {
                self.check_editable(conn, req.param("path"))?;
                pages::edit_form(conn, req.param("path"))
            }),
            ("POST", "/edit") => self.with_conn(req, |conn| {
                let path = req.param("path");
                self.check_editable(conn, path)?;
                conn.write(path, req.param("content").as_bytes())?;
                pages::view_page(conn, path, &[])
            }),
            ("POST", "/annotate") => self.annotate(req),
            ("POST", "/delete") => self.delete(req),
            ("POST", "/replicate") => self.replicate(req),
            ("GET", "/admin") => self.with_conn(req, |conn| Ok(pages::admin_page(conn))),
            ("GET", "/api/summary") => self
                .with_conn(req, |conn| {
                    serde_json::to_string_pretty(&conn.grid().mcat.summary())
                        .map_err(|e| SrbError::Internal(format!("summary serialization: {e}")))
                })
                .into_json(),
            _ => return None,
        })
    }

    fn with_conn<F>(&self, req: &Request, f: F) -> Response
    where
        F: FnOnce(&SrbConnection<'g>) -> Result<String, SrbError>,
    {
        let Some(key) = &req.session else {
            return Response::redirect("/");
        };
        let out = self.sessions.with_session(key, |s| {
            let result = f(&s.conn);
            (result, s.conn.take_op_ns())
        });
        match out {
            Ok((result, op_ns)) => {
                if let Some(obs) = self.grid.obs() {
                    obs.metrics
                        .histogram("web.request_ns", &req.path)
                        .observe(op_ns);
                }
                match result {
                    Ok(html) => Response::html(html),
                    Err(e) => {
                        if let Some(obs) = self.grid.obs() {
                            obs.metrics.counter("web.error_codes", e.code()).inc();
                        }
                        Response::grid_error(&e)
                    }
                }
            }
            Err(_) => Response::redirect("/"),
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

    fn register(&self, req: &Request) -> Response {
        let user = req.param("user");
        let domain = req.param("domain");
        let password = req.param("password");
        if user.is_empty() || domain.is_empty() || password.is_empty() {
            return Response::html(pages::register_form(Some(
                "user, domain and password are all required",
            )));
        }
        match self.grid.register_user(user, domain, password) {
            Ok(_) => Response::html(pages::login_page(Some("account created — sign on below"))),
            Err(e) => Response::html(pages::register_form(Some(&e.to_string()))),
        }
    }

    fn login(&self, req: &Request) -> Response {
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
                let mut resp = Response::redirect("/browse?path=%2F");
                resp.headers.push((
                    "Set-Cookie".into(),
                    format!("mysrb_session={key}; HttpOnly"),
                ));
                resp
            }
            Err(e) => Response::html(pages::login_page(Some(&e.to_string()))),
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
            let suffix = if i == 0 {
                String::new()
            } else {
                format!(".{i}")
            };
            let name = req.param(&format!("meta_name{suffix}"));
            let value = req.param(&format!("meta_value{suffix}"));
            let units = req.param(&format!("meta_units{suffix}"));
            if !name.is_empty() && !value.is_empty() {
                metadata.push(Triplet::new(name, value, units));
            }
        }
        metadata
    }

    fn ingest(&self, req: &Request) -> Response {
        self.with_conn(req, |conn| {
            let coll = req.param("coll");
            let name = req.param("name");
            if name.is_empty() {
                return Err(SrbError::Invalid("file name is required".into()));
            }
            let data_type = if req.param("data_type").is_empty() {
                "generic".to_string()
            } else {
                req.param("data_type").to_string()
            };
            let mut opts = IngestOptions {
                data_type,
                ..IngestOptions::default()
            };
            let container = req.param("container");
            if !container.is_empty() {
                opts.container = Some(container.to_string());
            } else {
                opts.resource = Some(req.param("resource").to_string());
            }
            opts.metadata = Self::collect_metadata(req);
            let path = format!("{}/{}", coll.trim_end_matches('/'), name);
            conn.ingest(&path, req.param("content").as_bytes(), opts)?;
            pages::browse_page(conn, coll, None, 0, self.fed)
        })
    }

    fn mkcoll(&self, req: &Request) -> Response {
        self.with_conn(req, |conn| {
            let parent = req.param("parent");
            let name = req.param("name");
            let path = format!("{}/{}", parent.trim_end_matches('/'), name);
            conn.make_collection(&path)?;
            pages::browse_page(conn, parent, None, 0, self.fed)
        })
    }

    fn query(&self, req: &Request) -> Response {
        self.with_conn(req, |conn| {
            let scope = LogicalPath::parse(default_path(req.param("scope")))?;
            let mut q = Query::everywhere().under(scope);
            q.include_system = !req.param("system").is_empty();
            q.include_annotations = !req.param("annotations").is_empty();
            // Four parallel arrays: attr / op / value / show.
            for i in 0..4 {
                let suffix = if i == 0 {
                    String::new()
                } else {
                    format!(".{i}")
                };
                let attr = req.param(&format!("attr{suffix}"));
                let op = req.param(&format!("op{suffix}"));
                let value = req.param(&format!("value{suffix}"));
                let show = req.param(&format!("show{suffix}"));
                if !attr.is_empty() && !value.is_empty() {
                    q.conditions.push(QueryCondition::parse(attr, op, value)?);
                }
                // "One can check the box of a metadata name without using it
                // as part of any query condition."
                if !show.is_empty() && !attr.is_empty() {
                    q.select.push(attr.to_string());
                }
            }
            let (hits, _) = conn.query(&q)?;
            Ok(pages::query_results(&q, &hits))
        })
    }

    fn annotate(&self, req: &Request) -> Response {
        self.with_conn(req, |conn| {
            let path = req.param("path");
            let kind = AnnotationKind::parse(req.param("kind")).unwrap_or(AnnotationKind::Comment);
            conn.annotate(path, kind, req.param("location"), req.param("text"))?;
            pages::view_page(conn, path, &[])
        })
    }

    fn delete(&self, req: &Request) -> Response {
        self.with_conn(req, |conn| {
            let path = req.param("path");
            let repl = req.param("replica").parse::<u32>().ok();
            conn.delete(path, repl)?;
            pages::browse_page(conn, parent_of(path), None, 0, self.fed)
        })
    }

    fn replicate(&self, req: &Request) -> Response {
        self.with_conn(req, |conn| {
            let path = req.param("path");
            conn.replicate(path, req.param("resource"))?;
            pages::view_page(conn, path, &[])
        })
    }
}

trait IntoJson {
    fn into_json(self) -> Response;
}

impl IntoJson for Response {
    fn into_json(mut self) -> Response {
        if self.status == 200 {
            self.content_type = "application/json".into();
            // with_conn wrapped the JSON in the HTML page machinery only if
            // the closure returned page HTML; /api/summary returns raw JSON.
        }
        self
    }
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
        SrbError::ResourceUnavailable(_) | SrbError::SiteUnavailable(_) => 503,
        SrbError::Timeout(_) => 504,
        SrbError::Corrupt(_) | SrbError::Internal(_) => 500,
        _ => 400,
    }
}
