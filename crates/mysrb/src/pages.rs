//! Page renderers.
//!
//! Each function writes one MySRB page, in document order, into the reply's
//! body buffer `out`, driven entirely through the public `SrbConnection`
//! API (MySRB is a *client* of SRB, as in the paper). A renderer makes the
//! catalog calls that can fail before it writes a byte; the caller
//! truncates `out` before it renders an error page in its place.
//! Figure 1 of the paper corresponds to `browse_page`; Figure 2 to
//! `ingest_form`.

use crate::html::{page_close, page_mid, page_open, select, table_open, text_input, Esc, Url};
use crate::session::WebSession;
use srb_core::{BreakerState, Federation, Grid, ObjectContent, SrbConnection, ZoneId};
use srb_mcat::metadata::DUBLIN_CORE;
use srb_mcat::{AnnotationKind, MetaKind, Query, QueryHit};
use srb_obs::metric;
use srb_types::{CompareOp, LogicalPath, MetaValue, SrbResult};
use std::fmt::Write;
use std::iter::once;

/// The login page.
pub(crate) fn login_page(out: &mut String, message: Option<&str>) {
    page_open(out, "MySRB sign on", None, false);
    if let Some(m) = message {
        let _ = writeln!(out, "<p style=\"color:#900\">{}</p>", Esc(m));
    }
    out.push_str("<h2>Sign on to MySRB</h2>\n<form method=\"post\" action=\"/login\">\n");
    text_input(out, "User name", "user", "");
    text_input(out, "Domain", "domain", "sdsc");
    out.push_str(
        "<label>Password: <input type=\"password\" name=\"password\"></label><br>\n\
         <input type=\"submit\" value=\"Connect\">\n</form>\n",
    );
    page_close(out);
}

/// A link to each collection on the way down to `path`, the first being
/// the root.
fn breadcrumbs(out: &mut String, path: &str) {
    let Ok(lp) = LogicalPath::parse(path) else {
        let _ = write!(out, "{}", Esc(path));
        return;
    };
    out.push_str("<a href=\"/browse?path=%2F\">/</a>");
    for (depth, c) in lp.components().enumerate() {
        out.push_str(" &rsaquo; <a href=\"/browse?path=");
        for above in lp.components().take(depth + 1) {
            let _ = write!(out, "%2F{}", Url(above));
        }
        let _ = write!(out, "\">{}</a>", Esc(c));
    }
}

/// Render one metadata value, honouring the paper's "creative modes": a
/// value that is a URL or an SRB path becomes a clickable hot-link, and a
/// value whose *units* are `inline` has its content inlined (thumbnails,
/// database-backed properties).
fn render_meta_value(out: &mut String, conn: &SrbConnection, value: &str, units: &str) {
    let is_url = value.starts_with("http://") || value.starts_with("https://");
    let is_srb = value.starts_with('/') && value.len() > 1;
    if units == "inline" {
        if is_srb {
            if let Ok((content, _)) = conn.open(value, &[]) {
                let _ = write!(out, "<blockquote>{}</blockquote>", Esc(content.display()));
                return;
            }
        }
        if is_url {
            if let Ok((bytes, _)) = conn.grid().web.fetch(value) {
                let text = String::from_utf8_lossy(&bytes);
                let _ = write!(out, "<blockquote>{}</blockquote>", Esc(text));
                return;
            }
        }
    }
    let _ = if is_url {
        write!(out, "<a href=\"{v}\">{v}</a>", v = Esc(value))
    } else if is_srb {
        let (href, label) = (Url(value), Esc(value));
        write!(out, "<a href=\"/view?path={href}\">{label}</a>")
    } else {
        write!(out, "{}", Esc(value))
    };
}

/// The split window's top pane: where `path` sits, its metadata and its
/// annotations.
fn metadata_pane(out: &mut String, conn: &SrbConnection, path: &str) {
    out.push_str("<b>");
    breadcrumbs(out, path);
    out.push_str("</b><br>\n");
    match conn.metadata(path) {
        Ok(rows) if !rows.is_empty() => {
            table_open(out, ["attribute", "value", "units", "kind"]);
            for r in &rows {
                let t = &r.triplet;
                let _ = write!(out, "<tr><td>{}</td><td>", Esc(&t.name));
                match &t.value {
                    MetaValue::Text(v) => render_meta_value(out, conn, v, &t.units),
                    // A number is neither a link nor a path.
                    v => {
                        let _ = write!(out, "{v}");
                    }
                }
                let kind = match &r.kind {
                    MetaKind::System => "system",
                    MetaKind::UserDefined => "user",
                    MetaKind::TypeOriented(s) => s,
                    MetaKind::FileBased(_) => "file-based",
                };
                let (units, kind) = (Esc(&t.units), Esc(kind));
                let _ = writeln!(out, "</td><td>{units}</td><td>{kind}</td></tr>");
            }
            out.push_str("</table>\n");
        }
        Ok(_) => out.push_str("<i>no metadata</i>\n"),
        Err(e) => {
            let _ = writeln!(out, "<i>{}</i>", Esc(e));
        }
    }
    if let Ok(notes) = conn.annotations(path) {
        if !notes.is_empty() {
            out.push_str("<p><b>Annotations</b></p>\n<ul>\n");
            for n in notes {
                let (kind, text) = (Esc(n.kind.name()), Esc(&n.text));
                let (author, at) = (n.author, n.at);
                let _ = writeln!(out, "<li>[{kind}] {text} <i>({author} at {at})</i></li>");
            }
            out.push_str("</ul>\n");
        }
    }
}

/// The metadata-only view ("the user can select to just view the metadata
/// for an object").
pub(crate) fn meta_page(out: &mut String, s: &WebSession, path: &str) -> SrbResult<()> {
    // Permission check happens inside the pane's catalog calls; surface
    // resolution errors eagerly so missing objects 404.
    s.conn.metadata(path)?;
    let title = format_args!("MySRB — metadata of {}", Esc(path));
    page_open(out, title, Some(&s.user_label), false);
    metadata_pane(out, &s.conn, path);
    page_close(out);
    Ok(())
}

/// Rows per browse page when the request names no `n` — large enough that
/// small collections stay single-page, bounded so Digital-Sky-scale ones
/// cost O(page) per window.
const BROWSE_PAGE_ROWS: usize = 500;

/// Figure 1: the main collection page — metadata pane on top, the
/// collection listing with per-object operations below. Listing windows
/// are served by cursor (`cursor`/`n` request params): each page costs
/// O(page) in the catalog and ends with a stable `[next page]` link
/// carrying the opaque continuation token.
pub(crate) fn browse_page(
    out: &mut String,
    s: &WebSession,
    path: &str,
    cursor: Option<&str>,
    n: usize,
    fed: Option<(&Federation, ZoneId)>,
) -> SrbResult<()> {
    let n = if n == 0 { BROWSE_PAGE_ROWS } else { n };
    let ((subs, datasets, _), next) = s.conn.list_collection_page(path, cursor, n)?;
    let title = format_args!("MySRB — {}", Esc(path));
    page_open(out, title, Some(&s.user_label), true);
    metadata_pane(out, &s.conn, path);
    page_mid(out);
    let _ = writeln!(
        out,
        "<p class=\"ops\"><a href=\"/ingest?coll={p}\">[ingest file]</a> \
         <a href=\"/mkcoll?parent={p}\">[new sub-collection]</a> \
         <a href=\"/query?scope={p}\">[query]</a></p>",
        p = Url(path)
    );
    if subs.is_empty() && datasets.is_empty() && cursor.is_none() {
        out.push_str("<i>empty collection</i>\n");
    } else {
        let zone = fed.map(|_| "zone");
        let headers = ["name", "type", "size"].into_iter().chain(zone);
        table_open(out, headers.chain(["operations"]));
        let base = path.trim_end_matches('/');
        // Each row's full path, rebuilt in place.
        let mut full = String::new();
        for s in &subs {
            full.clear();
            let _ = write!(full, "{base}/{s}");
            let (href, name) = (Url(&full), Esc(s));
            let _ = write!(
                out,
                "<tr><td><a href=\"/browse?path={href}\">{name}</a></td><td>collection</td><td></td>"
            );
            if fed.is_some() {
                out.push_str("<td></td>");
            }
            out.push_str("<td></td></tr>\n");
        }
        for (name, ty, size) in &datasets {
            full.clear();
            let _ = write!(full, "{base}/{name}");
            let (p, name, ty) = (Url(&full), Esc(name), Esc(ty));
            let _ = write!(
                out,
                "<tr><td><a href=\"/view?path={p}\">{name}</a></td><td>{ty}</td><td>{size}</td>"
            );
            if let Some((f, here)) = fed {
                out.push_str("<td>");
                dataset_zone(out, f, here, &full);
                out.push_str("</td>");
            }
            let _ = writeln!(
                out,
                "<td><a href=\"/view?path={p}\">view</a> <a href=\"/meta?path={p}\">metadata</a> \
                 <a href=\"/annotate?path={p}\">annotate</a></td></tr>"
            );
        }
        out.push_str("</table>\n");
    }
    if let Some(token) = next {
        // The continuation token is opaque and self-validating; the link
        // stays stable for a given page until the collection mutates.
        let (p, token) = (Url(path), Url(&token));
        let _ = writeln!(
            out,
            "<p class=\"pager\"><a href=\"/browse?path={p}&n={n}&cursor={token}\">[next page]</a></p>"
        );
    }
    page_close(out);
    Ok(())
}

/// The object view: "when a user 'opens' a file, the attributes about the
/// file are displayed along with the contents of the file."
pub(crate) fn view_page(
    out: &mut String,
    s: &WebSession,
    path: &str,
    args: &[String],
) -> SrbResult<()> {
    let (content, receipt) = s.conn.open(path, args)?;
    let title = format_args!("MySRB — {}", Esc(path));
    page_open(out, title, Some(&s.user_label), true);
    metadata_pane(out, &s.conn, path);
    page_mid(out);
    match &content {
        ObjectContent::Bytes(b) => {
            let _ = writeln!(out, "<pre>{}</pre>", Esc(String::from_utf8_lossy(b)));
        }
        ObjectContent::Table { rendered, .. } => out.push_str(rendered),
        ObjectContent::Listing(files) => {
            out.push_str("<ul>\n");
            for f in files {
                let _ = writeln!(out, "<li>{}</li>", Esc(f));
            }
            out.push_str("</ul>\n");
        }
    }
    let (ms, tried, hops) = (receipt.sim_ms(), receipt.replicas_tried, receipt.hops);
    let _ = writeln!(
        out,
        "<p><small>served in {ms:.3} ms (simulated), {tried} replica(s) tried, {hops} hop(s)</small></p>"
    );
    page_close(out);
    Ok(())
}

/// Figure 2: the file-ingestion form with structural metadata (defaults and
/// restricted vocabularies as drop-downs), Dublin Core attributes, and
/// free user-defined attribute rows.
pub(crate) fn ingest_form(out: &mut String, s: &WebSession, coll: &str) -> SrbResult<()> {
    let mcat = &s.conn.grid().mcat;
    let lp = LogicalPath::parse(coll)?;
    let coll_id = mcat.collections.resolve(&lp)?;
    let requirements = mcat.requirements_for(coll_id)?;
    let (physical, logical) = (mcat.resources.list(), mcat.resources.list_logical());
    let containers = mcat.containers.list();
    page_open(out, "MySRB — ingest", Some(&s.user_label), false);
    let _ = write!(
        out,
        "<h2>Ingest into {c}</h2>\n<form method=\"post\" action=\"/ingest\">\n\
         <input type=\"hidden\" name=\"coll\" value=\"{c}\">\n",
        c = Esc(coll)
    );
    text_input(out, "File name", "name", "");
    out.push_str("<label>Resource: ");
    let logical = logical.iter().map(|r| r.name.as_str());
    let resources = physical.iter().map(|r| r.name.as_str()).chain(logical);
    select(out, "resource", resources, None);
    out.push_str("</label><br>\n<label>Container (overrides resource): ");
    let containers = once("").chain(containers.iter().map(|c| c.name.as_str()));
    select(out, "container", containers, None);
    out.push_str("</label><br>\n");
    text_input(out, "Data type", "data_type", "generic");
    out.push_str(
        "<label>Contents:<br><textarea name=\"content\" rows=\"6\" cols=\"60\">\
         </textarea></label><br>\n",
    );
    if !requirements.is_empty() {
        out.push_str("<h3>Collection metadata requirements</h3>\n");
        for req in &requirements {
            let name = Esc(&req.name);
            let star = if req.mandatory { " *" } else { "" };
            let _ = write!(out, "<label>{name}{star}: ");
            let default = req.default_value();
            if req.allowed.len() > 1 {
                let allowed = req.allowed.iter().map(String::as_str);
                select(out, format_args!("req_{name}"), allowed, default);
                out.push(' ');
            } else {
                let value = Esc(default.unwrap_or(""));
                let _ = write!(
                    out,
                    "<input type=\"text\" name=\"req_{name}\" value=\"{value}\"> "
                );
            }
            let _ = writeln!(out, "<small>{}</small></label><br>", Esc(&req.comment));
        }
    }
    out.push_str("<h3>Dublin Core attributes</h3>\n");
    for element in DUBLIN_CORE {
        text_input(out, element, format_args!("dc_{}", Esc(element)), "");
    }
    out.push_str("<h3>User-defined attributes</h3>\n");
    for _ in 0..3 {
        out.push_str(
            "<input type=\"text\" name=\"meta_name\" placeholder=\"name\"> = \
             <input type=\"text\" name=\"meta_value\" placeholder=\"value\"> \
             <input type=\"text\" name=\"meta_units\" placeholder=\"units\" size=\"6\"><br>\n",
        );
    }
    out.push_str("<p><input type=\"submit\" value=\"Ingest\"></p>\n</form>\n");
    page_close(out);
    Ok(())
}

/// The query builder: four-part conditions ("a metadata name part which is
/// a drop-down menu … a comparison operator … a text box … a checkbox").
pub(crate) fn query_form(out: &mut String, s: &WebSession, scope: &str) -> SrbResult<()> {
    let lp = LogicalPath::parse(scope)?;
    let attrs = s.conn.grid().mcat.queryable_attrs(&lp)?;
    page_open(out, "MySRB — query", Some(&s.user_label), false);
    let _ = write!(
        out,
        "<h2>Query under {s}</h2>\n<form method=\"post\" action=\"/query\">\n\
         <input type=\"hidden\" name=\"scope\" value=\"{s}\">\n<table>\n\
         <tr><th>attribute</th><th>operator</th><th>value</th><th>show</th></tr>\n",
        s = Esc(scope)
    );
    for _ in 0..4 {
        out.push_str("<tr><td>");
        select(
            out,
            "attr",
            once("").chain(attrs.iter().map(String::as_str)),
            None,
        );
        out.push_str("</td><td>");
        let ops = CompareOp::all().iter().map(|o| o.display());
        select(out, "op", ops, None);
        out.push_str(
            "</td><td><input type=\"text\" name=\"value\"></td>\
             <td><input type=\"checkbox\" name=\"show\" value=\"1\"></td></tr>\n",
        );
    }
    out.push_str(
        "</table>\n<label><input type=\"checkbox\" name=\"system\" value=\"1\"> \
         include system metadata</label>\n\
         <label><input type=\"checkbox\" name=\"annotations\" value=\"1\"> \
         include annotations</label>\n\
         <p><input type=\"submit\" value=\"Search\"></p>\n</form>\n",
    );
    page_close(out);
    Ok(())
}

/// Query result listing.
pub(crate) fn query_results(out: &mut String, s: &WebSession, q: &Query, hits: &[QueryHit]) {
    page_open(out, "MySRB — results", Some(&s.user_label), false);
    let (count, scope) = (hits.len(), Esc(&q.scope));
    let _ = writeln!(out, "<h2>{count} result(s) under {scope}</h2>");
    if hits.is_empty() {
        out.push_str("<i>no objects satisfy the conditions</i>\n");
    } else {
        table_open(
            out,
            once("object").chain(q.select.iter().map(String::as_str)),
        );
        for h in hits {
            let (href, path) = (Url(&h.path), Esc(&h.path));
            let _ = write!(out, "<tr><td><a href=\"/view?path={href}\">{path}</a></td>");
            for (_, v) in &h.selected {
                let _ = write!(out, "<td>{}</td>", Esc(v));
            }
            out.push_str("</tr>\n");
        }
        out.push_str("</table>\n");
    }
    page_close(out);
}

/// The annotation entry form.
pub(crate) fn annotate_form(out: &mut String, s: &WebSession, path: &str) {
    page_open(out, "MySRB — annotate", Some(&s.user_label), false);
    let _ = write!(
        out,
        "<h2>Annotate {p}</h2>\n<form method=\"post\" action=\"/annotate\">\n\
         <input type=\"hidden\" name=\"path\" value=\"{p}\">\n<label>Kind: ",
        p = Esc(path)
    );
    select(
        out,
        "kind",
        AnnotationKind::all().iter().map(|k| k.name()),
        None,
    );
    out.push_str("</label><br>\n");
    text_input(out, "Location (optional)", "location", "");
    out.push_str(
        "<label>Text:<br><textarea name=\"text\" rows=\"4\" cols=\"60\"></textarea></label><br>\n\
         <input type=\"submit\" value=\"Add annotation\">\n</form>\n",
    );
    page_close(out);
}

/// The user-registration form (the paper lists "user registration" among
/// MySRB's additional functionalities).
pub(crate) fn register_form(out: &mut String, message: Option<&str>) {
    page_open(out, "MySRB — register", None, false);
    if let Some(m) = message {
        let _ = writeln!(out, "<p style=\"color:#900\">{}</p>", Esc(m));
    }
    out.push_str(
        "<h2>Register a MySRB account</h2>\n<form method=\"post\" action=\"/register\">\n",
    );
    text_input(out, "User name", "user", "");
    text_input(out, "Domain", "domain", "sdsc");
    out.push_str(
        "<label>Password: <input type=\"password\" name=\"password\"></label><br>\n\
         <input type=\"submit\" value=\"Register\">\n</form>\n\
         <p><a href=\"/\">back to sign on</a></p>\n",
    );
    page_close(out);
}

/// The edit form for small ASCII files ("a user can … edit a file, if it
/// is a small ASCII file (the edit facility is allowed only for a few
/// data types)").
pub(crate) fn edit_form(out: &mut String, s: &WebSession, path: &str) -> SrbResult<()> {
    let (content, _) = s.conn.open(path, &[])?;
    page_open(out, "MySRB — edit", Some(&s.user_label), false);
    let _ = write!(
        out,
        "<h2>Edit {p}</h2>\n<form method=\"post\" action=\"/edit\">\n\
         <input type=\"hidden\" name=\"path\" value=\"{p}\">\n\
         <textarea name=\"content\" rows=\"16\" cols=\"80\">{}</textarea><br>\n\
         <input type=\"submit\" value=\"Save\">\n</form>\n",
        Esc(content.display()),
        p = Esc(path)
    );
    page_close(out);
    Ok(())
}

/// On-line help (the paper lists "on-line help" among MySRB's additional
/// functionalities).
pub(crate) fn help_page(out: &mut String) {
    page_open(out, "MySRB — help", None, false);
    out.push_str(
        "\
<h2>MySRB help</h2>
<ul>
<li><b>Browse</b>: the small top window shows metadata about the current
collection; the larger bottom window lists its elements. Click a name to
open it — a file shows its attributes together with its contents.</li>
<li><b>Ingest</b>: choose a resource (a logical resource stores synchronous
replicas on all its members) or a container (overrides the resource).
Attributes required by the collection are marked with *; restricted
vocabularies appear as drop-downs.</li>
<li><b>Query</b>: each condition has an attribute (drop-down of names
queryable in the scope), an operator (=, &gt;, &lt;, &lt;=, &gt;=, &lt;&gt;,
like, not like), a value, and a check-box to show the attribute in the
result listing. Conditions are ANDed.</li>
<li><b>Annotations</b>: any user with read permission may attach comments,
ratings, errata, dialogues, annotations or memos.</li>
<li><b>Sessions</b> expire after 60 minutes; sign on again.</li>
</ul>
<p><a href=\"/\">back</a></p>\n",
    );
    page_close(out);
}

/// Grid administration overview (resources, servers, catalog counts,
/// recent audit rows).
pub(crate) fn admin_page(out: &mut String, s: &WebSession) {
    let grid = s.conn.grid();
    page_open(out, "MySRB — admin", Some(&s.user_label), false);
    out.push_str("<h2>Grid status</h2>\n<h3>Resources</h3>\n");
    table_open(out, ["name", "kind", "site", "status"]);
    for r in grid.mcat.resources.list() {
        let status = if grid.resource_is_up(r.id) {
            "up"
        } else {
            "<b>DOWN</b>"
        };
        let (name, kind, site) = (
            Esc(&r.name),
            Esc(r.kind.name()),
            grid.network.site_name(r.site),
        );
        let _ = writeln!(
            out,
            "<tr><td>{name}</td><td>{kind}</td><td>{site}</td><td>{status}</td></tr>"
        );
    }
    out.push_str("</table>\n<h3>Containers</h3>\n");
    table_open(out, ["name", "members", "fill", "archive"]);
    for c in grid.mcat.containers.list() {
        let (name, members, size, max) = (Esc(&c.name), c.members.len(), c.size, c.max_size);
        let archive = if c.synced { "synced" } else { "dirty" };
        let _ = writeln!(
            out,
            "<tr><td>{name}</td><td>{members}</td><td>{size} / {max}</td><td>{archive}</td></tr>"
        );
    }
    out.push_str("</table>\n<h3>Users</h3>\n");
    table_open(out, ["name", "groups", "role"]);
    for u in grid.mcat.users.list_users() {
        let (name, groups) = (Esc(u.qualified()), u.groups.len());
        let role = if u.is_admin { "admin" } else { "user" };
        let _ = writeln!(
            out,
            "<tr><td>{name}</td><td>{groups}</td><td>{role}</td></tr>"
        );
    }
    out.push_str("</table>\n<h3>Catalog</h3>\n<pre>");
    let _ = match serde_json::to_string_pretty(&grid.mcat.summary()) {
        Ok(summary) => write!(out, "{}", Esc(summary)),
        Err(e) => write!(out, "catalog summary unavailable: {}", Esc(e)),
    };
    out.push_str("</pre>\n<h3>Recent audit rows</h3>\n");
    table_open(out, ["time", "user", "action", "subject", "outcome"]);
    for r in grid.mcat.audit.recent(20) {
        let (at, user, action) = (r.at, r.user, r.action.name());
        let (subject, outcome) = (Esc(&r.subject), Esc(&r.outcome));
        let _ = writeln!(
            out,
            "<tr><td>{at}</td><td>{user}</td><td>{action}</td><td>{subject}</td><td>{outcome}</td></tr>"
        );
    }
    out.push_str("</table>\n");
    page_close(out);
}

/// Which zone a browsed dataset lives in: its remote-provenance home zone
/// when the row is a cross-zone registration or replication mirror, the
/// browsing zone's own name otherwise. Rows whose provenance was lost
/// ([`srb_mcat::Mcat::remote_provenance`] fails closed) render as `?`.
fn dataset_zone(out: &mut String, fed: &Federation, here: ZoneId, full_path: &str) {
    let Ok(zone) = fed.zone(here) else {
        return;
    };
    let mcat = &zone.grid.mcat;
    let resolved = LogicalPath::parse(full_path).and_then(|lp| mcat.resolve_dataset(&lp));
    let _ = match resolved.and_then(|id| mcat.remote_provenance(id)) {
        Ok(Some((home, _))) => write!(out, "{} (remote)", Esc(home)),
        Ok(None) => write!(out, "{}", Esc(zone.name())),
        Err(_) => write!(out, "?"),
    };
}

/// A zone's name, or its id when the federation does not know it.
fn zone_name(out: &mut String, fed: &Federation, z: ZoneId) {
    let _ = match fed.zone(z) {
        Ok(zone) => write!(out, "{}", zone.name()),
        Err(_) => write!(out, "{z}"),
    };
}

/// The operator dashboard (`/grid-status`): per-resource breaker health
/// and fault counters, grid-wide fan-out/repair totals, the slowest
/// operations the grid has executed, each with its receipt leg breakdown,
/// and — when the app is zone-aware — the federation panel: member zones,
/// peering-link health, and per-subscription replication lag.
pub(crate) fn grid_status(out: &mut String, grid: &Grid, fed: Option<(&Federation, ZoneId)>) {
    // Read in place: the page needs a handful of counters, not a copy of
    // every series.
    let obs = grid.obs();
    let count = |name, label: &str| obs.map_or(0, |o| o.metrics.counter_value(name, label));
    let total = |name| obs.map_or(0, |o| o.metrics.counter_total(name));
    page_open(out, "MySRB — grid status", None, false);
    out.push_str("<h3>Resource health</h3>\n");
    let headers = [
        "resource",
        "breaker",
        "faults injected",
        "fast fails",
        "trips",
    ];
    table_open(out, headers);
    for r in grid.mcat.resources.list() {
        let state = match grid.health.state(r.id) {
            BreakerState::Closed => "closed",
            BreakerState::Open => "OPEN",
            BreakerState::HalfOpen => "half-open",
        };
        let injected = count(metric!("faults.injected"), &r.name);
        let fast_fails = count(metric!("health.fast_fails"), &r.name);
        let trips = count(metric!("health.breaker_trips"), &r.name);
        let name = Esc(&r.name);
        let _ = writeln!(
            out,
            "<tr><td>{name}</td><td>{state}</td><td>{injected}</td><td>{fast_fails}</td><td>{trips}</td></tr>"
        );
    }
    out.push_str("</table>\n");
    let _ = writeln!(
        out,
        "<p>{} fan-out legs dispatched · {} failed · {} went stale · {} repaired · \
         {} retries · {} scope-cache hits / {} misses</p>",
        total(metric!("fanout.legs_dispatched")),
        total(metric!("fanout.legs_failed")),
        total(metric!("fanout.legs_stale")),
        total(metric!("health.repairs")),
        total(metric!("health.retries")),
        total(metric!("query.scope_cache_hits")),
        total(metric!("query.scope_cache_misses")),
    );
    out.push_str("<h3>Slowest operations</h3>\n");
    table_open(out, ["op", "subject", "cost"]);
    for op in &obs.map(|o| o.slow.entries()).unwrap_or_default() {
        let c = &op.cost;
        let (name, subject, ms) = (Esc(&op.op), Esc(&op.subject), c.sim_ns as f64 / 1e6);
        let _ = write!(out, "<tr><td>{name}</td><td>{subject}</td><td>{ms:.2}ms");
        if c.bytes > 0 {
            let _ = write!(out, " · {}B", c.bytes);
        }
        if c.retries > 0 {
            let _ = write!(out, " · {} retries", c.retries);
        }
        if c.replicas_tried > 1 {
            let _ = write!(out, " · {} replicas tried", c.replicas_tried);
        }
        if c.served_stale {
            out.push_str(" · stale");
        }
        out.push_str("</td></tr>\n");
    }
    out.push_str("</table>\n");
    if let Some((f, here)) = fed {
        out.push_str("<h3>Federation</h3>\n");
        let here_name = Esc(f.zone(here).map(|z| z.name()).unwrap_or_default());
        let zones = f.zone_count();
        let _ = writeln!(
            out,
            "<p>this zone: <b>{here_name}</b> · {zones} zone(s) federated</p>"
        );
        table_open(out, ["zone", "name", "datasets"]);
        for (id, z) in f.zones() {
            let (name, datasets) = (Esc(z.name()), z.grid.mcat.datasets.count());
            let _ = writeln!(
                out,
                "<tr><td>{id}</td><td>{name}</td><td>{datasets}</td></tr>"
            );
        }
        out.push_str("</table>\n");
        table_open(out, ["from", "to", "latency", "link"]);
        for l in f.link_statuses() {
            let (from, to, latency) = (l.from, l.to, l.latency_us);
            let link = if l.up { "up" } else { "PARTITIONED" };
            let _ = writeln!(
                out,
                "<tr><td>{from}</td><td>{to}</td><td>{latency} us</td><td>{link}</td></tr>"
            );
        }
        out.push_str("</table>\n");
        let subscriptions = f.subscriptions();
        if !subscriptions.is_empty() {
            let headers = ["subscription", "subtree", "fetched lsn", "applied"];
            table_open(
                out,
                headers.into_iter().chain(["outbox", "resyncs", "max lag"]),
            );
            for s in subscriptions {
                out.push_str("<tr><td>");
                zone_name(out, f, s.src);
                out.push_str(" → ");
                zone_name(out, f, s.dst);
                let (root, lsn, applied) = (Esc(&s.src_root), s.fetched_lsn, s.applied);
                let (outbox, resyncs, lag) = (s.outbox, s.resyncs, s.max_lag_ns as f64 / 1e6);
                let _ = writeln!(
                    out,
                    "</td><td>{root}</td><td>{lsn}</td><td>{applied}</td><td>{outbox}</td>\
                     <td>{resyncs}</td><td>{lag:.2} ms</td></tr>"
                );
            }
            out.push_str("</table>\n");
        }
        let total = |name| f.metrics().counter_total(name);
        let _ = writeln!(
            out,
            "<p>{} cross-zone registration(s) · {} delta(s) shipped · {} applied · \
             {} resync(s) · {} partition(s)</p>",
            total(metric!("zone.registrations")),
            total(metric!("zone.deltas_fetched")),
            total(metric!("zone.deltas_applied")),
            total(metric!("zone.resyncs")),
            total(metric!("zone.partitions")),
        );
    }
    page_close(out);
}
