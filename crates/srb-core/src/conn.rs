//! The client connection: single sign-on plus the read path.
//!
//! "Users can connect to any SRB server to access data from any other SRB
//! server." An [`SrbConnection`] is bound to its *contact server*; metadata
//! operations are forwarded to the MCAT server and data operations to the
//! server brokering the chosen replica's resource, with every hop charged
//! to the returned [`Receipt`].
//!
//! Write-side operations live in [`crate::ops_write`],
//! [`crate::ops_container`], [`crate::ops_meta`] and [`crate::ops_lock`] —
//! all as `impl SrbConnection` blocks.
//!
//! Every op that touches a catalog table — the audit trail included, so
//! audited reads too — has one shape: `SrbConnection::begin_op`, a body
//! whose every failure lands in one `SrbResult`, and
//! `SrbConnection::end_op`, the only place an op audits, commits its WAL
//! group, pays for its durability, checkpoints, and reports to
//! observability.

use crate::auth::{AuthService, Session};
use crate::fanout::{FanoutMode, RetryBudget};
use crate::grid::Grid;
use crate::replication::ReplicaPolicy;
use crate::template::render_template;
use crate::tlang::TScript;
use bytes::Bytes;
use srb_mcat::{AccessSpec, AuditAction, Dataset, Replica, Template};
use srb_net::Receipt;
use srb_storage::sql::QueryResult;
use srb_types::{
    DatasetId, LogicalPath, Permission, ServerId, SiteId, SrbError, SrbResult, Timestamp, UserId,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// What an `open` returned, depending on the object's type.
#[derive(Debug, Clone)]
pub enum ObjectContent {
    /// File bytes (stored/registered files, URL fetches, method output).
    Bytes(Bytes),
    /// A SQL result rendered through its template, plus the raw rows.
    Table {
        /// The raw query result.
        result: QueryResult,
        /// The rendered (HTML/XML/style-sheet) text.
        rendered: String,
    },
    /// The cone of files visible through a registered directory.
    Listing(Vec<String>),
}

impl ObjectContent {
    /// The bytes, when this is a byte object.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            ObjectContent::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Render any content as display text (what MySRB shows).
    pub fn display(&self) -> String {
        match self {
            ObjectContent::Bytes(b) => String::from_utf8_lossy(b).into_owned(),
            ObjectContent::Table { rendered, .. } => rendered.clone(),
            ObjectContent::Listing(files) => files.join("\n"),
        }
    }
}

/// What [`SrbConnection::list_collection`] returns: sub-collection names,
/// `(name, data type, size)` dataset summaries, and the receipt.
pub type CollectionListing = (Vec<String>, Vec<(String, String, u64)>, Receipt);

/// One brokered operation in flight: opened by
/// [`SrbConnection::begin_op`], closed by [`SrbConnection::end_op`].
pub(crate) struct Op<'a> {
    name: &'static str,
    action: AuditAction,
    subject: &'a str,
    start: Timestamp,
    /// Audit outcome recorded when the body succeeds.
    pub(crate) done: &'static str,
    /// Everything charged to the op so far.
    pub(crate) receipt: Receipt,
}

/// An authenticated client session bound to a contact server.
pub struct SrbConnection<'g> {
    pub(crate) grid: &'g Grid,
    pub(crate) server: ServerId,
    pub(crate) site: SiteId,
    pub(crate) session: Session,
    pub(crate) policy: ReplicaPolicy,
    pub(crate) fanout: FanoutMode,
    pub(crate) retry: RetryBudget,
    pub(crate) allow_stale: bool,
    pub(crate) trace: bool,
    /// Simulated nanoseconds accumulated by ops on this connection since
    /// the last [`take_op_ns`](Self::take_op_ns) — MySRB drains this to
    /// attribute grid cost to the route that incurred it.
    pub(crate) op_ns: AtomicU64,
}

impl<'g> SrbConnection<'g> {
    /// Connect to `server` with challenge–response single sign-on.
    pub fn connect(
        grid: &'g Grid,
        server: ServerId,
        name: &str,
        domain: &str,
        password: &str,
    ) -> SrbResult<Self> {
        let srv = grid.server(server)?;
        let user = grid
            .mcat
            .users
            .find(name, domain)
            .ok_or_else(|| SrbError::AuthFailed(format!("unknown user '{name}@{domain}'")))?;
        // The contact server fetches the verifier from the MCAT server.
        let mcat_site = grid.server(grid.mcat_server())?.site;
        let _ = grid.network.charge_rpc(srv.site, mcat_site)?;
        let (cid, nonce) = grid.auth.challenge();
        let client_verifier = srb_mcat::user::derive_verifier(password);
        let response = AuthService::respond(&client_verifier, &nonce);
        // Sign-on is not an op of a connection yet, so it audits and
        // commits for itself; its fsync opens the connection's cost tally.
        let verified = grid.auth.verify(cid, &response, user.id, &user.verifier);
        let (action, subject, outcome) = match &verified {
            Ok(_) => (AuditAction::Connect, srv.name.clone(), "ok"),
            Err(e) => (AuditAction::AuthFail, format!("{name}@{domain}"), e.code()),
        };
        let mcat = &grid.mcat;
        mcat.audit.record(
            &mcat.ids,
            grid.clock.now(),
            user.id,
            action,
            &subject,
            outcome,
        );
        mcat.commit();
        let conn = Self::from_session(grid, server, srv.site, verified?);
        if let Some(wal) = mcat.wal() {
            conn.op_ns.store(wal.take_pending_ns(), Ordering::Relaxed);
        }
        Ok(conn)
    }

    /// Build a connection directly from an already-valid [`Session`] —
    /// the pooled fast path ([`SrbConnection::connect_pooled`]) that
    /// skips the handshake entirely.
    pub(crate) fn from_session(
        grid: &'g Grid,
        server: ServerId,
        site: SiteId,
        session: Session,
    ) -> Self {
        SrbConnection {
            grid,
            server,
            site,
            session,
            policy: ReplicaPolicy::default(),
            fanout: FanoutMode::default(),
            retry: RetryBudget::default(),
            allow_stale: false,
            trace: false,
            op_ns: AtomicU64::new(0),
        }
    }

    /// The authenticated user.
    pub fn user(&self) -> UserId {
        self.session.user
    }

    /// The grid this connection brokers.
    pub fn grid(&self) -> &'g Grid {
        self.grid
    }

    /// The contact server.
    pub fn contact_server(&self) -> ServerId {
        self.server
    }

    /// Change the replica-selection policy (ablation A3).
    pub fn set_policy(&mut self, policy: ReplicaPolicy) {
        self.policy = policy;
    }

    /// Change how multi-replica storage legs execute (the sequential mode
    /// is the measurable ablation in bench E6/E7).
    pub fn set_fanout_mode(&mut self, mode: FanoutMode) {
        self.fanout = mode;
    }

    /// The connection's current fan-out mode.
    pub fn fanout_mode(&self) -> FanoutMode {
        self.fanout
    }

    /// Change how hard storage attempts retry transient errors
    /// ([`RetryBudget::none`] is the ablation arm of bench E3).
    pub fn set_retry_budget(&mut self, budget: RetryBudget) {
        self.retry = budget;
    }

    /// The connection's current retry budget.
    pub fn retry_budget(&self) -> RetryBudget {
        self.retry
    }

    /// Opt in (or out) of graceful degradation: when no fresh replica is
    /// reachable, a read may serve a `Stale` copy, flagged by
    /// `Receipt::served_stale`. Off by default — stale bytes must never
    /// surprise a caller.
    pub fn set_allow_stale(&mut self, allow: bool) {
        self.allow_stale = allow;
    }

    /// Whether this connection accepts stale reads as a last resort.
    pub fn allow_stale(&self) -> bool {
        self.allow_stale
    }

    /// Record a span in the grid's trace ring for every finished op on
    /// this connection (no-op when grid observability is off).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = on;
    }

    /// Whether this connection records spans.
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Drain the simulated nanoseconds charged by this connection's ops
    /// since the previous call (resets the accumulator to zero).
    pub fn take_op_ns(&self) -> u64 {
        self.op_ns.swap(0, Ordering::Relaxed)
    }

    /// End the session.
    pub fn logout(self) {
        self.grid.auth.logout(&self.session.ticket);
    }

    // ------------------------------------------------------------ plumbing --

    /// Validate the ticket — every brokered request starts here.
    pub(crate) fn check_session(&self) -> SrbResult<UserId> {
        self.grid.auth.validate(&self.session.ticket)
    }

    pub(crate) fn now(&self) -> Timestamp {
        self.grid.clock.now()
    }

    pub(crate) fn site(&self) -> SiteId {
        self.site
    }

    /// One metadata round trip: contact server → MCAT server.
    pub(crate) fn mcat_rpc(&self) -> SrbResult<Receipt> {
        let mcat_site = self.grid.server(self.grid.mcat_server())?.site;
        let ns = self.grid.network.charge_rpc(self.site(), mcat_site)?;
        let mut r = Receipt::time(ns);
        r.messages = 2;
        if self.server != self.grid.mcat_server() {
            r.hops = 1;
        }
        Ok(r)
    }

    /// Open an op: validate the ticket, note the start time, and pay the
    /// metadata round trip. Nothing has touched the catalog yet, so a
    /// failure here simply propagates.
    pub(crate) fn begin_op<'a>(
        &self,
        name: &'static str,
        action: AuditAction,
        subject: &'a str,
    ) -> SrbResult<(UserId, Op<'a>)> {
        let user = self.check_session()?;
        let op = Op {
            name,
            action,
            subject,
            start: self.now(),
            done: "ok",
            receipt: self.mcat_rpc()?,
        };
        Ok((user, op))
    }

    /// Close an op — the one epilogue, reached exactly once whether the
    /// body succeeded or failed: audit row, WAL commit (one marker, one
    /// fsync for everything the op logged), a due checkpoint, the
    /// durability cost folded into *this* op's receipt, observability.
    /// Hands the body's value back with the final receipt.
    pub(crate) fn end_op<T>(
        &self,
        mut op: Op<'_>,
        result: SrbResult<T>,
    ) -> SrbResult<(T, Receipt)> {
        let mcat = &self.grid.mcat;
        let outcome = match &result {
            Ok(_) => op.done,
            Err(e) => e.code(),
        };
        self.audit_row(op.action, op.subject, outcome);
        mcat.commit();
        // A failed checkpoint costs nothing but a longer replay tail; it
        // is counted, and the user's op stands.
        if mcat.maybe_checkpoint().is_err() {
            if let Some(obs) = self.grid.core_obs() {
                obs.checkpoint_failures.inc();
            }
        }
        if let Some(wal) = mcat.wal() {
            op.receipt.sim_ns += wal.take_pending_ns();
        }
        self.op_ns.fetch_add(op.receipt.sim_ns, Ordering::Relaxed);
        if let Some(obs) = self.grid.core_obs() {
            obs.finish_op(op.name, op.subject, &op.receipt);
            if self.trace {
                obs.span(op.name, op.subject, None, op.start, op.receipt.sim_ns);
            }
        }
        result.map(|value| (value, op.receipt))
    }

    /// Append one audit row for this session's user. Ops audit through
    /// [`end_op`](Self::end_op); this is for the extra rows some write
    /// mid-op, which ride the op's commit.
    pub(crate) fn audit_row(&self, action: AuditAction, subject: &str, outcome: &str) {
        let mcat = &self.grid.mcat;
        mcat.audit.record(
            &mcat.ids,
            self.now(),
            self.session.user,
            action,
            subject,
            outcome,
        );
    }

    pub(crate) fn parse(&self, path: &str) -> SrbResult<LogicalPath> {
        LogicalPath::parse(path)
    }

    /// The dataset at `path`, links followed, provided `user` holds
    /// `needed` on it — how every per-object op starts.
    pub(crate) fn dataset_for(
        &self,
        user: UserId,
        path: &str,
        needed: Permission,
    ) -> SrbResult<Dataset> {
        let mcat = &self.grid.mcat;
        let id = mcat.resolve_dataset(&self.parse(path)?)?;
        let ds = mcat.datasets.resolve_links(id)?;
        mcat.require_dataset(Some(user), ds.id, needed)?;
        Ok(ds)
    }

    /// Pull `bytes` from the resource's site to the contact site and note
    /// the federation hop if the data server differs from the contact.
    pub(crate) fn data_transfer(
        &self,
        resource: srb_types::ResourceId,
        bytes: u64,
    ) -> SrbResult<Receipt> {
        let rsite = self.grid.site_of_resource(resource)?;
        let ns = self
            .grid
            .network
            .charge_transfer(rsite, self.site(), bytes)?;
        let mut r = Receipt::time(ns);
        r.bytes = bytes;
        r.messages = 1;
        let home = self.grid.server_for_resource(resource)?;
        if home != self.server {
            r.hops = 1;
        }
        Ok(r)
    }

    // ---------------------------------------------------------------- read --

    /// Read a byte object (stored or registered file), with transparent
    /// failover across replicas.
    pub fn read(&self, path: &str) -> SrbResult<(Bytes, Receipt)> {
        let (content, receipt) = self.open(path, &[])?;
        match content {
            ObjectContent::Bytes(b) => Ok((b, receipt)),
            _ => Err(SrbError::Unsupported(format!(
                "'{path}' is not a byte object; use open()"
            ))),
        }
    }

    /// Open any object. `args` parameterize partial SQL queries and method
    /// objects.
    pub fn open(&self, path: &str, args: &[String]) -> SrbResult<(ObjectContent, Receipt)> {
        let (user, mut op) = self.begin_op("open", AuditAction::Read, path)?;
        let content = (|| {
            let ds = self.dataset_for(user, path, Permission::Read)?;
            ds.read_allowed_by_locks(user, self.now())?;
            self.open_resolved(&ds.replicas, args, &mut op.receipt)
        })();
        self.end_op(op, content)
    }

    /// Dispatch on the replica specs, with failover across byte replicas.
    fn open_resolved(
        &self,
        replicas: &[Replica],
        args: &[String],
        receipt: &mut Receipt,
    ) -> SrbResult<ObjectContent> {
        // Non-byte objects are served through their (single) spec.
        if let Some(first) = replicas.first() {
            match &first.spec {
                AccessSpec::Sql {
                    resource,
                    sql,
                    partial,
                    template,
                } => {
                    let sql = if *partial && !args.is_empty() {
                        format!("{sql} {}", args.join(" "))
                    } else {
                        sql.clone()
                    };
                    return self.open_sql(*resource, &sql, template, receipt);
                }
                AccessSpec::Url { url } => {
                    let (content, ns) = self.grid.web.fetch(url)?;
                    receipt.absorb(&Receipt::time(ns));
                    receipt.bytes += content.len() as u64;
                    return Ok(ObjectContent::Bytes(content));
                }
                AccessSpec::Method {
                    name,
                    is_function,
                    default_args,
                } => {
                    let mut full_args = default_args.clone();
                    full_args.extend_from_slice(args);
                    return self.open_method(name, *is_function, &full_args, receipt);
                }
                AccessSpec::ShadowDir { resource, dir_path } => {
                    let driver = self.grid.driver(*resource)?;
                    let fs = driver.as_fs().ok_or_else(|| {
                        SrbError::Unsupported("shadow directory on non-fs resource".into())
                    })?;
                    let rsite = self.grid.site_of_resource(*resource)?;
                    let ns = self.grid.network.charge_rpc(self.site(), rsite)?;
                    receipt.absorb(&Receipt::time(ns));
                    return Ok(ObjectContent::Listing(fs.cone(dir_path)));
                }
                AccessSpec::Stored { .. } | AccessSpec::RegisteredFile { .. } => {}
            }
        }
        // Byte replicas: policy order + failover (+ stale degradation).
        self.read_with_failover(replicas, receipt)
            .map(ObjectContent::Bytes)
    }

    /// Walk the policy-ordered fresh replicas (open-breaker resources
    /// demoted) with failover; if every fresh replica is unreachable and
    /// the connection opted into degradation, fall back to stale copies,
    /// flagging the receipt.
    fn read_with_failover(&self, replicas: &[Replica], receipt: &mut Receipt) -> SrbResult<Bytes> {
        let ordered =
            self.policy
                .order_with_health(replicas, &self.grid.load, Some(&self.grid.health));
        if ordered.fresh.is_empty() && (!self.allow_stale || ordered.stale.is_empty()) {
            return Err(SrbError::NotFound("object has no readable replica".into()));
        }
        let mut last_err = SrbError::ResourceUnavailable("no replica reachable".into());
        for replica in ordered.fresh {
            receipt.replicas_tried += 1;
            match self.read_replica(replica, receipt) {
                Ok(bytes) => {
                    receipt.served_by = Some(replica.id);
                    return Ok(bytes);
                }
                Err(e) if e.is_retryable() => {
                    last_err = e;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        if self.allow_stale {
            for replica in ordered.stale {
                receipt.replicas_tried += 1;
                match self.read_replica(replica, receipt) {
                    Ok(bytes) => {
                        receipt.served_by = Some(replica.id);
                        receipt.served_stale = true;
                        return Ok(bytes);
                    }
                    Err(e) if e.is_retryable() => {
                        last_err = e;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Err(last_err)
    }

    /// Read one byte replica (standalone or container slice).
    fn read_replica(&self, replica: &Replica, receipt: &mut Receipt) -> SrbResult<Bytes> {
        if let Some(slice) = replica.in_container {
            return self.read_container_slice(slice, receipt);
        }
        let (resource, phys_path) = match &replica.spec {
            AccessSpec::Stored {
                resource,
                phys_path,
            }
            | AccessSpec::RegisteredFile {
                resource,
                phys_path,
            } => (*resource, phys_path.as_str()),
            other => {
                return Err(SrbError::Unsupported(format!(
                    "replica of type {} is not byte-readable",
                    other.type_label()
                )))
            }
        };
        self.retry_storage(resource, receipt, |rec| {
            self.read_replica_once(resource, phys_path, rec)
        })
    }

    /// One storage attempt at a replica: fault injection, driver read,
    /// cost charging. Breaker admission and outcome recording happen in
    /// the wrapping [`retry_storage`](Self::retry_storage).
    fn read_replica_once(
        &self,
        resource: srb_types::ResourceId,
        phys_path: &str,
        receipt: &mut Receipt,
    ) -> SrbResult<Bytes> {
        let site = self.grid.site_of_resource(resource)?;
        let injected_ns = self.grid.faults.inject(resource, site)?;
        let driver = self.grid.driver(resource)?;
        let _inflight = self.grid.load.begin(resource);
        let (data, storage_ns) = match driver.driver().read(phys_path) {
            Ok(ok) => ok,
            Err(e) => {
                if let Some(obs) = self.grid.core_obs() {
                    obs.storage_error(driver.kind(), e.code());
                }
                return Err(e);
            }
        };
        if let Some(obs) = self.grid.core_obs() {
            obs.storage_op(driver.kind(), storage_ns);
        }
        let busy_ns = storage_ns + injected_ns;
        self.grid.load.charge(resource, busy_ns);
        receipt.absorb(&Receipt::time(busy_ns));
        let transfer = self.data_transfer(resource, data.len() as u64)?;
        receipt.absorb(&transfer);
        Ok(data)
    }

    fn open_sql(
        &self,
        resource: srb_types::ResourceId,
        sql: &str,
        template: &Template,
        receipt: &mut Receipt,
    ) -> SrbResult<ObjectContent> {
        let site = self.grid.site_of_resource(resource)?;
        let injected_ns = self.grid.faults.inject(resource, site)?;
        receipt.absorb(&Receipt::time(injected_ns));
        let driver = self.grid.driver(resource)?;
        let db = driver
            .as_db()
            .ok_or_else(|| SrbError::Unsupported("SQL object on non-database resource".into()))?;
        let _inflight = self.grid.load.begin(resource);
        let (result, ns) = match db.query(sql) {
            Ok(ok) => ok,
            Err(e) => {
                if let Some(obs) = self.grid.core_obs() {
                    obs.storage_error(driver.kind(), e.code());
                }
                return Err(e);
            }
        };
        if let Some(obs) = self.grid.core_obs() {
            obs.storage_op(driver.kind(), ns);
        }
        self.grid.load.charge(resource, ns);
        receipt.absorb(&Receipt::time(ns));
        let rendered = match template {
            Template::StyleSheet(sheet_ds) => {
                let (sheet_bytes, sheet_receipt) = self.read_dataset_bytes(*sheet_ds)?;
                receipt.absorb(&sheet_receipt);
                let script = TScript::parse(&String::from_utf8_lossy(&sheet_bytes))?;
                script.render(&result)
            }
            builtin => render_template(builtin, &result)
                .ok_or_else(|| SrbError::Internal("built-in template failed to render".into()))?,
        };
        let rendered_len = rendered.len() as u64;
        let transfer = self.data_transfer(resource, rendered_len)?;
        receipt.absorb(&transfer);
        Ok(ObjectContent::Table { result, rendered })
    }

    fn open_method(
        &self,
        name: &str,
        is_function: bool,
        args: &[String],
        receipt: &mut Receipt,
    ) -> SrbResult<ObjectContent> {
        // Find the server whose bin directory holds the command.
        for srv in self.grid.servers() {
            let has = if is_function {
                srv.proxies.has_function(name)
            } else {
                srv.proxies.has_command(name)
            };
            if has {
                let ns = self.grid.network.charge_rpc(self.site(), srv.site)?;
                receipt.absorb(&Receipt::time(ns));
                if srv.id != self.server {
                    receipt.hops += 1;
                }
                let out = if is_function {
                    srv.proxies.run_function(name, args)?
                } else {
                    srv.proxies.run_command(name, args)?
                };
                receipt.bytes += out.len() as u64;
                self.audit_row(AuditAction::Proxy, name, "ok");
                return Ok(ObjectContent::Bytes(Bytes::from(out)));
            }
        }
        Err(SrbError::NotFound(format!(
            "proxy {} '{name}' not installed on any server",
            if is_function { "function" } else { "command" }
        )))
    }

    /// Read a dataset's bytes by id (internal: style-sheets, copies,
    /// version preservation).
    pub(crate) fn read_dataset_bytes(&self, id: DatasetId) -> SrbResult<(Bytes, Receipt)> {
        let ds = self.grid.mcat.datasets.resolve_links(id)?;
        let mut receipt = Receipt::free();
        let bytes = self.read_with_failover(&ds.replicas, &mut receipt)?;
        Ok((bytes, receipt))
    }

    /// Read a file *inside* a registered directory (read-only access to the
    /// cone; ingestion/update/deletion through the shadow is not allowed —
    /// paper §4 type 2).
    pub fn read_from_directory(
        &self,
        dir_object: &str,
        rel_path: &str,
    ) -> SrbResult<(Bytes, Receipt)> {
        let subject = format!("{dir_object}:{rel_path}");
        let (user, mut op) = self.begin_op("read_from_directory", AuditAction::Read, &subject)?;
        let data = (|| {
            let ds = self.dataset_for(user, dir_object, Permission::Read)?;
            let Some(Replica {
                spec: AccessSpec::ShadowDir { resource, dir_path },
                ..
            }) = ds.replicas.first()
            else {
                return Err(SrbError::Unsupported(format!(
                    "'{dir_object}' is not a registered directory"
                )));
            };
            let full = format!("{}/{}", dir_path.trim_end_matches('/'), rel_path);
            let site = self.grid.site_of_resource(*resource)?;
            let injected_ns = self.grid.faults.inject(*resource, site)?;
            let driver = self.grid.driver(*resource)?;
            let (data, ns) = driver.driver().read(&full)?;
            op.receipt.absorb(&Receipt::time(ns + injected_ns));
            op.receipt
                .absorb(&self.data_transfer(*resource, data.len() as u64)?);
            Ok(data)
        })();
        self.end_op(op, data)
    }

    // ---------------------------------------------------------- listings --

    /// List a collection: sub-collection names and dataset summaries.
    pub fn list_collection(&self, path: &str) -> SrbResult<CollectionListing> {
        let user = self.check_session()?;
        let lp = self.parse(path)?;
        let receipt = self.mcat_rpc()?;
        let coll = self.grid.mcat.collections.resolve(&lp)?;
        self.grid
            .mcat
            .require_collection(Some(user), coll, Permission::Discover)?;
        let subs = self
            .grid
            .mcat
            .collections
            .children(coll)
            .into_iter()
            .filter_map(|c| c.path.name().map(|n| n.to_string()))
            .collect();
        let datasets = self
            .grid
            .mcat
            .datasets
            .list(coll)
            .into_iter()
            .map(|d| (d.name.clone(), d.data_type.clone(), d.size()))
            .collect();
        Ok((subs, datasets, receipt))
    }

    /// One page of a collection listing through the catalog's resumable
    /// cursor: sub-collection names first, then dataset summaries, at most
    /// `limit` rows per page. `token` is the opaque continuation token the
    /// previous page returned (`None` starts over); the returned token is
    /// `None` once the listing is exhausted. A stale or tampered token
    /// fails with `SrbError::Invalid` — callers restart from page one.
    pub fn list_collection_page(
        &self,
        path: &str,
        token: Option<&str>,
        limit: usize,
    ) -> SrbResult<(CollectionListing, Option<String>)> {
        let user = self.check_session()?;
        let lp = self.parse(path)?;
        let receipt = self.mcat_rpc()?;
        let coll = self.grid.mcat.collections.resolve(&lp)?;
        self.grid
            .mcat
            .require_collection(Some(user), coll, Permission::Discover)?;
        let (subcolls, datasets, next) = self.grid.mcat.list_page(coll, token, limit)?;
        let subs = subcolls
            .into_iter()
            .filter_map(|c| c.path.name().map(|n| n.to_string()))
            .collect();
        let rows = datasets
            .into_iter()
            .map(|d| (d.name.clone(), d.data_type.clone(), d.size()))
            .collect();
        Ok(((subs, rows, receipt), next))
    }

    /// Stat a dataset: (data type, size, replica count, version). For
    /// datasets ingested without an explicit type the data type equals the
    /// structural label ("file", "url", …).
    pub fn stat(&self, path: &str) -> SrbResult<(String, u64, usize, u32)> {
        let user = self.check_session()?;
        let ds = self.dataset_for(user, path, Permission::Discover)?;
        Ok((
            ds.data_type.clone(),
            ds.size(),
            ds.replicas.len(),
            ds.current_version,
        ))
    }
}
