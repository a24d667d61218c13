//! Grid assembly: sites, servers, resources, and the shared services.
//!
//! A [`Grid`] is one SRB deployment — the counterpart of the paper's
//! federation of SRB servers at SDSC, CalTech, NCSA… Each [`SrbServer`]
//! "manages/brokers a set of storage resources" at one site; one server
//! hosts the MCAT. [`GridBuilder`] wires it all together.

use crate::auth::AuthService;
use crate::obs::CoreObs;
use crate::pool::ConnPool;
use crate::proxy::ProxyRegistry;
use srb_mcat::Mcat;
use srb_net::{
    BreakerConfig, FaultMode, FaultPlan, HealthRegistry, LinkSpec, LoadTracker, Network,
    NetworkBuilder,
};
use srb_obs::{MetricsSnapshot, Obs, ResourceLabels};
use srb_storage::{
    ArchiveDriver, CacheDriver, DbDriver, DriverKind, FsDriver, StorageDriver, UrlDriver,
};
use srb_types::{
    IdMap, LogicalResourceId, ResourceId, ServerId, SimClock, SiteId, SrbError, SrbResult, UserId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A storage driver instance bound to a registered resource.
pub enum ResourceDriver {
    /// File system.
    Fs(FsDriver),
    /// Tape archive.
    Archive(ArchiveDriver),
    /// Disk cache.
    Cache(CacheDriver),
    /// Relational database.
    Db(DbDriver),
}

impl ResourceDriver {
    /// The uniform driver API.
    pub fn driver(&self) -> &dyn StorageDriver {
        match self {
            ResourceDriver::Fs(d) => d,
            ResourceDriver::Archive(d) => d,
            ResourceDriver::Cache(d) => d,
            ResourceDriver::Db(d) => d,
        }
    }

    /// Downcast to the database driver (registered SQL objects).
    pub fn as_db(&self) -> Option<&DbDriver> {
        match self {
            ResourceDriver::Db(d) => Some(d),
            _ => None,
        }
    }

    /// Downcast to the archive driver (staging experiments).
    pub fn as_archive(&self) -> Option<&ArchiveDriver> {
        match self {
            ResourceDriver::Archive(d) => Some(d),
            _ => None,
        }
    }

    /// Downcast to the cache driver (pinning).
    pub(crate) fn as_cache(&self) -> Option<&CacheDriver> {
        match self {
            ResourceDriver::Cache(d) => Some(d),
            _ => None,
        }
    }

    /// Downcast to the file-system driver (shadow directories).
    pub(crate) fn as_fs(&self) -> Option<&FsDriver> {
        match self {
            ResourceDriver::Fs(d) => Some(d),
            _ => None,
        }
    }

    /// The driver family.
    pub fn kind(&self) -> DriverKind {
        self.driver().kind()
    }
}

/// One SRB server in the federation.
pub struct SrbServer {
    /// Federation-unique id.
    pub id: ServerId,
    /// Display name, e.g. `srb-sdsc`.
    pub name: String,
    /// The site this server runs at.
    pub site: SiteId,
    /// Proxy command/function bin directory.
    pub proxies: ProxyRegistry,
}

/// Where a resource lives and what serves it — fixed when the grid is
/// built.
pub(crate) struct Placement {
    /// The server that brokers it.
    pub(crate) server: ServerId,
    /// That server's site.
    pub(crate) site: SiteId,
    /// Its storage driver.
    pub(crate) driver: Arc<ResourceDriver>,
}

/// Specification of a resource to create at build time.
enum ResourceSpec {
    Fs,
    FsCustom { cost: srb_storage::CostModel },
    Archive,
    Cache { capacity: u64 },
    Db,
}

/// Password of the bootstrap administrator `srb@sdsc`.
const ADMIN_PASSWORD: &str = "srb-admin";

/// Builder for a [`Grid`].
pub struct GridBuilder {
    clock: SimClock,
    net: NetworkBuilder,
    servers: Vec<(String, SiteId)>,
    resources: Vec<(String, usize, ResourceSpec)>,
    logical: Vec<(String, Vec<String>)>,
    auth_seed: u64,
    breakers: BreakerConfig,
    observability: bool,
}

impl Default for GridBuilder {
    fn default() -> Self {
        GridBuilder::new()
    }
}

impl GridBuilder {
    /// Start an empty deployment.
    pub fn new() -> Self {
        GridBuilder {
            clock: SimClock::new(),
            net: NetworkBuilder::new(),
            servers: Vec::new(),
            resources: Vec::new(),
            logical: Vec::new(),
            auth_seed: 0x5eed,
            breakers: BreakerConfig::default(),
            observability: true,
        }
    }

    /// Enable or disable observability (metrics, tracing, slow-op log).
    /// On by default; the overhead benchmark builds a disabled twin to
    /// measure instrumentation cost pairwise in one process.
    pub fn observability(&mut self, on: bool) -> &mut Self {
        self.observability = on;
        self
    }

    /// Drive this grid from an externally owned clock instead of a fresh
    /// one. A federation passes the same `SimClock` to every member zone so
    /// cross-zone costs (link transfers, replication lag) advance one
    /// shared timeline.
    pub fn clock(&mut self, clock: SimClock) -> &mut Self {
        self.clock = clock;
        self
    }

    /// Configure (or disable, via [`BreakerConfig::disabled`]) the
    /// per-resource circuit breakers.
    pub fn breaker_config(&mut self, config: BreakerConfig) -> &mut Self {
        self.breakers = config;
        self
    }

    /// Register a site.
    pub fn site(&mut self, name: &str) -> SiteId {
        self.net.site(name)
    }

    /// Add a symmetric network link.
    pub fn link(&mut self, a: SiteId, b: SiteId, spec: LinkSpec) -> &mut Self {
        self.net.link(a, b, spec);
        self
    }

    /// Fully connect sites lacking explicit links.
    pub fn default_link(&mut self, spec: LinkSpec) -> &mut Self {
        self.net.default_link(spec);
        self
    }

    /// Add a server at a site. The first server hosts the MCAT.
    pub fn server(&mut self, name: &str, site: SiteId) -> ServerId {
        let id = ServerId(self.servers.len() as u64);
        self.servers.push((name.to_string(), site));
        id
    }

    /// Add a file-system resource brokered by `server`.
    pub fn fs_resource(&mut self, name: &str, server: ServerId) -> &mut Self {
        self.resources
            .push((name.to_string(), server.raw() as usize, ResourceSpec::Fs));
        self
    }

    /// Add a file-system resource with an explicit cost model — for
    /// modelling heterogeneous media (older disks, NFS mounts, …).
    pub fn fs_resource_with_cost(
        &mut self,
        name: &str,
        server: ServerId,
        cost: srb_storage::CostModel,
    ) -> &mut Self {
        self.resources.push((
            name.to_string(),
            server.raw() as usize,
            ResourceSpec::FsCustom { cost },
        ));
        self
    }

    /// Add a tape-archive resource.
    pub fn archive_resource(&mut self, name: &str, server: ServerId) -> &mut Self {
        self.resources.push((
            name.to_string(),
            server.raw() as usize,
            ResourceSpec::Archive,
        ));
        self
    }

    /// Add a disk-cache resource with a capacity in bytes.
    pub fn cache_resource(&mut self, name: &str, server: ServerId, capacity: u64) -> &mut Self {
        self.resources.push((
            name.to_string(),
            server.raw() as usize,
            ResourceSpec::Cache { capacity },
        ));
        self
    }

    /// Add a database resource.
    pub fn db_resource(&mut self, name: &str, server: ServerId) -> &mut Self {
        self.resources
            .push((name.to_string(), server.raw() as usize, ResourceSpec::Db));
        self
    }

    /// Declare a logical resource over named physical members.
    pub fn logical_resource(&mut self, name: &str, members: &[&str]) -> &mut Self {
        self.logical.push((
            name.to_string(),
            members.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Assemble the grid, panicking on an invalid specification (a bug: grids
    /// come from literals, never from a client request; see `try_build`).
    #[allow(clippy::panic)] // srb-core's one panic outside tests
    pub fn build(self) -> Grid {
        match self.try_build() {
            Ok(grid) => grid,
            Err(e) => panic!("invalid grid specification: {e}"),
        }
    }

    /// Assemble the grid, reporting specification errors instead of
    /// panicking: duplicate resource names, resources on undeclared
    /// servers, logical resources over undeclared members.
    pub(crate) fn try_build(self) -> SrbResult<Grid> {
        if self.servers.is_empty() {
            return Err(SrbError::Invalid("a grid needs at least one server".into()));
        }
        let clock = self.clock;
        let network = self.net.build();
        let mcat = Mcat::new(clock.clone(), ADMIN_PASSWORD);
        let auth = AuthService::new(clock.clone(), self.auth_seed);

        let servers: Vec<SrbServer> = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, (name, site))| SrbServer {
                id: ServerId(i as u64),
                name: name.clone(),
                site: *site,
                proxies: ProxyRegistry::new(name),
            })
            .collect();

        let mut placement = IdMap::default();
        let mut resource_names: HashMap<ResourceId, String> = HashMap::new();
        for (name, server_idx, spec) in self.resources {
            let server = servers.get(server_idx).ok_or_else(|| {
                SrbError::Invalid(format!(
                    "resource '{name}' references undeclared server #{server_idx}"
                ))
            })?;
            let (kind, driver) = match spec {
                ResourceSpec::Fs => (
                    DriverKind::FileSystem,
                    ResourceDriver::Fs(FsDriver::new(clock.clone())),
                ),
                ResourceSpec::FsCustom { cost } => (
                    DriverKind::FileSystem,
                    ResourceDriver::Fs(FsDriver::with_cost(clock.clone(), cost)),
                ),
                ResourceSpec::Archive => (
                    DriverKind::Archive,
                    ResourceDriver::Archive(ArchiveDriver::new(clock.clone())),
                ),
                ResourceSpec::Cache { capacity } => (
                    DriverKind::Cache,
                    ResourceDriver::Cache(CacheDriver::new(clock.clone(), capacity)),
                ),
                ResourceSpec::Db => (
                    DriverKind::Database,
                    ResourceDriver::Db(DbDriver::new(clock.clone())),
                ),
            };
            let rid = mcat
                .resources
                .register(&mcat.ids, &name, kind, server.site)?;
            placement.insert(
                rid,
                Placement {
                    server: server.id,
                    site: server.site,
                    driver: Arc::new(driver),
                },
            );
            resource_names.insert(rid, name);
        }

        for (name, members) in self.logical {
            let ids: Vec<ResourceId> = members
                .iter()
                .map(|m| {
                    mcat.resources.find(m).map(|r| r.id).ok_or_else(|| {
                        SrbError::Invalid(format!(
                            "logical resource '{name}' member '{m}' not declared"
                        ))
                    })
                })
                .collect::<SrbResult<_>>()?;
            mcat.resources.create_logical(&mcat.ids, &name, &ids)?;
        }

        let mut health = HealthRegistry::new(clock.clone(), self.breakers);
        let mut faults = FaultPlan::new();
        let mut mcat = mcat;
        let obs = if self.observability {
            let obs = Obs::new();
            let labels = ResourceLabels::new(resource_names);
            health = health.with_metrics(obs.metrics.clone(), labels.clone());
            faults = faults.with_metrics(obs.metrics.clone(), labels);
            mcat = mcat.with_metrics(&obs.metrics);
            Some(CoreObs::new(obs))
        } else {
            None
        };

        Ok(Grid {
            health,
            clock,
            network,
            faults,
            load: LoadTracker::new(placement.keys().copied()),
            mcat,
            auth,
            pool: ConnPool::new(),
            web: UrlDriver::new(),
            servers,
            placement,
            mcat_server: ServerId(0),
            obs,
        })
    }
}

/// One complete SRB deployment.
pub struct Grid {
    /// The shared virtual clock.
    pub clock: SimClock,
    /// The simulated WAN.
    pub network: Network,
    /// Failure-injection switchboard.
    pub faults: FaultPlan,
    /// Per-resource circuit breakers (the health engine).
    pub health: HealthRegistry,
    /// Per-resource load accounting.
    pub load: LoadTracker,
    /// The metadata catalog.
    pub mcat: Mcat,
    /// Federation-wide authenticator.
    pub auth: AuthService,
    /// Cached per-user auth state for pooled connects.
    pub pool: ConnPool,
    /// The simulated web (registered URLs live here).
    pub web: UrlDriver,
    /// Indexed by the dense [`ServerId`].
    servers: Vec<SrbServer>,
    placement: IdMap<ResourceId, Placement>,
    mcat_server: ServerId,
    obs: Option<CoreObs>,
}

impl Grid {
    /// The server hosting the MCAT.
    pub(crate) fn mcat_server(&self) -> ServerId {
        self.mcat_server
    }

    /// The observability domain, when enabled (the default).
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref().map(|c| &c.obs)
    }

    /// The broker's cached metric handles, when observability is enabled.
    pub(crate) fn core_obs(&self) -> Option<&CoreObs> {
        self.obs.as_ref()
    }

    /// Deterministic snapshot of every metric plus the slow-op log.
    /// Returns an empty snapshot when observability is disabled, so
    /// callers need not branch.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs
            .as_ref()
            .map(|c| c.obs.snapshot())
            .unwrap_or_default()
    }

    /// Enable write-ahead durability on the catalog: every MCAT mutation
    /// is redo-logged to `device`, each op commits its records as one
    /// group, and checkpoints land in op epilogues per `config`.
    /// Durability cost shows up in op receipts and, when observability is
    /// on, under the `wal.*` metrics.
    pub fn enable_durability(
        &self,
        device: Arc<srb_storage::LogDevice>,
        config: srb_mcat::WalConfig,
    ) -> SrbResult<()> {
        self.mcat
            .enable_wal(device, config, self.obs().map(|o| &o.metrics))
    }

    /// Rebuild the catalog of this (freshly built, same-topology) grid
    /// from a crashed deployment's log device: redo recovery over the
    /// latest checkpoint, adopted as [`Grid::restore_state`] adopts a
    /// saved catalog — resources verified by name/id/kind/site, catalog metrics
    /// re-attached. Only the catalog is recovered — the WAL does not carry
    /// physical bytes; pair with [`Grid::restore_state`] (or replica
    /// resync) for the data itself.
    pub fn recover_catalog(
        &mut self,
        device: Arc<srb_storage::LogDevice>,
        config: srb_mcat::WalConfig,
    ) -> SrbResult<srb_mcat::RecoveryReport> {
        let (mcat, report) = Mcat::recover(
            self.clock.clone(),
            device,
            config,
            self.obs().map(|o| &o.metrics),
        )?;
        self.adopt_catalog(mcat)?;
        Ok(report)
    }

    /// Swap in a rebuilt catalog — the one way a restored or recovered
    /// catalog enters a grid. Every resource it names must be declared
    /// here under the same id, kind and site (same names, same order); on a
    /// mismatch the grid keeps its catalog. The adopted catalog reports to
    /// this grid's metrics, as the builder's did.
    pub(crate) fn adopt_catalog(&mut self, mcat: Mcat) -> SrbResult<()> {
        for r in mcat.resources.list() {
            let local = self.mcat.resources.find(&r.name).ok_or_else(|| {
                SrbError::Invalid(format!(
                    "grid topology lacks resource '{}' required by the catalog",
                    r.name
                ))
            })?;
            if local.id != r.id || local.kind != r.kind || local.site != r.site {
                return Err(SrbError::Invalid(format!(
                    "resource '{}' differs between topology and catalog \
                     (declare resources in the same order)",
                    r.name
                )));
            }
        }
        self.mcat = match self.obs() {
            Some(o) => mcat.with_metrics(&o.metrics),
            None => mcat,
        };
        Ok(())
    }

    /// Look up a server.
    pub fn server(&self, id: ServerId) -> SrbResult<&SrbServer> {
        self.servers
            .get(id.raw() as usize)
            .ok_or_else(|| SrbError::NotFound(format!("server {id}")))
    }

    /// All servers, in id order.
    pub fn servers(&self) -> &[SrbServer] {
        &self.servers
    }

    /// A resource's placement; an unknown resource is `NotFound`.
    pub(crate) fn placement(&self, r: ResourceId) -> SrbResult<&Placement> {
        self.placement
            .get(&r)
            .ok_or_else(|| SrbError::NotFound(format!("resource {r}")))
    }

    /// The driver instance for a resource, wherever it lives.
    pub fn driver(&self, r: ResourceId) -> SrbResult<Arc<ResourceDriver>> {
        Ok(self.placement(r)?.driver.clone())
    }

    /// The site a resource lives at.
    pub(crate) fn site_of_resource(&self, r: ResourceId) -> SrbResult<SiteId> {
        Ok(self.placement(r)?.site)
    }

    /// Convenience: register a normal (non-admin) user and create their
    /// home collection `/home/<name>` (as SRB does). Not a connection op,
    /// so it commits its own WAL group, whichever way it ends.
    pub fn register_user(&self, name: &str, domain: &str, password: &str) -> SrbResult<UserId> {
        let mcat = &self.mcat;
        let user = (|| {
            let user = mcat
                .users
                .register(&mcat.ids, name, domain, password, false)?;
            let home_path = srb_types::LogicalPath::parse("/home")?;
            let home = match mcat.collections.resolve(&home_path) {
                Ok(id) => id,
                Err(_) => mcat.collections.create(
                    &mcat.ids,
                    mcat.collections.root(),
                    "home",
                    mcat.admin(),
                    self.clock.now(),
                )?,
            };
            mcat.collections
                .create(&mcat.ids, home, name, user, self.clock.now())?;
            Ok(user)
        })();
        mcat.commit();
        user
    }

    /// Convenience: resolve a resource name to its id.
    pub fn resource_id(&self, name: &str) -> SrbResult<ResourceId> {
        self.mcat
            .resources
            .find(name)
            .map(|r| r.id)
            .ok_or_else(|| SrbError::NotFound(format!("resource '{name}'")))
    }

    /// Convenience: resolve a logical resource name.
    pub(crate) fn logical_resource_id(&self, name: &str) -> SrbResult<LogicalResourceId> {
        self.mcat
            .resources
            .find_logical(name)
            .map(|r| r.id)
            .ok_or_else(|| SrbError::NotFound(format!("logical resource '{name}'")))
    }

    /// Fail a resource by name (experiments).
    pub fn fail_resource(&self, name: &str) -> SrbResult<()> {
        self.faults
            .set_mode(self.resource_id(name)?, FaultMode::Down);
        Ok(())
    }

    /// Restore a resource by name.
    pub fn restore_resource(&self, name: &str) -> SrbResult<()> {
        self.faults.clear_mode(self.resource_id(name)?);
        Ok(())
    }

    /// Install an arbitrary fault mode on a resource by name.
    pub fn set_fault_mode(&self, name: &str, mode: FaultMode) -> SrbResult<()> {
        self.faults.set_mode(self.resource_id(name)?, mode);
        Ok(())
    }

    /// Make a resource flaky: each access independently times out with
    /// probability `p`, on a seeded (replayable) schedule.
    pub fn flaky_resource(&self, name: &str, p: f64, seed: u64) -> SrbResult<()> {
        self.set_fault_mode(name, FaultMode::FailWithProb(p, seed))
    }

    /// Is the named resource currently reachable?
    pub fn resource_is_up(&self, r: ResourceId) -> bool {
        self.placement.contains_key(&r) && self.faults.is_up(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_grid() -> (Grid, ServerId, ServerId) {
        let mut gb = GridBuilder::new();
        let sdsc = gb.site("sdsc");
        let caltech = gb.site("caltech");
        gb.link(sdsc, caltech, LinkSpec::wan());
        let s1 = gb.server("srb-sdsc", sdsc);
        let s2 = gb.server("srb-caltech", caltech);
        gb.fs_resource("unix-sdsc", s1)
            .archive_resource("hpss-caltech", s2)
            .cache_resource("cache-sdsc", s1, 1 << 20)
            .db_resource("oracle-dlib", s2)
            .logical_resource("logrsrc1", &["unix-sdsc", "hpss-caltech"]);
        (gb.build(), s1, s2)
    }

    #[test]
    fn build_registers_everything() {
        let (g, s1, s2) = demo_grid();
        assert_eq!(g.servers().len(), 2);
        assert_eq!(g.mcat_server(), s1);
        assert_eq!(g.mcat.resources.list().len(), 4);
        assert_eq!(g.mcat.resources.list_logical().len(), 1);
        let unix = g.resource_id("unix-sdsc").unwrap();
        assert_eq!(g.placement(unix).unwrap().server, s1);
        let hpss = g.resource_id("hpss-caltech").unwrap();
        assert_eq!(g.placement(hpss).unwrap().server, s2);
        assert!(g.resource_id("missing").is_err());
    }

    #[test]
    fn drivers_match_declared_kinds() {
        let (g, ..) = demo_grid();
        let unix = g.resource_id("unix-sdsc").unwrap();
        assert_eq!(g.driver(unix).unwrap().kind(), DriverKind::FileSystem);
        assert!(g.driver(unix).unwrap().as_fs().is_some());
        let hpss = g.resource_id("hpss-caltech").unwrap();
        assert!(g.driver(hpss).unwrap().as_archive().is_some());
        let cache = g.resource_id("cache-sdsc").unwrap();
        assert!(g.driver(cache).unwrap().as_cache().is_some());
        let db = g.resource_id("oracle-dlib").unwrap();
        assert!(g.driver(db).unwrap().as_db().is_some());
        assert!(g.driver(db).unwrap().as_fs().is_none());
    }

    #[test]
    fn logical_resource_resolution() {
        let (g, ..) = demo_grid();
        let targets = g.mcat.resources.resolve_targets("logrsrc1").unwrap();
        assert_eq!(targets.len(), 2);
        assert!(g.logical_resource_id("logrsrc1").is_ok());
        assert!(g.logical_resource_id("nope").is_err());
    }

    #[test]
    fn fault_helpers() {
        let (g, ..) = demo_grid();
        let unix = g.resource_id("unix-sdsc").unwrap();
        assert!(g.resource_is_up(unix));
        g.fail_resource("unix-sdsc").unwrap();
        assert!(!g.resource_is_up(unix));
        g.restore_resource("unix-sdsc").unwrap();
        assert!(g.resource_is_up(unix));
        assert!(g.fail_resource("missing").is_err());
    }

    #[test]
    fn try_build_reports_specification_errors() {
        assert!(GridBuilder::new().try_build().is_err());

        let mut gb = GridBuilder::new();
        let s = gb.site("x");
        let srv = gb.server("srb", s);
        gb.fs_resource("r", srv).fs_resource("r", srv);
        assert!(matches!(
            gb.try_build(),
            Err(SrbError::AlreadyExists(_) | SrbError::Invalid(_))
        ));

        let mut gb = GridBuilder::new();
        let s = gb.site("x");
        let srv = gb.server("srb", s);
        gb.fs_resource("r", srv)
            .logical_resource("lr", &["missing"]);
        assert!(matches!(gb.try_build(), Err(SrbError::Invalid(_))));
    }

    #[test]
    fn flaky_helper_installs_seeded_mode() {
        let (g, ..) = demo_grid();
        g.flaky_resource("unix-sdsc", 1.0, 7).unwrap();
        let unix = g.resource_id("unix-sdsc").unwrap();
        // p = 1.0: every access fails, but the resource still counts as up.
        assert!(g.resource_is_up(unix));
        assert!(g.faults.inject(unix).is_err());
        assert!(g.flaky_resource("missing", 0.5, 1).is_err());
        g.restore_resource("unix-sdsc").unwrap();
        assert!(g.faults.inject(unix).is_ok());
    }

    /// A resource the topology does not know is down, and the storage door
    /// refuses it before any fault draw or driver lookup.
    #[test]
    fn an_unknown_resource_is_down_and_refused() {
        let (g, s1, _) = demo_grid();
        let ghost = ResourceId(9_999);
        assert!(!g.resource_is_up(ghost));
        g.register_user("sekar", "sdsc", "pw").unwrap();
        let conn = crate::SrbConnection::connect(&g, s1, "sekar", "sdsc", "pw").unwrap();
        let err = conn
            .storage_call(ghost, |d| d.driver().read("home/sekar/x"))
            .unwrap_err();
        assert!(matches!(err, SrbError::NotFound(_)), "{err:?}");
    }

    #[test]
    fn register_user_convenience() {
        let (g, ..) = demo_grid();
        let u = g.register_user("sekar", "sdsc", "pw").unwrap();
        assert_eq!(g.mcat.users.get(u).unwrap().qualified(), "sekar@sdsc");
        assert!(!g.mcat.users.get(u).unwrap().is_admin);
    }

    #[test]
    fn servers_sorted_and_named() {
        let (g, s1, _) = demo_grid();
        let servers = g.servers();
        assert_eq!(servers[0].id, s1);
        assert_eq!(servers[0].name, "srb-sdsc");
        let on_s1 = g.placement.values().filter(|p| p.server == s1).count();
        assert_eq!(on_s1, 2);
        assert!(g.server(ServerId(99)).is_err());
    }
}
