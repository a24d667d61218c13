//! Shared grid fixtures and workload generators for the experiments.

use rand::{Rng, SeedableRng};
use srb_core::{Grid, GridBuilder, IngestOptions, SrbConnection};
use srb_net::LinkSpec;
use srb_types::{ServerId, Triplet};

/// One site, one server, one fs resource — catalog-focused experiments.
pub fn single_site_grid() -> (Grid, ServerId) {
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb-sdsc", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    ok(grid.register_user("bench", "sdsc", "pw"));
    (grid, srv)
}

/// The standard three-site federation used across experiments: SDSC with
/// disk+cache, CalTech with an archive, NCSA with disk+archive, metro link
/// SDSC–CalTech, WAN elsewhere.
pub fn federated_grid() -> (Grid, [ServerId; 3]) {
    let mut gb = GridBuilder::new();
    let sdsc = gb.site("sdsc");
    let caltech = gb.site("caltech");
    let ncsa = gb.site("ncsa");
    gb.link(sdsc, caltech, LinkSpec::metro());
    gb.link(sdsc, ncsa, LinkSpec::wan());
    gb.link(caltech, ncsa, LinkSpec::wan());
    let s1 = gb.server("srb-sdsc", sdsc);
    let s2 = gb.server("srb-caltech", caltech);
    let s3 = gb.server("srb-ncsa", ncsa);
    gb.fs_resource("fs-sdsc", s1)
        .cache_resource("cache-sdsc", s1, 512 << 20)
        .archive_resource("hpss-caltech", s2)
        .fs_resource("fs-ncsa", s3)
        .archive_resource("hpss-ncsa", s3)
        .logical_resource("mirror", &["fs-sdsc", "fs-ncsa"])
        .logical_resource("ct-store", &["cache-sdsc", "hpss-caltech"]);
    let grid = gb.build();
    ok(grid.register_user("bench", "sdsc", "pw"));
    (grid, [s1, s2, s3])
}

/// A two-zone federation (`alpha`, `beta`) joined by one peering link of
/// the given spec, periodic WAL checkpoints off so experiments stay on
/// the pure delta-replication path, the `bench` user registered in both
/// zones. Returns the federation and both zone ids.
pub fn zone_federation(
    spec: LinkSpec,
) -> (srb_core::Federation, srb_core::ZoneId, srb_core::ZoneId) {
    let mut fed = srb_core::Federation::new();
    let clock = fed.clock().clone();
    let mkzone = |tag: &str| {
        let mut gb = GridBuilder::new();
        gb.clock(clock.clone());
        let site = gb.site(&format!("site-{tag}"));
        let srv = gb.server(&format!("srb-{tag}"), site);
        gb.fs_resource(&format!("fs-{tag}"), srv);
        let grid = gb.build();
        ok(grid.enable_durability(
            std::sync::Arc::new(srb_storage::LogDevice::new()),
            srb_mcat::WalConfig {
                checkpoint_interval_ns: 0,
            },
        ));
        ok(grid.register_user("bench", "sdsc", "pw"));
        (grid, srv)
    };
    let (grid_a, srv_a) = mkzone("alpha");
    let (grid_b, srv_b) = mkzone("beta");
    let a = ok(fed.add_zone("alpha", grid_a, srv_a));
    let b = ok(fed.add_zone("beta", grid_b, srv_b));
    ok(fed.link(a, b, spec));
    (fed, a, b)
}

/// Connect the bench user to one federation zone.
pub fn zone_connect<'f>(fed: &'f srb_core::Federation, z: srb_core::ZoneId) -> SrbConnection<'f> {
    let zone = ok(fed.zone(z));
    ok(SrbConnection::connect(
        &zone.grid,
        zone.contact(),
        "bench",
        "sdsc",
        "pw",
    ))
}

/// Unwrap an experiment-infrastructure result without `.unwrap()` (the
/// `no-unwrap` lint rule covers bench library code too).
pub fn ok<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("experiment op failed: {e}"),
    }
}

/// Average wall-clock microseconds over `reps` runs of `f`.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_micros() as f64 / reps.max(1) as f64
}

/// Connect the standard bench user.
pub fn connect<'g>(grid: &'g Grid, srv: ServerId) -> SrbConnection<'g> {
    ok(SrbConnection::connect(grid, srv, "bench", "sdsc", "pw"))
}

/// Ingest `n` small datasets under `/home/bench/data` with three metadata
/// attributes each: a unique `serial`, a low-cardinality `kind`, and a
/// numeric `score`. Returns ingest wall time.
pub fn seed_datasets(conn: &SrbConnection<'_>, n: usize, resource: &str) -> std::time::Duration {
    ok(conn.make_collection("/home/bench/data"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let t0 = std::time::Instant::now();
    for i in 0..n {
        ok(conn.ingest(
            &format!("/home/bench/data/obj{i:07}"),
            b"payload",
            IngestOptions::to_resource(resource)
                .with_metadata(Triplet::new("serial", i as i64, ""))
                .with_metadata(Triplet::new("kind", ["image", "text", "movie"][i % 3], ""))
                .with_metadata(Triplet::new("score", rng.gen_range(0i64..1000), "")),
        ));
    }
    t0.elapsed()
}
