//! Shared fixture: a three-site grid modelled on the paper's deployments
//! (SDSC + CalTech + NCSA), with one server per site, a mix of resource
//! kinds, a logical resource, and two users; plus the single-site zone
//! grid the federation tests build their zones from, and catalog checks.

use srb_core::{Grid, GridBuilder, SrbConnection};
use srb_mcat::{Mcat, WalConfig};
use srb_net::LinkSpec;
use srb_storage::LogDevice;
use srb_types::{ServerId, SimClock};
use std::sync::Arc;

#[allow(dead_code)] // fields used by only some test binaries
pub struct Fixture {
    pub grid: Grid,
    pub sdsc: ServerId,
    pub caltech: ServerId,
    pub ncsa: ServerId,
}

#[allow(dead_code)]
pub fn grid() -> Fixture {
    let mut gb = GridBuilder::new();
    let s_sdsc = gb.site("sdsc");
    let s_caltech = gb.site("caltech");
    let s_ncsa = gb.site("ncsa");
    gb.link(s_sdsc, s_caltech, LinkSpec::metro());
    gb.link(s_sdsc, s_ncsa, LinkSpec::wan());
    gb.link(s_caltech, s_ncsa, LinkSpec::wan());
    let sdsc = gb.server("srb-sdsc", s_sdsc);
    let caltech = gb.server("srb-caltech", s_caltech);
    let ncsa = gb.server("srb-ncsa", s_ncsa);
    gb.fs_resource("unix-sdsc", sdsc)
        .cache_resource("cache-sdsc", sdsc, 64 * 1024)
        .archive_resource("hpss-caltech", caltech)
        .fs_resource("unix-ncsa", ncsa)
        .archive_resource("hpss-ncsa", ncsa)
        .db_resource("oracle-dlib", caltech)
        .logical_resource("logrsrc1", &["unix-sdsc", "hpss-caltech"])
        .logical_resource("ct-store", &["cache-sdsc", "hpss-caltech"]);
    let grid = gb.build();
    grid.register_user("sekar", "sdsc", "pw-sekar").unwrap();
    grid.register_user("mwan", "sdsc", "pw-mwan").unwrap();
    Fixture {
        grid,
        sdsc,
        caltech,
        ncsa,
    }
}

#[allow(dead_code)]
pub fn connect<'g>(f: &'g Fixture, user: &str) -> SrbConnection<'g> {
    SrbConnection::connect(&f.grid, f.sdsc, user, "sdsc", &format!("pw-{user}")).unwrap()
}

/// Snapshot JSON with the id-allocator watermark normalized out: recovery
/// floors the allocator at the highest id a durable row proves, which may
/// lag the live one by ids burned in failed or unacknowledged work. Every
/// *row* must still match byte-for-byte.
#[allow(dead_code)]
pub fn normalized(m: &Mcat) -> String {
    let mut v: serde_json::Value = serde_json::from_str(&m.snapshot_json().unwrap()).unwrap();
    if let serde_json::Value::Map(entries) = &mut v {
        for (key, val) in entries.iter_mut() {
            if key == "next_id_floor" {
                *val = serde_json::Value::Null;
            }
        }
    }
    serde_json::to_string(&v).unwrap()
}

/// Every metadata row, meta-file association and annotation in `m` is
/// keyed to a dataset or collection that still exists: dropping a
/// subject drops everything keyed to it.
#[allow(dead_code)]
pub fn assert_no_orphans(m: &Mcat) {
    use srb_mcat::{CatalogSnapshot, Subject};
    use std::collections::HashSet;
    let snap: CatalogSnapshot = serde_json::from_str(&m.snapshot_json().unwrap()).unwrap();
    let live: HashSet<Subject> = snap
        .collections
        .iter()
        .map(|c| Subject::Collection(c.id))
        .chain(snap.datasets.iter().map(|d| Subject::Dataset(d.id)))
        .collect();
    for row in snap.metadata.iter() {
        assert!(live.contains(&row.subject), "orphan metadata row {row:?}");
    }
    for (subject, _) in &snap.meta_files {
        assert!(
            live.contains(subject),
            "orphan meta-file link on {subject:?}"
        );
    }
    for a in snap.annotations.iter() {
        assert!(live.contains(&a.subject), "orphan annotation {a:?}");
    }
}

/// One single-site zone grid on a shared federation clock, with WAL
/// durability and periodic checkpoints off (tests trigger checkpoints
/// explicitly to exercise the resync path deterministically).
#[allow(dead_code)]
pub fn zone_grid(clock: &SimClock, tag: &str) -> (Grid, ServerId) {
    let mut gb = GridBuilder::new();
    gb.clock(clock.clone());
    let site = gb.site(&format!("site-{tag}"));
    let srv = gb.server(&format!("srb-{tag}"), site);
    gb.fs_resource(&format!("fs-{tag}"), srv);
    let grid = gb.build();
    grid.enable_durability(
        Arc::new(LogDevice::new()),
        WalConfig {
            checkpoint_interval_ns: 0,
        },
    )
    .unwrap();
    grid.register_user("sekar", "sdsc", "pw").unwrap();
    (grid, srv)
}
