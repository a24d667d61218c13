//! Shared fixture: a three-site grid modelled on the paper's deployments
//! (SDSC + CalTech + NCSA), with one server per site, a mix of resource
//! kinds, a logical resource, and two users.

use srb_core::{Grid, GridBuilder, SrbConnection};
use srb_mcat::Mcat;
use srb_net::LinkSpec;
use srb_types::ServerId;

#[allow(dead_code)] // fields used by only some test binaries
pub struct Fixture {
    pub grid: Grid,
    pub sdsc: ServerId,
    pub caltech: ServerId,
    pub ncsa: ServerId,
}

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
