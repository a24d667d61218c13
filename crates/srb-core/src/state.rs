//! Whole-grid state save/restore.
//!
//! [`Grid::save_state`] writes the catalog image — [`Mcat::write_image`],
//! the same text every WAL checkpoint carries, streamed from the live
//! tables — together with every resource's physical objects and database
//! tables; [`Grid::restore_state`] reads it back into a freshly built grid
//! with the *same topology* (resources are matched by name) and adopts the
//! catalog the one way [`Grid::recover_catalog`] adopts a recovered one.
//! Together with E9's media migration this completes the
//! persistent-archive story: both the data and the catalog survive process
//! and technology generations.
//!
//! A restore fails closed: it reads and checks the whole file — format,
//! catalog, topology, every object's bytes and resource — before the first
//! byte lands in a driver, so a bad file leaves the grid as it was. It
//! refuses a grid with durability enabled, whose logged catalog a restored
//! (unlogged) one would silently replace.
//!
//! Caveats, by design: cache pin expiries and archive staging state are
//! cost-model state, not data, and reset to "staged" on restore; sessions
//! and in-flight locks' wall-clock context follow the restored virtual
//! clock.

use crate::grid::Grid;
use serde::{Deserialize, Serialize};
use srb_mcat::{CatalogSnapshot, Mcat};
use srb_storage::sql::SqlValue;
use srb_types::{from_hex, to_hex, SrbError, SrbResult, Timestamp};

/// Serialized image of one resource's physical objects.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct ResourceState {
    /// Resource name (topology key).
    pub name: String,
    /// `(physical path, hex-encoded bytes)` pairs.
    pub objects: Vec<(String, String)>,
    /// Database tables, for database resources.
    pub tables: Vec<(String, Vec<String>, Vec<Vec<SqlValue>>)>,
}

/// A complete grid image: catalog + storage, as read back from the text
/// [`Grid::save_state`] writes.
#[derive(Debug, Deserialize)]
pub(crate) struct GridState {
    /// Format version.
    pub version: u32,
    /// The catalog.
    pub catalog: CatalogSnapshot,
    /// Per-resource physical state.
    pub resources: Vec<ResourceState>,
    /// Virtual time at save.
    pub clock_ns: u64,
}

/// Current grid-state format version.
pub(crate) const GRID_STATE_VERSION: u32 = 1;

impl Grid {
    /// Capture the full grid state (catalog + every resource's objects)
    /// as `{"version":…,"catalog":…,"resources":[…],"clock_ns":…}`, the
    /// catalog written straight from the live tables and each resource in
    /// its row form, `[name,objects,tables]`.
    pub fn save_state(&self) -> SrbResult<String> {
        let mut out = String::from("{\"version\":");
        GRID_STATE_VERSION.write_json(&mut out);
        out.push_str(",\"catalog\":");
        self.mcat.write_image(&mut out);
        out.push_str(",\"resources\":[");
        for (i, r) in self.mcat.resources.list().into_iter().enumerate() {
            let driver = self.driver(r.id)?;
            let mut objects = Vec::new();
            for path in driver.driver().list("")? {
                let (bytes, _) = driver.driver().read(&path)?;
                objects.push((path, to_hex(&bytes)));
            }
            let tables = driver
                .as_db()
                .map(|db| db.engine().dump_tables())
                .unwrap_or_default();
            if i > 0 {
                out.push(',');
            }
            ResourceState {
                name: r.name,
                objects,
                tables,
            }
            .write_row(&mut out);
        }
        out.push_str("],\"clock_ns\":");
        self.clock.now().nanos().write_json(&mut out);
        out.push('}');
        Ok(out)
    }

    /// Load a saved state into this (freshly built, same-topology) grid.
    /// Every resource named in the state must exist here; extra resources
    /// in the grid simply start empty. Nothing is written until the whole
    /// state has been read and checked. A grid with durability enabled is
    /// refused with `SrbError::Invalid`.
    pub fn restore_state(&mut self, json: &str) -> SrbResult<()> {
        if self.mcat.wal().is_some() {
            return Err(SrbError::Invalid(
                "cannot restore into a grid with durability enabled".into(),
            ));
        }
        let state: GridState = serde_json::from_str(json)
            .map_err(|e| SrbError::Parse(format!("grid state JSON: {e}")))?;
        if state.version != GRID_STATE_VERSION {
            return Err(SrbError::Invalid(format!(
                "unsupported grid-state version {}",
                state.version
            )));
        }
        let mcat = Mcat::restore(self.clock.clone(), state.catalog)?;
        // Resources resolve through the saved catalog: once it is adopted,
        // each of its resources is one of this grid's, under the same id.
        let mut loads = Vec::with_capacity(state.resources.len());
        for rs in state.resources {
            let rid = mcat
                .resources
                .find(&rs.name)
                .ok_or_else(|| SrbError::NotFound(format!("resource '{}'", rs.name)))?
                .id;
            let objects = rs
                .objects
                .into_iter()
                .map(|(path, hexed)| match from_hex(&hexed) {
                    Some(bytes) => Ok((path, bytes)),
                    None => Err(SrbError::Parse(format!("bad hex for object '{path}'"))),
                })
                .collect::<SrbResult<Vec<_>>>()?;
            loads.push((rid, objects, rs.tables));
        }
        self.adopt_catalog(mcat)?;
        for (rid, objects, tables) in loads {
            let driver = self.driver(rid)?;
            for (path, bytes) in objects {
                driver.driver().write(&path, &bytes)?;
            }
            if let Some(db) = driver.as_db() {
                db.engine().restore_tables(tables);
            }
        }
        self.clock.advance_to(Timestamp(state.clock_ns));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::grid::GridBuilder;
    use crate::ops_write::{IngestOptions, RegisterSpec};
    use crate::SrbConnection;
    use srb_mcat::{Query, Template, WalConfig};
    use srb_obs::metric;
    use srb_storage::LogDevice;
    use srb_types::{to_hex, CompareOp, SrbError, Triplet};
    use std::sync::Arc;

    fn build() -> crate::Grid {
        let mut gb = GridBuilder::new();
        let site = gb.site("sdsc");
        let srv = gb.server("srb", site);
        gb.fs_resource("fs", srv)
            .cache_resource("cache", srv, 1 << 20)
            .archive_resource("tape", srv)
            .db_resource("db", srv)
            .logical_resource("ct-store", &["cache", "tape"]);
        gb.build()
    }

    #[test]
    fn full_grid_round_trip() {
        let grid = build();
        grid.register_user("sekar", "sdsc", "pw").unwrap();
        let srv = grid.servers()[0].id;
        let conn = SrbConnection::connect(&grid, srv, "sekar", "sdsc", "pw").unwrap();
        conn.ingest(
            "/home/sekar/a.txt",
            b"alpha",
            IngestOptions::to_resource("fs").with_metadata(Triplet::new("k", "v", "")),
        )
        .unwrap();
        conn.create_container("ct", "ct-store", 1 << 16).unwrap();
        conn.ingest(
            "/home/sekar/b.txt",
            b"bravo",
            IngestOptions::into_container("ct"),
        )
        .unwrap();
        {
            let db = grid.driver(grid.resource_id("db").unwrap()).unwrap();
            let db = db.as_db().unwrap();
            db.engine().execute("CREATE TABLE t (x)").unwrap();
            db.engine().execute("INSERT INTO t VALUES (42)").unwrap();
        }
        conn.register(
            "/home/sekar/q",
            RegisterSpec::Sql {
                resource: "db".into(),
                sql: "SELECT x FROM t".into(),
                partial: false,
                template: Template::HtmlRel,
            },
            IngestOptions::default(),
        )
        .unwrap();
        let saved = grid.save_state().unwrap();

        // Fresh same-topology grid, restore, and use it.
        let mut grid2 = build();
        grid2.restore_state(&saved).unwrap();
        let srv2 = grid2.servers()[0].id;
        // The restored catalog carries users and verifiers: sekar signs on.
        let conn2 = SrbConnection::connect(&grid2, srv2, "sekar", "sdsc", "pw").unwrap();
        assert_eq!(&conn2.read("/home/sekar/a.txt").unwrap().0[..], b"alpha");
        // Container members survive (slice offsets + cache object).
        assert_eq!(&conn2.read("/home/sekar/b.txt").unwrap().0[..], b"bravo");
        // The registered SQL object still queries live tables.
        let (content, _) = conn2.open("/home/sekar/q", &[]).unwrap();
        assert!(content.display().contains("42"));
        // Metadata survived with its indexes.
        assert_eq!(conn2.metadata("/home/sekar/a.txt").unwrap().len(), 1);
        // And new work proceeds without id collisions.
        conn2
            .ingest(
                "/home/sekar/c.txt",
                b"new",
                IngestOptions::to_resource("fs"),
            )
            .unwrap();
    }

    #[test]
    fn topology_mismatch_is_rejected() {
        let grid = build();
        grid.register_user("u", "d", "pw").unwrap();
        let saved = grid.save_state().unwrap();
        let mut gb = GridBuilder::new();
        let site = gb.site("sdsc");
        let srv = gb.server("srb", site);
        gb.fs_resource("other-name", srv);
        let mut wrong = gb.build();
        let err = wrong.restore_state(&saved).unwrap_err();
        assert!(err.to_string().contains("lacks resource"));
        assert!(wrong.restore_state("{]").is_err());
    }

    /// Same names, ids and kinds in the same order, but brokered from
    /// another site: the catalog's resource rows would disagree with where
    /// the grid places them, so the restore fails closed.
    #[test]
    fn a_resource_on_another_site_is_rejected() {
        let saved = saved_with(&["a.txt"]);
        let mut gb = GridBuilder::new();
        gb.site("sdsc");
        let site = gb.site("caltech");
        let srv = gb.server("srb", site);
        gb.fs_resource("fs", srv)
            .cache_resource("cache", srv, 1 << 20)
            .archive_resource("tape", srv)
            .db_resource("db", srv)
            .logical_resource("ct-store", &["cache", "tape"]);
        let mut moved = gb.build();
        let before = moved.mcat.snapshot_json().unwrap();
        let err = moved.restore_state(&saved).unwrap_err();
        assert!(err.to_string().contains("differs between"), "{err}");
        assert_eq!(moved.mcat.snapshot_json().unwrap(), before);
        assert!(drivers_empty(&moved));
    }

    /// The saved state of a grid where sekar ingested `files` to `fs`,
    /// each tagged `k = v`.
    fn saved_with(files: &[&str]) -> String {
        let grid = build();
        grid.register_user("sekar", "sdsc", "pw").unwrap();
        let srv = grid.servers()[0].id;
        let conn = SrbConnection::connect(&grid, srv, "sekar", "sdsc", "pw").unwrap();
        for name in files {
            conn.ingest(
                &format!("/home/sekar/{name}"),
                name.as_bytes(),
                IngestOptions::to_resource("fs").with_metadata(Triplet::new("k", "v", "")),
            )
            .unwrap();
        }
        grid.save_state().unwrap()
    }

    /// Every driver of `grid` holds no object.
    fn drivers_empty(grid: &crate::Grid) -> bool {
        grid.mcat.resources.list().iter().all(|r| {
            let driver = grid.driver(r.id).unwrap();
            driver.driver().list("").unwrap().is_empty()
        })
    }

    #[test]
    fn a_restored_grid_keeps_reporting_catalog_metrics() {
        let saved = saved_with(&["a.txt"]);
        let mut grid = build();
        grid.restore_state(&saved).unwrap();
        let srv = grid.servers()[0].id;
        let conn = SrbConnection::connect(&grid, srv, "sekar", "sdsc", "pw").unwrap();
        let q = Query::everywhere().and("k", CompareOp::Eq, "v");
        assert_eq!(conn.query(&q).unwrap().0.len(), 1);
        let metrics = grid.metrics_snapshot();
        assert!(metrics.counter(metric!("query.plans"), "indexed") >= 1);
    }

    #[test]
    fn a_durable_grid_refuses_a_restore_and_is_left_untouched() {
        let saved = saved_with(&["a.txt"]);
        let mut grid = build();
        let device = Arc::new(LogDevice::new());
        grid.enable_durability(device, WalConfig::default())
            .unwrap();
        let before = grid.mcat.snapshot_json().unwrap();
        let err = grid.restore_state(&saved).unwrap_err();
        assert!(matches!(err, SrbError::Invalid(_)), "{err:?}");
        assert!(grid.mcat.wal().is_some(), "the logged catalog stays");
        assert_eq!(grid.mcat.snapshot_json().unwrap(), before);
        assert!(drivers_empty(&grid));
    }

    #[test]
    fn a_corrupt_object_fails_the_restore_before_any_byte_lands() {
        let files = ["a.txt", "b.txt", "c.txt"];
        let saved = saved_with(&files);
        // The third object in the file: read its entry back from a grid
        // restored from the intact state.
        let mut intact = build();
        intact.restore_state(&saved).unwrap();
        let fs = intact.driver(intact.resource_id("fs").unwrap()).unwrap();
        let paths = fs.driver().list("").unwrap();
        assert_eq!(paths.len(), files.len());
        let (bytes, _) = fs.driver().read(&paths[2]).unwrap();
        let entry = format!("[\"{}\",\"{}\"]", paths[2], to_hex(&bytes));
        assert!(saved.contains(&entry));
        let corrupt = saved.replace(&entry, &format!("[\"{}\",\"zz\"]", paths[2]));

        let mut grid = build();
        let before = grid.mcat.snapshot_json().unwrap();
        let err = grid.restore_state(&corrupt).unwrap_err();
        assert!(matches!(err, SrbError::Parse(_)), "{err:?}");
        assert!(drivers_empty(&grid), "no object of the bad file landed");
        assert_eq!(grid.mcat.snapshot_json().unwrap(), before);
    }
}
