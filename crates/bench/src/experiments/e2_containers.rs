//! E2 — containers "decrease latency when accessed over a wide area
//! network" (§2/§3).
//!
//! N small files are read cold from a remote archive twice: once stored
//! individually (one tape staging per file) and once aggregated in a
//! container (one staging for the whole batch, then cache range-reads).
//! Sweeping the file size shows the advantage shrinking as files grow —
//! the crossover the aggregation design targets.

use crate::fixtures::{connect, federated_grid, ok};
use crate::table::Table;
use srb_core::IngestOptions;

/// Read `n_files` of each size both ways; report total simulated time.
pub fn run(n_files: usize) -> Table {
    let mut table = Table::new(
        "E2: container aggregation vs per-file archive access (cold reads over WAN)",
        &[
            "file size",
            "files",
            "per-file total ms",
            "container total ms",
            "speedup",
        ],
    );
    for &size in &[512usize, 4 << 10, 64 << 10, 1 << 20, 8 << 20] {
        let (grid, [s1, ..]) = federated_grid();
        let conn = connect(&grid, s1);
        let payload = vec![0xA5u8; size];
        ok(conn.make_collection("/home/bench/raw"));
        ok(conn.make_collection("/home/bench/ct"));
        // Individually archived files.
        for i in 0..n_files {
            ok(conn.ingest(
                &format!("/home/bench/raw/f{i}"),
                &payload,
                IngestOptions::to_resource("hpss-caltech"),
            ));
        }
        // Containerized files on the cache+archive logical resource.
        ok(conn.create_container("ct", "ct-store", (size * n_files * 2 + 1024) as u64));
        for i in 0..n_files {
            ok(conn.ingest(
                &format!("/home/bench/ct/f{i}"),
                &payload,
                IngestOptions::into_container("ct"),
            ));
        }
        ok(conn.sync_container("ct"));
        // Go cold: purge the container cache and the archive staging area.
        ok(conn.purge_container_cache("ct"));
        let hpss = ok(grid.resource_id("hpss-caltech"));
        ok(ok(grid.driver(hpss))
            .as_archive()
            .ok_or("hpss-caltech is not an archive"))
        .purge_staged();

        let mut per_file_ns = 0u64;
        for i in 0..n_files {
            let (_, r) = ok(conn.read(&format!("/home/bench/raw/f{i}")));
            per_file_ns += r.sim_ns;
        }
        let mut container_ns = 0u64;
        for i in 0..n_files {
            let (_, r) = ok(conn.read(&format!("/home/bench/ct/f{i}")));
            container_ns += r.sim_ns;
        }
        table.row(vec![
            human_size(size),
            n_files.to_string(),
            format!("{:.1}", per_file_ns as f64 / 1e6),
            format!("{:.1}", container_ns as f64 / 1e6),
            format!("{:.1}x", per_file_ns as f64 / container_ns.max(1) as f64),
        ]);
    }
    table
}

fn human_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MiB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{} KiB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}
