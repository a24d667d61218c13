//! A digital-library workload modelled on the paper's 2-Micron All Sky
//! Survey deployment ("10 TB comprising 5 million files in a digital
//! library"), scaled to simulation size: thousands of small FITS images
//! ingested into containers, synchronized to a tape archive, indexed with
//! extracted metadata, and served to queries — demonstrating why
//! containers exist.
//!
//! ```text
//! cargo run --release --example sky_survey
//! ```

// The example reports its own wall time; the lock ban still holds.
#![allow(clippy::disallowed_methods)]

use srb_grid::prelude::*;

const N_IMAGES: usize = 2_000;
const IMAGES_PER_CONTAINER: usize = 250;

fn fits_image(idx: usize) -> Vec<u8> {
    // A miniature FITS-like header + payload.
    format!(
        "SIMPLE  = T\nOBJECT  = 'field-{:05}'\nRA      = {}\nDEC     = {}\nTELESCOP= '2MASS'\nEND\n{}",
        idx,
        (idx * 7) % 360,
        (idx * 3) % 180,
        "#".repeat(512)
    )
    .into_bytes()
}

fn main() -> SrbResult<()> {
    let mut gb = GridBuilder::new();
    let sdsc = gb.site("sdsc");
    let ipac = gb.site("ipac");
    gb.link(sdsc, ipac, LinkSpec::wan());
    let srv = gb.server("srb-sdsc", sdsc);
    let srv_ipac = gb.server("srb-ipac", ipac);
    gb.cache_resource("cache-sdsc", srv, 256 << 20)
        .archive_resource("hpss-ipac", srv_ipac)
        .logical_resource("survey-store", &["cache-sdsc", "hpss-ipac"]);
    let grid = gb.build();
    grid.register_user("survey", "sdsc", "pw")?;
    let conn = SrbConnection::connect(&grid, srv, "survey", "sdsc", "pw")?;

    conn.make_collection("/home/survey/2mass")?;

    // Ingest in container-sized batches.
    let t0 = std::time::Instant::now();
    let mut container_idx = 0;
    let mut total_receipt = Receipt::free();
    for i in 0..N_IMAGES {
        if i % IMAGES_PER_CONTAINER == 0 {
            container_idx += 1;
            conn.create_container(
                &format!("2mass-ct{container_idx}"),
                "survey-store",
                64 << 20,
            )?;
        }
        let r = conn.ingest(
            &format!("/home/survey/2mass/field-{i:05}.fits"),
            fits_image(i),
            IngestOptions::into_container(&format!("2mass-ct{container_idx}"))
                .with_type("fits image")
                .with_metadata(Triplet::new("ra", ((i * 7) % 360) as i64, "deg"))
                .with_metadata(Triplet::new("dec", ((i * 3) % 180) as i64, "deg")),
        )?;
        total_receipt.absorb(&r);
    }
    println!(
        "ingested {N_IMAGES} images into {container_idx} containers in {:?} wall, \
         {:.1} ms simulated, {} catalog datasets",
        t0.elapsed(),
        total_receipt.sim_ms(),
        grid.mcat.datasets.count()
    );

    // Extract metadata from a sample image with a T-language rule.
    let t = conn.extract_metadata(
        "/home/survey/2mass/field-00042.fits",
        "extract OBJECT keyvalue \"=\"\nextract TELESCOP keyvalue \"=\"\n",
    )?;
    println!("extracted from field 42: {t:?}");

    // Synchronize the containers to the archive and purge the caches —
    // the survey now lives on tape, as it would in production.
    for c in 1..=container_idx {
        conn.sync_container(&format!("2mass-ct{c}"))?;
        conn.purge_container_cache(&format!("2mass-ct{c}"))?;
    }
    println!("containers synchronized to hpss-ipac and caches purged");

    // A cone-search-like query: RA band + declination band.
    let q = Query::everywhere()
        .under(LogicalPath::parse("/home/survey/2mass")?)
        .and("ra", CompareOp::Ge, 100i64)
        .and("ra", CompareOp::Lt, 110i64)
        .and("dec", CompareOp::Ge, 30i64)
        .and("dec", CompareOp::Lt, 60i64)
        .show("ra")
        .show("dec");
    let t1 = std::time::Instant::now();
    let (hits, _) = conn.query(&q)?;
    println!(
        "cone query matched {} images in {:?} (indexed path)",
        hits.len(),
        t1.elapsed()
    );

    // Reading a matched image recalls its whole container once; reading
    // it (or any container neighbour) again is a cache hit.
    if let [first, ..] = hits.as_slice() {
        let (_, r1) = conn.read(&first.path)?;
        let (_, r2) = conn.read(&first.path)?;
        println!(
            "first read (container recall from tape): {:.1} ms simulated",
            r1.sim_ms()
        );
        println!(
            "second read (cache hit):                 {:.3} ms simulated",
            r2.sim_ms()
        );
        assert!(r1.sim_ns > r2.sim_ns * 10);
    }

    println!(
        "catalog summary: {}",
        serde_json::to_string(&grid.mcat.summary()).unwrap()
    );
    Ok(())
}
