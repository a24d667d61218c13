//! Criterion micro-benchmarks over the hot paths behind every experiment:
//! catalog ingest/query, the read path (local, federated, container),
//! authentication, the micro-SQL engine, hashing, paths and LIKE matching.
//!
//! Each group is kept short (small sample counts) so `cargo bench
//! --workspace` completes in minutes; the `exp_*` binaries produce the
//! table-shaped output recorded in EXPERIMENTS.md.

use bench::fixtures::{connect, federated_grid, seed_datasets, single_site_grid};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use srb_core::{IngestOptions, SrbConnection};
use srb_mcat::Query;
use srb_storage::SqlEngine;
use srb_types::{sha256, value::like_match, CompareOp, LogicalPath};

fn bench_catalog(c: &mut Criterion) {
    let mut g = c.benchmark_group("catalog");
    g.sample_size(20);
    let (grid, srv) = single_site_grid();
    let conn = connect(&grid, srv);
    seed_datasets(&conn, 10_000, "fs");
    let mut i = 10_000_000u64;
    g.bench_function("ingest_small_file", |b| {
        b.iter(|| {
            i += 1;
            conn.ingest(
                &format!("/home/bench/data/bench{i}"),
                b"payload",
                IngestOptions::to_resource("fs"),
            )
            .unwrap()
        })
    });
    let q_point = Query::everywhere().and("serial", CompareOp::Eq, 5000i64);
    g.bench_function("query_point_indexed_10k", |b| {
        b.iter(|| conn.query(&q_point).unwrap())
    });
    g.bench_function("query_point_scan_10k", |b| {
        b.iter(|| conn.query_scan(&q_point).unwrap())
    });
    let q_range =
        Query::everywhere()
            .and("score", CompareOp::Ge, 400i64)
            .and("kind", CompareOp::Eq, "image");
    g.bench_function("query_conjunctive_10k", |b| {
        b.iter(|| conn.query(&q_range).unwrap())
    });
    // Unordered paging: verification short-circuits at 25 confirmed hits.
    let q_page = Query::everywhere()
        .and("kind", CompareOp::Eq, "image")
        .first_hits(25);
    g.bench_function("query_first25_unordered_10k", |b| {
        b.iter(|| grid.mcat.query(&q_page).unwrap())
    });
    g.finish();
}

fn bench_read_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("read");
    g.sample_size(20);
    let (grid, [s1, _, s3]) = federated_grid();
    let conn = connect(&grid, s1);
    let payload = vec![1u8; 64 << 10];
    conn.ingest(
        "/home/bench/local.bin",
        &payload,
        IngestOptions::to_resource("fs-sdsc"),
    )
    .unwrap();
    conn.ingest(
        "/home/bench/remote.bin",
        &payload,
        IngestOptions::to_resource("fs-ncsa"),
    )
    .unwrap();
    conn.create_container("ct", "ct-store", 64 << 20).unwrap();
    conn.ingest(
        "/home/bench/contained.bin",
        &payload,
        IngestOptions::into_container("ct"),
    )
    .unwrap();
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("local_64k", |b| {
        b.iter(|| conn.read("/home/bench/local.bin").unwrap())
    });
    g.bench_function("federated_64k", |b| {
        b.iter(|| conn.read("/home/bench/remote.bin").unwrap())
    });
    g.bench_function("container_member_64k_warm", |b| {
        b.iter(|| conn.read("/home/bench/contained.bin").unwrap())
    });
    let conn3 = SrbConnection::connect(&grid, s3, "bench", "sdsc", "pw").unwrap();
    g.bench_function("relayed_contact_64k", |b| {
        b.iter(|| conn3.read("/home/bench/local.bin").unwrap())
    });
    g.finish();
}

fn bench_auth(c: &mut Criterion) {
    let mut g = c.benchmark_group("auth");
    g.sample_size(30);
    let (grid, srv) = single_site_grid();
    g.bench_function("connect_handshake", |b| {
        b.iter_batched(
            || (),
            |_| {
                SrbConnection::connect(&grid, srv, "bench", "sdsc", "pw")
                    .unwrap()
                    .logout()
            },
            BatchSize::SmallInput,
        )
    });
    let conn = connect(&grid, srv);
    g.bench_function("ticket_validation_via_stat", |b| {
        b.iter(|| conn.stat("/home/bench").ok())
    });
    g.finish();
}

fn bench_sql(c: &mut Criterion) {
    let mut g = c.benchmark_group("microsql");
    g.sample_size(30);
    let e = SqlEngine::new();
    e.execute("CREATE TABLE t (a, b, c)").unwrap();
    for i in 0..1000 {
        e.execute(&format!("INSERT INTO t VALUES ({i}, 'name{i}', {})", i % 7))
            .unwrap();
    }
    g.bench_function("select_where_1k_rows", |b| {
        b.iter(|| {
            e.execute("SELECT a, b FROM t WHERE c = 3 AND a > 500")
                .unwrap()
        })
    });
    g.bench_function("select_order_limit", |b| {
        b.iter(|| {
            e.execute("SELECT a FROM t ORDER BY a DESC LIMIT 10")
                .unwrap()
        })
    });
    g.bench_function("insert_row", |b| {
        let mut i = 1_000_000;
        b.iter(|| {
            i += 1;
            e.execute(&format!("INSERT INTO t VALUES ({i}, 'x', 0)"))
                .unwrap()
        })
    });
    g.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    let data = vec![0xABu8; 64 << 10];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("sha256_64k", |b| b.iter(|| sha256(&data)));
    g.finish();

    let mut g = c.benchmark_group("primitives2");
    g.bench_function("logical_path_parse", |b| {
        b.iter(|| LogicalPath::parse("/home/sekar/Cultures/Avian Culture/notes.txt").unwrap())
    });
    g.bench_function("like_match", |b| {
        b.iter(|| like_match("%condor%and%", "the condor flies over land"))
    });
    g.finish();
}

fn bench_persistence(c: &mut Criterion) {
    let mut g = c.benchmark_group("persistence");
    g.sample_size(10);
    let (grid, srv) = single_site_grid();
    let conn = connect(&grid, srv);
    seed_datasets(&conn, 2_000, "fs");
    g.bench_function("save_state_2k_datasets", |b| {
        b.iter(|| grid.save_state().unwrap())
    });
    let saved = grid.save_state().unwrap();
    g.throughput(Throughput::Bytes(saved.len() as u64));
    g.bench_function("restore_state_2k_datasets", |b| {
        b.iter_batched(
            || {
                let (g2, _) = single_site_grid();
                g2
            },
            |mut g2| g2.restore_state(&saved).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_languages(c: &mut Criterion) {
    let mut g = c.benchmark_group("languages");
    let script = srb_core::TScript::parse(
        "extract OBJECT keyvalue \"=\"\nextract TELESCOP keyvalue \"=\"\nset Format \"FITS\"\n",
    )
    .unwrap();
    let fits = "SIMPLE  = T\nOBJECT  = 'M31'\nTELESCOP= '2MASS'\nEND\n";
    g.bench_function("tlang_extract", |b| b.iter(|| script.extract(fits)));
    let xml = r#"<m><attr name="species" units="">Vultur gryphus</attr>
        <attr name="wingspan" units="cm">290</attr><Title>Condor</Title></m>"#;
    g.bench_function("xml_meta_parse", |b| {
        b.iter(|| srb_core::xmlmeta::parse_xml_triplets(xml).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_catalog,
    bench_read_paths,
    bench_auth,
    bench_sql,
    bench_primitives,
    bench_persistence,
    bench_languages
);
criterion_main!(benches);
