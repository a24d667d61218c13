//! Run every experiment in DESIGN.md §5 and print all tables.
fn main() {
    let e1_max = std::env::var("SRB_E1_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    bench::experiments::e1_catalog_scale::run(e1_max).print();
    bench::experiments::e2_containers::run(50).print();
    bench::experiments::e2_range::run(50_000).print();
    bench::experiments::e2_range::run_paging(50_000).print();
    bench::experiments::e3_failover::run().print();
    bench::experiments::e4_federation::run().print();
    bench::experiments::e5_query::run(20_000).print();
    bench::experiments::e6_parallel::run_scaling().print();
    bench::experiments::e6_parallel::run_policies().print();
    bench::experiments::e6_parallel::run_policies_skewed().print();
    bench::experiments::e6_parallel::run_fanout(2_000).print();
    bench::experiments::e7_sync_repl::run().print();
    bench::experiments::e8_auth::run().print();
    bench::experiments::e9_migration::run().print();
    bench::experiments::e10_cache::run().print();
    let rec_max = std::env::var("SRB_RECOVERY_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    bench::experiments::recovery::run(rec_max).print();
    bench::experiments::zone::run().print();
    bench::experiments::zone::run_tail().print();
    let load = bench::experiments::load::LoadParams {
        max_sessions: 10_000,
        requests: 5_000,
        ..Default::default()
    };
    for t in bench::experiments::load::run_tables(&load) {
        t.print();
    }
    bench::experiments::figures::figure1().print();
    bench::experiments::figures::figure2().print();
}
