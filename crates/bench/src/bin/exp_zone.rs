fn main() {
    let json = std::env::args().any(|a| a == "--json");
    if json {
        let v = bench::experiments::zone::run_json();
        let text = serde_json::to_string_pretty(&v).unwrap_or_default();
        if let Err(e) = std::fs::write("BENCH_ZONE.json", text) {
            eprintln!("failed to write BENCH_ZONE.json: {e}");
            std::process::exit(1);
        }
        println!("wrote BENCH_ZONE.json");
    } else {
        bench::experiments::zone::run().print();
        bench::experiments::zone::run_tail().print();
    }
}
