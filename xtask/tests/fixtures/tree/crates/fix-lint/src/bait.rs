//! Seeded lint-rule fixtures: a raw std::sync lock import, wall-clock
//! reads, one unwrap in library code, and text keys on the id hasher.

use std::sync::Mutex;
use std::time::Instant;

pub fn now_ms() -> u64 {
    let t = Instant::now();
    t.elapsed().as_millis() as u64
}

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub struct Tables {
    by_name: IdMap<String, u64>,
    by_path: IdMap<srb_types::LogicalPath, u32>,
    words: IdSet<&'static str>,
    rows: IdMap<DatasetId, String>,
}
