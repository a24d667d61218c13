//! Seeded lint-rule fixtures: a raw std::sync lock import, wall-clock
//! reads, and one unwrap in library code.

use std::sync::Mutex;
use std::time::Instant;

pub fn now_ms() -> u64 {
    let t = Instant::now();
    t.elapsed().as_millis() as u64
}

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}
