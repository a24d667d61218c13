//! Allocator calls a catalog restore makes per metadata row, counted
//! exactly: a counting global allocator wraps `System`. Two images differ
//! only in one attribute's text: ASCII in one, beyond ASCII in the other.
//! Restoring the second may cost each row only what its text costs — its
//! fold, made once when the row is keyed for the index build, and the
//! stored key's fold beside its raw form — whatever the number of rows.
//! A rebuild that keys a row again at each comparison of its sort folds
//! it O(log n) times and shows here.
//!
//! This file holds one test so no other test thread allocates while a
//! restore is counted.

use srb_mcat::{Mcat, MetaKind, Subject};
use srb_types::alloc::{count, Counting};
use srb_types::{DatasetId, MetaValue, SimClock, Triplet};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Metadata rows in each image, one per subject, every value distinct.
const ROWS: u64 = 20_000;

/// Row `k` carries value number `k * STRIDE % ROWS`, so id order is not
/// key order and the sort does its full work.
const STRIDE: u64 = 7_919;

/// The most allocator calls restoring a row of text beyond ASCII may make
/// above one of ASCII text: the probe's fold, and the stored key's box and
/// fold.
const EXTRA_PER_ROW: u64 = 3;

/// Allocator calls `Mcat::restore_json` makes over an image whose rows
/// carry `text(k)` under one attribute.
fn restore_allocs(text: impl Fn(u64) -> String) -> u64 {
    let m = Mcat::new(SimClock::new(), "pw");
    for k in 0..ROWS {
        m.metadata.add(
            &m.ids,
            Subject::Dataset(DatasetId(1_000_000 + k)),
            Triplet::new("title", MetaValue::Text(text(k).into()), ""),
            MetaKind::UserDefined,
        );
    }
    let json = m.snapshot_json().unwrap();
    drop(m);
    let (allocs, restored) = count(|| Mcat::restore_json(SimClock::new(), &json));
    assert_eq!(restored.unwrap().metadata.count() as u64, ROWS);
    allocs
}

#[test]
fn restore_folds_each_rows_text_once() {
    let ascii = restore_allocs(|k| format!("emile {:06}", k * STRIDE % ROWS));
    let beyond = restore_allocs(|k| format!("Émile {:06}", k * STRIDE % ROWS));
    let extra = beyond.saturating_sub(ascii) as f64 / ROWS as f64;
    assert!(
        extra <= EXTRA_PER_ROW as f64,
        "a row of text beyond ASCII costs {extra:.2} more allocator calls to restore than \
         one of ASCII text, more than {EXTRA_PER_ROW}"
    );
}
