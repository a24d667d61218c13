//! Bytes handed out per row written, counted exactly: a counting global
//! allocator wraps `System`, and over a 300 000-row fill no single write
//! may take more than one page's worth of bytes — one page's row vector,
//! plus the row's own text. A table keeps its rows in id pages that grow
//! a page at a time and never rehash; a hash map of 300 000 rows doubles
//! its buckets as it fills, the last time by tens of megabytes in one
//! insert, under the table's write guard. All 300 000 datasets go into
//! one collection, as an ingest-heavy grid puts them.
//!
//! The bytes the fill leaves live are pinned too, per dataset: the row in
//! its page, its name, type and replica — with its checksum, as an
//! ingest's replica has — and its entry in the name index.
//!
//! This file holds one test so no other test thread allocates while a
//! write is counted.

use srb_mcat::{AccessSpec, AuditAction, AuditRow, Dataset, Mcat, IMAGE_PAGE_IDS};
use srb_types::alloc::{bytes, live_bytes, Counting};
use srb_types::{Checksum, ResourceId, SimClock};
use std::mem::size_of;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Rows each fill writes.
const ROWS: usize = 300_000;

/// Live bytes per dataset after the fill, at most. A field or a
/// per-row allocation added to a dataset row shows here. 501 → 474 once
/// the name and type were held inline, in the row and in the name index.
const LIVE_PER_DATASET: u64 = 474;

/// What one row owns beside its slot in the page: its name, path and
/// subject strings, its replica list and ACL.
const ROW_TEXT: u64 = 4_096;

/// One page's worth of `R` rows, plus a row's own text.
fn page_of<R>() -> u64 {
    IMAGE_PAGE_IDS * size_of::<R>() as u64 + ROW_TEXT
}

#[test]
fn no_write_takes_more_than_a_page() {
    let m = Mcat::new(SimClock::new(), "pw");
    let (admin, now) = (m.admin(), m.clock.now());
    let root = m.collections.root();
    let coll = m.collections.create(&m.ids, root, "c", admin, now).unwrap();
    let before = live_bytes();
    let mut worst = 0;
    for k in 0..ROWS {
        let name = format!("obj{k:07}");
        let replica = AccessSpec::Stored {
            resource: ResourceId(1),
            phys_path: format!("/p/{k}"),
        };
        let replicas = vec![(replica, 256, Some(Checksum::of(name.as_bytes())))];
        let (taken, made) = bytes(|| {
            m.datasets
                .create(&m.ids, coll, &name, "generic", admin, replicas, now)
        });
        made.unwrap();
        worst = worst.max(taken);
    }
    let per_dataset = (live_bytes() - before) / ROWS as u64;
    assert!(
        per_dataset <= LIVE_PER_DATASET,
        "the fill holds {per_dataset} live bytes per dataset, more than {LIVE_PER_DATASET}"
    );
    assert!(
        worst <= page_of::<Dataset>(),
        "a dataset create took {worst} bytes, more than one page's worth ({})",
        page_of::<Dataset>()
    );

    let mut worst = 0;
    for k in 0..ROWS {
        let subject = format!("/s{k}");
        let (taken, ()) = bytes(|| {
            m.audit
                .record(&m.ids, now, admin, AuditAction::Read, &subject, "ok")
        });
        worst = worst.max(taken);
    }
    assert!(
        worst <= page_of::<AuditRow>(),
        "an audit record took {worst} bytes, more than one page's worth ({})",
        page_of::<AuditRow>()
    );
    assert_eq!(m.datasets.count(), ROWS);
    assert_eq!(m.audit.count(), ROWS);
}
