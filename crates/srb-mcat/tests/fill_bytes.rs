//! Bytes handed out per row written, counted exactly: a counting global
//! allocator wraps `System`, and over a 300 000-row fill no single write
//! may take more than one page's worth of bytes — one page's row vector,
//! plus the row's own text. A table keeps its rows in id pages that grow
//! a page at a time and never rehash; a hash map of 300 000 rows doubles
//! its buckets as it fills, the last time by tens of megabytes in one
//! insert, under the table's write guard.
//!
//! The datasets go into collections of 1 000: a collection's member list
//! is a plain vector that doubles as it grows, at 8 bytes a member, which
//! one collection of 300 000 would push past a page; the row store is what
//! is measured here. The audit trail has no such list.
//!
//! This file holds one test so no other test thread allocates while a
//! write is counted.

use srb_mcat::{AccessSpec, AuditAction, AuditRow, Dataset, Mcat, IMAGE_PAGE_IDS};
use srb_types::alloc::{bytes, Counting};
use srb_types::{ResourceId, SimClock};
use std::mem::size_of;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Rows each fill writes.
const ROWS: usize = 300_000;

/// Datasets per collection.
const PER_COLLECTION: usize = 1_000;

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
    let mut coll = root;
    let mut worst = 0;
    for k in 0..ROWS {
        if k % PER_COLLECTION == 0 {
            let name = format!("c{k}");
            coll = m
                .collections
                .create(&m.ids, root, &name, admin, now)
                .unwrap();
        }
        let name = format!("obj{k:07}");
        let replica = AccessSpec::Stored {
            resource: ResourceId(1),
            phys_path: format!("/p/{k}"),
        };
        let replicas = vec![(replica, 256, None)];
        let (taken, made) = bytes(|| {
            m.datasets
                .create(&m.ids, coll, &name, "generic", admin, replicas, now)
        });
        made.unwrap();
        worst = worst.max(taken);
    }
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
