//! Bytes live during recovery, counted exactly: a counting global
//! allocator wraps `System`. After a crash at 30 000 datasets, the peak of
//! live bytes while `Mcat::recover` runs may exceed the bytes live before
//! it by at most what recovery keeps — the recovered catalog — plus the
//! text of the pages the replayed tail touched, which the checkpoint that
//! seals the recovery renders (or, for the audit trail's page text,
//! freezes), and the one buffer it renders them in (at most twice the
//! largest of them). The checkpoint is read in place, part
//! by part, into the catalog's row pages, and every page the tail did not
//! touch is shared: no joined copy of the image, no second image.
//!
//! The recovered catalog itself may hold no more bytes than the catalog
//! that crashed did: rows decoded from text cost what rows built by the
//! ops cost, with no spare room in their vectors.
//!
//! This file holds one test so no other test thread allocates while the
//! recovery is measured.

use serde::Serialize;
use srb_mcat::{
    AccessSpec, AuditAction, CatalogSnapshot, Mcat, MetaKind, Subject, WalConfig, WalOp, WalRecord,
    IMAGE_PAGE_IDS,
};
use srb_storage::{LogDevice, TailRead};
use srb_types::alloc::{live_bytes, peak_bytes, reset_peak, Counting};
use srb_types::{ResourceId, SimClock, Triplet};
use std::collections::BTreeSet;
use std::sync::Arc;

#[global_allocator]
static ALLOC: Counting = Counting;

const NO_CKPT: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};

/// Datasets ingested before the crash.
const DATASETS: usize = 30_000;

/// The ingest after which the last checkpoint is taken.
const CHECKPOINT_AT: usize = 29_000;

/// The pages the tail touches, of the three fields an ingest writes:
/// datasets, metadata, audit.
type Touched = [BTreeSet<u64>; 3];

/// The pages the durable tail past the checkpoint touches.
fn touched(device: &LogDevice) -> Touched {
    let cover = device.checkpoint_lsn().unwrap();
    let TailRead::Lines(lines) = device.read_after(cover) else {
        panic!("the tail past the checkpoint is there");
    };
    let mut pages: Touched = Default::default();
    for (_, line) in lines {
        let record: WalRecord = serde_json::from_str(&line).unwrap();
        let (field, id) = match record.op {
            WalOp::DatasetPut { row } => (0, row.id.raw()),
            WalOp::MetaPut { row } => (1, row.id.raw()),
            WalOp::AuditPut { row } => (2, row.id.raw()),
            WalOp::Commit { .. } => continue,
            other => panic!("the ingest logs no {other:?}"),
        };
        pages[field].insert(id / IMAGE_PAGE_IDS);
    }
    pages
}

/// The text of each of `rows`' pages in `pages`, as an image writes it.
fn page_text<R: Serialize>(
    rows: impl IntoIterator<Item = R>,
    id: impl Fn(&R) -> u64,
    pages: &BTreeSet<u64>,
) -> Vec<u64> {
    let mut text = vec![0; pages.len()];
    for row in rows {
        if let Some(at) = pages.iter().position(|&p| p == id(&row) / IMAGE_PAGE_IDS) {
            text[at] += serde_json::to_string(&row).unwrap().len() as u64 + 1;
        }
    }
    text
}

#[test]
fn recovery_holds_no_more_than_the_catalog_and_the_touched_pages() {
    let clock = SimClock::new();
    let m = Mcat::new(clock.clone(), "pw");
    let device = Arc::new(LogDevice::new());
    m.enable_wal(device.clone(), NO_CKPT, None).unwrap();
    let (root, admin) = (m.collections.root(), m.admin());
    for i in 0..DATASETS {
        clock.advance(1_000);
        let name = format!("obj{i:07}");
        let replica = AccessSpec::Stored {
            resource: ResourceId(1),
            phys_path: format!("/p/{i}"),
        };
        let d = m
            .datasets
            .create(
                &m.ids,
                root,
                &name,
                "generic",
                admin,
                vec![(replica, 512, None)],
                clock.now(),
            )
            .unwrap();
        let serial = Triplet::new("serial", i as i64, "");
        m.metadata
            .add(&m.ids, Subject::Dataset(d), serial, MetaKind::UserDefined);
        let path = format!("/{name}");
        m.audit
            .record(&m.ids, clock.now(), admin, AuditAction::Ingest, &path, "ok");
        m.commit();
        if i == CHECKPOINT_AT {
            m.checkpoint_now().unwrap();
        }
    }
    let live = live_bytes();
    drop(m);
    let crashed = live - live_bytes();
    device.crash();
    let pages = touched(&device);

    let before = live_bytes();
    reset_peak();
    let (rec, report) = Mcat::recover(SimClock::new(), device.clone(), NO_CKPT, None).unwrap();
    let peak = peak_bytes() - before;

    let image: CatalogSnapshot = serde_json::from_str(&rec.snapshot_json().unwrap()).unwrap();
    let mut text = page_text(image.datasets.iter(), |d| d.id.raw(), &pages[0]);
    text.extend(page_text(image.metadata.iter(), |r| r.id.raw(), &pages[1]));
    text.extend(page_text(image.audit.iter(), |a| a.id.raw(), &pages[2]));
    let (touched_text, buffer) = (text.iter().sum::<u64>(), 2 * text.iter().max().unwrap());
    drop((image, text));
    let held = live_bytes();
    drop(rec);
    let catalog = held - live_bytes();
    // The audit trail's pages are text the checkpoint freezes and shares;
    // it renders the touched pages of the other two.
    let rendered = pages[..2].iter().map(BTreeSet::len).sum::<usize>() as u64;
    assert_eq!(report.pages_rendered, rendered);
    assert!(
        catalog <= crashed,
        "the recovered catalog holds {catalog} bytes, more than the {crashed} \
         the catalog held before the crash"
    );
    assert!(
        peak <= catalog + touched_text + buffer,
        "recovery peaked {peak} bytes above where it started; the catalog \
         it keeps is {catalog} bytes, the {rendered} pages the tail \
         touched hold {touched_text} and their render buffer {buffer}"
    );
}
