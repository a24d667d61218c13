//! Bytes the durable grid holds per dataset, counted exactly: a counting
//! global allocator wraps `System`. Datasets are ingested through
//! `SrbConnection` the way gridbench's `durable_ingest` ingests them: one
//! fs resource, a 7-byte payload, a `serial` and a `kind` triplet, the
//! virtual clock moving 1.2 ms per ingest.
//!
//! The live bytes and blocks per dataset are pinned at four points: the
//! grid without durability, the durable grid before its first checkpoint
//! (rows plus the log's lines), after one (rows plus the image), and the
//! catalog `Mcat::recover` builds from that image and a tail of further
//! ingests, beside the live grid, as a power cut leaves both. The
//! image's text per dataset and the log's text per ingest are pinned too,
//! each under 55 % of what they were when every row wrote its field
//! names: a row that grows, or text that goes back to naming its fields,
//! shows here.
//!
//! This file holds one test so no other test thread allocates while the
//! fill is counted.

use srb_core::{Grid, GridBuilder, IngestOptions, SrbConnection};
use srb_mcat::{Mcat, WalConfig};
use srb_storage::{LogDevice, TailRead};
use srb_types::alloc::{live_blocks, live_bytes, Counting};
use srb_types::Triplet;
use std::sync::Arc;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Datasets each fill ingests.
const DATASETS: u64 = 5_000;

/// Datasets ingested after the checkpoint, which recovery replays.
const TAIL: u64 = 1_000;

/// Virtual time per ingest, as `durable_ingest` lets pass.
const CLOCK_NS_PER_OP: u64 = 1_200_000;

const KINDS: [&str; 3] = ["image", "text", "movie"];

const DATA: &str = "/home/bench/data";

/// `(live bytes per dataset, live blocks per 100 datasets)`. Each block
/// costs at least the allocator's smallest chunk (32 bytes with glibc)
/// whatever its bytes say. A dataset's name and type, its name-index key,
/// its store key and its `kind` value became inline `ShortStr`s: 5 blocks
/// fewer per live dataset, 4 per recovered one. Before: (1155, 953),
/// (1836, 953), (1401, 956) and (727, 724). Then the audit trail became
/// page text, one block per page rather than a row slot and a subject
/// block per row, and a checkpoint's image shares the trail's pages:
/// from (1103, 453), (1785, 453), (1349, 456) and (694, 324).
type Live = (u64, u64);

/// Without durability.
const PLAIN: Live = (1060, 353);

/// Durable, before a checkpoint: the rows and the log's lines.
const LOGGED: Live = (1741, 353);

/// Durable, after a checkpoint: the rows and the image.
const CHECKPOINTED: Live = (1240, 355);

/// The catalog recovered from the image and the tail, per dataset it
/// holds.
const RECOVERED: Live = (585, 223);

/// Image text per dataset.
const IMAGE_BYTES_PER_DATASET: u64 = 454;

/// Log text per ingest: the payloads of its five lines (the dataset, its
/// two metadata rows, the audit row and the commit marker).
const LOG_BYTES_PER_INGEST: u64 = 589;

/// The same two in the object form, where every row wrote its field
/// names, measured on this fill.
const NAMED_IMAGE_BYTES_PER_DATASET: u64 = 887;
const NAMED_LOG_BYTES_PER_INGEST: u64 = 1_139;

/// One site, one fs resource, the bench user and its data collection;
/// durable over `device` when one is given, checkpointing only when
/// asked.
fn grid(device: Option<Arc<LogDevice>>) -> Grid {
    let mut gb = GridBuilder::new();
    let site = gb.site("sdsc");
    let srv = gb.server("srb-sdsc", site);
    gb.fs_resource("fs", srv);
    let grid = gb.build();
    if let Some(device) = device {
        let config = WalConfig {
            checkpoint_interval_ns: 0,
        };
        grid.enable_durability(device, config).unwrap();
    }
    grid.register_user("bench", "sdsc", "pw").unwrap();
    connect(&grid).make_collection(DATA).unwrap();
    grid
}

fn connect(grid: &Grid) -> SrbConnection<'_> {
    let srv = grid.servers()[0].id;
    SrbConnection::connect(grid, srv, "bench", "sdsc", "pw").unwrap()
}

/// Ingest datasets `from..to`; the live bytes and blocks they added.
fn fill(grid: &Grid, from: u64, to: u64) -> (u64, u64) {
    let conn = connect(grid);
    let (bytes, blocks) = (live_bytes(), live_blocks());
    for i in from..to {
        grid.clock.advance(CLOCK_NS_PER_OP);
        let options = IngestOptions::to_resource("fs")
            .with_metadata(Triplet::new("serial", 200_000_000 + i as i64, ""))
            .with_metadata(Triplet::new("kind", KINDS[i as usize % 3], ""));
        conn.ingest(&format!("{DATA}/w0-{i:08}"), &b"payload"[..], options)
            .unwrap();
    }
    (live_bytes() - bytes, live_blocks() - blocks)
}

fn per_dataset((bytes, blocks): (u64, u64)) -> Live {
    per((bytes, blocks), DATASETS)
}

fn per((bytes, blocks): (u64, u64), datasets: u64) -> Live {
    (bytes / datasets, blocks * 100 / datasets)
}

#[test]
fn the_durable_grid_costs_its_rows_and_their_text() {
    let plain = grid(None);
    let filled = fill(&plain, 0, DATASETS);
    drop(plain);
    assert_eq!(per_dataset(filled), PLAIN, "without durability");

    let device = Arc::new(LogDevice::new());
    let durable = grid(Some(device.clone()));
    let lsn_before = device.synced_lsn();
    let filled = fill(&durable, 0, DATASETS);
    assert_eq!(per_dataset(filled), LOGGED, "durable, before a checkpoint");
    let TailRead::Lines(lines) = device.read_after(lsn_before) else {
        unreachable!("no checkpoint since the fill began");
    };
    let log_text: usize = lines.iter().map(|(_, line)| line.len()).sum();
    drop(lines);

    let (bytes, blocks) = (live_bytes(), live_blocks());
    durable.mcat.checkpoint_now().unwrap();
    let checkpointed = (
        filled.0 + live_bytes() - bytes,
        filled.1 + live_blocks() - blocks,
    );
    assert_eq!(device.log_bytes(), 0, "the checkpoint pruned the log");
    assert_eq!(
        per_dataset(checkpointed),
        CHECKPOINTED,
        "durable, after a checkpoint"
    );
    let image = device.checkpoint_image().unwrap().len() as u64;

    assert_eq!(
        (image / DATASETS, log_text as u64 / DATASETS),
        (IMAGE_BYTES_PER_DATASET, LOG_BYTES_PER_INGEST),
        "image bytes per dataset, log bytes per ingest"
    );

    fill(&durable, DATASETS, DATASETS + TAIL);
    device.crash();
    let (bytes, blocks) = (live_bytes(), live_blocks());
    let (recovered, _) =
        Mcat::recover(durable.clock.clone(), device, WalConfig::default(), None).unwrap();
    let held = (live_bytes() - bytes, live_blocks() - blocks);
    assert_eq!(recovered.summary(), durable.mcat.summary());
    assert_eq!(
        per(held, DATASETS + TAIL),
        RECOVERED,
        "recovered from the image and the tail"
    );
}

// Each pinned text is at most 55 % of its object form.
const _: () = assert!(IMAGE_BYTES_PER_DATASET * 100 <= NAMED_IMAGE_BYTES_PER_DATASET * 55);
const _: () = assert!(LOG_BYTES_PER_INGEST * 100 <= NAMED_LOG_BYTES_PER_INGEST * 55);
