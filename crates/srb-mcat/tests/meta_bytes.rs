//! Bytes a dataset's metadata holds, counted exactly: a counting global
//! allocator wraps `System`. 300 000 datasets each get the two rows an
//! ingest gives them — `serial`, a unique integer, and `kind`, one of
//! three texts — through `add_batch`, with ids drawn as an ingest draws
//! them: the dataset, its replica, the two rows, the audit row.
//!
//! The live bytes and live blocks the store holds per dataset are pinned:
//! the stored rows in their pages, value text too long to sit inline in
//! its row, the value index, the subject lists and the string table. A
//! row that copies its attribute name, an index key that copies its
//! value, a short value on the heap or a subject list on the heap shows
//! here — in bytes, and in blocks, where a 6-byte name that takes a whole
//! allocator block shows in full.
//!
//! This file holds one test so no other test thread allocates while the
//! fill is counted.

use srb_mcat::metadata::MetaStore;
use srb_mcat::{MetaKind, Subject};
use srb_types::alloc::{live_blocks, live_bytes, Counting};
use srb_types::{AuditId, DatasetId, IdGen, ReplicaId, Triplet};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Datasets the fill describes.
const DATASETS: u64 = 300_000;

/// Live bytes per dataset after the fill, at most.
const LIVE_BYTES_PER_DATASET: u64 = 355;

/// Live blocks per 100 datasets after the fill, at most. 117 → 17 once a
/// short text value (`kind`) was held inline in its row: what is left is
/// the pages, the index and the string table.
const LIVE_BLOCKS_PER_100_DATASETS: u64 = 17;

const KINDS: [&str; 3] = ["image", "text", "movie"];

#[test]
fn a_datasets_metadata_costs_its_values() {
    let store = MetaStore::new();
    let ids = IdGen::new();
    let (bytes, blocks) = (live_bytes(), live_blocks());
    for k in 0..DATASETS {
        let dataset: DatasetId = ids.next();
        let _replica: ReplicaId = ids.next();
        let subject = Subject::Dataset(dataset);
        let rows = [
            (
                subject,
                Triplet::new("serial", k as i64, ""),
                MetaKind::UserDefined,
            ),
            (
                subject,
                Triplet::new("kind", KINDS[k as usize % 3], ""),
                MetaKind::UserDefined,
            ),
        ];
        store.add_batch(&ids, rows);
        let _audit: AuditId = ids.next();
    }
    let per_dataset = (live_bytes() - bytes) / DATASETS;
    let blocks_per_100 = (live_blocks() - blocks) * 100 / DATASETS;
    assert_eq!(store.count() as u64, 2 * DATASETS);
    assert!(
        per_dataset <= LIVE_BYTES_PER_DATASET,
        "a dataset's metadata holds {per_dataset} live bytes, more than {LIVE_BYTES_PER_DATASET}"
    );
    assert!(
        blocks_per_100 <= LIVE_BLOCKS_PER_100_DATASETS,
        "100 datasets' metadata hold {blocks_per_100} live blocks, more than \
         {LIVE_BLOCKS_PER_100_DATASETS}"
    );
}
