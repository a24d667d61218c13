//! Seeded `srb-core` baits for `storage-door` and `subject-delete`.

/// Seeded storage-door bait: a raw driver call outside the door, then the
/// same call inside it (clean).
pub fn read_raw(conn: &Conn, grid: &Grid, r: u64) {
    let _ = grid.driver(r).driver().read("srb/a");
    let _ = conn.storage_call(r, |d| d.driver().read("srb/a"));
}

/// Seeded subject-delete bait: a raw row delete that orphans the row's
/// metadata, then the catalog call that drops everything keyed to it
/// (clean).
pub fn drop_row(mcat: &Mcat, id: DatasetId) {
    let _ = mcat.datasets.delete(id);
    let _ = mcat.remove_dataset(id);
}
