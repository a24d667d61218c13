//! Integration test naming every fixture `pub` item that is not an
//! `over-public` bait.

use fix_det::{all, checkpoint_sorted, digest, export, render, snapshot, snapshot_sorted};
use fix_det::{write_checkpoint, Catalog, Table};
use fix_lock::{ab, ba, flush, flush_ok, inverted, layered, retry_storage, Flusher, State};
use fix_reach::{called_here, used_by_tests};
use srb_core::{drop_row, read_raw};
