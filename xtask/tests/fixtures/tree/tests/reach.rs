//! Integration test naming every fixture `pub` item that is not an
//! `over-public` bait.

use fix_det::{all, checkpoint_sorted, digest, export, render, snapshot, snapshot_sorted};
use fix_det::{write_checkpoint, Catalog, Table};
use fix_lint::{first, now_ms, Tables};
use fix_lock::{ab, ba, flush, flush_ok, inverted, layered, retry_storage, Flusher, State};
use fix_reach::{called_here, used_by_tests};
use mysrb::{cell, cell_in_place, register};
use srb_core::{drop_row, handle, read_raw};
use srb_mcat::{write_image, write_paged};
