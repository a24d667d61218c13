//! Integration test naming every fixture `pub fn` that is not an
//! `unreached` bait.

use fix_det::{all, checkpoint_sorted, digest, export, render, snapshot, snapshot_sorted};
use fix_det::write_checkpoint;
use fix_lint::now_ms;
use fix_lock::{ab, ba, flush, flush_ok, inverted, layered};
use fix_reach::{called_here, used_by_tests};
use mysrb::{cell, cell_in_place, register};
use srb_core::{drop_row, handle, mint_url, read_raw};
use srb_mcat::{write_image, write_paged};
