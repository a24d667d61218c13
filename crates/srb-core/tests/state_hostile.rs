//! Hostile input to `Grid::restore_state`: near-valid grid-state text in
//! both forms — a recorded state file with one struct reshaped (its row
//! form short or long, an array where an object is due or the reverse, a
//! field of the wrong type) or cut short — restores or fails closed,
//! never panics. A long row is always refused, and a struct in its row
//! form restores the recorded grid.

mod common;
#[path = "../../srb-mcat/tests/shapes/mod.rs"]
mod shapes;

use proptest::prelude::*;
use shapes::{reshaped, targets, Reshape};

const SAVED: &str = include_str!("fixtures/golden_save_state.json");
const ROW_SAVED: &str = include_str!("fixtures/golden_save_state_rows.json");

fn reshape() -> impl Strategy<Value = Reshape> {
    (0u8..5, 1usize..4, any::<usize>(), any::<bool>()).prop_map(|(how, k, field, row)| match how {
        0 => Reshape::Row,
        1 => Reshape::Short(k),
        2 => Reshape::Long,
        3 => Reshape::Retype { field, row },
        _ => Reshape::Flip,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reshaped_state_restores_or_fails_closed(
        n in any::<usize>(),
        how in reshape(),
        rows in any::<bool>(),
    ) {
        let v: serde_json::Value = serde_json::from_str(SAVED.trim_end()).unwrap();
        let n = n % targets(&v, how).max(1);
        let text = serde_json::to_string(&reshaped(&v, n, how, rows)).unwrap();
        let mut f = common::grid();
        let restored = f.grid.restore_state(&text);
        match how {
            Reshape::Row => {
                restored.map_err(|e| format!("{e} in {text}")).unwrap();
                prop_assert_eq!(f.grid.save_state().unwrap(), ROW_SAVED.trim_end());
            }
            Reshape::Long => prop_assert!(restored.is_err(), "a long array read: {}", text),
            _ => {}
        }
    }
}

/// Every struct in its row form is the recorded row-form state file.
#[test]
fn every_struct_in_its_row_form_is_the_recorded_twin() {
    let v: serde_json::Value = serde_json::from_str(SAVED.trim_end()).unwrap();
    let rows = reshaped(&v, usize::MAX, Reshape::Row, true);
    assert_eq!(serde_json::to_string(&rows).unwrap(), ROW_SAVED.trim_end());
}

/// A state file cut short is refused in either form, and the refusal
/// leaves the grid as it was.
#[test]
fn a_truncated_state_fails_closed() {
    let mut f = common::grid();
    let before = f.grid.save_state().unwrap();
    for saved in [SAVED.trim_end(), ROW_SAVED.trim_end()] {
        let cuts = (0..saved.len()).step_by(11);
        for cut in cuts.filter(|&i| saved.is_char_boundary(i)) {
            assert!(f.grid.restore_state(&saved[..cut]).is_err(), "cut at {cut}");
        }
    }
    assert_eq!(f.grid.save_state().unwrap(), before);
}
