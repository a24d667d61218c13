//! Checkpoint-writer fixtures: a streamed image walking a HashMap-backed
//! table must sort first.

use std::collections::HashMap;

pub struct Table {
    rows: HashMap<u32, String>,
}

impl Table {
    /// HashMap rows straight into the image: violation.
    pub fn write_checkpoint(&self, out: &mut String) {
        for row in self.rows.values() {
            out.push_str(row);
        }
    }

    /// Collected, sorted by id, then written: fine.
    pub fn checkpoint_sorted(&self, out: &mut String) {
        let mut by_id: Vec<(&u32, &String)> = self.rows.iter().collect();
        by_id.sort();
        for (_, row) in by_id {
            out.push_str(row);
        }
    }
}
