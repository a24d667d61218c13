//! Seeded image-writer bait: a table writing its rows into an image with
//! a sequence writer, then handing them to the paged writer (clean).

pub fn write_image(out: &mut String, rows: &[Row]) {
    serde::write_seq(rows, out);
}

pub fn write_paged(w: &mut ImageWriter, g: &Inner) {
    w.table(Field::Datasets, &g.rows, DatasetId::raw);
}
