//! Seeded render-buffer bait: a renderer building a cell as a String
//! beside the body buffer, then writing it into the buffer (clean).

pub fn cell(out: &mut String, name: &str) {
    out.push_str(&format!("<td>{}</td>", name));
}

pub fn cell_in_place(out: &mut String, name: &str) {
    let _ = write!(out, "<td>{}</td>", Esc(name));
}
