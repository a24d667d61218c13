//! HTML writers shared by all pages. A page is written in document order
//! straight into the reply's one body buffer: `page_open`, the first
//! pane, `page_mid` and the bottom pane of a split window, then
//! `page_close`. Text goes in through the `Esc` and [`Url`] adapters,
//! which escape and percent-encode as they write; no cell is a `String`.

use std::fmt::{self, Write};

/// Writes a value's text HTML-escaped: `&`, `<`, `>`, `"` and `'` become
/// entities, every other character passes through.
pub(crate) struct Esc<T>(pub T);

impl<T: fmt::Display> fmt::Display for Esc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(Escaping(f), "{}", self.0)
    }
}

/// Writes text percent-encoded for a URL query component: ASCII letters,
/// digits and `-_.~` pass through, a space is `%20`, and every other byte
/// is `%XX`.
pub struct Url<'a>(pub &'a str);

impl fmt::Display for Url<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut start = 0;
        for (i, b) in self.0.bytes().enumerate() {
            if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
                continue;
            }
            // A non-empty `start..i` is ASCII, so both ends are boundaries.
            if start < i {
                f.write_str(&self.0[start..i])?;
            }
            match b {
                b' ' => f.write_str("%20")?,
                _ => write!(f, "%{b:02X}")?,
            }
            start = i + 1;
        }
        f.write_str(&self.0[start..])
    }
}

/// Escapes each piece of text on its way to the formatter.
struct Escaping<'a, 'f>(&'a mut fmt::Formatter<'f>);

impl Write for Escaping<'_, '_> {
    fn write_str(&mut self, mut rest: &str) -> fmt::Result {
        while let Some(i) = rest.find(['&', '<', '>', '"', '\'']) {
            self.0.write_str(&rest[..i])?;
            self.0.write_str(match rest.as_bytes()[i] {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' => "&quot;",
                _ => "&#39;",
            })?;
            rest = &rest[i + 1..];
        }
        self.0.write_str(rest)
    }
}

/// The stylesheet every page carries.
const STYLE: &str = "body{font-family:sans-serif;margin:0}\n\
                     .banner{background:#003366;color:#fff;padding:6px 12px}\n\
                     .banner a{color:#9cf}\n\
                     .split-top{height:30%;overflow:auto;border-bottom:3px double #336;\
background:#eef;padding:8px}\n\
                     .split-bottom{overflow:auto;padding:8px}\n\
                     table{border-collapse:collapse}\n\
                     td,th{border:1px solid #99c;padding:2px 6px}\n\
                     .ops a{margin-right:6px}\n";

/// Open a page in the standard MySRB chrome: head, banner (naming `user`
/// when signed in) and the first pane. With `split`, that pane is the
/// paper's split window's top one: "the small top-window is used to
/// display metadata about data objects and collections, and the larger
/// bottom-window is used for displaying elements in a collection or for
/// displaying data objects"; [`page_mid`] then opens the bottom one.
/// Without it the page has the bottom pane only. `title` is written as
/// is, so text in it must come through [`Esc`].
pub(crate) fn page_open(
    out: &mut String,
    title: impl fmt::Display,
    user: Option<&str>,
    split: bool,
) {
    let _ = write!(
        out,
        "<!DOCTYPE html>\n<html><head><title>{title}</title><style>\n{STYLE}</style></head><body>\n\
         <div class=\"banner\"><b>MySRB</b> &mdash; SDSC Storage Resource Broker"
    );
    if let Some(u) = user {
        let _ = write!(
            out,
            " &middot; signed in as <b>{}</b> &middot; <a href=\"/logout\">logout</a>",
            Esc(u)
        );
    }
    let pane = if split { "top" } else { "bottom" };
    let _ = writeln!(out, "</div>\n<div class=\"split-{pane}\">");
}

/// Close the split window's top pane and open the bottom one.
pub(crate) fn page_mid(out: &mut String) {
    out.push_str("\n</div>\n<div class=\"split-bottom\">\n");
}

/// Close the open pane and the document.
pub(crate) fn page_close(out: &mut String) {
    out.push_str("\n</div>\n</body></html>\n");
}

/// A table's opening tag and header row, each header escaped.
pub(crate) fn table_open<'h>(out: &mut String, headers: impl IntoIterator<Item = &'h str>) {
    out.push_str("<table><tr>");
    for h in headers {
        let _ = write!(out, "<th>{}</th>", Esc(h));
    }
    out.push_str("</tr>\n");
}

/// A labelled text input. `name` is written as is, so text in it must
/// come through [`Esc`].
pub(crate) fn text_input(out: &mut String, label: &str, name: impl fmt::Display, value: &str) {
    let _ = writeln!(
        out,
        "<label>{}: <input type=\"text\" name=\"{name}\" value=\"{}\"></label><br>",
        Esc(label),
        Esc(value)
    );
}

/// A drop-down select over `options`, marking `selected`. `name` is
/// written as is, so text in it must come through `Esc`.
pub fn select<'o>(
    out: &mut String,
    name: impl fmt::Display,
    options: impl IntoIterator<Item = &'o str>,
    selected: Option<&str>,
) {
    let _ = write!(out, "<select name=\"{name}\">");
    for o in options {
        let sel = if Some(o) == selected { " selected" } else { "" };
        let _ = write!(out, "<option value=\"{v}\"{sel}>{v}</option>", v = Esc(o));
    }
    out.push_str("</select>");
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_core::template::escape;

    /// Percent-encoding one byte at a time, as `urlenc::encode` did.
    fn encode(s: &str) -> String {
        s.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                    char::from(b).to_string()
                }
                b' ' => "%20".to_string(),
                _ => format!("%{b:02X}"),
            })
            .collect()
    }

    fn page(title: &str, user: Option<&str>, top: Option<&str>, bottom: &str) -> String {
        let mut out = String::new();
        page_open(&mut out, Esc(title), user, top.is_some());
        if let Some(top) = top {
            out.push_str(top);
            page_mid(&mut out);
        }
        out.push_str(bottom);
        page_close(&mut out);
        out
    }

    #[test]
    fn split_window_layout() {
        let p = page(
            "T",
            Some("sekar@sdsc"),
            Some("<b>meta</b>"),
            "<i>listing</i>",
        );
        assert!(p.contains("split-top"));
        assert!(p.contains("split-bottom"));
        assert!(p.contains("<b>meta</b>"));
        assert!(p.contains("<i>listing</i>"));
        assert!(p.contains("sekar@sdsc"));
        // Top pane comes before bottom pane.
        assert!(p.find("split-top").unwrap() < p.find("split-bottom").unwrap());
    }

    #[test]
    fn single_pane_when_no_top() {
        let p = page("T", None, None, "hello");
        assert!(!p.contains("<div class=\"split-top\">"));
        assert!(p.contains("hello"));
        assert!(!p.contains("logout"));
    }

    #[test]
    fn table_escapes_headers_not_cells() {
        let mut t = String::new();
        table_open(&mut t, ["A<b>"]);
        assert_eq!(t, "<table><tr><th>A&lt;b&gt;</th></tr>\n");
        // Cells are the caller's markup, written as they are.
        let _ = write!(t, "<tr><td><a href=\"/x\">{}</a></td></tr>", Esc("go"));
        assert!(t.ends_with("<tr><td><a href=\"/x\">go</a></td></tr>"));
    }

    #[test]
    fn select_marks_selected() {
        let mut s = String::new();
        select(&mut s, "op", ["=", ">"], Some(">"));
        assert!(s.contains("<option value=\"&gt;\" selected>"));
    }

    #[test]
    fn adapters_write_what_the_string_forms_return() {
        for s in [
            "",
            "plain",
            "a b/c?d=e&f",
            "<\"it's\"> & </x>",
            "Avian Culture/condor & friends?=100%",
            "é/ü~ 𝄞.-_",
            "ends with é",
        ] {
            assert_eq!(Esc(s).to_string(), escape(s), "{s:?}");
            assert_eq!(Url(s).to_string(), encode(s), "{s:?}");
        }
        assert_eq!(Url("é").to_string(), "%C3%A9");
        // Any `Display` value, written in pieces.
        let path = srb_types::LogicalPath::parse("/a b/<c>").unwrap();
        assert_eq!(Esc(&path).to_string(), "/a b/&lt;c&gt;");
    }
}
