//! Built-in rendering templates for registered SQL objects.
//!
//! Paper §4: "mySRB supports three built-in templates … HTMLREL prints the
//! result as a relational table in HTML format, … HTMLNEST prints the
//! result as a nested table in HTML, and … XMLREL prints the result in XML
//! using a simple DTD." User style-sheets are T-language ([`crate::tlang`]).

use srb_mcat::Template;
use srb_storage::sql::QueryResult;

/// Escape text for inclusion in HTML/XML.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a query result as a flat relational HTML table.
pub(crate) fn html_rel(r: &QueryResult) -> String {
    let mut out = String::from("<table border=\"1\">\n<tr>");
    for c in &r.columns {
        out.push_str("<th>");
        out.push_str(&escape(c));
        out.push_str("</th>");
    }
    out.push_str("</tr>\n");
    for row in &r.rows {
        out.push_str("<tr>");
        for v in row {
            out.push_str("<td>");
            out.push_str(&escape(&v.render()));
            out.push_str("</td>");
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
    out
}

/// Render as a nested HTML table: rows are grouped by the first column,
/// each group becoming an inner table of the remaining columns.
pub(crate) fn html_nest(r: &QueryResult) -> String {
    if r.columns.is_empty() {
        return "<table></table>\n".to_string();
    }
    let mut out = String::from("<table border=\"1\">\n");
    let mut i = 0;
    while i < r.rows.len() {
        let group_key = r.rows[i][0].render();
        out.push_str("<tr><td>");
        out.push_str(&escape(&group_key));
        out.push_str("</td><td><table>\n");
        while i < r.rows.len() && r.rows[i][0].render() == group_key {
            out.push_str("<tr>");
            for v in &r.rows[i][1..] {
                out.push_str("<td>");
                out.push_str(&escape(&v.render()));
                out.push_str("</td>");
            }
            out.push_str("</tr>\n");
            i += 1;
        }
        out.push_str("</table></td></tr>\n");
    }
    out.push_str("</table>\n");
    out
}

/// Render as XML with the paper's "simple DTD": a `<result>` of `<row>`s
/// whose children are named after the columns.
pub(crate) fn xml_rel(r: &QueryResult) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n<result>\n");
    for row in &r.rows {
        out.push_str("  <row>\n");
        for (c, v) in r.columns.iter().zip(row.iter()) {
            let tag = xml_tag(c);
            out.push_str("    <");
            out.push_str(&tag);
            out.push('>');
            out.push_str(&escape(&v.render()));
            out.push_str("</");
            out.push_str(&tag);
            out.push_str(">\n");
        }
        out.push_str("  </row>\n");
    }
    out.push_str("</result>\n");
    out
}

fn xml_tag(column: &str) -> String {
    let mut tag: String = column
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    if tag
        .chars()
        .next()
        .map(|c| c.is_ascii_digit())
        .unwrap_or(true)
    {
        tag.insert(0, '_');
    }
    tag
}

/// Dispatch on a catalog [`Template`]. `StyleSheet` must be resolved by the
/// caller (it needs to read the sheet from SRB) — this renders the three
/// built-ins.
pub fn render_template(t: &Template, r: &QueryResult) -> Option<String> {
    match t {
        Template::HtmlRel => Some(html_rel(r)),
        Template::HtmlNest => Some(html_nest(r)),
        Template::XmlRel => Some(xml_rel(r)),
        Template::StyleSheet(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_storage::sql::SqlEngine;

    fn result() -> QueryResult {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t (family, name)").unwrap();
        e.execute(
            "INSERT INTO t VALUES ('vulture','condor'), ('vulture','buzzard'), ('owl','barn owl')",
        )
        .unwrap();
        e.execute("SELECT family, name FROM t").unwrap()
    }

    #[test]
    fn html_rel_is_a_flat_table() {
        let html = html_rel(&result());
        assert!(html.starts_with("<table"));
        assert_eq!(html.matches("<tr>").count(), 4); // header + 3 rows
        assert!(html.contains("<th>family</th>"));
        assert!(html.contains("<td>condor</td>"));
    }

    #[test]
    fn html_nest_groups_by_first_column() {
        let html = html_nest(&result());
        // Two groups: vulture, owl.
        assert_eq!(html.matches("<td><table>").count(), 2);
        assert!(html.contains("<td>vulture</td>"));
        assert!(html.contains("<td>barn owl</td>"));
    }

    #[test]
    fn xml_rel_uses_column_tags() {
        let xml = xml_rel(&result());
        assert!(xml.starts_with("<?xml"));
        assert_eq!(xml.matches("<row>").count(), 3);
        assert!(xml.contains("<name>condor</name>"));
        assert!(xml.contains("<family>owl</family>"));
    }

    #[test]
    fn escaping_prevents_markup_injection() {
        let e = SqlEngine::new();
        e.execute("CREATE TABLE t (v)").unwrap();
        e.execute("INSERT INTO t VALUES ('<script>alert(1)</script>')")
            .unwrap();
        let r = e.execute("SELECT v FROM t").unwrap();
        for rendered in [html_rel(&r), html_nest(&r), xml_rel(&r)] {
            assert!(!rendered.contains("<script>"));
            assert!(rendered.contains("&lt;script&gt;"));
        }
        assert_eq!(escape("a&b<c>\"d'"), "a&amp;b&lt;c&gt;&quot;d&#39;");
    }

    #[test]
    fn weird_column_names_become_valid_tags() {
        assert_eq!(xml_tag("birds.name"), "birds_name");
        assert_eq!(xml_tag("2mass"), "_2mass");
        assert_eq!(xml_tag(""), "_");
    }

    #[test]
    fn dispatch_renders_builtins_only() {
        let r = result();
        assert!(render_template(&Template::HtmlRel, &r).is_some());
        assert!(render_template(&Template::HtmlNest, &r).is_some());
        assert!(render_template(&Template::XmlRel, &r).is_some());
        assert!(render_template(&Template::StyleSheet(srb_types::DatasetId(1)), &r).is_none());
    }
}
