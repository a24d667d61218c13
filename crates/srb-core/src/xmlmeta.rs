//! XML-based file metadata.
//!
//! The paper ships triplet files ("currently triplets are the only form of
//! metadata supported in this manner") and promises "XML-based metadata
//! will be supported in a later release". This module is that later
//! release: a small, dependency-free parser for metadata documents of the
//! form the AMICO image deployments used —
//!
//! ```xml
//! <metadata>
//!   <attr name="species" units="">Vultur gryphus</attr>
//!   <attr name="wingspan" units="cm">290</attr>
//!   <!-- or element-named attributes: -->
//!   <Title>Andean Condor</Title>
//! </metadata>
//! ```
//!
//! Entities `&amp; &lt; &gt; &quot; &#39;` are decoded; unknown markup is
//! skipped rather than fatal (metadata files arrive from outside SRB).

use srb_types::{MetaValue, SrbError, SrbResult, Triplet};

/// Parse an XML metadata document into triplets.
pub(crate) fn parse_xml_triplets(doc: &str) -> SrbResult<Vec<Triplet>> {
    let mut out = Vec::new();
    let bytes = doc.as_bytes();
    let mut i = 0usize;
    let mut depth_root_seen = false;
    while i < bytes.len() {
        // Find the next tag.
        let Some(open) = doc[i..].find('<') else {
            break;
        };
        let start = i + open;
        let Some(close) = doc[start..].find('>') else {
            return Err(SrbError::Parse("unterminated XML tag".into()));
        };
        let end = start + close;
        let tag = &doc[start + 1..end];
        i = end + 1;
        if tag.starts_with('!') || tag.starts_with('?') || tag.starts_with('/') {
            continue; // comments, declarations, closers
        }
        if tag.ends_with('/') {
            continue; // self-closing, no value
        }
        let (name_part, attrs) = tag.split_once(char::is_whitespace).unwrap_or((tag, ""));
        // The first element is the root wrapper; skip it.
        if !depth_root_seen {
            depth_root_seen = true;
            continue;
        }
        // Grab text up to the matching close tag (no nesting inside attrs).
        let close_tag = format!("</{name_part}>");
        let Some(text_end) = doc[i..].find(&close_tag) else {
            return Err(SrbError::Parse(format!(
                "missing close tag for <{name_part}>"
            )));
        };
        let raw_value = doc[i..i + text_end].trim();
        i += text_end + close_tag.len();
        let value = decode_entities(raw_value);
        if name_part.eq_ignore_ascii_case("attr") {
            let name = attr_value(attrs, "name").unwrap_or_default();
            if name.is_empty() {
                return Err(SrbError::Parse("<attr> without a name attribute".into()));
            }
            let units = attr_value(attrs, "units").unwrap_or_default();
            out.push(Triplet::new(name, MetaValue::parse(&value), units));
        } else {
            out.push(Triplet::new(
                name_part,
                MetaValue::parse(&value),
                attr_value(attrs, "units").unwrap_or_default(),
            ));
        }
    }
    Ok(out)
}

/// Does this document look like XML metadata (vs the `name|value|units`
/// triplet format)?
pub(crate) fn looks_like_xml(doc: &str) -> bool {
    doc.trim_start().starts_with('<')
}

fn attr_value(attrs: &str, key: &str) -> Option<String> {
    let mut rest = attrs;
    while let Some(eq) = rest.find('=') {
        let name = rest[..eq].trim();
        let after = rest[eq + 1..].trim_start();
        let quote = after.chars().next()?;
        if quote != '"' && quote != '\'' {
            return None;
        }
        let end = after[1..].find(quote)?;
        let value = &after[1..1 + end];
        if name.eq_ignore_ascii_case(key) {
            return Some(decode_entities(value));
        }
        rest = &after[end + 2..];
    }
    None
}

fn decode_entities(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&#39;", "'")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn attr_elements_with_units() {
        let doc = r#"
            <metadata>
              <attr name="species" units="">Vultur gryphus</attr>
              <attr name="wingspan" units="cm">290</attr>
            </metadata>"#;
        let t = parse_xml_triplets(doc).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], Triplet::new("species", "Vultur gryphus", ""));
        assert_eq!(t[1].value, MetaValue::Int(290));
        assert_eq!(t[1].units, "cm");
    }

    #[test]
    fn element_named_attributes_dublin_core_style() {
        let doc = "<dc><Title>Andean Condor</Title><Creator>sekar</Creator></dc>";
        let t = parse_xml_triplets(doc).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].name, "Title");
        assert_eq!(t[1].value.lexical(), "sekar");
    }

    #[test]
    fn entities_decoded_and_noise_skipped() {
        let doc = r#"<?xml version="1.0"?>
            <!-- provenance: AMICO -->
            <m>
              <attr name="title">Birds &amp; Beasts &lt;vol 2&gt;</attr>
              <empty/>
            </m>"#;
        let t = parse_xml_triplets(doc).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].value.lexical(), "Birds & Beasts <vol 2>");
    }

    #[test]
    fn malformed_documents_error() {
        assert!(parse_xml_triplets("<m><attr name=\"x\">v").is_err());
        assert!(parse_xml_triplets("<m><attr>no name</attr></m>").is_err());
        assert!(parse_xml_triplets("<m><unclosed").is_err());
    }

    #[test]
    fn format_detection() {
        assert!(looks_like_xml("  <metadata>…"));
        assert!(!looks_like_xml("species|condor|"));
        assert!(!looks_like_xml(""));
    }

    #[test]
    fn empty_document_gives_no_triplets() {
        assert!(parse_xml_triplets("<metadata></metadata>")
            .unwrap()
            .is_empty());
    }

    /// XML markup and text hostile input is made of.
    const VOCAB: &[&str] = &[
        "<",
        ">",
        "</",
        "/>",
        "<metadata>",
        "</metadata>",
        "<attr ",
        "</attr>",
        "name=\"",
        "units='",
        "\"",
        "'",
        "=",
        "&amp;",
        "&",
        ";",
        "<!--",
        "-->",
        "<?xml",
        "?>",
        "Title",
        "\u{e9}",
        " ",
        "\n",
        "\0",
    ];

    /// Documents `parse_xml_triplets` accepts.
    const VALID: &[&str] = &[
        "<metadata><attr name=\"wingspan\" units=\"cm\">290</attr></metadata>",
        "<dc><Title>Andean Condor</Title><Creator>sekar</Creator></dc>",
        "<?xml version=\"1.0\"?><!-- c --><m><attr name='t'>B &amp; B</attr><e/></m>",
    ];

    /// Arbitrary text: tokens of `VOCAB` and raw characters, any order.
    fn arbitrary() -> impl Strategy<Value = String> {
        let tok = (0..VOCAB.len() + 8, any::<u32>());
        prop::collection::vec(tok, 0..40).prop_map(|toks| {
            let raw = |c: u32| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}');
            toks.into_iter()
                .map(|(k, c)| {
                    VOCAB
                        .get(k)
                        .map_or_else(|| raw(c).to_string(), |t| t.to_string())
                })
                .collect()
        })
    }

    /// Near-valid text: one of `VALID` with tokens of `VOCAB` spliced
    /// in, characters cut out, or its tail cut off.
    fn near_valid() -> impl Strategy<Value = String> {
        let edit = (any::<usize>(), 0u8..3, 0..VOCAB.len());
        (0..VALID.len(), prop::collection::vec(edit, 1..5)).prop_map(|(k, edits)| {
            let mut s: Vec<char> = VALID[k].chars().collect();
            for (at, op, t) in edits {
                let at = at % (s.len() + 1);
                match op {
                    0 => drop(s.splice(at..at, VOCAB[t].chars())),
                    1 => drop(s.drain(at..(at + 1 + t % 4).min(s.len()))),
                    _ => s.truncate(at),
                }
            }
            s.into_iter().collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Hostile documents come back as `Ok` or `Err`, never a panic.
        #[test]
        fn hostile_documents_never_panic(text in arbitrary(), near in near_valid()) {
            let _ = parse_xml_triplets(&text);
            let _ = parse_xml_triplets(&near);
        }
    }
}
