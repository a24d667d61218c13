//! Percent-encoding and `application/x-www-form-urlencoded` parsing.

use std::collections::HashMap;
use std::fmt::Write;

/// Percent-encode a string for use in a URL query component (the
/// [`crate::html::Url`] adapter, collected).
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = write!(out, "{}", crate::html::Url(s));
    out
}

/// Decode a percent-encoded component (`+` means space, as forms send it).
pub fn decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => match (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                (Some(h), Some(l)) => {
                    out.push(h * 16 + l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Parse a query string or form body into a map (last value wins, except
/// that repeated keys are also collected with `key` suffixed by its index
/// for multi-row forms: `meta_name`, `meta_name.1`, …).
pub(crate) fn parse_form(s: &str) -> HashMap<String, String> {
    let mut out: HashMap<String, String> = HashMap::new();
    let mut counts: HashMap<String, usize> = HashMap::new();
    for pair in s.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let key = decode(k);
        let val = decode(v);
        let n = counts.entry(key.clone()).or_insert(0);
        if *n == 0 {
            out.insert(key.clone(), val);
        } else {
            out.insert(format!("{key}.{n}"), val);
        }
        *n += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let s = "Avian Culture/condor & friends?=100%";
        assert_eq!(decode(&encode(s)), s);
        assert_eq!(encode("a b"), "a%20b");
        assert_eq!(decode("a+b"), "a b");
        assert_eq!(decode("%2Fhome%2Fsekar"), "/home/sekar");
    }

    #[test]
    fn malformed_percent_passes_through() {
        assert_eq!(decode("100%"), "100%");
        assert_eq!(decode("%zz"), "%zz");
        assert_eq!(decode("%2"), "%2");
    }

    #[test]
    fn form_parsing_with_repeats() {
        let m = parse_form("a=1&b=x+y&a=2&a=3&empty=&flag");
        assert_eq!(m["a"], "1");
        assert_eq!(m["a.1"], "2");
        assert_eq!(m["a.2"], "3");
        assert_eq!(m["b"], "x y");
        assert_eq!(m["empty"], "");
        assert_eq!(m["flag"], "");
    }
}
