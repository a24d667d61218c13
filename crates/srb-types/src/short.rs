//! [`ShortStr`]: immutable text that holds up to 22 bytes inline.
//!
//! A catalog row names things with short text: a dataset's name
//! (`w0-00000001`), its data type (`generic`), a storage object's key, a
//! metadata value (`image`). As a `String` each costs a heap block, and
//! the allocator hands even a 7-byte request a 32-byte chunk. A
//! `ShortStr` is the size of a `String` and keeps such text in its own
//! bytes; longer text goes in one exactly sized `Box<str>`.
//!
//! It orders, compares and hashes as its `str` does, borrows as `str` (a
//! map keyed by it is searched by `&str`), and writes and reads the JSON
//! string a `String` does, so no persisted byte depends on which of the
//! two a field is.

use serde::{DeError, Deserialize, JsonReader, Serialize};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Text of up to 22 bytes held inline; longer text on the heap.
/// Immutable: build a new one to change it.
#[derive(Clone)]
pub struct ShortStr(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the text, valid UTF-8: only [`ShortStr::from`]
    /// builds it, from a whole `&str`.
    Inline {
        len: u8,
        bytes: [u8; ShortStr::INLINE],
    },
    Heap(Box<str>),
}

// The size of the `String` it replaces, with or without an `Option`.
const _: () = assert!(std::mem::size_of::<ShortStr>() == 24);
const _: () = assert!(std::mem::size_of::<Option<ShortStr>>() == 24);

impl ShortStr {
    /// The most bytes held inline.
    pub(crate) const INLINE: usize = 22;

    /// The empty text.
    pub const fn new() -> Self {
        ShortStr(Repr::Inline {
            len: 0,
            bytes: [0; ShortStr::INLINE],
        })
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Built from a whole `&str`, so valid: the fallback never runs.
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).unwrap_or_default()
            }
            Repr::Heap(s) => s,
        }
    }

    /// The text's bytes, without the UTF-8 check [`as_str`](Self::as_str)
    /// makes: what equality and order read.
    fn bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }
}

impl Default for ShortStr {
    fn default() -> Self {
        ShortStr::new()
    }
}

impl From<&str> for ShortStr {
    fn from(s: &str) -> Self {
        if s.len() > ShortStr::INLINE {
            return ShortStr(Repr::Heap(s.into()));
        }
        let mut bytes = [0; ShortStr::INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        ShortStr(Repr::Inline {
            len: s.len() as u8,
            bytes,
        })
    }
}

impl From<String> for ShortStr {
    fn from(s: String) -> Self {
        if s.len() > ShortStr::INLINE {
            return ShortStr(Repr::Heap(s.into_boxed_str()));
        }
        ShortStr::from(s.as_str())
    }
}

impl From<Cow<'_, str>> for ShortStr {
    fn from(s: Cow<'_, str>) -> Self {
        match s {
            Cow::Borrowed(s) => ShortStr::from(s),
            Cow::Owned(s) => ShortStr::from(s),
        }
    }
}

impl From<ShortStr> for String {
    fn from(s: ShortStr) -> Self {
        match s.0 {
            Repr::Heap(s) => s.into_string(),
            Repr::Inline { .. } => s.as_str().to_string(),
        }
    }
}

impl Deref for ShortStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for ShortStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for ShortStr {
    fn eq(&self, other: &ShortStr) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for ShortStr {}

impl PartialEq<&str> for ShortStr {
    fn eq(&self, other: &&str) -> bool {
        self.bytes() == other.as_bytes()
    }
}

/// Byte order, which is `str`'s order.
impl Ord for ShortStr {
    fn cmp(&self, other: &ShortStr) -> Ordering {
        self.bytes().cmp(other.bytes())
    }
}

impl PartialOrd for ShortStr {
    fn partial_cmp(&self, other: &ShortStr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// As its `str` hashes, which `Borrow<str>` requires.
impl Hash for ShortStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for ShortStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for ShortStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl Serialize for ShortStr {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl Deserialize for ShortStr {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.peek_token() != Some(b'"') {
            return Err(r.expected("string", "String"));
        }
        r.str().map(ShortStr::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, HashMap};

    fn is_inline(s: &ShortStr) -> bool {
        matches!(s.0, Repr::Inline { .. })
    }

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Text of the characters `codes` pick: ASCII from a small alphabet
    /// (so texts share prefixes), or a code point one, two, three or four
    /// bytes long.
    fn text(codes: Vec<u32>) -> String {
        codes
            .into_iter()
            .map(|c| {
                let c = match c % 5 {
                    0 | 1 => 'a' as u32 + (c >> 3) % 3,
                    2 => 0x80 + (c >> 3) % 0x780,
                    3 => 0x800 + (c >> 3) % 0xF800,
                    _ => (c >> 3) % 0x11_0000,
                };
                char::from_u32(c).unwrap_or('\u{fffd}')
            })
            .collect()
    }

    fn utf8() -> impl Strategy<Value = String> {
        prop::collection::vec(any::<u32>(), 0..16).prop_map(text)
    }

    #[test]
    fn text_of_up_to_22_bytes_is_inline() {
        for (text, inline) in [
            ("", true),
            ("w0-00000001", true),
            (&"x".repeat(21)[..], true),
            (&"x".repeat(22)[..], true),
            (&"x".repeat(23)[..], false),
            // "é" is two bytes: at 21 it straddles the inline end.
            (&format!("{}é", "x".repeat(21))[..], false),
            (&format!("{}é", "x".repeat(20))[..], true),
        ] {
            let s = ShortStr::from(text);
            assert_eq!((s.as_str(), is_inline(&s)), (text, inline), "{text:?}");
            let owned = ShortStr::from(text.to_string());
            assert_eq!((owned.as_str(), is_inline(&owned)), (text, inline));
            assert_eq!(String::from(owned), text);
        }
        assert_eq!(ShortStr::new(), ShortStr::default());
        assert_eq!(ShortStr::new(), "");
    }

    #[test]
    fn json_is_the_strings_json() {
        for text in [
            "",
            "generic",
            "quote \" and \\ and \n",
            "ÉmileÉmileÉmileÉmile",
        ] {
            let s = ShortStr::from(text);
            let (mut json, mut row, mut string) = (String::new(), String::new(), String::new());
            s.write_json(&mut json);
            s.write_row(&mut row);
            text.to_string().write_json(&mut string);
            assert_eq!((&json, &row), (&string, &string));
            let back: ShortStr = serde::from_json(&json).unwrap();
            assert_eq!(back, s);
        }
        assert!(serde::from_json::<ShortStr>("7").is_err());
    }

    proptest! {
        #[test]
        fn orders_compares_and_hashes_as_its_str(a in utf8(), b in utf8()) {
            let (sa, sb) = (ShortStr::from(a.as_str()), ShortStr::from(b.as_str()));
            prop_assert_eq!(sa.as_str(), a.as_str());
            prop_assert_eq!(is_inline(&sa), a.len() <= ShortStr::INLINE);
            prop_assert_eq!(sa.cmp(&sb), a.as_str().cmp(b.as_str()));
            prop_assert_eq!(sa == sb, a == b);
            prop_assert_eq!(hash_of(&sa), hash_of(a.as_str()));
            prop_assert_eq!(format!("{sa:?}|{sa}"), format!("{a:?}|{a}"));
        }

        #[test]
        fn a_map_finds_every_key_by_its_str(keys in prop::collection::vec(utf8(), 0..24)) {
            let tree: BTreeMap<ShortStr, usize> =
                keys.iter().enumerate().map(|(i, k)| (ShortStr::from(k.as_str()), i)).collect();
            let hashed: HashMap<ShortStr, usize> =
                keys.iter().enumerate().map(|(i, k)| (ShortStr::from(k.as_str()), i)).collect();
            let strings: BTreeMap<&str, usize> =
                keys.iter().enumerate().map(|(i, k)| (k.as_str(), i)).collect();
            for k in &keys {
                prop_assert_eq!(tree.get(k.as_str()), strings.get(k.as_str()));
                prop_assert_eq!(hashed.get(k.as_str()), strings.get(k.as_str()));
            }
            prop_assert!(tree.keys().map(|k| k.as_str()).eq(strings.keys().copied()));
        }
    }
}
