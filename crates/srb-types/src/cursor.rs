//! Opaque resumable-cursor tokens for paged catalog reads.
//!
//! The paper's MySRB browse pages windowed million-entry collections; an
//! offset-based window costs O(offset) per page. Instead the catalog hands
//! the client an opaque continuation token naming (a) where the previous
//! page ended — a section discriminant plus the last key served — and
//! (b) the mutation generations of every table the page was computed from.
//! The next page resumes with one bounded range scan from that key, O(page)
//! regardless of how deep into the listing it is; if any generation has
//! moved on, the token is rejected cleanly (`SrbError::Invalid`) and the
//! client restarts, so a mutated table can never silently skip or
//! duplicate entries served under the old ordering.
//!
//! Tokens are HMAC-tagged so a client cannot mint or tamper with one
//! (mirroring the keyed session tokens of the single-sign-on handshake).
//! Encoding is plain printable text — hex payload fields joined by `:` and
//! `,` plus a truncated hex MAC — so tokens travel safely in query strings.

use crate::error::{SrbError, SrbResult};
use crate::hash::{ct_eq, from_hex, hex_digits, splitmix64, HmacKey};
use std::fmt::Write;

/// Where a paged read stopped: the section being walked, the generation
/// stamps of the tables it was computed from, and the last key served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageToken {
    /// Section discriminant for multi-section listings (a collection page
    /// lists sub-collections, then datasets).
    pub section: u8,
    /// Raw [`crate::Generation`] stamps, in the order the paging endpoint
    /// documents. A resumed page re-reads the same counters and rejects the
    /// token on any mismatch.
    pub gens: Vec<u64>,
    /// The last key (name or path) the previous page served; the next page
    /// begins strictly after it.
    pub last: String,
}

/// Half of the HMAC-SHA256 tag, as hex: 32 hex chars, plenty against
/// forgery for a catalog cursor while keeping URLs short.
const TAG_HEX: usize = 32;

/// Signs and verifies [`PageToken`]s.
///
/// The key derives deterministically from a seed via the same splitmix64
/// stream used for session ids, so seeded simulation runs emit
/// byte-identical tokens (the bench determinism gates hash full page
/// walks, tokens included). It is absorbed into an [`HmacKey`] once, so a
/// token costs one MAC over its payload and nothing more.
#[derive(Debug, Clone)]
pub struct CursorCodec {
    mac: HmacKey,
}

impl CursorCodec {
    /// Codec with a key derived from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut key = [0u8; 32];
        for (i, chunk) in key.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(&splitmix64(seed, i as u64).to_le_bytes());
        }
        CursorCodec {
            mac: HmacKey::new(&key),
        }
    }

    /// Serialize and sign a token: the payload, `.`, then the truncated
    /// hex tag, written into one `String`.
    pub fn encode(&self, token: &PageToken) -> String {
        let mut out = Self::payload(token);
        let tag = self.mac.sign(out.as_bytes());
        out.push('.');
        out.extend(hex_digits(&tag[..TAG_HEX / 2]));
        out
    }

    /// Does `tag` spell the truncated hex MAC of `payload`? Compared in
    /// constant time, digit by digit, with no hex string built.
    fn tag_matches(&self, payload: &[u8], tag: &str) -> bool {
        let mut want = [0u8; TAG_HEX];
        let mac = self.mac.sign(payload);
        for (w, c) in want.iter_mut().zip(hex_digits(&mac[..TAG_HEX / 2])) {
            *w = c as u8;
        }
        ct_eq(tag.as_bytes(), &want)
    }

    /// Verify and parse a token. Any malformed, forged, or truncated input
    /// maps to `SrbError::Invalid` — a paging endpoint treats that exactly
    /// like a stale cursor and restarts the listing.
    pub fn decode(&self, s: &str) -> SrbResult<PageToken> {
        let bad = || SrbError::Invalid("malformed cursor".into());
        let (payload, tag) = s.rsplit_once('.').ok_or_else(bad)?;
        if !self.tag_matches(payload.as_bytes(), tag) {
            return Err(bad());
        }
        let mut parts = payload.split(':');
        let section = parts
            .next()
            .and_then(|p| p.parse::<u8>().ok())
            .ok_or_else(bad)?;
        let gens_part = parts.next().ok_or_else(bad)?;
        let gens = if gens_part.is_empty() {
            Vec::new()
        } else {
            gens_part
                .split(',')
                .map(|g| g.parse::<u64>().map_err(|_| bad()))
                .collect::<SrbResult<Vec<u64>>>()?
        };
        let last_hex = parts.next().ok_or_else(bad)?;
        if parts.next().is_some() {
            return Err(bad());
        }
        let last_bytes = from_hex(last_hex).ok_or_else(bad)?;
        let last = String::from_utf8(last_bytes).map_err(|_| bad())?;
        Ok(PageToken {
            section,
            gens,
            last,
        })
    }

    /// Decode and additionally require the generation stamps to match the
    /// tables' current ones — the common shape of every paging endpoint.
    pub fn decode_fresh(&self, s: &str, current: &[u64]) -> SrbResult<PageToken> {
        let t = self.decode(s)?;
        if t.gens != current {
            return Err(SrbError::Invalid(
                "stale cursor: catalog changed since this page was issued".into(),
            ));
        }
        Ok(t)
    }

    /// `section:gen,gen,…:hex(last)`, with room for the tag behind it: a
    /// `u8` section and its `:` take at most 4 bytes, a `u64` stamp and
    /// its separator at most 21.
    fn payload(token: &PageToken) -> String {
        let mut out =
            String::with_capacity(4 + token.gens.len() * 21 + token.last.len() * 2 + 1 + TAG_HEX);
        let _ = write!(out, "{}:", token.section);
        for (i, g) in token.gens.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{g}");
        }
        out.push(':');
        out.extend(hex_digits(token.last.as_bytes()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> CursorCodec {
        CursorCodec::new(0x5eed)
    }

    #[test]
    fn round_trip() {
        let c = codec();
        let t = PageToken {
            section: 1,
            gens: vec![3, 0, 42],
            last: "/zoo/birds/condor.jpg".into(),
        };
        let s = c.encode(&t);
        assert_eq!(c.decode(&s).unwrap(), t);
        // Keys with separators and non-ASCII survive the hex leg.
        let t2 = PageToken {
            section: 0,
            gens: vec![],
            last: "weird:name.with,separators é".into(),
        };
        assert_eq!(c.decode(&c.encode(&t2)).unwrap(), t2);
    }

    #[test]
    fn deterministic_across_codecs_with_same_seed() {
        let t = PageToken {
            section: 0,
            gens: vec![1],
            last: "x".into(),
        };
        assert_eq!(
            CursorCodec::new(7).encode(&t),
            CursorCodec::new(7).encode(&t)
        );
        assert_ne!(
            CursorCodec::new(7).encode(&t),
            CursorCodec::new(8).encode(&t)
        );
    }

    #[test]
    fn tampering_and_garbage_rejected() {
        let c = codec();
        let t = PageToken {
            section: 1,
            gens: vec![5],
            last: "abc".into(),
        };
        let s = c.encode(&t);
        // Flip a payload character: the MAC no longer matches.
        let mut bad = s.clone();
        bad.replace_range(0..1, "2");
        assert!(c.decode(&bad).is_err());
        // Truncated tag, wrong key, plain garbage.
        assert!(c.decode(&s[..s.len() - 1]).is_err());
        assert!(CursorCodec::new(999).decode(&s).is_err());
        assert!(c.decode("not a token").is_err());
        assert!(c.decode("").is_err());
    }

    #[test]
    fn decode_fresh_rejects_moved_generations() {
        let c = codec();
        let t = PageToken {
            section: 0,
            gens: vec![2, 7],
            last: "k".into(),
        };
        let s = c.encode(&t);
        assert!(c.decode_fresh(&s, &[2, 7]).is_ok());
        let err = c.decode_fresh(&s, &[2, 8]).unwrap_err();
        assert!(matches!(err, SrbError::Invalid(_)));
        assert!(c.decode_fresh(&s, &[2]).is_err());
    }
}
