//! Hostile input for `CursorCodec`: a continuation token comes back in a
//! query string from whoever sent the request, so `decode` and
//! `decode_fresh` must fail closed — never panic, reject with
//! `SrbError::Invalid` only, and never accept a token that does not encode
//! back to itself.
//!
//! Inputs are arbitrary strings, truncations, byte flips and splices of
//! valid tokens, and payloads this test signs itself with the codec's
//! known key — so odd text (`+1`/`01` sections, empty or overflowing
//! generations, odd-length or non-UTF-8 hex) reaches the parser behind the
//! MAC check instead of being stopped by it.

use proptest::prelude::*;
use srb_types::{splitmix64, to_hex, CursorCodec, HmacKey, PageToken, SrbError, SrbResult};

const SEED: u64 = 0x5eed;

fn codec() -> CursorCodec {
    CursorCodec::new(SEED)
}

/// `payload` signed with the codec's key, which `CursorCodec::new`
/// derives from the seed as four splitmix64 draws.
fn signed(payload: &str) -> String {
    let mut key = [0u8; 32];
    for (i, chunk) in key.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&splitmix64(SEED, i as u64).to_le_bytes());
    }
    let tag = to_hex(&HmacKey::new(&key).sign(payload.as_bytes()));
    format!("{payload}.{}", &tag[..32])
}

/// Characters for `last`, separators and multi-byte ones included.
const LAST_CHARS: &[char] = &['a', 'Z', '0', ':', ',', '.', ' ', '%', '/', 'é', '日', '🐦'];

fn token() -> impl Strategy<Value = PageToken> {
    (
        any::<u8>(),
        prop::collection::vec(any::<u64>(), 0..4),
        prop::collection::vec(0..LAST_CHARS.len(), 0..12),
    )
        .prop_map(|(section, gens, ix)| PageToken {
            section,
            gens,
            last: ix.into_iter().map(|i| LAST_CHARS[i]).collect(),
        })
}

/// Text for the three payload fields that the parser must either read
/// exactly or reject.
const SECTIONS: &[&str] = &["0", "1", "+1", "01", "255", "256", "-1", "", " 1", "x"];
const GENS: &[&str] = &[
    "",
    "0",
    "5,7",
    "+5",
    "05",
    ",",
    "1,",
    ",1",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1 ",
];
const LAST_HEX: &[&str] = &[
    "", "616263", "6", "zz", "ff", "c3", "c3a9", "4A", "e697a5", "2e3a",
];

/// Where a hostile token comes from.
#[derive(Debug, Clone)]
enum Hostile {
    /// Arbitrary bytes (invalid UTF-8 becomes U+FFFD).
    Bytes(Vec<u8>),
    /// A valid token cut after `at` bytes (mod its length + 1).
    Truncate(PageToken, usize),
    /// A valid token with the byte at `at` XORed with a nonzero mask.
    Flip(PageToken, usize, u8),
    /// The head of one valid token up to `at`, then another's tail from
    /// `from`.
    Splice(PageToken, PageToken, usize, usize),
    /// `section:gens:hex`, plus `:extra` when set, signed with the key.
    Signed(usize, usize, usize, bool),
}

fn hostile() -> impl Strategy<Value = Hostile> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..120).prop_map(Hostile::Bytes),
        (token(), any::<usize>()).prop_map(|(t, at)| Hostile::Truncate(t, at)),
        (token(), any::<usize>(), 1u8..255).prop_map(|(t, at, m)| Hostile::Flip(t, at, m)),
        (token(), token(), any::<usize>(), any::<usize>())
            .prop_map(|(a, b, at, from)| Hostile::Splice(a, b, at, from)),
        (
            0..SECTIONS.len(),
            0..GENS.len(),
            0..LAST_HEX.len(),
            any::<bool>()
        )
            .prop_map(|(s, g, l, extra)| Hostile::Signed(s, g, l, extra)),
    ]
}

fn text(h: &Hostile) -> String {
    let c = codec();
    let bytes: Vec<u8> = match h {
        Hostile::Bytes(b) => b.clone(),
        Hostile::Truncate(t, at) => {
            let s = c.encode(t).into_bytes();
            s[..at % (s.len() + 1)].to_vec()
        }
        Hostile::Flip(t, at, mask) => {
            let mut s = c.encode(t).into_bytes();
            let i = at % s.len();
            s[i] ^= mask;
            s
        }
        Hostile::Splice(a, b, at, from) => {
            let (a, b) = (c.encode(a).into_bytes(), c.encode(b).into_bytes());
            let mut s = a[..at % (a.len() + 1)].to_vec();
            s.extend_from_slice(&b[from % (b.len() + 1)..]);
            s
        }
        Hostile::Signed(s, g, l, extra) => {
            let tail = if *extra { ":extra" } else { "" };
            let payload = format!("{}:{}:{}{tail}", SECTIONS[*s], GENS[*g], LAST_HEX[*l]);
            return signed(&payload);
        }
    };
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Generations that differ from `gens`: one bumped, one more, one fewer.
fn other_gens(gens: &[u64]) -> Vec<Vec<u64>> {
    let mut out = vec![[gens, &[0]].concat()];
    if let Some((first, rest)) = gens.split_first() {
        out.push([&[first.wrapping_add(1)], rest].concat());
        out.push(rest.to_vec());
    }
    out
}

/// Rejected as `Invalid`, the one error a paging endpoint restarts on.
fn invalid<T: std::fmt::Debug>(r: &SrbResult<T>) -> bool {
    matches!(r, Err(SrbError::Invalid(_)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn hostile_tokens_fail_closed_or_round_trip(h in hostile()) {
        let c = codec();
        let s = text(&h);
        match c.decode(&s) {
            Err(e) => {
                prop_assert!(matches!(e, SrbError::Invalid(_)), "{e:?} for {s:?}");
                prop_assert!(invalid(&c.decode_fresh(&s, &[])), "decode_fresh of {s:?}");
            }
            Ok(t) => {
                prop_assert_eq!(c.decode(&c.encode(&t)).ok(), Some(t.clone()));
                prop_assert_eq!(c.decode_fresh(&s, &t.gens).ok(), Some(t.clone()));
                for gens in other_gens(&t.gens) {
                    prop_assert!(invalid(&c.decode_fresh(&s, &gens)), "{gens:?} for {s:?}");
                }
            }
        }
    }

    #[test]
    fn valid_tokens_round_trip_and_go_stale(t in token()) {
        let c = codec();
        let s = c.encode(&t);
        prop_assert_eq!(c.decode(&s).ok(), Some(t.clone()));
        prop_assert_eq!(c.decode_fresh(&s, &t.gens).ok(), Some(t.clone()));
        for gens in other_gens(&t.gens) {
            prop_assert!(invalid(&c.decode_fresh(&s, &gens)), "{gens:?} for {s:?}");
        }
        prop_assert!(invalid(&CursorCodec::new(SEED + 1).decode(&s)));
    }
}

/// The signed arm reaches the parser: the test's key is the codec's, and
/// lenient integer text decodes to the token it names.
#[test]
fn the_test_signs_with_the_codec_key() {
    let c = codec();
    let t = PageToken {
        section: 1,
        gens: vec![5, 7],
        last: "abc".into(),
    };
    assert_eq!(signed("1:5,7:616263"), c.encode(&t));
    assert_eq!(c.decode(&signed("+1:05,+7:616263")).unwrap(), t);
    assert!(invalid(&c.decode(&signed("1:5,:616263"))));
    assert!(invalid(&c.decode(&signed("1:18446744073709551616:"))));
    assert!(invalid(&c.decode(&signed("1::6"))));
    assert!(invalid(&c.decode(&signed("1::ff"))));
}
