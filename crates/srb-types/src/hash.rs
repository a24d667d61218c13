//! From-scratch SHA-256 and HMAC-SHA256.
//!
//! The paper's MySRB authenticates with "128-bit RSA" over https and SRB
//! uses challenge–response single sign-on. We reproduce the *protocol
//! structure* (challenge–response, keyed session tokens, checksummed
//! replicas) with SHA-256/HMAC rather than pulling in a TLS stack; see
//! DESIGN.md §2. The implementation follows FIPS 180-4 and is validated
//! against the published test vectors below. Blocks are compressed on the
//! CPU's SHA extensions when it has them, chosen once at first use; the
//! portable compression is the fallback and the reference both are
//! checked against.
//!
//! It also holds the workspace's one seeded generator, splitmix64: the
//! [`mix64`] finalizer, the counter-indexed [`splitmix64`] and the stateful
//! [`SeedStream`]; and the [`IdHasher`] behind the catalog's id-keyed
//! [`IdMap`]/[`IdSet`] tables, which ends in the same finalizer; and
//! [`fnv1a64`], the one cheap stable hash behind log-line checksums,
//! shard choice and bench digests.

use serde::{DeError, Deserialize, JsonReader, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
    compress: Compress,
}

/// A SHA-256 compression: the state through every 64-byte block of
/// `blocks`, whose length is a multiple of 64.
type Compress = fn(&mut [u32; 8], &[u8]);

/// The compression this CPU runs fastest, chosen on first use.
fn chosen() -> Compress {
    static CHOSEN: OnceLock<Compress> = OnceLock::new();
    *CHOSEN.get_or_init(|| hardware().unwrap_or(compress_portable))
}

/// The compression on the CPU's SHA extensions, if it has them.
fn hardware() -> Option<Compress> {
    #[cfg(target_arch = "x86_64")]
    {
        fn sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: `hardware` hands this function out only once it has
            // detected every feature `compress_sha_ni` is compiled for.
            unsafe { compress_sha_ni(state, blocks) }
        }
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Some(sha_ni);
        }
    }
    None
}

/// The compression of FIPS 180-4 §6.2.2, block by block.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression on the SHA extensions (`sha256rnds2` runs two rounds,
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at a
/// time). The state lives in two registers, `ABEF` and `CDGH`, as the
/// round instruction wants it. Words go in through `set` and out through
/// `extract`, so no pointer is read or written.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
// The schedule updates the last groups skip sit behind conditions that
// are false for them, which the liveness lint does not see.
#[allow(unused_assignments)]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;
    let lanes = |w: [u32; 4]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
    let abcd = lanes([state[0], state[1], state[2], state[3]]);
    let efgh = lanes([state[4], state[5], state[6], state[7]]);
    let cdab = _mm_shuffle_epi32(abcd, 0xB1);
    let hgfe = _mm_shuffle_epi32(efgh, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, hgfe, 8);
    let mut cdgh = _mm_blend_epi16(hgfe, cdab, 0xF0);
    let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let k: [__m128i; 16] =
        std::array::from_fn(|g| lanes([K[4 * g], K[4 * g + 1], K[4 * g + 2], K[4 * g + 3]]));
    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // Sixteen bytes as two little-endian halves, then each word's
        // bytes swapped: the message is big-endian.
        let half = |at: usize| {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&block[at..at + 8]);
            i64::from_le_bytes(bytes)
        };
        let words = |at: usize| _mm_shuffle_epi8(_mm_set_epi64x(half(at + 8), half(at)), swap);
        let mut msg = [_mm_setzero_si128(); 4];
        // Four rounds; written out sixteen times, so every index is a
        // constant and the schedule stays in registers.
        macro_rules! rounds {
            ($($g:literal)*) => {$({
                const G: usize = $g;
                if G < 4 {
                    msg[G % 4] = words(16 * G);
                }
                let wk = _mm_add_epi32(msg[G % 4], k[G]);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                if 3 <= G && G < 15 {
                    let (cur, prev, next) = (G % 4, (G + 3) % 4, (G + 1) % 4);
                    let carry = _mm_alignr_epi8(msg[cur], msg[prev], 4);
                    msg[next] = _mm_sha256msg2_epu32(_mm_add_epi32(msg[next], carry), msg[cur]);
                }
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                if 1 <= G && G < 13 {
                    let prev = (G + 3) % 4;
                    msg[prev] = _mm_sha256msg1_epu32(msg[prev], msg[G % 4]);
                }
            })*};
        }
        rounds!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    *state = [
        _mm_extract_epi32(dcba, 0) as u32,
        _mm_extract_epi32(dcba, 1) as u32,
        _mm_extract_epi32(dcba, 2) as u32,
        _mm_extract_epi32(dcba, 3) as u32,
        _mm_extract_epi32(hgfe, 0) as u32,
        _mm_extract_epi32(hgfe, 1) as u32,
        _mm_extract_epi32(hgfe, 2) as u32,
        _mm_extract_epi32(hgfe, 3) as u32,
    ];
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256::with(chosen())
    }

    /// Fresh hasher compressing through `compress`.
    fn with(compress: Compress) -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            compress,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        let whole = data.len() / 64 * 64;
        (self.compress)(&mut self.state, &data[..whole]);
        data = &data[whole..];
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 32-byte digest. The padding — `0x80`, zeros,
    /// the 8-byte big-endian bit length — is written into the buffer in
    /// one step: into this block when the length still fits (at most 55
    /// buffered bytes), otherwise across this block and one more.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        (self.compress)(&mut self.state, block);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// A replica's checksum: the SHA-256 digest of its bytes, held as the 32
/// bytes. Its text — in the image, the redo log, saved state and pages —
/// is the digest's 64 lowercase hex digits, and no other text reads back
/// as one.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Checksum(pub [u8; 32]);

impl Checksum {
    /// The checksum of `data`.
    pub fn of(data: &[u8]) -> Checksum {
        Checksum(sha256(data))
    }

    /// The checksum whose text is `hex`: 64 lowercase hex digits.
    fn parse(hex: &str) -> Option<Checksum> {
        let digit = |c: u8| match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        };
        let hex = hex.as_bytes();
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
            *byte = digit(pair[0])? << 4 | digit(pair[1])?;
        }
        Some(Checksum(out))
    }
}

impl fmt::Display for Checksum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        hex_digits(&self.0).try_for_each(|c| fmt::Write::write_char(f, c))
    }
}

impl fmt::Debug for Checksum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Checksum({self})")
    }
}

impl Serialize for Checksum {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        out.extend(hex_digits(&self.0));
        out.push('"');
    }
}

impl Deserialize for Checksum {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.peek_token() != Some(b'"') {
            return Err(r.expected("string", "Checksum"));
        }
        let text = r.str()?;
        Checksum::parse(&text).ok_or_else(|| {
            DeError::new(format!(
                "expected 64 lowercase hex digits for Checksum, got {text:?}"
            ))
        })
    }
}

/// An HMAC-SHA256 key (RFC 2104) — the keyed MAC behind challenge–response
/// authentication, MySRB session keys and catalog cursors.
///
/// The key's padded inner and outer blocks are absorbed once, here;
/// [`HmacKey::sign`] clones the two hasher states, so a key that signs
/// many messages pays for its own blocks only once.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorb `key` (hashed first when longer than one block).
    pub fn new(key: &[u8]) -> Self {
        HmacKey::with(key, chosen())
    }

    /// [`HmacKey::new`], compressing through `compress`.
    fn with(key: &[u8], compress: Compress) -> Self {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            let mut h = Sha256::with(compress);
            h.update(key);
            block[..32].copy_from_slice(&h.finalize());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let padded = |pad: u8| {
            let mut h = Sha256::with(compress);
            h.update(&block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: padded(0x36),
            outer: padded(0x5c),
        }
    }

    /// The 32-byte MAC of `message`.
    pub fn sign(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The absorbed states are as good as the key: never print them.
        f.write_str("HmacKey(..)")
    }
}

/// Lowercase hex encoding.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    s.extend(hex_digits(bytes));
    s
}

/// The lowercase hex digits of `bytes`, two per byte, without allocating.
pub(crate) fn hex_digits(bytes: &[u8]) -> impl Iterator<Item = char> + '_ {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    bytes.iter().flat_map(|&b| {
        [
            HEX[(b >> 4) as usize] as char,
            HEX[(b & 0xf) as usize] as char,
        ]
    })
}

/// Decode lowercase/uppercase hex; `None` on odd length or bad digits.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for i in (0..bytes.len()).step_by(2) {
        let hi = (bytes[i] as char).to_digit(16)?;
        let lo = (bytes[i + 1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// splitmix64's increment γ: the golden ratio as a 64-bit fraction.
const GAMMA: u64 = 0x9e3779b97f4a7c15;

/// The splitmix64 finalizer: a bijective avalanche of one 64-bit word.
/// Every seeded stream in the workspace ends here.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The `n`-th draw of a seeded, counter-indexed splitmix64 stream.
///
/// The scheme the fault engine uses for coin flips: stateless, so
/// concurrent callers only need an atomic counter for `n`, and any draw
/// can be replayed on any host from `(seed, n)` alone. Used for session
/// ids, auth nonces/tickets, and workload-driver choices. It agrees with
/// [`SeedStream`] only at `n = 0`.
pub fn splitmix64(seed: u64, n: u64) -> u64 {
    mix64(
        seed.wrapping_add(GAMMA)
            .wrapping_add(n.wrapping_mul(0xbf58476d1ce4e5b9)),
    )
}

/// The standard stateful splitmix64 generator: deterministic, seeded
/// randomness for one thread (workload generators, oracle schedules,
/// shuffles).
#[derive(Debug, Clone)]
pub struct SeedStream {
    state: u64,
}

impl SeedStream {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> SeedStream {
        SeedStream { state: seed }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }

    /// The next draw reduced into `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A fixed, cheap hasher for catalog-assigned ids.
///
/// Each `write_u64`/`write_usize` word (the byte path folds 8-byte
/// chunks) is folded into the state with a rotate, xor and odd multiply,
/// and [`mix64`] finalizes it. Ids come from one shared `IdGen`, so one
/// table's keys often advance by a power of two; the finalizer spreads
/// them over both the bucket bits (low) and the tag bits (top 7) of the
/// table. Without it a stride of 8 leaves 7/8 of the buckets empty.
///
/// There is no per-process key, so colliding keys can be crafted: use it
/// only for keys the catalog assigns, never for user text (names, paths,
/// attribute names). It has no `Default` and no public constructor, so the
/// one way to get one is [`IdBuild`], whose key type must be a
/// [`CatalogKey`]:
///
/// ```compile_fail,E0277
/// // `String` is user text, not a `CatalogKey`.
/// let m: srb_types::IdMap<String, u8> = Default::default();
/// ```
///
/// ```compile_fail,E0599
/// // `BuildHasherDefault` needs `IdHasher: Default`, which it is not.
/// use std::{collections::HashMap, hash::BuildHasherDefault};
/// let mut m: HashMap<String, u8, BuildHasherDefault<srb_types::IdHasher>> = HashMap::default();
/// m.insert(String::from("name"), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(GAMMA);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

/// A key the catalog assigns, and so one [`IdHasher`] may hash: ids from
/// `define_id!` and what is built from them. User text never is one.
pub trait CatalogKey: Hash + Eq {}

/// Builds [`IdHasher`]s for a table keyed by `K`. A key type that is not a
/// [`CatalogKey`] cannot name it, so [`IdMap`]/[`IdSet`] refuse it.
#[derive(Clone)]
pub struct IdBuild<K: CatalogKey>(PhantomData<fn() -> K>);

impl<K: CatalogKey> Default for IdBuild<K> {
    fn default() -> Self {
        IdBuild(PhantomData)
    }
}

impl<K: CatalogKey> BuildHasher for IdBuild<K> {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher(0)
    }
}

/// A `HashMap` keyed by a catalog-assigned id, on [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdBuild<K>>;

/// A `HashSet` of catalog-assigned ids, on [`IdHasher`].
pub type IdSet<K> = HashSet<K, IdBuild<K>>;

/// 64-bit FNV-1a over `parts`, as if they were one concatenated byte
/// string. Stable across hosts and runs, and cheap; not a MAC.
#[inline]
pub fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Constant-time equality for MACs and session keys.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every compression this CPU runs: the portable one, and the SHA
    /// extensions' when it has them.
    fn compressions() -> Vec<Compress> {
        let mut out: Vec<Compress> = vec![compress_portable];
        out.extend(hardware());
        out
    }

    /// SHA-256 of `data` on `compress`, fed in two pieces split at `split`.
    fn digest_on(compress: Compress, data: &[u8], split: usize) -> [u8; 32] {
        let mut h = Sha256::with(compress);
        h.update(&data[..split]);
        h.update(&data[split..]);
        h.finalize()
    }

    /// The hex digest of `data`, the same on every compression.
    fn hex_on_each(data: &[u8]) -> String {
        let digests: Vec<String> = compressions()
            .into_iter()
            .map(|c| to_hex(&digest_on(c, data, data.len() / 2)))
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
        digests[0].clone()
    }

    /// The hex HMAC of `message` under `key`, the same on every
    /// compression.
    fn mac_on_each(key: &[u8], message: &[u8]) -> String {
        let macs: Vec<String> = compressions()
            .into_iter()
            .map(|c| to_hex(&HmacKey::with(key, c).sign(message)))
            .collect();
        assert!(macs.windows(2).all(|w| w[0] == w[1]), "{macs:?}");
        macs[0].clone()
    }

    /// This host's CPU has the SHA extensions, so the hardware arm below
    /// runs here; elsewhere it compares the portable path with itself.
    #[test]
    fn the_chosen_compression_is_the_hardware_one_when_there_is_one() {
        let chosen = chosen() as usize;
        match hardware() {
            Some(hw) => assert_eq!(chosen, hw as usize),
            None => assert_eq!(chosen, compress_portable as Compress as usize),
        }
    }

    /// Message lengths from 0 to 1 000 bytes, weighted to the block
    /// boundaries where padding changes shape.
    fn length() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..1001,
            (0usize..16).prop_map(|b| b * 64),
            (1usize..16).prop_map(|b| b * 64 - 1),
            (0usize..16).prop_map(|b| b * 64 + 55),
            (0usize..16).prop_map(|b| b * 64 + 56),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The SHA extensions compute what the portable compression does,
        /// for `sha256` and for `HmacKey::sign`, at any length and any
        /// split of the input.
        #[test]
        fn hardware_compression_equals_portable(
            len in length(),
            seed in any::<u64>(),
            split in any::<u64>(),
            key_len in 0usize..150,
        ) {
            let mut rng = SeedStream::new(seed);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let key: Vec<u8> = (0..key_len).map(|_| rng.next_u64() as u8).collect();
            let split = (split % (len as u64 + 1)) as usize;
            let want = digest_on(compress_portable, &data, split);
            prop_assert_eq!(sha256(&data), want);
            let mac = HmacKey::with(&key, compress_portable).sign(&data);
            for c in compressions() {
                prop_assert_eq!(digest_on(c, &data, split), want);
                prop_assert_eq!(HmacKey::with(&key, c).sign(&data), mac);
            }
        }
    }

    #[test]
    fn checksum_text_is_64_lowercase_hex_digits_and_nothing_else() {
        let sum = Checksum::of(b"abc");
        let text = sum.to_string();
        assert_eq!(text, to_hex(&sha256(b"abc")));
        assert_eq!(Checksum::parse(&text), Some(sum));
        assert_eq!(serde_json::to_string(&sum).unwrap(), format!("\"{text}\""));
        let back: Checksum = serde_json::from_str(&format!("\"{text}\"")).unwrap();
        assert_eq!(back, sum);
        for bad in [
            "beef".to_string(),
            text.to_uppercase(),
            format!("{text}0"),
            text[1..].to_string(),
            format!("{}g", &text[1..]),
            String::new(),
        ] {
            assert_eq!(Checksum::parse(&bad), None, "{bad:?}");
            assert!(serde_json::from_str::<Checksum>(&format!("\"{bad}\"")).is_err());
        }
        assert!(serde_json::from_str::<Checksum>("7").is_err());
    }

    // FIPS 180-4 / NIST test vectors, on every compression.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            hex_on_each(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            hex_on_each(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_eq!(
            hex_on_each(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_on_each(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 200, 256, 257] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    /// SHA-256 of `data` by the letter of FIPS 180-4 §5.1.1: the whole
    /// padded message is built first, then compressed block by block.
    fn sha256_reference(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = Sha256::new();
        for block in padded.chunks_exact(64) {
            h.compress(block.try_into().expect("64-byte chunk"));
        }
        let mut out = [0u8; 32];
        for (i, w) in h.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Every message length up to three blocks, so each padding branch —
    /// the length fits after the `0x80` (≤ 55 bytes buffered), or it
    /// spills into an extra block (56–63), or the buffer is empty (64) —
    /// is checked against the reference, whole and one byte at a time.
    #[test]
    fn padding_matches_reference_at_every_length() {
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7 % 256) as u8).collect();
        for len in 0..=200 {
            let msg = &data[..len];
            let want = sha256_reference(msg);
            assert_eq!(sha256(msg), want, "length {len}");
            let mut h = Sha256::new();
            for b in msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), want, "length {len}, bytewise");
        }
    }

    /// One key signs many messages: the precomputed states are cloned,
    /// never consumed.
    #[test]
    fn hmac_key_signs_repeatably() {
        let key = HmacKey::new(b"Jefe");
        let first = key.sign(b"what do ya want for nothing?");
        assert_ne!(key.sign(b"something else"), first);
        assert_eq!(key.sign(b"what do ya want for nothing?"), first);
    }

    // RFC 4231 HMAC-SHA256 test cases 1, 2 and 6 (oversized key).
    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            mac_on_each(&key, b"Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        assert_eq!(
            mac_on_each(b"Jefe", b"what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let message = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            mac_on_each(&key, message),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// The first draws of the stream the chaos oracles replay their seeds
    /// from; a change here breaks every recorded oracle schedule.
    #[test]
    fn seed_stream_is_pinned() {
        let seed = 0x0A70_31C1_7E57;
        let mut s = SeedStream::new(seed);
        let draws: Vec<u64> = (0..4).map(|_| s.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0xf6113b3681dc6213,
                0x57653ab0999eb569,
                0xeed3c89dab5f6f8a,
                0xa135e6ab114f9133
            ]
        );
        for seed in [0, 1, seed, u64::MAX] {
            assert_eq!(splitmix64(seed, 0), SeedStream::new(seed).next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let (mut a, mut b) = (SeedStream::new(1), SeedStream::new(2));
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut s = SeedStream::new(1);
        for n in 1..1000 {
            assert!(s.below(n) < n);
        }
    }

    /// Ids at the strides a shared allocator hands one table cover every
    /// bucket value (low 10 bits) and every tag value (top 7 bits), and no
    /// bucket holds more than twice its share.
    #[test]
    fn id_hasher_spreads_strided_ids() {
        const N: u64 = 100_000;
        let build = IdBuild::<crate::DatasetId>::default();
        for stride in [1u64, 4, 8, 64] {
            let mut low = vec![0u32; 1 << 10];
            let mut top = vec![0u32; 1 << 7];
            for i in 0..N {
                let h = build.hash_one(crate::DatasetId(1 + i * stride));
                low[(h & 0x3ff) as usize] += 1;
                top[(h >> 57) as usize] += 1;
            }
            assert!(low.iter().all(|&n| n > 0), "stride {stride}: empty bucket");
            assert!(top.iter().all(|&n| n > 0), "stride {stride}: unused tag");
            let mean = N as f64 / low.len() as f64;
            let max = low.iter().copied().max().unwrap_or(0);
            assert!(
                f64::from(max) <= 2.0 * mean,
                "stride {stride}: bucket of {max} against a mean of {mean}"
            );
        }
    }

    #[test]
    fn id_hasher_byte_path_matches_word_path() {
        let (mut words, mut bytes) = (IdHasher(0), IdHasher(0));
        words.write_u64(0x0102_0304_0506_0708);
        bytes.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(&[]), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(&[b""]), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(&[b"a"]), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(&[b"foobar"]), 0x85944171f73967e8);
        assert_eq!(fnv1a64(&[b"foo", b"", b"bar"]), 0x85944171f73967e8);
    }

    #[test]
    fn ct_eq_basics() {
        assert!(ct_eq(b"abcd", b"abcd"));
        assert!(!ct_eq(b"abcd", b"abce"));
        assert!(!ct_eq(b"abcd", b"abc"));
        assert!(ct_eq(b"", b""));
    }
}
