//! Hostile input: the readers that face bytes this process did not write
//! — a peer zone's WAL lines, a checkpoint on a device, anything handed to
//! `serde_json::from_str` — must fail closed, never panic, and never
//! change what they accept: whatever parses re-renders to text that
//! parses to the same value.
//!
//! Inputs are real WAL lines and a real checkpoint envelope (the recorded
//! goldens of `golden_formats.rs`), truncated, byte-flipped and spliced,
//! plus arbitrary bytes.

use proptest::prelude::*;
use srb_mcat::{Mcat, WalConfig, WalRecord};
use srb_storage::LogDevice;
use srb_types::{Lsn, SimClock, SrbError};
use std::sync::Arc;

const CHECKPOINT: &str = include_str!("fixtures/golden_checkpoint.txt");
const TAIL: &str = include_str!("fixtures/golden_tail.txt");
const FULL_TAIL: &str = include_str!("fixtures/golden_tail_full.txt");

const NO_CKPT: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};

/// Bytes JSON is made of, to give arbitrary input a chance of parsing.
const JSON_BYTES: &[u8] = b"{}[]\":,0123456789-+.eE truefalsn\\/u\"abcXYZ\t\n";

/// `(LSN, payload)` of every recorded line.
fn lines(text: &str) -> Vec<(Lsn, &str)> {
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(lsn, payload)| (Lsn(lsn.parse().unwrap_or(0)), payload))
        .collect()
}

/// The recorded checkpoint: `(cover, envelope text)`.
fn checkpoint() -> (Lsn, &'static str) {
    let (lsn, text) = CHECKPOINT.split_once('\n').unwrap_or(("0", ""));
    (Lsn(lsn.parse().unwrap_or(0)), text.trim_end())
}

/// Every recorded text a mutation may start from: WAL lines, then the
/// checkpoint envelope.
fn sources() -> Vec<&'static str> {
    let mut v: Vec<&str> = lines(FULL_TAIL).into_iter().map(|(_, p)| p).collect();
    v.push(checkpoint().1);
    v
}

/// One way of damaging recorded text.
#[derive(Debug, Clone)]
enum Damage {
    /// Keep only the first `at` bytes (mod the length).
    Truncate { at: usize },
    /// XOR the byte at `at` (mod the length) with a nonzero `mask`.
    Flip { at: usize, mask: u8 },
    /// The head of the text up to `at`, then the tail of another recorded
    /// text from `from`.
    Splice {
        other: usize,
        at: usize,
        from: usize,
    },
    /// Replace the whole text with these bytes.
    Arbitrary { bytes: Vec<u8> },
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(|at| Damage::Truncate { at }),
        (any::<usize>(), 1u8..255).prop_map(|(at, mask)| Damage::Flip { at, mask }),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(other, at, from)| Damage::Splice { other, at, from }),
        prop::collection::vec(any::<u8>(), 0..120).prop_map(|bytes| Damage::Arbitrary { bytes }),
        prop::collection::vec(0..JSON_BYTES.len(), 0..120).prop_map(|ix| Damage::Arbitrary {
            bytes: ix.into_iter().map(|i| JSON_BYTES[i]).collect(),
        }),
    ]
}

/// Apply `d` to `src`; invalid UTF-8 becomes U+FFFD, as it would reaching
/// a `&str` reader.
fn damaged(src: &str, d: &Damage) -> String {
    let all = sources();
    let src = src.as_bytes();
    let bytes: Vec<u8> = match d {
        Damage::Truncate { at } => src[..at % (src.len() + 1)].to_vec(),
        Damage::Flip { at, mask } => {
            let mut b = src.to_vec();
            if !b.is_empty() {
                let i = at % b.len();
                b[i] ^= mask;
            }
            b
        }
        Damage::Splice { other, at, from } => {
            let tail = all[other % all.len()].as_bytes();
            let mut b = src[..at % (src.len() + 1)].to_vec();
            b.extend_from_slice(&tail[from % (tail.len() + 1)..]);
            b
        }
        Damage::Arbitrary { bytes } => bytes.clone(),
    };
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Recover a device holding `checkpoint` and `tail`: an error or a
/// catalog, never a panic.
fn recover(checkpoint: &str, tail: &[(Lsn, String)]) -> Result<Mcat, SrbError> {
    let device = Arc::new(LogDevice::new());
    device.install_checkpoint(self::checkpoint().0, checkpoint);
    for (lsn, payload) in tail {
        device.append(*lsn, payload.as_str());
    }
    device.sync();
    device.crash();
    Mcat::recover(SimClock::new(), device, NO_CKPT, None).map(|(m, _)| m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn damaged_text_fails_closed_or_round_trips(pick in any::<usize>(), d in damage()) {
        let all = sources();
        let text = damaged(all[pick % all.len()], &d);
        if let Ok(v) = serde_json::from_str::<serde_json::Value>(&text) {
            let again = serde_json::to_string(&v).unwrap();
            prop_assert_eq!(serde_json::from_str::<serde_json::Value>(&again).ok(), Some(v));
        }
        if let Ok(rec) = serde_json::from_str::<WalRecord>(&text) {
            let again = serde_json::to_string(&rec).unwrap();
            let back: WalRecord = serde_json::from_str(&again).unwrap();
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), again);
        }
    }

    #[test]
    fn damaged_logs_recover_or_fail_closed(
        which in 0usize..3,
        line in any::<usize>(),
        d in damage(),
    ) {
        let (_, envelope) = checkpoint();
        let mut tail: Vec<(Lsn, String)> =
            lines(TAIL).into_iter().map(|(l, p)| (l, p.to_string())).collect();
        let envelope = match which {
            // Damage the checkpoint …
            0 => damaged(envelope, &d),
            // … or one tail line, keeping its LSN …
            1 => {
                let i = line % tail.len();
                tail[i].1 = damaged(&tail[i].1, &d);
                envelope.to_string()
            }
            // … or cut the tail short at a damaged line.
            _ => {
                let i = line % tail.len();
                tail.truncate(i + 1);
                tail[i].1 = damaged(&tail[i].1, &d);
                envelope.to_string()
            }
        };
        if let Ok(m) = recover(&envelope, &tail) {
            let json = m.snapshot_json().unwrap();
            let again = Mcat::restore_json(SimClock::new(), &json).unwrap();
            prop_assert_eq!(again.snapshot_json().unwrap(), json);
        }
    }
}

#[test]
fn deep_nesting_is_a_parse_error_everywhere() {
    let deep = "[".repeat(200_000);
    assert!(serde_json::from_str::<serde_json::Value>(&deep).is_err());
    assert!(serde_json::from_str::<WalRecord>(&deep).is_err());
    let nested_op = format!("{{\"lsn\":1,\"gen\":0,\"op\":{deep}");
    assert!(serde_json::from_str::<WalRecord>(&nested_op).is_err());
    assert!(matches!(recover(&deep, &[]), Err(SrbError::Parse(_))));
    let (_, envelope) = checkpoint();
    let tail = vec![(Lsn(10_000), nested_op)];
    assert!(matches!(recover(envelope, &tail), Err(SrbError::Parse(_))));
}

#[test]
fn the_undamaged_log_recovers() {
    let tail: Vec<(Lsn, String)> = lines(TAIL)
        .into_iter()
        .map(|(l, p)| (l, p.to_string()))
        .collect();
    assert!(recover(checkpoint().1, &tail).is_ok());
}
