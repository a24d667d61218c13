//! Hostile input: the readers that face bytes this process did not write
//! — a peer zone's WAL lines, a checkpoint on a device, anything handed to
//! `serde_json::from_str` — must fail closed, never panic, and never
//! change what they accept: whatever parses re-renders to text that
//! parses to the same value.
//!
//! Inputs are real WAL lines, a real checkpoint envelope and a real
//! snapshot (the recorded goldens of `golden_formats.rs`, in both the row
//! form and the object form), truncated, byte-flipped and spliced, plus
//! arbitrary bytes; and near-valid text, where one struct of a recorded
//! value is reshaped (`shapes`): its row form short or long, an array
//! where an object is due or the reverse, a field of the wrong type.

mod shapes;

use proptest::prelude::*;
use shapes::{reshaped, targets, Reshape};
use srb_mcat::{AuditAction, CatalogSnapshot, Mcat, WalConfig, WalRecord};
use srb_storage::{Image, LogDevice};
use srb_types::{Lsn, SimClock, SrbError};
use std::sync::Arc;

const CHECKPOINT: &str = include_str!("fixtures/golden_checkpoint.txt");
const TAIL: &str = include_str!("fixtures/golden_tail.txt");
const FULL_TAIL: &str = include_str!("fixtures/golden_tail_full.txt");
const SNAPSHOT: &str = include_str!("fixtures/golden_snapshot.json");

/// The row-form twins of the fixtures above.
const ROW_CHECKPOINT: &str = include_str!("fixtures/golden_checkpoint_rows.txt");
const ROW_TAIL: &str = include_str!("fixtures/golden_tail_rows.txt");
const ROW_FULL_TAIL: &str = include_str!("fixtures/golden_tail_full_rows.txt");
const ROW_SNAPSHOT: &str = include_str!("fixtures/golden_snapshot_rows.json");

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

/// A recorded checkpoint: `(cover, envelope text)`.
fn checkpoint_of(fixture: &'static str) -> (Lsn, &'static str) {
    let (lsn, text) = fixture.split_once('\n').unwrap_or(("0", ""));
    (Lsn(lsn.parse().unwrap_or(0)), text.trim_end())
}

/// The object-form checkpoint.
fn checkpoint() -> (Lsn, &'static str) {
    checkpoint_of(CHECKPOINT)
}

/// Every recorded text a mutation may start from: WAL lines, then the
/// checkpoint envelope, in both forms.
fn sources() -> Vec<&'static str> {
    let mut v: Vec<&str> = Vec::new();
    for (tail, checkpoint) in [(FULL_TAIL, CHECKPOINT), (ROW_FULL_TAIL, ROW_CHECKPOINT)] {
        v.extend(lines(tail).into_iter().map(|(_, p)| p));
        v.push(checkpoint_of(checkpoint).1);
    }
    v
}

/// Each recorded WAL line in the object form with its row-form twin.
fn twin_lines() -> Vec<(&'static str, &'static str)> {
    let old = lines(FULL_TAIL).into_iter().map(|(_, p)| p);
    old.zip(lines(ROW_FULL_TAIL).into_iter().map(|(_, p)| p))
        .collect()
}

fn reshape() -> impl Strategy<Value = Reshape> {
    (0u8..5, 1usize..4, any::<usize>(), any::<bool>()).prop_map(|(how, k, field, row)| match how {
        0 => Reshape::Row,
        1 => Reshape::Short(k),
        2 => Reshape::Long,
        3 => Reshape::Retype { field, row },
        _ => Reshape::Flip,
    })
}

/// The object-form `text` with its `n`-th target (mod the count) reshaped
/// by `how`, and every other struct in its row form with `rows`.
fn reshaped_text(text: &str, n: usize, how: Reshape, rows: bool) -> String {
    let v: serde_json::Value = serde_json::from_str(text).unwrap();
    let n = n % targets(&v, how).max(1);
    serde_json::to_string(&reshaped(&v, n, how, rows)).unwrap()
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
            let row = serde_json::to_row_string(&rec).unwrap();
            let back: WalRecord = serde_json::from_str(&row).unwrap();
            prop_assert_eq!(serde_json::to_row_string(&back).unwrap(), row);
        }
    }

    #[test]
    fn reshaped_records_read_or_fail_closed(
        pick in any::<usize>(),
        n in any::<usize>(),
        how in reshape(),
        rows in any::<bool>(),
    ) {
        let twins = twin_lines();
        let (old, new) = twins[pick % twins.len()];
        let text = reshaped_text(old, n, how, rows);
        let read = serde_json::from_str::<WalRecord>(&text);
        match how {
            Reshape::Row => {
                let rec = read.as_ref().map_err(|e| format!("{e} in {text}"));
                let row = serde_json::to_row_string(rec.unwrap()).unwrap();
                prop_assert_eq!(row, new);
            }
            Reshape::Long => prop_assert!(read.is_err(), "a long array read: {}", text),
            _ => {}
        }
        if let Ok(rec) = read {
            let row = serde_json::to_row_string(&rec).unwrap();
            let back: WalRecord = serde_json::from_str(&row).unwrap();
            prop_assert_eq!(serde_json::to_row_string(&back).unwrap(), row);
        }
    }

    #[test]
    fn damaged_logs_recover_or_fail_closed(
        which in 0usize..3,
        line in any::<usize>(),
        d in damage(),
        row_form in any::<bool>(),
    ) {
        let (checkpoint, tail) = match row_form {
            true => (ROW_CHECKPOINT, ROW_TAIL),
            false => (CHECKPOINT, TAIL),
        };
        let (_, envelope) = checkpoint_of(checkpoint);
        let mut tail: Vec<(Lsn, String)> =
            lines(tail).into_iter().map(|(l, p)| (l, p.to_string())).collect();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reshaped_snapshots_read_or_fail_closed(
        n in any::<usize>(),
        how in reshape(),
        rows in any::<bool>(),
    ) {
        let text = reshaped_text(SNAPSHOT, n, how, rows);
        let read = serde_json::from_str::<CatalogSnapshot>(&text);
        match how {
            Reshape::Row => {
                let snap = read.map_err(|e| format!("{e} in {text}")).unwrap();
                let m = Mcat::restore(SimClock::new(), snap).unwrap();
                prop_assert_eq!(m.snapshot_json().unwrap(), ROW_SNAPSHOT.trim_end());
            }
            Reshape::Long => prop_assert!(read.is_err(), "a long array read: {}", text),
            _ => {
                if let Ok(m) = Mcat::restore_json(SimClock::new(), &text) {
                    let json = m.snapshot_json().unwrap();
                    let again = Mcat::restore_json(SimClock::new(), &json).unwrap();
                    prop_assert_eq!(again.snapshot_json().unwrap(), json);
                }
            }
        }
    }
}

/// Every struct of an object-form fixture in its row form is the fixture's
/// row-form twin, byte for byte: the writers put nothing else in a row.
#[test]
fn every_struct_in_its_row_form_is_the_recorded_twin() {
    let mut pairs = twin_lines();
    pairs.push((checkpoint().1, checkpoint_of(ROW_CHECKPOINT).1));
    pairs.push((SNAPSHOT.trim_end(), ROW_SNAPSHOT.trim_end()));
    for (old, new) in pairs {
        assert_eq!(reshaped_text(old, usize::MAX, Reshape::Row, true), new);
    }
}

/// A record cut at any byte, or a snapshot cut anywhere, is an error in
/// either form.
#[test]
fn truncation_at_every_byte_fails_closed() {
    let longest = |tail: &'static str| {
        let all = lines(tail).into_iter().map(|(_, p)| p);
        all.max_by_key(|p| p.len()).unwrap()
    };
    for line in [longest(FULL_TAIL), longest(ROW_FULL_TAIL)] {
        for cut in 0..line.len() {
            let text = &line[..cut];
            assert!(serde_json::from_str::<WalRecord>(text).is_err(), "{text}");
        }
    }
    // A snapshot at every 13th byte: each cut reads the whole prefix.
    for snapshot in [SNAPSHOT.trim_end(), ROW_SNAPSHOT.trim_end()] {
        let cuts = (0..snapshot.len()).step_by(13);
        for cut in cuts.filter(|&i| snapshot.is_char_boundary(i)) {
            let text = &snapshot[..cut];
            assert!(serde_json::from_str::<CatalogSnapshot>(text).is_err());
        }
    }
    // A recorded checkpoint cut short, at byte 0 too, fails recovery as
    // corrupt input.
    for fixture in [CHECKPOINT, ROW_CHECKPOINT] {
        let envelope = checkpoint_of(fixture).1;
        let cuts = [0, 1, envelope.len() / 2, envelope.len() - 1];
        for cut in cuts.into_iter().filter(|&i| envelope.is_char_boundary(i)) {
            let recovered = recover(&envelope[..cut], &[]);
            let err = recovered.err();
            assert!(
                matches!(err, Some(SrbError::Parse(_))),
                "cut at {cut}: {err:?}"
            );
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

/// One byte flipped inside an audit part of a real checkpoint fails
/// recovery as corrupt input: recovery decodes every audit row before it
/// keeps a part as its page's text. Every byte outside the rows' strings
/// is flipped in turn.
#[test]
fn a_flipped_byte_in_an_audit_part_fails_recovery() {
    let m = Mcat::new(SimClock::new(), "pw");
    let device = Arc::new(LogDevice::new());
    m.enable_wal(device.clone(), NO_CKPT, None).unwrap();
    for i in 0..20 {
        let (now, admin) = (m.clock.now(), m.admin());
        let subject = format!("/zoo/f{i}");
        m.audit
            .record(&m.ids, now, admin, AuditAction::Read, &subject, "ok");
        m.commit();
    }
    m.checkpoint_now().unwrap();
    let cover = device.checkpoint_lsn().unwrap();
    let parts = device.checkpoint_image().unwrap().parts().to_vec();
    let at = 1 + parts
        .iter()
        .position(|p| p.ends_with("\"audit\":["))
        .unwrap();
    let recover_parts = |parts: Vec<Arc<str>>| {
        let device = Arc::new(LogDevice::new());
        device.install_checkpoint(cover, parts.into_iter().collect::<Image>());
        device.crash();
        Mcat::recover(SimClock::new(), device, NO_CKPT, None).map(|(m, _)| m)
    };
    let recovered = recover_parts(parts.clone()).unwrap();
    assert_eq!(recovered.audit.dump(), m.audit.dump());
    let part = parts[at].as_bytes();
    let (mut in_string, mut flipped) = (false, 0);
    for i in 0..part.len() {
        let quote = part[i] == b'"' && (i == 0 || part[i - 1] != b'\\');
        if in_string && !quote {
            continue;
        }
        in_string ^= quote;
        let mut bytes = part.to_vec();
        bytes[i] = b'#';
        let mut damaged = parts.clone();
        damaged[at] = Arc::from(String::from_utf8(bytes).unwrap());
        let err = recover_parts(damaged).err();
        assert!(matches!(err, Some(SrbError::Parse(_))), "byte {i}: {err:?}");
        flipped += 1;
    }
    assert!(flipped > 20 * 12, "{flipped} bytes flipped");
}
