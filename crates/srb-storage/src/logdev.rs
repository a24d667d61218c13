//! The simulated write-ahead-log device.
//!
//! Real SRB servers put the MCAT in a commercial database whose durability
//! comes from a redo log fsynced on commit. This module is that disk: an
//! in-memory, crash-aware sequential device holding one checkpoint slot
//! (full catalog snapshot, immutable once installed and shared with its
//! readers rather than copied) plus an ordered tail of LSN-stamped
//! records.
//! Like every other driver in this crate it never sleeps — each operation
//! returns its virtual cost in nanoseconds so the WAL can charge group
//! commits against the `SimClock` and fold them into receipts.
//!
//! Crash semantics are explicit and deterministic:
//!
//! * [`LogDevice::append`] buffers a record (the OS page cache); it is
//!   *not* durable until [`LogDevice::sync`] runs.
//! * [`LogDevice::crash`] models `kill -9`: the unsynced tail vanishes,
//!   everything synced survives.
//! * [`LogDevice::truncate_after`] lets chaos tests pin the durable prefix
//!   at an arbitrary LSN, simulating a crash at exactly that point.
//!
//! Every record carries an FNV-1a checksum computed at append time and
//! verified by the tail reader; a corrupt line ends the readable tail
//! (torn write) rather than failing recovery outright.
//!
//! The durable tail is LSN-ordered (the WAL appends under its state lock)
//! and has **one reader**, `LogInner::tail_after`: recovery's
//! [`LogDevice::read_back`] reads it from the start, replication's
//! [`LogDevice::read_after`] seeks to a cursor by binary search. Each line
//! is checksummed once: the device remembers how long a prefix of the tail
//! has verified clean, readers extend that mark, and whatever damages or
//! cuts durable lines pulls it back — so no reader is ever handed a line
//! at or past a torn one, wherever it starts.

use crate::driver::CostModel;
use srb_types::sync::{LockRank, Mutex};
use srb_types::{Lsn, SrbError, SrbResult};
use std::sync::Arc;

/// One durable (or buffered) log line.
#[derive(Debug, Clone)]
struct LogLine {
    lsn: Lsn,
    payload: String,
    checksum: u64,
}

/// FNV-1a over the LSN and payload; stable and cheap, matching the
/// checksum style used elsewhere in the workspace.
fn line_checksum(lsn: Lsn, payload: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in lsn.raw().to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    for b in payload.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// What a cursor read found: see [`LogDevice::read_after`].
#[derive(Debug, PartialEq, Eq)]
pub enum TailRead {
    /// The readable durable lines with `lsn > since`, LSN-ascending.
    Lines(Vec<(Lsn, String)>),
    /// A checkpoint covers LSNs past `since`: lines the cursor has not
    /// seen were pruned, and the tail alone cannot bridge the gap.
    Pruned {
        /// LSN covered by the pruning checkpoint.
        checkpoint: Lsn,
    },
}

/// Bytes a line occupies on media: payload plus LSN and checksum.
fn line_bytes(payload: &str) -> u64 {
    payload.len() as u64 + 16
}

#[derive(Debug, Default)]
struct LogInner {
    /// Records the media has accepted (survive a crash), LSN-ascending.
    synced: Vec<LogLine>,
    /// [`line_bytes`] summed over `synced`.
    synced_bytes: u64,
    /// Lines of `synced`, from the front, whose checksums have verified;
    /// a torn line is never counted, so the mark stops in front of it.
    verified: usize,
    /// Records still in the buffer (lost on crash).
    unsynced: Vec<LogLine>,
    /// Latest checkpoint: covered-through LSN + catalog snapshot JSON,
    /// immutable once installed and shared with whoever reads it.
    checkpoint: Option<(Lsn, Arc<String>)>,
    /// Total appends accepted over the device's lifetime.
    appends: u64,
    /// Total syncs performed.
    syncs: u64,
    /// Chaos: checkpoint installs are dropped (see `refuse_checkpoints`).
    refuse_checkpoints: bool,
}

impl LogInner {
    /// Index of the first durable line with an LSN above `lsn`.
    fn line_after(&self, lsn: Lsn) -> usize {
        self.synced.partition_point(|l| l.lsn <= lsn)
    }

    /// The one tail reader: extend the verified mark as far as checksums
    /// hold, then copy out the verified lines with `lsn > since`.
    fn tail_after(&mut self, since: Lsn) -> Vec<(Lsn, String)> {
        while let Some(line) = self.synced.get(self.verified) {
            if line_checksum(line.lsn, &line.payload) != line.checksum {
                break; // torn tail: everything before it is still good
            }
            self.verified += 1;
        }
        let from = self.line_after(since).min(self.verified);
        self.synced[from..self.verified]
            .iter()
            .map(|l| (l.lsn, l.payload.clone()))
            .collect()
    }
}

/// The simulated sequential log medium. See the module docs.
#[derive(Debug)]
pub struct LogDevice {
    inner: Mutex<LogInner>,
    cost: CostModel,
}

impl LogDevice {
    /// Per-record buffered-append overhead (a memcpy into the log buffer).
    pub const APPEND_NS: u64 = 2_000;

    /// A log device with the default cost model: fsync pays a 2002-era
    /// rotational-latency fixed cost, then streams at disk write speed.
    pub fn new() -> Self {
        LogDevice::with_cost(CostModel {
            fixed_ns: 5_000_000, // one fsync ≈ 5 ms on a 2002 disk
            read_mbps: 50.0,
            write_mbps: 40.0,
        })
    }

    /// A log device with an explicit cost model (experiments).
    pub fn with_cost(cost: CostModel) -> Self {
        LogDevice {
            inner: Mutex::new(LockRank::Storage, "storage.logdev", LogInner::default()),
            cost,
        }
    }

    /// Buffer one record. Cheap and *not* durable; returns the virtual
    /// cost of the buffered append. The device keeps the text it is
    /// handed; an owned `String` is stored without a copy.
    pub fn append(&self, lsn: Lsn, payload: impl Into<String>) -> u64 {
        let payload = payload.into();
        let checksum = line_checksum(lsn, &payload);
        let mut g = self.inner.lock();
        debug_assert!(
            g.unsynced
                .last()
                .or(g.synced.last())
                .is_none_or(|l| l.lsn < lsn),
            "log appends must be LSN-ascending: the cursor read bisects on it"
        );
        g.unsynced.push(LogLine {
            lsn,
            payload,
            checksum,
        });
        g.appends += 1;
        Self::APPEND_NS
    }

    /// Force every buffered record to media. Returns
    /// `(highest durable LSN, virtual cost)`; the cost is zero when the
    /// buffer was already empty (nothing to fsync).
    pub fn sync(&self) -> (Lsn, u64) {
        let mut g = self.inner.lock();
        if g.unsynced.is_empty() {
            return (Self::durable_lsn(&g), 0);
        }
        let bytes: u64 = g.unsynced.iter().map(|l| line_bytes(&l.payload)).sum();
        let LogInner {
            synced, unsynced, ..
        } = &mut *g;
        synced.append(unsynced); // the buffer keeps its capacity
        g.synced_bytes += bytes;
        g.syncs += 1;
        (Self::durable_lsn(&g), self.cost.write_ns(bytes))
    }

    fn durable_lsn(g: &LogInner) -> Lsn {
        g.synced
            .last()
            .map(|l| l.lsn)
            .or(g.checkpoint.as_ref().map(|&(lsn, _)| lsn))
            .unwrap_or_default()
    }

    /// Highest LSN guaranteed to survive a crash right now.
    pub fn synced_lsn(&self) -> Lsn {
        Self::durable_lsn(&self.inner.lock())
    }

    /// Atomically install a checkpoint covering records through `lsn`,
    /// pruning the covered prefix of the durable tail. Returns the virtual
    /// cost of writing the snapshot and rewriting the log head together
    /// with the installed text, shared, or `None` when the device refused
    /// it (see [`LogDevice::refuse_checkpoints`]). The device keeps the
    /// text it is handed — an owned `String` is stored without a copy —
    /// and drops its hold on the checkpoint it replaces after releasing
    /// its lock.
    pub fn install_checkpoint(
        &self,
        lsn: Lsn,
        snapshot: impl Into<String>,
    ) -> Option<(u64, Arc<String>)> {
        let snapshot = Arc::new(snapshot.into());
        let cost = self.cost.write_ns(snapshot.len() as u64);
        let mut g = self.inner.lock();
        if g.refuse_checkpoints {
            return None;
        }
        let covered = g.line_after(lsn);
        let pruned: u64 = g
            .synced
            .drain(..covered)
            .map(|l| line_bytes(&l.payload))
            .sum();
        g.synced_bytes -= pruned;
        g.verified = g.verified.saturating_sub(covered);
        let replaced = g.checkpoint.replace((lsn, snapshot.clone()));
        drop(g);
        drop(replaced);
        Some((cost, snapshot))
    }

    /// LSN covered by the current checkpoint, if any.
    pub fn checkpoint_lsn(&self) -> Option<Lsn> {
        self.inner.lock().checkpoint.as_ref().map(|&(lsn, _)| lsn)
    }

    /// The current checkpoint's text, shared: no copy, and no device lock
    /// held while it is read.
    pub fn checkpoint_text(&self) -> Option<Arc<String>> {
        self.inner
            .lock()
            .checkpoint
            .as_ref()
            .map(|(_, text)| text.clone())
    }

    /// Model `kill -9`: the buffered tail is lost, durable state survives
    /// — and whoever reads it next re-verifies every line, as after a
    /// real restart.
    pub fn crash(&self) {
        let mut g = self.inner.lock();
        g.unsynced.clear();
        g.verified = 0;
    }

    /// Chaos hook: crash *and* pin the durable prefix at `lsn`, discarding
    /// any synced record past it — "the disk got exactly this far".
    pub fn truncate_after(&self, lsn: Lsn) {
        let mut g = self.inner.lock();
        g.unsynced.clear();
        let keep = g.line_after(lsn);
        let cut: u64 = g.synced.drain(keep..).map(|l| line_bytes(&l.payload)).sum();
        g.synced_bytes -= cut;
        g.verified = g.verified.min(keep);
    }

    /// Read the durable image back for recovery: the checkpoint (if any)
    /// plus the whole readable tail — the cursor read from before the
    /// first LSN, so a line a late fsync landed at or below the cover is
    /// replayed too (redo is idempotent). A corrupt line ends the tail
    /// (torn write); a corrupt checkpoint is fatal. The checkpoint comes
    /// back shared, not copied.
    /// Returns `(checkpoint, tail, virtual cost)`.
    #[allow(clippy::type_complexity)]
    pub fn read_back(&self) -> SrbResult<(Option<(Lsn, Arc<String>)>, Vec<(Lsn, String)>, u64)> {
        let mut g = self.inner.lock();
        let mut bytes = 0u64;
        let checkpoint = match &g.checkpoint {
            Some((lsn, snap)) => {
                if snap.is_empty() {
                    return Err(SrbError::Internal("empty checkpoint snapshot".into()));
                }
                bytes += snap.len() as u64;
                Some((*lsn, snap.clone()))
            }
            None => None,
        };
        let tail = g.tail_after(Lsn::default());
        bytes += tail.iter().map(|(_, p)| line_bytes(p)).sum::<u64>();
        Ok((checkpoint, tail, self.cost.read_ns(bytes)))
    }

    /// Cursor read for replication: the readable durable lines with
    /// `lsn > since`, found by binary search — the device lock is held for,
    /// and bytes are cloned in proportion to, what is new, not what is
    /// kept. Whether a checkpoint has pruned past `since` is decided under
    /// the same lock hold as the read, so an answer is never lines with a
    /// hole in them. A checkpoint exactly at `since` pruned nothing the
    /// cursor lacks. Like [`LogDevice::read_back`], the read stops in
    /// front of a torn line.
    pub fn read_after(&self, since: Lsn) -> TailRead {
        let mut g = self.inner.lock();
        match g.checkpoint {
            Some((checkpoint, _)) if checkpoint > since => TailRead::Pruned { checkpoint },
            _ => TailRead::Lines(g.tail_after(since)),
        }
    }

    /// Durable log payload bytes currently held past the checkpoint.
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().synced_bytes
    }

    /// `(lifetime appends, lifetime syncs, durable records past the
    /// checkpoint)` — for experiments reporting WAL overhead.
    pub fn stats(&self) -> (u64, u64, usize) {
        let g = self.inner.lock();
        (g.appends, g.syncs, g.synced.len())
    }

    /// Chaos hook: while on, [`LogDevice::install_checkpoint`] writes
    /// nothing and costs nothing — a checkpoint area that went read-only.
    /// The previous checkpoint and the log stay as they were.
    #[doc(hidden)]
    pub fn refuse_checkpoints(&self, on: bool) {
        self.inner.lock().refuse_checkpoints = on;
    }

    /// Test hook: corrupt the checksum of the last durable record,
    /// simulating a torn write discovered at recovery.
    #[doc(hidden)]
    pub fn corrupt_last_synced(&self) {
        let mut g = self.inner.lock();
        if let Some(line) = g.synced.last_mut() {
            line.checksum ^= 0xdead_beef;
            g.verified = g.verified.min(g.synced.len() - 1);
        }
    }
}

impl Default for LogDevice {
    fn default() -> Self {
        LogDevice::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_is_buffered_until_sync() {
        let d = LogDevice::new();
        d.append(Lsn(1), "a");
        assert_eq!(d.synced_lsn(), Lsn(0));
        let (durable, cost) = d.sync();
        assert_eq!(durable, Lsn(1));
        assert!(cost >= 5_000_000, "sync pays the fsync fixed cost");
        // Empty sync is free.
        assert_eq!(d.sync(), (Lsn(1), 0));
    }

    #[test]
    fn crash_loses_only_the_unsynced_tail() {
        let d = LogDevice::new();
        d.append(Lsn(1), "a");
        d.sync();
        d.append(Lsn(2), "b");
        d.crash();
        let (ckpt, tail, _) = d.read_back().unwrap();
        assert!(ckpt.is_none());
        assert_eq!(tail, vec![(Lsn(1), "a".to_string())]);
    }

    #[test]
    fn checkpoint_prunes_the_covered_prefix() {
        let d = LogDevice::new();
        for i in 1..=4 {
            d.append(Lsn(i), "r");
        }
        d.sync();
        d.install_checkpoint(Lsn(2), "{snap}");
        assert_eq!(d.checkpoint_lsn(), Some(Lsn(2)));
        let (ckpt, tail, _) = d.read_back().unwrap();
        assert_eq!(ckpt, Some((Lsn(2), Arc::new("{snap}".to_string()))));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].0, Lsn(3));
        // With an empty tail the checkpoint LSN is the durable LSN.
        d.truncate_after(Lsn(2));
        assert_eq!(d.synced_lsn(), Lsn(2));
    }

    #[test]
    fn truncate_after_pins_the_durable_prefix() {
        let d = LogDevice::new();
        for i in 1..=5 {
            d.append(Lsn(i), "r");
        }
        d.sync();
        d.truncate_after(Lsn(3));
        let (_, tail, _) = d.read_back().unwrap();
        assert_eq!(tail.last().unwrap().0, Lsn(3));
        assert_eq!(d.synced_lsn(), Lsn(3));
    }

    #[test]
    fn torn_tail_ends_at_the_corrupt_record() {
        let d = LogDevice::new();
        d.append(Lsn(1), "a");
        d.append(Lsn(2), "b");
        d.sync();
        d.corrupt_last_synced();
        let (_, tail, _) = d.read_back().unwrap();
        assert_eq!(tail, vec![(Lsn(1), "a".to_string())]);
    }

    #[test]
    fn stats_and_bytes_track_activity() {
        let d = LogDevice::new();
        d.append(Lsn(1), "abcd");
        assert_eq!(d.log_bytes(), 0, "buffered is not durable");
        d.sync();
        let (appends, syncs, records) = d.stats();
        assert_eq!((appends, syncs, records), (1, 1, 1));
        assert_eq!(d.log_bytes(), 20);
        // The running total follows every way the durable tail changes.
        d.append(Lsn(2), "ef");
        d.append(Lsn(3), "");
        d.sync();
        assert_eq!(d.log_bytes(), 20 + 18 + 16);
        d.install_checkpoint(Lsn(1), "{snap}");
        assert_eq!(d.log_bytes(), 18 + 16);
        d.truncate_after(Lsn(2));
        assert_eq!(d.log_bytes(), 18);
        d.install_checkpoint(Lsn(9), "{snap}");
        assert_eq!((d.log_bytes(), d.stats().2), (0, 0));
    }

    /// A device holding durable lines at `lsns`, payload `r<lsn>`.
    fn device_with(lsns: &[u64]) -> LogDevice {
        let d = LogDevice::new();
        for &i in lsns {
            d.append(Lsn(i), format!("r{i}"));
        }
        d.sync();
        d
    }

    fn lsns_after(d: &LogDevice, since: u64) -> Vec<u64> {
        match d.read_after(Lsn(since)) {
            TailRead::Lines(lines) => {
                for (lsn, payload) in &lines {
                    assert_eq!(payload, &format!("r{}", lsn.raw()));
                }
                lines.into_iter().map(|(lsn, _)| lsn.raw()).collect()
            }
            TailRead::Pruned { checkpoint } => panic!("pruned at {checkpoint}"),
        }
    }

    #[test]
    fn cursor_read_seeks_by_lsn() {
        // LSNs with gaps: a cursor need not name a line that exists.
        let d = device_with(&[3, 4, 7, 8, 9]);
        assert_eq!(lsns_after(&d, 0), [3, 4, 7, 8, 9], "below the first line");
        assert_eq!(lsns_after(&d, 3), [4, 7, 8, 9], "on a line");
        assert_eq!(lsns_after(&d, 5), [7, 8, 9], "between lines");
        assert_eq!(lsns_after(&d, 8), [9]);
        assert_eq!(lsns_after(&d, 9), [] as [u64; 0], "at the last line");
        assert_eq!(lsns_after(&d, 50), [] as [u64; 0], "past the end");
        // Buffered lines are not durable and not read.
        d.append(Lsn(10), "r10");
        assert_eq!(lsns_after(&d, 8), [9]);
        d.sync();
        assert_eq!(lsns_after(&d, 8), [9, 10]);
        // An empty tail, with and without a checkpoint.
        assert_eq!(lsns_after(&LogDevice::new(), 0), [] as [u64; 0]);
        d.install_checkpoint(Lsn(10), "{snap}");
        assert_eq!(lsns_after(&d, 10), [] as [u64; 0]);
    }

    #[test]
    fn cursor_read_reports_a_prune_past_the_cursor() {
        let d = device_with(&[1, 2, 3, 4, 5, 6]);
        d.install_checkpoint(Lsn(4), "{snap}");
        for since in 0..4 {
            assert_eq!(
                d.read_after(Lsn(since)),
                TailRead::Pruned { checkpoint: Lsn(4) }
            );
        }
        // A checkpoint exactly at the cursor pruned nothing the cursor lacks.
        assert_eq!(lsns_after(&d, 4), [5, 6]);
        assert_eq!(lsns_after(&d, 5), [6]);
    }

    #[test]
    fn cursor_read_never_passes_a_torn_line() {
        let d = device_with(&[1, 2, 3]);
        assert_eq!(lsns_after(&d, 0), [1, 2, 3]); // all three verified
        d.corrupt_last_synced();
        for i in 4..=6 {
            d.append(Lsn(i), format!("r{i}"));
        }
        d.sync();
        assert_eq!(lsns_after(&d, 0), [1, 2]);
        assert_eq!(lsns_after(&d, 2), [] as [u64; 0]);
        // Clean lines behind the damage stay out of reach of any cursor,
        // as they are for recovery.
        assert_eq!(lsns_after(&d, 3), [] as [u64; 0]);
        assert_eq!(lsns_after(&d, 5), [] as [u64; 0]);
        assert_eq!(d.read_back().unwrap().1.len(), 2);
        // Pruning the torn line away makes what follows readable again.
        d.install_checkpoint(Lsn(3), "{snap}");
        assert_eq!(lsns_after(&d, 3), [4, 5, 6]);
    }

    #[test]
    fn cursor_read_survives_a_cut_below_the_cursor() {
        let d = device_with(&[1, 2, 3, 4, 5]);
        assert_eq!(lsns_after(&d, 4), [5]);
        d.truncate_after(Lsn(2));
        assert_eq!(lsns_after(&d, 4), [] as [u64; 0]);
        assert_eq!(lsns_after(&d, 1), [2]);
        d.crash(); // a restart re-verifies from cold
        assert_eq!(lsns_after(&d, 0), [1, 2]);
    }

    #[test]
    fn read_back_is_the_cursor_read_from_the_start() {
        let d = device_with(&[1, 2, 3, 4]);
        d.install_checkpoint(Lsn(2), "{snap}");
        let (_, tail, cost) = d.read_back().unwrap();
        assert_eq!(TailRead::Lines(tail), d.read_after(Lsn(2)));
        // The read is priced on the snapshot plus the lines returned.
        let bytes = "{snap}".len() as u64 + 2 * (2 + 16);
        assert_eq!(cost, d.cost.read_ns(bytes));
    }
}
