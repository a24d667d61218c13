//! The simulated write-ahead-log device.
//!
//! Real SRB servers put the MCAT in a commercial database whose durability
//! comes from a redo log fsynced on commit. This module is that disk: an
//! in-memory, crash-aware sequential device holding one checkpoint slot
//! (full catalog snapshot) plus an ordered tail of LSN-stamped records.
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
//! verified on [`LogDevice::read_back`]; a corrupt line ends the readable
//! tail (torn write) rather than failing recovery outright.

use crate::driver::CostModel;
use srb_types::sync::{LockRank, Mutex};
use srb_types::{Lsn, SrbError, SrbResult};

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

#[derive(Debug, Default)]
struct LogInner {
    /// Records the media has accepted (survive a crash).
    synced: Vec<LogLine>,
    /// Records still in the buffer (lost on crash).
    unsynced: Vec<LogLine>,
    /// Latest checkpoint: covered-through LSN + catalog snapshot JSON.
    checkpoint: Option<(Lsn, String)>,
    /// Total appends accepted over the device's lifetime.
    appends: u64,
    /// Total syncs performed.
    syncs: u64,
    /// Chaos: checkpoint installs are dropped (see `refuse_checkpoints`).
    refuse_checkpoints: bool,
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
    /// cost of the buffered append.
    pub fn append(&self, lsn: Lsn, payload: &str) -> u64 {
        let mut g = self.inner.lock();
        g.unsynced.push(LogLine {
            lsn,
            payload: payload.to_string(),
            checksum: line_checksum(lsn, payload),
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
        let bytes: u64 = g.unsynced.iter().map(|l| l.payload.len() as u64 + 16).sum();
        let moved = std::mem::take(&mut g.unsynced);
        g.synced.extend(moved);
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
    /// cost of writing the snapshot and rewriting the log head.
    pub fn install_checkpoint(&self, lsn: Lsn, snapshot: &str) -> u64 {
        let mut g = self.inner.lock();
        if g.refuse_checkpoints {
            return 0;
        }
        g.synced.retain(|l| l.lsn > lsn);
        g.checkpoint = Some((lsn, snapshot.to_string()));
        self.cost.write_ns(snapshot.len() as u64)
    }

    /// LSN covered by the current checkpoint, if any.
    pub fn checkpoint_lsn(&self) -> Option<Lsn> {
        self.inner.lock().checkpoint.as_ref().map(|&(lsn, _)| lsn)
    }

    /// Model `kill -9`: the buffered tail is lost, durable state survives.
    pub fn crash(&self) {
        self.inner.lock().unsynced.clear();
    }

    /// Chaos hook: crash *and* pin the durable prefix at `lsn`, discarding
    /// any synced record past it — "the disk got exactly this far".
    pub fn truncate_after(&self, lsn: Lsn) {
        let mut g = self.inner.lock();
        g.unsynced.clear();
        g.synced.retain(|l| l.lsn <= lsn);
    }

    /// Read the durable image back for recovery: the checkpoint (if any)
    /// plus every durable record past it, checksums verified. A corrupt
    /// line ends the tail (torn write); a corrupt checkpoint is fatal.
    /// Returns `(checkpoint, tail, virtual cost)`.
    #[allow(clippy::type_complexity)]
    pub fn read_back(&self) -> SrbResult<(Option<(Lsn, String)>, Vec<(Lsn, String)>, u64)> {
        let g = self.inner.lock();
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
        let mut tail = Vec::with_capacity(g.synced.len());
        for line in &g.synced {
            if line_checksum(line.lsn, &line.payload) != line.checksum {
                break; // torn tail: everything before it is still good
            }
            bytes += line.payload.len() as u64 + 16;
            tail.push((line.lsn, line.payload.clone()));
        }
        Ok((checkpoint, tail, self.cost.read_ns(bytes)))
    }

    /// Durable log payload bytes currently held past the checkpoint.
    pub fn log_bytes(&self) -> u64 {
        self.inner
            .lock()
            .synced
            .iter()
            .map(|l| l.payload.len() as u64 + 16)
            .sum()
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
        if let Some(line) = self.inner.lock().synced.last_mut() {
            line.checksum ^= 0xdead_beef;
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
        assert_eq!(ckpt, Some((Lsn(2), "{snap}".to_string())));
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
        d.sync();
        let (appends, syncs, records) = d.stats();
        assert_eq!((appends, syncs, records), (1, 1, 1));
        assert_eq!(d.log_bytes(), 20);
    }
}
