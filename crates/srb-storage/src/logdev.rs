//! The simulated write-ahead-log device.
//!
//! Real SRB servers put the MCAT in a commercial database whose durability
//! comes from a redo log fsynced on commit. This module is that disk: an
//! in-memory, crash-aware sequential device holding one checkpoint slot
//! (a full catalog snapshot, immutable once installed) plus an ordered
//! tail of LSN-stamped records. The checkpoint is an [`Image`]: its text
//! in ordered parts, so a writer that installs an image sharing most of
//! its parts with the last one copies none of them, and recovery reads
//! the parts back as they are, shared.
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
//!
//! Line text is kept in `SEGMENT_BYTES` segments the lines are written
//! into in LSN order, not one allocation per line: an append copies its
//! text into the open segment, and a prune, a crash or a cut lets go of
//! whole segments, after the device lock is released. A checkpoint
//! prunes a whole interval of log, and freeing its lines one by one
//! stalls the writer that freed them. A prune also moves the lines it
//! keeps to an index of their own length, so the index does not stay at
//! the most lines the device ever held; the old index goes with the
//! segments.

use crate::driver::CostModel;
use srb_types::sync::{LockRank, Mutex};
use srb_types::{fnv1a64, Lsn, SrbError, SrbResult};
use std::collections::VecDeque;
use std::sync::Arc;

/// Bytes per segment of line text (a longer line gets a segment of its
/// own length).
const SEGMENT_BYTES: usize = 1 << 20;

/// One durable (or buffered) log line: its LSN, where its text sits in
/// the segments, and its checksum.
#[derive(Debug, Clone, Copy)]
struct LogLine {
    lsn: Lsn,
    /// Number of the segment holding the text, counted from the device's
    /// first segment.
    seg: u64,
    start: usize,
    len: usize,
    checksum: u64,
}

/// The line text, in segments numbered from the device's first one.
#[derive(Debug, Default)]
struct Segments {
    /// Number of `segs[0]`.
    base: u64,
    segs: VecDeque<String>,
}

impl Segments {
    /// Copy `text` into the open segment, opening a new one when it does
    /// not fit; returns `(segment, start)`.
    fn push(&mut self, text: &str) -> (u64, usize) {
        let fits = self
            .segs
            .back()
            .is_some_and(|seg| seg.len() + text.len() <= seg.capacity());
        if !fits {
            self.segs
                .push_back(String::with_capacity(SEGMENT_BYTES.max(text.len())));
        }
        let open = self.segs.len() - 1;
        let start = self.segs[open].len();
        self.segs[open].push_str(text);
        (self.base + open as u64, start)
    }

    fn text(&self, line: &LogLine) -> &str {
        &self.segs[(line.seg - self.base) as usize][line.start..line.start + line.len]
    }

    /// Keep exactly the text of `lines` (the device's lines, in order):
    /// the segments in front of the first line and behind the last one,
    /// and the bytes behind the last line, are cut off. Returns the
    /// segments let go, for the caller to drop after unlocking.
    fn keep(&mut self, lines: &[LogLine]) -> Vec<String> {
        let (Some(first), Some(last)) = (lines.first(), lines.last()) else {
            self.base += self.segs.len() as u64;
            return self.segs.drain(..).collect();
        };
        let back = (last.seg - self.base) as usize;
        let mut gone: Vec<String> = self.segs.drain(back + 1..).collect();
        self.segs[back].truncate(last.start + last.len);
        let front = (first.seg - self.base) as usize;
        gone.extend(self.segs.drain(..front));
        self.base = first.seg;
        gone
    }
}

/// FNV-1a over the LSN's little-endian bytes, then the payload.
fn line_checksum(lsn: Lsn, payload: &str) -> u64 {
    fnv1a64(&[&lsn.raw().to_le_bytes(), payload.as_bytes()])
}

/// A checkpoint image as the device holds it: the text in ordered parts,
/// plus their total length. Parts are immutable and shared, so an image
/// built from another image's parts holds them by refcount, not by copy.
/// A `String` or `&str` is an image of one part.
#[derive(Debug, Default)]
pub struct Image {
    parts: Vec<Arc<str>>,
    len: usize,
}

impl Image {
    /// Total bytes over every part: what the media holds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image holds no text at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The parts, in text order.
    pub fn parts(&self) -> &[Arc<str>] {
        &self.parts
    }

    /// The whole text, the parts joined.
    pub fn join(&self) -> String {
        let mut text = String::with_capacity(self.len);
        for part in &self.parts {
            text.push_str(part);
        }
        text
    }
}

impl FromIterator<Arc<str>> for Image {
    fn from_iter<I: IntoIterator<Item = Arc<str>>>(parts: I) -> Self {
        let parts: Vec<Arc<str>> = parts.into_iter().collect();
        let len = parts.iter().map(|p| p.len()).sum();
        Image { parts, len }
    }
}

impl From<&str> for Image {
    fn from(text: &str) -> Self {
        Image::from_iter([Arc::from(text)])
    }
}

impl From<String> for Image {
    fn from(text: String) -> Self {
        Image::from_iter([Arc::from(text)])
    }
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

/// Bytes a line of `len` payload bytes occupies on media: payload plus
/// LSN and checksum.
fn line_bytes(len: usize) -> u64 {
    len as u64 + 16
}

#[derive(Debug, Default)]
struct LogInner {
    /// Every line the device holds, LSN-ascending: first the `synced`
    /// ones the media has accepted (they survive a crash), then the ones
    /// still in the buffer (lost on crash).
    lines: Vec<LogLine>,
    /// Where the text of `lines` sits.
    text: Segments,
    /// How many of `lines`, from the front, are durable.
    synced: usize,
    /// [`line_bytes`] summed over the durable lines.
    synced_bytes: u64,
    /// Durable lines, from the front, whose checksums have verified; a
    /// torn line is never counted, so the mark stops in front of it.
    verified: usize,
    /// Latest checkpoint: covered-through LSN + catalog snapshot JSON,
    /// immutable once installed and shared with whoever reads it.
    checkpoint: Option<(Lsn, Arc<Image>)>,
    /// Total appends accepted over the device's lifetime.
    appends: u64,
    /// Total syncs performed.
    syncs: u64,
    /// Chaos: checkpoint installs are dropped (see `refuse_checkpoints`).
    refuse_checkpoints: bool,
}

impl LogInner {
    /// The durable lines.
    fn durable(&self) -> &[LogLine] {
        &self.lines[..self.synced]
    }

    /// Index of the first durable line with an LSN above `lsn`.
    fn line_after(&self, lsn: Lsn) -> usize {
        self.durable().partition_point(|l| l.lsn <= lsn)
    }

    /// Let go of the first `covered` durable lines. The lines kept move to
    /// an index of their own length, so the capacity the drained ones
    /// held goes back; returns the old index and the segments no line is
    /// left in, for the caller to drop once the device lock is released.
    fn prune(&mut self, covered: usize) -> (Vec<LogLine>, Vec<String>) {
        let pruned: u64 = self.lines[..covered]
            .iter()
            .map(|l| line_bytes(l.len))
            .sum();
        self.synced_bytes -= pruned;
        let kept = self.lines[covered..].to_vec();
        let old = std::mem::replace(&mut self.lines, kept);
        self.synced -= covered;
        self.verified = self.verified.saturating_sub(covered);
        (old, self.text.keep(&self.lines))
    }

    /// Let go of the durable lines from `at` on, and of the buffered ones;
    /// returns the segments no line is left in.
    fn cut(&mut self, at: usize) -> Vec<String> {
        let cut: u64 = self.lines[at..self.synced]
            .iter()
            .map(|l| line_bytes(l.len))
            .sum();
        self.synced_bytes -= cut;
        self.lines.truncate(at);
        self.synced = at;
        self.verified = self.verified.min(at);
        self.text.keep(&self.lines)
    }

    /// The one tail reader: extend the verified mark as far as checksums
    /// hold, then copy out the verified lines with `lsn > since`.
    fn tail_after(&mut self, since: Lsn) -> Vec<(Lsn, String)> {
        while let Some(line) = self.durable().get(self.verified) {
            if line_checksum(line.lsn, self.text.text(line)) != line.checksum {
                break; // torn tail: everything before it is still good
            }
            self.verified += 1;
        }
        let from = self.line_after(since).min(self.verified);
        self.lines[from..self.verified]
            .iter()
            .map(|l| (l.lsn, self.text.text(l).to_string()))
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
    pub(crate) const APPEND_NS: u64 = 2_000;

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
    /// cost of the buffered append. The text is copied into the device's
    /// open segment, so the caller keeps its buffer.
    pub fn append(&self, lsn: Lsn, payload: impl AsRef<str>) -> u64 {
        let payload = payload.as_ref();
        let checksum = line_checksum(lsn, payload);
        let mut g = self.inner.lock();
        debug_assert!(
            g.lines.last().is_none_or(|l| l.lsn < lsn),
            "log appends must be LSN-ascending: the cursor read bisects on it"
        );
        let (seg, start) = g.text.push(payload);
        g.lines.push(LogLine {
            lsn,
            seg,
            start,
            len: payload.len(),
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
        if g.synced == g.lines.len() {
            return (Self::durable_lsn(&g), 0);
        }
        let bytes: u64 = g.lines[g.synced..].iter().map(|l| line_bytes(l.len)).sum();
        g.synced = g.lines.len();
        g.synced_bytes += bytes;
        g.syncs += 1;
        (Self::durable_lsn(&g), self.cost.write_ns(bytes))
    }

    fn durable_lsn(g: &LogInner) -> Lsn {
        g.durable()
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
    /// with the installed image, shared, or `None` when the device refused
    /// it (see [`LogDevice::refuse_checkpoints`]). The cost is priced on
    /// the image's whole length, however many parts it comes in. The
    /// device keeps the parts it is handed, and lets go of the segments it
    /// prunes and of the checkpoint it replaces after releasing its lock.
    pub fn install_checkpoint(
        &self,
        lsn: Lsn,
        snapshot: impl Into<Image>,
    ) -> Option<(u64, Arc<Image>)> {
        let snapshot = Arc::new(snapshot.into());
        let cost = self.cost.write_ns(snapshot.len() as u64);
        let mut g = self.inner.lock();
        if g.refuse_checkpoints {
            return None;
        }
        let covered = g.line_after(lsn);
        let pruned = g.prune(covered);
        let replaced = g.checkpoint.replace((lsn, snapshot.clone()));
        drop(g);
        drop(pruned);
        drop(replaced);
        Some((cost, snapshot))
    }

    /// LSN covered by the current checkpoint, if any.
    pub fn checkpoint_lsn(&self) -> Option<Lsn> {
        self.inner.lock().checkpoint.as_ref().map(|&(lsn, _)| lsn)
    }

    /// The current checkpoint's image, shared: no copy, and no device
    /// lock held while it is read.
    pub fn checkpoint_image(&self) -> Option<Arc<Image>> {
        self.inner
            .lock()
            .checkpoint
            .as_ref()
            .map(|(_, image)| image.clone())
    }

    /// Model `kill -9`: the buffered tail is lost, durable state survives
    /// — and whoever reads it next re-verifies every line, as after a
    /// real restart.
    pub fn crash(&self) {
        let mut g = self.inner.lock();
        let at = g.synced;
        let lost = g.cut(at);
        g.verified = 0;
        drop(g);
        drop(lost);
    }

    /// Chaos hook: crash *and* pin the durable prefix at `lsn`, discarding
    /// any synced record past it — "the disk got exactly this far".
    pub fn truncate_after(&self, lsn: Lsn) {
        let mut g = self.inner.lock();
        let keep = g.line_after(lsn);
        let lost = g.cut(keep);
        drop(g);
        drop(lost);
    }

    /// Read the durable image back for recovery: the checkpoint (if any)
    /// plus the whole readable tail — the cursor read from before the
    /// first LSN, so a line a late fsync landed at or below the cover is
    /// replayed too (redo is idempotent). A corrupt line ends the tail
    /// (torn write); a corrupt checkpoint is fatal, and an empty one is
    /// [`SrbError::Parse`] here already. The checkpoint comes
    /// back as the device holds it — its parts, shared, not copied; the
    /// read is priced on its length, as one part would be. Returns
    /// `(checkpoint, tail, virtual cost)`.
    #[allow(clippy::type_complexity)]
    pub fn read_back_parts(
        &self,
    ) -> SrbResult<(Option<(Lsn, Arc<Image>)>, Vec<(Lsn, String)>, u64)> {
        let mut g = self.inner.lock();
        let checkpoint = g.checkpoint.clone();
        if checkpoint.as_ref().is_some_and(|(_, snap)| snap.is_empty()) {
            return Err(SrbError::Parse("empty checkpoint snapshot".into()));
        }
        let tail = g.tail_after(Lsn::default());
        drop(g);
        let mut bytes = tail.iter().map(|(_, p)| line_bytes(p.len())).sum::<u64>();
        bytes += checkpoint.as_ref().map_or(0, |(_, snap)| snap.len() as u64);
        Ok((checkpoint, tail, self.cost.read_ns(bytes)))
    }

    /// [`LogDevice::read_back_parts`] with the checkpoint's parts joined
    /// into one text, after the device lock is let go; same tail, same
    /// price.
    #[allow(clippy::type_complexity)]
    pub fn read_back(&self) -> SrbResult<(Option<(Lsn, String)>, Vec<(Lsn, String)>, u64)> {
        let (checkpoint, tail, cost) = self.read_back_parts()?;
        Ok((checkpoint.map(|(lsn, snap)| (lsn, snap.join())), tail, cost))
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
        (g.appends, g.syncs, g.synced)
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
        if let Some(last) = g.synced.checked_sub(1) {
            g.lines[last].checksum ^= 0xdead_beef;
            g.verified = g.verified.min(last);
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

    /// A checkpoint that prunes all but `k` lines leaves the line index
    /// room for about `k` of them, not for every line it ever held.
    #[test]
    fn a_prune_gives_back_the_line_index() {
        let (d, k) = (LogDevice::new(), 10);
        for i in 1..=1000 {
            d.append(Lsn(i), "r");
        }
        d.sync();
        d.install_checkpoint(Lsn(1000 - k), "{snap}");
        let g = d.inner.lock();
        assert_eq!(g.lines.len(), k as usize);
        assert!(
            g.lines.capacity() <= 2 * k as usize,
            "{}",
            g.lines.capacity()
        );
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

    #[test]
    fn a_prune_keeps_bytes_and_stats_exact() {
        let d = LogDevice::new();
        let payload = |i: u64| "x".repeat(i as usize % 7);
        for i in 1..=40 {
            d.append(Lsn(i), payload(i));
        }
        d.sync();
        let bytes_past = |lsn: u64| (lsn + 1..=40).map(|i| payload(i).len() as u64 + 16).sum();
        // Below the first line nothing is pruned.
        d.install_checkpoint(Lsn(0), "{snap}");
        assert_eq!((d.log_bytes(), d.stats()), (bytes_past(0), (40, 1, 40)));
        d.install_checkpoint(Lsn(25), "{snap}");
        assert_eq!((d.log_bytes(), d.stats()), (bytes_past(25), (40, 1, 15)));
        // What is kept still reads, and appends still land behind it.
        assert_eq!(d.read_back().unwrap().1.first().map(|l| l.0), Some(Lsn(26)));
        d.append(Lsn(41), "abc");
        d.sync();
        assert_eq!(d.log_bytes(), bytes_past(25) + 19);
        assert_eq!(d.stats(), (41, 2, 16));
        d.install_checkpoint(Lsn(41), "{snap}");
        assert_eq!((d.log_bytes(), d.stats()), (0, (41, 2, 0)));
    }

    #[test]
    fn line_text_lives_in_whole_segments() {
        let d = LogDevice::new();
        let big = |i: u64| format!("{i}").repeat(SEGMENT_BYTES / 3);
        let segments = |d: &LogDevice| d.inner.lock().text.segs.len();
        for i in 1..=4 {
            d.append(Lsn(i), big(i));
        }
        d.append(Lsn(5), "x".repeat(SEGMENT_BYTES + 1)); // a segment of its own
        d.append(Lsn(6), "r6");
        d.sync();
        assert_eq!(segments(&d), 4);
        let all: Vec<(Lsn, String)> = d.read_back().unwrap().1;
        assert_eq!(all.len(), 6);
        assert!((1..=4).all(|i| all[i - 1].1 == big(i as u64)));
        assert_eq!(all[5].1, "r6");
        // Buffered lines lost to a crash give their bytes back.
        d.append(Lsn(7), "y".repeat(SEGMENT_BYTES));
        assert_eq!(segments(&d), 5);
        d.crash();
        assert_eq!(segments(&d), 4);
        d.append(Lsn(7), "r7");
        d.sync();
        assert_eq!(segments(&d), 4, "the open segment takes it after r6");
        // A prune lets go of the segments only pruned lines were in.
        d.install_checkpoint(Lsn(4), "{snap}");
        assert_eq!(segments(&d), 2);
        let tail = d.read_back().unwrap().1;
        assert_eq!(
            tail,
            all[4..]
                .iter()
                .cloned()
                .chain([(Lsn(7), "r7".into())])
                .collect::<Vec<_>>()
        );
        d.truncate_after(Lsn(5));
        assert_eq!(segments(&d), 1);
        assert_eq!(d.read_back().unwrap().1, all[4..5]);
        d.install_checkpoint(Lsn(9), "{snap}");
        assert_eq!(segments(&d), 0);
        d.append(Lsn(10), "r10");
        d.sync();
        assert_eq!(d.read_back().unwrap().1, [(Lsn(10), "r10".to_string())]);
        assert_eq!(d.log_bytes(), 3 + 16);
    }

    #[test]
    fn an_image_in_parts_costs_what_one_string_costs() {
        let text = "{\"at_ns\":7,\"snapshot\":{\"version\":1}}";
        let parts: Image = ["{\"at_ns\":7,", "", "\"snapshot\":{", "\"version\":1}", "}"]
            .into_iter()
            .map(Arc::from)
            .collect();
        assert_eq!((parts.len(), parts.parts().len()), (text.len(), 5));
        let (whole, split) = (device_with(&[1, 2, 3]), device_with(&[1, 2, 3]));
        let (whole_cost, _) = whole.install_checkpoint(Lsn(1), text.to_string()).unwrap();
        let (split_cost, held) = split.install_checkpoint(Lsn(1), parts).unwrap();
        assert_eq!(whole_cost, split_cost);
        assert_eq!(held.parts().len(), 5, "the device keeps the parts");
        let (whole_read, split_read) = (whole.read_back().unwrap(), split.read_back().unwrap());
        assert_eq!(split_read.0, Some((Lsn(1), text.to_string())));
        assert_eq!(whole_read, split_read, "same text, same tail, same cost");
        // An image with no text is corrupt: recovery's read fails to
        // parse it, in parts or whole.
        for empty in [
            Image::from(""),
            Image::from_iter([]),
            Image::from_iter([Arc::from("")]),
        ] {
            let d = device_with(&[1]);
            d.install_checkpoint(Lsn(1), empty);
            assert_eq!(
                d.read_back(),
                Err(SrbError::Parse("empty checkpoint snapshot".into()))
            );
        }
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
