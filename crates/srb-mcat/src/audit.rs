//! The audit trail.
//!
//! Paper §2: "in some cases, it may be necessary to audit usage of the
//! collections/datasets. Hence, auditing facilities will be needed as part
//! of the framework." Every brokered operation records an audit row.
//!
//! The trail is kept as text, not as rows. [`AuditLog::record`] draws the
//! row's id and encodes the row once, under the log's lock, into the page
//! of its id: per page of [`IMAGE_PAGE_IDS`] ids, exactly the comma-joined
//! row-form text the image writes for that page. The redo record copies
//! the same bytes. A checkpoint hands each page's text to its image as
//! that page's part, freezing an open page into an `Arc<str>` the page and
//! the image then share; it renders no row. Recovery decodes every row of
//! an image's audit field to check it, keeps a page's part when the rows
//! re-render to it byte for byte, and appends the tail's rows to the last
//! page. Reads decode: [`AuditLog::recent`] only the last page or two.

use crate::pages::IMAGE_PAGE_IDS;
use crate::snapshot::write_rows;
use crate::wal::WalHook;
use serde::{DeError, Deserialize, JsonReader, Serialize};
use srb_types::sync::{LockRank, Mutex};
use srb_types::{AuditId, IdGen, Timestamp, UserId};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditAction {
    /// Session establishment.
    Connect,
    /// Failed authentication attempt.
    AuthFail,
    /// New data ingested.
    Ingest,
    /// Object registered (file/dir/SQL/URL/method).
    Register,
    /// Data read.
    Read,
    /// Data written/updated.
    Write,
    /// Object or replica deleted.
    Delete,
    /// Replica created.
    Replicate,
    /// Object copied.
    Copy,
    /// Object or collection moved.
    Move,
    /// Link created.
    Link,
    /// Metadata added or updated.
    MetaChange,
    /// Query executed.
    Query,
    /// ACL changed.
    AclChange,
    /// Lock/unlock/pin/unpin/checkout/checkin.
    LockOp,
    /// Proxy command executed.
    Proxy,
}

impl AuditAction {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AuditAction::Connect => "connect",
            AuditAction::AuthFail => "auth-fail",
            AuditAction::Ingest => "ingest",
            AuditAction::Register => "register",
            AuditAction::Read => "read",
            AuditAction::Write => "write",
            AuditAction::Delete => "delete",
            AuditAction::Replicate => "replicate",
            AuditAction::Copy => "copy",
            AuditAction::Move => "move",
            AuditAction::Link => "link",
            AuditAction::MetaChange => "meta-change",
            AuditAction::Query => "query",
            AuditAction::AclChange => "acl-change",
            AuditAction::LockOp => "lock-op",
            AuditAction::Proxy => "proxy",
        }
    }
}

/// One audit row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditRow {
    /// Catalog id.
    pub id: AuditId,
    /// When (virtual time).
    pub at: Timestamp,
    /// Acting user.
    pub user: UserId,
    /// What they did.
    pub action: AuditAction,
    /// What they did it to (logical path or entity id).
    pub subject: String,
    /// `ok`, the op's own word for success, or an error code.
    pub outcome: Outcome,
}

// Row budget: every brokered op appends one row, kept for good; a field
// that grows the row fails the build.
const _: () = assert!(std::mem::size_of::<AuditRow>() <= 80);

/// An audit row's outcome. The grid writes only static words (`ok`, an
/// op's word for success such as `unlink`, an `SrbError::code`), so a row
/// holds one without an allocation. Text read back from a log or an image
/// is matched against the same words, and any other text is kept as
/// read. Written as a plain JSON string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome(Cow<'static, str>);

/// The outcome words the grid writes.
const WORDS: &[&str] = &[
    "ok",
    "lock",
    "unlock",
    "pin",
    "unpin",
    "checkout",
    "checkin",
    "resync",
    "sweep",
    "compact",
    "unlink",
    "repair",
    "repair-skip-breaker",
    "NOT_FOUND",
    "ALREADY_EXISTS",
    "PERMISSION_DENIED",
    "AUTH_FAILED",
    "RESOURCE_UNAVAILABLE",
    "TIMEOUT",
    "CORRUPT",
    "LOCKED",
    "INVALID",
    "MISSING_METADATA",
    "UNSUPPORTED",
    "IO",
    "PARSE",
    "INTERNAL",
];

impl std::ops::Deref for Outcome {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&'static str> for Outcome {
    fn from(word: &'static str) -> Self {
        Outcome(Cow::Borrowed(word))
    }
}

impl PartialEq<&str> for Outcome {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<Outcome> for String {
    fn eq(&self, other: &Outcome) -> bool {
        *self == *other.0
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for Outcome {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

impl Deserialize for Outcome {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.peek_token() != Some(b'"') {
            return Err(r.expected("string", "Outcome"));
        }
        let text = r.str()?;
        Ok(Outcome(match WORDS.iter().find(|&&w| w == text) {
            Some(&word) => Cow::Borrowed(word),
            None => Cow::Owned(text.into_owned()),
        }))
    }
}

/// One audit row in its row form, `[id,at,user,"Action","subject","outcome"]`
/// — byte for byte what [`AuditRow`]'s `write_row` writes, from borrowed
/// fields.
fn write_row(
    out: &mut String,
    id: AuditId,
    at: Timestamp,
    user: UserId,
    action: AuditAction,
    subject: &str,
    outcome: &str,
) {
    out.push('[');
    id.write_row(out);
    out.push(',');
    at.write_row(out);
    out.push(',');
    user.write_row(out);
    out.push(',');
    action.write_row(out);
    out.push(',');
    subject.write_row(out);
    out.push(',');
    outcome.write_row(out);
    out.push(']');
}

/// A page's text: a `String` while rows append to it, an `Arc<str>` once
/// frozen — by a checkpoint, which shares it with its image, or by the
/// next page opening.
#[derive(Debug)]
pub(crate) enum Text {
    /// Rows still append here.
    Open(String),
    /// Shared with the images that hold it as a part.
    Frozen(Arc<str>),
}

impl Text {
    pub(crate) fn as_str(&self) -> &str {
        match self {
            Text::Open(text) => text,
            Text::Frozen(part) => part,
        }
    }

    /// The text as a part of an image: frozen first if open.
    pub(crate) fn freeze(&mut self) -> Arc<str> {
        let part: Arc<str> = match self {
            Text::Frozen(part) => return part.clone(),
            Text::Open(text) => Arc::from(text.as_str()),
        };
        *self = Text::Frozen(part.clone());
        part
    }

    /// The text to append to: a frozen page is copied back open.
    fn open(&mut self) -> &mut String {
        if let Text::Frozen(part) = self {
            *self = Text::Open(String::from(&**part));
        }
        match self {
            Text::Open(text) => text,
            Text::Frozen(_) => unreachable!("opened above"),
        }
    }
}

/// One page of the trail: the rows of up to [`IMAGE_PAGE_IDS`] consecutive
/// ids, comma-joined in their row form.
#[derive(Debug)]
struct Page {
    no: u64,
    rows: usize,
    text: Text,
}

/// Call `row` with each row of a page's `text` in order, after skipping
/// `skip` of them unread. The text is the trail's own — written by
/// [`write_row`] or `AuditRow::write_row`, or an image part equal to such
/// text byte for byte — so it reads.
fn read_page(text: &str, skip: usize, mut row: impl FnMut(AuditRow)) -> Result<(), DeError> {
    let mut r = JsonReader::new("[");
    let mut items = r.array("audit page")?;
    r.continue_in(text);
    let mut closed = false;
    for i in 0.. {
        if !closed && r.peek_token().is_none() {
            r.continue_in("]");
            closed = true;
        }
        if !items.next_element(&mut r)? {
            break;
        }
        if i < skip {
            r.skip_value()?;
        } else {
            row(AuditRow::read_json(&mut r)?);
        }
    }
    if !closed {
        return Err(DeError::new("audit page closed early"));
    }
    r.finish()
}

/// The trail's rows as page text: per id page of [`IMAGE_PAGE_IDS`] ids,
/// exactly the text an image writes for that page, page-ascending. Only
/// the last page is ever open; rows are decoded when read.
#[derive(Debug, Default)]
pub struct AuditPages {
    pages: Vec<Page>,
    len: usize,
    /// The highest id held, when `len > 0`.
    last: u64,
}

impl AuditPages {
    /// The rows, decoded, in id order.
    pub fn iter(&self) -> impl Iterator<Item = AuditRow> + '_ {
        self.pages.iter().flat_map(|page| {
            let mut rows = Vec::with_capacity(page.rows);
            let _ = read_page(page.text.as_str(), 0, |row| rows.push(row));
            rows
        })
    }

    /// The highest id held.
    pub(crate) fn last_id(&self) -> Option<u64> {
        (self.len > 0).then_some(self.last)
    }

    /// Each page's text, page-ascending, for the image writer.
    pub(crate) fn texts(&mut self) -> impl Iterator<Item = &mut Text> {
        self.pages.iter_mut().map(|page| &mut page.text)
    }

    /// Append the row `write` writes, whose id `id` is above every id
    /// held; the row's text, as the page now holds it.
    fn append(&mut self, id: u64, write: impl FnOnce(&mut String)) -> &str {
        let no = id / IMAGE_PAGE_IDS;
        if self.pages.last().is_none_or(|page| page.no != no) {
            // Ids ascend: the page before is done.
            if let Some(done) = self.pages.last_mut() {
                done.text.freeze();
            }
            let text = Text::Open(String::new());
            self.pages.push(Page { no, rows: 0, text });
        }
        let Some(page) = self.pages.last_mut() else {
            unreachable!("pushed above");
        };
        let text = page.text.open();
        if page.rows > 0 {
            text.push(',');
        }
        let start = text.len();
        write(text);
        page.rows += 1;
        self.len += 1;
        self.last = id;
        &text[start..]
    }

    /// Put `row` under its id, in place of any row held there, as redo
    /// and an image read do. A row above every id held appends; any other
    /// re-renders its page.
    pub(crate) fn put(&mut self, row: &AuditRow) {
        let id = row.id.raw();
        if self.len == 0 || id > self.last {
            self.append(id, |out| row.write_row(out));
            return;
        }
        let no = id / IMAGE_PAGE_IDS;
        let at = match self.pages.binary_search_by_key(&no, |page| page.no) {
            Ok(at) => at,
            Err(at) => {
                let text = Text::Frozen(Arc::from(""));
                self.pages.insert(at, Page { no, rows: 0, text });
                at
            }
        };
        let last = at + 1 == self.pages.len();
        let page = &mut self.pages[at];
        let mut rows = Vec::with_capacity(page.rows + 1);
        let _ = read_page(page.text.as_str(), 0, |row| rows.push(row));
        match rows.binary_search_by_key(&id, |r| r.id.raw()) {
            Ok(i) => rows[i] = row.clone(),
            Err(i) => {
                rows.insert(i, row.clone());
                self.len += 1;
            }
        }
        let mut text = String::new();
        write_rows(&mut text, rows.iter(), AuditRow::write_row);
        page.rows = rows.len();
        if text != page.text.as_str() {
            page.text = Text::Open(text);
            if !last {
                page.text.freeze();
            }
        }
    }

    /// Take `part` as page `no`'s text if it is that text byte for byte:
    /// an image's part, shared rather than held twice.
    pub(crate) fn share(&mut self, no: u64, part: &Arc<str>) {
        let Ok(at) = self.pages.binary_search_by_key(&no, |page| page.no) else {
            return;
        };
        let text = &mut self.pages[at].text;
        if text.as_str() == &**part {
            *text = Text::Frozen(part.clone());
        }
    }
}

/// Append-only audit log, kept as page text ([`AuditPages`]): a row is
/// encoded once, as it is recorded, into its page and its redo record, and
/// decoded when read.
#[derive(Debug)]
pub struct AuditLog {
    pub(crate) rows: Mutex<AuditPages>,
    wal: WalHook,
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        AuditLog::restore(AuditPages::default(), &WalHook::default())
    }

    /// The log over image pages, logging through `wal`.
    pub(crate) fn restore(rows: AuditPages, wal: &WalHook) -> Self {
        AuditLog {
            rows: Mutex::new(LockRank::McatTable, "mcat.audit", rows),
            wal: wal.clone(),
        }
    }

    /// Record a row.
    pub fn record(
        &self,
        ids: &IdGen,
        at: Timestamp,
        user: UserId,
        action: AuditAction,
        subject: &str,
        outcome: &'static str,
    ) {
        // The id is drawn under the lock, so id order and log order agree
        // under any number of writers, and every row appends.
        let mut g = self.rows.lock();
        let id: AuditId = ids.next();
        let text = g.append(id.raw(), |out| {
            write_row(out, id, at, user, action, subject, outcome);
        });
        self.wal.log_audit(text);
    }

    /// The most recent `n` rows, newest last. Only the pages that hold
    /// them are read, and the rows in front of them on the first of
    /// those are skipped undecoded.
    pub fn recent(&self, n: usize) -> Vec<AuditRow> {
        let g = self.rows.lock();
        let want = n.min(g.len);
        let (mut from, mut skip, mut need) = (g.pages.len(), 0, want);
        while need > 0 {
            from -= 1;
            let rows = g.pages[from].rows;
            skip = rows.saturating_sub(need);
            need -= rows.min(need);
        }
        let mut out = Vec::with_capacity(want);
        for page in &g.pages[from..] {
            let _ = read_page(page.text.as_str(), skip, |row| out.push(row));
            skip = 0;
        }
        out
    }

    /// All rows for one user.
    pub fn for_user(&self, user: UserId) -> Vec<AuditRow> {
        let g = self.rows.lock();
        g.iter().filter(|r| r.user == user).collect()
    }

    /// Every audit row, oldest first.
    pub fn dump(&self) -> Vec<AuditRow> {
        let g = self.rows.lock();
        let mut rows = Vec::with_capacity(g.len);
        rows.extend(g.iter());
        rows
    }

    /// Row count.
    pub fn count(&self) -> usize {
        self.rows.lock().len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_when_enabled() {
        let log = AuditLog::new();
        let ids = IdGen::new();
        log.record(
            &ids,
            Timestamp(1),
            UserId(1),
            AuditAction::Ingest,
            "/a/b",
            "ok",
        );
        assert_eq!(log.count(), 1);
        let rows = log.recent(10);
        assert_eq!(rows[0].subject, "/a/b");
        assert_eq!(rows[0].action.name(), "ingest");
    }

    #[test]
    fn filters_by_user_and_subject() {
        let log = AuditLog::new();
        let ids = IdGen::new();
        log.record(&ids, Timestamp(1), UserId(1), AuditAction::Read, "/a", "ok");
        log.record(&ids, Timestamp(2), UserId(2), AuditAction::Read, "/a", "ok");
        log.record(
            &ids,
            Timestamp(3),
            UserId(1),
            AuditAction::Write,
            "/b",
            "PERMISSION_DENIED",
        );
        assert_eq!(log.for_user(UserId(1)).len(), 2);
        let for_subject = |s: &str| -> Vec<AuditRow> {
            log.dump().into_iter().filter(|r| r.subject == s).collect()
        };
        assert_eq!(for_subject("/a").len(), 2);
        assert_eq!(for_subject("/b")[0].outcome, "PERMISSION_DENIED");
    }

    /// Every word the grid writes reads back static, including every
    /// error code; other text reads back as it was, and is written the
    /// same.
    #[test]
    fn outcomes_read_back_as_static_words() {
        use srb_types::SrbError;
        let errors = [
            SrbError::NotFound(String::new()),
            SrbError::AlreadyExists(String::new()),
            SrbError::PermissionDenied(String::new()),
            SrbError::AuthFailed(String::new()),
            SrbError::ResourceUnavailable(String::new()),
            SrbError::Timeout(String::new()),
            SrbError::Corrupt(String::new()),
            SrbError::Locked(String::new()),
            SrbError::Invalid(String::new()),
            SrbError::MissingMetadata(String::new()),
            SrbError::Unsupported(String::new()),
            SrbError::Io(String::new()),
            SrbError::Parse(String::new()),
            SrbError::Internal(String::new()),
        ];
        let read = |text: &str| serde_json::from_str::<Outcome>(text).unwrap();
        for word in errors.iter().map(SrbError::code).chain(["ok", "unlink"]) {
            let outcome = read(&serde_json::to_string(word).unwrap());
            assert!(
                matches!(outcome.0, Cow::Borrowed(_)),
                "{word} is not interned"
            );
            assert_eq!(outcome, word);
        }
        let odd = read(r#""half \"done\"""#);
        assert!(matches!(odd.0, Cow::Owned(_)));
        assert_eq!(odd, r#"half "done""#);
        assert_eq!(serde_json::to_string(&odd).unwrap(), r#""half \"done\"""#);
        assert!(serde_json::from_str::<Outcome>("7").is_err());
    }

    #[test]
    fn recent_returns_tail() {
        let log = AuditLog::new();
        let ids = IdGen::new();
        for i in 0..10 {
            log.record(
                &ids,
                Timestamp(i),
                UserId(1),
                AuditAction::Read,
                &format!("/f{i}"),
                "ok",
            );
        }
        let tail = log.recent(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[2].subject, "/f9");
        assert_eq!(log.recent(100).len(), 10);
    }

    /// The row writer `record` encodes with writes what the derived row
    /// form does, byte for byte, escapes and odd outcomes included.
    #[test]
    fn the_borrowed_row_writer_is_the_row_form() {
        let subjects = ["/a/b", "", "q\"\\\n\r\t\u{1}é日/", "container ct"];
        for (k, subject) in subjects.into_iter().enumerate() {
            for outcome in ["ok", "PERMISSION_DENIED", "half \"done\""] {
                let row = AuditRow {
                    id: AuditId(u64::MAX - k as u64),
                    at: Timestamp(7_000_000 * k as u64),
                    user: UserId(k as u64),
                    action: AuditAction::MetaChange,
                    subject: subject.into(),
                    outcome: Outcome(Cow::Owned(outcome.into())),
                };
                let mut text = String::new();
                let (id, at, user, action) = (row.id, row.at, row.user, row.action);
                write_row(&mut text, id, at, user, action, subject, outcome);
                assert_eq!(text, serde_json::to_row_string(&row).unwrap());
            }
        }
    }

    /// Pages hold exactly the comma-joined row form; a put out of order
    /// re-renders its page, a put of a held id replaces the row, and only
    /// the last page is left open.
    #[test]
    fn pages_are_the_row_form_text_and_take_puts_in_any_order() {
        let row = |id: u64, subject: &str| AuditRow {
            id: AuditId(id),
            at: Timestamp(id),
            user: UserId(1),
            action: AuditAction::Read,
            subject: subject.into(),
            outcome: "ok".into(),
        };
        let mut pages = AuditPages::default();
        for id in [5, 9, 1030, 3000, 2, 1500, 9] {
            pages.put(&row(id, &format!("/s{id}")));
        }
        pages.put(&row(1030, "/again"));
        let ids: Vec<u64> = pages.iter().map(|r| r.id.raw()).collect();
        assert_eq!(ids, [2, 5, 9, 1030, 1500, 3000]);
        assert_eq!((pages.len, pages.last_id()), (6, Some(3000)));
        let want = |ids: &[(u64, &str)]| {
            let rows: Vec<String> = ids
                .iter()
                .map(|&(id, s)| serde_json::to_row_string(&row(id, s)).unwrap())
                .collect();
            rows.join(",")
        };
        let texts: Vec<(u64, &str, bool)> = pages
            .pages
            .iter()
            .map(|p| (p.no, p.text.as_str(), matches!(p.text, Text::Open(_))))
            .collect();
        let (first, second) = (
            want(&[(2, "/s2"), (5, "/s5"), (9, "/s9")]),
            want(&[(1030, "/again"), (1500, "/s1500")]),
        );
        assert_eq!(
            texts,
            [
                (0, first.as_str(), false),
                (1, second.as_str(), false),
                (2, want(&[(3000, "/s3000")]).as_str(), true),
            ]
        );
    }

    /// After a checkpoint every page of the live log is frozen, and each
    /// is the very part of the device's image that holds it; so is every
    /// page of the catalog recovered from that image, and of the image
    /// the recovery installs.
    #[test]
    fn the_log_and_its_image_share_each_page() {
        use crate::{Mcat, WalConfig};
        use srb_storage::{Image, LogDevice};
        use srb_types::SimClock;

        /// The audit parts of a checkpoint image, page-ascending: every
        /// other part after the text that opens the field.
        fn audit_parts(image: &Image) -> Vec<Arc<str>> {
            let parts = image.parts();
            let open = parts
                .iter()
                .position(|p| p.ends_with("\"audit\":["))
                .unwrap();
            let mut found = Vec::new();
            let mut at = open + 1;
            loop {
                found.push(parts[at].clone());
                if &*parts[at + 1] != "," {
                    return found;
                }
                at += 2;
            }
        }

        fn frozen(m: &Mcat) -> Vec<Arc<str>> {
            let g = m.audit.rows.lock();
            let parts = g.pages.iter().map(|p| match &p.text {
                Text::Frozen(part) => part.clone(),
                Text::Open(_) => panic!("page {} is open", p.no),
            });
            parts.collect()
        }

        let shared = |m: &Mcat, device: &LogDevice| {
            let (log, image) = (frozen(m), audit_parts(&device.checkpoint_image().unwrap()));
            assert_eq!(log.len(), image.len());
            assert!(log.len() > 2);
            for (page, part) in log.iter().zip(&image) {
                assert!(Arc::ptr_eq(page, part));
            }
        };

        let config = WalConfig {
            checkpoint_interval_ns: 0,
        };
        let m = Mcat::new(SimClock::new(), "pw");
        let device = Arc::new(LogDevice::new());
        m.enable_wal(device.clone(), config, None).unwrap();
        let (admin, now) = (m.admin(), m.clock.now());
        let record = |m: &Mcat, i: usize| {
            m.audit.record(
                &m.ids,
                now,
                admin,
                AuditAction::Read,
                &format!("/f{i}"),
                "ok",
            );
            m.commit();
        };
        for i in 0..3000 {
            record(&m, i);
        }
        m.checkpoint_now().unwrap();
        shared(&m, &device);
        for i in 0..100 {
            record(&m, i);
        }
        device.crash();
        let (r, _) = Mcat::recover(SimClock::new(), device.clone(), config, None).unwrap();
        shared(&r, &device);
        assert_eq!(r.audit.dump(), m.audit.dump());
    }

    /// An image whose audit part is not the rows' row form — here the
    /// object form, as images written before the row form hold rows —
    /// reads to the same rows; that page is rendered, not kept, and the
    /// pages whose parts are their render are kept by pointer.
    #[test]
    fn a_part_that_is_not_its_render_is_rendered() {
        use crate::{Mcat, WalConfig};
        use srb_storage::{Image, LogDevice};
        use srb_types::SimClock;

        let config = WalConfig {
            checkpoint_interval_ns: 0,
        };
        let m = Mcat::new(SimClock::new(), "pw");
        let device = Arc::new(LogDevice::new());
        m.enable_wal(device.clone(), config, None).unwrap();
        let (admin, now) = (m.admin(), m.clock.now());
        for i in 0..2500 {
            let subject = format!("/f{i}");
            m.audit
                .record(&m.ids, now, admin, AuditAction::Read, &subject, "ok");
        }
        m.checkpoint_now().unwrap();
        let mut parts = device.checkpoint_image().unwrap().parts().to_vec();
        let at = 1 + parts
            .iter()
            .position(|p| p.ends_with("\"audit\":["))
            .unwrap();
        let mut rows = Vec::new();
        read_page(&parts[at], 0, |row| rows.push(row)).unwrap();
        let objects: Vec<String> = rows
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        let (row_form, object_form) = (parts[at].clone(), Arc::from(objects.join(",")));
        parts[at] = Arc::clone(&object_form);
        let (next, last) = (parts[at + 2].clone(), parts[at + 4].clone());
        let fresh = Arc::new(LogDevice::new());
        let cover = device.checkpoint_lsn().unwrap();
        fresh.install_checkpoint(cover, parts.into_iter().collect::<Image>());
        let (r, _) = Mcat::recover(SimClock::new(), fresh, config, None).unwrap();
        assert_eq!(r.audit.dump(), m.audit.dump());
        assert_eq!(r.snapshot_json().unwrap(), m.snapshot_json().unwrap());
        let g = r.audit.rows.lock();
        let kept = |page: &Page, part: &Arc<str>| match &page.text {
            Text::Frozen(text) => Arc::ptr_eq(text, part),
            Text::Open(_) => false,
        };
        assert_eq!(g.pages.len(), 3);
        assert!(!kept(&g.pages[0], &object_form));
        assert_eq!(g.pages[0].text.as_str(), &*row_form);
        assert!(kept(&g.pages[1], &next) && kept(&g.pages[2], &last));
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// Record a row after drawing this many other ids; commit or not.
        Record {
            gap: u64,
            user: u64,
            commit: bool,
        },
        Checkpoint,
        RefusedCheckpoint,
        CrashAndRecover,
    }

    /// Mostly records, now and then a checkpoint, a refused one or a
    /// crash; one record in eight is left uncommitted.
    fn step() -> impl Strategy<Value = Step> {
        (0u64..33, 0u64..40, 0u64..3).prop_map(|(kind, gap, user)| match kind {
            30 => Step::Checkpoint,
            31 => Step::RefusedCheckpoint,
            32 => Step::CrashAndRecover,
            _ => Step::Record {
                gap,
                user,
                commit: gap % 8 != 0,
            },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The log against a `Vec<AuditRow>` model through records (some
        /// left uncommitted), checkpoints, refused installs, crashes and
        /// recoveries: a crash loses exactly the rows neither a commit
        /// nor an accepted checkpoint covered. After every step `recent(n)`
        /// for every `n` up to the length and past it, `for_user`, `dump`
        /// and `count` read the model.
        #[test]
        fn the_log_reads_as_its_rows(steps in prop::collection::vec(step(), 1..80)) {
            use crate::{Mcat, WalConfig};
            use srb_storage::LogDevice;
            use srb_types::SimClock;

            let config = WalConfig { checkpoint_interval_ns: 0 };
            let clock = SimClock::new();
            let device = Arc::new(LogDevice::new());
            let mut m = Mcat::new(clock.clone(), "pw");
            m.enable_wal(device.clone(), config, None).unwrap();
            // Rows every accepted checkpoint or commit covers, and the rows
            // recorded since.
            let (mut kept, mut pending): (Vec<AuditRow>, Vec<AuditRow>) = Default::default();
            for (k, step) in steps.into_iter().enumerate() {
                clock.advance(1_000);
                match step {
                    Step::Record { gap, user, commit } => {
                        for _ in 0..gap {
                            let _: AuditId = m.ids.next();
                        }
                        let (at, user) = (clock.now(), UserId(user));
                        let subject = format!("/s{k}\"{}", "x".repeat(k % 7));
                        m.audit.record(&m.ids, at, user, AuditAction::Write, &subject, "ok");
                        let id = AuditId(m.ids.allocated());
                        let outcome = "ok".into();
                        pending.push(AuditRow { id, at, user, action: AuditAction::Write, subject, outcome });
                        if commit {
                            m.commit();
                            kept.append(&mut pending);
                        }
                    }
                    Step::Checkpoint => {
                        m.checkpoint_now().unwrap();
                        kept.append(&mut pending);
                    }
                    Step::RefusedCheckpoint => {
                        device.refuse_checkpoints(true);
                        prop_assert!(m.checkpoint_now().is_err());
                        device.refuse_checkpoints(false);
                    }
                    Step::CrashAndRecover => {
                        device.crash();
                        pending.clear();
                        m = Mcat::recover(clock.clone(), device.clone(), config, None).unwrap().0;
                    }
                }
                let model: Vec<AuditRow> = kept.iter().chain(&pending).cloned().collect();
                prop_assert_eq!(m.audit.count(), model.len());
                prop_assert_eq!(&m.audit.dump(), &model);
                for n in 0..=model.len() + 1 {
                    let tail = &model[model.len().saturating_sub(n)..];
                    prop_assert_eq!(&m.audit.recent(n), tail);
                }
                for user in 0..3 {
                    let mine: Vec<AuditRow> =
                        model.iter().filter(|r| r.user == UserId(user)).cloned().collect();
                    prop_assert_eq!(m.audit.for_user(UserId(user)), mine);
                }
            }
        }
    }
}
