//! Paged checkpoint images against a full render.
//!
//! A checkpoint shares a page of rows — its part of the image the device
//! holds — with the previous image unless a redo record touched the page
//! since. A seeded single-writer op mix covers every row-mutating path;
//! after each checkpoint the device's image, its parts joined, must equal
//! `snapshot_json()` byte for byte, and the pages the checkpoint rendered
//! must be exactly the pages of the image that a record logged since the
//! previous accepted checkpoint touched — the rest were shared. Arms: a
//! refused install between two accepted ones, a crash plus `recover` —
//! whose checkpoint renders the pages the replayed tail touched and shares
//! the rest with the image it read — and a checkpoint by a catalog whose
//! image the device no longer holds, a page emptied by deletes, and the
//! parts themselves: a clean page's part is the previous image's, by
//! pointer.
//!
//! The audit trail keeps its pages as the text of their parts: a
//! checkpoint freezes and shares each one whole and renders no row, so
//! its pages are in neither page counter, while the part-sharing checks
//! cover them like any other page.

use srb_mcat::{
    AccessSpec, AnnotationKind, AuditAction, CatalogSnapshot, Mcat, MetaKind, Subject, WalConfig,
    WalOp, WalRecord, IMAGE_PAGE_IDS,
};
use srb_obs::{metric, MetricsRegistry};
use srb_storage::{DriverKind, Image, LogDevice, TailRead};
use srb_types::{
    AccessMatrix, AnnotationId, CollectionId, DatasetId, MetaId, MetaValue, Permission, ResourceId,
    SeedStream, SimClock, SiteId, Triplet, UserId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const CONFIG: WalConfig = WalConfig {
    checkpoint_interval_ns: 0,
};

/// An image page: field name and page number.
type Page = (&'static str, u64);

/// The page a record touches, by the image's field names; `None` for the
/// page when the record names no row id (every page of the field).
fn touched(op: &WalOp) -> Option<(&'static str, Option<u64>)> {
    let page = |id: u64| Some(id / IMAGE_PAGE_IDS);
    Some(match op {
        WalOp::UserPut { row } => ("users", page(row.id.raw())),
        WalOp::GroupPut { row } => ("groups", page(row.id.raw())),
        WalOp::ResourcePut { row } => ("resources", page(row.id.raw())),
        WalOp::LogicalResourcePut { row } => ("logical_resources", page(row.id.raw())),
        WalOp::CollectionPut { row } => ("collections", page(row.id.raw())),
        WalOp::CollectionDelete { id } => ("collections", page(id.raw())),
        WalOp::DatasetPut { row } => ("datasets", page(row.id.raw())),
        WalOp::DatasetDelete { id } => ("datasets", page(id.raw())),
        WalOp::ContainerPut { row } => ("containers", page(row.id.raw())),
        WalOp::ContainerDelete { id } => ("containers", page(id.raw())),
        WalOp::MetaPut { row } => ("metadata", page(row.id.raw())),
        WalOp::MetaDelete { id } => ("metadata", page(id.raw())),
        WalOp::MetaFilesPut { .. } | WalOp::MetaFilesClear { .. } => ("meta_files", page(0)),
        WalOp::AnnotationPut { row } => ("annotations", page(row.id.raw())),
        WalOp::AnnotationDelete { id } => ("annotations", page(id.raw())),
        WalOp::AnnotationClear { .. } => ("annotations", None),
        WalOp::AuditPut { row } => ("audit", page(row.id.raw())),
        WalOp::Commit { .. } => return None,
    })
}

/// The non-empty pages of an image.
fn pages_of(image: &str) -> BTreeSet<Page> {
    let snap: CatalogSnapshot = serde_json::from_str(image).unwrap();
    let mut pages = BTreeSet::new();
    let mut add = |field: &'static str, ids: Vec<u64>| {
        pages.extend(ids.into_iter().map(|id| (field, id / IMAGE_PAGE_IDS)));
    };
    add("users", snap.users.iter().map(|r| r.id.raw()).collect());
    add("groups", snap.groups.iter().map(|r| r.id.raw()).collect());
    add(
        "resources",
        snap.resources.iter().map(|r| r.id.raw()).collect(),
    );
    let logical = snap.logical_resources.iter().map(|r| r.id.raw());
    add("logical_resources", logical.collect());
    add(
        "collections",
        snap.collections.iter().map(|r| r.id.raw()).collect(),
    );
    add(
        "datasets",
        snap.datasets.iter().map(|r| r.id.raw()).collect(),
    );
    add(
        "containers",
        snap.containers.iter().map(|r| r.id.raw()).collect(),
    );
    add(
        "metadata",
        snap.metadata.iter().map(|r| r.id.raw()).collect(),
    );
    add("meta_files", snap.meta_files.iter().map(|_| 0).collect());
    add(
        "annotations",
        snap.annotations.iter().map(|r| r.id.raw()).collect(),
    );
    add("audit", snap.audit.iter().map(|r| r.id.raw()).collect());
    pages
}

/// The catalog image inside the device's checkpoint envelope.
fn device_image(device: &LogDevice) -> String {
    let text = device.checkpoint_image().unwrap().join();
    let (_, rest) = text.split_once(",\"snapshot\":").unwrap();
    rest.strip_suffix('}').unwrap().to_string()
}

/// The image's fields, by the names it writes.
const FIELD_NAMES: [&str; 11] = [
    "users",
    "groups",
    "resources",
    "logical_resources",
    "collections",
    "datasets",
    "containers",
    "metadata",
    "meta_files",
    "annotations",
    "audit",
];

/// A checkpoint image's page parts, by page. The parts alternate text,
/// page, text, …, page, text; the text in front of a field's first page
/// ends with the field's `"name":[`, and a page's first row opens with its
/// id — `[id,…` in the row form, `{"id":id,…` in the object form (a
/// `meta_files` page, whose rows carry none, is page 0).
fn page_parts(image: &Image) -> BTreeMap<Page, Arc<str>> {
    let mut field = "";
    let mut pages = BTreeMap::new();
    for (i, part) in image.parts().iter().enumerate() {
        if i % 2 == 0 {
            if let Some(open) = part.rfind("\":[") {
                // The text after the last page ends with the row form of
                // `"generations":[…]`, which no page follows.
                let name = &part[part[..open].rfind('"').unwrap() + 1..open];
                if name != "generations" {
                    field = FIELD_NAMES.iter().find(|&&f| f == name).unwrap();
                }
            }
            continue;
        }
        let row = part.strip_prefix('[').or(part.strip_prefix("{\"id\":"));
        let id = row.map_or(0, |rest| {
            let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap();
            rest[..digits].parse().unwrap_or(0)
        });
        let page = (field, id / IMAGE_PAGE_IDS);
        assert!(pages.insert(page, part.clone()).is_none(), "{page:?} twice");
    }
    pages
}

/// The pages the page counters count: every page but the audit trail's.
fn counted<'p>(pages: impl IntoIterator<Item = &'p Page>) -> BTreeSet<Page> {
    pages
        .into_iter()
        .filter(|p| p.0 != "audit")
        .copied()
        .collect()
}

/// `(pages copied, pages rendered)` counted so far.
fn counters(metrics: &MetricsRegistry) -> (u64, u64) {
    (
        metrics
            .counter(metric!("wal.checkpoint_pages_copied"), "")
            .get(),
        metrics
            .counter(metric!("wal.checkpoint_pages_rendered"), "")
            .get(),
    )
}

/// One catalog under test and the rows the op mix picks from.
struct Rig {
    m: Mcat,
    clock: SimClock,
    device: Arc<LogDevice>,
    metrics: MetricsRegistry,
    rng: SeedStream,
    colls: Vec<CollectionId>,
    datasets: Vec<DatasetId>,
    metas: Vec<MetaId>,
    notes: Vec<AnnotationId>,
    users: Vec<UserId>,
    step: usize,
}

impl Rig {
    fn new(seed: u64) -> Rig {
        let clock = SimClock::new();
        let m = Mcat::new(clock.clone(), "pw");
        let device = Arc::new(LogDevice::new());
        let metrics = MetricsRegistry::new();
        m.enable_wal(device.clone(), CONFIG, Some(&metrics))
            .unwrap();
        let colls = vec![m.collections.root()];
        Rig {
            m,
            clock,
            device,
            metrics,
            rng: SeedStream::new(seed),
            colls,
            datasets: Vec::new(),
            metas: Vec::new(),
            notes: Vec::new(),
            users: Vec::new(),
            step: 0,
        }
    }

    fn pick<T: Copy>(rng: &mut SeedStream, v: &[T]) -> Option<T> {
        (!v.is_empty()).then(|| v[rng.below(v.len())])
    }

    /// One seeded op, committed.
    fn step(&mut self) {
        self.step += 1;
        self.clock.advance(1_000_000);
        let (m, step, now, admin) = (&self.m, self.step, self.clock.now(), self.m.admin());
        let rng = &mut self.rng;
        let dataset = Self::pick(rng, &self.datasets);
        let coll = Self::pick(rng, &self.colls);
        match rng.below(20) {
            0 => {
                if let Ok(c) =
                    m.collections
                        .create(&m.ids, coll.unwrap(), &format!("c{step}"), admin, now)
                {
                    self.colls.push(c);
                }
            }
            1..=3 => {
                let spec = AccessSpec::Stored {
                    resource: ResourceId(1),
                    phys_path: format!("/phys/{step}"),
                };
                let name = format!("d{step}");
                if let Ok(d) = m.datasets.create(
                    &m.ids,
                    coll.unwrap(),
                    &name,
                    "generic",
                    admin,
                    vec![(spec, step as u64, None)],
                    now,
                ) {
                    self.datasets.push(d);
                }
            }
            4 | 5 => {
                if let Some(d) = dataset {
                    let t = Triplet::new("step", step as i64, "");
                    self.metas.push(m.metadata.add(
                        &m.ids,
                        Subject::Dataset(d),
                        t,
                        MetaKind::UserDefined,
                    ));
                }
            }
            6 => {
                if let Some(id) = Self::pick(rng, &self.metas) {
                    let _ = m
                        .metadata
                        .update(id, MetaValue::from(-(step as i64)), "u".into());
                }
            }
            7 => {
                if let Some(id) = Self::pick(rng, &self.metas) {
                    let _ = m.metadata.remove(id);
                }
            }
            8 => {
                if let Some(d) = dataset {
                    let _ = m
                        .datasets
                        .move_dataset(d, coll.unwrap(), &format!("m{step}"));
                }
            }
            9 => {
                if let Some(d) = dataset {
                    self.datasets.retain(|&x| x != d);
                    let _ = m.remove_dataset(d);
                }
            }
            10 => {
                if let Some(d) = dataset {
                    let spec = AccessSpec::Stored {
                        resource: ResourceId(2),
                        phys_path: format!("/copy/{step}"),
                    };
                    let _ = m.datasets.add_replica(&m.ids, d, spec, 16, None, now);
                }
            }
            11 => {
                if let Some(d) = dataset {
                    let _ = m.datasets.update(d, |x| {
                        x.modified = now;
                        Ok(())
                    });
                }
            }
            12 => {
                if let Some(d) = dataset {
                    let kind = AnnotationKind::Comment;
                    let text = format!("note {step}");
                    self.notes.push(m.annotations.add(
                        &m.ids,
                        Subject::Dataset(d),
                        admin,
                        now,
                        kind,
                        "",
                        &text,
                    ));
                }
            }
            13 => {
                if let Some(id) = Self::pick(rng, &self.notes) {
                    let _ = m.annotations.remove(id, admin);
                }
            }
            14 => {
                if let (Some(d), Some(carrier)) = (dataset, Self::pick(rng, &self.datasets)) {
                    m.metadata.attach_meta_file(Subject::Dataset(d), carrier);
                }
            }
            15 => {
                if let Ok(u) = m
                    .users
                    .register(&m.ids, &format!("u{step}"), "sdsc", "pw", false)
                {
                    self.users.push(u);
                }
            }
            16 => {
                if let (Ok(g), Some(u)) = (
                    m.users.create_group(&m.ids, &format!("g{step}")),
                    Self::pick(rng, &self.users),
                ) {
                    let _ = m.users.add_to_group(u, g);
                }
            }
            17 => {
                let c = coll.unwrap();
                let mut acl = AccessMatrix::owned_by(admin);
                acl.grant_user(UserId(step as u64), Permission::Read);
                let _ = m.collections.set_acl(c, acl);
                if let Some(to) = Self::pick(rng, &self.colls) {
                    let _ = m.collections.move_collection(c, to, &format!("mc{step}"));
                }
            }
            18 => {
                let c = coll.unwrap();
                if c != m.collections.root() && m.remove_collection(c).is_ok() {
                    self.colls.retain(|&x| x != c);
                }
            }
            19 => {
                if let Ok(r) = m.resources.register(
                    &m.ids,
                    &format!("r{step}"),
                    DriverKind::FileSystem,
                    SiteId(0),
                ) {
                    if let Ok(l) = m
                        .resources
                        .create_logical(&m.ids, &format!("l{step}"), &[r])
                    {
                        let _ = m
                            .containers
                            .create(&m.ids, &format!("k{step}"), l, 1 << 20, now);
                    }
                }
            }
            _ => unreachable!(),
        }
        m.audit.record(
            &m.ids,
            now,
            admin,
            AuditAction::Ingest,
            &format!("/s{step}"),
            "ok",
        );
        m.commit();
    }

    /// The pages the records since the device's checkpoint touched:
    /// explicit pages, and the fields every page of which counts.
    fn dirtied(&self) -> (BTreeSet<Page>, BTreeSet<&'static str>) {
        let since = self.device.checkpoint_lsn().unwrap();
        let TailRead::Lines(lines) = self.device.read_after(since) else {
            panic!("the tail past the checkpoint is there");
        };
        let (mut pages, mut whole) = (BTreeSet::new(), BTreeSet::new());
        for (_, payload) in lines {
            let record: WalRecord = serde_json::from_str(&payload).unwrap();
            match touched(&record.op) {
                Some((field, Some(page))) => {
                    pages.insert((field, page));
                }
                Some((field, None)) => {
                    whole.insert(field);
                }
                None => {}
            }
        }
        (pages, whole)
    }

    /// Checkpoint, then hold the image to a full render and the page
    /// counters to the pages the records since the last image touched
    /// (every page when `full`). Returns the pages copied.
    fn checkpoint(&self, full: bool) -> u64 {
        let (pages, whole) = self.dirtied();
        let before = counters(&self.metrics);
        self.m.checkpoint_now().unwrap();
        let image = device_image(&self.device);
        assert_eq!(image, self.m.snapshot_json().unwrap(), "step {}", self.step);
        let present = counted(&pages_of(&image));
        let rendered = present
            .iter()
            .filter(|p| full || pages.contains(p) || whole.contains(p.0))
            .count() as u64;
        let after = counters(&self.metrics);
        let copied = present.len() as u64 - rendered;
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (copied, rendered),
            "(copied, rendered) at step {}",
            self.step
        );
        copied
    }

    /// Run `steps` ops, checkpointing at seeded steps.
    fn run(&mut self, steps: usize) -> u64 {
        let mut copied = 0;
        for _ in 0..steps {
            self.step();
            if self.rng.below(200) == 0 {
                copied += self.checkpoint(false);
            }
        }
        copied
    }

    /// Run `steps` ops with no checkpoint.
    fn run_unchecked(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }
}

#[test]
fn a_paged_image_equals_a_full_render() {
    let mut copied = 0;
    for seed in 1..=4 {
        let mut rig = Rig::new(seed);
        copied += rig.run(2_500);
        copied += rig.checkpoint(false);
    }
    assert!(copied > 0, "checkpoints copied no page");
}

#[test]
fn a_refused_install_leaves_the_next_checkpoint_owing_its_pages() {
    let mut rig = Rig::new(7);
    rig.run(1_500);
    rig.checkpoint(false);
    let held = rig.device.checkpoint_image().unwrap();
    rig.run_unchecked(400);
    rig.device.refuse_checkpoints(true);
    let before = counters(&rig.metrics);
    assert!(rig.m.checkpoint_now().is_err());
    assert!(Arc::ptr_eq(&held, &rig.device.checkpoint_image().unwrap()));
    assert_eq!(
        counters(&rig.metrics),
        before,
        "a refused image counts nothing"
    );
    rig.device.refuse_checkpoints(false);
    rig.run_unchecked(400);
    // Still copying from the held image, and owing it every page dirtied
    // since, before the refused attempt too.
    assert!(rig.checkpoint(false) > 0);
    rig.run(800);
    rig.checkpoint(false);
}

#[test]
fn recovery_shares_the_untouched_pages_and_a_replaced_image_falls_back_to_a_full_render() {
    let mut rig = Rig::new(11);
    rig.run(1_500);
    rig.checkpoint(false);
    let read = rig.device.checkpoint_image().unwrap();
    rig.run_unchecked(300);
    rig.device.crash();
    let (pages, whole) = rig.dirtied();
    let metrics = MetricsRegistry::new();
    let (m2, report) = Mcat::recover(
        rig.clock.clone(),
        rig.device.clone(),
        CONFIG,
        Some(&metrics),
    )
    .unwrap();
    // The recovery checkpoint equals a full render of the recovered
    // catalog, but renders only the pages the replayed tail touched: the
    // rest are the parts of the image recovery read, by pointer.
    let image = device_image(&rig.device);
    assert_eq!(image, m2.snapshot_json().unwrap());
    let present = counted(&pages_of(&image));
    let touched = |p: &Page| pages.contains(p) || whole.contains(p.0);
    let rendered = present.iter().filter(|p| touched(p)).count() as u64;
    assert!(0 < rendered && rendered < present.len() as u64);
    assert_eq!(
        counters(&metrics),
        (present.len() as u64 - rendered, rendered)
    );
    assert_eq!(report.pages_rendered, rendered);
    let (old, new) = (
        page_parts(&read),
        page_parts(&rig.device.checkpoint_image().unwrap()),
    );
    for (page, part) in &new {
        assert_eq!(
            old.get(page).is_some_and(|was| Arc::ptr_eq(was, part)),
            !touched(page),
            "{page:?}"
        );
    }
    // The old catalog's last image is no longer the device's: its next
    // checkpoint renders everything.
    rig.checkpoint(true);
    // …and so does the recovered catalog's, whose image was replaced.
    rig.m = m2;
    rig.metrics = metrics;
    rig.checkpoint(true);
    // From there on pages are copied again.
    rig.run(600);
    assert!(rig.checkpoint(false) > 0);
}

#[test]
fn a_page_emptied_by_deletes_leaves_the_image() {
    let mut rig = Rig::new(13);
    rig.run(2_000);
    rig.checkpoint(false);
    let page = rig.datasets[0].raw() / IMAGE_PAGE_IDS;
    let doomed: Vec<DatasetId> = rig
        .datasets
        .iter()
        .copied()
        .filter(|d| d.raw() / IMAGE_PAGE_IDS == page)
        .collect();
    for &d in &doomed {
        rig.m.remove_dataset(d).unwrap();
    }
    rig.m.commit();
    rig.datasets.retain(|d| !doomed.contains(d));
    rig.checkpoint(false);
    let image = device_image(&rig.device);
    assert!(!pages_of(&image).contains(&("datasets", page)));
    rig.run(500);
    rig.checkpoint(false);
}

#[test]
fn a_checkpoint_shares_the_parts_of_the_pages_no_record_touched() {
    let mut rig = Rig::new(17);
    rig.run(1_500);
    rig.checkpoint(false);
    // No record since the last image: every page's part is that image's.
    let prev = rig.device.checkpoint_image().unwrap();
    let before = counters(&rig.metrics);
    rig.checkpoint(false);
    let next = rig.device.checkpoint_image().unwrap();
    assert!(!Arc::ptr_eq(&prev, &next), "a new image was installed");
    let (prev_pages, next_pages) = (page_parts(&prev), page_parts(&next));
    assert_eq!(
        next_pages.keys().collect::<BTreeSet<_>>(),
        pages_of(&device_image(&rig.device)).iter().collect()
    );
    assert!(prev_pages.keys().eq(next_pages.keys()));
    for (page, part) in &next_pages {
        assert!(Arc::ptr_eq(part, &prev_pages[page]), "{page:?} not shared");
    }
    let after = counters(&rig.metrics);
    assert_eq!(after.1, before.1, "a clean checkpoint renders nothing");
    let next_counted = counted(next_pages.keys());
    assert_eq!(after.0 - before.0, next_counted.len() as u64);
    // After a seeded mix: new parts for exactly the touched pages.
    let mut fresh = 0;
    for _ in 0..3 {
        rig.run_unchecked(300);
        let (touched, whole) = rig.dirtied();
        let prev_pages = page_parts(&rig.device.checkpoint_image().unwrap());
        let copied = rig.checkpoint(false);
        let next_pages = page_parts(&rig.device.checkpoint_image().unwrap());
        let (mut shared, mut copied_counted) = (0, 0);
        for (page, part) in &next_pages {
            let clean = !touched.contains(page) && !whole.contains(page.0);
            let kept = prev_pages.get(page).is_some_and(|p| Arc::ptr_eq(p, part));
            assert_eq!(kept, clean, "{page:?} at step {}", rig.step);
            shared += u64::from(kept);
            copied_counted += u64::from(kept && page.0 != "audit");
        }
        assert_eq!(copied_counted, copied);
        fresh += next_pages.len() as u64 - shared;
    }
    assert!(fresh > 0, "the mix touched no page");
}
