//! Differential oracle for the query engine: on randomized catalogs
//! (collection trees, links, metadata triplets, annotations) and random
//! conjunctive queries, the indexed planner (`query`, and `query_page`
//! pages concatenated) and the full-scan reference must agree hit-for-hit —
//! including scope, `limit`, `include_system`, and `include_annotations` —
//! and the unordered limit push-down must return a correct subset.

use proptest::prelude::*;
use srb_mcat::{AccessSpec, AnnotationKind, Mcat, MetaKind, Query, QueryCondition, Subject};
use srb_types::{CompareOp, DatasetId, MetaValue, ResourceId, SimClock, Triplet};

/// Attribute pool for stored triplets; `size` and `name` deliberately
/// collide with system attribute names so `include_system` interplay is
/// exercised.
const ATTRS: [&str; 4] = ["species", "rating", "size", "name"];
const TEXTS: [&str; 3] = ["red", "green", "blue"];
const NOTES: [&str; 4] = ["great specimen", "needs review", "red flag", "ok"];
/// Condition attributes: stored names plus `annotation` and a never-stored
/// name.
const COND_ATTRS: [&str; 6] = ["species", "rating", "size", "name", "annotation", "missing"];
const OPS: [CompareOp; 8] = [
    CompareOp::Eq,
    CompareOp::Ne,
    CompareOp::Gt,
    CompareOp::Ge,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Like,
    CompareOp::NotLike,
];
/// Substring patterns (partition sweeps) plus literal prefixes — the
/// latter now plan as ordered-index range scans, so both classification
/// arms stay under the oracle. `gr%`/`re%` hit text values, `1%`/`2%`
/// exercise the numeric-lexical guard in `like_scan_prefix`.
const PATTERNS: [&str; 6] = ["%e%", "%r%", "%1%", "re%", "gr%", "1%"];

/// Size of the value pool [`value_for`] draws from.
const VALUES: u8 = 9;

/// Ints, text, numeric-looking text and a float. `"1"` and `"1.0"` equal
/// `Int(1)` and `Float(2.0)` equals `Int(2)` under `CompareOp::Eq`, so one
/// index key may hold rows of several kinds.
fn value_for(idx: u8) -> MetaValue {
    match idx % VALUES {
        0..=2 => MetaValue::Int((idx % 3) as i64),
        3..=5 => MetaValue::Text(TEXTS[(idx as usize - 3) % TEXTS.len()].to_string()),
        6 => MetaValue::Text("1".into()),
        7 => MetaValue::Text("1.0".into()),
        _ => MetaValue::Float(2.0),
    }
}

fn cond_value_for(op: CompareOp, idx: u8) -> MetaValue {
    match op {
        CompareOp::Like | CompareOp::NotLike => {
            MetaValue::Text(PATTERNS[idx as usize % PATTERNS.len()].to_string())
        }
        _ => value_for(idx),
    }
}

struct Fixture {
    m: Mcat,
    colls: Vec<srb_types::CollectionId>,
    datasets: Vec<DatasetId>,
}

#[allow(clippy::type_complexity)]
fn build(
    coll_parents: &[u8],
    links: &[(u8, u8)],
    ds_specs: &[(u8, u16)],
    meta: &[(u8, u8, u8)],
    annos: &[(u8, u8)],
) -> Fixture {
    let m = Mcat::new(SimClock::new(), "pw");
    let root = m.collections.root();
    let admin = m.admin();
    let now = m.clock.now();
    let mut colls = vec![root];
    for (i, p) in coll_parents.iter().enumerate() {
        let parent = colls[*p as usize % colls.len()];
        let c = m
            .collections
            .create(&m.ids, parent, &format!("c{i}"), admin, now)
            .unwrap();
        colls.push(c);
    }
    for (i, (p, t)) in links.iter().enumerate() {
        let parent = colls[*p as usize % colls.len()];
        let target = colls[*t as usize % colls.len()];
        // Self/cycle/name-clash links may be rejected; that is fine here.
        let _ = m
            .collections
            .link(&m.ids, parent, &format!("l{i}"), target, admin, now);
    }
    let mut datasets = Vec::new();
    for (i, (c, size)) in ds_specs.iter().enumerate() {
        let coll = colls[*c as usize % colls.len()];
        let replica = (
            AccessSpec::Stored {
                resource: ResourceId(1),
                phys_path: format!("/p/{i}"),
            },
            *size as u64,
            None,
        );
        let d = m
            .datasets
            .create(
                &m.ids,
                coll,
                &format!("d{i}"),
                "generic",
                admin,
                vec![replica],
                now,
            )
            .unwrap();
        datasets.push(d);
    }
    for (d, a, v) in meta {
        let subject = Subject::Dataset(datasets[*d as usize % datasets.len()]);
        m.metadata.add(
            &m.ids,
            subject,
            Triplet::new(ATTRS[*a as usize % ATTRS.len()], value_for(*v), ""),
            MetaKind::UserDefined,
        );
    }
    for (d, t) in annos {
        let subject = Subject::Dataset(datasets[*d as usize % datasets.len()]);
        m.annotations.add(
            &m.ids,
            subject,
            admin,
            now,
            AnnotationKind::Comment,
            "",
            NOTES[*t as usize % NOTES.len()],
        );
    }
    Fixture { m, colls, datasets }
}

fn build_query(
    f: &Fixture,
    scope_idx: u8,
    conds: &[(u8, u8, u8)],
    flags: u8,
    limit: usize,
) -> Query {
    let scope_coll = f.colls[scope_idx as usize % f.colls.len()];
    let scope = f.m.collections.get(scope_coll).unwrap().path;
    let mut q = Query::everywhere().under(scope).limit(limit);
    if flags & 1 != 0 {
        q = q.with_system();
    }
    if flags & 2 != 0 {
        q = q.with_annotations();
    }
    for (a, o, v) in conds {
        let op = OPS[*o as usize % OPS.len()];
        q.conditions.push(QueryCondition {
            attr: COND_ATTRS[*a as usize % COND_ATTRS.len()].to_string(),
            op,
            value: cond_value_for(op, *v),
        });
    }
    q
}

/// Every page of `q`, `page` rows at a time, concatenated.
fn all_pages(m: &Mcat, q: &Query, page: usize) -> Vec<srb_mcat::QueryHit> {
    let mut paged = Vec::new();
    let mut token: Option<String> = None;
    loop {
        let (hits, next) = m.query_page(q, token.as_deref(), page).unwrap();
        assert!(hits.len() <= page);
        paged.extend(hits);
        match next {
            Some(t) => token = Some(t),
            None => return paged,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn planner_agrees_with_scan(
        coll_parents in prop::collection::vec(0u8..8, 0..7),
        links in prop::collection::vec((0u8..8, 0u8..8), 0..3),
        ds_specs in prop::collection::vec((0u8..8, 0u16..200), 1..25),
        meta in prop::collection::vec((0u8..25, 0u8..4, 0u8..VALUES), 0..50),
        annos in prop::collection::vec((0u8..25, 0u8..4), 0..8),
        conds in prop::collection::vec((0u8..6, 0u8..8, 0u8..VALUES), 0..4),
        scope_idx in 0u8..9,
        flags in 0u8..4,
        limit in 0usize..5,
    ) {
        let f = build(&coll_parents, &links, &ds_specs, &meta, &annos);
        let q = build_query(&f, scope_idx, &conds, flags, limit);

        let planned = f.m.query(&q).unwrap();
        let scanned = f.m.query_scan(&q).unwrap();
        prop_assert_eq!(&planned, &scanned);

        // Cursor pagination: concatenated pages must equal the one-shot
        // ordered, unlimited query — no skips, no duplicates, any page
        // size, however the planner served each page.
        let full_ordered = f.m.query(&q.clone().limit(0)).unwrap();
        prop_assert_eq!(&all_pages(&f.m, &q, 2), &full_ordered);
        // Keep a mid-pagination token to check invalidation after the
        // mutation below.
        let (_, outstanding) = f.m.query_page(&q, None, 1).unwrap();

        // The queryable-attrs drop-down agrees with a scan-derived model.
        let scope_coll = f.colls[scope_idx as usize % f.colls.len()];
        let scope_path = f.m.collections.get(scope_coll).unwrap().path;
        let attrs = f.m.queryable_attrs(&scope_path).unwrap();
        let browse = Query::everywhere().under(scope_path.clone());
        let mut model: Vec<String> = f
            .m
            .query_scan(&browse)
            .unwrap()
            .iter()
            .flat_map(|h| {
                f.m.metadata
                    .for_subject(Subject::Dataset(h.dataset))
                    .into_iter()
                    .map(|r| r.triplet.name)
            })
            .collect();
        model.sort();
        model.dedup();
        prop_assert_eq!(attrs, model);

        // Mutate the tree (invalidates the scope cache) and re-check.
        let admin = f.m.admin();
        let now = f.m.clock.now();
        let fresh = f
            .m
            .collections
            .create(&f.m.ids, scope_coll, "fresh", admin, now)
            .unwrap();
        let d = f
            .m
            .datasets
            .create(&f.m.ids, fresh, "fresh.dat", "generic", admin, vec![], now)
            .unwrap();
        f.m.metadata.add(
            &f.m.ids,
            Subject::Dataset(d),
            Triplet::new("species", "red", ""),
            MetaKind::UserDefined,
        );
        let planned = f.m.query(&q).unwrap();
        let scanned = f.m.query_scan(&q).unwrap();
        prop_assert_eq!(&planned, &scanned);
        prop_assert!(f.datasets.len() < f.m.datasets.count());

        // The mutation invalidated every outstanding cursor: resuming is
        // a clean `Invalid` error (client restarts), never a wrong page.
        if let Some(t) = outstanding {
            prop_assert!(matches!(
                f.m.query_page(&q, Some(&t), 1),
                Err(srb_types::SrbError::Invalid(_))
            ));
        }
    }
}

/// The planner and the scan on `q`, plus the concatenation of
/// `query_page` pages of `page` — all three must agree; returns the hit
/// names.
fn engines_agree(m: &Mcat, q: &Query, page: usize) -> Vec<String> {
    let planned = m.query(q).unwrap();
    assert_eq!(planned, m.query_scan(q).unwrap(), "planner vs scan: {q:?}");
    assert_eq!(all_pages(m, q, page), planned, "pages vs one shot: {q:?}");
    planned
        .iter()
        .map(|h| h.path.rsplit('/').next().unwrap().to_string())
        .collect()
}

/// Two-sided ranges fold into one interval walk; conjunctive semantics
/// stay per condition, so a dataset carrying several rows of the attribute
/// may satisfy the two halves with *different* rows. Each case below is
/// one the interval walk alone gets wrong or panics on.
#[test]
fn two_sided_ranges_keep_per_condition_semantics_on_multi_valued_attributes() {
    // d0 {0, 2} · d1 {1} · d2 {2} · d3 {3, "blue"} · d4 {"red"} · d5 {}
    let rows: [&[MetaValue]; 6] = [
        &[MetaValue::Int(0), MetaValue::Int(2)],
        &[MetaValue::Int(1)],
        &[MetaValue::Int(2)],
        &[MetaValue::Int(3), MetaValue::Text("blue".into())],
        &[MetaValue::Text("red".into())],
        &[],
    ];
    let f = build(&[], &[], &[(0, 1); 6], &[], &[]);
    let mut ids = Vec::new();
    for (d, values) in rows.iter().enumerate() {
        for v in *values {
            ids.push(f.m.metadata.add(
                &f.m.ids,
                Subject::Dataset(f.datasets[d]),
                Triplet::new("rating", v.clone(), ""),
                MetaKind::UserDefined,
            ));
        }
    }
    let range = |conds: &[(CompareOp, MetaValue)]| {
        let mut q = Query::everywhere();
        for (op, v) in conds {
            q = q.and("rating", *op, v.clone());
        }
        q
    };
    use CompareOp::{Ge, Gt, Le, Lt};
    let int = MetaValue::Int;
    let text = |s: &str| MetaValue::Text(s.into());
    type Case<'a> = (&'a [(CompareOp, MetaValue)], &'a [&'a str]);
    let cases: [Case<'_>; 7] = [
        // Inverted interval: only different rows of d0 can satisfy it.
        (&[(Ge, int(2)), (Lt, int(1))], &["d0"]),
        // Empty-excluded interval: `BTreeMap::range` would panic on it.
        (&[(Gt, int(1)), (Lt, int(1))], &["d0"]),
        // A single point, both ends included (d0 straddles it).
        (&[(Ge, int(1)), (Le, int(1))], &["d0", "d1"]),
        // The looser lower bound comes first; the tighter one must win.
        (&[(Ge, int(0)), (Ge, int(2)), (Lt, int(3))], &["d0", "d2"]),
        // A text bound never admits a numeric row, and vice versa…
        (&[(Ge, text("a")), (Lt, int(5))], &["d3"]),
        (&[(Ge, int(1)), (Lt, text("zzz"))], &["d3"]),
        // …while an all-text window is an ordinary interval.
        (&[(Gt, text("blue")), (Le, text("red"))], &["d4"]),
    ];
    for (conds, want) in &cases {
        assert_eq!(engines_agree(&f.m, &range(conds), 2), *want, "{conds:?}");
    }

    // Back down to one row, d0 stops matching and leaves the probed set
    // (an inverted interval's estimate is exactly that set's size).
    let inverted = [(Ge, &MetaValue::Int(2)), (Lt, &MetaValue::Int(1))];
    assert_eq!(f.m.metadata.interval_selectivity("rating", &inverted), 2);
    f.m.metadata.remove(ids[1]).unwrap();
    assert_eq!(f.m.metadata.interval_selectivity("rating", &inverted), 1);
    assert!(engines_agree(&f.m, &range(&[(Ge, int(2)), (Lt, int(1))]), 2).is_empty());
    assert_eq!(
        engines_agree(&f.m, &range(&[(Ge, int(0)), (Lt, int(1))]), 2),
        ["d0"]
    );
    f.m.metadata.remove_all(Subject::Dataset(f.datasets[3]));
    assert_eq!(f.m.metadata.interval_selectivity("rating", &inverted), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two to three range conditions forced onto one attribute, over
    /// catalogs where any dataset may carry several rows of it.
    #[test]
    fn interval_sources_agree_with_scan_on_multi_valued_attributes(
        coll_parents in prop::collection::vec(0u8..4, 0..4),
        ds_specs in prop::collection::vec((0u8..4, 0u16..200), 1..12),
        ranged in prop::collection::vec((0u8..12, 0u8..VALUES), 0..30),
        other in prop::collection::vec((0u8..12, 0u8..4, 0u8..VALUES), 0..10),
        attr in 1u8..3,
        lower in (2u8..4, 0u8..VALUES),
        upper in (4u8..6, 0u8..VALUES),
        third in prop::collection::vec((2u8..6, 0u8..VALUES), 0..2),
        extra in prop::collection::vec((0u8..6, 0u8..8, 0u8..VALUES), 0..2),
        rotate in 0usize..4,
        scope_idx in 0u8..5,
        flags in 0u8..4,
    ) {
        let meta: Vec<(u8, u8, u8)> = ranged
            .iter()
            .map(|(d, v)| (*d, attr, *v))
            .chain(other.iter().copied())
            .collect();
        let f = build(&coll_parents, &[], &ds_specs, &meta, &[]);
        let mut conds: Vec<(u8, u8, u8)> = [lower, upper]
            .iter()
            .chain(&third)
            .map(|(op, v)| (attr, *op, *v))
            .chain(extra.iter().copied())
            .collect();
        let n = conds.len();
        conds.rotate_left(rotate % n);
        let q = build_query(&f, scope_idx, &conds, flags, 0);
        engines_agree(&f.m, &q, 2);
    }
}

/// Deterministic large-sweep check: more than 1024 candidates reach the
/// verification sweep, half of them outside the query's scope, and a
/// residual (`include_system`) condition forces per-candidate verification
/// rather than a pure index answer. Ordered, paged and unordered-limited
/// forms are all pinned against `query_scan`.
#[test]
fn large_sweep_agrees_with_scan() {
    let f = build(&[0], &[], &[], &[], &[]);
    let (m, root, side) = (&f.m, f.colls[0], f.colls[1]);
    let admin = m.admin();
    let now = m.clock.now();
    for i in 0..6000u32 {
        let replica = (
            AccessSpec::Stored {
                resource: ResourceId(1),
                phys_path: format!("/p/{i}"),
            },
            u64::from(i % 700),
            None,
        );
        let coll = if i % 4 == 0 { root } else { side };
        let d = m
            .datasets
            .create(
                &m.ids,
                coll,
                &format!("d{i}"),
                "generic",
                admin,
                vec![replica],
                now,
            )
            .unwrap();
        m.metadata.add(
            &m.ids,
            Subject::Dataset(d),
            Triplet::new("kind", MetaValue::Int(i64::from(i % 2)), ""),
            MetaKind::UserDefined,
        );
    }
    // 3000 candidates from the index (fewer than the 4500 datasets under
    // /c0, so the plan stays indexed), 1500 of them in scope; residual
    // `size` check per candidate.
    let q = Query::everywhere()
        .under(m.collections.get(side).unwrap().path)
        .and("kind", CompareOp::Eq, 0i64)
        .and("size", CompareOp::Lt, 650i64)
        .with_system();
    let planned = m.query(&q).unwrap();
    assert!(planned.len() > 1024, "{} hits", planned.len());
    engines_agree(m, &q, 500);
}

/// A selective window beside an `=` on a large partition: the window
/// drives the plan and the `=` is applied as a probe of its survivors.
/// The partition mixes every value kind, with values equal across kinds
/// (`1`, `1.0`, `"1"`, `"1.0"`), text equal but for case, and collection
/// rows filed under the same keys; for each kind of probed value the hits
/// equal the scan's.
#[test]
fn eq_probe_beside_a_window_agrees_with_scan_for_every_value_kind() {
    let kinds = [
        MetaValue::Int(1),
        MetaValue::Float(1.0),
        MetaValue::Text("1".into()),
        MetaValue::Text("1.0".into()),
        MetaValue::Float(2.5),
        MetaValue::Text("red".into()),
        MetaValue::Text("Red".into()),
        MetaValue::Int(3),
    ];
    let f = build(&[0], &[], &[(0, 1); 1600], &[], &[]);
    for (i, &d) in f.datasets.iter().enumerate() {
        for (attr, value) in [
            ("kind", kinds[i % kinds.len()].clone()),
            ("score", MetaValue::Int(i as i64 % 397)),
        ] {
            f.m.metadata.add(
                &f.m.ids,
                Subject::Dataset(d),
                Triplet::new(attr, value, ""),
                MetaKind::UserDefined,
            );
        }
    }
    for (i, value) in kinds.iter().enumerate() {
        f.m.metadata.add(
            &f.m.ids,
            Subject::Collection(f.colls[i % f.colls.len()]),
            Triplet::new("kind", value.clone(), ""),
            MetaKind::UserDefined,
        );
    }
    let window = [
        (CompareOp::Ge, &MetaValue::Int(40)),
        (CompareOp::Lt, &MetaValue::Int(43)),
    ];
    let window_cost = f.m.metadata.interval_selectivity("score", &window);
    for probe in kinds.iter().chain(&[MetaValue::Text("absent".into())]) {
        // The planner probes a source whose estimate exceeds 4× the
        // running set: the window's 12 rows against this partition.
        let partition = f.m.metadata.selectivity("kind", CompareOp::Eq, probe);
        if *probe != MetaValue::Text("absent".into()) {
            assert!(
                partition > 4 * window_cost,
                "{probe:?}: {partition} vs {window_cost}"
            );
        }
        let q = Query::everywhere()
            .and("kind", CompareOp::Eq, probe.clone())
            .and("score", CompareOp::Ge, 40i64)
            .and("score", CompareOp::Lt, 43i64);
        engines_agree(&f.m, &q, 7);
    }
}

/// Sibling collections whose names differ only after a shared stem
/// (`b`, `b c`, `b-c`, `b.d`) and dataset names holding ` ` and `-`: the
/// path order is full-string byte order (` ` < `-` < `.` < `/`), not
/// (collection, name) order. Concatenated pages equal the one-shot query,
/// which equals the sorted full paths, with and without an index source.
#[test]
fn pages_follow_full_path_order_across_sibling_collections() {
    let m = Mcat::new(SimClock::new(), "pw");
    let admin = m.admin();
    let now = m.clock.now();
    let root = m.collections.root();
    let p = m.collections.create(&m.ids, root, "p", admin, now).unwrap();
    let mut colls = vec![p];
    for name in ["b", "b-c", "b c", "b.d"] {
        colls.push(m.collections.create(&m.ids, p, name, admin, now).unwrap());
    }
    colls.push(
        m.collections
            .create(&m.ids, colls[1], "c", admin, now)
            .unwrap(),
    );
    let mut want = Vec::new();
    for &c in &colls {
        let dir = m.collections.get(c).unwrap().path.to_string();
        for name in ["c", "c d", "c-d", "b", "b c", "b-c", "a.z"] {
            let d = m
                .datasets
                .create(&m.ids, c, name, "generic", admin, vec![], now)
                .unwrap();
            m.metadata.add(
                &m.ids,
                Subject::Dataset(d),
                Triplet::new("tag", "t", ""),
                MetaKind::UserDefined,
            );
            want.push(format!("{}/{name}", dir.trim_end_matches('/')));
        }
    }
    want.sort();
    let scope = m.collections.get(p).unwrap().path;
    for q in [
        Query::everywhere().under(scope.clone()),
        Query::everywhere()
            .under(scope)
            .and("tag", CompareOp::Eq, "t"),
    ] {
        let one_shot: Vec<String> = m.query(&q).unwrap().into_iter().map(|h| h.path).collect();
        assert_eq!(one_shot, want, "{q:?}");
        for page in [1, 2, 3, 5] {
            engines_agree(&m, &q, page);
        }
    }
}

// ------------------------------------------------------ recovery cursors --
//
// Continuation tokens embed the collection/dataset/metadata generation
// stamps, and the WAL persists those stamps. A token minted before a crash
// must therefore either resume exactly (the recovered catalog proves the
// same generations) or fail with `SrbError::Invalid` (the generations
// diverged) — it must never silently skip or duplicate rows.

fn durable_catalog(n: usize) -> (Mcat, std::sync::Arc<srb_storage::LogDevice>) {
    use srb_mcat::WalConfig;
    let clock = SimClock::new();
    let m = Mcat::new(clock.clone(), "pw");
    let device = std::sync::Arc::new(srb_storage::LogDevice::new());
    m.enable_wal(
        device.clone(),
        WalConfig {
            checkpoint_interval_ns: 0,
        },
        None,
    )
    .unwrap();
    let root = m.collections.root();
    let admin = m.admin();
    for i in 0..n {
        let replica = (
            AccessSpec::Stored {
                resource: ResourceId(1),
                phys_path: format!("/p/{i}"),
            },
            10,
            None,
        );
        let d = m
            .datasets
            .create(
                &m.ids,
                root,
                &format!("d{i:03}"),
                "generic",
                admin,
                vec![replica],
                clock.now(),
            )
            .unwrap();
        m.metadata.add(
            &m.ids,
            Subject::Dataset(d),
            Triplet::new("tag", "x", ""),
            MetaKind::UserDefined,
        );
        m.commit();
    }
    (m, device)
}

#[test]
fn cursor_minted_before_crash_resumes_exactly_after_recovery() {
    use srb_mcat::WalConfig;
    let (m, device) = durable_catalog(25);
    let q = Query::everywhere().and("tag", CompareOp::Eq, "x");
    let (page1, token) = m.query_page(&q, None, 10).unwrap();
    let token = token.expect("more pages");
    let (page2_ref, _) = m.query_page(&q, Some(&token), 10).unwrap();
    drop(m);

    // Everything above was acknowledged; the crash loses only buffers.
    device.crash();
    let (rec, _) = Mcat::recover(
        SimClock::new(),
        device,
        WalConfig {
            checkpoint_interval_ns: 0,
        },
        None,
    )
    .unwrap();

    // The recovered catalog proves the same generation stamps, so the
    // pre-crash token resumes with neither a skip nor a duplicate.
    let (page2, token2) = rec.query_page(&q, Some(&token), 10).unwrap();
    assert_eq!(
        page2.iter().map(|h| h.dataset).collect::<Vec<_>>(),
        page2_ref.iter().map(|h| h.dataset).collect::<Vec<_>>()
    );
    let (page3, end) = rec.query_page(&q, token2.as_deref(), 10).unwrap();
    assert!(end.is_none());
    let mut all: Vec<DatasetId> = page1
        .iter()
        .chain(&page2)
        .chain(&page3)
        .map(|h| h.dataset)
        .collect();
    assert_eq!(
        all.len(),
        25,
        "no row skipped or duplicated across the crash"
    );
    all.dedup();
    assert_eq!(all.len(), 25);
}

#[test]
fn cursor_spanning_lost_work_is_invalidated_not_wrong() {
    use srb_mcat::WalConfig;
    use srb_types::{Lsn, SrbError};
    let cfg = WalConfig {
        checkpoint_interval_ns: 0,
    };
    let (m, device) = durable_catalog(12);
    let q = Query::everywhere().and("tag", CompareOp::Eq, "x");

    // Remember where the log stood, then mutate and mint a token that
    // embeds the post-mutation generations.
    let durable_before = m.wal().unwrap().durable_lsn();
    let root = m.collections.root();
    let admin = m.admin();
    m.datasets
        .create(
            &m.ids,
            root,
            "late.dat",
            "generic",
            admin,
            vec![(
                AccessSpec::Stored {
                    resource: ResourceId(1),
                    phys_path: "/p/late".into(),
                },
                10,
                None,
            )],
            srb_types::Timestamp(1),
        )
        .unwrap();
    let (_, token) = m.query_page(&q, None, 5).unwrap();
    let token = token.expect("more pages");
    drop(m);

    // The disk only got as far as `durable_before`: the late mutation is
    // lost. The token now comes "from the future" of the recovered
    // catalog — resuming it could silently skip rows, so it must die.
    device.truncate_after(Lsn(durable_before.raw()));
    let (rec, _) = Mcat::recover(SimClock::new(), device, cfg, None).unwrap();
    match rec.query_page(&q, Some(&token), 5) {
        Err(SrbError::Invalid(_)) => {}
        Err(e) => panic!("expected Invalid, got {e:?}"),
        Ok(_) => panic!("a future-generation cursor must not resume"),
    }

    // A token minted on the recovered catalog dies on the *next* recovered
    // catalog after further mutations — same rule, post-recovery.
    let (_, t2) = rec.query_page(&q, None, 5).unwrap();
    let t2 = t2.expect("more pages");
    rec.datasets
        .create(
            &rec.ids,
            rec.collections.root(),
            "after.dat",
            "generic",
            rec.admin(),
            vec![(
                AccessSpec::Stored {
                    resource: ResourceId(1),
                    phys_path: "/p/after".into(),
                },
                10,
                None,
            )],
            srb_types::Timestamp(2),
        )
        .unwrap();
    match rec.query_page(&q, Some(&t2), 5) {
        Err(SrbError::Invalid(_)) => {}
        Err(e) => panic!("expected Invalid, got {e:?}"),
        Ok(_) => panic!("a stale cursor must not resume"),
    }
}
