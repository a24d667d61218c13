//! Heap allocations per catalog read, counted exactly: a counting global
//! allocator wraps `System`, and each of a first and a resumed range page,
//! a conjunctive query, a point query and a listing page must stay within
//! the cap recorded for it. The counts are single-threaded and
//! deterministic, so they hold on any host and in debug and release alike.
//!
//! This file holds one test so no other test thread allocates while a
//! read is counted.

use srb_mcat::{AccessSpec, Mcat, MetaKind, Query, Subject};
use srb_types::alloc::{count, Counting};
use srb_types::{splitmix64, CompareOp, LogicalPath, ResourceId, SimClock, Triplet};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Datasets in the fixture.
const N: usize = 5_000;
const KINDS: [&str; 3] = ["image", "text", "movie"];

/// The most allocator calls each read may make: first range page, resumed
/// range page, conjunctive query, point query, listing page. Most of what
/// is left is one path `String` per hit served.
const CAPS: [(&str, u64); 5] = [
    ("range page", 51),
    ("resumed range page", 53),
    ("conjunctive", 79),
    ("point", 8),
    ("list page", 205),
];

#[test]
fn catalog_reads_stay_within_their_allocation_caps() {
    let m = Mcat::new(SimClock::new(), "pw");
    let (admin, now) = (m.admin(), m.clock.now());
    let coll = m
        .collections
        .create(&m.ids, m.collections.root(), "data", admin, now)
        .unwrap();
    for k in 0..N {
        let replica = (
            AccessSpec::Stored {
                resource: ResourceId(1),
                phys_path: format!("/p/{k}"),
            },
            256,
            None,
        );
        let d = m
            .datasets
            .create(
                &m.ids,
                coll,
                &format!("obj{k:07}"),
                "generic",
                admin,
                vec![replica],
                now,
            )
            .unwrap();
        let subject = Subject::Dataset(d);
        m.metadata.add_batch(
            &m.ids,
            [
                Triplet::new("serial", k as i64, ""),
                Triplet::new("kind", KINDS[k % 3], ""),
                Triplet::new("score", (splitmix64(1, k as u64) % 1000) as i64, ""),
            ]
            .map(|t| (subject, t, MetaKind::UserDefined)),
        );
    }
    let scoped = || Query::everywhere().under(LogicalPath::parse("/data").unwrap());
    // A 100-row window, 25 rows a page.
    let range =
        scoped()
            .and("serial", CompareOp::Ge, 1000i64)
            .and("serial", CompareOp::Lt, 1100i64);
    // `kind = text` is probed against a ~125-row score window.
    let conj = scoped()
        .and("kind", CompareOp::Eq, "text")
        .and("score", CompareOp::Ge, 400i64)
        .and("score", CompareOp::Lt, 425i64);
    let point = scoped().and("serial", CompareOp::Eq, 1234i64);

    let reads = || {
        let (calls_first, (first, token)) = count(|| m.query_page(&range, None, 25).unwrap());
        assert_eq!(first.len(), 25);
        let token = token.expect("more pages");
        let (calls_resumed, (second, _)) =
            count(|| m.query_page(&range, Some(&token), 25).unwrap());
        assert_eq!(second.len(), 25);
        assert!(second[0].path > first[24].path);
        let (calls_conj, hits) = count(|| m.query(&conj).unwrap());
        assert!(hits.len() > 20, "{} conjunctive hits", hits.len());
        let (calls_point, hits) = count(|| m.query(&point).unwrap());
        assert_eq!(hits.len(), 1);
        let (calls_list, (_, entries, _)) = count(|| m.list_page(coll, None, 100).unwrap());
        assert_eq!(entries.len(), 100);
        [
            calls_first,
            calls_resumed,
            calls_conj,
            calls_point,
            calls_list,
        ]
    };
    // Warm up first-use caches (the scope cache), then count twice: the
    // counts repeat exactly.
    reads();
    let counts = reads();
    assert_eq!(reads(), counts, "allocation counts repeat");
    let over: Vec<String> = CAPS
        .iter()
        .zip(counts)
        .filter(|((_, cap), calls)| calls > cap)
        .map(|((name, cap), calls)| format!("{name}: {calls} allocator calls > cap {cap}"))
        .collect();
    let all: Vec<String> = CAPS
        .iter()
        .zip(counts)
        .map(|((name, _), calls)| format!("{name} {calls}"))
        .collect();
    assert!(
        over.is_empty(),
        "{} (all: {})",
        over.join("; "),
        all.join(", ")
    );
}
