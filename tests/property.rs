//! Property-based tests over core invariants, spanning crates.

use proptest::prelude::*;
use srb_grid::prelude::*;
use srb_grid::types::value::like_match;
use srb_grid::types::{sha256, Sha256};

fn component_strategy() -> impl Strategy<Value = String> {
    // Printable names without '/', '\0', or edge whitespace.
    "[a-zA-Z0-9][a-zA-Z0-9 _.-]{0,14}[a-zA-Z0-9]"
        .prop_map(|s| s)
        .prop_filter("no trailing space", |s| s.trim() == s)
}

proptest! {
    #[test]
    fn logical_path_parse_display_round_trip(
        parts in prop::collection::vec(component_strategy(), 0..6)
    ) {
        let joined = format!("/{}", parts.join("/"));
        let p = LogicalPath::parse(&joined).unwrap();
        prop_assert_eq!(p.depth(), parts.len());
        let reparsed = LogicalPath::parse(&p.to_string()).unwrap();
        prop_assert_eq!(&reparsed, &p);
        // parent/child are inverses along the whole chain.
        let mut cur = p.clone();
        for _ in 0..p.depth() {
            let name = cur.name().unwrap().to_string();
            let parent = cur.parent().unwrap();
            prop_assert_eq!(parent.child(&name).unwrap(), cur);
            cur = parent;
        }
        prop_assert!(cur.is_root());
    }

    #[test]
    fn rebase_preserves_suffix(
        base in prop::collection::vec(component_strategy(), 1..4),
        suffix in prop::collection::vec(component_strategy(), 0..4),
        target in prop::collection::vec(component_strategy(), 0..4),
    ) {
        let from = LogicalPath::parse(&format!("/{}", base.join("/"))).unwrap();
        let mut full = from.clone();
        for s in &suffix {
            full = full.child(s).unwrap();
        }
        let to = LogicalPath::parse(&format!("/{}", target.join("/"))).unwrap();
        let rebased = full.rebase(&from, &to).unwrap();
        prop_assert!(rebased.starts_with(&to));
        prop_assert_eq!(rebased.depth(), to.depth() + suffix.len());
    }

    #[test]
    fn like_match_agrees_with_naive_model(
        text in "[a-c]{0,8}",
        pattern in "[a-c%_]{0,6}",
    ) {
        // Naive exponential matcher as the model.
        fn model(p: &[u8], t: &[u8]) -> bool {
            match (p.first(), t.first()) {
                (None, None) => true,
                (None, Some(_)) => false,
                (Some(b'%'), _) => {
                    model(&p[1..], t) || (!t.is_empty() && model(p, &t[1..]))
                }
                (Some(b'_'), Some(_)) => model(&p[1..], &t[1..]),
                (Some(a), Some(b)) if a == b => model(&p[1..], &t[1..]),
                _ => false,
            }
        }
        prop_assert_eq!(
            like_match(&pattern, &text),
            model(pattern.as_bytes(), text.as_bytes()),
            "pattern={} text={}", pattern, text
        );
    }

    #[test]
    fn sha256_streaming_equals_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn metavalue_index_order_is_total_and_antisymmetric(
        a in "[a-z0-9.]{1,6}",
        b in "[a-z0-9.]{1,6}",
        c in "[a-z0-9.]{1,6}",
    ) {
        use std::cmp::Ordering;
        let (va, vb, vc) = (MetaValue::parse(&a), MetaValue::parse(&b), MetaValue::parse(&c));
        // Antisymmetry.
        prop_assert_eq!(va.index_cmp(&vb), vb.index_cmp(&va).reverse());
        // Transitivity (spot form): a<=b && b<=c => a<=c.
        if va.index_cmp(&vb) != Ordering::Greater && vb.index_cmp(&vc) != Ordering::Greater {
            prop_assert_ne!(va.index_cmp(&vc), Ordering::Greater);
        }
    }

    #[test]
    fn compare_op_eq_ne_duality(
        a in "[a-z0-9]{1,5}",
        b in "[a-z0-9]{1,5}",
    ) {
        let (va, vb) = (MetaValue::parse(&a), MetaValue::parse(&b));
        prop_assert_eq!(CompareOp::Eq.eval(&va, &vb), !CompareOp::Ne.eval(&va, &vb));
        prop_assert!(CompareOp::Ge.eval(&va, &va));
        prop_assert!(CompareOp::Le.eval(&va, &va));
        prop_assert!(!CompareOp::Gt.eval(&va, &va));
    }
}

// Build a random catalog, then check the indexed query path returns
// exactly the same hits as the full-scan baseline (ablation soundness).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn indexed_query_equals_scan_on_random_catalogs(
        values in prop::collection::vec(0i64..20, 10..60),
        threshold in 0i64..20,
    ) {
        let mut gb = GridBuilder::new();
        let site = gb.site("s");
        let srv = gb.server("srv", site);
        gb.fs_resource("fs", srv);
        let grid = gb.build();
        grid.register_user("u", "d", "pw").unwrap();
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        for (i, v) in values.iter().enumerate() {
            conn.ingest(
                &format!("/home/u/f{i}"),
                b"x",
                IngestOptions::to_resource("fs")
                    .with_metadata(Triplet::new("v", *v, "")),
            ).unwrap();
        }
        for op in [CompareOp::Eq, CompareOp::Gt, CompareOp::Le, CompareOp::Ne] {
            let q = Query::everywhere().and("v", op, threshold).show("v");
            let (indexed, _) = conn.query(&q).unwrap();
            let (scanned, _) = conn.query_scan(&q).unwrap();
            prop_assert_eq!(&indexed, &scanned, "op {:?}", op);
            let expected = values.iter().filter(|v| {
                op.eval(&MetaValue::Int(**v), &MetaValue::Int(threshold))
            }).count();
            prop_assert_eq!(indexed.len(), expected, "op {:?}", op);
        }
    }

    /// Replica invariant: after any interleaving of writes and replicate
    /// operations, all up-to-date replicas carry identical checksums.
    #[test]
    fn replicas_stay_consistent(
        writes in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..8),
    ) {
        let mut gb = GridBuilder::new();
        let site = gb.site("s");
        let srv = gb.server("srv", site);
        gb.fs_resource("fs1", srv).fs_resource("fs2", srv).fs_resource("fs3", srv);
        let grid = gb.build();
        grid.register_user("u", "d", "pw").unwrap();
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        conn.ingest("/home/u/f", b"seed", IngestOptions::to_resource("fs1")).unwrap();
        conn.replicate("/home/u/f", "fs2").unwrap();
        for (i, w) in writes.iter().enumerate() {
            conn.write("/home/u/f", w).unwrap();
            if i == writes.len() / 2 {
                conn.replicate("/home/u/f", "fs3").unwrap();
            }
        }
        let ds = grid.mcat.resolve_dataset(&LogicalPath::parse("/home/u/f").unwrap()).unwrap();
        let ds = grid.mcat.datasets.get(ds).unwrap();
        let checksums: Vec<_> = ds.replicas.iter()
            .filter_map(|r| r.checksum)
            .collect();
        prop_assert!(!checksums.is_empty());
        prop_assert!(checksums.windows(2).all(|w| w[0] == w[1]),
            "replica checksums diverged: {:?}", checksums);
        // And the data read back equals the last write.
        let (data, _) = conn.read("/home/u/f").unwrap();
        prop_assert_eq!(&data[..], &writes.last().unwrap()[..]);
    }

    /// Cache driver invariant: usage never exceeds capacity, whatever the
    /// insertion sequence.
    #[test]
    fn cache_usage_bounded_by_capacity(
        sizes in prop::collection::vec(1usize..40, 1..40),
    ) {
        use srb_grid::storage::{CacheDriver, StorageDriver};
        use srb_grid::types::SimClock;
        let cache = CacheDriver::new(SimClock::new(), 100);
        for (i, s) in sizes.iter().enumerate() {
            let _ = cache.create(&format!("o{i}"), &vec![0u8; *s]);
            prop_assert!(cache.used_bytes() <= 100,
                "cache over capacity: {}", cache.used_bytes());
        }
    }
}

// Grid state save/restore: a random sequence of ingests, writes and
// metadata ops must survive a save/restore cycle byte-for-byte.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn grid_state_round_trip_under_random_ops(
        files in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..48), 0i64..100),
            1..12,
        ),
    ) {
        fn build() -> Grid {
            let mut gb = GridBuilder::new();
            let site = gb.site("s");
            let srv = gb.server("srv", site);
            gb.fs_resource("fs", srv).archive_resource("tape", srv);
            gb.build()
        }
        let grid = build();
        grid.register_user("u", "d", "pw").unwrap();
        let srv = grid.servers()[0].id;
        let conn = SrbConnection::connect(&grid, srv, "u", "d", "pw").unwrap();
        for (i, (data, score)) in files.iter().enumerate() {
            conn.ingest(
                &format!("/home/u/f{i}"),
                data,
                IngestOptions::to_resource(if i % 2 == 0 { "fs" } else { "tape" })
                    .with_metadata(Triplet::new("score", *score, "")),
            ).unwrap();
        }
        let saved = grid.save_state().unwrap();
        let mut grid2 = build();
        grid2.restore_state(&saved).unwrap();
        let srv2 = grid2.servers()[0].id;
        let conn2 = SrbConnection::connect(&grid2, srv2, "u", "d", "pw").unwrap();
        for (i, (data, score)) in files.iter().enumerate() {
            let (got, _) = conn2.read(&format!("/home/u/f{i}")).unwrap();
            prop_assert_eq!(&got[..], &data[..]);
            let rows = conn2.metadata(&format!("/home/u/f{i}")).unwrap();
            prop_assert_eq!(rows[0].triplet.value.clone(), MetaValue::Int(*score));
        }
        // Queries over the restored index agree with a scan.
        let q = Query::everywhere().and("score", CompareOp::Ge, 50i64);
        let (a, _) = conn2.query(&q).unwrap();
        let (b, _) = conn2.query_scan(&q).unwrap();
        prop_assert_eq!(a, b);
    }
}
