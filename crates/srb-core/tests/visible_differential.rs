//! Differential test for the query permission filter: the per-page filter
//! (`SrbConnection::visible` over `Mcat::effective_on_datasets` — groups
//! once, own ACLs from borrowed rows, one inherited level per distinct
//! collection) must keep exactly the hits
//! the per-hit reference `effective_on_dataset(..).allows(Read)` keeps, on
//! a page mixing every way a hit can be readable or not.

mod common;

use common::{connect, grid};
use srb_core::{IngestOptions, SrbConnection};
use srb_mcat::{Query, QueryHit};
use srb_types::{CompareOp, LogicalPath, Permission, Triplet, UserId};

fn put(conn: &SrbConnection<'_>, path: &str) {
    conn.ingest(
        path,
        b"x",
        IngestOptions::to_resource("unix-sdsc").with_metadata(Triplet::new("tag", "x", "")),
    )
    .unwrap();
}

fn paths(hits: &[QueryHit]) -> Vec<&str> {
    hits.iter().map(|h| h.path.as_str()).collect()
}

#[test]
fn batched_filter_equals_per_hit_reference() {
    let f = grid();
    let sekar = connect(&f, "sekar");
    let mwan = connect(&f, "mwan");
    let reader: UserId = mwan.user();

    // Ancestor-collection grant: readable two levels down.
    sekar.make_collection("/home/sekar/open/deep").unwrap();
    sekar
        .grant("/home/sekar/open", reader, Permission::Read)
        .unwrap();
    put(&sekar, "/home/sekar/open/deep/inherited");
    // No collection grant: each row stands on its own ACL.
    sekar.make_collection("/home/sekar/priv").unwrap();
    for name in ["by_user", "by_group", "denied"] {
        put(&sekar, &format!("/home/sekar/priv/{name}"));
    }
    sekar
        .grant("/home/sekar/priv/by_user", reader, Permission::Read)
        .unwrap();
    let curators = sekar.create_group("curators").unwrap();
    sekar.add_to_group(curators, reader).unwrap();
    sekar
        .grant_group("/home/sekar/priv/by_group", curators, Permission::Read)
        .unwrap();
    // Links: the target's ACL governs, not the link's own collection.
    sekar.make_collection("/home/sekar/lockbox").unwrap();
    sekar
        .link(
            "/home/sekar/open/deep/inherited",
            "/home/sekar/lockbox/to_open",
        )
        .unwrap();
    sekar
        .link("/home/sekar/priv/denied", "/home/sekar/open/to_denied")
        .unwrap();

    let mcat = &f.grid.mcat;
    let reference = |hits: Vec<QueryHit>| -> Vec<QueryHit> {
        hits.into_iter()
            .filter(|h| {
                mcat.effective_on_dataset(Some(reader), h.dataset)
                    .is_ok_and(|p| p.allows(Permission::Read))
            })
            .collect()
    };
    let scope = LogicalPath::parse("/home/sekar").unwrap();
    // No condition lists every object in scope, link objects included;
    // the tagged query reaches the rows through the metadata index.
    let everything = Query::everywhere().under(scope.clone());
    let tagged = everything.clone().and("tag", CompareOp::Eq, "x");

    let want = reference(mcat.query(&everything).unwrap());
    assert_eq!(
        paths(&want),
        [
            "/home/sekar/lockbox/to_open",
            "/home/sekar/open/deep/inherited",
            "/home/sekar/priv/by_group",
            "/home/sekar/priv/by_user",
        ],
        "the fixture covers user, group, ancestor and link grants, and both denials"
    );

    for q in [&everything, &tagged] {
        let unfiltered = mcat.query(q).unwrap();
        let want = reference(unfiltered.clone());
        assert!(want.len() < unfiltered.len(), "something is filtered out");
        assert_eq!(mwan.query(q).unwrap().0, want);
        assert_eq!(mwan.query_scan(q).unwrap().0, want);
        // Pages of three span several collections each.
        let mut paged = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let (hits, next, _) = mwan.query_page(q, token.as_deref(), 3).unwrap();
            paged.extend(hits);
            match next {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        assert_eq!(paged, want);
        // The owner sees every hit through the same filter.
        assert_eq!(sekar.query(q).unwrap().0, unfiltered);
    }
}
