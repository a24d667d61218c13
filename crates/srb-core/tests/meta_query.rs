//! Metadata handling and query — including the paper's "Avian Culture"
//! curator scenario end to end.

mod common;

use common::{connect, grid};
use srb_core::{IngestOptions, RegisterSpec};
use srb_mcat::{AnnotationKind, AttrRequirement, MetaKind, Query};
use srb_types::{CompareOp, LogicalPath, Permission, SrbError, Triplet};

#[test]
fn metadata_requires_ownership_annotations_require_read() {
    let f = grid();
    let sekar = connect(&f, "sekar");
    let mwan = connect(&f, "mwan");
    sekar
        .ingest(
            "/home/sekar/obj",
            b"x",
            IngestOptions::to_resource("unix-sdsc"),
        )
        .unwrap();
    sekar
        .grant("/home/sekar/obj", mwan.user(), Permission::Read)
        .unwrap();
    // Reader cannot attach user-defined metadata…
    assert!(matches!(
        mwan.add_metadata("/home/sekar/obj", Triplet::new("k", "v", "")),
        Err(SrbError::PermissionDenied(_))
    ));
    // …but can annotate (paper: "any user with a read permission").
    mwan.annotate(
        "/home/sekar/obj",
        AnnotationKind::Rating,
        "overall",
        "4 stars",
    )
    .unwrap();
    let notes = sekar.annotations("/home/sekar/obj").unwrap();
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].author, mwan.user());
    // Only the author may delete their annotation.
    assert!(sekar.delete_annotation(notes[0].id).is_err());
    mwan.delete_annotation(notes[0].id).unwrap();
}

#[test]
fn metadata_crud_and_copy() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/a",
        b"x",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/b",
        b"y",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.add_metadata("/home/sekar/a", Triplet::new("species", "condor", ""))
        .unwrap();
    conn.add_metadata("/home/sekar/a", Triplet::new("wingspan", 290, "cm"))
        .unwrap();
    let rows = conn.metadata("/home/sekar/a").unwrap();
    assert_eq!(rows.len(), 2);
    // Update one row.
    let wing = rows.iter().find(|r| r.triplet.name == "wingspan").unwrap();
    conn.update_metadata("/home/sekar/a", wing.id, 300i64.into(), "cm")
        .unwrap();
    // Copy to b (method 3 of the paper's four ingestion ways).
    let n = conn
        .copy_metadata("/home/sekar/a", "/home/sekar/b")
        .unwrap();
    assert_eq!(n, 2);
    assert_eq!(conn.metadata("/home/sekar/b").unwrap().len(), 2);
    // Delete a row.
    conn.delete_metadata("/home/sekar/a", wing.id).unwrap();
    assert_eq!(conn.metadata("/home/sekar/a").unwrap().len(), 1);
}

#[test]
fn dublin_core_schema_metadata() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/art",
        b"x",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.add_schema_metadata(
        "/home/sekar/art",
        "DublinCore",
        Triplet::new("Title", "Avian Culture Notes", ""),
    )
    .unwrap();
    assert!(conn
        .add_schema_metadata(
            "/home/sekar/art",
            "DublinCore",
            Triplet::new("NotAnElement", "x", ""),
        )
        .is_err());
    let rows = conn.metadata("/home/sekar/art").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].kind, MetaKind::TypeOriented("DublinCore".into()));
}

#[test]
fn extraction_from_object_and_from_header_file() {
    let f = grid();
    let conn = connect(&f, "sekar");
    // FITS-like file: extract from the object itself (paper: "eg. FITS
    // files, HTML files").
    conn.ingest(
        "/home/sekar/m31.fits",
        b"SIMPLE  = T\nOBJECT  = 'M31'\nTELESCOP= '2MASS'\nEND\n",
        IngestOptions::to_resource("unix-sdsc").with_type("fits image"),
    )
    .unwrap();
    let t = conn
        .extract_metadata(
            "/home/sekar/m31.fits",
            "extract OBJECT keyvalue \"=\"\nextract TELESCOP keyvalue \"=\"\n",
        )
        .unwrap();
    assert_eq!(t.len(), 2);
    let rows = conn.metadata("/home/sekar/m31.fits").unwrap();
    assert!(rows.iter().any(|r| r.triplet.value.lexical() == "M31"));

    // DICOM-like: extract from a *separate* header file and attach to the
    // image (paper: "DICOM image metadata from separate header files").
    conn.ingest(
        "/home/sekar/scan.img",
        b"binary-image-data",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/scan.hdr",
        b"PatientAge: 42\nModality: MR\n",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    let t = conn
        .extract_metadata_from(
            "/home/sekar/scan.hdr",
            "/home/sekar/scan.img",
            "extract PatientAge after \"PatientAge:\"\nextract Modality after \"Modality:\"\n",
        )
        .unwrap();
    assert_eq!(t.len(), 2);
    let rows = conn.metadata("/home/sekar/scan.img").unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows
        .iter()
        .all(|r| matches!(r.kind, MetaKind::FileBased(_))));
}

#[test]
fn meta_file_association_and_viewing() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/obj1",
        b"x",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/obj2",
        b"y",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/meta.txt",
        b"species|condor|\nwingspan|290|cm\n",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    // One metadata file can serve several objects.
    conn.attach_meta_file("/home/sekar/obj1", "/home/sekar/meta.txt")
        .unwrap();
    conn.attach_meta_file("/home/sekar/obj2", "/home/sekar/meta.txt")
        .unwrap();
    let t = conn.view_meta_files("/home/sekar/obj1").unwrap();
    assert_eq!(t.len(), 2);
    assert_eq!(t[1].units, "cm");
    assert_eq!(conn.view_meta_files("/home/sekar/obj2").unwrap().len(), 2);
    // File-based metadata is for viewing, not querying: a query on
    // "species" does not hit obj1.
    let (hits, _) = conn
        .query(&Query::everywhere().and("species", CompareOp::Eq, "condor"))
        .unwrap();
    assert!(hits.is_empty());
}

#[test]
fn xml_meta_files_parse_alongside_triplet_files() {
    let f = grid();
    let conn = connect(&f, "sekar");
    conn.ingest(
        "/home/sekar/img",
        b"pixels",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/meta.txt",
        b"source|AMICO|\n",
        IngestOptions::to_resource("unix-sdsc"),
    )
    .unwrap();
    conn.ingest(
        "/home/sekar/meta.xml",
        br#"<metadata>
              <attr name="species" units="">Vultur gryphus</attr>
              <attr name="wingspan" units="cm">290</attr>
              <Title>Andean Condor</Title>
            </metadata>"#,
        IngestOptions::to_resource("unix-sdsc").with_type("xml"),
    )
    .unwrap();
    conn.attach_meta_file("/home/sekar/img", "/home/sekar/meta.txt")
        .unwrap();
    conn.attach_meta_file("/home/sekar/img", "/home/sekar/meta.xml")
        .unwrap();
    let t = conn.view_meta_files("/home/sekar/img").unwrap();
    assert_eq!(t.len(), 4); // 1 triplet line + 3 XML attributes
    assert!(t.iter().any(|x| x.name == "source"));
    assert!(t.iter().any(|x| x.name == "wingspan" && x.units == "cm"));
    assert!(t.iter().any(|x| x.name == "Title"));
}

#[test]
fn query_respects_permissions() {
    let f = grid();
    let sekar = connect(&f, "sekar");
    let mwan = connect(&f, "mwan");
    sekar
        .ingest(
            "/home/sekar/secret.dat",
            b"x",
            IngestOptions::to_resource("unix-sdsc")
                .with_metadata(Triplet::new("project", "grid", "")),
        )
        .unwrap();
    mwan.ingest(
        "/home/mwan/open.dat",
        b"y",
        IngestOptions::to_resource("unix-sdsc").with_metadata(Triplet::new("project", "grid", "")),
    )
    .unwrap();
    let q = Query::everywhere().and("project", CompareOp::Eq, "grid");
    // sekar sees only their own dataset…
    let (hits, _) = sekar.query(&q).unwrap();
    assert_eq!(hits.len(), 1);
    assert!(hits[0].path.contains("sekar"));
    // …until mwan grants discovery.
    mwan.grant_public("/home/mwan/open.dat", Permission::Read)
        .unwrap();
    let (hits, _) = sekar.query(&q).unwrap();
    assert_eq!(hits.len(), 2);
    // Scan path agrees with the indexed path.
    let (scan_hits, _) = sekar.query_scan(&q).unwrap();
    assert_eq!(hits, scan_hits);
}

#[test]
fn group_grants_open_access_to_members() {
    let f = grid();
    let sekar = connect(&f, "sekar");
    let mwan = connect(&f, "mwan");
    sekar
        .ingest(
            "/home/sekar/paper.pdf",
            b"draft",
            IngestOptions::to_resource("unix-sdsc"),
        )
        .unwrap();
    // A curators group, granted read on the object.
    let curators = sekar.create_group("curators").unwrap();
    sekar
        .grant_group("/home/sekar/paper.pdf", curators, Permission::Read)
        .unwrap();
    // mwan is not yet a member: denied.
    assert!(mwan.read("/home/sekar/paper.pdf").is_err());
    sekar.add_to_group(curators, mwan.user()).unwrap();
    assert_eq!(&mwan.read("/home/sekar/paper.pdf").unwrap().0[..], b"draft");
    // Non-members may not extend the group.
    let outsider_grid_user = f.grid.register_user("outsider", "sdsc", "pw-o").unwrap();
    let outsider =
        srb_core::SrbConnection::connect(&f.grid, f.sdsc, "outsider", "sdsc", "pw-o").unwrap();
    assert!(matches!(
        outsider.add_to_group(curators, outsider_grid_user),
        Err(SrbError::PermissionDenied(_))
    ));
    // Leaving the group revokes access.
    f.grid
        .mcat
        .users
        .remove_from_group(mwan.user(), curators)
        .unwrap();
    assert!(mwan.read("/home/sekar/paper.pdf").is_err());
}

#[test]
fn avian_culture_scenario() {
    // The paper's §4 exemplar, condensed: a curator builds a collection
    // with structural metadata, contributors must satisfy it, outside
    // materials are linked/registered, users annotate, and the public
    // browses and queries.
    let f = grid();
    let curator = connect(&f, "sekar");
    let contributor = connect(&f, "mwan");

    curator
        .make_collection("/home/sekar/Cultures/Avian Culture")
        .unwrap();
    // MetaCore for Cultures on the parent, augmented on the child.
    let cultures = f
        .grid
        .mcat
        .collections
        .resolve(&LogicalPath::parse("/home/sekar/Cultures").unwrap())
        .unwrap();
    f.grid
        .mcat
        .collections
        .set_requirements(
            cultures,
            vec![AttrRequirement::mandatory(
                "culture",
                "MetaCore for Cultures: culture name",
            )],
        )
        .unwrap();
    let avian = f
        .grid
        .mcat
        .collections
        .resolve(&LogicalPath::parse("/home/sekar/Cultures/Avian Culture").unwrap())
        .unwrap();
    f.grid
        .mcat
        .collections
        .set_requirements(
            avian,
            vec![AttrRequirement::vocabulary(
                "medium",
                &["image", "movie", "text"],
                "media type",
            )],
        )
        .unwrap();
    // Other curators may include their own materials.
    curator
        .grant(
            "/home/sekar/Cultures/Avian Culture",
            contributor.user(),
            Permission::Write,
        )
        .unwrap();
    // Missing mandatory metadata is rejected.
    assert!(matches!(
        contributor.ingest(
            "/home/sekar/Cultures/Avian Culture/heron.jpg",
            b"JPEG",
            IngestOptions::to_resource("unix-sdsc").with_type("jpeg image"),
        ),
        Err(SrbError::MissingMetadata(_))
    ));
    // Out-of-vocabulary values are rejected.
    assert!(contributor
        .ingest(
            "/home/sekar/Cultures/Avian Culture/heron.jpg",
            b"JPEG",
            IngestOptions::to_resource("unix-sdsc")
                .with_metadata(Triplet::new("culture", "avian", ""))
                .with_metadata(Triplet::new("medium", "sculpture", "")),
        )
        .is_err());
    // A compliant ingest passes.
    contributor
        .ingest(
            "/home/sekar/Cultures/Avian Culture/heron.jpg",
            b"JPEG",
            IngestOptions::to_resource("unix-sdsc")
                .with_metadata(Triplet::new("culture", "avian", ""))
                .with_metadata(Triplet::new("medium", "image", ""))
                .with_metadata(Triplet::new("species", "heron", "")),
        )
        .unwrap();
    // Outside material is registered by link (URL), not copied.
    f.grid
        .web
        .host_static("http://museum.example/bird-call.wav", &b"RIFF..."[..]);
    curator
        .register(
            "/home/sekar/Cultures/Avian Culture/bird-call",
            RegisterSpec::Url {
                url: "http://museum.example/bird-call.wav".into(),
            },
            IngestOptions::default()
                .with_metadata(Triplet::new("culture", "avian", ""))
                .with_metadata(Triplet::new("medium", "text", "")),
        )
        .unwrap();
    // Multi-modal relationships: a link from another collection.
    curator.make_collection("/home/sekar/Sounds").unwrap();
    curator
        .link(
            "/home/sekar/Cultures/Avian Culture/bird-call",
            "/home/sekar/Sounds/call-link",
        )
        .unwrap();
    // Selected users add more metadata later.
    curator
        .add_metadata(
            "/home/sekar/Cultures/Avian Culture/heron.jpg",
            Triplet::new("habitat", "wetland", ""),
        )
        .ok(); // curator owns the collection, not the object — owner is contributor
    contributor
        .add_metadata(
            "/home/sekar/Cultures/Avian Culture/heron.jpg",
            Triplet::new("habitat", "wetland", ""),
        )
        .unwrap();
    // Readers add ratings/dialogue.
    curator
        .annotate(
            "/home/sekar/Cultures/Avian Culture/heron.jpg",
            AnnotationKind::Dialogue,
            "",
            "is this a great blue heron?",
        )
        .unwrap();
    // Public browsing: the curator opens the collection to the public.
    curator
        .grant_public("/home/sekar/Cultures", Permission::Read)
        .unwrap();
    // Public (anonymous-equivalent) query across the hierarchy "by being
    // above the collections".
    let q = Query::everywhere()
        .under(LogicalPath::parse("/home/sekar/Cultures").unwrap())
        .and("species", CompareOp::Like, "%heron%")
        .show("species")
        .show("medium");
    let (hits, _) = curator.query(&q).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].selected[0].1, "heron");
    assert_eq!(hits[0].selected[1].1, "image");
    // Annotation-aware query.
    let q2 = Query::everywhere()
        .under(LogicalPath::parse("/home/sekar").unwrap())
        .and("annotation", CompareOp::Like, "%great blue%")
        .with_annotations();
    let (hits2, _) = curator.query(&q2).unwrap();
    assert_eq!(hits2.len(), 1);
    // The queryable-attribute drop-down reflects the scope.
    let attrs = f
        .grid
        .mcat
        .queryable_attrs(&LogicalPath::parse("/home/sekar/Cultures").unwrap())
        .unwrap();
    assert!(attrs.contains(&"culture".to_string()));
    assert!(attrs.contains(&"species".to_string()));
}
