//! The full Figure-1 scenario as a test: database → interaction server →
//! shared room → presentation module → persistence, including reopening the
//! file-backed database in a "second clinic session".

use rcmo::codec::{encode, EncoderConfig};
use rcmo::core::{ComponentId, FormKind, MediaRef, MultimediaDocument, PresentationForm};
use rcmo::imaging::{ct_phantom, AnnotatedImage, GrayImage, TextElement};
use rcmo::mediadb::{AccessLevel, DocumentObject, ImageObject, MediaDb};
use rcmo::server::{Action, InteractionServer};
use std::path::PathBuf;

fn tmp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcmo-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{tag}.db"));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(rcmo::storage::db::wal_path_for(&p));
    p
}

fn build_case(db: &MediaDb) -> (u64, u64, ComponentId) {
    db.put_user("admin", "dr-a", AccessLevel::Write).unwrap();
    db.put_user("admin", "dr-b", AccessLevel::Write).unwrap();
    let ct = ct_phantom(96, 3, 21).unwrap();
    let stream = encode(&ct, &EncoderConfig::default()).unwrap();
    let image_id = db
        .insert_image(
            "dr-a",
            &ImageObject {
                name: "ct".into(),
                quality: 1,
                texts: String::new(),
                cm: Vec::new(),
                data: stream,
            },
        )
        .unwrap();
    let mut doc = MultimediaDocument::new("Patient X");
    let comp = doc
        .add_primitive(
            doc.root(),
            "CT",
            MediaRef::Stored {
                media_type: "Image".into(),
                object_id: image_id,
            },
            vec![
                PresentationForm::new("flat", FormKind::Flat, 96 * 96),
                PresentationForm::new("segmented", FormKind::Segmented, 96 * 96 + 2_000),
                PresentationForm::hidden(),
            ],
        )
        .unwrap();
    doc.validate().unwrap();
    let doc_id = db
        .insert_document(
            "dr-a",
            &DocumentObject {
                title: doc.title().into(),
                data: doc.to_bytes(),
            },
        )
        .unwrap();
    (doc_id, image_id, comp)
}

#[test]
fn two_session_consultation_with_persistence() {
    let path = tmp_db("consult");

    // ----- Session 1: annotate, operate globally, persist. -----
    let (doc_id, image_id, comp) = {
        let db = MediaDb::open(&path).unwrap();
        let ids = build_case(&db);
        let srv = InteractionServer::new(db);
        let room = srv.create_room("dr-a", "s1", ids.0).unwrap();
        let _a = srv.join_default(room, "dr-a").unwrap();
        let _b = srv.join_default(room, "dr-b").unwrap();
        srv.open_image(room, "dr-a", ids.1).unwrap();
        srv.act(
            room,
            "dr-a",
            Action::AddText {
                object: ids.1,
                element: TextElement {
                    x: 30,
                    y: 30,
                    text: "REVIEW".into(),
                    intensity: 255,
                    scale: 1,
                },
            },
        )
        .unwrap();
        srv.act(
            room,
            "dr-b",
            Action::ApplyOperation {
                component: ids.2,
                trigger_form: 0,
                operation: "segmentation".into(),
                global: true,
            },
        )
        .unwrap();
        srv.save_document(room, "dr-b").unwrap();
        srv.save_and_close_image(room, "dr-a", ids.1).unwrap();
        ids
    };
    let _ = image_id;

    // ----- Session 2: a fresh process reopens the same files. -----
    {
        let db = MediaDb::open(&path).unwrap();
        // The document still carries the global derived variable.
        let stored = db.get_document("dr-b", doc_id).unwrap();
        let doc = MultimediaDocument::from_bytes(&stored.data).unwrap();
        assert_eq!(doc.derived_vars().len(), 1);
        assert_eq!(doc.derived_vars()[0].operation, "segmentation");

        // The annotated image is back, with the overlay intact (it was
        // re-inserted under a fresh id by save_and_close_image).
        let images = db.list_objects("dr-a", "Image").unwrap();
        let saved = images.iter().find(|o| o.label == "ct").unwrap();
        let obj = db.get_image("dr-a", saved.id).unwrap();
        assert!(!obj.cm.is_empty(), "overlay stored in FLD_CM");
        let base = rcmo::codec::decode(&obj.data).unwrap();
        let restored = AnnotatedImage::from_parts(base, &obj.cm).unwrap();
        assert_eq!(restored.num_elements(), 1);
        let rendered: GrayImage = restored.render();
        assert!(rendered.pixels().contains(&255));

        // A new room over the stored document presents with the derived
        // variable for a brand-new viewer.
        let srv = InteractionServer::new(db);
        let room = srv.create_room("dr-b", "s2", doc_id).unwrap();
        let _c = srv.join_default(room, "dr-b").unwrap();
        let p = srv.read_room(room, |r| r.presentation_for("dr-b")).unwrap();
        assert_eq!(p.derived_states().len(), 1);
        assert_eq!(p.form(comp), 0);
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(rcmo::storage::db::wal_path_for(&path));
}

#[test]
fn crash_between_sessions_recovers_committed_state() {
    let path = tmp_db("crash");
    let doc_id;
    {
        let db = MediaDb::open(&path).unwrap();
        db.put_user("admin", "dr-a", AccessLevel::Write).unwrap();
        let doc = MultimediaDocument::new("crash case");
        doc_id = db
            .insert_document(
                "dr-a",
                &DocumentObject {
                    title: doc.title().into(),
                    data: doc.to_bytes(),
                },
            )
            .unwrap();
        // Simulate a crash after the WAL sync of one more write.
        let mut tx = db.database().begin().unwrap();
        let blob = tx.put_blob(b"post-crash payload").unwrap();
        tx.create_table(
            "CRASH_MARKER",
            rcmo::storage::Schema::new(vec![
                rcmo::storage::Column::new("ID", rcmo::storage::ColumnType::U64),
                rcmo::storage::Column::new("B", rcmo::storage::ColumnType::Blob),
            ])
            .unwrap(),
        )
        .unwrap();
        tx.insert(
            "CRASH_MARKER",
            vec![
                rcmo::storage::RowValue::Null,
                rcmo::storage::RowValue::Blob(blob),
            ],
        )
        .unwrap();
        tx.simulate_crash_after_wal().unwrap();
    }
    {
        // Recovery replays both the document insert and the marker table.
        let db = MediaDb::open(&path).unwrap();
        assert!(db.get_document("admin", doc_id).is_ok());
        let mut tx = db.database().begin().unwrap();
        let rows = tx.scan("CRASH_MARKER").unwrap();
        assert_eq!(rows.len(), 1);
        let blob = rows[0][1].as_blob().unwrap();
        assert_eq!(tx.get_blob(blob).unwrap(), b"post-crash payload");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(rcmo::storage::db::wal_path_for(&path));
}

#[test]
fn room_scales_to_many_partners() {
    let db = MediaDb::in_memory().unwrap();
    for i in 0..8 {
        db.put_user("admin", &format!("dr-{i}"), AccessLevel::Write)
            .unwrap();
    }
    let (doc_id, image_id, comp) = build_case(&db);
    let srv = InteractionServer::new(db);
    let room = srv.create_room("dr-a", "board", doc_id).unwrap();
    let conns: Vec<_> = (0..8)
        .map(|i| srv.join_default(room, &format!("dr-{i}")).unwrap())
        .collect();
    srv.open_image(room, "dr-0", image_id).unwrap();
    for i in 0..8 {
        srv.act(
            room,
            &format!("dr-{i}"),
            Action::Choose {
                component: comp,
                form: (i % 2) as usize,
            },
        )
        .unwrap();
    }
    // All partners converge on the same event log.
    let logs: Vec<Vec<_>> = conns
        .iter()
        .map(|c| c.events.try_iter().collect())
        .collect();
    for w in logs.windows(2) {
        // Later joiners miss earlier join events; compare the common tail.
        let n = w[0].len().min(w[1].len());
        assert_eq!(w[0][w[0].len() - n..], w[1][w[1].len() - n..]);
    }
    let stats = srv.read_room(room, |r| Ok(r.stats())).unwrap();
    assert!(stats.events_delivered >= 8 * 16);
}
