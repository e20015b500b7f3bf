//! Shared workload builders for the figure-regeneration `experiments`
//! binary.

#![forbid(unsafe_code)]

use rcmo_core::{ComponentId, FormKind, MediaRef, MultimediaDocument, PresentationForm};
use rcmo_mediadb::{AccessLevel, DocumentObject, ImageObject, MediaDb};
use rcmo_server::{ClusterConfig, ClusterFrontend, InteractionServer};

/// Builds a synthetic medical record: `folders` composites under the root,
/// each holding `leaves` primitives with flat/icon/hidden forms, plus the
/// paper's CT↔X-ray conditional preference inside the first folder.
pub fn medical_document(folders: usize, leaves: usize) -> MultimediaDocument {
    let mut doc = MultimediaDocument::new("Patient record");
    let mut first_two: Vec<ComponentId> = Vec::new();
    for f in 0..folders {
        let folder = doc
            .add_composite(doc.root(), &format!("folder-{f}"))
            .expect("root is composite");
        for l in 0..leaves {
            let cost = 40_000 + 20_000 * ((f * leaves + l) as u64 % 5);
            let c = doc
                .add_primitive(
                    folder,
                    &format!("item-{f}-{l}"),
                    MediaRef::None,
                    vec![
                        PresentationForm::new("flat", FormKind::Flat, cost),
                        PresentationForm::new("icon", FormKind::Icon, 3_000),
                        PresentationForm::hidden(),
                    ],
                )
                .expect("valid primitive");
            if first_two.len() < 2 {
                first_two.push(c);
            }
        }
    }
    if let [ct, xray] = first_two[..] {
        doc.author_parents(xray, &[ct]).expect("valid parents");
        doc.author_preference(xray, &[(ct, 0)], &[1, 0, 2]).unwrap();
        doc.author_preference(xray, &[(ct, 1)], &[1, 0, 2]).unwrap();
        doc.author_preference(xray, &[(ct, 2)], &[0, 1, 2]).unwrap();
    }
    doc.validate().expect("valid document");
    doc
}

/// Sets up a media database with `users` write-enabled users named
/// `user-0..`, one stored CT image, and one stored document; returns
/// `(db, document id, image id)`.
pub fn consultation_db(users: usize) -> (MediaDb, u64, u64) {
    let db = MediaDb::in_memory().expect("in-memory db");
    for u in 0..users {
        db.put_user("admin", &format!("user-{u}"), AccessLevel::Write)
            .expect("admin can add users");
    }
    let ct = rcmo_imaging::ct_phantom(64, 2, 1).expect("phantom");
    let image_id = db
        .insert_image(
            "admin",
            &ImageObject {
                name: "ct".into(),
                quality: 0,
                texts: String::new(),
                cm: Vec::new(),
                data: ct.to_bytes(),
            },
        )
        .expect("image stored");
    let doc = medical_document(2, 3);
    let doc_id = db
        .insert_document(
            "admin",
            &DocumentObject {
                title: doc.title().into(),
                data: doc.to_bytes(),
            },
        )
        .expect("document stored");
    (db, doc_id, image_id)
}

/// [`consultation_db`] wrapped in a single interaction server; returns
/// `(server, document id, image id)`.
pub fn consultation_fixture(users: usize) -> (InteractionServer, u64, u64) {
    let (db, doc_id, image_id) = consultation_db(users);
    (InteractionServer::new(db), doc_id, image_id)
}

/// [`consultation_db`] behind a sharded cluster frontend; returns
/// `(cluster, document id, image id)`.
pub fn cluster_fixture(users: usize, config: ClusterConfig) -> (ClusterFrontend, u64, u64) {
    let (db, doc_id, image_id) = consultation_db(users);
    (ClusterFrontend::new(db, config), doc_id, image_id)
}
