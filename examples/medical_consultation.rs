//! The paper's flagship scenario end-to-end: "a group of physicians
//! discussing together or browsing separately a patient file which includes
//! CT images, voice fragments, tests results".
//!
//! Builds the multimedia database (Figure 7 schema), stores a CT phantom and
//! a document with author preferences, opens a shared room on the
//! interaction server, and drives two doctors through a consultation:
//! annotations, freeze/release, a global segmentation operation, and
//! persistence back to the database.
//!
//! Run with `cargo run --example medical_consultation`.

use rcmo::core::{FormKind, MediaRef, MultimediaDocument, PresentationForm};
use rcmo::imaging::{ct_phantom, segment_image, LineElement, SegmentFill, TextElement};
use rcmo::mediadb::{AccessLevel, DocumentObject, ImageObject, MediaDb};
use rcmo::server::events::TriggerCondition;
use rcmo::server::{Action, InteractionServer};

fn main() {
    // ----- Database setup (the Oracle of Figure 1, in Rust). -----
    let db = MediaDb::in_memory().expect("in-memory database");
    db.put_user("admin", "dr-gudes", AccessLevel::Write)
        .unwrap();
    db.put_user("admin", "dr-orlov", AccessLevel::Write)
        .unwrap();
    println!("media types registered:");
    for t in db.media_types().unwrap() {
        println!("  {:10} -> {}", t.name, t.object_table);
    }

    // A synthetic CT slice with 3 lesions, stored as an image BLOB.
    let ct_img = ct_phantom(128, 3, 42).unwrap();
    let ct_id = db
        .insert_image(
            "dr-gudes",
            &ImageObject {
                name: "ct-axial-17".into(),
                quality: 0,
                texts: String::new(),
                cm: Vec::new(),
                data: ct_img.to_bytes(),
            },
        )
        .unwrap();

    // ----- The document, with author preferences. -----
    let mut doc = MultimediaDocument::new("Patient 042");
    let images = doc.add_composite(doc.root(), "Images").unwrap();
    let ct = doc
        .add_primitive(
            images,
            "CT axial 17",
            MediaRef::Stored {
                media_type: "Image".into(),
                object_id: ct_id,
            },
            vec![
                PresentationForm::new("flat", FormKind::Flat, 128 * 128),
                PresentationForm::new("segmented", FormKind::Segmented, 128 * 128 + 4_000),
                PresentationForm::hidden(),
            ],
        )
        .unwrap();
    doc.validate().unwrap();
    let doc_id = db
        .insert_document(
            "dr-gudes",
            &DocumentObject {
                title: doc.title().into(),
                data: doc.to_bytes(),
            },
        )
        .unwrap();

    // ----- The shared room. -----
    let srv = InteractionServer::new(db);
    let room = srv.create_room("dr-gudes", "tumor-board", doc_id).unwrap();
    let gudes = srv.join_default(room, "dr-gudes").unwrap();
    let orlov = srv.join_default(room, "dr-orlov").unwrap();
    srv.open_image(room, "dr-gudes", ct_id).unwrap();
    println!(
        "\nroom '{}' members: {:?}",
        room,
        srv.read_room(room, |r| Ok(r.member_names())).unwrap()
    );

    // dr-gudes freezes the image while he marks a lesion.
    srv.act(room, "dr-gudes", Action::Freeze { object: ct_id })
        .unwrap();
    srv.act(
        room,
        "dr-gudes",
        Action::AddText {
            object: ct_id,
            element: TextElement {
                x: 70,
                y: 40,
                text: "LESION?".into(),
                intensity: 255,
                scale: 1,
            },
        },
    )
    .unwrap();
    srv.act(
        room,
        "dr-gudes",
        Action::AddLine {
            object: ct_id,
            element: LineElement {
                x0: 66,
                y0: 50,
                x1: 80,
                y1: 64,
                intensity: 255,
            },
        },
    )
    .unwrap();
    srv.act(room, "dr-gudes", Action::Release { object: ct_id })
        .unwrap();

    // dr-orlov sets a dynamic event trigger: tell me when anyone operates
    // on the CT component (the paper's "dynamic event triggers").
    srv.add_trigger(
        room,
        "dr-orlov",
        TriggerCondition::OperationOn { component: ct },
    )
    .unwrap();

    // dr-orlov answers in chat and triggers a *global* segmentation: the
    // operation becomes a derived variable of the shared CP-net.
    srv.act(
        room,
        "dr-orlov",
        Action::Chat {
            text: "agree — segmenting".into(),
        },
    )
    .unwrap();
    srv.act(
        room,
        "dr-orlov",
        Action::ApplyOperation {
            component: ct,
            trigger_form: 0,
            operation: "segmentation".into(),
            global: true,
        },
    )
    .unwrap();

    // Both partners observed the identical event stream.
    let seen_by_orlov: Vec<_> = orlov.events.try_iter().collect();
    println!(
        "\ndr-orlov observed {} events; last three:",
        seen_by_orlov.len()
    );
    for e in seen_by_orlov.iter().rev().take(3).rev() {
        println!("  {:?}", e.event);
    }
    drop(gudes);

    // The segmentation module actually runs on the shared image.
    let rendered = srv
        .read_room(room, |r| Ok(r.object(ct_id)?.render()))
        .unwrap();
    let mut seg = segment_image(&rendered, 6);
    println!(
        "\nsegmentation found {} regions (incl. background)",
        seg.num_segments()
    );
    for label in 1..seg.num_segments() as u32 {
        seg.set_fill(label, SegmentFill::Stripes(40, 215, 2))
            .unwrap();
    }
    let highlighted = seg.render(&rendered, 255).unwrap();
    println!(
        "highlighted render: {}x{}, mean intensity {:.1}",
        highlighted.width(),
        highlighted.height(),
        highlighted.mean()
    );

    // Presentations: both doctors now see "segmentation applied".
    for user in ["dr-gudes", "dr-orlov"] {
        println!("\n{user}'s presentation:");
        print!(
            "{}",
            srv.read_room(room, |r| r.render_presentation(user))
                .unwrap()
        );
    }

    // Cooperative audio browsing: a voice memo is stored as PCM, analysed
    // on the server, and the segments are shared with the room and written
    // into FLD_SECTORS.
    let memo = {
        let sc = rcmo::audio::SynthConfig {
            seed: 99,
            ..rcmo::audio::SynthConfig::default()
        };
        let mut s = rcmo::audio::synth::silence(0.4, &sc);
        s.extend(rcmo::audio::synth::babble(
            &rcmo::audio::VoiceProfile::male("gudes"),
            1.0,
            &sc,
        ));
        s
    };
    let audio_id = srv
        .database()
        .insert_audio(
            "dr-gudes",
            &rcmo::mediadb::AudioObject {
                filename: "memo.pcm".into(),
                sectors: vec![],
                data: rcmo::audio::synth::to_pcm16(&memo),
            },
        )
        .unwrap();
    println!("\nanalysing voice memo (server-side, shared with the room)...");
    let segments = srv.analyse_audio(room, "dr-gudes", audio_id).unwrap();
    for seg in &segments {
        println!(
            "  frames {:>3}..{:<3} {}",
            seg.frames.start,
            seg.frames.end,
            seg.class.name()
        );
    }

    // Persist everything back to the database layer. dr-gudes' event
    // stream died above (the `drop`), so the analysis broadcast reaped
    // him; an involuntary removal keeps his seat reserved, and a resync
    // re-enters the room with his old role before he saves.
    srv.save_document(room, "dr-orlov").unwrap();
    let (_gudes, _catch_up) = srv.resync(room, "dr-gudes", 0).unwrap();
    srv.save_and_close_image(room, "dr-gudes", ct_id).unwrap();
    let stats = srv.read_room(room, |r| Ok(r.stats())).unwrap();
    println!(
        "\npropagation: {} events, {} bytes delivered, {} changes buffered",
        stats.events_delivered, stats.bytes_delivered, stats.changes_logged
    );
}
