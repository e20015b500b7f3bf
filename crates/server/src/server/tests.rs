use super::*;
use crate::events::{Action, Delta, RoomEvent};
use rcmo_core::{ComponentId, FormKind, MediaRef, PresentationForm};
use rcmo_imaging::{ct_phantom, LineElement, TextElement};
use rcmo_mediadb::ImageObject;

/// Builds a database with one document (CT + X-ray under "Images") and one
/// stored image object; returns (server, document id, image object id,
/// CT component id, X-ray component id).
fn setup() -> (InteractionServer, u64, u64, ComponentId, ComponentId) {
    let db = MediaDb::in_memory().unwrap();
    db.put_user("admin", "dr-a", rcmo_mediadb::AccessLevel::Write)
        .unwrap();
    db.put_user("admin", "dr-b", rcmo_mediadb::AccessLevel::Write)
        .unwrap();

    let ct_image = ct_phantom(64, 2, 5).unwrap();
    let image_id = db
        .insert_image(
            "admin",
            &ImageObject {
                name: "ct-slice".to_string(),
                quality: 0,
                texts: String::new(),
                cm: Vec::new(),
                data: ct_image.to_bytes(),
            },
        )
        .unwrap();

    let mut doc = MultimediaDocument::new("Patient 071");
    let images = doc.add_composite(doc.root(), "Images").unwrap();
    let ct = doc
        .add_primitive(
            images,
            "CT",
            MediaRef::Stored {
                media_type: "Image".to_string(),
                object_id: image_id,
            },
            vec![
                PresentationForm::new("flat", FormKind::Flat, 100_000),
                PresentationForm::new("segmented", FormKind::Segmented, 130_000),
                PresentationForm::hidden(),
            ],
        )
        .unwrap();
    let xray = doc
        .add_primitive(
            images,
            "X-ray",
            MediaRef::None,
            vec![
                PresentationForm::new("flat", FormKind::Flat, 50_000),
                PresentationForm::new("icon", FormKind::Icon, 2_000),
                PresentationForm::hidden(),
            ],
        )
        .unwrap();
    // Author preference: X-ray iconified while the CT is shown.
    doc.author_parents(xray, &[ct]).unwrap();
    doc.author_preference(xray, &[(ct, 0)], &[1, 0, 2]).unwrap();
    doc.author_preference(xray, &[(ct, 1)], &[1, 0, 2]).unwrap();
    doc.author_preference(xray, &[(ct, 2)], &[0, 1, 2]).unwrap();
    doc.validate().unwrap();

    let doc_id = db
        .insert_document(
            "admin",
            &DocumentObject {
                title: doc.title().to_string(),
                data: doc.to_bytes(),
            },
        )
        .unwrap();
    (InteractionServer::new(db), doc_id, image_id, ct, xray)
}

/// Collects pending events, stripping the sequence envelope (most tests
/// only care about the payload order).
fn drain(conn: &ClientConnection) -> Vec<RoomEvent> {
    let mut out = Vec::new();
    while let Some(e) = conn.events.try_recv() {
        out.push(e.event.clone());
    }
    out
}

#[test]
fn create_join_leave_lifecycle() {
    let (srv, doc_id, _, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    assert_eq!(
        srv.read_room(room, |r| Ok(r.member_names())).unwrap(),
        vec!["dr-a", "dr-b"]
    );
    // dr-a saw both joins; dr-b only its own.
    let ea = drain(&a);
    assert_eq!(
        ea,
        vec![
            RoomEvent::Joined {
                user: "dr-a".into(),
                role: Role::Moderator
            },
            RoomEvent::Joined {
                user: "dr-b".into(),
                role: Role::Moderator
            }
        ]
    );
    assert_eq!(drain(&b).len(), 1);
    srv.leave(room, "dr-b").unwrap();
    assert_eq!(
        drain(&a),
        vec![RoomEvent::Left {
            user: "dr-b".into()
        }]
    );
    assert!(srv.leave(room, "dr-b").is_err(), "double leave rejected");
    assert!(
        srv.join_default(room, "dr-a").is_err(),
        "double join rejected"
    );
}

#[test]
fn unknown_room_and_unknown_user() {
    let (srv, doc_id, _, _, _) = setup();
    assert!(matches!(
        srv.join_default(99, "dr-a"),
        Err(ServerError::UnknownRoom(99))
    ));
    // "nobody" has no database permissions at all.
    assert!(srv.create_room("nobody", "x", doc_id).is_err());
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    assert!(srv.join_default(room, "nobody").is_err());
}

#[test]
fn choice_propagates_and_reconfigures() {
    let (srv, doc_id, _, ct, xray) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    drain(&a);
    drain(&b);

    // Default: CT flat, X-ray icon.
    let p = srv.read_room(room, |r| r.presentation_for("dr-a")).unwrap();
    assert_eq!(p.form(ct), 0);
    assert_eq!(p.form(xray), 1);

    // dr-a hides the CT: her X-ray flips to flat; dr-b is unaffected.
    srv.act(
        room,
        "dr-a",
        Action::Choose {
            component: ct,
            form: 2,
        },
    )
    .unwrap();
    let pa = srv.read_room(room, |r| r.presentation_for("dr-a")).unwrap();
    assert_eq!(pa.form(ct), 2);
    assert_eq!(pa.form(xray), 0);
    let pb = srv.read_room(room, |r| r.presentation_for("dr-b")).unwrap();
    assert_eq!(pb.form(ct), 0, "dr-b keeps the default view");

    // Both clients saw the same two events, in the same order.
    let ea = drain(&a);
    let eb = drain(&b);
    assert_eq!(ea, eb);
    assert!(matches!(ea[0], RoomEvent::ChoiceMade { form: Some(2), .. }));
    assert!(matches!(ea[1], RoomEvent::PresentationChanged { .. }));

    // Withdrawing restores the author default.
    srv.act(room, "dr-a", Action::Unchoose { component: ct })
        .unwrap();
    assert_eq!(
        srv.read_room(room, |r| r.presentation_for("dr-a"))
            .unwrap()
            .form(ct),
        0
    );
}

#[test]
fn annotations_propagate_and_render() {
    let (srv, doc_id, image_id, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();
    drain(&a);
    drain(&b);

    srv.act(
        room,
        "dr-a",
        Action::AddText {
            object: image_id,
            element: TextElement {
                x: 2,
                y: 2,
                text: "LESION".into(),
                intensity: 255,
                scale: 1,
            },
        },
    )
    .unwrap();
    srv.act(
        room,
        "dr-b",
        Action::AddLine {
            object: image_id,
            element: LineElement {
                x0: 0,
                y0: 0,
                x1: 60,
                y1: 60,
                intensity: 250,
            },
        },
    )
    .unwrap();
    assert_eq!(
        srv.read_room(room, |r| Ok(r.object(image_id)?.num_elements()))
            .unwrap(),
        2
    );

    // Both partners received both deltas (and the deltas are small).
    let eb = drain(&b);
    assert_eq!(eb.len(), 2);
    for e in &eb {
        match e {
            RoomEvent::ObjectChanged { delta, .. } => {
                assert!(delta.encoded_len() < 100);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    // The render shows the ink.
    let rendered = srv
        .read_room(room, |r| Ok(r.object(image_id)?.render()))
        .unwrap();
    let lit = rendered.pixels().iter().filter(|&&p| p >= 250).count();
    assert!(lit > 20);

    // dr-b deletes dr-a's text element.
    let id = match &eb[0] {
        RoomEvent::ObjectChanged {
            delta: Delta::TextAdded { id, .. },
            ..
        } => *id,
        other => panic!("expected TextAdded, got {other:?}"),
    };
    srv.act(
        room,
        "dr-b",
        Action::DeleteElement {
            object: image_id,
            element: id,
        },
    )
    .unwrap();
    assert_eq!(
        srv.read_room(room, |r| Ok(r.object(image_id)?.num_elements()))
            .unwrap(),
        1
    );
}

#[test]
fn freeze_blocks_other_partners() {
    let (srv, doc_id, image_id, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let _b = srv.join_default(room, "dr-b").unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();

    srv.act(room, "dr-a", Action::Freeze { object: image_id })
        .unwrap();
    // dr-b cannot annotate or re-freeze.
    let text = Action::AddText {
        object: image_id,
        element: TextElement {
            x: 0,
            y: 0,
            text: "X".into(),
            intensity: 255,
            scale: 1,
        },
    };
    assert!(matches!(
        srv.act(room, "dr-b", text.clone()),
        Err(ServerError::Frozen { .. })
    ));
    assert!(matches!(
        srv.act(room, "dr-b", Action::Freeze { object: image_id }),
        Err(ServerError::FreezeConflict(_))
    ));
    // The holder still can.
    srv.act(
        room,
        "dr-a",
        Action::AddLine {
            object: image_id,
            element: LineElement {
                x0: 0,
                y0: 0,
                x1: 5,
                y1: 5,
                intensity: 200,
            },
        },
    )
    .unwrap();
    // Only the holder may release.
    assert!(srv
        .act(room, "dr-b", Action::Release { object: image_id })
        .is_err());
    srv.act(room, "dr-a", Action::Release { object: image_id })
        .unwrap();
    srv.act(room, "dr-b", text).unwrap();
}

#[test]
fn leaving_releases_freezes() {
    let (srv, doc_id, image_id, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();
    srv.act(room, "dr-a", Action::Freeze { object: image_id })
        .unwrap();
    srv.leave(room, "dr-a").unwrap();
    let events = drain(&b);
    assert!(events
        .iter()
        .any(|e| matches!(e, RoomEvent::Released { .. })));
    // dr-b can now freeze.
    srv.act(room, "dr-b", Action::Freeze { object: image_id })
        .unwrap();
}

#[test]
fn global_operation_affects_everyone_and_persists() {
    let (srv, doc_id, _, ct, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let _b = srv.join_default(room, "dr-b").unwrap();

    srv.act(
        room,
        "dr-a",
        Action::ApplyOperation {
            component: ct,
            trigger_form: 0,
            operation: "segmentation".into(),
            global: true,
        },
    )
    .unwrap();
    for user in ["dr-a", "dr-b"] {
        let p = srv.read_room(room, |r| r.presentation_for(user)).unwrap();
        assert_eq!(p.derived_states().len(), 1, "{user} sees the derived var");
        assert_eq!(p.derived_states()[0].1, "segmentation applied");
    }
    // Persist and reload through the database.
    srv.save_document(room, "dr-a").unwrap();
    let room2 = srv.create_room("dr-b", "second", doc_id).unwrap();
    let _c = srv.join_default(room2, "dr-b").unwrap();
    let p = srv
        .read_room(room2, |r| r.presentation_for("dr-b"))
        .unwrap();
    assert_eq!(p.derived_states().len(), 1, "derived var survived storage");
}

#[test]
fn local_operation_stays_private() {
    let (srv, doc_id, _, ct, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let _b = srv.join_default(room, "dr-b").unwrap();
    srv.act(
        room,
        "dr-a",
        Action::ApplyOperation {
            component: ct,
            trigger_form: 0,
            operation: "zoom".into(),
            global: false,
        },
    )
    .unwrap();
    assert_eq!(
        srv.read_room(room, |r| r.presentation_for("dr-a"))
            .unwrap()
            .derived_states()
            .len(),
        1
    );
    assert!(srv
        .read_room(room, |r| r.presentation_for("dr-b"))
        .unwrap()
        .derived_states()
        .is_empty());
}

#[test]
fn layered_image_payload_can_be_opened() {
    let (srv, doc_id, _, _, _) = setup();
    let img = ct_phantom(64, 1, 9).unwrap();
    let stream = rcmo_codec::encode(&img, &rcmo_codec::EncoderConfig::default()).unwrap();
    let lic_id = srv
        .database()
        .insert_image(
            "admin",
            &ImageObject {
                name: "layered-ct".into(),
                quality: 1,
                texts: String::new(),
                cm: Vec::new(),
                data: stream,
            },
        )
        .unwrap();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    srv.open_image(room, "dr-a", lic_id).unwrap();
    let rendered = srv
        .read_room(room, |r| Ok(r.object(lic_id)?.render()))
        .unwrap();
    assert_eq!(rendered.width(), 64);
}

#[test]
fn save_and_close_image_persists_annotations() {
    let (srv, doc_id, image_id, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();
    srv.act(
        room,
        "dr-a",
        Action::AddText {
            object: image_id,
            element: TextElement {
                x: 1,
                y: 1,
                text: "F1".into(),
                intensity: 255,
                scale: 1,
            },
        },
    )
    .unwrap();
    srv.save_and_close_image(room, "dr-a", image_id).unwrap();
    // The object left the room.
    assert!(srv
        .read_room(room, |r| Ok(r.object(image_id)?.render()))
        .is_err());
    // The stored overlay can be reloaded under the *same* id (the save is
    // an atomic in-place replace, not delete + reinsert).
    let obj = srv.database().get_image("dr-a", image_id).unwrap();
    assert_eq!(obj.name, "ct-slice");
    let base = rcmo_imaging::GrayImage::from_bytes(&obj.data).unwrap();
    let restored = AnnotatedImage::from_parts(base, &obj.cm).unwrap();
    assert_eq!(restored.num_elements(), 1);
}

#[test]
fn failed_save_keeps_annotations_in_the_room() {
    let (srv, doc_id, image_id, _, _) = setup();
    // "intern" may read (and thus join and annotate) but not write.
    srv.database()
        .put_user("admin", "intern", rcmo_mediadb::AccessLevel::Read)
        .unwrap();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let _i = srv.join_default(room, "intern").unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();
    srv.act(
        room,
        "intern",
        Action::AddText {
            object: image_id,
            element: TextElement {
                x: 3,
                y: 3,
                text: "note".into(),
                intensity: 255,
                scale: 1,
            },
        },
    )
    .unwrap();

    // The intern's save is denied by the database ACL — but the working
    // copy (and its annotation) must return to the room, not vanish.
    assert!(srv.save_and_close_image(room, "intern", image_id).is_err());
    assert_eq!(
        srv.read_room(room, |r| Ok(r.object(image_id)?.num_elements()))
            .unwrap(),
        1
    );
    // The stored object is untouched.
    let obj = srv.database().get_image("dr-a", image_id).unwrap();
    assert!(obj.cm.is_empty(), "stored overlay unchanged by failed save");
    // A writer can still complete the save afterwards.
    srv.save_and_close_image(room, "dr-a", image_id).unwrap();
    let obj = srv.database().get_image("dr-a", image_id).unwrap();
    assert!(!obj.cm.is_empty());
}

#[test]
fn stats_and_change_log_accumulate() {
    let (srv, doc_id, _, ct, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let _b = srv.join_default(room, "dr-b").unwrap();
    for i in 0..5 {
        srv.act(
            room,
            "dr-a",
            Action::Chat {
                text: format!("msg {i}"),
            },
        )
        .unwrap();
    }
    srv.act(
        room,
        "dr-a",
        Action::Choose {
            component: ct,
            form: 1,
        },
    )
    .unwrap();
    let stats = srv.read_room(room, |r| Ok(r.stats())).unwrap();
    // 2 joins + 5 chats + choice + presentation = 9 logged changes.
    assert_eq!(stats.changes_logged, 9);
    assert_eq!(
        srv.read_room(room, |r| Ok(r.change_log().len())).unwrap(),
        9
    );
    assert!(stats.bytes_delivered > 0);
    assert!(stats.events_delivered >= stats.changes_logged);
}

#[test]
fn concurrent_partners_see_one_total_order() {
    use std::sync::Arc;
    let (srv, doc_id, image_id, ct, _) = setup();
    let srv = Arc::new(srv);
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();
    // Discard the asymmetric join events so both logs start together.
    drain(&a);
    drain(&b);

    let mut handles = Vec::new();
    for (user, salt) in [("dr-a", 0i64), ("dr-b", 100)] {
        let srv = Arc::clone(&srv);
        let user = user.to_string();
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                srv.act(
                    room,
                    &user,
                    Action::Chat {
                        text: format!("{user} {i}"),
                    },
                )
                .unwrap();
                srv.act(
                    room,
                    &user,
                    Action::AddLine {
                        object: image_id,
                        element: LineElement {
                            x0: salt + i,
                            y0: 0,
                            x1: salt + i,
                            y1: 63,
                            intensity: 100,
                        },
                    },
                )
                .unwrap();
                if i % 5 == 0 {
                    let _ = srv.act(
                        room,
                        &user,
                        Action::Choose {
                            component: ct,
                            form: (i % 2) as usize,
                        },
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let ea = drain(&a);
    let eb = drain(&b);
    assert_eq!(ea, eb, "both partners observed the same total order");
    assert_eq!(
        srv.read_room(room, |r| Ok(r.object(image_id)?.num_elements()))
            .unwrap(),
        50
    );
}

#[test]
fn audio_analysis_is_cooperative_and_persistent() {
    let (srv, doc_id, _, _, _) = setup();
    // Store a labelled synthetic recording as a PCM audio object.
    let sc = rcmo_audio::SynthConfig {
        seed: 808,
        ..rcmo_audio::SynthConfig::default()
    };
    let mut samples = rcmo_audio::synth::silence(0.6, &sc);
    samples.extend(rcmo_audio::synth::babble(
        &rcmo_audio::VoiceProfile::female("f"),
        1.2,
        &sc,
    ));
    let audio_id = srv
        .database()
        .insert_audio(
            "admin",
            &rcmo_mediadb::AudioObject {
                filename: "consult.pcm".into(),
                sectors: vec![],
                data: rcmo_audio::synth::to_pcm16(&samples),
            },
        )
        .unwrap();

    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    drain(&b);
    let segments = srv.analyse_audio(room, "dr-a", audio_id).unwrap();
    assert!(!segments.is_empty());
    assert!(segments
        .iter()
        .any(|s| s.class == rcmo_audio::AudioClass::Speech));

    // The other partner received the shared result.
    let events = drain(&b);
    let analysed = events.iter().find_map(|e| match e {
        RoomEvent::AudioAnalysed { summary, by, .. } => Some((summary.clone(), by.clone())),
        _ => None,
    });
    let (summary, by) = analysed.expect("AudioAnalysed broadcast");
    assert_eq!(by, "dr-a");
    assert!(summary.contains("speech"), "{summary}");

    // The analysis persisted into FLD_SECTORS.
    let stored = srv.database().get_audio("dr-b", audio_id).unwrap();
    let decoded = rcmo_audio::segment::decode_segments(&stored.sectors).unwrap();
    assert_eq!(decoded, segments);

    // Non-members cannot share into the room.
    assert!(srv.analyse_audio(room, "admin", audio_id).is_err());
}

#[test]
fn triggers_fire_on_matching_events() {
    use crate::events::TriggerCondition;
    let (srv, doc_id, image_id, ct, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();
    // dr-b wants to know when anyone touches the CT component or mentions
    // "urgent" in chat.
    let t1 = srv
        .add_trigger(room, "dr-b", TriggerCondition::ChoiceOn { component: ct })
        .unwrap();
    let t2 = srv
        .add_trigger(
            room,
            "dr-b",
            TriggerCondition::ChatContains {
                needle: "urgent".into(),
            },
        )
        .unwrap();
    drain(&a);
    drain(&b);

    srv.act(
        room,
        "dr-a",
        Action::Choose {
            component: ct,
            form: 1,
        },
    )
    .unwrap();
    srv.act(
        room,
        "dr-a",
        Action::Chat {
            text: "nothing special".into(),
        },
    )
    .unwrap();
    srv.act(
        room,
        "dr-a",
        Action::Chat {
            text: "this is urgent!".into(),
        },
    )
    .unwrap();

    let events = drain(&b);
    let fired: Vec<(u64, String)> = events
        .iter()
        .filter_map(|e| match e {
            RoomEvent::TriggerFired { trigger, cause, .. } => Some((*trigger, cause.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(fired.len(), 2, "{fired:?}");
    assert_eq!(fired[0].0, t1);
    assert_eq!(fired[1].0, t2);
    assert!(fired[1].1.contains("urgent"));
    // Both partners observed the fired triggers (shared room semantics).
    let a_events = drain(&a);
    let a_fired = a_events
        .iter()
        .filter(|e| matches!(e, RoomEvent::TriggerFired { .. }))
        .count();
    assert_eq!(a_fired, 2);

    // Only the owner can remove; unknown id errors.
    assert!(srv.remove_trigger(room, "dr-a", t1).is_err());
    srv.remove_trigger(room, "dr-b", t1).unwrap();
    assert!(srv.remove_trigger(room, "dr-b", 999).is_err());
    drain(&b);
    srv.act(
        room,
        "dr-a",
        Action::Choose {
            component: ct,
            form: 0,
        },
    )
    .unwrap();
    let events = drain(&b);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, RoomEvent::TriggerFired { .. })),
        "removed trigger must not fire"
    );
}

#[test]
fn admin_broadcast_reaches_all_rooms() {
    let (srv, doc_id, _, _, _) = setup();
    let r1 = srv.create_room("dr-a", "one", doc_id).unwrap();
    let r2 = srv.create_room("dr-b", "two", doc_id).unwrap();
    let a = srv.join_default(r1, "dr-a").unwrap();
    let b = srv.join_default(r2, "dr-b").unwrap();
    drain(&a);
    drain(&b);
    // Non-admins cannot broadcast.
    assert!(srv.broadcast_announcement("dr-a", "hi").is_err());
    let reached = srv
        .broadcast_announcement("admin", "maintenance at 18:00")
        .unwrap();
    assert_eq!(reached, 2);
    for conn in [&a, &b] {
        let events = drain(conn);
        assert!(events.iter().any(|e| matches!(
            e,
            RoomEvent::Chat { user, text } if user.contains("announcement") && text.contains("maintenance")
        )));
    }
}

#[test]
fn dead_members_are_reaped_and_their_freezes_released() {
    let (srv, doc_id, image_id, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();
    srv.act(room, "dr-b", Action::Freeze { object: image_id })
        .unwrap();
    drain(&a);

    // dr-b's client crashes: the receiver is dropped without leaving.
    drop(b);
    // Nothing is detected until the next broadcast...
    assert_eq!(
        srv.read_room(room, |r| Ok(r.member_names())).unwrap(),
        vec!["dr-a", "dr-b"]
    );
    srv.act(
        room,
        "dr-a",
        Action::Chat {
            text: "anyone there?".into(),
        },
    )
    .unwrap();
    // ...which reaps dr-b and releases the freeze.
    assert_eq!(
        srv.read_room(room, |r| Ok(r.member_names())).unwrap(),
        vec!["dr-a"]
    );
    let events = drain(&a);
    assert!(events.iter().any(
        |e| matches!(e, RoomEvent::Released { object, by } if *object == image_id && by == "dr-b")
    ));
    assert!(events
        .iter()
        .any(|e| matches!(e, RoomEvent::Left { user } if user == "dr-b")));
    // dr-a can take over the object.
    srv.act(room, "dr-a", Action::Freeze { object: image_id })
        .unwrap();

    let stats = srv.read_room(room, |r| Ok(r.stats())).unwrap();
    assert_eq!(stats.members_reaped, 1);
    assert!(stats.delivery_failures > 0, "failed send was recorded");
}

#[test]
fn failed_sends_are_not_counted_as_delivered() {
    let (srv, doc_id, _, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    drain(&a);
    let before = srv.read_room(room, |r| Ok(r.stats())).unwrap();
    drop(b);
    srv.act(
        room,
        "dr-a",
        Action::Chat {
            text: "ping".into(),
        },
    )
    .unwrap();
    let after = srv.read_room(room, |r| Ok(r.stats())).unwrap();
    // The chat reached dr-a only; the send to dr-b (and the follow-up
    // Left, sent to dr-a) must split cleanly between the two counters.
    assert_eq!(after.delivery_failures, before.delivery_failures + 1);
    // Delivered events grew by exactly the successful sends: chat → dr-a,
    // Left → dr-a.
    assert_eq!(after.events_delivered, before.events_delivered + 2);
}

#[test]
fn resync_within_horizon_replays_identical_order() {
    let (srv, doc_id, _, ct, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();

    // dr-b observes some events, then its connection dies.
    srv.act(
        room,
        "dr-b",
        Action::Chat {
            text: "before".into(),
        },
    )
    .unwrap();
    let mut b_seen: Vec<Arc<SequencedEvent>> = b.events.try_iter().collect();
    let last_seen = b_seen.last().map(|e| e.seq).unwrap_or(0);
    drop(b);

    // Life goes on while dr-b is gone (dr-b gets reaped along the way).
    srv.act(
        room,
        "dr-a",
        Action::Chat {
            text: "while you were out".into(),
        },
    )
    .unwrap();
    srv.act(
        room,
        "dr-a",
        Action::Choose {
            component: ct,
            form: 1,
        },
    )
    .unwrap();
    srv.act(
        room,
        "dr-a",
        Action::Chat {
            text: "still going".into(),
        },
    )
    .unwrap();

    // dr-b reconnects with the last sequence number it saw.
    let (b2, catch_up) = srv.resync(room, "dr-b", last_seen).unwrap();
    let replay = match catch_up {
        Resync::Events(events) => events,
        other => panic!("expected event replay, got {other:?}"),
    };
    assert!(!replay.is_empty());
    srv.act(
        room,
        "dr-a",
        Action::Chat {
            text: "welcome back".into(),
        },
    )
    .unwrap();

    // Replay ++ live stream must equal dr-a's uninterrupted view, except
    // for events sent before dr-b first joined.
    b_seen.extend(replay);
    b_seen.extend(b2.events.try_iter());
    let a_seen: Vec<Arc<SequencedEvent>> = a.events.try_iter().collect();
    let a_tail: Vec<&Arc<SequencedEvent>> =
        a_seen.iter().filter(|e| e.seq >= b_seen[0].seq).collect();
    assert_eq!(a_tail.len(), b_seen.len(), "no event lost or duplicated");
    for (x, y) in a_tail.iter().zip(b_seen.iter()) {
        assert_eq!(**x, *y, "identical total event order");
    }
    // Sequence numbers are dense and strictly increasing.
    for w in b_seen.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1);
    }
    assert_eq!(
        srv.read_room(room, |r| Ok(r.member_names())).unwrap(),
        vec!["dr-a", "dr-b"]
    );
}

#[test]
fn resync_beyond_horizon_returns_snapshot() {
    let (srv, doc_id, image_id, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let b = srv.join_default(room, "dr-b").unwrap();
    srv.configure_room(room, "dr-a", RoomConfig::new().with_change_log_capacity(8))
        .unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();
    srv.act(room, "dr-a", Action::Freeze { object: image_id })
        .unwrap();
    drop(b);
    for i in 0..20 {
        srv.act(
            room,
            "dr-a",
            Action::Chat {
                text: format!("m{i}"),
            },
        )
        .unwrap();
    }

    let (b2, catch_up) = srv.resync(room, "dr-b", 2).unwrap();
    let snap = match catch_up {
        Resync::Snapshot(s) => s,
        other => panic!("expected snapshot, got {other:?}"),
    };
    // The snapshot reflects the room state at its seq: document, open
    // objects, freezes, members. dr-b had been reaped, so the rejoin
    // broadcast one `Joined` event *after* the snapshot was taken.
    assert_eq!(
        snap.seq + 1,
        srv.read_room(room, |r| Ok(r.change_log().last_seq()))
            .unwrap()
    );
    assert!(!snap.document.is_empty());
    assert_eq!(snap.objects.len(), 1);
    assert_eq!(snap.objects[0].0, image_id);
    assert_eq!(snap.freezes, vec![(image_id, "dr-a".to_string())]);
    assert!(snap.members.contains(&"dr-a".to_string()));
    // Live events resume after the snapshot seq.
    srv.act(
        room,
        "dr-a",
        Action::Chat {
            text: "post-snap".into(),
        },
    )
    .unwrap();
    let live: Vec<Arc<SequencedEvent>> = b2.events.try_iter().collect();
    assert!(live.iter().all(|e| e.seq > snap.seq));
    assert!(live
        .iter()
        .any(|e| matches!(&e.event, RoomEvent::Chat { text, .. } if text == "post-snap")));
}

#[test]
fn change_log_is_bounded_under_stress() {
    let (srv, doc_id, _, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let a = srv.join_default(room, "dr-a").unwrap();
    srv.configure_room(
        room,
        "dr-a",
        RoomConfig::new().with_change_log_capacity(256),
    )
    .unwrap();
    for i in 0..10_000 {
        srv.act(
            room,
            "dr-a",
            Action::Chat {
                text: format!("event {i}"),
            },
        )
        .unwrap();
        if i % 1000 == 0 {
            drain(&a); // keep the client channel from growing instead
        }
    }
    assert_eq!(
        srv.read_room(room, |r| Ok(r.change_log().len())).unwrap(),
        256
    );
    assert_eq!(
        srv.read_room(room, |r| Ok(r.change_log().last_seq()))
            .unwrap(),
        10_001
    ); // 1 join + 10k chats
       // A barely-behind client still replays; an ancient one snapshots.
    let (_c1, catch_up) = srv.resync(room, "dr-b", 10_000).unwrap();
    assert!(matches!(catch_up, Resync::Events(e) if e.len() == 1));
    let (_c2, catch_up) = srv.resync(room, "dr-b", 5).unwrap();
    assert!(matches!(catch_up, Resync::Snapshot(_)));
}

#[test]
fn render_presentation_shows_content_pane() {
    let (srv, doc_id, _, ct, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let text = srv
        .read_room(room, |r| r.render_presentation("dr-a"))
        .unwrap();
    assert!(text.contains("CT: flat"));
    assert!(text.contains("X-ray: icon"));
    srv.act(
        room,
        "dr-a",
        Action::Choose {
            component: ct,
            form: 2,
        },
    )
    .unwrap();
    let text = srv
        .read_room(room, |r| r.render_presentation("dr-a"))
        .unwrap();
    assert!(!text.contains("CT: flat"));
    assert!(text.contains("X-ray: flat"));
    assert!(srv
        .read_room(room, |r| r.render_presentation("ghost"))
        .is_err());
}

#[test]
fn debug_format_never_locks_the_room_map() {
    let (srv, doc_id, _, _, _) = setup();
    let r1 = srv.create_room("dr-a", "one", doc_id).unwrap();
    srv.create_room("dr-a", "two", doc_id).unwrap();
    // Formatting while this very thread holds a room's lock (as a room op
    // would if it logged the server) must not deadlock: `Debug` reads the
    // atomic room counter, touching no lock at all.
    let handle = srv.room_handle(r1).unwrap();
    let _room = handle.lock();
    assert_eq!(format!("{srv:?}"), "InteractionServer(rooms=2)");
}

#[test]
fn announcement_does_not_hold_the_map_across_rooms() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let (srv, doc_id, _, _, _) = setup();
    let srv = Arc::new(srv);
    let r1 = srv.create_room("dr-a", "stalled", doc_id).unwrap();
    let r2 = srv.create_room("dr-a", "healthy", doc_id).unwrap();
    let _a1 = srv.join_default(r1, "dr-a").unwrap();
    let _a2 = srv.join_default(r2, "dr-a").unwrap();

    // Simulate a room stuck in a slow operation: its lock is held for the
    // duration of the announcement attempt.
    let stalled = srv.room_handle(r1).unwrap();
    let guard = stalled.lock();

    let done = Arc::new(AtomicBool::new(false));
    let announcer = {
        let srv = Arc::clone(&srv);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let reached = srv.broadcast_announcement("admin", "maintenance").unwrap();
            done.store(true, Ordering::SeqCst);
            reached
        })
    };
    // Give the announcer time to snapshot the map and block on r1's lock.
    std::thread::sleep(std::time::Duration::from_millis(40));
    assert!(
        !done.load(Ordering::SeqCst),
        "announcer should be blocked on the stalled room"
    );

    // The old implementation held the room-map lock across the delivery
    // loop, so *every* other server operation stalled behind r1. Now the
    // map is free: traffic in other rooms and room creation proceed.
    srv.act(
        r2,
        "dr-a",
        Action::Chat {
            text: "unaffected".into(),
        },
    )
    .unwrap();
    let r3 = srv.create_room("dr-a", "new", doc_id).unwrap();
    assert!(srv
        .read_room(r3, |r| Ok(r.member_names()))
        .unwrap()
        .is_empty());
    assert!(!done.load(Ordering::SeqCst), "announcer is still blocked");

    drop(guard);
    let reached = announcer.join().unwrap();
    // r3 was created after the snapshot, so only the two original rooms
    // are guaranteed reached (the announcer may or may not have seen r3).
    assert!(reached >= 2);
}

#[test]
fn rooms_progress_in_parallel_while_one_room_is_stalled() {
    use std::sync::Arc;
    let (srv, doc_id, image_id, _, _) = setup();
    let srv = Arc::new(srv);
    let slow = srv.create_room("dr-a", "slow", doc_id).unwrap();
    let fast = srv.create_room("dr-a", "fast", doc_id).unwrap();
    let _s = srv.join_default(slow, "dr-a").unwrap();
    let _f = srv.join_default(fast, "dr-b").unwrap();
    srv.open_image(fast, "dr-b", image_id).unwrap();

    // Pin the slow room's lock (a long CT decode, say) ...
    let handle = srv.room_handle(slow).unwrap();
    let guard = handle.lock();
    // ... and drive a full workload through the *other* room from this
    // same thread. Under the global room lock this deadlocked immediately.
    srv.act(fast, "dr-b", Action::Chat { text: "hi".into() })
        .unwrap();
    srv.act(
        fast,
        "dr-b",
        Action::AddLine {
            object: image_id,
            element: LineElement {
                x0: 0,
                y0: 0,
                x1: 63,
                y1: 63,
                intensity: 180,
            },
        },
    )
    .unwrap();
    assert!(srv
        .read_room(fast, |r| Ok(r.object(image_id)?.render()))
        .is_ok());
    assert!(srv.read_room(fast, |r| r.presentation_for("dr-b")).is_ok());
    assert_eq!(
        srv.read_room(fast, |r| Ok(r.member_names())).unwrap(),
        vec!["dr-b".to_string()]
    );
    drop(guard);
    // The stalled room is live again.
    srv.act(
        slow,
        "dr-a",
        Action::Chat {
            text: "done".into(),
        },
    )
    .unwrap();
}

/// The satellite stress test: 4 rooms × 2 actors (8 actor threads) plus a
/// churn thread (create_room/join/leave) and an observer thread
/// (`metrics()`, `Debug`, room stats) all running concurrently. Asserts
/// per-room isolation and event-sequence integrity afterwards.
#[test]
fn stress_concurrent_rooms_members_and_observers() {
    use std::sync::Arc;
    const ROOMS: usize = 4;
    const ACTORS_PER_ROOM: usize = 2;
    const OPS: usize = 40;

    let (srv, doc_id, image_id, ct, _) = setup();
    for r in 0..ROOMS {
        for a in 0..ACTORS_PER_ROOM {
            srv.database()
                .put_user(
                    "admin",
                    &format!("u-{r}-{a}"),
                    rcmo_mediadb::AccessLevel::Write,
                )
                .unwrap();
        }
    }
    srv.database()
        .put_user("admin", "churn", rcmo_mediadb::AccessLevel::Write)
        .unwrap();
    let srv = Arc::new(srv);

    let rooms: Vec<RoomId> = (0..ROOMS)
        .map(|r| {
            srv.create_room("dr-a", &format!("room-{r}"), doc_id)
                .unwrap()
        })
        .collect();
    let mut conns = Vec::new();
    for (r, &room) in rooms.iter().enumerate() {
        for a in 0..ACTORS_PER_ROOM {
            conns.push((
                (r, a),
                srv.join_default(room, &format!("u-{r}-{a}")).unwrap(),
            ));
        }
        srv.open_image(room, &format!("u-{r}-0"), image_id).unwrap();
    }

    let mut handles = Vec::new();
    // 8 actor threads: mixed chat / annotation / choice / presentation /
    // render traffic, each bound to its own room.
    for (r, &room) in rooms.iter().enumerate() {
        for a in 0..ACTORS_PER_ROOM {
            let srv = Arc::clone(&srv);
            let user = format!("u-{r}-{a}");
            handles.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    match i % 5 {
                        0 => srv
                            .act(
                                room,
                                &user,
                                Action::Chat {
                                    text: format!("{user} {i}"),
                                },
                            )
                            .unwrap(),
                        1 => srv
                            .act(
                                room,
                                &user,
                                Action::AddLine {
                                    object: image_id,
                                    element: LineElement {
                                        x0: (i % 64) as i64,
                                        y0: 0,
                                        x1: 63,
                                        y1: (i % 64) as i64,
                                        intensity: 150,
                                    },
                                },
                            )
                            .unwrap(),
                        2 => {
                            let _ = srv.act(
                                room,
                                &user,
                                Action::Choose {
                                    component: ct,
                                    form: i % 2,
                                },
                            );
                        }
                        3 => {
                            srv.read_room(room, |r| r.presentation_for(&user)).unwrap();
                        }
                        _ => {
                            srv.read_room(room, |r| Ok(r.object(image_id)?.render()))
                                .unwrap();
                        }
                    }
                }
            }));
        }
    }
    // Churn thread: rooms are created, joined, left and (implicitly)
    // observed while the actors hammer theirs.
    {
        let srv = Arc::clone(&srv);
        handles.push(std::thread::spawn(move || {
            for i in 0..12 {
                let room = srv
                    .create_room("churn", &format!("churn-{i}"), doc_id)
                    .unwrap();
                let _c = srv.join_default(room, "churn").unwrap();
                srv.act(
                    room,
                    "churn",
                    Action::Chat {
                        text: "hello".into(),
                    },
                )
                .unwrap();
                srv.leave(room, "churn").unwrap();
            }
        }));
    }
    // Observer thread: metrics snapshots and Debug formatting must never
    // deadlock against any of the above.
    {
        let srv = Arc::clone(&srv);
        handles.push(std::thread::spawn(move || {
            for _ in 0..60 {
                let snap = srv.metrics();
                assert!(snap.counters.contains_key("server.rooms.map.read.count"));
                let _ = format!("{srv:?}");
                std::thread::yield_now();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Per-room integrity: each member of a room saw the identical total
    // order with dense sequence numbers, and only its own room's traffic.
    for (r, &room) in rooms.iter().enumerate() {
        let mut streams: Vec<Vec<Arc<SequencedEvent>>> = Vec::new();
        for ((cr, _), conn) in &conns {
            if *cr == r {
                streams.push(conn.events.try_iter().collect());
            }
        }
        assert_eq!(streams.len(), ACTORS_PER_ROOM);
        // Both actors joined before the traffic, so from the second join on
        // their streams coincide; compare the common suffix.
        let n = streams.iter().map(|s| s.len()).min().unwrap();
        assert!(n > 0);
        for w in streams.windows(2) {
            assert_eq!(
                w[0][w[0].len() - n..],
                w[1][w[1].len() - n..],
                "room {room}: members diverged"
            );
        }
        for s in &streams {
            assert!(
                s.windows(2).all(|w| w[1].seq == w[0].seq + 1),
                "room {room}: sequence gap"
            );
            // Isolation: no event names a user of another room.
            for ev in s {
                let dump = format!("{:?}", ev.event);
                for or in 0..ROOMS {
                    if or != r {
                        assert!(
                            !dump.contains(&format!("u-{or}-")),
                            "room {room} leaked an event from room index {or}: {dump}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            srv.read_room(room, |r| Ok(r.change_log().last_seq()))
                .unwrap(),
            srv.read_room(room, |r| Ok(r.change_log().len())).unwrap() as u64
        );
    }
    // The lock instrumentation saw the whole run.
    let snap = srv.metrics();
    let wait = snap.histograms.get("server.room.lock.wait.us").unwrap();
    let hold = snap.histograms.get("server.room.lock.hold.us").unwrap();
    assert!(wait.count > 0 && hold.count > 0);
    assert!(snap.counters["server.rooms.map.write.count"] >= (ROOMS + 12) as u64);
}

// ---------------------------------------------------------------------
// Roles, capabilities, and the shared-payload fan-out.

/// Asserts that `res` is an `ActionRejected` naming exactly `cap` and the
/// viewer role.
fn assert_viewer_denied<T: std::fmt::Debug>(res: Result<T>, cap: Capability) {
    match res {
        Err(ServerError::ActionRejected {
            required_capability,
            role,
        }) => {
            assert_eq!(required_capability, cap);
            assert_eq!(role, Role::Viewer);
        }
        other => panic!("expected ActionRejected({cap}), got {other:?}"),
    }
}

#[test]
fn viewer_is_denied_at_every_mutating_entry_point() {
    let (srv, doc_id, image_id, ct, _) = setup();
    let room = srv.create_room("dr-a", "lecture", doc_id).unwrap();
    let _prof = srv.join(room, &JoinRequest::presenter("dr-a")).unwrap();
    let viewer = srv.join(room, &JoinRequest::viewer("dr-b")).unwrap();
    assert_eq!(viewer.role, Role::Viewer);
    srv.open_image(room, "dr-a", image_id).unwrap();

    use Capability::*;
    assert_viewer_denied(
        srv.act(
            room,
            "dr-b",
            Action::AddText {
                object: image_id,
                element: TextElement {
                    x: 1,
                    y: 1,
                    text: "no".into(),
                    intensity: 255,
                    scale: 1,
                },
            },
        ),
        AnnotateObjects,
    );
    assert_viewer_denied(
        srv.act(
            room,
            "dr-b",
            Action::AddLine {
                object: image_id,
                element: LineElement {
                    x0: 0,
                    y0: 0,
                    x1: 1,
                    y1: 1,
                    intensity: 255,
                },
            },
        ),
        AnnotateObjects,
    );
    assert_viewer_denied(
        srv.act(room, "dr-b", Action::Freeze { object: image_id }),
        FreezeObjects,
    );
    assert_viewer_denied(
        srv.act(
            room,
            "dr-b",
            Action::ApplyOperation {
                component: ct,
                trigger_form: 0,
                operation: "segmentation".into(),
                global: true,
            },
        ),
        ApplyGlobalOperation,
    );
    assert_viewer_denied(srv.open_image(room, "dr-b", image_id), OpenObjects);
    assert_viewer_denied(
        srv.save_and_close_image(room, "dr-b", image_id),
        SaveObjects,
    );
    assert_viewer_denied(srv.save_document(room, "dr-b"), SaveObjects);
    // The capability gate fires before the audio object is even fetched.
    assert_viewer_denied(srv.analyse_audio(room, "dr-b", 9_999), ShareAnalysis);
    assert_viewer_denied(
        srv.add_trigger(
            room,
            "dr-b",
            TriggerCondition::ChatContains { needle: "x".into() },
        ),
        ManageTriggers,
    );
    assert_viewer_denied(
        srv.configure_room(room, "dr-b", RoomConfig::new().with_capacity(Some(2))),
        ConfigureRoom,
    );
    assert_viewer_denied(srv.evict(room, "dr-b", "dr-a"), EvictMembers);
    assert_viewer_denied(
        srv.hand_off_presenter(room, "dr-b", "dr-a"),
        HandOffPresenter,
    );

    // Every denial above was counted, and none mutated room state.
    assert_eq!(
        srv.read_room(room, |r| Ok(r.stats()))
            .unwrap()
            .actions_denied,
        12
    );
    assert!(srv
        .read_room(room, |r| Ok(r.object(image_id)?.num_elements()))
        .is_ok());

    // What the viewer *can* do: chat and adjust their own view.
    srv.act(
        room,
        "dr-b",
        Action::Chat {
            text: "question!".into(),
        },
    )
    .unwrap();
    srv.act(
        room,
        "dr-b",
        Action::Choose {
            component: ct,
            form: 1,
        },
    )
    .unwrap();
}

#[test]
fn moderator_evicts_and_the_seat_is_freed() {
    let (srv, doc_id, image_id, _, _) = setup();
    srv.database()
        .put_user("admin", "student", rcmo_mediadb::AccessLevel::Read)
        .unwrap();
    let room = srv.create_room("dr-a", "lecture", doc_id).unwrap();
    let _prof = srv.join(room, &JoinRequest::presenter("dr-a")).unwrap();
    let moderator = srv.join(room, &JoinRequest::moderator("dr-b")).unwrap();
    let _student = srv.join(room, &JoinRequest::viewer("student")).unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();

    // The presenter cannot be evicted, nor can the moderator evict
    // themselves.
    assert!(srv.evict(room, "dr-b", "dr-a").is_err());
    assert!(srv.evict(room, "dr-b", "dr-b").is_err());

    srv.evict(room, "dr-b", "student").unwrap();
    assert!(!srv
        .read_room(room, |r| Ok(r.member_names()))
        .unwrap()
        .contains(&"student".to_string()));
    // Voluntary-removal semantics: an evicted member holds no reserved
    // role...
    assert_eq!(
        srv.read_room(room, |r| Ok(r.role_of("student"))).unwrap(),
        None
    );
    // ...and the eviction is a first-class event naming the authority.
    let seen = drain(&moderator);
    assert!(seen.contains(&RoomEvent::Evicted {
        user: "student".into(),
        by: "dr-b".into(),
    }));
    // They may rejoin — as whatever role they ask for afresh.
    let back = srv.join(room, &JoinRequest::viewer("student")).unwrap();
    assert_eq!(back.role, Role::Viewer);
}

#[test]
fn presenter_seat_is_unique_and_hands_off_mid_session() {
    let (srv, doc_id, _, ct, _) = setup();
    let room = srv.create_room("dr-a", "lecture", doc_id).unwrap();
    let prof = srv.join(room, &JoinRequest::presenter("dr-a")).unwrap();
    assert_eq!(prof.role, Role::Presenter);
    assert_eq!(
        srv.read_room(room, |r| Ok(r.presenter().map(str::to_string)))
            .unwrap()
            .as_deref(),
        Some("dr-a")
    );

    // A second presenter join is rejected with the structured cause (and
    // the cause is non-transient: clients should not retry it).
    match srv.join(room, &JoinRequest::presenter("dr-b")) {
        Err(ServerError::JoinRejected { cause, .. }) => {
            assert_eq!(cause, crate::error::JoinRejectCause::PresenterSeatTaken);
            assert!(!cause.is_transient());
        }
        other => panic!("expected PresenterSeatTaken, got {other:?}"),
    }

    let b = srv.join(room, &JoinRequest::moderator("dr-b")).unwrap();
    drain(&prof);
    drain(&b);

    // Only the presenter may hand off; mid-session the seat moves as a
    // demote-then-promote pair so no event prefix shows two presenters.
    assert!(srv.hand_off_presenter(room, "dr-b", "dr-a").is_err());
    srv.hand_off_presenter(room, "dr-a", "dr-b").unwrap();
    assert_eq!(
        drain(&b),
        vec![
            RoomEvent::RoleChanged {
                user: "dr-a".into(),
                role: Role::Moderator,
            },
            RoomEvent::RoleChanged {
                user: "dr-b".into(),
                role: Role::Presenter,
            },
        ]
    );
    assert_eq!(
        srv.read_room(room, |r| Ok(r.presenter().map(str::to_string)))
            .unwrap()
            .as_deref(),
        Some("dr-b")
    );
    assert_eq!(
        srv.read_room(room, |r| Ok(r.role_of("dr-a"))).unwrap(),
        Some(Role::Moderator)
    );

    // The new presenter drives; the old one no longer holds the seat.
    srv.act(
        room,
        "dr-b",
        Action::ApplyOperation {
            component: ct,
            trigger_form: 0,
            operation: "zoom".into(),
            global: true,
        },
    )
    .unwrap();
    assert!(srv.hand_off_presenter(room, "dr-a", "dr-b").is_err());
}

#[test]
fn slow_consumer_is_evicted_and_reclaims_role_by_resync() {
    let (srv, doc_id, _, _, _) = setup();
    let room = srv.create_room("dr-a", "lecture", doc_id).unwrap();
    let prof = srv.join(room, &JoinRequest::presenter("dr-a")).unwrap();
    // A viewer on a tiny queue who never drains: the modem client.
    let stalled = srv
        .join(room, &JoinRequest::viewer("dr-b").with_queue_bound(3))
        .unwrap();

    for i in 0..8 {
        srv.act(
            room,
            "dr-a",
            Action::Chat {
                text: format!("slide {i}"),
            },
        )
        .unwrap();
    }
    // The stalled member was evicted without ever blocking the presenter.
    assert!(!srv
        .read_room(room, |r| Ok(r.member_names()))
        .unwrap()
        .contains(&"dr-b".to_string()));
    assert!(
        srv.read_room(room, |r| Ok(r.stats()))
            .unwrap()
            .slow_consumers_evicted
            >= 1
    );
    let prof_saw = drain(&prof);
    assert!(prof_saw.contains(&RoomEvent::Left {
        user: "dr-b".into()
    }));

    // Involuntary removal keeps the seat reserved: the resync path hands
    // it back, with a snapshot catch-up (their queue bound was far behind
    // the replay horizon is irrelevant — they were removed, so the room
    // replays or snapshots from their last seen seq).
    assert_eq!(
        srv.read_room(room, |r| Ok(r.role_of("dr-b"))).unwrap(),
        Some(Role::Viewer)
    );
    let (back, catch_up) = srv.resync(room, "dr-b", 2).unwrap();
    assert_eq!(back.role, Role::Viewer);
    match catch_up {
        Resync::Events(evs) => assert!(!evs.is_empty()),
        Resync::Snapshot(snap) => assert!(snap.seq > 0),
    }
    drop(stalled);
}

#[test]
fn shared_payload_is_encoded_once_per_event() {
    let (srv, doc_id, _, _, _) = setup();
    let room = srv.create_room("dr-a", "lecture", doc_id).unwrap();
    let _prof = srv.join(room, &JoinRequest::presenter("dr-a")).unwrap();
    let audience: Vec<ClientConnection> = (0..16)
        .map(|i| {
            let user = format!("v-{i}");
            srv.database()
                .put_user("admin", &user, rcmo_mediadb::AccessLevel::Read)
                .unwrap();
            srv.join(room, &JoinRequest::viewer(&user)).unwrap()
        })
        .collect();

    let before = srv.read_room(room, |r| Ok(r.stats())).unwrap();
    for i in 0..10 {
        srv.act(
            room,
            "dr-a",
            Action::Chat {
                text: format!("slide {i}"),
            },
        )
        .unwrap();
    }
    let after = srv.read_room(room, |r| Ok(r.stats())).unwrap();
    // Encode-once: 10 events → 10 encodes, though 17 members each got a
    // copy delivered (pointer fan-out, not payload fan-out).
    assert_eq!(after.events_encoded - before.events_encoded, 10);
    assert!(after.events_delivered - before.events_delivered >= 10 * 17);
    for conn in &audience {
        let seqs: Vec<u64> = conn.events.try_iter().map(|e| e.seq).collect();
        // Every viewer observed a gap-free suffix of the room's order.
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(
            *seqs.last().unwrap(),
            srv.read_room(room, |r| Ok(r.change_log().last_seq()))
                .unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Bandwidth-adaptive delivery (DESIGN.md §16).

/// Adds a layered LIC1 image to the database and returns its id.
fn insert_lic_image(srv: &InteractionServer) -> u64 {
    let img = ct_phantom(64, 2, 5).unwrap();
    let data = rcmo_codec::encode(&img, &rcmo_codec::EncoderConfig::default()).unwrap();
    srv.database()
        .insert_image(
            "admin",
            &ImageObject {
                name: "ct-layered".to_string(),
                quality: 0,
                texts: String::new(),
                cm: Vec::new(),
                data,
            },
        )
        .unwrap()
}

#[test]
fn delivery_depth_tracks_the_members_bandwidth() {
    let (srv, doc_id, _, _, _) = setup();
    let lic_id = insert_lic_image(&srv);
    // A tight render budget so a 64×64 phantom still discriminates: at
    // 50 ms, a modem carries only the base layer and a LAN all of them.
    srv.set_delivery_config(crate::delivery::DeliveryConfig {
        ttfr_budget_s: 0.05,
        ..crate::delivery::DeliveryConfig::default()
    });
    let room = srv.create_room("dr-a", "clinic", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();

    // No estimate yet: the policy's default bandwidth applies; the chosen
    // depth comes from the object's real ladder.
    let first = srv.deliver_image(room, "dr-a", lic_id).unwrap();
    assert!(first.layers >= 1 && first.layers <= first.total_layers);
    assert!(first.estimate_bps.is_none());
    assert!(first.payload.starts_with(b"LIC1"));

    // A 56k-modem transfer report drags the estimate down to base depth…
    srv.report_transfer(room, "dr-a", 7_000, 1.0).unwrap();
    let slow = srv.deliver_image(room, "dr-a", lic_id).unwrap();
    assert_eq!(slow.layers, 1, "modem viewer gets the base layer");
    assert!(slow.payload.len() < slow.full_bytes as usize);
    // …and the prefix decodes to a coarse render.
    assert!(rcmo_codec::decode(&slow.payload).is_ok());

    // Repeated LAN-speed reports recover full depth.
    for _ in 0..8 {
        srv.report_transfer(room, "dr-a", 1_250_000, 1.0).unwrap();
    }
    assert!(srv.estimated_bandwidth(room, "dr-a").unwrap().unwrap() > 1_000_000.0);
    let fast = srv.deliver_image(room, "dr-a", lic_id).unwrap();
    assert_eq!(fast.layers, fast.total_layers);
    assert!(fast.is_full_depth());
}

#[test]
fn room_cache_makes_storage_reads_per_object_not_per_viewer() {
    let (srv, doc_id, _, _, _) = setup();
    let lic_id = insert_lic_image(&srv);
    let room = srv.create_room("dr-a", "lecture", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    let viewers: Vec<String> = (0..20).map(|i| format!("student-{i}")).collect();
    // Keep the connections alive: a dropped stream gets its member reaped.
    let mut conns = Vec::new();
    for v in &viewers {
        srv.database()
            .put_user("admin", v, rcmo_mediadb::AccessLevel::Read)
            .unwrap();
        conns.push(srv.join(room, &JoinRequest::viewer(v)).unwrap());
    }
    for v in &viewers {
        srv.deliver_image(room, v, lic_id).unwrap();
    }
    let snap = srv.metrics();
    // 20 viewers, one storage miss; everyone else rode the Arc.
    assert_eq!(snap.counters["server.delivery.cache.miss.count"], 1);
    assert!(snap.counters["server.delivery.cache.hit.count"] >= 19);
    // Same full payload: same allocation, shared across deliveries.
    let d1 = srv.deliver_image(room, "student-0", lic_id).unwrap();
    let d2 = srv.deliver_image(room, "student-1", lic_id).unwrap();
    assert!(Arc::ptr_eq(&d1.payload, &d2.payload));
}

#[test]
fn saving_an_object_invalidates_its_cached_payloads() {
    let (srv, doc_id, image_id, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    srv.open_image(room, "dr-a", image_id).unwrap();
    let before = srv.metrics().counters["server.delivery.cache.miss.count"];
    srv.save_and_close_image(room, "dr-a", image_id).unwrap();
    // The cache dropped the stale payload: reopening re-reads storage.
    srv.open_image(room, "dr-a", image_id).unwrap();
    let snap = srv.metrics();
    assert_eq!(
        snap.counters["server.delivery.cache.miss.count"],
        before + 1
    );
    assert!(snap.counters["server.delivery.cache.invalidate.count"] >= 1);
}

#[test]
fn warm_cache_prefetches_the_documents_stored_images() {
    let (srv, doc_id, image_id, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _a = srv.join_default(room, "dr-a").unwrap();
    // The document's CT component references the stored image; warming
    // loads it before anyone asks.
    let warmed = srv.warm_room_cache(room, "dr-a").unwrap();
    assert_eq!(warmed, 1);
    srv.open_image(room, "dr-a", image_id).unwrap();
    let snap = srv.metrics();
    assert_eq!(
        snap.counters["server.delivery.cache.miss.count"], 1,
        "the open after warming is a pure cache hit"
    );
    assert!(snap.counters["server.delivery.cache.hit.count"] >= 1);
}

#[test]
fn adopting_a_broken_change_log_tail_is_invalid_and_inserts_nothing() {
    let (srv, doc_id, _, _, _) = setup();
    let room = srv.create_room("dr-a", "consult", doc_id).unwrap();
    let _conn = srv.join(room, &JoinRequest::moderator("dr-a")).unwrap();
    for i in 0..3 {
        let text = format!("c{i}");
        srv.act(room, "dr-a", Action::Chat { text }).unwrap();
    }
    srv.freeze_room_for_migration(room).unwrap();
    let state = srv.detach_room(room).unwrap().state;
    assert_eq!(state.tail.len(), 4);

    let mut gap = state.clone();
    gap.tail.remove(1);
    let mut short = state.clone();
    short.tail.pop();
    for broken in [gap, short] {
        let detached = DetachedRoom {
            id: room,
            state: broken,
            log: None,
        };
        assert!(matches!(
            srv.adopt_room(detached),
            Err(ServerError::Invalid(_))
        ));
        assert!(matches!(
            srv.read_room(room, |_| Ok(())),
            Err(ServerError::UnknownRoom(_))
        ));
    }
    let detached = DetachedRoom {
        id: room,
        state,
        log: None,
    };
    srv.adopt_room(detached).unwrap();
    assert_eq!(
        srv.read_room(room, |r| Ok(r.change_log().last_seq()))
            .unwrap(),
        4
    );
}
