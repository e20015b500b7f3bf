//! Per-room concurrency, end to end: many OS threads drive independent
//! rooms through the public `rcmo::server` surface while rooms are created
//! and left, metrics are snapshot, and the server is `Debug`-formatted —
//! the integration-level complement to the in-crate stress test. Verifies
//! the two-level locking scheme's observable guarantees: per-room event
//! integrity, cross-room isolation, and the lock wait/hold instrumentation.

use rcmo::core::{ComponentId, FormKind, MediaRef, MultimediaDocument, PresentationForm};
use rcmo::imaging::LineElement;
use rcmo::mediadb::{AccessLevel, DocumentObject, ImageObject, MediaDb};
use rcmo::server::{Action, InteractionServer, SequencedEvent};
use std::sync::Arc;

const ROOMS: usize = 4;
const MEMBERS: usize = 2;
const OPS: usize = 30;

/// A server with `ROOMS × MEMBERS` write-enabled users, one stored
/// document, and one stored image; returns `(server, doc id, image id)`.
fn fixture() -> (InteractionServer, u64, u64) {
    let db = MediaDb::in_memory().unwrap();
    for r in 0..ROOMS {
        for m in 0..MEMBERS {
            db.put_user("admin", &format!("u-{r}-{m}"), AccessLevel::Write)
                .unwrap();
        }
    }
    db.put_user("admin", "churn", AccessLevel::Write).unwrap();
    let ct = rcmo::imaging::ct_phantom(64, 2, 2).unwrap();
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
        .unwrap();
    let mut doc = MultimediaDocument::new("Ward round");
    let folder = doc.add_composite(doc.root(), "images").unwrap();
    doc.add_primitive(
        folder,
        "CT",
        MediaRef::None,
        vec![
            PresentationForm::new("flat", FormKind::Flat, 50_000),
            PresentationForm::new("icon", FormKind::Icon, 2_000),
            PresentationForm::hidden(),
        ],
    )
    .unwrap();
    doc.validate().unwrap();
    let doc_id = db
        .insert_document(
            "admin",
            &DocumentObject {
                title: doc.title().into(),
                data: doc.to_bytes(),
            },
        )
        .unwrap();
    (InteractionServer::new(db), doc_id, image_id)
}

/// ≥8 worker threads over ≥4 rooms, with concurrent room churn, metrics
/// snapshots and `Debug` formatting. Afterwards every room's members must
/// have observed one identical, gap-free event order containing no other
/// room's traffic.
#[test]
fn eight_threads_four_rooms_no_deadlock_no_crosstalk() {
    let (srv, doc_id, image_id) = fixture();
    let srv = Arc::new(srv);
    let rooms: Vec<u64> = (0..ROOMS)
        .map(|r| {
            srv.create_room("admin", &format!("room-{r}"), doc_id)
                .unwrap()
        })
        .collect();
    let mut conns = Vec::new();
    for (r, &room) in rooms.iter().enumerate() {
        for m in 0..MEMBERS {
            conns.push((r, srv.join_default(room, &format!("u-{r}-{m}")).unwrap()));
        }
        srv.open_image(room, &format!("u-{r}-0"), image_id).unwrap();
    }

    let mut handles = Vec::new();
    for (r, &room) in rooms.iter().enumerate() {
        for m in 0..MEMBERS {
            let srv = Arc::clone(&srv);
            let user = format!("u-{r}-{m}");
            handles.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    match i % 4 {
                        0 => srv
                            .act(
                                room,
                                &user,
                                Action::Chat {
                                    text: format!("{user}:{i}"),
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
                                        y0: (i % 64) as i64,
                                        x1: 63,
                                        y1: 0,
                                        intensity: 200,
                                    },
                                },
                            )
                            .unwrap(),
                        2 => {
                            let _ = srv.act(
                                room,
                                &user,
                                Action::Choose {
                                    component: ComponentId(2),
                                    form: i % 2,
                                },
                            );
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
    // Churn: create/join/leave rooms while the workers run.
    {
        let srv = Arc::clone(&srv);
        handles.push(std::thread::spawn(move || {
            for i in 0..10 {
                let room = srv
                    .create_room("churn", &format!("ephemeral-{i}"), doc_id)
                    .unwrap();
                let _conn = srv.join_default(room, "churn").unwrap();
                srv.act(
                    room,
                    "churn",
                    Action::Chat {
                        text: "passing through".into(),
                    },
                )
                .unwrap();
                srv.leave(room, "churn").unwrap();
            }
        }));
    }
    // Observer: snapshots and Debug must stay responsive throughout.
    {
        let srv = Arc::clone(&srv);
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let snap = srv.metrics();
                assert!(snap.counters.contains_key("server.rooms.map.read.count"));
                assert!(format!("{srv:?}").starts_with("InteractionServer(rooms="));
                std::thread::yield_now();
            }
        }));
    }
    assert!(
        handles.len() >= 10,
        "stress needs >= 8 workers + churn + observer"
    );
    for h in handles {
        h.join().unwrap();
    }

    for (r, &room) in rooms.iter().enumerate() {
        let streams: Vec<Vec<Arc<SequencedEvent>>> = conns
            .iter()
            .filter(|(cr, _)| *cr == r)
            .map(|(_, c)| c.events.try_iter().collect())
            .collect();
        assert_eq!(streams.len(), MEMBERS);
        let n = streams.iter().map(|s| s.len()).min().unwrap();
        assert!(n > 0, "room {room} delivered no events");
        for w in streams.windows(2) {
            assert_eq!(
                w[0][w[0].len() - n..],
                w[1][w[1].len() - n..],
                "room {room}: members saw different event orders"
            );
        }
        for s in &streams {
            assert!(
                s.windows(2).all(|w| w[1].seq == w[0].seq + 1),
                "room {room}: non-contiguous sequence numbers"
            );
            for ev in s {
                let dump = format!("{:?}", ev.event);
                for other in (0..ROOMS).filter(|&o| o != r) {
                    assert!(
                        !dump.contains(&format!("u-{other}-")),
                        "room {room}: saw room-{other} traffic: {dump}"
                    );
                }
            }
        }
    }

    // The per-room lock instrumentation is part of the public metrics
    // surface: wait/hold histograms and map acquisition counters.
    let snap = srv.metrics();
    for h in ["server.room.lock.wait.us", "server.room.lock.hold.us"] {
        let hist = snap
            .histograms
            .get(h)
            .unwrap_or_else(|| panic!("{h} missing from metrics()"));
        assert!(hist.count > 0, "{h} recorded no samples");
    }
    assert!(snap.counters["server.rooms.map.read.count"] > 0);
    assert!(snap.counters["server.rooms.map.write.count"] >= (ROOMS + 10) as u64);
}

/// A stalled room must not impede the rest of the server: while one room's
/// lock is pinned, every other room (and room creation) stays live.
#[test]
fn stalled_room_does_not_block_the_server() {
    let (srv, doc_id, image_id) = fixture();
    let slow = srv.create_room("admin", "slow", doc_id).unwrap();
    let fast = srv.create_room("admin", "fast", doc_id).unwrap();
    let _s = srv.join_default(slow, "u-0-0").unwrap();
    let _f = srv.join_default(fast, "u-1-0").unwrap();
    srv.open_image(fast, "u-1-0", image_id).unwrap();

    let handle = srv.room_handle(slow).unwrap();
    let guard = handle.lock();
    // Same-thread progress through other rooms proves no global lock is
    // involved anywhere on these paths.
    srv.act(
        fast,
        "u-1-0",
        Action::Chat {
            text: "live".into(),
        },
    )
    .unwrap();
    srv.read_room(fast, |r| Ok(r.object(image_id)?.render()))
        .unwrap();
    srv.read_room(fast, |r| r.render_presentation("u-1-0"))
        .unwrap();
    let extra = srv.create_room("admin", "extra", doc_id).unwrap();
    assert!(srv
        .read_room(extra, |r| Ok(r.member_names()))
        .unwrap()
        .is_empty());
    assert!(format!("{srv:?}").contains("rooms=3"));
    drop(guard);
    srv.act(
        slow,
        "u-0-0",
        Action::Chat {
            text: "caught up".into(),
        },
    )
    .unwrap();
}
