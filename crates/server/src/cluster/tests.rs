use super::*;
use crate::error::{JoinRejectCause, ServerError};
use crate::events::{Action, RoomEvent};
use crate::resync::Resync;
use crate::role::{JoinRequest, Role};
use crate::room::RoomConfig;
use crate::server::{ClientConnection, InteractionServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcmo_core::{FormKind, MediaRef, MultimediaDocument, PresentationForm};
use rcmo_imaging::{ct_phantom, LineElement, TextElement};
use rcmo_mediadb::{AccessLevel, DocumentObject, ImageObject, MediaDb};
use rcmo_netsim::FaultSpec;
use rcmo_obs::Metrics;

/// A database with `users` write-level users (`user-0` …), one stored CT
/// image, and one document referencing it.
fn fixture_db(users: usize) -> (MediaDb, u64, u64) {
    let db = MediaDb::in_memory().unwrap();
    for u in 0..users {
        db.put_user("admin", &format!("user-{u}"), AccessLevel::Write)
            .unwrap();
    }
    let ct = ct_phantom(32, 2, 1).unwrap();
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
    let mut doc = MultimediaDocument::new("Case");
    let images = doc.add_composite(doc.root(), "Images").unwrap();
    doc.add_primitive(
        images,
        "CT",
        MediaRef::Stored {
            media_type: "Image".into(),
            object_id: image_id,
        },
        vec![
            PresentationForm::new("flat", FormKind::Flat, 100_000),
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
    (db, doc_id, image_id)
}

/// Test-sized retry budget: transient states resolve (or fail) fast.
fn test_config(shards: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(shards);
    cfg.route_retries = 4;
    cfg.route_backoff_base_us = 10;
    cfg.route_backoff_cap_us = 100;
    cfg
}

fn cluster(shards: usize, users: usize) -> (ClusterFrontend, u64, u64) {
    let (db, doc_id, image_id) = fixture_db(users);
    (
        ClusterFrontend::new(db, test_config(shards)),
        doc_id,
        image_id,
    )
}

fn payloads(conn: &ClientConnection) -> Vec<RoomEvent> {
    conn.events.try_iter().map(|e| e.event.clone()).collect()
}

#[test]
fn rooms_spread_across_shards_and_route_transparently() {
    let (cf, doc_id, _) = cluster(4, 8);
    let mut rooms = Vec::new();
    for i in 0..8 {
        let user = format!("user-{i}");
        rooms.push(cf.create_room(&user, &format!("room-{i}"), doc_id).unwrap());
    }
    // Consistent hashing with 16 vnodes/shard spreads 8 rooms over >1 shard.
    let populated = (0..4)
        .filter(|&s| cf.shard_server(s).room_count() > 0)
        .count();
    assert!(populated >= 2, "placement collapsed onto {populated} shard");
    assert_eq!(
        (0..4).map(|s| cf.shard_server(s).room_count()).sum::<u64>(),
        8
    );
    // Every room is reachable through the frontend regardless of shard.
    for (i, &room) in rooms.iter().enumerate() {
        let user = format!("user-{i}");
        let conn = cf.join_default(room, &user).unwrap();
        cf.act(
            room,
            &user,
            Action::Chat {
                text: format!("hello from {i}"),
            },
        )
        .unwrap();
        let got = payloads(&conn);
        assert!(got
            .iter()
            .any(|e| matches!(e, RoomEvent::Chat { text, .. } if text.contains("hello"))));
        assert!(!cf
            .read_room(room, |r| r.render_presentation(&user))
            .unwrap()
            .is_empty());
    }
    assert_eq!(Metrics::metrics(&cf).rooms, 8);
}

#[test]
fn announcement_fans_out_across_shards() {
    let (cf, doc_id, _) = cluster(3, 6);
    let mut conns = Vec::new();
    for i in 0..6 {
        let user = format!("user-{i}");
        let room = cf.create_room(&user, &format!("r{i}"), doc_id).unwrap();
        conns.push(cf.join_default(room, &user).unwrap());
    }
    let reached = cf
        .broadcast_announcement("admin", "maintenance at noon")
        .unwrap();
    assert_eq!(reached, 6);
    for conn in &conns {
        assert!(payloads(conn)
            .iter()
            .any(|e| matches!(e, RoomEvent::Chat { text, .. } if text.contains("maintenance"))));
    }
}

#[test]
fn close_and_reap_keep_directory_and_room_count_in_sync() {
    let (cf, doc_id, _) = cluster(2, 3);
    let keep = cf.create_room("user-0", "keep", doc_id).unwrap();
    let close = cf.create_room("user-1", "close", doc_id).unwrap();
    let idle = cf.create_room("user-2", "idle", doc_id).unwrap();
    let _conn = cf.join_default(keep, "user-0").unwrap();

    cf.close_room(close).unwrap();
    assert!(matches!(
        cf.join_default(close, "user-1"),
        Err(ServerError::JoinRejected {
            cause: JoinRejectCause::RoomNotFound,
            ..
        })
    ));

    // Reaping closes the member-less room but not the occupied one.
    let reaped = cf.reap_empty_rooms();
    assert_eq!(reaped, vec![idle]);
    assert!(cf.read_room(keep, |r| Ok(r.member_names())).is_ok());
    let total: u64 = (0..2).map(|s| cf.shard_server(s).room_count()).sum();
    assert_eq!(total, 1);
    assert_eq!(Metrics::metrics(&cf).rooms, 1);
}

#[test]
fn zero_change_log_capacity_is_rejected() {
    let (cf, doc_id, _) = cluster(1, 1);
    let room = cf.create_room("user-0", "r", doc_id).unwrap();
    let _c = cf.join_default(room, "user-0").unwrap();
    match cf.configure_room(
        room,
        "user-0",
        RoomConfig::new().with_change_log_capacity(0),
    ) {
        Err(ServerError::Invalid(msg)) => assert!(msg.contains("at least 1")),
        other => panic!("expected Invalid, got {other:?}"),
    }
    cf.configure_room(
        room,
        "user-0",
        RoomConfig::new().with_change_log_capacity(8),
    )
    .unwrap();
    // Zero queue bounds are rejected the same way, at creation too.
    match cf.create_room_with_config(
        "user-0",
        "r2",
        doc_id,
        RoomConfig::new().with_member_queue_bound(0),
    ) {
        Err(ServerError::Invalid(msg)) => assert!(msg.contains("queue bound")),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn join_rejections_carry_structured_causes() {
    let (cf, doc_id, _) = cluster(2, 3);
    // Unknown room.
    match cf.join_default(99, "user-0") {
        Err(ServerError::JoinRejected { room, cause }) => {
            assert_eq!(room, 99);
            assert_eq!(cause, JoinRejectCause::RoomNotFound);
            assert!(!cause.is_transient());
        }
        other => panic!("expected JoinRejected, got {other:?}"),
    }
    // Capacity (configured up front, before the first member).
    let room = cf
        .create_room_with_config(
            "user-0",
            "small",
            doc_id,
            RoomConfig::new().with_capacity(Some(1)),
        )
        .unwrap();
    let _first = cf.join_default(room, "user-0").unwrap();
    match cf.join_default(room, "user-1") {
        Err(ServerError::JoinRejected { cause, .. }) => {
            assert_eq!(cause, JoinRejectCause::AtCapacity);
            assert!(cause
                .as_str()
                .contains("maximum number of room participants"));
        }
        other => panic!("expected AtCapacity, got {other:?}"),
    }
    // Lifting the bound (a member holding ConfigureRoom reconfigures)
    // admits the second member.
    cf.configure_room(room, "user-0", RoomConfig::new().with_capacity(None))
        .unwrap();
    cf.join_default(room, "user-1").unwrap();
}

#[test]
fn frozen_room_rejects_join_with_migration_cause() {
    let (cf, doc_id, _) = cluster(2, 2);
    let room = cf.create_room("user-0", "r", doc_id).unwrap();
    cf.join_default(room, "user-0").unwrap();
    let shard = (0..2)
        .find(|&s| cf.shard_server(s).room_count() > 0)
        .unwrap();
    cf.shard_server(shard)
        .freeze_room_for_migration(room)
        .unwrap();
    match cf.join_default(room, "user-1") {
        Err(ServerError::JoinRejected { cause, .. }) => {
            assert_eq!(cause, JoinRejectCause::RoomFrozenForMigration);
            assert!(cause.is_transient());
        }
        other => panic!("expected frozen rejection, got {other:?}"),
    }
    cf.shard_server(shard).thaw_room(room).unwrap();
    cf.join_default(room, "user-1").unwrap();
}

#[test]
fn migration_is_transparent_to_live_members() {
    let (cf, doc_id, image_id) = cluster(2, 2);
    let room = cf.create_room("user-0", "tumor-board", doc_id).unwrap();
    let a = cf.join_default(room, "user-0").unwrap();
    let b = cf.join_default(room, "user-1").unwrap();
    cf.open_image(room, "user-0", image_id).unwrap();
    for i in 0..5 {
        cf.act(
            room,
            "user-0",
            Action::Chat {
                text: format!("pre-{i}"),
            },
        )
        .unwrap();
    }
    let source = (0..2)
        .find(|&s| cf.shard_server(s).room_count() == 1)
        .unwrap();
    let target = 1 - source;
    let before = cf
        .read_room(room, |r| Ok(r.change_log().last_seq()))
        .unwrap();

    cf.migrate_room(room, target).unwrap();

    assert_eq!(cf.shard_server(source).room_count(), 0);
    assert_eq!(cf.shard_server(target).room_count(), 1);
    // The total order continues: same seq counter, same replay horizon.
    assert_eq!(
        cf.read_room(room, |r| Ok(r.change_log().last_seq()))
            .unwrap(),
        before
    );
    for i in 0..5 {
        cf.act(
            room,
            "user-1",
            Action::Chat {
                text: format!("post-{i}"),
            },
        )
        .unwrap();
    }
    // Both members' original connections span the handoff: dense seqs,
    // no gap, no duplicate, all ten chats present.
    for conn in [&a, &b] {
        let events: Vec<_> = conn.events.try_iter().collect();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "gap in {seqs:?}");
        let chats: Vec<String> = events
            .iter()
            .filter_map(|e| match &e.event {
                RoomEvent::Chat { text, .. } => Some(text.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(chats.iter().filter(|t| t.starts_with("pre-")).count(), 5);
        assert_eq!(chats.iter().filter(|t| t.starts_with("post-")).count(), 5);
    }
    // The annotated shared object crossed over too.
    assert_eq!(
        cf.read_room(room, |r| Ok(r.object(image_id)?.num_elements()))
            .unwrap(),
        0
    );
    assert_eq!(
        cf.read_room(room, |r| Ok(r.member_names())).unwrap().len(),
        2
    );
    assert_eq!(Metrics::metrics(&cf).migrations, 1);
}

#[test]
fn migration_rejects_bad_targets_and_rolls_back() {
    let (cf, doc_id, _) = cluster(2, 1);
    let room = cf.create_room("user-0", "r", doc_id).unwrap();
    let source = (0..2)
        .find(|&s| cf.shard_server(s).room_count() == 1)
        .unwrap();

    // Migrating to the current shard is a no-op.
    cf.migrate_room(room, source).unwrap();
    assert_eq!(Metrics::metrics(&cf).migrations, 0);

    // Unknown room.
    assert!(matches!(
        cf.migrate_room(999, source),
        Err(ServerError::UnknownRoom(999))
    ));

    // A dead target is refused outright.
    let target = 1 - source;
    cf.kill_shard(target);
    let newly_dead = cf.advance(10.0);
    assert_eq!(newly_dead, vec![target]);
    assert!(matches!(
        cf.migrate_room(room, target),
        Err(ServerError::Invalid(_))
    ));
    // The room still serves from its original shard.
    cf.join_default(room, "user-0").unwrap();
    assert_eq!(
        cf.shard_health(target),
        ShardHealth::Dead,
        "death is sticky"
    );
}

#[test]
fn failover_rebuilds_rooms_with_zero_event_loss() {
    let (db, doc_id, image_id) = fixture_db(4);
    let mut cfg = test_config(2);
    cfg.heartbeat_faults = vec![FaultSpec::none(); 2];
    let cf = ClusterFrontend::new(db, cfg);

    // Two rooms, one pinned to each shard via migration so the kill hits
    // exactly one of them.
    let doomed = cf.create_room("user-0", "doomed", doc_id).unwrap();
    let safe = cf.create_room("user-1", "safe", doc_id).unwrap();
    cf.migrate_room(doomed, 0).unwrap();
    cf.migrate_room(safe, 1).unwrap();

    let conn = cf.join_default(doomed, "user-0").unwrap();
    let safe_conn = cf.join_default(safe, "user-1").unwrap();
    cf.open_image(doomed, "user-0", image_id).unwrap();
    cf.act(
        doomed,
        "user-0",
        Action::AddLine {
            object: image_id,
            element: LineElement {
                x0: 0,
                y0: 0,
                x1: 10,
                y1: 10,
                intensity: 200,
            },
        },
    )
    .unwrap();
    for i in 0..6 {
        cf.act(
            doomed,
            "user-0",
            Action::Chat {
                text: format!("m{i}"),
            },
        )
        .unwrap();
    }
    // The uninterrupted observer's view of the total order, pre-crash.
    let reference: Vec<_> = conn.events.try_iter().collect();
    let last_seen = reference.last().unwrap().seq;
    assert_eq!(
        cf.read_room(doomed, |r| Ok(r.change_log().last_seq()))
            .unwrap(),
        last_seen
    );
    // The replica is current before the crash.
    assert_eq!(cf.replication_status(doomed).unwrap().0, last_seen);

    // Crash shard 0; the detector declares it dead; failover re-homes the
    // doomed room onto shard 1.
    cf.kill_shard(0);
    let moved = cf.advance_and_fail_over(10.0).unwrap();
    assert_eq!(moved, vec![(doomed, 1)]);
    assert_eq!(cf.shard_server(1).room_count(), 2);

    // The surviving room never noticed.
    cf.act(
        safe,
        "user-1",
        Action::Chat {
            text: "still here".into(),
        },
    )
    .unwrap();
    assert!(payloads(&safe_conn)
        .iter()
        .any(|e| matches!(e, RoomEvent::Chat { text, .. } if text == "still here")));

    // Zero loss, E13-style: a client resyncing from seq 0 replays a
    // stream identical to the uninterrupted reference over the common
    // range, and the order stays dense.
    let (conn2, catch_up) = cf.resync(doomed, "user-0", 0).unwrap();
    let Resync::Events(replayed) = catch_up else {
        panic!("within horizon: expected event replay, got snapshot");
    };
    assert_eq!(replayed, reference, "rebuilt order diverged from original");

    // The rebuilt room keeps serving: state survived (annotation intact),
    // and new events continue the dense order.
    assert_eq!(
        cf.read_room(doomed, |r| Ok(r.object(image_id)?.num_elements()))
            .unwrap(),
        1
    );
    cf.act(
        doomed,
        "user-0",
        Action::Chat {
            text: "after".into(),
        },
    )
    .unwrap();
    let new_events: Vec<_> = conn2.events.try_iter().collect();
    let seqs: Vec<u64> = new_events.iter().map(|e| e.seq).collect();
    assert!(!seqs.is_empty());
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1) && seqs[0] == last_seen + 1,
        "post-failover seqs not dense from {last_seen}: {seqs:?}"
    );

    let stats = Metrics::metrics(&cf);
    assert_eq!(stats.failover_shards, 1);
    assert_eq!(stats.failover_rooms, 1);
    assert_eq!(stats.failover_lossy_events, 0);
}

#[test]
fn create_room_avoids_dead_shards() {
    let (cf, doc_id, _) = cluster(2, 1);
    cf.kill_shard(1);
    cf.advance(10.0);
    // Every new room lands on the survivor even when the hash prefers the
    // dead shard (its ring points are still present until failover).
    for i in 0..6 {
        let room = cf.create_room("user-0", &format!("r{i}"), doc_id).unwrap();
        assert!(cf.join_default(room, "user-0").is_ok());
    }
    assert_eq!(cf.shard_server(0).room_count(), 6);
    assert_eq!(cf.shard_server(1).room_count(), 0);
}

#[test]
fn refused_create_leaves_no_directory_entry() {
    let (cf, doc_id, _) = cluster(2, 1);
    let room = cf.create_room("user-0", "r", doc_id).unwrap();
    cf.kill_shard(0);
    cf.kill_shard(1);
    cf.advance(10.0);
    assert!(cf.surviving_shards().is_empty());
    assert!(matches!(
        cf.create_room("user-0", "refused", doc_id),
        Err(ServerError::Invalid(_))
    ));
    // `close_room` rewrites the gauge from the directory's length, so a
    // placement the refused create left behind would be counted here.
    cf.close_room(room).unwrap();
    assert_eq!(Metrics::metrics(&cf).rooms, 0);
}

/// Satellite property test: for random interaction histories, freeze →
/// export → rebuild is an identity on everything a member can observe —
/// presentation, member set, shared-object state, sequence counter, and
/// replay horizon — including a non-empty change-log tail.
#[test]
fn property_freeze_export_rebuild_is_identity() {
    for seed in 0..8u64 {
        let (db, doc_id, image_id) = fixture_db(3);
        let source = InteractionServer::new(db.clone());
        let dest = InteractionServer::new(db);
        let room = source.create_room("user-0", "prop", doc_id).unwrap();
        let users = ["user-0", "user-1", "user-2"];
        let conns: Vec<_> = users
            .iter()
            .map(|u| source.join_default(room, u).unwrap())
            .collect();
        source.open_image(room, "user-0", image_id).unwrap();

        let mut rng = StdRng::seed_from_u64(seed);
        let steps = rng.gen_range(5..40);
        for step in 0..steps {
            let user = users[rng.gen_range(0..users.len())];
            match rng.gen_range(0..4) {
                0 => source
                    .act(
                        room,
                        user,
                        Action::Chat {
                            text: format!("s{step}"),
                        },
                    )
                    .unwrap(),
                1 => source
                    .act(
                        room,
                        user,
                        Action::AddLine {
                            object: image_id,
                            element: LineElement {
                                x0: rng.gen_range(0..32),
                                y0: rng.gen_range(0..32),
                                x1: rng.gen_range(0..32),
                                y1: rng.gen_range(0..32),
                                intensity: 255,
                            },
                        },
                    )
                    .unwrap(),
                2 => source
                    .act(
                        room,
                        user,
                        Action::AddText {
                            object: image_id,
                            element: TextElement {
                                x: rng.gen_range(0..32),
                                y: rng.gen_range(0..32),
                                text: format!("t{step}"),
                                intensity: 200,
                                scale: 1,
                            },
                        },
                    )
                    .unwrap(),
                _ => {
                    source
                        .act(room, user, Action::Freeze { object: image_id })
                        .unwrap();
                    source
                        .act(room, user, Action::Release { object: image_id })
                        .unwrap();
                }
            }
        }

        let members_before = source.read_room(room, |r| Ok(r.member_names())).unwrap();
        let last_seq = source
            .read_room(room, |r| Ok(r.change_log().last_seq()))
            .unwrap();
        let log_len = source
            .read_room(room, |r| Ok(r.change_log().len()))
            .unwrap();
        let elements = source
            .read_room(room, |r| Ok(r.object(image_id)?.num_elements()))
            .unwrap();
        let views: Vec<String> = users
            .iter()
            .map(|u| {
                source
                    .read_room(room, |r| r.render_presentation(u))
                    .unwrap()
            })
            .collect();
        assert!(log_len > 0, "history must leave a non-empty tail");

        source.freeze_room_for_migration(room).unwrap();
        let detached = source.detach_room(room).unwrap();
        assert_eq!(detached.state.tail.len(), log_len);
        dest.adopt_room(detached).unwrap();

        // Everything observable is preserved on the destination.
        assert_eq!(
            dest.read_room(room, |r| Ok(r.member_names())).unwrap(),
            members_before,
            "seed {seed}"
        );
        assert_eq!(
            dest.read_room(room, |r| Ok(r.change_log().last_seq()))
                .unwrap(),
            last_seq,
            "seed {seed}"
        );
        assert_eq!(
            dest.read_room(room, |r| Ok(r.change_log().len())).unwrap(),
            log_len,
            "seed {seed}"
        );
        assert_eq!(
            dest.read_room(room, |r| Ok(r.object(image_id)?.num_elements()))
                .unwrap(),
            elements,
            "seed {seed}"
        );
        for (u, view) in users.iter().zip(&views) {
            assert_eq!(
                &dest.read_room(room, |r| r.render_presentation(u)).unwrap(),
                view,
                "seed {seed}"
            );
        }
        // The order continues densely: the next event takes last_seq + 1,
        // delivered over the members' original (re-attached) channels.
        dest.act(
            room,
            "user-1",
            Action::Chat {
                text: "cont".into(),
            },
        )
        .unwrap();
        for conn in &conns {
            let tail: Vec<_> = conn.events.try_iter().collect();
            assert_eq!(tail.last().unwrap().seq, last_seq + 1, "seed {seed}");
        }
        // And the destination can still serve a full-horizon resync.
        let (_c, catch_up) = dest.resync(room, "user-2", 0).unwrap();
        match catch_up {
            Resync::Events(ev) => assert_eq!(ev.last().unwrap().seq, last_seq + 1),
            Resync::Snapshot(s) => assert_eq!(s.seq, last_seq + 1),
        }
    }
}

#[test]
fn suspect_shard_call_fails_after_retry_budget_then_recovers() {
    let (db, doc_id, _) = fixture_db(1);
    let mut cfg = test_config(1);
    // Shard 0's heartbeats black out over [5, 7): long enough to go
    // suspect, short of the 2 s death threshold.
    cfg.heartbeat_faults = vec![FaultSpec::none().with_outage(5.0, 7.0)];
    let cf = ClusterFrontend::new(db, cfg);
    let room = cf.create_room("user-0", "r", doc_id).unwrap();
    cf.join_default(room, "user-0").unwrap();

    // Inside the outage: suspect. The very next routed call is refused —
    // the data plane reads the health `advance` itself published, with
    // nothing refreshing it first.
    cf.advance(6.5);
    match cf.act(room, "user-0", Action::Chat { text: "x".into() }) {
        Err(ServerError::ShardUnavailable { shard: 0, room: r }) => assert_eq!(r, room),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    assert_eq!(cf.shard_health(0), ShardHealth::Suspect);
    assert_eq!(cf.metrics().gauges["cluster.shard.0.health"], 1);
    let retries_after_suspect = Metrics::metrics(&cf).route_retries;
    assert!(retries_after_suspect > 0);

    cf.advance(1.0); // beats resume: alive again, calls flow
    cf.act(room, "user-0", Action::Chat { text: "y".into() })
        .unwrap();
    assert_eq!(cf.shard_health(0), ShardHealth::Alive);
}

#[test]
fn roles_survive_migration_and_failover() {
    let (db, doc_id, image_id) = fixture_db(3);
    let mut cfg = test_config(2);
    cfg.heartbeat_faults = vec![FaultSpec::none(); 2];
    let cf = ClusterFrontend::new(db, cfg);

    let room = cf.create_room("user-0", "lecture", doc_id).unwrap();
    cf.migrate_room(room, 0).unwrap();
    let prof = cf.join(room, &JoinRequest::presenter("user-0")).unwrap();
    assert_eq!(prof.role, Role::Presenter);
    let _viewer = cf.join(room, &JoinRequest::viewer("user-1")).unwrap();
    cf.open_image(room, "user-0", image_id).unwrap();

    // Live migration carries the role table with the room.
    cf.migrate_room(room, 1).unwrap();
    assert_eq!(
        cf.read_room(room, |r| Ok(r.role_of("user-0"))).unwrap(),
        Some(Role::Presenter)
    );
    assert_eq!(
        cf.read_room(room, |r| Ok(r.role_of("user-1"))).unwrap(),
        Some(Role::Viewer)
    );
    assert_eq!(
        cf.read_room(room, |r| Ok(r.presenter().map(str::to_string)))
            .unwrap()
            .as_deref(),
        Some("user-0")
    );
    // The presenter seat stays unique across the move (and the cause is
    // non-transient, so the router surfaces it instead of retrying).
    assert!(matches!(
        cf.join(room, &JoinRequest::presenter("user-2")),
        Err(ServerError::JoinRejected {
            cause: JoinRejectCause::PresenterSeatTaken,
            ..
        })
    ));
    // The viewer is still gated post-migration.
    assert!(matches!(
        cf.act(room, "user-1", Action::Freeze { object: image_id }),
        Err(ServerError::ActionRejected { .. })
    ));

    // Crash the room's new home; failover folds the journal back into a
    // live room — including the role table, reconstructed from the
    // role-carrying `Joined` events.
    cf.kill_shard(1);
    let moved = cf.advance_and_fail_over(10.0).unwrap();
    assert_eq!(moved, vec![(room, 0)]);
    assert_eq!(
        cf.read_room(room, |r| Ok(r.role_of("user-0"))).unwrap(),
        Some(Role::Presenter)
    );
    assert_eq!(
        cf.read_room(room, |r| Ok(r.presenter().map(str::to_string)))
            .unwrap()
            .as_deref(),
        Some("user-0")
    );
    assert!(matches!(
        cf.join(room, &JoinRequest::presenter("user-2")),
        Err(ServerError::JoinRejected {
            cause: JoinRejectCause::PresenterSeatTaken,
            ..
        })
    ));
    // The rebuilt room still enforces the capability table: a returning
    // viewer is denied mutation, and the presenter keeps presenting.
    let (conn1, _) = cf.resync(room, "user-1", 0).unwrap();
    assert_eq!(conn1.role, Role::Viewer);
    assert!(matches!(
        cf.act(room, "user-1", Action::Freeze { object: image_id }),
        Err(ServerError::ActionRejected { .. })
    ));
    let (conn0, _) = cf.resync(room, "user-0", 0).unwrap();
    assert_eq!(conn0.role, Role::Presenter);
    cf.act(
        room,
        "user-0",
        Action::Chat {
            text: "lecture continues".into(),
        },
    )
    .unwrap();
}

#[test]
fn journal_tail_is_bounded_by_compaction_and_failover_stays_lossless() {
    let (db, doc_id, _) = fixture_db(2);
    let mut cfg = test_config(2);
    cfg.heartbeat_faults = vec![FaultSpec::none(); 2];
    cfg.journal_tail_cap = 8;
    let cf = ClusterFrontend::new(db, cfg);

    let room = cf.create_room("user-0", "chatty", doc_id).unwrap();
    cf.migrate_room(room, 0).unwrap();
    let conn = cf.join_default(room, "user-0").unwrap();
    for i in 0..50 {
        cf.act(
            room,
            "user-0",
            Action::Chat {
                text: format!("m{i}"),
            },
        )
        .unwrap();
    }

    // Maintenance folds the over-cap tail into the checkpoint; the
    // drained tail afterwards is within the cap (here: empty).
    let compacted = cf.maintain_replicas().unwrap();
    assert!(compacted >= 1, "over-cap tail was not compacted");
    let (replicated, tail) = cf.replication_status(room).unwrap();
    assert_eq!(
        replicated,
        cf.read_room(room, |r| Ok(r.change_log().last_seq()))
            .unwrap()
    );
    assert!(tail <= 8, "tail {tail} exceeds the configured cap");
    let snap = cf.metrics();
    assert!(snap.counters["cluster.journal.compact.count"] >= 1);
    assert!(snap.counters["cluster.journal.evicted.count"] > 8);
    assert_eq!(snap.counters["cluster.journal.compact.lossy.count"], 0);

    // The compacted replica fails over with the same zero-loss guarantee
    // an uncompacted one gives: the rebuilt room continues the exact
    // sequence the client last saw.
    let last = cf
        .read_room(room, |r| Ok(r.change_log().last_seq()))
        .unwrap();
    drop(conn);
    cf.kill_shard(0);
    let moved = cf.advance_and_fail_over(10.0).unwrap();
    assert_eq!(moved, vec![(room, 1)]);
    assert_eq!(
        cf.read_room(room, |r| Ok(r.change_log().last_seq()))
            .unwrap(),
        last
    );
    assert_eq!(cf.metrics().counters["cluster.failover.lossy.count"], 0);
    let (_conn, catch_up) = cf.resync(room, "user-0", last).unwrap();
    assert!(matches!(catch_up, Resync::Events(ref evs) if evs.is_empty()));
}

/// `n` rooms pinned to shard 0, each with `members` users joined (user
/// `r * members + m` is room `r`'s member `m`) and the image open.
fn rooms_on_shard_0(
    cf: &ClusterFrontend,
    doc_id: u64,
    image_id: u64,
    n: usize,
    members: usize,
) -> (Vec<u64>, Vec<Vec<ClientConnection>>) {
    let mut rooms = Vec::new();
    let mut conns = Vec::new();
    for r in 0..n {
        let owner = format!("user-{}", r * members);
        let room = cf.create_room(&owner, &format!("r{r}"), doc_id).unwrap();
        cf.migrate_room(room, 0).unwrap();
        conns.push(
            (0..members)
                .map(|m| {
                    cf.join_default(room, &format!("user-{}", r * members + m))
                        .unwrap()
                })
                .collect(),
        );
        cf.open_image(room, &owner, image_id).unwrap();
        rooms.push(room);
    }
    (rooms, conns)
}

fn chat(text: &str) -> Action {
    Action::Chat { text: text.into() }
}

#[test]
fn a_blocked_room_does_not_stall_its_shard_neighbours() {
    let (cf, doc_id, image_id) = cluster(2, 2);
    let (rooms, _conns) = rooms_on_shard_0(&cf, doc_id, image_id, 2, 1);
    let (a, b) = (rooms[0], rooms[1]);
    let shard = cf.shard_server(0);
    let map_reads = || shard.obs().read_counter("server.rooms.map.read.count");

    let handle = shard.room_handle(a).unwrap();
    let held = handle.lock();
    let entered = map_reads();
    std::thread::scope(|scope| {
        let (a_tx, a_rx) = std::sync::mpsc::channel();
        let (b_tx, b_rx) = std::sync::mpsc::channel();
        let cf = &cf;
        scope.spawn(move || a_tx.send(cf.act(a, "user-0", chat("a"))).unwrap());
        // A is inside the shard (it fetched A's handle, the step right
        // before the room lock we hold).
        while map_reads() == entered {
            std::thread::yield_now();
        }
        scope.spawn(move || b_tx.send(cf.act(b, "user-1", chat("b"))).unwrap());
        b_rx.recv_timeout(std::time::Duration::from_secs(2))
            .expect("room B queued behind blocked room A on the same shard")
            .unwrap();
        assert!(a_rx.try_recv().is_err(), "A cannot finish while held");
        drop(held);
        a_rx.recv().unwrap().unwrap();
    });
}

/// The safety argument for the unlocked data plane, executable: routed
/// calls on rooms of one shard race each other, live migrations of those
/// rooms, and the housekeeping tick, with nothing shard-wide between them.
#[test]
fn stress_unlocked_data_plane_beside_migration_and_housekeeping() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const ROOMS: usize = 16;
    const MEMBERS: usize = 3;
    const ACTORS: usize = 4;
    const ROUNDS: usize = 60;

    let (db, doc_id, image_id) = fixture_db(ROOMS * MEMBERS);
    let mut cfg = ClusterConfig::new(2);
    cfg.journal_tail_cap = 32; // the tick really compacts
    let cf = ClusterFrontend::new(db, cfg);
    let (rooms, conns) = rooms_on_shard_0(&cf, doc_id, image_id, ROOMS, MEMBERS);
    let ct = cf
        .shard_server(0)
        .room_handle(rooms[0])
        .unwrap()
        .lock()
        .document()
        .component_by_name("CT")
        .unwrap();
    // Streams start at different points of the join sequence; from here
    // on every co-member must see the same events.
    let mut cursor: Vec<u64> = Vec::new();
    for (r, room_conns) in conns.iter().enumerate() {
        for conn in room_conns {
            conn.events.try_iter().for_each(drop);
        }
        cursor.push(
            cf.read_room(rooms[r], |r| Ok(r.change_log().last_seq()))
                .unwrap(),
        );
    }

    // Pacing, both ways, on progress counters instead of sleeps: the
    // migrator hops once per 50 completed acts (so a racing act's retry
    // budget is never outrun by back-to-back freezes), and an actor
    // entering round 10·j waits until j hops and j ticks have happened
    // (so a starved control thread cannot miss the whole run).
    let (done, hops, ticks) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (cf, rooms, done, hops, ticks, stop) = (&cf, &rooms, &done, &hops, &ticks, &stop);
        let actors: Vec<_> = (0..ACTORS)
            .map(|t| {
                scope.spawn(move || {
                    for i in 0..ROUNDS {
                        let due = (i / 10) as u64;
                        while hops.load(Ordering::Relaxed) < due
                            || ticks.load(Ordering::Relaxed) < due
                        {
                            std::thread::yield_now();
                        }
                        for r in (t..ROOMS).step_by(ACTORS) {
                            let user = format!("user-{}", r * MEMBERS + i % MEMBERS);
                            let actions = match i % 4 {
                                0 => vec![Action::Choose {
                                    component: ct,
                                    form: i / 4 % 2,
                                }],
                                1 => vec![chat(&format!("m{i}"))],
                                2 => vec![Action::AddLine {
                                    object: image_id,
                                    element: LineElement {
                                        x0: 0,
                                        y0: 0,
                                        x1: (i % 32) as i64,
                                        y1: 31,
                                        intensity: 200,
                                    },
                                }],
                                _ => vec![
                                    Action::Freeze { object: image_id },
                                    Action::Release { object: image_id },
                                ],
                            };
                            for action in actions {
                                cf.act(rooms[r], &user, action).unwrap();
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        // Migrator: rooms 0 and 1 (actors 0 and 1 drive them) bounce
        // 0 → 1 → 0.
        let migrator = scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let hop = hops.load(Ordering::Relaxed);
                if done.load(Ordering::Relaxed) >= hop * 50 {
                    let target = (hop / 2 + 1) % 2;
                    cf.migrate_room(rooms[(hop % 2) as usize], target as usize)
                        .unwrap();
                    hops.store(hop + 1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
        let ticker = scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                assert!(cf.advance(0.5).is_empty());
                cf.maintain_replicas().unwrap();
                ticks.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
        });
        for actor in actors {
            actor.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        migrator.join().unwrap();
        ticker.join().unwrap();
    });
    assert!(
        hops.load(Ordering::Relaxed) >= 5,
        "migrations raced the acts"
    );

    assert!(cf.metrics().counters["cluster.journal.compact.count"] > 0);
    for (r, room_conns) in conns.iter().enumerate() {
        let last = cf
            .read_room(rooms[r], |r| Ok(r.change_log().last_seq()))
            .unwrap();
        for conn in room_conns {
            let seqs: Vec<u64> = conn.events.try_iter().map(|e| e.seq).collect();
            let dense = (cursor[r] + 1..=last).eq(seqs.iter().copied());
            assert!(
                dense,
                "room {r}: stream not dense over ({}, {last}]",
                cursor[r]
            );
        }
        assert_eq!(cf.replication_status(rooms[r]).unwrap().0, last);
    }
}
