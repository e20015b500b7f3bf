//! Set-up: builds one workload's state through the public API — media
//! database, users, encoded CT images, the record, the cluster, rooms and
//! their members — and hands each driver thread its rooms.

use crate::params::Params;
use crate::rng::SplitMix64;
use crate::script::{self, COMPONENTS};
use rcmo::codec::{encode, EncoderConfig};
use rcmo::core::{FormKind, MediaRef, MultimediaDocument, PresentationForm};
use rcmo::imaging::{ct_phantom, ElementId};
use rcmo::mediadb::{AccessLevel, DocumentObject, ImageObject, MediaDb};
use rcmo::netsim::Link;
use rcmo::server::{
    ClientConnection, ClusterConfig, ClusterFrontend, DeliveryConfig, JoinRequest, RoomConfig,
    RoomId, ShardId,
};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Render budget tight enough that a 256² CT discriminates the slow link
/// classes (E22's setting): a modem moves ~1.8 KB in it, the LAN ~312 KB.
pub const TTFR_BUDGET_S: f64 = 0.25;

/// E22's four link classes, assigned to members round-robin.
pub const LINK_CLASSES: [(&str, f64, f64); 4] = [
    ("modem-56k", 56_000.0, 0.200),
    ("isdn-128k", 128_000.0, 0.080),
    ("dsl-1m", 1_000_000.0, 0.030),
    ("lan-10m", 10_000_000.0, 0.005),
];

pub const ADMIN: &str = "admin";

/// Where file-backed databases and trace files go: `benchmark/out/`,
/// inside the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct MemberCtx {
    pub user: String,
    pub conn: Option<ClientConnection>,
    /// Highest sequence number taken off the stream (valid once anchored).
    pub last_seq: u64,
    pub anchored: bool,
    pub link: usize,
    /// Events seen since the timed phase began; compared across the
    /// lecture's never-disturbed viewers.
    pub seen: u64,
    /// Left, rejoined or resynced during the run.
    pub disturbed: bool,
}

pub struct RoomCtx {
    pub id: RoomId,
    pub shard: ShardId,
    pub global: usize,
    pub doc_id: u64,
    pub members: Vec<MemberCtx>,
    /// The stored image currently open in the room (object id).
    pub open: u64,
    /// Live annotation elements on it, oldest first, as observed on
    /// member 0's event stream.
    pub live: VecDeque<ElementId>,
    /// Room incarnations so far (1 + recycles).
    pub incarnations: u64,
}

pub struct World {
    pub p: Params,
    pub dir: Option<PathBuf>,
    pub db: MediaDb,
    pub cluster: ClusterFrontend,
    /// The distinct encoded `LIC1` streams; image `i` stores
    /// `streams[i % streams.len()]`.
    pub streams: Vec<Vec<u8>>,
    /// Catalog index -> object id.
    pub image_ids: Vec<u64>,
    pub pristine_doc: Vec<u8>,
    pub chats: Vec<String>,
    pub links: Vec<Link>,
    /// BLOB + overlay + document bytes handed to the database.
    pub user_bytes: AtomicU64,
    /// Set-up spans the per-layer table reports (µs).
    pub encode_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub setup_join_us: Vec<f64>,
}

impl World {
    pub fn stream_of(&self, image_idx: usize) -> &[u8] {
        &self.streams[image_idx % self.streams.len()]
    }

    pub fn db_file_bytes(&self) -> (u64, u64) {
        let Some(dir) = &self.dir else {
            return (0, 0);
        };
        let data = dir.join("media.db");
        let len = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        (len(&data), len(&rcmo::storage::db::wal_path_for(&data)))
    }
}

impl Drop for World {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The 12-component record: a CP-net chain (each component conditioned on
/// its predecessor) with a full, seeded CPT row per parent value. The
/// first components reference the shared stored images.
fn build_document(rng: &mut SplitMix64, shared_images: &[u64]) -> MultimediaDocument {
    let mut doc = MultimediaDocument::new("Patient record");
    let mut prev = None;
    for i in 0..COMPONENTS as usize {
        let media = match shared_images.get(i) {
            Some(&object_id) => MediaRef::Stored {
                media_type: "image".to_string(),
                object_id,
            },
            None => MediaRef::None,
        };
        let c = doc
            .add_primitive(
                doc.root(),
                &format!("item-{i}"),
                media,
                vec![
                    PresentationForm::new("flat", FormKind::Flat, 40_000 + 20_000 * (i as u64 % 5)),
                    PresentationForm::new("icon", FormKind::Icon, 3_000),
                    PresentationForm::hidden(),
                ],
            )
            .expect("valid primitive");
        if let Some(parent) = prev {
            doc.author_parents(c, &[parent]).expect("valid parents");
            for parent_form in 0..script::FORMS as usize {
                let mut order = [0usize, 1, 2];
                for k in (1..order.len()).rev() {
                    order.swap(k, rng.below(k as u32 + 1) as usize);
                }
                doc.author_preference(c, &[(parent, parent_form)], &order)
                    .expect("valid CPT row");
            }
        }
        prev = Some(c);
    }
    doc.validate().expect("valid document");
    doc
}

pub fn user_name(global_room: usize, member: usize) -> String {
    format!("u{global_room}-{member}")
}

/// Builds the workload's state. `instance` keeps the temp directories of
/// repeated set-ups apart.
pub fn build(p: &Params, seed: &SplitMix64, instance: usize) -> (World, Vec<Vec<RoomCtx>>) {
    let mut rng = seed.fork(0xF1C7);
    let dir = p.file_backed.then(|| {
        let dir = out_dir().join(format!(
            "tmp-{}-{}-{instance}",
            p.workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark/out temp dir");
        dir
    });
    let db = match &dir {
        Some(dir) => MediaDb::open(dir.join("media.db")).expect("open media db"),
        None => MediaDb::in_memory().expect("in-memory media db"),
    };

    let drivers = p.drivers();
    let total_rooms = drivers * p.rooms_per_driver;
    let per_room = p.members + p.slow_members;
    for g in 0..total_rooms {
        for m in 0..per_room {
            db.put_user(ADMIN, &user_name(g, m), AccessLevel::Write)
                .expect("admin adds users");
        }
    }

    // Images: a few distinct phantoms, encoded once, stored many times.
    let mut encode_us = Vec::new();
    let streams: Vec<Vec<u8>> = (0..p.distinct_images)
        .map(|_| {
            let ct = ct_phantom(p.image_size, 3, rng.next_u64()).expect("phantom");
            let t = Instant::now();
            let s = encode(&ct, &EncoderConfig::default()).expect("layered encode");
            encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            s
        })
        .collect();
    let user_bytes = AtomicU64::new(0);
    let private = if p.private_work_images {
        total_rooms * script::WORK_IMAGES
    } else {
        0
    };
    let mut insert_us = Vec::new();
    let image_ids: Vec<u64> = (0..p.images + private)
        .map(|i| {
            let data = streams[i % streams.len()].clone();
            user_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
            let t = Instant::now();
            let id = db
                .insert_image(
                    ADMIN,
                    &ImageObject {
                        name: format!("ct-{i}"),
                        quality: 0,
                        texts: String::new(),
                        cm: Vec::new(),
                        data,
                    },
                )
                .expect("image stored");
            insert_us.push(t.elapsed().as_secs_f64() * 1e6);
            id
        })
        .collect();

    let shared: Vec<u64> = image_ids.iter().copied().take(p.hot_set.min(4)).collect();
    let doc = build_document(&mut rng, &shared);
    let pristine_doc = doc.to_bytes();

    let cluster = ClusterFrontend::new(db.clone(), ClusterConfig::new(2));
    for s in 0..cluster.shard_count() {
        cluster.shard_server(s).set_delivery_config(DeliveryConfig {
            ttfr_budget_s: TTFR_BUDGET_S,
            cache_capacity_bytes: p.cache_bytes,
            ..DeliveryConfig::default()
        });
    }

    let chat_word = "the CP-net of slide 7, reconfigured ";
    let chats: Vec<String> = (0..8)
        .map(|v| {
            let mut s = format!("[{v}] ");
            while s.len() < p.chat_bytes {
                s.push_str(chat_word);
            }
            s.truncate(p.chat_bytes.max(4));
            s
        })
        .collect();

    let mut world = World {
        p: p.clone(),
        dir,
        db,
        cluster,
        streams,
        image_ids,
        pristine_doc,
        chats,
        links: LINK_CLASSES
            .iter()
            .map(|&(_, bps, lat)| Link::new(bps, lat))
            .collect(),
        user_bytes,
        encode_us,
        insert_us,
        setup_join_us: Vec::new(),
    };

    let mut per_driver: Vec<Vec<RoomCtx>> = Vec::new();
    for d in 0..drivers {
        let mut rooms = Vec::new();
        for r in 0..p.rooms_per_driver {
            let global = d * p.rooms_per_driver + r;
            world
                .user_bytes
                .fetch_add(world.pristine_doc.len() as u64, Ordering::Relaxed);
            let doc_id = world
                .db
                .insert_document(
                    ADMIN,
                    &DocumentObject {
                        title: format!("record-{global}"),
                        data: world.pristine_doc.clone(),
                    },
                )
                .expect("document stored");
            let mut room = RoomCtx {
                id: 0,
                shard: global % 2,
                global,
                doc_id,
                members: (0..per_room)
                    .map(|m| MemberCtx {
                        user: user_name(global, m),
                        conn: None,
                        last_seq: 0,
                        anchored: false,
                        link: (global * per_room + m) % LINK_CLASSES.len(),
                        seen: 0,
                        disturbed: false,
                    })
                    .collect(),
                open: world.image_ids[script::initial_open(p, global) as usize],
                live: VecDeque::new(),
                incarnations: 0,
            };
            let joins = open_room(&world, &mut room).expect("room set up");
            world.setup_join_us.extend(joins);
            rooms.push(room);
        }
        per_driver.push(rooms);
    }
    (world, per_driver)
}

/// Creates (or re-creates) a room on its shard, seats every member, seeds
/// their bandwidth estimators, opens the room's working image and warms the
/// object cache with the record's stored images. Returns each join's
/// latency in µs.
pub fn open_room(world: &World, room: &mut RoomCtx) -> rcmo::Result<Vec<f64>> {
    let p = &world.p;
    let cluster = &world.cluster;
    let mut cfg = RoomConfig::new();
    if let Some(bound) = p.queue_bound {
        cfg = cfg.with_member_queue_bound(bound);
    }
    if let Some(cap) = p.change_log {
        cfg = cfg.with_change_log_capacity(cap);
    }
    let owner = room.members[0].user.clone();
    room.id = cluster.create_room_with_config(
        &owner,
        &format!("room-{}", room.global),
        room.doc_id,
        cfg,
    )?;
    cluster.migrate_room(room.id, room.shard)?;
    room.incarnations += 1;
    room.live.clear();
    let mut join_us = Vec::with_capacity(room.members.len());
    for m in 0..room.members.len() {
        let req = join_request(p, m, &room.members[m].user);
        let t = Instant::now();
        let conn = cluster.join(room.id, &req)?;
        join_us.push(t.elapsed().as_secs_f64() * 1e6);
        let member = &mut room.members[m];
        member.conn = Some(conn);
        member.anchored = false;
        // Each join broadcasts to everyone seated: keep the bounded
        // queues shallow while the room fills.
        if m % 16 == 15 {
            quiet_drain(room);
        }
    }
    for member in &room.members {
        let (_, bps, _) = LINK_CLASSES[member.link];
        cluster.report_transfer(room.id, &member.user, (bps / 8.0 * 0.5) as u64, 0.5)?;
    }
    cluster.open_image(room.id, &owner, room.open)?;
    cluster.warm_room_cache(room.id, &owner)?;
    quiet_drain(room);
    Ok(join_us)
}

/// The join a member makes: moderators everywhere, except that a
/// presenter-led room seats member 0 as presenter and the rest as viewers.
pub fn join_request(p: &Params, member: usize, user: &str) -> JoinRequest {
    match (p.presenter_led, member) {
        (false, _) => JoinRequest::moderator(user),
        (true, 0) => JoinRequest::presenter(user),
        (true, _) => JoinRequest::viewer(user),
    }
}

/// Empties every member's stream without checking anything (set-up only).
pub fn quiet_drain(room: &mut RoomCtx) {
    for member in &mut room.members {
        if let Some(conn) = &member.conn {
            while let Some(ev) = conn.events.try_recv() {
                member.last_seq = ev.seq;
                member.anchored = true;
            }
        }
    }
}
