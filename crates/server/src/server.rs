//! The interaction server facade: rooms + presentation module + database.

use crate::delivery::{DeliveryConfig, ImageDelivery};
use crate::error::{Result, ServerError};
use crate::events::{Action, TriggerCondition};
use crate::fanout::{EventQueue, EventStream};
use crate::resync::{Resync, SequencedEvent};
use crate::role::{Capability, JoinRequest, Role};
use crate::room::{Room, RoomConfig, RoomId, RoomState, RoomStats};
use crossbeam::channel::Sender;
use parking_lot::{Mutex, RwLock};
use rcmo_core::MultimediaDocument;
use rcmo_imaging::{AnnotatedImage, GrayImage};
use rcmo_mediadb::{AccessLevel, DocumentObject, MediaDb};
use rcmo_obs::{bounds, Counter, Gauge, Histogram, Metrics, MetricsSnapshot, Registry};
use rcmo_obs::{SharedClock, WallClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A shareable handle to one room: the second level of the server's
/// two-level locking scheme. Cloning is cheap; the clone keeps the room
/// alive independently of the server's map.
///
/// Lock order: a room lock is a *leaf* — while holding one, never acquire
/// another room's lock or the server's room-map lock. The server itself
/// only ever locks one room at a time.
pub type RoomHandle = Arc<Mutex<Room>>;

/// A room lifted out of its server for a live migration: the exported
/// [`RoomState`] plus the members' live event queues, which the
/// destination re-attaches so clients keep their streams across the move.
#[derive(Debug)]
pub struct DetachedRoom {
    /// The room id (kept across the migration — room ids are
    /// location-independent).
    pub id: RoomId,
    /// The exported state (snapshot + sessions + roles + change-log tail).
    pub state: RoomState,
    /// The live member queues, in join order.
    pub members: Vec<(String, EventQueue)>,
}

/// A client's end of a room: the user name, the granted role, and the
/// event stream.
#[derive(Debug)]
pub struct ClientConnection {
    /// The room joined.
    pub room: RoomId,
    /// The member name.
    pub user: String,
    /// The role the server granted this member (verbatim what the
    /// [`JoinRequest`] asked for — a join that cannot be granted is
    /// rejected, never downgraded).
    pub role: Role,
    /// Events broadcast to the room (including this member's own actions,
    /// so every client observes one identical total order). Each event
    /// carries its sequence number; clients track the highest seen so a
    /// dropped connection can be resumed with
    /// [`InteractionServer::resync`]. The stream is bounded: a client that
    /// stops draining it is evicted as a slow consumer and must resync.
    pub events: EventStream,
}

/// The interaction server of Figure 1. Thread-safe: share by reference (or
/// `Arc`) across client threads.
///
/// Concurrency model (DESIGN.md §11): a lightly-held [`RwLock`] maps
/// `RoomId → Arc<Mutex<Room>>`. Every room operation takes a read lock on
/// the map only long enough to clone the room's handle, then works under
/// that single room's `Mutex` — independent rooms proceed fully in
/// parallel, and one room's slow CT decode no longer stalls the rest of
/// the server. The map's write lock is taken only to insert a fully-built
/// room.
pub struct InteractionServer {
    db: MediaDb,
    rooms: RwLock<HashMap<RoomId, RoomHandle>>,
    next_room: AtomicU64,
    /// Mirror of `rooms.len()`, readable without any lock (used by `Debug`
    /// so formatting the server can never deadlock against a room op).
    room_count: AtomicU64,
    /// Lazily trained audio segmenter shared by all rooms.
    segmenter: OnceLock<rcmo_audio::SegmenterModel>,
    /// Server-wide metrics registry; every room parents into it.
    obs: Registry,
    /// The time source for every latency span the server records. Wall
    /// time in production; the simulator injects a virtual clock so the
    /// same seed reproduces the same histograms bit-for-bit.
    clock: SharedClock,
    /// The adaptive-delivery knobs each room's [`DeliveryState`] is built
    /// from on its first delivery (changing them affects rooms that have
    /// not delivered yet).
    delivery_cfg: Mutex<DeliveryConfig>,
    rooms_active: Gauge,
    map_reads: Counter,
    map_writes: Counter,
    room_lock_wait: Histogram,
    room_lock_hold: Histogram,
}

impl std::fmt::Debug for InteractionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately lock-free: `Debug` may run while this thread (or a
        // panicking one) holds a room or map lock, so it reads the atomic
        // mirror instead of `self.rooms`.
        write!(
            f,
            "InteractionServer(rooms={})",
            self.room_count.load(Ordering::Relaxed)
        )
    }
}

impl InteractionServer {
    /// Creates a server over a multimedia database, timed by wall clock.
    pub fn new(db: MediaDb) -> InteractionServer {
        InteractionServer::new_with_clock(db, WallClock::shared())
    }

    /// Creates a server over a multimedia database with an explicit time
    /// source — the simulator's entry point ([`rcmo_obs::SimClock`]).
    pub fn new_with_clock(db: MediaDb, clock: SharedClock) -> InteractionServer {
        let obs = Registry::new();
        let rooms_active = obs.gauge("server.rooms.active");
        let map_reads = obs.counter("server.rooms.map.read.count");
        let map_writes = obs.counter("server.rooms.map.write.count");
        let room_lock_wait = obs.histogram("server.room.lock.wait.us", bounds::LATENCY_US);
        let room_lock_hold = obs.histogram("server.room.lock.hold.us", bounds::LATENCY_US);
        InteractionServer {
            db,
            rooms: RwLock::new(HashMap::new()),
            next_room: AtomicU64::new(1),
            room_count: AtomicU64::new(0),
            segmenter: OnceLock::new(),
            obs,
            clock,
            delivery_cfg: Mutex::new(DeliveryConfig::default()),
            rooms_active,
            map_reads,
            map_writes,
            room_lock_wait,
            room_lock_hold,
        }
    }

    /// The underlying multimedia database.
    pub fn database(&self) -> &MediaDb {
        &self.db
    }

    /// Number of open rooms — the lock-free atomic mirror every map
    /// mutation keeps in sync, so monitors can poll it without touching
    /// the room map's lock.
    pub fn room_count(&self) -> u64 {
        self.room_count.load(Ordering::Relaxed)
    }

    /// Creates a room around a stored document (fetched through the
    /// database layer; requires read access).
    ///
    /// The room is built — MediaDb fetch, document decode, CP-net wiring —
    /// *before* the map's write lock is taken, so concurrent traffic in
    /// other rooms never waits behind room construction.
    pub fn create_room(&self, user: &str, name: &str, document_id: u64) -> Result<RoomId> {
        self.create_room_with_config(user, name, document_id, RoomConfig::new())
    }

    /// Creates a room with an explicit [`RoomConfig`] — the lecture path:
    /// capacity, change-log horizon, and member queue bound are decided
    /// up front, before the first member joins.
    pub fn create_room_with_config(
        &self,
        user: &str,
        name: &str,
        document_id: u64,
        config: RoomConfig,
    ) -> Result<RoomId> {
        let id = self.next_room.fetch_add(1, Ordering::Relaxed);
        self.create_room_with_id(id, user, name, document_id, config)?;
        Ok(id)
    }

    /// Creates a room under a caller-chosen id — the cluster path: room ids
    /// must be unique *across* shards (they are location-independent keys
    /// in the directory), so a frontend allocates them centrally and every
    /// shard accepts the assignment. Fails if the id is already in use.
    pub fn create_room_with_id(
        &self,
        id: RoomId,
        user: &str,
        name: &str,
        document_id: u64,
        config: RoomConfig,
    ) -> Result<()> {
        config.validate()?;
        let stored = self.db.get_document(user, document_id)?;
        let doc = MultimediaDocument::from_bytes(&stored.data)?;
        // Keep local allocation clear of adopted ids.
        self.next_room.fetch_max(id + 1, Ordering::Relaxed);
        let room = Room::new(
            id,
            name,
            document_id,
            doc,
            config,
            &self.obs,
            self.clock.clone(),
        );
        self.insert_room(id, Arc::new(Mutex::new(room)))
    }

    /// Inserts a built room under the map's write lock, keeping the
    /// `room_count` mirror and gauge in sync.
    fn insert_room(&self, id: RoomId, handle: RoomHandle) -> Result<()> {
        self.map_writes.inc();
        let mut rooms = self.rooms.write();
        if rooms.contains_key(&id) {
            return Err(ServerError::Invalid(format!("room {id} already exists")));
        }
        rooms.insert(id, handle);
        let count = rooms.len() as u64;
        self.room_count.store(count, Ordering::Relaxed);
        self.rooms_active.set(count as i64);
        Ok(())
    }

    /// Removes a room from the server. Members still holding event
    /// receivers simply see their stream end; the detached room itself is
    /// dropped once the last outstanding [`RoomHandle`] clone goes away.
    pub fn close_room(&self, room: RoomId) -> Result<()> {
        self.map_writes.inc();
        let mut rooms = self.rooms.write();
        if rooms.remove(&room).is_none() {
            return Err(ServerError::UnknownRoom(room));
        }
        let count = rooms.len() as u64;
        self.room_count.store(count, Ordering::Relaxed);
        self.rooms_active.set(count as i64);
        Ok(())
    }

    /// Closes every room with no members left (clients left or were
    /// reaped), returning the ids closed. Candidates are found under each
    /// room's own lock first (map read lock released); the removal then
    /// re-verifies emptiness under the map's write lock with a `try_lock`
    /// on the room — never a blocking room lock, so the map → room lock
    /// order is preserved even while holding the write lock. A room that
    /// gained a member (or a migration freeze) between the two checks is
    /// kept.
    pub fn reap_empty_rooms(&self) -> Vec<RoomId> {
        self.map_reads.inc();
        let handles: Vec<(RoomId, RoomHandle)> = self
            .rooms
            .read()
            .iter()
            .map(|(&id, h)| (id, h.clone()))
            .collect();
        let mut empties = Vec::new();
        for (id, handle) in handles {
            let room = handle.lock();
            if room.member_count() == 0 && !room.is_frozen_for_migration() {
                empties.push(id);
            }
        }
        let mut reaped = Vec::new();
        if empties.is_empty() {
            return reaped;
        }
        self.map_writes.inc();
        let mut rooms = self.rooms.write();
        for id in empties {
            let still_empty = rooms
                .get(&id)
                .and_then(|h| h.try_lock().map(|r| r.member_count() == 0))
                .unwrap_or(false);
            if still_empty {
                rooms.remove(&id);
                reaped.push(id);
            }
        }
        let count = rooms.len() as u64;
        self.room_count.store(count, Ordering::Relaxed);
        self.rooms_active.set(count as i64);
        reaped
    }

    /// Freezes a room for migration: mutating calls start failing with
    /// [`ServerError::Migrating`] and the room's state stops changing.
    pub fn freeze_room_for_migration(&self, room: RoomId) -> Result<()> {
        self.with_room(room, |r| {
            r.freeze_for_migration();
            Ok(())
        })
    }

    /// Lifts a migration freeze (the migration was aborted, or the room
    /// was just adopted and is ready to serve).
    pub fn thaw_room(&self, room: RoomId) -> Result<()> {
        self.with_room(room, |r| {
            r.thaw();
            Ok(())
        })
    }

    /// Detaches a room for a live migration: the room must already be
    /// frozen (so the exported state is final); it is removed from this
    /// server's map and returned as state + live member channels. Calls
    /// routed here afterwards see [`ServerError::UnknownRoom`] — the
    /// cluster layer holds the directory entry in `Migrating` state for
    /// the duration, so clients retry rather than fail.
    pub fn detach_room(&self, room: RoomId) -> Result<DetachedRoom> {
        let handle = self.room_handle(room)?;
        {
            let r = handle.lock();
            if !r.is_frozen_for_migration() {
                return Err(ServerError::Invalid(format!(
                    "room {room} must be frozen before detach"
                )));
            }
        }
        self.close_room(room)?;
        let mut r = handle.lock();
        let state = r.export_state();
        let members = r.take_member_channels();
        Ok(DetachedRoom {
            id: room,
            state,
            members,
        })
    }

    /// Adopts a detached (or failover-rebuilt) room: rebuilds it from the
    /// exported state under this server's registry, re-attaches the member
    /// channels, and inserts it thawed. The rebuilt room continues the
    /// source's event order with gap-free sequence numbers.
    pub fn adopt_room(&self, detached: DetachedRoom) -> Result<()> {
        let DetachedRoom { id, state, members } = detached;
        let room = Room::from_state(id, state, members, &self.obs, self.clock.clone())?;
        self.insert_room(id, Arc::new(Mutex::new(room)))
    }

    /// Attaches a replication tap to a room: `tap` observes the room's
    /// sequenced event stream (the identical total order members see)
    /// without being a member — the cluster's journal feed.
    pub fn tap_room(&self, room: RoomId, tap: Sender<Arc<SequencedEvent>>) -> Result<()> {
        self.with_room(room, |r| {
            r.set_tap(tap);
            Ok(())
        })
    }

    /// Reconfigures a live room whole — capacity, change-log horizon,
    /// member queue bound — through one entry point. `user` must be a
    /// member holding [`Capability::ConfigureRoom`] (configuration *before*
    /// any member exists belongs to [`Self::create_room_with_config`]).
    /// Replaces the old per-knob setters (`set_room_capacity`,
    /// `set_change_log_capacity`).
    pub fn configure_room(&self, room: RoomId, user: &str, config: RoomConfig) -> Result<()> {
        self.with_room(room, |r| {
            r.require_capability(user, Capability::ConfigureRoom)?;
            r.apply_config(&config)
        })
    }

    /// The shareable handle of a room (the per-room lock of the two-level
    /// scheme). The map's read lock is held only for the lookup.
    ///
    /// Holding the handle's `Mutex` pins that one room; observe the lock
    /// order documented on [`RoomHandle`] — in particular, never lock two
    /// rooms at once.
    pub fn room_handle(&self, room: RoomId) -> Result<RoomHandle> {
        self.map_reads.inc();
        self.rooms
            .read()
            .get(&room)
            .cloned()
            .ok_or(ServerError::UnknownRoom(room))
    }

    /// Runs a query against one room's state — the single read entry
    /// point for everything [`Room`]'s `&self` API answers (members,
    /// roles, presenter, stats, change log, configuration, objects,
    /// presentations, the document). Commands that mutate a room or check
    /// a capability stay typed methods of the server.
    ///
    /// `f` runs **under the room lock**: keep it short, and never call
    /// back into the server (or its cluster frontend) from inside it —
    /// the room lock is a leaf (see [`RoomHandle`]). It costs one room-map
    /// lookup (`server.rooms.map.read.count`) and one room lock
    /// (`server.room.lock.{wait,hold}.us`), like every other room call.
    pub fn read_room<R>(&self, room: RoomId, f: impl FnOnce(&Room) -> Result<R>) -> Result<R> {
        self.with_room(room, |r| f(r))
    }

    fn with_room<R>(&self, room: RoomId, f: impl FnOnce(&mut Room) -> Result<R>) -> Result<R> {
        let handle = self.room_handle(room)?;
        self.lock_timed(&handle, f)
    }

    /// Runs `f` under `handle`'s lock, recording the lock wait and hold
    /// times. Every room lock the server takes for a client call goes
    /// through here.
    fn lock_timed<R>(&self, handle: &RoomHandle, f: impl FnOnce(&mut Room) -> R) -> R {
        let queued = self.clock.now_us();
        let mut guard = handle.lock();
        let acquired = self.clock.now_us();
        self.room_lock_wait.record(acquired.saturating_sub(queued));
        let out = f(&mut guard);
        drop(guard);
        self.room_lock_hold
            .record(self.clock.now_us().saturating_sub(acquired));
        out
    }

    /// Joins a room as the role (and with the queue bound) the
    /// [`JoinRequest`] spells out; returns the client connection carrying
    /// the granted role and the bounded event stream. Requires read
    /// access. The requested role is granted verbatim or the join is
    /// rejected — in particular with
    /// [`crate::error::JoinRejectCause::PresenterSeatTaken`] when the
    /// presenter seat is already held.
    pub fn join(&self, room: RoomId, req: &JoinRequest) -> Result<ClientConnection> {
        self.db.require(&req.user, AccessLevel::Read)?;
        let events = self.with_room(room, |r| r.join(req))?;
        Ok(ClientConnection {
            room,
            user: req.user.clone(),
            role: req.role,
            events,
        })
    }

    /// Joins a room as a [`Role::Moderator`] with default queue bounds —
    /// the symmetric room of the paper, where every partner may annotate,
    /// freeze, and save. The thin shim over [`Self::join`] that pre-role
    /// call sites map onto.
    pub fn join_default(&self, room: RoomId, user: &str) -> Result<ClientConnection> {
        self.join(room, &JoinRequest::moderator(user))
    }

    /// Leaves a room (held freezes are released; the member's role seat is
    /// given up).
    pub fn leave(&self, room: RoomId, user: &str) -> Result<()> {
        self.with_room(room, |r| r.leave(user))
    }

    /// Removes `target` from `room` on `by`'s authority
    /// ([`Capability::EvictMembers`] — moderators and the presenter). The
    /// evicted member's seat is freed; they may rejoin, but do not reclaim
    /// a role by resyncing. The presenter cannot be evicted.
    pub fn evict(&self, room: RoomId, by: &str, target: &str) -> Result<()> {
        self.with_room(room, |r| r.evict(by, target))
    }

    /// Hands the presenter seat from `from` (the current presenter) to the
    /// live member `to`: `from` is demoted to moderator, `to` promoted, in
    /// one atomic pair of `RoleChanged` events.
    pub fn hand_off_presenter(&self, room: RoomId, from: &str, to: &str) -> Result<()> {
        self.with_room(room, |r| r.hand_off_presenter(from, to))
    }

    /// Reconnects a client whose event stream was lost. `last_seen_seq` is
    /// the highest sequence number the client observed (`0` for none).
    ///
    /// Returns a fresh connection plus the catch-up: the exact missed
    /// event tail when it is still within the room's replay horizon
    /// (guaranteeing the client converges to the identical total event
    /// order), or a full [`crate::resync::RoomSnapshot`] when the client
    /// fell too far behind. Requires read access, like [`Self::join`]. A
    /// member removed involuntarily (dead connection, slow consumer)
    /// reclaims their reserved role here.
    pub fn resync(
        &self,
        room: RoomId,
        user: &str,
        last_seen_seq: u64,
    ) -> Result<(ClientConnection, Resync)> {
        self.db.require(user, AccessLevel::Read)?;
        let (events, catch_up, role) = self.with_room(room, |r| {
            let (events, catch_up) = r.resync(user, last_seen_seq)?;
            let role = r.role_of(user).unwrap_or(Role::Moderator);
            Ok((events, catch_up, role))
        })?;
        Ok((
            ClientConnection {
                room,
                user: user.to_string(),
                role,
                events,
            },
            catch_up,
        ))
    }

    /// Performs an action in a room.
    pub fn act(&self, room: RoomId, user: &str, action: Action) -> Result<()> {
        self.with_room(room, |r| r.act(user, action))
    }

    /// Brings a stored image object into the room as a shared working copy
    /// (annotations accumulate on it). The payload may be a raw `GIM1`
    /// image or a layered `LIC1` bitstream.
    pub fn open_image(&self, room: RoomId, user: &str, object_id: u64) -> Result<()> {
        // Authorise before the (possibly expensive) database fetch and
        // decode: a viewer is refused without costing the server anything.
        // The payload comes through the room's object cache, so a storm of
        // members opening the same CT image costs one storage read; the
        // database ACL is checked for the user whose miss loads the entry,
        // and the room capability gates every cached serve (room members
        // already share object bytes through snapshot resyncs).
        let cfg = self.delivery_config();
        let delivery = self.with_room(room, |r| {
            r.require_capability(user, Capability::OpenObjects)?;
            Ok(r.delivery_state(cfg))
        })?;
        let data = delivery
            .cache()
            .get_or_load(object_id, || Ok(self.db.get_image_data(user, object_id)?))?;
        let image = decode_image_payload(&data)?;
        self.with_room(room, |r| {
            r.require_capability(user, Capability::OpenObjects)?;
            r.insert_object(object_id, AnnotatedImage::new(image));
            Ok(())
        })
    }

    /// The current adaptive-delivery knobs.
    pub fn delivery_config(&self) -> DeliveryConfig {
        *self.delivery_cfg.lock()
    }

    /// Replaces the adaptive-delivery knobs. Applies to rooms whose
    /// delivery state has not been created yet (a room's policy, cache
    /// bound, and estimator smoothing are fixed at its first delivery).
    pub fn set_delivery_config(&self, cfg: DeliveryConfig) {
        *self.delivery_cfg.lock() = cfg;
    }

    /// Serves a stored image to `user` at a bandwidth-adapted layer depth
    /// (DESIGN.md §16): the payload is fetched once per room through the
    /// room's object cache, the depth is chosen by the room's
    /// [`DeliveryPolicy`](crate::delivery::DeliveryPolicy) from the
    /// member's EWMA bandwidth estimate and the object's **real** LIC1
    /// byte ladder, and the returned prefix is an `Arc` shared with every
    /// other member served the same depth. A payload without a decodable
    /// layered header (raw `GIM1`) is served whole — never a
    /// fixed-fraction guess.
    pub fn deliver_image(&self, room: RoomId, user: &str, object_id: u64) -> Result<ImageDelivery> {
        // `AdjustOwnView`, not `OpenObjects`: a delivery renders an object
        // for the requesting member only — every role can do that, just as
        // every role receives broadcast object bytes — whereas opening
        // brings a new shared working copy into the room.
        let cfg = self.delivery_config();
        let delivery = self.with_room(room, |r| {
            r.require_capability(user, Capability::AdjustOwnView)?;
            Ok(r.delivery_state(cfg))
        })?;
        // Cache load and policy math run outside the room lock: the
        // broadcast hot path never waits behind a storage fetch.
        let full = delivery
            .cache()
            .get_or_load(object_id, || Ok(self.db.get_image_data(user, object_id)?))?;
        let full_bytes = full.len() as u64;
        let estimate_bps = delivery.estimate_bps(user, self.clock.now_s());
        let ladder = rcmo_codec::layered::info(&full)
            .map(|h| h.layer_prefixes())
            .unwrap_or_default();
        let layers = delivery.policy().choose_layers(estimate_bps, &ladder);
        if layers == 0 {
            delivery.record_full_payload(full_bytes);
            return Ok(ImageDelivery {
                payload: full,
                layers: 0,
                total_layers: 0,
                full_bytes,
                estimate_bps,
            });
        }
        let prefix_len = ladder[layers - 1] as usize;
        let payload = delivery
            .cache()
            .prefix(object_id, layers, prefix_len, &full);
        delivery.record_delivery(layers, payload.len() as u64, full_bytes);
        Ok(ImageDelivery {
            payload,
            layers,
            total_layers: ladder.len(),
            full_bytes,
            estimate_bps,
        })
    }

    /// Folds one client-observed transfer (`bytes` over `elapsed_s`
    /// seconds) into `user`'s bandwidth estimator for this room — the
    /// feedback signal [`deliver_image`](Self::deliver_image) adapts to.
    pub fn report_transfer(
        &self,
        room: RoomId,
        user: &str,
        bytes: u64,
        elapsed_s: f64,
    ) -> Result<()> {
        let cfg = self.delivery_config();
        let delivery = self.with_room(room, |r| {
            r.require_capability(user, Capability::AdjustOwnView)?;
            Ok(r.delivery_state(cfg))
        })?;
        delivery.observe_transfer(user, bytes, elapsed_s, self.clock.now_s());
        Ok(())
    }

    /// `user`'s current (staleness-decayed) bandwidth estimate in this
    /// room, if any transfer has been reported yet.
    pub fn estimated_bandwidth(&self, room: RoomId, user: &str) -> Result<Option<f64>> {
        let cfg = self.delivery_config();
        let delivery = self.with_room(room, |r| {
            r.require_capability(user, Capability::AdjustOwnView)?;
            Ok(r.delivery_state(cfg))
        })?;
        Ok(delivery.estimate_bps(user, self.clock.now_s()))
    }

    /// Warms the room's object cache from the CP-net prefetch planner:
    /// the stored images of the components most likely to be requested
    /// (under the document's own preference order) are loaded — one
    /// storage read each — before any viewer asks. Returns how many
    /// objects were newly warmed or already cached.
    pub fn warm_room_cache(&self, room: RoomId, user: &str) -> Result<usize> {
        let cfg = self.delivery_config();
        let (delivery, targets) = self.with_room(room, |r| {
            r.require_capability(user, Capability::OpenObjects)?;
            let doc = r.document();
            let planner = rcmo_core::PrefetchPlanner::default();
            let evidence = rcmo_core::PartialAssignment::empty(doc.net().len());
            let plan = planner.plan(doc, &evidence, cfg.cache_capacity_bytes)?;
            let mut targets: Vec<u64> = Vec::new();
            for item in &plan.items {
                if let rcmo_core::MediaRef::Stored {
                    media_type,
                    object_id,
                } = doc.media(item.component)?
                {
                    if media_type.eq_ignore_ascii_case("image") && !targets.contains(object_id) {
                        targets.push(*object_id);
                    }
                }
            }
            Ok((r.delivery_state(cfg), targets))
        })?;
        let mut warmed = 0;
        for id in targets {
            delivery
                .cache()
                .get_or_load(id, || Ok(self.db.get_image_data(user, id)?))?;
            warmed += 1;
        }
        Ok(warmed)
    }

    /// Saves a shared object's annotated state back into the database
    /// (serialised overlay in `FLD_CM`, base pixels unchanged) and discards
    /// it from the room.
    ///
    /// Crash-safe: the stored object is replaced atomically in place (same
    /// id), and if the save fails for any reason the working copy is put
    /// back into the room — annotations are never lost.
    pub fn save_and_close_image(&self, room: RoomId, user: &str, object_id: u64) -> Result<()> {
        let annotated = self.with_room(room, |r| {
            r.require_capability(user, Capability::SaveObjects)?;
            r.take_object(object_id)
        })?;
        let result = (|| {
            let mut obj = self.db.get_image(user, object_id)?;
            // Only the overlay is stored inline; the pixels stay in
            // FLD_DATA.
            obj.cm = annotated.overlay_to_bytes();
            self.db.update_image(user, object_id, &obj)?;
            Ok(())
        })();
        if result.is_err() {
            // Failed save: restore the working copy so nothing is lost.
            let _ = self.with_room(room, |r| {
                r.insert_object(object_id, annotated);
                Ok(())
            });
        } else {
            // The stored object changed: drop every cached delivery
            // payload of it (all layer depths) so the next viewer reads
            // the new bytes.
            let _ = self.with_room(room, |r| {
                r.invalidate_cached_object(object_id);
                Ok(())
            });
        }
        result
    }

    /// Persists the room's (possibly globally updated) document back to the
    /// database.
    pub fn save_document(&self, room: RoomId, user: &str) -> Result<()> {
        let (doc_id, title, bytes) = self.with_room(room, |r| {
            r.require_capability(user, Capability::SaveObjects)?;
            Ok((
                r.document_id,
                r.document().title().to_string(),
                r.document().to_bytes(),
            ))
        })?;
        self.db
            .update_document(user, doc_id, &DocumentObject { title, data: bytes })?;
        Ok(())
    }

    /// Runs automatic audio segmentation on a stored audio object (16-bit
    /// LE PCM payload), persists the segments into the object's
    /// `FLD_SECTORS`, and shares the result summary with the whole room —
    /// the paper's cooperative voice processing: "if one does keyword
    /// searches, the results will be visible and usable to other partners."
    ///
    /// Returns the detected segments. The segmenter is trained lazily on
    /// first use and shared across rooms.
    pub fn analyse_audio(
        &self,
        room: RoomId,
        user: &str,
        audio_id: u64,
    ) -> Result<Vec<rcmo_audio::Segment>> {
        // Authorise first: the analyst must hold the share-analysis
        // capability before any side effect (the stored sectors) happens.
        self.with_room(room, |r| {
            r.require_capability(user, Capability::ShareAnalysis)
        })?;
        let obj = self.db.get_audio(user, audio_id)?;
        let samples = rcmo_audio::synth::from_pcm16(&obj.data);
        let model = self
            .segmenter
            .get_or_init(|| rcmo_audio::SegmenterModel::train_default(0xA11A));
        let segments = rcmo_audio::segment_audio(model, &samples);
        // Persist into FLD_SECTORS so future sessions reuse the analysis.
        self.db.update_audio_sectors(
            user,
            audio_id,
            &rcmo_audio::segment::encode_segments(&segments),
        )?;
        // Broadcast the summary to the room.
        let hop = model.features().hop_secs();
        let summary = segments
            .iter()
            .map(|s| {
                format!(
                    "{:.2}s-{:.2}s {}",
                    s.frames.start as f64 * hop,
                    s.frames.end as f64 * hop,
                    s.class.name()
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        self.with_room(room, |r| r.share_analysis(user, audio_id, &summary))?;
        Ok(segments)
    }

    /// Registers a dynamic event trigger in a room; the owner (and every
    /// other partner) receives a [`crate::events::RoomEvent::TriggerFired`]
    /// whenever the condition matches a subsequent room event.
    pub fn add_trigger(
        &self,
        room: RoomId,
        user: &str,
        condition: TriggerCondition,
    ) -> Result<u64> {
        self.with_room(room, |r| r.add_trigger(user, condition))
    }

    /// Removes a trigger (owner only).
    pub fn remove_trigger(&self, room: RoomId, user: &str, trigger: u64) -> Result<()> {
        self.with_room(room, |r| r.remove_trigger(user, trigger))
    }

    /// Broadcasts an announcement into **every** room (the paper's
    /// "broadcasting" future work). Requires admin access in the database.
    ///
    /// Room handles are snapshot under a brief map read lock, then each
    /// room is announced to under its own lock — the announcement never
    /// holds the map while delivering, so one room's slow delivery (or a
    /// dead member's reap cascade) cannot stall the whole server. Rooms
    /// created concurrently with the snapshot may miss the announcement,
    /// exactly as if they had been created just after it.
    pub fn broadcast_announcement(&self, user: &str, text: &str) -> Result<usize> {
        self.db.require(user, AccessLevel::Admin)?;
        self.map_reads.inc();
        let handles: Vec<RoomHandle> = self.rooms.read().values().cloned().collect();
        let mut reached = 0;
        for handle in handles {
            self.lock_timed(&handle, |r| r.announce(user, text));
            reached += 1;
        }
        Ok(reached)
    }

    /// Snapshot of every metric the server (and its rooms, through parent
    /// chaining) recorded. Equivalent to
    /// [`Metrics::metrics_snapshot`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }
}

impl Metrics for InteractionServer {
    /// Room propagation counters aggregated over every room of the server
    /// (each room's registry parents into the server's).
    type View = RoomStats;

    fn obs(&self) -> &Registry {
        &self.obs
    }

    fn metrics(&self) -> RoomStats {
        RoomStats::from_registry(&self.obs)
    }
}

/// Decodes an image object payload: raw (`GIM1`) or layered (`LIC1`).
fn decode_image_payload(data: &[u8]) -> Result<GrayImage> {
    if data.starts_with(b"GIM1") {
        Ok(GrayImage::from_bytes(data)?)
    } else if data.starts_with(b"LIC1") {
        rcmo_codec::decode(data).map_err(|e| ServerError::Invalid(format!("codec: {e}")))
    } else {
        Err(ServerError::Invalid(
            "image payload is neither GIM1 nor LIC1".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests;
