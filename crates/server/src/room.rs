//! Shared rooms: membership, per-viewer presentation sessions, the in-room
//! object registry, freeze/release, and delta broadcast.

use crate::error::{JoinRejectCause, Result, ServerError};
use crate::events::{Action, Delta, RoomEvent, TriggerCondition};
use crate::fanout::{ChangeLog, EventStream, Lag, LockedLog, LogGuard, SharedLog};
use crate::resync::{Resync, RoomSnapshot, SequencedEvent, DEFAULT_CHANGE_LOG_CAPACITY};
use crate::role::{Capability, JoinRequest, Role};
use crossbeam::channel::Sender;
use rcmo_core::{
    MultimediaDocument, Presentation, PresentationEngine, ViewerChoice, ViewerSession,
};
use rcmo_imaging::AnnotatedImage;
use rcmo_obs::{bounds, Counter, Histogram, Metrics, Registry, SharedClock};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a room.
pub type RoomId = u64;

/// Identifier of a shared object inside a room (the multimedia database id
/// of the underlying image object).
pub type SharedObjectId = u64;

/// A room's configuration, consolidated: what used to be a scatter of
/// grown-by-accretion setters (`set_room_capacity`,
/// `set_change_log_capacity`, and now the member queue bound) is one
/// builder, accepted whole at room creation
/// ([`create_room_with_id`](crate::server::InteractionServer::create_room_with_id))
/// and through the single reconfiguration entry point
/// ([`configure_room`](crate::server::InteractionServer::configure_room)).
///
/// ```
/// use rcmo_server::RoomConfig;
/// let lecture = RoomConfig::new()
///     .with_capacity(Some(10_000))
///     .with_change_log_capacity(4096)
///     .with_member_queue_bound(1024);
/// assert_eq!(lecture.capacity(), Some(10_000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoomConfig {
    capacity: Option<usize>,
    change_log_capacity: usize,
    member_queue_bound: usize,
}

impl Default for RoomConfig {
    fn default() -> RoomConfig {
        RoomConfig::new()
    }
}

impl RoomConfig {
    /// The defaults: unbounded membership, a
    /// [`DEFAULT_CHANGE_LOG_CAPACITY`]-event change log, and the default
    /// member queue bound
    /// ([`DEFAULT_MEMBER_QUEUE_BOUND`](crate::fanout::DEFAULT_MEMBER_QUEUE_BOUND)).
    pub fn new() -> RoomConfig {
        RoomConfig {
            capacity: None,
            change_log_capacity: DEFAULT_CHANGE_LOG_CAPACITY,
            member_queue_bound: crate::fanout::DEFAULT_MEMBER_QUEUE_BOUND,
        }
    }

    /// Bounds the member count (`None` = unbounded). Joins beyond the
    /// bound are rejected with [`JoinRejectCause::AtCapacity`].
    pub fn with_capacity(mut self, capacity: Option<usize>) -> RoomConfig {
        self.capacity = capacity;
        self
    }

    /// Bounds the change log's replay horizon (shrinking compacts the
    /// oldest events).
    pub fn with_change_log_capacity(mut self, capacity: usize) -> RoomConfig {
        self.change_log_capacity = capacity;
        self
    }

    /// Bounds how many events a member may leave unread before the room
    /// evicts them as a slow consumer. Applies to members joining
    /// after the change; a member may still override it per-join via
    /// [`JoinRequest::with_queue_bound`].
    pub fn with_member_queue_bound(mut self, bound: usize) -> RoomConfig {
        self.member_queue_bound = bound;
        self
    }

    /// The member-count bound.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The change-log ring capacity.
    pub fn change_log_capacity(&self) -> usize {
        self.change_log_capacity
    }

    /// The default member queue bound.
    pub fn member_queue_bound(&self) -> usize {
        self.member_queue_bound
    }

    /// Rejects configurations that cannot work: a zero change log could
    /// never replay a resync tail (every reconnect would silently degrade
    /// to a snapshot), and a zero queue bound would evict every member on
    /// their first event.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.change_log_capacity == 0 {
            return Err(ServerError::Invalid(
                "change log capacity must be at least 1 (a zero ring can never replay a resync tail)"
                    .to_string(),
            ));
        }
        if self.member_queue_bound == 0 {
            return Err(ServerError::Invalid(
                "member queue bound must be at least 1 (a zero queue evicts every member on \
                 their first event)"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

/// Aggregate propagation statistics of a room: a typed view over the
/// room's metrics registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoomStats {
    /// Events delivered (events × recipients). Only *successful* sends
    /// count; failed sends land in `delivery_failures`.
    pub events_delivered: u64,
    /// Total bytes delivered (approximate wire size × recipients).
    pub bytes_delivered: u64,
    /// Events appended to the room's change buffer.
    pub changes_logged: u64,
    /// Sends that failed because the member's receiver was gone.
    pub delivery_failures: u64,
    /// Members removed after their connection was detected dead.
    pub members_reaped: u64,
    /// Events encoded into a shared broadcast payload — exactly one per
    /// broadcast event, regardless of member count (the encode-once
    /// invariant E19 gates on).
    pub events_encoded: u64,
    /// Members evicted because their bound's worth of events was unread
    /// (slow consumers; they re-enter through snapshot resync).
    pub slow_consumers_evicted: u64,
    /// Mutating calls refused by the role capability table.
    pub actions_denied: u64,
}

impl RoomStats {
    /// Reads the room counters out of a metrics registry.
    pub fn from_registry(obs: &Registry) -> Self {
        RoomStats {
            events_delivered: obs.read_counter("server.room.delivered.count"),
            bytes_delivered: obs.read_counter("server.room.delivered.bytes"),
            changes_logged: obs.read_counter("server.room.logged.count"),
            delivery_failures: obs.read_counter("server.room.delivery_failure.count"),
            members_reaped: obs.read_counter("server.room.reaped.count"),
            events_encoded: obs.read_counter("server.room.encode.count"),
            slow_consumers_evicted: obs.read_counter("server.room.evicted_slow.count"),
            actions_denied: obs.read_counter("server.room.denied.count"),
        }
    }
}

#[derive(Debug)]
struct Member {
    name: String,
    /// The member's cursor in the room's log.
    slot: usize,
}

/// A room's event log with its members' cursors, lifted out for a live
/// migration ([`DetachedRoom`](crate::server::DetachedRoom)). Opaque.
#[derive(Debug)]
pub struct RoomLog {
    log: SharedLog,
    members: Vec<Member>,
}

/// A room's full migratable state: what freeze → snapshot exports and what
/// the destination shard rebuilds from. Built on the resync
/// [`RoomSnapshot`] (the state fold every client catch-up already uses),
/// extended with what a *server* needs that a client does not: per-viewer
/// sessions (choices survive the move), the retained change-log tail (the
/// destination serves the same replay horizon), and the room's own
/// configuration.
#[derive(Debug, Clone)]
pub struct RoomState {
    /// Display name.
    pub name: String,
    /// The multimedia database id of the room's document.
    pub document_id: u64,
    /// The resync-path state snapshot (document, objects, freezes,
    /// members, and the sequence number the state reflects).
    pub snapshot: RoomSnapshot,
    /// Per-viewer presentation sessions, keyed by member name.
    pub sessions: Vec<(String, ViewerSession)>,
    /// The retained change-log tail ending at `snapshot.seq` (dense): the
    /// change log's own shared events, so an export copies pointers only.
    pub tail: Vec<Arc<SequencedEvent>>,
    /// The change log's replay horizon, in events.
    pub change_log_capacity: usize,
    /// Member capacity (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Default member queue bound.
    pub member_queue_bound: usize,
    /// Role assignments, keyed by member name — including *reserved*
    /// seats of members currently disconnected (reaped or slow-evicted),
    /// who reclaim their role on resync. Roles survive migration and
    /// failover with the rest of the state.
    pub roles: Vec<(String, Role)>,
    /// Registered triggers (id, owner, condition).
    pub triggers: Vec<(u64, String, TriggerCondition)>,
    /// The id the next registered trigger receives.
    pub next_trigger: u64,
}

/// A shared room. All access goes through the
/// [`InteractionServer`](crate::server::InteractionServer), which wraps
/// every room in its own `Arc<Mutex<Room>>`
/// ([`RoomHandle`](crate::server::RoomHandle)) — `&mut self` here is
/// exclusive by construction, and independent rooms are mutated fully in
/// parallel.
#[derive(Debug)]
pub struct Room {
    /// Room id.
    pub id: RoomId,
    /// Display name.
    pub name: String,
    /// The multimedia database id of the room's document.
    pub document_id: u64,
    pub(crate) doc: MultimediaDocument,
    members: Vec<Member>,
    /// Role assignments. A superset of the live membership: an
    /// involuntarily removed member (dead connection, slow consumer)
    /// keeps their seat reserved here and reclaims it on resync; a
    /// voluntary `leave` (or an eviction) frees it.
    roles: HashMap<String, Role>,
    sessions: HashMap<String, ViewerSession>,
    /// The presentation last broadcast per viewer; the baseline the next
    /// `PresentationChanged` deltas are computed against.
    last_presentations: HashMap<String, Presentation>,
    objects: HashMap<SharedObjectId, AnnotatedImage>,
    freezes: HashMap<SharedObjectId, String>,
    /// The "large memory buffer which maintains the changes made on the
    /// changed objects", which the members' streams also read (see
    /// [`ChangeLog`]). Lock order: the room lock, then this one.
    log: SharedLog,
    engine: PresentationEngine,
    /// Maximum members (`None` = unbounded). Joins beyond it are rejected
    /// with [`JoinRejectCause::AtCapacity`].
    capacity: Option<usize>,
    /// Default bound of each member's unread events (a join may override).
    member_queue_bound: usize,
    /// Serialised-document cache for snapshot resyncs: invalidated only
    /// when the shared document actually mutates (a global operation),
    /// so a late-join storm pays one serialisation, not one per joiner.
    doc_bytes: Option<Arc<Vec<u8>>>,
    /// Serialised shared-object cache, per object, invalidated on that
    /// object's deltas.
    object_bytes: HashMap<SharedObjectId, Arc<Vec<u8>>>,
    /// Set for the freeze→snapshot→thaw window of a live migration: all
    /// mutating calls are refused ([`ServerError::Migrating`]) so the
    /// exported state is the room's final word on its shard.
    frozen_for_migration: bool,
    /// Replication tap: every sequenced event is also sent here (the
    /// cluster journal that failover rebuilds from). A broken tap is
    /// dropped silently — it is an observer, never a member.
    tap: Option<Sender<Arc<SequencedEvent>>>,
    /// Adaptive-delivery state (policy + object cache + per-member
    /// bandwidth estimators), created lazily on the room's first delivery
    /// so rooms that never serve layered objects register no delivery
    /// metrics. Deliberately *not* migrated or replicated: caches rebuild
    /// where the room lands and estimators re-learn in a transfer or two.
    delivery: Option<Arc<crate::delivery::DeliveryState>>,
    obs: Registry,
    /// The time source behind `broadcast_lat`/`resync_lat` — the server's
    /// clock, so a simulated room records virtual-time spans.
    clock: SharedClock,
    delivered: Counter,
    delivered_bytes: Counter,
    logged: Counter,
    delivery_failures: Counter,
    reaped: Counter,
    encoded: Counter,
    evicted_slow: Counter,
    denied: Counter,
    snapshot_cache_hits: Counter,
    snapshot_cache_misses: Counter,
    broadcast_lat: Histogram,
    resync_lat: Histogram,
    resync_replays: Counter,
    resync_snapshots: Counter,
    triggers: Vec<(u64, String, TriggerCondition)>,
    next_trigger: u64,
}

impl Room {
    pub(crate) fn new(
        id: RoomId,
        name: &str,
        document_id: u64,
        doc: MultimediaDocument,
        config: RoomConfig,
        parent: &Registry,
        clock: SharedClock,
    ) -> Room {
        let obs = Registry::with_parent(parent);
        let delivered = obs.counter("server.room.delivered.count");
        let delivered_bytes = obs.counter("server.room.delivered.bytes");
        let logged = obs.counter("server.room.logged.count");
        let delivery_failures = obs.counter("server.room.delivery_failure.count");
        let reaped = obs.counter("server.room.reaped.count");
        let encoded = obs.counter("server.room.encode.count");
        let evicted_slow = obs.counter("server.room.evicted_slow.count");
        let denied = obs.counter("server.room.denied.count");
        let snapshot_cache_hits = obs.counter("server.room.snapshot_cache.hit.count");
        let snapshot_cache_misses = obs.counter("server.room.snapshot_cache.miss.count");
        let broadcast_lat = obs.histogram("server.room.broadcast.us", bounds::LATENCY_US);
        let resync_lat = obs.histogram("server.room.resync.us", bounds::LATENCY_US);
        let resync_replays = obs.counter("server.room.resync.replay.count");
        let resync_snapshots = obs.counter("server.room.resync.snapshot.count");
        Room {
            id,
            name: name.to_string(),
            document_id,
            doc,
            members: Vec::new(),
            roles: HashMap::new(),
            sessions: HashMap::new(),
            last_presentations: HashMap::new(),
            objects: HashMap::new(),
            freezes: HashMap::new(),
            log: LockedLog::new(ChangeLog::new(config.change_log_capacity())),
            engine: PresentationEngine::new(),
            capacity: config.capacity(),
            member_queue_bound: config.member_queue_bound(),
            doc_bytes: None,
            object_bytes: HashMap::new(),
            frozen_for_migration: false,
            tap: None,
            delivery: None,
            obs,
            clock,
            delivered,
            delivered_bytes,
            logged,
            delivery_failures,
            reaped,
            encoded,
            evicted_slow,
            denied,
            snapshot_cache_hits,
            snapshot_cache_misses,
            broadcast_lat,
            resync_lat,
            resync_replays,
            resync_snapshots,
            triggers: Vec::new(),
            next_trigger: 1,
        }
    }

    /// Current members, in join order.
    pub fn member_names(&self) -> Vec<String> {
        self.members.iter().map(|m| m.name.clone()).collect()
    }

    /// Propagation statistics.
    pub fn stats(&self) -> RoomStats {
        self.metrics()
    }

    /// The room's change buffer, locked until the guard drops: members'
    /// streams wait meanwhile to read an event (an empty poll does not),
    /// so release it before calling another method of this room or
    /// dropping one of its streams.
    pub fn change_log(&self) -> LogGuard<'_> {
        self.log.lock()
    }

    /// The room's current configuration, as one value.
    pub fn config(&self) -> RoomConfig {
        RoomConfig::new()
            .with_capacity(self.capacity)
            .with_change_log_capacity(self.log.lock().capacity())
            .with_member_queue_bound(self.member_queue_bound)
    }

    /// Applies a validated [`RoomConfig`] whole: capacity, change-log
    /// horizon (shrinking compacts the oldest events), and the default
    /// member queue bound (applies to members joining after the change).
    pub(crate) fn apply_config(&mut self, config: &RoomConfig) -> Result<()> {
        config.validate()?;
        self.capacity = config.capacity();
        self.log.lock().set_capacity(config.change_log_capacity());
        self.member_queue_bound = config.member_queue_bound();
        Ok(())
    }

    /// The member's current role (`None` if they hold no seat, live or
    /// reserved).
    pub fn role_of(&self, user: &str) -> Option<Role> {
        self.roles.get(user).copied()
    }

    /// Who holds the presenter seat — live *or reserved* (a reaped
    /// presenter keeps the seat until they voluntarily leave or are
    /// evicted, so a momentary disconnect cannot lose the lectern).
    pub fn presenter(&self) -> Option<&str> {
        self.roles
            .iter()
            .find(|(_, r)| **r == Role::Presenter)
            .map(|(u, _)| u.as_str())
    }

    /// The shared document.
    pub fn document(&self) -> &MultimediaDocument {
        &self.doc
    }

    /// Appends `event` to the log (assigning its sequence number) as one
    /// shared `Arc` payload, which every member's stream reads. Returns the
    /// slots of the members the append found lagging, in join order — the
    /// caller (`broadcast`) removes them: a `Dropped` member is reaped
    /// (dead client), a `Full` member is evicted as a slow consumer.
    fn deliver(&mut self, event: RoomEvent) -> Vec<(usize, Lag)> {
        let mut lagging = Vec::new();
        let mut log = self.log.lock();
        let seq = log.last_seq() + 1;
        let sequenced = Arc::new(SequencedEvent { seq, event });
        let slots = self.members.iter().map(|m| m.slot);
        log.publish(sequenced.clone(), slots, &mut lagging);
        drop(log);
        self.logged.inc();
        // One encode per event, regardless of member count — the invariant
        // the E19 fan-out experiment gates on.
        self.encoded.inc();
        // The replication tap observes the identical total order the
        // members do; it is not a member (never reaped, never counted).
        if let Some(tap) = &self.tap {
            if tap.send(sequenced.clone()).is_err() {
                self.tap = None;
            }
        }
        let dropped = lagging.iter().filter(|(_, lag)| *lag == Lag::Dropped);
        self.delivery_failures.add(dropped.count() as u64);
        // The shared counters are bumped once per event, not per member.
        let sent = (self.members.len() - lagging.len()) as u64;
        self.delivered.add(sent);
        self.delivered_bytes
            .add(sent * sequenced.event.encoded_len() as u64);
        lagging
    }

    /// Broadcasts an event to every member, appends it to the change
    /// buffer, and removes any member the append found lagging — dead
    /// connections are reaped, members with their bound's worth unread are
    /// evicted as slow consumers, the latest joiner first. Either way their
    /// freezes are released and `Released`/`Left` events propagate (which
    /// may in turn report further members, or the same ones again), but
    /// their *role stays reserved*: an involuntarily removed member
    /// reclaims their seat through the resync path.
    fn broadcast(&mut self, event: RoomEvent) {
        let started = self.clock.now_us();
        let mut lagging = self.deliver(event);
        while let Some((slot, lag)) = lagging.pop() {
            let Some(i) = self.members.iter().position(|m| m.slot == slot) else {
                continue; // already removed this round
            };
            let (user, released) = self.remove_member(i);
            match lag {
                Lag::Full => self.evicted_slow.inc(),
                Lag::Dropped => self.reaped.inc(),
            }
            for object in released {
                lagging.extend(self.deliver(RoomEvent::Released {
                    object,
                    by: user.clone(),
                }));
            }
            lagging.extend(self.deliver(RoomEvent::Left { user }));
        }
        self.broadcast_lat
            .record(self.clock.now_us().saturating_sub(started));
    }

    /// Removes the `i`-th member: detaches their cursor (their stream
    /// keeps what they had not read), drops their view state and lifts
    /// their freezes. Returns their name and the objects released.
    fn remove_member(&mut self, i: usize) -> (String, Vec<SharedObjectId>) {
        let member = self.members.remove(i);
        self.log.lock().detach(member.slot);
        self.sessions.remove(&member.name);
        self.last_presentations.remove(&member.name);
        let held = self.freezes.iter().filter(|(_, by)| **by == member.name);
        let released: Vec<SharedObjectId> = held.map(|(&o, _)| o).collect();
        for object in &released {
            self.freezes.remove(object);
        }
        (member.name, released)
    }

    pub(crate) fn join(&mut self, req: &JoinRequest) -> Result<EventStream> {
        if self.frozen_for_migration {
            return Err(ServerError::JoinRejected {
                room: self.id,
                cause: JoinRejectCause::RoomFrozenForMigration,
            });
        }
        if self.members.iter().any(|m| m.name == req.user) {
            return Err(ServerError::AlreadyJoined(req.user.clone()));
        }
        if let Some(cap) = self.capacity {
            if self.members.len() >= cap {
                return Err(ServerError::JoinRejected {
                    room: self.id,
                    cause: JoinRejectCause::AtCapacity,
                });
            }
        }
        // The presenter seat is unique — live or reserved. (The requester
        // themselves may hold the reservation: a reaped presenter coming
        // back through a fresh join rather than a resync.)
        if req.role == Role::Presenter && self.presenter().is_some_and(|seat| seat != req.user) {
            return Err(ServerError::JoinRejected {
                room: self.id,
                cause: JoinRejectCause::PresenterSeatTaken,
            });
        }
        let stream = EventStream::open(
            &self.log,
            req.queue_bound.unwrap_or(self.member_queue_bound),
        );
        self.members.push(Member {
            name: req.user.clone(),
            slot: stream.slot,
        });
        self.sessions
            .entry(req.user.clone())
            .or_insert_with(|| ViewerSession::new(&req.user));
        self.roles.insert(req.user.clone(), req.role);
        self.broadcast(RoomEvent::Joined {
            user: req.user.clone(),
            role: req.role,
        });
        Ok(stream)
    }

    pub(crate) fn leave(&mut self, user: &str) -> Result<()> {
        let i = self.member_index(user)?;
        let user = user.to_string();
        self.give_up_seat(i, RoomEvent::Left { user });
        Ok(())
    }

    /// Removes the `i`-th member for good — a voluntary leave or an
    /// eviction frees their seat, the presenter's included — broadcasting
    /// their released freezes and then `event`.
    fn give_up_seat(&mut self, i: usize, event: RoomEvent) {
        let (user, released) = self.remove_member(i);
        self.roles.remove(&user);
        for object in released {
            let by = user.clone();
            self.broadcast(RoomEvent::Released { object, by });
        }
        self.broadcast(event);
    }

    /// Reconnects `user` with a fresh bounded event stream and computes what
    /// they missed since `last_seen` (the highest sequence number the
    /// client observed before disconnecting; `0` for "nothing").
    ///
    /// Within the replay horizon the client receives the exact missed tail
    /// and converges to the identical total event order; beyond it, a
    /// [`RoomSnapshot`] of the room's current state (the fold of every
    /// evicted event — served from the room's serialised-byte caches, so a
    /// late-join storm costs one serialisation, not one per joiner). If the
    /// member had already been removed (reaped or evicted as a slow
    /// consumer), they rejoin *reclaiming their reserved role* — partners
    /// see a `Joined` event, and the join itself is part of the replayed
    /// order for everyone *else*, never for the resyncing client (their
    /// catch-up is computed first).
    pub(crate) fn resync(&mut self, user: &str, last_seen: u64) -> Result<(EventStream, Resync)> {
        let started = self.clock.now_us();
        if self.frozen_for_migration {
            // A resync may rejoin (a membership mutation): refused while
            // frozen, retried by the cluster after the thaw.
            return Err(ServerError::Migrating(self.id));
        }
        // Catch-up is computed before any rejoin event so the client never
        // replays its own reconnection.
        let replay = self.log.lock().events_since(last_seen);
        let catch_up = match replay {
            Some(events) => {
                self.resync_replays.add(events.len() as u64);
                Resync::Events(events)
            }
            None => {
                self.resync_snapshots.inc();
                Resync::Snapshot(self.snapshot())
            }
        };
        let stream = EventStream::open(&self.log, self.member_queue_bound);
        if let Some(m) = self.members.iter_mut().find(|m| m.name == user) {
            // Still considered a member (dead connection not yet detected):
            // swap in the new stream silently; the old one keeps what it
            // had not read.
            let old = std::mem::replace(&mut m.slot, stream.slot);
            self.log.lock().detach(old);
        } else {
            // Reclaim the reserved seat (involuntary removal keeps it) or,
            // if none is reserved, re-enter with the symmetric-room default
            // role.
            let role = self.roles.get(user).copied().unwrap_or(Role::Moderator);
            self.members.push(Member {
                name: user.to_string(),
                slot: stream.slot,
            });
            self.sessions
                .entry(user.to_string())
                .or_insert_with(|| ViewerSession::new(user));
            self.roles.insert(user.to_string(), role);
            self.broadcast(RoomEvent::Joined {
                user: user.to_string(),
                role,
            });
        }
        self.resync_lat
            .record(self.clock.now_us().saturating_sub(started));
        Ok((stream, catch_up))
    }

    /// Removes `target` from the room on `by`'s authority
    /// ([`Capability::EvictMembers`]). Unlike an involuntary removal, an
    /// eviction *frees the seat* — the evicted member does not reclaim
    /// their role by resyncing. The presenter cannot be evicted; the seat
    /// moves only through [`Self::hand_off_presenter`].
    pub(crate) fn evict(&mut self, by: &str, target: &str) -> Result<()> {
        if self.frozen_for_migration {
            return Err(ServerError::Migrating(self.id));
        }
        self.require_capability(by, Capability::EvictMembers)?;
        if by == target {
            return Err(ServerError::Invalid(
                "cannot evict oneself; leave the room instead".to_string(),
            ));
        }
        let i = self.member_index(target)?;
        if self.roles.get(target) == Some(&Role::Presenter) {
            return Err(ServerError::Invalid(
                "the presenter cannot be evicted; the seat moves only through a handoff"
                    .to_string(),
            ));
        }
        let (user, by) = (target.to_string(), by.to_string());
        self.give_up_seat(i, RoomEvent::Evicted { user, by });
        Ok(())
    }

    /// Hands the presenter seat from `from` (who must hold
    /// [`Capability::HandOffPresenter`], i.e. be the presenter) to the live
    /// member `to`. The old presenter is demoted to moderator and the new
    /// one promoted in one atomic pair of `RoleChanged` events — no folded
    /// prefix of the event order ever shows two presenters.
    pub(crate) fn hand_off_presenter(&mut self, from: &str, to: &str) -> Result<()> {
        if self.frozen_for_migration {
            return Err(ServerError::Migrating(self.id));
        }
        self.require_capability(from, Capability::HandOffPresenter)?;
        if from == to {
            return Err(ServerError::Invalid(
                "cannot hand the presenter seat to oneself".to_string(),
            ));
        }
        self.member_index(to)?;
        self.roles.insert(from.to_string(), Role::Moderator);
        self.roles.insert(to.to_string(), Role::Presenter);
        self.broadcast(RoomEvent::RoleChanged {
            user: from.to_string(),
            role: Role::Moderator,
        });
        self.broadcast(RoomEvent::RoleChanged {
            user: to.to_string(),
            role: Role::Presenter,
        });
        Ok(())
    }

    /// The room's current state as a catch-up snapshot, reflecting every
    /// event through the change log's `last_seq()`.
    ///
    /// Serialisation is served from the room's byte caches (`doc_bytes`,
    /// `object_bytes`), which are invalidated only when the underlying
    /// state actually mutates — so a storm of snapshot resyncs between two
    /// document changes pays for *one* serialisation of each piece, and
    /// the broadcast hot path is never stalled re-encoding an unchanged
    /// document per joiner.
    pub(crate) fn snapshot(&mut self) -> RoomSnapshot {
        let document = match &self.doc_bytes {
            Some(bytes) => {
                self.snapshot_cache_hits.inc();
                bytes.as_ref().clone()
            }
            None => {
                self.snapshot_cache_misses.inc();
                let bytes = Arc::new(self.doc.to_bytes());
                self.doc_bytes = Some(bytes.clone());
                bytes.as_ref().clone()
            }
        };
        let mut objects: Vec<(SharedObjectId, Vec<u8>)> = Vec::with_capacity(self.objects.len());
        for (&id, img) in &self.objects {
            let bytes = match self.object_bytes.get(&id) {
                Some(cached) => {
                    self.snapshot_cache_hits.inc();
                    cached.as_ref().clone()
                }
                None => {
                    self.snapshot_cache_misses.inc();
                    let fresh = Arc::new(img.to_bytes());
                    self.object_bytes.insert(id, fresh.clone());
                    fresh.as_ref().clone()
                }
            };
            objects.push((id, bytes));
        }
        objects.sort_by_key(|(id, _)| *id);
        let mut freezes: Vec<(SharedObjectId, String)> = self
            .freezes
            .iter()
            .map(|(&o, holder)| (o, holder.clone()))
            .collect();
        freezes.sort_by_key(|(o, _)| *o);
        RoomSnapshot {
            seq: self.log.lock().last_seq(),
            document,
            objects,
            freezes,
            members: self.members.iter().map(|m| m.name.clone()).collect(),
        }
    }

    /// Marks the room frozen for migration: every mutating call
    /// (`act`, `join`, `resync`) is refused with
    /// [`ServerError::Migrating`] / [`JoinRejectCause::RoomFrozenForMigration`]
    /// until [`Self::thaw`]. Read-only calls keep working.
    pub(crate) fn freeze_for_migration(&mut self) {
        self.frozen_for_migration = true;
    }

    /// Lifts a migration freeze (on the destination shard, after rebuild).
    pub(crate) fn thaw(&mut self) {
        self.frozen_for_migration = false;
    }

    /// `true` while the room is frozen for a live migration.
    pub fn is_frozen_for_migration(&self) -> bool {
        self.frozen_for_migration
    }

    /// Current member count.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Attaches (or replaces) the replication tap: a channel that observes
    /// the room's total event order without being a member. The tap shares
    /// the encode-once payloads — journaling costs a pointer per event,
    /// not a payload copy.
    pub(crate) fn set_tap(&mut self, tap: Sender<Arc<SequencedEvent>>) {
        self.tap = Some(tap);
    }

    /// Exports the room's full migratable state: the resync snapshot (the
    /// state fold), the per-viewer sessions, and the retained change-log
    /// tail so the destination can serve the same replay horizon. The room
    /// should be frozen first — the export is then its final word.
    pub(crate) fn export_state(&mut self) -> RoomState {
        let snapshot = self.snapshot();
        let log = self.log.lock();
        let mut roles: Vec<(String, Role)> = self
            .roles
            .iter()
            .map(|(name, role)| (name.clone(), *role))
            .collect();
        roles.sort_by(|a, b| a.0.cmp(&b.0));
        RoomState {
            name: self.name.clone(),
            document_id: self.document_id,
            snapshot,
            sessions: self
                .sessions
                .iter()
                .map(|(name, s)| (name.clone(), s.clone()))
                .collect(),
            tail: log.retained().cloned().collect(),
            change_log_capacity: log.capacity(),
            capacity: self.capacity,
            member_queue_bound: self.member_queue_bound,
            roles,
            triggers: self.triggers.clone(),
            next_trigger: self.next_trigger,
        }
    }

    /// Rebuilds a room from exported state under a (possibly different)
    /// shard's registry. A migration passes the source's [`RoomLog`]: the
    /// room takes over the log and its members, so clients keep their
    /// streams. A failover passes `None`: the log is restored from
    /// `state.tail` and clients resync.
    ///
    /// The rebuilt room continues the source's total order exactly: its
    /// change log goes on at the same `next_seq` with the same replayable
    /// tail, so sequence numbers stay gap-free end-to-end. A tail that is
    /// not dense or does not end at `state.snapshot.seq` is
    /// [`ServerError::Invalid`].
    pub(crate) fn from_state(
        id: RoomId,
        state: RoomState,
        moved: Option<RoomLog>,
        parent: &Registry,
        clock: SharedClock,
    ) -> Result<Room> {
        let doc = MultimediaDocument::from_bytes(&state.snapshot.document)?;
        let config = RoomConfig::new()
            .with_capacity(state.capacity)
            .with_change_log_capacity(state.change_log_capacity)
            .with_member_queue_bound(state.member_queue_bound);
        let mut room = Room::new(
            id,
            &state.name,
            state.document_id,
            doc,
            config,
            parent,
            clock,
        );
        for (oid, bytes) in &state.snapshot.objects {
            room.objects
                .insert(*oid, AnnotatedImage::from_bytes(bytes)?);
        }
        room.freezes = state.snapshot.freezes.iter().cloned().collect();
        room.sessions = state.sessions.into_iter().collect();
        room.roles = state.roles.into_iter().collect();
        room.triggers = state.triggers;
        room.next_trigger = state.next_trigger;
        let Some(moved) = moved else {
            let log =
                ChangeLog::restore(state.change_log_capacity, state.snapshot.seq, state.tail)?;
            room.log = LockedLog::new(log);
            return Ok(room);
        };
        room.log = moved.log;
        for member in &moved.members {
            room.sessions
                .entry(member.name.clone())
                .or_insert_with(|| ViewerSession::new(&member.name));
        }
        room.members = moved.members;
        Ok(room)
    }

    /// Replays one replicated event into a failover rebuild: extends the
    /// change log verbatim (keeping the dense total order the source
    /// assigned; an event that breaks it is [`ServerError::Invalid`]) and
    /// folds the event's state effect into the room. Returns `false` when
    /// the event's effect cannot be reconstructed from the event alone
    /// (`OperationApplied` carries the operation name but not its trigger
    /// form) — the caller counts the rebuild as lossy and the room serves
    /// on with its checkpoint-era document.
    ///
    /// Membership is deliberately *not* restored: the dead shard took
    /// every member channel with it, so the rebuilt room starts with no
    /// members and clients re-enter through the resync path. Sessions
    /// (viewer choices) are restored, so a resyncing client gets their
    /// presentation back, not the default.
    pub(crate) fn ingest_replicated(&mut self, sequenced: Arc<SequencedEvent>) -> Result<bool> {
        self.log.lock().push_sequenced(sequenced.clone())?;
        self.logged.inc();
        Ok(match &sequenced.event {
            RoomEvent::Joined { user, role } => {
                self.sessions
                    .entry(user.clone())
                    .or_insert_with(|| ViewerSession::new(user));
                self.roles.insert(user.clone(), *role);
                true
            }
            RoomEvent::Left { user } => {
                // Freeze releases arrive as their own `Released` events.
                self.sessions.remove(user);
                self.last_presentations.remove(user);
                // A journaled `Left` cannot distinguish a voluntary leave
                // from a reap/slow-evict (which reserves the seat locally),
                // so the fold conservatively frees it: after a failover no
                // member channel survives anyway, and a returning member
                // re-enters through resync with the default role.
                self.roles.remove(user);
                true
            }
            RoomEvent::Evicted { user, .. } => {
                self.sessions.remove(user);
                self.last_presentations.remove(user);
                self.roles.remove(user);
                true
            }
            RoomEvent::RoleChanged { user, role } => {
                self.roles.insert(user.clone(), *role);
                true
            }
            RoomEvent::ObjectChanged { object, delta, .. } => {
                // The object is about to mutate: drop its serialised cache.
                self.object_bytes.remove(object);
                let Some(img) = self.objects.get_mut(object) else {
                    return Ok(false);
                };
                match delta {
                    Delta::TextAdded { id, element } => img.add_text(element.clone()) == *id,
                    Delta::LineAdded { id, element } => img.add_line(*element) == *id,
                    Delta::ElementDeleted { id } => img.delete_element(*id).is_ok(),
                }
            }
            RoomEvent::ChoiceMade {
                user,
                component,
                form,
            } => {
                let session = self
                    .sessions
                    .entry(user.clone())
                    .or_insert_with(|| ViewerSession::new(user));
                match form {
                    Some(form) => session
                        .choose(
                            &self.doc,
                            ViewerChoice {
                                component: *component,
                                form: *form,
                            },
                        )
                        .is_ok(),
                    None => {
                        session.unchoose(*component);
                        true
                    }
                }
            }
            RoomEvent::Frozen { object, by } => {
                self.freezes.insert(*object, by.clone());
                true
            }
            RoomEvent::Released { object, .. } => {
                self.freezes.remove(object);
                true
            }
            // The operation's trigger form never crossed the wire; the
            // document mutation cannot be replayed from the event alone.
            RoomEvent::OperationApplied { .. } => false,
            // Pure notifications: no server-side state to fold.
            RoomEvent::Chat { .. }
            | RoomEvent::PresentationChanged { .. }
            | RoomEvent::TriggerFired { .. }
            | RoomEvent::AudioAnalysed { .. } => true,
        })
    }

    /// Lifts out the log and its members (for a migration handoff). The
    /// room is left member-less, on a fresh log no stream reads; pair with
    /// [`Self::export_state`].
    pub(crate) fn take_log(&mut self) -> RoomLog {
        let fresh = LockedLog::new(ChangeLog::new(1));
        RoomLog {
            log: std::mem::replace(&mut self.log, fresh),
            members: std::mem::take(&mut self.members),
        }
    }

    fn member_index(&self, user: &str) -> Result<usize> {
        self.members
            .iter()
            .position(|m| m.name == user)
            .ok_or_else(|| ServerError::NotInRoom {
                user: user.to_string(),
                room: self.id,
            })
    }

    /// The capability gate every mutating entry point passes through: the
    /// acting user must be a live member *and* their role must grant `cap`.
    /// A denial is counted (`server.room.denied.count`) and surfaces as the
    /// structured [`ServerError::ActionRejected`].
    pub(crate) fn require_capability(&self, user: &str, cap: Capability) -> Result<()> {
        self.member_index(user)?;
        let role = *held(self.roles.get(user), user, "role")?;
        if role.allows(cap) {
            Ok(())
        } else {
            self.denied.inc();
            Err(ServerError::ActionRejected {
                required_capability: cap,
                role,
            })
        }
    }

    fn check_not_frozen_by_other(&self, object: SharedObjectId, user: &str) -> Result<()> {
        match self.freezes.get(&object) {
            Some(holder) if holder != user => Err(ServerError::Frozen {
                object,
                holder: holder.clone(),
            }),
            _ => Ok(()),
        }
    }

    /// The room's adaptive-delivery state, created from `cfg` on first
    /// use (under the room's own metrics registry) and shared thereafter.
    /// The returned `Arc` lets callers run cache loads and estimator math
    /// *outside* the room lock.
    pub(crate) fn delivery_state(
        &mut self,
        cfg: crate::delivery::DeliveryConfig,
    ) -> Arc<crate::delivery::DeliveryState> {
        self.delivery
            .get_or_insert_with(|| Arc::new(crate::delivery::DeliveryState::new(cfg, &self.obs)))
            .clone()
    }

    /// Drops any cached delivery payloads of a stored object (all layer
    /// depths) — called after the object is updated in the database.
    pub(crate) fn invalidate_cached_object(&mut self, object_id: u64) {
        if let Some(delivery) = &self.delivery {
            delivery.cache().invalidate(object_id);
        }
    }

    /// Registers an object (a working copy of a database image) in the room.
    pub(crate) fn insert_object(&mut self, id: SharedObjectId, image: AnnotatedImage) {
        self.object_bytes.remove(&id);
        self.objects.insert(id, image);
    }

    /// Read access to a shared object.
    pub fn object(&self, id: SharedObjectId) -> Result<&AnnotatedImage> {
        self.objects.get(&id).ok_or(ServerError::UnknownObject(id))
    }

    /// Removes an object from the room ("changed objects are saved and
    /// discarded from the room as soon as they are not needed").
    pub(crate) fn take_object(&mut self, id: SharedObjectId) -> Result<AnnotatedImage> {
        self.object_bytes.remove(&id);
        self.objects
            .remove(&id)
            .ok_or(ServerError::UnknownObject(id))
    }

    /// The viewer's current presentation of the room document.
    pub fn presentation_for(&self, user: &str) -> Result<Presentation> {
        let session = self.sessions.get(user).ok_or(ServerError::NotInRoom {
            user: user.to_string(),
            room: self.id,
        })?;
        Ok(self.engine.presentation_for(&self.doc, session)?)
    }

    /// Renders the viewer's presentation as text (the Figure-5 content
    /// pane): what the viewer's client shows right now.
    pub fn render_presentation(&self, user: &str) -> Result<String> {
        Ok(self.presentation_for(user)?.render(&self.doc))
    }

    /// Registers a dynamic event trigger owned by `user`; returns its id.
    pub(crate) fn add_trigger(&mut self, user: &str, condition: TriggerCondition) -> Result<u64> {
        self.require_capability(user, Capability::ManageTriggers)?;
        let id = self.next_trigger;
        self.next_trigger += 1;
        self.triggers.push((id, user.to_string(), condition));
        Ok(id)
    }

    /// Removes a trigger; only its owner may do so.
    pub(crate) fn remove_trigger(&mut self, user: &str, id: u64) -> Result<()> {
        match self.triggers.iter().position(|(tid, _, _)| *tid == id) {
            Some(i) if self.triggers[i].1 == user => {
                self.triggers.remove(i);
                Ok(())
            }
            Some(_) => Err(ServerError::Invalid(format!(
                "trigger {id} is not owned by '{user}'"
            ))),
            None => Err(ServerError::Invalid(format!("no trigger {id}"))),
        }
    }

    /// Registered triggers (id, owner).
    pub fn triggers(&self) -> Vec<(u64, &str)> {
        self.triggers
            .iter()
            .map(|(id, owner, _)| (*id, owner.as_str()))
            .collect()
    }

    /// Scans retained events with sequence number ≥ `from_seq` and fires
    /// matching triggers. Trigger events themselves are never matched (no
    /// cascades).
    fn fire_triggers(&mut self, from_seq: u64) {
        if self.triggers.is_empty() {
            return;
        }
        let mut fired: Vec<RoomEvent> = Vec::new();
        for sequenced in self.log.lock().retained_from(from_seq) {
            let event = &sequenced.event;
            if matches!(event, RoomEvent::TriggerFired { .. }) {
                continue;
            }
            for (id, owner, condition) in &self.triggers {
                if condition.matches(event) {
                    fired.push(RoomEvent::TriggerFired {
                        trigger: *id,
                        owner: owner.clone(),
                        cause: format!("{event:?}"),
                    });
                }
            }
        }
        for event in fired {
            self.broadcast(event);
        }
    }

    /// Applies a client action, propagating the resulting deltas. This is
    /// the server's core dispatch (the paper's "use case: updating the
    /// presentation", Fig. 4b, plus the object operations of §3).
    pub(crate) fn act(&mut self, user: &str, action: Action) -> Result<()> {
        if self.frozen_for_migration {
            return Err(ServerError::Migrating(self.id));
        }
        self.require_capability(user, Self::capability_for(&action))?;
        let log_start = self.log.lock().last_seq() + 1;
        let result = self.act_inner(user, action);
        if result.is_ok() {
            self.fire_triggers(log_start);
        }
        result
    }

    /// The fixed action → capability mapping: what each [`Action`] touches
    /// decides what the acting role must hold. Viewer-local actions
    /// (choices, local operations) need only [`Capability::AdjustOwnView`];
    /// anything that mutates shared state needs the matching shared-state
    /// capability.
    fn capability_for(action: &Action) -> Capability {
        match action {
            Action::Choose { .. } | Action::Unchoose { .. } => Capability::AdjustOwnView,
            Action::ApplyOperation { global, .. } => {
                if *global {
                    Capability::ApplyGlobalOperation
                } else {
                    Capability::AdjustOwnView
                }
            }
            Action::AddText { .. } | Action::AddLine { .. } | Action::DeleteElement { .. } => {
                Capability::AnnotateObjects
            }
            Action::Freeze { .. } | Action::Release { .. } => Capability::FreezeObjects,
            Action::Chat { .. } => Capability::Chat,
        }
    }

    fn act_inner(&mut self, user: &str, action: Action) -> Result<()> {
        match action {
            Action::Choose { component, form } => {
                {
                    let session = held(self.sessions.get_mut(user), user, "session")?;
                    session.choose(&self.doc, ViewerChoice { component, form })?;
                }
                self.broadcast(RoomEvent::ChoiceMade {
                    user: user.to_string(),
                    component,
                    form: Some(form),
                });
                self.push_presentation_update(user)?;
            }
            Action::Unchoose { component } => {
                {
                    let session = held(self.sessions.get_mut(user), user, "session")?;
                    session.unchoose(component);
                }
                self.broadcast(RoomEvent::ChoiceMade {
                    user: user.to_string(),
                    component,
                    form: None,
                });
                self.push_presentation_update(user)?;
            }
            Action::AddText { object, element } => {
                self.check_not_frozen_by_other(object, user)?;
                self.object_bytes.remove(&object);
                let img = self
                    .objects
                    .get_mut(&object)
                    .ok_or(ServerError::UnknownObject(object))?;
                let id = img.add_text(element.clone());
                self.broadcast(RoomEvent::ObjectChanged {
                    object,
                    by: user.to_string(),
                    delta: Delta::TextAdded { id, element },
                });
            }
            Action::AddLine { object, element } => {
                self.check_not_frozen_by_other(object, user)?;
                self.object_bytes.remove(&object);
                let img = self
                    .objects
                    .get_mut(&object)
                    .ok_or(ServerError::UnknownObject(object))?;
                let id = img.add_line(element);
                self.broadcast(RoomEvent::ObjectChanged {
                    object,
                    by: user.to_string(),
                    delta: Delta::LineAdded { id, element },
                });
            }
            Action::DeleteElement { object, element } => {
                self.check_not_frozen_by_other(object, user)?;
                self.object_bytes.remove(&object);
                let img = self
                    .objects
                    .get_mut(&object)
                    .ok_or(ServerError::UnknownObject(object))?;
                img.delete_element(element)?;
                self.broadcast(RoomEvent::ObjectChanged {
                    object,
                    by: user.to_string(),
                    delta: Delta::ElementDeleted { id: element },
                });
            }
            Action::ApplyOperation {
                component,
                trigger_form,
                operation,
                global,
            } => {
                if global {
                    // Component ids are u32; a document so large that its
                    // component count no longer fits must be rejected whole
                    // — the old `as u32` cast silently truncated and would
                    // have rebased every session onto the wrong components.
                    let components = u32::try_from(self.doc.num_components()).map_err(|_| {
                        ServerError::Invalid(format!(
                            "document has {} components, exceeding the u32 component-id space",
                            self.doc.num_components()
                        ))
                    })?;
                    self.doc
                        .add_global_operation(component, trigger_form, &operation)?;
                    // The shared document mutated: the next snapshot must
                    // re-serialise it.
                    self.doc_bytes = None;
                    // Viewer-local extensions were built against the old
                    // network; the prototype's policy is to re-derive local
                    // state after a global edit (identity rebase keeps the
                    // explicit choices, drops extensions and context).
                    let identity: Vec<Option<rcmo_core::ComponentId>> = (0..components)
                        .map(|i| Some(rcmo_core::ComponentId(i)))
                        .collect();
                    for session in self.sessions.values_mut() {
                        session.rebase(&identity);
                    }
                    self.broadcast(RoomEvent::OperationApplied {
                        user: user.to_string(),
                        component,
                        operation,
                    });
                    // Everyone's presentation may have changed.
                    let names: Vec<String> = self.members.iter().map(|m| m.name.clone()).collect();
                    for name in names {
                        self.push_presentation_update(&name)?;
                    }
                } else {
                    let session = held(self.sessions.get_mut(user), user, "session")?;
                    session.apply_local_operation(
                        &self.doc,
                        component,
                        trigger_form,
                        &operation,
                    )?;
                    self.push_presentation_update(user)?;
                }
            }
            Action::Freeze { object } => {
                if !self.objects.contains_key(&object) {
                    return Err(ServerError::UnknownObject(object));
                }
                if let Some(holder) = self.freezes.get(&object) {
                    return Err(ServerError::FreezeConflict(format!(
                        "object {object} already frozen by '{holder}'"
                    )));
                }
                self.freezes.insert(object, user.to_string());
                self.broadcast(RoomEvent::Frozen {
                    object,
                    by: user.to_string(),
                });
            }
            Action::Release { object } => match self.freezes.get(&object) {
                Some(holder) if holder == user => {
                    self.freezes.remove(&object);
                    self.broadcast(RoomEvent::Released {
                        object,
                        by: user.to_string(),
                    });
                }
                Some(holder) => {
                    return Err(ServerError::FreezeConflict(format!(
                        "'{user}' cannot release a freeze held by '{holder}'"
                    )))
                }
                None => {
                    return Err(ServerError::FreezeConflict(format!(
                        "object {object} is not frozen"
                    )))
                }
            },
            Action::Chat { text } => {
                self.broadcast(RoomEvent::Chat {
                    user: user.to_string(),
                    text,
                });
            }
        }
        Ok(())
    }

    /// Broadcasts a server-wide announcement into this room (the sender
    /// need not be a member — it is the administrator).
    pub(crate) fn announce(&mut self, user: &str, text: &str) {
        self.broadcast(RoomEvent::Chat {
            user: format!("{user} (announcement)"),
            text: text.to_string(),
        });
    }

    /// Broadcasts a shared analysis result (cooperative audio browsing).
    pub(crate) fn share_analysis(
        &mut self,
        user: &str,
        object: SharedObjectId,
        summary: &str,
    ) -> Result<()> {
        self.require_capability(user, Capability::ShareAnalysis)?;
        self.broadcast(RoomEvent::AudioAnalysed {
            object,
            by: user.to_string(),
            summary: summary.to_string(),
        });
        Ok(())
    }

    /// Recomputes `viewer`'s presentation (incrementally, through the
    /// engine's reconfiguration caches) and broadcasts only the delta
    /// against the presentation last broadcast for that viewer. A viewer
    /// with no broadcast history is diffed against the author-default
    /// presentation, which is what their client rendered on join.
    fn push_presentation_update(&mut self, viewer: &str) -> Result<()> {
        let p = self.presentation_for(viewer)?;
        let prev = self
            .last_presentations
            .remove(viewer)
            .unwrap_or_else(|| self.engine.default_presentation(&self.doc));
        let deltas = prev.diff(&p);
        let transfer = prev.delta_transfer_bytes(&p, &self.doc);
        self.last_presentations.insert(viewer.to_string(), p);
        self.broadcast(RoomEvent::PresentationChanged {
            viewer: viewer.to_string(),
            transfer_bytes: transfer,
            deltas,
        });
        Ok(())
    }
}

impl Metrics for Room {
    type View = RoomStats;

    fn obs(&self) -> &Registry {
        &self.obs
    }

    fn metrics(&self) -> RoomStats {
        RoomStats::from_registry(&self.obs)
    }
}

/// What every live member holds (a session, a role): its absence breaks
/// the room's own invariant, and is [`ServerError::Invalid`], not a panic.
fn held<T>(found: Option<T>, user: &str, what: &str) -> Result<T> {
    found.ok_or_else(|| ServerError::Invalid(format!("live member {user} holds no {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmo_obs::WallClock;

    /// A room holding `n` members `m0..m{n-1}` (no joins broadcast), and
    /// their streams in the same order.
    fn room_with_members(n: usize, parent: &Registry) -> (Room, Vec<EventStream>) {
        let doc = MultimediaDocument::new("doc");
        let mut room = Room::new(
            1,
            "r",
            0,
            doc,
            RoomConfig::new(),
            parent,
            WallClock::shared(),
        );
        let streams = (0..n)
            .map(|i| {
                let stream = EventStream::open(&room.log, 64);
                room.members.push(Member {
                    name: format!("m{i}"),
                    slot: stream.slot,
                });
                stream
            })
            .collect();
        (room, streams)
    }

    #[test]
    fn delivered_counters_total_the_successful_sends() {
        let (n, k) = (5usize, 7usize);
        let parent = Registry::new();
        let (mut room, mut streams) = room_with_members(n, &parent);
        // m2's client is gone; `deliver` reports it but does not reap, so
        // every one of the k events finds the same n − 1 live receivers.
        drop(streams.remove(2));
        let mut bytes = 0u64;
        for i in 0..k {
            let event = RoomEvent::Chat {
                user: "m0".into(),
                text: "x".repeat(i + 1),
            };
            bytes += event.encoded_len() as u64 * (n as u64 - 1);
            let failed = room.deliver(event);
            assert_eq!(failed, vec![(room.members[2].slot, Lag::Dropped)]);
        }
        assert_eq!(
            room.obs.read_counter("server.room.delivered.count"),
            ((n - 1) * k) as u64
        );
        assert_eq!(room.obs.read_counter("server.room.delivered.bytes"), bytes);
        assert_eq!(
            room.obs.read_counter("server.room.delivery_failure.count"),
            k as u64
        );
        for s in &streams {
            assert_eq!(s.len(), k);
        }
    }

    #[test]
    fn a_live_member_missing_a_session_or_role_is_an_error_not_a_panic() {
        let parent = Registry::new();
        let (mut room, _streams) = room_with_members(1, &parent);
        room.roles.insert("m0".into(), Role::Moderator);
        let component = rcmo_core::ComponentId(0);
        for action in [
            Action::Choose { component, form: 0 },
            Action::Unchoose { component },
        ] {
            let err = room.act("m0", action).unwrap_err();
            assert!(matches!(err, ServerError::Invalid(_)), "{err:?}");
        }
        room.sessions.insert("m0".into(), ViewerSession::new("m0"));
        room.roles.clear();
        let err = room.require_capability("m0", Capability::Chat).unwrap_err();
        assert!(matches!(err, ServerError::Invalid(_)), "{err:?}");
        let chat = Action::Chat { text: "hi".into() };
        assert!(matches!(room.act("m0", chat), Err(ServerError::Invalid(_))));
        assert_eq!(room.member_names(), vec!["m0".to_string()]);
    }

    #[test]
    fn every_reader_shares_the_change_logs_event() {
        let parent = Registry::new();
        let (mut room, streams) = room_with_members(3, &parent);
        room.broadcast(RoomEvent::Chat {
            user: "m0".into(),
            text: "hello".into(),
        });
        let logged = room.change_log().retained().last().unwrap().clone();
        for s in &streams {
            assert!(Arc::ptr_eq(&s.try_recv().unwrap(), &logged));
        }
        let (_stream, catch_up) = room.resync("m1", logged.seq - 1).unwrap();
        let Resync::Events(replay) = catch_up else {
            panic!("expected a replay, got {catch_up:?}");
        };
        assert_eq!(replay.len(), 1);
        assert!(Arc::ptr_eq(&replay[0], &logged));
        let state = room.export_state();
        assert!(Arc::ptr_eq(state.tail.last().unwrap(), &logged));
    }

    /// A room whose members `m0..m{n-1}` joined as viewers with queue
    /// bound `bound`, each join's events drained as it happened, so every
    /// stream starts empty.
    fn joined_room(
        n: usize,
        bound: usize,
        config: RoomConfig,
        parent: &Registry,
    ) -> (Room, Vec<EventStream>) {
        let doc = MultimediaDocument::new("doc");
        let mut room = Room::new(1, "r", 0, doc, config, parent, WallClock::shared());
        let mut streams: Vec<EventStream> = Vec::with_capacity(n);
        for i in 0..n {
            let req = JoinRequest::viewer(&format!("m{i}")).with_queue_bound(bound);
            streams.push(room.join(&req).unwrap());
            for s in &streams {
                s.try_iter().for_each(drop);
            }
        }
        (room, streams)
    }

    fn chat(room: &mut Room, text: &str) {
        room.broadcast(RoomEvent::Chat {
            user: "m0".into(),
            text: text.into(),
        });
    }

    fn received(s: &EventStream) -> Vec<RoomEvent> {
        s.try_iter().map(|e| e.event.clone()).collect()
    }

    fn left(user: &str) -> RoomEvent {
        RoomEvent::Left { user: user.into() }
    }

    fn chat_event(text: &str) -> RoomEvent {
        RoomEvent::Chat {
            user: "m0".into(),
            text: text.into(),
        }
    }

    #[test]
    fn slow_member_is_evicted_at_bound_plus_one_and_keeps_its_events() {
        let b = 4;
        let parent = Registry::new();
        let (mut room, streams) = joined_room(3, b, RoomConfig::new(), &parent);
        let first = room.change_log().last_seq() + 1;
        // m1 never drains; m0 and m2 keep up.
        for i in 0..b {
            chat(&mut room, &format!("c{i}"));
            received(&streams[0]);
            received(&streams[2]);
        }
        assert_eq!(room.member_names(), ["m0", "m1", "m2"]);
        assert_eq!(streams[1].len(), b);
        chat(&mut room, "over");
        assert_eq!(room.member_names(), ["m0", "m2"]);
        for s in [&streams[0], &streams[2]] {
            assert_eq!(received(s), vec![chat_event("over"), left("m1")]);
        }
        for k in 0..b {
            assert_eq!(streams[1].len(), b - k);
            assert_eq!(streams[1].try_recv().unwrap().seq, first + k as u64);
        }
        assert_eq!(streams[1].len(), 0);
        assert!(streams[1].is_empty());
        assert!(streams[1].try_recv().is_none());
        let stats = room.stats();
        assert_eq!(stats.slow_consumers_evicted, 1);
        assert_eq!(stats.members_reaped, 0);
        assert_eq!(stats.delivery_failures, 0);
    }

    #[test]
    fn dropped_stream_is_reaped_at_the_next_append() {
        let parent = Registry::new();
        let (mut room, mut streams) = joined_room(3, 4, RoomConfig::new(), &parent);
        drop(streams.remove(1));
        chat(&mut room, "x");
        assert_eq!(room.member_names(), ["m0", "m2"]);
        assert_eq!(received(&streams[0]), vec![chat_event("x"), left("m1")]);
        let stats = room.stats();
        assert_eq!(stats.members_reaped, 1);
        assert_eq!(stats.delivery_failures, 1);
        assert_eq!(stats.slow_consumers_evicted, 0);

        // A stream dropped with its whole bound unread counts as a slow
        // consumer, not a dead one: the bound is checked first.
        let (mut room, mut streams) = joined_room(2, 2, RoomConfig::new(), &parent);
        chat(&mut room, "a");
        chat(&mut room, "b");
        received(&streams[0]);
        drop(streams.remove(1));
        chat(&mut room, "c");
        assert_eq!(room.member_names(), ["m0"]);
        let stats = room.stats();
        assert_eq!(stats.slow_consumers_evicted, 1);
        assert_eq!(stats.members_reaped, 0);
        assert_eq!(stats.delivery_failures, 0);
    }

    #[test]
    fn members_failing_at_one_append_leave_in_reverse_join_order() {
        let b = 3;
        let parent = Registry::new();
        let (mut room, streams) = joined_room(4, b, RoomConfig::new(), &parent);
        // m1 and m2 stall; m0 and m3 drain.
        for i in 0..b {
            chat(&mut room, &format!("c{i}"));
            received(&streams[0]);
            received(&streams[3]);
        }
        let before = room.stats();
        chat(&mut room, "over");
        assert_eq!(room.member_names(), ["m0", "m3"]);
        for s in [&streams[0], &streams[3]] {
            assert_eq!(
                received(s),
                vec![chat_event("over"), left("m2"), left("m1")]
            );
        }
        for s in [&streams[1], &streams[2]] {
            assert_eq!(s.try_iter().count(), b);
        }
        let after = room.stats();
        assert_eq!(
            after.slow_consumers_evicted - before.slow_consumers_evicted,
            2
        );
        // m0 and m3 each got "over", Left m2 and Left m1.
        assert_eq!(after.events_delivered - before.events_delivered, 6);
    }

    #[test]
    fn a_failing_member_is_reported_again_at_each_cascade_append() {
        let b = 4;
        let parent = Registry::new();
        let (mut room, mut streams) = joined_room(3, b, RoomConfig::new(), &parent);
        // m1 leaves b − 1 events unread, then both m1 and m2 drop their
        // streams. At "x" both are reported; m2 goes first, and the `Left`
        // it causes reports m1 again — still as a dead stream, not a full
        // one, although m1 would now be b events behind.
        for i in 0..b - 1 {
            chat(&mut room, &format!("c{i}"));
            received(&streams[0]);
            received(&streams[2]);
        }
        let m2 = streams.remove(2);
        let m1 = streams.remove(1);
        drop(m1);
        drop(m2);
        let before = room.stats();
        chat(&mut room, "x");
        assert_eq!(room.member_names(), ["m0"]);
        assert_eq!(
            received(&streams[0]),
            vec![chat_event("x"), left("m2"), left("m1")]
        );
        let after = room.stats();
        assert_eq!(after.delivery_failures - before.delivery_failures, 3);
        assert_eq!(after.members_reaped - before.members_reaped, 2);
        assert_eq!(after.slow_consumers_evicted, before.slow_consumers_evicted);
        assert_eq!(after.events_delivered - before.events_delivered, 3);
    }

    #[test]
    fn held_streams_of_evicted_members_do_not_pin_the_log() {
        let (n, b, capacity) = (1_000usize, 4usize, 1_024usize);
        let parent = Registry::new();
        let config = RoomConfig::new().with_change_log_capacity(capacity);
        let (mut room, streams) = joined_room(n, b, config, &parent);
        for i in 0..b {
            chat(&mut room, &format!("c{i}"));
            assert!(room.change_log().len() <= capacity);
        }
        let last = room.change_log().last_seq();
        // The next append evicts all n members; the n `Left` events that
        // follow are further appends.
        chat(&mut room, "evict");
        assert_eq!(room.member_count(), 0);
        let evicting = {
            let log = room.change_log();
            let tail = log.events_since(last).expect("within the horizon");
            assert!(log.len() <= capacity);
            Arc::downgrade(&tail[0])
        };
        let mut further = room.change_log().last_seq() - (last + 1);
        assert_eq!(further, n as u64);
        while further < capacity as u64 {
            assert!(evicting.upgrade().is_some(), "lost after {further} appends");
            chat(&mut room, "more");
            further += 1;
            assert!(room.change_log().len() <= capacity);
        }
        assert!(
            evicting.upgrade().is_none(),
            "pinned after {capacity} further appends"
        );
        for s in &streams {
            assert_eq!(s.len(), b);
        }
    }
}
