//! The cluster frontend: N `InteractionServer` shards behind one room
//! directory, with failure detection, live migration, and failover.
//!
//! Architecture (the VRVS-style reflector federation of the related work):
//! every client call names a room; the frontend looks the room up in the
//! [`RoomDirectory`], checks the owning shard's published health, and
//! forwards the call to that shard with no shard-wide lock — the room
//! mutex inside the shard is the only exclusive lock a routed call takes,
//! so two rooms proceed in parallel whether or not they share a shard.
//! Calls that hit a mid-migration room or a suspect shard retry with
//! bounded backoff instead of erroring; only an exhausted retry budget
//! surfaces [`ServerError::ShardUnavailable`] / [`ServerError::Migrating`].
//!
//! Queries go through [`ClusterFrontend::read_room`]; commands stay typed.
//! A query is a closure over the room's `&self` API, routed like any other
//! call; only commands — mutations, capability checks, checkpoint
//! barriers, and join's error mapping — are mirrored method by method.
//!
//! Lock order (deadlock discipline, extending DESIGN.md §11's map → room
//! order): `directory(shared) → rooms-map(shared) → room`. `route` drops
//! its directory read guard before it enters the shard; the directory's
//! write side (create/close/reap/migrate/failover), `health` and
//! `journals` are control-plane locks, never held across a data-plane
//! shard call (`journals` may be held across tap/checkpoint, which take
//! room locks). Health is read on the data plane from the per-shard
//! gauges `advance` publishes, not from the `health` lock.

use crate::error::{JoinRejectCause, Result, ServerError};
use crate::events::{Action, TriggerCondition};
use crate::resync::Resync;
use crate::role::JoinRequest;
use crate::room::{Room, RoomConfig, RoomId};
use crate::server::{ClientConnection, InteractionServer};
use crossbeam::channel::unbounded;
use parking_lot::{Mutex, RwLock};
use rcmo_mediadb::MediaDb;
use rcmo_netsim::{FaultSpec, Link};
use rcmo_obs::{bounds, Counter, Gauge, Histogram, Metrics, MetricsSnapshot, Registry};
use rcmo_obs::{SharedClock, WallClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use super::directory::{Placement, RoomDirectory, ShardId};
use super::health::{HealthTracker, ShardHealth};
use super::journal::RoomJournal;

/// Static configuration of a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards.
    pub shards: usize,
    /// Virtual ring points per shard (spreads failover load).
    pub vnodes_per_shard: usize,
    /// Heartbeat interval in virtual seconds.
    pub heartbeat_interval_s: f64,
    /// Consecutive missed intervals before a shard is suspect.
    pub suspect_after_missed: u32,
    /// Consecutive missed intervals before a shard is declared dead.
    pub dead_after_missed: u32,
    /// The control link heartbeats ride on.
    pub control_link: Link,
    /// Per-shard fault models for the control link (padded with
    /// [`FaultSpec::none`] when shorter than `shards`). Seeded outages
    /// here are how an experiment injects deterministic shard stalls and
    /// partitions.
    pub heartbeat_faults: Vec<FaultSpec>,
    /// Bounded retry budget for routed calls that hit a migrating room or
    /// an unhealthy shard.
    pub route_retries: u32,
    /// First retry backoff in microseconds (doubles per retry, capped).
    pub route_backoff_base_us: u64,
    /// Backoff cap in microseconds.
    pub route_backoff_cap_us: u64,
    /// Maximum events a room's replica journal holds between checkpoints.
    /// A tail that outgrows the cap is folded into the replica's
    /// checkpoint by [`ClusterFrontend::maintain_replicas`] — the memory a
    /// frontend spends per room stays bounded no matter how chatty the
    /// room is between explicit checkpoints.
    pub journal_tail_cap: usize,
}

impl ClusterConfig {
    /// A cluster of `shards` with LAN control links and default detection
    /// thresholds (suspect after 2 missed 0.5 s beats, dead after 4).
    pub fn new(shards: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            vnodes_per_shard: 16,
            heartbeat_interval_s: 0.5,
            suspect_after_missed: 2,
            dead_after_missed: 4,
            control_link: Link::new(10_000_000.0, 0.005),
            heartbeat_faults: Vec::new(),
            route_retries: 64,
            route_backoff_base_us: 50,
            route_backoff_cap_us: 2_000,
            journal_tail_cap: 4_096,
        }
    }
}

/// Aggregate cluster statistics: a typed view over the frontend registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Directory lookups served.
    pub directory_lookups: u64,
    /// Routed calls that retried (migration freeze or unhealthy shard).
    pub route_retries: u64,
    /// Live migrations completed.
    pub migrations: u64,
    /// Shards failed over.
    pub failover_shards: u64,
    /// Rooms rebuilt by failover.
    pub failover_rooms: u64,
    /// Journal events whose state effect could not be replayed (the event
    /// still holds its slot in the rebuilt total order).
    pub failover_lossy_events: u64,
    /// Rooms currently tracked by the directory.
    pub rooms: u64,
}

impl ClusterStats {
    /// Reads the cluster counters out of a metrics registry.
    pub fn from_registry(obs: &Registry) -> ClusterStats {
        ClusterStats {
            directory_lookups: obs.read_counter("cluster.directory.lookup.count"),
            route_retries: obs.read_counter("cluster.route.retry.count"),
            migrations: obs.read_counter("cluster.migration.count"),
            failover_shards: obs.read_counter("cluster.failover.shard.count"),
            failover_rooms: obs.read_counter("cluster.failover.room.count"),
            failover_lossy_events: obs.read_counter("cluster.failover.lossy.count"),
            rooms: obs.read_gauge("cluster.rooms") as u64,
        }
    }
}

/// The sharded interaction cluster of ROADMAP item 1: a room directory
/// over N shards, heartbeat failure detection in virtual time, live room
/// migration, and zero-event-loss failover.
pub struct ClusterFrontend {
    shards: Vec<InteractionServer>,
    directory: RwLock<RoomDirectory>,
    health: Mutex<HealthTracker>,
    journals: Mutex<HashMap<RoomId, RoomJournal>>,
    next_room: AtomicU64,
    config: ClusterConfig,
    /// Time source for every frontend latency span and backoff sleep.
    /// Wall time in production; the simulator injects a virtual clock.
    clock: SharedClock,
    obs: Registry,
    lookups: Counter,
    retries: Counter,
    migrations: Counter,
    migration_lat: Histogram,
    failover_shards: Counter,
    failover_rooms: Counter,
    failover_lossy: Counter,
    failover_lat: Histogram,
    journal_compactions: Counter,
    journal_evicted: Counter,
    journal_compact_lossy: Counter,
    rooms_gauge: Gauge,
    shard_health_gauges: Vec<Gauge>,
}

impl std::fmt::Debug for ClusterFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ClusterFrontend(shards={})", self.shards.len())
    }
}

impl ClusterFrontend {
    /// Builds a cluster of `config.shards` shards over one shared durable
    /// store (every shard clones the `MediaDb` handle — the paper's
    /// database server is common infrastructure behind the reflectors).
    pub fn new(db: MediaDb, config: ClusterConfig) -> ClusterFrontend {
        ClusterFrontend::new_with_clock(db, config, WallClock::shared())
    }

    /// Builds a cluster with an explicit time source. The clock is shared
    /// with every shard server, so the whole cluster keeps one timeline —
    /// the simulator's virtual one, or production's wall clock.
    pub fn new_with_clock(
        db: MediaDb,
        config: ClusterConfig,
        clock: SharedClock,
    ) -> ClusterFrontend {
        assert!(config.shards > 0, "a cluster needs at least one shard");
        let obs = Registry::new();
        let mut faults = config.heartbeat_faults.clone();
        faults.resize(config.shards, FaultSpec::none());
        let health = HealthTracker::new(
            config.control_link,
            faults,
            config.heartbeat_interval_s,
            config.suspect_after_missed,
            config.dead_after_missed,
        );
        let shards = (0..config.shards)
            .map(|_| InteractionServer::new_with_clock(db.clone(), clock.clone()))
            .collect();
        let shard_health_gauges = (0..config.shards)
            .map(|s| obs.gauge(&format!("cluster.shard.{s}.health")))
            .collect();
        ClusterFrontend {
            shards,
            directory: RwLock::new(RoomDirectory::new(config.shards, config.vnodes_per_shard)),
            health: Mutex::new(health),
            journals: Mutex::new(HashMap::new()),
            next_room: AtomicU64::new(1),
            lookups: obs.counter("cluster.directory.lookup.count"),
            retries: obs.counter("cluster.route.retry.count"),
            migrations: obs.counter("cluster.migration.count"),
            migration_lat: obs.histogram("cluster.migration.us", bounds::LATENCY_US),
            failover_shards: obs.counter("cluster.failover.shard.count"),
            failover_rooms: obs.counter("cluster.failover.room.count"),
            failover_lossy: obs.counter("cluster.failover.lossy.count"),
            failover_lat: obs.histogram("cluster.failover.room.us", bounds::LATENCY_US),
            journal_compactions: obs.counter("cluster.journal.compact.count"),
            journal_evicted: obs.counter("cluster.journal.evicted.count"),
            journal_compact_lossy: obs.counter("cluster.journal.compact.lossy.count"),
            rooms_gauge: obs.gauge("cluster.rooms"),
            shard_health_gauges,
            obs,
            config,
            clock,
        }
    }

    /// Number of shards (dead ones included — slots are never reused).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to a shard's server (tests and experiments; normal
    /// traffic goes through the routed API).
    pub fn shard_server(&self, shard: ShardId) -> &InteractionServer {
        &self.shards[shard]
    }

    /// The failure detector's virtual clock.
    pub fn now_s(&self) -> f64 {
        self.health.lock().now_s()
    }

    /// A shard's current health, read from the gauge [`Self::advance`]
    /// publishes. Health is a function of tracker state and virtual time,
    /// and both change only inside `advance`, so the published value is
    /// exactly what the tracker would answer — without its lock. (The
    /// gauge is a relaxed atomic: it publishes no other data.)
    pub fn shard_health(&self, shard: ShardId) -> ShardHealth {
        ShardHealth::from_gauge(self.shard_health_gauges[shard].get())
    }

    /// Shards not declared dead.
    pub fn surviving_shards(&self) -> Vec<ShardId> {
        (0..self.shards.len())
            .filter(|&s| self.shard_health(s) != ShardHealth::Dead)
            .collect()
    }

    /// Advances the virtual clock, pumping heartbeats. Returns shards
    /// *newly* declared dead — the caller decides when to fail them over
    /// (see [`Self::fail_over_shard`]).
    pub fn advance(&self, dt_s: f64) -> Vec<ShardId> {
        let mut health = self.health.lock();
        let newly_dead = health.advance(dt_s);
        for (s, gauge) in self.shard_health_gauges.iter().enumerate() {
            gauge.set(health.health(s).as_gauge());
        }
        newly_dead
    }

    /// Advances the failure detector to the absolute virtual time `now_s`
    /// (a no-op when it is already there or past). The simulator's bridge:
    /// the detector's own interval clock and the simulator's [`SimClock`]
    /// stay one timeline, so heartbeat deadlines land at the same seeded
    /// instants every run.
    ///
    /// [`SimClock`]: rcmo_obs::SimClock
    pub fn advance_to(&self, now_s: f64) -> Vec<ShardId> {
        let dt = now_s - self.now_s();
        if dt <= 0.0 {
            return Vec::new();
        }
        self.advance(dt)
    }

    /// Kills a shard's process at the current virtual time (a seeded
    /// crash): it stops heartbeating and will be declared dead once the
    /// clock advances past the detection threshold.
    pub fn kill_shard(&self, shard: ShardId) {
        self.health.lock().crash(shard);
    }

    // ---- room lifecycle ----------------------------------------------

    /// Creates a room, placing it by consistent hash over the live ring.
    /// Room ids are allocated centrally: they are location-independent
    /// keys, unique across every shard.
    pub fn create_room(&self, user: &str, name: &str, document_id: u64) -> Result<RoomId> {
        self.create_room_with_config(user, name, document_id, RoomConfig::new())
    }

    /// Creates a room with an explicit [`RoomConfig`] (the lecture path:
    /// capacity, change-log horizon, and member queue bound decided up
    /// front), placed by consistent hash like [`Self::create_room`].
    pub fn create_room_with_config(
        &self,
        user: &str,
        name: &str,
        document_id: u64,
        config: RoomConfig,
    ) -> Result<RoomId> {
        let id = self.next_room.fetch_add(1, Ordering::Relaxed);
        let shard = {
            let mut dir = self.directory.write();
            let mut shard = dir.place_new(id);
            if self.shard_health(shard) == ShardHealth::Dead {
                // The ring still lists a dead-but-not-failed-over shard:
                // place on the first survivor instead.
                let Some(&fallback) = self.surviving_shards().first() else {
                    dir.remove_room(id);
                    return Err(ServerError::Invalid("no live shards left".into()));
                };
                dir.complete_migration(id, fallback);
                shard = fallback;
            }
            shard
        };
        let result = (|| {
            self.shards[shard].create_room_with_id(id, user, name, document_id, config)?;
            self.attach_journal(id, shard)
        })();
        match result {
            Ok(()) => {
                self.rooms_gauge.set(self.directory.read().len() as i64);
                Ok(id)
            }
            Err(e) => {
                self.directory.write().remove_room(id);
                Err(e)
            }
        }
    }

    /// Taps a room on its shard and installs (or resets) its journal with
    /// a fresh checkpoint. Control-plane: runs beside routed calls on the
    /// same room-lock discipline they use.
    fn attach_journal(&self, room: RoomId, shard: ShardId) -> Result<()> {
        let server = &self.shards[shard];
        let (tx, rx) = unbounded();
        server.tap_room(room, tx)?;
        let checkpoint = {
            let handle = server.room_handle(room)?;
            let mut guard = handle.lock();
            guard.export_state()
        };
        let mut journals = self.journals.lock();
        match journals.get_mut(&room) {
            Some(j) => j.reset(checkpoint, rx),
            None => {
                journals.insert(
                    room,
                    RoomJournal::new(checkpoint, rx, self.config.journal_tail_cap),
                );
            }
        }
        Ok(())
    }

    /// Replica maintenance: drains every room's replication stream and
    /// folds any journal tail that outgrew
    /// [`ClusterConfig::journal_tail_cap`] into its checkpoint. Returns
    /// the number of journals compacted. Run this periodically (the
    /// simulator does it once per epoch) — between runs, per-room replica
    /// memory is bounded by the cap instead of growing with room chatter.
    ///
    /// Counters: `cluster.journal.compact.count` (tails folded),
    /// `cluster.journal.evicted.count` (events evicted from tails),
    /// `cluster.journal.compact.lossy.count` (events folded without a
    /// replayable state effect — still safe, the room checkpoints those
    /// through [`Self::act`]'s barrier before they can reach a journal).
    pub fn maintain_replicas(&self) -> Result<usize> {
        let mut journals = self.journals.lock();
        let mut compacted = 0;
        for (&room, journal) in journals.iter_mut() {
            journal.drain();
            if let Some((evicted, lossy)) = journal.compact_if_over(room, self.clock.clone())? {
                self.journal_compactions.inc();
                self.journal_evicted.add(evicted);
                self.journal_compact_lossy.add(lossy);
                compacted += 1;
            }
        }
        Ok(compacted)
    }

    /// Refreshes a room's replica checkpoint (subsumes the journal tail).
    /// Periodic checkpointing bounds the replay work a failover does, and
    /// is required after a global document operation — the one event whose
    /// effect the journal cannot replay.
    pub fn checkpoint_room(&self, room: RoomId) -> Result<()> {
        let shard = self.shard_of(room)?;
        self.attach_journal(room, shard)
    }

    /// Drains a room's replication stream and reports the replica's reach:
    /// `(last replicated sequence number, drained tail length)`. A replica
    /// is *current* when the first component equals the room's latest
    /// sequence number (`r.change_log().last_seq()` through
    /// [`Self::read_room`]) — the invariant the zero-loss failover gate
    /// checks before killing a shard.
    pub fn replication_status(&self, room: RoomId) -> Result<(u64, usize)> {
        let mut journals = self.journals.lock();
        let journal = journals
            .get_mut(&room)
            .ok_or(ServerError::UnknownRoom(room))?;
        journal.drain();
        Ok((journal.last_replicated_seq(), journal.tail_len()))
    }

    /// Closes a room cluster-wide: shard, directory, and journal.
    pub fn close_room(&self, room: RoomId) -> Result<()> {
        let shard = self.shard_of(room)?;
        self.shards[shard].close_room(room)?;
        self.directory.write().remove_room(room);
        self.journals.lock().remove(&room);
        self.rooms_gauge.set(self.directory.read().len() as i64);
        Ok(())
    }

    /// Reaps member-less rooms on every surviving shard, returning the
    /// ids closed cluster-wide.
    pub fn reap_empty_rooms(&self) -> Vec<RoomId> {
        let mut all = Vec::new();
        for s in self.surviving_shards() {
            all.extend(self.shards[s].reap_empty_rooms());
        }
        let mut dir = self.directory.write();
        let mut journals = self.journals.lock();
        for &room in &all {
            dir.remove_room(room);
            journals.remove(&room);
        }
        self.rooms_gauge.set(dir.len() as i64);
        all
    }

    /// The shard currently serving `room`, if it is placed and settled.
    fn shard_of(&self, room: RoomId) -> Result<ShardId> {
        match self.directory.read().lookup(room) {
            Some(Placement::OnShard(s)) => Ok(s),
            Some(Placement::Migrating) => Err(ServerError::Migrating(room)),
            None => Err(ServerError::UnknownRoom(room)),
        }
    }

    // ---- data-plane routing ------------------------------------------

    /// Routes a call to the shard owning `room`, retrying with bounded
    /// exponential backoff across migration freezes, mid-handoff directory
    /// states, and suspect shards. Errors only after the retry budget:
    /// the last transient condition observed — a migration freeze that
    /// never lifted surfaces [`ServerError::Migrating`], an unhealthy
    /// shard [`ServerError::ShardUnavailable`] — or the routed call's own
    /// (non-transient) error.
    fn route<R>(&self, room: RoomId, f: impl Fn(&InteractionServer) -> Result<R>) -> Result<R> {
        let mut attempt: u32 = 0;
        // Why the budget ran out: the freshest transient condition seen.
        // Every match arm below either returns or assigns it, so it is
        // definitely initialised before the exhaustion check reads it.
        let mut last_transient: ServerError;
        loop {
            self.lookups.inc();
            let placement = self.directory.read().lookup(room);
            match placement {
                None => return Err(ServerError::UnknownRoom(room)),
                Some(Placement::Migrating) => {
                    // Transient: handoff in progress.
                    last_transient = ServerError::Migrating(room);
                }
                Some(Placement::OnShard(shard)) => {
                    if self.shard_health(shard) == ShardHealth::Alive {
                        match f(&self.shards[shard]) {
                            // The room left this shard between lookup and
                            // call (migration raced us): transient.
                            Err(e @ ServerError::UnknownRoom(r))
                                if r == room
                                    && self.directory.read().lookup(room)
                                        != Some(Placement::OnShard(shard)) =>
                            {
                                last_transient = e;
                            }
                            // Frozen for migration: transient.
                            Err(e @ ServerError::Migrating(_)) => last_transient = e,
                            Err(
                                e @ ServerError::JoinRejected {
                                    cause: JoinRejectCause::RoomFrozenForMigration,
                                    ..
                                },
                            ) => last_transient = e,
                            other => return other,
                        }
                    } else {
                        // Suspect or dead: hold the call and retry —
                        // failover or recovery resolves it.
                        last_transient = ServerError::ShardUnavailable { shard, room };
                    }
                }
            }
            if attempt >= self.config.route_retries {
                return Err(last_transient);
            }
            self.retries.inc();
            let backoff = (self.config.route_backoff_base_us << attempt.min(10))
                .min(self.config.route_backoff_cap_us);
            self.clock.sleep_us(backoff);
            attempt += 1;
        }
    }

    /// Joins a room as the role the [`JoinRequest`] asks for. Structured
    /// rejection: an unplaced room is [`JoinRejectCause::RoomNotFound`];
    /// an exhausted retry budget maps to
    /// [`JoinRejectCause::ShardUnavailable`] /
    /// [`JoinRejectCause::RoomFrozenForMigration`]; room capacity and a
    /// taken presenter seat surface [`JoinRejectCause::AtCapacity`] /
    /// [`JoinRejectCause::PresenterSeatTaken`] directly from the shard
    /// (both non-transient — the router never burns retries on them).
    pub fn join(&self, room: RoomId, req: &JoinRequest) -> Result<ClientConnection> {
        self.route(room, move |srv| srv.join(room, req))
            .map_err(|e| Self::join_cause(room, e))
    }

    /// Joins as a [`Role::Moderator`](crate::role::Role::Moderator) with
    /// default queue bounds — the symmetric-room shim over [`Self::join`].
    pub fn join_default(&self, room: RoomId, user: &str) -> Result<ClientConnection> {
        self.join(room, &JoinRequest::moderator(user))
    }

    /// Reconnects a client after a lost stream (or a failover): the shard
    /// now serving the room replays the missed tail or snapshots.
    pub fn resync(
        &self,
        room: RoomId,
        user: &str,
        last_seen_seq: u64,
    ) -> Result<(ClientConnection, Resync)> {
        self.route(room, move |srv| srv.resync(room, user, last_seen_seq))
            .map_err(|e| Self::join_cause(room, e))
    }

    fn join_cause(room: RoomId, e: ServerError) -> ServerError {
        let cause = match &e {
            ServerError::UnknownRoom(_) => JoinRejectCause::RoomNotFound,
            ServerError::ShardUnavailable { .. } => JoinRejectCause::ShardUnavailable,
            ServerError::Migrating(_) => JoinRejectCause::RoomFrozenForMigration,
            _ => return e,
        };
        ServerError::JoinRejected { room, cause }
    }

    /// Runs a query against one room's state on whichever shard serves
    /// it: [`InteractionServer::read_room`] behind the same routing —
    /// retries, directory lookups (`cluster.directory.lookup.count`) and
    /// errors — as every other routed call. `f` is `Fn`, not `FnOnce`,
    /// because a retried call runs it again on the room's new placement.
    ///
    /// `f` runs **under the room lock** on the shard: keep it short, and
    /// never call back into the frontend or a shard from inside it.
    /// Commands — anything that mutates a room, checks a capability, or
    /// needs a replica checkpoint barrier — stay typed methods.
    pub fn read_room<R>(&self, room: RoomId, f: impl Fn(&Room) -> Result<R>) -> Result<R> {
        self.route(room, |srv| srv.read_room(room, &f))
    }

    /// Leaves a room.
    pub fn leave(&self, room: RoomId, user: &str) -> Result<()> {
        self.route(room, move |srv| srv.leave(room, user))
    }

    /// Performs an action in a room. A *global* document operation is a
    /// checkpoint barrier: its [`crate::events::RoomEvent::OperationApplied`]
    /// event does not carry the operation form, so the journal could log
    /// but not replay it — refreshing the checkpoint right after captures
    /// the derived variable in the replica instead.
    pub fn act(&self, room: RoomId, user: &str, action: Action) -> Result<()> {
        let barrier = matches!(&action, Action::ApplyOperation { global: true, .. });
        self.route(room, move |srv| srv.act(room, user, action.clone()))?;
        if barrier {
            self.checkpoint_room(room)?;
        }
        Ok(())
    }

    /// Opens a stored image into the room as a shared working copy.
    /// Checkpoint barrier: an object open is not a room event (the pixels
    /// come from the shared durable store, not the wire), so the replica
    /// learns of the object through a fresh checkpoint.
    pub fn open_image(&self, room: RoomId, user: &str, object_id: u64) -> Result<()> {
        self.route(room, move |srv| srv.open_image(room, user, object_id))?;
        self.checkpoint_room(room)
    }

    /// Saves a shared object back to the database and closes it.
    /// Checkpoint barrier, like [`Self::open_image`]: the close leaves no
    /// room event behind.
    pub fn save_and_close_image(&self, room: RoomId, user: &str, object_id: u64) -> Result<()> {
        self.route(room, move |srv| {
            srv.save_and_close_image(room, user, object_id)
        })?;
        self.checkpoint_room(room)
    }

    /// Serves a stored image at a bandwidth-adapted layer depth through
    /// the room's object cache. Not a checkpoint barrier: a delivery
    /// mutates no room state (the cache and estimators rebuild wherever
    /// the room lands after a migration or failover).
    pub fn deliver_image(
        &self,
        room: RoomId,
        user: &str,
        object_id: u64,
    ) -> Result<crate::delivery::ImageDelivery> {
        self.route(room, move |srv| srv.deliver_image(room, user, object_id))
    }

    /// Reports one client-observed transfer into the member's bandwidth
    /// estimator on whichever shard serves the room.
    pub fn report_transfer(
        &self,
        room: RoomId,
        user: &str,
        bytes: u64,
        elapsed_s: f64,
    ) -> Result<()> {
        self.route(room, move |srv| {
            srv.report_transfer(room, user, bytes, elapsed_s)
        })
    }

    /// Warms the room's object cache from the CP-net prefetch planner.
    pub fn warm_room_cache(&self, room: RoomId, user: &str) -> Result<usize> {
        self.route(room, move |srv| srv.warm_room_cache(room, user))
    }

    /// Persists the room's document back to the database.
    pub fn save_document(&self, room: RoomId, user: &str) -> Result<()> {
        self.route(room, move |srv| srv.save_document(room, user))
    }

    /// Runs audio segmentation and shares the summary with the room.
    pub fn analyse_audio(
        &self,
        room: RoomId,
        user: &str,
        audio_id: u64,
    ) -> Result<Vec<rcmo_audio::Segment>> {
        self.route(room, move |srv| srv.analyse_audio(room, user, audio_id))
    }

    /// Registers a dynamic event trigger.
    pub fn add_trigger(
        &self,
        room: RoomId,
        user: &str,
        condition: TriggerCondition,
    ) -> Result<u64> {
        self.route(room, move |srv| {
            srv.add_trigger(room, user, condition.clone())
        })
    }

    /// Removes a trigger (owner only).
    pub fn remove_trigger(&self, room: RoomId, user: &str, trigger: u64) -> Result<()> {
        self.route(room, move |srv| srv.remove_trigger(room, user, trigger))
    }

    /// Reconfigures a room whole — capacity, change-log horizon, member
    /// queue bound — via [`crate::server::InteractionServer::configure_room`].
    /// `user` must hold [`crate::role::Capability::ConfigureRoom`] in the
    /// room. Replaces the old per-knob setters.
    pub fn configure_room(&self, room: RoomId, user: &str, config: RoomConfig) -> Result<()> {
        self.route(room, move |srv| {
            srv.configure_room(room, user, config.clone())
        })
    }

    /// Removes `target` from the room on `by`'s authority.
    pub fn evict(&self, room: RoomId, by: &str, target: &str) -> Result<()> {
        self.route(room, move |srv| srv.evict(room, by, target))
    }

    /// Hands the presenter seat from `from` to `to`.
    pub fn hand_off_presenter(&self, room: RoomId, from: &str, to: &str) -> Result<()> {
        self.route(room, move |srv| srv.hand_off_presenter(room, from, to))
    }

    /// Broadcasts an announcement into every room on every *surviving*
    /// shard — the cross-shard fan-out a single-server announcement never
    /// needed. Returns rooms reached; shards already declared dead are
    /// skipped (their rooms re-home on failover and hear the next one).
    pub fn broadcast_announcement(&self, user: &str, text: &str) -> Result<usize> {
        let mut reached = 0;
        for s in self.surviving_shards() {
            reached += self.shards[s].broadcast_announcement(user, text)?;
        }
        Ok(reached)
    }

    // ---- migration and failover --------------------------------------

    /// Live-migrates a room to `target`: freeze on the source, export the
    /// migration-grade state (snapshot + sessions + change-log tail),
    /// rebuild on the target, which takes over the live event log, thaw.
    /// The room's total order continues with gap-free sequence numbers;
    /// calls racing the handoff retry until the directory settles.
    pub fn migrate_room(&self, room: RoomId, target: ShardId) -> Result<()> {
        let t0 = self.clock.now_us();
        if self.shard_health(target) != ShardHealth::Alive {
            return Err(ServerError::Invalid(format!(
                "migration target shard {target} is not alive"
            )));
        }
        let source = {
            let mut dir = self.directory.write();
            match dir.lookup(room) {
                Some(Placement::OnShard(s)) if s == target => return Ok(()),
                Some(Placement::OnShard(s)) => {
                    dir.begin_migration(room);
                    s
                }
                Some(Placement::Migrating) => {
                    return Err(ServerError::Invalid(format!(
                        "room {room} is already migrating"
                    )))
                }
                None => return Err(ServerError::UnknownRoom(room)),
            }
        };
        let result = (|| {
            if self.shard_health(source) == ShardHealth::Dead {
                return Err(ServerError::ShardUnavailable {
                    shard: source,
                    room,
                });
            }
            let src = &self.shards[source];
            src.freeze_room_for_migration(room)?;
            let detached = src.detach_room(room)?;
            self.shards[target].adopt_room(detached)?;
            // The journal's new checkpoint is the adopted room's state —
            // it subsumes everything replicated so far.
            self.attach_journal(room, target)
        })();
        match result {
            Ok(()) => {
                self.directory.write().complete_migration(room, target);
                self.migrations.inc();
                self.migration_lat
                    .record(self.clock.now_us().saturating_sub(t0));
                Ok(())
            }
            Err(e) => {
                // Roll back what we can: thaw if the room is still on the
                // source, and restore its directory entry.
                let _ = self.shards[source].thaw_room(room);
                self.directory.write().complete_migration(room, source);
                Err(e)
            }
        }
    }

    /// Fails over every room of a declared-dead shard: each is rebuilt on
    /// a surviving shard from its replica (checkpoint + replicated
    /// change-log tail), continuing the same dense event order, and the
    /// directory re-pins it. Clients of those rooms resync (their streams
    /// died with the shard); in-flight calls have been retrying and settle
    /// onto the new placement. Returns `(room, new shard)` pairs.
    pub fn fail_over_shard(&self, dead: ShardId) -> Result<Vec<(RoomId, ShardId)>> {
        if self.shard_health(dead) != ShardHealth::Dead {
            return Err(ServerError::Invalid(format!(
                "shard {dead} is not declared dead; refusing to fail it over"
            )));
        }
        let survivors = self.surviving_shards();
        if survivors.is_empty() {
            return Err(ServerError::Invalid(
                "no surviving shards to fail over onto".to_string(),
            ));
        }
        // Dead shards stop contributing ring points; survivors inherit
        // its keyspace.
        let rooms = {
            let mut dir = self.directory.write();
            dir.remove_shard(dead);
            dir.rooms_on(dead)
        };
        let mut moved = Vec::new();
        for room in rooms {
            let t0 = self.clock.now_us();
            let rebuilt = {
                let mut journals = self.journals.lock();
                let Some(journal) = journals.get_mut(&room) else {
                    continue;
                };
                journal.drain();
                journal.rebuild_state(room, self.clock.clone())?
            };
            let (state, lossy) = rebuilt;
            let target = {
                let mut dir = self.directory.write();
                let candidate = dir.place_failover(room);
                // The ring only lists shards never declared dead, but a
                // not-yet-failed-over dead shard may still own points.
                if survivors.contains(&candidate) {
                    candidate
                } else {
                    let fallback = survivors[room as usize % survivors.len()];
                    dir.complete_migration(room, fallback);
                    fallback
                }
            };
            self.shards[target].adopt_room(crate::server::DetachedRoom {
                id: room,
                state,
                log: None,
            })?;
            self.attach_journal(room, target)?;
            self.failover_rooms.inc();
            self.failover_lossy.add(lossy);
            self.failover_lat
                .record(self.clock.now_us().saturating_sub(t0));
            moved.push((room, target));
        }
        self.failover_shards.inc();
        Ok(moved)
    }

    /// Advances virtual time and fails over any shard the detector newly
    /// declared dead — the convenience loop driver for experiments.
    pub fn advance_and_fail_over(&self, dt_s: f64) -> Result<Vec<(RoomId, ShardId)>> {
        let mut moved = Vec::new();
        for dead in self.advance(dt_s) {
            moved.extend(self.fail_over_shard(dead)?);
        }
        Ok(moved)
    }

    /// Snapshot of the frontend's metrics (directory, routing, migration,
    /// failover, and per-shard health gauges — `cluster.shard.N.health`:
    /// 0 alive, 1 suspect, 2 dead). Shard-internal room metrics live in
    /// each shard's own registry; see [`Self::shard_server`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }
}

impl Metrics for ClusterFrontend {
    type View = ClusterStats;

    fn obs(&self) -> &Registry {
        &self.obs
    }

    fn metrics(&self) -> ClusterStats {
        ClusterStats::from_registry(&self.obs)
    }
}
