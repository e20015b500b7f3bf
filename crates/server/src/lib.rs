//! # rcmo-server — the interaction server
//!
//! The middle tier of the paper's Figure 1: "responsible for the
//! cooperative work in the system ... keeps track of all objects in and out
//! of shared rooms. If a client makes a change on a multimedia object, that
//! change is immediately propagated to other clients in the room. The
//! interaction server also calls the database server to fetch and store
//! objects ... and keeps track of user actions and transfers them to the
//! presentation module."
//!
//! * [`events`] — the action/event/delta model. Deltas are *hierarchical*:
//!   only the changed part of an object (one annotation element, one form
//!   choice) crosses the wire, mirroring "the hierarchical structure of the
//!   object permits sending only the relevant parts of the object".
//! * [`room`] — shared rooms: membership, the in-room object registry, the
//!   change buffer, freeze/release, per-viewer presentation sessions.
//! * [`resync`] — fault tolerance: sequence-numbered events and
//!   snapshot-based client resynchronisation after a dropped connection.
//! * [`role`] — conference roles ([`Role::Presenter`] /
//!   [`Role::Moderator`] / [`Role::Viewer`]) and the per-role capability
//!   table every mutating entry point checks — the asymmetric lecture
//!   room layered over the paper's symmetric conference.
//! * [`fanout`] — the room's event log: each event is appended once, as a
//!   shared `Arc` payload, and every member's stream reads the one log
//!   through its own bounded cursor; slow consumers are evicted and
//!   re-enter via snapshot resync.
//! * [`delivery`] — bandwidth-adaptive layered delivery: per-member EWMA
//!   bandwidth estimates drive a [`delivery::DeliveryPolicy`] that picks
//!   an LIC1 layer depth from each object's *real* byte ladder, served
//!   out of a room-level [`delivery::ObjectCache`] so N viewers of one CT
//!   image cost one storage read.
//! * [`server`] — the [`server::InteractionServer`]
//!   facade gluing rooms, the presentation engine, and the multimedia
//!   database together. Queries go through
//!   [`server::InteractionServer::read_room`], a closure over
//!   [`room::Room`]'s `&self` API run under the room lock; commands
//!   (mutations and capability-checked calls) stay typed methods.
//! * [`cluster`] — the sharded interaction cluster: a consistent-hash
//!   room directory over N `InteractionServer` shards, heartbeat-based
//!   failure detection in virtual time, live room migration
//!   (freeze → snapshot → rebuild → thaw with gap-free sequence
//!   numbers), and zero-loss failover from the replication journal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod delivery;
pub mod error;
pub mod events;
pub mod fanout;
pub mod resync;
pub mod role;
pub mod room;
pub mod server;

pub use cluster::{ClusterConfig, ClusterFrontend, ClusterStats, ShardHealth, ShardId};
pub use delivery::{DeliveryConfig, DeliveryPolicy, DeliveryState, ImageDelivery, ObjectCache};
pub use error::{JoinRejectCause, ServerError};
pub use events::{Action, Delta, RoomEvent};
pub use fanout::{ChangeLog, EventStream, DEFAULT_MEMBER_QUEUE_BOUND};
pub use resync::{Resync, RoomSnapshot, SequencedEvent};
pub use role::{Capability, JoinRequest, Role};
pub use room::{RoomConfig, RoomId, RoomState, RoomStats, SharedObjectId};
pub use server::{ClientConnection, DetachedRoom, InteractionServer, RoomHandle};
