//! The sharded interaction cluster: N interaction servers behind a room
//! directory, with heartbeat failure detection, live room migration, and
//! zero-event-loss failover (DESIGN.md §12).
//!
//! Layout:
//! - [`directory`]: consistent-hash ring and the room → shard placement
//!   table (rooms are location-independent; placement can change).
//! - [`health`]: per-shard heartbeat streams in virtual time, the
//!   Alive → Suspect → Dead classification, and the sticky death latch.
//! - [`journal`]: per-room standby replicas (checkpoint + replicated
//!   change-log tail) held by the frontend, outside any shard.
//! - [`frontend`]: the [`ClusterFrontend`] tying it together — routed
//!   client API with bounded-backoff retry, migration, failover, and
//!   cluster metrics. Queries go through [`ClusterFrontend::read_room`];
//!   commands stay typed.

pub mod directory;
pub mod frontend;
pub mod health;
mod journal;

#[cfg(test)]
mod tests;

pub use directory::{Placement, RoomDirectory, ShardId};
pub use frontend::{ClusterConfig, ClusterFrontend, ClusterStats};
pub use health::{HealthTracker, ShardHealth};
