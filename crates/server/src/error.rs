//! Error type of the interaction server.

use crate::role::{Capability, Role};
use std::fmt;

/// Why a join (or resync-as-join) was refused — the structured cause table
/// a client GUI can act on, modeled on the conferencing CAUSE codes of
/// commercial systems (retry later vs. give up vs. pick another room).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum JoinRejectCause {
    /// The room id resolved nowhere in the cluster.
    RoomNotFound,
    /// The room is frozen mid-migration; retry shortly — it thaws on the
    /// destination shard.
    RoomFrozenForMigration,
    /// The shard owning the room is unreachable (suspected or dead) and
    /// failover has not yet rebuilt the room.
    ShardUnavailable,
    /// The room's member capacity is reached.
    AtCapacity,
    /// The join requested [`Role::Presenter`] but another member already
    /// holds the seat. Join with a different role, or wait for a presenter
    /// handoff.
    PresenterSeatTaken,
}

impl JoinRejectCause {
    /// Human-readable cause text (the CAUSE-table string).
    pub fn as_str(self) -> &'static str {
        match self {
            JoinRejectCause::RoomNotFound => "room not found",
            JoinRejectCause::RoomFrozenForMigration => "room is migrating; retry shortly",
            JoinRejectCause::ShardUnavailable => "shard unavailable",
            JoinRejectCause::AtCapacity => "maximum number of room participants is reached",
            JoinRejectCause::PresenterSeatTaken => "the presenter seat is already taken",
        }
    }

    /// `true` if the same join is expected to succeed if simply retried
    /// after a short wait (migration freeze, shard failover in progress).
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            JoinRejectCause::RoomFrozenForMigration | JoinRejectCause::ShardUnavailable
        )
    }
}

impl fmt::Display for JoinRejectCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors raised by room and server operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// Bubbled up from the multimedia database.
    Media(rcmo_mediadb::MediaError),
    /// Bubbled up from the presentation module.
    Core(rcmo_core::CoreError),
    /// Bubbled up from the imaging module.
    Imaging(rcmo_imaging::ImagingError),
    /// A room id did not resolve.
    UnknownRoom(u64),
    /// The user is not a member of the room.
    NotInRoom {
        /// The user.
        user: String,
        /// The room.
        room: u64,
    },
    /// A shared object id did not resolve inside the room.
    UnknownObject(u64),
    /// The object is frozen by another partner.
    Frozen {
        /// The object.
        object: u64,
        /// Who holds the freeze.
        holder: String,
    },
    /// The user attempted to release a freeze they do not hold / freeze an
    /// already frozen object.
    FreezeConflict(String),
    /// The user is already in the room.
    AlreadyJoined(String),
    /// A join was refused for a structured, client-actionable cause.
    JoinRejected {
        /// The room the join targeted.
        room: u64,
        /// Why it was refused.
        cause: JoinRejectCause,
    },
    /// The room is frozen for a live migration; mutating calls should be
    /// retried with backoff — the room thaws on its destination shard.
    Migrating(u64),
    /// The shard that owns the room is unreachable (stalled, partitioned,
    /// or dead) and no failover has rebuilt the room yet.
    ShardUnavailable {
        /// The unreachable shard.
        shard: usize,
        /// The room whose call could not be routed.
        room: u64,
    },
    /// A mutating call was refused by the role capability table: the
    /// member's role does not grant the capability the entry point
    /// requires. Structured so a client GUI can grey the control out (or
    /// prompt for a role upgrade) instead of parsing a message string.
    ActionRejected {
        /// The capability the entry point requires.
        required_capability: Capability,
        /// The role the acting member actually holds.
        role: Role,
    },
    /// Anything else that indicates a caller bug.
    Invalid(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Media(e) => write!(f, "media db: {e}"),
            ServerError::Core(e) => write!(f, "presentation: {e}"),
            ServerError::Imaging(e) => write!(f, "imaging: {e}"),
            ServerError::UnknownRoom(r) => write!(f, "unknown room {r}"),
            ServerError::NotInRoom { user, room } => {
                write!(f, "user '{user}' is not in room {room}")
            }
            ServerError::UnknownObject(o) => write!(f, "unknown shared object {o}"),
            ServerError::Frozen { object, holder } => {
                write!(f, "object {object} is frozen by '{holder}'")
            }
            ServerError::FreezeConflict(m) => write!(f, "freeze conflict: {m}"),
            ServerError::AlreadyJoined(u) => write!(f, "user '{u}' already joined"),
            ServerError::JoinRejected { room, cause } => {
                write!(f, "join to room {room} rejected: {cause}")
            }
            ServerError::Migrating(r) => write!(f, "room {r} is frozen for migration"),
            ServerError::ShardUnavailable { shard, room } => {
                write!(f, "shard {shard} owning room {room} is unavailable")
            }
            ServerError::ActionRejected {
                required_capability,
                role,
            } => {
                write!(
                    f,
                    "action requires the '{required_capability}' capability, \
                     which the '{role}' role does not grant"
                )
            }
            ServerError::Invalid(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Media(e) => Some(e),
            ServerError::Core(e) => Some(e),
            ServerError::Imaging(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rcmo_mediadb::MediaError> for ServerError {
    fn from(e: rcmo_mediadb::MediaError) -> Self {
        ServerError::Media(e)
    }
}

impl From<rcmo_core::CoreError> for ServerError {
    fn from(e: rcmo_core::CoreError) -> Self {
        ServerError::Core(e)
    }
}

impl From<rcmo_imaging::ImagingError> for ServerError {
    fn from(e: rcmo_imaging::ImagingError) -> Self {
        ServerError::Imaging(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ServerError>;
