//! Client resynchronisation: every room event carries a dense sequence
//! number, so a reconnecting client says how far it got. Within the
//! [`ChangeLog`](crate::fanout::ChangeLog)'s replay horizon it replays the
//! missed tail and sees the *identical total event order* as everyone
//! else; beyond it, it receives a [`RoomSnapshot`] — the room state is the
//! fold of every compacted event, so compaction loses only granularity.

use crate::events::RoomEvent;
use crate::room::SharedObjectId;
use std::sync::Arc;

/// A room event tagged with its position in the room's total order.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedEvent {
    /// Position in the room's total event order (1-based, dense).
    pub seq: u64,
    /// The event.
    pub event: RoomEvent,
}

/// Default replay horizon of a room's change log, in events.
pub const DEFAULT_CHANGE_LOG_CAPACITY: usize = 1024;

/// A full-state catch-up for a client beyond the replay horizon. The room
/// *is* the fold of its event history, so shipping its state is equivalent
/// to replaying every compacted event.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomSnapshot {
    /// The total order position this snapshot reflects: the client is
    /// caught up through `seq` after applying it.
    pub seq: u64,
    /// The shared document, serialised.
    pub document: Vec<u8>,
    /// Every open shared object (id, serialised annotated image).
    pub objects: Vec<(SharedObjectId, Vec<u8>)>,
    /// Current freezes (object, holder).
    pub freezes: Vec<(SharedObjectId, String)>,
    /// Current members.
    pub members: Vec<String>,
}

/// What a reconnecting client receives from `resync`.
#[derive(Debug, Clone, PartialEq)]
pub enum Resync {
    /// The missed tail, oldest first — apply in order after `last_seen`.
    /// Each entry is the change log's own shared event, not a copy.
    Events(Vec<Arc<SequencedEvent>>),
    /// Too far behind: replace local state with the snapshot.
    Snapshot(RoomSnapshot),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::ChangeLog;

    fn chat(n: u64) -> RoomEvent {
        RoomEvent::Chat {
            user: "u".into(),
            text: format!("m{n}"),
        }
    }

    #[test]
    fn sequence_numbers_are_dense_from_one() {
        let mut log = ChangeLog::new(4);
        for i in 1..=10u64 {
            assert_eq!(log.push(chat(i)).seq, i);
        }
        assert_eq!(log.last_seq(), 10);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_tail() {
        let mut log = ChangeLog::new(3);
        for i in 1..=100u64 {
            log.push(chat(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.first_retained_seq(), Some(98));
        let seqs: Vec<u64> = log.retained().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![98, 99, 100]);
    }

    #[test]
    fn events_since_replays_exactly_the_missed_tail() {
        let mut log = ChangeLog::new(10);
        for i in 1..=6u64 {
            log.push(chat(i));
        }
        let tail = log.events_since(4).expect("within horizon");
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5, 6]);
        assert!(log.events_since(6).expect("caught up").is_empty());
        // Beyond the end is also "caught up" (idempotent resync).
        assert!(log.events_since(99).expect("ahead").is_empty());
    }

    #[test]
    fn horizon_forces_snapshot() {
        let mut log = ChangeLog::new(3);
        for i in 1..=10u64 {
            log.push(chat(i));
        }
        // first retained is 8: last_seen 6 means event 7 is gone.
        assert!(log.events_since(6).is_none());
        // last_seen 7 still works: the first missed event is 8.
        assert_eq!(log.events_since(7).expect("edge").len(), 3);
    }

    #[test]
    fn retained_from_starts_at_the_requested_seq() {
        let mut log = ChangeLog::new(4);
        let from = |log: &ChangeLog, seq| log.retained_from(seq).map(|e| e.seq).collect::<Vec<_>>();
        assert!(from(&log, 1).is_empty());
        for i in 1..=10u64 {
            log.push(chat(i));
        }
        // Retained: 7..=10.
        assert_eq!(from(&log, 0), vec![7, 8, 9, 10]);
        assert_eq!(from(&log, 7), vec![7, 8, 9, 10]);
        assert_eq!(from(&log, 9), vec![9, 10]);
        assert_eq!(from(&log, 10), vec![10]);
        assert!(from(&log, 11).is_empty());
        assert!(from(&log, u64::MAX).is_empty());
    }

    #[test]
    fn empty_log_replays_nothing() {
        let log = ChangeLog::new(3);
        assert!(log.events_since(0).expect("empty").is_empty());
        assert_eq!(log.last_seq(), 0);
        assert!(log.is_empty());
    }
}
