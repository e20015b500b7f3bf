//! Client resynchronisation: sequence-numbered events, the bounded change
//! log, and snapshot-based catch-up.
//!
//! Every room event carries a monotonically increasing sequence number, so
//! a client that loses its connection can tell the server exactly how far
//! it got. The room keeps a bounded ring buffer of recent events; a
//! reconnecting client within the buffer horizon replays the missed tail
//! and ends up observing the *identical total event order* as everyone
//! else. A client that fell behind the horizon instead receives a
//! [`RoomSnapshot`] — the room state itself is the materialised fold of
//! every evicted event, so compaction loses no information, only replay
//! granularity.

use crate::events::RoomEvent;
use crate::room::SharedObjectId;
use std::collections::VecDeque;
use std::sync::Arc;

/// A room event tagged with its position in the room's total order.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedEvent {
    /// Position in the room's total event order (1-based, dense).
    pub seq: u64,
    /// The event.
    pub event: RoomEvent,
}

/// Default ring capacity of a room's change log.
pub const DEFAULT_CHANGE_LOG_CAPACITY: usize = 1024;

/// The room's "large memory buffer which maintains the changes made on the
/// changed objects" — bounded: memory is O(capacity) regardless of session
/// length. Old events are compacted away; the live room state stands in
/// for them (see [`RoomSnapshot`]).
///
/// Each event is built once, into an `Arc`, when it is appended; the ring,
/// every member queue, the replication tap, a resync replay and an
/// exported [`RoomState`](crate::room::RoomState) tail all share that one
/// allocation.
#[derive(Debug)]
pub struct ChangeLog {
    events: VecDeque<Arc<SequencedEvent>>,
    capacity: usize,
    /// Sequence number the next appended event receives.
    next_seq: u64,
}

impl ChangeLog {
    /// An empty log that retains at most `capacity` events.
    pub fn new(capacity: usize) -> ChangeLog {
        ChangeLog {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            next_seq: 1,
        }
    }

    /// Rebuilds a log from a retained tail — the migration/failover path:
    /// the destination room continues the *same* total order, so the next
    /// appended event gets `last_seq + 1` and a resyncing client can still
    /// replay any tail the source could. `tail` must be dense, ascending,
    /// and end at `last_seq` (it may be empty for a brand-new room).
    pub fn restore(capacity: usize, last_seq: u64, tail: Vec<Arc<SequencedEvent>>) -> ChangeLog {
        assert!(
            tail.windows(2).all(|w| w[1].seq == w[0].seq + 1),
            "restored tail must be dense"
        );
        assert!(
            tail.last().map(|e| e.seq == last_seq).unwrap_or(true),
            "restored tail must end at last_seq"
        );
        let capacity = capacity.max(1);
        let mut events: VecDeque<Arc<SequencedEvent>> = tail.into();
        while events.len() > capacity {
            events.pop_front();
        }
        ChangeLog {
            events,
            capacity,
            next_seq: last_seq + 1,
        }
    }

    /// Appends an already-sequenced event verbatim — the replicated-journal
    /// replay path, where the sequence number was assigned by the room
    /// that originally broadcast the event. The order must stay dense.
    pub fn push_sequenced(&mut self, event: Arc<SequencedEvent>) {
        assert_eq!(
            event.seq, self.next_seq,
            "replicated event breaks the dense total order"
        );
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// Appends an event, assigning it the next sequence number, and returns
    /// the shared handle the ring now holds. Evicts the oldest event when
    /// full.
    pub fn push(&mut self, event: RoomEvent) -> Arc<SequencedEvent> {
        let sequenced = Arc::new(SequencedEvent {
            seq: self.next_seq,
            event,
        });
        self.push_sequenced(sequenced.clone());
        sequenced
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was ever logged or everything was evicted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bounds the ring, evicting the oldest events if it shrinks.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.events.len() > self.capacity {
            self.events.pop_front();
        }
    }

    /// Sequence number of the latest logged event (0 before the first).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Sequence number of the oldest *retained* event, if any.
    pub fn first_retained_seq(&self) -> Option<u64> {
        self.events.front().map(|e| e.seq)
    }

    /// The retained events with `seq > last_seen`, oldest first — or
    /// `None` if `last_seen` is beyond the horizon (events after it were
    /// already evicted), in which case the caller must snapshot.
    pub fn events_since(&self, last_seen: u64) -> Option<Vec<Arc<SequencedEvent>>> {
        if last_seen >= self.last_seq() {
            return Some(Vec::new());
        }
        match self.first_retained_seq() {
            // The first missed event (last_seen + 1) must still be retained.
            Some(first) if last_seen + 1 >= first => {
                Some(self.retained_from(last_seen + 1).cloned().collect())
            }
            _ => None,
        }
    }

    /// Iterates retained events with `seq >= from`, oldest first. The ring
    /// is dense, so the first match sits at index `from − first retained
    /// seq`: the scan starts there rather than filtering the whole ring.
    pub(crate) fn retained_from(&self, from: u64) -> impl Iterator<Item = &Arc<SequencedEvent>> {
        let skip = self
            .first_retained_seq()
            .map_or(0, |first| from.saturating_sub(first));
        self.events
            .range(skip.min(self.events.len() as u64) as usize..)
    }

    /// All retained events, oldest first.
    pub fn retained(&self) -> impl Iterator<Item = &Arc<SequencedEvent>> {
        self.events.iter()
    }
}

/// A full-state catch-up for a client beyond the replay horizon. The room
/// *is* the fold of its event history, so shipping its state is equivalent
/// to replaying every evicted event.
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
