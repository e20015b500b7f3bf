//! The room's event log, read through one cursor per member: the room
//! appends each event **once** to its [`ChangeLog`], as the
//! `Arc<SequencedEvent>` every reader shares, and each member's
//! [`EventStream`] reads that one log at its own position.
//!
//! - **Eviction.** After each append one pass over the members' cursors,
//!   in join order, reports each member whose unread count had reached its
//!   bound (a slow consumer) or whose stream was dropped (a dead
//!   connection), at every append until the room removes them.
//! - **Detached streams.** Removing a member moves its unread events, at
//!   most its bound, into its stream's own buffer; the stream yields them,
//!   then `None`, and never pins the log.
//! - **Retention.** The log keeps the newest `capacity` events for replay
//!   and whatever the slowest cursor has yet to read.
//! - **Locking.** Room lock → log lock. [`EventStream`]'s methods and
//!   `Drop` take only the log lock, never the room's.

use crate::error::{Result, ServerError};
use crate::events::RoomEvent;
use crate::resync::SequencedEvent;
use parking_lot::Mutex;
use std::collections::{vec_deque, VecDeque};
use std::sync::Arc;

/// Default bound of a member's unread events ([`RoomConfig`](crate::room::RoomConfig)):
/// generous, to catch members that stopped reading, not momentary bursts.
pub const DEFAULT_MEMBER_QUEUE_BOUND: usize = 65_536;

/// A room's log, shared by the room and its members' streams.
pub(crate) type SharedLog = Arc<Mutex<ChangeLog>>;

/// Why an append reported a member: `Full`, its bound's worth was unread
/// (a slow consumer), or `Dropped`, its stream was (a dead connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lag {
    Full,
    Dropped,
}

#[derive(Debug)]
enum Reader {
    /// A member's cursor: the next sequence number it reads.
    Cursor {
        next: u64,
        bound: u64,
    },
    /// Dropped while its member was in the room; `true` if its bound's
    /// worth was unread then.
    Dropped(bool),
    /// Its member was removed while the stream was held: the unread events.
    Detached(VecDeque<Arc<SequencedEvent>>),
    Free,
}

/// The room's change buffer — PAPER.md §1.2's "large memory buffer which
/// maintains the changes" — and its members' cursors. Compacted events
/// live on in the room state ([`RoomSnapshot`](crate::resync::RoomSnapshot)).
#[derive(Debug)]
pub struct ChangeLog {
    /// Dense, ending at `next_seq - 1`; holds every seq from `horizon` on.
    events: VecDeque<Arc<SequencedEvent>>,
    capacity: usize,
    next_seq: u64,
    /// The oldest sequence number replay may return.
    horizon: u64,
    readers: Vec<Reader>,
}

impl ChangeLog {
    /// An empty log that replays at most `capacity` events.
    pub fn new(capacity: usize) -> ChangeLog {
        ChangeLog {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            next_seq: 1,
            horizon: 1,
            readers: Vec::new(),
        }
    }

    /// Rebuilds a log from a retained tail (failover); a tail that is not
    /// dense or does not end at `last_seq` is [`ServerError::Invalid`].
    pub fn restore(capacity: usize, last_seq: u64, tail: Vec<Arc<SequencedEvent>>) -> Result<Self> {
        let ends_right = tail.last().is_none_or(|e| e.seq == last_seq);
        let Some(next_seq) = last_seq.checked_add(1).filter(|_| ends_right) else {
            let problem = format!("change-log tail does not end at seq {last_seq}");
            return Err(ServerError::Invalid(problem));
        };
        let mut log = ChangeLog::new(capacity);
        log.next_seq = tail.first().map_or(next_seq, |e| e.seq);
        log.horizon = log.next_seq;
        for event in tail {
            log.push_sequenced(event)?;
        }
        Ok(log)
    }

    /// Appends an event with the next sequence number; returns its handle.
    pub fn push(&mut self, event: RoomEvent) -> Arc<SequencedEvent> {
        let seq = self.next_seq;
        let sequenced = Arc::new(SequencedEvent { seq, event });
        self.publish(sequenced.clone(), 0..self.readers.len(), &mut Vec::new());
        sequenced
    }

    /// Appends an event sequenced elsewhere (the replicated journal); one
    /// that does not continue the dense order is [`ServerError::Invalid`].
    pub fn push_sequenced(&mut self, event: Arc<SequencedEvent>) -> Result<()> {
        if event.seq != self.next_seq {
            let problem = format!("event {} breaks the order at {}", event.seq, self.next_seq);
            return Err(ServerError::Invalid(problem));
        }
        self.publish(event, 0..self.readers.len(), &mut Vec::new());
        Ok(())
    }

    /// The room's append of `event`, numbered `last_seq() + 1`: one pass
    /// over the cursors in `slots` (its members, in join order) adds to
    /// `lagging` each one whose bound's worth is unread or stream dropped.
    pub(crate) fn publish(
        &mut self,
        event: Arc<SequencedEvent>,
        slots: impl Iterator<Item = usize>,
        lagging: &mut Vec<(usize, Lag)>,
    ) {
        let seq = event.seq;
        debug_assert_eq!(seq, self.next_seq, "appends continue the dense order");
        self.events.push_back(event);
        self.next_seq += 1;
        self.set_capacity(self.capacity); // raises the horizon
        let mut oldest_unread = seq;
        for slot in slots {
            match self.readers[slot] {
                Reader::Cursor { next, bound } => {
                    oldest_unread = oldest_unread.min(next);
                    if seq - next >= bound {
                        lagging.push((slot, Lag::Full));
                    }
                }
                Reader::Dropped(true) => lagging.push((slot, Lag::Full)),
                Reader::Dropped(false) => lagging.push((slot, Lag::Dropped)),
                Reader::Detached(_) | Reader::Free => {}
            }
        }
        let keep = self.horizon.min(oldest_unread);
        while self.events.front().is_some_and(|e| e.seq < keep) {
            self.events.pop_front();
        }
    }

    fn held_from(&self, seq: u64) -> vec_deque::Iter<'_, Arc<SequencedEvent>> {
        let front = self.events.front().map_or(seq, |e| e.seq);
        let skip = seq.saturating_sub(front).min(self.events.len() as u64);
        self.events.range(skip as usize..)
    }

    /// Number of replayable events (≤ capacity).
    pub fn len(&self) -> usize {
        (self.next_seq - self.horizon) as usize
    }

    /// `true` if no event is replayable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The replay horizon, in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bounds the replay horizon; shrinking it compacts at once.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        let start = self.next_seq.saturating_sub(self.capacity as u64);
        self.horizon = self.horizon.max(start);
    }

    /// Sequence number of the latest logged event (0 before the first).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Sequence number of the oldest replayable event, if any.
    pub fn first_retained_seq(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.horizon)
    }

    /// The replayable events with `seq > last_seen`, oldest first — or
    /// `None` if one was compacted already: the caller must snapshot.
    pub fn events_since(&self, last_seen: u64) -> Option<Vec<Arc<SequencedEvent>>> {
        let replayable = last_seen >= self.last_seq() || last_seen + 1 >= self.horizon;
        replayable.then(|| self.retained_from(last_seen + 1).cloned().collect())
    }

    /// Replayable events with `seq >= from`, oldest first.
    pub(crate) fn retained_from(&self, from: u64) -> vec_deque::Iter<'_, Arc<SequencedEvent>> {
        self.held_from(from.max(self.horizon))
    }

    /// All replayable events, oldest first.
    pub fn retained(&self) -> vec_deque::Iter<'_, Arc<SequencedEvent>> {
        self.held_from(self.horizon)
    }

    /// Detaches a removed member's cursor into its stream's own buffer.
    pub(crate) fn detach(&mut self, slot: usize) {
        self.readers[slot] = match self.readers[slot] {
            Reader::Cursor { next, bound } => {
                Reader::Detached(self.held_from(next).take(bound as usize).cloned().collect())
            }
            _ => Reader::Free,
        };
    }
}

/// A member's cursor on the room's [`ChangeLog`], the `events` field of a
/// [`ClientConnection`](crate::server::ClientConnection): yields the log's
/// own shared events, oldest first (see the module docs).
#[derive(Debug)]
pub struct EventStream {
    log: SharedLog,
    pub(crate) slot: usize,
}

impl EventStream {
    /// A stream reading every event appended to `log` from now on, with
    /// at most `bound` (≥ 1) unread.
    pub(crate) fn open(log: &SharedLog, bound: usize) -> EventStream {
        let mut guard = log.lock();
        let free = guard.readers.iter().position(|r| matches!(r, Reader::Free));
        let slot = free.unwrap_or(guard.readers.len());
        if slot == guard.readers.len() {
            guard.readers.push(Reader::Free);
        }
        let (next, bound) = (guard.next_seq, bound.max(1) as u64);
        guard.readers[slot] = Reader::Cursor { next, bound };
        let log = log.clone();
        EventStream { log, slot }
    }

    /// A non-blocking receive: `None` when nothing is unread right now.
    pub fn try_recv(&self) -> Option<Arc<SequencedEvent>> {
        let mut guard = self.log.lock();
        let log = &mut *guard;
        match &mut log.readers[self.slot] {
            Reader::Cursor { next, .. } => {
                let i = next.checked_sub(log.events.front()?.seq)?;
                let event = log.events.get(i as usize)?.clone();
                *next += 1;
                Some(event)
            }
            Reader::Detached(unread) => unread.pop_front(),
            Reader::Dropped(_) | Reader::Free => None,
        }
    }

    /// Drains everything currently unread, oldest first, without blocking.
    pub fn try_iter(&self) -> impl Iterator<Item = Arc<SequencedEvent>> + '_ {
        std::iter::from_fn(move || self.try_recv())
    }

    /// Events not yet received.
    pub fn len(&self) -> usize {
        let log = self.log.lock();
        match &log.readers[self.slot] {
            Reader::Cursor { next, .. } => (log.next_seq - next) as usize,
            Reader::Detached(unread) => unread.len(),
            Reader::Dropped(_) | Reader::Free => 0,
        }
    }

    /// `true` if nothing is unread right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for EventStream {
    fn drop(&mut self) {
        let mut log = self.log.lock();
        log.readers[self.slot] = match log.readers[self.slot] {
            Reader::Cursor { next, bound } => Reader::Dropped(log.next_seq - next >= bound),
            _ => Reader::Free,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> Arc<SequencedEvent> {
        let event = RoomEvent::Chat {
            user: "u".into(),
            text: format!("m{seq}"),
        };
        Arc::new(SequencedEvent { seq, event })
    }

    fn shared(capacity: usize) -> SharedLog {
        Arc::new(Mutex::new(ChangeLog::new(capacity)))
    }

    /// Appends one event read by the cursors of `streams`; returns the
    /// slots reported lagging.
    fn publish(log: &SharedLog, streams: &[&EventStream]) -> Vec<(usize, Lag)> {
        let mut lagging = Vec::new();
        let mut log = log.lock();
        let seq = log.last_seq() + 1;
        log.publish(ev(seq), streams.iter().map(|s| s.slot), &mut lagging);
        lagging
    }

    #[test]
    fn bounded_send_fails_full_then_recovers_after_drain() {
        let log = shared(8);
        let s = EventStream::open(&log, 2);
        assert!(publish(&log, &[&s]).is_empty());
        assert!(publish(&log, &[&s]).is_empty());
        assert_eq!(publish(&log, &[&s]), vec![(s.slot, Lag::Full)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.try_recv().unwrap().seq, 1);
        assert_eq!(s.try_recv().unwrap().seq, 2);
        assert!(publish(&log, &[&s]).is_empty());
        let rest: Vec<u64> = s.try_iter().map(|e| e.seq).collect();
        assert_eq!(rest, vec![3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn dropped_stream_reports_disconnected() {
        let log = shared(8);
        let s = EventStream::open(&log, 4);
        let slot = s.slot;
        drop(s);
        let mut lagging = Vec::new();
        log.lock().publish(ev(1), [slot].into_iter(), &mut lagging);
        assert_eq!(lagging, vec![(slot, Lag::Dropped)]);
        // The slot is reused once the room detaches it.
        log.lock().detach(slot);
        assert_eq!(EventStream::open(&log, 4).slot, slot);
    }

    #[test]
    fn shared_payload_is_not_deep_copied_on_send() {
        // Three cursors read the *same* allocation the log holds.
        let log = shared(8);
        let streams: Vec<_> = (0..3).map(|_| EventStream::open(&log, 8)).collect();
        let refs: Vec<&EventStream> = streams.iter().collect();
        publish(&log, &refs);
        let logged = log.lock().retained().next().unwrap().clone();
        // The log's slot + our handle.
        assert_eq!(Arc::strong_count(&logged), 2);
        for s in &streams {
            assert!(Arc::ptr_eq(&s.try_recv().unwrap(), &logged));
        }
        assert_eq!(Arc::strong_count(&logged), 2);
    }

    #[test]
    fn zero_bound_is_clamped() {
        let log = shared(8);
        let s = EventStream::open(&log, 0);
        assert!(publish(&log, &[&s]).is_empty());
        assert_eq!(publish(&log, &[&s]), vec![(s.slot, Lag::Full)]);
    }

    #[test]
    fn cursors_hold_unread_events_past_the_horizon_and_detach_into_a_buffer() {
        let log = shared(2);
        let slow = EventStream::open(&log, 8);
        for _ in 1..=6 {
            publish(&log, &[&slow]);
        }
        {
            let log = log.lock();
            assert_eq!(log.len(), 2);
            assert_eq!(log.first_retained_seq(), Some(5));
            assert!(log.events_since(3).is_none());
        }
        assert_eq!(slow.try_recv().unwrap().seq, 1);
        log.lock().detach(slow.slot);
        // Nothing pins the log any more: the next append compacts it.
        publish(&log, &[]);
        assert_eq!(log.lock().events.len(), 2);
        assert_eq!(slow.len(), 5);
        let rest: Vec<u64> = slow.try_iter().map(|e| e.seq).collect();
        assert_eq!(rest, vec![2, 3, 4, 5, 6]);
        assert!(slow.try_recv().is_none());
    }

    #[test]
    fn growing_the_horizon_does_not_expose_events_held_for_a_cursor() {
        let log = shared(2);
        let slow = EventStream::open(&log, 8);
        for _ in 1..=6 {
            publish(&log, &[&slow]);
        }
        log.lock().set_capacity(8);
        assert_eq!(log.lock().first_retained_seq(), Some(5));
        assert_eq!(slow.len(), 6);
    }

    #[test]
    fn restore_and_replicated_append_reject_a_broken_order() {
        assert!(ChangeLog::restore(8, 3, vec![ev(1), ev(3)]).is_err());
        assert!(ChangeLog::restore(8, 4, vec![ev(2), ev(3)]).is_err());
        let mut log = ChangeLog::restore(2, 3, vec![ev(1), ev(2), ev(3)]).unwrap();
        assert_eq!(log.first_retained_seq(), Some(2));
        assert!(matches!(
            log.push_sequenced(ev(5)),
            Err(ServerError::Invalid(_))
        ));
        log.push_sequenced(ev(4)).unwrap();
        assert_eq!(log.last_seq(), 4);
        assert!(ChangeLog::restore(8, u64::MAX, Vec::new()).is_err());
        let empty = ChangeLog::restore(8, 7, Vec::new()).unwrap();
        assert_eq!((empty.last_seq(), empty.len()), (7, 0));
    }
}
