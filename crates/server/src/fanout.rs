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
//!   then `None`, and never pins the log. A reader slot whose stream is
//!   dropped and whose member is gone goes on a free stack, which the next
//!   join pops.
//! - **Retention.** The log keeps the newest `capacity` events for replay
//!   and whatever the slowest cursor has yet to read.
//! - **Locking.** Room lock → log lock. [`EventStream`]'s methods and
//!   `Drop` take only the log lock, never the room's. A caught-up stream
//!   polls without it: the log's end (`next_seq`) sits in an atomic beside
//!   the lock, stored by every [`LogGuard`] before it releases the lock,
//!   and each stream remembers the end it last read up to; when the two
//!   are equal, `try_recv`, `len` and `is_empty` answer with one load.
//!   Only the stream moves its own cursor, so while it is a cursor the
//!   remembered end is its next sequence number; a detached stream holds
//!   events only if its cursor was behind the end when it was detached,
//!   and the end only grows, so the shortcut never hides an event. Every
//!   event read still takes the lock.

use crate::error::{Result, ServerError};
use crate::events::RoomEvent;
use crate::resync::SequencedEvent;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{vec_deque, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default bound of a member's unread events ([`RoomConfig`](crate::room::RoomConfig)):
/// generous, to catch members that stopped reading, not momentary bursts.
pub const DEFAULT_MEMBER_QUEUE_BOUND: usize = 65_536;

/// A room's log, shared by the room and its members' streams.
pub(crate) type SharedLog = Arc<LockedLog>;

/// A [`ChangeLog`] behind its lock, and its end readable without it.
#[derive(Debug)]
pub(crate) struct LockedLog {
    /// The log's `next_seq` when its lock was last released.
    end: AtomicU64,
    log: Mutex<ChangeLog>,
}

impl LockedLog {
    pub(crate) fn new(log: ChangeLog) -> SharedLog {
        let end = AtomicU64::new(log.next_seq);
        Arc::new(LockedLog {
            end,
            log: Mutex::new(log),
        })
    }

    pub(crate) fn lock(&self) -> LogGuard<'_> {
        LogGuard {
            end: &self.end,
            log: self.log.lock(),
        }
    }
}

/// A locked [`ChangeLog`]; dropping it stores the log's end for
/// [`EventStream`]s to read, then releases the lock.
#[derive(Debug)]
pub struct LogGuard<'a> {
    end: &'a AtomicU64,
    log: MutexGuard<'a, ChangeLog>,
}

impl Deref for LogGuard<'_> {
    type Target = ChangeLog;

    fn deref(&self) -> &ChangeLog {
        &self.log
    }
}

impl DerefMut for LogGuard<'_> {
    fn deref_mut(&mut self) -> &mut ChangeLog {
        &mut self.log
    }
}

impl Drop for LogGuard<'_> {
    fn drop(&mut self) {
        // Runs before the field `log` drops and releases the lock.
        self.end.store(self.log.next_seq, Ordering::Release);
    }
}

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
    /// The `Free` slots of `readers`, each once.
    free: Vec<usize>,
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
            free: Vec::new(),
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

    /// Detaches a removed member's cursor into its stream's own buffer,
    /// or frees the slot of a member whose stream was dropped.
    pub(crate) fn detach(&mut self, slot: usize) {
        match self.readers[slot] {
            Reader::Cursor { next, bound } => {
                let unread = self.held_from(next).take(bound as usize).cloned();
                self.readers[slot] = Reader::Detached(unread.collect());
            }
            Reader::Dropped(_) => self.release(slot),
            Reader::Detached(_) | Reader::Free => {}
        }
    }

    /// Frees the slot of a `Dropped` or `Detached` reader for the next
    /// stream to open.
    fn release(&mut self, slot: usize) {
        self.readers[slot] = Reader::Free;
        self.free.push(slot);
    }
}

/// A member's cursor on the room's [`ChangeLog`], the `events` field of a
/// [`ClientConnection`](crate::server::ClientConnection): yields the log's
/// own shared events, oldest first (see the module docs).
#[derive(Debug)]
pub struct EventStream {
    log: SharedLog,
    pub(crate) slot: usize,
    /// The sequence number after the last event read from the cursor (the
    /// log's end at open): caught up while the log's end equals it.
    read_to: AtomicU64,
}

impl EventStream {
    /// A stream reading every event appended to `log` from now on, with
    /// at most `bound` (≥ 1) unread.
    pub(crate) fn open(log: &SharedLog, bound: usize) -> EventStream {
        let mut guard = log.log.lock();
        let slot = guard.free.pop().unwrap_or_else(|| {
            guard.readers.push(Reader::Free);
            guard.readers.len() - 1
        });
        let (next, bound) = (guard.next_seq, bound.max(1) as u64);
        guard.readers[slot] = Reader::Cursor { next, bound };
        let log = log.clone();
        let read_to = AtomicU64::new(next);
        EventStream { log, slot, read_to }
    }

    /// `true` if nothing is unread, known without the lock (module docs).
    fn caught_up(&self) -> bool {
        self.log.end.load(Ordering::Acquire) == self.read_to.load(Ordering::Relaxed)
    }

    /// A non-blocking receive: `None` when nothing is unread right now.
    pub fn try_recv(&self) -> Option<Arc<SequencedEvent>> {
        if self.caught_up() {
            return None;
        }
        let mut guard = self.log.log.lock();
        let log = &mut *guard;
        match &mut log.readers[self.slot] {
            Reader::Cursor { next, .. } => {
                let i = next.checked_sub(log.events.front()?.seq)?;
                let event = log.events.get(i as usize)?.clone();
                *next += 1;
                self.read_to.store(*next, Ordering::Relaxed);
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
        if self.caught_up() {
            return 0;
        }
        let log = self.log.log.lock();
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
        let mut log = self.log.log.lock();
        match log.readers[self.slot] {
            Reader::Cursor { next, bound } => {
                log.readers[self.slot] = Reader::Dropped(log.next_seq - next >= bound);
            }
            Reader::Detached(_) => log.release(self.slot),
            Reader::Dropped(_) | Reader::Free => {}
        }
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
        LockedLog::new(ChangeLog::new(capacity))
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

    // Streams are handed to client threads.
    const _: fn() = || {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<EventStream>();
    };

    #[test]
    fn readers_on_other_threads_receive_every_signalled_append() {
        const N: u64 = 2_000;
        let log = shared(4);
        let streams: Vec<_> = (0..3)
            .map(|_| EventStream::open(&log, N as usize + 1))
            .collect();
        let refs: Vec<&EventStream> = streams.iter().collect();
        std::thread::scope(|scope| {
            let mut signals = Vec::new();
            for s in &streams {
                let (tx, rx) = std::sync::mpsc::channel::<u64>();
                signals.push(tx);
                scope.spawn(move || {
                    let mut got = Vec::new();
                    for seq in rx {
                        let event = s.try_recv().expect("an appended event is readable");
                        assert_eq!(event.seq, seq);
                        got.push(event.seq);
                    }
                    assert!(s.try_recv().is_none());
                    assert_eq!(got, (1..=N).collect::<Vec<_>>());
                });
            }
            for seq in 1..=N {
                assert!(publish(&log, &refs).is_empty());
                for tx in &signals {
                    tx.send(seq).unwrap();
                }
            }
        });
    }

    #[test]
    fn a_stream_detached_with_nothing_unread_stays_empty() {
        let log = shared(8);
        let caught_up = EventStream::open(&log, 4);
        publish(&log, &[&caught_up]);
        assert_eq!(caught_up.try_recv().unwrap().seq, 1);
        let idle = EventStream::open(&log, 4);
        for s in [&idle, &caught_up] {
            log.lock().detach(s.slot);
        }
        for _ in 0..3 {
            publish(&log, &[]);
            for s in [&idle, &caught_up] {
                assert!(s.try_recv().is_none());
                assert!(s.is_empty());
            }
        }
    }

    #[test]
    fn an_evicted_stream_yields_its_buffer_after_further_appends() {
        let log = shared(2);
        let slow = EventStream::open(&log, 2);
        publish(&log, &[&slow]);
        publish(&log, &[&slow]);
        assert_eq!(publish(&log, &[&slow]), vec![(slow.slot, Lag::Full)]);
        log.lock().detach(slow.slot);
        for _ in 0..3 {
            publish(&log, &[]);
        }
        assert_eq!(slow.len(), 2);
        let kept: Vec<u64> = slow.try_iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![1, 2]);
        publish(&log, &[]);
        assert!(slow.try_recv().is_none());
        assert!(slow.is_empty());
    }

    #[test]
    fn no_slot_is_handed_to_two_live_streams() {
        let log = shared(4);
        // (slot, stream) of each member; a `None` stream was dropped while
        // its member was still in the room.
        let mut members: Vec<(usize, Option<EventStream>)> = Vec::new();
        let mut evicted: Vec<EventStream> = Vec::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..5_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let pick = (rng >> 32) as usize;
            match rng % 5 {
                0 | 1 => {
                    let s = EventStream::open(&log, 4);
                    let mut live = members.iter().filter_map(|(_, s)| s.as_ref());
                    assert!(live.all(|other| other.slot != s.slot));
                    assert!(evicted.iter().all(|other| other.slot != s.slot));
                    members.push((s.slot, Some(s)));
                }
                2 if !members.is_empty() => {
                    let i = pick % members.len();
                    members[i].1 = None;
                }
                3 if !members.is_empty() => {
                    // The room removes a member; a reaped slot is detached
                    // twice, as a second removal path would.
                    let (slot, stream) = members.remove(pick % members.len());
                    log.lock().detach(slot);
                    match stream {
                        Some(s) => evicted.push(s),
                        None => log.lock().detach(slot),
                    }
                }
                4 if !evicted.is_empty() => {
                    evicted.swap_remove(pick % evicted.len());
                }
                _ => {}
            }
            let slots: Vec<usize> = members.iter().map(|(slot, _)| *slot).collect();
            let mut lagging = Vec::new();
            let mut guard = log.lock();
            let seq = guard.last_seq() + 1;
            guard.publish(ev(seq), slots.into_iter(), &mut lagging);
            drop(guard);
            for (_, s) in &members {
                if let Some(s) = s {
                    while s.try_recv().is_some() {}
                }
            }
        }
    }
}
