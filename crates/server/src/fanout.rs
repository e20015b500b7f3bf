//! Shared-payload broadcast fan-out: bounded per-member send queues over
//! `Arc`'d immutable events.
//!
//! The pre-refactor broadcast cloned every [`SequencedEvent`] once *per
//! member* — a `PresentationChanged` delta list or an annotation payload
//! was re-materialised N times for an N-member room. For the 10k-viewer
//! lecture that is exactly the wrong shape: the payload is identical for
//! everyone. Here the room encodes each event **once** into an
//! `Arc<SequencedEvent>` and the fan-out loop moves only reference-counted
//! pointers; per-member cost is a queue push, independent of payload size.
//!
//! Each member's queue is **bounded**. A member that stops draining (a
//! stalled client, a modem viewer far behind the stream) sees
//! `QueueSendError::Full` on the send side; the room then evicts them
//! through the same reaping path PR 1 built for dead connections — the
//! broadcast hot path never blocks and never buffers unboundedly. An
//! evicted slow consumer re-enters through resync, which hands them a
//! snapshot instead of the events they can no longer replay.
//!
//! The receive side ([`EventStream`]) yields *owned* events (the `Arc` is
//! unwrapped when uncontended, cloned otherwise), so client code is
//! byte-for-byte what it was against the unbounded per-clone channels.

use crate::resync::SequencedEvent;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default bound of a member's send queue (see
/// [`RoomConfig`](crate::room::RoomConfig)). Generous on purpose: the
/// bound exists to catch members that have stopped draining entirely, not
/// to police momentary bursts, and an empty queue costs nothing — the
/// depth is tracked, not preallocated.
pub const DEFAULT_MEMBER_QUEUE_BOUND: usize = 65_536;

/// Why a fan-out send failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueSendError {
    /// The member's queue is at its bound: a slow consumer. The room
    /// evicts them rather than block or buffer further.
    Full,
    /// The member's receiver is gone: a dead connection.
    Disconnected,
}

/// The room-held send side of one member's event queue. Opaque outside
/// the crate: it appears in detached-room state
/// ([`DetachedRoom`](crate::server::DetachedRoom)) only to be handed back
/// on adoption.
#[derive(Debug)]
pub struct EventQueue {
    tx: Sender<Arc<SequencedEvent>>,
    depth: Arc<AtomicUsize>,
    bound: usize,
}

impl EventQueue {
    /// Pushes a shared event without blocking. Fails `Full` at the bound
    /// and `Disconnected` once the stream is dropped; the queue's depth is
    /// unchanged on failure.
    pub(crate) fn try_send(&self, event: Arc<SequencedEvent>) -> Result<(), QueueSendError> {
        // Reserve a slot first: concurrent sends can momentarily
        // over-reserve, but depth never exceeds `bound` for long and a
        // room's sends are serialised under its lock anyway.
        if self.depth.fetch_add(1, Ordering::AcqRel) >= self.bound {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(QueueSendError::Full);
        }
        if self.tx.send(event).is_err() {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(QueueSendError::Disconnected);
        }
        Ok(())
    }

    /// The configured depth bound.
    pub fn bound(&self) -> usize {
        self.bound
    }
}

/// The client-held receive side of a member's event queue: the `events`
/// field of a [`ClientConnection`](crate::server::ClientConnection).
///
/// Yields owned [`SequencedEvent`]s — the shared `Arc` is unwrapped (or
/// cloned, if other members still hold it) at the consumer, so receive
/// semantics match the old unbounded channel exactly, including
/// disconnection once the room drops the member's queue.
#[derive(Debug)]
pub struct EventStream {
    rx: Receiver<Arc<SequencedEvent>>,
    depth: Arc<AtomicUsize>,
}

impl EventStream {
    /// A non-blocking receive: `None` when the queue is currently empty
    /// *or* the sender is gone (matching `try_recv().ok()` on a channel).
    pub fn try_recv(&self) -> Option<SequencedEvent> {
        match self.rx.try_recv() {
            Ok(ev) => {
                self.depth.fetch_sub(1, Ordering::AcqRel);
                Some(Arc::try_unwrap(ev).unwrap_or_else(|shared| (*shared).clone()))
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Drains everything currently queued, oldest first, without blocking.
    pub fn try_iter(&self) -> impl Iterator<Item = SequencedEvent> + '_ {
        std::iter::from_fn(move || self.try_recv())
    }

    /// Events currently queued (sent but not yet received).
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// `true` if nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Creates one member's bounded queue pair. `bound` is clamped to ≥ 1 (a
/// zero-depth queue would evict its member on their first event).
pub(crate) fn event_queue(bound: usize) -> (EventQueue, EventStream) {
    let (tx, rx) = unbounded();
    let depth = Arc::new(AtomicUsize::new(0));
    (
        EventQueue {
            tx,
            depth: depth.clone(),
            bound: bound.max(1),
        },
        EventStream { rx, depth },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RoomEvent;

    fn ev(seq: u64) -> Arc<SequencedEvent> {
        Arc::new(SequencedEvent {
            seq,
            event: RoomEvent::Chat {
                user: "u".into(),
                text: format!("m{seq}"),
            },
        })
    }

    #[test]
    fn bounded_send_fails_full_then_recovers_after_drain() {
        let (q, s) = event_queue(2);
        q.try_send(ev(1)).unwrap();
        q.try_send(ev(2)).unwrap();
        assert_eq!(q.try_send(ev(3)), Err(QueueSendError::Full));
        assert_eq!(s.len(), 2);
        assert_eq!(s.try_recv().unwrap().seq, 1);
        q.try_send(ev(3)).unwrap();
        let rest: Vec<u64> = s.try_iter().map(|e| e.seq).collect();
        assert_eq!(rest, vec![2, 3]);
        assert!(s.is_empty());
    }

    #[test]
    fn dropped_stream_reports_disconnected() {
        let (q, s) = event_queue(4);
        drop(s);
        assert_eq!(q.try_send(ev(1)), Err(QueueSendError::Disconnected));
    }

    #[test]
    fn shared_payload_is_not_deep_copied_on_send() {
        // Three queues fan out the *same* allocation; only the consumers
        // materialise owned events.
        let queues: Vec<_> = (0..3).map(|_| event_queue(8)).collect();
        let shared = ev(1);
        for (q, _) in &queues {
            q.try_send(shared.clone()).unwrap();
        }
        // 3 queue slots + our handle all point at one allocation.
        assert_eq!(Arc::strong_count(&shared), 4);
        for (_, s) in &queues {
            assert_eq!(s.try_recv().unwrap().seq, 1);
        }
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn zero_bound_is_clamped() {
        let (q, _s) = event_queue(0);
        assert_eq!(q.bound(), 1);
        q.try_send(ev(1)).unwrap();
        assert_eq!(q.try_send(ev(2)), Err(QueueSendError::Full));
    }
}
