//! Per-room replication journals: the change-log tail the cluster holds
//! *outside* the owning shard, so a dead shard's rooms can be rebuilt
//! with zero event loss.
//!
//! Every room carries a tap ([`crate::server::InteractionServer::tap_room`])
//! that feeds its sequenced event stream into an unbounded channel owned by
//! the frontend — an asynchronous replication stream in miniature. The
//! journal pairs that stream with the room's last full checkpoint (the
//! migration-grade [`RoomState`] taken at creation, at each migration, and
//! on demand): rebuild = restore the checkpoint, then replay the journal
//! tail through [`Room::ingest_replicated`], which both extends the change
//! log verbatim (dense, gap-free sequence numbers) and folds each event's
//! state effect back into the room.
//!
//! The tail is **bounded**: a journal whose drained tail outgrows its cap
//! is compacted — the tail is folded into the checkpoint exactly the way a
//! failover rebuild would fold it, then cleared. A chatty room between
//! explicit checkpoints therefore costs the frontend at most `cap` events
//! of replica memory, never an unbounded backlog (see
//! [`ClusterFrontend::maintain_replicas`](crate::cluster::ClusterFrontend::maintain_replicas)).

use crate::error::Result;
use crate::resync::SequencedEvent;
use crate::room::{Room, RoomId, RoomState};
use crossbeam::channel::Receiver;
use rcmo_obs::{Registry, SharedClock};
use std::sync::Arc;

/// A room's standby replica: checkpoint + replicated tail.
#[derive(Debug)]
pub(crate) struct RoomJournal {
    /// The last full checkpoint; `checkpoint.snapshot.seq` is the sequence
    /// number the checkpoint state reflects.
    checkpoint: RoomState,
    /// The live replication stream (the room's tap). Events arrive as
    /// the room's shared encode-once payloads — journaling a broadcast
    /// costs one pointer, not a payload copy.
    rx: Receiver<Arc<SequencedEvent>>,
    /// Drained events with `seq > checkpoint.snapshot.seq`, dense.
    events: Vec<Arc<SequencedEvent>>,
    /// Tail bound: [`Self::compact_if_over`] folds the tail into the
    /// checkpoint once the drained tail exceeds this.
    cap: usize,
}

impl RoomJournal {
    /// A journal whose replica starts at `checkpoint`, fed by `rx`, with a
    /// drained-tail bound of `cap` events. The tap may have been attached
    /// slightly *before* the checkpoint was exported; the overlap is
    /// deduplicated by sequence number on drain.
    pub(crate) fn new(
        checkpoint: RoomState,
        rx: Receiver<Arc<SequencedEvent>>,
        cap: usize,
    ) -> RoomJournal {
        RoomJournal {
            checkpoint,
            rx,
            events: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Pulls everything the replication stream has delivered so far into
    /// the journal tail, dropping events the checkpoint already reflects.
    pub(crate) fn drain(&mut self) {
        let mut last = self
            .events
            .last()
            .map(|e| e.seq)
            .unwrap_or(self.checkpoint.snapshot.seq);
        for ev in self.rx.try_iter() {
            if ev.seq > last {
                last = ev.seq;
                self.events.push(ev);
            }
        }
    }

    /// Sequence number of the newest replicated event (checkpoint seq if
    /// the tail is empty).
    pub(crate) fn last_replicated_seq(&self) -> u64 {
        self.events
            .last()
            .map(|e| e.seq)
            .unwrap_or(self.checkpoint.snapshot.seq)
    }

    /// Number of events in the drained tail.
    pub(crate) fn tail_len(&self) -> usize {
        self.events.len()
    }

    /// Rebuilds the room's state from checkpoint + tail: the failover
    /// path. Returns the rebuilt state (change log continued verbatim —
    /// the destination serves the same dense order and replay horizon)
    /// and how many tail events were *lossy* — logged into the order but
    /// with a state effect that could not be reconstructed from the event
    /// alone (see [`Room::ingest_replicated`]).
    pub(crate) fn rebuild_state(
        &self,
        room: RoomId,
        clock: SharedClock,
    ) -> Result<(RoomState, u64)> {
        // A scratch registry: the rebuild is a pure computation; the
        // adopted room re-registers under its destination shard.
        let scratch = Registry::new();
        let mut r = Room::from_state(room, self.checkpoint.clone(), None, &scratch, clock)?;
        let mut lossy = 0u64;
        for ev in &self.events {
            if !r.ingest_replicated(ev.clone())? {
                lossy += 1;
            }
        }
        Ok((r.export_state(), lossy))
    }

    /// Folds the tail into the checkpoint if it outgrew the cap — the
    /// same computation a failover rebuild performs, done early so the
    /// tail never holds more than `cap` events between maintenance
    /// passes. Returns `(events folded, lossy folds)` when a compaction
    /// ran. A compacted replica rebuilds to the identical state the
    /// uncompacted one would have (checkpoint ∘ tail is associative);
    /// only the memory shape changes.
    pub(crate) fn compact_if_over(
        &mut self,
        room: RoomId,
        clock: SharedClock,
    ) -> Result<Option<(u64, u64)>> {
        if self.events.len() <= self.cap {
            return Ok(None);
        }
        let folded = self.events.len() as u64;
        let (state, lossy) = self.rebuild_state(room, clock)?;
        self.checkpoint = state;
        self.events.clear();
        Ok(Some((folded, lossy)))
    }

    /// Resets the replica: a fresh checkpoint (which subsumes every event
    /// drained so far) and a fresh stream from the room's new home.
    pub(crate) fn reset(&mut self, checkpoint: RoomState, rx: Receiver<Arc<SequencedEvent>>) {
        self.checkpoint = checkpoint;
        self.rx = rx;
        self.events.clear();
    }
}
