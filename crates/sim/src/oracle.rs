//! The invariant oracle: everything the simulated system must keep true,
//! checked continuously (as personas drain their streams) and at every
//! epoch boundary.
//!
//! Invariants:
//!
//! 1. **Gap-free sequences** — every event a surviving member drains
//!    carries exactly the next sequence number after the member's last,
//!    and a resync's replayed tail continues `last_seen` densely.
//! 2. **Zero acked-event loss** — an event any member observed can never
//!    disappear from its room's total order, failovers included: each
//!    epoch, every open room's `last_seq` must be ≥ the highest sequence
//!    any member ever drained from it.
//! 3. **Bounded queues** — no member's event stream ever holds more than
//!    its configured bound.
//! 4. **Storage integrity** — every injected storage crash must reopen
//!    with `check_integrity` green.
//! 5. **No dead instrumentation** — histograms and counters the scenario
//!    must have exercised carry samples at the end of the run (E14's
//!    guard, applied to the simulated hour).
//! 6. **Persona coverage** — every registered actor kind executed at
//!    least one step (a scenario with silently dead personas is not the
//!    scenario it claims to be).
//!
//! Violations are collected, not panicked, so one broken invariant cannot
//! mask the others; [`Oracle::violations`] going non-empty is the red
//! gate.

use rcmo_obs::MetricsSnapshot;
use rcmo_server::{Resync, RoomId};
use std::collections::BTreeMap;

/// The run-long invariant checker.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Last sequence number each member drained, per room. `None` entries
    /// never occur — a member appears here with its first drained event.
    member_seq: BTreeMap<(RoomId, String), u64>,
    /// Highest sequence number anyone observed per room: the acked
    /// horizon failover must preserve.
    room_max_seen: BTreeMap<RoomId, u64>,
    /// Steps executed per actor kind (persona coverage).
    actions: BTreeMap<&'static str, u64>,
    /// Deepest render each clinic viewer reached: `label → (max layers
    /// delivered, total layers of the stream)`.
    clinic_depth: BTreeMap<String, (usize, usize)>,
    /// Injected storage crash drills run / failed.
    crash_drills: u64,
    crash_failures: u64,
    epochs_checked: u64,
    violations: Vec<String>,
}

impl Oracle {
    /// A fresh oracle.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Records one executed step of an actor kind.
    pub fn note_action(&mut self, kind: &'static str) {
        *self.actions.entry(kind).or_insert(0) += 1;
    }

    /// Registers an actor kind before the run, so a kind that never steps
    /// shows up as `0` instead of being absent.
    pub fn register_kind(&mut self, kind: &'static str) {
        self.actions.entry(kind).or_insert(0);
    }

    /// Steps executed per kind.
    pub fn actions(&self) -> &BTreeMap<&'static str, u64> {
        &self.actions
    }

    /// Checks one drained event against the member's expected next
    /// sequence number. The first event a member ever drains anchors its
    /// cursor (a join lands mid-stream); every later one must follow
    /// densely.
    pub fn on_event(&mut self, room: RoomId, user: &str, seq: u64) {
        let key = (room, user.to_string());
        match self.member_seq.get(&key) {
            Some(&last) if seq != last + 1 => {
                self.violations.push(format!(
                    "gap: room {room} member {user} drained seq {seq} after {last}"
                ));
            }
            _ => {}
        }
        self.member_seq.insert(key, seq);
        let max = self.room_max_seen.entry(room).or_insert(0);
        *max = (*max).max(seq);
    }

    /// Validates a resync's catch-up against `last_seen` and re-anchors
    /// the member's cursor: a replayed tail must continue `last_seen`
    /// densely; a snapshot legitimately skips ahead (the member fell past
    /// the replay horizon) and re-anchors at the snapshot's sequence.
    pub fn on_resync(&mut self, room: RoomId, user: &str, last_seen: u64, catch_up: &Resync) {
        match catch_up {
            Resync::Events(events) => {
                let mut expect = last_seen;
                for ev in events {
                    if ev.seq != expect + 1 {
                        self.violations.push(format!(
                            "resync gap: room {room} member {user} tail seq {} after {expect}",
                            ev.seq
                        ));
                    }
                    expect = ev.seq;
                }
                self.member_seq.insert((room, user.to_string()), expect);
                let max = self.room_max_seen.entry(room).or_insert(0);
                *max = (*max).max(expect);
            }
            Resync::Snapshot(snap) => {
                self.member_seq.insert((room, user.to_string()), snap.seq);
                let max = self.room_max_seen.entry(room).or_insert(0);
                *max = (*max).max(snap.seq);
            }
        }
    }

    /// Checks a member's live queue depth against its bound.
    pub fn check_queue(&mut self, label: &str, len: usize, bound: usize) {
        if len > bound {
            self.violations
                .push(format!("queue over bound: {label} holds {len} > {bound}"));
        }
    }

    /// Records one injected storage crash drill and whether the reopened
    /// database passed `check_integrity`.
    pub fn on_crash_drill(&mut self, label: &str, integrity_ok: bool) {
        self.crash_drills += 1;
        if !integrity_ok {
            self.crash_failures += 1;
            self.violations
                .push(format!("storage integrity red after crash drill {label}"));
        }
    }

    /// Drops a room from the acked-horizon map (closed deliberately — its
    /// history is allowed to go away with it).
    pub fn on_room_closed(&mut self, room: RoomId) {
        self.room_max_seen.remove(&room);
        self.member_seq.retain(|(r, _), _| *r != room);
    }

    /// The per-epoch sweep: every open room's current `last_seq` (as a
    /// `(room, last_seq)` list the caller read through the cluster) must
    /// cover the acked horizon. A room the caller could not reach at all
    /// is itself a violation — epochs run right after failover settles.
    pub fn epoch_check(&mut self, reached: &[(RoomId, Option<u64>)]) {
        self.epochs_checked += 1;
        for &(room, last_seq) in reached {
            let acked = self.room_max_seen.get(&room).copied().unwrap_or(0);
            match last_seq {
                None => self
                    .violations
                    .push(format!("epoch: room {room} unreachable")),
                Some(seq) if seq < acked => self.violations.push(format!(
                    "acked loss: room {room} last_seq {seq} < acked horizon {acked}"
                )),
                Some(_) => {}
            }
        }
    }

    /// Records a clinic viewer's rendered delivery (layers served of
    /// total). The running maximum is what [`Oracle::clinic_check`]
    /// holds to the eventual-full-depth invariant.
    pub fn on_clinic_render(&mut self, label: &str, layers: usize, total: usize) {
        let entry = self
            .clinic_depth
            .entry(label.to_string())
            .or_insert((0, total));
        entry.0 = entry.0.max(layers);
        entry.1 = entry.1.max(total);
    }

    /// The clinic sweep (run only for scenarios with clinic viewers):
    /// every clinic viewer that rendered at all must have reached the
    /// stream's full layer depth by the end of the run (bandwidth
    /// recovered ⇒ the adaptive policy climbed back), a viewer that never
    /// rendered is itself a violation, and the warmed room cache must
    /// have served at least one hit.
    pub fn clinic_check(&mut self, snapshot: &MetricsSnapshot) {
        if self.clinic_depth.is_empty() {
            self.violations
                .push("clinic: no viewer ever rendered a delivery".to_string());
        }
        for (label, &(max, total)) in &self.clinic_depth {
            if total == 0 || max < total {
                self.violations.push(format!(
                    "clinic: {label} peaked at {max}/{total} layers, never full depth"
                ));
            }
        }
        let hits = snapshot
            .counters
            .get("server.delivery.cache.hit.count")
            .copied()
            .unwrap_or(0);
        if hits == 0 {
            self.violations
                .push("clinic: warmed object cache served zero hits".to_string());
        }
    }

    /// Rooms with an acked horizon (open, observed rooms), sorted.
    pub fn tracked_rooms(&self) -> Vec<RoomId> {
        self.room_max_seen.keys().copied().collect()
    }

    /// The final sweep: persona coverage and no-dead-instrument checks.
    /// `required` lists histogram or counter names (matched against the
    /// combined snapshot) the scenario must have exercised.
    pub fn final_check(&mut self, snapshot: &MetricsSnapshot, required: &[&str]) {
        for (&kind, &count) in &self.actions {
            if count == 0 {
                self.violations
                    .push(format!("dead persona: {kind} executed zero steps"));
            }
        }
        for &name in required {
            let samples = match snapshot.histograms.get(name) {
                Some(h) => Some(h.count),
                None => snapshot.counters.get(name).copied(),
            };
            match samples {
                None => self
                    .violations
                    .push(format!("dead instrument: {name} missing from snapshot")),
                Some(0) => self
                    .violations
                    .push(format!("dead instrument: {name} recorded zero samples")),
                Some(_) => {}
            }
        }
    }

    /// Invariant violations found so far (empty = green).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Storage crash drills run.
    pub fn crash_drills(&self) -> u64 {
        self.crash_drills
    }

    /// Crash drills that reopened red.
    pub fn crash_failures(&self) -> u64 {
        self.crash_failures
    }

    /// Epoch sweeps performed.
    pub fn epochs_checked(&self) -> u64 {
        self.epochs_checked
    }
}
