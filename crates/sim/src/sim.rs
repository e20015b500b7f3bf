//! The discrete-event engine: one event heap, one virtual clock, one
//! seeded RNG tree, driving the whole stack through personas and chaos
//! actors.
//!
//! Execution model: every actor has a next-step time on a binary heap
//! (ties broken by insertion order, so the schedule is a total order).
//! The engine pops the earliest event, advances the [`SimClock`] to it,
//! and steps the actor; the returned delay re-schedules it. At every
//! epoch boundary (a simulated minute) the engine does the cluster's
//! periodic work — pump the failure detector, fail over newly dead
//! shards, compact replica journals — and runs the oracle's acked-loss
//! sweep over every tracked room.
//!
//! Everything nondeterministic is excluded by construction: virtual time
//! only (the wall-clock lint test enforces it), seeded per-actor RNG
//! streams, sorted iteration wherever order reaches the trace. Same seed
//! ⇒ byte-identical [`SimReport::trace_text`] and
//! [`SimReport::metrics_text`].
//!
//! [`SimClock`]: rcmo_obs::SimClock

use crate::chaos::{MigrationChaos, ShardKiller, StorageCrasher};
use crate::persona::{
    Actor, Annotator, ClinicViewer, FlappyViewer, Lurker, PresenterChain, RoomChurner,
};
use crate::world::World;
use rcmo_obs::{Metrics, MetricsSnapshot};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A scenario: population sizes, chaos budgets, and the virtual horizon.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed: the one knob that decides everything.
    pub seed: u64,
    /// Cluster shards.
    pub shards: usize,
    /// Pre-created rooms.
    pub rooms: usize,
    /// Hard cap on actor steps executed.
    pub max_events: u64,
    /// Virtual horizon in seconds (the "simulated hour").
    pub horizon_s: f64,
    /// Epoch length in virtual seconds (cluster maintenance + oracle sweep).
    pub epoch_s: f64,
    /// Replica journal tail cap (satellite: bounded replica memory).
    pub journal_tail_cap: usize,
    /// Every `image_room_stride`-th room gets a stored image opened into
    /// it (alternating raw `GIM1` / layered `LIC1`).
    pub image_room_stride: usize,
    /// Every `late_stride`-th room gets a late joiner.
    pub late_stride: usize,
    /// Every `flappy_stride`-th room gets a flappy modem viewer.
    pub flappy_stride: usize,
    /// Every `clinic_stride`-th room gets a modem-clinic viewer asking
    /// for bandwidth-adapted layered deliveries (`0` = none).
    pub clinic_stride: usize,
    /// Every `presenter_stride`-th room gets a presenter handoff chain.
    pub presenter_stride: usize,
    /// Room-churner personas (create/chat/close loops).
    pub churners: usize,
    /// Chats a churner sends before closing its room.
    pub chats_per_churn_room: u32,
    /// Shard crashes to inject.
    pub shard_kills: u64,
    /// Live migrations to inject.
    pub migrations: u64,
    /// Storage crash drills to run.
    pub storage_drills: u64,
}

impl SimConfig {
    /// The double-run determinism scenario: 50 rooms, ten virtual
    /// minutes, every persona kind and every chaos kind present.
    pub fn small(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            shards: 4,
            rooms: 50,
            max_events: 2_500,
            horizon_s: 600.0,
            epoch_s: 30.0,
            journal_tail_cap: 64,
            image_room_stride: 5,
            late_stride: 7,
            flappy_stride: 11,
            clinic_stride: 0,
            presenter_stride: 13,
            churners: 2,
            chats_per_churn_room: 4,
            shard_kills: 1,
            migrations: 6,
            storage_drills: 2,
        }
    }

    /// The E21 scenario: 10 000 rooms, 100 000 events, one simulated hour.
    pub fn full(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            shards: 8,
            rooms: 10_000,
            max_events: 100_000,
            horizon_s: 3_600.0,
            epoch_s: 60.0,
            journal_tail_cap: 4_096,
            image_room_stride: 5,
            late_stride: 7,
            flappy_stride: 11,
            clinic_stride: 0,
            presenter_stride: 13,
            churners: 20,
            chats_per_churn_room: 6,
            shard_kills: 3,
            migrations: 40,
            storage_drills: 6,
        }
    }

    /// The modem-heavy clinic scenario (DESIGN.md §16): every room has a
    /// 56k clinic viewer behind a faulty link with an early outage,
    /// repeatedly fetching the layered CT image through the adaptive
    /// delivery tier. Chaos is off — the scenario isolates the
    /// estimator → policy → cache loop, and the oracle's clinic sweep
    /// demands every viewer reach full depth once its link recovers.
    pub fn modem_clinic(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            shards: 2,
            rooms: 12,
            max_events: 2_000,
            horizon_s: 600.0,
            epoch_s: 30.0,
            journal_tail_cap: 64,
            image_room_stride: 2,
            late_stride: 0,
            flappy_stride: 0,
            clinic_stride: 1,
            presenter_stride: 0,
            churners: 0,
            chats_per_churn_room: 0,
            shard_kills: 0,
            migrations: 0,
            storage_drills: 0,
        }
    }
}

/// What one run produced: the determinism witnesses (trace and metrics
/// text), the oracle's verdict, and the headline tallies.
#[derive(Debug)]
pub struct SimReport {
    /// The seed that produced everything below.
    pub seed: u64,
    /// Rooms pre-created.
    pub rooms: usize,
    /// Actors scheduled.
    pub actors: usize,
    /// Actor steps executed.
    pub events_executed: u64,
    /// The virtual horizon in seconds.
    pub horizon_s: f64,
    /// Oracle epoch sweeps run.
    pub epochs: u64,
    /// Full trace text (byte-identical across same-seed runs).
    pub trace_text: String,
    /// FNV fingerprint of the trace (the compact witness for export).
    pub trace_fingerprint: u64,
    /// Trace lines.
    pub trace_len: usize,
    /// Frontend + per-shard metrics rendered as text, in shard order
    /// (byte-identical across same-seed runs).
    pub metrics_text: String,
    /// Frontend and shard snapshots merged (counters and histogram counts
    /// summed) — the machine-readable export.
    pub merged_metrics: MetricsSnapshot,
    /// Steps executed per actor kind (the persona-coverage gate reads
    /// this: every kind must be > 0).
    pub actions: BTreeMap<&'static str, u64>,
    /// Invariant violations (empty = green).
    pub violations: Vec<String>,
    /// Storage crash drills run / failed.
    pub crash_drills: u64,
    /// Drills whose reopened database failed `check_integrity`.
    pub crash_failures: u64,
    /// Shards crashed.
    pub kills: u64,
    /// Rooms failed over.
    pub failovers: u64,
    /// Live migrations completed.
    pub migrations: u64,
    /// Persona resyncs performed.
    pub resyncs: u64,
}

/// The engine. Stateless — [`Simulator::run`] builds a fresh [`World`]
/// per call.
pub struct Simulator;

impl Simulator {
    /// Runs one scenario to completion and returns its report.
    pub fn run(config: &SimConfig) -> SimReport {
        let mut w = World::new(
            config.seed,
            config.shards,
            config.journal_tail_cap,
            config.rooms,
        );
        let horizon_us = (config.horizon_s * 1e6) as u64;
        let epoch_us = ((config.epoch_s * 1e6) as u64).max(1);

        // Persona periods: size them so the schedule offers ~1.4× the step
        // budget inside the horizon — the engine's max_events cap trims
        // the excess, so the cap (not scheduling famine) ends the run.
        let est_actors = (2 * config.rooms
            + config.rooms / config.late_stride.max(1)
            + config.rooms / config.flappy_stride.max(1)
            + config.rooms.checked_div(config.clinic_stride).unwrap_or(0)
            + config.rooms / config.presenter_stride.max(1)
            + config.churners)
            .max(1) as u64;
        let steps_per_actor = (config.max_events * 14 / 10 / est_actors).max(2);
        let period_us = (horizon_us / steps_per_actor).max(1_000);
        let spread_us = (horizon_us / 4).max(1);

        let mut actors: Vec<Box<dyn Actor>> = Vec::new();
        let mut first_at: Vec<u64> = Vec::new();
        // Knuth multiplicative hash of the build index: a deterministic
        // low-discrepancy stagger for first steps.
        let stagger = |k: usize| (k as u64).wrapping_mul(2_654_435_761) % spread_us;

        for i in 0..config.rooms {
            let room = w.rooms[i];
            let image = if config.image_room_stride > 0 && i % config.image_room_stride == 0 {
                Some(if (i / config.image_room_stride).is_multiple_of(2) {
                    w.gim_image
                } else {
                    w.lic_image
                })
            } else {
                None
            };
            first_at.push(stagger(actors.len()));
            actors.push(Box::new(Annotator::new(room, image, &w, period_us)));
            first_at.push(stagger(actors.len()));
            actors.push(Box::new(Lurker::new("lurker", room, &w, period_us)));
            if config.late_stride > 0 && i % config.late_stride == 0 {
                // Late joiners enter in the second half of the run.
                first_at.push(horizon_us / 2 + stagger(actors.len()));
                actors.push(Box::new(Lurker::new("late-joiner", room, &w, period_us)));
            }
            if config.flappy_stride > 0 && i % config.flappy_stride == 0 {
                first_at.push(stagger(actors.len()));
                actors.push(Box::new(FlappyViewer::new(
                    room,
                    &w,
                    config.horizon_s,
                    period_us,
                )));
            }
            if config.clinic_stride > 0 && i % config.clinic_stride == 0 {
                first_at.push(stagger(actors.len()));
                actors.push(Box::new(ClinicViewer::new(
                    room,
                    &w,
                    config.horizon_s,
                    period_us,
                )));
            }
            if config.presenter_stride > 0 && i % config.presenter_stride == 0 {
                first_at.push(stagger(actors.len()));
                actors.push(Box::new(PresenterChain::new(room, &w, period_us)));
            }
        }
        for c in 0..config.churners {
            first_at.push(stagger(actors.len()));
            actors.push(Box::new(RoomChurner::new(
                c,
                &w,
                config.chats_per_churn_room,
                period_us,
            )));
        }
        if config.shard_kills > 0 {
            first_at.push(horizon_us / 6);
            actors.push(Box::new(ShardKiller::new(
                &w,
                config.shard_kills,
                horizon_us / (config.shard_kills + 1),
            )));
        }
        if config.migrations > 0 {
            first_at.push(horizon_us / 8);
            actors.push(Box::new(MigrationChaos::new(
                &w,
                config.migrations,
                horizon_us / (config.migrations + 2),
            )));
        }
        if config.storage_drills > 0 {
            first_at.push(horizon_us / 7);
            actors.push(Box::new(StorageCrasher::new(
                &w,
                config.storage_drills,
                horizon_us / (config.storage_drills + 2),
            )));
        }
        for a in &actors {
            w.oracle.register_kind(a.kind());
        }
        let actor_count = actors.len();
        w.trace(
            "engine",
            &format!(
                "start rooms={} actors={} horizon_s={} seed={}",
                config.rooms, actor_count, config.horizon_s as u64, config.seed
            ),
        );

        // The heap: (virtual µs, insertion seq, actor index). The seq
        // makes simultaneous events a total order.
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        for (idx, &t) in first_at.iter().enumerate() {
            heap.push(Reverse((t, seq, idx)));
            seq += 1;
        }

        let mut executed: u64 = 0;
        let mut next_epoch = epoch_us;
        let mut last_epoch_at: u64 = 0;
        while let Some(Reverse((t, _, idx))) = heap.pop() {
            if t > horizon_us || executed >= config.max_events {
                break;
            }
            while next_epoch <= t {
                run_epoch(&mut w, next_epoch);
                last_epoch_at = next_epoch;
                next_epoch += epoch_us;
            }
            w.clock.advance_to_us(t);
            let next = actors[idx].step(&mut w);
            w.oracle.note_action(actors[idx].kind());
            executed += 1;
            if let Some(delay) = next {
                let at = t.saturating_add(delay.max(1));
                if at <= horizon_us {
                    heap.push(Reverse((at, seq, idx)));
                    seq += 1;
                }
            }
        }
        // Close out the hour: remaining epochs, then a final sweep at the
        // horizon itself (failover anything killed near the end).
        while next_epoch <= horizon_us {
            run_epoch(&mut w, next_epoch);
            last_epoch_at = next_epoch;
            next_epoch += epoch_us;
        }
        if last_epoch_at < horizon_us {
            run_epoch(&mut w, horizon_us);
        }

        // Metrics: frontend first, then every shard in index order.
        let front = w.cf.metrics();
        let mut merged = front.clone();
        let mut metrics_text = format!("## frontend\n{}", front.to_text());
        for s in 0..w.cf.shard_count() {
            let snap = w.cf.shard_server(s).obs().snapshot();
            merge_into(&mut merged, &snap);
            metrics_text.push_str(&format!("## shard {s}\n{}", snap.to_text()));
        }

        // The frontend's guarded instrument is its lookup counter: its
        // histograms fill only when a migration or failover happens.
        let mut required: Vec<&str> = vec![
            "cluster.directory.lookup.count",
            "server.room.broadcast.us",
            "server.room.lock.wait.us",
            "server.room.lock.hold.us",
        ];
        if w.migrations > 0 {
            required.push("cluster.migration.us");
        }
        if w.failovers > 0 {
            required.push("cluster.failover.room.us");
        }
        if w.resyncs > 0 {
            required.push("server.room.resync.us");
        }
        if config.clinic_stride > 0 {
            // The adaptive tier must have chosen depths (the histogram is
            // created lazily with the first DeliveryState, so a clinic
            // scenario that never delivered shows up as a dead histogram).
            required.push("server.delivery.depth.layers");
        }
        w.oracle.final_check(&merged, &required);
        if config.clinic_stride > 0 {
            w.oracle.clinic_check(&merged);
        }

        w.trace(
            "engine",
            &format!(
                "done executed={executed} failovers={} migrations={} kills={} violations={}",
                w.failovers,
                w.migrations,
                w.kills,
                w.oracle.violations().len()
            ),
        );

        SimReport {
            seed: config.seed,
            rooms: config.rooms,
            actors: actor_count,
            events_executed: executed,
            horizon_s: config.horizon_s,
            epochs: w.oracle.epochs_checked(),
            trace_fingerprint: w.trace.fingerprint(),
            trace_len: w.trace.len(),
            trace_text: w.trace.to_text(),
            metrics_text,
            merged_metrics: merged,
            actions: w.oracle.actions().clone(),
            violations: w.oracle.violations().to_vec(),
            crash_drills: w.oracle.crash_drills(),
            crash_failures: w.oracle.crash_failures(),
            kills: w.kills,
            failovers: w.failovers,
            migrations: w.migrations,
            resyncs: w.resyncs,
        }
    }
}

/// One epoch boundary: advance the failure detector to the boundary time,
/// fail over newly dead shards, compact replica journals, and run the
/// oracle's acked-loss sweep over every tracked room.
fn run_epoch(w: &mut World, t_us: u64) {
    w.clock.advance_to_us(t_us);
    let now_s = t_us as f64 / 1e6;
    let newly_dead = w.cf.advance_to(now_s);
    for dead in newly_dead {
        match w.cf.fail_over_shard(dead) {
            Ok(moved) => {
                for &(room, _) in &moved {
                    w.bump_failover(room);
                }
                let summary: Vec<String> = moved.iter().map(|(r, s)| format!("{r}->{s}")).collect();
                w.trace(
                    "engine",
                    &format!("failover shard={dead} rooms=[{}]", summary.join(",")),
                );
            }
            Err(e) => w.trace("engine", &format!("failover shard={dead} err: {e}")),
        }
    }
    match w.cf.maintain_replicas() {
        Ok(n) if n > 0 => w.trace("engine", &format!("maintain compacted={n}")),
        Ok(_) => {}
        Err(e) => w.trace("engine", &format!("maintain err: {e}")),
    }
    let rooms = w.oracle.tracked_rooms();
    let mut reached = Vec::with_capacity(rooms.len());
    for room in rooms {
        let last_seq = w.cf.read_room(room, |r| Ok(r.change_log().last_seq()));
        reached.push((room, last_seq.ok()));
    }
    w.oracle.epoch_check(&reached);
    w.trace(
        "engine",
        &format!(
            "epoch t_s={} rooms_checked={}",
            t_us / 1_000_000,
            reached.len()
        ),
    );
}

/// Folds `add` into `acc`: counters and gauges sum, histograms with equal
/// bounds sum bucket-wise. Used to combine the frontend and per-shard
/// registries into one machine-readable snapshot.
fn merge_into(acc: &mut MetricsSnapshot, add: &MetricsSnapshot) {
    for (k, v) in &add.counters {
        *acc.counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, v) in &add.gauges {
        *acc.gauges.entry(k.clone()).or_insert(0) += v;
    }
    for (k, h) in &add.histograms {
        match acc.histograms.get_mut(k) {
            None => {
                acc.histograms.insert(k.clone(), h.clone());
            }
            Some(a) if a.bounds == h.bounds => {
                for (x, y) in a.counts.iter_mut().zip(&h.counts) {
                    *x += y;
                }
                a.count += h.count;
                a.sum += h.sum;
                a.max = a.max.max(h.max);
                a.min = a.min.min(h.min);
            }
            // Mismatched bounds: keep the first; counts stay meaningful
            // through `count`, which is all the oracle reads.
            Some(_) => {}
        }
    }
}
