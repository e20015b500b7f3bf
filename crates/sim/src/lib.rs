//! # rcmo-sim — deterministic whole-system chaos simulation
//!
//! A seeded discrete-event simulator that drives the *entire* stack —
//! cluster frontend, shards, rooms, fan-out, presentation, codec,
//! storage — through scripted client personas and chaos actors on one
//! virtual clock. The paper's remote conference is a distributed system
//! full of partial failure (modem viewers, dying reflectors, interrupted
//! servers); this crate is the harness that holds the grown system to the
//! paper's implicit contract *under* that failure, reproducibly.
//!
//! The pieces:
//!
//! * [`rng`] — one master seed, split into independent per-actor streams
//!   by stable label.
//! * [`trace`] — the determinism witness: one line per event, virtual
//!   timestamps only, compared byte-for-byte across same-seed runs.
//! * [`world`] — the system under test plus shared state (clock, oracle,
//!   fixture ids, failover generations).
//! * [`persona`] — scripted clients: lurkers, annotators, late joiners,
//!   flappy modem viewers, presenter handoff chains, room churners.
//! * [`chaos`] — seeded faults: shard kills, live migrations, storage
//!   crash drills.
//! * [`oracle`] — the invariants: gap-free per-member sequences, zero
//!   acked-event loss across failover, bounded queues, storage integrity
//!   after every crash, no dead histograms, full persona coverage.
//! * [`sim`] — the engine: one event heap, epoch maintenance, and the
//!   [`SimReport`] the E21 experiment prints and gates on.
//!
//! The headline property: **same seed ⇒ byte-identical trace and metrics
//! text**. Everything time-like runs on [`rcmo_obs::SimClock`]; the
//! wall-clock lint test in this crate keeps `Instant::now` and friends
//! out of every simulated path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod oracle;
pub mod persona;
pub mod rng;
pub mod sim;
pub mod trace;
pub mod world;

pub use oracle::Oracle;
pub use persona::Actor;
pub use rng::SimRng;
pub use sim::{SimConfig, SimReport, Simulator};
pub use trace::EventTrace;
pub use world::World;
