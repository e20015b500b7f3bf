//! The four workloads: what state each one builds and which traffic mix
//! each driver thread issues. Sizes here are the full-scale ones;
//! `--smoke` divides them (see [`Params::smoke`]).
//!
//! Every workload is a stationary mix over the same user operations —
//! act, join, fetch, render, open, save — so every end-to-end metric is
//! defined on every workload. What differs is which operation dominates
//! and what state it runs against (room size, working set vs caches).

use crate::script::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Consult,
    Lecture,
    Archive,
    Rounds,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Consult,
        Workload::Lecture,
        Workload::Archive,
        Workload::Rounds,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Consult => "consult",
            Workload::Lecture => "lecture",
            Workload::Archive => "archive",
            Workload::Rounds => "rounds",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One driver thread's traffic: op kinds with integer weights.
pub type Mix = &'static [(Kind, u32)];

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    /// File-backed `MediaDb` (WAL, fsync, checkpoints) or in-memory.
    pub file_backed: bool,
    /// Rooms per driver; a driver owns its rooms for the whole run.
    pub rooms_per_driver: usize,
    /// Members per room that the drain loop serves after every event
    /// (moderators; in `lecture`, the presenter plus the viewers).
    pub members: usize,
    /// Member 0 is the presenter and drives the room; the other members are
    /// viewers that only fetch, report and churn (`lecture`). Otherwise
    /// every member is a moderator.
    pub presenter_led: bool,
    /// `lecture` only: members beyond `members` that drain every
    /// `slow_period` events and are evicted as slow consumers in between.
    pub slow_members: usize,
    pub slow_period: u32,
    /// Per-member event queue bound and change-log ring of the rooms
    /// (`None` = the server defaults).
    pub queue_bound: Option<usize>,
    pub change_log: Option<usize>,
    /// Stored CT images: count, edge length, distinct phantoms cycled.
    pub images: usize,
    pub image_size: usize,
    pub distinct_images: usize,
    /// Rooms open and save private working images (two per room, stored
    /// after the catalog). Otherwise they open images of the hot set
    /// (`rounds`: the writer saves what the reader fetches).
    pub private_work_images: bool,
    /// The hot subset `FetchHot`/`Open` draw from.
    pub hot_set: usize,
    /// Per-room object cache bound.
    pub cache_bytes: u64,
    /// Chat payload size in bytes.
    pub chat_bytes: usize,
    /// Per driver thread: its mix and an upper bound on its op rate
    /// (ops/s, about three times the seed commit's), which sizes the
    /// pre-generated script.
    pub mixes: Vec<(Mix, usize)>,
    /// `ops_per_s` counts the ops of the first this-many drivers
    /// (`rounds`: the writer only — the reader is an unthrottled loop some
    /// fifty times faster that would swamp it).
    pub rate_drivers: usize,
    /// A housekeeping tick (`advance(0.5)` + `maintain_replicas`) every
    /// this many script ops.
    pub tick_every: u32,
    /// A room is closed and re-created from the pristine record after this
    /// many of its own ops (0 = never): the next consultation. Bounds the
    /// derived variables global operations add to a room's document.
    pub recycle_every: u32,
    /// Every `plain_rooms`-th room of a driver never opens, saves or runs a
    /// global operation (0 = no such rooms): a discussion without
    /// checkpoint barriers, whose replica journal therefore grows to its
    /// cap and is compacted by the housekeeping tick.
    pub plain_rooms: usize,
    /// Script ops each driver runs untimed so caches fill before timing.
    pub warm_ops: usize,
    /// Record spans for one op in this many during a traced run.
    pub span_sample: u32,
}

const CONSULT: Mix = &[
    (Kind::Choose, 4000),
    (Kind::Unchoose, 1500),
    (Kind::AddText, 500),
    (Kind::AddLine, 500),
    (Kind::DelElement, 500),
    (Kind::Chat, 1500),
    (Kind::FreezeToggle, 500),
    (Kind::FetchHot, 300),
    (Kind::Report, 200),
    (Kind::OpLocal, 300),
    (Kind::LeaveJoin, 50),
    (Kind::OpGlobal, 6),
    (Kind::SaveOpen, 5),
    (Kind::Render, 5),
];

const LECTURE: Mix = &[
    (Kind::Chat, 6000),
    (Kind::Choose, 1500),
    (Kind::AddText, 500),
    (Kind::AddLine, 500),
    (Kind::DelElement, 500),
    (Kind::LeaveJoin, 200),
    (Kind::FetchHot, 1500),
    (Kind::Report, 100),
    (Kind::SaveOpen, 90),
    (Kind::Render, 150),
];

const ARCHIVE: Mix = &[
    (Kind::FetchCold, 7800),
    (Kind::FetchHot, 1950),
    (Kind::Render, 50),
    (Kind::Report, 50),
    (Kind::Chat, 300),
    (Kind::AddLine, 60),
    (Kind::DelElement, 40),
    (Kind::LeaveJoin, 100),
    (Kind::SaveOpen, 10),
];

const ROUNDS_WRITER: Mix = &[
    (Kind::AddText, 2600),
    (Kind::AddLine, 2600),
    (Kind::DelElement, 2400),
    (Kind::SaveOpen, 1900),
    (Kind::SaveDoc, 190),
    (Kind::Insert, 95),
    (Kind::LeaveJoin, 300),
    (Kind::Chat, 120),
];

const ROUNDS_READER: Mix = &[
    (Kind::FetchHot, 9900),
    (Kind::Render, 25),
    (Kind::Report, 75),
];

impl Params {
    pub fn full(workload: Workload) -> Params {
        match workload {
            // The paper's deployment shape: many small symmetric rooms over
            // one record; frontend, server and core do the work.
            Workload::Consult => Params {
                workload,
                presenter_led: false,
                private_work_images: true,
                rate_drivers: 2,
                file_backed: true,
                rooms_per_driver: 32,
                members: 4,
                slow_members: 0,
                slow_period: 0,
                queue_bound: None,
                change_log: None,
                images: 4,
                image_size: 256,
                distinct_images: 4,
                hot_set: 4,
                cache_bytes: 64 << 20,
                chat_bytes: 48,
                mixes: vec![(CONSULT, 100_000), (CONSULT, 100_000)],
                tick_every: 2000,
                recycle_every: 4000,
                plain_rooms: 2,
                warm_ops: 20_000,
                span_sample: 16,
            },
            // One big room: fan-out and join do nearly all the work.
            Workload::Lecture => Params {
                workload,
                presenter_led: true,
                private_work_images: true,
                rate_drivers: 1,
                file_backed: false,
                rooms_per_driver: 1,
                members: 2001,
                slow_members: 40,
                slow_period: 128,
                queue_bound: Some(64),
                change_log: Some(64),
                images: 8,
                image_size: 256,
                distinct_images: 8,
                hot_set: 8,
                cache_bytes: 64 << 20,
                chat_bytes: 8 * 1024,
                mixes: vec![(LECTURE, 8_000)],
                tick_every: 250,
                recycle_every: 0,
                plain_rooms: 0,
                warm_ops: 300,
                span_sample: 1,
            },
            // Catalog lookup -> object row -> BLOB stream over a working
            // set about four times the page cache and fifteen times the
            // room object cache.
            Workload::Archive => Params {
                workload,
                presenter_led: false,
                private_work_images: true,
                rate_drivers: 2,
                file_backed: true,
                rooms_per_driver: 1,
                members: 4,
                slow_members: 0,
                slow_period: 0,
                queue_bound: None,
                change_log: None,
                images: 2048,
                image_size: 512,
                distinct_images: 8,
                hot_set: 32,
                cache_bytes: 4 << 20,
                chat_bytes: 48,
                mixes: vec![(ARCHIVE, 60_000), (ARCHIVE, 60_000)],
                tick_every: 2000,
                recycle_every: 0,
                plain_rooms: 0,
                warm_ops: 3_000,
                span_sample: 4,
            },
            // The same storage layers used the other way: commits, WAL
            // fsync, checkpoints and cache invalidation beside snapshot
            // reads, over a working set that fits the page cache.
            Workload::Rounds => Params {
                workload,
                presenter_led: false,
                private_work_images: false,
                rate_drivers: 1,
                file_backed: true,
                rooms_per_driver: 1,
                members: 4,
                slow_members: 0,
                slow_period: 0,
                queue_bound: None,
                change_log: None,
                images: 256,
                image_size: 256,
                distinct_images: 8,
                hot_set: 256,
                // A quarter of the hot set: three fetches in four miss, so
                // the median fetch is squarely a miss, not on the edge
                // between the hit and the miss mode.
                cache_bytes: 512 << 10,
                chat_bytes: 48,
                mixes: vec![(ROUNDS_WRITER, 12_000), (ROUNDS_READER, 250_000)],
                tick_every: 500,
                recycle_every: 0,
                plain_rooms: 0,
                warm_ops: 400,
                span_sample: 4,
            },
        }
    }

    /// The 1/50-scale mode: same shape, sizes divided so all four
    /// workloads finish in a few seconds.
    pub fn smoke(workload: Workload) -> Params {
        let mut p = Params::full(workload);
        let div = |n: usize, floor: usize| (n / 50).max(floor);
        p.rooms_per_driver = div(p.rooms_per_driver, 1);
        if p.presenter_led {
            p.members = div(p.members, 12);
            p.slow_members = 2;
        }
        p.images = div(p.images, p.distinct_images.max(8));
        p.hot_set = p.hot_set.min(p.images);
        p.image_size = 64;
        p.cache_bytes = (p.cache_bytes / 50).max(64 << 10);
        p.warm_ops = div(p.warm_ops, 20);
        p.recycle_every = (p.recycle_every / 10).max(u32::from(p.recycle_every > 0) * 50);
        p.tick_every = (p.tick_every / 10).max(20);
        // Tiny rooms and images run an order of magnitude faster.
        for mix in &mut p.mixes {
            mix.1 *= 12;
        }
        p
    }

    pub fn drivers(&self) -> usize {
        self.mixes.len()
    }
}
