//! One closed-loop driver thread: executes its script against the
//! cluster through the public API, times every call from outside, checks
//! what comes back (the output oracle), and — in a traced run — records
//! harness spans and replays sampled ops down the layer ladder.

use crate::hist::{Hist, SegHist, SEGMENTS};
use crate::script::{Kind, Op};
use crate::world::{self, MemberCtx, RoomCtx, World, ADMIN, LINK_CLASSES};
use rcmo::codec::layered;
use rcmo::core::{ComponentId, PresentationEngine, ViewerChoice, ViewerSession};
use rcmo::imaging::{LineElement, TextElement};
use rcmo::mediadb::{schema::IMAGE_TABLE, DocumentObject, ImageObject};
use rcmo::server::{Action, Delta, Resync, RoomEvent};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Latency classes the harness records (one histogram per class, segment
/// and driver; merged at the end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Class {
    Act,
    Join,
    Leave,
    FetchHot,
    FetchCold,
    Render,
    Open,
    Save,
    Report,
    SaveDoc,
    Insert,
    Resync,
    Recycle,
    Tick,
}
pub const CLASSES: usize = Class::Tick as usize + 1;

/// Rungs of the layer ladder: the public entry point of each lower layer,
/// timed on a twin input of equal cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Rung {
    ActFrontend,
    ActServer,
    ActCore,
    ActDrain,
    FetchFrontend,
    FetchServer,
    FetchMediadb,
    FetchBeginRead,
    FetchRowGet,
    FetchBlobRead,
    FetchInfo,
    /// Not a time: pages the storage rung touched (page-cache hits +
    /// misses around the direct read).
    FetchPages,
}
pub const RUNGS: usize = Rung::FetchPages as usize + 1;

/// Every `LADDER_EVERY`-th act / fetch of a traced segment is replayed
/// down the ladder.
const LADDER_EVERY: u64 = 64;

/// The public calls the harness wraps in spans, named `layer.function`.
#[derive(Debug, Clone, Copy)]
#[repr(u16)]
pub enum Call {
    Act,
    Drain,
    Join,
    Leave,
    Deliver,
    Decode,
    Open,
    Save,
    Report,
    SaveDoc,
    Insert,
    Resync,
    Recycle,
    Tick,
}

pub const SPAN_NAMES: [&str; Call::Tick as usize + 1] = [
    "frontend.act",
    "fanout.drain",
    "frontend.join",
    "frontend.leave",
    "frontend.deliver_image",
    "codec.decode_prefix",
    "frontend.open_image",
    "frontend.save_and_close_image",
    "frontend.report_transfer",
    "frontend.save_document",
    "mediadb.insert_image",
    "frontend.resync",
    "frontend.recycle_room",
    "frontend.housekeeping",
];

/// A harness span around one public call: which op, which call, when.
/// `parent` is the index of the enclosing span of the same op (or
/// `u32::MAX` for an op's root span).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub name: u16,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one driver measured.
pub struct Recorder {
    pub lat: Vec<SegHist>,
    /// Completed user operations per segment.
    pub user_ops: [u64; SEGMENTS],
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Virtual time-to-first-render of every delivery, µs.
    pub ttfr_vus: Hist,
    pub link_vs_sum: [f64; 4],
    pub link_n: [u64; 4],
    pub layers_sum: u64,
    pub deliveries: u64,
    pub drain_ns: u64,
    pub drain_events: u64,
    pub rungs: Vec<[Hist; 2]>,
    pub spans: Vec<Span>,
    pub script_exhausted: bool,
    /// Elapsed seconds of the timed phase.
    pub elapsed_s: f64,
}

impl Recorder {
    pub fn new(span_capacity: usize) -> Recorder {
        Recorder {
            lat: (0..CLASSES).map(|_| SegHist::new()).collect(),
            user_ops: [0; SEGMENTS],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            ttfr_vus: Hist::new(),
            link_vs_sum: [0.0; 4],
            link_n: [0; 4],
            layers_sum: 0,
            deliveries: 0,
            drain_ns: 0,
            drain_events: 0,
            rungs: (0..RUNGS).map(|_| [Hist::new(), Hist::new()]).collect(),
            spans: Vec::with_capacity(span_capacity),
            script_exhausted: false,
            elapsed_s: 0.0,
        }
    }

    pub fn merge(&mut self, o: &Recorder) {
        for (a, b) in self.lat.iter_mut().zip(&o.lat) {
            a.merge(b);
        }
        for s in 0..SEGMENTS {
            self.user_ops[s] += o.user_ops[s];
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors.iter().cloned());
        self.ttfr_vus.merge(&o.ttfr_vus);
        for c in 0..4 {
            self.link_vs_sum[c] += o.link_vs_sum[c];
            self.link_n[c] += o.link_n[c];
        }
        self.layers_sum += o.layers_sum;
        self.deliveries += o.deliveries;
        self.drain_ns += o.drain_ns;
        self.drain_events += o.drain_events;
        for (a, b) in self.rungs.iter_mut().zip(&o.rungs) {
            a[0].merge(&b[0]);
            a[1].merge(&b[1]);
        }
        self.script_exhausted |= o.script_exhausted;
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
    }

    pub fn class(&self, c: Class) -> &SegHist {
        &self.lat[c as usize]
    }

    pub fn rung(&self, r: Rung, cold: bool) -> &Hist {
        &self.rungs[r as usize][usize::from(cold)]
    }
}

pub struct Driver<'w> {
    pub id: usize,
    world: &'w World,
    pub rooms: Vec<RoomCtx>,
    pub rec: Recorder,
    /// Traced run: spans and ladder probes are recorded in even segments.
    traced: bool,
    measuring: bool,
    tracing_now: bool,
    seg: usize,
    op_id: u32,
    epoch: Instant,
    acts_seen: u64,
    fetches_seen: u64,
    /// The core rung's own document, session and engine.
    core_doc: rcmo::core::MultimediaDocument,
    core_session: ViewerSession,
    core_engine: PresentationEngine,
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

impl<'w> Driver<'w> {
    pub fn new(id: usize, world: &'w World, rooms: Vec<RoomCtx>, traced: bool) -> Driver<'w> {
        let core_doc = rcmo::core::MultimediaDocument::from_bytes(&world.pristine_doc)
            .expect("pristine record decodes");
        Driver {
            id,
            world,
            rooms,
            rec: Recorder::new(if traced { 1 << 18 } else { 0 }),
            traced,
            measuring: false,
            tracing_now: false,
            seg: 0,
            op_id: 0,
            epoch: Instant::now(),
            acts_seen: 0,
            fetches_seen: 0,
            core_doc,
            core_session: ViewerSession::new("ladder"),
            core_engine: PresentationEngine::new(),
        }
    }

    /// Runs `ops` untimed: caches fill, nothing is recorded, but the
    /// oracle still checks every output.
    pub fn warm_up(&mut self, ops: &[Op]) {
        self.measuring = false;
        for op in ops {
            self.exec(op);
        }
    }

    /// The timed phase: runs `ops` for `seconds`, cut into equal
    /// wall-clock segments; a script that `wraps` restarts when it runs
    /// out.
    pub fn run_timed(&mut self, ops: &[Op], seconds: f64, wraps: bool) {
        self.measuring = true;
        for room in &mut self.rooms {
            for m in &mut room.members {
                m.seen = 0;
                m.disturbed = false;
            }
        }
        let seg_ns = (seconds * 1e9 / SEGMENTS as f64) as u64;
        let start = Instant::now();
        self.epoch = start;
        let mut next = 0;
        loop {
            if next == ops.len() {
                if !wraps {
                    self.rec.script_exhausted = true;
                    break;
                }
                next = 0;
            }
            let seg = (ns(start, Instant::now()) / seg_ns.max(1)) as usize;
            if seg >= SEGMENTS {
                break;
            }
            self.seg = seg;
            self.tracing_now = self.traced && seg.is_multiple_of(2);
            self.exec(&ops[next]);
            next += 1;
        }
        self.rec.elapsed_s = start.elapsed().as_secs_f64();
        self.measuring = false;
        self.tracing_now = false;
    }

    fn fail(&mut self, what: &str, detail: String) {
        self.rec.failed += 1;
        if self.rec.errors.len() < 8 {
            self.rec.errors.push(format!(
                "driver {} op {}: {what}: {detail}",
                self.id, self.op_id
            ));
        }
    }

    /// Records one completed user op of `class` that took `dur` ns.
    fn done(&mut self, class: Class, dur: u64) {
        if self.measuring {
            self.rec.lat[class as usize].record(self.seg, dur);
            if !matches!(class, Class::Tick | Class::Recycle) {
                self.rec.user_ops[self.seg] += 1;
            }
        }
    }

    fn span(&mut self, call: Call, parent: u32, start: Instant, end: Instant) -> u32 {
        if !self.tracing_now
            || !self.op_id.is_multiple_of(self.world.p.span_sample)
            || self.rec.spans.len() == self.rec.spans.capacity()
        {
            return u32::MAX;
        }
        self.rec.spans.push(Span {
            op: self.op_id,
            name: call as u16,
            parent,
            start_ns: ns(self.epoch, start),
            end_ns: ns(self.epoch, end),
        });
        self.rec.spans.len() as u32 - 1
    }

    fn rung(&mut self, rung: Rung, cold: bool, dur: u64) {
        self.rec.rungs[rung as usize][usize::from(cold)].record(dur);
    }

    fn exec(&mut self, op: &Op) {
        self.op_id = self.op_id.wrapping_add(1);
        if self.measuring {
            self.rec.attempted += 1;
        }
        let r = op.room as usize;
        let m = op.member as usize;
        let comp = ComponentId(op.a >> 8);
        let form = (op.a & 0xFF) as usize;
        match op.kind {
            Kind::Choose => self.act(
                r,
                m,
                Action::Choose {
                    component: comp,
                    form,
                },
            ),
            Kind::Unchoose => self.act(r, m, Action::Unchoose { component: comp }),
            Kind::AddText => {
                let size = self.world.p.image_size;
                let action = Action::AddText {
                    object: self.rooms[r].open,
                    element: TextElement {
                        x: op.a as usize % (size / 2),
                        y: (op.a >> 8) as usize % (size - 8),
                        text: "LESION".to_string(),
                        intensity: 255,
                        scale: 1,
                    },
                };
                self.act(r, m, action);
            }
            Kind::AddLine => {
                let size = self.world.p.image_size as i64;
                let action = Action::AddLine {
                    object: self.rooms[r].open,
                    element: LineElement {
                        x0: i64::from(op.a & 0xFF) % size,
                        y0: 0,
                        x1: size - 1,
                        y1: i64::from(op.a >> 8) % size,
                        intensity: 190,
                    },
                };
                self.act(r, m, action);
            }
            Kind::DelElement => match self.rooms[r].live.front().copied() {
                Some(element) => {
                    let object = self.rooms[r].open;
                    self.act(r, m, Action::DeleteElement { object, element });
                }
                None => self.fail("delete", "no live element to delete".to_string()),
            },
            Kind::Chat => {
                let text = self.world.chats[op.a as usize % self.world.chats.len()].clone();
                self.act(r, m, Action::Chat { text });
            }
            Kind::Freeze => {
                let object = self.rooms[r].open;
                self.act(r, m, Action::Freeze { object });
            }
            Kind::Release => {
                let object = self.rooms[r].open;
                self.act(r, m, Action::Release { object });
            }
            Kind::OpLocal | Kind::OpGlobal => self.act(
                r,
                m,
                Action::ApplyOperation {
                    component: comp,
                    trigger_form: form,
                    operation: if form == 0 { "zoom" } else { "segmentation" }.to_string(),
                    global: op.kind == Kind::OpGlobal,
                },
            ),
            Kind::FetchHot => self.fetch(r, m, op.a as usize, false, false),
            Kind::FetchCold => self.fetch(r, m, op.a as usize, true, false),
            Kind::Render => {
                let m = lan_member(&self.rooms[r], m, self.world.p.members);
                let cold = self.world.p.hot_set < self.world.p.images;
                self.fetch(r, m, op.a as usize, cold, true);
            }
            Kind::Report => self.report(r, m),
            Kind::SaveDoc => self.save_doc(r, m),
            Kind::LeaveJoin => self.leave_join(r, m),
            Kind::SaveOpen => self.save_open(r, m, op.a as usize),
            Kind::Insert => self.insert(r, m, op.a as usize),
            Kind::Recycle => self.recycle(r),
            Kind::Tick => self.tick(),
            Kind::SlowResync => self.slow_resync(r, m),
            Kind::FreezeToggle => unreachable!("generator resolves toggles"),
        }
    }

    /// `act()` called -> every *other* member of the room has taken the
    /// resulting events off its stream.
    fn act(&mut self, r: usize, m: usize, action: Action) {
        let world = self.world;
        let probe = self.tracing_now && matches!(action, Action::Choose { .. }) && {
            self.acts_seen += 1;
            self.acts_seen.is_multiple_of(LADDER_EVERY)
        };
        let room = &mut self.rooms[r];
        let t0 = Instant::now();
        let res = world.cluster.act(room.id, &room.members[m].user, action);
        let t1 = Instant::now();
        if let Err(e) = res {
            return self.fail("act", e.to_string());
        }
        let (events, bad) = drain(room, world.p.members, Some(m), self.measuring);
        let t2 = Instant::now();
        let (_, bad_own) = drain_member(room, m, self.measuring);
        if let Some(why) = bad.or(bad_own) {
            return self.fail("act stream", why);
        }
        self.done(Class::Act, ns(t0, t2));
        if self.measuring {
            self.rec.drain_ns += ns(t1, t2);
            self.rec.drain_events += events;
        }
        let root = self.span(Call::Act, u32::MAX, t0, t1);
        self.span(Call::Drain, root, t1, t2);
        if probe {
            self.rung(Rung::ActFrontend, false, ns(t0, t1));
            self.rung(Rung::ActDrain, false, ns(t1, t2));
            self.act_ladder(r, m);
        }
    }

    /// The act ladder below the frontend: the same kind of action on the
    /// shard's own server (same room, so same state), then the core calls
    /// a choice costs on the harness's own copy of the record.
    fn act_ladder(&mut self, r: usize, m: usize) {
        let world = self.world;
        let pick = self.acts_seen / LADDER_EVERY;
        let choice = ViewerChoice {
            component: ComponentId(1 + (pick % u64::from(crate::script::COMPONENTS)) as u32),
            form: (pick % u64::from(crate::script::FORMS)) as usize,
        };
        let room = &mut self.rooms[r];
        let t0 = Instant::now();
        let res = world.cluster.shard_server(room.shard).act(
            room.id,
            &room.members[m].user,
            Action::Choose {
                component: choice.component,
                form: choice.form,
            },
        );
        let t1 = Instant::now();
        let (_, bad) = drain(room, world.p.members, None, self.measuring);
        if let Err(e) = res {
            return self.fail("ladder act", e.to_string());
        }
        if let Some(why) = bad {
            return self.fail("ladder act stream", why);
        }
        self.rung(Rung::ActServer, false, ns(t0, t1));
        let t2 = Instant::now();
        let chosen = self.core_session.choose(&self.core_doc, choice);
        let shown = self
            .core_engine
            .presentation_for(&self.core_doc, &self.core_session);
        let t3 = Instant::now();
        if chosen.is_err() || shown.is_err() {
            return self.fail("ladder core", "choose/presentation_for failed".to_string());
        }
        std::hint::black_box(shown.ok());
        self.rung(Rung::ActCore, false, ns(t2, t3));
    }

    /// `deliver_image()` called -> payload in hand (and, for a render,
    /// decoded into pixels).
    fn fetch(&mut self, r: usize, m: usize, idx: usize, cold: bool, render: bool) {
        let world = self.world;
        let probe = self.tracing_now && !render && {
            self.fetches_seen += 1;
            self.fetches_seen.is_multiple_of(LADDER_EVERY)
        };
        let room = &self.rooms[r];
        let member = &room.members[m];
        let object = world.image_ids[idx];
        let t0 = Instant::now();
        let res = world.cluster.deliver_image(room.id, &member.user, object);
        let t1 = Instant::now();
        let d = match res {
            Ok(d) => d,
            Err(e) => return self.fail("deliver_image", e.to_string()),
        };
        let link = member.link;
        let mut t2 = t1;
        if render {
            let decoded = layered::decode_prefix(&d.payload);
            t2 = Instant::now();
            match decoded {
                Ok((img, layers))
                    if img.width() == world.p.image_size && layers == d.layers.max(1) => {}
                Ok((img, layers)) => {
                    return self.fail(
                        "render",
                        format!("{}x{} from {layers} layers", img.width(), img.height()),
                    )
                }
                Err(e) => return self.fail("render", e.to_string()),
            }
        }
        // Oracle: what was delivered is a byte-prefix of what was stored.
        let stored = world.stream_of(idx);
        if d.payload.len() > stored.len() || d.payload[..] != stored[..d.payload.len()] {
            return self.fail(
                "deliver_image",
                format!("object {object}: not a stored prefix"),
            );
        }
        let class = match (render, cold) {
            (true, _) => Class::Render,
            (false, true) => Class::FetchCold,
            (false, false) => Class::FetchHot,
        };
        self.done(class, ns(t0, t2));
        if self.measuring {
            let vs = world.links[link].transfer_secs(d.payload.len() as u64);
            self.rec.ttfr_vus.record((vs * 1e6) as u64);
            self.rec.link_vs_sum[link] += vs;
            self.rec.link_n[link] += 1;
            self.rec.layers_sum += d.layers as u64;
            self.rec.deliveries += 1;
        }
        let root = self.span(Call::Deliver, u32::MAX, t0, t1);
        if render {
            self.span(Call::Decode, root, t1, t2);
        }
        if probe {
            self.rung(Rung::FetchFrontend, cold, ns(t0, t1));
            self.fetch_ladder(r, m, idx, cold);
        }
    }

    /// The fetch ladder: each lower layer's public entry point on a twin
    /// object of the same temperature class (another uniformly drawn
    /// object for a cold fetch, another hot one for a hot fetch).
    fn fetch_ladder(&mut self, r: usize, m: usize, idx: usize, cold: bool) {
        let world = self.world;
        let range = if cold {
            world.p.images
        } else {
            world.p.hot_set
        };
        let twin = |k: usize| (idx.wrapping_mul(2_654_435_761) + k * 40_503) % range;
        let room = &self.rooms[r];
        let user = room.members[m].user.clone();
        let (room_id, shard) = (room.id, room.shard);

        let object = world.image_ids[twin(1)];
        let t0 = Instant::now();
        let res = world
            .cluster
            .shard_server(shard)
            .deliver_image(room_id, &user, object);
        let t1 = Instant::now();
        if let Err(e) = res {
            return self.fail("ladder deliver_image", e.to_string());
        }
        self.rung(Rung::FetchServer, cold, ns(t0, t1));

        let object = world.image_ids[twin(2)];
        let t0 = Instant::now();
        let res = world.db.get_image_data(&user, object);
        let t1 = Instant::now();
        let payload = match res {
            Ok(p) => p,
            Err(e) => return self.fail("ladder get_image_data", e.to_string()),
        };
        self.rung(Rung::FetchMediadb, cold, ns(t0, t1));

        let object = world.image_ids[twin(3)];
        let pool_reads = || {
            let s = world.db.database().pool_stats();
            s.hits + s.misses
        };
        let pages_before = pool_reads();
        let t0 = Instant::now();
        let tx = world.db.database().begin_read();
        let t1 = Instant::now();
        let row = tx.as_ref().map(|tx| tx.get(IMAGE_TABLE, object));
        let t2 = Instant::now();
        let blob = match (&tx, row) {
            (Ok(tx), Ok(Ok(Some(row)))) => row[5].as_blob().and_then(|b| tx.get_blob(b)),
            _ => return self.fail("ladder storage read", format!("object {object}")),
        };
        let t3 = Instant::now();
        drop(tx);
        let pages = pool_reads().saturating_sub(pages_before);
        if blob.is_err() {
            return self.fail("ladder blob read", format!("object {object}"));
        }
        self.rung(Rung::FetchBeginRead, cold, ns(t0, t1));
        self.rung(Rung::FetchRowGet, cold, ns(t1, t2));
        self.rung(Rung::FetchBlobRead, cold, ns(t2, t3));
        self.rung(Rung::FetchPages, cold, pages);

        let t0 = Instant::now();
        let info = layered::info(&payload);
        let t1 = Instant::now();
        if info.is_err() {
            return self.fail(
                "ladder info",
                "stored stream has no LIC1 header".to_string(),
            );
        }
        self.rung(Rung::FetchInfo, cold, ns(t0, t1));
    }

    fn report(&mut self, r: usize, m: usize) {
        let room = &self.rooms[r];
        let member = &room.members[m];
        let (_, bps, _) = LINK_CLASSES[member.link];
        let t0 = Instant::now();
        let res = self.world.cluster.report_transfer(
            room.id,
            &member.user,
            (bps / 8.0 * 0.5) as u64,
            0.5,
        );
        let t1 = Instant::now();
        match res {
            Ok(()) => {
                self.done(Class::Report, ns(t0, t1));
                self.span(Call::Report, u32::MAX, t0, t1);
            }
            Err(e) => self.fail("report_transfer", e.to_string()),
        }
    }

    fn save_doc(&mut self, r: usize, m: usize) {
        let world = self.world;
        let room = &self.rooms[r];
        let t0 = Instant::now();
        let res = world.cluster.save_document(room.id, &room.members[m].user);
        let t1 = Instant::now();
        match res {
            Ok(()) => {
                world
                    .user_bytes
                    .fetch_add(world.pristine_doc.len() as u64, Ordering::Relaxed);
                self.done(Class::SaveDoc, ns(t0, t1));
                self.span(Call::SaveDoc, u32::MAX, t0, t1);
            }
            Err(e) => self.fail("save_document", e.to_string()),
        }
    }

    fn leave_join(&mut self, r: usize, m: usize) {
        let world = self.world;
        let measuring = self.measuring;
        let room = &mut self.rooms[r];
        let user = room.members[m].user.clone();
        let t0 = Instant::now();
        let res = world.cluster.leave(room.id, &user);
        let t1 = Instant::now();
        if let Err(e) = res {
            return self.fail("leave", e.to_string());
        }
        room.members[m].conn = None;
        room.members[m].disturbed = true;
        let (_, bad) = drain(room, world.p.members, Some(m), measuring);
        let req = world::join_request(&world.p, m, &user);
        let t2 = Instant::now();
        let res = world.cluster.join(room.id, &req);
        let t3 = Instant::now();
        let conn = match res {
            Ok(conn) => conn,
            Err(e) => return self.fail("join", e.to_string()),
        };
        room.members[m].conn = Some(conn);
        room.members[m].anchored = false;
        let (_, bad2) = drain(room, world.p.members, None, measuring);
        if let Some(why) = bad.or(bad2) {
            return self.fail("join stream", why);
        }
        self.done(Class::Leave, ns(t0, t1));
        self.done(Class::Join, ns(t2, t3));
        self.span(Call::Leave, u32::MAX, t0, t1);
        self.span(Call::Join, u32::MAX, t2, t3);
    }

    /// `save_and_close_image` of the open image (checked by reading the
    /// stored overlay back), then `open_image` of the next one.
    fn save_open(&mut self, r: usize, m: usize, next_idx: usize) {
        let world = self.world;
        let room = &mut self.rooms[r];
        let user = room.members[m].user.clone();
        let object = room.open;
        let t0 = Instant::now();
        let res = world.cluster.save_and_close_image(room.id, &user, object);
        let t1 = Instant::now();
        if let Err(e) = res {
            return self.fail("save_and_close_image", e.to_string());
        }
        // Oracle: the saved overlay reads back with the element count the
        // room's event stream announced.
        let expect = room.live.len();
        let stored = match world.db.get_image(ADMIN, object) {
            Ok(img) => img,
            Err(e) => return self.fail("save read-back", e.to_string()),
        };
        let got = stored
            .cm
            .get(8..12)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize);
        if got != Some(expect) {
            return self.fail(
                "save read-back",
                format!("object {object}: overlay holds {got:?} elements, expected {expect}"),
            );
        }
        world.user_bytes.fetch_add(
            (stored.cm.len() + stored.data.len()) as u64,
            Ordering::Relaxed,
        );
        room.live.clear();
        let next = world.image_ids[next_idx];
        let t2 = Instant::now();
        let res = world.cluster.open_image(room.id, &user, next);
        let t3 = Instant::now();
        if let Err(e) = res {
            return self.fail("open_image", e.to_string());
        }
        room.open = next;
        self.done(Class::Save, ns(t0, t1));
        self.done(Class::Open, ns(t2, t3));
        self.span(Call::Save, u32::MAX, t0, t1);
        self.span(Call::Open, u32::MAX, t2, t3);
    }

    fn insert(&mut self, r: usize, m: usize, variant: usize) {
        let world = self.world;
        let data = world.stream_of(variant).to_vec();
        world
            .user_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let img = ImageObject {
            name: "new-study".to_string(),
            quality: 0,
            texts: String::new(),
            cm: Vec::new(),
            data,
        };
        let user = &self.rooms[r].members[m].user;
        let t0 = Instant::now();
        let res = world.db.insert_image(user, &img);
        let t1 = Instant::now();
        match res {
            Ok(_) => {
                self.done(Class::Insert, ns(t0, t1));
                self.span(Call::Insert, u32::MAX, t0, t1);
            }
            Err(e) => self.fail("insert_image", e.to_string()),
        }
    }

    /// The consultation ends and the next begins: close the room, store
    /// the next patient's pristine record, and set the room up again.
    fn recycle(&mut self, r: usize) {
        let world = self.world;
        let room = &mut self.rooms[r];
        let t0 = Instant::now();
        let res = world
            .cluster
            .close_room(room.id)
            .map_err(rcmo::Error::from)
            .and_then(|()| {
                for member in &mut room.members {
                    member.conn = None;
                    member.disturbed = true;
                }
                world.db.update_document(
                    ADMIN,
                    room.doc_id,
                    &DocumentObject {
                        title: format!("record-{}", room.global),
                        data: world.pristine_doc.clone(),
                    },
                )?;
                room.open =
                    world.image_ids[crate::script::initial_open(&world.p, room.global) as usize];
                world::open_room(world, room)
            });
        let t1 = Instant::now();
        match res {
            Ok(joins) => {
                for us in joins {
                    self.done(Class::Join, (us * 1e3) as u64);
                }
                self.done(Class::Recycle, ns(t0, t1));
                self.span(Call::Recycle, u32::MAX, t0, t1);
            }
            Err(e) => self.fail("recycle", e.to_string()),
        }
    }

    /// The housekeeping tick every deployment runs: without it the journal
    /// tap channels grow without bound.
    fn tick(&mut self) {
        let t0 = Instant::now();
        self.world.cluster.advance(0.5);
        let res = self.world.cluster.maintain_replicas();
        let t1 = Instant::now();
        match res {
            Ok(_) => {
                self.done(Class::Tick, ns(t0, t1));
                self.span(Call::Tick, u32::MAX, t0, t1);
            }
            Err(e) => self.fail("maintain_replicas", e.to_string()),
        }
    }

    /// A slow consumer's periodic visit: take what its bounded queue still
    /// held (gap-free up to the eviction), then resync from there.
    fn slow_resync(&mut self, r: usize, m: usize) {
        let world = self.world;
        let measuring = self.measuring;
        let room = &mut self.rooms[r];
        let (_, bad) = drain_member(room, m, measuring);
        let user = room.members[m].user.clone();
        let last = room.members[m].last_seq;
        let t0 = Instant::now();
        let res = world.cluster.resync(room.id, &user, last);
        let t1 = Instant::now();
        let (conn, catch_up) = match res {
            Ok(x) => x,
            Err(e) => return self.fail("resync", e.to_string()),
        };
        let member = &mut room.members[m];
        member.conn = Some(conn);
        member.disturbed = true;
        let mut gap = None;
        match catch_up {
            Resync::Snapshot(s) => member.last_seq = s.seq,
            Resync::Events(evs) => {
                for ev in evs {
                    if ev.seq != member.last_seq + 1 {
                        gap = Some(format!("replay gap at {}", ev.seq));
                    }
                    member.last_seq = ev.seq;
                }
            }
        }
        member.anchored = true;
        let (_, bad2) = drain(room, world.p.members, None, measuring);
        if let Some(why) = bad.or(gap).or(bad2) {
            return self.fail("resync stream", why);
        }
        self.done(Class::Resync, ns(t0, t1));
        self.span(Call::Resync, u32::MAX, t0, t1);
    }
}

/// The nearest member at or after `from` on a LAN-class link: renders are
/// always full-depth, so `render_p50_ms` is one mode, not four.
fn lan_member(room: &RoomCtx, from: usize, members: usize) -> usize {
    (0..members)
        .map(|k| (from + k) % members)
        .find(|&m| room.members[m].link == LINK_CLASSES.len() - 1 && room.members[m].conn.is_some())
        .unwrap_or(from)
}

/// Takes every pending event off the streams of the first `members`
/// members (all but `skip`), checking each stream is gap-free. Returns the
/// events taken and the first violation.
fn drain(
    room: &mut RoomCtx,
    members: usize,
    skip: Option<usize>,
    counting: bool,
) -> (u64, Option<String>) {
    let mut events = 0;
    let mut bad = None;
    for m in 0..members {
        if Some(m) == skip {
            continue;
        }
        let (n, b) = drain_member(room, m, counting);
        events += n;
        bad = bad.or(b);
    }
    (events, bad)
}

fn drain_member(room: &mut RoomCtx, m: usize, counting: bool) -> (u64, Option<String>) {
    let RoomCtx {
        members,
        live,
        open,
        ..
    } = room;
    let member: &mut MemberCtx = &mut members[m];
    let Some(conn) = &member.conn else {
        return (0, None);
    };
    let mut events = 0;
    let mut bad = None;
    while let Some(ev) = conn.events.try_recv() {
        if member.anchored && ev.seq != member.last_seq + 1 {
            bad = Some(format!(
                "{}: seq {} after {}",
                member.user, ev.seq, member.last_seq
            ));
        }
        member.last_seq = ev.seq;
        member.anchored = true;
        events += 1;
        // Member 0's stream is where the harness learns element ids.
        if m == 0 {
            if let RoomEvent::ObjectChanged { object, delta, .. } = &ev.event {
                if object == open {
                    match delta {
                        Delta::TextAdded { id, .. } | Delta::LineAdded { id, .. } => {
                            live.push_back(*id)
                        }
                        Delta::ElementDeleted { id } => live.retain(|e| e != id),
                    }
                }
            }
        }
    }
    if counting {
        member.seen += events;
    }
    (events, bad)
}
