//! Side probes of a traced run: small experiments around single public
//! entry points that the main script does not isolate — frontend scaling
//! from one driver to two, the fan-out slope per member, codec and
//! imaging costs, and a few database calls. Each runs after the timed
//! phase on state of its own (or on the run's database where it must).

use crate::driver::{Class, Driver};
use crate::hist::median;
use crate::params::{Mix, Params, Workload};
use crate::rng::SplitMix64;
use crate::script::{self, Kind};
use crate::world::{self, World, ADMIN};
use rcmo::codec::layered;
use rcmo::core::{PartialAssignment, PrefetchPlanner};
use rcmo::imaging::{AnnotatedImage, LineElement, TextElement};
use std::time::Instant;

const ACT_ONLY: Mix = &[(Kind::Choose, 70), (Kind::Chat, 30)];
const CHAT_ONLY: Mix = &[(Kind::Chat, 100)];

pub struct SideProbes {
    pub scale_2t: f64,
    pub per_member_ns: f64,
    pub join_last_us: f64,
    pub decode_full_ms: f64,
    pub decode_base_ms: f64,
    pub info_us: f64,
    pub bytes_per_pixel: f64,
    pub render_us: f64,
    pub overlay_bytes: f64,
    pub prefetch_plan_us: f64,
    pub list_documents_us: f64,
    pub update_image_us: f64,
    pub checkpoint_us: f64,
    pub timer_overhead_ns: f64,
}

/// Median of `n` timings of `f`, in µs.
fn time_us(n: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..n)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    )
}

/// A small in-memory act-only fixture: `drivers` threads over `rooms`
/// rooms each of `members` members, run for `seconds`; returns total
/// acts/s and the mean act latency in ns.
fn act_rate(
    drivers: usize,
    rooms: usize,
    members: usize,
    mix: Mix,
    seconds: f64,
    seed: &SplitMix64,
) -> (f64, f64, Vec<f64>) {
    let mut p = Params::full(Workload::Consult);
    p.file_backed = false;
    p.rooms_per_driver = rooms;
    p.members = members;
    p.images = 1;
    p.distinct_images = 1;
    p.hot_set = 1;
    p.image_size = 64;
    p.mixes = vec![(mix, 400_000); drivers];
    p.rate_drivers = drivers;
    p.recycle_every = 0;
    p.tick_every = 2000;
    p.queue_bound = None;
    let (world, rooms) = world::build(&p, seed, 90 + drivers);
    let scripts: Vec<_> = (0..drivers)
        .map(|d| script::generate(&p, d, seed, (seconds * 400_000.0) as usize + 64))
        .collect();
    let world = &world;
    let recs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = rooms
            .into_iter()
            .enumerate()
            .map(|(d, rooms)| {
                let ops = &scripts[d];
                s.spawn(move || {
                    let mut drv = Driver::new(d, world, rooms, false);
                    drv.warm_up(&ops[..64]);
                    drv.run_timed(&ops[64..], seconds, false);
                    drv.rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe driver"))
            .collect()
    });
    let acts: u64 = recs
        .iter()
        .map(|r| r.class(Class::Act).total().count())
        .sum();
    let sum: u64 = recs.iter().map(|r| r.class(Class::Act).total().sum()).sum();
    let elapsed = recs.iter().map(|r| r.elapsed_s).fold(0.0, f64::max);
    (
        acts as f64 / elapsed.max(1e-9),
        sum as f64 / acts.max(1) as f64,
        world.setup_join_us.clone(),
    )
}

pub fn run(world: &World, rooms: &[world::RoomCtx], seed: &SplitMix64, smoke: bool) -> SideProbes {
    let secs = if smoke { 0.05 } else { 0.3 };
    let big = if smoke { 40 } else { 500 };

    // Frontend scaling: the same act-only traffic from one driver and
    // from two, eight rooms each.
    let (one, _, _) = act_rate(1, 8, 4, ACT_ONLY, secs, seed);
    let (two, _, _) = act_rate(2, 8, 4, ACT_ONLY, secs, seed);

    // Fan-out slope: mean act + drain time in a 10-member room and in a
    // big one, per extra member.
    let (_, small_ns, _) = act_rate(1, 1, 10, CHAT_ONLY, secs, seed);
    let (_, big_ns, joins) = act_rate(1, 1, big, CHAT_ONLY, secs, seed);

    let stream = &world.streams[0];
    let info = layered::info(stream).expect("stored stream parses");
    let base = &stream[..info.prefix_for_layer_count(1)];
    let n = if smoke { 3 } else { 9 };
    let decode_full_us = time_us(n, || {
        std::hint::black_box(layered::decode_prefix(stream).expect("decodes"));
    });
    let decode_base_us = time_us(n, || {
        std::hint::black_box(layered::decode_prefix(base).expect("base decodes"));
    });
    let info_us = time_us(200, || {
        std::hint::black_box(layered::info(stream).expect("parses"));
    });

    let (image, _) = layered::decode_prefix(stream).expect("decodes");
    let size = image.width();
    let mut annotated = AnnotatedImage::new(image);
    for i in 0..script::MAX_LIVE_ELEMENTS as usize {
        if i % 2 == 0 {
            annotated.add_line(LineElement {
                x0: (i * 7 % size) as i64,
                y0: 0,
                x1: size as i64 - 1,
                y1: (i * 13 % size) as i64,
                intensity: 190,
            });
        } else {
            annotated.add_text(TextElement {
                x: i * 5 % (size / 2),
                y: i * 11 % (size - 8),
                text: "LESION".to_string(),
                intensity: 255,
                scale: 1,
            });
        }
    }
    let render_us = time_us(n, || {
        std::hint::black_box(annotated.render());
    });

    let doc = rcmo::core::MultimediaDocument::from_bytes(&world.pristine_doc).expect("decodes");
    let planner = PrefetchPlanner::default();
    let evidence = PartialAssignment::empty(doc.net().len());
    let prefetch_plan_us = time_us(50, || {
        std::hint::black_box(planner.plan(&doc, &evidence, 64 << 20).expect("plans"));
    });

    // On the run's own database and rooms.
    let user = &rooms[0].members[0].user;
    let list_documents_us = time_us(50, || {
        std::hint::black_box(world.db.list_documents(user).expect("lists"));
    });
    let scratch = world.image_ids[world.image_ids.len() - 1];
    let update_image_us = time_us(if smoke { 5 } else { 30 }, || {
        let mut img = world.db.get_image(ADMIN, scratch).expect("reads");
        img.cm = annotated.overlay_to_bytes();
        world
            .db
            .update_image(ADMIN, scratch, &img)
            .expect("updates");
    });
    let checkpoint_us = time_us(if smoke { 5 } else { 30 }, || {
        world
            .cluster
            .checkpoint_room(rooms[0].id)
            .expect("checkpoints");
    });

    let mut timer = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        for _ in 0..1000 {
            std::hint::black_box(Instant::now());
        }
        timer.push(t.elapsed().as_nanos() as f64 / 1000.0);
    }

    SideProbes {
        scale_2t: two / one.max(1e-9),
        per_member_ns: (big_ns - small_ns).max(0.0) / (big - 10) as f64,
        join_last_us: joins.last().copied().unwrap_or(0.0),
        decode_full_ms: decode_full_us / 1e3,
        decode_base_ms: decode_base_us / 1e3,
        info_us,
        bytes_per_pixel: stream.len() as f64 / (info.width * info.height) as f64,
        render_us,
        overlay_bytes: annotated.overlay_to_bytes().len() as f64,
        prefetch_plan_us,
        list_documents_us,
        update_image_us,
        checkpoint_us,
        timer_overhead_ns: median(timer),
    }
}
