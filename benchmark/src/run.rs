//! One benchmark run: generate the scripts, set the workload up (several
//! times, for a steady `setup_s`), run the timed phase on the driver
//! threads, check the outputs, and assemble the metrics.

use crate::driver::{Driver, Recorder, SPAN_NAMES};
use crate::hist::median;
use crate::params::{Params, Workload};
use crate::probes::{self, SideProbes};
use crate::report::{self, Metric};
use crate::rng::SplitMix64;
use crate::script;
use crate::world::{self, RoomCtx, World};
use rcmo::obs::{MetricsSnapshot, Registry};
use std::io::Write as _;
use std::sync::Barrier;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Everything the metric assembly reads.
pub struct Measured<'a> {
    pub cfg: &'a RunConfig,
    pub p: &'a Params,
    pub world: &'a World,
    /// All drivers merged.
    pub all: &'a Recorder,
    pub per_driver: &'a [Recorder],
    pub setup_s: f64,
    /// Global registry diff over the timed phase.
    pub obs: &'a MetricsSnapshot,
    pub side: Option<&'a SideProbes>,
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let p = if cfg.smoke {
        Params::smoke(cfg.workload)
    } else {
        Params::full(cfg.workload)
    };
    let seed = SplitMix64::new(cfg.seed);
    let drivers = p.drivers();
    let scripts: Vec<Vec<script::Op>> = (0..drivers)
        .map(|d| {
            let (mix, rate_cap) = p.mixes[d];
            let len = if script::wraps(mix) {
                p.warm_ops + 200_000
            } else {
                p.warm_ops + (cfg.seconds * rate_cap as f64) as usize + 64
            };
            script::generate(&p, d, &seed, len)
        })
        .collect();
    println!(
        "workload {} seed {} seconds {} traced {} drivers {} cores {} script {:016x}",
        p.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.traced,
        drivers,
        std::thread::available_parallelism().map_or(0, usize::from),
        script::hash(&scripts)
    );

    let mut setup_times = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        let is_final = k + 1 == SETUPS;
        last = None; // drop the previous set-up's state before building the next
        let t_setup = Instant::now();
        let (world, rooms) = world::build(&p, &seed, k);
        let barrier = Barrier::new(drivers + 1);
        let mut before = MetricsSnapshot::default();
        let finished: Vec<(Vec<RoomCtx>, Recorder)> = std::thread::scope(|s| {
            let handles: Vec<_> = rooms
                .into_iter()
                .enumerate()
                .map(|(d, rooms)| {
                    let (world, barrier, ops) = (&world, &barrier, &scripts[d]);
                    let warm = p.warm_ops.min(ops.len());
                    let wraps = script::wraps(p.mixes[d].0);
                    s.spawn(move || {
                        let mut drv = Driver::new(d, world, rooms, cfg.traced);
                        drv.warm_up(&ops[..warm]);
                        barrier.wait();
                        if is_final {
                            barrier.wait();
                            drv.run_timed(&ops[warm..], cfg.seconds, wraps);
                        }
                        (drv.rooms, drv.rec)
                    })
                })
                .collect();
            barrier.wait();
            setup_times.push(t_setup.elapsed().as_secs_f64());
            if is_final {
                before = Registry::global().snapshot();
                barrier.wait();
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread"))
                .collect()
        });
        if is_final {
            let obs = Registry::global().snapshot().diff(&before);
            last = Some((world, finished, obs));
        }
    }
    let (world, finished, obs) = last.expect("final set-up ran");
    let (rooms, per_driver): (Vec<Vec<RoomCtx>>, Vec<Recorder>) = finished.into_iter().unzip();
    let mut all = Recorder::new(0);
    for r in &per_driver {
        all.merge(r);
    }

    let mut errors = all.errors.clone();
    errors.extend(oracle(&p, &world, &rooms, &all, &obs));
    if all.script_exhausted {
        errors.push("script exhausted before the timed phase ended; raise the rate cap".into());
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }

    let side = cfg
        .traced
        .then(|| probes::run(&world, &rooms[0], &seed, cfg.smoke));
    let measured = Measured {
        cfg,
        p: &p,
        world: &world,
        all: &all,
        per_driver: &per_driver,
        setup_s: median(setup_times),
        obs: &obs,
        side: side.as_ref(),
    };
    let metrics = if cfg.traced {
        write_trace(&p, &per_driver);
        report::per_layer(&measured)
    } else {
        report::end_to_end(&measured)
    };
    let seg_s = cfg.seconds / crate::hist::SEGMENTS as f64;
    let all_segments: Vec<usize> = (0..crate::hist::SEGMENTS).collect();
    let kept = report::quiet_segments(&measured, &all_segments);
    let rates: Vec<String> = all_segments
        .iter()
        .map(|&s| {
            let ops: u64 = per_driver.iter().map(|r| r.user_ops[s]).sum();
            let mark = if kept.contains(&s) { "" } else { "-" };
            format!("{mark}{:.0}", ops as f64 / seg_s)
        })
        .collect();
    println!(
        "user ops/s by segment, all drivers (- = not among the kept fastest): {}",
        rates.join(" ")
    );
    report::print_table(&metrics);
    let failed = all.failed + (errors.len() - all.errors.len()) as u64;
    RunOutput {
        correct: errors.is_empty() && all.failed == 0,
        attempted: all.attempted.max(1),
        failed,
        metrics,
    }
}

/// Whole-run output checks (per-op checks live in the driver).
fn oracle(
    p: &Params,
    world: &World,
    rooms: &[Vec<RoomCtx>],
    all: &Recorder,
    obs: &MetricsSnapshot,
) -> Vec<String> {
    let mut errors = Vec::new();
    if p.file_backed {
        let report = world.db.database().check_integrity();
        if !report.is_ok() {
            errors.push(format!("check_integrity: {:?}", report.errors));
        }
    }
    // Viewers that never left, rejoined or resynced all saw the same
    // number of events.
    for room in rooms.iter().flatten() {
        let mut seen = room.members[..p.members]
            .iter()
            .filter(|m| !m.disturbed)
            .map(|m| m.seen);
        if let Some(first) = seen.next() {
            if seen.any(|s| s != first) {
                errors.push(format!(
                    "room {}: undisturbed members saw different event counts",
                    room.id
                ));
            }
        }
    }
    // Storage reads stay O(rooms x objects): a room incarnation loads each
    // object at most once, plus once more after every save invalidates it.
    // (Ladder probes read the database directly and are allowed for.)
    if p.workload == Workload::Consult {
        let reads = obs
            .counters
            .get("mediadb.image.data_read.count")
            .copied()
            .unwrap_or(0);
        let incarnations: u64 = rooms.iter().flatten().map(|r| r.incarnations).sum();
        let objects = (p.hot_set + script::WORK_IMAGES) as u64;
        let saves = all.class(crate::driver::Class::Save).total().count();
        let probes = all.rung(crate::driver::Rung::FetchMediadb, false).count()
            + all.rung(crate::driver::Rung::FetchMediadb, true).count();
        let bound = incarnations * objects + saves + probes;
        if reads > bound {
            errors.push(format!(
                "storage reads {reads} exceed rooms x objects bound {bound}"
            ));
        }
    }
    errors
}

/// Writes the traced run's spans to `benchmark/out/trace-<workload>.jsonl`.
fn write_trace(p: &Params, per_driver: &[Recorder]) {
    let dir = world::out_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("trace-{}.jsonl", p.workload.name()));
    let Ok(file) = std::fs::File::create(&path) else {
        eprintln!("cannot write {}", path.display());
        return;
    };
    let mut out = std::io::BufWriter::new(file);
    let mut spans = 0usize;
    for (d, rec) in per_driver.iter().enumerate() {
        for (i, s) in rec.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"driver\":{d},\"span\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op, SPAN_NAMES[s.name as usize], s.start_ns, s.end_ns
            );
            spans += 1;
        }
    }
    if out.flush().is_ok() {
        println!("{spans} spans -> {}", path.display());
    }
}
