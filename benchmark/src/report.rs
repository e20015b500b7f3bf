//! Metric assembly: the twelve end-to-end metrics (untraced run) and the
//! per-layer table (traced run), by the names `BENCHMARK.json` lists.

use crate::driver::{Class, Rung};
use crate::hist::{median, Hist, SegHist, KEPT_SEGMENTS, SEGMENTS};
use crate::run::Measured;
use crate::world::LINK_CLASSES;
use rcmo::obs::HistogramSnapshot;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// A per-segment percentile needs this many samples in every segment;
/// below it the whole phase is one sample set.
const MIN_SEGMENT_SAMPLES: u64 = 30;

/// Median over segments of the per-segment quantile, in ns. With few
/// samples the segments are folded first, so a rare class still reports
/// a percentile of all its samples instead of a median of noise.
fn seg_quantile(h: &SegHist, q: f64, segs: &[usize]) -> f64 {
    let need = if q > 0.9 {
        100 * MIN_SEGMENT_SAMPLES
    } else {
        MIN_SEGMENT_SAMPLES
    };
    if segs.iter().all(|&s| h.seg(s).count() >= need) {
        h.seg_median_quantile(q, segs)
    } else {
        let mut all = Hist::new();
        for &s in segs {
            all.merge(h.seg(s));
        }
        all.quantile(q)
    }
}

fn merged(m: &Measured, classes: &[Class]) -> SegHist {
    let mut h = SegHist::new();
    for &c in classes {
        h.merge(m.all.class(c));
    }
    h
}

/// Completed user ops per second: median over segments of the segment's
/// rate, over the drivers `Params::rate_drivers` counts.
fn ops_per_s(m: &Measured, segs: &[usize]) -> f64 {
    let seg_s = m.cfg.seconds / SEGMENTS as f64;
    let counted = &m.per_driver[..m.p.rate_drivers];
    median(
        segs.iter()
            .map(|&s| counted.iter().map(|r| r.user_ops[s]).sum::<u64>() as f64 / seg_s)
            .collect(),
    )
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `KEPT_SEGMENTS` fastest of `among`, by user ops completed (each
/// driver's count taken relative to its own mean, so a fast reader does
/// not outvote a slow writer). Interference from the host — a stolen
/// core, a neighbour's cache traffic — only ever slows a segment, so the
/// faster half is the less disturbed half; parent and change are
/// filtered alike.
pub fn quiet_segments(m: &Measured, among: &[usize]) -> Vec<usize> {
    let score = |s: usize| -> f64 {
        m.per_driver
            .iter()
            .map(|r| {
                let total: u64 = r.user_ops.iter().sum();
                r.user_ops[s] as f64 * SEGMENTS as f64 / total.max(1) as f64
            })
            .sum()
    };
    let mut ranked: Vec<usize> = among.to_vec();
    ranked.sort_by(|&a, &b| score(b).partial_cmp(&score(a)).expect("finite"));
    ranked.truncate(KEPT_SEGMENTS.min(among.len()).max(1));
    ranked.sort_unstable();
    ranked
}

pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let all_segments: Vec<usize> = (0..SEGMENTS).collect();
    let segs = quiet_segments(m, &all_segments);
    let act = m.all.class(Class::Act);
    let join = m.all.class(Class::Join);
    let fetch = merged(m, &[Class::FetchHot, Class::FetchCold]);
    vec![
        metric("setup_s", "s", m.setup_s),
        metric("ops_per_s", "1/s", ops_per_s(m, &segs)),
        metric("act_p50_us", "us", seg_quantile(act, 0.5, &segs) / 1e3),
        metric("join_p50_us", "us", seg_quantile(join, 0.5, &segs) / 1e3),
        metric("fetch_p50_us", "us", seg_quantile(&fetch, 0.5, &segs) / 1e3),
        metric(
            "render_p50_ms",
            "ms",
            seg_quantile(m.all.class(Class::Render), 0.5, &segs) / 1e6,
        ),
        metric(
            "open_p50_ms",
            "ms",
            seg_quantile(m.all.class(Class::Open), 0.5, &segs) / 1e6,
        ),
        metric(
            "save_p50_ms",
            "ms",
            seg_quantile(m.all.class(Class::Save), 0.5, &segs) / 1e6,
        ),
        metric("ttfr_p99_vs", "vs", m.all.ttfr_vus.quantile(0.99) / 1e6),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// Quantile of an `rcmo-obs` histogram, interpolated inside its (coarse,
/// 1-2-5) bucket so the figure moves when the distribution does.
fn obs_quantile(h: Option<&HistogramSnapshot>, q: f64) -> f64 {
    let Some(h) = h else { return 0.0 };
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut acc = 0.0;
    for (i, &c) in h.counts.iter().enumerate() {
        let next = acc + c as f64;
        if next >= target && c > 0 {
            let lo = if i == 0 { 0.0 } else { h.bounds[i - 1] as f64 };
            let hi = h.bounds.get(i).map_or(h.max as f64, |&b| b as f64).max(lo);
            return lo + (hi - lo) * ((target - acc) / c as f64);
        }
        acc = next;
    }
    h.max as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let side = m.side.expect("traced runs carry side probes");
    let obs = m.obs;
    let ctr = |name: &str| obs.counters.get(name).copied().unwrap_or(0) as f64;
    let hist = |name: &str| obs.histograms.get(name);
    let hcount = |name: &str| hist(name).map_or(0.0, |h| h.count as f64);
    let hsum = |name: &str| hist(name).map_or(0.0, |h| h.sum as f64);
    let user_ops: f64 = m
        .per_driver
        .iter()
        .map(|r| r.user_ops.iter().sum::<u64>())
        .sum::<u64>() as f64;
    // Counts are reported per thousand user ops: the run is bounded by
    // time, so a raw count would measure speed, not work per op.
    let per_kop = |count: f64| ratio(count * 1e3, user_ops);
    let p50_us = |h: &Hist| h.quantile(0.5) / 1e3;
    let all = m.all;
    // A workload's fetches are mostly cold (archive) or mostly hot; the
    // lower rungs are read from the temperature that dominates.
    let cold =
        all.rung(Rung::FetchFrontend, true).count() > all.rung(Rung::FetchFrontend, false).count();
    let rung_us = |r: Rung| p50_us(all.rung(r, cold));
    let act_rung_us = |r: Rung| p50_us(all.rung(r, false));

    let traced: Vec<usize> = (0..SEGMENTS).filter(|s| s % 2 == 0).collect();
    let plain: Vec<usize> = (0..SEGMENTS).filter(|s| s % 2 == 1).collect();
    let fetch = merged(m, &[Class::FetchHot, Class::FetchCold]).total();
    let tick = all.class(Class::Tick).total();
    let save = all.class(Class::Save).total();

    let frontend_act_self =
        (act_rung_us(Rung::ActFrontend) - act_rung_us(Rung::ActServer)).max(0.0);
    let server_act_self = (act_rung_us(Rung::ActServer) - act_rung_us(Rung::ActCore)).max(0.0);
    let act_ladder_total = act_rung_us(Rung::ActFrontend) + act_rung_us(Rung::ActDrain);
    let act_attributed = frontend_act_self
        + server_act_self
        + act_rung_us(Rung::ActCore)
        + act_rung_us(Rung::ActDrain);

    let storage_rungs =
        rung_us(Rung::FetchBeginRead) + rung_us(Rung::FetchRowGet) + rung_us(Rung::FetchBlobRead);
    let frontend_fetch_self = (rung_us(Rung::FetchFrontend) - rung_us(Rung::FetchServer)).max(0.0);
    let mediadb_self = (rung_us(Rung::FetchMediadb) - storage_rungs).max(0.0);
    // A hot fetch ends in the room cache; a cold one goes on down.
    let below_server = if cold {
        rung_us(Rung::FetchMediadb)
    } else {
        0.0
    };
    let delivery_self =
        (rung_us(Rung::FetchServer) - below_server - rung_us(Rung::FetchInfo)).max(0.0);
    let fetch_attributed = frontend_fetch_self
        + delivery_self
        + rung_us(Rung::FetchInfo)
        + if cold {
            mediadb_self + storage_rungs
        } else {
            0.0
        };

    let (data_bytes, wal_bytes) = m.world.db_file_bytes();
    let user_bytes = m
        .world
        .user_bytes
        .load(std::sync::atomic::Ordering::Relaxed) as f64;
    let pool_reads = ctr("storage.pool.hit.count") + ctr("storage.pool.miss.count");
    let cache_reads =
        ctr("server.delivery.cache.hit.count") + ctr("server.delivery.cache.miss.count");
    let snap_reads =
        ctr("server.room.snapshot_cache.hit.count") + ctr("server.room.snapshot_cache.miss.count");
    let memo = ctr("core.reconfig.memo.hit.count") + ctr("core.reconfig.memo.miss.count");
    let busy_s = m.cfg.seconds * m.per_driver.len() as f64;

    let mut out = vec![
        // frontend
        metric("frontend.self_us", "us", frontend_act_self),
        metric("frontend.fetch_self_us", "us", frontend_fetch_self),
        metric(
            "frontend.ingress_wait_p99_us",
            "us",
            obs_quantile(hist("cluster.shard.ingress.wait.us"), 0.99),
        ),
        metric(
            "frontend.route_calls",
            "1/kop",
            per_kop(ctr("cluster.directory.lookup.count")),
        ),
        metric(
            "frontend.route_retries",
            "1/kop",
            per_kop(ctr("cluster.route.retry.count")),
        ),
        metric("frontend.scale_2t", "ratio", side.scale_2t),
        metric("frontend.checkpoint_us", "us", side.checkpoint_us),
        metric("frontend.housekeeping_p50_us", "us", p50_us(&tick)),
        metric(
            "frontend.housekeeping_max_us",
            "us",
            tick.max() as f64 / 1e3,
        ),
        metric(
            "frontend.journal_compactions",
            "1/kop",
            per_kop(ctr("cluster.journal.compact.count")),
        ),
        metric(
            "frontend.journal_evicted",
            "1/kop",
            per_kop(ctr("cluster.journal.evicted.count")),
        ),
        // server
        metric("server.self_us", "us", server_act_self),
        metric(
            "server.lock_wait_p99_us",
            "us",
            obs_quantile(hist("server.room.lock.wait.us"), 0.99),
        ),
        metric(
            "server.lock_hold_p50_us",
            "us",
            obs_quantile(hist("server.room.lock.hold.us"), 0.5),
        ),
        metric(
            "server.map_reads",
            "1/kop",
            per_kop(ctr("server.rooms.map.read.count")),
        ),
        metric(
            "server.denied",
            "1/kop",
            per_kop(ctr("server.room.denied.count")),
        ),
        // core
        metric("core.choose_us", "us", act_rung_us(Rung::ActCore)),
        metric(
            "core.reconfig_p50_us",
            "us",
            obs_quantile(hist("core.presentation.reconfig.us"), 0.5),
        ),
        metric(
            "core.memo_hit_ratio",
            "ratio",
            ratio(ctr("core.reconfig.memo.hit.count"), memo),
        ),
        metric("core.prefetch_plan_us", "us", side.prefetch_plan_us),
        // fan-out
        metric(
            "fanout.broadcast_p50_us",
            "us",
            obs_quantile(hist("server.room.broadcast.us"), 0.5),
        ),
        metric("fanout.per_member_ns", "ns", side.per_member_ns),
        metric(
            "fanout.drain_per_event_ns",
            "ns",
            ratio(all.drain_ns as f64, all.drain_events as f64),
        ),
        metric(
            "fanout.encodes",
            "1/kop",
            per_kop(ctr("server.room.encode.count")),
        ),
        metric(
            "fanout.deliveries",
            "1/kop",
            per_kop(ctr("server.room.delivered.count")),
        ),
        metric(
            "fanout.delivered_bytes",
            "B/kop",
            per_kop(ctr("server.room.delivered.bytes")),
        ),
        metric("fanout.join_last_us", "us", side.join_last_us),
        metric(
            "fanout.evicted_slow",
            "1/kop",
            per_kop(ctr("server.room.evicted_slow.count")),
        ),
        metric(
            "fanout.resync_p50_us",
            "us",
            obs_quantile(hist("server.room.resync.us"), 0.5),
        ),
        metric(
            "fanout.snapshot_cache_hit_ratio",
            "ratio",
            ratio(ctr("server.room.snapshot_cache.hit.count"), snap_reads),
        ),
        // Broadcasts (inside act, join, leave, resync and recycle calls) plus
        // the drains after acts, as a share of the time those ops took
        // (sums telescope; percentiles do not).
        metric(
            "fanout.time_share",
            "ratio",
            ratio(
                hsum("server.room.broadcast.us") * 1e3 + all.drain_ns as f64,
                [
                    Class::Act,
                    Class::Join,
                    Class::Leave,
                    Class::Resync,
                    Class::Recycle,
                ]
                .iter()
                .map(|&c| all.class(c).total().sum())
                .sum::<u64>() as f64,
            ),
        ),
        // delivery
        metric(
            "delivery.hit_p50_us",
            "us",
            p50_us(&all.class(Class::FetchHot).total()),
        ),
        metric("delivery.self_us", "us", delivery_self),
        metric(
            "delivery.cache_hit_ratio",
            "ratio",
            ratio(ctr("server.delivery.cache.hit.count"), cache_reads),
        ),
        metric(
            "delivery.cache_misses",
            "1/kop",
            per_kop(ctr("server.delivery.cache.miss.count")),
        ),
        metric(
            "delivery.evictions",
            "1/kop",
            per_kop(ctr("server.delivery.cache.evict.count")),
        ),
        metric(
            "delivery.invalidations",
            "1/kop",
            per_kop(ctr("server.delivery.cache.invalidate.count")),
        ),
        metric(
            "delivery.served_bytes",
            "B/kop",
            per_kop(ctr("server.delivery.served.bytes")),
        ),
        metric(
            "delivery.saved_bytes",
            "B/kop",
            per_kop(ctr("server.delivery.saved.bytes")),
        ),
        metric(
            "delivery.mean_layers",
            "count",
            ratio(all.layers_sum as f64, all.deliveries as f64),
        ),
        metric(
            "delivery.fetch_per_s",
            "1/s",
            ratio(
                (fetch.count() + all.class(Class::Render).total().count()) as f64,
                all.elapsed_s,
            ),
        ),
        // mediadb
        metric(
            "mediadb.get_image_data_us",
            "us",
            rung_us(Rung::FetchMediadb),
        ),
        metric("mediadb.self_us", "us", mediadb_self),
        metric(
            "mediadb.image_reads",
            "1/kop",
            per_kop(ctr("mediadb.image.data_read.count")),
        ),
        metric("mediadb.update_image_us", "us", side.update_image_us),
        metric(
            "mediadb.insert_image_us",
            "us",
            median(m.world.insert_us.clone()),
        ),
        metric("mediadb.list_documents_us", "us", side.list_documents_us),
        // storage
        metric("storage.begin_read_us", "us", rung_us(Rung::FetchBeginRead)),
        metric("storage.row_get_us", "us", rung_us(Rung::FetchRowGet)),
        metric("storage.blob_read_us", "us", rung_us(Rung::FetchBlobRead)),
        metric(
            "storage.btree_get_p50_us",
            "us",
            obs_quantile(hist("storage.btree.get.us"), 0.5),
        ),
        metric(
            "storage.pages_per_fetch",
            "count",
            all.rung(Rung::FetchPages, cold).quantile(0.5),
        ),
        metric(
            "storage.page_hit_ratio",
            "ratio",
            ratio(ctr("storage.pool.hit.count"), pool_reads),
        ),
        metric(
            "storage.page_misses",
            "1/kop",
            per_kop(ctr("storage.pool.miss.count")),
        ),
        metric(
            "storage.page_evictions",
            "1/kop",
            per_kop(ctr("storage.pool.eviction.count")),
        ),
        metric(
            "storage.commit_p50_us",
            "us",
            obs_quantile(hist("storage.txn.commit.us"), 0.5),
        ),
        metric(
            "storage.wal_append_p50_us",
            "us",
            obs_quantile(hist("storage.wal.append.us"), 0.5),
        ),
        metric(
            "storage.wal_sync_p50_us",
            "us",
            obs_quantile(hist("storage.wal.sync.us"), 0.5),
        ),
        metric(
            "storage.syncs_per_commit",
            "ratio",
            ratio(
                hcount("storage.wal.sync.us"),
                hcount("storage.txn.commit.us"),
            ),
        ),
        metric(
            "storage.wal_bytes_per_user_byte",
            "ratio",
            ratio(wal_bytes as f64, user_bytes),
        ),
        metric(
            "storage.file_bytes_per_user_byte",
            "ratio",
            ratio(data_bytes as f64, user_bytes),
        ),
        metric("storage.save_p90_ms", "ms", save.quantile(0.9) / 1e6),
        // Time inside commits and B+tree reads, as a share of all driver
        // time: how much of the workload storage is.
        metric(
            "storage.busy_share",
            "ratio",
            ratio(
                (hsum("storage.txn.commit.us") + hsum("storage.btree.get.us")) / 1e6,
                busy_s,
            ),
        ),
        metric(
            "storage.fetch_share",
            "ratio",
            ratio(mediadb_self + storage_rungs, rung_us(Rung::FetchFrontend)),
        ),
        // codec, imaging
        metric("codec.decode_full_ms", "ms", side.decode_full_ms),
        metric("codec.decode_base_ms", "ms", side.decode_base_ms),
        metric("codec.info_us", "us", side.info_us),
        metric(
            "codec.encode_ms",
            "ms",
            median(m.world.encode_us.clone()) / 1e3,
        ),
        metric("codec.bytes_per_pixel", "B/px", side.bytes_per_pixel),
        metric("imaging.render_us", "us", side.render_us),
        metric("imaging.overlay_bytes", "B", side.overlay_bytes),
    ];
    // netsim: mean virtual transfer per link class
    for (c, (name, _, _)) in LINK_CLASSES.iter().enumerate() {
        out.push(metric(
            &format!("netsim.transfer_vs.{name}"),
            "vs",
            ratio(all.link_vs_sum[c], all.link_n[c] as f64),
        ));
    }
    // harness
    let traced_rate = ops_per_s(m, &traced);
    let plain_rate = ops_per_s(m, &plain);
    out.extend([
        metric("harness.timer_overhead_ns", "ns", side.timer_overhead_ns),
        metric(
            "harness.trace_overhead_share",
            "ratio",
            1.0 - ratio(traced_rate, plain_rate),
        ),
        metric(
            "harness.unattributed_share.act",
            "ratio",
            1.0 - ratio(act_attributed, act_ladder_total).min(1.0),
        ),
        metric(
            "harness.unattributed_share.fetch",
            "ratio",
            1.0 - ratio(fetch_attributed, rung_us(Rung::FetchFrontend)).min(1.0),
        ),
        // Tails, from the untraced segments. Steady only where the op is
        // the workload's own, so they are reported here and not gated.
        metric(
            "act_p99_us",
            "us",
            seg_quantile(all.class(Class::Act), 0.99, &plain) / 1e3,
        ),
        metric(
            "fetch_p99_us",
            "us",
            seg_quantile(
                &merged(m, &[Class::FetchHot, Class::FetchCold]),
                0.99,
                &plain,
            ) / 1e3,
        ),
    ]);
    out
}

pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}
