//! The metric primitives: counters, gauges, fixed-bucket histograms, and
//! span timers. Updates are relaxed atomics; a handle may fan out to the
//! same-named cell of every ancestor registry (see
//! [`Registry`](crate::Registry)), so one `inc()` is one atomic add per
//! registry level — no locks anywhere on the hot path.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Canonical bucket boundary presets.
pub mod bounds {
    /// Latency buckets in microseconds: ~3 per decade from 1 µs to 60 s.
    /// Also used for *virtual*-time latencies (`.vus` metrics).
    pub const LATENCY_US: &[u64] = &[
        1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
        200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
    ];

    /// Size buckets in bytes: powers of 4 from 64 B to 64 MiB.
    pub const SIZE_BYTES: &[u64] = &[
        64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
        67_108_864,
    ];

    /// Small-cardinality buckets (layer counts, retry counts, fan-outs).
    pub const SMALL_COUNT: &[u64] = &[0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64];
}

/// The storage cell behind a counter.
#[derive(Debug, Default)]
pub(crate) struct CounterCell(AtomicU64);

impl CounterCell {
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing counter. Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Counter {
    pub(crate) cells: Vec<Arc<CounterCell>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        for c in &self.cells {
            c.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of this handle's *own* (closest) cell.
    pub fn get(&self) -> u64 {
        self.cells[0].get()
    }
}

/// The storage cell behind a gauge.
#[derive(Debug, Default)]
pub(crate) struct GaugeCell(AtomicI64);

impl GaugeCell {
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (e.g. bytes currently resident).
/// On parented registries the write lands in every level, so the parent
/// reflects the most recent writer.
#[derive(Debug, Clone)]
pub struct Gauge {
    pub(crate) cells: Vec<Arc<GaugeCell>>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        for c in &self.cells {
            c.0.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the value by `delta`.
    pub fn add(&self, delta: i64) {
        for c in &self.cells {
            c.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value of this handle's own cell.
    pub fn get(&self) -> i64 {
        self.cells[0].get()
    }
}

/// The storage cell behind a histogram: fixed upper-inclusive bucket
/// boundaries plus an overflow bucket, with count/sum/min/max.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 (overflow)
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64, // u64::MAX until the first sample
}

impl HistogramCell {
    pub(crate) fn new(bounds: &[u64]) -> HistogramCell {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistogramCell {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    pub(crate) fn record(&self, v: u64) {
        // First bucket whose (inclusive) upper bound covers v; a value
        // exactly on a boundary lands in that boundary's bucket.
        let idx = self.bounds.partition_point(|&b| v > b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
        }
    }
}

/// A fixed-bucket latency/size histogram with quantile estimates. Cloning
/// shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) cells: Vec<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        for c in &self.cells {
            c.record(v);
        }
    }

    /// Records a wall-clock duration in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Starts a span timer that records elapsed microseconds on drop.
    pub fn start_timer(&self) -> Timer<'_> {
        Timer {
            hist: self,
            start: Instant::now(),
            armed: true,
        }
    }

    /// Snapshot of this handle's own cell.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cells[0].snapshot()
    }
}

/// A lightweight span timer: records elapsed wall-clock microseconds into
/// its histogram when dropped (or explicitly via [`Timer::stop`]).
#[derive(Debug)]
pub struct Timer<'a> {
    hist: &'a Histogram,
    start: Instant,
    armed: bool,
}

impl Timer<'_> {
    /// Stops the span now and returns the recorded microseconds.
    pub fn stop(mut self) -> u64 {
        self.armed = false;
        let us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.hist.record(us);
        us
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record_duration(self.start.elapsed());
        }
    }
}
