//! # rcmo-obs — the unified observability layer
//!
//! Every performance claim this workspace reproduces is a latency or cost
//! claim — presentation reconfiguration "in real time", change-propagation
//! cost per partner, prefetch hit rates under modem bandwidth — so every
//! subsystem records into one shared instrumentation substrate instead of
//! growing its own ad-hoc stat struct. The design goals:
//!
//! * **lock-cheap**: metric updates are single relaxed atomic operations;
//!   locks are taken only at registration (once per metric name);
//! * **zero deps, always on**: pure `std`, no feature gate — benches,
//!   tests, and experiments all exercise the same instrumented code path;
//! * **hierarchical**: a [`Registry`] may have a parent; every update to a
//!   child handle also lands in the same-named metric of each ancestor, so
//!   per-instance views (one buffer pool, one room, one session) stay exact
//!   while the [process-global registry](Registry::global) aggregates
//!   everything for export;
//! * **snapshot-and-diff**: a [`MetricsSnapshot`] is a plain value that
//!   serializes to human-readable text and JSON and subtracts
//!   ([`MetricsSnapshot::diff`]), which is how experiments isolate one
//!   scenario's counts from a shared accumulating registry.
//!
//! Metric names follow the `subsystem.op.unit` convention, e.g.
//! `storage.wal.append.us` (wall-clock microseconds),
//! `netsim.session.response.vus` (*virtual* microseconds),
//! `server.room.delivered.bytes`, `storage.pool.hit.count`.
//!
//! ```
//! use rcmo_obs::{bounds, Registry};
//!
//! let reg = Registry::detached(); // or Registry::new() to roll up globally
//! let hits = reg.counter("demo.cache.hit.count");
//! let lat = reg.histogram("demo.op.us", bounds::LATENCY_US);
//! hits.inc();
//! {
//!     let _t = lat.start_timer(); // records elapsed µs on drop
//! }
//! lat.record(250);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["demo.cache.hit.count"], 1);
//! assert!(snap.histograms["demo.op.us"].count >= 2);
//! let json = snap.to_json();
//! assert_eq!(rcmo_obs::MetricsSnapshot::from_json(&json).unwrap(), snap);
//! ```
//!
//! The crate also hosts [`wire`], the bounded little-endian reader and
//! writer every stored byte format parses through. It lives here because
//! this is the one crate every format crate already depends on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metric;
pub mod registry;
pub mod snapshot;
pub mod wire;

pub use clock::{Clock, SharedClock, SimClock, WallClock};
pub use metric::{bounds, Counter, Gauge, Histogram, Timer};
pub use registry::{LazyCounter, LazyGauge, LazyHistogram, Registry};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};

/// The uniform metrics entry point every instrumented subsystem implements:
/// one typed view (the redesigned `*Stats` struct, produced *from* the
/// registry) plus the raw snapshot for export.
pub trait Metrics {
    /// The subsystem's typed view over its registry (e.g. `PoolStats`).
    type View;

    /// The registry this subsystem records into.
    fn obs(&self) -> &Registry;

    /// The typed view, read from the registry.
    fn metrics(&self) -> Self::View;

    /// A full snapshot of everything this subsystem (and, through parent
    /// chaining, its children) recorded.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs().snapshot()
    }
}

#[cfg(test)]
mod tests;
