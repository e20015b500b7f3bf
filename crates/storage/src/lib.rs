//! # rcmo-storage — an embedded page-based storage engine
//!
//! The paper stores multimedia objects in an Oracle object-relational
//! database as BLOBs behind a narrow fetch/store API. This crate is the
//! substitute substrate: a small but real storage engine with
//!
//! * fixed-size [pages](page) with checksums,
//! * a [paging layer](pager): one sharded, lock-striped, clock-evicted
//!   cache of committed pages shared by every reader, plus the single
//!   writer's private, never-evicted write set (no-steal policy), both
//!   counted in one metrics registry,
//! * a redo-only [write-ahead log](wal) with group commit and crash
//!   recovery,
//! * [slotted-page heap files](heap) for records,
//! * a [B+tree](btree) index for `u64 → u64` mappings: one per table for
//!   its primary keys, one more per indexed column (hashed secondary
//!   indexes, answered by `find`),
//! * a [chunked BLOB store](blob) for multimedia payloads of up to 4 GiB
//!   (the paper's Oracle BLOB limit), and
//! * a [catalog] + [database facade](db) with typed tables, single-writer
//!   transactions and snapshot-isolated readers, opened one way:
//!   [`Database::open_with`] a [`Source`] and [`DbOptions`]
//!   ([`Database::open`] and [`Database::in_memory`] are its defaults).
//!
//! The `rcmo-mediadb` crate builds the paper's Figure-7 schema on top.
//!
//! ## Durability contract
//!
//! Writes are single-writer (enforced by the borrow checker: a
//! [`db::Transaction`] holds the writer lock). Commit appends after-images
//! of all dirty pages plus a commit record to the WAL, *publishes* the new
//! committed version for readers — releasing the writer lock — and then
//! joins the shared group-commit fsync: one WAL sync covers every commit
//! appended before it started, so concurrent committers amortize the sync
//! ([`db::DbOptions::group_commit_window`] stretches the batch). A commit
//! only returns `Ok` once its records are durable. Checkpoints fold
//! committed pages into the data file and truncate the WAL when it grows
//! past a size/commit-count threshold — or on every commit with
//! [`db::DbOptions::eager_checkpoint`]. Recovery on open replays committed
//! WAL transactions in order; torn, uncommitted, duplicate or
//! non-monotonic tails are discarded by record checksums and the commit
//! watermark.
//!
//! Readers ([`Database::begin_read`](db::Database::begin_read)) observe an
//! immutable committed snapshot and never take the writer lock: a long
//! scan cannot stall a commit, and a commit cannot tear a scan.
//!
//! ## Crash testing
//!
//! The stack is built for deterministic crash injection: all byte-level
//! I/O flows through the [backend] abstraction (including a seeded
//! fault-simulating [`FaultyBackend`]), every
//! durability site passes a named [failpoint], recovery tolerates torn
//! trailing pages and quarantines corrupt WALs instead of refusing to
//! open, and [`Database::check_integrity`] verifies the full on-disk
//! invariant set after a reopen. See `tests/crash_torture.rs` at the
//! workspace root for the harness that sweeps the crash-schedule space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod blob;
pub mod btree;
pub mod catalog;
pub mod db;
pub mod disk;
pub mod error;
pub mod failpoint;
pub mod heap;
pub mod index;
pub mod integrity;
pub mod page;
pub mod pager;
pub(crate) mod snapshot;
pub mod wal;

pub use backend::{
    Backend, CrashSpec, FaultInjector, FaultyBackend, MemBackend, SimStore, SlowSyncBackend,
};
pub use blob::BlobId;
pub use catalog::{Column, ColumnType, Schema};
pub use db::{Database, DbOptions, ReadTransaction, RowValue, Source, Transaction};
pub use error::StorageError;
pub use heap::RecordId;
pub use integrity::IntegrityReport;
pub use page::{PageId, PAGE_SIZE};
pub use pager::PageRead;
