//! The database facade: typed tables, transactions, recovery.
//!
//! ```
//! use rcmo_storage::{Database, Schema, Column, ColumnType, RowValue};
//!
//! let db = Database::in_memory().unwrap();
//! let mut tx = db.begin().unwrap();
//! tx.create_table(
//!     "IMAGE_OBJECTS_TABLE",
//!     Schema::new(vec![
//!         Column::new("ID", ColumnType::U64),
//!         Column::new("FLD_NAME", ColumnType::Text),
//!         Column::new("FLD_DATA", ColumnType::Blob),
//!     ])
//!     .unwrap(),
//! )
//! .unwrap();
//! let blob = tx.put_blob(&[1, 2, 3]).unwrap();
//! let id = tx
//!     .insert(
//!         "IMAGE_OBJECTS_TABLE",
//!         vec![RowValue::Null, RowValue::Text("ct".into()), RowValue::Blob(blob)],
//!     )
//!     .unwrap();
//! tx.commit().unwrap();
//!
//! // Snapshot reads never take the writer lock.
//! let rd = db.begin_read().unwrap();
//! let row = rd.get("IMAGE_OBJECTS_TABLE", id).unwrap().unwrap();
//! assert_eq!(row[1], RowValue::Text("ct".into()));
//! ```
//!
//! # One way to open, one way to read
//!
//! [`Database::open_with`] takes a [`Source`] (a path, memory, or explicit
//! byte backends) and [`DbOptions`]; [`Database::open`] and
//! [`Database::in_memory`] are that call with default options. Every row
//! and BLOB read of [`Transaction`] and [`ReadTransaction`] is one
//! definition (`Reads`) over a page source and a catalog map, and every
//! page request of either kind is counted in the database's one paging
//! registry ([`Database::pool_stats`]).
//!
//! A row is reached by primary key (`get`, `range`, `scan`) or, for a
//! column that carries a secondary index
//! ([`Transaction::create_index`]), by value: `find(table, column,
//! &value)` on either transaction kind costs the matching rows, not the
//! table. The engine keeps the index current inside the row's own
//! transaction; the [`index`] module documents the entry layout.
//!
//! # Commit pipeline
//!
//! A [`Transaction`] holds the database's writer mutex, making the
//! single-writer discipline a compile-time property; dropping an uncommitted
//! transaction rolls it back. Commit proceeds in three stages:
//!
//! 1. **Append** — the write set's sealed after-images plus a commit record
//!    go to the WAL under the log lock (no fsync yet in the default,
//!    *deferred* mode).
//! 2. **Publish** — a new immutable `CommittedState` (commit sequence
//!    number, copy-on-write page overlay, catalog snapshot) becomes visible
//!    to new readers, and the writer lock is released (*early lock
//!    release*).
//! 3. **Group commit** — the committing thread joins the shared WAL-sync
//!    batch: one fsync covers every commit appended before it started, so
//!    concurrent committers amortize the sync. [`DbOptions::
//!    group_commit_window`] optionally stretches the batch.
//!
//! Checkpoints (folding the committed overlay into the data file and
//! truncating the WAL) are decoupled from commit and triggered by WAL size
//! or commit count — or run eagerly per commit when
//! [`DbOptions::eager_checkpoint`] is set, which restores the historical
//! checkpoint-per-commit behaviour for crash-injection harnesses.

use crate::backend::Backend;
use crate::blob::{BlobId, BlobStore};
use crate::btree::BTree;
use crate::catalog::{
    decode_row, encode_row, CatalogEntry, IndexInfo, RowValue as RV, Schema, TableInfo,
};
use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::heap::{Heap, RecordId};
use crate::index;
use crate::page::{Page, PageId, PageKind};
use crate::pager::{BufferPool, PageRead, PoolStats, ReadLayer};
use crate::snapshot::{CommittedState, SnapshotReader, SnapshotRegistry};
use crate::wal::Wal;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use crate::catalog::RowValue;

pub(crate) const META_MAGIC_OFF: usize = 0;
pub(crate) const META_CATALOG_ROOT: usize = 16;
pub(crate) const META_NEXT_TXN: usize = 24;
/// "RCMODB1" + format version 2: tables may carry secondary indexes.
pub(crate) const META_MAGIC: u64 = 0x5243_4D4F_4442_3102;
/// Format version 1 — no secondary indexes. Still opened, and still
/// written un-indexed; [`Transaction::create_index`] restamps the file as
/// version 2, which a version-1 binary (which would not maintain the
/// index) refuses to open.
pub(crate) const META_MAGIC_V1: u64 = 0x5243_4D4F_4442_3101;

/// Default page-cache capacity in frames (2048 × 8 KiB = 16 MiB).
pub const DEFAULT_CACHE_FRAMES: usize = 2048;

/// Where a [`Database`] keeps its bytes.
pub enum Source {
    /// A data file at this path (created if missing), with the WAL next to
    /// it at `<path>.wal`.
    Path(PathBuf),
    /// Ephemeral in-process storage: no durability across drop, but the
    /// full WAL/commit machinery still runs.
    Memory,
    /// Explicit byte-level [`Backend`]s for the data file and the WAL
    /// (crash-injection harnesses hand in
    /// [`FaultyBackend`](crate::backend::FaultyBackend)s or survivor-image
    /// [`MemBackend`](crate::backend::MemBackend)s here).
    Backends {
        /// The data file.
        data: Box<dyn Backend>,
        /// The write-ahead log.
        wal: Box<dyn Backend>,
    },
}

/// Tunables for opening a [`Database`].
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Capacity of the shared page cache, in frames.
    pub cache_frames: usize,
    /// How long a group-commit leader waits for followers to pile onto the
    /// batch before issuing the shared WAL fsync. Zero syncs immediately.
    pub group_commit_window: Duration,
    /// Checkpoint once the WAL grows past this many bytes.
    pub checkpoint_wal_bytes: u64,
    /// Checkpoint after this many commits.
    pub checkpoint_commits: u64,
    /// Checkpoint on every commit (historical behaviour): the WAL is synced
    /// *before* the commit publishes, so a sync failure aborts the
    /// transaction cleanly instead of poisoning the database.
    pub eager_checkpoint: bool,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            cache_frames: DEFAULT_CACHE_FRAMES,
            group_commit_window: Duration::ZERO,
            checkpoint_wal_bytes: 8 * 1024 * 1024,
            checkpoint_commits: 4,
            eager_checkpoint: false,
        }
    }
}

impl DbOptions {
    /// Options with [`eager_checkpoint`](Self::eager_checkpoint) set: every
    /// commit syncs the WAL, flushes pages and truncates the log before
    /// returning.
    pub fn eager() -> Self {
        DbOptions {
            eager_checkpoint: true,
            ..DbOptions::default()
        }
    }
}

/// How a checkpoint should make the WAL durable before flushing pages.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CkptSync {
    /// The caller already synced the log (eager commits).
    Done,
    /// Sync via the group-commit path; a failure loses a *published* commit
    /// and must poison the database.
    Publish,
    /// Everything published is already durable (pre-append fold, explicit
    /// checkpoints); a sync failure is an ordinary, clean error.
    Clean,
}

#[derive(Default)]
struct GcState {
    /// Highest commit sequence number whose WAL records are known durable.
    durable: u64,
    /// A leader is currently running the shared fsync.
    syncing: bool,
    /// Set when a published commit could not be made durable.
    poisoned: Option<String>,
}

/// Group-commit coordinator: batches concurrent WAL fsyncs so one physical
/// sync covers every commit appended before it started.
struct GroupCommit {
    /// Highest published commit sequence number appended to the WAL.
    appended: AtomicU64,
    state: Mutex<GcState>,
    synced: Condvar,
}

impl GroupCommit {
    fn new() -> GroupCommit {
        GroupCommit {
            appended: AtomicU64::new(0),
            state: Mutex::new(GcState::default()),
            synced: Condvar::new(),
        }
    }

    /// Records that commit `csn`'s WAL records (appended strictly before
    /// this call) are published and awaiting durability.
    fn note_appended(&self, csn: u64) {
        self.appended.store(csn, Ordering::Release);
    }

    fn check_poisoned(&self) -> Result<()> {
        match self.state.lock().poisoned.as_ref() {
            Some(m) => Err(StorageError::Poisoned(m.clone())),
            None => Ok(()),
        }
    }

    /// Blocks until commit `target`'s WAL records are durable, becoming the
    /// sync leader if nobody else is. The leader reads the high-water mark
    /// *inside* the WAL lock, so a sync is only ever credited for records
    /// that were fully appended before it.
    fn sync_until(&self, target: u64, wal: &Mutex<Wal>, window: Duration) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            if let Some(m) = st.poisoned.as_ref() {
                return Err(StorageError::Poisoned(m.clone()));
            }
            if st.durable >= target {
                return Ok(());
            }
            if st.syncing {
                st = self.synced.wait(st);
                continue;
            }
            st.syncing = true;
            drop(st);
            if !window.is_zero() {
                std::thread::sleep(window);
            }
            let (high, res) = {
                let mut wal = wal.lock();
                let high = self.appended.load(Ordering::Acquire);
                (high, wal.sync())
            };
            st = self.state.lock();
            st.syncing = false;
            match res {
                Ok(()) => st.durable = st.durable.max(high),
                Err(e) => st.poisoned = Some(format!("WAL sync failed after publish: {e}")),
            }
            self.synced.notify_all();
        }
    }

    /// Syncs everything appended so far (checkpoint pre-sync).
    fn sync_now(&self, wal: &Mutex<Wal>) -> Result<()> {
        self.sync_until(self.appended.load(Ordering::Acquire), wal, Duration::ZERO)
    }

    /// Marks everything appended as durable — called after a checkpoint has
    /// folded all committed pages into the (synced) data file.
    fn credit_all(&self) {
        let mut st = self.state.lock();
        st.durable = st.durable.max(self.appended.load(Ordering::Acquire));
        drop(st);
        self.synced.notify_all();
    }
}

/// State shared between the writer, concurrent snapshot readers and the
/// group-commit machinery.
struct Shared {
    layer: Arc<ReadLayer>,
    committed: RwLock<Arc<CommittedState>>,
    wal: Mutex<Wal>,
    gc: GroupCommit,
    snapshots: SnapshotRegistry,
    opts: DbOptions,
}

struct Inner {
    pool: BufferPool,
    catalog: HashMap<String, CatalogEntry>,
    next_txn: u64,
    commits_since_ckpt: u64,
    /// The WAL holds records that must be folded out (a crash-simulation
    /// hook staged a transaction, or a previous commit failed partway):
    /// checkpoint before appending anything new, so two generations of
    /// records can never replay together.
    force_checkpoint: bool,
}

/// An embedded database instance. Cloneable handles are not provided; share
/// via `Arc<Database>`.
pub struct Database {
    writer: Mutex<Inner>,
    shared: Shared,
    path: Option<PathBuf>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Database({:?})", self.path)
    }
}

impl Database {
    /// Opens (creating if necessary) a file-backed database at `path` with
    /// default [`DbOptions`]; the WAL lives next to it at `<path>.wal`.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(
            Source::Path(path.as_ref().to_path_buf()),
            DbOptions::default(),
        )
    }

    /// Creates an ephemeral in-memory database with default [`DbOptions`].
    pub fn in_memory() -> Result<Database> {
        Self::open_with(Source::Memory, DbOptions::default())
    }

    /// Opens a database over `source` with explicit [`DbOptions`], running
    /// crash recovery first.
    ///
    /// Opening is salvage-tolerant: a torn trailing partial page in the
    /// data file is truncated away, and a WAL file whose header is
    /// unreadable is quarantined aside (renamed to
    /// `<path>.wal.corrupt-<k>`) rather than refusing to start. WAL replay
    /// itself already stops at the first torn or corrupt record, salvaging
    /// the longest valid committed prefix.
    pub fn open_with(source: Source, opts: DbOptions) -> Result<Database> {
        let (mut disk, mut wal, path) = match source {
            Source::Path(path) => {
                let disk = DiskManager::open(&path)?;
                let (wal, _quarantined) = Wal::open_or_quarantine(&wal_path_for(&path))?;
                (disk, wal, Some(path))
            }
            Source::Memory => (DiskManager::in_memory(), Wal::in_memory(), None),
            Source::Backends { data, wal } => (
                DiskManager::from_backend(data)?,
                Wal::from_backend(wal)?,
                None,
            ),
        };
        recover(&mut disk, &mut wal)?;
        if disk.num_pages() == 0 {
            let mut meta = Page::new(PageKind::Meta);
            meta.put_u64(META_MAGIC_OFF, META_MAGIC);
            meta.put_u64(crate::pager::META_FREE_HEAD, PageId::NONE.0);
            meta.put_u64(META_CATALOG_ROOT, PageId::NONE.0);
            meta.put_u64(META_NEXT_TXN, 1);
            disk.write_page(PageId::META, &mut meta)?;
            disk.sync()?;
        }
        let num_pages = disk.num_pages();
        let layer = Arc::new(ReadLayer::new(disk, opts.cache_frames));
        let base = Arc::new(CommittedState::bootstrap(num_pages));
        let pool = BufferPool::new(Arc::clone(&layer), Arc::clone(&base));
        let db = Database {
            writer: Mutex::new(Inner {
                pool,
                catalog: HashMap::new(),
                next_txn: 1,
                commits_since_ckpt: 0,
                force_checkpoint: false,
            }),
            shared: Shared {
                layer,
                committed: RwLock::new(base),
                wal: Mutex::new(wal),
                gc: GroupCommit::new(),
                snapshots: SnapshotRegistry::new(),
                opts,
            },
            path,
        };
        let catalog_root = {
            let mut inner = db.writer.lock();
            let magic = inner
                .pool
                .with_page(PageId::META, |p| p.get_u64(META_MAGIC_OFF))?;
            if magic != META_MAGIC && magic != META_MAGIC_V1 {
                return Err(StorageError::BadHeader(format!(
                    "meta magic {magic:#x} != {META_MAGIC:#x}"
                )));
            }
            inner.next_txn = inner
                .pool
                .with_page(PageId::META, |p| p.get_u64(META_NEXT_TXN))?;
            catalog_root(&mut inner)?
        };
        // Bootstrap the catalog heap on a fresh database.
        if !catalog_root.is_some() {
            let mut tx = db.begin()?;
            let heap = Heap::create(&mut tx.inner.pool)?;
            let root = heap.first_page();
            tx.inner
                .pool
                .with_page_mut(PageId::META, |p| p.put_u64(META_CATALOG_ROOT, root.0))?;
            tx.commit()?;
        }
        {
            let mut inner = db.writer.lock();
            reload_catalog(&mut inner)?;
            db.install_catalog(&mut inner);
        }
        Ok(db)
    }

    /// Begins the (single) read-write transaction. Blocks while another
    /// write transaction is open on this database — including one held by
    /// the *same* thread, which self-deadlocks; drop (or scope) the previous
    /// [`Transaction`] first, or use [`try_begin`](Self::try_begin).
    /// Concurrent [`begin_read`](Self::begin_read) readers never block this.
    pub fn begin(&self) -> Result<Transaction<'_>> {
        self.shared.gc.check_poisoned()?;
        Ok(self.start(self.writer.lock()))
    }

    /// Non-blocking [`begin`](Self::begin): returns `None` when another
    /// write transaction is currently open (or the database is poisoned).
    pub fn try_begin(&self) -> Option<Transaction<'_>> {
        self.shared.gc.check_poisoned().ok()?;
        Some(self.start(self.writer.try_lock()?))
    }

    fn start<'db>(&'db self, mut inner: MutexGuard<'db, Inner>) -> Transaction<'db> {
        let txn_id = inner.next_txn;
        inner.next_txn += 1;
        Transaction {
            db: self,
            inner,
            txn_id,
            done: false,
        }
    }

    /// Begins a read-only snapshot transaction: it observes the most
    /// recently *committed* state and never blocks (or is blocked by) the
    /// writer. Holding one pins its snapshot version: checkpoints stall
    /// until every strictly-older snapshot is released, so drop readers
    /// promptly.
    pub fn begin_read(&self) -> Result<ReadTransaction<'_>> {
        self.shared.gc.check_poisoned()?;
        Ok(self.snapshot())
    }

    /// [`begin_read`](Self::begin_read) without the poison check: the
    /// integrity walk reports on whatever is published.
    pub(crate) fn snapshot(&self) -> ReadTransaction<'_> {
        let snap = self
            .shared
            .snapshots
            .register_current(&self.shared.committed);
        ReadTransaction { db: self, snap }
    }

    /// Folds all committed pages into the data file and truncates the WAL.
    /// Blocks until snapshot readers of older versions are released.
    pub fn checkpoint(&self) -> Result<()> {
        self.shared.gc.check_poisoned()?;
        let mut inner = self.writer.lock();
        self.checkpoint_locked(&mut inner, CkptSync::Clean)
    }

    /// Paging statistics: every page request of the writer and of all
    /// snapshot readers. Takes no lock a transaction can hold.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats::from_registry(&self.shared.layer.obs)
    }

    /// The data-file path (`None` for in-memory databases).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Publishes the writer's write set as the next committed version and
    /// rebases the pool onto it. Returns the new commit sequence number.
    fn publish(&self, inner: &mut Inner) -> u64 {
        let old = Arc::clone(&self.shared.committed.read());
        let mut pages = old.pages.clone();
        for (id, page) in inner.pool.take_write_set() {
            pages.insert(id, page);
        }
        let state = Arc::new(CommittedState {
            csn: old.csn + 1,
            pages,
            catalog: Arc::new(inner.catalog.clone()),
            num_pages: inner.pool.num_pages(),
        });
        *self.shared.committed.write() = Arc::clone(&state);
        let csn = state.csn;
        inner.pool.set_base(state);
        csn
    }

    /// Re-publishes the current version with the freshly loaded catalog
    /// (open-time only; the version number does not change).
    fn install_catalog(&self, inner: &mut Inner) {
        let cur = Arc::clone(&self.shared.committed.read());
        let state = Arc::new(CommittedState {
            csn: cur.csn,
            pages: cur.pages.clone(),
            catalog: Arc::new(inner.catalog.clone()),
            num_pages: cur.num_pages,
        });
        *self.shared.committed.write() = Arc::clone(&state);
        if !inner.pool.has_dirty() {
            inner.pool.set_base(state);
        }
    }

    /// Folds the committed page overlay into the data file and truncates
    /// the WAL. Requires the writer lock (via `inner`); waits for snapshot
    /// readers of versions older than the one being folded.
    fn checkpoint_locked(&self, inner: &mut Inner, sync: CkptSync) -> Result<()> {
        let shared = &self.shared;
        let state = Arc::clone(&shared.committed.read());
        if state.pages.is_empty() && shared.wal.lock().is_empty()? {
            inner.commits_since_ckpt = 0;
            inner.force_checkpoint = false;
            return Ok(());
        }
        match sync {
            CkptSync::Done => {}
            CkptSync::Publish => shared.gc.sync_now(&shared.wal)?,
            CkptSync::Clean => shared.wal.lock().sync()?,
        }
        // Readers at exactly `state.csn` are safe — their overlay shadows
        // every page rewritten below. Anything older must drain first.
        shared.snapshots.wait_none_older_than(state.csn);
        if !state.pages.is_empty() {
            let mut ids: Vec<PageId> = state.pages.keys().copied().collect();
            ids.sort();
            let mut disk = shared.layer.disk.lock();
            for id in &ids {
                crate::failpoint::hit(if *id == PageId::META {
                    crate::failpoint::FLUSH_META
                } else {
                    crate::failpoint::FLUSH_PAGE
                })?;
                disk.write_raw(*id, state.pages[id].raw_bytes())?;
            }
            disk.sync()?;
        }
        // The checkpoint boundary: all committed pages are durable in the
        // data file; only the log truncation remains.
        crate::failpoint::hit(crate::failpoint::CHECKPOINT)?;
        shared.wal.lock().truncate()?;
        // Push the folded images into the shared cache, then re-publish the
        // same version with an empty overlay — strictly in that order. The
        // inserts double as invalidation (the cache may still hold pre-fold
        // images cached by readers of older versions), and they must land
        // before the empty-overlay state becomes visible: a reader
        // registering against the clean state resolves folded pages through
        // the cache, so the cache must never be stale while that state is
        // published.
        for (id, page) in &state.pages {
            shared.layer.cache.insert(*id, Arc::clone(page));
        }
        let clean = Arc::new(CommittedState {
            csn: state.csn,
            pages: HashMap::new(),
            catalog: Arc::clone(&state.catalog),
            num_pages: state.num_pages,
        });
        *shared.committed.write() = Arc::clone(&clean);
        if !inner.pool.has_dirty() {
            // With a live write set (pre-append fold) the pool keeps its
            // old base; the overlay Arcs stay valid and match the disk.
            inner.pool.set_base(clean);
        }
        inner.commits_since_ckpt = 0;
        inner.force_checkpoint = false;
        shared.gc.credit_all();
        Ok(())
    }
}

/// Derives the WAL path for a data file.
pub fn wal_path_for(data: &Path) -> PathBuf {
    let mut s = data.as_os_str().to_os_string();
    s.push(".wal");
    PathBuf::from(s)
}

/// Replays committed WAL transactions into the data file and truncates the
/// log. Called on every open; a no-op for a clean shutdown.
fn recover(disk: &mut DiskManager, wal: &mut Wal) -> Result<()> {
    if wal.is_empty()? {
        return Ok(());
    }
    let (images, _committed) = wal.committed_images()?;
    if !images.is_empty() {
        for (page, image) in images {
            disk.write_raw(page, &image)?;
        }
        disk.sync()?;
    }
    wal.truncate()?;
    Ok(())
}

fn reload_catalog(inner: &mut Inner) -> Result<()> {
    inner.catalog.clear();
    let root = catalog_root(inner)?;
    if !root.is_some() {
        return Ok(());
    }
    let heap = Heap::open(root);
    for (record, bytes) in heap.scan(&mut inner.pool)? {
        let info = TableInfo::decode(&bytes)?;
        inner.catalog.insert(
            info.name.clone(),
            CatalogEntry {
                info,
                record,
                hint: None,
            },
        );
    }
    // The in-memory next_txn may have raced past the persisted one; keep the
    // larger to stay monotone.
    let persisted = inner
        .pool
        .with_page(PageId::META, |p| p.get_u64(META_NEXT_TXN))?;
    inner.next_txn = inner.next_txn.max(persisted);
    Ok(())
}

/// Classifies a checkpoint error that struck after the transaction
/// published: the commit stands (its WAL records are synced before any page
/// flush can fail), so callers must not read the error as "not committed".
/// Poisoning passes through — it carries the stronger "durability unknown"
/// meaning.
fn checkpoint_after_commit(e: StorageError) -> StorageError {
    match e {
        e @ (StorageError::Poisoned(_) | StorageError::CheckpointAfterCommit(_)) => e,
        e => StorageError::CheckpointAfterCommit(e.to_string()),
    }
}

fn entry<'a>(catalog: &'a HashMap<String, CatalogEntry>, table: &str) -> Result<&'a CatalogEntry> {
    catalog
        .get(table)
        .ok_or_else(|| StorageError::Catalog(format!("unknown table '{table}'")))
}

fn table_names(catalog: &HashMap<String, CatalogEntry>) -> Vec<String> {
    let mut names: Vec<String> = catalog.keys().cloned().collect();
    names.sort();
    names
}

fn schema(catalog: &HashMap<String, CatalogEntry>, table: &str) -> Result<Schema> {
    Ok(entry(catalog, table)?.info.schema.clone())
}

fn column_index(info: &TableInfo, column: &str) -> Result<usize> {
    info.schema.column_index(column).ok_or_else(|| {
        StorageError::Catalog(format!("table '{}' has no column '{column}'", info.name))
    })
}

/// Every row and BLOB read, defined once over a page source and the
/// catalog that goes with it: the writer's pool with its uncommitted
/// catalog, or a committed snapshot with its frozen one.
pub(crate) struct Reads<'a, P> {
    pub(crate) pages: P,
    pub(crate) catalog: &'a HashMap<String, CatalogEntry>,
}

impl<P: PageRead> Reads<'_, P> {
    /// Reads and decodes the row of `info` stored at packed record id
    /// `packed`.
    pub(crate) fn row(&mut self, info: &TableInfo, packed: u64) -> Result<Vec<RV>> {
        let bytes = Heap::open(info.heap_root).get(&mut self.pages, RecordId::unpack(packed))?;
        decode_row(&info.schema, &bytes)
    }

    fn get(&mut self, table: &str, id: u64) -> Result<Option<Vec<RV>>> {
        let info = &entry(self.catalog, table)?.info;
        match BTree::open(info.index_root).get(&mut self.pages, id)? {
            Some(packed) => self.row(info, packed).map(Some),
            None => Ok(None),
        }
    }

    fn range(&mut self, table: &str, lo: u64, hi: u64) -> Result<Vec<Vec<RV>>> {
        let info = &entry(self.catalog, table)?.info;
        let pairs = BTree::open(info.index_root).range(&mut self.pages, lo, hi)?;
        pairs
            .into_iter()
            .map(|(_, packed)| self.row(info, packed))
            .collect()
    }

    fn count(&mut self, table: &str) -> Result<usize> {
        BTree::open(entry(self.catalog, table)?.info.index_root).len(&mut self.pages)
    }

    /// Rows whose `column` equals `value`, in primary-key order, through
    /// the column's secondary index: one range over the value's hash
    /// bucket, then one primary-key fetch per candidate. The bucket only
    /// nominates rows — colliding values land in it too — so each
    /// candidate's stored value is compared before it is returned.
    fn find(&mut self, table: &str, column: &str, value: &RV) -> Result<Vec<Vec<RV>>> {
        static LAT: rcmo_obs::LazyHistogram =
            rcmo_obs::LazyHistogram::new("storage.index.find.us", rcmo_obs::bounds::LATENCY_US);
        static CANDIDATES: rcmo_obs::LazyCounter =
            rcmo_obs::LazyCounter::new("storage.index.candidates");
        static ROWS: rcmo_obs::LazyCounter = rcmo_obs::LazyCounter::new("storage.index.rows");
        let _t = LAT.start_timer();
        let info = &entry(self.catalog, table)?.info;
        let col = column_index(info, column)?;
        let ix = (info.indexes.iter().find(|ix| ix.column == col))
            .ok_or_else(|| StorageError::Catalog(format!("no index on {table}.{column}")))?;
        let ty = info.schema.columns()[col].ty;
        if !value.matches(ty) {
            return Err(StorageError::Catalog(format!(
                "value {value:?} does not match column '{column}' of type {ty:?}"
            )));
        }
        let mut pks: Vec<u64> = index::candidates(&mut self.pages, ix.root, value)?
            .into_iter()
            .map(|(_, pk)| pk)
            .collect();
        CANDIDATES.add(pks.len() as u64);
        pks.sort_unstable();
        let mut rows = Vec::new();
        for pk in pks {
            let row = self.get(table, pk)?.ok_or_else(|| {
                StorageError::Internal(format!(
                    "index on {table}.{column} points at missing row {pk}"
                ))
            })?;
            if row[col] == *value {
                rows.push(row);
            }
        }
        ROWS.add(rows.len() as u64);
        Ok(rows)
    }

    fn get_blob(&mut self, id: BlobId) -> Result<Vec<u8>> {
        BlobStore::read(&mut self.pages, id)
    }

    fn get_blob_prefix(&mut self, id: BlobId, n: usize) -> Result<Vec<u8>> {
        BlobStore::read_prefix(&mut self.pages, id, n)
    }

    fn blob_len(&mut self, id: BlobId) -> Result<u64> {
        BlobStore::len(&mut self.pages, id)
    }
}

/// A read-write transaction. All table, index, and BLOB mutations live
/// here. Commit or drop (rollback) to release the writer.
pub struct Transaction<'db> {
    db: &'db Database,
    inner: MutexGuard<'db, Inner>,
    txn_id: u64,
    done: bool,
}

impl<'db> Transaction<'db> {
    /// This transaction's id (visible in the WAL).
    pub fn id(&self) -> u64 {
        self.txn_id
    }

    /// The shared read definitions over the write set and the
    /// transaction's own (possibly uncommitted) catalog: read-your-writes.
    fn reads(&mut self) -> Reads<'_, &mut BufferPool> {
        let inner = &mut *self.inner;
        Reads {
            pages: &mut inner.pool,
            catalog: &inner.catalog,
        }
    }

    fn entry(&self, table: &str) -> Result<CatalogEntry> {
        entry(&self.inner.catalog, table).cloned()
    }

    fn save_entry(&mut self, entry: &CatalogEntry) -> Result<()> {
        let mut heap = Heap::open(catalog_root(&mut self.inner)?);
        let bytes = entry.info.encode();
        let new_rid = heap.update(&mut self.inner.pool, entry.record, &bytes)?;
        let mut entry = entry.clone();
        entry.record = new_rid;
        self.inner.catalog.insert(entry.info.name.clone(), entry);
        Ok(())
    }

    /// Creates a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.inner.catalog.contains_key(name) {
            return Err(StorageError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        let heap = Heap::create(&mut self.inner.pool)?;
        let index = BTree::create(&mut self.inner.pool)?;
        let info = TableInfo {
            name: name.to_string(),
            schema,
            heap_root: heap.first_page(),
            index_root: index.root(),
            next_id: 1,
            indexes: Vec::new(),
        };
        let mut cat_heap = Heap::open(catalog_root(&mut self.inner)?);
        let record = cat_heap.insert(&mut self.inner.pool, &info.encode())?;
        self.inner.catalog.insert(
            name.to_string(),
            CatalogEntry {
                info,
                record,
                hint: None,
            },
        );
        Ok(())
    }

    /// Declares a secondary index on `column` of `table` and fills it from
    /// the rows already there. From then on every insert, update and delete
    /// keeps it current inside the same transaction as the row, and
    /// [`find`](Self::find) answers lookups by that column without a scan.
    /// Values need not be unique. Stamps the file as format version 2.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let mut entry = self.entry(table)?;
        let col = column_index(&entry.info, column)?;
        if col == 0 || entry.info.indexes.iter().any(|ix| ix.column == col) {
            return Err(StorageError::Catalog(format!(
                "{table}.{column} is already indexed"
            )));
        }
        let mut ix = IndexInfo {
            column: col,
            root: BTree::create(&mut self.inner.pool)?.root(),
        };
        for row in self.scan(table)? {
            let key = self.free_index_key(&entry.info, &ix, &row[col])?;
            self.add_index_entry(&mut ix, key, row[0].as_u64()?)?;
        }
        entry.info.indexes.push(ix);
        self.inner
            .pool
            .with_page_mut(PageId::META, |p| p.put_u64(META_MAGIC_OFF, META_MAGIC))?;
        self.save_entry(&entry)
    }

    /// Names of the columns of `table` that carry a secondary index.
    pub fn indexes(&self, table: &str) -> Result<Vec<String>> {
        let info = &entry(&self.inner.catalog, table)?.info;
        Ok((info.indexes.iter())
            .map(|ix| info.schema.columns()[ix.column].name.clone())
            .collect())
    }

    /// The key a new entry for `value` would take in `ix`. Asked before a
    /// row operation touches any page, so that a full bucket fails the
    /// operation with nothing to undo.
    fn free_index_key(&mut self, info: &TableInfo, ix: &IndexInfo, value: &RV) -> Result<u64> {
        index::free_key(&mut self.inner.pool, ix.root, value)?.ok_or_else(|| {
            StorageError::IndexBucketFull {
                table: info.name.clone(),
                column: info.schema.columns()[ix.column].name.clone(),
            }
        })
    }

    fn add_index_entry(&mut self, ix: &mut IndexInfo, key: u64, pk: u64) -> Result<()> {
        let mut tree = BTree::open(ix.root);
        tree.insert(&mut self.inner.pool, key, pk)?;
        ix.root = tree.root();
        Ok(())
    }

    /// Drops a table, freeing its heap and index pages. BLOBs referenced by
    /// its rows are *not* freed automatically (callers own blob lifecycle).
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let entry = self.entry(name)?;
        Heap::open(entry.info.heap_root).destroy(&mut self.inner.pool)?;
        BTree::open(entry.info.index_root).destroy(&mut self.inner.pool)?;
        for ix in &entry.info.indexes {
            BTree::open(ix.root).destroy(&mut self.inner.pool)?;
        }
        let cat_heap = Heap::open(catalog_root(&mut self.inner)?);
        cat_heap.delete(&mut self.inner.pool, entry.record)?;
        self.inner.catalog.remove(name);
        Ok(())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        table_names(&self.inner.catalog)
    }

    /// A table's schema.
    pub fn schema(&self, table: &str) -> Result<Schema> {
        schema(&self.inner.catalog, table)
    }

    /// Inserts a row. The primary key (column 0) may be
    /// [`RowValue::Null`], in which case the table's id counter assigns it.
    /// Returns the row's primary key.
    pub fn insert(&mut self, table: &str, mut values: Vec<RV>) -> Result<u64> {
        let mut entry = self.entry(table)?;
        if values.is_empty() {
            return Err(StorageError::Catalog("empty row".to_string()));
        }
        let id = match values[0] {
            RV::Null => {
                let id = entry.info.next_id;
                values[0] = RV::U64(id);
                id
            }
            RV::U64(id) => id,
            ref other => {
                return Err(StorageError::Catalog(format!(
                    "primary key must be U64 or Null, got {other:?}"
                )))
            }
        };
        let bytes = encode_row(&entry.info.schema, &values)?;
        let mut keys = Vec::with_capacity(entry.info.indexes.len());
        for ix in &entry.info.indexes {
            keys.push(self.free_index_key(&entry.info, ix, &values[ix.column])?);
        }
        let mut heap = Heap::open(entry.info.heap_root);
        if let Some(hint) = entry.hint {
            heap.set_insert_hint(hint);
        }
        let mut index = BTree::open(entry.info.index_root);
        let rid = heap.insert(&mut self.inner.pool, &bytes)?;
        if let Err(e) = index.insert(&mut self.inner.pool, id, rid.pack()) {
            heap.delete(&mut self.inner.pool, rid)?;
            return Err(e);
        }
        entry.info.index_root = index.root();
        for (ix, key) in entry.info.indexes.iter_mut().zip(keys) {
            self.add_index_entry(ix, key, id)?;
        }
        entry.info.next_id = entry.info.next_id.max(id + 1);
        entry.hint = Some(heap.insert_hint());
        self.save_entry(&entry)?;
        Ok(id)
    }

    /// Fetches a row by primary key.
    pub fn get(&mut self, table: &str, id: u64) -> Result<Option<Vec<RV>>> {
        self.reads().get(table, id)
    }

    /// Replaces the row with primary key `id`. The new row's key column must
    /// be `Null` (kept) or equal to `id`.
    pub fn update(&mut self, table: &str, id: u64, mut values: Vec<RV>) -> Result<()> {
        let mut entry = self.entry(table)?;
        match values.first() {
            Some(RV::Null) => values[0] = RV::U64(id),
            Some(RV::U64(k)) if *k == id => {}
            Some(other) => {
                return Err(StorageError::Catalog(format!(
                    "update cannot change the primary key (got {other:?})"
                )))
            }
            None => return Err(StorageError::Catalog("empty row".to_string())),
        }
        let bytes = encode_row(&entry.info.schema, &values)?;
        let mut index = BTree::open(entry.info.index_root);
        let packed = index
            .get(&mut self.inner.pool, id)?
            .ok_or(StorageError::KeyNotFound(id))?;
        let mut heap = Heap::open(entry.info.heap_root);
        let old_rid = RecordId::unpack(packed);
        // An index entry moves only when its column's value changed.
        let old = if entry.info.indexes.is_empty() {
            Vec::new()
        } else {
            self.reads().row(&entry.info, packed)?
        };
        let mut moves = Vec::new();
        for (i, ix) in entry.info.indexes.iter().enumerate() {
            if old[ix.column] != values[ix.column] {
                let key = self.free_index_key(&entry.info, ix, &values[ix.column])?;
                moves.push((i, key));
            }
        }
        let new_rid = heap.update(&mut self.inner.pool, old_rid, &bytes)?;
        let mut roots_moved = new_rid != old_rid;
        if roots_moved {
            index.put(&mut self.inner.pool, id, new_rid.pack())?;
            entry.info.index_root = index.root();
        }
        for (i, key) in moves {
            let mut ix = entry.info.indexes[i];
            index::remove(&mut self.inner.pool, ix.root, &old[ix.column], id)?;
            self.add_index_entry(&mut ix, key, id)?;
            roots_moved |= ix.root != entry.info.indexes[i].root;
            entry.info.indexes[i] = ix;
        }
        if roots_moved {
            self.save_entry(&entry)?;
        }
        Ok(())
    }

    /// Deletes the row with primary key `id`, returning its values.
    pub fn delete(&mut self, table: &str, id: u64) -> Result<Vec<RV>> {
        let entry = self.entry(table)?;
        let mut index = BTree::open(entry.info.index_root);
        let packed = index.delete(&mut self.inner.pool, id)?;
        let heap = Heap::open(entry.info.heap_root);
        let rid = RecordId::unpack(packed);
        let bytes = heap.get(&mut self.inner.pool, rid)?;
        heap.delete(&mut self.inner.pool, rid)?;
        let row = decode_row(&entry.info.schema, &bytes)?;
        for ix in &entry.info.indexes {
            index::remove(&mut self.inner.pool, ix.root, &row[ix.column], id)?;
        }
        Ok(row)
    }

    /// All rows, in primary-key order.
    pub fn scan(&mut self, table: &str) -> Result<Vec<Vec<RV>>> {
        self.range(table, 0, u64::MAX)
    }

    /// Rows with `lo <= id <= hi`, in key order.
    pub fn range(&mut self, table: &str, lo: u64, hi: u64) -> Result<Vec<Vec<RV>>> {
        self.reads().range(table, lo, hi)
    }

    /// Number of rows in a table.
    pub fn count(&mut self, table: &str) -> Result<usize> {
        self.reads().count(table)
    }

    /// Rows whose `column` equals `value`, in primary-key order. The column
    /// must carry a secondary index ([`create_index`](Self::create_index));
    /// the cost is that of the matching rows, not of the table.
    pub fn find(&mut self, table: &str, column: &str, value: &RV) -> Result<Vec<Vec<RV>>> {
        self.reads().find(table, column, value)
    }

    /// Stores a BLOB, returning its id.
    pub fn put_blob(&mut self, data: &[u8]) -> Result<BlobId> {
        BlobStore::create(&mut self.inner.pool, data)
    }

    /// Reads a whole BLOB.
    pub fn get_blob(&mut self, id: BlobId) -> Result<Vec<u8>> {
        self.reads().get_blob(id)
    }

    /// Reads the first `n` bytes of a BLOB (progressive transfer).
    pub fn get_blob_prefix(&mut self, id: BlobId, n: usize) -> Result<Vec<u8>> {
        self.reads().get_blob_prefix(id, n)
    }

    /// A BLOB's length.
    pub fn blob_len(&mut self, id: BlobId) -> Result<u64> {
        self.reads().blob_len(id)
    }

    /// Frees a BLOB.
    pub fn delete_blob(&mut self, id: BlobId) -> Result<()> {
        BlobStore::delete(&mut self.inner.pool, id)
    }

    /// Stamps the txn counter into the meta page, appends the write set's
    /// sealed images plus the commit record to the WAL (syncing it under
    /// the same log lock if `sync`), and returns the log's byte length.
    fn append_to_wal(&mut self, sync: bool) -> Result<u64> {
        // Persisting the counter keeps ids monotone across restarts. It
        // also keeps the write set non-empty, so every commit appends
        // records and commit ids in the log are strictly monotone.
        let next_txn = self.inner.next_txn;
        self.inner
            .pool
            .with_page_mut(PageId::META, |p| p.put_u64(META_NEXT_TXN, next_txn))?;
        let dirty = self.inner.pool.dirty_ids();
        let mut wal = self.db.shared.wal.lock();
        for id in dirty {
            let image = self.inner.pool.sealed_image(id)?;
            wal.log_page(self.txn_id, id, &image)?;
        }
        wal.log_commit(self.txn_id)?;
        if sync {
            wal.sync()?;
        }
        wal.len()
    }

    /// Commits: appends the write set to the WAL, publishes the new
    /// committed version (releasing the writer lock), then waits for the
    /// shared group-commit fsync to cover this commit. Checkpoints run when
    /// due (WAL size / commit count), or on every commit in eager mode.
    ///
    /// If a previous commit failed after touching the WAL (or a crash hook
    /// staged records), this commit first folds the orphaned log out,
    /// blocking until snapshot readers of *older* versions are released —
    /// the same wait as [`Database::checkpoint`].
    ///
    /// # Errors
    ///
    /// Most errors mean the transaction did **not** commit and was rolled
    /// back. Two variants mean the opposite — the transaction *did* publish
    /// and must not be retried:
    ///
    /// * [`StorageError::CheckpointAfterCommit`] — the commit is visible and
    ///   durable; only post-commit checkpoint housekeeping failed (it is
    ///   redone before the next commit appends).
    /// * [`StorageError::Poisoned`] — the commit is visible in-process but
    ///   its WAL sync failed, so durability is unknown; reopen to recover
    ///   the durable prefix.
    pub fn commit(mut self) -> Result<()> {
        static LAT: rcmo_obs::LazyHistogram =
            rcmo_obs::LazyHistogram::new("storage.txn.commit.us", rcmo_obs::bounds::LATENCY_US);
        let _t = LAT.start_timer();
        let db = self.db;

        // Fold previously staged or orphaned WAL records out before
        // appending, so two generations of records can never replay
        // together. This must not be skipped: the orphaned tail may be torn,
        // and anything appended after a tear is unreachable to replay. The
        // fold blocks until snapshot readers of older versions drain
        // (`checkpoint_locked` waits on the registry), exactly like an
        // explicit [`Database::checkpoint`].
        if self.inner.force_checkpoint {
            db.checkpoint_locked(&mut self.inner, CkptSync::Clean)?;
        }

        let wal_len = match self.append_to_wal(db.shared.opts.eager_checkpoint) {
            Ok(len) => len,
            Err(e) => {
                self.inner.force_checkpoint = true;
                return Err(e);
            }
        };
        if let Err(e) = crate::failpoint::hit(crate::failpoint::COMMIT_PUBLISH) {
            self.inner.force_checkpoint = true;
            return Err(e);
        }
        let csn = db.publish(&mut self.inner);
        self.done = true;
        db.shared.gc.note_appended(csn);
        self.inner.commits_since_ckpt += 1;

        if db.shared.opts.eager_checkpoint {
            if let Err(e) = db.checkpoint_locked(&mut self.inner, CkptSync::Done) {
                self.inner.force_checkpoint = true;
                return Err(checkpoint_after_commit(e));
            }
            return Ok(());
        }
        // The forced fold above either ran or errored out, so only the
        // size/interval triggers remain.
        let due = wal_len >= db.shared.opts.checkpoint_wal_bytes
            || self.inner.commits_since_ckpt >= db.shared.opts.checkpoint_commits;
        if due && db.shared.snapshots.none_older_than(csn) {
            if let Err(e) = db.checkpoint_locked(&mut self.inner, CkptSync::Publish) {
                self.inner.force_checkpoint = true;
                return Err(checkpoint_after_commit(e));
            }
            return Ok(());
        }
        // Early lock release: free the writer while this commit's WAL
        // records reach stable storage via the shared group-commit sync.
        drop(self);
        db.shared
            .gc
            .sync_until(csn, &db.shared.wal, db.shared.opts.group_commit_window)
    }

    /// Rolls back explicitly (dropping does the same). Unlike commit, this
    /// releases the writer lock immediately — no durability work runs.
    pub fn rollback(mut self) {
        self.abort();
        self.done = true;
    }

    /// Fault-injection hook: durably writes the WAL (page images + commit
    /// record + sync) but **does not** force pages to the data file and does
    /// not truncate the log — as if the process crashed right after the WAL
    /// sync. Reopening the database recovers the transaction from the log;
    /// committing again in-process instead folds it away first (the crash
    /// "didn't happen").
    pub fn simulate_crash_after_wal(mut self) -> Result<()> {
        self.append_to_wal(true)?;
        // Crash: lose the in-flight state, keep the (stale) data file and
        // the WAL. The staged records must be folded out before any later
        // commit appends.
        self.abort();
        self.inner.force_checkpoint = true;
        self.done = true;
        Ok(())
    }

    fn abort(&mut self) {
        self.inner.pool.discard_dirty();
        // The in-memory catalog may hold uncommitted entries; restore the
        // committed one from the base snapshot.
        let catalog = (*self.inner.pool.base().catalog).clone();
        self.inner.catalog = catalog;
    }
}

impl<'db> Drop for Transaction<'db> {
    fn drop(&mut self) {
        if !self.done {
            self.abort();
        }
    }
}

/// A read-only snapshot transaction: observes one committed version for its
/// whole lifetime, without ever taking the writer lock. All methods take
/// `&self`; the snapshot is immutable.
pub struct ReadTransaction<'db> {
    db: &'db Database,
    snap: Arc<CommittedState>,
}

impl<'db> ReadTransaction<'db> {
    /// The shared read definitions over this snapshot's pages and catalog.
    pub(crate) fn reads(&self) -> Reads<'_, SnapshotReader<'_>> {
        Reads {
            pages: SnapshotReader {
                snap: &self.snap,
                layer: &self.db.shared.layer,
            },
            catalog: &self.snap.catalog,
        }
    }

    /// Names of all tables in the snapshot, sorted.
    pub fn table_names(&self) -> Vec<String> {
        table_names(&self.snap.catalog)
    }

    /// A table's schema.
    pub fn schema(&self, table: &str) -> Result<Schema> {
        schema(&self.snap.catalog, table)
    }

    /// Fetches a row by primary key.
    pub fn get(&self, table: &str, id: u64) -> Result<Option<Vec<RV>>> {
        self.reads().get(table, id)
    }

    /// All rows, in primary-key order.
    pub fn scan(&self, table: &str) -> Result<Vec<Vec<RV>>> {
        self.range(table, 0, u64::MAX)
    }

    /// Rows with `lo <= id <= hi`, in key order.
    pub fn range(&self, table: &str, lo: u64, hi: u64) -> Result<Vec<Vec<RV>>> {
        self.reads().range(table, lo, hi)
    }

    /// Number of rows in a table.
    pub fn count(&self, table: &str) -> Result<usize> {
        self.reads().count(table)
    }

    /// Rows whose `column` equals `value`, in primary-key order, through
    /// the column's secondary index (see [`Transaction::find`]).
    pub fn find(&self, table: &str, column: &str, value: &RV) -> Result<Vec<Vec<RV>>> {
        self.reads().find(table, column, value)
    }

    /// Reads a whole BLOB.
    pub fn get_blob(&self, id: BlobId) -> Result<Vec<u8>> {
        self.reads().get_blob(id)
    }

    /// Reads the first `n` bytes of a BLOB (progressive transfer).
    pub fn get_blob_prefix(&self, id: BlobId, n: usize) -> Result<Vec<u8>> {
        self.reads().get_blob_prefix(id, n)
    }

    /// A BLOB's length.
    pub fn blob_len(&self, id: BlobId) -> Result<u64> {
        self.reads().blob_len(id)
    }
}

impl<'db> Drop for ReadTransaction<'db> {
    fn drop(&mut self) {
        self.db.shared.snapshots.release(self.snap.csn);
    }
}

fn catalog_root(inner: &mut Inner) -> Result<PageId> {
    inner
        .pool
        .with_page(PageId::META, |p| PageId(p.get_u64(META_CATALOG_ROOT)))
}

#[cfg(test)]
mod tests;
