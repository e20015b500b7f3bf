//! The paging layer: one sharded, lock-striped cache of committed pages
//! shared by every reader, plus the single writer's private write set.
//!
//! A committed page resolves through [`ReadLayer::with_committed`] — the
//! one place hits and misses are counted:
//!
//! 1. the committed **overlay** of a snapshot (pages committed since the
//!    last checkpoint, shared `Arc<Page>` images),
//! 2. the [`PageCache`]: lock-striped shards keyed by `PageId`, each with
//!    its own clock eviction,
//! 3. the data file.
//!
//! The writer's [`BufferPool`] puts its **write set** (pages dirtied by the
//! in-flight transaction) in front of that path; snapshot readers
//! ([`SnapshotReader`](crate::snapshot::SnapshotReader)) use it as is. No
//! read ever needs the writer lock, and no shard lock is ever held across
//! disk I/O.
//!
//! Access is closure-scoped ([`PageRead::with_page`] /
//! [`BufferPool::with_page_mut`]) so a page reference can never outlive one
//! call; that makes pin counts unnecessary. The write set is never evicted
//! and has no capacity: the WAL is redo-only, so uncommitted pages must not
//! reach the data file, and a transaction holds every page it dirtied until
//! commit.
//!
//! Newly allocated pages live purely in the write set (`virtual_end` past
//! the committed end) until the owning transaction commits, so an abort
//! simply drops the write set and published state is untouched.
//!
//! The cache and the write set record into one [`Registry`], owned by the
//! read layer; [`PoolStats`] is its typed view.

use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PageKind, PAGE_SIZE};
use crate::snapshot::CommittedState;
use parking_lot::Mutex;
use rcmo_obs::{Counter, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Body offset (within the meta page) of the free-list head pointer.
pub const META_FREE_HEAD: usize = 8;
/// Body offset (within a free page) of the next-free pointer.
const FREE_NEXT: usize = 0;
/// Lock stripes in the shared page cache.
const CACHE_SHARDS: usize = 8;

/// Closure-scoped read access to fixed-size pages.
///
/// Implemented by the writer's [`BufferPool`] and by snapshot readers, so
/// read-only structure walks (heap scans, B+tree lookups, BLOB reads) are
/// generic over where the bytes come from.
pub trait PageRead {
    /// Runs `f` with read access to page `id`.
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R>;
}

impl<P: PageRead> PageRead for &mut P {
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        (**self).with_page(id, f)
    }
}

/// Cache statistics: a typed view over a database's paging registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Page requests served from memory (write set, overlay, or cache).
    pub hits: u64,
    /// Page requests that had to read the disk.
    pub misses: u64,
    /// Cached frames evicted to make room.
    pub evictions: u64,
    /// Pages allocated over the database's lifetime.
    pub allocations: u64,
}

impl PoolStats {
    /// Reads the paging counters out of a metrics registry.
    pub fn from_registry(obs: &Registry) -> Self {
        PoolStats {
            hits: obs.read_counter("storage.pool.hit.count"),
            misses: obs.read_counter("storage.pool.miss.count"),
            evictions: obs.read_counter("storage.pool.eviction.count"),
            allocations: obs.read_counter("storage.pool.alloc.count"),
        }
    }
}

#[derive(Debug)]
struct CacheEntry {
    page: Arc<Page>,
    /// Second-chance bit: set on every hit, cleared when the clock hand
    /// sweeps past the entry.
    referenced: bool,
}

#[derive(Debug, Default)]
struct CacheShard {
    map: HashMap<PageId, CacheEntry>,
    /// Clock ring over the resident ids: eviction pops the front, granting
    /// referenced entries one more lap at the back, so picking a victim is
    /// amortized O(1) instead of a scan over the whole stripe.
    ring: VecDeque<PageId>,
}

/// A cache of committed page images, split into lock-striped shards keyed
/// by a multiplicative hash of the page id. Each shard runs its own
/// clock/second-chance eviction, so concurrent readers only contend when
/// they touch the same stripe.
#[derive(Debug)]
pub(crate) struct PageCache {
    shards: Vec<Mutex<CacheShard>>,
    shard_capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl PageCache {
    fn new(total_frames: usize, obs: &Registry) -> PageCache {
        PageCache {
            shard_capacity: (total_frames / CACHE_SHARDS).max(1),
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            hits: obs.counter("storage.pool.hit.count"),
            misses: obs.counter("storage.pool.miss.count"),
            evictions: obs.counter("storage.pool.eviction.count"),
        }
    }

    fn shard(&self, id: PageId) -> &Mutex<CacheShard> {
        // Fibonacci hashing spreads sequential page ids across stripes.
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize;
        &self.shards[h % self.shards.len()]
    }

    fn get(&self, id: PageId) -> Option<Arc<Page>> {
        let mut shard = self.shard(id).lock();
        let entry = shard.map.get_mut(&id)?;
        entry.referenced = true;
        Some(Arc::clone(&entry.page))
    }

    /// Inserts (or refreshes) a committed image. A full stripe evicts via
    /// the clock ring: the hand clears referenced bits until it lands on an
    /// entry nobody touched since its last lap.
    pub(crate) fn insert(&self, id: PageId, page: Arc<Page>) {
        let mut guard = self.shard(id).lock();
        let shard = &mut *guard;
        if let Some(entry) = shard.map.get_mut(&id) {
            entry.page = page;
            entry.referenced = true;
            return;
        }
        while shard.map.len() >= self.shard_capacity {
            let Some(victim) = shard.ring.pop_front() else {
                break;
            };
            match shard.map.get_mut(&victim) {
                Some(e) if e.referenced => {
                    e.referenced = false;
                    shard.ring.push_back(victim);
                }
                Some(_) => {
                    shard.map.remove(&victim);
                    self.evictions.inc();
                }
                None => {}
            }
        }
        shard.map.insert(
            id,
            CacheEntry {
                page,
                referenced: true,
            },
        );
        shard.ring.push_back(id);
    }
}

/// The shared read path: committed overlay, then the sharded [`PageCache`],
/// then the data file. One instance per database, shared by the writer's
/// pool and every snapshot reader via `Arc`.
#[derive(Debug)]
pub(crate) struct ReadLayer {
    pub(crate) disk: Mutex<DiskManager>,
    pub(crate) cache: PageCache,
    /// The database's paging registry: the cache and the write set both
    /// record here.
    pub(crate) obs: Registry,
}

impl ReadLayer {
    pub(crate) fn new(disk: DiskManager, cache_frames: usize) -> ReadLayer {
        let obs = Registry::new();
        ReadLayer {
            disk: Mutex::new(disk),
            cache: PageCache::new(cache_frames, &obs),
            obs,
        }
    }

    /// Runs `f` on page `id` as of committed version `snap`: overlay first,
    /// then cache, then the data file. The disk lock is never held while
    /// touching a cache shard.
    pub(crate) fn with_committed<R>(
        &self,
        snap: &CommittedState,
        id: PageId,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R> {
        if id.0 >= snap.num_pages {
            return Err(StorageError::PageOutOfBounds(id.0));
        }
        if let Some(page) = snap.pages.get(&id) {
            self.cache.hits.inc();
            return Ok(f(page));
        }
        if let Some(page) = self.cache.get(id) {
            self.cache.hits.inc();
            return Ok(f(&page));
        }
        self.cache.misses.inc();
        let page = Arc::new(self.disk.lock().read_page(id)?);
        self.cache.insert(id, Arc::clone(&page));
        Ok(f(&page))
    }
}

/// The single writer's page buffer: exactly the write set of the in-flight
/// transaction, layered over a base committed snapshot and the shared
/// [`ReadLayer`].
#[derive(Debug)]
pub struct BufferPool {
    layer: Arc<ReadLayer>,
    base: Arc<CommittedState>,
    /// The write set: every frame here belongs to the in-flight transaction.
    frames: HashMap<PageId, Page>,
    /// One past the highest allocated page id (≥ the committed end).
    virtual_end: u64,
    allocations: Counter,
}

impl BufferPool {
    /// An empty write set over the shared read layer, based on `base`.
    pub(crate) fn new(layer: Arc<ReadLayer>, base: Arc<CommittedState>) -> BufferPool {
        BufferPool {
            virtual_end: base.num_pages,
            allocations: layer.obs.counter("storage.pool.alloc.count"),
            layer,
            base,
            frames: HashMap::new(),
        }
    }

    /// Test-only: a standalone pool over `disk` with a default read layer
    /// and an empty base snapshot.
    #[cfg(test)]
    pub(crate) fn for_tests(disk: DiskManager) -> BufferPool {
        let num_pages = disk.num_pages();
        let layer = Arc::new(ReadLayer::new(disk, 1024));
        BufferPool::new(layer, Arc::new(CommittedState::bootstrap(num_pages)))
    }

    /// One past the highest allocated page id.
    pub fn num_pages(&self) -> u64 {
        self.virtual_end
    }

    /// Ids of all write-set frames, sorted.
    pub fn dirty_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.frames.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Runs `f` with write access to page `id`, copying it into the write
    /// set first if needed (copy-on-write from the committed image).
    pub fn with_page_mut<R>(&mut self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        if id.0 >= self.virtual_end {
            return Err(StorageError::PageOutOfBounds(id.0));
        }
        if !self.frames.contains_key(&id) {
            let page = self.layer.with_committed(&self.base, id, Page::clone)?;
            self.frames.insert(id, page);
        } else {
            self.layer.cache.hits.inc();
        }
        Ok(f(self.frames.get_mut(&id).expect("just admitted")))
    }

    /// The sealed image of a write-set page, for WAL logging.
    pub fn sealed_image(&mut self, id: PageId) -> Result<[u8; PAGE_SIZE]> {
        match self.frames.get_mut(&id) {
            Some(page) => Ok(*page.sealed_bytes()),
            None => Err(StorageError::Internal(format!(
                "sealed_image of non-dirty page {id}"
            ))),
        }
    }

    /// Allocates a page: pops the free list if possible, otherwise extends
    /// the virtual end. The new page exists only in the write set until
    /// commit.
    pub fn allocate(&mut self, kind: PageKind) -> Result<PageId> {
        self.allocations.inc();
        let free_head =
            self.with_page(PageId::META, |meta| PageId(meta.get_u64(META_FREE_HEAD)))?;
        if free_head.is_some() {
            let next = self.with_page(free_head, |p| PageId(p.get_u64(FREE_NEXT)))?;
            self.with_page_mut(PageId::META, |meta| meta.put_u64(META_FREE_HEAD, next.0))?;
            self.with_page_mut(free_head, |p| {
                *p = Page::new(kind);
            })?;
            return Ok(free_head);
        }
        let id = PageId(self.virtual_end);
        self.virtual_end += 1;
        self.frames.insert(id, Page::new(kind));
        Ok(id)
    }

    /// Returns a page to the free list.
    pub fn free_page(&mut self, id: PageId) -> Result<()> {
        if id == PageId::META {
            return Err(StorageError::Internal("cannot free the meta page".into()));
        }
        let old_head = self.with_page(PageId::META, |meta| meta.get_u64(META_FREE_HEAD))?;
        self.with_page_mut(id, |p| {
            *p = Page::new(PageKind::Free);
            p.put_u64(FREE_NEXT, old_head);
        })?;
        self.with_page_mut(PageId::META, |meta| meta.put_u64(META_FREE_HEAD, id.0))?;
        Ok(())
    }

    /// Drains the write set (sorted by page id, images shared) for publish.
    pub(crate) fn take_write_set(&mut self) -> Vec<(PageId, Arc<Page>)> {
        let mut out: Vec<(PageId, Arc<Page>)> = self
            .frames
            .drain()
            .map(|(id, page)| (id, Arc::new(page)))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Drops the write set and rolls the virtual end back to the committed
    /// end. Called by abort.
    pub fn discard_dirty(&mut self) {
        self.frames.clear();
        self.virtual_end = self.base.num_pages;
    }

    /// `true` if the write set holds uncommitted changes.
    pub fn has_dirty(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Rebases the (empty) pool onto a newly published committed state.
    pub(crate) fn set_base(&mut self, base: Arc<CommittedState>) {
        debug_assert!(self.frames.is_empty(), "rebase with a live write set");
        self.virtual_end = base.num_pages;
        self.base = base;
    }

    /// The base committed snapshot this pool reads through.
    pub(crate) fn base(&self) -> &Arc<CommittedState> {
        &self.base
    }
}

impl PageRead for BufferPool {
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        if id.0 >= self.virtual_end {
            return Err(StorageError::PageOutOfBounds(id.0));
        }
        if let Some(page) = self.frames.get(&id) {
            self.layer.cache.hits.inc();
            return Ok(f(page));
        }
        self.layer.with_committed(&self.base, id, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_pool() -> BufferPool {
        let mut disk = DiskManager::in_memory();
        let mut meta = Page::new(PageKind::Meta);
        meta.put_u64(META_FREE_HEAD, PageId::NONE.0);
        disk.write_page(PageId::META, &mut meta).unwrap();
        BufferPool::for_tests(disk)
    }

    /// Publishes the pool's write set as a new committed version, as the
    /// database's commit path does.
    fn publish(pool: &mut BufferPool) {
        let old = Arc::clone(pool.base());
        let num_pages = pool.num_pages();
        let mut pages = old.pages.clone();
        for (id, page) in pool.take_write_set() {
            pages.insert(id, page);
        }
        pool.set_base(Arc::new(CommittedState {
            csn: old.csn + 1,
            pages,
            catalog: Arc::clone(&old.catalog),
            num_pages,
        }));
    }

    #[test]
    fn allocate_and_access() {
        let mut pool = fresh_pool();
        let a = pool.allocate(PageKind::Heap).unwrap();
        let b = pool.allocate(PageKind::Blob).unwrap();
        assert_ne!(a, b);
        pool.with_page_mut(a, |p| p.put_u64(0, 11)).unwrap();
        pool.with_page_mut(b, |p| p.put_u64(0, 22)).unwrap();
        assert_eq!(pool.with_page(a, |p| p.get_u64(0)).unwrap(), 11);
        assert_eq!(pool.with_page(b, |p| p.get_u64(0)).unwrap(), 22);
        assert_eq!(pool.with_page(a, |p| p.kind()).unwrap(), PageKind::Heap);
    }

    #[test]
    fn free_list_reuses_pages() {
        let mut pool = fresh_pool();
        let a = pool.allocate(PageKind::Heap).unwrap();
        let _b = pool.allocate(PageKind::Heap).unwrap();
        pool.free_page(a).unwrap();
        let c = pool.allocate(PageKind::Blob).unwrap();
        assert_eq!(c, a, "freed page is reused first");
        assert_eq!(pool.with_page(c, |p| p.kind()).unwrap(), PageKind::Blob);
    }

    #[test]
    fn write_set_survives_publish_via_overlay() {
        let mut pool = fresh_pool();
        let a = pool.allocate(PageKind::Heap).unwrap();
        pool.with_page_mut(a, |p| p.put_u64(0, 77)).unwrap();
        publish(&mut pool);
        assert!(!pool.has_dirty());
        // The committed image now comes from the base overlay, not disk.
        assert_eq!(pool.with_page(a, |p| p.get_u64(0)).unwrap(), 77);
        // Mutating it again copies on write; the overlay keeps the old image.
        pool.with_page_mut(a, |p| p.put_u64(0, 78)).unwrap();
        assert_eq!(pool.base().pages[&a].get_u64(0), 77);
        pool.discard_dirty();
        assert_eq!(pool.with_page(a, |p| p.get_u64(0)).unwrap(), 77);
    }

    #[test]
    fn overflowing_transaction_grows_with_warning() {
        let mut pool = fresh_pool();
        // One transaction dirties 64 pages: the write set has no capacity,
        // so every page must stay addressable (no eviction, no error).
        let ids: Vec<PageId> = (0..64)
            .map(|_| pool.allocate(PageKind::Heap).unwrap())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| p.put_u64(0, i as u64)).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.with_page(id, |p| p.get_u64(0)).unwrap(), i as u64);
        }
        assert_eq!(pool.dirty_ids().len(), 64);
    }

    #[test]
    fn discard_dirty_rolls_back() {
        let mut pool = fresh_pool();
        let a = pool.allocate(PageKind::Heap).unwrap();
        pool.with_page_mut(a, |p| p.put_u64(0, 5)).unwrap();
        publish(&mut pool);
        // New txn: modify a and allocate b, then abort.
        pool.with_page_mut(a, |p| p.put_u64(0, 6)).unwrap();
        let b = pool.allocate(PageKind::Heap).unwrap();
        pool.discard_dirty();
        assert_eq!(pool.with_page(a, |p| p.get_u64(0)).unwrap(), 5);
        assert!(pool.with_page(b, |p| p.get_u64(0)).is_err());
        assert!(!pool.has_dirty());
    }

    #[test]
    fn cache_shards_hit_miss_and_evict() {
        // A tiny cache (one frame per stripe) over a 20-page disk.
        let mut disk = DiskManager::in_memory();
        for i in 0..20u64 {
            let mut p = Page::new(if i == 0 {
                PageKind::Meta
            } else {
                PageKind::Heap
            });
            p.put_u64(0, i);
            disk.write_page(PageId(i), &mut p).unwrap();
        }
        let layer = ReadLayer::new(disk, 4);
        let snap = CommittedState::bootstrap(20);
        let read = |i: u64| {
            layer
                .with_committed(&snap, PageId(i), |p| p.get_u64(0))
                .unwrap()
        };
        assert_eq!(read(3), 3); // miss
        assert_eq!(read(3), 3); // hit
        let s = PoolStats::from_registry(&layer.obs);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        // Stream every page through: the cache must evict.
        for i in 0..20u64 {
            assert_eq!(read(i), i);
        }
        assert!(PoolStats::from_registry(&layer.obs).evictions > 0);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut pool = fresh_pool();
        let a = pool.allocate(PageKind::Heap).unwrap();
        publish(&mut pool);
        pool.with_page(a, |_| ()).unwrap(); // overlay hit
        pool.with_page(a, |_| ()).unwrap();
        let s = PoolStats::from_registry(&pool.layer.obs);
        assert!(s.hits >= 2);
        assert!(s.allocations >= 1);
    }
}
