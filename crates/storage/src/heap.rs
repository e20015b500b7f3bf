//! Slotted-page heap files: unordered record storage with stable record ids.
//!
//! Body layout of a heap page (offsets relative to the page body):
//!
//! ```text
//! 0..2    u16 slot_count
//! 2..4    u16 free_end        (records occupy free_end..BODY, grow downward)
//! 4..12   u64 next_page       (chain link, PageId::NONE at the tail)
//! 12..    slot directory      (4 bytes per slot: u16 offset, u16 len)
//! ```
//!
//! A deleted slot has `offset == len == 0`; slots are reused by later
//! inserts, so a [`RecordId`] (page, slot) stays valid until its record is
//! deleted. Pages are compacted lazily when an insert fails on
//! fragmentation but the page has enough total free space.

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PageKind, PAGE_HEADER, PAGE_SIZE};
use crate::pager::{BufferPool, PageRead};

const BODY: usize = PAGE_SIZE - PAGE_HEADER;
pub(crate) const OFF_SLOT_COUNT: usize = 0;
const OFF_FREE_END: usize = 2;
pub(crate) const OFF_NEXT: usize = 4;
const SLOTS_START: usize = 12;

/// Largest record a heap page can store (one record, one slot).
pub const MAX_RECORD: usize = BODY - SLOTS_START - 4;

/// Stable identifier of a heap record: page plus slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// The heap page holding the record.
    pub page: PageId,
    /// The slot index within that page.
    pub slot: u16,
}

impl RecordId {
    /// Packs into a `u64` (page in the high 48 bits) for index storage.
    pub fn pack(self) -> u64 {
        (self.page.0 << 16) | self.slot as u64
    }

    /// Reverses [`pack`](Self::pack).
    pub fn unpack(v: u64) -> RecordId {
        RecordId {
            page: PageId(v >> 16),
            slot: (v & 0xFFFF) as u16,
        }
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// Initialises a fresh heap page image.
pub fn init_heap_page(page: &mut Page) {
    *page = Page::new(PageKind::Heap);
    page.put_u16(OFF_SLOT_COUNT, 0);
    page.put_u16(OFF_FREE_END, BODY as u16);
    page.put_u64(OFF_NEXT, PageId::NONE.0);
}

pub(crate) fn slot_entry(page: &Page, slot: u16) -> (u16, u16) {
    let base = SLOTS_START + slot as usize * 4;
    (page.get_u16(base), page.get_u16(base + 2))
}

fn set_slot(page: &mut Page, slot: u16, offset: u16, len: u16) {
    let base = SLOTS_START + slot as usize * 4;
    page.put_u16(base, offset);
    page.put_u16(base + 2, len);
}

/// Contiguous free bytes between the slot directory and the record area.
fn gap(page: &Page) -> usize {
    let slots = page.get_u16(OFF_SLOT_COUNT) as usize;
    let free_end = page.get_u16(OFF_FREE_END) as usize;
    free_end.saturating_sub(SLOTS_START + slots * 4)
}

/// Total reclaimable bytes (gap plus dead record space).
fn total_free(page: &Page) -> usize {
    let slots = page.get_u16(OFF_SLOT_COUNT) as usize;
    let mut live: usize = 0;
    for s in 0..slots {
        let (_, len) = slot_entry(page, s as u16);
        live += len as usize;
    }
    BODY - (SLOTS_START + slots * 4) - live
}

fn find_free_slot(page: &Page) -> Option<u16> {
    let slots = page.get_u16(OFF_SLOT_COUNT);
    (0..slots).find(|&s| {
        let (off, len) = slot_entry(page, s);
        off == 0 && len == 0
    })
}

/// Rewrites the record area so all live records are contiguous at the end.
fn compact(page: &mut Page) {
    let slots = page.get_u16(OFF_SLOT_COUNT);
    let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
    for s in 0..slots {
        let (off, len) = slot_entry(page, s);
        if len > 0 {
            live.push((s, page.body()[off as usize..(off + len) as usize].to_vec()));
        }
    }
    let mut free_end = BODY;
    for (s, bytes) in live {
        free_end -= bytes.len();
        page.body_mut()[free_end..free_end + bytes.len()].copy_from_slice(&bytes);
        set_slot(page, s, free_end as u16, bytes.len() as u16);
    }
    page.put_u16(OFF_FREE_END, free_end as u16);
}

/// Tries to place `bytes` in `page`; returns the slot on success.
fn insert_into_page(page: &mut Page, bytes: &[u8]) -> Option<u16> {
    let need_slot = find_free_slot(page).is_none();
    let needed = bytes.len() + if need_slot { 4 } else { 0 };
    if gap(page) < needed {
        if total_free(page) < needed {
            return None;
        }
        compact(page);
        if gap(page) < needed {
            return None;
        }
    }
    let slot = match find_free_slot(page) {
        Some(s) => s,
        None => {
            let s = page.get_u16(OFF_SLOT_COUNT);
            page.put_u16(OFF_SLOT_COUNT, s + 1);
            s
        }
    };
    let free_end = page.get_u16(OFF_FREE_END) as usize - bytes.len();
    page.body_mut()[free_end..free_end + bytes.len()].copy_from_slice(bytes);
    page.put_u16(OFF_FREE_END, free_end as u16);
    set_slot(page, slot, free_end as u16, bytes.len() as u16);
    Some(slot)
}

/// A handle over one heap chain. Not persisted — rebuilt from the chain's
/// first page (stored in the catalog). Caches the last page known to have
/// room so repeated inserts don't rescan the chain.
#[derive(Debug, Clone, Copy)]
pub struct Heap {
    first: PageId,
    insert_hint: PageId,
}

impl Heap {
    /// Creates a brand-new heap chain, allocating its first page.
    pub fn create(pool: &mut BufferPool) -> Result<Heap> {
        let first = pool.allocate(PageKind::Heap)?;
        pool.with_page_mut(first, init_heap_page)?;
        Ok(Heap {
            first,
            insert_hint: first,
        })
    }

    /// Opens an existing chain rooted at `first`.
    pub fn open(first: PageId) -> Heap {
        Heap {
            first,
            insert_hint: first,
        }
    }

    /// The chain's first page (persist this in the catalog).
    pub fn first_page(&self) -> PageId {
        self.first
    }

    /// The page the last insert landed on (seed for the next handle).
    pub fn insert_hint(&self) -> PageId {
        self.insert_hint
    }

    /// Seeds the insert hint (e.g. from the catalog's in-memory cache).
    pub fn set_insert_hint(&mut self, hint: PageId) {
        self.insert_hint = hint;
    }

    /// Inserts a record, extending the chain if every page is full.
    pub fn insert(&mut self, pool: &mut BufferPool, bytes: &[u8]) -> Result<RecordId> {
        if bytes.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge(bytes.len()));
        }
        // Try the hint first, then walk from it to the tail. Pages are
        // probed read-only so a full page is never dirtied by the attempt
        // (a dirty page cannot be evicted, and a long walk must not pin the
        // whole chain into the pool).
        let mut current = self.insert_hint;
        loop {
            let need_slot_bytes = bytes.len() + 4;
            let (fits, next) = pool.with_page(current, |p| {
                let fits = gap(p) >= need_slot_bytes || total_free(p) >= need_slot_bytes;
                (fits, PageId(p.get_u64(OFF_NEXT)))
            })?;
            if fits {
                let slot = pool.with_page_mut(current, |p| insert_into_page(p, bytes))?;
                if let Some(slot) = slot {
                    self.insert_hint = current;
                    return Ok(RecordId {
                        page: current,
                        slot,
                    });
                }
                // The conservative probe over-estimated (slot reuse nuance);
                // fall through and keep walking.
            }
            if next.is_some() {
                current = next;
            } else {
                let fresh = pool.allocate(PageKind::Heap)?;
                pool.with_page_mut(fresh, init_heap_page)?;
                pool.with_page_mut(current, |p| p.put_u64(OFF_NEXT, fresh.0))?;
                current = fresh;
            }
        }
    }

    /// Reads a record. Generic over the page source so snapshot readers
    /// share the code path with the writer's pool.
    pub fn get<P: PageRead>(&self, pool: &mut P, rid: RecordId) -> Result<Vec<u8>> {
        pool.with_page(rid.page, |p| {
            if p.kind() != PageKind::Heap {
                return Err(StorageError::RecordNotFound {
                    page: rid.page.0,
                    slot: rid.slot,
                });
            }
            let slots = p.get_u16(OFF_SLOT_COUNT);
            if rid.slot >= slots {
                return Err(StorageError::RecordNotFound {
                    page: rid.page.0,
                    slot: rid.slot,
                });
            }
            let (off, len) = slot_entry(p, rid.slot);
            if len == 0 {
                return Err(StorageError::RecordNotFound {
                    page: rid.page.0,
                    slot: rid.slot,
                });
            }
            Ok(p.body()[off as usize..(off + len) as usize].to_vec())
        })?
    }

    /// Deletes a record (its slot becomes reusable).
    pub fn delete(&self, pool: &mut BufferPool, rid: RecordId) -> Result<()> {
        pool.with_page_mut(rid.page, |p| {
            let slots = p.get_u16(OFF_SLOT_COUNT);
            if rid.slot >= slots {
                return Err(StorageError::RecordNotFound {
                    page: rid.page.0,
                    slot: rid.slot,
                });
            }
            let (_, len) = slot_entry(p, rid.slot);
            if len == 0 {
                return Err(StorageError::RecordNotFound {
                    page: rid.page.0,
                    slot: rid.slot,
                });
            }
            set_slot(p, rid.slot, 0, 0);
            Ok(())
        })?
    }

    /// Updates a record in place when possible; otherwise deletes and
    /// re-inserts, returning the (possibly new) record id.
    pub fn update(
        &mut self,
        pool: &mut BufferPool,
        rid: RecordId,
        bytes: &[u8],
    ) -> Result<RecordId> {
        if bytes.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge(bytes.len()));
        }
        let in_place = pool.with_page_mut(rid.page, |p| {
            let slots = p.get_u16(OFF_SLOT_COUNT);
            if rid.slot >= slots {
                return Err(StorageError::RecordNotFound {
                    page: rid.page.0,
                    slot: rid.slot,
                });
            }
            let (off, len) = slot_entry(p, rid.slot);
            if len == 0 {
                return Err(StorageError::RecordNotFound {
                    page: rid.page.0,
                    slot: rid.slot,
                });
            }
            if bytes.len() <= len as usize {
                // Shrinking (or equal) fits in the existing space.
                p.body_mut()[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
                set_slot(p, rid.slot, off, bytes.len() as u16);
                Ok(true)
            } else {
                Ok(false)
            }
        })??;
        if in_place {
            return Ok(rid);
        }
        self.delete(pool, rid)?;
        self.insert(pool, bytes)
    }

    /// Scans the whole chain, returning `(record id, bytes)` pairs in
    /// physical order.
    pub fn scan<P: PageRead>(&self, pool: &mut P) -> Result<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut current = self.first;
        while current.is_some() {
            let next = pool.with_page(current, |p| {
                let slots = p.get_u16(OFF_SLOT_COUNT);
                for s in 0..slots {
                    let (off, len) = slot_entry(p, s);
                    if len > 0 {
                        out.push((
                            RecordId {
                                page: current,
                                slot: s,
                            },
                            p.body()[off as usize..(off + len) as usize].to_vec(),
                        ));
                    }
                }
                PageId(p.get_u64(OFF_NEXT))
            })?;
            current = next;
        }
        Ok(out)
    }

    /// Frees every page of the chain (drop table).
    pub fn destroy(self, pool: &mut BufferPool) -> Result<()> {
        let mut current = self.first;
        while current.is_some() {
            let next = pool.with_page(current, |p| PageId(p.get_u64(OFF_NEXT)))?;
            pool.free_page(current)?;
            current = next;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::pager::META_FREE_HEAD;

    fn pool() -> BufferPool {
        let mut disk = DiskManager::in_memory();
        let mut meta = Page::new(PageKind::Meta);
        meta.put_u64(META_FREE_HEAD, PageId::NONE.0);
        disk.write_page(PageId::META, &mut meta).unwrap();
        BufferPool::for_tests(disk)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut pool = pool();
        let mut heap = Heap::create(&mut pool).unwrap();
        let a = heap.insert(&mut pool, b"hello").unwrap();
        let b = heap.insert(&mut pool, b"world!").unwrap();
        assert_eq!(heap.get(&mut pool, a).unwrap(), b"hello");
        assert_eq!(heap.get(&mut pool, b).unwrap(), b"world!");
    }

    #[test]
    fn record_id_pack_roundtrip() {
        let rid = RecordId {
            page: PageId(123_456_789),
            slot: 4321,
        };
        assert_eq!(RecordId::unpack(rid.pack()), rid);
    }

    #[test]
    fn delete_then_get_fails_and_slot_reused() {
        let mut pool = pool();
        let mut heap = Heap::create(&mut pool).unwrap();
        let a = heap.insert(&mut pool, b"one").unwrap();
        heap.delete(&mut pool, a).unwrap();
        assert!(heap.get(&mut pool, a).is_err());
        assert!(heap.delete(&mut pool, a).is_err());
        let b = heap.insert(&mut pool, b"two").unwrap();
        assert_eq!(b.slot, a.slot, "deleted slot reused");
        assert_eq!(heap.get(&mut pool, b).unwrap(), b"two");
    }

    #[test]
    fn records_spill_to_new_pages() {
        let mut pool = pool();
        let mut heap = Heap::create(&mut pool).unwrap();
        let payload = vec![7u8; 1000];
        let rids: Vec<RecordId> = (0..40)
            .map(|_| heap.insert(&mut pool, &payload).unwrap())
            .collect();
        let pages: std::collections::HashSet<PageId> = rids.iter().map(|r| r.page).collect();
        assert!(pages.len() > 1, "40 KB must span multiple 8 KiB pages");
        for rid in &rids {
            assert_eq!(heap.get(&mut pool, *rid).unwrap().len(), 1000);
        }
        let scanned = heap.scan(&mut pool).unwrap();
        assert_eq!(scanned.len(), 40);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut pool = pool();
        let mut heap = Heap::create(&mut pool).unwrap();
        assert!(matches!(
            heap.insert(&mut pool, &vec![0u8; MAX_RECORD + 1]),
            Err(StorageError::RecordTooLarge(_))
        ));
        // Exactly MAX_RECORD fits.
        let rid = heap.insert(&mut pool, &vec![1u8; MAX_RECORD]).unwrap();
        assert_eq!(heap.get(&mut pool, rid).unwrap().len(), MAX_RECORD);
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut pool = pool();
        let mut heap = Heap::create(&mut pool).unwrap();
        // Fill one page with ~2 KB records, delete every other one, then
        // insert a record that only fits after compaction.
        let mut rids = Vec::new();
        for _ in 0..4 {
            rids.push(heap.insert(&mut pool, &vec![9u8; 1900]).unwrap());
        }
        let first_page = rids[0].page;
        heap.delete(&mut pool, rids[0]).unwrap();
        heap.delete(&mut pool, rids[2]).unwrap();
        // 3800+ bytes reclaimable but fragmented; a 3000-byte record needs
        // compaction to fit in the same page.
        let rid = heap.insert(&mut pool, &vec![3u8; 3000]).unwrap();
        assert_eq!(rid.page, first_page, "compaction made room in page 1");
        assert_eq!(heap.get(&mut pool, rids[1]).unwrap(), vec![9u8; 1900]);
        assert_eq!(heap.get(&mut pool, rids[3]).unwrap(), vec![9u8; 1900]);
    }

    #[test]
    fn update_in_place_and_relocating() {
        let mut pool = pool();
        let mut heap = Heap::create(&mut pool).unwrap();
        let rid = heap.insert(&mut pool, b"abcdef").unwrap();
        // Shrink: stays in place.
        let r2 = heap.update(&mut pool, rid, b"xyz").unwrap();
        assert_eq!(r2, rid);
        assert_eq!(heap.get(&mut pool, rid).unwrap(), b"xyz");
        // Grow: may relocate, old id invalid if it moved.
        let r3 = heap.update(&mut pool, r2, &vec![5u8; 4000]).unwrap();
        assert_eq!(heap.get(&mut pool, r3).unwrap(), vec![5u8; 4000]);
    }

    #[test]
    fn scan_skips_deleted() {
        let mut pool = pool();
        let mut heap = Heap::create(&mut pool).unwrap();
        let a = heap.insert(&mut pool, b"a").unwrap();
        let _b = heap.insert(&mut pool, b"b").unwrap();
        heap.delete(&mut pool, a).unwrap();
        let scanned = heap.scan(&mut pool).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].1, b"b");
    }

    #[test]
    fn destroy_returns_pages_to_free_list() {
        let mut pool = pool();
        let mut heap = Heap::create(&mut pool).unwrap();
        for _ in 0..30 {
            heap.insert(&mut pool, &vec![1u8; 2000]).unwrap();
        }
        let first = heap.first_page();
        heap.destroy(&mut pool).unwrap();
        // The freed pages are reusable.
        let reused = pool.allocate(PageKind::Heap).unwrap();
        assert!(reused == first || reused.0 > 0);
    }
}
