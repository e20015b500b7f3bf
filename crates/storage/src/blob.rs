//! Chunked BLOB storage for multimedia payloads.
//!
//! The paper stores images, audio and compound objects as Oracle BLOBs (up
//! to 4 GB). Here a BLOB is a chain of chunk pages:
//!
//! ```text
//! first page:  0..8 u64 next | 8..16 u64 total_len | 16..20 u32 chunk_len | data
//! later pages: 0..8 u64 next |                       8..12 u32 chunk_len  | data
//! ```
//!
//! [`read_prefix`](BlobStore::read_prefix) serves progressive transfer: the
//! layered image codec (`rcmo-codec`) produces bitstreams whose prefixes
//! decode to coarser resolutions, so a bandwidth-limited client fetches only
//! a prefix of the stored BLOB.

use crate::error::{Result, StorageError};
use crate::page::{PageId, PageKind, PAGE_HEADER, PAGE_SIZE};
use crate::pager::{BufferPool, PageRead};

const BODY: usize = PAGE_SIZE - PAGE_HEADER;
pub(crate) const OFF_NEXT: usize = 0;
pub(crate) const FIRST_TOTAL: usize = 8;
pub(crate) const FIRST_CHUNK_LEN: usize = 16;
const FIRST_DATA: usize = 20;
pub(crate) const CONT_CHUNK_LEN: usize = 8;
const CONT_DATA: usize = 12;

/// Usable bytes in the first chunk page.
pub const FIRST_CAP: usize = BODY - FIRST_DATA;
/// Usable bytes in each continuation page.
pub const CONT_CAP: usize = BODY - CONT_DATA;

/// Identifier of a BLOB: the page id of its first chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobId(pub u64);

impl std::fmt::Display for BlobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blob{}", self.0)
    }
}

/// BLOB operations over a buffer pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlobStore;

impl BlobStore {
    /// Writes `data` as a new BLOB and returns its id.
    pub fn create(pool: &mut BufferPool, data: &[u8]) -> Result<BlobId> {
        let first = pool.allocate(PageKind::Blob)?;
        let first_chunk = data.len().min(FIRST_CAP);
        pool.with_page_mut(first, |p| {
            p.put_u64(OFF_NEXT, PageId::NONE.0);
            p.put_u64(FIRST_TOTAL, data.len() as u64);
            p.put_u32(FIRST_CHUNK_LEN, first_chunk as u32);
            p.body_mut()[FIRST_DATA..FIRST_DATA + first_chunk]
                .copy_from_slice(&data[..first_chunk]);
        })?;
        let mut prev = first;
        let mut written = first_chunk;
        while written < data.len() {
            let chunk = (data.len() - written).min(CONT_CAP);
            let page = pool.allocate(PageKind::Blob)?;
            pool.with_page_mut(page, |p| {
                p.put_u64(OFF_NEXT, PageId::NONE.0);
                p.put_u32(CONT_CHUNK_LEN, chunk as u32);
                p.body_mut()[CONT_DATA..CONT_DATA + chunk]
                    .copy_from_slice(&data[written..written + chunk]);
            })?;
            pool.with_page_mut(prev, |p| p.put_u64(OFF_NEXT, page.0))?;
            prev = page;
            written += chunk;
        }
        Ok(BlobId(first.0))
    }

    fn check_first<P: PageRead>(pool: &mut P, id: BlobId) -> Result<()> {
        let ok = pool
            .with_page(PageId(id.0), |p| p.kind() == PageKind::Blob)
            .unwrap_or(false);
        if ok {
            Ok(())
        } else {
            Err(StorageError::BlobNotFound(id.0))
        }
    }

    /// Total length of the BLOB in bytes.
    pub fn len<P: PageRead>(pool: &mut P, id: BlobId) -> Result<u64> {
        Self::check_first(pool, id)?;
        pool.with_page(PageId(id.0), |p| p.get_u64(FIRST_TOTAL))
    }

    /// Reads the whole BLOB.
    pub fn read<P: PageRead>(pool: &mut P, id: BlobId) -> Result<Vec<u8>> {
        let total = Self::len(pool, id)?;
        Self::read_prefix(pool, id, total as usize)
    }

    /// Reads the first `n` bytes (or the whole BLOB if shorter) — the
    /// progressive-transfer path.
    pub fn read_prefix<P: PageRead>(pool: &mut P, id: BlobId, n: usize) -> Result<Vec<u8>> {
        Self::check_first(pool, id)?;
        let mut out = Vec::with_capacity(n);
        let mut page = PageId(id.0);
        let mut first = true;
        while page.is_some() && out.len() < n {
            let next = pool.with_page(page, |p| {
                let (len_off, data_off) = if first {
                    (FIRST_CHUNK_LEN, FIRST_DATA)
                } else {
                    (CONT_CHUNK_LEN, CONT_DATA)
                };
                let chunk = p.get_u32(len_off) as usize;
                let take = chunk.min(n - out.len());
                out.extend_from_slice(&p.body()[data_off..data_off + take]);
                PageId(p.get_u64(OFF_NEXT))
            })?;
            first = false;
            page = next;
        }
        Ok(out)
    }

    /// Frees every chunk page of the BLOB.
    pub fn delete(pool: &mut BufferPool, id: BlobId) -> Result<()> {
        Self::check_first(pool, id)?;
        let mut page = PageId(id.0);
        while page.is_some() {
            let next = pool.with_page(page, |p| PageId(p.get_u64(OFF_NEXT)))?;
            pool.free_page(page)?;
            page = next;
        }
        Ok(())
    }

    /// Number of chunk pages a BLOB of `len` bytes occupies.
    pub fn pages_for(len: usize) -> usize {
        if len <= FIRST_CAP {
            1
        } else {
            1 + (len - FIRST_CAP).div_ceil(CONT_CAP)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::page::Page;
    use crate::pager::META_FREE_HEAD;

    fn pool() -> BufferPool {
        let mut disk = DiskManager::in_memory();
        let mut meta = Page::new(PageKind::Meta);
        meta.put_u64(META_FREE_HEAD, PageId::NONE.0);
        disk.write_page(PageId::META, &mut meta).unwrap();
        BufferPool::for_tests(disk)
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn empty_blob() {
        let mut pool = pool();
        let id = BlobStore::create(&mut pool, &[]).unwrap();
        assert_eq!(BlobStore::len(&mut pool, id).unwrap(), 0);
        assert!(BlobStore::read(&mut pool, id).unwrap().is_empty());
    }

    #[test]
    fn single_page_blob() {
        let mut pool = pool();
        let data = pattern(1000);
        let id = BlobStore::create(&mut pool, &data).unwrap();
        assert_eq!(BlobStore::read(&mut pool, id).unwrap(), data);
        assert_eq!(BlobStore::pages_for(1000), 1);
    }

    #[test]
    fn multi_page_blob_roundtrip() {
        let mut pool = pool();
        let data = pattern(100_000);
        let id = BlobStore::create(&mut pool, &data).unwrap();
        assert_eq!(BlobStore::len(&mut pool, id).unwrap(), 100_000);
        assert_eq!(BlobStore::read(&mut pool, id).unwrap(), data);
        assert!(BlobStore::pages_for(100_000) > 12);
    }

    #[test]
    fn exact_boundary_sizes() {
        let mut pool = pool();
        for n in [
            FIRST_CAP,
            FIRST_CAP + 1,
            FIRST_CAP + CONT_CAP,
            FIRST_CAP + CONT_CAP + 1,
        ] {
            let data = pattern(n);
            let id = BlobStore::create(&mut pool, &data).unwrap();
            assert_eq!(BlobStore::read(&mut pool, id).unwrap(), data, "size {n}");
        }
    }

    #[test]
    fn prefix_reads() {
        let mut pool = pool();
        let data = pattern(50_000);
        let id = BlobStore::create(&mut pool, &data).unwrap();
        for n in [
            0usize,
            1,
            100,
            FIRST_CAP,
            FIRST_CAP + 5,
            49_999,
            50_000,
            80_000,
        ] {
            let prefix = BlobStore::read_prefix(&mut pool, id, n).unwrap();
            let want = &data[..n.min(data.len())];
            assert_eq!(prefix, want, "prefix {n}");
        }
    }

    #[test]
    fn delete_frees_pages() {
        let mut pool = pool();
        let data = pattern(60_000);
        let id = BlobStore::create(&mut pool, &data).unwrap();
        let before = pool.num_pages();
        BlobStore::delete(&mut pool, id).unwrap();
        // Creating the same blob again reuses freed pages: no growth.
        let _id2 = BlobStore::create(&mut pool, &data).unwrap();
        assert_eq!(pool.num_pages(), before);
    }

    #[test]
    fn missing_blob_rejected() {
        let mut pool = pool();
        assert!(matches!(
            BlobStore::read(&mut pool, BlobId(999)),
            Err(StorageError::BlobNotFound(999))
        ));
        // A heap page is not a blob.
        let hp = pool.allocate(PageKind::Heap).unwrap();
        assert!(BlobStore::read(&mut pool, BlobId(hp.0)).is_err());
    }
}
