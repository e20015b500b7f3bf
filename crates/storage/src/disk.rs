//! The disk manager: raw page I/O over a pluggable byte-level
//! [`Backend`] (a real file, an in-memory vector, or a fault-injecting
//! simulator — see [`crate::backend`]).

use crate::backend::{Backend, FileBackend, MemBackend};
use crate::error::{Result, StorageError};
use crate::failpoint;
use crate::page::{Page, PageId, PAGE_SIZE};
use rcmo_obs::LazyCounter;
use std::path::Path;

static TORN_PAGE_TRUNCATED: LazyCounter =
    LazyCounter::new("storage.salvage.torn_page_truncated.count");

/// Page-granular storage over a byte-level [`Backend`].
#[derive(Debug)]
pub struct DiskManager {
    backend: Box<dyn Backend>,
    pages: u64,
}

impl DiskManager {
    /// Opens (or creates) a file-backed disk manager.
    ///
    /// A data file whose length is not a multiple of the page size has a
    /// torn trailing page from a crash during a page-extending write; the
    /// partial page is never referenced by any committed record (the commit
    /// that would have referenced it never checkpointed), so it is salvaged
    /// by truncation rather than refusing to open.
    pub fn open(path: &Path) -> Result<Self> {
        Self::from_backend(Box::new(FileBackend::open(path)?))
    }

    /// Creates an in-memory disk manager.
    pub fn in_memory() -> Self {
        DiskManager {
            backend: Box::new(MemBackend::new()),
            pages: 0,
        }
    }

    /// Opens a disk manager over an arbitrary backend, applying the same
    /// torn-trailing-page salvage as [`open`](Self::open).
    pub fn from_backend(mut backend: Box<dyn Backend>) -> Result<Self> {
        let len = backend.len()?;
        let torn = len % PAGE_SIZE as u64;
        if torn != 0 {
            backend.set_len(len - torn)?;
            backend.sync()?;
            TORN_PAGE_TRUNCATED.inc();
        }
        Ok(DiskManager {
            pages: (len - torn) / PAGE_SIZE as u64,
            backend,
        })
    }

    /// Number of pages in the store.
    pub fn num_pages(&self) -> u64 {
        self.pages
    }

    /// Reads and checksum-verifies a page.
    pub fn read_page(&mut self, id: PageId) -> Result<Page> {
        if id.0 >= self.pages {
            return Err(StorageError::PageOutOfBounds(id.0));
        }
        let mut image = Box::new([0u8; PAGE_SIZE]);
        self.backend
            .read_at(id.0 * PAGE_SIZE as u64, &mut image[..])?;
        Page::from_image(id, image)
    }

    /// Seals (checksums) and writes a page. Extends the store if `id` is
    /// exactly one past the end; anything further is an error.
    pub fn write_page(&mut self, id: PageId, page: &mut Page) -> Result<()> {
        if id.0 > self.pages {
            return Err(StorageError::PageOutOfBounds(id.0));
        }
        let bytes = page.sealed_bytes();
        self.backend.write_at(id.0 * PAGE_SIZE as u64, bytes)?;
        if id.0 == self.pages {
            self.pages += 1;
        }
        Ok(())
    }

    /// Writes an already-sealed page image verbatim (WAL replay). The image
    /// must be exactly one page; the store is extended as needed, zero-
    /// filling any gap (replay may reference pages past the current end).
    pub fn write_raw(&mut self, id: PageId, image: &[u8]) -> Result<()> {
        if image.len() != PAGE_SIZE {
            return Err(StorageError::Internal(format!(
                "raw image of {} bytes",
                image.len()
            )));
        }
        while self.pages < id.0 {
            let gap = PageId(self.pages);
            let mut filler = Page::new(crate::page::PageKind::Free);
            self.write_page(gap, &mut filler)?;
        }
        self.backend.write_at(id.0 * PAGE_SIZE as u64, image)?;
        if id.0 == self.pages {
            self.pages += 1;
        }
        Ok(())
    }

    /// Flushes OS buffers to stable storage. Passes through the
    /// [`failpoint::DISK_SYNC`] failpoint.
    pub fn sync(&mut self) -> Result<()> {
        failpoint::hit(failpoint::DISK_SYNC)?;
        self.backend.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    #[test]
    fn memory_read_write() {
        let mut dm = DiskManager::in_memory();
        assert_eq!(dm.num_pages(), 0);
        let mut p = Page::new(PageKind::Heap);
        p.put_u64(0, 77);
        dm.write_page(PageId(0), &mut p).unwrap();
        assert_eq!(dm.num_pages(), 1);
        let q = dm.read_page(PageId(0)).unwrap();
        assert_eq!(q.get_u64(0), 77);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut dm = DiskManager::in_memory();
        assert!(dm.read_page(PageId(0)).is_err());
        let mut p = Page::new(PageKind::Heap);
        assert!(dm.write_page(PageId(5), &mut p).is_err());
    }

    #[test]
    fn file_backed_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rcmo-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.db");
        let _ = std::fs::remove_file(&path);
        {
            let mut dm = DiskManager::open(&path).unwrap();
            let mut p = Page::new(PageKind::Blob);
            p.put_u32(0, 123);
            dm.write_page(PageId(0), &mut p).unwrap();
            let mut p2 = Page::new(PageKind::Heap);
            p2.put_u32(4, 456);
            dm.write_page(PageId(1), &mut p2).unwrap();
            dm.sync().unwrap();
        }
        {
            let mut dm = DiskManager::open(&path).unwrap();
            assert_eq!(dm.num_pages(), 2);
            assert_eq!(dm.read_page(PageId(0)).unwrap().get_u32(0), 123);
            assert_eq!(dm.read_page(PageId(1)).unwrap().get_u32(4), 456);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_page_is_truncated_on_open() {
        let dir = std::env::temp_dir().join(format!("rcmo-disk-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.db");
        let _ = std::fs::remove_file(&path);
        {
            let mut dm = DiskManager::open(&path).unwrap();
            let mut p = Page::new(PageKind::Heap);
            p.put_u64(0, 42);
            dm.write_page(PageId(0), &mut p).unwrap();
            dm.sync().unwrap();
        }
        // Simulate a crash mid-way through a page-extending write: append
        // part of a second page.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&vec![0xAB; PAGE_SIZE / 3]).unwrap();
        }
        {
            let mut dm = DiskManager::open(&path).unwrap();
            assert_eq!(dm.num_pages(), 1, "partial page salvaged away");
            assert_eq!(dm.read_page(PageId(0)).unwrap().get_u64(0), 42);
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            PAGE_SIZE as u64,
            "file truncated back to a whole page"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mem_backend_roundtrip_via_from_backend() {
        let mut dm = DiskManager::from_backend(Box::new(MemBackend::new())).unwrap();
        let mut p = Page::new(PageKind::Heap);
        p.put_u64(0, 9);
        dm.write_page(PageId(0), &mut p).unwrap();
        assert_eq!(dm.read_page(PageId(0)).unwrap().get_u64(0), 9);
    }
}
