//! Fixed-size pages and the on-page primitives shared by all page kinds.
//!
//! Every page is [`PAGE_SIZE`] bytes. The first [`PAGE_HEADER`] bytes are a
//! common header:
//!
//! ```text
//! offset 0..4   crc32 of bytes 4..PAGE_SIZE (stored little-endian)
//! offset 4      page kind tag (PageKind)
//! offset 5..8   reserved (zero)
//! ```
//!
//! The checksum is computed when a page is written to stable storage and
//! verified when it is read back; an in-memory page's checksum field is
//! stale by design.

use crate::error::{Result, StorageError};
use std::fmt;

/// Size of every page in bytes (8 KiB, a common database default).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved at the start of every page for the common header.
pub const PAGE_HEADER: usize = 8;

/// Identifier of a page: its index within the data file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// The meta page (always page 0).
    pub const META: PageId = PageId(0);

    /// Sentinel meaning "no page" in linked-list fields.
    pub const NONE: PageId = PageId(u64::MAX);

    /// `true` unless this is the [`NONE`](Self::NONE) sentinel.
    pub fn is_some(self) -> bool {
        self != PageId::NONE
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == PageId::NONE {
            write!(f, "page(none)")
        } else {
            write!(f, "page{}", self.0)
        }
    }
}

/// What lives on a page; stored in the common header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageKind {
    /// Unallocated / on the free list.
    Free = 0,
    /// The database meta page (page 0).
    Meta = 1,
    /// A slotted heap page.
    Heap = 2,
    /// A B+tree internal node.
    BTreeInternal = 3,
    /// A B+tree leaf node.
    BTreeLeaf = 4,
    /// A BLOB chunk page.
    Blob = 5,
}

impl PageKind {
    /// Decodes a header tag.
    pub fn from_tag(tag: u8) -> Option<PageKind> {
        Some(match tag {
            0 => PageKind::Free,
            1 => PageKind::Meta,
            2 => PageKind::Heap,
            3 => PageKind::BTreeInternal,
            4 => PageKind::BTreeLeaf,
            5 => PageKind::Blob,
            _ => return None,
        })
    }
}

/// An in-memory page image.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page(kind={:?})", self.kind())
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new(PageKind::Free)
    }
}

impl Page {
    /// A zeroed page of the given kind.
    pub fn new(kind: PageKind) -> Self {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data[4] = kind as u8;
        Page { data }
    }

    /// Wraps a raw image read from storage, verifying its checksum.
    pub fn from_bytes(page_id: PageId, bytes: &[u8]) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt {
                page: page_id.0,
                detail: format!("image is {} bytes", bytes.len()),
            });
        }
        let stored = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let computed = crc32(&bytes[4..]);
        if stored != computed {
            return Err(StorageError::Corrupt {
                page: page_id.0,
                detail: format!("checksum {computed:#x} != stored {stored:#x}"),
            });
        }
        if PageKind::from_tag(bytes[4]).is_none() {
            return Err(StorageError::Corrupt {
                page: page_id.0,
                detail: format!("unknown page kind {}", bytes[4]),
            });
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Ok(Page { data })
    }

    /// The page's kind tag.
    pub fn kind(&self) -> PageKind {
        PageKind::from_tag(self.data[4]).unwrap_or(PageKind::Free)
    }

    /// Refreshes the stored checksum and returns the full image for writing.
    pub fn sealed_bytes(&mut self) -> &[u8; PAGE_SIZE] {
        let sum = crc32(&self.data[4..]);
        self.data[0..4].copy_from_slice(&sum.to_le_bytes());
        &self.data
    }

    /// The raw image as-is, checksum field included. Only valid for writing
    /// to storage if the page was sealed after its last mutation.
    pub fn raw_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Read access to the page body (beyond the common header).
    pub fn body(&self) -> &[u8] {
        &self.data[PAGE_HEADER..]
    }

    /// Write access to the page body (beyond the common header).
    pub fn body_mut(&mut self) -> &mut [u8] {
        &mut self.data[PAGE_HEADER..]
    }

    // Little-endian scalar accessors into the body (offsets are body-relative).

    /// Reads a `u16` at body offset `off`.
    pub fn get_u16(&self, off: usize) -> u16 {
        let b = self.body();
        u16::from_le_bytes([b[off], b[off + 1]])
    }

    /// Writes a `u16` at body offset `off`.
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.body_mut()[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u32` at body offset `off`.
    pub fn get_u32(&self, off: usize) -> u32 {
        let b = self.body();
        u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
    }

    /// Writes a `u32` at body offset `off`.
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.body_mut()[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` at body offset `off`.
    pub fn get_u64(&self, off: usize) -> u64 {
        let b = self.body();
        let mut a = [0u8; 8];
        a.copy_from_slice(&b[off..off + 8]);
        u64::from_le_bytes(a)
    }

    /// Writes a `u64` at body offset `off`.
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.body_mut()[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`.
///
/// Table-driven; the table is built on first use.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn page_roundtrip_with_checksum() {
        let mut p = Page::new(PageKind::Heap);
        p.put_u64(0, 0xDEAD_BEEF);
        p.put_u16(8, 42);
        let bytes = p.sealed_bytes().to_vec();
        let q = Page::from_bytes(PageId(3), &bytes).unwrap();
        assert_eq!(q.kind(), PageKind::Heap);
        assert_eq!(q.get_u64(0), 0xDEAD_BEEF);
        assert_eq!(q.get_u16(8), 42);
    }

    #[test]
    fn corruption_detected() {
        let mut p = Page::new(PageKind::Blob);
        p.put_u32(16, 7);
        let mut bytes = p.sealed_bytes().to_vec();
        bytes[100] ^= 0xFF;
        assert!(matches!(
            Page::from_bytes(PageId(9), &bytes),
            Err(StorageError::Corrupt { page: 9, .. })
        ));
    }

    #[test]
    fn wrong_size_rejected() {
        assert!(Page::from_bytes(PageId(1), &[0u8; 100]).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut p = Page::new(PageKind::Heap);
        let mut bytes = p.sealed_bytes().to_vec();
        bytes[4] = 200;
        // Fix checksum to isolate the kind check.
        let sum = crc32(&bytes[4..]);
        bytes[0..4].copy_from_slice(&sum.to_le_bytes());
        assert!(Page::from_bytes(PageId(1), &bytes).is_err());
    }

    #[test]
    fn scalar_accessors() {
        let mut p = Page::new(PageKind::Meta);
        p.put_u16(0, u16::MAX);
        p.put_u32(2, u32::MAX - 1);
        p.put_u64(6, u64::MAX - 2);
        assert_eq!(p.get_u16(0), u16::MAX);
        assert_eq!(p.get_u32(2), u32::MAX - 1);
        assert_eq!(p.get_u64(6), u64::MAX - 2);
    }
}
